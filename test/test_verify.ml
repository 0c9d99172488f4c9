(* The verifier test suite (lib/verify):

   - the differential block-walk cross-check on 22 chain configurations
     x the three machine presets: the walk's peak working set must equal
     the analytical MU exactly, and the edge-aware DV must bracket the
     model within the documented tolerance (the issue's acceptance bar);
   - the closed-form cross-check (CHIM024) on a grid of two-GEMM shapes;
   - full-driver runs over planner-compiled workloads;
   - property fuzz: random small chains pushed through plan -> verify
     come back clean from every pass;
   - seeded-bug fixtures: forged IR, decompositions, cached analyses and
     codegen structures that strict verification must reject. *)

open Helpers

let qcheck = QCheck_alcotest.to_alcotest
let presets = Arch.Presets.all

module D = Verify.Diagnostic

let has_code code ds = List.exists (fun (d : D.t) -> d.code = code) ds

(* ----------------------------------------------------------------- *)
(* Differential model checking: the config sweep                      *)
(* ----------------------------------------------------------------- *)

(* (batch, m, n, k, l, softmax): extents of 1, primes, powers of two
   and mixed shapes — the corners where edge blocks appear. *)
let gemm_cfgs =
  [
    (1, 8, 8, 8, 8, false);
    (2, 12, 6, 5, 10, false);
    (1, 1, 16, 16, 16, false);
    (3, 7, 11, 13, 5, false);
    (1, 16, 1, 16, 4, false);
    (2, 5, 5, 5, 5, true);
    (1, 127, 8, 8, 8, false);
    (4, 9, 6, 12, 3, true);
    (1, 32, 32, 32, 32, false);
    (2, 17, 4, 19, 6, false);
    (1, 6, 10, 14, 21, false);
    (2, 3, 3, 3, 3, true);
    (1, 64, 16, 8, 24, false);
    (5, 4, 8, 2, 6, false);
  ]

(* (ic, h, w, oc1, oc2, st1, st2, k1, k2, relu): strided and unit
   windows, odd spatial extents, relu on and off. *)
let conv_cfgs =
  [
    (3, 9, 9, 4, 3, 2, 1, 3, 3, false);
    (1, 7, 7, 2, 2, 1, 1, 3, 3, true);
    (4, 11, 11, 8, 4, 1, 2, 3, 1, false);
    (2, 8, 8, 3, 5, 2, 2, 1, 3, false);
    (3, 13, 13, 4, 4, 1, 1, 1, 1, false);
    (1, 9, 7, 6, 2, 1, 1, 3, 3, true);
    (2, 10, 10, 2, 3, 2, 1, 1, 1, false);
    (3, 15, 15, 5, 6, 1, 2, 3, 3, false);
  ]

let sweep_chains () =
  List.mapi
    (fun i (b, m, n, k, l, softmax) ->
      Ir.Chain.batch_gemm_chain
        ~name:(Printf.sprintf "dg%d" i)
        ~batch:b ~m ~n ~k ~l ~softmax ())
    gemm_cfgs
  @ List.mapi
      (fun i (ic, h, w, oc1, oc2, st1, st2, k1, k2, relu) ->
        Ir.Chain.conv_chain
          ~name:(Printf.sprintf "dc%d" i)
          ~batch:1 ~ic ~h ~w ~oc1 ~oc2 ~st1 ~st2 ~k1 ~k2 ~relu ())
      conv_cfgs

let diff_on machine (chain : Ir.Chain.t) =
  match Chimera.Advisor.heuristic_plan ~machine chain with
  | Error msg ->
      Alcotest.failf "%s: heuristic plan failed: %s" chain.name msg
  | Ok plan -> (
      let open Analytical.Planner in
      let ds = Verify.Plan_check.check_plan chain plan in
      check_true (chain.name ^ ": plan check clean") (D.ok ds);
      let ds =
        Verify.Diff_check.check chain ~perm:plan.perm ~tiling:plan.tiling
          ~movement:plan.movement
      in
      check_true (chain.name ^ ": differential clean") (D.ok ds);
      match
        Verify.Diff_check.simulate chain ~perm:plan.perm ~tiling:plan.tiling
      with
      | None -> Alcotest.failf "%s: block walk over budget" chain.name
      | Some sim ->
          (* The acceptance bar, asserted directly rather than through
             the absence of diagnostics. *)
          check_int
            (chain.name ^ ": simulated MU = analytical MU")
            plan.movement.Analytical.Movement.mu_bytes
            sim.Verify.Diff_check.mu_bytes;
          let tol = Verify.Diff_check.default_dv_tolerance chain in
          let model = sim.Verify.Diff_check.model_dv_bytes in
          let edge = sim.Verify.Diff_check.edge_dv_bytes in
          check_true
            (chain.name ^ ": edge DV <= model DV")
            (edge <= model *. (1.0 +. 1e-9));
          check_true
            (chain.name ^ ": model DV within documented tolerance")
            (model <= tol *. edge *. (1.0 +. 1e-9)))

let differential_tests =
  List.map
    (fun (aname, machine) ->
      case
        (Printf.sprintf "sweep: %d configs on %s"
           (List.length gemm_cfgs + List.length conv_cfgs)
           aname)
        (fun () -> List.iter (diff_on machine) (sweep_chains ())))
    presets
  @ [
      case "closed-form cross-check over a shape grid" (fun () ->
          List.iter
            (fun capacity_elems ->
              List.iter
                (fun (m, n, k, l) ->
                  let ds =
                    Verify.Diff_check.check_closed_form ~m ~n ~k ~l
                      ~capacity_elems ()
                  in
                  check_true
                    (Printf.sprintf "m=%d n=%d k=%d l=%d cap=%d" m n k l
                       capacity_elems)
                    (D.ok ds))
                [
                  (512, 64, 64, 512);
                  (2048, 2048, 2048, 2048);
                  (128, 128, 128, 128);
                  (1024, 64, 512, 256);
                  (64, 8, 8, 64);
                ])
            [ 16 * 1024; 96 * 1024; 512 * 1024 ]);
    ]

(* ----------------------------------------------------------------- *)
(* The driver over planner-compiled workloads                         *)
(* ----------------------------------------------------------------- *)

let driver_tests =
  List.map
    (fun (aname, machine) ->
      case ("compiled workloads verify clean on " ^ aname) (fun () ->
          List.iter
            (fun (chain : Ir.Chain.t) ->
              let compiled = Chimera.Compiler.optimize ~machine chain in
              let ds = Verify.Driver.check_compiled compiled in
              check_true
                (chain.name ^ " clean: " ^ D.summary ds)
                (D.ok ds))
            [
              small_gemm_chain ();
              small_gemm_chain ~softmax:true ();
              small_conv_chain ();
              figure2_chain ();
            ]))
    presets

(* ----------------------------------------------------------------- *)
(* Property fuzz: random chains through plan -> verify                *)
(* ----------------------------------------------------------------- *)

let print_chain (chain : Ir.Chain.t) =
  Format.asprintf "%a" Ir.Chain.pp chain

let gemm_gen =
  QCheck.Gen.(
    map
      (fun (b, m, n, k, l, softmax) ->
        Ir.Chain.batch_gemm_chain ~name:"fuzz-gemm" ~batch:b ~m ~n ~k ~l
          ~softmax ())
      (tup6 (int_range 1 3) (int_range 1 12) (int_range 1 12)
         (int_range 1 12) (int_range 1 12) bool))

let conv_gen =
  QCheck.Gen.(
    map
      (fun ((ic, h, w, oc1, oc2), (st1, st2, k1, k2, relu)) ->
        let h = max h (k1 + 2) and w = max w (k1 + 2) in
        Ir.Chain.conv_chain ~name:"fuzz-conv" ~batch:1 ~ic ~h ~w ~oc1 ~oc2
          ~st1 ~st2 ~k1 ~k2 ~relu ())
      (tup2
         (tup5 (int_range 1 3) (int_range 5 10) (int_range 5 10)
            (int_range 1 4) (int_range 1 3))
         (tup5 (int_range 1 2) (int_range 1 2)
            (oneofl [ 1; 3 ])
            (oneofl [ 1; 3 ])
            bool)))

(* Plan the chain on the last degradation rung (cheap, deterministic),
   rebuild the kernel exactly as the service would, and demand that all
   four verifier passes come back clean. *)
let verify_clean (chain, mi) =
  let _, machine = List.nth presets (mi mod List.length presets) in
  match Chimera.Advisor.heuristic_unit_plan ~machine chain with
  | Error _ -> true (* capacity genuinely too small: nothing to verify *)
  | Ok up ->
      let registry =
        Chimera.Compiler.registry_for Chimera.Config.default
      in
      let u =
        Chimera.Compiler.kernel_of_unit_plan ~machine ~registry chain up
      in
      D.ok (Verify.Driver.check_unit u)

let fuzz_arbitrary gen =
  QCheck.make
    ~print:(fun (chain, mi) ->
      Printf.sprintf "%s on %s" (print_chain chain)
        (fst (List.nth presets (mi mod List.length presets))))
    QCheck.Gen.(tup2 gen (int_range 0 2))

let fuzz_tests =
  [
    qcheck
      (QCheck.Test.make ~count:60
         ~name:"random GEMM chains verify clean after heuristic planning"
         (fuzz_arbitrary gemm_gen) verify_clean);
    qcheck
      (QCheck.Test.make ~count:40
         ~name:"random conv chains verify clean after heuristic planning"
         (fuzz_arbitrary conv_gen) verify_clean);
  ]

(* ----------------------------------------------------------------- *)
(* Seeded-bug fixtures                                                *)
(* ----------------------------------------------------------------- *)

let seeded_bug_tests =
  [
    case "forged IR: output indexed by a reduction axis is rejected"
      (fun () ->
        let chain =
          Ir.Chain.single_batch_gemm ~name:"bug-ir" ~batch:2 ~m:8 ~n:8 ~k:8
            ()
        in
        (* Bypass Chain.make's validation by rebuilding the records
           directly — the forgery a marshalled artifact could carry. *)
        let stage = List.hd chain.Ir.Chain.stages in
        let op = stage.Ir.Chain.op in
        let forged_op =
          {
            op with
            Ir.Operator.output =
              {
                op.Ir.Operator.output with
                access = Ir.Access.simple [ "b"; "m"; "k" ];
              };
          }
        in
        let forged =
          {
            chain with
            Ir.Chain.stages =
              [ { stage with op = forged_op; standalone = forged_op } ];
          }
        in
        let ds = Verify.Driver.check_chain forged in
        check_false "strict would reject" (D.ok ds);
        check_true "CHIM006 reported" (has_code "CHIM006" ds));
    case "forged decomposition: out-of-range tiles are rejected" (fun () ->
        let chain = small_gemm_chain () in
        let perm = Analytical.Movement.fused_axes chain in
        let tiling =
          Analytical.Tiling.unchecked chain [ ("m", 4096); ("k", 0) ]
        in
        let ds = Verify.Plan_check.check_decomposition chain ~perm ~tiling in
        check_false "strict would reject" (D.ok ds);
        check_true "CHIM010 reported" (has_code "CHIM010" ds));
    case "forged block order: duplicate axis is rejected" (fun () ->
        let chain = small_gemm_chain () in
        let ds =
          Verify.Plan_check.check_decomposition chain
            ~perm:[ "b"; "m"; "m"; "k"; "l" ]
            ~tiling:(Analytical.Tiling.ones chain)
        in
        check_false "strict would reject" (D.ok ds);
        check_true "CHIM011 reported" (has_code "CHIM011" ds));
    case "corrupt stored analysis: DV and MU drift are rejected" (fun () ->
        let chain = small_gemm_chain () in
        let machine = Arch.Presets.xeon_gold_6240 in
        match Chimera.Advisor.heuristic_plan ~machine chain with
        | Error msg -> Alcotest.failf "heuristic plan failed: %s" msg
        | Ok plan ->
            let open Analytical.Planner in
            let m = plan.movement in
            let dv_bug =
              {
                plan with
                movement =
                  {
                    m with
                    Analytical.Movement.dv_bytes =
                      m.Analytical.Movement.dv_bytes *. 0.5;
                  };
              }
            in
            let ds = Verify.Plan_check.check_plan chain dv_bug in
            check_false "DV drift rejected" (D.ok ds);
            check_true "CHIM014 reported" (has_code "CHIM014" ds);
            let mu_bug =
              {
                plan with
                movement =
                  {
                    m with
                    Analytical.Movement.mu_bytes =
                      m.Analytical.Movement.mu_bytes + 4096;
                  };
              }
            in
            let ds = Verify.Plan_check.check_plan chain mu_bug in
            check_false "MU drift rejected" (D.ok ds);
            check_true "CHIM013 reported" (has_code "CHIM013" ds));
    case "forged codegen structure: undeclared and duplicate buffers"
      (fun () ->
        let machine = Arch.Presets.xeon_gold_6240 in
        let compiled =
          Chimera.Compiler.optimize ~machine (small_gemm_chain ())
        in
        let u = List.hd compiled.Chimera.Compiler.units in
        let s = Codegen.Source.structure u.kernel in
        let chain = u.Chimera.Compiler.sub_chain in
        let undeclared =
          { s with Codegen.Source.buffers = List.tl s.Codegen.Source.buffers }
        in
        let ds =
          Verify.Codegen_check.check_structure ~unit_name:"forged" chain
            undeclared
        in
        check_false "undeclared buffer rejected" (D.ok ds);
        check_true "CHIM030 reported" (has_code "CHIM030" ds);
        let duplicated =
          {
            s with
            Codegen.Source.buffers =
              List.hd s.Codegen.Source.buffers :: s.Codegen.Source.buffers;
          }
        in
        let ds =
          Verify.Codegen_check.check_structure ~unit_name:"forged" chain
            duplicated
        in
        check_false "duplicate buffer rejected" (D.ok ds);
        check_true "CHIM035 reported" (has_code "CHIM035" ds));
    case "corrupt cache entry: service strict mode rejects it end-to-end"
      (fun () ->
        let chain = small_gemm_chain () in
        let machine = Arch.Presets.nvidia_a100 in
        let metrics = Service.Metrics.create () in
        let cache = Service.Plan_cache.create ~metrics () in
        (match Service.Batch.compile ~cache ~metrics ~machine chain with
        | Error e ->
            Alcotest.failf "seed compile failed: %s"
              (Service.Error.to_string e)
        | Ok _ -> ());
        let fp =
          Service.Fingerprint.of_request ~chain ~machine
            ~config:Chimera.Config.default
        in
        let entry = Option.get (Service.Plan_cache.find cache fp) in
        Service.Plan_cache.add cache fp (corrupt_dv entry);
        (* Warn mode answers but attaches the findings... *)
        (match
           Service.Batch.compile ~cache ~metrics ~machine
             ~verify:Service.Batch.Verify_warn chain
         with
        | Error e ->
            Alcotest.failf "warn mode should answer: %s"
              (Service.Error.to_string e)
        | Ok r ->
            check_true "cache hit" (r.Service.Batch.source = Service.Batch.Cache);
            check_false "diagnostics attached"
              (D.ok r.Service.Batch.verification));
        (* ...strict mode rejects with the typed error. *)
        (match
           Service.Batch.compile ~cache ~metrics ~machine
             ~verify:Service.Batch.Verify_strict chain
         with
        | Ok _ -> Alcotest.fail "strict mode accepted a corrupt cache entry"
        | Error (Service.Error.Verify_failed _) -> ()
        | Error e ->
            Alcotest.failf "wrong error: %s" (Service.Error.to_string e));
        check_true "failures counted"
          (metrics.Service.Metrics.verify_failures >= 2));
  ]

(* ----------------------------------------------------------------- *)
(* Stored verdicts: each cache entry is verified once per process      *)
(* ----------------------------------------------------------------- *)

let a100 = Arch.Presets.nvidia_a100

let verified ~verify ~cache ~metrics ?(machine = a100) chain =
  match Service.Batch.compile ~cache ~metrics ~verify ~machine chain with
  | Ok r -> r
  | Error e ->
      Alcotest.failf "%s should answer: %s" chain.Ir.Chain.name
        (Service.Error.to_string e)

let check_counts metrics ~runs ~reused =
  check_int "verify_runs" runs metrics.Service.Metrics.verify_runs;
  check_int "verify_reused" reused metrics.Service.Metrics.verify_reused

(* A cache whose only entry, for [chain] on the A100, is corrupt. *)
let corrupt_cache chain =
  let metrics = Service.Metrics.create () in
  let cache = Service.Plan_cache.create ~metrics () in
  ignore (verified ~verify:Service.Batch.Verify_off ~cache ~metrics chain);
  let fp =
    Service.Fingerprint.of_request ~chain ~machine:a100
      ~config:Chimera.Config.default
  in
  let entry = Option.get (Service.Plan_cache.find cache fp) in
  Service.Plan_cache.add cache fp (corrupt_dv entry);
  (cache, metrics)

let verdict_reuse_tests =
  let strict = Service.Batch.Verify_strict
  and warn = Service.Batch.Verify_warn in
  [
    case "a corrupt entry re-added after a verified hit is still rejected"
      (fun () ->
        let chain = small_gemm_chain () in
        let metrics = Service.Metrics.create () in
        let cache = Service.Plan_cache.create ~metrics () in
        let fresh = verified ~verify:strict ~cache ~metrics chain in
        let hit = verified ~verify:strict ~cache ~metrics chain in
        check_true "served from the cache"
          (hit.Service.Batch.source = Service.Batch.Cache);
        check_true "the same verdict"
          (hit.Service.Batch.certificate = fresh.Service.Batch.certificate);
        check_counts metrics ~runs:1 ~reused:1;
        let fp =
          Service.Fingerprint.of_request ~chain ~machine:a100
            ~config:Chimera.Config.default
        in
        let entry = Option.get (Service.Plan_cache.find cache fp) in
        Service.Plan_cache.add cache fp (corrupt_dv entry);
        let rejected () =
          match
            Service.Batch.compile ~cache ~metrics ~verify:strict
              ~machine:a100 chain
          with
          | Error (Service.Error.Verify_failed _) -> ()
          | Error e ->
              Alcotest.failf "wrong error: %s" (Service.Error.to_string e)
          | Ok _ -> Alcotest.fail "strict mode served a corrupt entry"
        in
        rejected ();
        check_counts metrics ~runs:2 ~reused:1;
        (* The failing verdict is stored like any other. *)
        rejected ();
        check_counts metrics ~runs:2 ~reused:2;
        check_int "every rejection counted" 2
          metrics.Service.Metrics.verify_failures);
    case "warn-mode findings are reproduced on a reused hit" (fun () ->
        let chain = small_gemm_chain () in
        let cache, metrics = corrupt_cache chain in
        let first = verified ~verify:warn ~cache ~metrics chain in
        let again = verified ~verify:warn ~cache ~metrics chain in
        check_false "findings attached"
          (D.ok first.Service.Batch.verification);
        check_true "identical findings"
          (again.Service.Batch.verification
          = first.Service.Batch.verification);
        check_true "identical verdict"
          (again.Service.Batch.certificate = first.Service.Batch.certificate);
        check_counts metrics ~runs:1 ~reused:1;
        check_int "both responses counted" 2
          metrics.Service.Metrics.verify_failures);
    case "a relabelled request is checked under its own labels" (fun () ->
        let chain = small_gemm_chain () in
        let alias =
          Ir.Chain.batch_gemm_chain ~name:"alias-gemm" ~batch:2 ~m:12 ~n:6
            ~k:5 ~l:10 ~softmax:false ()
        in
        let cache, metrics = corrupt_cache chain in
        let labels (r : Service.Batch.response) =
          List.sort_uniq compare
            (List.map
               (fun (d : D.t) -> d.D.loc.D.unit_name)
               r.Service.Batch.verification)
        in
        let own = verified ~verify:warn ~cache ~metrics chain in
        let aliased = verified ~verify:warn ~cache ~metrics alias in
        check_true "one cache entry"
          (aliased.Service.Batch.fingerprint = own.Service.Batch.fingerprint
          && aliased.Service.Batch.source = Service.Batch.Cache);
        check_true "findings name the chain" (labels own = [ "small-gemm" ]);
        check_true "findings name the alias" (labels aliased = [ "alias-gemm" ]);
        check_counts metrics ~runs:2 ~reused:0;
        (* A machine relabel is a different check too... *)
        let renamed = { a100 with Arch.Machine.name = "a100-alias" } in
        ignore (verified ~verify:warn ~cache ~metrics ~machine:renamed alias);
        check_counts metrics ~runs:3 ~reused:0;
        (* ...and the latest labels are the ones reused. *)
        let reused =
          verified ~verify:warn ~cache ~metrics ~machine:renamed alias
        in
        check_counts metrics ~runs:3 ~reused:1;
        check_true "reused findings keep the alias"
          (labels reused = [ "alias-gemm" ]));
  ]

(* ----------------------------------------------------------------- *)
(* Diagnostics plumbing                                               *)
(* ----------------------------------------------------------------- *)

let diagnostic_tests =
  [
    case "codes are registered, unique and well-formed" (fun () ->
        let codes = List.map fst D.registry in
        check_true "unique"
          (List.length codes
          = List.length (List.sort_uniq compare codes));
        List.iter
          (fun c ->
            check_true (c ^ " shape")
              (String.length c = 7 && String.sub c 0 4 = "CHIM"))
          codes);
    case "summary and JSON carry the code" (fun () ->
        let d =
          D.error ~code:"CHIM012" (D.loc ~part:"level L1" "g")
            "MU exceeds capacity"
        in
        check_false "not ok" (D.ok [ d ]);
        check_true "summary mentions code"
          (let s = D.summary [ d ] in
           let needle = "CHIM012" in
           let nl = String.length needle and sl = String.length s in
           let rec go i =
             i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
           in
           go 0);
        match D.to_json d with
        | Util.Json.Obj fields ->
            check_true "code field"
              (List.assoc_opt "code" fields
              = Some (Util.Json.String "CHIM012"))
        | _ -> Alcotest.fail "expected an object");
  ]

let suites =
  [
    ("verify.diagnostics", diagnostic_tests);
    ("verify.differential", differential_tests);
    ("verify.driver", driver_tests);
    ("verify.fuzz", fuzz_tests);
    ("verify.fixtures", seeded_bug_tests);
    ("verify.verdict_reuse", verdict_reuse_tests);
  ]
