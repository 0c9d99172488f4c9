(* The compilation service: fingerprints, the plan cache, batch
   compilation and the JSONL serve loop. *)

open Helpers

let cpu = Option.get (Arch.Presets.by_name "cpu")
let gpu = Option.get (Arch.Presets.by_name "gpu")
let default = Chimera.Config.default

(* A one-level machine whose on-chip capacity we control, for driving
   the planner into degradation and infeasibility. *)
let tiny_machine ?(name = "tiny") capacity =
  Arch.Machine.make ~name ~backend:Arch.Machine.Cpu ~peak_tflops:1.0
    ~freq_ghz:1.0 ~cores:2 ~vector_registers:32 ~vector_lanes:8
    ~levels:
      [
        Arch.Level.make ~name:"L1" ~capacity_bytes:capacity
          ~link_bandwidth_gbps:100.0 ();
        Arch.Level.dram ~bandwidth_gbps:50.0;
      ]
    ()

let gemm ?(name = "fp-gemm") ?(m = 12) ?(softmax = false) () =
  Ir.Chain.batch_gemm_chain ~name ~batch:2 ~m ~n:6 ~k:5 ~l:10 ~softmax ()

let fp ?(config = default) ?(machine = cpu) chain =
  Service.Fingerprint.of_request ~chain ~machine ~config

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chimera-svc-test-%d-%d" (Unix.getpid ()) !n)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let err_str = Service.Error.to_string

(* Activate a fault-injection spec for the duration of [f] only; the
   global failpoint table is always restored to empty, so suites stay
   independent. *)
let with_failpoints spec f =
  (match Service.Failpoint.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "failpoint spec %S: %s" spec e);
  Fun.protect ~finally:Service.Failpoint.clear f

(* ------------------------------------------------------------------ *)
(* Util.Json                                                           *)
(* ------------------------------------------------------------------ *)

let json_tests =
  let open Util.Json in
  [
    case "print/parse round trip" (fun () ->
        let v =
          Obj
            [
              ("a", Int 1);
              ("b", List [ Bool true; Null; Float 1.5; Int (-3) ]);
              ("s", String "he\"llo\n\t\\");
              ("nested", Obj [ ("empty", List []); ("o", Obj []) ]);
            ]
        in
        check_true "round trip" (parse (to_string v) = Ok v));
    case "ints and floats stay distinct" (fun () ->
        check_true "int" (parse "3" = Ok (Int 3));
        check_true "float" (parse "3.5" = Ok (Float 3.5));
        check_true "exponent is a float" (parse "3e2" = Ok (Float 300.0));
        check_string "int prints bare" "3" (to_string (Int 3)));
    case "string escapes" (fun () ->
        check_string "printed" "\"a\\\"b\\n\"" (to_string (String "a\"b\n"));
        check_true "unicode escape"
          (parse "\"\\u00e9\"" = Ok (String "\xc3\xa9"));
        check_true "surrogate pair"
          (parse "\"\\ud83d\\ude00\"" = Ok (String "\xf0\x9f\x98\x80")));
    case "non-finite floats render as null" (fun () ->
        check_string "nan" "null" (to_string (Float Float.nan));
        check_string "inf" "null" (to_string (Float Float.infinity)));
    case "parse errors are reported" (fun () ->
        let bad s =
          match parse s with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "expected a parse error for %S" s
        in
        bad "{";
        bad "[1,]";
        bad "nul";
        bad "12 x";
        bad "{\"a\" 1}";
        bad "");
    case "accessors are total" (fun () ->
        let j = Obj [ ("n", Int 4); ("s", String "x"); ("f", Float 0.5) ] in
        check_true "member" (member "n" j = Some (Int 4));
        check_true "absent" (member "zz" j = None);
        check_true "non-object" (member "n" (Int 1) = None);
        check_true "int of float" (to_int_opt (Float 4.0) = Some 4);
        check_true "not an int" (to_int_opt (Float 4.5) = None);
        check_true "float of int" (to_float_opt (Int 2) = Some 2.0);
        check_true "string mismatch" (to_string_opt (Int 2) = None));
  ]

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let fingerprint_tests =
  let open Service.Fingerprint in
  [
    case "same request built twice hashes equal" (fun () ->
        let a = fp (gemm ()) and b = fp (gemm ()) in
        check_true "equal" (equal a b);
        check_int "compare" 0 (compare a b);
        check_string "hex stable" (to_hex a) (to_hex b);
        check_int "hex width" 32 (String.length (to_hex a)));
    case "display names are excluded" (fun () ->
        check_true "chain name"
          (equal (fp (gemm ~name:"x" ())) (fp (gemm ~name:"y" ())));
        check_true "machine name"
          (equal
             (fp ~machine:(tiny_machine ~name:"a" 4096) (gemm ()))
             (fp ~machine:(tiny_machine ~name:"b" 4096) (gemm ()))));
    case "axis extent changes the hash" (fun () ->
        check_false "m flip"
          (equal (fp (gemm ~m:12 ())) (fp (gemm ~m:13 ()))));
    case "epilogue changes the hash" (fun () ->
        check_false "softmax flip"
          (equal (fp (gemm ())) (fp (gemm ~softmax:true ()))));
    case "config switch changes the hash" (fun () ->
        let ablated =
          { default with Chimera.Config.use_micro_kernel = false }
        in
        check_false "use_micro_kernel flip"
          (equal (fp (gemm ())) (fp ~config:ablated (gemm ())));
        let unfused = { default with Chimera.Config.use_fusion = false } in
        check_false "use_fusion flip"
          (equal (fp (gemm ())) (fp ~config:unfused (gemm ()))));
    case "machine capacity changes the hash" (fun () ->
        check_false "capacity flip"
          (equal
             (fp ~machine:(tiny_machine 4096) (gemm ()))
             (fp ~machine:(tiny_machine 8192) (gemm ()))));
    case "machine preset changes the hash" (fun () ->
        check_false "cpu vs gpu"
          (equal (fp ~machine:cpu (gemm ())) (fp ~machine:gpu (gemm ()))));
  ]

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

(* Resolution with the deadline ignored (it is not part of the
   identity): the fingerprint hex, or the rejected field. *)
let fingerprint_of ?(base = default) (r : Service.Request.t) =
  match Service.Request.resolve { r with deadline_ms = None } with
  | Error (Service.Error.Invalid_request { field; _ }) -> Error field
  | Error e -> Error (Service.Error.code e)
  | Ok (chain, machine) ->
      Ok
        (Service.Fingerprint.to_hex
           (Service.Fingerprint.of_request ~chain ~machine
              ~config:(Service.Request.config_of ~base r)))

(* Random requests over all ten fields, valid and invalid: unknown
   workloads and archs, out-of-range batches, bad deadlines, malformed
   trace contexts.  Pairs either share their seven identity fields
   (the other three redrawn) or are drawn independently from a domain
   small enough that collisions happen. *)
let request_pair_gen =
  let open QCheck.Gen in
  let workload =
    oneofl [ "G1"; "G2"; "G3"; "G4"; "G5"; "G7"; "G8"; "G12"; "C1"; "C4";
             "C8"; "G99"; ""; "1:G" ]
  in
  let arch = oneofl [ "cpu"; "gpu"; "npu"; "xpu"; "" ] in
  let batch = oneofl [ None; Some 1; Some 4; Some 8; Some 0; Some (-3);
                       Some ((1 lsl 20) + 1) ] in
  let deadline =
    oneofl [ None; Some 50.0; Some 1e9; Some 0.0; Some (-1.0); Some nan;
             Some infinity ]
  in
  let traceparent =
    oneofl [ None; Some "00-0af7651916cd43dd-00000001-01"; Some "garbage" ]
  in
  let extras = triple deadline bool traceparent in
  let request =
    map
      (fun ((workload, arch, softmax, relu), (batch, fusion, tuner),
            (deadline_ms, timings, traceparent)) ->
        {
          Service.Request.workload; arch; softmax; relu; batch; fusion;
          tuner; deadline_ms; timings; traceparent;
        })
      (triple (quad workload arch bool bool) (triple batch bool bool) extras)
  in
  oneof
    [
      pair request request;
      map2
        (fun (a : Service.Request.t) (deadline_ms, timings, traceparent) ->
          (a, { a with deadline_ms; timings; traceparent }))
        request extras;
    ]

let print_request_pair (a, b) =
  let show (r : Service.Request.t) =
    Util.Json.to_string (Service.Request.to_json r)
  in
  show a ^ " / " ^ show b

let request_tests =
  let open Service.Request in
  [
    case "wire form round trips" (fun () ->
        let r =
          make ~workload:"G3" ~arch:"gpu" ~softmax:true ~batch:4
            ~fusion:false ~deadline_ms:250.0 ()
        in
        check_true "round trip" (of_json (to_json r) = Ok r);
        let plain = make ~workload:"C1" ~arch:"npu" () in
        check_true "defaults round trip"
          (of_json (to_json plain) = Ok plain));
    case "decoding rejects missing fields" (fun () ->
        let bad s =
          match Util.Json.parse s with
          | Error e -> Alcotest.failf "setup: %S does not parse: %s" s e
          | Ok j -> (
              match of_json j with
              | Error _ -> ()
              | Ok _ -> Alcotest.failf "expected a decode error for %S" s)
        in
        bad "{\"arch\": \"cpu\"}";
        bad "{\"workload\": \"G1\"}";
        bad "[1]");
    case "resolve names unknown workloads and archs" (fun () ->
        (match resolve (make ~workload:"G99" ~arch:"cpu" ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "G99 resolved");
        match resolve (make ~workload:"G1" ~arch:"xpu" ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "xpu resolved");
    case "all_gemm_x_arch covers G1-G12 on every preset" (fun () ->
        let reqs = all_gemm_x_arch () in
        check_int "count" 36 (List.length reqs);
        List.iter
          (fun r ->
            match resolve r with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: %s" (describe r) (err_str e))
          reqs);
    case "describe flags the non-defaults" (fun () ->
        check_string "softmax" "G2@cpu+softmax"
          (describe (make ~workload:"G2" ~arch:"cpu" ~softmax:true ()));
        check_string "nofusion" "G2@gpu+nofusion"
          (describe (make ~workload:"G2" ~arch:"gpu" ~fusion:false ())));
    case "config_of applies the fusion switch" (fun () ->
        let r = make ~workload:"G1" ~arch:"cpu" ~fusion:false () in
        check_false "fusion off" (config_of r).Chimera.Config.use_fusion;
        let r = make ~workload:"G1" ~arch:"cpu" () in
        check_true "fusion on" (config_of r).Chimera.Config.use_fusion);
    case "identity separates table rows that share a fingerprint" (fun () ->
        let g1 = make ~workload:"G1" ~arch:"cpu" ~batch:4 () in
        let g2 = make ~workload:"G2" ~arch:"cpu" ~batch:4 () in
        check_true "one chain, one fingerprint"
          (fingerprint_of g1 = fingerprint_of g2);
        check_true "two identities" (identity g1 <> identity g2));
    qcheck
      (QCheck.Test.make ~count:300
         ~name:"equal identity: same resolution and fingerprint"
         (QCheck.make ~print:print_request_pair request_pair_gen)
         (fun (a, b) ->
           let same_fields =
             a.workload = b.workload && a.arch = b.arch
             && a.softmax = b.softmax && a.relu = b.relu && a.batch = b.batch
             && a.fusion = b.fusion && a.tuner = b.tuner
           in
           (* Injective over the seven fields, blind to the other three. *)
           (identity a = identity b) = same_fields
           && ((not same_fields)
              || List.for_all
                   (fun base ->
                     fingerprint_of ~base a = fingerprint_of ~base b)
                   [
                     default;
                     { default with Chimera.Config.use_cost_model = false };
                   ])));
  ]

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let dummy_entry =
  {
    Service.Plan_cache.rung = Service.Plan_cache.Fused;
    degrade_reason = None;
    units = [];
  }

let cache_tests =
  let open Service.Plan_cache in
  let fp_m m = fp (gemm ~m ()) in
  [
    case "hit and miss counters mirror into metrics" (fun () ->
        let metrics = Service.Metrics.create () in
        let cache = create ~metrics () in
        check_true "miss" (find cache (fp_m 10) = None);
        add cache (fp_m 10) dummy_entry;
        check_true "hit" (find cache (fp_m 10) <> None);
        check_int "hits" 1 (hits cache);
        check_int "misses" 1 (misses cache);
        check_int "metrics hits" 1 metrics.Service.Metrics.hits;
        check_int "metrics misses" 1 metrics.Service.Metrics.misses);
    case "lru evicts the least recently used" (fun () ->
        let cache = create ~capacity:2 () in
        add cache (fp_m 10) dummy_entry;
        add cache (fp_m 11) dummy_entry;
        add cache (fp_m 12) dummy_entry;
        check_int "length" 2 (length cache);
        check_int "evictions" 1 (evictions cache);
        check_false "oldest gone" (mem cache (fp_m 10));
        check_true "rest stay" (mem cache (fp_m 11) && mem cache (fp_m 12)));
    case "find refreshes recency" (fun () ->
        let cache = create ~capacity:2 () in
        add cache (fp_m 10) dummy_entry;
        add cache (fp_m 11) dummy_entry;
        ignore (find cache (fp_m 10));
        add cache (fp_m 12) dummy_entry;
        check_true "refreshed survives" (mem cache (fp_m 10));
        check_false "stale evicted" (mem cache (fp_m 11)));
    case "disk round trip is bit-identical" (fun () ->
        let cache = create () in
        let chain = small_gemm_chain () in
        (match Service.Batch.compile ~cache ~machine:cpu chain with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (err_str e));
        let key = fp chain in
        let entry = Option.get (find cache key) in
        let bytes = Marshal.to_string entry [] in
        let dir = fresh_dir () in
        save cache ~dir;
        check_false "dirty cleared" (dirty cache);
        let cache2 = create () in
        check_int "loaded" 1 (loaded_count (load cache2 ~dir));
        let entry2 = Option.get (find cache2 key) in
        check_true "bit-identical entry"
          (String.equal bytes (Marshal.to_string entry2 []));
        rm_rf dir);
    case "save preserves recency order" (fun () ->
        let cache = create ~capacity:2 () in
        add cache (fp_m 10) dummy_entry;
        add cache (fp_m 11) dummy_entry;
        let dir = fresh_dir () in
        save cache ~dir;
        let cache2 = create ~capacity:2 () in
        check_int "loaded" 2 (loaded_count (load cache2 ~dir));
        (* fp_m 11 was most recent; adding one more must evict fp_m 10. *)
        add cache2 (fp_m 12) dummy_entry;
        check_false "oldest evicted first" (mem cache2 (fp_m 10));
        check_true "recent kept" (mem cache2 (fp_m 11));
        rm_rf dir);
    case "scheme version mismatch discards the file wholesale" (fun () ->
        let cache = create () in
        add cache (fp_m 10) dummy_entry;
        let dir = fresh_dir () in
        save cache ~dir;
        let file = cache_file ~dir in
        let ic = open_in_bin file in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let body_start = String.index data '\n' + 1 in
        let oc = open_out_bin file in
        Printf.fprintf oc "CHIMERA-PLAN-CACHE %d %d\n" file_version
          (Service.Fingerprint.scheme_version + 1);
        output_string oc
          (String.sub data body_start (String.length data - body_start));
        close_out oc;
        let cache2 = create () in
        (match load cache2 ~dir with
        | Discarded _ -> ()
        | Loaded _ | Absent -> Alcotest.fail "expected Discarded");
        check_int "stays empty" 0 (length cache2);
        rm_rf dir);
    case "a garbage body yields zero trusted entries" (fun () ->
        let dir = fresh_dir () in
        let cache = create () in
        add cache (fp_m 10) dummy_entry;
        save cache ~dir;
        let oc = open_out_bin (cache_file ~dir) in
        Printf.fprintf oc "CHIMERA-PLAN-CACHE %d %d\nnot framed data"
          file_version Service.Fingerprint.scheme_version;
        close_out oc;
        let metrics = Service.Metrics.create () in
        let cache2 = create ~metrics () in
        (match load cache2 ~dir with
        | Loaded { entries = 0; skipped; _ } ->
            check_true "the garbage is skipped" (skipped >= 1)
        | Loaded { entries; _ } ->
            Alcotest.failf "trusted %d entries of garbage" entries
        | Discarded _ | Absent -> Alcotest.fail "expected a skipping load");
        check_true "skips counted"
          (metrics.Service.Metrics.cache_entries_skipped >= 1);
        check_int "stays empty" 0 (length cache2);
        rm_rf dir);
    case "loading a missing file is a clean cold start" (fun () ->
        let cache = create () in
        check_true "absent" (load cache ~dir:(fresh_dir ()) = Absent));
  ]

(* ------------------------------------------------------------------ *)
(* Typed planner/tuner failure                                         *)
(* ------------------------------------------------------------------ *)

let tuner_error_tests =
  [
    case "tuner reports no feasible tiling as a typed error" (fun () ->
        let machine = tiny_machine 8 in
        match
          Chimera.Tuner.search (small_gemm_chain ()) ~machine
            ~trials_per_order:3 ~seed:1 ()
        with
        | Error `No_feasible_tiling -> ()
        | Ok _ -> Alcotest.fail "8 bytes of scratchpad should not fit");
    case "plan_unit surfaces the sampling failure" (fun () ->
        let machine = tiny_machine 8 in
        let config =
          {
            default with
            Chimera.Config.use_cost_model = false;
            tuning_trials = 3;
          }
        in
        let registry = Chimera.Compiler.registry_for config in
        match
          Chimera.Compiler.plan_unit config ~machine ~registry
            (small_gemm_chain ())
        with
        | Error `No_feasible_tiling -> ()
        | Ok _ -> Alcotest.fail "expected Error `No_feasible_tiling");
    case "optimize raises a typed exception on the sampling path"
      (fun () ->
        let machine = tiny_machine 8 in
        let config =
          {
            default with
            Chimera.Config.use_cost_model = false;
            tuning_trials = 3;
          }
        in
        match Chimera.Compiler.optimize ~config ~machine (small_gemm_chain ())
        with
        | _ -> Alcotest.fail "expected No_feasible_tiling"
        | exception Chimera.Compiler.No_feasible_tiling _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Batch compilation                                                   *)
(* ------------------------------------------------------------------ *)

let all_requests = lazy (Service.Request.all_gemm_x_arch ())

(* One sequential cold pass over every G x arch request, shared by the
   acceptance tests below. *)
let cold_sequential =
  lazy
    (let metrics = Service.Metrics.create () in
     let cache = Service.Plan_cache.create ~metrics () in
     let results =
       Service.Batch.run ~jobs:1 ~cache ~metrics (Lazy.force all_requests)
     in
     (cache, metrics, results))

let unit_signature (u : Chimera.Compiler.unit_) =
  ( u.Chimera.Compiler.sub_chain.Ir.Chain.name,
    u.Chimera.Compiler.kernel.Codegen.Kernel.perm,
    Analytical.Tiling.bindings u.Chimera.Compiler.kernel.Codegen.Kernel.tiling
  )

let response_signature (r : Service.Batch.response) =
  ( Service.Fingerprint.to_hex r.Service.Batch.fingerprint,
    r.Service.Batch.degraded,
    List.map unit_signature
      r.Service.Batch.compiled.Chimera.Compiler.units )

let batch_tests =
  [
    slow_case "cold batch compiles every request" (fun () ->
        let _, metrics, results = Lazy.force cold_sequential in
        check_int "responses" 36 (List.length results);
        List.iter
          (fun (req, result) ->
            match result with
            | Ok r ->
                check_true
                  (Service.Request.describe req ^ " freshly compiled")
                  (r.Service.Batch.source = Service.Batch.Compiled)
            | Error e ->
                Alcotest.failf "%s: %s" (Service.Request.describe req)
                  (err_str e))
          results;
        check_int "requests" 36 metrics.Service.Metrics.requests;
        check_int "misses" 36 metrics.Service.Metrics.misses;
        check_int "no failures" 0 metrics.Service.Metrics.failed;
        check_true "solves happened"
          (metrics.Service.Metrics.planner_solves >= 36));
    slow_case "warm batch performs zero planner solves" (fun () ->
        let cache, metrics, _ = Lazy.force cold_sequential in
        Service.Metrics.reset metrics;
        let results =
          Service.Batch.run ~jobs:1 ~cache ~metrics
            (Lazy.force all_requests)
        in
        List.iter
          (fun (req, result) ->
            match result with
            | Ok r ->
                check_true
                  (Service.Request.describe req ^ " from cache")
                  (r.Service.Batch.source = Service.Batch.Cache)
            | Error e ->
                Alcotest.failf "%s: %s" (Service.Request.describe req)
                  (err_str e))
          results;
        check_int "zero planner solves" 0
          metrics.Service.Metrics.planner_solves;
        check_int "all hits" 36 metrics.Service.Metrics.hits;
        check_int "no misses" 0 metrics.Service.Metrics.misses;
        check_float "no planning time" 0.0
          (Service.Metrics.compile_seconds metrics));
    slow_case "parallel batch matches sequential plans exactly" (fun () ->
        let _, _, sequential = Lazy.force cold_sequential in
        let metrics = Service.Metrics.create () in
        let parallel =
          Service.Batch.run ~jobs:4 ~metrics (Lazy.force all_requests)
        in
        check_int "same cardinality" (List.length sequential)
          (List.length parallel);
        List.iter2
          (fun (req, seq_r) (_, par_r) ->
            match (seq_r, par_r) with
            | Ok a, Ok b ->
                check_true
                  (Service.Request.describe req ^ " identical plan")
                  (response_signature a = response_signature b)
            | _ ->
                Alcotest.failf "%s: not Ok on both paths"
                  (Service.Request.describe req))
          sequential parallel;
        check_int "no failures" 0 metrics.Service.Metrics.failed);
    case "duplicate requests are planned once" (fun () ->
        let metrics = Service.Metrics.create () in
        let req = Service.Request.make ~workload:"G1" ~arch:"cpu" () in
        let results = Service.Batch.run ~metrics [ req; req; req ] in
        check_int "responses" 3 (List.length results);
        List.iter
          (fun (_, r) ->
            match r with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (err_str e))
          results;
        (* All three probe the cache before any plan lands, so each
           counts a miss — but the fused chain is solved exactly once. *)
        check_int "three probes missed" 3 metrics.Service.Metrics.misses;
        check_int "planned once" 1 metrics.Service.Metrics.planner_solves);
    case "unresolvable requests are isolated" (fun () ->
        let metrics = Service.Metrics.create () in
        let reqs =
          [
            Service.Request.make ~workload:"G1" ~arch:"cpu" ();
            Service.Request.make ~workload:"G99" ~arch:"cpu" ();
            Service.Request.make ~workload:"G1" ~arch:"xpu" ();
          ]
        in
        match Service.Batch.run ~metrics reqs with
        | [ (_, Ok _); (_, Error e1); (_, Error e2) ] ->
            check_int "failed counted" 2 metrics.Service.Metrics.failed;
            check_int "typed as invalid" 2
              metrics.Service.Metrics.invalid_requests;
            check_string "workload named" "invalid_request"
              (Service.Error.code e1);
            check_string "arch named" "invalid_request"
              (Service.Error.code e2)
        | _ -> Alcotest.fail "expected [Ok; Error; Error] in order");
  ]

(* ------------------------------------------------------------------ *)
(* Degradation                                                         *)
(* ------------------------------------------------------------------ *)

(* A capacity small enough that the fused chain has no feasible tiling
   yet each single stage still fits — found by probing, so the test
   tracks the cost model instead of hard-coding its constants. *)
let find_degrading_capacity chain =
  let candidates =
    [
      16; 24; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768; 1024; 1536;
      2048; 3072; 4096; 6144; 8192;
    ]
  in
  List.find_opt
    (fun cap ->
      match Service.Batch.compile ~machine:(tiny_machine cap) chain with
      | Ok r -> r.Service.Batch.degraded <> None
      | Error _ -> false)
    candidates

let degradation_tests =
  [
    case "fused solve failure degrades to split stages" (fun () ->
        let chain = small_conv_chain () in
        match find_degrading_capacity chain with
        | None ->
            Alcotest.fail
              "no probed capacity separates fused from split feasibility"
        | Some cap ->
            let machine = tiny_machine cap in
            let metrics = Service.Metrics.create () in
            let cache = Service.Plan_cache.create ~metrics () in
            let r =
              match Service.Batch.compile ~cache ~metrics ~machine chain with
              | Ok r -> r
              | Error e -> Alcotest.fail (err_str e)
            in
            check_true "reported degraded"
              (r.Service.Batch.degraded <> None);
            check_true "below the fused rung"
              (r.Service.Batch.rung <> Service.Plan_cache.Fused);
            check_int "one kernel per stage"
              (List.length (Chimera.Compiler.split_stages chain))
              (List.length r.Service.Batch.compiled.Chimera.Compiler.units);
            check_int "counted" 1 metrics.Service.Metrics.degraded;
            (* The degraded entry is cached with its reason and rung. *)
            let r2 =
              match Service.Batch.compile ~cache ~metrics ~machine chain with
              | Ok r -> r
              | Error e -> Alcotest.fail (err_str e)
            in
            check_true "warm hit"
              (r2.Service.Batch.source = Service.Batch.Cache);
            check_true "rung persisted"
              (r2.Service.Batch.rung = r.Service.Batch.rung);
            check_true "reason persisted"
              (r2.Service.Batch.degraded = r.Service.Batch.degraded));
    case "total infeasibility is a typed error, not an exception" (fun () ->
        let metrics = Service.Metrics.create () in
        match
          Service.Batch.compile ~metrics ~machine:(tiny_machine 8)
            (small_gemm_chain ())
        with
        | Error e ->
            check_string "typed" "no_feasible_tiling" (Service.Error.code e);
            check_false "not retryable" (Service.Error.retryable e);
            check_int "failed counted" 1 metrics.Service.Metrics.failed
        | Ok _ -> Alcotest.fail "8 bytes of scratchpad should not compile");
  ]

(* ------------------------------------------------------------------ *)
(* Serve loop                                                          *)
(* ------------------------------------------------------------------ *)

let serve ?verify ?cache_dir lines =
  let in_path = Filename.temp_file "chimera-serve" ".in" in
  let out_path = Filename.temp_file "chimera-serve" ".out" in
  let oc = open_out in_path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let ic = open_in in_path and oc = open_out out_path in
  Service.Serve.run ?verify ?cache_dir ic oc;
  close_in ic;
  close_out oc;
  let ic = open_in out_path in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = read [] in
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  List.map
    (fun l ->
      match Util.Json.parse l with
      | Ok j -> j
      | Error e -> Alcotest.failf "unparsable response %S: %s" l e)
    out

let jfield k j =
  match Util.Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" k

let serve_tests =
  [
    slow_case "the loop answers, caches, and survives bad input" (fun () ->
        let out =
          serve
            [
              "{\"workload\":\"G1\",\"arch\":\"cpu\",\"id\":\"a\"}";
              "";
              "{\"workload\":\"G1\",\"arch\":\"cpu\",\"id\":\"b\"}";
              "not json";
              "{\"workload\":\"G99\",\"arch\":\"cpu\"}";
              "{\"cmd\":\"nope\"}";
              "{\"cmd\":\"stats\"}";
              "{\"cmd\":\"quit\"}";
            ]
        in
        match out with
        | [ first; second; bad_json; bad_workload; bad_cmd; stats; quit ] ->
            check_true "first ok" (jfield "ok" first = Util.Json.Bool true);
            check_true "id echoed"
              (jfield "id" first = Util.Json.String "a");
            check_true "first compiled"
              (jfield "source" first = Util.Json.String "compiled");
            check_true "rung reported"
              (jfield "rung" first = Util.Json.String "fused");
            check_true "second from cache"
              (jfield "source" second = Util.Json.String "cache");
            check_true "same fingerprint"
              (jfield "fingerprint" first = jfield "fingerprint" second);
            check_true "bad json flagged"
              (jfield "ok" bad_json = Util.Json.Bool false);
            check_true "bad json is typed"
              (jfield "code" bad_json = Util.Json.String "invalid_request");
            check_true "unknown workload flagged"
              (jfield "ok" bad_workload = Util.Json.Bool false);
            check_true "unknown workload names its field"
              (jfield "field" bad_workload = Util.Json.String "workload");
            check_true "unknown cmd flagged"
              (jfield "ok" bad_cmd = Util.Json.Bool false);
            check_true "unknown cmd is typed"
              (jfield "code" bad_cmd = Util.Json.String "invalid_request");
            check_true "stats counted the three requests"
              (jfield "requests" stats = Util.Json.Int 3);
            check_true "stats counted the invalid lines"
              (jfield "invalid_requests" stats = Util.Json.Int 3);
            check_true "stats saw the cache hit"
              (jfield "cache_hits" stats = Util.Json.Int 1);
            check_true "quit acknowledged"
              (jfield "ok" quit = Util.Json.Bool true)
        | _ ->
            Alcotest.failf "expected 7 response lines, got %d"
              (List.length out));
    slow_case "a cache_dir makes a restarted server warm" (fun () ->
        let dir = fresh_dir () in
        let request = "{\"workload\":\"G1\",\"arch\":\"cpu\"}" in
        let run_one () =
          let in_path = Filename.temp_file "chimera-serve" ".in" in
          let out_path = Filename.temp_file "chimera-serve" ".out" in
          let oc = open_out in_path in
          output_string oc (request ^ "\n");
          close_out oc;
          let ic = open_in in_path and oc = open_out out_path in
          Service.Serve.run ~cache_dir:dir ic oc;
          close_in ic;
          close_out oc;
          let ic = open_in out_path in
          let line = input_line ic in
          close_in ic;
          Sys.remove in_path;
          Sys.remove out_path;
          Result.get_ok (Util.Json.parse line)
        in
        let cold = run_one () in
        let warm = run_one () in
        check_true "cold compiled"
          (jfield "source" cold = Util.Json.String "compiled");
        check_true "warm across processes"
          (jfield "source" warm = Util.Json.String "cache");
        rm_rf dir);
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let contains_sub text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let metrics_tests =
  [
    case "verify_reused rides stats, the wire, merge and prometheus"
      (fun () ->
        let m = Service.Metrics.create () in
        m.Service.Metrics.verify_reused <- 5;
        check_true "stats"
          (jfield "verify_reused" (Service.Metrics.to_json m)
          = Util.Json.Int 5);
        (match Service.Metrics.of_wire_json (Service.Metrics.to_wire_json m)
         with
        | Ok m' -> check_int "wire" 5 m'.Service.Metrics.verify_reused
        | Error e -> Alcotest.fail e);
        let into = Service.Metrics.create () in
        into.Service.Metrics.verify_reused <- 2;
        Service.Metrics.merge ~into m;
        check_int "merged" 7 into.Service.Metrics.verify_reused;
        let text = Service.Metrics.to_prometheus m in
        check_true "described"
          (contains_sub text
             "# HELP chimera_verify_reused Verified responses answered");
        check_true "exposed" (contains_sub text "\nchimera_verify_reused 5\n"));
    case "table and json expose every counter" (fun () ->
        let m = Service.Metrics.create () in
        m.Service.Metrics.requests <- 3;
        m.Service.Metrics.hits <- 2;
        (* The legacy float totals are now derived from the solve-latency
           histogram's sum, but keep their old wire keys. *)
        Obs.Histogram.observe m.Service.Metrics.solve_ms 500.0;
        check_float "derived seconds" 0.5 (Service.Metrics.compile_seconds m);
        let json = Service.Metrics.to_json m in
        check_true "requests" (jfield "requests" json = Util.Json.Int 3);
        check_true "hits" (jfield "cache_hits" json = Util.Json.Int 2);
        check_true "seconds"
          (jfield "compile_seconds" json = Util.Json.Float 0.5);
        (* The histogram itself is on the wire as a summary object. *)
        (match jfield "solve_ms" json with
        | Util.Json.Obj fields ->
            check_true "histogram count"
              (List.assoc "count" fields = Util.Json.Int 1);
            check_true "histogram p50"
              (match List.assoc "p50_ms" fields with
              | Util.Json.Float p -> p > 0.0
              | _ -> false)
        | _ -> Alcotest.fail "solve_ms is not a summary object");
        Service.Metrics.reset m;
        check_int "reset" 0 m.Service.Metrics.requests;
        check_float "reset clears histograms" 0.0
          (Service.Metrics.compile_seconds m));
    case "plan search counters track cold solves only" (fun () ->
        let metrics = Service.Metrics.create () in
        let cache = Service.Plan_cache.create ~metrics () in
        let chain = gemm () in
        (match Service.Batch.compile ~cache ~metrics ~machine:cpu chain with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (err_str e));
        check_true "cold solve spent time"
          (Service.Metrics.plan_solve_ms_total metrics > 0.0);
        check_true "cold solve evaluated the model"
          (metrics.Service.Metrics.plan_evals_total > 0);
        check_true "pruned counter is sane"
          (metrics.Service.Metrics.plan_perms_pruned_total >= 0);
        let ms = Service.Metrics.plan_solve_ms_total metrics in
        let evals = metrics.Service.Metrics.plan_evals_total in
        let pruned = metrics.Service.Metrics.plan_perms_pruned_total in
        (* A warm hit performs zero solves, so the counters freeze. *)
        (match Service.Batch.compile ~cache ~metrics ~machine:cpu chain with
        | Ok r ->
            check_true "hit" (r.Service.Batch.source = Service.Batch.Cache)
        | Error e -> Alcotest.fail (err_str e));
        check_float "hit adds no solve time" ms
          (Service.Metrics.plan_solve_ms_total metrics);
        check_int "hit adds no evals" evals
          metrics.Service.Metrics.plan_evals_total;
        check_int "hit prunes nothing" pruned
          metrics.Service.Metrics.plan_perms_pruned_total;
        (* The counters travel on the stats wire. *)
        let json = Service.Metrics.to_json metrics in
        check_true "solve ms on the wire"
          (jfield "plan_solve_ms_total" json = Util.Json.Float ms);
        check_true "evals on the wire"
          (jfield "plan_evals_total" json = Util.Json.Int evals);
        check_true "pruned on the wire"
          (jfield "plan_perms_pruned_total" json = Util.Json.Int pruned));
  ]

(* ------------------------------------------------------------------ *)
(* Error taxonomy                                                      *)
(* ------------------------------------------------------------------ *)

let error_tests =
  let open Service.Error in
  [
    case "codes are stable wire strings" (fun () ->
        check_string "invalid" "invalid_request"
          (code (Invalid_request { field = "batch"; reason = "x" }));
        check_string "infeasible" "no_feasible_tiling"
          (code (No_feasible_tiling "x"));
        check_string "deadline" "deadline_exceeded"
          (code (Deadline_exceeded "x"));
        check_string "corrupt" "cache_corrupt" (code (Cache_corrupt "x"));
        check_string "internal" "internal" (code (Internal "x")));
    case "retryability separates transient from deterministic" (fun () ->
        check_false "invalid"
          (retryable (Invalid_request { field = "f"; reason = "r" }));
        check_false "infeasible" (retryable (No_feasible_tiling "x"));
        check_true "deadline" (retryable (Deadline_exceeded "x"));
        check_true "corrupt" (retryable (Cache_corrupt "x"));
        check_true "internal" (retryable (Internal "x")));
    case "of_exn classifies the service's exceptions" (fun () ->
        check_string "expired" "deadline_exceeded"
          (code (of_exn Service.Deadline.Expired));
        check_string "injected" "internal"
          (code (of_exn (Service.Failpoint.Injected "x")));
        check_string "planner infeasibility" "no_feasible_tiling"
          (code (of_exn (Failure "G1: no feasible tiling at L1")));
        check_string "other failure" "internal" (code (of_exn (Failure "boom")));
        check_string "io" "internal" (code (of_exn (Sys_error "disk gone")));
        check_string "invalid argument" "invalid_request"
          (code (of_exn (Invalid_argument "negative extent"))));
    case "the error json carries code, retryable and field" (fun () ->
        let j =
          to_json ~id:(Util.Json.String "r1")
            (Invalid_request { field = "batch"; reason = "must be positive" })
        in
        check_true "id echoed" (jfield "id" j = Util.Json.String "r1");
        check_true "not ok" (jfield "ok" j = Util.Json.Bool false);
        check_true "code"
          (jfield "code" j = Util.Json.String "invalid_request");
        check_true "retryable" (jfield "retryable" j = Util.Json.Bool false);
        check_true "field" (jfield "field" j = Util.Json.String "batch");
        let j2 = to_json (Internal "boom") in
        check_true "no id" (Util.Json.member "id" j2 = None);
        check_true "no field" (Util.Json.member "field" j2 = None);
        check_true "internal is retryable"
          (jfield "retryable" j2 = Util.Json.Bool true));
  ]

(* ------------------------------------------------------------------ *)
(* Failpoints                                                          *)
(* ------------------------------------------------------------------ *)

let failpoint_tests =
  let open Service.Failpoint in
  [
    case "malformed specs are rejected with the reason" (fun () ->
        let bad s =
          match configure s with
          | Error _ -> ()
          | Ok () ->
              clear ();
              Alcotest.failf "expected a parse error for %S" s
        in
        bad "nonsense";
        bad "site=frob";
        bad "site=delay:xx";
        bad "site=prob:2.0:1";
        bad "=raise");
    case "raise fires, is counted, and clears" (fun () ->
        Fun.protect ~finally:clear (fun () ->
            (match configure "t.a=raise" with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            check_true "active" (active ());
            (match hit "t.a" with
            | () -> Alcotest.fail "expected Injected"
            | exception Injected site -> check_string "site" "t.a" site);
            hit "t.other";
            check_int "hits" 1 (hits "t.a");
            check_int "fired" 1 (fired "t.a");
            check_int "other never fired" 0 (fired "t.other"));
        check_false "cleared" (active ());
        (* a hit on a cleared table is a free no-op *)
        hit "t.a");
    case "io injects a Sys_error" (fun () ->
        Fun.protect ~finally:clear (fun () ->
            (match configure "t.io=io" with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            match hit "t.io" with
            | () -> Alcotest.fail "expected Sys_error"
            | exception Sys_error _ -> ()));
    case "@N fires on exactly the nth matching hit" (fun () ->
        Fun.protect ~finally:clear (fun () ->
            (match configure "t.n=raise@2" with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            hit "t.n";
            (match hit "t.n" with
            | () -> Alcotest.fail "the second hit should fire"
            | exception Injected _ -> ());
            hit "t.n";
            check_int "fired once" 1 (fired "t.n")));
    case "ctx substring selects the target" (fun () ->
        Fun.protect ~finally:clear (fun () ->
            (match configure "plan.solve(G5)=raise" with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            hit ~ctx:"G1" "plan.solve";
            hit "plan.solve";
            (match hit ~ctx:"G5.mm1" "plan.solve" with
            | () -> Alcotest.fail "a matching ctx should fire"
            | exception Injected _ -> ());
            check_int "fired for the ctx match only" 1 (fired "plan.solve")));
    case "prob draws are deterministic per seed" (fun () ->
        let draw () =
          Fun.protect ~finally:clear (fun () ->
              (match configure "t.p=prob:0.5:42" with
              | Ok () -> ()
              | Error e -> Alcotest.fail e);
              List.init 32 (fun _ ->
                  match hit "t.p" with
                  | () -> false
                  | exception Injected _ -> true))
        in
        let a = draw () and b = draw () in
        check_true "identical fire pattern" (a = b);
        check_true "some fired" (List.mem true a);
        check_true "some passed" (List.mem false a));
    case "delay waits without failing" (fun () ->
        Fun.protect ~finally:clear (fun () ->
            (match configure "t.d=delay:5" with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            let t0 = Unix.gettimeofday () in
            hit "t.d";
            check_true "slept" (Unix.gettimeofday () -. t0 >= 0.004)));
  ]

(* ------------------------------------------------------------------ *)
(* Request validation limits                                           *)
(* ------------------------------------------------------------------ *)

let validation_tests =
  let open Service.Request in
  let rejects ~field:want req =
    match resolve req with
    | Ok _ -> Alcotest.failf "%s: expected a rejection" (describe req)
    | Error e -> (
        check_string "code" "invalid_request" (Service.Error.code e);
        check_false "not retryable" (Service.Error.retryable e);
        match e with
        | Service.Error.Invalid_request { field; _ } ->
            check_string "field" want field
        | e -> Alcotest.failf "expected invalid_request, got %s" (err_str e))
  in
  [
    case "batch must be positive" (fun () ->
        rejects ~field:"batch" (make ~workload:"G1" ~arch:"cpu" ~batch:0 ());
        rejects ~field:"batch"
          (make ~workload:"G1" ~arch:"cpu" ~batch:(-2) ()));
    case "batch is bounded" (fun () ->
        rejects ~field:"batch"
          (make ~workload:"G1" ~arch:"cpu" ~batch:(max_axis_extent + 1) ()));
    case "deadline must be positive and finite" (fun () ->
        rejects ~field:"deadline_ms"
          (make ~workload:"G1" ~arch:"cpu" ~deadline_ms:0.0 ());
        rejects ~field:"deadline_ms"
          (make ~workload:"G1" ~arch:"cpu" ~deadline_ms:(-10.0) ());
        rejects ~field:"deadline_ms"
          (make ~workload:"G1" ~arch:"cpu" ~deadline_ms:Float.infinity ()));
    case "unknown names carry their field" (fun () ->
        rejects ~field:"workload" (make ~workload:"G99" ~arch:"cpu" ());
        rejects ~field:"arch" (make ~workload:"G1" ~arch:"xpu" ()));
    case "valid requests still resolve" (fun () ->
        match
          resolve
            (make ~workload:"G1" ~arch:"cpu" ~batch:4 ~deadline_ms:50.0 ())
        with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (err_str e));
    slow_case "the serve loop answers a zero batch instead of dying"
      (fun () ->
        let out =
          serve
            [
              "{\"workload\":\"G1\",\"arch\":\"cpu\",\"batch\":0,\"id\":\"z\"}";
              "{\"cmd\":\"quit\"}";
            ]
        in
        match out with
        | [ rejected; quit ] ->
            check_true "flagged" (jfield "ok" rejected = Util.Json.Bool false);
            check_true "typed"
              (jfield "code" rejected = Util.Json.String "invalid_request");
            check_true "field named"
              (jfield "field" rejected = Util.Json.String "batch");
            check_true "id echoed"
              (jfield "id" rejected = Util.Json.String "z");
            check_true "loop survived to quit"
              (jfield "ok" quit = Util.Json.Bool true)
        | _ -> Alcotest.failf "expected 2 responses, got %d" (List.length out));
  ]

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let deadline_tests =
  [
    case "the checker raises once expired" (fun () ->
        let d = Service.Deadline.after ~seconds:(-1.0) in
        check_true "expired" (Service.Deadline.expired d);
        check_true "remaining negative" (Service.Deadline.remaining d < 0.0);
        (match Service.Deadline.checker (Some d) with
        | None -> Alcotest.fail "expected a checker"
        | Some check -> (
            match check () with
            | () -> Alcotest.fail "expected Expired"
            | exception Service.Deadline.Expired -> ()));
        check_true "no deadline, no checker"
          (Service.Deadline.checker None = None);
        check_false "no deadline never expires"
          (Service.Deadline.expired_opt None));
    slow_case "an expired budget degrades to the heuristic rung" (fun () ->
        let metrics = Service.Metrics.create () in
        let t0 = Unix.gettimeofday () in
        let r =
          match
            Service.Batch.compile ~metrics ~machine:cpu
              ~deadline:(Service.Deadline.after ~seconds:(-1.0))
              (small_gemm_chain ())
          with
          | Ok r -> r
          | Error e -> Alcotest.fail (err_str e)
        in
        let wall = Unix.gettimeofday () -. t0 in
        check_true "heuristic rung"
          (r.Service.Batch.rung = Service.Plan_cache.Heuristic);
        check_true "degradation explained" (r.Service.Batch.degraded <> None);
        check_int "deadline hit counted" 1
          metrics.Service.Metrics.deadline_exceeded;
        check_int "heuristic counted" 1 metrics.Service.Metrics.heuristic;
        check_int "degraded counted" 1 metrics.Service.Metrics.degraded;
        check_int "no planner solves" 0 metrics.Service.Metrics.planner_solves;
        check_true "answered within budget plus slack" (wall < 5.0));
    case "an infeasible heuristic under deadline is the deadline error"
      (fun () ->
        let metrics = Service.Metrics.create () in
        match
          Service.Batch.compile ~metrics ~machine:(tiny_machine 8)
            ~deadline:(Service.Deadline.after ~seconds:(-1.0))
            (small_gemm_chain ())
        with
        | Ok _ -> Alcotest.fail "8 bytes should not fit even heuristically"
        | Error e ->
            check_string "code" "deadline_exceeded" (Service.Error.code e);
            check_true "retryable" (Service.Error.retryable e);
            check_int "counted once" 1
              metrics.Service.Metrics.deadline_exceeded);
    slow_case "a wire deadline_ms reaches the batch path" (fun () ->
        let req =
          Service.Request.make ~workload:"G1" ~arch:"cpu"
            ~deadline_ms:0.000001 ()
        in
        match Service.Batch.run [ req ] with
        | [ (_, Ok r) ] ->
            check_true "degraded below fused"
              (r.Service.Batch.rung <> Service.Plan_cache.Fused)
        | [ (_, Error e) ] -> Alcotest.fail (err_str e)
        | _ -> Alcotest.fail "expected exactly one response");
  ]

(* ------------------------------------------------------------------ *)
(* Crash recovery: corrupt cache files and bounded persistence retries  *)
(* ------------------------------------------------------------------ *)

let recovery_tests =
  let open Service.Plan_cache in
  let fp_m m = fp (gemm ~m ()) in
  [
    case "a truncated cache file skips torn frames, keeps the rest"
      (fun () ->
        let dir = fresh_dir () in
        let cache = create () in
        add cache (fp_m 10) dummy_entry;
        add cache (fp_m 11) dummy_entry;
        save cache ~dir;
        let file = cache_file ~dir in
        let ic = open_in_bin file in
        let len = in_channel_length ic in
        let data = really_input_string ic (len - (len / 3)) in
        close_in ic;
        let oc = open_out_bin file in
        output_string oc data;
        close_out oc;
        let metrics = Service.Metrics.create () in
        let cache2 = create ~metrics () in
        (match load cache2 ~dir with
        | Loaded { entries; skipped; _ } ->
            check_true "the torn tail is skipped" (skipped >= 1);
            check_true "never more than what was saved"
              (entries + skipped <= 2);
            check_int "survivors restored" entries (length cache2)
        | Discarded r -> Alcotest.failf "wholesale discard (%s)" r
        | Absent -> Alcotest.fail "the file exists");
        check_true "skips counted"
          (metrics.Service.Metrics.cache_entries_skipped >= 1);
        check_int "not a wholesale corruption" 0
          metrics.Service.Metrics.cache_corrupt;
        rm_rf dir);
    case "a bit-flipped frame is skipped, not unmarshalled" (fun () ->
        let dir = fresh_dir () in
        let cache = create () in
        add cache (fp_m 10) dummy_entry;
        save cache ~dir;
        let file = cache_file ~dir in
        let ic = open_in_bin file in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (* Flip a byte of the first frame's length field, the bytes
           right after the text header — the CRC/framing guards must
           catch it before any Marshal.from_* runs. *)
        let body_start = String.index data '\n' + 1 in
        let b = Bytes.of_string data in
        Bytes.set b body_start
          (Char.chr (Char.code (Bytes.get b body_start) lxor 0xff));
        let oc = open_out_bin file in
        output_bytes oc b;
        close_out oc;
        let metrics = Service.Metrics.create () in
        let cache2 = create ~metrics () in
        (match load cache2 ~dir with
        | Loaded { entries = 0; skipped; _ } ->
            check_true "the flipped frame is skipped" (skipped >= 1)
        | Loaded { entries; _ } ->
            Alcotest.failf "trusted %d corrupt entries" entries
        | Discarded _ | Absent -> Alcotest.fail "expected a skip, not a discard");
        check_true "skips counted"
          (metrics.Service.Metrics.cache_entries_skipped >= 1);
        rm_rf dir);
    case "a flip deep in a frame payload is caught by the CRC" (fun () ->
        let dir = fresh_dir () in
        let cache = create () in
        add cache (fp_m 10) dummy_entry;
        add cache (fp_m 11) dummy_entry;
        save cache ~dir;
        let file = cache_file ~dir in
        let ic = open_in_bin file in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (* Corrupt one byte in the middle of the second frame's payload
           (past length+CRC of frame 1): the framing stays intact, so
           the loader must skip exactly that entry and keep the other. *)
        let b = Bytes.of_string data in
        let pos = Bytes.length b - 8 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x55));
        let oc = open_out_bin file in
        output_bytes oc b;
        close_out oc;
        let metrics = Service.Metrics.create () in
        let cache2 = create ~metrics () in
        (match load cache2 ~dir with
        | Loaded { entries = 1; skipped = 1; _ } -> ()
        | Loaded { entries; skipped; _ } ->
            Alcotest.failf "expected 1 kept / 1 skipped, got %d/%d" entries
              skipped
        | Discarded _ | Absent -> Alcotest.fail "expected a partial load");
        check_int "the good entry still loads" 1 (length cache2);
        check_int "skip counted" 1
          metrics.Service.Metrics.cache_entries_skipped;
        rm_rf dir);
    case "save retries through a transient I/O fault" (fun () ->
        with_failpoints "cache.save=io@1" (fun () ->
            let dir = fresh_dir () in
            let metrics = Service.Metrics.create () in
            let cache = create ~metrics () in
            add cache (fp_m 10) dummy_entry;
            (match save_with_retry ~backoff_s:0.001 cache ~dir with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            check_int "one retry" 1 metrics.Service.Metrics.cache_io_retries;
            check_false "dirty cleared" (dirty cache);
            let cache2 = create () in
            check_int "second attempt persisted" 1
              (loaded_count (load cache2 ~dir));
            rm_rf dir));
    case "a persistent I/O fault is a bounded error" (fun () ->
        with_failpoints "cache.save=io" (fun () ->
            let dir = fresh_dir () in
            let metrics = Service.Metrics.create () in
            let cache = create ~metrics () in
            add cache (fp_m 10) dummy_entry;
            (match save_with_retry ~attempts:3 ~backoff_s:0.001 cache ~dir with
            | Error _ -> ()
            | Ok () -> Alcotest.fail "every attempt should fail");
            check_int "two retries before giving up" 2
              metrics.Service.Metrics.cache_io_retries;
            check_true "still dirty" (dirty cache);
            rm_rf dir));
    case "an injected load fault is a cold start, not a crash" (fun () ->
        let dir = fresh_dir () in
        let cache = create () in
        add cache (fp_m 10) dummy_entry;
        save cache ~dir;
        with_failpoints "cache.load=io" (fun () ->
            let metrics = Service.Metrics.create () in
            let cache2 = create ~metrics () in
            match load cache2 ~dir with
            | Discarded _ ->
                check_int "counted" 1 metrics.Service.Metrics.cache_corrupt
            | Loaded _ | Absent -> Alcotest.fail "expected Discarded");
        rm_rf dir);
  ]

(* ------------------------------------------------------------------ *)
(* Fault injection in batches                                          *)
(* ------------------------------------------------------------------ *)

let injection_workloads = [ "G1"; "G2"; "G4"; "G5"; "G6" ]

let injection_requests () =
  List.map
    (fun w -> Service.Request.make ~workload:w ~arch:"cpu" ())
    injection_workloads

let injection_tests =
  [
    slow_case "one poisoned request degrades alone in a parallel batch"
      (fun () ->
        (* Baseline first, without faults, so "unaffected" is checked
           against what these requests actually produce. *)
        let baseline = Service.Batch.run ~jobs:1 (injection_requests ()) in
        with_failpoints "plan.solve(G5)=raise" (fun () ->
            let metrics = Service.Metrics.create () in
            let results =
              Service.Batch.run ~jobs:4 ~metrics (injection_requests ())
            in
            check_int "all answered" 5 (List.length results);
            List.iter2
              (fun ((req : Service.Request.t), result) (_, base) ->
                match (result, base) with
                | Error e, _ ->
                    Alcotest.failf "%s: %s"
                      (Service.Request.describe req)
                      (err_str e)
                | Ok r, Ok b ->
                    if req.Service.Request.workload = "G5" then begin
                      check_true "G5 degraded below fused"
                        (r.Service.Batch.rung <> Service.Plan_cache.Fused);
                      check_true "G5 carries the injected reason"
                        (r.Service.Batch.degraded <> None)
                    end
                    else
                      check_true
                        (req.Service.Request.workload ^ " matches baseline")
                        (response_signature r = response_signature b)
                | Ok _, Error e ->
                    Alcotest.failf "baseline %s: %s"
                      (Service.Request.describe req)
                      (err_str e))
              results baseline;
            check_int "no failures" 0 metrics.Service.Metrics.failed;
            check_true "the degradation was counted"
              (metrics.Service.Metrics.degraded >= 1)));
    slow_case "a fully poisoned request is a typed error, alone" (fun () ->
        with_failpoints "plan.solve(G5)=raise;plan.heuristic(G5)=raise"
          (fun () ->
            let metrics = Service.Metrics.create () in
            let results =
              Service.Batch.run ~jobs:4 ~metrics (injection_requests ())
            in
            List.iter
              (fun ((req : Service.Request.t), result) ->
                match (req.Service.Request.workload, result) with
                | "G5", Error e ->
                    check_string "typed" "internal" (Service.Error.code e);
                    check_true "retryable" (Service.Error.retryable e)
                | "G5", Ok _ ->
                    Alcotest.fail "G5 should fail on every rung"
                | w, Error e -> Alcotest.failf "%s: %s" w (err_str e)
                | _, Ok _ -> ())
              results;
            check_int "exactly one failure" 1 metrics.Service.Metrics.failed;
            check_int "counted as internal" 1
              metrics.Service.Metrics.internal_errors));
  ]

(* ------------------------------------------------------------------ *)
(* Serve-loop resilience marathon                                      *)
(* ------------------------------------------------------------------ *)

let marathon_tests =
  [
    slow_case "a 1k-line hostile session answers every line and survives"
      (fun () ->
        with_failpoints "serve.handle=raise@17" (fun () ->
            let line i =
              match i mod 5 with
              | 0 -> "{\"workload\":\"G1\",\"arch\":\"cpu\"}"
              | 1 -> Printf.sprintf "not json %d" i
              | 2 -> "{\"cmd\":\"bogus\"}"
              | 3 -> "{\"workload\":\"G99\",\"arch\":\"cpu\"}"
              | _ -> "{\"workload\":\"G1\",\"arch\":\"cpu\",\"batch\":0}"
            in
            let lines =
              List.init 1000 line
              @ [ "{\"cmd\":\"stats\"}"; "{\"cmd\":\"quit\"}" ]
            in
            let out = serve lines in
            check_int "one response per line" 1002 (List.length out);
            (* every request line got a definite answer *)
            List.iteri
              (fun i j ->
                if i < 1000 && Util.Json.member "ok" j = None then
                  Alcotest.failf "line %d: response lacks \"ok\"" i)
              out;
            let stats = List.nth out 1000 in
            check_true "the injected crash was answered as internal"
              (jfield "internal_errors" stats = Util.Json.Int 1);
            check_true "invalid lines were counted"
              (match jfield "invalid_requests" stats with
              | Util.Json.Int n -> n >= 500
              | _ -> false);
            check_true "valid lines kept compiling"
              (match jfield "cache_hits" stats with
              | Util.Json.Int n -> n >= 190
              | _ -> false);
            check_true "still alive at quit"
              (jfield "ok" (List.nth out 1001) = Util.Json.Bool true)));
  ]

(* ------------------------------------------------------------------ *)
(* Observability: timings on the wire, trace ring, histograms           *)
(* ------------------------------------------------------------------ *)

let observability_tests =
  [
    slow_case "timings appear only when the request opts in" (fun () ->
        let out =
          serve
            [
              "{\"workload\":\"G1\",\"arch\":\"cpu\",\"timings\":true,\
               \"id\":\"t\"}";
              "{\"workload\":\"G1\",\"arch\":\"cpu\",\"id\":\"p\"}";
              "{\"cmd\":\"quit\"}";
            ]
        in
        match out with
        | [ timed; plain; _quit ] ->
            check_true "timed ok" (jfield "ok" timed = Util.Json.Bool true);
            (match jfield "trace_id" timed with
            | Util.Json.String tid -> check_int "trace id" 16 (String.length tid)
            | _ -> Alcotest.fail "trace_id missing or not a string");
            (match jfield "timings_ms" timed with
            | Util.Json.Obj phases ->
                check_true "cold compile has a solve phase"
                  (List.mem_assoc "solve" phases);
                check_true "fingerprint phase present"
                  (List.mem_assoc "fingerprint" phases);
                List.iter
                  (fun (_, v) ->
                    check_true "phase totals are floats"
                      (match v with Util.Json.Float f -> f >= 0.0 | _ -> false))
                  phases
            | _ -> Alcotest.fail "timings_ms missing or not an object");
            check_true "plain response has no timings"
              (Util.Json.member "timings_ms" plain = None);
            check_true "plain response has no trace id"
              (Util.Json.member "trace_id" plain = None)
        | _ -> Alcotest.failf "expected 3 lines, got %d" (List.length out));
    (* A batch override makes the batch axis movable: 720 orders at
       each of three levels.  Per-order spans must leave room under
       the span cap for the spans that close after them, or the
       answer loses the skeleton that explains it. *)
    slow_case "a heavy traced answer keeps its skeleton" (fun () ->
        let out =
          serve ~verify:Service.Batch.Verify_strict
            [
              {|{"workload":"C1","arch":"cpu","batch":4,"timings":true,"id":"h"}|};
              {|{"cmd":"quit"}|};
            ]
        in
        match out with
        | [ resp; _quit ] -> (
            check_true "certified"
              (jfield "certificate" resp = Util.Json.String "certified");
            match jfield "timings_ms" resp with
            | Util.Json.Obj phases ->
                List.iter
                  (fun key ->
                    check_true (key ^ " timed") (List.mem_assoc key phases))
                  [ "solve"; "plan.unit"; "planner.level"; "codegen"; "verify" ]
            | _ -> Alcotest.fail "timings_ms missing or not an object")
        | l -> Alcotest.failf "expected 2 responses, got %d" (List.length l));
    slow_case "the traces verb dumps the bounded ring" (fun () ->
        let out =
          serve
            [
              "{\"workload\":\"G1\",\"arch\":\"cpu\"}";
              "{\"workload\":\"G99\",\"arch\":\"cpu\"}";
              "{\"cmd\":\"traces\"}";
              "{\"cmd\":\"quit\"}";
            ]
        in
        match out with
        | [ _ok; _bad; traces; _quit ] ->
            check_true "verb ok" (jfield "ok" traces = Util.Json.Bool true);
            (* The invalid workload was rejected before compilation, so
               only the successful request left a trace. *)
            check_true "one trace in the ring"
              (jfield "count" traces = Util.Json.Int 1);
            (match jfield "traces" traces with
            | Util.Json.List [ t ] ->
                check_true "trace carries spans"
                  (match Util.Json.member "spans" t with
                  | Some (Util.Json.List (_ :: _)) -> true
                  | _ -> false)
            | _ -> Alcotest.fail "traces is not a one-element list")
        | _ -> Alcotest.failf "expected 4 lines, got %d" (List.length out));
    slow_case "stats report latency histograms with quantiles" (fun () ->
        let out =
          serve
            [
              "{\"workload\":\"G1\",\"arch\":\"cpu\"}";
              "{\"workload\":\"G1\",\"arch\":\"cpu\"}";
              "{\"cmd\":\"stats\"}";
              "{\"cmd\":\"quit\"}";
            ]
        in
        match out with
        | [ _a; _b; stats; _quit ] ->
            (match jfield "solve_ms" stats with
            | Util.Json.Obj fields ->
                check_true "one cold solve"
                  (List.assoc "count" fields = Util.Json.Int 1);
                List.iter
                  (fun k ->
                    check_true (k ^ " quantile present")
                      (List.mem_assoc k fields))
                  [ "p50_ms"; "p90_ms"; "p99_ms" ]
            | _ -> Alcotest.fail "solve_ms is not a histogram summary");
            (match jfield "cache_lookup_ms" stats with
            | Util.Json.Obj fields ->
                check_true "both lookups observed"
                  (List.assoc "count" fields = Util.Json.Int 2)
            | _ -> Alcotest.fail "cache_lookup_ms is not a histogram summary")
        | _ -> Alcotest.failf "expected 4 lines, got %d" (List.length out));
    case "prometheus exposition covers counters and histograms" (fun () ->
        let m = Service.Metrics.create () in
        m.Service.Metrics.requests <- 2;
        Obs.Histogram.observe m.Service.Metrics.solve_ms 3.0;
        let text = Service.Metrics.to_prometheus m in
        let contains needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i =
            i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
          in
          go 0
        in
        List.iter
          (fun needle ->
            check_true (Printf.sprintf "exposition has %S" needle)
              (contains needle))
          [
            "# TYPE chimera_requests counter";
            "chimera_requests 2";
            "# TYPE chimera_solve_ms histogram";
            "chimera_solve_ms_bucket{le=\"+Inf\"} 1";
            "chimera_solve_ms_sum";
            "chimera_solve_ms_count 1";
          ]);
    case "the tuner request flag disables the cost model" (fun () ->
        let req =
          match
            Result.bind
              (Util.Json.parse
                 "{\"workload\":\"G1\",\"arch\":\"cpu\",\"tuner\":true}")
              Service.Request.of_json
          with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        check_true "flag parsed" req.Service.Request.tuner;
        let config = Service.Request.config_of ~base:default req in
        check_false "cost model off" config.Chimera.Config.use_cost_model;
        check_true "describe names the tuner"
          (String.ends_with ~suffix:"+tuner" (Service.Request.describe req));
        (* The flag changes planning, so it must change the fingerprint;
           timings is response-shaping only, so it must not. *)
        let plain = Service.Request.make ~workload:"G1" ~arch:"cpu" () in
        let timed =
          Service.Request.make ~timings:true ~workload:"G1" ~arch:"cpu" ()
        in
        let fp_of r =
          match Service.Request.resolve r with
          | Ok (chain, machine) ->
              Service.Fingerprint.of_request ~chain ~machine
                ~config:(Service.Request.config_of ~base:default r)
          | Error e -> Alcotest.fail (err_str e)
        in
        check_true "tuner changes the fingerprint" (fp_of req <> fp_of plain);
        check_true "timings does not" (fp_of timed = fp_of plain);
        (* Round-trip: the flag survives to_json / of_json. *)
        match
          Result.bind
            (Util.Json.parse
               (Util.Json.to_string (Service.Request.to_json req)))
            Service.Request.of_json
        with
        | Ok r2 -> check_true "round-trips" r2.Service.Request.tuner
        | Error e -> Alcotest.fail e);
    slow_case "a tuner compile traces tuner.search spans" (fun () ->
        let metrics = Service.Metrics.create () in
        let cache = Service.Plan_cache.create ~metrics () in
        let config = { default with Chimera.Config.use_cost_model = false } in
        let trace = Obs.Trace.make ~label:"tuner" () in
        (match
           Service.Batch.compile ~cache ~metrics ~config ~obs:trace
             ~machine:cpu (gemm ())
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (err_str e));
        let names =
          List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name)
            (Obs.Trace.spans trace)
        in
        check_true "tuner.search span present"
          (List.mem "tuner.search" names);
        check_true "tuner trials observed in the histogram"
          (Obs.Histogram.count metrics.Service.Metrics.tuner_trial_ms > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Property fuzz: the error wire format round-trips, and no corruption  *)
(* of the cache file ever escapes the loader                            *)
(* ------------------------------------------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let error_arb =
  let open QCheck in
  let msg = Gen.(string_size ~gen:printable (int_range 0 24)) in
  make ~print:Service.Error.to_string
    Gen.(
      oneof
        [
          map2
            (fun field reason ->
              Service.Error.Invalid_request { field; reason })
            msg msg;
          map (fun m -> Service.Error.No_feasible_tiling m) msg;
          map (fun m -> Service.Error.Deadline_exceeded m) msg;
          map (fun m -> Service.Error.Cache_corrupt m) msg;
          map (fun m -> Service.Error.Verify_failed m) msg;
          map (fun m -> Service.Error.Overloaded m) msg;
          map (fun m -> Service.Error.Internal m) msg;
        ])

(* (truncate?, position, flip mask) — how to damage the saved file. *)
let corruption_arb =
  QCheck.(triple bool (int_bound 100_000) (int_range 1 255))

let fuzz_tests =
  [
    qcheck
      (QCheck.Test.make ~count:500
         ~name:"every typed error round-trips through the wire" error_arb
         (fun e ->
           let line = Util.Json.to_string (Service.Error.to_json e) in
           match Util.Json.parse line with
           | Error _ -> false
           | Ok json -> Service.Error.of_json json = Ok e));
    qcheck
      (QCheck.Test.make ~count:60
         ~name:"no cache-file corruption escapes the loader" corruption_arb
         (fun (truncate, pos, mask) ->
           let open Service.Plan_cache in
           let dir = fresh_dir () in
           let saved = 3 in
           let cache = create () in
           for m = 10 to 9 + saved do
             add cache (fp (gemm ~m ())) dummy_entry
           done;
           save cache ~dir;
           let file = cache_file ~dir in
           let ic = open_in_bin file in
           let data = really_input_string ic (in_channel_length ic) in
           close_in ic;
           let damaged =
             if truncate then String.sub data 0 (pos mod (String.length data + 1))
             else begin
               let b = Bytes.of_string data in
               let i = pos mod Bytes.length b in
               Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
               Bytes.to_string b
             end
           in
           let oc = open_out_bin file in
           output_string oc damaged;
           close_out oc;
           let cache2 = create () in
           let ok =
             match load cache2 ~dir with
             | Loaded { entries; skipped; _ } ->
                 (* Only intact frames may be trusted; nothing fabricated.
                    [skipped] is diagnostic only: a flipped length field
                    can shred the remainder into several bogus frames,
                    and a cut at an exact frame boundary reads as a clean
                    (shorter) file. *)
                 entries <= saved && entries = length cache2 && skipped >= 0
             | Discarded _ ->
                 (* A damaged header discards wholesale — still safe. *)
                 length cache2 = 0
             | Absent -> false
           in
           rm_rf dir;
           ok));
  ]

(* ------------------------------------------------------------------ *)
(* Distributed tracing on the serve wire                               *)
(* ------------------------------------------------------------------ *)

let tracing_tests =
  [
    slow_case "a traceparent joins the request to the caller's trace"
      (fun () ->
        let out =
          serve
            [
              "{\"workload\":\"G1\",\"arch\":\"cpu\",\"id\":\"t\","
              ^ "\"traceparent\":\"00-deadbeefcafef00d-000000ab-01\"}";
              "{\"workload\":\"G1\",\"arch\":\"cpu\",\"id\":\"u\"}";
              "{\"cmd\":\"quit\"}";
            ]
        in
        match out with
        | [ traced; untraced; _quit ] ->
            check_true "ok" (jfield "ok" traced = Util.Json.Bool true);
            let ship = jfield "trace" traced in
            check_true "the adopted distributed trace id"
              (jfield "trace_id" ship
              = Util.Json.String "deadbeefcafef00d");
            check_true "parented under the caller's span"
              (jfield "remote_parent" ship = Util.Json.Int 0xab);
            (match jfield "spans" ship with
            | Util.Json.List spans ->
                check_true "spans shipped" (spans <> []);
                check_true "the pipeline root span is present"
                  (List.exists
                     (fun s ->
                       Util.Json.member "name" s
                       = Some (Util.Json.String "request"))
                     spans)
            | _ -> Alcotest.fail "trace.spans is not a list");
            check_true "untraced requests ship nothing"
              (Util.Json.member "trace" untraced = None)
        | l -> Alcotest.failf "expected 3 responses, got %d" (List.length l));
    slow_case "a malformed traceparent never fails the request" (fun () ->
        let out =
          serve
            [
              "{\"workload\":\"G1\",\"arch\":\"cpu\",\"id\":\"m\","
              ^ "\"traceparent\":\"99-not-a-context\"}";
              "{\"cmd\":\"quit\"}";
            ]
        in
        match out with
        | [ resp; _quit ] ->
            check_true "still answers ok"
              (jfield "ok" resp = Util.Json.Bool true);
            check_true "but joins no trace"
              (Util.Json.member "trace" resp = None)
        | l -> Alcotest.failf "expected 2 responses, got %d" (List.length l));
    slow_case "a traced failure's spans wait in the spool for cmd:spans"
      (fun () ->
        with_failpoints "plan.solve(G5)=raise;plan.heuristic(G5)=raise"
          (fun () ->
            let out =
              serve
                [
                  "{\"workload\":\"G5\",\"arch\":\"cpu\",\"id\":\"f\","
                  ^ "\"traceparent\":\"00-deadbeefcafef00d-000000ab-01\"}";
                  "{\"cmd\":\"spans\"}";
                  "{\"cmd\":\"spans\"}";
                  "{\"cmd\":\"quit\"}";
                ]
            in
            match out with
            | [ failed; drained; empty; _quit ] ->
                check_true "the request failed"
                  (jfield "ok" failed = Util.Json.Bool false);
                check_true "error schema carries no trace"
                  (Util.Json.member "trace" failed = None);
                check_true "one spooled payload"
                  (jfield "count" drained = Util.Json.Int 1);
                (match jfield "spans" drained with
                | Util.Json.List [ ship ] ->
                    check_true "the failed request's trace"
                      (jfield "trace_id" ship
                      = Util.Json.String "deadbeefcafef00d")
                | _ -> Alcotest.fail "spans is not a one-payload list");
                check_true "the drain drains"
                  (jfield "count" empty = Util.Json.Int 0)
            | l ->
                Alcotest.failf "expected 4 responses, got %d"
                  (List.length l)));
    slow_case "a traced strict cache hit times each verify pass" (fun () ->
        (* The first hit on an entry loaded from disk runs every pass;
           the next hit on the same entry reuses the stored verdict, so
           it keeps its [verify] span but runs no pass. *)
        let dir = fresh_dir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        ignore
          (serve ~cache_dir:dir
             [
               "{\"workload\":\"G1\",\"arch\":\"cpu\",\"id\":\"cold\"}";
               "{\"cmd\":\"quit\"}";
             ]);
        let hit id =
          "{\"workload\":\"G1\",\"arch\":\"cpu\",\"id\":\"" ^ id
          ^ "\",\"timings\":true}"
        in
        let out =
          serve ~verify:Service.Batch.Verify_strict ~cache_dir:dir
            [ hit "first"; hit "reused"; "{\"cmd\":\"quit\"}" ]
        in
        let phases resp =
          check_true "served from the cache"
            (jfield "source" resp = Util.Json.String "cache");
          check_true "strictly verified"
            (jfield "certificate" resp = Util.Json.String "certified");
          match jfield "timings_ms" resp with
          | Util.Json.Obj phases -> List.map fst phases
          | _ -> Alcotest.fail "timings_ms missing or not an object"
        in
        match out with
        | [ first; reused; _quit ] ->
            let first = phases first and reused = phases reused in
            List.iter
              (fun key -> check_true (key ^ " timed") (List.mem key first))
              [ "verify"; "verify.unit"; "verify.cert"; "verify.diff" ];
            check_true "reused hit keeps its verify span"
              (List.mem "verify" reused);
            List.iter
              (fun key -> check_false (key ^ " not rerun") (List.mem key reused))
              [ "verify.unit"; "verify.cert"; "verify.diff" ]
        | l -> Alcotest.failf "expected 3 responses, got %d" (List.length l));
    slow_case "trace-loss counters ride the stats wire" (fun () ->
        let out =
          serve
            [
              "{\"workload\":\"G1\",\"arch\":\"cpu\",\"id\":\"s\","
              ^ "\"traceparent\":\"00-deadbeefcafef00d-000000ab-01\"}";
              "{\"cmd\":\"stats\"}";
              "{\"cmd\":\"stats\",\"full\":true}";
              "{\"cmd\":\"quit\"}";
            ]
        in
        match out with
        | [ _resp; stats; full; _quit ] ->
            List.iter
              (fun j ->
                List.iter
                  (fun key ->
                    match jfield key j with
                    | Util.Json.Int n ->
                        check_true (key ^ " is non-negative") (n >= 0)
                    | _ -> Alcotest.failf "%s is not an integer" key)
                  [ "trace_spans_dropped"; "trace_ring_evictions" ])
              [ stats; full ]
        | l -> Alcotest.failf "expected 4 responses, got %d" (List.length l));
  ]

(* ------------------------------------------------------------------ *)
(* Stored verification verdicts                                        *)
(* ------------------------------------------------------------------ *)

let strict_compile ~cache ~metrics chain =
  Service.Batch.compile ~cache ~metrics ~verify:Service.Batch.Verify_strict
    ~machine:cpu chain

let check_verify_counts metrics ~runs ~reused =
  check_int "verify_runs" runs metrics.Service.Metrics.verify_runs;
  check_int "verify_reused" reused metrics.Service.Metrics.verify_reused

let verify_attrs (r : Service.Batch.response) =
  List.filter_map
    (fun (sp : Obs.Trace.span) ->
      if sp.Obs.Trace.name = "verify" then
        List.assoc_opt "reused" sp.Obs.Trace.attrs
      else None)
    (Obs.Trace.spans (Option.get r.Service.Batch.trace))

(* A cache directory holding three plans, one of them corrupt, and the
   requests that hit them.  G5 at batch 12 and G1 at batch 12 are
   structurally G4 and G2: the same cache entries under other labels. *)
let make_reuse_dir () =
  let dir = fresh_dir () in
  let metrics = Service.Metrics.create () in
  let cache = Service.Plan_cache.create ~metrics () in
  List.iter
    (fun (workload, arch) ->
      let req = Service.Request.make ~workload ~arch () in
      let chain, machine = Result.get_ok (Service.Request.resolve req) in
      match Service.Batch.compile ~cache ~metrics ~machine chain with
      | Ok r when workload = "G4" ->
          let fp = r.Service.Batch.fingerprint in
          let entry = Option.get (Service.Plan_cache.find cache fp) in
          Service.Plan_cache.add cache fp (corrupt_dv entry)
      | Ok _ -> ()
      | Error e -> Alcotest.fail (err_str e))
    [ ("G4", "cpu"); ("G2", "gpu"); ("G10", "npu") ];
  Service.Plan_cache.save cache ~dir;
  dir

let reuse_pool =
  [|
    {|{"workload":"G4","arch":"cpu","id":"g4"}|};
    {|{"workload":"G5","arch":"cpu","batch":12,"id":"g5-as-g4"}|};
    {|{"workload":"G2","arch":"gpu","id":"g2"}|};
    {|{"workload":"G1","arch":"gpu","batch":12,"timings":true}|};
    {|{"workload":"G10","arch":"npu"}|};
    {|{"workload":"G10","arch":"npu","id":7}|};
  |]

(* A response with its per-run fields removed: planning time and the
   request's timings. *)
let without_timings = function
  | Util.Json.Obj fields ->
      Util.Json.Obj
        (List.filter
           (fun (k, _) ->
             not (List.mem k [ "compile_ms"; "timings_ms"; "trace_id" ]))
           fields)
  | j -> j

let verdict_reuse_tests =
  [
    case "an evicted then reloaded entry is re-verified" (fun () ->
        let dir = fresh_dir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let metrics = Service.Metrics.create () in
        let cache = Service.Plan_cache.create ~capacity:1 ~metrics () in
        let strict chain =
          match strict_compile ~cache ~metrics chain with
          | Ok r -> r
          | Error e -> Alcotest.fail (err_str e)
        in
        let a = gemm () and b = gemm ~m:16 () in
        check_true "fresh plan checked" (verify_attrs (strict a) = [ "false" ]);
        check_true "hit reused" (verify_attrs (strict a) = [ "true" ]);
        check_verify_counts metrics ~runs:1 ~reused:1;
        Service.Plan_cache.save cache ~dir;
        ignore (strict b);
        check_int "a evicted" 1 (Service.Plan_cache.evictions cache);
        check_int "reloaded" 1
          (Service.Plan_cache.loaded_count (Service.Plan_cache.load cache ~dir));
        let r = strict a in
        check_true "served from the reloaded entry"
          (r.Service.Batch.source = Service.Batch.Cache);
        check_true "and checked again" (verify_attrs r = [ "false" ]);
        check_verify_counts metrics ~runs:3 ~reused:1;
        ignore (strict a);
        check_verify_counts metrics ~runs:3 ~reused:2);
    case "a verifier exception is answered, never stored" (fun () ->
        let metrics = Service.Metrics.create () in
        let cache = Service.Plan_cache.create ~metrics () in
        let chain = gemm () in
        with_failpoints "verify.check=raise@1" (fun () ->
            (match strict_compile ~cache ~metrics chain with
            | Error (Service.Error.Verify_failed msg) ->
                check_true "typed as a verifier fault"
                  (contains_sub msg "verifier raised")
            | Error e -> Alcotest.fail (err_str e)
            | Ok _ -> Alcotest.fail "a raising verifier must not certify");
            check_true "the plan itself was cached"
              (Service.Plan_cache.mem cache (fp chain));
            (match strict_compile ~cache ~metrics chain with
            | Ok r ->
                check_true "the hit is checked afresh"
                  (verify_attrs r = [ "false" ]);
                check_true "and certified"
                  (r.Service.Batch.certificate = Some "certified")
            | Error e -> Alcotest.fail (err_str e));
            check_int "the passes ran twice" 2
              (Service.Failpoint.hits "verify.check"));
        check_verify_counts metrics ~runs:2 ~reused:0;
        ignore (strict_compile ~cache ~metrics chain);
        check_verify_counts metrics ~runs:2 ~reused:1);
    slow_case "a sequence answers each request as a fresh server would"
      (fun () ->
        let dir = make_reuse_dir () in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let answer verify lines =
          List.map without_timings
            (serve ~verify ~cache_dir:dir (lines @ [ {|{"cmd":"quit"}|} ]))
        in
        (* What a fresh server loading [dir] answers to one request. *)
        let alone = Hashtbl.create 16 in
        let solo verify i =
          match Hashtbl.find_opt alone (verify, i) with
          | Some r -> r
          | None ->
              let r = List.hd (answer verify [ reuse_pool.(i) ]) in
              Hashtbl.add alone (verify, i) r;
              r
        in
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:25 ~name:"sequence = requests alone"
             QCheck.(
               pair bool
                 (list_of_size Gen.(1 -- 8)
                    (int_bound (Array.length reuse_pool - 1))))
             (fun (warn, picks) ->
               let verify =
                 if warn then Service.Batch.Verify_warn
                 else Service.Batch.Verify_strict
               in
               match
                 answer verify (List.map (fun i -> reuse_pool.(i)) picks)
               with
               | served when List.length served = List.length picks + 1 ->
                   List.for_all2
                     (fun i r ->
                       (match Util.Json.member "source" r with
                       | None | Some (Util.Json.String "cache") -> ()
                       | Some _ -> Alcotest.fail "a pool request missed");
                       r = solo verify i)
                     picks
                     (List.filteri (fun k _ -> k < List.length picks) served)
               | _ -> false)));
  ]

let suites =
  [
    ("service.json", json_tests);
    ("service.fingerprint", fingerprint_tests);
    ("service.request", request_tests);
    ("service.plan_cache", cache_tests);
    ("service.tuner_errors", tuner_error_tests);
    ("service.batch", batch_tests);
    ("service.degradation", degradation_tests);
    ("service.serve", serve_tests);
    ("service.metrics", metrics_tests);
    ("service.observability", observability_tests);
    ("service.errors", error_tests);
    ("service.failpoint", failpoint_tests);
    ("service.validation", validation_tests);
    ("service.deadline", deadline_tests);
    ("service.recovery", recovery_tests);
    ("service.fuzz", fuzz_tests);
    ("service.injection", injection_tests);
    ("service.marathon", marathon_tests);
    ("service.tracing", tracing_tests);
    ("service.verdict_reuse", verdict_reuse_tests);
  ]
