(* Shared fixtures and Alcotest shortcuts for the Chimera test suite. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_true msg cond = Alcotest.(check bool) msg true cond
let check_false msg cond = Alcotest.(check bool) msg false cond

let check_raises_invalid msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  | exception Invalid_argument _ -> ()

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* A small GEMM chain that exercises every code path cheaply. *)
let small_gemm_chain ?(softmax = false) () =
  Ir.Chain.batch_gemm_chain ~name:"small-gemm" ~batch:2 ~m:12 ~n:6 ~k:5 ~l:10
    ~softmax ()

(* The paper's running example (Figure 2): one batch, M=512 N=64 K=64
   L=512. *)
let figure2_chain () =
  Ir.Chain.batch_gemm_chain ~name:"figure2" ~batch:1 ~m:512 ~n:64 ~k:64 ~l:512
    ()

let small_conv_chain ?(relu = false) () =
  Ir.Chain.conv_chain ~name:"small-conv" ~batch:2 ~ic:3 ~h:9 ~w:9 ~oc1:4
    ~oc2:3 ~st1:2 ~st2:1 ~k1:3 ~k2:3 ~relu ()

let mlkn = [ "b"; "m"; "l"; "k"; "n" ]
let mnkl = [ "b"; "m"; "n"; "k"; "l" ]

let tiling_64 chain =
  Analytical.Tiling.make chain
    [ ("b", 1); ("m", 64); ("n", 64); ("k", 64); ("l", 64) ]

(* Corrupt a cached entry's marshalled analysis the way a stale or
   bit-rotted cache file would: the stored DV no longer matches the
   plan. *)
let corrupt_dv (entry : Service.Plan_cache.entry) =
  let corrupt_lp (lp : Analytical.Planner.level_plan) =
    let open Analytical.Planner in
    let m = lp.plan.movement in
    {
      lp with
      plan =
        {
          lp.plan with
          movement =
            {
              m with
              Analytical.Movement.dv_bytes =
                m.Analytical.Movement.dv_bytes *. 0.25;
            };
        };
    }
  in
  {
    entry with
    Service.Plan_cache.units =
      List.map
        (fun (up : Chimera.Compiler.unit_plan) ->
          {
            up with
            Chimera.Compiler.level_plans =
              List.map corrupt_lp up.Chimera.Compiler.level_plans;
          })
        entry.Service.Plan_cache.units;
  }
