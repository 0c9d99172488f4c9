(* The differential block walk (Verify.Diff_check.simulate) against a
   reference walk.

   [reference_simulate] below is the straightforward formulation of the
   walk: every block rebuilds each reference's
   block-index signature, compares it with the resident one to decide a
   reload, and re-derives the boundary-clipped footprint through
   [Ir.Operator.tile_footprint_bytes].  The production walk must return
   [=] results — DVs, MU and block count, bit for bit — on random
   chains, orders and tilings, including full-extent tiles, ragged last
   tiles on one or several axes, and the over-budget [None] path. *)

open Helpers

let qcheck = QCheck_alcotest.to_alcotest

module Tiling = Analytical.Tiling

let stage_loops perm (op : Ir.Operator.t) =
  List.filter (Ir.Operator.uses_axis op) perm

let reference_simulate ?(max_blocks = 200_000) (chain : Ir.Chain.t) ~perm
    ~tiling =
  Analytical.Movement.validate_perm chain perm;
  let total_blocks =
    List.fold_left
      (fun acc (s : Ir.Chain.stage) ->
        acc
        +. List.fold_left
             (fun p a -> p *. float_of_int (Tiling.trip_count tiling a))
             1.0
             (stage_loops perm s.Ir.Chain.op))
      0.0 chain.Ir.Chain.stages
  in
  if total_blocks > float_of_int max_blocks then None
  else begin
    let io = Ir.Chain.io_names chain in
    let model_dv = ref 0.0 in
    let edge_dv = ref 0.0 in
    let mu = ref 0 in
    let blocks = ref 0 in
    List.iter
      (fun (stage : Ir.Chain.stage) ->
        let op = stage.Ir.Chain.op in
        let loops = Array.of_list (stage_loops perm op) in
        let n = Array.length loops in
        let trips = Array.map (Tiling.trip_count tiling) loops in
        let tiles = Array.map (Tiling.get tiling) loops in
        let extents = Array.map (Tiling.extent_of tiling) loops in
        let idx = Array.make n 0 in
        let eff_tile axis =
          let rec find i =
            if i >= n then Tiling.get tiling axis
            else if loops.(i) = axis then
              min tiles.(i) (extents.(i) - (idx.(i) * tiles.(i)))
            else find (i + 1)
          in
          find 0
        in
        let refs =
          List.map
            (fun (r : Ir.Operator.tensor_ref) ->
              let used =
                Array.init n (fun i ->
                    Ir.Access.uses_axis r.Ir.Operator.access loops.(i))
              in
              let df =
                Ir.Operator.tile_footprint_bytes r
                  ~tile_of:(Tiling.tile_of tiling)
              in
              (r, used, df, List.mem r.Ir.Operator.tensor io, ref None))
            (Ir.Operator.all_refs op)
        in
        let running = ref true in
        while !running do
          incr blocks;
          let working_set = ref 0 in
          List.iter
            (fun ((r : Ir.Operator.tensor_ref), used, df, is_io, resident) ->
              let signature =
                Array.init n (fun i -> if used.(i) then idx.(i) else 0)
              in
              let reload =
                match !resident with None -> true | Some s -> s <> signature
              in
              let edge_fp =
                Ir.Operator.tile_footprint_bytes r ~tile_of:eff_tile
              in
              working_set := !working_set + edge_fp;
              if reload then begin
                resident := Some signature;
                if is_io then begin
                  model_dv := !model_dv +. float_of_int df;
                  edge_dv := !edge_dv +. float_of_int edge_fp
                end
              end)
            refs;
          mu := max !mu !working_set;
          let rec advance i =
            if i < 0 then running := false
            else begin
              idx.(i) <- idx.(i) + 1;
              if idx.(i) >= trips.(i) then begin
                idx.(i) <- 0;
                advance (i - 1)
              end
            end
          in
          advance (n - 1)
        done)
      chain.Ir.Chain.stages;
    Some
      {
        Verify.Diff_check.model_dv_bytes = !model_dv;
        edge_dv_bytes = !edge_dv;
        mu_bytes = !mu;
        blocks = !blocks;
      }
  end

(* How a trial tiles the fused axes. *)
type shape =
  | Random  (** uniform in [1, extent] *)
  | Full  (** every tile = extent: one block per stage *)
  | One_ragged  (** one axis ragged, the rest dividing their extent *)
  | Many_ragged  (** every axis that can be ragged is *)

let shape_name = function
  | Random -> "random"
  | Full -> "tile = extent"
  | One_ragged -> "one ragged axis"
  | Many_ragged -> "several ragged axes"

let sizes e = List.init e (fun i -> i + 1)
let divisors e = List.filter (fun t -> e mod t = 0) (sizes e)
let raggeds e = List.filter (fun t -> e mod t <> 0) (sizes e)

let pick prng l = List.nth l (Util.Prng.int prng ~bound:(List.length l))

(* Returns the tiling and how many axes ended up ragged. *)
let tiling_of_shape prng chain shape =
  let axes = Analytical.Movement.fused_axes chain in
  let can_rag =
    List.filter (fun a -> raggeds (Ir.Chain.extent_of chain a) <> []) axes
  in
  let ragged_axis =
    match (shape, can_rag) with
    | One_ragged, _ :: _ -> Some (pick prng can_rag)
    | _ -> None
  in
  let size axis =
    let e = Ir.Chain.extent_of chain axis in
    match shape with
    | Random -> 1 + Util.Prng.int prng ~bound:e
    | Full -> e
    | One_ragged ->
        if ragged_axis = Some axis then pick prng (raggeds e)
        else pick prng (divisors e)
    | Many_ragged -> (
        match raggeds e with [] -> pick prng (divisors e) | r -> pick prng r)
  in
  let tiling =
    List.fold_left
      (fun t axis -> Tiling.set t axis (size axis))
      (Tiling.ones chain) axes
  in
  let ragged =
    List.length
      (List.filter
         (fun a -> Tiling.extent_of tiling a mod Tiling.get tiling a <> 0)
         axes)
  in
  (tiling, ragged)

let walks_agree ?max_blocks chain ~perm ~tiling =
  Verify.Diff_check.simulate ?max_blocks chain ~perm ~tiling
  = reference_simulate ?max_blocks chain ~perm ~tiling

let prop_walk_matches name arb shape =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "incremental walk = reference walk on %s (%s)" name
         (shape_name shape))
    ~count:150 arb
    (fun (chain, seed) ->
      let prng = Util.Prng.create ~seed in
      let perm = Test_properties.random_perm_of prng chain in
      let tiling, ragged = tiling_of_shape prng chain shape in
      (match shape with
      | Full -> assert (ragged = 0)
      | One_ragged -> assert (ragged <= 1)
      | Random | Many_ragged -> ());
      walks_agree chain ~perm ~tiling)

(* The budget cutoff: both walks give up ([None]) exactly when the block
   count exceeds [max_blocks], and agree bit for bit otherwise. *)
let prop_budget_matches name arb =
  QCheck.Test.make
    ~name:("incremental walk = reference walk under a random budget on " ^ name)
    ~count:150 arb
    (fun (chain, seed) ->
      let prng = Util.Prng.create ~seed in
      let perm = Test_properties.random_perm_of prng chain in
      let tiling = Test_properties.random_tiling_of prng chain in
      let total =
        match reference_simulate ~max_blocks:max_int chain ~perm ~tiling with
        | Some s -> s.Verify.Diff_check.blocks
        | None -> assert false
      in
      let max_blocks = Util.Prng.int prng ~bound:(2 * total + 1) in
      let got = Verify.Diff_check.simulate ~max_blocks chain ~perm ~tiling in
      got = reference_simulate ~max_blocks chain ~perm ~tiling
      && (got = None) = (total > max_blocks))

let shapes = [ Random; Full; One_ragged; Many_ragged ]

(* The paper's workloads at their planned outermost tilings: the
   request-path inputs the walk actually sees. *)
let workload_case =
  case "incremental walk = reference walk on every planned workload (cpu)"
    (fun () ->
      let machine = Option.get (Arch.Presets.by_name "cpu") in
      let chains =
        List.map
          (fun (c : Workloads.Gemm_configs.t) ->
            Workloads.Gemm_configs.chain ~softmax:true c)
          Workloads.Gemm_configs.all
        @ List.map
            (fun (c : Workloads.Conv_configs.t) ->
              Workloads.Conv_configs.chain ~relu:true c)
            Workloads.Conv_configs.all
      in
      List.iter
        (fun chain ->
          let compiled = Chimera.Compiler.optimize ~machine chain in
          List.iter
            (fun (u : Chimera.Compiler.unit_) ->
              let k = u.Chimera.Compiler.kernel in
              let perm, tiling =
                match List.rev k.Codegen.Kernel.level_plans with
                | (lp : Analytical.Planner.level_plan) :: _ ->
                    ( lp.Analytical.Planner.plan.Analytical.Planner.perm,
                      lp.Analytical.Planner.plan.Analytical.Planner.tiling )
                | [] -> (k.Codegen.Kernel.perm, k.Codegen.Kernel.tiling)
              in
              check_true
                (u.Chimera.Compiler.sub_chain.Ir.Chain.name ^ ": walks agree")
                (walks_agree u.Chimera.Compiler.sub_chain ~perm ~tiling))
            compiled.Chimera.Compiler.units)
        chains)

let suites =
  [
    ( "verify.walk",
      List.concat_map
        (fun shape ->
          [
            qcheck
              (prop_walk_matches "gemm chains"
                 Test_properties.arbitrary_gemm_setup shape);
            qcheck
              (prop_walk_matches "conv chains"
                 Test_properties.arbitrary_conv_setup shape);
          ])
        shapes
      @ [
          qcheck
            (prop_budget_matches "gemm chains"
               Test_properties.arbitrary_gemm_setup);
          qcheck
            (prop_budget_matches "conv chains"
               Test_properties.arbitrary_conv_setup);
          workload_case;
        ] );
  ]
