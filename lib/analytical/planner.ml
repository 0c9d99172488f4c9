type plan = {
  perm : string list;
  tiling : Tiling.t;
  movement : Movement.result;
  capacity_bytes : int;
  candidates_evaluated : int;
  perms_pruned : int;
  solver_evals : int;
  certificate : Certificate.t option;
}

(* Seed the descent with the paper's closed-form point when the chain has
   the canonical batch-GEMM axes. *)
let closed_form_starts chain ~capacity_bytes =
  let has name = Ir.Axis.find_opt chain.Ir.Chain.axes name <> None in
  if List.for_all has [ "m"; "n"; "k"; "l" ] then begin
    let e = Ir.Chain.extent_of chain in
    let dtype_bytes =
      match Ir.Chain.tensor_names chain with
      | name :: _ ->
          Tensor.Dtype.bytes (Ir.Chain.find_ref chain name).Ir.Operator.dtype
      | [] -> 2
    in
    let capacity_elems = capacity_bytes / dtype_bytes in
    match
      Closed_form.solve ~m:(e "m") ~n:(e "n") ~k:(e "k") ~l:(e "l")
        ~capacity_elems ()
    with
    | s ->
        [
          Tiling.make chain
            [ ("m", s.t_m); ("n", s.t_n); ("k", s.t_k); ("l", s.t_l) ];
        ]
    | exception Invalid_argument _ -> []
  end
  else []

type candidate = {
  c_perm : string list;
  c_tiling : Tiling.t;
  c_dv_bytes : float;
}

type explore_stats = {
  evaluated : int;
  pruned : int;
  evals : int;
  recalled : int;
}

(* Lower the shared best-so-far (DV, enumeration index) — lexicographic,
   matching the ranked tie-break (earliest-enumerated minimum DV wins).
   CAS-loop because pool workers race on it (the value read is passed
   back verbatim, so the physical comparison in [compare_and_set] is
   sound). *)
let rec atomic_min cell ((dv, idx) as v) =
  let ((cur_dv, cur_idx) as cur) = Atomic.get cell in
  if
    (dv < cur_dv || (dv = cur_dv && idx < cur_idx))
    && not (Atomic.compare_and_set cell cur v)
  then atomic_min cell v

(* Internal: solve every candidate order and keep the per-order verdicts
   in enumeration order — the raw material for both the ranked view and
   the optimality certificate. *)
let explore_raw chain ~capacity_bytes ?max_tile ?min_tile ?perms ?check
    ?(prune = false) ?(engine = `Batched) ?pool ?(obs = Obs.Trace.none) () =
  let perms =
    match perms with Some p -> p | None -> Permutations.candidates chain
  in
  let full_tile = Permutations.full_tile_axes chain in
  let extra_starts = closed_form_starts chain ~capacity_bytes in
  let best = Atomic.make (infinity, max_int) in
  (* One IR traversal serves every order's evaluator; the template is
     immutable after construction, so pool workers share it freely. *)
  let template = Movement.compile_template chain in
  let solve_one recall enum_index perm =
    (* [obs] is captured into pool-worker closures below: the per-order
       span records the worker domain as its tid while keeping the
       caller's span as parent — cross-domain parenting is just value
       capture.  Attribute strings are only built when tracing is on. *)
    Obs.Trace.span obs "order"
      ~attrs:
        (if Obs.Trace.enabled obs then [ ("perm", String.concat "" perm) ]
         else [])
      (fun obs ->
        let prune_above = if prune then Some (Atomic.get best) else None in
        let verdict, evals =
          Solver.solve chain ~perm ~capacity_bytes ~full_tile ?max_tile
            ?min_tile ~extra_starts ?check ~engine ?prune_above ~enum_index
            ~template ~recall ()
        in
        (match verdict with
        | Solver.Feasible sol ->
            atomic_min best
              (sol.Solver.movement.Movement.dv_bytes, enum_index)
        | Solver.Infeasible | Solver.Pruned _ -> ());
        if Obs.Trace.enabled obs then
          Obs.Trace.annot obs
            [
              ( "verdict",
                match verdict with
                | Solver.Feasible _ -> "feasible"
                | Solver.Infeasible -> "infeasible"
                | Solver.Pruned _ -> "pruned" );
              ("evals", string_of_int evals);
            ];
        (verdict, evals))
  in
  let n = List.length perms in
  (* One recall table per lane of this exploration: tables are
     unsynchronized, and a recall is exact, so which lane served which
     order never shows in a verdict. *)
  let lanes =
    match pool with
    | Some pool when n > 1 -> min (Util.Pool.size pool) n
    | _ -> 1
  in
  let tables = Array.init lanes (fun _ -> Solver.recall_table ()) in
  let outcomes =
    (* Workers race only on the prune bound, which is monotone (in the
       lexicographic (DV, index) order) and only ever skips orders that
       cannot be selected — strictly worse, or exactly tied from a later
       enumeration position than the incumbent — so the pooled fan-out
       and the serial loop select the same best plan.  Each lane pulls
       orders off a shared counter with its own table; results are
       reassembled in enumeration order before ranking. *)
    match pool with
    | Some pool when lanes > 1 ->
        let perms_arr = Array.of_list perms in
        let results = Array.make n None in
        let next = Atomic.make 0 in
        let rec lane recall =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <- Some (solve_one recall i perms_arr.(i));
            lane recall
          end
        in
        ignore (Util.Pool.run pool (fun l -> lane tables.(l)) lanes);
        Array.to_list (Array.map Option.get results)
    | _ -> List.mapi (solve_one tables.(0)) perms
  in
  let stats =
    List.fold_left
      (fun acc (verdict, evals) ->
        {
          acc with
          pruned =
            (acc.pruned + match verdict with Solver.Pruned _ -> 1 | _ -> 0);
          evals = acc.evals + evals;
        })
      {
        evaluated = n;
        pruned = 0;
        evals = 0;
        recalled =
          Array.fold_left (fun acc t -> acc + Solver.recalled t) 0 tables;
      }
      outcomes
  in
  (perms, outcomes, stats)

(* Outcomes are in enumeration order, so the stable sort below keeps
   the pre-pruning tie-break: the earliest-enumerated minimum-DV
   order wins. *)
let rank perms outcomes =
  let candidates =
    List.rev
      (List.fold_left2
         (fun acc perm ((verdict : Solver.verdict), _) ->
           match verdict with
           | Solver.Feasible sol ->
               {
                 c_perm = perm;
                 c_tiling = sol.Solver.tiling;
                 c_dv_bytes = sol.Solver.movement.Movement.dv_bytes;
               }
               :: acc
           | Solver.Infeasible | Solver.Pruned _ -> acc)
         [] perms outcomes)
  in
  List.sort (fun a b -> compare a.c_dv_bytes b.c_dv_bytes) candidates

let explore chain ~capacity_bytes ?max_tile ?min_tile ?perms ?check ?prune
    ?engine ?pool ?obs () =
  let perms, outcomes, stats =
    explore_raw chain ~capacity_bytes ?max_tile ?min_tile ?perms ?check
      ?prune ?engine ?pool ?obs ()
  in
  (rank perms outcomes, stats)

(* The per-axis tile bounds every order's solve ran under — recorded in
   the certificate so the checker can re-price pruned witnesses against
   the same search box.  Mirrors the bound/fixed setup in
   [Solver.solve_impl]; both are perm-independent. *)
let search_box chain ?max_tile () =
  let full_tile = Permutations.full_tile_axes chain in
  let fused = Movement.fused_axes chain in
  List.map
    (fun (a : Ir.Axis.t) ->
      if List.mem a.name fused then begin
        let bound =
          match max_tile with
          | None -> a.extent
          | Some f -> Util.Ints.clamp ~lo:1 ~hi:a.extent (f a.name)
        in
        {
          Certificate.axis = a.name;
          bound;
          fixed = List.mem a.name full_tile || bound <= 1;
        }
      end
      else { Certificate.axis = a.name; bound = 1; fixed = true })
    chain.Ir.Chain.axes

let certificate_of chain ~capacity_bytes ~box ~winner_perm ~winner_tiling
    ~winner_dv perms outcomes =
  (* Whether the lower-bound witness theory applies to this box is a
     property of the accesses and the box alone, not of any loop order
     — so one probe settles the [conditional] flag for every entry. *)
  let conditional =
    let ev = Movement.compile chain ~perm:winner_perm in
    let names = Movement.axis_names ev in
    let of_axis name =
      List.find (fun (b : Certificate.box_axis) -> b.axis = name) box
    in
    let bounds = Array.map (fun n -> (of_axis n).Certificate.bound) names in
    let fixed = Array.map (fun n -> (of_axis n).Certificate.fixed) names in
    Movement.dv_lower_bound ev ~bounds ~fixed = None
  in
  let seen_winner = ref false in
  let entries =
    List.map2
      (fun perm ((verdict : Solver.verdict), _) ->
        let outcome =
          match verdict with
          | Solver.Feasible sol ->
              let dv = sol.Solver.movement.Movement.dv_bytes in
              if (not !seen_winner) && perm = winner_perm then begin
                seen_winner := true;
                Certificate.Won { dv_bytes = dv }
              end
              else
                Certificate.Solved
                  { dv_bytes = dv; tiling = Tiling.bindings sol.Solver.tiling }
          | Solver.Infeasible -> Certificate.Infeasible
          | Solver.Pruned { lb_dv } ->
              Certificate.Pruned { lb_dv_bytes = lb_dv }
        in
        { Certificate.perm; outcome })
      perms outcomes
  in
  {
    Certificate.winner_perm;
    winner_tiling = Tiling.bindings winner_tiling;
    winner_dv_bytes = winner_dv;
    capacity_bytes;
    box;
    conditional;
    entries;
  }

(* [optimize], plus the exploration's recall count for the level span. *)
let optimize_recalled chain ~capacity_bytes ?max_tile ?min_tile ?perms ?check
    ?(prune = true) ?engine ?pool ?obs () =
  let perms_overridden = perms <> None in
  let perms, outcomes, stats =
    explore_raw chain ~capacity_bytes ?max_tile ?min_tile ?perms ?check
      ~prune ?engine ?pool ?obs ()
  in
  match rank perms outcomes with
  | [] ->
      failwith
        (Printf.sprintf
           "Planner.optimize: no feasible tiling for chain %s in %d bytes"
           chain.Ir.Chain.name capacity_bytes)
  | best :: _ ->
      let movement =
        Movement.analyze chain ~perm:best.c_perm ~tiling:best.c_tiling
      in
      let certificate =
        (* A caller-supplied order list (tests, fixed-order baselines)
           is not the canonical candidate space, so no optimality claim
           — and therefore no certificate — can be made. *)
        if perms_overridden then None
        else
          Some
            (certificate_of chain ~capacity_bytes
               ~box:(search_box chain ?max_tile ())
               ~winner_perm:best.c_perm ~winner_tiling:best.c_tiling
               ~winner_dv:movement.Movement.dv_bytes perms outcomes)
      in
      ( {
        perm = best.c_perm;
        tiling = best.c_tiling;
        movement;
        capacity_bytes;
        candidates_evaluated = stats.evaluated;
        perms_pruned = stats.pruned;
        solver_evals = stats.evals;
        certificate;
      },
      stats.recalled )

let optimize chain ~capacity_bytes ?max_tile ?min_tile ?perms ?check ?prune
    ?engine ?pool ?obs () =
  fst
    (optimize_recalled chain ~capacity_bytes ?max_tile ?min_tile ?perms
       ?check ?prune ?engine ?pool ?obs ())

let refine_for_parallelism chain plan ~min_blocks ?(slack = 4.0)
    ?min_tile ?(check = fun () -> ()) ?(obs = Obs.Trace.none) () =
  Obs.Trace.span obs "planner.refine" (fun _ ->
  let base_dv = plan.movement.Movement.dv_bytes in
  (* One compiled evaluator serves every trial halving below; its DV is
     bit-exact with [Movement.analyze], so the split chosen matches the
     reference path's. *)
  let ev = Movement.compile chain ~perm:plan.perm in
  (* Split until the parallel tasks keep [min_blocks] cores ~90% busy
     under LPT scheduling, not merely until there are enough of them. *)
  let balanced t =
    Parallelism.efficiency chain t ~cores:min_blocks >= 0.9
  in
  let parallel = Parallelism.parallel_axes chain in
  let rec refine tiling movement =
    check ();
    if balanced tiling then (tiling, movement)
    else begin
      (* Try halving a parallel axis tile; keep the cheapest admissible
         split — only parallel axes add independent tasks. *)
      let candidates =
        List.filter_map
          (fun (axis, size) ->
            let floor_of =
              match min_tile with
              | None -> 1
              | Some f -> max 1 (f axis)
            in
            if size <= floor_of || not (List.mem axis parallel) then None
            else
              let trial =
                Tiling.set tiling axis (max floor_of ((size + 1) / 2))
              in
              let dv, _ = Movement.eval ev ~tiling:trial in
              if dv <= slack *. base_dv then Some (dv, trial) else None)
          (Tiling.bindings tiling)
      in
      match List.sort (fun (a, _) (b, _) -> compare a b) candidates with
      | [] -> (tiling, movement)
      | (_, trial) :: _ ->
          refine trial (Movement.analyze chain ~perm:plan.perm ~tiling:trial)
    end
  in
  let tiling, movement = refine plan.tiling plan.movement in
  { plan with tiling; movement })

type level_plan = {
  level : Arch.Level.t;
  plan : plan;
  feed_bandwidth_gbps : float;
  cost_seconds : float;
}

let optimize_multilevel ?min_blocks ?min_tile ?check ?prune ?engine ?pool
    ?(obs = Obs.Trace.none) chain ~machine =
  let on_chip = Arch.Machine.on_chip_levels machine in
  (* Outer levels feed from the next-outer link; outermost feeds from
     DRAM. *)
  let feeds =
    let rec outer_links = function
      | [] -> []
      | [ _ ] -> [ (Arch.Machine.dram machine).Arch.Level.link_bandwidth_gbps ]
      | _ :: (next :: _ as rest) ->
          next.Arch.Level.link_bandwidth_gbps :: outer_links rest
    in
    outer_links on_chip
  in
  (* Plan outermost level first, then nest inward. *)
  let levels_outer_first = List.rev (List.combine on_chip feeds) in
  let rec plan_levels parent acc = function
    | [] -> acc
    | (level, feed) :: rest ->
        let max_tile =
          match parent with
          | None -> None
          | Some (p : plan) -> Some (fun axis -> Tiling.get p.tiling axis)
        in
        let plan =
          Obs.Trace.span obs "planner.level"
            ~attrs:
              (if Obs.Trace.enabled obs then
                 [ ("level", level.Arch.Level.name) ]
               else [])
            (fun obs ->
              let plan, recalled =
                optimize_recalled chain
                  ~capacity_bytes:level.Arch.Level.capacity_bytes ?max_tile
                  ?min_tile ?check ?prune ?engine ?pool ~obs ()
              in
              if Obs.Trace.enabled obs then
                Obs.Trace.annot obs
                  [
                    ("orders", string_of_int plan.candidates_evaluated);
                    ("pruned", string_of_int plan.perms_pruned);
                    ("evals", string_of_int plan.solver_evals);
                    ("recalled", string_of_int recalled);
                  ];
              (* Occupancy refinement applies at the outermost level,
                 where blocks are distributed over cores. *)
              match (parent, min_blocks) with
              | None, Some min_blocks ->
                  refine_for_parallelism chain plan ~min_blocks ?min_tile
                    ?check ~obs ()
              | _ -> plan)
        in
        let cost_seconds =
          (* The sim-fitted calibration corrects the *cost* of the
             DRAM-facing level only — the DV objective the orders were
             ranked by is untouched, so a calibrated machine selects
             the identical plan and certificate. *)
          let dv = plan.movement.Movement.dv_bytes in
          let dv =
            match parent with
            | None -> Arch.Machine.calibrated_dv_bytes machine dv
            | Some _ -> dv
          in
          dv /. (feed *. 1e9)
        in
        plan_levels (Some plan)
          ({ level; plan; feed_bandwidth_gbps = feed; cost_seconds } :: acc)
          rest
  in
  plan_levels None [] levels_outer_first

let bottleneck = function
  | [] -> invalid_arg "Planner.bottleneck: empty"
  | lp :: rest ->
      List.fold_left
        (fun worst lp ->
          if lp.cost_seconds > worst.cost_seconds then lp else worst)
        lp rest

let memory_time_seconds level_plans = (bottleneck level_plans).cost_seconds

let pp_plan fmt p =
  Format.fprintf fmt
    "order=%s tiles=%s DV=%.3e MB MU=%.1f KiB (%d orders, %d pruned, %d evals)"
    (String.concat "" p.perm)
    (Tiling.to_string p.tiling)
    (p.movement.Movement.dv_bytes /. 1e6)
    (float_of_int p.movement.Movement.mu_bytes /. 1024.0)
    p.candidates_evaluated p.perms_pruned p.solver_evals
