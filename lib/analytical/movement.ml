type per_tensor = {
  tensor : string;
  footprint_bytes : int;
  movement_bytes : float;
}

type result = {
  dv_bytes : float;
  mu_bytes : int;
  per_tensor : per_tensor list;
  per_op_mu : (string * int) list;
}

let fused_axes (chain : Ir.Chain.t) =
  let used name =
    List.exists
      (fun (s : Ir.Chain.stage) -> Ir.Operator.uses_axis s.op name)
      chain.stages
  in
  List.filter used (Ir.Axis.names chain.axes)

let validate_perm chain perm =
  let expected = List.sort compare (fused_axes chain) in
  let got = List.sort compare perm in
  if expected <> got then
    invalid_arg
      (Printf.sprintf
         "Movement: perm [%s] is not a permutation of the fused axes [%s]"
         (String.concat "," perm)
         (String.concat "," expected))

(* Data movement of one tensor reference within one operator: the inner
   loop of Algorithm 1 (lines 8-16).  [active] is the current permutation
   with producer-private loops already removed, innermost first.

   Refinement over the paper's listing: a loop breaks the tensor's reuse
   only if it *iterates* (trip count > 1) — a loop whose tile covers its
   whole extent presents the identical data tile at its single block, so
   it cannot replace it (observation 1 applied at block granularity; the
   cache simulator behaves the same way).  With every trip count > 1 the
   two formulations coincide. *)
let ref_movement (op : Ir.Operator.t) (r : Ir.Operator.tensor_ref)
    ~active_innermost_first ~tiling =
  let df = Ir.Operator.tile_footprint_bytes r ~tile_of:(Tiling.tile_of tiling) in
  let dm = ref (float_of_int df) in
  let keep_reuse = ref true in
  List.iter
    (fun l ->
      if Ir.Operator.uses_axis op l then begin
        let trips = Tiling.trip_count tiling l in
        if Ir.Access.uses_axis r.access l && trips > 1 then
          keep_reuse := false;
        if not !keep_reuse then dm := !dm *. float_of_int trips
      end)
    active_innermost_first;
  (df, !dm)

let analyze ?(charge_intermediates = false) (chain : Ir.Chain.t) ~perm ~tiling =
  validate_perm chain perm;
  let io =
    if charge_intermediates then Ir.Chain.tensor_names chain
    else Ir.Chain.io_names chain
  in
  let innermost_first = List.rev perm in
  let active = ref innermost_first in
  let dv = ref 0.0 in
  let mu = ref 0 in
  let per_tensor = Hashtbl.create 8 in
  let per_op_mu = ref [] in
  List.iter
    (fun (stage : Ir.Chain.stage) ->
      let op = stage.op in
      let total_df = ref 0 in
      List.iter
        (fun (r : Ir.Operator.tensor_ref) ->
          let df, dm =
            ref_movement op r ~active_innermost_first:!active ~tiling
          in
          total_df := !total_df + df;
          let charged = List.mem r.tensor io in
          let dm = if charged then dm else 0.0 in
          if charged then dv := !dv +. dm;
          (match Hashtbl.find_opt per_tensor r.tensor with
          | None ->
              Hashtbl.add per_tensor r.tensor
                { tensor = r.tensor; footprint_bytes = df; movement_bytes = dm }
          | Some prev ->
              Hashtbl.replace per_tensor r.tensor
                {
                  prev with
                  footprint_bytes = max prev.footprint_bytes df;
                  movement_bytes = prev.movement_bytes +. dm;
                });
          ())
        (Ir.Operator.all_refs op);
      per_op_mu := (op.Ir.Operator.name, !total_df) :: !per_op_mu;
      mu := max !mu !total_df;
      (* Observation 3: loops private to this producer never iterate the
         consumers' tensors — drop them before the next stage. *)
      active :=
        List.filter
          (fun l ->
            not
              (Ir.Operator.uses_axis op l && Ir.Chain.axis_is_private chain l))
          !active)
    chain.stages;
  let per_tensor =
    (* Report in first-use order. *)
    List.filter_map (Hashtbl.find_opt per_tensor) (Ir.Chain.tensor_names chain)
  in
  {
    dv_bytes = !dv;
    mu_bytes = !mu;
    per_tensor;
    per_op_mu = List.rev !per_op_mu;
  }

(* ------------------------------------------------------------------ *)
(* Compiled evaluators                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything in Algorithm 1 except the arithmetic on tile sizes is a
   function of the (chain, perm) pair alone: which loops are active at
   each stage (observation 3's producer-private filtering), which of
   them an operator iterates, which index each tensor's access, and the
   per-dimension footprint terms.  [compile] runs that symbolic part
   once and freezes it into flat integer arrays; [eval_array] then
   reproduces [analyze]'s DV/MU — bit-exactly, the float operations
   happen in the identical order — from a plain tile-size vector with
   no list or string traffic.  The solver's coordinate descent calls it
   thousands of times per permutation. *)

type eref = {
  e_charged : bool;  (* contributes to DV (an IO tensor) *)
  e_dtype_bytes : int;
  e_dims : (int * (int * int) array) array;
      (* per tensor dimension: (dim bound, [(axis index, coeff)]) *)
  e_loops : (int * bool) array;
      (* the stage's op-used active loops, innermost first:
         (axis index, access uses the axis) *)
}

type estage = { e_refs : eref array }

type evaluator = {
  e_axes : string array;  (* chain axes, defining eval_array's indexing *)
  e_extents : int array;
  e_stages : estage array;
}

(* Everything but [e_loops] is a function of the chain alone, and the
   planner compiles one evaluator per candidate order — hundreds per
   level.  [compile_template] freezes the perm-independent part once
   (the [tref] skeletons below are immutable and shared by every
   specialized evaluator), so [compile_with] only rebuilds the active
   loop lists: an int-indexed walk instead of a re-traversal of the
   IR.  [compile] remains the one-shot composition, and [eval_order]
   prices an order straight off the template without specializing at
   all. *)

type tref = {
  t_charged : bool;
  t_dtype_bytes : int;
  t_dims : (int * (int * int) array) array;  (* shared with evaluators *)
  t_acc_uses : bool array;  (* axis id -> the access indexes the axis *)
}

type tstage = {
  t_refs : tref array;
  t_live : bool array;
      (* axis id -> the stage's op iterates it and no earlier stage
         dropped it as producer-private (observation 3) — the loops
         [analyze] acts on at this stage, whatever the order *)
}

type template = {
  t_axes : string array;
  t_extents : int array;
  t_sorted_fused : string list;
  t_fused : bool array;  (* axis id -> fused (some stage iterates it) *)
  t_n_fused : int;
  t_stages : tstage array;
}

let compile_template ?(charge_intermediates = false) (chain : Ir.Chain.t) =
  let axes = chain.Ir.Chain.axes in
  let t_axes = Array.of_list (List.map (fun a -> a.Ir.Axis.name) axes) in
  let t_extents = Array.of_list (List.map (fun a -> a.Ir.Axis.extent) axes) in
  let n = Array.length t_axes in
  let axis_id = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace axis_id name i) t_axes;
  let index name =
    match Hashtbl.find_opt axis_id name with
    | Some i -> i
    | None ->
        invalid_arg (Printf.sprintf "Movement.compile: unknown axis %s" name)
  in
  let io =
    if charge_intermediates then Ir.Chain.tensor_names chain
    else Ir.Chain.io_names chain
  in
  (* Axes an earlier stage dropped as producer-private. *)
  let dropped = Array.make n false in
  let stages =
    List.map
      (fun (stage : Ir.Chain.stage) ->
        let op = stage.op in
        let compile_ref (r : Ir.Operator.tensor_ref) =
          let acc_uses = Array.make n false in
          Array.iteri
            (fun i name ->
              acc_uses.(i) <- Ir.Access.uses_axis r.access name)
            t_axes;
          {
            t_charged = List.mem r.tensor io;
            t_dtype_bytes = Tensor.Dtype.bytes r.dtype;
            t_dims =
              Array.of_list
                (List.map2
                   (fun (d : Ir.Access.dim) bound ->
                     ( bound,
                       Array.of_list
                         (List.map
                            (fun (t : Ir.Access.term) -> (index t.axis, t.coeff))
                            d.terms) ))
                   r.access r.dims);
            t_acc_uses = acc_uses;
          }
        in
        let t_live = Array.make n false in
        Array.iteri
          (fun i name ->
            let uses = Ir.Operator.uses_axis op name in
            t_live.(i) <- uses && not dropped.(i);
            if uses && Ir.Chain.axis_is_private chain name then
              dropped.(i) <- true)
          t_axes;
        {
          t_refs =
            Array.of_list (List.map compile_ref (Ir.Operator.all_refs op));
          t_live;
        })
      chain.stages
  in
  let fused = fused_axes chain in
  let t_fused = Array.map (fun name -> List.mem name fused) t_axes in
  {
    t_axes;
    t_extents;
    t_sorted_fused = List.sort compare fused;
    t_fused;
    t_n_fused = List.length fused;
    t_stages = Array.of_list stages;
  }

(* Axis names are few, and nearly always the very strings the chain was
   built with: a physical-equality scan finds them without a single
   string comparison, and only a miss pays the structural scan. *)
let rec find_phys (axes : string array) l i =
  if i >= Array.length axes then -1
  else if axes.(i) == l then i
  else find_phys axes l (i + 1)

let rec find_equal axes l i =
  if i >= Array.length axes then -1
  else if String.equal axes.(i) l then i
  else find_equal axes l (i + 1)

let order_ids (tpl : template) ~perm =
  let np = List.length perm in
  let ids = Array.make np (-1) in
  let seen = Array.make (Array.length tpl.t_axes) false in
  (* Distinct known fused axes of the right count is exactly
     permutation-ness — no sorting, no polymorphic compares. *)
  let rec fill k = function
    | [] -> true
    | l :: rest ->
        let a =
          match find_phys tpl.t_axes l 0 with
          | -1 -> find_equal tpl.t_axes l 0
          | a -> a
        in
        if a < 0 || (not tpl.t_fused.(a)) || seen.(a) then false
        else begin
          seen.(a) <- true;
          (* Innermost first, as [analyze] walks it; [perm] is
             outermost-first. *)
          ids.(k - 1) <- a;
          fill (k - 1) rest
        end
  in
  if np <> tpl.t_n_fused || not (fill np perm) then
    invalid_arg
      (Printf.sprintf
         "Movement: perm [%s] is not a permutation of the fused axes [%s]"
         (String.concat "," perm)
         (String.concat "," tpl.t_sorted_fused));
  ids

let compile_with (tpl : template) ~perm =
  let active = order_ids tpl ~perm in
  let stages =
    Array.map
      (fun (ts : tstage) ->
        (* [analyze] walks every active loop but acts only on the ones
           the operator uses; keeping just those preserves both the
           order and the exact multiplication sequence. *)
        let n_live = ref 0 in
        for p = 0 to Array.length active - 1 do
          if ts.t_live.(active.(p)) then incr n_live
        done;
        let live = Array.make !n_live 0 in
        let k = ref 0 in
        for p = 0 to Array.length active - 1 do
          let a = active.(p) in
          if ts.t_live.(a) then begin
            live.(!k) <- a;
            incr k
          end
        done;
        {
          e_refs =
            Array.map
              (fun (tr : tref) ->
                {
                  e_charged = tr.t_charged;
                  e_dtype_bytes = tr.t_dtype_bytes;
                  e_dims = tr.t_dims;
                  e_loops = Array.map (fun a -> (a, tr.t_acc_uses.(a))) live;
                })
              ts.t_refs;
        })
      tpl.t_stages
  in
  { e_axes = tpl.t_axes; e_extents = tpl.t_extents; e_stages = stages }

let compile ?charge_intermediates (chain : Ir.Chain.t) ~perm =
  compile_with (compile_template ?charge_intermediates chain) ~perm

let axis_names ev = Array.copy ev.e_axes

let eval_array ev tiles =
  let n = Array.length ev.e_axes in
  if Array.length tiles <> n then
    invalid_arg "Movement.eval_array: tile vector has the wrong arity";
  let trips = Array.make n 1 in
  for i = 0 to n - 1 do
    trips.(i) <- Util.Ints.ceil_div ev.e_extents.(i) tiles.(i)
  done;
  let dv = ref 0.0 in
  let mu = ref 0 in
  Array.iter
    (fun st ->
      let total_df = ref 0 in
      Array.iter
        (fun r ->
          let elems = ref 1 in
          Array.iter
            (fun (bound, terms) ->
              let span = ref 1 in
              Array.iter
                (fun (ai, coeff) -> span := !span + (coeff * (tiles.(ai) - 1)))
                terms;
              elems := !elems * min !span bound)
            r.e_dims;
          let df = !elems * r.e_dtype_bytes in
          total_df := !total_df + df;
          if r.e_charged then begin
            let dm = ref (float_of_int df) in
            let keep_reuse = ref true in
            Array.iter
              (fun (ai, uses) ->
                let t = trips.(ai) in
                if uses && t > 1 then keep_reuse := false;
                if not !keep_reuse then dm := !dm *. float_of_int t)
              r.e_loops;
            dv := !dv +. !dm
          end)
        st.e_refs;
      mu := max !mu !total_df)
    ev.e_stages;
  (!dv, !mu)

(* Pricing an order straight off the template: the walk [compile_with]
   would freeze into [e_loops] — innermost-first live loops per stage —
   is replayed in place over the order's axis ids, so a caller pricing
   one tiling per order (the certificate checker's Solved and
   Infeasible entries) never builds an evaluator.  Same integer
   footprints, same float multiplications in the same order as
   [eval_array] on [compile_with tpl ~perm]; nothing is allocated (the
   accumulators are unboxed locals, trip counts go to the caller's
   scratch — one division per permuted axis, not one per reference and
   loop — and DV leaves through [out]). *)

type cell = { mutable dv : float }

let eval_order (tpl : template) ~order ~trips tiles (out : cell) =
  let n = Array.length tpl.t_extents in
  if Array.length tiles <> n || Array.length trips <> n then
    invalid_arg "Movement.eval_order: vector has the wrong arity";
  let np = Array.length order in
  (* [Util.Ints.ceil_div], spelled out: sizes are in [1, extent].  Only
     the permuted axes are ever live. *)
  for p = 0 to np - 1 do
    let a = order.(p) in
    trips.(a) <- (tpl.t_extents.(a) + tiles.(a) - 1) / tiles.(a)
  done;
  let dv = ref 0.0 in
  let mu = ref 0 in
  for s = 0 to Array.length tpl.t_stages - 1 do
    let st = tpl.t_stages.(s) in
    let total_df = ref 0 in
    for k = 0 to Array.length st.t_refs - 1 do
      let r = st.t_refs.(k) in
      let elems = ref 1 in
      for d = 0 to Array.length r.t_dims - 1 do
        let bound, terms = r.t_dims.(d) in
        let span = ref 1 in
        for t = 0 to Array.length terms - 1 do
          let ai, coeff = terms.(t) in
          span := !span + (coeff * (tiles.(ai) - 1))
        done;
        elems := !elems * if !span < bound then !span else bound
      done;
      let df = !elems * r.t_dtype_bytes in
      total_df := !total_df + df;
      if r.t_charged then begin
        let dm = ref (float_of_int df) in
        let keep_reuse = ref true in
        for p = 0 to np - 1 do
          let a = order.(p) in
          if st.t_live.(a) then begin
            let t = trips.(a) in
            if r.t_acc_uses.(a) && t > 1 then keep_reuse := false;
            if not !keep_reuse then dm := !dm *. float_of_int t
          end
        done;
        dv := !dv +. !dm
      end
    done;
    if !total_df > !mu then mu := !total_df
  done;
  out.dv <- !dv;
  !mu

(* One-trip loops are invisible to every pricing walk above: [t > 1]
   gates the reuse break, and [dm *. 1.0] is exact.  The multi-trip
   subsequence is therefore the whole of an order's influence. *)
let multi_trip_loops ~extents ~order tiles out =
  let len = ref 0 in
  for p = 0 to Array.length order - 1 do
    let a = order.(p) in
    if tiles.(a) < extents.(a) then begin
      out.(!len) <- a;
      incr len
    end
  done;
  Array.fill out !len (Array.length order - !len) (-1);
  !len

let eval ev ~tiling =
  let tiles =
    Array.map (fun name -> Tiling.get tiling name) ev.e_axes
  in
  eval_array ev tiles

(* Certified DV lower bound over a tiling search box.

   The box is [1, bounds.(i)] per axis, except axes with [fixed.(i)]
   which sit at exactly bounds.(i) in every point the solver evaluates
   (full-tile axes, and axes whose bound is 1).  The bound evaluates DV
   at the all-upper-bounds corner, but multiplies each *varying*
   reuse-breaking loop by the real ratio extent/bound instead of
   ceil(extent/bound): for a dense access, the per-axis product
   min(span(t), D) * ceil(E/t) is minimised at t = bound where it is at
   least min(span(b), D) * E/b — span(t)/t is non-increasing when the
   axis step is covered by the span the fixed terms guarantee.  Breaks
   can only move inward as tiles shrink (trip counts grow), so the
   upper-bound corner's multiplier set is a subset of any point's.

   Gapped accesses (a varying axis whose stride exceeds 1 + the span the
   same dimension's fixed terms guarantee — conv stride > kernel, rows
   with holes between them): the dense per-axis argument above fails,
   because small tiles touch *less* data than the full-tile footprint
   suggests.  The bound still holds with a joint pricing: for tile t the
   dimension contributes footprint min(c(t-1)+F, D) and the axis itself
   multiplies by ceil(E/t) once reuse breaks (it always breaks at t < E:
   the axis uses the access).  With c > F >= 1, (c(t-1)+F)*ceil(E/t) >=
   F*t*(E/t) = E*F, and the D-clipped branch contributes >= D — so
   min(E*F, D) lower-bounds the dimension-times-own-trips product at
   every box point, and the axis's later ratio multiplier is replaced by
   1.  This is what lets pruning fire on stride>kernel convs (e.g. C5)
   instead of failing open.

   Density precondition (checked here, [None] when violated): a varying
   axis must touch at most one dimension of a reference — two gapped
   dimensions sharing one axis would need a joint 2-D argument no cheap
   corner evaluation supplies. *)
let dv_lower_bound ?(shave = true) ev ~bounds ~fixed =
  let n = Array.length ev.e_axes in
  if Array.length bounds <> n || Array.length fixed <> n then
    invalid_arg "Movement.dv_lower_bound: vector has the wrong arity";
  let varies = Array.make n false in
  let trips = Array.make n 1 in
  let ratio = Array.make n 1.0 in
  for i = 0 to n - 1 do
    varies.(i) <- (not fixed.(i)) && bounds.(i) > 1;
    trips.(i) <- Util.Ints.ceil_div ev.e_extents.(i) bounds.(i);
    ratio.(i) <-
      (if varies.(i) then
         float_of_int ev.e_extents.(i) /. float_of_int bounds.(i)
       else float_of_int trips.(i))
  done;
  let sound = ref true in
  let lb = ref 0.0 in
  let dims_touched = Array.make n 0 in
  (* Axes whose trip multiplier is already folded into a gapped
     dimension's joint factor for the current reference. *)
  let prepriced = Array.make n false in
  Array.iter
    (fun st ->
      Array.iter
        (fun r ->
          if r.e_charged then begin
            Array.fill dims_touched 0 n 0;
            Array.fill prepriced 0 n false;
            let elems = ref 1 in
            Array.iter
              (fun (bound, terms) ->
                let fixed_span = ref 1 in
                Array.iter
                  (fun (ai, coeff) ->
                    if not varies.(ai) then
                      fixed_span := !fixed_span + (coeff * (bounds.(ai) - 1)))
                  terms;
                let span = ref 1 in
                let gapped = ref (-1) in
                Array.iter
                  (fun (ai, coeff) ->
                    if varies.(ai) then begin
                      dims_touched.(ai) <- dims_touched.(ai) + 1;
                      if dims_touched.(ai) > 1 then sound := false;
                      if coeff > !fixed_span then gapped := ai
                    end;
                    span := !span + (coeff * (bounds.(ai) - 1)))
                  terms;
                if !gapped < 0 then elems := !elems * min !span bound
                else begin
                  let ai = !gapped in
                  prepriced.(ai) <- true;
                  elems :=
                    !elems * min (ev.e_extents.(ai) * !fixed_span) bound
                end)
              r.e_dims;
            let dm = ref (float_of_int (!elems * r.e_dtype_bytes)) in
            let keep_reuse = ref true in
            Array.iter
              (fun (ai, uses) ->
                if uses && trips.(ai) > 1 then keep_reuse := false;
                if (not !keep_reuse) && not prepriced.(ai) then
                  dm := !dm *. ratio.(ai))
              r.e_loops;
            lb := !lb +. !dm
          end)
        st.e_refs)
    ev.e_stages;
  (* Shave a relative epsilon so float rounding in the products above can
     never lift the bound past a DV it must stay under; the margin is six
     orders beyond accumulated ulp error yet far below any real DV gap.
     [~shave:false] returns the raw corner value for the solver's
     tie-aware gate, which needs exact equality against an incumbent DV
     (ties are exact there: at a tie the corner arithmetic is a sum of
     exactly-representable integer products). *)
  if !sound then Some (if shave then !lb *. (1.0 -. 1e-9) else !lb) else None

(* ------------------------------------------------------------------ *)
(* Batched frontier evaluation                                         *)
(* ------------------------------------------------------------------ *)

(* The solver's coordinate descent evaluates frontiers of candidates
   that differ from the current point in exactly one coordinate (every
   grid value of one axis).  [compile_batch] freezes the evaluator's
   structure-of-arrays view once per (chain, perm) and adds per-axis
   partial-product memoization over a loaded base point: a lane that
   differs only in axis [i] reprices only the references axis [i] can
   influence and re-runs the DV accumulation from the first affected
   reference onward.

   Bit-exactness with {!eval_array} is load-bearing (the zero-plan-drift
   guarantee rides on it) and holds by construction:

   - integer arithmetic (footprints, MU) is exact, so patching one
     stage's footprint total is the same value [eval_array] computes;
   - a reference axis [i] cannot influence keeps a bitwise-identical DM
     (same floats, same op order as the base load);
   - DV is a left fold of per-reference DMs in stage/reference order —
     float addition is not associative, so the lane reuses the base
     prefix sum up to the first affected reference and re-adds every
     later DM in the identical order.  Same operand sequence, same
     result bits.

   The per-lane early exit ([cutoff]) relies only on monotonicity: DMs
   are non-negative, and IEEE addition of a non-negative term never
   decreases the accumulator, so a partial sum already above the cutoff
   proves the final DV is too.  Cut lanes report [infinity]. *)

type bref = {
  br_charged : bool;
  br_dtype_bytes : int;
  br_dims : (int * (int * int) array) array;
  br_loops : (int * bool) array;
  br_fp_axes : bool array;  (* axis appears in a footprint term *)
  br_dv_axes : bool array;  (* axis can change this ref's DM at all *)
}

(* All-float record: the field is stored flat, so writes never box.
   [float ref] would allocate on every [:=] — fatal in the sweep's
   per-lane loop, which the bench pins below 40 minor words/eval. *)
type fcell = { mutable fc : float }

type batch = {
  bt_extents : int array;
  bt_refs : bref array;  (* flattened, stage-major, ref order preserved *)
  bt_stage_start : int array;  (* stage s owns refs [s, s+1) of this *)
  bt_charged_refs : int array;  (* charged position -> flat ref index *)
  bt_axis_first : int array;  (* axis -> first affected charged position *)
  bt_axis_mu_stage : bool array array;  (* axis -> stage footprint dirty *)
  (* Base-point state, rewritten by every [batch_load]. *)
  bt_tiles : int array;
  bt_trips : int array;
  bt_ref_df : int array;
  bt_stage_df : int array;
  bt_dm : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  bt_prefix :
    (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  (* Single-lane scratch for [batch_probe]. *)
  bt_val1 : int array;
  bt_dv1 : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  bt_mu1 : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  (* Unboxed float scratch for the sweep's DM and accumulator. *)
  bt_fdm : fcell;
  bt_facc : fcell;
}

let compile_batch ev =
  let n = Array.length ev.e_axes in
  let refs = ref [] in
  let stage_start = Array.make (Array.length ev.e_stages + 1) 0 in
  Array.iteri
    (fun s st ->
      Array.iter
        (fun (r : eref) ->
          let fp = Array.make n false in
          let dv = Array.make n false in
          Array.iter
            (fun (_, terms) ->
              Array.iter (fun (ai, _) -> fp.(ai) <- true; dv.(ai) <- true) terms)
            r.e_dims;
          Array.iter (fun (ai, _) -> dv.(ai) <- true) r.e_loops;
          refs :=
            {
              br_charged = r.e_charged;
              br_dtype_bytes = r.e_dtype_bytes;
              br_dims = r.e_dims;
              br_loops = r.e_loops;
              br_fp_axes = fp;
              br_dv_axes = dv;
            }
            :: !refs)
        st.e_refs;
      stage_start.(s + 1) <- stage_start.(s) + Array.length st.e_refs)
    ev.e_stages;
  let refs = Array.of_list (List.rev !refs) in
  let charged_refs =
    let acc = ref [] in
    Array.iteri (fun i r -> if r.br_charged then acc := i :: !acc) refs;
    Array.of_list (List.rev !acc)
  in
  let nc = Array.length charged_refs in
  let axis_first = Array.make n nc in
  for k = nc - 1 downto 0 do
    let r = refs.(charged_refs.(k)) in
    for ai = 0 to n - 1 do
      if r.br_dv_axes.(ai) then axis_first.(ai) <- k
    done
  done;
  let ns = Array.length ev.e_stages in
  let axis_mu_stage =
    Array.init n (fun ai ->
        Array.init ns (fun s ->
            let dirty = ref false in
            for ri = stage_start.(s) to stage_start.(s + 1) - 1 do
              if refs.(ri).br_fp_axes.(ai) then dirty := true
            done;
            !dirty))
  in
  {
    bt_extents = ev.e_extents;
    bt_refs = refs;
    bt_stage_start = stage_start;
    bt_charged_refs = charged_refs;
    bt_axis_first = axis_first;
    bt_axis_mu_stage = axis_mu_stage;
    bt_tiles = Array.make n 1;
    bt_trips = Array.make n 1;
    bt_ref_df = Array.make (max 1 (Array.length refs)) 0;
    bt_stage_df = Array.make (max 1 ns) 0;
    bt_dm = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max 1 nc);
    bt_prefix =
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (nc + 1);
    bt_val1 = Array.make 1 1;
    bt_dv1 = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1;
    bt_mu1 = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 1;
    bt_fdm = { fc = 0.0 };
    bt_facc = { fc = 0.0 };
  }

(* The lane kernels below are top-level tail recursions carrying
   immediate (int/bool) accumulators, with float state kept in the
   batch's [fcell] scratch.  [Array.iter] closures, [int ref]s and
   especially [float ref]s (whose every store boxes) would otherwise
   dominate the sweep's per-eval allocation budget. *)

let rec span_terms terms nt t tiles ~axis ~v span =
  if t >= nt then span
  else begin
    let ai, coeff = terms.(t) in
    let tl = if ai = axis then v else tiles.(ai) in
    span_terms terms nt (t + 1) tiles ~axis ~v (span + (coeff * (tl - 1)))
  end

let rec df_dims dims nd d tiles ~axis ~v elems =
  if d >= nd then elems
  else begin
    let bound, terms = dims.(d) in
    let span = span_terms terms (Array.length terms) 0 tiles ~axis ~v 1 in
    df_dims dims nd (d + 1) tiles ~axis ~v (elems * min span bound)
  end

(* Footprint of one reference with axis [axis] overridden to tile [v];
   [axis = -1] prices the base point.  Same integer op order as
   [eval_array] (exact either way). *)
let[@inline] lane_df b (r : bref) ~axis ~v =
  df_dims r.br_dims (Array.length r.br_dims) 0 b.bt_tiles ~axis ~v 1
  * r.br_dtype_bytes

let rec dm_loops loops nl i trips ~axis ~tv keep (c : fcell) =
  if i < nl then begin
    let ai, uses = loops.(i) in
    let t = if ai = axis then tv else trips.(ai) in
    let keep = keep && not (uses && t > 1) in
    if not keep then c.fc <- c.fc *. float_of_int t;
    dm_loops loops nl (i + 1) trips ~axis ~tv keep c
  end

(* DM of one charged reference with axis [axis]'s trip count overridden
   to [tv], left in [b.bt_fdm] (an unboxed store; returning the float
   would box it at every call).  The multiplications run in
   [eval_array]'s order. *)
let[@inline] lane_dm b (r : bref) ~axis ~tv df =
  b.bt_fdm.fc <- float_of_int df;
  dm_loops r.br_loops (Array.length r.br_loops) 0 b.bt_trips ~axis ~tv true
    b.bt_fdm

let batch_load b tiles =
  let n = Array.length b.bt_extents in
  if Array.length tiles <> n then
    invalid_arg "Movement.batch_load: tile vector has the wrong arity";
  Array.blit tiles 0 b.bt_tiles 0 n;
  for i = 0 to n - 1 do
    b.bt_trips.(i) <- Util.Ints.ceil_div b.bt_extents.(i) tiles.(i)
  done;
  let mu = ref 0 in
  let ns = Array.length b.bt_stage_df in
  for s = 0 to ns - 1 do
    let total = ref 0 in
    for ri = b.bt_stage_start.(s) to b.bt_stage_start.(s + 1) - 1 do
      let df = lane_df b b.bt_refs.(ri) ~axis:(-1) ~v:1 in
      b.bt_ref_df.(ri) <- df;
      total := !total + df
    done;
    b.bt_stage_df.(s) <- !total;
    mu := max !mu !total
  done;
  let nc = Array.length b.bt_charged_refs in
  b.bt_prefix.{0} <- 0.0;
  for k = 0 to nc - 1 do
    let ri = b.bt_charged_refs.(k) in
    lane_dm b b.bt_refs.(ri) ~axis:(-1) ~tv:1 b.bt_ref_df.(ri);
    let dm = b.bt_fdm.fc in
    b.bt_dm.{k} <- dm;
    b.bt_prefix.{k + 1} <- b.bt_prefix.{k} +. dm
  done;
  (b.bt_prefix.{nc}, !mu)

(* MU with axis [axis] overridden: integer, order-free — patch only
   stages whose footprint the axis can change. *)
let rec sweep_stage_df b ~axis ~v ri stop total =
  if ri >= stop then total
  else begin
    let r = b.bt_refs.(ri) in
    let df =
      if r.br_fp_axes.(axis) then lane_df b r ~axis ~v else b.bt_ref_df.(ri)
    in
    sweep_stage_df b ~axis ~v (ri + 1) stop (total + df)
  end

let rec sweep_mu b ~axis ~v mu_mask s ns m =
  if s >= ns then m
  else begin
    let total =
      if mu_mask.(s) then
        sweep_stage_df b ~axis ~v b.bt_stage_start.(s)
          b.bt_stage_start.(s + 1) 0
      else b.bt_stage_df.(s)
    in
    sweep_mu b ~axis ~v mu_mask (s + 1) ns (max m total)
  end

(* DV resume: re-add every DM from the first affected reference onward
   in [eval_array]'s order, accumulating in [b.bt_facc].  Returns false
   when the partial sum crossed [cutoff] (monotone: DMs are
   non-negative, so the lane's final DV is above the cutoff too). *)
let rec sweep_dv b ~axis ~v ~tv ~cutoff k nc =
  if k >= nc then true
  else begin
    let ri = b.bt_charged_refs.(k) in
    let r = b.bt_refs.(ri) in
    (if r.br_dv_axes.(axis) then begin
       let df =
         if r.br_fp_axes.(axis) then lane_df b r ~axis ~v
         else b.bt_ref_df.(ri)
       in
       lane_dm b r ~axis ~tv df;
       b.bt_facc.fc <- b.bt_facc.fc +. b.bt_fdm.fc
     end
     else b.bt_facc.fc <- b.bt_facc.fc +. b.bt_dm.{k});
    if b.bt_facc.fc > cutoff then false
    else sweep_dv b ~axis ~v ~tv ~cutoff (k + 1) nc
  end

let batch_sweep b ~axis ~values ~count ?(cutoff = infinity) ~dv ~mu () =
  let cut = ref 0 in
  let nc = Array.length b.bt_charged_refs in
  let ns = Array.length b.bt_stage_df in
  let mu_mask = b.bt_axis_mu_stage.(axis) in
  let k0 = b.bt_axis_first.(axis) in
  for j = 0 to count - 1 do
    let v = values.(j) in
    let tv = Util.Ints.ceil_div b.bt_extents.(axis) v in
    mu.{j} <- sweep_mu b ~axis ~v mu_mask 0 ns 0;
    b.bt_facc.fc <- b.bt_prefix.{k0};
    if sweep_dv b ~axis ~v ~tv ~cutoff k0 nc then dv.{j} <- b.bt_facc.fc
    else begin
      incr cut;
      dv.{j} <- infinity
    end
  done;
  !cut

let batch_probe b ~axis v =
  b.bt_val1.(0) <- v;
  ignore
    (batch_sweep b ~axis ~values:b.bt_val1 ~count:1 ~dv:b.bt_dv1 ~mu:b.bt_mu1
       ());
  (b.bt_dv1.{0}, b.bt_mu1.{0})

let owning_op (chain : Ir.Chain.t) tensor =
  let refs_tensor (s : Ir.Chain.stage) =
    List.exists
      (fun (r : Ir.Operator.tensor_ref) -> r.tensor = tensor)
      (Ir.Operator.all_refs s.op)
  in
  match List.find_opt refs_tensor chain.stages with
  | Some s -> s.op
  | None -> raise Not_found

let tensor_access (op : Ir.Operator.t) tensor =
  let r =
    List.find
      (fun (r : Ir.Operator.tensor_ref) -> r.tensor = tensor)
      (Ir.Operator.all_refs op)
  in
  r.access

let reuse_axes (chain : Ir.Chain.t) ~perm ~tensor =
  validate_perm chain perm;
  if Ir.Chain.is_intermediate chain tensor then []
  else
    let op = owning_op chain tensor in
    let access = tensor_access op tensor in
    (* Loops outside the op's nest never replace this tensor's tile. *)
    let outside =
      List.filter (fun l -> not (Ir.Operator.uses_axis op l)) perm
    in
    let rec inner_run acc = function
      | [] -> acc
      | l :: rest ->
          if not (Ir.Operator.uses_axis op l) then inner_run acc rest
          else if Ir.Access.uses_axis access l then acc
          else inner_run (l :: acc) rest
    in
    let inside = inner_run [] (List.rev perm) in
    List.filter (fun l -> List.mem l outside || List.mem l inside) perm

let movement_expr (chain : Ir.Chain.t) ~perm ~tensor =
  validate_perm chain perm;
  if Ir.Chain.is_intermediate chain tensor then "0"
  else
    let op = owning_op chain tensor in
    let access = tensor_access op tensor in
    (* Loops that multiply the footprint: replay Algorithm 1's flag. *)
    let multipliers =
      let keep_reuse = ref true in
      List.filter
        (fun l ->
          if not (Ir.Operator.uses_axis op l) then false
          else begin
            if Ir.Access.uses_axis access l then keep_reuse := false;
            not !keep_reuse
          end)
        (List.rev perm)
    in
    (* Footprint factors: one per tensor dimension. *)
    let simple_axis (d : Ir.Access.dim) =
      match d.terms with
      | [ { axis; coeff = 1 } ] when d.offset = 0 -> Some axis
      | _ -> None
    in
    let upper name = String.uppercase_ascii name in
    let fp_simple, fp_complex =
      List.partition_map
        (fun (d : Ir.Access.dim) ->
          match simple_axis d with
          | Some a -> Left a
          | None ->
              let term_str (t : Ir.Access.term) =
                if t.coeff = 1 then Printf.sprintf "(T_%s-1)" t.axis
                else Printf.sprintf "%d*(T_%s-1)" t.coeff t.axis
              in
              Right
                ("(" ^ String.concat "+" (List.map term_str d.terms) ^ "+1)"))
        access
    in
    (* Cancel T_x * ceil(X/T_x) -> X where possible. *)
    let cancelled, remaining_mults =
      List.fold_left
        (fun (fp, mults) axis ->
          if List.mem axis mults then
            (upper axis :: fp, List.filter (fun m -> m <> axis) mults)
          else (Printf.sprintf "T_%s" axis :: fp, mults))
        ([], multipliers)
        fp_simple
    in
    let ceil_strs =
      List.map
        (fun a -> Printf.sprintf "ceil(%s/T_%s)" (upper a) a)
        remaining_mults
    in
    String.concat "*" (List.rev cancelled @ fp_complex @ ceil_strs)
