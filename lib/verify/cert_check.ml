(* Independent optimality-certificate checking (CHIM036-044).

   The planner's branch-and-bound run leaves an evidence trail — one
   entry per candidate block execution order — packaged as an
   [Analytical.Certificate.t] on the plan.  This pass re-establishes
   the optimality claim without ever calling the solver:

   - the winner is re-derived through the reference [Movement.analyze]
     path at its recorded tiling;
   - every solved loser is re-priced at its recorded tiling straight
     off the unit's shared [Movement.template] ([Movement.eval_order]:
     no per-order evaluator is compiled, and nothing is allocated per
     entry — the entry volume is where the pass spends its budget).
     Template pricing is property-tested bit-identical to the compiled
     evaluator and to [Movement.analyze], and the winner anchor above
     keeps one full reference re-analysis in every certificate;
   - infeasibility claims are re-checked at the search box's minimum
     corner (MU is monotone non-decreasing in every tile size, so a
     corner that overflows proves the whole box does);
   - pruned-order witnesses are re-priced from first principles by
     [witness_lower_bound] below, a direct walk of the IR (accesses,
     strides, loop order) that shares no code with
     [Movement.dv_lower_bound] — including the monotonicity
     preconditions that make the corner evaluation a true lower bound
     over the box;
   - coverage: the entry list must be exactly [Permutations.candidates]
     in enumeration order, because that order carries the tie-break
     (the earliest-enumerated minimum-DV order wins).

   Pruned witnesses are checkable without replaying the search even
   though the pruned *set* varies run to run under the pooled
   exploration: the solver prunes only when the witness strictly clears
   an incumbent — and every incumbent DV is >= the final winner's — or
   when it exactly ties an incumbent that enumerates earlier.  Either
   way the excluded order cannot be selected, so the check is
   [lb > winner], or [lb ~ winner] with the entry enumerating after the
   winning entry, regardless of when the prune fired.  See
   docs/CERTIFY.md. *)

let spf = Printf.sprintf

module C = Analytical.Certificate
module Movement = Analytical.Movement
module Tiling = Analytical.Tiling
module Planner = Analytical.Planner

let error_code code =
  match code with
  | "CHIM036" | "CHIM037" | "CHIM038" | "CHIM039" | "CHIM040" | "CHIM041"
  | "CHIM042" ->
      true
  | _ -> false

let conditional_code = "CHIM043"
let missing_code = "CHIM044"

let rel_close a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-9 *. scale

(* The witness re-pricing runs float products in a different order than
   the emission side, so exact equality is not expected; anything past
   ulp-drift scale is tampering or version skew. *)
let loosely_close a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-6 *. scale

let ceil_div a b = (a + b - 1) / b

(* ------------------------------------------------------------------ *)
(* First-principles witness re-pricing                                  *)
(* ------------------------------------------------------------------ *)

(* A DV lower bound over the certificate's search box for one order,
   derived from the IR alone.  The theory (mirrored independently from
   the emission side; see Movement.dv_lower_bound's comment for the
   proofs): DV at the all-upper-bounds corner, with every varying
   reuse-breaking loop priced at the real ratio extent/bound; a gapped
   dimension (term coefficient above the span its fixed terms
   guarantee) collapses with its axis's own trip multiplier to
   min(extent * fixed-span, dim bound).  Inapplicable — [Error] — when
   a varying axis touches more than one dimension of a reference.

   Staged as pricer: everything except the reuse walk — applicability,
   the corner footprints, the gapped collapses, the per-axis ratios —
   depends only on the chain and the box, never on the loop order.  A
   certificate re-prices one box against every candidate order (dozens
   to hundreds of entries), so [stage_witness] folds the
   perm-independent work once into int-indexed tables — including
   observation 3's producer-private drops, which depend only on the
   axis — and a per-order call is array reads over the order's axis
   ids (interned by the caller once per unit, or from names here);
   this is what keeps the whole checker pass inside its
   < 5%-of-cold-plan budget now that pruning covers most entries.  The
   pricers only read their tables, so the checker's pooled per-entry
   fan-out can share them across domains. *)

(* One reference, priced at the box corner, with its per-axis facts in
   arrays indexed by the interned axis id. *)
type priced_ref = {
  pr_base : float;  (* corner DM before reuse pricing *)
  pr_op_uses : bool array;
  pr_breaks : bool array;  (* access uses the axis and its trips > 1 *)
  pr_priced : bool array;  (* not pre-priced by a gapped collapse *)
  pr_ratio : float array;
}

(* The staged pricer, callable with an order given either by name or —
   the checker's path for candidate orders, whose ids the unit interns
   once — as axis ids, innermost first.  Box axes are interned in box
   order, which a valid box makes the chain's axis order. *)
type witness = {
  by_ids : int array -> (float, string) result;
  by_perm : string list -> (float, string) result;
}

let stage_witness (chain : Ir.Chain.t) ~(box : C.box_axis list) =
  let bound_of =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (b : C.box_axis) -> Hashtbl.replace tbl b.axis b) box;
    fun name -> Hashtbl.find tbl name
  in
  let nax = List.length box in
  let axis_id = Hashtbl.create 16 in
  List.iteri (fun i (b : C.box_axis) -> Hashtbl.replace axis_id b.C.axis i) box;
  let extent_of = Ir.Chain.extent_of chain in
  let varies name =
    let b = bound_of name in
    (not b.C.fixed) && b.C.bound > 1
  in
  let ratio name =
    let b = (bound_of name).C.bound in
    if varies name then float_of_int (extent_of name) /. float_of_int b
    else float_of_int (ceil_div (extent_of name) b)
  in
  let io = Ir.Chain.io_names chain in
  let err = ref None in
  let fail reason = if !err = None then err := Some reason in
  let dropped = Array.make nax false in
  (* One priced record per (stage, IO ref): the corner DM before reuse
     pricing, plus the lookups the per-perm scan needs in O(1). *)
  let staged =
    List.map
      (fun (stage : Ir.Chain.stage) ->
        let op = stage.Ir.Chain.op in
        let refs =
          List.filter_map
            (fun (r : Ir.Operator.tensor_ref) ->
              if not (List.mem r.tensor io) then None
              else begin
                let touched = Hashtbl.create 4 in
                let prepriced = Hashtbl.create 4 in
                let elems = ref 1 in
                List.iter2
                  (fun (d : Ir.Access.dim) dim_bound ->
                    let fixed_span =
                      List.fold_left
                        (fun acc (t : Ir.Access.term) ->
                          if varies t.axis then acc
                          else
                            acc + (t.coeff * ((bound_of t.axis).C.bound - 1)))
                        1 d.Ir.Access.terms
                    in
                    let gapped = ref None in
                    List.iter
                      (fun (t : Ir.Access.term) ->
                        if varies t.axis then begin
                          if Hashtbl.mem touched t.axis then
                            fail
                              (spf "axis %s touches two dimensions of %s"
                                 t.axis r.tensor)
                          else Hashtbl.replace touched t.axis ();
                          if t.coeff > fixed_span then gapped := Some t.axis
                        end)
                      d.Ir.Access.terms;
                    match !gapped with
                    | None ->
                        let span =
                          List.fold_left
                            (fun acc (t : Ir.Access.term) ->
                              acc
                              + (t.coeff * ((bound_of t.axis).C.bound - 1)))
                            1 d.Ir.Access.terms
                        in
                        elems := !elems * min span dim_bound
                    | Some axis ->
                        Hashtbl.replace prepriced axis ();
                        elems :=
                          !elems * min (extent_of axis * fixed_span) dim_bound)
                  r.access r.dims;
                let base_dm =
                  float_of_int (!elems * Tensor.Dtype.bytes r.dtype)
                in
                (* Per-axis facts the reuse scan consults, indexed by
                   the interned axis id (every permuted axis is a box
                   axis). *)
                let op_uses = Array.make nax false in
                let breaks = Array.make nax false in
                let priced = Array.make nax false in
                let ratio_of = Array.make nax 1.0 in
                List.iteri
                  (fun ai (b : C.box_axis) ->
                    let name = b.C.axis in
                    op_uses.(ai) <- Ir.Operator.uses_axis op name;
                    breaks.(ai) <-
                      Ir.Access.uses_axis r.access name
                      && ceil_div (extent_of name) b.C.bound > 1;
                    priced.(ai) <- not (Hashtbl.mem prepriced name);
                    ratio_of.(ai) <- ratio name)
                  box;
                Some
                  {
                    pr_base = base_dm;
                    pr_op_uses = op_uses;
                    pr_breaks = breaks;
                    pr_priced = priced;
                    pr_ratio = ratio_of;
                  }
              end)
            (Ir.Operator.all_refs op)
        in
        (* Observation 3, order-independently: an axis a stage drops as
           producer-private is dead to every later stage, wherever it
           sits in the order. *)
        let dead_before = Array.copy dropped in
        List.iteri
          (fun ai (b : C.box_axis) ->
            if
              Ir.Operator.uses_axis op b.C.axis
              && Ir.Chain.axis_is_private chain b.C.axis
            then dropped.(ai) <- true)
          box;
        (Array.of_list refs, dead_before))
      chain.Ir.Chain.stages
    |> Array.of_list
  in
  (* [ids]: the order as interned axis ids, innermost first. *)
  let price_ids ids =
    let np = Array.length ids in
    let lb = ref 0.0 in
    for s = 0 to Array.length staged - 1 do
      let refs, dead = staged.(s) in
      for k = 0 to Array.length refs - 1 do
        let pr = refs.(k) in
        let dm = ref pr.pr_base in
        let keep_reuse = ref true in
        for p = 0 to np - 1 do
          let a = ids.(p) in
          if (not dead.(a)) && pr.pr_op_uses.(a) then begin
            if pr.pr_breaks.(a) then keep_reuse := false;
            if (not !keep_reuse) && pr.pr_priced.(a) then
              dm := !dm *. pr.pr_ratio.(a)
          end
        done;
        lb := !lb +. !dm
      done
    done;
    Ok (!lb *. (1.0 -. 1e-9))
  in
  {
    by_ids =
      (fun ids ->
        match !err with Some reason -> Error reason | None -> price_ids ids);
    by_perm =
      (fun perm ->
        match !err with
        | Some reason -> Error reason
        | None ->
            price_ids
              (Array.of_list
                 (List.rev_map (fun l -> Hashtbl.find axis_id l) perm)));
  }

let witness_pricer chain ~box = (stage_witness chain ~box).by_perm

let witness_lower_bound (chain : Ir.Chain.t) ~perm ~(box : C.box_axis list) =
  witness_pricer chain ~box perm

(* ------------------------------------------------------------------ *)
(* Per-certificate checking                                             *)
(* ------------------------------------------------------------------ *)

let fused_axes_of chain =
  List.filter
    (fun name ->
      List.exists
        (fun (s : Ir.Chain.stage) -> Ir.Operator.uses_axis s.op name)
        chain.Ir.Chain.stages)
    (Ir.Axis.names chain.Ir.Chain.axes)

(* The per-axis bounds this level's orders were solved under,
   reconstructed from the level nesting: the outermost level searches
   up to the full extents, an inner level nests inside its parent
   plan's tiles.  Anything else in a certificate's recorded box is
   tampering or skew. *)
let expected_box chain ~(parent : Planner.plan option) =
  let full_tile = Analytical.Permutations.full_tile_axes chain in
  let fused = fused_axes_of chain in
  List.map
    (fun (a : Ir.Axis.t) ->
      if List.mem a.name fused then begin
        let bound =
          match parent with
          | None -> a.extent
          | Some p ->
              let t = Tiling.get p.Planner.tiling a.name in
              min a.extent (max 1 t)
        in
        {
          C.axis = a.name;
          bound;
          fixed = List.mem a.name full_tile || bound <= 1;
        }
      end
      else { C.axis = a.name; bound = 1; fixed = true })
    chain.Ir.Chain.axes

let tiling_in_range chain bindings =
  let ok_axis (axis, size) =
    match Ir.Axis.find_opt chain.Ir.Chain.axes axis with
    | None -> Some (spf "unknown axis %s" axis)
    | Some a ->
        if size < 1 || size > a.Ir.Axis.extent then
          Some (spf "tile %s=%d outside [1, %d]" axis size a.Ir.Axis.extent)
        else None
  in
  List.find_map ok_axis bindings

let rec perm_equal a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> String.equal x y && perm_equal xs ys
  | _ -> false

(* The unit's pricing context: the [Movement.template] every Solved and
   Infeasible entry is priced from, plus each candidate order's axis
   ids (innermost first), interned once per unit and shared by its
   level certificates — the levels enumerate the same order space, and
   Solved, Infeasible and Pruned entries alike are priced from the ids.
   [check_certificate] forces it serially, before its pooled per-entry
   fan-out, so lanes only ever read it. *)
type pricing = {
  tpl : Movement.template;
  cand_perms : string list array;
  cand_ids : int array option array;
}

(* An order's axis ids, or [None] when it is not a permutation of the
   fused axes (distinct known fused axes of the right count). *)
let intern tpl perm =
  match Movement.order_ids tpl ~perm with
  | ids -> Some ids
  | exception Invalid_argument _ -> None

let pricing_of chain =
  let tpl = Movement.compile_template chain in
  let cand_perms = Array.of_list (Analytical.Permutations.candidates chain) in
  { tpl; cand_perms; cand_ids = Array.map (intern tpl) cand_perms }

(* Per-entry re-checks fan out over the pool in chunks: one task per
   entry would pay the pool's hand-out cost per candidate order. *)
let entries_per_task = 32

(* One task's scratch for template pricing — the decoded tile vector,
   its trip counts and the DV slot — so entries allocate none of it. *)
type lane = { tiles : int array; trips : int array; out : Movement.cell }

let check_certificate ?pool ~pricing chain ~unit_name ~part
    ~(parent : Planner.plan option) (plan : Planner.plan) (cert : C.t) =
  let l ?(sub = "") () =
    Diagnostic.loc ~part:(if sub = "" then part else part ^ "/" ^ sub)
      unit_name
  in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let err ?sub ~code fmt =
    Printf.ksprintf (fun m -> add (Diagnostic.error ~code (l ?sub ()) m)) fmt
  in
  let fused = fused_axes_of chain in
  (* -- structural validity (CHIM042) ------------------------------- *)
  let box_ok =
    let expected = expected_box chain ~parent in
    if
      List.map (fun (b : C.box_axis) -> b.C.axis) cert.C.box
      <> List.map (fun (a : Ir.Axis.t) -> a.Ir.Axis.name) chain.Ir.Chain.axes
    then begin
      err ~code:"CHIM042" "certificate box does not list the chain axes";
      false
    end
    else begin
      let ok = ref true in
      List.iter2
        (fun (got : C.box_axis) (want : C.box_axis) ->
          if got.C.bound <> want.C.bound || got.C.fixed <> want.C.fixed then begin
            ok := false;
            err ~code:"CHIM042" ~sub:(spf "axis %s" got.C.axis)
              "box records bound=%d fixed=%b but this level's constraints \
               give bound=%d fixed=%b"
              got.C.bound got.C.fixed want.C.bound want.C.fixed
          end)
        cert.C.box expected;
      !ok
    end
  in
  let perm_ok =
    if List.sort compare cert.C.winner_perm <> List.sort compare fused then begin
      err ~code:"CHIM042"
        "winner order [%s] is not a permutation of the fused axes"
        (String.concat "," cert.C.winner_perm);
      false
    end
    else true
  in
  let winner_tiling_ok =
    match tiling_in_range chain cert.C.winner_tiling with
    | Some reason ->
        err ~code:"CHIM042" "winner tiling is malformed: %s" reason;
        false
    | None -> true
  in
  (* One pricer serves the applicability probe and every pruned entry:
     its perm-independent stage runs once per certificate. *)
  let witness = stage_witness chain ~box:cert.C.box in
  let witness_applicability =
    if perm_ok then witness.by_perm cert.C.winner_perm
    else Error "winner order is malformed"
  in
  (match witness_applicability with
  | Error reason when not cert.C.conditional ->
      err ~code:"CHIM042"
        "certificate claims a full witness theory but the box admits none \
         (%s)"
        reason
  | _ -> ());
  if cert.C.conditional && C.entries_pruned cert > 0 then
    err ~code:"CHIM042"
      "conditional certificate records %d pruned order(s): nothing can be \
       pruned without a witness theory"
      (C.entries_pruned cert);
  (* -- binding to the served plan (CHIM036) ------------------------- *)
  if cert.C.capacity_bytes <> plan.Planner.capacity_bytes then
    err ~code:"CHIM036" "certificate capacity %d <> plan capacity %d"
      cert.C.capacity_bytes plan.Planner.capacity_bytes;
  if cert.C.winner_perm <> plan.Planner.perm then
    err ~code:"CHIM036" "certified winner order [%s] <> plan order [%s]"
      (String.concat "," cert.C.winner_perm)
      (String.concat "," plan.Planner.perm);
  if winner_tiling_ok then begin
    (* Parallelism refinement only ever shrinks tiles, so the served
       tiling must nest inside the certified winner's — and its DV can
       only be at or above the certified optimum. *)
    List.iter
      (fun (axis, certified) ->
        let served = Tiling.get plan.Planner.tiling axis in
        if served > certified then
          err ~code:"CHIM036" ~sub:(spf "axis %s" axis)
            "served tile %d exceeds the certified winner's %d" served
            certified)
      cert.C.winner_tiling;
    if
      plan.Planner.movement.Movement.dv_bytes < cert.C.winner_dv_bytes
      && not
           (rel_close plan.Planner.movement.Movement.dv_bytes
              cert.C.winner_dv_bytes)
    then
      err ~code:"CHIM036"
        "served plan DV %.6e is below the certified optimum %.6e"
        plan.Planner.movement.Movement.dv_bytes cert.C.winner_dv_bytes
  end;
  (* -- winner re-derivation (CHIM037) ------------------------------- *)
  (if perm_ok && winner_tiling_ok then
     let tiling = Tiling.make chain cert.C.winner_tiling in
     let fresh =
       Movement.analyze chain ~perm:cert.C.winner_perm ~tiling
     in
     if not (rel_close fresh.Movement.dv_bytes cert.C.winner_dv_bytes) then
       err ~code:"CHIM037"
         "winner DV %.6e disagrees with fresh re-analysis %.6e"
         cert.C.winner_dv_bytes fresh.Movement.dv_bytes;
     if fresh.Movement.mu_bytes > cert.C.capacity_bytes then
       err ~code:"CHIM037" "certified winner overflows its budget: MU %d > %d"
         fresh.Movement.mu_bytes cert.C.capacity_bytes);
  (* -- coverage of the candidate order space (CHIM040) -------------- *)
  let { tpl; cand_perms; cand_ids } = Lazy.force pricing in
  let entries = Array.of_list cert.C.entries in
  let n_entries = Array.length entries in
  let n_cands = Array.length cand_perms in
  (* [matches.(i)]: entry [i]'s order is the [i]-th candidate's. *)
  let matches =
    Array.mapi
      (fun i (e : C.entry) -> i < n_cands && perm_equal e.C.perm cand_perms.(i))
      entries
  in
  if n_entries <> n_cands || not (Array.for_all Fun.id matches) then
    err ~code:"CHIM040"
      "certificate covers %d order(s) but the candidate space enumerates %d \
       (or the enumeration order differs, which breaks the tie-break)"
      n_entries n_cands;
  (match C.entries_won cert with
  | 1 ->
      List.iter
        (fun (e : C.entry) ->
          match e.C.outcome with
          | C.Won _ when e.C.perm <> cert.C.winner_perm ->
              err ~code:"CHIM036"
                "the winning entry's order [%s] is not the certified winner"
                (String.concat "," e.C.perm)
          | _ -> ())
        cert.C.entries
  | n -> err ~code:"CHIM040" "certificate records %d winning entries" n);
  (* -- per-entry re-checks ------------------------------------------ *)
  let winner_dv = cert.C.winner_dv_bytes in
  let winner_index =
    let rec go i = function
      | [] -> max_int
      | (e : C.entry) :: rest -> (
          match e.C.outcome with C.Won _ -> i | _ -> go (i + 1) rest)
    in
    go 0 cert.C.entries
  in
  (if box_ok && perm_ok then
     (* Axis-indexed tables shared (read-only) by every entry's check:
        the per-entry decode below runs once per candidate order.  The
        box lists every chain axis in chain order ([box_ok]), so one
        index serves extents, bounds and the template's tile vector. *)
     let axis_names =
       Array.of_list
         (List.map (fun (a : Ir.Axis.t) -> a.Ir.Axis.name) chain.Ir.Chain.axes)
     in
     let n_axes = Array.length axis_names in
     let extents =
       Array.of_list
         (List.map
            (fun (a : Ir.Axis.t) -> a.Ir.Axis.extent)
            chain.Ir.Chain.axes)
     in
     let bounds =
       Array.of_list (List.map (fun (b : C.box_axis) -> b.C.bound) cert.C.box)
     in
     (* Recorded tilings list their axes in chain order
        ([Tiling.bindings]), so the [k]-th binding's axis is tried at
        index [k] first — one comparison per binding on a genuine
        certificate, whose strings (unmarshalled from a plan cache) are
        never physically the chain's. *)
     let axis_index ~hint name =
       if
         hint < n_axes
         && (axis_names.(hint) == name || String.equal axis_names.(hint) name)
       then hint
       else
         let rec go i =
           if i >= n_axes then -1
           else if axis_names.(i) == name || String.equal axis_names.(i) name
           then i
           else go (i + 1)
         in
         go 0
     in
     (* The minimum corner is entry-independent — price its tile vector
        once, not once per infeasible order. *)
     let min_corner_tiles =
       Array.of_list
         (List.map
            (fun (b : C.box_axis) -> if b.C.fixed then b.C.bound else 1)
            cert.C.box)
     in
     (* A Solved entry's tiling decoded in one pass: one axis lookup per
        binding, the [1, extent] and box tests on the spot, the first
        binding of a duplicated axis kept (as [Tiling.rebind] does) and
        unmentioned axes at tile 1 — into [tiles].  [false] on any
        problem; the caller then re-derives the verdict through
        [tiling_problem] so the diagnostics are worded exactly as
        before. *)
     let decode tiles bindings =
       Array.fill tiles 0 n_axes 0;
       let rec go k = function
         | [] ->
             for i = 0 to n_axes - 1 do
               if tiles.(i) = 0 then tiles.(i) <- 1
             done;
             true
         | (axis, size) :: rest ->
             let i = axis_index ~hint:k axis in
             if i < 0 || size < 1 || size > extents.(i) || size > bounds.(i)
             then false
             else begin
               if tiles.(i) = 0 then tiles.(i) <- size;
               go (k + 1) rest
             end
       in
       go 0 bindings
     in
     (* Same verdicts as [tiling_in_range]: every binding names a chain
        axis and sits in [1, extent]. *)
     let tiling_problem bindings =
       List.find_map
         (fun (axis, size) ->
           let i = axis_index ~hint:0 axis in
           if i < 0 then Some (spf "unknown axis %s" axis)
           else if size < 1 || size > extents.(i) then
             Some (spf "tile %s=%d outside [1, %d]" axis size extents.(i))
           else None)
         bindings
     in
     (* Each entry's re-check is a pure function of the chain and the
        certificate, so the fan-out below is free to run them on any
        lane; diagnostics are reassembled in entry order either way. *)
     let check_entry lane i (e : C.entry) =
       let local = ref [] in
       let err ~code fmt =
         (* The label is priced only on error: a clean entry — the
            overwhelmingly common case — must not pay a [sprintf]. *)
         Printf.ksprintf
           (fun m ->
             let sub = spf "order %s" (String.concat "" e.C.perm) in
             local := Diagnostic.error ~code (l ~sub ()) m :: !local)
           fmt
       in
       (* An entry borrows its candidate's interned ids — and the
          permutation verdict they carry — only when its order is that
          candidate's, so a shuffled (tampered) certificate is always
          checked and priced under its own order. *)
       (match if matches.(i) then cand_ids.(i) else intern tpl e.C.perm with
       | None ->
           err ~code:"CHIM042"
             "entry order is not a permutation of the fused axes"
       | Some ids -> (
           match e.C.outcome with
           | C.Won _ -> ()
           | C.Solved { dv_bytes; tiling } ->
               if not (decode lane.tiles tiling) then (
                 match tiling_problem tiling with
                 | Some reason ->
                     err ~code:"CHIM042" "recorded tiling is malformed: %s"
                       reason
                 | None ->
                     err ~code:"CHIM042"
                       "recorded tiling falls outside the search box")
               else begin
                 let fresh_mu =
                   Movement.eval_order tpl ~order:ids ~trips:lane.trips
                     lane.tiles lane.out
                 in
                 let fresh_dv = lane.out.Movement.dv in
                 if not (rel_close fresh_dv dv_bytes) then
                   err ~code:"CHIM038"
                     "recorded DV %.6e disagrees with re-analysis %.6e"
                     dv_bytes fresh_dv;
                 if fresh_mu > cert.C.capacity_bytes then
                   err ~code:"CHIM038"
                     "recorded solution overflows the budget: MU %d > %d"
                     fresh_mu cert.C.capacity_bytes;
                 if fresh_dv < winner_dv && not (rel_close fresh_dv winner_dv)
                 then
                   err ~code:"CHIM041"
                     "solved order beats the certified winner: %.6e < %.6e"
                     fresh_dv winner_dv
                 else if rel_close fresh_dv winner_dv && i < winner_index then
                   err ~code:"CHIM041"
                     "solved order ties the winner but enumerates earlier — \
                      the tie-break selects it"
               end
           | C.Infeasible ->
               let fresh_mu =
                 Movement.eval_order tpl ~order:ids ~trips:lane.trips
                   min_corner_tiles lane.out
               in
               if fresh_mu <= cert.C.capacity_bytes then
                 err ~code:"CHIM038"
                   "claimed infeasible, but the box's minimum corner fits: \
                    MU %d <= %d"
                   fresh_mu cert.C.capacity_bytes
           | C.Pruned { lb_dv_bytes } -> (
               match witness.by_ids ids with
               | Error reason ->
                   err ~code:"CHIM039"
                     "no witness theory applies to this order's box (%s)"
                     reason
               | Ok lb ->
                   if not (loosely_close lb lb_dv_bytes) then
                     err ~code:"CHIM039"
                       "claimed witness %.6e disagrees with re-pricing %.6e"
                       lb_dv_bytes lb;
                   (* Exclusion holds when the witness strictly clears
                      the winner's DV — or exactly ties it from a later
                      enumeration position: every DV this order can
                      achieve is then at least the winner's, and the
                      earliest-minimum tie-break keeps the winner. *)
                   if lb > winner_dv then ()
                   else if loosely_close lb winner_dv && i > winner_index
                   then ()
                   else
                     err ~code:"CHIM039"
                       "re-priced witness %.6e neither strictly clears the \
                        winner's DV %.6e nor ties it from a later \
                        enumeration position — the order cannot be \
                        excluded"
                       lb winner_dv)));
       List.rev !local
     in
     let check_range lo hi =
       let lane =
         {
           tiles = Array.make n_axes 0;
           trips = Array.make n_axes 0;
           out = { Movement.dv = 0.0 };
         }
       in
       let rec go i acc =
         if i < lo then acc
         else go (i - 1) (check_entry lane i entries.(i) @ acc)
       in
       go (hi - 1) []
     in
     let per_task =
       match pool with
       | Some pool when n_entries > entries_per_task ->
           Util.Pool.run pool
             (fun t ->
               check_range (t * entries_per_task)
                 (min n_entries ((t + 1) * entries_per_task)))
             ((n_entries + entries_per_task - 1) / entries_per_task)
       | _ -> [| check_range 0 n_entries |]
     in
     Array.iter (List.iter add) per_task);
  if cert.C.conditional then
    add
      (Diagnostic.warningf ~code:conditional_code (l ())
         "conditional certificate: the box admits no lower-bound witness \
          (gapped accesses) — optimality holds relative to the exhaustive \
          per-order descents, with no independent whole-box exclusion");
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Unit entry point                                                     *)
(* ------------------------------------------------------------------ *)

let check_level_plans ?(require_certificates = false) ?pool chain
    (lps : Planner.level_plan list) =
  let unit_name = chain.Ir.Chain.name in
  let pricing = lazy (pricing_of chain) in
  (* level_plans is innermost-first; each level's search box nests
     inside the next-outer plan's tiles. *)
  let outer_first = List.rev lps in
  let rec walk parent acc = function
    | [] -> List.rev acc
    | (lp : Planner.level_plan) :: rest ->
        let plan = lp.Planner.plan in
        let part = spf "level %s" lp.Planner.level.Arch.Level.name in
        let ds =
          match plan.Planner.certificate with
          | Some cert ->
              check_certificate ?pool ~pricing chain ~unit_name ~part
                ~parent plan cert
          | None ->
              if require_certificates then
                [
                  Diagnostic.warningf ~code:missing_code
                    (Diagnostic.loc ~part unit_name)
                    "analytical plan carries no optimality certificate \
                     (legacy cache entry, perms override, or tampering)";
                ]
              else []
        in
        walk (Some plan) (List.rev_append ds acc) rest
  in
  walk None [] outer_first

let certified (lps : Planner.level_plan list) =
  lps <> []
  && List.for_all
       (fun (lp : Planner.level_plan) ->
         lp.Planner.plan.Planner.certificate <> None)
       lps

let conditional (lps : Planner.level_plan list) =
  List.exists
    (fun (lp : Planner.level_plan) ->
      match lp.Planner.plan.Planner.certificate with
      | Some c -> c.C.conditional
      | None -> false)
    lps
