(** Optimality-certificate checking (CHIM036-044): re-establish a
    plan's {!Analytical.Certificate.t} claim independently of the
    solver that emitted it.

    The checker never runs a descent: the winner is re-derived through
    the reference {!Analytical.Movement.analyze}, solved losers are
    re-priced straight off the unit's shared movement template
    ({!Analytical.Movement.eval_order}: property-tested bit-identical
    to [analyze], no per-order compile, nothing allocated per entry —
    the entry volume dominates the pass's cost), infeasibility claims
    are re-checked the same way at the search box's minimum corner (MU
    monotonicity), and pruned-order witnesses are re-priced
    by {!witness_lower_bound} — a from-scratch walk of the IR that
    shares no code with [Movement.dv_lower_bound].  Coverage against
    {!Analytical.Permutations.candidates} (in enumeration order, which
    carries the tie-break) closes the argument: every candidate order
    is accounted for as won, solved, infeasible or excluded.  See
    docs/CERTIFY.md for the precise guarantee. *)

val check_level_plans :
  ?require_certificates:bool -> ?pool:Util.Pool.t ->
  Ir.Chain.t -> Analytical.Planner.level_plan list -> Diagnostic.t list
(** Check every level plan's certificate (innermost-first list, as the
    compiler stores it; each level's search box is validated against
    the next-outer plan's tiles).  Plans without a certificate are
    skipped silently unless [require_certificates] (default false), in
    which case they draw a CHIM044 warning — the lenient default keeps
    strict verification meaningful over heuristic-rung and legacy
    traffic that never claimed optimality.  [pool] fans the per-entry
    re-checks (one template pricing or witness re-pricing per
    candidate order — the pass's dominant cost) across its lanes in
    chunks; each entry's check is independent and diagnostics come
    back in entry order, so pooled and serial runs report
    identically. *)

val witness_pricer :
  Ir.Chain.t -> box:Analytical.Certificate.box_axis list ->
  string list -> (float, string) result
(** The staged form of {!witness_lower_bound}: the partial application
    [witness_pricer chain ~box] folds every perm-independent part of
    the re-pricing (applicability, corner footprints, gapped collapses,
    per-axis trip ratios) once, and the returned closure prices one
    order with just the reuse-break scan.  A certificate's checker
    calls it once per entry against a single box, which is what keeps
    the pass inside its < 5%-of-cold-plan budget.  The closure only
    reads its precomputed tables, so it is safe to share across pool
    lanes. *)

val witness_lower_bound :
  Ir.Chain.t -> perm:string list ->
  box:Analytical.Certificate.box_axis list ->
  (float, string) result
(** First-principles DV lower bound over a search box for one order,
    derived directly from the IR (accesses, strides, loop order) —
    including gapped-access joint pricing.  [Error] when the witness
    theory is inapplicable (a varying axis touching two dimensions of
    one reference).  Equivalent to [witness_pricer chain ~box perm]. *)

val certified : Analytical.Planner.level_plan list -> bool
(** Every level plan carries a certificate (and there is at least
    one). *)

val conditional : Analytical.Planner.level_plan list -> bool
(** Some level's certificate is conditional (no whole-box witness). *)

val error_code : string -> bool
(** Whether a diagnostic code is a certificate error (CHIM036-042). *)

val conditional_code : string
(** "CHIM043" — the conditional-certificate warning. *)

val missing_code : string
(** "CHIM044" — analytical plan without a certificate. *)
