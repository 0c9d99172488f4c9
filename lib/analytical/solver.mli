(** The constrained optimizer for one block execution order:
    [min_S DV(S)  s.t.  MU(S) <= MemoryCapacity]  (Equation 1).

    The paper solves the real relaxation with Lagrange multipliers and
    floor-rounds; the closed form exists only for specific chain shapes
    ({!Closed_form}), so this module implements the general equivalent: a
    deterministic multi-start coordinate descent over a geometric grid of
    integer tile sizes.  DV is non-increasing and MU non-decreasing in
    every tile size, so descent under the feasibility constraint walks to
    the capacity boundary exactly like the Lagrange solution; the
    closed-form point (when available) is injected as an extra start.

    The descent evaluates DV/MU through a {!Movement.evaluator} compiled
    once per (chain, perm) — flat arithmetic on a tile-size vector — so
    the thousands of model evaluations per solve cost nanoseconds, not
    a re-derivation of the symbolic analysis (see docs/PERF.md). *)

type solution = { tiling : Tiling.t; movement : Movement.result }
(** A feasible tiling and its Algorithm-1 analysis. *)

type engine = [ `Batched | `Compiled | `Reference ]
(** [`Batched] (default) submits each axis sweep's whole candidate
    frontier to {!Movement.batch_sweep} — one structure-of-arrays pass
    with per-axis partial-product memoization and a per-lane DV cutoff
    at the descent's incumbent — then replays the sequential adoption
    rule over the lanes, so it lands on the identical final tiling as
    the single-candidate engines (the equivalence suite asserts this
    with [=]).  [`Compiled] evaluates one candidate at a time on
    {!Movement.compile}'s evaluator — the single-candidate baseline the
    batched engine is compared against.  [`Reference] re-runs the full
    {!Movement.analyze} per evaluation — the pre-compilation behaviour,
    kept for benchmarks and for the equivalence tests that prove all
    engines pick identical plans. *)

type verdict =
  | Feasible of solution
  | Infeasible  (** even the minimal tiling exceeds the capacity. *)
  | Pruned of { lb_dv : float }
      (** skipped by branch-and-bound: [lb_dv], the order's certified
          DV lower bound over its whole search box, already exceeds the
          caller's incumbent ([prune_above]) — or exactly ties it from
          a later enumeration position, which the earliest-minimum
          tie-break makes equally unwinnable.  The witness value is
          kept so the planner can record it in the plan's optimality
          {!Certificate.t}. *)

type recall
(** An exact recall table for the [`Batched] descent, shared by the
    solves of many orders of one chain.  By
    {!Movement.multi_trip_loops}' lemma a pricing depends on the order
    only through its multi-trip loops, so the table is keyed by them:

    - a frontier sweep by the swept axis, its candidate grid, the other
      tile coordinates, and the multi-trip subsequence with the swept
      axis added;
    - a point (a descent start, a boundary-grow DV probe) by its tile
      vector and multi-trip subsequence;
    - an MU-only probe (boundary-grow feasibility, the uniform start's
      bisection) by its tile vector alone.

    A recalled frontier returns the bit-exact lanes an earlier order
    computed, and only when the current DV cutoff is at or below the
    one they were computed under (re-cut at the current one).  Every
    descent, every tiling, every verdict and every evaluation count is
    therefore identical with or without a table.  A table is mutable
    and unsynchronized — one per domain — and serves one chain: a solve
    with another chain raises [Invalid_argument]. *)

val recall_table : unit -> recall
(** A fresh, empty table. *)

val recalled : recall -> int
(** Lanes served from the table so far: a recalled frontier counts its
    candidates, a recalled point or MU probe counts one. *)

val candidate_sizes : int -> int list
(** The tile-size grid for an axis of the given extent: powers of two up
    to the extent, merged with the extent's halvings
    [extent, ceil(extent/2), ceil(extent/4), ...], sorted, deduplicated. *)

val solve :
  Ir.Chain.t -> perm:string list -> capacity_bytes:int ->
  ?full_tile:string list -> ?max_tile:(string -> int) ->
  ?min_tile:(string -> int) -> ?extra_starts:Tiling.t list ->
  ?boundary_grow:bool -> ?uniform_start:bool -> ?check:(unit -> unit) ->
  ?engine:engine -> ?prune_above:float * int -> ?enum_index:int ->
  ?template:Movement.template -> ?recall:recall -> unit -> verdict * int
(** Best feasible tiling for one permutation, plus the number of DV/MU
    model evaluations spent.

    [template] supplies a pre-built {!Movement.compile_template} so a
    caller solving many orders of the same chain pays the IR traversal
    once; when absent the solve compiles its own evaluator.

    [recall] shares exact results with the other orders solved
    through the same table (see {!recall}); only the [`Batched] engine
    consults it, and the verdict and the count are the same without
    it.  The solve itself is never instrumented: the caller's span
    around it carries the count.

    [prune_above] is the branch-and-bound incumbent as
    [(best_dv, best_enum_index)]: before descending,
    {!Movement.dv_lower_bound} certifies a DV lower bound over the whole
    search box (the capacity-relaxed all-upper-bounds corner, varying
    trip counts priced at their real ratios), and the order is {!Pruned}
    for the cost of a single evaluation when the bound is *strictly*
    above the incumbent DV, or when the raw (unshaved) bound exactly
    ties it and this order's [enum_index] is larger than the
    incumbent's: the planner keeps the earliest-enumerated minimum-DV
    order, so a later order whose every achievable DV is at least the
    incumbent's cannot be selected.  Both rules preserve the ranked
    winner exactly, and accesses the bound cannot certify (a varying
    axis touching two dimensions of one reference) leave the gate open,
    so the caller's selection is unchanged by pruning.  [enum_index]
    (default [max_int], which disables the tie rule) is this order's
    position in the caller's enumeration.

    [check] (default a no-op) is a cooperative cancellation hook,
    called at entry and before every descent sweep and boundary-grow
    pass; a caller enforcing a wall-clock budget makes it raise, and
    the exception propagates out of the solve.

    [full_tile] axes are fixed at [min extent (max_tile axis)]
    (convolution windows); [max_tile] bounds every axis (used for
    sub-block nesting in multi-level planning; defaults to the extents);
    [extra_starts] seeds additional descent starting points.
    [min_tile] floors tile sizes (the intra-block stage's native-tile
    requirement; relaxed automatically when even the floored block
    exceeds capacity).  [boundary_grow] (push tiles onto the MU =
    capacity boundary) and
    [uniform_start] (the balanced Lagrange-like seed) are both on by
    default; the internals ablation bench switches them off to show
    their contribution. *)

val solve_for_perm :
  Ir.Chain.t -> perm:string list -> capacity_bytes:int ->
  ?full_tile:string list -> ?max_tile:(string -> int) ->
  ?min_tile:(string -> int) -> ?extra_starts:Tiling.t list ->
  ?boundary_grow:bool -> ?uniform_start:bool -> ?check:(unit -> unit) ->
  ?engine:engine -> unit -> solution option
(** {!solve} without pruning, collapsed to an option — [None] when even
    the minimal tiling exceeds [capacity_bytes]. *)

val better : solution -> solution -> bool
(** [better a b] when [a] strictly improves on [b]: smaller DV, or equal
    DV with fewer blocks (larger tiles). *)
