(** Algorithm 1 of the paper: analytical data-movement volume and memory
    usage of an operator chain under a block execution order and a
    decomposition-parameter vector. *)

type per_tensor = {
  tensor : string;
  footprint_bytes : int;  (** DF: one block's data-tile size. *)
  movement_bytes : float;
      (** DM: total bytes this tensor moves across the boundary of the
          target memory level (0 for intermediates). *)
}

type result = {
  dv_bytes : float;  (** total data movement volume (the DV output). *)
  mu_bytes : int;  (** peak per-block memory usage (the MU output). *)
  per_tensor : per_tensor list;  (** one entry per distinct tensor ref. *)
  per_op_mu : (string * int) list;  (** block working set per operator. *)
}

val fused_axes : Ir.Chain.t -> string list
(** Names of the axes used by at least one fused-stage operator, in chain
    declaration order — the [I] independent loops of the reordering
    space (a conv chain's standalone-only axes are excluded). *)

val validate_perm : Ir.Chain.t -> string list -> unit
(** Raises [Invalid_argument] unless the list is a permutation of
    {!fused_axes}. *)

val analyze :
  ?charge_intermediates:bool -> Ir.Chain.t -> perm:string list ->
  tiling:Tiling.t -> result
(** Run Algorithm 1.  [perm] is outermost-first; blocks execute from the
    innermost (right-most) loop outward.  Only the chain's IO tensors
    are charged; intermediates are pinned on chip.  Producer-private
    loops are excluded before consumer stages (observation 3).
    [charge_intermediates] prices the intermediates as if they spilled —
    the no-reuse configuration of Figure 8f. *)

type evaluator
(** Algorithm 1 with the symbolic part pre-computed for one
    (chain, perm) pair: the reuse/active-loop structure and per-tensor
    footprint terms are frozen into flat arrays at {!compile} time, so
    each evaluation is pure integer/float arithmetic.  DV and MU are
    bit-exact with {!analyze} — the float operations happen in the
    identical order — which the property suite asserts with [=]. *)

val compile :
  ?charge_intermediates:bool -> Ir.Chain.t -> perm:string list -> evaluator
(** Compile the evaluator for one block execution order.  Same
    validation and [charge_intermediates] semantics as {!analyze}. *)

type template
(** The perm-independent part of {!compile}, frozen once per chain:
    per-tensor footprint terms, charge flags, and int-indexed
    axis-usage and live-loop tables.  Specializing a template to an
    order only rebuilds the active-loop lists, so the planner, which
    prices many orders of the same chain, pays the IR traversal once;
    {!eval_order} prices an order straight off the template without
    specializing at all. *)

val compile_template : ?charge_intermediates:bool -> Ir.Chain.t -> template

val order_ids : template -> perm:string list -> int array
(** The order as template axis ids (the indexing of {!axis_names}),
    innermost first — the vector {!eval_order} walks.  Raises
    [Invalid_argument] exactly as {!compile_with} does unless [perm] is
    a permutation of {!fused_axes}. *)

val compile_with : template -> perm:string list -> evaluator
(** [compile_with (compile_template ?charge_intermediates chain) ~perm]
    is {!compile} — same validation, same evaluator, observably
    identical results. *)

type cell = { mutable dv : float }
(** An unboxed float slot {!eval_order} writes DV into. *)

val eval_order :
  template -> order:int array -> trips:int array -> int array -> cell -> int
(** [eval_order tpl ~order ~trips tiles out] writes [dv_bytes] into
    [out.dv] and returns [mu_bytes] for the order whose {!order_ids}
    are [order], at the tile vector [tiles] (indexed like
    {!axis_names}, sizes in [1, extent]).  [trips] is caller-owned
    scratch of the same length, overwritten with the trip counts.
    Bit-identical ([=]) to {!eval_array} on [compile_with tpl ~perm] —
    the float operations happen in the same order — and allocates
    nothing, so a caller pricing one tiling per order never compiles an
    evaluator. *)

val multi_trip_loops :
  extents:int array -> order:int array -> int array -> int array -> int
(** The order-dependence lemma.  A loop whose tile covers its extent
    runs one trip: it multiplies a DM by exactly [1.0] (an IEEE
    identity) and never ends a reuse run (only an iterating loop that
    indexes the tensor does).  So {!analyze}, {!eval_array},
    {!eval_order} and every {!batch_sweep} lane depend on the order
    only through the subsequence of its loops whose tile is below the
    extent, and MU does not depend on the order at all: two orders
    whose subsequences are equal price every such tiling [=].

    [multi_trip_loops ~extents ~order tiles out] writes that
    subsequence of [order] (axis ids, innermost first, as
    {!order_ids} gives them) into [out], fills the rest of
    [out.(0 .. Array.length order - 1)] with [-1], and returns its
    length. *)

val eval : evaluator -> tiling:Tiling.t -> float * int
(** [(dv_bytes, mu_bytes)] for a tiling — equal to the corresponding
    fields of {!analyze} on the same inputs. *)

val eval_array : evaluator -> int array -> float * int
(** The allocation-light entry point the solver descends on: tile sizes
    as a plain vector indexed like {!axis_names} (every chain axis, in
    chain declaration order).  Sizes are expected in [1, extent] — the
    caller owns the clamping {!Tiling.make} would have done. *)

val axis_names : evaluator -> string array
(** The axis order {!eval_array} expects (the chain's axes). *)

type batch
(** Batched frontier evaluation over one {!evaluator}: a loaded base
    tile vector plus per-axis partial-product memoization, so a lane
    differing from the base in exactly one coordinate reprices only the
    references that coordinate can influence (DM prefix sums are reused
    up to the first affected reference and re-added in the identical
    order afterwards).  Every lane is bit-exact with {!eval_array} on
    the same vector — the float operations happen in the same order —
    which the property suite asserts with [=].  One [batch] is reused
    across loads; nothing is allocated per lane. *)

val compile_batch : evaluator -> batch
(** Freeze the evaluator's per-axis influence structure (which
    references each axis can affect, which stage footprints it can
    change) into flat arrays. *)

val batch_load : batch -> int array -> float * int
(** Set the base point (indexed like {!axis_names}) and return its
    [(dv_bytes, mu_bytes)] — equal to [eval_array] on the same vector.
    Lanes submitted afterwards are priced relative to this point. *)

val batch_sweep :
  batch -> axis:int -> values:int array -> count:int -> ?cutoff:float ->
  dv:(float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  mu:(int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  unit -> int
(** Evaluate the frontier of candidates [base with axis := values.(j)]
    for [j < count], writing per-lane DV/MU into the caller's lanes.
    Each lane equals [eval_array] on its vector, except lanes whose DV
    partial sum exceeds [cutoff] (default [infinity]): DMs are
    non-negative and IEEE addition of a non-negative term is monotone,
    so such a lane's final DV provably exceeds [cutoff] too — it is
    abandoned early and reports [infinity].  Returns the number of
    lanes cut off.  [values] must lie in [1, extent]. *)

val batch_probe : batch -> axis:int -> int -> float * int
(** One-lane {!batch_sweep} without a cutoff, for the boundary-grow
    feasibility bisection: [(dv, mu)] of [base with axis := v], exact. *)

val dv_lower_bound :
  ?shave:bool ->
  evaluator -> bounds:int array -> fixed:bool array -> float option
(** A certified lower bound on DV over a tiling search box, for the
    solver's branch-and-bound gate.  The box is [1, bounds.(i)] per
    axis; axes with [fixed.(i)] sit at exactly [bounds.(i)] in every
    point the solver evaluates (full-tile axes, bound-1 axes).  The
    bound is DV at the all-upper-bounds corner with each varying
    reuse-breaking loop priced at the real ratio extent/bound rather
    than its ceiling — sound because a dense access's footprint-times-
    trips product per axis is minimised at the bound, and reuse breaks
    only move inward as tiles shrink.  A gapped access (conv stride >
    kernel, where small tiles touch less data than the corner footprint
    suggests) is priced jointly instead: the dimension's factor and the
    gapped axis's own trip multiplier collapse to min(extent x
    fixed-span, dim bound), which lower-bounds their product at every
    box point.  Returns [None] only when a varying axis touches more
    than one dimension of a reference (no cheap corner evaluation
    bounds that), in which case the caller must not prune.

    [shave] (default true) multiplies the result by [1 - 1e-9] so float
    rounding in the corner products can never lift the bound past a DV
    it must stay under.  [~shave:false] returns the raw corner value
    for the solver's tie-aware gate, which compares the bound against
    an incumbent DV with exact float equality — at a genuine tie both
    sides are the same sum of exactly-representable integer terms. *)

val reuse_axes : Ir.Chain.t -> perm:string list -> tensor:string -> string list
(** The axes along which the named IO tensor is *reused* under [perm]:
    scanning from the innermost loop outward within the owning operator's
    loop nest, the run of loops that do not index the tensor before the
    first one that does (the per-tensor columns of Figure 2's table).
    Returns [] for intermediates (always reused on chip). *)

val movement_expr :
  Ir.Chain.t -> perm:string list -> tensor:string -> string
(** Human-readable symbolic DM expression for one tensor, e.g.
    ["M*K*ceil(L/T_l)"] — the Table III view, used by the bench
    harness and tests. *)
