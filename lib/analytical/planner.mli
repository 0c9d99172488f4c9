(** Inter-block optimization driver: enumerate candidate block execution
    orders, solve Equation 1 for each, and keep the order with the
    minimal data movement volume — then extend the result down a
    multi-level memory hierarchy (Section IV-C, Equations 2–3). *)

type plan = {
  perm : string list;  (** chosen block execution order, outermost first. *)
  tiling : Tiling.t;  (** chosen decomposition parameters [S]. *)
  movement : Movement.result;  (** Algorithm-1 analysis of the choice. *)
  capacity_bytes : int;  (** the memory budget the plan was solved for. *)
  candidates_evaluated : int;  (** size of the explored order space. *)
  perms_pruned : int;
      (** orders skipped by branch-and-bound before any descent. *)
  solver_evals : int;
      (** total DV/MU model evaluations spent choosing this plan. *)
  certificate : Certificate.t option;
      (** the optimality evidence trail {!optimize} assembled: one
          entry per candidate order (won / solved / infeasible /
          pruned-with-witness), independently checkable by
          lib/verify's [Cert_check] (see docs/CERTIFY.md).  [None] for
          plans outside the canonical order space — a caller-supplied
          [perms] override, heuristic advisor plans, tuner plans. *)
}

type candidate = {
  c_perm : string list;
  c_tiling : Tiling.t;
  c_dv_bytes : float;
}
(** One explored block execution order with its best tiling. *)

type explore_stats = {
  evaluated : int;  (** orders considered (the whole candidate space). *)
  pruned : int;  (** of those, skipped by the branch-and-bound gate. *)
  evals : int;  (** DV/MU model evaluations across all solves. *)
  recalled : int;
      (** of those, lanes served from the exploration's recall tables
          ({!Solver.recall}) instead of recomputed.  Like [pruned], it
          may vary between pooled runs; every other output does not. *)
}

val explore :
  Ir.Chain.t -> capacity_bytes:int -> ?max_tile:(string -> int) ->
  ?min_tile:(string -> int) -> ?perms:string list list ->
  ?check:(unit -> unit) -> ?prune:bool -> ?engine:Solver.engine ->
  ?pool:Util.Pool.t -> ?obs:Obs.Trace.ctx -> unit ->
  candidate list * explore_stats
(** Solve every candidate order and return them ranked by data movement
    volume (plus exploration statistics) — the paper's Figure 2 view of
    the search space, used by diagnostics.

    The exploration owns its recall tables ({!Solver.recall}): one per
    pool lane, created here and dropped on return — never shared with
    another exploration, level or chain.  [engine] [`Batched] consults
    them; the other engines keep none.

    [obs] (default disabled) wraps each per-order solve in an ["order"]
    span carrying the permutation, its verdict and its evaluation
    count.  The context is
    captured into the pool workers' closures, so under a pooled fan-out
    the spans land on the same trace with the caller's span as parent
    and the worker domain as [tid] — cross-domain parenting for free.

    [prune] (default off, so diagnostic listings stay complete) turns on
    branch-and-bound: a best-so-far (DV, enumeration index) pair is
    threaded to every solve as {!Solver.solve}'s [prune_above], skipping
    orders whose certified DV lower bound is strictly above the
    incumbent — or exactly ties it from a later enumeration position,
    which the earliest-minimum tie-break makes unwinnable.  Pruning
    never changes the ranked head — only unselectable orders are
    dropped from the tail.

    [engine] (default [`Batched]) selects the {!Solver.engine} every
    per-order solve descends with; all engines land on identical plans.

    [pool] fans the per-order solves across a shared domain pool; the
    best-so-far bound lives in an atomic so workers prune against each
    other's results.  Results are reassembled in enumeration order, so
    the (stable) ranking — and therefore the chosen plan — is identical
    to the serial path's; only [explore_stats.pruned]/[evals] may vary
    run to run under the pool.

    [check] is the cooperative cancellation hook threaded into every
    per-order solve (see {!Solver.solve}); deadline-bounded callers
    make it raise, bounding the whole exploration. *)

val optimize :
  Ir.Chain.t -> capacity_bytes:int -> ?max_tile:(string -> int) ->
  ?min_tile:(string -> int) -> ?perms:string list list ->
  ?check:(unit -> unit) -> ?prune:bool -> ?engine:Solver.engine ->
  ?pool:Util.Pool.t -> ?obs:Obs.Trace.ctx -> unit -> plan
(** Single-level optimization: {!explore} with pruning on (default;
    [~prune:false] restores the exhaustive pre-pruning behaviour for
    benchmarks and equivalence tests), keeping the minimum-DV order.
    [perms] overrides the enumerated candidate
    orders (used by tests and by fixed-order baselines).
    For chains with the canonical [b/m/n/k/l] axes the closed-form GEMM
    solution is seeded as a descent start.  Raises [Failure] if no
    candidate order admits a feasible tiling; propagates whatever
    [check] raises.

    Unless [perms] is overridden, the plan carries an optimality
    {!Certificate.t} assembled from the per-order verdicts: the winner
    with its exact DV, every losing descent with its best tiling, and
    every pruned order with its lower-bound witness.  Emission costs
    one extra evaluator compile (the witness-applicability probe) on
    top of the exploration itself. *)

val refine_for_parallelism :
  Ir.Chain.t -> plan -> min_blocks:int -> ?slack:float ->
  ?min_tile:(string -> int) -> ?check:(unit -> unit) ->
  ?obs:Obs.Trace.ctx -> unit -> plan
(** Split tiles along the safely-parallel axes ({!Parallelism}) until
    the tasks keep [min_blocks] cores ~90% busy under LPT scheduling,
    greedily halving the tile whose split costs the least extra data
    movement and stopping when the DV would exceed [slack] (default 4.0)
    times the optimum.  Mirrors the occupancy constraint every real
    backend imposes on top of the locality objective.  Trial halvings
    are priced through a compiled evaluator; the accepted split is
    re-analyzed in full, so the stored movement matches
    {!Movement.analyze} exactly. *)

type level_plan = {
  level : Arch.Level.t;  (** the on-chip level the plan targets. *)
  plan : plan;
  feed_bandwidth_gbps : float;
      (** bandwidth of the link that fills this level (the next-outer
          level's link — DRAM for the outermost on-chip level). *)
  cost_seconds : float;
      (** Equation 2: [DV_d / bw_d].  At the outermost (DRAM-fed) level
          the machine's {!Arch.Machine.calibration}, when present,
          corrects the DV before pricing — cost only; the plan, its DV
          field and its certificate are identical with or without
          calibration. *)
}

val optimize_multilevel :
  ?min_blocks:int -> ?min_tile:(string -> int) -> ?check:(unit -> unit) ->
  ?prune:bool -> ?engine:Solver.engine -> ?pool:Util.Pool.t ->
  ?obs:Obs.Trace.ctx -> Ir.Chain.t ->
  machine:Arch.Machine.t -> level_plan list
(** One plan per on-chip level, innermost first.  The outermost on-chip
    level is planned against full problem extents (and, when
    [min_blocks] is given, refined for parallelism); each inner level's
    tiles are constrained to nest inside its parent's (sub-block
    decomposition).  [pool] parallelizes each level's order
    exploration.  Each level is traced as a ["planner.level"] span on
    [obs] carrying the level's [orders], [pruned], [evals] and
    [recalled] counts (the first three equal to its plan's counters),
    with ["order"] children per explored permutation and a
    ["planner.refine"] child at the outermost level. *)

val bottleneck : level_plan list -> level_plan
(** The level with the largest movement cost — the max of Equation 3. *)

val memory_time_seconds : level_plan list -> float
(** The Equation-3 objective value: the bottleneck level's cost. *)

val pp_plan : Format.formatter -> plan -> unit
(** One-line summary: order, tiles, DV, MU, search counters. *)
