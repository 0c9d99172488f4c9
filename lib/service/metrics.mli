(** Counters and latency histograms for the compilation service.

    One mutable record shared by the plan cache, the batch compiler and
    the serve loop; printable as a table, dumpable as JSON, and
    renderable as a Prometheus text exposition.  Integer counters stay
    plain mutable fields (tests assert on them directly); latencies
    live in {!Obs.Histogram} fields fed from request traces by
    {!observe_trace}. *)

type t = {
  mutable requests : int;  (** optimization requests processed. *)
  mutable hits : int;  (** plan-cache hits. *)
  mutable misses : int;  (** plan-cache misses. *)
  mutable evictions : int;  (** LRU evictions. *)
  mutable planner_solves : int;
      (** sub-chains actually planned (planner or tuner invocations);
          stays 0 across a fully warm batch. *)
  mutable degraded : int;
      (** requests served below the requested rung of the degradation
          ladder (fused solve failed, or split planning fell back to
          heuristic tiling). *)
  mutable heuristic : int;
      (** requests served by the last rung: per-operator heuristic
          tiling with no planner solve. *)
  mutable failed : int;  (** requests that produced no plan at all. *)
  mutable invalid_requests : int;
      (** requests rejected by validation ([invalid_request]). *)
  mutable deadline_exceeded : int;
      (** requests whose planning budget expired (whether they then
          degraded successfully or failed). *)
  mutable internal_errors : int;
      (** unexpected exceptions answered as [internal] (serve-loop
          catch-all, injected faults, failed cache persistence). *)
  mutable cache_corrupt : int;
      (** persisted cache files discarded on load (corrupt, truncated
          or version-mismatched). *)
  mutable cache_entries_skipped : int;
      (** individual cache-file frames dropped on load because their
          CRC failed or the file was torn mid-frame; the rest of the
          file still loaded (see {!Plan_cache}). *)
  mutable cache_io_retries : int;
      (** cache-persistence attempts retried after an I/O fault. *)
  mutable cache_entries_migrated : int;
      (** entries from an older-but-known cache file version counted
          and skipped on load (version-skew migration, never a hard
          error; see {!Plan_cache}). *)
  mutable verify_runs : int;
      (** responses the static-analysis passes actually ran on (verify
          mode warn or strict; fresh plans and first checks of cache
          entries). *)
  mutable verify_reused : int;
      (** verified responses answered with the verdict already stored
          on their plan-cache entry, so the passes did not run again
          (see {!Plan_cache.verdict}). *)
  mutable verify_warnings : int;
      (** verified responses that produced diagnostics but no errors. *)
  mutable verify_failures : int;
      (** verified responses with at least one error-severity
          diagnostic (rejected under strict, annotated under warn). *)
  mutable verify_certified_total : int;
      (** verified responses whose every analytical plan carried a
          full (unconditional) optimality certificate that checked. *)
  mutable verify_conditional_total : int;
      (** verified responses served on a conditional certificate (no
          whole-box prune witness; optimality rests on exhaustive
          per-order descents). *)
  mutable verify_uncertifiable_total : int;
      (** verified responses with at least one analytical plan
          carrying no certificate at all (heuristic rung, tuner, or
          legacy cache entries). *)
  mutable plan_evals_total : int;
      (** DV/MU model evaluations across all planner solves. *)
  mutable plan_perms_pruned_total : int;
      (** block execution orders skipped by the planner's
          branch-and-bound gate. *)
  mutable trace_spans_dropped : int;
      (** spans discarded because a request trace hit its [max_spans]
          bound, summed over served traces (see {!Obs.Trace.dropped}). *)
  mutable trace_ring_evictions : int;
      (** buffered traces overwritten in the bounded serve-side rings
          (the [cmd:traces] ring and the shipped-span spool) before
          anyone drained them (see {!Obs.Ring.evicted}). *)
  solve_ms : Obs.Histogram.t;
      (** end-to-end planning latency of cache misses (the ["solve"]
          span: ladder descent, all levels, tuner included). *)
  cache_lookup_ms : Obs.Histogram.t;  (** plan-cache probe latency. *)
  perm_solve_ms : Obs.Histogram.t;
      (** per-execution-order solver descents (["order"] spans),
          including cross-domain fan-out. *)
  tuner_trial_ms : Obs.Histogram.t;
      (** per-trial simulator measurement inside {!Chimera.Tuner}. *)
  codegen_ms : Obs.Histogram.t;  (** kernel materialization. *)
  verify_ms : Obs.Histogram.t;  (** static-analysis verification. *)
}

val create : unit -> t
(** All counters zero, all histograms empty. *)

val reset : t -> unit

(** Every metric registers its value type; renderers dispatch on the
    constructor, so a renamed metric can never be misformatted. *)
type value =
  | Counter of int
  | Gauge of float  (** derived/deprecated float totals *)
  | Hist of Obs.Histogram.t

val fields : t -> (string * value) list
(** All metrics in render order.  Includes the deprecated
    [compile_seconds] / [plan_solve_ms_total] gauges, derived from the
    solve histogram's sum, kept for one version. *)

val compile_seconds : t -> float
(** Deprecated alias: [sum(solve_ms) / 1000]. *)

val plan_solve_ms_total : t -> float
(** Deprecated alias: [sum(solve_ms)]. *)

val observe_trace : t -> Obs.Trace.t -> unit
(** Fold a finished request trace into the latency histograms (span
    names [solve], [cache.lookup], [order], [tuner.trial], [codegen],
    [verify]).  Call exactly once per trace, from one domain. *)

val to_table : t -> Util.Table.t
(** Two-column (counter, value) rendering; histograms shown as
    [n/p50/p99]. *)

val to_json : t -> Util.Json.t
(** One field per metric: counters as ints, deprecated gauges as
    floats, histograms as [{count, sum_ms, p50_ms, p90_ms, p99_ms,
    max_ms}] objects. *)

val to_prometheus : ?labels:(string * string) list -> t -> string
(** Prometheus text exposition: [chimera_]-prefixed counters and
    cumulative [_bucket{le=...}]/[_sum]/[_count] histogram series, each
    metric preceded by its [# HELP] / [# TYPE] header.  [labels]
    (e.g. [[("worker", "3")]]) are attached to every series — values
    are escaped per the exposition format.  Equivalent to
    {!to_prometheus_many}[ [(labels, t)]]. *)

val to_prometheus_many : ((string * string) list * t) list -> string
(** Conformant multi-instance exposition: the exposition format allows
    at most one [# HELP]/[# TYPE] pair per metric name in a scrape, so
    a fleet exposing merged unlabelled series next to per-worker
    labelled ones must group them.  Emits, for each metric, one header
    followed by that metric's series from every [(labels, t)] instance
    in order. *)

val help : string -> string
(** One-line [# HELP] text for a {!fields} metric name. *)

val merge : into:t -> t -> unit
(** Add [src]'s counters into [into] and losslessly merge its latency
    histograms ({!Obs.Histogram.merge}): the aggregate of N workers'
    metrics equals one worker having served the pooled stream.  Raises
    [Invalid_argument] only on incompatible histogram layouts (never
    between two {!create}d instances). *)

val to_wire_json : t -> Util.Json.t
(** Full-fidelity serialization for fleet aggregation: counters as
    ints, histograms in their per-bucket wire form
    ({!Obs.Histogram.to_wire_json}).  The derived gauges are omitted;
    the receiver re-derives them after merging.  This is what a worker
    answers to [{"cmd": "stats", "full": true}]. *)

val of_wire_json : Util.Json.t -> (t, string) result
(** Inverse of {!to_wire_json}; [Error] on any missing or malformed
    field, never an exception. *)

val print : t -> unit
(** {!to_table} to stdout. *)
