(** The batch compiler: compile many optimization requests cheaply and
    robustly.

    Requests are deduplicated by {!Fingerprint}; cache misses are
    planned in parallel across OCaml 5 domains (plans are pure data, so
    domains share nothing and the result is bit-identical to sequential
    compilation); and each request is failure-isolated — {e any}
    exception one request's planning raises (a solver bug, an injected
    fault, a deadline expiry) is contained to that request, which walks
    the degradation ladder or maps to a typed {!Error.t}, rather than
    poisoning the batch or killing the domain carrying it.

    {2 The degradation ladder}

    A cache miss is planned at the highest rung that succeeds:
    + {!Plan_cache.Fused} — one analytically planned kernel for the
      whole chain (skipped when the config disables fusion — starting
      unfused by request is not a degradation);
    + {!Plan_cache.Split} — one analytically planned kernel per stage;
    + {!Plan_cache.Heuristic} — one kernel per stage with
      {!Chimera.Advisor.heuristic_unit_plan}'s uniform tiling: no
      planner solve, not subject to the deadline, so the service can
      always answer.

    A response below the requested rung carries the failure trail in
    [degraded].  [Error] means even the last rung produced nothing; if
    the budget expired along the way it is reported as
    [Deadline_exceeded] (the retryable cause). *)

type source =
  | Cache  (** plans came from the plan cache; zero solves. *)
  | Compiled  (** plans were computed by this batch. *)

type verify_mode =
  | Verify_off  (** no verification (the default). *)
  | Verify_warn
      (** run the {!Verify} passes on every successful response — fresh
          plans and cache hits alike — and attach the diagnostics.  The
          passes run at most once per cache entry per process: the
          diagnostics are stored on the entry's plan-cache node
          ({!Plan_cache.verdict}) and every later response built from
          that same entry under the same chain and machine labels
          reuses them. *)
  | Verify_strict
      (** like [Verify_warn], but a response carrying error-severity
          diagnostics is rejected as {!Error.Verify_failed}.  This is
          the guard against corrupt or stale cache entries: marshalled
          plans bypass every constructor check. *)

type response = {
  fingerprint : Fingerprint.t;
  source : source;
  rung : Plan_cache.rung;
      (** which rung of the degradation ladder answered. *)
  degraded : string option;
      (** [Some trail] when a higher rung was requested but failed;
          [None] when the entry sits at the requested rung. *)
  compiled : Chimera.Compiler.compiled;
  seconds : float;  (** planning wall-clock (0 for cache hits). *)
  verification : Verify.Diagnostic.t list;
      (** findings of the static-analysis passes; [[]] when verification
          is off (or when strict verification rejected the response —
          the summary then travels in the error). *)
  certificate : string option;
      (** the optimality-certificate verdict, [Some] whenever
          verification ran: ["certified"] — every analytical plan of
          every unit carries a full certificate that checked;
          ["conditional"] — certificates checked but at least one is
          conditional (no whole-box prune witness, see docs/CERTIFY.md);
          ["uncertified"] — at least one unit carries no certificate
          (heuristic rung, tuner fallback, legacy cache entry);
          ["failed"] — a certificate check produced an error diagnostic
          (CHIM036-042).  [None] when verification is off. *)
  trace : Obs.Trace.t option;
      (** the request's trace (fingerprint / cache.lookup / solve /
          codegen / verify spans and their children); always [Some] on
          responses produced by {!compile} and {!run}. *)
}

val compile :
  ?cache:Plan_cache.t -> ?metrics:Metrics.t -> ?config:Chimera.Config.t ->
  ?deadline:Deadline.t -> ?pool:Util.Pool.t -> ?verify:verify_mode ->
  ?obs:Obs.Trace.t ->
  machine:Arch.Machine.t -> Ir.Chain.t -> (response, Error.t) result
(** Compile one chain through the cache: lookup by fingerprint, plan on
    miss (walking the ladder above, under [deadline] when given),
    store, rebuild kernels from the plans, and — under [verify]
    (default {!Verify_off}) — run the static-analysis passes over the
    result.  [pool] parallelizes the planner's per-order solves, so a
    single request uses every lane; the chosen plan is identical to the
    serial one.

    The request is traced onto [obs] (a fresh trace when omitted) under
    a root ["request"] span, and the finished trace is folded into
    [metrics]' latency histograms — so per-phase latency attribution
    works even for callers that never look at a trace. *)

val run :
  ?jobs:int -> ?cache:Plan_cache.t -> ?metrics:Metrics.t ->
  ?config:Chimera.Config.t -> ?deadline_ms:float -> ?pool:Util.Pool.t ->
  ?verify:verify_mode -> Request.t list ->
  (Request.t * (response, Error.t) result) list
(** Compile a request list, in input order.  Duplicate fingerprints are
    planned once.  Cache-miss planning runs on [pool] (default the
    process-wide {!Util.Pool.global}; hits never touch it): [jobs]
    (default 1) caps the lanes planning across requests, and at the
    default the whole pool instead parallelizes each request's
    candidate-order exploration, so a batch of one is still multicore.
    [deadline_ms] is the per-request budget for requests that do not
    carry their own; each clock starts when that request's planning
    starts.  Deadlines are not part of the fingerprint, so duplicates
    plan once under the first occurrence's budget.  Requests that fail
    to resolve or to plan map to [Error] without affecting the rest of
    the batch. *)
