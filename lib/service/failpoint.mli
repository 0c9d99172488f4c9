(** Named fault-injection sites for testing the service's recovery
    paths.

    A failpoint is a named call site ([Failpoint.hit "cache.save"])
    that normally does nothing.  Activating a spec — via the
    [CHIMERA_FAILPOINTS] environment variable at startup, or
    programmatically with {!configure} — makes matching sites raise,
    delay, or fail with an I/O error, so every "what if this breaks
    mid-flight" branch can be driven deterministically from a test or a
    chaos run.

    {2 Spec syntax}

    {v
    spec   := entry (';' entry)*
    entry  := site [ '(' ctx ')' ] '=' action [ '@' N ]
    action := 'raise' | 'io' | 'delay:MS' | 'prob:P:SEED'
    v}

    - [raise] raises {!Injected} at every matching hit;
    - [io] raises [Sys_error] (an injected I/O fault);
    - [delay:MS] sleeps [MS] milliseconds (latency injection; safe to
      enable globally, e.g. across a CI test run);
    - [prob:P:SEED] raises {!Injected} with probability [P] drawn from a
      dedicated SplitMix64 stream seeded with [SEED] — deterministic
      across runs;
    - [@N] restricts any action to the Nth matching hit only (1-based);
    - [site(ctx)] restricts the rule to hits whose [?ctx] string
      contains [ctx] (e.g. [plan.solve(G5)=raise] faults only workload
      G5's solves).

    Example: [CHIMERA_FAILPOINTS="plan.solve(G5)=raise;cache.save=io@1"].

    {2 Sites wired into the service}

    [plan.solve] (every planner/tuner solve; ctx = sub-chain name),
    [plan.heuristic] (the last-rung heuristic tiling; ctx = sub-chain
    name), [cache.load] and [cache.save] (plan-cache persistence; ctx =
    file path), [serve.handle] (per input line of the serve loop; ctx =
    the raw line), [verify.check] (each run of the verifier passes on a
    response; ctx = chain name).

    All state is process-global and mutex-guarded: hits may come from
    any domain of a parallel batch.  Inactive failpoints cost a single
    ref load per hit. *)

exception Injected of string
(** Raised by [raise]/[prob] actions, carrying the site name. *)

val env_var : string
(** ["CHIMERA_FAILPOINTS"], read once at program start. *)

val configure : string -> (unit, string) result
(** Replace the active rules with a parsed spec (resets all counters).
    [Error] describes the first malformed entry; the previous rules are
    kept in that case. *)

val configure_from_env : unit -> (unit, string) result
(** Re-read {!env_var}; an unset or empty variable clears all rules. *)

val clear : unit -> unit
(** Deactivate every rule and reset counters. *)

val active : unit -> bool
(** Whether any rule is installed. *)

val hit : ?ctx:string -> string -> unit
(** Trigger site: no-op unless a configured rule matches [site] (and
    [ctx], when the rule carries a filter).  May raise {!Injected} or
    [Sys_error], or sleep, per the matched rule's action. *)

val hits : string -> int
(** Total times the named site was reached since the last
    [configure]/[clear] (counted only while rules are active). *)

val fired : string -> int
(** Times the named site actually injected a fault (or delay). *)
