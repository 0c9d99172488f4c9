(** Content-addressed LRU cache of compilation plans.

    Keys are request {!Fingerprint}s; values are the planner's decisions
    ({!Chimera.Compiler.unit_plan} per sub-chain) plus how the request
    was decomposed — everything needed to rebuild compiled kernels with
    zero planner solves.  Eviction follows the doubly-linked recency
    list idiom of [Sim.Lru], with capacity counted in entries (plans are
    small and uniform, unlike the simulator's variable-size tiles).

    {2 Persistence}

    [save] writes the whole cache to [<dir>/plan_cache.bin]: a
    one-line text header [CHIMERA-PLAN-CACHE <file_version>
    <fingerprint scheme_version>] followed by one {e frame} per entry
    in recency order — a 4-byte payload length, a 4-byte CRC-32, then
    the marshalled [(key, entry)] bytes.  [load] restores it at
    startup and validates every frame independently: a torn tail (the
    save path does not fsync, so a crash can publish a truncated
    image) or a bit-flipped entry is {e skipped and counted}
    ([Metrics.cache_entries_skipped]), never trusted and never fatal —
    the surviving entries still load.  A header mismatch (file format
    change, fingerprint scheme change) still discards the file
    wholesale, counted in [Metrics.cache_corrupt]: a cold cache is
    always safe, a stale plan never is.  {!save_with_retry} bounds
    transient I/O faults with exponential backoff.

    A cache directory may be shared by many processes (the fleet's
    shared tier): writers serialize on an advisory {!lock_file} lock
    and merge with the on-disk entries before an atomic pid-unique
    temp-file-then-rename publish, so contention can neither corrupt
    the file nor silently drop another worker's plans.  Loads take no
    lock — rename atomicity means a reader sees a complete old or new
    image, never a torn one. *)

type rung = Fused | Split | Heuristic
(** The degradation ladder: [Fused] — one kernel for the whole chain;
    [Split] — one analytically planned kernel per stage; [Heuristic] —
    one kernel per stage with a cheap always-feasible uniform tiling
    (no planner solve).  See docs/SERVICE.md. *)

val rung_to_string : rung -> string
(** ["fused" | "split" | "heuristic"], the wire spelling. *)

type entry = {
  rung : rung;  (** the ladder rung the plans were produced at. *)
  degrade_reason : string option;
      (** [Some reason] when the entry sits below the requested rung
          (the higher rung's failure or deadline). *)
  units : Chimera.Compiler.unit_plan list;
      (** one per sub-chain, in execution order. *)
}

type t

val file_version : int
(** Bump on any change to the cache-file layout (v2: entries carry the
    degradation {!rung}; v4: per-entry CRC frames; v5: plans carry
    optimality certificates). *)

val min_migratable_version : int
(** Oldest file version {!load} recognizes as an honest cache from a
    previous binary.  Files in
    [\[min_migratable_version, file_version)] are {e migrated}: their
    entries are counted ([Metrics.cache_entries_migrated]) and
    skipped — never unmarshalled (the layout changed) and never
    reported as corruption.  A rolling upgrade therefore restarts
    cold but quiet; the next save rewrites the file at the current
    version. *)

val create : ?capacity:int -> ?metrics:Metrics.t -> unit -> t
(** An empty cache holding at most [capacity] entries (default 512).
    When [metrics] is given, hits/misses/evictions/corruption are
    mirrored into it.  Raises [Invalid_argument] on non-positive
    capacity. *)

val find : t -> Fingerprint.t -> entry option
(** Lookup; refreshes recency and counts a hit or miss. *)

val add : t -> Fingerprint.t -> entry -> unit
(** Insert or replace, evicting least-recently-used entries over
    capacity; marks the cache dirty. *)

(** {2 Stored verification verdicts}

    A verifying service checks each cache entry at most once per
    process: the verdict lives on the node holding the entry and is
    dropped whenever that node's value is replaced ({!add}, {!load}),
    evicted or cleared.  Nothing persists it — {!load} always creates
    nodes with no verdict.  See docs/VERIFY.md. *)

type verdict = {
  chain_label : string;
  machine_label : string;
      (** the chain and machine display names the diagnostics were
          computed under: the fingerprint excludes them, the
          diagnostics' locations do not. *)
  diagnostics : Verify.Diagnostic.t list;
}

val verdict : t -> Fingerprint.t -> entry -> verdict option
(** The verdict stored for [entry] under [fp]: [None] unless the node
    for [fp] still holds this very [entry] (physical equality) and a
    verdict was stored on it since it did.  Touches neither recency nor
    counters. *)

val set_verdict : t -> Fingerprint.t -> entry -> verdict -> unit
(** Store [v] on the node for [fp], replacing any earlier verdict —
    only when that node still holds this very [entry]; a no-op once the
    entry was replaced or evicted. *)

val mem : t -> Fingerprint.t -> bool
(** Membership without touching recency or counters. *)

val length : t -> int
val capacity : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int

val dirty : t -> bool
(** Whether entries changed since the last [save]/[load]. *)

val clear : t -> unit
(** Drop all entries (counters keep accumulating). *)

val cache_file : dir:string -> string
(** The persistence path used under a cache directory. *)

val lock_file : dir:string -> string
(** The advisory lock file serializing cross-process writers under a
    shared cache directory. *)

type load_outcome =
  | Loaded of { entries : int; skipped : int; migrated : int }
      (** [entries] restored; [skipped] frames were torn or corrupt and
          were dropped (counted in [Metrics.cache_entries_skipped]);
          [migrated] entries belonged to an older-but-recognized file
          version and were counted-and-skipped (counted in
          [Metrics.cache_entries_migrated]). *)
  | Absent  (** no cache file — a clean cold start. *)
  | Discarded of string
      (** the file existed but its header was unreadable, its
          fingerprint scheme differed, or its version was newer than
          this binary; the reason is for logs.  Counted in
          [Metrics.cache_corrupt]. *)

val load : t -> dir:string -> load_outcome
(** Load persisted entries into the cache (oldest first, so recency is
    restored).  Never raises: I/O errors and injected [cache.load]
    faults report as [Discarded]; per-entry corruption (torn tail,
    bit flip) skips just the affected frames. *)

val loaded_count : load_outcome -> int
(** Entries restored by a [Loaded], 0 otherwise. *)

val skipped_count : load_outcome -> int
(** Corrupt frames skipped by a [Loaded], 0 otherwise. *)

val migrated_count : load_outcome -> int
(** Version-skewed entries counted-and-skipped by a [Loaded], 0
    otherwise. *)

val save : t -> dir:string -> unit
(** Persist all entries atomically, creating [dir] if needed; clears
    the dirty flag.  Safe under multi-process contention (the fleet's
    workers share one cache directory): the write happens to a
    pid-unique temp file then renames into place, and the whole
    read-merge-write runs under an exclusive lock on {!lock_file} — so
    concurrent savers can never interleave a corrupt image, and entries
    already on disk that this cache does not hold are preserved (the
    shared file converges to the union of every worker's plans, bounded
    by the sum of their in-memory caps).  A corrupt existing file is
    overwritten rather than merged.  Raises [Sys_error] on I/O failure
    (see {!save_with_retry} for the guarded form).

    Failpoints: [cache.save] fires before the write as before;
    [cache.save.torn] fires just before the rename and, when it does,
    truncates the temp file to ~60% before publishing — the on-disk
    image a crash between write and fsync leaves behind.  The save
    reports success (the crashed writer believed so too); the next
    {!load} recovers frame-by-frame. *)

val save_if_dirty : t -> dir:string -> unit
(** [save] only when {!dirty}. *)

val save_with_retry :
  ?attempts:int -> ?backoff_s:float -> t -> dir:string ->
  (unit, string) result
(** [save] with up to [attempts] (default 3) tries, sleeping
    [backoff_s] (default 0.01, doubling) between them.  Each retry is
    counted in [Metrics.cache_io_retries]; [Error] after the final
    attempt.  Never raises. *)
