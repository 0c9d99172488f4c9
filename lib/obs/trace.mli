(** Spans, trace ids and explicit trace contexts.

    A {!t} is one request's trace: a process-unique id, a label, and a
    bag of closed spans.  Code under instrumentation never sees the
    trace directly — it receives a {!ctx} and wraps phases with
    {!span}, which times the callback on the monotone {!Clock} and
    records the span on the owning trace when the callback returns
    (or raises: an abandoned span is closed with an ["error"]
    attribute and the exception is re-raised, so span trees stay
    well-nested under failpoints and deadline aborts).

    Contexts are plain values, safe to capture into closures that run
    on other domains ({!Util.Pool} fan-out): the child span records the
    worker's domain as its [tid] while keeping the caller's span as
    its parent.  The disabled context {!none} makes [span] a single
    match branch — hot paths take a [ctx] unconditionally and cost
    nothing when tracing is off. *)

type t
(** A single trace (one request). Thread-safe. *)

type span = private {
  sid : int;  (** unique within the trace *)
  parent : int option;  (** parent span's [sid] *)
  name : string;
  tid : int;  (** domain id that ran the span *)
  start_us : int;  (** {!Clock.now_us} at open *)
  mutable dur_us : int;
  mutable attrs : (string * string) list;
  mutable err : bool;  (** closed by an exception *)
  open_seq : int;  (** per-trace sequence number taken at open *)
  mutable close_seq : int;  (** sequence number taken at close *)
}

type ctx
(** Either disabled, or a position (trace + current parent span). *)

type remote = { trace_id : string; parent_sid : int }
(** A decoded trace-context wire form: the distributed trace to join
    and the upstream span to parent under. *)

val none : ctx
(** The disabled context: [span none name f] is [f none]. *)

val enabled : ctx -> bool
(** [false] exactly for {!none}.  Use to skip building costly
    attribute strings on instrumented hot-ish paths. *)

val make :
  ?id:string -> ?label:string -> ?max_spans:int -> ?remote_parent:int ->
  unit -> t
(** Fresh trace.  [id] defaults to a generated 16-hex-digit id unique
    within the process (and overwhelmingly likely across processes);
    pass it explicitly only in tests — or when adopting a distributed
    trace id from the wire (prefer {!adopt}).  [remote_parent] is the
    sid of an upstream span, in another process's piece of the same
    distributed trace, that this trace's root spans logically hang
    under; it rides {!to_json} / {!to_ship_json} so the collector can
    draw the cross-process edge.  At most [max_spans] (default 4096)
    child spans are retained; further children are counted in
    {!dropped} and discarded, bounding memory per trace.  Spans without
    a parent are never dropped, so a root that closes after a full
    trace of children keeps its duration. *)

val adopt : ?label:string -> ?max_spans:int -> remote -> t
(** A trace continuing a decoded wire context: same trace id, root
    spans parented under the remote span.  What [serve] does when a
    request carries a [traceparent] field. *)

val ctx : t -> ctx
(** Root context for [t]: spans opened through it have no parent. *)

val id : t -> string
val label : t -> string

val remote_parent : t -> int option
(** The adopted upstream parent sid, if this trace continues a wire
    context. *)

val dropped : t -> int
(** Child spans discarded because the trace hit [max_spans]. *)

val span : ?attrs:(string * string) list -> ctx -> string -> (ctx -> 'a) -> 'a
(** [span ctx name f] times [f] as a span called [name].  [f] receives
    a context whose parent is the new span, so nested calls build the
    tree.  On a disabled context this is a single branch calling [f]. *)

val annot : ctx -> (string * string) list -> unit
(** Append attributes to the context's current span (the innermost
    enclosing {!span}).  No-op on a disabled or root context. *)

val spans : t -> span list
(** Closed spans in open order.  Still-open spans are not included. *)

val phase_totals_ms : t -> (string * float) list
(** Total duration per span name, in first-seen order — the payload of
    the serve response's ["timings_ms"] object. *)

val to_json : t -> Util.Json.t
(** Full structural dump: trace id, label and every span with parent
    links — the payload of the serve ["traces"] verb. *)

(** {1 Distributed tracing}

    The wire context is a compact W3C-traceparent-style string,
    [00-<trace id>-<parent sid, 8 hex>-01].  The router (or loadgen)
    encodes its current span with {!to_wire} and injects it as the
    request's ["traceparent"] field; [serve] decodes it with
    {!of_wire}, {!adopt}s the trace id, and ships its completed spans
    back with {!to_ship_json} for {!Collector} assembly. *)

val to_wire : ctx -> string option
(** Encode the context's current span as a traceparent string.  [None]
    for the disabled context and for a root context (no span to parent
    under). *)

val of_wire : string -> (remote, string) result
(** Decode a traceparent string.  Only version ["00"] with hex trace
    id (<= 32 chars) and hex parent sid (<= 16 chars) decodes;
    anything else is [Error] — callers treat that as "no context",
    never a request failure. *)

val to_ship_json : ?pid:int -> ?role:string -> t -> Util.Json.t
(** The cross-process shipping form of a completed trace: sender pid
    (default [Unix.getpid ()]) and role (default ["worker"]), trace
    id, label, adopted [remote_parent] if any, and every span with
    absolute Unix-microsecond start timestamps so the collector can
    align pieces from processes with different {!Clock} epochs. *)

(** {1 Manual spans}

    Two-phase open/close for event-loop callers whose span boundaries
    are separate events (the router's per-request root span opens at
    submit and closes when the worker answers).  Sequence numbers are
    taken at the real open and close, so seq-ordered B/E export stays
    well-nested around anything recorded in between. *)

type open_span
(** An open span on some trace; close it exactly once. *)

val open_span :
  ?attrs:(string * string) list -> ctx -> string -> open_span option
(** Open a span at the context's position.  [None] on the disabled
    context. *)

val open_ctx : open_span -> ctx
(** The context inside the open span — children created through it
    (including {!to_wire} encodings) parent under it. *)

val open_sid : open_span -> int
(** The open span's sid — what downstream pieces reference as their
    [remote_parent]. *)

val open_annot : open_span -> (string * string) list -> unit
(** Append attributes to the open span. *)

val close_span : ?err:bool -> open_span -> unit
(** Stamp duration and close sequence, and record the span on its
    trace.  [err] marks the span failed. *)
