(* Spans and trace contexts.

   A trace is a mutex-protected bag of closed spans plus one atomic
   sequence counter.  Opening a span takes a sequence number (which
   doubles as the span id) and a clock reading; closing it takes a
   second sequence number and pushes the span onto the trace.  Because
   every domain runs spans strictly LIFO, sorting a domain's open/close
   events by sequence number reconstructs a well-nested B/E stream —
   this is what the Chrome exporter relies on.

   The disabled path matters more than the enabled one: planner hot
   loops receive a ctx unconditionally, so [span No_trace name f] must
   cost a single branch.  Keep that arm allocation-free. *)

type span = {
  sid : int;  (* unique per trace; the open-event sequence number *)
  parent : int option;
  name : string;
  tid : int;  (* (Domain.self () :> int) at open *)
  start_us : int;
  mutable dur_us : int;
  mutable attrs : (string * string) list;
  mutable err : bool;
  open_seq : int;
  mutable close_seq : int;
}

type t = {
  id : string;
  label : string;
  remote_parent : int option;
      (* sid of the upstream span (in another process's trace with the
         same id) that this trace's root spans hang under. *)
  seq : int Atomic.t;
  mutex : Mutex.t;
  mutable closed : span list;  (* most recently closed first *)
  mutable n_spans : int;
  mutable dropped : int;
  max_spans : int;
}

type ctx = No_trace | In of { trace : t; parent : span option }
type remote = { trace_id : string; parent_sid : int }

let none = No_trace
let enabled = function No_trace -> false | In _ -> true

let id_counter = Atomic.make 0

let gen_id () =
  let n = Atomic.fetch_and_add id_counter 1 in
  let seed =
    Printf.sprintf "%d-%f-%d" (Unix.getpid ()) (Unix.gettimeofday ()) n
  in
  String.sub (Digest.to_hex (Digest.string seed)) 0 16

let make ?id ?(label = "") ?(max_spans = 4096) ?remote_parent () =
  let id = match id with Some i -> i | None -> gen_id () in
  {
    id;
    label;
    remote_parent;
    seq = Atomic.make 0;
    mutex = Mutex.create ();
    closed = [];
    n_spans = 0;
    dropped = 0;
    max_spans;
  }

let adopt ?label ?max_spans remote =
  make ~id:remote.trace_id ?label ?max_spans ~remote_parent:remote.parent_sid
    ()

let ctx t = In { trace = t; parent = None }
let id t = t.id
let label t = t.label
let remote_parent t = t.remote_parent
let dropped t = Mutex.protect t.mutex (fun () -> t.dropped)

(* Trace-context wire form, W3C-traceparent-style:
   [00-<trace id, hex>-<parent sid, 8 hex>-01].  Only the version we
   emit ("00") decodes, and only a context that is inside a span
   encodes — a root context has no span to parent under. *)

let is_hex s =
  s <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let to_wire = function
  | No_trace | In { parent = None; _ } -> None
  | In { trace; parent = Some s } ->
      Some (Printf.sprintf "00-%s-%08x-01" trace.id s.sid)

let of_wire str =
  match String.split_on_char '-' str with
  | [ "00"; tid; psid; flags ]
    when is_hex tid
         && String.length tid <= 32
         && is_hex psid
         && String.length psid <= 16
         && is_hex flags ->
      Ok { trace_id = tid; parent_sid = int_of_string ("0x" ^ psid) }
  | _ -> Error (Printf.sprintf "malformed traceparent %S" str)

(* The cap only drops children: a root span closes last, after its
   children have filled the trace, and losing it would lose the
   request's whole-span total. *)
let finish trace span =
  span.close_seq <- Atomic.fetch_and_add trace.seq 1;
  span.dur_us <- Clock.now_us () - span.start_us;
  Mutex.protect trace.mutex (fun () ->
      if trace.n_spans >= trace.max_spans && span.parent <> None then
        trace.dropped <- trace.dropped + 1
      else begin
        trace.n_spans <- trace.n_spans + 1;
        trace.closed <- span :: trace.closed
      end)

let annot ctx kvs =
  match ctx with
  | No_trace | In { parent = None; _ } -> ()
  | In { parent = Some s; trace } ->
      Mutex.protect trace.mutex (fun () -> s.attrs <- s.attrs @ kvs)

let fresh_span trace parent name attrs =
  let open_seq = Atomic.fetch_and_add trace.seq 1 in
  {
    sid = open_seq;
    parent = (match parent with Some p -> Some p.sid | None -> None);
    name;
    tid = (Domain.self () :> int);
    start_us = Clock.now_us ();
    dur_us = 0;
    attrs;
    err = false;
    open_seq;
    close_seq = 0;
  }

let span ?(attrs = []) ctx name f =
  match ctx with
  | No_trace -> f No_trace
  | In { trace; parent } ->
      let s = fresh_span trace parent name attrs in
      let child = In { trace; parent = Some s } in
      (match f child with
      | v ->
          finish trace s;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          s.err <- true;
          s.attrs <- s.attrs @ [ ("error", Printexc.to_string e) ];
          finish trace s;
          Printexc.raise_with_backtrace e bt)

(* Manual two-phase spans, for callers whose open and close sites are
   different events in an event loop (the router opens a request's
   root span at submit and closes it when the answer arrives).  The
   sequence numbers are taken at the real open and close, so the
   exporter's seq-ordered B/E stream stays well-nested around any
   callback spans recorded in between. *)

type open_span = { os_trace : t; os_span : span }

let open_span ?(attrs = []) ctx name =
  match ctx with
  | No_trace -> None
  | In { trace; parent } ->
      Some { os_trace = trace; os_span = fresh_span trace parent name attrs }

let open_ctx o = In { trace = o.os_trace; parent = Some o.os_span }
let open_sid o = o.os_span.sid

let open_annot o kvs =
  Mutex.protect o.os_trace.mutex (fun () ->
      o.os_span.attrs <- o.os_span.attrs @ kvs)

let close_span ?(err = false) o =
  if err then o.os_span.err <- true;
  finish o.os_trace o.os_span

let spans t =
  let closed = Mutex.protect t.mutex (fun () -> t.closed) in
  List.sort (fun a b -> compare a.open_seq b.open_seq) closed

let phase_totals_ms t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let ms = float_of_int s.dur_us /. 1000.0 in
      match Hashtbl.find_opt tbl s.name with
      | Some acc -> Hashtbl.replace tbl s.name (acc +. ms)
      | None ->
          order := s.name :: !order;
          Hashtbl.add tbl s.name ms)
    (spans t);
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let span_json s =
  Util.Json.Obj
    ([
       ("sid", Util.Json.Int s.sid);
       ("name", Util.Json.String s.name);
       ("tid", Util.Json.Int s.tid);
       ("start_us", Util.Json.Int s.start_us);
       ("dur_us", Util.Json.Int s.dur_us);
     ]
    @ (match s.parent with
      | Some p -> [ ("parent", Util.Json.Int p) ]
      | None -> [])
    @ (if s.err then [ ("error", Util.Json.Bool true) ] else [])
    @
    match s.attrs with
    | [] -> []
    | attrs ->
        [
          ( "attrs",
            Util.Json.Obj
              (List.map (fun (k, v) -> (k, Util.Json.String v)) attrs) );
        ])

let to_json t =
  Util.Json.Obj
    ([
       ("trace_id", Util.Json.String t.id);
       ("label", Util.Json.String t.label);
     ]
    @ (match t.remote_parent with
      | Some p -> [ ("remote_parent", Util.Json.Int p) ]
      | None -> [])
    @ [ ("spans", Util.Json.List (List.map span_json (spans t))) ]
    @
    let d = dropped t in
    if d > 0 then [ ("spans_dropped", Util.Json.Int d) ] else [])

(* Cross-process shipping form: like [to_json] but with the sender's
   pid and role, and absolute Unix-microsecond start timestamps
   ([Clock.epoch_us + start_us]) so the collector can lay spans from
   different processes on one timeline.  Decoded by
   {!Collector.add_shipped}. *)
let to_ship_json ?pid ?(role = "worker") t =
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  let epoch = Clock.epoch_us () in
  let ship_span s =
    Util.Json.Obj
      ([
         ("sid", Util.Json.Int s.sid);
         ("name", Util.Json.String s.name);
         ("tid", Util.Json.Int s.tid);
         ("start_abs_us", Util.Json.Int (epoch + s.start_us));
         ("dur_us", Util.Json.Int s.dur_us);
         ("oseq", Util.Json.Int s.open_seq);
         ("cseq", Util.Json.Int s.close_seq);
       ]
      @ (match s.parent with
        | Some p -> [ ("parent", Util.Json.Int p) ]
        | None -> [])
      @ (if s.err then [ ("error", Util.Json.Bool true) ] else [])
      @
      match s.attrs with
      | [] -> []
      | attrs ->
          [
            ( "attrs",
              Util.Json.Obj
                (List.map (fun (k, v) -> (k, Util.Json.String v)) attrs) );
          ])
  in
  Util.Json.Obj
    ([
       ("pid", Util.Json.Int pid);
       ("role", Util.Json.String role);
       ("trace_id", Util.Json.String t.id);
       ("label", Util.Json.String t.label);
     ]
    @ (match t.remote_parent with
      | Some p -> [ ("remote_parent", Util.Json.Int p) ]
      | None -> [])
    @ [ ("spans", Util.Json.List (List.map ship_span (spans t))) ]
    @
    let d = dropped t in
    if d > 0 then [ ("spans_dropped", Util.Json.Int d) ] else [])
