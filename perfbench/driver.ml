(* Fleet lifecycle and the benchmark's own request drivers.

   The fleet is the documented deployment: [workers] unchanged
   [chimera serve --verify strict] loops sharing one fresh
   [--cache-dir], behind [Fleet.Router] in this process.  The drivers
   call [Router.submit]/[Router.poll] directly and keep one record per
   request with exact timestamps: when it was due, when it was sent,
   when [submit] returned and when its answer arrived. *)

let now = Unix.gettimeofday

type fleet = { router : Fleet.Router.t; dir : string }

(* ------------------------------------------------------------------ *)
(* Scratch directories inside the checkout                             *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let dir_counter = ref 0

let fresh_dir ~work_dir =
  incr dir_counter;
  let d = Filename.concat work_dir (Printf.sprintf "cache-%d" !dir_counter) in
  rm_rf d;
  mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Fleet lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

let spawn ~exe ~workers ~dir =
  let argv = [| exe; "serve"; "--cache-dir"; dir; "--verify"; "strict" |] in
  let router = Fleet.Router.create (Array.init workers (fun _ -> argv)) in
  let health = Fleet.Router.check_health ~timeout_s:30.0 router in
  if
    List.length health <> workers
    || List.exists (function _, `Ok _ -> false | _ -> true) health
  then begin
    Fleet.Router.shutdown router;
    failwith "fleet: a worker did not answer its first health probe"
  end;
  { router; dir }

(* Push [reqs] through the fleet [chunk] at a time, so the worker queues
   never reach the admission bands; [Router.prewarm] stores every
   answer in the router's hot tier.  Fails unless every request was
   answered. *)
let prewarm fleet ~chunk reqs =
  let rec go answered = function
    | [] -> answered
    | l ->
        let now_ = List.filteri (fun i _ -> i < chunk) l in
        let rest = List.filteri (fun i _ -> i >= chunk) l in
        go (answered + Fleet.Router.prewarm fleet.router now_) rest
  in
  let answered = go 0 reqs in
  if answered <> List.length reqs then
    failwith
      (Printf.sprintf "prewarm answered %d of %d requests" answered
         (List.length reqs))

let shutdown fleet = Fleet.Router.shutdown ~timeout_s:10.0 fleet.router

let with_fleet fleet f = Fun.protect ~finally:(fun () -> shutdown fleet) (fun () -> f fleet)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vmhwm_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let peak_worker_rss_mb fleet =
  List.fold_left Float.max 0.0
    (List.init (Fleet.Router.size fleet.router) (fun i ->
         vmhwm_mb (Fleet.Router.worker_pid fleet.router i)))

let cache_file_bytes dir =
  match Unix.stat (Service.Plan_cache.cache_file ~dir) with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

(* ------------------------------------------------------------------ *)
(* Request records                                                     *)
(* ------------------------------------------------------------------ *)

type record = {
  req : Reqpool.req;
  line : Util.Json.t;  (** the request exactly as sent. *)
  due : float;
      (** open loop: the scheduled arrival; closed loop: when the slot
          this request fills became free. *)
  mutable sent : float;
  mutable submitted : float;  (** when [Router.submit] returned. *)
  mutable done_at : float;  (** [nan] while unanswered. *)
  mutable answer : Util.Json.t;
  mutable worker : int;  (** -1: answered by the router itself. *)
  mutable queued : float;
      (** seconds between [submitted] and the arrival of the previous
          answer from the same worker, when that came later: time spent
          queued behind another request. *)
}

let answered r = not (Float.is_nan r.done_at)
let latency r = r.done_at -. r.due

type pass = {
  fleet : fleet;
  timings : bool;  (** ask workers for their own request totals. *)
  spans : Spans.t option;
  pending : (int, record) Hashtbl.t;
  last_done : float array;
  mutable records : record list;  (** newest first. *)
}

let pass ?spans ~timings fleet =
  {
    fleet;
    timings;
    spans;
    pending = Hashtbl.create 256;
    last_done = Array.make (Fleet.Router.size fleet.router) 0.0;
    records = [];
  }

let tid_driver = 1

let submit p (req : Reqpool.req) ~due =
  let request = { req.Reqpool.request with Service.Request.timings = p.timings } in
  let line = Service.Request.to_json request in
  let r =
    {
      req;
      line;
      due;
      sent = now ();
      submitted = nan;
      done_at = nan;
      answer = Util.Json.Null;
      worker = -1;
      queued = 0.0;
    }
  in
  let outcome = Fleet.Router.submit ~raw:line p.fleet.router request in
  r.submitted <- now ();
  Option.iter
    (fun sp -> Spans.record sp ~name:"router.submit" ~tid:tid_driver r.sent r.submitted)
    p.spans;
  (match outcome with
  | Fleet.Router.Answered json ->
      r.done_at <- r.submitted;
      r.answer <- json
  | Fleet.Router.Routed { seq; worker } ->
      r.worker <- worker;
      Hashtbl.replace p.pending seq r);
  p.records <- r :: p.records

let poll p ~timeout =
  let t0 = now () in
  let evs = Fleet.Router.poll ~timeout_s:(Float.max 0.0 timeout) p.fleet.router in
  let t1 = now () in
  if evs <> [] then
    Option.iter
      (fun sp ->
        Spans.record sp ~name:"router.poll" ~tid:tid_driver
          ~args:[ ("events", string_of_int (List.length evs)) ]
          t0 t1)
      p.spans;
  List.iter
    (fun (ev : Fleet.Router.event) ->
      match Hashtbl.find_opt p.pending ev.Fleet.Router.seq with
      | None -> ()
      | Some r ->
          Hashtbl.remove p.pending ev.Fleet.Router.seq;
          r.done_at <- t1;
          r.answer <-
            (match ev.Fleet.Router.outcome with
            | Fleet.Router.Reply { json; _ } -> json
            | Fleet.Router.Dropped e -> Service.Error.to_json e);
          let w = ev.Fleet.Router.worker in
          if w >= 0 && w < Array.length p.last_done then begin
            r.queued <- Float.max 0.0 (p.last_done.(w) -. r.submitted);
            p.last_done.(w) <- t1
          end)
    evs

let drain p ~timeout_s =
  let deadline = now () +. timeout_s in
  while Hashtbl.length p.pending > 0 && now () < deadline do
    poll p ~timeout:0.05
  done

(* The measured window: requests were sent in [t0, t_end). *)
type window = { t0 : float; t_end : float }

(* Closed loop: keep [conc] requests outstanding until every request of
   [reqs] is answered. *)
let closed_loop p ~conc reqs =
  let queue = ref reqs in
  let t0 = now () in
  let free_since = ref t0 in
  let fill () =
    while Hashtbl.length p.pending < conc && !queue <> [] do
      match !queue with
      | r :: rest ->
          queue := rest;
          submit p r ~due:!free_since
      | [] -> ()
    done
  in
  fill ();
  while Hashtbl.length p.pending > 0 do
    let before = Hashtbl.length p.pending in
    poll p ~timeout:0.05;
    if Hashtbl.length p.pending < before then free_since := now ();
    fill ()
  done;
  { t0; t_end = now () }

(* Open loop: arrivals [gap ()] seconds apart, scheduled from the
   schedule (never from "now"), each request timed from its due time,
   until [seconds] pass or [next] returns [None]; then every
   outstanding request is drained. *)
let open_loop p ~gap ~seconds next =
  let t0 = now () in
  let fin = t0 +. seconds in
  let due = ref (t0 +. gap ()) in
  let exhausted = ref false in
  while now () < fin && not !exhausted do
    let nw = now () in
    if nw >= !due then begin
      (match next () with
      | Some r -> submit p r ~due:!due
      | None -> exhausted := true);
      due := !due +. gap ()
    end
    else poll p ~timeout:(Float.min (!due -. nw) (fin -. nw))
  done;
  let t_end = Float.min fin (now ()) in
  drain p ~timeout_s:60.0;
  { t0; t_end }

let records p = List.rev p.records
