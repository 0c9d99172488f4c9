(* Exact sample statistics and the benchmark's own span recorder.

   Quantiles are computed over every kept sample (linear interpolation
   between closest ranks), never from histogram buckets.  Spans are
   recorded around calls into the system's public functions from the
   benchmark's own code, kept in memory, and written as one Chrome trace
   when the run ends. *)

let now = Unix.gettimeofday

let quantile samples q =
  match samples with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = Int.min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = quantile samples 0.5
let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | samples -> sum samples /. float_of_int (List.length samples)

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

type span = {
  name : string;
  tid : int;
  start : float;
  stop : float;
  args : (string * string) list;
}

type t = {
  mutable spans : span list;
  mutable kept : int;
  mutable dropped : int;
  durations : (string, float list) Hashtbl.t;
      (* per span name, seconds, newest first *)
}

(* Spans kept for the Chrome trace; durations are kept for every span. *)
let max_spans = 200_000

let create () = { spans = []; kept = 0; dropped = 0; durations = Hashtbl.create 32 }

let record t ?(args = []) ~name ~tid start stop =
  let prev = Option.value (Hashtbl.find_opt t.durations name) ~default:[] in
  Hashtbl.replace t.durations name ((stop -. start) :: prev);
  if t.kept < max_spans then begin
    t.spans <- { name; tid; start; stop; args } :: t.spans;
    t.kept <- t.kept + 1
  end
  else t.dropped <- t.dropped + 1

(* Run [f] inside a span named [name]. *)
let time t ?args ~name ~tid f =
  let t0 = now () in
  let r = f () in
  record t ?args ~name ~tid t0 (now ());
  r

let durations t name =
  Option.value (Hashtbl.find_opt t.durations name) ~default:[]

(* Samples of one span name, scaled (1e3 for ms, 1e6 for us). *)
let samples t name ~scale = List.map (fun d -> d *. scale) (durations t name)

let chrome_json ?(meta = []) t =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity t.spans
  in
  let us x = Util.Json.Float ((x -. origin) *. 1e6) in
  let event s =
    Util.Json.Obj
      [
        ("name", Util.Json.String s.name);
        ("ph", Util.Json.String "X");
        ("pid", Util.Json.Int 1);
        ("tid", Util.Json.Int s.tid);
        ("ts", us s.start);
        ("dur", Util.Json.Float ((s.stop -. s.start) *. 1e6));
        ( "args",
          Util.Json.Obj
            (List.map (fun (k, v) -> (k, Util.Json.String v)) s.args) );
      ]
  in
  Util.Json.Obj
    [
      ("traceEvents", Util.Json.List (List.rev_map event t.spans));
      ("displayTimeUnit", Util.Json.String "ms");
      ( "otherData",
        Util.Json.Obj
          (("spans_dropped", Util.Json.Int t.dropped)
          :: List.map (fun (k, v) -> (k, Util.Json.String v)) meta) );
    ]

let write_chrome ?meta t path =
  let oc = open_out path in
  output_string oc (Util.Json.to_string (chrome_json ?meta t));
  output_char oc '\n';
  close_out oc
