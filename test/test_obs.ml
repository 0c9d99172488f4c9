(* The observability subsystem: log-scale latency histograms, span
   traces (single-domain nesting, cross-domain pool fan-out, exception
   aborts), the Chrome trace_event exporter, structured logging and the
   bounded trace ring. *)

open Helpers

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

(* Adjacent bucket bounds are a factor of 10^(1/per_decade) apart, so a
   quantile estimate can be off by at most that ratio. *)
let bucket_ratio per_decade = 10.0 ** (1.0 /. float_of_int per_decade)

let histogram_tests =
  [
    case "exact bounds land in their own bucket" (fun () ->
        (* With per_decade = 1 the bounds are exact powers of ten, so
           boundary semantics are testable without float fuzz. *)
        let h = Obs.Histogram.create ~lo_ms:1.0 ~decades:2 ~per_decade:1 () in
        let bounds = Obs.Histogram.bounds h in
        check_int "two bounds" 2 (Array.length bounds);
        check_float "first bound" 10.0 bounds.(0);
        check_float "second bound" 100.0 bounds.(1);
        Obs.Histogram.observe h 10.0;
        Obs.Histogram.observe h 10.0000001;
        Obs.Histogram.observe h 100.0;
        Obs.Histogram.observe h 101.0;
        Obs.Histogram.observe h 0.2;
        let counts = Obs.Histogram.counts h in
        check_int "boundary value in its bucket" 2 counts.(0);
        check_int "just past the boundary in the next" 2 counts.(1);
        check_int "past the last bound overflows" 1 counts.(2);
        check_int "count" 5 (Obs.Histogram.count h);
        check_float "max" 101.0 (Obs.Histogram.max_ms h));
    case "every default bound is exact too" (fun () ->
        let h = Obs.Histogram.create () in
        let bounds = Obs.Histogram.bounds h in
        Array.iter (fun b -> Obs.Histogram.observe h b) bounds;
        let counts = Obs.Histogram.counts h in
        Array.iteri
          (fun i _ ->
            Alcotest.(check int)
              (Printf.sprintf "bucket %d holds its own bound" i)
              1 counts.(i))
          bounds;
        check_int "no overflow" 0 counts.(Array.length counts - 1));
    case "negative and NaN clamp to the lowest bucket" (fun () ->
        let h = Obs.Histogram.create () in
        Obs.Histogram.observe h (-3.0);
        Obs.Histogram.observe h Float.nan;
        check_int "both counted" 2 (Obs.Histogram.count h);
        check_int "lowest bucket" 2 (Obs.Histogram.counts h).(0);
        check_float "clamped sum" 0.0 (Obs.Histogram.sum_ms h));
    case "empty histogram answers zeros" (fun () ->
        let h = Obs.Histogram.create () in
        check_int "count" 0 (Obs.Histogram.count h);
        check_float "quantile" 0.0 (Obs.Histogram.quantile h 0.5);
        check_float "max" 0.0 (Obs.Histogram.max_ms h));
    case "merge rejects mismatched layouts" (fun () ->
        let a = Obs.Histogram.create () in
        let b = Obs.Histogram.create ~per_decade:3 () in
        check_raises_invalid "layout mismatch" (fun () ->
            Obs.Histogram.merge ~into:a b));
    case "summary json carries the quantile keys" (fun () ->
        let h = Obs.Histogram.create () in
        Obs.Histogram.observe h 2.5;
        match Obs.Histogram.summary_json h with
        | Util.Json.Obj fields ->
            List.iter
              (fun k ->
                check_true (k ^ " present") (List.mem_assoc k fields))
              [ "count"; "sum_ms"; "p50_ms"; "p90_ms"; "p99_ms"; "max_ms" ];
            check_true "count is 1"
              (List.assoc "count" fields = Util.Json.Int 1)
        | _ -> Alcotest.fail "summary is not an object");
    (let gen =
       QCheck.make
         ~print:QCheck.Print.(pair (list float) float)
         QCheck.Gen.(
           pair
             (list_size (int_range 1 200) (float_range 0.01 5000.0))
             (float_range 0.0 1.0))
     in
     qcheck
       (QCheck.Test.make ~count:200
          ~name:"quantile is within one bucket ratio of exact" gen
          (fun (values, q) ->
            let h = Obs.Histogram.create () in
            List.iter (Obs.Histogram.observe h) values;
            let sorted = List.sort compare values in
            let n = List.length sorted in
            let rank =
              max 1 (int_of_float (Float.ceil (q *. float_of_int n)))
            in
            let exact = List.nth sorted (rank - 1) in
            let approx = Obs.Histogram.quantile h q in
            let ratio = bucket_ratio 6 *. 1.0001 in
            approx > 0.0
            && approx /. exact <= ratio
            && exact /. approx <= ratio)));
    case "quantile interpolates log-linearly inside the bucket" (fun () ->
        (* per_decade = 1: one bucket spans (10, 100], so the rank
           fraction maps to 10^(1 + f) exactly. *)
        let h = Obs.Histogram.create ~lo_ms:1.0 ~decades:2 ~per_decade:1 () in
        Obs.Histogram.observe h 15.0;
        Obs.Histogram.observe h 95.0;
        (* rank 1 of 2: f = 0.25 -> 10^1.25; rank 2: f = 0.75 -> 10^1.75 *)
        check_float ~eps:1e-9 "p50" (10.0 ** 1.25)
          (Obs.Histogram.quantile h 0.5);
        check_float ~eps:1e-9 "p100" (10.0 ** 1.75)
          (Obs.Histogram.quantile h 1.0);
        check_true "interpolation is strictly increasing"
          (Obs.Histogram.quantile h 0.5 < Obs.Histogram.quantile h 1.0));
    case "quantile clamps to the observed min and max" (fun () ->
        let h = Obs.Histogram.create ~lo_ms:1.0 ~decades:2 ~per_decade:1 () in
        Obs.Histogram.observe h 50.0;
        (* One observation: every quantile is that observation. *)
        List.iter
          (fun q ->
            check_float "clamped" 50.0 (Obs.Histogram.quantile h q))
          [ 0.0; 0.5; 0.99; 1.0 ]);
    case "count_le interpolates the straddling bucket" (fun () ->
        let h = Obs.Histogram.create ~lo_ms:1.0 ~decades:2 ~per_decade:1 () in
        List.iter (Obs.Histogram.observe h) [ 20.0; 30.0; 40.0 ];
        (* All three sit in (10, 100]; the geometric midpoint is half
           way through the bucket log-linearly. *)
        check_float ~eps:1e-9 "midpoint counts half" 1.5
          (Obs.Histogram.count_le h (sqrt (10.0 *. 100.0)));
        check_float "below the bucket counts none" 0.0
          (Obs.Histogram.count_le h 5.0);
        check_float "at max counts all" 3.0 (Obs.Histogram.count_le h 40.0);
        check_float "beyond max counts all" 3.0
          (Obs.Histogram.count_le h 1e6);
        check_float "empty histogram counts none" 0.0
          (Obs.Histogram.count_le (Obs.Histogram.create ()) 10.0));
    (let gen =
       QCheck.make
         ~print:QCheck.Print.(pair (list float) float)
         QCheck.Gen.(
           pair
             (list_size (int_range 1 100) (float_range 0.01 5000.0))
             (float_range 0.001 6000.0))
     in
     qcheck
       (QCheck.Test.make ~count:300
          ~name:"count_le is monotone and within the straddling bucket" gen
          (fun (values, v) ->
            let h = Obs.Histogram.create () in
            List.iter (Obs.Histogram.observe h) values;
            let est = Obs.Histogram.count_le h v in
            let ratio = bucket_ratio 6 *. 1.0001 in
            (* The estimate may misplace only observations inside the
               bucket straddling v — everything farther than one bucket
               ratio from v is counted exactly. *)
            let lo =
              float_of_int
                (List.length
                   (List.filter (fun x -> x *. ratio < v) values))
            in
            let hi =
              float_of_int
                (List.length (List.filter (fun x -> x <= v *. ratio) values))
            in
            est >= 0.0
            && est <= float_of_int (List.length values)
            && est >= lo && est <= hi
            && est <= Obs.Histogram.count_le h (v *. 1.5))));
    (let gen =
       QCheck.make
         ~print:QCheck.Print.(pair (list float) (list float))
         QCheck.Gen.(
           let vals = list_size (int_range 0 100) (float_range 0.0 1e4) in
           pair vals vals)
     in
     qcheck
       (QCheck.Test.make ~count:200
          ~name:"merge equals observing the pooled stream" gen
          (fun (xs, ys) ->
            let a = Obs.Histogram.create () in
            let b = Obs.Histogram.create () in
            let pooled = Obs.Histogram.create () in
            List.iter (Obs.Histogram.observe a) xs;
            List.iter (Obs.Histogram.observe b) ys;
            List.iter (Obs.Histogram.observe pooled) (xs @ ys);
            Obs.Histogram.merge ~into:a b;
            Obs.Histogram.counts a = Obs.Histogram.counts pooled
            && Obs.Histogram.count a = Obs.Histogram.count pooled
            && Obs.Histogram.max_ms a = Obs.Histogram.max_ms pooled
            && Float.abs
                 (Obs.Histogram.sum_ms a -. Obs.Histogram.sum_ms pooled)
               <= 1e-6 *. Float.max 1.0 (Obs.Histogram.sum_ms pooled))));
  ]

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)
(* ------------------------------------------------------------------ *)

let find_spans t name =
  List.filter
    (fun (s : Obs.Trace.span) -> s.Obs.Trace.name = name)
    (Obs.Trace.spans t)

(* Per-tid stack discipline over the exported event array — the same
   property scripts/validate_trace.py asserts in CI. *)
let check_chrome_nesting json =
  let events =
    match json with
    | Util.Json.Obj fields -> (
        match List.assoc "traceEvents" fields with
        | Util.Json.List evs -> evs
        | _ -> Alcotest.fail "traceEvents is not a list")
    | _ -> Alcotest.fail "chrome trace is not an object"
  in
  let stacks : (int * int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let str j = match j with Util.Json.String s -> s | _ -> "" in
  let int_of j =
    match j with Util.Json.Int i -> i | _ -> Alcotest.fail "not an int"
  in
  List.iter
    (fun ev ->
      match ev with
      | Util.Json.Obj fields -> (
          let ph = str (List.assoc "ph" fields) in
          if ph = "B" || ph = "E" then begin
            let key =
              ( int_of (List.assoc "pid" fields),
                int_of (List.assoc "tid" fields) )
            in
            let name = str (List.assoc "name" fields) in
            let stack =
              match Hashtbl.find_opt stacks key with
              | Some s -> s
              | None ->
                  let s = ref [] in
                  Hashtbl.add stacks key s;
                  s
            in
            if ph = "B" then stack := name :: !stack
            else
              match !stack with
              | top :: rest ->
                  check_string "E closes the innermost B" top name;
                  stack := rest
              | [] -> Alcotest.failf "E %S with no open B" name
          end)
      | _ -> Alcotest.fail "event is not an object")
    events;
  Hashtbl.iter
    (fun (pid, tid) stack ->
      if !stack <> [] then
        Alcotest.failf "pid=%d tid=%d left spans open" pid tid)
    stacks

let trace_tests =
  [
    case "nested spans build a well-formed tree" (fun () ->
        let t = Obs.Trace.make ~label:"unit" () in
        let result =
          Obs.Trace.span (Obs.Trace.ctx t) "outer" (fun ctx ->
              Obs.Trace.annot ctx [ ("k", "v") ];
              Obs.Trace.span ctx "inner" (fun _ -> 41) + 1)
        in
        check_int "span returns the callback's value" 42 result;
        let outer = List.hd (find_spans t "outer") in
        let inner = List.hd (find_spans t "inner") in
        check_true "outer is a root" (outer.Obs.Trace.parent = None);
        check_true "inner nests under outer"
          (inner.Obs.Trace.parent = Some outer.Obs.Trace.sid);
        check_true "annot reached the open span"
          (List.mem_assoc "k" outer.Obs.Trace.attrs);
        check_true "inner closed before outer"
          (inner.Obs.Trace.close_seq < outer.Obs.Trace.close_seq);
        check_true "durations are sane"
          (inner.Obs.Trace.dur_us <= outer.Obs.Trace.dur_us);
        check_chrome_nesting (Obs.Export.chrome_json [ t ]));
    case "disabled context records nothing" (fun () ->
        let r =
          Obs.Trace.span Obs.Trace.none "ghost" (fun ctx ->
              check_false "ctx stays disabled" (Obs.Trace.enabled ctx);
              Obs.Trace.annot ctx [ ("k", "v") ];
              7)
        in
        check_int "value still flows" 7 r);
    case "an exception closes the span and re-raises" (fun () ->
        let t = Obs.Trace.make ~label:"boom" () in
        (match
           Obs.Trace.span (Obs.Trace.ctx t) "outer" (fun ctx ->
               Obs.Trace.span ctx "failing" (fun _ -> failwith "abort"))
         with
        | exception Failure m -> check_string "re-raised" "abort" m
        | _ -> Alcotest.fail "exception swallowed");
        let failing = List.hd (find_spans t "failing") in
        let outer = List.hd (find_spans t "outer") in
        check_true "failing span flagged" failing.Obs.Trace.err;
        check_true "outer flagged too (it also aborted)"
          outer.Obs.Trace.err;
        check_true "error attribute recorded"
          (List.mem_assoc "error" failing.Obs.Trace.attrs);
        check_chrome_nesting (Obs.Export.chrome_json [ t ]));
    case "failpoint aborts stay well-nested" (fun () ->
        (match Service.Failpoint.configure "obs.test=raise" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Service.Failpoint.clear (fun () ->
            let t = Obs.Trace.make ~label:"fp" () in
            (match
               Obs.Trace.span (Obs.Trace.ctx t) "guarded" (fun _ ->
                   Service.Failpoint.hit "obs.test")
             with
            | exception _ -> ()
            | () -> Alcotest.fail "failpoint did not fire");
            let guarded = List.hd (find_spans t "guarded") in
            check_true "span closed with err" guarded.Obs.Trace.err;
            check_chrome_nesting (Obs.Export.chrome_json [ t ])));
    case "pool fan-out keeps the caller's span as parent" (fun () ->
        let pool = Util.Pool.create ~domains:4 () in
        Fun.protect
          ~finally:(fun () -> Util.Pool.shutdown pool)
          (fun () ->
            let t = Obs.Trace.make ~label:"pool" () in
            Obs.Trace.span (Obs.Trace.ctx t) "root" (fun ctx ->
                ignore
                  (Util.Pool.run pool
                     (fun i -> Obs.Trace.span ctx "work" (fun _ -> i))
                     8));
            let root = List.hd (find_spans t "root") in
            let work = find_spans t "work" in
            check_int "all eight children recorded" 8 (List.length work);
            List.iter
              (fun (s : Obs.Trace.span) ->
                check_true "parented across domains"
                  (s.Obs.Trace.parent = Some root.Obs.Trace.sid))
              work;
            (* The exported stream stays well-nested even when workers
               interleave across domains. *)
            check_chrome_nesting (Obs.Export.chrome_json [ t ])));
    case "max_spans bounds memory and counts drops" (fun () ->
        let t = Obs.Trace.make ~max_spans:2 () in
        Obs.Trace.span (Obs.Trace.ctx t) "root" (fun ctx ->
            for i = 1 to 5 do
              Obs.Trace.span ctx (Printf.sprintf "s%d" i) (fun _ -> ())
            done);
        check_int "two children and the root retained" 3
          (List.length (Obs.Trace.spans t));
        check_int "three dropped" 3 (Obs.Trace.dropped t));
    case "the root span survives the span cap" (fun () ->
        (* The shape of a heavy solve: the root closes last, after its
           descendants have filled the trace. *)
        let t = Obs.Trace.make ~max_spans:4 () in
        Obs.Trace.span (Obs.Trace.ctx t) "request" (fun ctx ->
            for _ = 1 to 3 do
              Obs.Trace.span ctx "solve" (fun ctx ->
                  Obs.Trace.span ctx "level" (fun _ -> ()))
            done);
        let names = List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans t) in
        check_true "root retained" (List.mem "request" names);
        check_int "four children and the root" 5 (List.length names);
        check_int "exactly two children dropped" 2 (Obs.Trace.dropped t);
        check_true "phase totals include the root"
          (List.mem_assoc "request" (Obs.Trace.phase_totals_ms t));
        (* A two-phase root (the router's fleet.request) survives too. *)
        let t = Obs.Trace.make ~max_spans:1 () in
        match Obs.Trace.open_span (Obs.Trace.ctx t) "fleet.request" with
        | None -> Alcotest.fail "enabled trace opened no span"
        | Some os ->
            for _ = 1 to 2 do
              Obs.Trace.span (Obs.Trace.open_ctx os) "child" (fun _ -> ())
            done;
            Obs.Trace.close_span os;
            check_true "two-phase root retained"
              (List.mem_assoc "fleet.request" (Obs.Trace.phase_totals_ms t));
            check_int "one child dropped" 1 (Obs.Trace.dropped t));
    case "phase totals sum by span name" (fun () ->
        let t = Obs.Trace.make () in
        Obs.Trace.span (Obs.Trace.ctx t) "a" (fun _ -> ());
        Obs.Trace.span (Obs.Trace.ctx t) "b" (fun _ -> ());
        Obs.Trace.span (Obs.Trace.ctx t) "a" (fun _ -> ());
        let totals = Obs.Trace.phase_totals_ms t in
        check_int "two names" 2 (List.length totals);
        check_string "first-seen order" "a" (fst (List.hd totals));
        check_true "totals are non-negative"
          (List.for_all (fun (_, ms) -> ms >= 0.0) totals));
    case "trace ids are unique and 16 hex digits" (fun () ->
        let a = Obs.Trace.make () and b = Obs.Trace.make () in
        check_true "distinct" (Obs.Trace.id a <> Obs.Trace.id b);
        check_int "16 digits" 16 (String.length (Obs.Trace.id a));
        String.iter
          (fun c ->
            check_true "hex digit"
              ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
          (Obs.Trace.id a));
    case "clock is monotone" (fun () ->
        let prev = ref (Obs.Clock.now_us ()) in
        for _ = 1 to 1000 do
          let t = Obs.Clock.now_us () in
          check_true "non-decreasing" (t >= !prev);
          prev := t
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Distributed tracing: the traceparent wire form and manual spans      *)
(* ------------------------------------------------------------------ *)

let wire_tests =
  [
    case "an open span's context encodes and decodes losslessly" (fun () ->
        let t = Obs.Trace.make ~label:"wire" () in
        let os =
          Option.get (Obs.Trace.open_span (Obs.Trace.ctx t) "fleet.request")
        in
        let tp = Option.get (Obs.Trace.to_wire (Obs.Trace.open_ctx os)) in
        check_true "versioned" (String.length tp > 3 && String.sub tp 0 3 = "00-");
        (match Obs.Trace.of_wire tp with
        | Error e -> Alcotest.fail e
        | Ok r ->
            check_string "trace id survives" (Obs.Trace.id t)
              r.Obs.Trace.trace_id;
            check_int "parent sid survives" (Obs.Trace.open_sid os)
              r.Obs.Trace.parent_sid);
        Obs.Trace.close_span os);
    case "root and disabled contexts have no wire form" (fun () ->
        let t = Obs.Trace.make () in
        check_true "root" (Obs.Trace.to_wire (Obs.Trace.ctx t) = None);
        check_true "disabled" (Obs.Trace.to_wire Obs.Trace.none = None));
    case "malformed traceparents decode to Error, never raise" (fun () ->
        List.iter
          (fun s ->
            match Obs.Trace.of_wire s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S should not decode" s)
          [
            "";
            "00";
            "00-deadbeef";
            "01-deadbeefdeadbeef-00000000-01" (* wrong version *);
            "00-nothexnothexnotx!-00000000-01" (* non-hex id *);
            "00-deadbeefdeadbeef-nothex00-01" (* non-hex sid *);
            "00-" ^ String.make 40 'a' ^ "-00000000-01" (* id too long *);
            "00-deadbeefdeadbeef-" ^ String.make 20 '0' ^ "-01";
            "garbage with spaces";
          ]);
    case "adopt continues the distributed trace" (fun () ->
        let t = Obs.Trace.make ~label:"origin" () in
        let os =
          Option.get (Obs.Trace.open_span (Obs.Trace.ctx t) "fleet.request")
        in
        let tp = Option.get (Obs.Trace.to_wire (Obs.Trace.open_ctx os)) in
        let remote = Result.get_ok (Obs.Trace.of_wire tp) in
        let w = Obs.Trace.adopt ~label:"worker" remote in
        check_string "same distributed trace" (Obs.Trace.id t)
          (Obs.Trace.id w);
        check_true "remote parent recorded"
          (Obs.Trace.remote_parent w = Some (Obs.Trace.open_sid os));
        check_true "a fresh trace has none"
          (Obs.Trace.remote_parent t = None);
        Obs.Trace.span (Obs.Trace.ctx w) "request" (fun _ -> ());
        (* The ship form carries the adopted parent for the collector. *)
        (match Obs.Trace.to_ship_json ~pid:7 ~role:"worker" w with
        | Util.Json.Obj fields ->
            check_true "remote_parent shipped"
              (List.assoc_opt "remote_parent" fields
              = Some (Util.Json.Int (Obs.Trace.open_sid os)));
            check_true "role shipped"
              (List.assoc_opt "role" fields
              = Some (Util.Json.String "worker"));
            check_true "pid shipped"
              (List.assoc_opt "pid" fields = Some (Util.Json.Int 7))
        | _ -> Alcotest.fail "ship form is not an object");
        Obs.Trace.close_span os);
    case "manual open/close spans nest around recorded children" (fun () ->
        let t = Obs.Trace.make () in
        let os =
          Option.get
            (Obs.Trace.open_span ~attrs:[ ("phase", "request") ]
               (Obs.Trace.ctx t) "outer")
        in
        Obs.Trace.span (Obs.Trace.open_ctx os) "child" (fun _ -> ());
        Obs.Trace.open_annot os [ ("outcome", "ok") ];
        Obs.Trace.close_span os;
        let outer = List.hd (find_spans t "outer") in
        let child = List.hd (find_spans t "child") in
        check_true "child parents under the open span"
          (child.Obs.Trace.parent = Some outer.Obs.Trace.sid);
        check_true "open attrs kept"
          (List.mem_assoc "phase" outer.Obs.Trace.attrs);
        check_true "late annot reached the span"
          (List.mem_assoc "outcome" outer.Obs.Trace.attrs);
        check_false "clean close" outer.Obs.Trace.err;
        check_true "child closed first"
          (child.Obs.Trace.close_seq < outer.Obs.Trace.close_seq);
        check_chrome_nesting (Obs.Export.chrome_json [ t ]));
    case "close_span ~err marks the span failed" (fun () ->
        let t = Obs.Trace.make () in
        let os =
          Option.get (Obs.Trace.open_span (Obs.Trace.ctx t) "doomed")
        in
        Obs.Trace.close_span ~err:true os;
        check_true "flagged" (List.hd (find_spans t "doomed")).Obs.Trace.err;
        check_true "disabled context opens nothing"
          (Obs.Trace.open_span Obs.Trace.none "ghost" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Collector: cross-process trace assembly                             *)
(* ------------------------------------------------------------------ *)

(* One distributed trace: a router-side open span whose wire context a
   worker-side trace adopts — the exact shape the fleet produces. *)
let make_distributed ?(label = "G2@cpu") () =
  let rt = Obs.Trace.make ~label () in
  let os =
    Option.get (Obs.Trace.open_span (Obs.Trace.ctx rt) "fleet.request")
  in
  let tp = Option.get (Obs.Trace.to_wire (Obs.Trace.open_ctx os)) in
  let wt =
    Obs.Trace.adopt ~label (Result.get_ok (Obs.Trace.of_wire tp))
  in
  Obs.Trace.span (Obs.Trace.ctx wt) "request" (fun c ->
      Obs.Trace.span c "solve" (fun _ -> ()));
  Obs.Trace.close_span os;
  (rt, os, wt)

let chrome_b_events json =
  match json with
  | Util.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Util.Json.List evs ->
          List.filter
            (fun ev ->
              match Util.Json.member "ph" ev with
              | Some (Util.Json.String "B") -> true
              | _ -> false)
            evs
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "chrome trace is not an object"

let collector_tests =
  [
    case "shipped and local pieces assemble under one trace id" (fun () ->
        let rt, os, wt = make_distributed () in
        let c = Obs.Collector.create () in
        (match
           Obs.Collector.add_shipped c
             (Obs.Trace.to_ship_json ~pid:4242 ~role:"worker" wt)
         with
        | Ok id -> check_string "bucketed by trace id" (Obs.Trace.id rt) id
        | Error e -> Alcotest.fail e);
        Obs.Collector.add_trace c ~role:"router" ~pid:1111 rt;
        check_int "one pending trace" 1 (Obs.Collector.pending c);
        let a = Option.get (Obs.Collector.take c (Obs.Trace.id rt)) in
        check_int "taken" 0 (Obs.Collector.pending c);
        check_true "take removes" (Obs.Collector.take c (Obs.Trace.id rt) = None);
        check_string "trace id" (Obs.Trace.id rt) a.Obs.Collector.a_trace_id;
        check_int "two pieces" 2 (List.length a.Obs.Collector.a_pieces);
        let worker =
          List.find
            (fun (p : Obs.Collector.piece) -> p.Obs.Collector.p_role = "worker")
            a.Obs.Collector.a_pieces
        in
        let router =
          List.find
            (fun (p : Obs.Collector.piece) -> p.Obs.Collector.p_role = "router")
            a.Obs.Collector.a_pieces
        in
        check_int "worker pid" 4242 worker.Obs.Collector.p_pid;
        check_int "router pid" 1111 router.Obs.Collector.p_pid;
        check_true "worker piece carries the cross-process parent"
          (worker.Obs.Collector.p_remote_parent
          = Some (Obs.Trace.open_sid os));
        check_true "router piece has none"
          (router.Obs.Collector.p_remote_parent = None));
    case "the chrome render carries correlation args and real pids"
      (fun () ->
        let rt, os, wt = make_distributed () in
        let c = Obs.Collector.create () in
        (match
           Obs.Collector.add_shipped c
             (Obs.Trace.to_ship_json ~pid:4242 ~role:"worker" wt)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        Obs.Collector.add_trace c ~role:"router" ~pid:1111 rt;
        let a = Option.get (Obs.Collector.take c (Obs.Trace.id rt)) in
        let json = Obs.Collector.chrome_json [ a ] in
        check_chrome_nesting json;
        let bs = chrome_b_events json in
        check_int "three spans" 3 (List.length bs);
        List.iter
          (fun ev ->
            let args = Option.get (Util.Json.member "args" ev) in
            check_true "args.trace"
              (Util.Json.member "trace" args
              = Some (Util.Json.String (Obs.Trace.id rt)));
            check_true "args.sid"
              (match Util.Json.member "sid" args with
              | Some (Util.Json.Int _) -> true
              | _ -> false))
          bs;
        let pids =
          List.sort_uniq compare
            (List.map (fun ev -> Util.Json.member "pid" ev) bs)
        in
        check_int "both real pids appear" 2 (List.length pids);
        (* The worker's root span carries the cross-process edge. *)
        let request =
          List.find
            (fun ev ->
              Util.Json.member "name" ev
              = Some (Util.Json.String "request"))
            bs
        in
        check_true "parent_sid on the worker root"
          (Util.Json.member "parent_sid"
             (Option.get (Util.Json.member "args" request))
          = Some (Util.Json.Int (Obs.Trace.open_sid os)));
        (* The nested solve span has a local parent, not a remote one. *)
        let solve =
          List.find
            (fun ev ->
              Util.Json.member "name" ev = Some (Util.Json.String "solve"))
            bs
        in
        check_true "no parent_sid on nested spans"
          (Util.Json.member "parent_sid"
             (Option.get (Util.Json.member "args" solve))
          = None));
    case "malformed shipped payloads are counted, not raised" (fun () ->
        let c = Obs.Collector.create () in
        check_true "not an object"
          (Result.is_error (Obs.Collector.add_shipped c (Util.Json.Int 3)));
        check_true "missing fields"
          (Result.is_error
             (Obs.Collector.add_shipped c
                (Util.Json.Obj [ ("pid", Util.Json.Int 1) ])));
        check_int "both counted" 2 (Obs.Collector.shipped_rejected c);
        check_int "nothing buffered" 0 (Obs.Collector.pending c));
    case "merge_assembled concatenates late pieces" (fun () ->
        let rt, _, wt = make_distributed () in
        let c = Obs.Collector.create () in
        Obs.Collector.add_trace c ~role:"router" ~pid:1 rt;
        let a = Option.get (Obs.Collector.take c (Obs.Trace.id rt)) in
        (match
           Obs.Collector.add_shipped c
             (Obs.Trace.to_ship_json ~pid:2 ~role:"worker" wt)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        let late = Option.get (Obs.Collector.take c (Obs.Trace.id rt)) in
        let merged = Obs.Collector.merge_assembled a late in
        check_int "pieces concatenated" 2
          (List.length merged.Obs.Collector.a_pieces);
        check_string "id kept" (Obs.Trace.id rt)
          merged.Obs.Collector.a_trace_id);
    case "take_all drains everything" (fun () ->
        let c = Obs.Collector.create () in
        let rt1, _, _ = make_distributed () in
        let rt2, _, _ = make_distributed () in
        Obs.Collector.add_trace c rt1;
        Obs.Collector.add_trace c rt2;
        check_int "drained" 2 (List.length (Obs.Collector.take_all c));
        check_int "empty" 0 (Obs.Collector.pending c));
  ]

(* ------------------------------------------------------------------ *)
(* Sampler: the tail-based flight recorder                             *)
(* ------------------------------------------------------------------ *)

(* A minimal assembled trace under a chosen id, for driving retention. *)
let assembled ~id () =
  let t = Obs.Trace.make ~id () in
  Obs.Trace.span (Obs.Trace.ctx t) "request" (fun _ -> ());
  let c = Obs.Collector.create () in
  Obs.Collector.add_trace c t;
  Option.get (Obs.Collector.take c id)

let scount s name =
  match List.assoc_opt name (Obs.Sampler.counters s) with
  | Some v -> v
  | None -> Alcotest.failf "no sampler counter %S" name

let sampler_tests =
  [
    case "flagged traces always retain; the invariant holds" (fun () ->
        let s = Obs.Sampler.create ~seed:1 () in
        Obs.Sampler.offer s ~flags:[ "shed" ] ~latency_ms:1.0 ~ok:false
          (assembled ~id:"f1" ());
        Obs.Sampler.offer s ~flags:[ "degraded" ] ~latency_ms:1.0 ~ok:true
          (assembled ~id:"f2" ());
        check_int "seen" 2 (scount s "traces_seen");
        check_int "flagged" 2 (scount s "flagged");
        check_int "all retained" 2 (scount s "flagged_retained");
        check_int "none evicted" 0 (scount s "flagged_evicted");
        let retained = Obs.Sampler.retained s in
        check_int "both dumped" 2 (List.length retained);
        check_true "flags kept"
          (List.exists (fun (fl, _) -> List.mem "shed" fl) retained));
    case "slow and errored flags derive from outcome" (fun () ->
        let s = Obs.Sampler.create ~slow_ms:100.0 ~seed:1 () in
        Obs.Sampler.offer s ~latency_ms:500.0 ~ok:true
          (assembled ~id:"slow1" ());
        Obs.Sampler.offer s ~latency_ms:1.0 ~ok:false
          (assembled ~id:"err1" ());
        check_int "both flagged" 2 (scount s "flagged");
        List.iter
          (fun (flags, (a : Obs.Collector.assembled)) ->
            match a.Obs.Collector.a_trace_id with
            | "slow1" -> check_true "slow" (List.mem "slow" flags)
            | "err1" -> check_true "errored" (List.mem "errored" flags)
            | id -> Alcotest.failf "unexpected trace %s" id)
          (Obs.Sampler.retained s));
    case "healthy traces sample 1-in-N, deterministically" (fun () ->
        let run seed =
          let s = Obs.Sampler.create ~sample_one_in:4 ~seed () in
          for i = 1 to 64 do
            Obs.Sampler.offer s ~latency_ms:1.0 ~ok:true
              (assembled ~id:(Printf.sprintf "h%d" i) ())
          done;
          ( scount s "sampled_retained",
            scount s "passed",
            scount s "flagged" )
        in
        let kept, passed, flagged = run 42 in
        check_int "nothing flagged" 0 flagged;
        check_int "every healthy trace judged" 64 (kept + passed);
        check_true "some sampled" (kept > 0);
        check_true "most passed" (passed > kept);
        check_true "same seed, same decisions" (run 42 = (kept, passed, 0));
        check_true "sampling actually varies by seed"
          (List.exists (fun seed -> run seed <> (kept, passed, 0))
             [ 1; 2; 3; 4; 5 ]));
    case "a re-offer merges pieces and flags the retry" (fun () ->
        let s = Obs.Sampler.create ~seed:1 () in
        Obs.Sampler.offer s ~flags:[ "failed" ] ~latency_ms:1.0 ~ok:false
          (assembled ~id:"r1" ());
        Obs.Sampler.offer s ~latency_ms:1.0 ~ok:true (assembled ~id:"r1" ());
        check_int "one distinct flagged trace" 1 (scount s "flagged");
        check_int "one retained" 1 (scount s "flagged_retained");
        (match Obs.Sampler.retained s with
        | [ (flags, a) ] ->
            check_true "first verdict kept" (List.mem "failed" flags);
            check_true "retry flagged" (List.mem "retried" flags);
            check_int "attempts merged" 2
              (List.length a.Obs.Collector.a_pieces)
        | l -> Alcotest.failf "expected one entry, got %d" (List.length l)));
    case "a re-offered healthy sample upgrades to flagged" (fun () ->
        (* sample_one_in = 1 retains every healthy trace, so the first
           offer lands in the sample class deterministically. *)
        let s = Obs.Sampler.create ~sample_one_in:1 ~seed:1 () in
        Obs.Sampler.offer s ~latency_ms:1.0 ~ok:true (assembled ~id:"u1" ());
        check_int "sampled first" 1 (scount s "sampled_retained");
        check_int "not yet flagged" 0 (scount s "flagged");
        Obs.Sampler.offer s ~flags:[ "chaos" ] ~latency_ms:1.0 ~ok:false
          (assembled ~id:"u1" ());
        check_int "upgraded" 1 (scount s "flagged");
        check_int "flagged retained" 1 (scount s "flagged_retained");
        check_int "left the sample class" 0 (scount s "sampled_retained"));
    case "overflow evicts FIFO and is visible in the counters" (fun () ->
        let s = Obs.Sampler.create ~capacity:2 ~seed:1 () in
        List.iter
          (fun id ->
            Obs.Sampler.offer s ~flags:[ "shed" ] ~latency_ms:1.0 ~ok:false
              (assembled ~id ()))
          [ "e1"; "e2"; "e3" ];
        check_int "all flagged" 3 (scount s "flagged");
        check_int "capacity bound" 2 (scount s "flagged_retained");
        check_int "eviction counted" 1 (scount s "flagged_evicted");
        let ids =
          List.map
            (fun (_, (a : Obs.Collector.assembled)) ->
              a.Obs.Collector.a_trace_id)
            (Obs.Sampler.retained s)
        in
        check_true "oldest evicted first" (ids = [ "e2"; "e3" ]));
    case "merge_late attaches only to retained traces" (fun () ->
        let s = Obs.Sampler.create ~seed:1 () in
        Obs.Sampler.offer s ~flags:[ "failed" ] ~latency_ms:1.0 ~ok:false
          (assembled ~id:"m1" ());
        check_true "late pieces join" (Obs.Sampler.merge_late s (assembled ~id:"m1" ()));
        check_false "unretained traces drop their pieces"
          (Obs.Sampler.merge_late s (assembled ~id:"nope" ()));
        match Obs.Sampler.retained s with
        | [ (_, a) ] ->
            check_int "merged" 2 (List.length a.Obs.Collector.a_pieces)
        | l -> Alcotest.failf "expected one entry, got %d" (List.length l));
    case "the flight dump is a chrome trace plus sampler metadata"
      (fun () ->
        let s = Obs.Sampler.create ~seed:1 () in
        Obs.Sampler.offer s ~flags:[ "shed" ] ~latency_ms:1.0 ~ok:false
          (assembled ~id:"d1" ());
        match Obs.Sampler.flight_json s with
        | Util.Json.Obj fields ->
            check_true "traceEvents" (List.mem_assoc "traceEvents" fields);
            (match List.assoc_opt "sampler" fields with
            | Some (Util.Json.Obj counters) ->
                check_true "counters dumped"
                  (List.assoc_opt "flagged" counters = Some (Util.Json.Int 1))
            | _ -> Alcotest.fail "no sampler counters");
            (match List.assoc_opt "flags" fields with
            | Some (Util.Json.Obj flags) ->
                check_true "flags keyed by trace id"
                  (match List.assoc_opt "d1" flags with
                  | Some (Util.Json.List fl) ->
                      List.mem (Util.Json.String "shed") fl
                  | _ -> false)
            | _ -> Alcotest.fail "no flags object");
            check_chrome_nesting (Obs.Sampler.flight_json s)
        | _ -> Alcotest.fail "flight dump is not an object");
    case "bounds are validated" (fun () ->
        check_raises_invalid "capacity" (fun () ->
            Obs.Sampler.create ~capacity:0 ~seed:1 ());
        check_raises_invalid "sample_one_in" (fun () ->
            Obs.Sampler.create ~sample_one_in:0 ~seed:1 ()));
  ]

(* ------------------------------------------------------------------ *)
(* SLO burn rates on a virtual clock                                   *)
(* ------------------------------------------------------------------ *)

let slo_tests =
  [
    case "burn rate is bad fraction over budget" (fun () ->
        let now = ref 0.0 in
        let hist = Obs.Histogram.create () in
        let slo =
          Obs.Slo.create ~windows_s:[ 10.0 ] ~granularity_s:1.0
            ~now:(fun () -> !now)
            [ Obs.Slo.availability 0.9 ]
        in
        (* 90/100 good with a 0.9 target: bad_frac 0.1 = the whole
           budget, burn exactly 1.0. *)
        now := 10.0;
        Obs.Slo.observe slo ~good:90 ~total:100 ~latency:hist;
        (match Obs.Slo.report slo with
        | [ (o, [ w ]) ] ->
            check_string "objective" "availability" o.Obs.Slo.o_name;
            check_float "good" 90.0 w.Obs.Slo.r_good;
            check_float "total" 100.0 w.Obs.Slo.r_total;
            check_float ~eps:1e-9 "bad fraction" 0.1 w.Obs.Slo.r_bad_frac;
            check_float ~eps:1e-9 "burn" 1.0 w.Obs.Slo.r_burn;
            check_float ~eps:1e-9 "budget exhausted" 0.0
              w.Obs.Slo.r_budget_remaining
        | _ -> Alcotest.fail "expected one objective, one window");
        (* 100 more requests, all bad: the next window diff burns at
           the worst possible rate, 1 / (1 - target) = 10. *)
        now := 15.0;
        Obs.Slo.observe slo ~good:90 ~total:150 ~latency:hist;
        now := 20.0;
        Obs.Slo.observe slo ~good:90 ~total:200 ~latency:hist;
        match Obs.Slo.report slo with
        | [ (_, [ w ]) ] ->
            (* The 10s window diffs against the t=10 snapshot: 0 of 100
               good. *)
            check_float "window total" 100.0 w.Obs.Slo.r_total;
            check_float ~eps:1e-9 "max burn" 10.0 w.Obs.Slo.r_burn;
            check_float ~eps:1e-9 "budget blown" (-9.0)
              w.Obs.Slo.r_budget_remaining
        | _ -> Alcotest.fail "expected one objective, one window");
    case "an all-good stream burns nothing" (fun () ->
        let now = ref 0.0 in
        let hist = Obs.Histogram.create () in
        let slo =
          Obs.Slo.create ~windows_s:[ 10.0 ] ~granularity_s:1.0
            ~now:(fun () -> !now)
            [ Obs.Slo.availability 0.999 ]
        in
        now := 10.0;
        Obs.Slo.observe slo ~good:500 ~total:500 ~latency:hist;
        match Obs.Slo.report slo with
        | [ (_, [ w ]) ] ->
            check_float "no burn" 0.0 w.Obs.Slo.r_burn;
            check_float "full budget" 1.0 w.Obs.Slo.r_budget_remaining
        | _ -> Alcotest.fail "expected one window");
    case "latency objectives read good events off the histogram"
      (fun () ->
        let now = ref 0.0 in
        let hist = Obs.Histogram.create () in
        let slo =
          Obs.Slo.create ~windows_s:[ 10.0 ] ~granularity_s:1.0
            ~now:(fun () -> !now)
            [ Obs.Slo.latency ~threshold_ms:100.0 0.5 ]
        in
        (* 2 fast, 2 slow: good fraction 0.5 at a 0.5 target — burn
           (1 - 0.5) / 0.5 = 1.0.  Observations sit decades from the
           threshold so interpolation noise cannot flip the count. *)
        List.iter (Obs.Histogram.observe hist) [ 1.0; 1.0; 9000.0; 9000.0 ];
        now := 10.0;
        Obs.Slo.observe slo ~good:0 ~total:0 ~latency:hist;
        match Obs.Slo.report slo with
        | [ (o, [ w ]) ] ->
            check_true "named for the threshold"
              (o.Obs.Slo.o_name = "latency_le_100ms");
            check_float ~eps:1e-6 "good from count_le" 2.0 w.Obs.Slo.r_good;
            check_float ~eps:1e-6 "burn" 1.0 w.Obs.Slo.r_burn
        | _ -> Alcotest.fail "expected one window");
    case "report_text and text_of_json cannot drift" (fun () ->
        let now = ref 0.0 in
        let hist = Obs.Histogram.create () in
        let slo =
          Obs.Slo.create ~now:(fun () -> !now)
            [
              Obs.Slo.availability 0.999;
              Obs.Slo.latency ~threshold_ms:250.0 0.99;
            ]
        in
        now := 400.0;
        Obs.Slo.observe slo ~good:99 ~total:100 ~latency:hist;
        let text = Obs.Slo.report_text slo in
        check_true "availability line"
          (String.length text > 0
          && text = Result.get_ok (Obs.Slo.text_of_json (Obs.Slo.report_json slo)));
        check_true "garbage is a typed error"
          (Result.is_error (Obs.Slo.text_of_json (Util.Json.Int 3)));
        check_true "malformed objectives are a typed error"
          (Result.is_error
             (Obs.Slo.text_of_json
                (Util.Json.Obj
                   [
                     ( "objectives",
                       Util.Json.List [ Util.Json.Obj [] ] );
                   ]))));
    case "the prometheus exposition is conformant gauges" (fun () ->
        let slo =
          Obs.Slo.create
            ~now:(fun () -> 0.0)
            [
              Obs.Slo.availability 0.999;
              Obs.Slo.latency ~threshold_ms:250.0 0.99;
            ]
        in
        let text = Obs.Slo.to_prometheus slo in
        let lines = String.split_on_char '\n' text in
        let helps = Hashtbl.create 8 in
        List.iter
          (fun line ->
            if String.length line > 7 && String.sub line 0 7 = "# HELP " then begin
              let rest = String.sub line 7 (String.length line - 7) in
              let name = List.hd (String.split_on_char ' ' rest) in
              check_false ("duplicate HELP for " ^ name)
                (Hashtbl.mem helps name);
              Hashtbl.add helps name ()
            end)
          lines;
        List.iter
          (fun name ->
            check_true (name ^ " present") (Hashtbl.mem helps name))
          [
            "chimera_slo_target";
            "chimera_slo_burn_rate";
            "chimera_slo_error_budget_remaining";
            "chimera_slo_window_good";
            "chimera_slo_window_total";
          ];
        check_true "objective labels attached"
          (let sub = {|chimera_slo_burn_rate{objective="availability",window=|} in
           let n = String.length sub and m = String.length text in
           let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
           go 0));
    case "objectives and windows are validated" (fun () ->
        check_raises_invalid "empty objectives" (fun () ->
            Obs.Slo.create []);
        check_raises_invalid "target out of range" (fun () ->
            Obs.Slo.availability 1.5);
        check_raises_invalid "threshold" (fun () ->
            Obs.Slo.latency ~threshold_ms:(-1.0) 0.9);
        check_raises_invalid "windows" (fun () ->
            Obs.Slo.create ~windows_s:[ -5.0 ]
              [ Obs.Slo.availability 0.9 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Structured logging                                                  *)
(* ------------------------------------------------------------------ *)

let with_log_capture level f =
  let path = Filename.temp_file "chimera-log" ".jsonl" in
  let oc = open_out path in
  Obs.Log.set_output oc;
  Obs.Log.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_output stderr;
      Obs.Log.set_level None;
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      f ();
      flush oc;
      let ic = open_in path in
      let rec read acc =
        match input_line ic with
        | l -> read (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      close_in ic;
      lines)

let log_tests =
  [
    case "lines are JSONL with the standard keys" (fun () ->
        let lines =
          with_log_capture (Some Obs.Log.Info) (fun () ->
              Obs.Log.info ~trace:"deadbeefdeadbeef" "test.event"
                [ ("k", Util.Json.String "v") ];
              Obs.Log.debug "test.hidden" [])
        in
        match lines with
        | [ line ] -> (
            match Util.Json.parse line with
            | Error e -> Alcotest.failf "unparsable log line: %s" e
            | Ok (Util.Json.Obj fields) ->
                check_true "level"
                  (List.assoc "level" fields = Util.Json.String "info");
                check_true "event"
                  (List.assoc "event" fields = Util.Json.String "test.event");
                check_true "trace id"
                  (List.assoc "trace" fields
                  = Util.Json.String "deadbeefdeadbeef");
                check_true "extra field"
                  (List.assoc "k" fields = Util.Json.String "v");
                check_true "timestamp"
                  (match List.assoc "ts_us" fields with
                  | Util.Json.Int t -> t >= 0
                  | _ -> false)
            | Ok _ -> Alcotest.fail "log line is not an object")
        | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls));
    case "levels filter: warn admits error, drops info" (fun () ->
        let lines =
          with_log_capture (Some Obs.Log.Warn) (fun () ->
              Obs.Log.error "e" [];
              Obs.Log.warn "w" [];
              Obs.Log.info "i" [];
              Obs.Log.debug "d" [])
        in
        check_int "two lines" 2 (List.length lines));
    case "disabled logging emits nothing" (fun () ->
        let lines =
          with_log_capture None (fun () ->
              Obs.Log.error "e" [];
              check_false "error disabled" (Obs.Log.enabled Obs.Log.Error))
        in
        check_int "no lines" 0 (List.length lines));
    case "level_of_string accepts the documented names" (fun () ->
        check_true "warn" (Obs.Log.level_of_string "warn" = Some Obs.Log.Warn);
        check_true "warning"
          (Obs.Log.level_of_string "WARNING" = Some Obs.Log.Warn);
        check_true "debug"
          (Obs.Log.level_of_string "debug" = Some Obs.Log.Debug);
        check_true "off is not a level"
          (Obs.Log.level_of_string "off" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let ring_tests =
  [
    case "keeps the last N in arrival order" (fun () ->
        let r = Obs.Ring.create 3 in
        check_int "capacity" 3 (Obs.Ring.capacity r);
        List.iter (Obs.Ring.push r) [ 1; 2; 3; 4; 5 ];
        check_int "length" 3 (Obs.Ring.length r);
        check_true "oldest first" (Obs.Ring.to_list r = [ 3; 4; 5 ]));
    case "zero capacity is rejected" (fun () ->
        check_raises_invalid "capacity must be >= 1" (fun () ->
            Obs.Ring.create 0));
    case "capacity one keeps only the newest" (fun () ->
        let r = Obs.Ring.create 1 in
        Obs.Ring.push r "a";
        Obs.Ring.push r "b";
        check_true "only the newest" (Obs.Ring.to_list r = [ "b" ]));
    case "empty ring lists nothing" (fun () ->
        let r = Obs.Ring.create 4 in
        check_int "empty" 0 (Obs.Ring.length r);
        check_true "no elements" (Obs.Ring.to_list (r : int Obs.Ring.t) = []));
    case "evictions are counted and drain empties but remembers" (fun () ->
        let r = Obs.Ring.create 3 in
        check_int "fresh" 0 (Obs.Ring.evicted r);
        List.iter (Obs.Ring.push r) [ 1; 2; 3; 4; 5 ];
        check_int "two pushed out" 2 (Obs.Ring.evicted r);
        check_true "drain returns the survivors" (Obs.Ring.drain r = [ 3; 4; 5 ]);
        check_int "emptied" 0 (Obs.Ring.length r);
        check_true "nothing left" (Obs.Ring.drain r = []);
        check_int "the eviction count survives the drain" 2
          (Obs.Ring.evicted r));
  ]

let suites =
  [
    ("obs.histogram", histogram_tests);
    ("obs.trace", trace_tests);
    ("obs.wire", wire_tests);
    ("obs.collector", collector_tests);
    ("obs.sampler", sampler_tests);
    ("obs.slo", slo_tests);
    ("obs.log", log_tests);
    ("obs.ring", ring_tests);
  ]
