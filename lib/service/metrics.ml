type t = {
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable planner_solves : int;
  mutable degraded : int;
  mutable heuristic : int;
  mutable failed : int;
  mutable invalid_requests : int;
  mutable deadline_exceeded : int;
  mutable internal_errors : int;
  mutable cache_corrupt : int;
  mutable cache_entries_skipped : int;
  mutable cache_io_retries : int;
  mutable cache_entries_migrated : int;
  mutable verify_runs : int;
  mutable verify_reused : int;
  mutable verify_warnings : int;
  mutable verify_failures : int;
  mutable verify_certified_total : int;
  mutable verify_conditional_total : int;
  mutable verify_uncertifiable_total : int;
  mutable plan_evals_total : int;
  mutable plan_perms_pruned_total : int;
  mutable trace_spans_dropped : int;
  mutable trace_ring_evictions : int;
  solve_ms : Obs.Histogram.t;
  cache_lookup_ms : Obs.Histogram.t;
  perm_solve_ms : Obs.Histogram.t;
  tuner_trial_ms : Obs.Histogram.t;
  codegen_ms : Obs.Histogram.t;
  verify_ms : Obs.Histogram.t;
}

let create () =
  {
    requests = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    planner_solves = 0;
    degraded = 0;
    heuristic = 0;
    failed = 0;
    invalid_requests = 0;
    deadline_exceeded = 0;
    internal_errors = 0;
    cache_corrupt = 0;
    cache_entries_skipped = 0;
    cache_io_retries = 0;
    cache_entries_migrated = 0;
    verify_runs = 0;
    verify_reused = 0;
    verify_warnings = 0;
    verify_failures = 0;
    verify_certified_total = 0;
    verify_conditional_total = 0;
    verify_uncertifiable_total = 0;
    plan_evals_total = 0;
    plan_perms_pruned_total = 0;
    trace_spans_dropped = 0;
    trace_ring_evictions = 0;
    solve_ms = Obs.Histogram.create ();
    cache_lookup_ms = Obs.Histogram.create ();
    perm_solve_ms = Obs.Histogram.create ();
    tuner_trial_ms = Obs.Histogram.create ();
    codegen_ms = Obs.Histogram.create ();
    verify_ms = Obs.Histogram.create ();
  }

let reset t =
  t.requests <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.planner_solves <- 0;
  t.degraded <- 0;
  t.heuristic <- 0;
  t.failed <- 0;
  t.invalid_requests <- 0;
  t.deadline_exceeded <- 0;
  t.internal_errors <- 0;
  t.cache_corrupt <- 0;
  t.cache_entries_skipped <- 0;
  t.cache_io_retries <- 0;
  t.cache_entries_migrated <- 0;
  t.verify_runs <- 0;
  t.verify_reused <- 0;
  t.verify_warnings <- 0;
  t.verify_failures <- 0;
  t.verify_certified_total <- 0;
  t.verify_conditional_total <- 0;
  t.verify_uncertifiable_total <- 0;
  t.plan_evals_total <- 0;
  t.plan_perms_pruned_total <- 0;
  t.trace_spans_dropped <- 0;
  t.trace_ring_evictions <- 0;
  Obs.Histogram.reset t.solve_ms;
  Obs.Histogram.reset t.cache_lookup_ms;
  Obs.Histogram.reset t.perm_solve_ms;
  Obs.Histogram.reset t.tuner_trial_ms;
  Obs.Histogram.reset t.codegen_ms;
  Obs.Histogram.reset t.verify_ms

(* The value type is part of each metric's registration: renderers
   dispatch on the constructor, so renaming a metric can't silently
   switch its formatting (the old [float_valued] name-list bug). *)
type value =
  | Counter of int
  | Gauge of float
  | Hist of Obs.Histogram.t

let fields t =
  [
    ("requests", Counter t.requests);
    ("cache_hits", Counter t.hits);
    ("cache_misses", Counter t.misses);
    ("evictions", Counter t.evictions);
    ("planner_solves", Counter t.planner_solves);
    ("degraded", Counter t.degraded);
    ("heuristic", Counter t.heuristic);
    ("failed", Counter t.failed);
    ("invalid_requests", Counter t.invalid_requests);
    ("deadline_exceeded", Counter t.deadline_exceeded);
    ("internal_errors", Counter t.internal_errors);
    ("cache_corrupt", Counter t.cache_corrupt);
    ("cache_entries_skipped", Counter t.cache_entries_skipped);
    ("cache_io_retries", Counter t.cache_io_retries);
    ("cache_entries_migrated", Counter t.cache_entries_migrated);
    ("verify_runs", Counter t.verify_runs);
    ("verify_reused", Counter t.verify_reused);
    ("verify_warnings", Counter t.verify_warnings);
    ("verify_failures", Counter t.verify_failures);
    ("verify_certified_total", Counter t.verify_certified_total);
    ("verify_conditional_total", Counter t.verify_conditional_total);
    ("verify_uncertifiable_total", Counter t.verify_uncertifiable_total);
    ("plan_evals_total", Counter t.plan_evals_total);
    ("plan_perms_pruned_total", Counter t.plan_perms_pruned_total);
    ("trace_spans_dropped", Counter t.trace_spans_dropped);
    ("trace_ring_evictions", Counter t.trace_ring_evictions);
    ("solve_ms", Hist t.solve_ms);
    ("cache_lookup_ms", Hist t.cache_lookup_ms);
    ("perm_solve_ms", Hist t.perm_solve_ms);
    ("tuner_trial_ms", Hist t.tuner_trial_ms);
    ("codegen_ms", Hist t.codegen_ms);
    ("verify_ms", Hist t.verify_ms);
    (* Deprecated: float totals derived from the solve histogram, kept
       for one version so existing tooling keeps reading them. *)
    ("compile_seconds", Gauge (Obs.Histogram.sum_ms t.solve_ms /. 1000.0));
    ("plan_solve_ms_total", Gauge (Obs.Histogram.sum_ms t.solve_ms));
  ]

let compile_seconds t = Obs.Histogram.sum_ms t.solve_ms /. 1000.0
let plan_solve_ms_total t = Obs.Histogram.sum_ms t.solve_ms

(* ------------------------------------------------------------------ *)
(* Fleet aggregation: merge and the lossless wire form                  *)
(* ------------------------------------------------------------------ *)

(* Counter addition plus lossless histogram merge (identical bucket
   layouts, see Obs.Histogram.merge): aggregating N workers' metrics
   equals one worker having served the pooled stream. *)
let merge ~into src =
  into.requests <- into.requests + src.requests;
  into.hits <- into.hits + src.hits;
  into.misses <- into.misses + src.misses;
  into.evictions <- into.evictions + src.evictions;
  into.planner_solves <- into.planner_solves + src.planner_solves;
  into.degraded <- into.degraded + src.degraded;
  into.heuristic <- into.heuristic + src.heuristic;
  into.failed <- into.failed + src.failed;
  into.invalid_requests <- into.invalid_requests + src.invalid_requests;
  into.deadline_exceeded <- into.deadline_exceeded + src.deadline_exceeded;
  into.internal_errors <- into.internal_errors + src.internal_errors;
  into.cache_corrupt <- into.cache_corrupt + src.cache_corrupt;
  into.cache_entries_skipped <-
    into.cache_entries_skipped + src.cache_entries_skipped;
  into.cache_io_retries <- into.cache_io_retries + src.cache_io_retries;
  into.cache_entries_migrated <-
    into.cache_entries_migrated + src.cache_entries_migrated;
  into.verify_runs <- into.verify_runs + src.verify_runs;
  into.verify_reused <- into.verify_reused + src.verify_reused;
  into.verify_warnings <- into.verify_warnings + src.verify_warnings;
  into.verify_failures <- into.verify_failures + src.verify_failures;
  into.verify_certified_total <-
    into.verify_certified_total + src.verify_certified_total;
  into.verify_conditional_total <-
    into.verify_conditional_total + src.verify_conditional_total;
  into.verify_uncertifiable_total <-
    into.verify_uncertifiable_total + src.verify_uncertifiable_total;
  into.plan_evals_total <- into.plan_evals_total + src.plan_evals_total;
  into.plan_perms_pruned_total <-
    into.plan_perms_pruned_total + src.plan_perms_pruned_total;
  into.trace_spans_dropped <-
    into.trace_spans_dropped + src.trace_spans_dropped;
  into.trace_ring_evictions <-
    into.trace_ring_evictions + src.trace_ring_evictions;
  Obs.Histogram.merge ~into:into.solve_ms src.solve_ms;
  Obs.Histogram.merge ~into:into.cache_lookup_ms src.cache_lookup_ms;
  Obs.Histogram.merge ~into:into.perm_solve_ms src.perm_solve_ms;
  Obs.Histogram.merge ~into:into.tuner_trial_ms src.tuner_trial_ms;
  Obs.Histogram.merge ~into:into.codegen_ms src.codegen_ms;
  Obs.Histogram.merge ~into:into.verify_ms src.verify_ms

(* The wire form a worker answers to {"cmd": "stats", "full": true}:
   counters as ints, histograms in their full-bucket wire form (see
   Obs.Histogram.to_wire_json).  The derived gauges are omitted — the
   receiver re-derives them from the merged solve histogram. *)
let to_wire_json t =
  Util.Json.Obj
    (List.filter_map
       (fun (name, v) ->
         match v with
         | Counter n -> Some (name, Util.Json.Int n)
         | Gauge _ -> None
         | Hist h -> Some (name, Obs.Histogram.to_wire_json h))
       (fields t))

let of_wire_json json =
  let t = create () in
  let counter name set =
    match Option.bind (Util.Json.member name json) Util.Json.to_int_opt with
    | Some n when n >= 0 -> Ok (set n)
    | Some _ -> Error (Printf.sprintf "metrics: negative counter %s" name)
    | None -> Error (Printf.sprintf "metrics: missing counter %s" name)
  in
  let hist name into =
    match Util.Json.member name json with
    | None -> Error (Printf.sprintf "metrics: missing histogram %s" name)
    | Some j -> (
        match Obs.Histogram.of_wire_json j with
        | Error e -> Error (Printf.sprintf "metrics: %s: %s" name e)
        | Ok h -> (
            match Obs.Histogram.merge ~into h with
            | () -> Ok ()
            | exception Invalid_argument e ->
                Error (Printf.sprintf "metrics: %s: %s" name e)))
  in
  let ( let* ) = Result.bind in
  let* () = counter "requests" (fun n -> t.requests <- n) in
  let* () = counter "cache_hits" (fun n -> t.hits <- n) in
  let* () = counter "cache_misses" (fun n -> t.misses <- n) in
  let* () = counter "evictions" (fun n -> t.evictions <- n) in
  let* () = counter "planner_solves" (fun n -> t.planner_solves <- n) in
  let* () = counter "degraded" (fun n -> t.degraded <- n) in
  let* () = counter "heuristic" (fun n -> t.heuristic <- n) in
  let* () = counter "failed" (fun n -> t.failed <- n) in
  let* () = counter "invalid_requests" (fun n -> t.invalid_requests <- n) in
  let* () = counter "deadline_exceeded" (fun n -> t.deadline_exceeded <- n) in
  let* () = counter "internal_errors" (fun n -> t.internal_errors <- n) in
  let* () = counter "cache_corrupt" (fun n -> t.cache_corrupt <- n) in
  let* () =
    counter "cache_entries_skipped" (fun n -> t.cache_entries_skipped <- n)
  in
  let* () = counter "cache_io_retries" (fun n -> t.cache_io_retries <- n) in
  let* () =
    counter "cache_entries_migrated" (fun n -> t.cache_entries_migrated <- n)
  in
  let* () = counter "verify_runs" (fun n -> t.verify_runs <- n) in
  let* () = counter "verify_reused" (fun n -> t.verify_reused <- n) in
  let* () = counter "verify_warnings" (fun n -> t.verify_warnings <- n) in
  let* () = counter "verify_failures" (fun n -> t.verify_failures <- n) in
  let* () =
    counter "verify_certified_total" (fun n -> t.verify_certified_total <- n)
  in
  let* () =
    counter "verify_conditional_total" (fun n ->
        t.verify_conditional_total <- n)
  in
  let* () =
    counter "verify_uncertifiable_total" (fun n ->
        t.verify_uncertifiable_total <- n)
  in
  let* () = counter "plan_evals_total" (fun n -> t.plan_evals_total <- n) in
  let* () =
    counter "plan_perms_pruned_total" (fun n ->
        t.plan_perms_pruned_total <- n)
  in
  let* () =
    counter "trace_spans_dropped" (fun n -> t.trace_spans_dropped <- n)
  in
  let* () =
    counter "trace_ring_evictions" (fun n -> t.trace_ring_evictions <- n)
  in
  let* () = hist "solve_ms" t.solve_ms in
  let* () = hist "cache_lookup_ms" t.cache_lookup_ms in
  let* () = hist "perm_solve_ms" t.perm_solve_ms in
  let* () = hist "tuner_trial_ms" t.tuner_trial_ms in
  let* () = hist "codegen_ms" t.codegen_ms in
  let* () = hist "verify_ms" t.verify_ms in
  Ok t

(* Route a finished request trace into the latency histograms.  Called
   exactly once per trace, on the main domain, after pooled planning
   has joined. *)
let observe_trace t trace =
  List.iter
    (fun (s : Obs.Trace.span) ->
      let ms = float_of_int s.Obs.Trace.dur_us /. 1000.0 in
      match s.Obs.Trace.name with
      | "solve" -> Obs.Histogram.observe t.solve_ms ms
      | "cache.lookup" -> Obs.Histogram.observe t.cache_lookup_ms ms
      | "order" -> Obs.Histogram.observe t.perm_solve_ms ms
      | "tuner.trial" -> Obs.Histogram.observe t.tuner_trial_ms ms
      | "codegen" -> Obs.Histogram.observe t.codegen_ms ms
      | "verify" -> Obs.Histogram.observe t.verify_ms ms
      | _ -> ())
    (Obs.Trace.spans trace)

let to_table t =
  let table = Util.Table.create ~columns:[ "counter"; "value" ] in
  List.iter
    (fun (name, v) ->
      let cell =
        match v with
        | Counter n -> string_of_int n
        | Gauge f -> Printf.sprintf "%.3f" f
        | Hist h ->
            Printf.sprintf "n=%d p50=%.3fms p99=%.3fms"
              (Obs.Histogram.count h)
              (Obs.Histogram.quantile h 0.5)
              (Obs.Histogram.quantile h 0.99)
      in
      Util.Table.add_row table [ name; cell ])
    (fields t);
  table

let to_json t =
  Util.Json.Obj
    (List.map
       (fun (name, v) ->
         match v with
         | Counter n -> (name, Util.Json.Int n)
         | Gauge f -> (name, Util.Json.Float f)
         | Hist h -> (name, Obs.Histogram.summary_json h))
       (fields t))

(* Prometheus text exposition.  Counters become [chimera_<name>],
   histograms the conventional _bucket{le=...}/_sum/_count triple with
   cumulative bucket counts.  The exposition format requires at most
   one [# HELP]/[# TYPE] pair per metric name in a scrape, so
   multi-instance expositions (merged fleet metrics next to per-worker
   labelled series) go through {!to_prometheus_many}, which groups all
   instances' series under a single header per metric. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let help name =
  match name with
  | "requests" -> "Optimization requests processed."
  | "cache_hits" -> "Plan-cache hits."
  | "cache_misses" -> "Plan-cache misses."
  | "evictions" -> "Plan-cache LRU evictions."
  | "planner_solves" -> "Sub-chains actually planned."
  | "degraded" -> "Requests served below the requested degradation rung."
  | "heuristic" -> "Requests served by heuristic tiling (last rung)."
  | "failed" -> "Requests that produced no plan."
  | "invalid_requests" -> "Requests rejected by validation."
  | "deadline_exceeded" -> "Requests whose planning budget expired."
  | "internal_errors" -> "Unexpected errors answered as internal."
  | "cache_corrupt" -> "Persisted cache files discarded on load."
  | "cache_entries_skipped" ->
      "Cache frames dropped on load (CRC failure or torn write)."
  | "cache_io_retries" -> "Cache persistence attempts retried after I/O faults."
  | "cache_entries_migrated" ->
      "Entries skipped on load from older cache file versions."
  | "verify_runs" -> "Responses run through the static-analysis passes."
  | "verify_reused" ->
      "Verified responses answered with the verdict stored on their \
       plan-cache entry."
  | "verify_warnings" -> "Verified responses with warnings only."
  | "verify_failures" ->
      "Verified responses with error-severity diagnostics."
  | "verify_certified_total" ->
      "Verified responses with a checked unconditional certificate."
  | "verify_conditional_total" ->
      "Verified responses served on a conditional certificate."
  | "verify_uncertifiable_total" ->
      "Verified responses with at least one uncertified plan."
  | "plan_evals_total" -> "DV/MU cost-model evaluations."
  | "plan_perms_pruned_total" ->
      "Execution orders skipped by branch-and-bound pruning."
  | "trace_spans_dropped" ->
      "Spans discarded because a request trace hit its max_spans bound."
  | "trace_ring_evictions" ->
      "Buffered traces overwritten in the bounded serve-side rings."
  | "solve_ms" -> "End-to-end planning latency of cache misses (ms)."
  | "cache_lookup_ms" -> "Plan-cache probe latency (ms)."
  | "perm_solve_ms" -> "Per-execution-order solver descent latency (ms)."
  | "tuner_trial_ms" -> "Per-trial tuner measurement latency (ms)."
  | "codegen_ms" -> "Kernel materialization latency (ms)."
  | "verify_ms" -> "Static-analysis verification latency (ms)."
  | "compile_seconds" -> "Deprecated: sum(solve_ms)/1000."
  | "plan_solve_ms_total" -> "Deprecated: sum(solve_ms)."
  | _ -> "Chimera service metric."

let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let to_prometheus_many instances =
  match instances with
  | [] -> ""
  | (_, first) :: _ ->
      let buf = Buffer.create 4096 in
      let line fmt =
        Printf.ksprintf
          (fun s ->
            Buffer.add_string buf s;
            Buffer.add_char buf '\n')
          fmt
      in
      let label_body labels =
        match
          List.map
            (fun (k, v) ->
              Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
            labels
        with
        | [] -> ""
        | parts -> "{" ^ String.concat "," parts ^ "}"
      in
      (* [fields] always returns the same metrics in the same order, so
         walking the first instance's field list names every metric;
         each instance's series for that metric are grouped under one
         HELP/TYPE header. *)
      List.iteri
        (fun fi (name, v0) ->
          let metric = "chimera_" ^ name in
          let ty =
            match v0 with
            | Counter _ -> "counter"
            | Gauge _ -> "gauge"
            | Hist _ -> "histogram"
          in
          line "# HELP %s %s" metric (escape_help (help name));
          line "# TYPE %s %s" metric ty;
          List.iter
            (fun (labels, t) ->
              match List.nth (fields t) fi with
              | _, Counter n -> line "%s%s %d" metric (label_body labels) n
              | _, Gauge f ->
                  line "%s%s %s" metric (label_body labels)
                    (Printf.sprintf "%.6f" f)
              | _, Hist h ->
                  let bounds = Obs.Histogram.bounds h in
                  let counts = Obs.Histogram.counts h in
                  let cum = ref 0 in
                  Array.iteri
                    (fun i upper ->
                      cum := !cum + counts.(i);
                      line "%s_bucket%s %d" metric
                        (label_body
                           (labels @ [ ("le", Printf.sprintf "%.9g" upper) ]))
                        !cum)
                    bounds;
                  line "%s_bucket%s %d" metric
                    (label_body (labels @ [ ("le", "+Inf") ]))
                    (Obs.Histogram.count h);
                  line "%s_sum%s %.6f" metric (label_body labels)
                    (Obs.Histogram.sum_ms h);
                  line "%s_count%s %d" metric (label_body labels)
                    (Obs.Histogram.count h))
            instances)
        (fields first);
      Buffer.contents buf

let to_prometheus ?(labels = []) t = to_prometheus_many [ (labels, t) ]

let print t = Util.Table.print (to_table t)
