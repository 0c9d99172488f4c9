(* End-to-end benchmark of a chimera serve fleet.

     fleetbench --workload cold-strict|warm-hot|saturated|all
                --seed N --seconds S --trace 0|1

   Starts the documented fleet deployment (min(2, nproc) [chimera serve
   --verify strict] workers sharing a fresh --cache-dir, CHIMERA_DOMAINS=1
   in every process), drives it through Fleet.Router.submit/poll, checks
   every answer (Gate), and prints each metric by name with its unit and
   sample count.  The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
   end-to-end metrics; --trace 1 runs the traced passes and the
   in-process replay and reports the per-layer breakdown.  Exits 1 when
   an answer fails the correctness gate, 2 on a benchmark error.

   perfbench/README.md says why each workload exists and which layer
   metric should move which end-to-end metric. *)

let now = Unix.gettimeofday

type workload = Cold_strict | Warm_hot | Saturated

let workload_name = function
  | Cold_strict -> "cold-strict"
  | Warm_hot -> "warm-hot"
  | Saturated -> "saturated"

let workloads = [ Cold_strict; Warm_hot; Saturated ]

(* Workload constants.  The warm pool (256 + 2 x 96 = 448 requests) sits
   between the router hot tier (256 responses) and a worker's plan cache
   (512 entries); its ranks past the hot tier are two rounds, so about
   8% of draws miss the hot tier and p99 falls among the slowest
   certificate re-checks, not at the edge between hot-tier and worker
   answers.  The saturated rate is about twice cold-strict's
   throughput. *)
let hot_capacity = Fleet.Router.default_config.Fleet.Router.hot_capacity
let warm_tail_rounds = 2
let warm_rate_rps = 300.0
let zipf_s = 1.0
let saturated_rate_rps = 30.0
let saturated_rounds = 4
let goodput_slo_ms = 250.0

(* A run is several independent passes, each on a freshly set-up fleet.
   A cold-strict pass sends one round of the pool and ends when it is
   answered; passes repeat while the next one fits in the run's seconds,
   at least [cold_passes] of them, pass k sending round k.  Saturated
   makes [Reqpool.rounds / saturated_rounds] passes of [saturated_rounds]
   rounds each: every run sends the whole pool once, so only the seeded
   pairing of chains with batch sizes differs between seeds, and each
   pass is long enough that most answers wait in full queues rather than
   in queues still filling, where latency swings with small changes in
   service rate.  Warm-hot makes [warm_passes] passes of an equal share of
   the seconds. *)
let warm_passes = 3
let cold_passes = 5

let repeat_passes ~seconds f =
  let t0 = now () in
  let rec go index acc =
    let acc = f index :: acc in
    let elapsed = now () -. t0 in
    let per_pass = elapsed /. float_of_int (index + 1) in
    if index + 1 < cold_passes || elapsed +. per_pass <= seconds then go (index + 1) acc
    else List.rev acc
  in
  go 0 []

type env = {
  exe : string;
  work_dir : string;
  trace_dir : string;
  workers : int;
  nproc : int;
  expected : (string, float) Hashtbl.t;
  seed : int;
  seconds : float;
  commit : string;
}

type metric = { name : string; value : float; unit_ : string; samples : int }

let m ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* The warm pool is the same for every seed: its batch sizes decide how
   long the slowest certificate re-checks take, which set warm-hot's p99
   (the seeds' own pools moved it by 30%).  The seed draws the arrivals
   and which requests they ask for. *)
let warm_pool = Reqpool.warm_pool ~seed:0 ~hot:hot_capacity ~tail:warm_tail_rounds

(* Plan the warm pool in this process and persist it: the cache file a
   restarted fleet finds on its shared directory.  Not timed. *)
let populate env pool =
  let dir = Driver.fresh_dir ~work_dir:env.work_dir in
  let cache = Service.Plan_cache.create () in
  let lanes = Util.Pool.create ~domains:env.workers () in
  let results =
    Fun.protect
      ~finally:(fun () -> Util.Pool.shutdown lanes)
      (fun () ->
        Service.Batch.run ~jobs:env.workers ~cache ~pool:lanes
          (Array.to_list (Array.map (fun (r : Reqpool.req) -> r.Reqpool.request) pool)))
  in
  List.iter
    (fun (req, res) ->
      match res with
      | Ok _ -> ()
      | Error e ->
          failwith
            (Printf.sprintf "populate %s: %s" (Service.Request.describe req)
               (Service.Error.to_string e)))
    results;
  Service.Plan_cache.save cache ~dir;
  dir

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let timed make =
  let t0 = now () in
  let fleet = make () in
  (now () -. t0, fleet)

(* One set-up: cold workloads get a fresh empty cache directory; warm-hot
   restarts on the populated one (each worker loads the file) and is
   prewarmed least popular first, so the hot tier's FIFO keeps the
   head of the distribution. *)
let setup env w ~warm_dir ~pool () =
  match w with
  | Cold_strict | Saturated ->
      Driver.spawn ~exe:env.exe ~workers:env.workers
        ~dir:(Driver.fresh_dir ~work_dir:env.work_dir)
  | Warm_hot ->
      let fleet = Driver.spawn ~exe:env.exe ~workers:env.workers ~dir:warm_dir in
      (try
         Driver.prewarm fleet ~chunk:env.workers
           (List.rev_map (fun (r : Reqpool.req) -> r.Reqpool.request) (Array.to_list pool))
       with e ->
         Driver.shutdown fleet;
         raise e);
      fleet

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let counters_delta before after =
  List.map
    (fun (k, v) -> (k, v - Option.value (List.assoc_opt k before) ~default:0))
    after

(* Pass [index] of a run.  Saturated arrivals are evenly spaced, so
   when the queues reach the admission bands depends on the fleet alone;
   warm-hot's are Poisson, drawn for [seconds] from the pass's own
   seeded stream. *)
let run_pass env w ~pool ~index ?spans ~timings ~seconds fleet =
  let p = Driver.pass ?spans ~timings fleet in
  let before = Fleet.Router.counters fleet.Driver.router in
  let window =
    match w with
    | Cold_strict ->
        Driver.closed_loop p ~conc:env.workers (Reqpool.cold_list ~seed:env.seed ~first:index 1)
    | Saturated ->
        let queue =
          ref
            (Reqpool.cold_list ~seed:env.seed ~first:(index * saturated_rounds)
               saturated_rounds)
        in
        Driver.open_loop p
          ~gap:(fun () -> 1.0 /. saturated_rate_rps)
          ~seconds:infinity
          (fun () ->
            match !queue with
            | r :: rest ->
                queue := rest;
                Some r
            | [] -> None)
    | Warm_hot ->
        let z = Reqpool.zipf ~s:zipf_s (Array.length pool) in
        let arrivals = Util.Prng.create ~seed:((env.seed * 31) + index + 0xA221) in
        let draw = Util.Prng.create ~seed:((env.seed * 31) + index + 0x21FF) in
        Driver.open_loop p
          ~gap:(fun () -> -.log (1.0 -. Util.Prng.float arrivals) /. warm_rate_rps)
          ~seconds
          (fun () -> Some pool.(Reqpool.zipf_draw z draw))
  in
  let counters =
    counters_delta before (Fleet.Router.counters fleet.Driver.router)
  in
  (Driver.records p, window, counters)

(* ------------------------------------------------------------------ *)
(* Classification and the correctness gate                             *)
(* ------------------------------------------------------------------ *)

type cls = Full | Degraded | Shed | Errored | Unanswered | Wrong of string

let classify env (r : Driver.record) =
  if not (Driver.answered r) then Unanswered
  else
    match Util.Json.member "ok" r.Driver.answer with
    | Some (Util.Json.Bool true) -> (
        match Gate.check ~expected:env.expected r.Driver.req r.Driver.answer with
        | Error reason -> Wrong reason
        | Ok () -> if Gate.full r.Driver.answer then Full else Degraded)
    | _ -> (
        match Util.Json.member "code" r.Driver.answer with
        | Some (Util.Json.String "overloaded") -> Shed
        | _ -> Errored)

type tally = {
  attempted : int;
  full : int;
  degraded : int;
  shed : int;
  errored : int;
  unanswered : int;
  wrong : (Driver.record * string) list;
  gate_self_test : (int, string) result;
}

let tally env records =
  let classes = List.map (fun r -> (r, classify env r)) records in
  let count f = List.length (List.filter (fun (_, c) -> f c) classes) in
  let gate_self_test =
    match List.find_opt (fun (_, c) -> c = Full) classes with
    | Some (r, _) -> Gate.self_test ~expected:env.expected r.Driver.req r.Driver.answer
    | None -> Error "no full answer to tamper with"
  in
  {
    attempted = List.length records;
    full = count (( = ) Full);
    degraded = count (( = ) Degraded);
    shed = count (( = ) Shed);
    errored = count (( = ) Errored);
    unanswered = count (( = ) Unanswered);
    wrong =
      List.filter_map
        (fun (r, c) -> match c with Wrong why -> Some (r, why) | _ -> None)
        classes;
    gate_self_test;
  }

(* Wrong plans, typed errors other than a shed, and unanswered requests
   are failures; a shed is a typed, retryable refusal the fleet promises
   under overload, counted against goodput and [full_frac] instead. *)
let failed t = List.length t.wrong + t.errored + t.unanswered
let correct t = t.wrong = [] && Result.is_ok t.gate_self_test

let merge_tallies a b =
  {
    attempted = a.attempted + b.attempted;
    full = a.full + b.full;
    degraded = a.degraded + b.degraded;
    shed = a.shed + b.shed;
    errored = a.errored + b.errored;
    unanswered = a.unanswered + b.unanswered;
    wrong = a.wrong @ b.wrong;
    gate_self_test =
      (match (a.gate_self_test, b.gate_self_test) with
      | Error e, _ | _, Error e -> Error e
      | Ok x, Ok y -> Ok (x + y));
  }

let is_ok (r : Driver.record) =
  Driver.answered r && Util.Json.member "ok" r.Driver.answer = Some (Util.Json.Bool true)

let ok_latencies_ms records =
  List.filter_map
    (fun r -> if is_ok r then Some (Driver.latency r *. 1e3) else None)
    records

let float_member name json =
  Option.bind (Util.Json.member name json) Util.Json.to_float_opt

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (tracing off)                                    *)
(* ------------------------------------------------------------------ *)

(* Rates, set-up time and peak RSS are computed per pass and the run
   reports their median over passes, so a pass slowed by other load on
   the machine moves them little.  Latency quantiles, the shares and the
   plan cost pool every pass's answers: p99 over several passes falls
   among the slowest requests of a round, not on a pass's single worst
   answer.

   The JSON result carries the metrics a bound can be set on.  Goodput
   and the degraded and failed shares are printed too, but stay out of
   it: the shares are 0 on the healthy workloads, and a bound on a
   metric whose median is 0 means nothing (README.md). *)
let end_to_end env w =
  let pool = warm_pool in
  let warm_dir = if w = Warm_hot then populate env pool else "" in
  let pass ~seconds index =
    let setup_s, fleet = timed (setup env w ~warm_dir ~pool) in
    Driver.with_fleet fleet (fun fleet ->
        let records, window, _ =
          run_pass env w ~pool ~index ~timings:false ~seconds fleet
        in
        (setup_s, records, window, Driver.peak_worker_rss_mb fleet))
  in
  let runs =
    match w with
    | Warm_hot ->
        List.init warm_passes (pass ~seconds:(env.seconds /. float_of_int warm_passes))
    | Cold_strict -> repeat_passes ~seconds:env.seconds (pass ~seconds:0.0)
    | Saturated -> List.init (Reqpool.rounds / saturated_rounds) (pass ~seconds:0.0)
  in
  let setups = List.map (fun (s, _, _, _) -> s) runs in
  let records = List.concat_map (fun (_, r, _, _) -> r) runs in
  let t = tally env records in
  let is_full r = is_ok r && Gate.full r.Driver.answer in
  let in_slo r = is_full r && Driver.latency r *. 1e3 <= goodput_slo_ms in
  (* A warm-hot pass is its send window, and answers after it are not
     counted; a cold pass lasts until its last answer. *)
  let span (_, records, (window : Driver.window), _) =
    match w with
    | Warm_hot -> window.Driver.t_end -. window.Driver.t0
    | Cold_strict | Saturated ->
        List.fold_left
          (fun acc (r : Driver.record) ->
            if Driver.answered r then Float.max acc r.Driver.done_at else acc)
          window.Driver.t0 records
        -. window.Driver.t0
  in
  let counted (_, records, (window : Driver.window), _) =
    List.filter
      (fun (r : Driver.record) -> w <> Warm_hot || r.Driver.done_at <= window.Driver.t_end)
      records
  in
  let per_pass f = Spans.median (List.map f runs) in
  let rate keep =
    ( per_pass (fun run ->
          float_of_int (List.length (List.filter keep (counted run))) /. span run),
      List.length (List.filter keep (List.concat_map counted runs)) )
  in
  let latencies = ok_latencies_ms records in
  let latency q = Spans.quantile latencies q in
  (* One cost per distinct request: warm-hot repeats its popular
     requests, and the plan cost must not depend on which ones the seed
     made popular. *)
  let costs =
    let seen = Hashtbl.create 256 in
    List.filter_map
      (fun (r : Driver.record) ->
        let key = r.Driver.req.Reqpool.key in
        if is_full r && not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          float_member "estimated_us" r.Driver.answer
        end
        else None)
      records
  in
  let n = List.length in
  let count f = n (List.filter f records) in
  let share f = Spans.ratio (count f) t.attempted in
  let throughput, n_ok = rate is_ok in
  let goodput, n_good = rate in_slo in
  let metrics =
    [
      m "setup_s" "s" (Spans.median setups) ~samples:(n setups);
      m "throughput_rps" "1/s" throughput ~samples:n_ok;
      m "latency_p50_ms" "ms" (latency 0.5) ~samples:(n latencies);
      m "latency_p99_ms" "ms" (latency 0.99) ~samples:(n latencies);
      m "full_frac" "ratio" (share is_full) ~samples:t.attempted;
      m "plan_cost_geomean_us" "us"
        (if costs = [] then 0.0 else Util.Stats.geomean costs)
        ~samples:(n costs);
      m "worker_rss_mb" "MiB" (per_pass (fun (_, _, _, rss) -> rss)) ~samples:(n runs);
    ]
  in
  let info =
    [
      m "goodput_rps" "1/s" goodput ~samples:n_good;
      m "degraded_frac" "ratio" (share (fun r -> is_ok r && not (is_full r)))
        ~samples:t.attempted;
      m "failed_frac" "ratio" (share (fun r -> not (is_ok r))) ~samples:t.attempted;
    ]
  in
  (t, metrics, info)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (the traced run)                                  *)
(* ------------------------------------------------------------------ *)

(* Figures a worker reports in its own answer; a hot-tier answer replays
   a stored one, so only routed answers count. *)
let worker_field (r : Driver.record) name =
  if r.Driver.worker < 0 then None else float_member name r.Driver.answer

(* The worker's request total, from the answer's timings.  A worker's
   trace keeps at most 4096 spans: the heaviest solves overflow it and
   lose the request total, and [compile_ms] (the solve alone) stands
   in. *)
let worker_ms (r : Driver.record) =
  match Option.bind (Util.Json.member "timings_ms" r.Driver.answer) (float_member "request") with
  | Some ms when r.Driver.worker >= 0 -> Some ms
  | _ -> worker_field r "compile_ms"

let per_layer env w =
  let pool = warm_pool in
  let warm_dir = if w = Warm_hot then populate env pool else "" in
  let share = env.seconds /. 3.0 in
  (* Untraced pass: the baseline the tracing overhead is measured
     against. *)
  let _, fleet = timed (setup env w ~warm_dir ~pool) in
  let plain, _, _ =
    Driver.with_fleet fleet
      (run_pass env w ~pool ~index:0 ~timings:false ~seconds:share)
  in
  (* Traced pass: spans around every submit/poll, worker request totals
     read from the timings field. *)
  let spans = Spans.create () in
  let _, fleet = timed (setup env w ~warm_dir ~pool) in
  let dir = fleet.Driver.dir in
  let traced, _, counters =
    Driver.with_fleet fleet
      (run_pass env w ~pool ~index:0 ~spans ~timings:true ~seconds:share)
  in
  let file_bytes = Driver.cache_file_bytes dir in
  (* Replay the traced pass's inputs through the layers in process. *)
  let rp = Replay.create ~spans ~dir in
  if w = Warm_hot then Replay.load rp;
  Replay.run rp ~seconds:share
    (List.map (fun (r : Driver.record) -> Util.Json.to_string r.Driver.line) traced);
  if w <> Warm_hot then Replay.time_load rp;
  let tt = tally env traced in
  let t = merge_tallies (tally env plain) tt in
  let counter k = Option.value (List.assoc_opt k counters) ~default:0 in
  let received = counter "received" in
  let q name ~scale p =
    let s = Spans.samples spans name ~scale in
    (Spans.quantile s p, List.length s)
  in
  let qm ?(p = 0.5) metric span unit_ ~scale =
    let v, n = q span ~scale p in
    m metric unit_ v ~samples:n
  in
  (* Calls of a few microseconds sit within a few ticks of the clock's
     resolution, so they are reported as means, not quantiles. *)
  let mean_us metric span =
    let s = Spans.samples spans span ~scale:1e6 in
    m metric "us" (Spans.mean s) ~samples:(List.length s)
  in
  let routed_timed =
    List.filter_map (fun r -> Option.map (fun w -> (r, w)) (worker_ms r)) traced
  in
  let compile_ms = List.filter_map (fun r -> worker_field r "compile_ms") traced in
  let wait_ms =
    List.map
      (fun ((r : Driver.record), w) -> (Driver.latency r *. 1e3) -. w)
      routed_timed
  in
  let answered = List.filter Driver.answered traced in
  let lag_ms =
    List.map (fun (r : Driver.record) -> (r.Driver.sent -. r.Driver.due) *. 1e3) traced
  in
  let unaccounted =
    let total = ref 0.0 and covered = ref 0.0 in
    List.iter
      (fun (r : Driver.record) ->
        let l = Driver.latency r in
        total := !total +. l;
        covered :=
          !covered +. (r.Driver.sent -. r.Driver.due)
          +. (r.Driver.submitted -. r.Driver.sent)
          +. r.Driver.queued
          +. (Option.value (worker_ms r) ~default:0.0 /. 1e3))
      answered;
    if !total > 0.0 then 100.0 *. (!total -. !covered) /. !total else 0.0
  in
  let overhead =
    let base = Spans.median (ok_latencies_ms plain) in
    let traced_p50 = Spans.median (ok_latencies_ms traced) in
    if base > 0.0 then 100.0 *. (traced_p50 -. base) /. base else 0.0
  in
  let total_of name = Spans.sum (Spans.durations spans name) in
  let n_cert = List.length (Spans.durations spans "cert_check") in
  let finds = List.length (Spans.durations spans "plan_cache.find") in
  let metrics =
    [
      qm "planner.plan_ms.p50" "planner.plan_unit" "ms" ~scale:1e3;
      qm ~p:0.99 "planner.plan_ms.p99" "planner.plan_unit" "ms" ~scale:1e3;
      m "planner.solves" "count" (float_of_int rp.Replay.solves) ~samples:rp.Replay.requests;
      m "planner.evals_per_request" "count"
        (if rp.Replay.solves = 0 then 0.0
         else float_of_int rp.Replay.evals /. float_of_int rp.Replay.solves)
        ~samples:rp.Replay.solves;
      m "planner.prune_rate" "ratio"
        (Spans.ratio rp.Replay.pruned rp.Replay.candidates)
        ~samples:rp.Replay.candidates;
      qm "cert_check.ms.p50" "cert_check" "ms" ~scale:1e3;
      qm ~p:0.99 "cert_check.ms.p99" "cert_check" "ms" ~scale:1e3;
      m "cert_check.share_pct" "%"
        (let total = total_of "replay.request" in
         if total > 0.0 then 100.0 *. total_of "cert_check" /. total else 0.0)
        ~samples:n_cert;
      qm "plan_cache.save_ms.p50" "plan_cache.save" "ms" ~scale:1e3;
      qm ~p:0.99 "plan_cache.save_ms.p99" "plan_cache.save" "ms" ~scale:1e3;
      m "plan_cache.saves" "count"
        (float_of_int (List.length (Spans.durations spans "plan_cache.save")))
        ~samples:rp.Replay.requests;
      m "plan_cache.file_bytes" "bytes" (float_of_int file_bytes);
      qm "plan_cache.load_ms" "plan_cache.load" "ms" ~scale:1e3;
      mean_us "plan_cache.find_us" "plan_cache.find";
      m "plan_cache.hit_ratio" "ratio"
        (Spans.ratio (finds - rp.Replay.solves) finds)
        ~samples:finds;
      qm "router.submit_us.p50" "router.submit" "us" ~scale:1e6;
      qm ~p:0.99 "router.submit_us.p99" "router.submit" "us" ~scale:1e6;
      m "router.hot_hit_ratio" "ratio" (Spans.ratio (counter "hot_hits") received)
        ~samples:received;
      m "router.wait_ms.p50" "ms" (Spans.quantile wait_ms 0.5)
        ~samples:(List.length wait_ms);
      m "router.wait_ms.p99" "ms" (Spans.quantile wait_ms 0.99)
        ~samples:(List.length wait_ms);
      m "router.shed_ratio" "ratio" (Spans.ratio (counter "shed") received)
        ~samples:received;
      m "router.admission_degraded_ratio" "ratio"
        (Spans.ratio (counter "admission_degraded") received)
        ~samples:received;
      mean_us "request.resolve_us" "request.resolve";
      mean_us "fingerprint.us" "fingerprint";
      mean_us "json.parse_us" "json.parse";
      mean_us "json.print_us" "json.print";
      mean_us "codegen.kernel_us" "codegen.kernel";
      m "batch.compile_ms.p50" "ms" (Spans.quantile compile_ms 0.5)
        ~samples:(List.length compile_ms);
      m "batch.compile_ms.p99" "ms" (Spans.quantile compile_ms 0.99)
        ~samples:(List.length compile_ms);
      m "unaccounted_pct" "%" unaccounted ~samples:(List.length answered);
      m "trace.overhead_pct" "%" overhead ~samples:(List.length plain);
      m "driver.lag_ms.p99" "ms" (Spans.quantile lag_ms 0.99)
        ~samples:(List.length lag_ms);
      m "answers.degraded_frac" "ratio" (Spans.ratio tt.degraded tt.attempted)
        ~samples:tt.attempted;
      m "answers.failed_frac" "ratio"
        (Spans.ratio (tt.shed + failed tt) tt.attempted)
        ~samples:tt.attempted;
      m "replay.requests" "count" (float_of_int rp.Replay.requests)
        ~samples:(List.length traced);
    ]
  in
  let trace_file =
    Filename.concat env.trace_dir
      (Printf.sprintf "trace-%s-seed%d.json" (workload_name w) env.seed)
  in
  Spans.write_chrome spans trace_file
    ~meta:
      [
        ("workload", workload_name w);
        ("seed", string_of_int env.seed);
        ("nproc", string_of_int env.nproc);
        ("ocaml", Sys.ocaml_version);
        ("commit", env.commit);
      ];
  (t, metrics, [ { name = "chrome_trace"; value = 0.0; unit_ = trace_file; samples = spans.Spans.kept } ])

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_table env w ~trace t metrics info =
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d workers=%d \
     ocaml=%s commit=%s\n"
    (workload_name w) env.seed env.seconds (if trace then 1 else 0) env.nproc
    env.workers Sys.ocaml_version env.commit;
  Printf.printf "%-34s %16s  %-8s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun x ->
      if x.name = "chrome_trace" then Printf.printf "%-34s %s (%d spans)\n" x.name x.unit_ x.samples
      else Printf.printf "%-34s %16.6f  %-8s %d\n" x.name x.value x.unit_ x.samples)
    (metrics @ info);
  Printf.printf
    "answers: attempted %d  full %d  degraded %d  shed %d  errored %d  \
     unanswered %d  wrong %d  gate self-test %s\n"
    t.attempted t.full t.degraded t.shed t.errored t.unanswered
    (List.length t.wrong)
    (match t.gate_self_test with
    | Ok n -> Printf.sprintf "ok (%d tampered answers rejected)" n
    | Error e -> "FAILED: " ^ e);
  List.iteri
    (fun i ((r : Driver.record), why) ->
      if i < 10 then
        Printf.printf "WRONG %s: %s\n" (Service.Request.describe r.Driver.req.Reqpool.request) why)
    t.wrong;
  flush stdout

let result_json ~prefix t metrics =
  Util.Json.Obj
    [
      ("correct", Util.Json.Bool (correct t));
      ("attempted", Util.Json.Int t.attempted);
      ("failed", Util.Json.Int (failed t));
      ( "metrics",
        Util.Json.Obj
          (List.map
             (fun x ->
               ( prefix ^ x.name,
                 Util.Json.Obj
                   [ ("value", Util.Json.Float x.value); ("unit", Util.Json.String x.unit_) ] ))
             metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "fleetbench --workload cold-strict|warm-hot|saturated|all --seed N \
   --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let gen_expected = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ( "--gen-expected",
        Arg.Set_string gen_expected,
        "PATH write the expected DV table (Reference engine) and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let nproc = Domain.recommended_domain_count () in
  if !gen_expected <> "" then begin
    let lanes = Util.Pool.create ~domains:nproc () in
    let n = Reqpool.write_expected ~pool:lanes !gen_expected in
    Util.Pool.shutdown lanes;
    Printf.printf "wrote %d expected DV entries to %s\n" n !gen_expected;
    exit 0
  end;
  let chosen =
    match !workload with
    | "all" -> workloads
    | name -> (
        match List.find_opt (fun w -> workload_name w = name) workloads with
        | Some w -> [ w ]
        | None ->
            prerr_endline ("unknown workload " ^ name ^ "\n" ^ usage);
            exit 2)
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (* Every process of the fleet plans on one lane, this one included. *)
  Unix.putenv "CHIMERA_DOMAINS" "1";
  (* Paths are relative to the repository root, where run.py starts us. *)
  let abs p = Filename.concat (Sys.getcwd ()) p in
  let work_dir = abs ".perfbench" in
  let scratch = Filename.concat work_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let env =
    {
      exe = abs "_build/default/bin/chimera_cli.exe";
      work_dir = scratch;
      trace_dir = work_dir;
      workers = Int.min 2 nproc;
      nproc;
      expected = Reqpool.read_expected "perfbench/expected_dv.json";
      seed = !seed;
      seconds = !seconds;
      commit = Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown";
    }
  in
  Driver.mkdir_p scratch;
  let traced = !trace = 1 in
  let results =
    Fun.protect
      ~finally:(fun () -> Driver.rm_rf scratch)
      (fun () ->
        List.map
          (fun w ->
            let t, metrics, info = if traced then per_layer env w else end_to_end env w in
            print_table env w ~trace:traced t metrics info;
            (w, t, metrics))
          chosen)
  in
  let json =
    match results with
    | [ (_, t, metrics) ] -> result_json ~prefix:"" t metrics
    | _ ->
        let t =
          List.fold_left
            (fun acc (_, t, _) -> merge_tallies acc t)
            {
              attempted = 0; full = 0; degraded = 0; shed = 0; errored = 0;
              unanswered = 0; wrong = []; gate_self_test = Ok 0;
            }
            results
        in
        result_json ~prefix:"" t
          (List.concat_map
             (fun (w, _, metrics) ->
               List.map (fun x -> { x with name = workload_name w ^ "." ^ x.name }) metrics)
             results)
  in
  print_endline (Util.Json.to_string json);
  if not (List.for_all (fun (_, t, _) -> correct t) results) then exit 1
