type source = Cache | Compiled

type verify_mode = Verify_off | Verify_warn | Verify_strict

type response = {
  fingerprint : Fingerprint.t;
  source : source;
  rung : Plan_cache.rung;
  degraded : string option;
  compiled : Chimera.Compiler.compiled;
  seconds : float;
  verification : Verify.Diagnostic.t list;
  certificate : string option;
  trace : Obs.Trace.t option;
}

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Planning (pure: safe to run inside a domain)                        *)
(* ------------------------------------------------------------------ *)

(* Plan every sub-chain, or report the first failure as a typed error.
   Also returns the number of planner/tuner solves performed.  [check]
   is the cooperative deadline check; any exception a sub-chain's solve
   raises is contained here, so one poisoned request can never escape
   into the surrounding batch or domain. *)
let plan_subs ?(check = fun () -> ()) ?pool ?(obs = Obs.Trace.none) config
    ~machine ~registry subs =
  let rec go acc solves = function
    | [] -> Ok (List.rev acc, solves)
    | (sub : Ir.Chain.t) :: rest -> (
        match
          check ();
          Failpoint.hit ~ctx:sub.Ir.Chain.name "plan.solve";
          Chimera.Compiler.plan_unit ~check ?pool ~obs config ~machine
            ~registry sub
        with
        | Ok up -> go (up :: acc) (solves + 1) rest
        | Error `No_feasible_tiling ->
            Error
              ( Error.No_feasible_tiling
                  (sub.Ir.Chain.name ^ ": no feasible tiling"),
                solves + 1 )
        | exception Deadline.Expired ->
            Error (Error.Deadline_exceeded sub.Ir.Chain.name, solves)
        | exception e -> Error (Error.of_exn e, solves))
  in
  go [] 0 subs

(* The ladder's last rung: per-operator heuristic tiling, no planner
   solve and no deadline check — cheap enough that it always runs to
   completion, which is what "always answer" means. *)
let heuristic_units ?(obs = Obs.Trace.none) ~machine subs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (sub : Ir.Chain.t) :: rest -> (
        match
          Failpoint.hit ~ctx:sub.Ir.Chain.name "plan.heuristic";
          Obs.Trace.span obs "plan.heuristic"
            ~attrs:
              (if Obs.Trace.enabled obs then [ ("chain", sub.Ir.Chain.name) ]
               else [])
            (fun _ -> Chimera.Advisor.heuristic_unit_plan ~machine sub)
        with
        | Ok up -> go (up :: acc) rest
        | Error reason -> Error (Error.No_feasible_tiling reason)
        | exception e -> Error (Error.of_exn e))
  in
  go [] subs

let combine_reasons earlier later =
  match (earlier, later) with
  | None, r | r, None -> r
  | Some a, Some b -> Some (a ^ "; " ^ b)

(* Plan one request down the degradation ladder: fused (rung 1, when
   fusion is on), analytically planned split stages (rung 2), heuristic
   per-operator tiling (rung 3).  Starting at rung 2 because fusion is
   off is not a degradation; landing there because rung 1 failed is.
   Returns the entry, the solve count, and whether any rung was cut
   short by the deadline — the caller counts deadline hits even when a
   lower rung then answered successfully. *)
let plan_entry ?deadline ?pool ?(obs = Obs.Trace.none) ~config ~machine chain
    =
  let registry = Chimera.Compiler.registry_for config in
  let check =
    Option.value (Deadline.checker deadline) ~default:(fun () -> ())
  in
  let deadline_hit = ref false in
  let note_deadline = function
    | Error.Deadline_exceeded _ -> deadline_hit := true
    | _ -> ()
  in
  let split = Chimera.Compiler.split_stages chain in
  let heuristic ~degrade_reason ~solves =
    match heuristic_units ~obs ~machine split with
    | Ok units ->
        Ok ({ Plan_cache.rung = Heuristic; degrade_reason; units }, solves)
    | Error e -> Error (e, solves)
  in
  let split_plan ~degrade_reason ~solves =
    if Deadline.expired_opt deadline then begin
      deadline_hit := true;
      heuristic
        ~degrade_reason:
          (combine_reasons degrade_reason
             (Some "deadline expired before split planning"))
        ~solves
    end
    else
      match plan_subs ~check ?pool ~obs config ~machine ~registry split with
      | Ok (units, s) ->
          Ok ({ Plan_cache.rung = Split; degrade_reason; units }, solves + s)
      | Error (e, s) ->
          note_deadline e;
          heuristic
            ~degrade_reason:
              (combine_reasons degrade_reason (Some (Error.to_string e)))
            ~solves:(solves + s)
  in
  let result =
    if config.Chimera.Config.use_fusion then
      match plan_subs ~check ?pool ~obs config ~machine ~registry [ chain ]
      with
      | Ok (units, s) ->
          Ok ({ Plan_cache.rung = Fused; degrade_reason = None; units }, s)
      | Error (e, s) ->
          note_deadline e;
          split_plan ~degrade_reason:(Some (Error.to_string e)) ~solves:s
    else split_plan ~degrade_reason:None ~solves:0
  in
  (* When every rung failed and the budget expired along the way, the
     deadline is the actionable cause — it is the retryable one. *)
  let result =
    match result with
    | Error (Error.Deadline_exceeded _, _) -> result
    | Error (_, s) when !deadline_hit ->
        Error (Error.Deadline_exceeded chain.Ir.Chain.name, s)
    | _ -> result
  in
  (result, !deadline_hit)

(* ------------------------------------------------------------------ *)
(* Kernel reconstruction                                               *)
(* ------------------------------------------------------------------ *)

let materialize ?(obs = Obs.Trace.none) ~config ~machine chain
    (entry : Plan_cache.entry) =
  let registry = Chimera.Compiler.registry_for config in
  let subs =
    match entry.Plan_cache.rung with
    | Plan_cache.Fused -> [ chain ]
    | Plan_cache.Split | Plan_cache.Heuristic ->
        Chimera.Compiler.split_stages chain
  in
  if List.length subs <> List.length entry.Plan_cache.units then
    Error
      (Error.Internal "cached entry does not match the chain's decomposition")
  else
    Obs.Trace.span obs "codegen" (fun obs ->
        Ok
          {
            Chimera.Compiler.chain;
            machine;
            config;
            units =
              List.map2
                (Chimera.Compiler.kernel_of_unit_plan ~obs ~machine ~registry)
                subs entry.Plan_cache.units;
          })

(* ------------------------------------------------------------------ *)
(* Metrics plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let bump metrics f = Option.iter f metrics

let note_response metrics (r : (response, Error.t) result) =
  bump metrics (fun (m : Metrics.t) ->
      match r with
      | Ok { degraded; rung; _ } ->
          if degraded <> None then m.degraded <- m.degraded + 1;
          if rung = Plan_cache.Heuristic then m.heuristic <- m.heuristic + 1
      | Error e -> (
          m.failed <- m.failed + 1;
          match e with
          | Error.Invalid_request _ ->
              m.invalid_requests <- m.invalid_requests + 1
          | Error.Internal _ -> m.internal_errors <- m.internal_errors + 1
          | Error.No_feasible_tiling _ | Error.Deadline_exceeded _
          | Error.Cache_corrupt _ | Error.Verify_failed _
          | Error.Overloaded _ ->
              (* deadline hits are counted once per planned request by
                 [note_deadline_hit]; verification failures by
                 [apply_verify] — success or failure alike. *)
              ()))

let note_deadline_hit metrics hit =
  if hit then
    bump metrics (fun (m : Metrics.t) ->
        m.deadline_exceeded <- m.deadline_exceeded + 1)

let note_solves metrics solves =
  bump metrics (fun (m : Metrics.t) ->
      m.planner_solves <- m.planner_solves + solves)

(* Model evaluations and pruned orders accumulated while planning an
   entry: every level plan of every unit carries the counters the
   planner recorded; the tuner path reports its trials as evaluations. *)
let entry_search_stats (entry : Plan_cache.entry) =
  List.fold_left
    (fun acc (up : Chimera.Compiler.unit_plan) ->
      let evals, pruned =
        List.fold_left
          (fun (e, p) (lp : Analytical.Planner.level_plan) ->
            ( e + lp.Analytical.Planner.plan.Analytical.Planner.solver_evals,
              p + lp.Analytical.Planner.plan.Analytical.Planner.perms_pruned
            ))
          acc up.Chimera.Compiler.level_plans
      in
      match up.Chimera.Compiler.tuner_result with
      | Some r -> (evals + r.Chimera.Tuner.trials_run, pruned)
      | None -> (evals, pruned))
    (0, 0) entry.Plan_cache.units

let note_plan_search metrics planned =
  bump metrics (fun (m : Metrics.t) ->
      match planned with
      | Ok ((entry : Plan_cache.entry), _) ->
          let evals, pruned = entry_search_stats entry in
          m.plan_evals_total <- m.plan_evals_total + evals;
          m.plan_perms_pruned_total <- m.plan_perms_pruned_total + pruned
      | Error _ -> ())

(* Latency attribution: fold each request's finished trace into the
   metrics histograms exactly once, on the main domain.  Wall-clock
   totals (compile_seconds / plan_solve_ms_total) are derived from the
   solve histogram's sum, which observes the same interval the old
   float counters accumulated. *)
let note_trace metrics trace =
  bump metrics (fun (m : Metrics.t) -> Metrics.observe_trace m trace)

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

(* The optimality-certificate verdict for a verified response, from
   the diagnostics plus the plans themselves.  Precedence: an actual
   certificate error beats everything; a unit with no (or partial)
   certificates makes the response uncertified; a conditional
   certificate taints an otherwise fully certified response. *)
let certificate_verdict (resp : response) ds =
  let plans_of (u : Chimera.Compiler.unit_) =
    u.Chimera.Compiler.kernel.Codegen.Kernel.level_plans
  in
  let units = resp.compiled.Chimera.Compiler.units in
  if
    List.exists
      (fun (d : Verify.Diagnostic.t) ->
        Verify.Cert_check.error_code d.Verify.Diagnostic.code)
      ds
  then "failed"
  else if
    not (List.for_all (fun u -> Verify.Cert_check.certified (plans_of u)) units)
  then "uncertified"
  else if List.exists (fun u -> Verify.Cert_check.conditional (plans_of u)) units
  then "conditional"
  else "certified"

let note_certificate metrics verdict =
  bump metrics (fun (m : Metrics.t) ->
      match verdict with
      | "certified" ->
          m.verify_certified_total <- m.verify_certified_total + 1
      | "conditional" ->
          m.verify_conditional_total <- m.verify_conditional_total + 1
      | "uncertified" ->
          m.verify_uncertifiable_total <- m.verify_uncertifiable_total + 1
      | _ ->
          (* "failed" is already visible as verify_failures. *)
          ())

(* Run the static-analysis passes over a successful response — fresh
   plans and cache hits alike, because marshalled cache entries bypass
   every constructor check, so a corrupt or stale cache file is exactly
   what this catches.  Each entry is checked at most once per process:
   the diagnostics are stored on the plan-cache node holding [entry]
   (with the display labels they mention) and reused by every later
   response built from that same entry under the same labels.  Strict
   mode rejects responses carrying error diagnostics; warn mode
   annotates them.  The verifier itself is contained like any other
   per-request step: an exception inside it never poisons the batch,
   and is never stored. *)
let apply_verify ?(obs = Obs.Trace.none) ?pool ~verify ~cache metrics entry
    (resp : response) =
  match verify with
  | Verify_off -> Ok resp
  | Verify_warn | Verify_strict -> (
      let compiled = resp.compiled in
      let chain_label = compiled.Chimera.Compiler.chain.Ir.Chain.name in
      let machine_label =
        compiled.Chimera.Compiler.machine.Arch.Machine.name
      in
      match
        Obs.Trace.span obs "verify" (fun obs ->
            match Plan_cache.verdict cache resp.fingerprint entry with
            | Some v
              when v.Plan_cache.chain_label = chain_label
                   && v.Plan_cache.machine_label = machine_label ->
                Obs.Trace.annot obs [ ("reused", "true") ];
                bump metrics (fun (m : Metrics.t) ->
                    m.verify_reused <- m.verify_reused + 1);
                v.Plan_cache.diagnostics
            | _ ->
                Obs.Trace.annot obs [ ("reused", "false") ];
                bump metrics (fun (m : Metrics.t) ->
                    m.verify_runs <- m.verify_runs + 1);
                Failpoint.hit ~ctx:chain_label "verify.check";
                let diagnostics =
                  Verify.Driver.check_compiled ?pool ~obs compiled
                in
                Plan_cache.set_verdict cache resp.fingerprint entry
                  { Plan_cache.chain_label; machine_label; diagnostics };
                diagnostics)
      with
      | exception e -> (
          match verify with
          | Verify_strict ->
              Error
                (Error.Verify_failed
                   ("verifier raised: " ^ Printexc.to_string e))
          | _ -> Ok resp)
      | ds ->
          let verdict = certificate_verdict resp ds in
          note_certificate metrics verdict;
          let resp = { resp with certificate = Some verdict } in
          if Verify.Diagnostic.ok ds then begin
            if ds <> [] then
              bump metrics (fun (m : Metrics.t) ->
                  m.verify_warnings <- m.verify_warnings + 1);
            Ok { resp with verification = ds }
          end
          else begin
            bump metrics (fun (m : Metrics.t) ->
                m.verify_failures <- m.verify_failures + 1);
            match verify with
            | Verify_strict ->
                Error (Error.Verify_failed (Verify.Diagnostic.summary ds))
            | _ -> Ok { resp with verification = ds }
          end)

(* Materialize [entry] into a response for one request, then verify it.
   The one response builder shared by [compile] and [run]. *)
let respond ?pool ~verify ~cache metrics ~obs ~trace ~fp ~config ~machine
    chain source seconds entry =
  Result.bind
    (materialize ~obs ~config ~machine chain entry)
    (fun compiled ->
      apply_verify ~obs ?pool ~verify ~cache metrics entry
        {
          fingerprint = fp;
          source;
          rung = entry.Plan_cache.rung;
          degraded = entry.Plan_cache.degrade_reason;
          compiled;
          seconds;
          verification = [];
          certificate = None;
          trace = Some trace;
        })

(* The batch must survive anything planning throws, including faults
   injected below [plan_subs]'s own containment (e.g. in
   [registry_for]). *)
let guarded_plan_entry ?deadline ?pool ?obs ~config ~machine chain =
  try plan_entry ?deadline ?pool ?obs ~config ~machine chain
  with e ->
    let err = Error.of_exn e in
    let hit = match err with Error.Deadline_exceeded _ -> true | _ -> false in
    (Error (err, 0), hit)

(* ------------------------------------------------------------------ *)
(* Single-request path (used by the serve loop)                        *)
(* ------------------------------------------------------------------ *)

let compile ?cache ?metrics ?(config = Chimera.Config.default) ?deadline
    ?pool ?(verify = Verify_off) ?obs ~machine chain =
  bump metrics (fun (m : Metrics.t) -> m.requests <- m.requests + 1);
  let cache =
    match cache with Some c -> c | None -> Plan_cache.create ?metrics ()
  in
  (* Every compile is traced — callers that pass no trace still get
     their latencies attributed in the metrics histograms.  Library
     callers that want zero tracing overhead use the planner directly
     (see bench/exp_obs.ml for the cost of this trade). *)
  let trace =
    match obs with
    | Some t -> t
    | None -> Obs.Trace.make ~label:chain.Ir.Chain.name ()
  in
  let result =
    Obs.Trace.span (Obs.Trace.ctx trace) "request" (fun ctx ->
        let fp =
          Obs.Trace.span ctx "fingerprint" (fun _ ->
              Fingerprint.of_request ~chain ~machine ~config)
        in
        let respond =
          respond ?pool ~verify ~cache metrics ~obs:ctx ~trace ~fp ~config
            ~machine chain
        in
        match
          Obs.Trace.span ctx "cache.lookup" (fun ctx ->
              let hit = Plan_cache.find cache fp in
              Obs.Trace.annot ctx
                [ ("hit", if hit = None then "false" else "true") ];
              hit)
        with
        | Some entry -> respond Cache 0.0 entry
        | None ->
            Result.bind
              (Obs.Trace.span ctx "solve" (fun ctx ->
                    let t0 = now () in
                    let planned, deadline_hit =
                      guarded_plan_entry ?deadline ?pool ~obs:ctx ~config
                        ~machine chain
                    in
                    let dt = now () -. t0 in
                    note_plan_search metrics planned;
                    note_deadline_hit metrics deadline_hit;
                    match planned with
                    | Error (err, solves) ->
                        note_solves metrics solves;
                        Obs.Trace.annot ctx [ ("outcome", Error.code err) ];
                        Error err
                    | Ok (entry, solves) ->
                        note_solves metrics solves;
                        Obs.Trace.annot ctx
                          [
                            ( "rung",
                              Plan_cache.rung_to_string entry.Plan_cache.rung );
                            ("solves", string_of_int solves);
                          ];
                        Plan_cache.add cache fp entry;
                        Ok (entry, dt)))
              (fun (entry, dt) -> respond Compiled dt entry))
  in
  note_trace metrics trace;
  note_response metrics result;
  result

(* ------------------------------------------------------------------ *)
(* Batch path                                                          *)
(* ------------------------------------------------------------------ *)

type pending = {
  fp : Fingerprint.t;
  p_config : Chimera.Config.t;
  p_machine : Arch.Machine.t;
  p_chain : Ir.Chain.t;
  p_deadline_ms : float option;
  p_trace : Obs.Trace.t;
  hit : Plan_cache.entry option;
}

type slot = Unresolved of Error.t | Pending of pending

let run ?(jobs = 1) ?cache ?metrics ?(config = Chimera.Config.default)
    ?deadline_ms ?pool ?(verify = Verify_off) requests =
  let cache =
    match cache with Some c -> c | None -> Plan_cache.create ?metrics ()
  in
  (* Phase 1: resolve, fingerprint and probe the cache, in order.  Each
     resolvable request gets its own trace; batch phases interleave
     across requests, so a request's spans are recorded as siblings on
     its trace rather than under a single root. *)
  let slots =
    List.map
      (fun req ->
        bump metrics (fun (m : Metrics.t) -> m.requests <- m.requests + 1);
        match Request.resolve req with
        | Error e -> (req, Unresolved e)
        | Ok (chain, machine) ->
            let p_trace = Obs.Trace.make ~label:(Request.describe req) () in
            let ctx = Obs.Trace.ctx p_trace in
            let p_config = Request.config_of ~base:config req in
            let fp =
              Obs.Trace.span ctx "fingerprint" (fun _ ->
                  Fingerprint.of_request ~chain ~machine ~config:p_config)
            in
            let hit =
              Obs.Trace.span ctx "cache.lookup" (fun ctx ->
                  let hit = Plan_cache.find cache fp in
                  Obs.Trace.annot ctx
                    [ ("hit", if hit = None then "false" else "true") ];
                  hit)
            in
            let p_deadline_ms =
              (* the request's own budget wins over the batch default;
                 the clock starts when its planning starts, not here. *)
              match req.Request.deadline_ms with
              | Some _ as d -> d
              | None -> deadline_ms
            in
            ( req,
              Pending
                {
                  fp;
                  p_config;
                  p_machine = machine;
                  p_chain = chain;
                  p_deadline_ms;
                  p_trace;
                  hit;
                } ))
      requests
  in
  (* Phase 2: deduplicate the misses by fingerprint.  Deadlines are not
     part of the fingerprint: duplicates plan once, under the budget of
     the first occurrence (whose trace carries the solve spans). *)
  let seen = Hashtbl.create 32 in
  let misses =
    List.filter_map
      (fun (_, slot) ->
        match slot with
        | Pending ({ hit = None; fp; _ } as p) ->
            let key = Fingerprint.to_hex fp in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.add seen key ();
              Some p
            end
        | _ -> None)
      slots
  in
  (* Phase 3: plan the misses on the shared domain pool.  Planning is
     pure — results are committed on the main domain afterwards, so
     parallel and sequential batches produce identical plans and the
     cache/metrics never race.  [guarded_plan_entry] contains every
     exception, so a poisoned request degrades (or errors) on its own
     and never kills the lane carrying it.

     [jobs] caps the lanes planning across requests.  At [jobs = 1]
     (the default) the fan-out runs inline and the pool stays free, so
     the planner parallelizes *within* each request — across candidate
     block orders — instead: a batch of one still uses every lane.  At
     [jobs > 1] the pool is held by the cross-request job and nested
     per-order fan-outs fall back inline on their lane. *)
  let pool = match pool with Some p -> p | None -> Util.Pool.global () in
  let plan_miss p =
    let ctx = Obs.Trace.ctx p.p_trace in
    Obs.Trace.span ctx "solve" (fun ctx ->
        let t0 = now () in
        let deadline = Option.map Deadline.of_ms p.p_deadline_ms in
        let planned, deadline_hit =
          guarded_plan_entry ?deadline ~pool ~obs:ctx ~config:p.p_config
            ~machine:p.p_machine p.p_chain
        in
        (match planned with
        | Ok (entry, solves) ->
            Obs.Trace.annot ctx
              [
                ("rung", Plan_cache.rung_to_string entry.Plan_cache.rung);
                ("solves", string_of_int solves);
              ]
        | Error (err, _) -> Obs.Trace.annot ctx [ ("outcome", Error.code err) ]);
        (p.fp, planned, deadline_hit, now () -. t0))
  in
  let n_misses = List.length misses in
  let n_jobs = Util.Ints.clamp ~lo:1 ~hi:(max 1 n_misses) jobs in
  let planned =
    let arr = Array.of_list misses in
    Array.to_list
      (Util.Pool.run ~max_workers:n_jobs pool
         (fun i -> plan_miss arr.(i))
         (Array.length arr))
  in
  (* Phase 4: commit plans to the cache and metrics on the main domain. *)
  let outcomes = Hashtbl.create 32 in
  List.iter
    (fun (fp, planned, deadline_hit, dt) ->
      note_plan_search metrics planned;
      note_deadline_hit metrics deadline_hit;
      match planned with
      | Ok (entry, solves) ->
          note_solves metrics solves;
          Plan_cache.add cache fp entry;
          Hashtbl.replace outcomes (Fingerprint.to_hex fp) (Ok (entry, dt))
      | Error (err, solves) ->
          note_solves metrics solves;
          Hashtbl.replace outcomes (Fingerprint.to_hex fp) (Error err))
    planned;
  (* Phase 5: rebuild kernels for every request, in input order.  Each
     slot's trace is folded into the metrics histograms here, once —
     deduplicated requests have distinct traces (only the planning
     representative's carries solve spans), so nothing double-counts. *)
  List.map
    (fun (req, slot) ->
      let result =
        match slot with
        | Unresolved e -> Error e
        | Pending { fp; p_config; p_machine; p_chain; p_trace; hit; _ } -> (
            let respond =
              respond ~pool ~verify ~cache metrics
                ~obs:(Obs.Trace.ctx p_trace) ~trace:p_trace ~fp
                ~config:p_config ~machine:p_machine p_chain
            in
            let result =
              match hit with
              | Some entry -> respond Cache 0.0 entry
              | None -> (
                  match
                    Hashtbl.find_opt outcomes (Fingerprint.to_hex fp)
                  with
                  | Some (Ok (entry, dt)) -> respond Compiled dt entry
                  | Some (Error err) -> Error err
                  | None ->
                      Error (Error.Internal "request was never planned"))
            in
            note_trace metrics p_trace;
            result)
      in
      note_response metrics result;
      (req, result))
    slots
