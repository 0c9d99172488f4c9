(* The traced in-process replay.

   Each request line a fleet pass sent is pushed through the public
   functions the serve loop calls, in the serve loop's order, with a
   span from this file around every call:

     Util.Json.parse -> Request.of_json/resolve -> Fingerprint.of_request
     -> Plan_cache.find -> (miss) Compiler.plan_unit -> Plan_cache.add
     -> Compiler.kernel_of_unit_plan -> Cert_check.check_level_plans
     -> Util.Json.to_string -> (new plan) Plan_cache.save

   Saves go to the fleet pass's shared cache directory, so each one
   merges with the file at the workload's size, as a worker's does.
   Misses are planned to completion on the fused rung: the deadline the
   router injects under saturation shows in the fleet pass, not here. *)

let tid = 2

type t = {
  spans : Spans.t;
  cache : Service.Plan_cache.t;
  dir : string;
  pool : Util.Pool.t;
  mutable requests : int;
  mutable solves : int;
  mutable evals : int;
  mutable pruned : int;
  mutable candidates : int;
}

let create ~spans ~dir =
  {
    spans;
    cache = Service.Plan_cache.create ();
    dir;
    pool = Util.Pool.global ();
    requests = 0;
    solves = 0;
    evals = 0;
    pruned = 0;
    candidates = 0;
  }

let span t name f = Spans.time t.spans ~name ~tid f

(* Load the shared cache file into the replay's cache: the warm start a
   restarted worker makes. *)
let load t =
  span t "plan_cache.load" (fun () ->
      ignore (Service.Plan_cache.load t.cache ~dir:t.dir))

(* Time one load of the shared file into a throwaway cache. *)
let time_load t =
  let scratch = Service.Plan_cache.create () in
  span t "plan_cache.load" (fun () ->
      ignore (Service.Plan_cache.load scratch ~dir:t.dir))

let note_plan t (up : Chimera.Compiler.unit_plan) =
  t.solves <- t.solves + 1;
  List.iter
    (fun (lp : Analytical.Planner.level_plan) ->
      let p = lp.Analytical.Planner.plan in
      t.evals <- t.evals + p.Analytical.Planner.solver_evals;
      t.pruned <- t.pruned + p.Analytical.Planner.perms_pruned;
      t.candidates <- t.candidates + p.Analytical.Planner.candidates_evaluated)
    up.Chimera.Compiler.level_plans

(* The answer's wire form, as the serve loop builds it. *)
let response_json req fp (entry : Service.Plan_cache.entry)
    (compiled : Chimera.Compiler.compiled) =
  let open Util.Json in
  let unit_json (u : Chimera.Compiler.unit_) =
    let k = u.Chimera.Compiler.kernel in
    Obj
      [
        ("kernel", String u.Chimera.Compiler.sub_chain.Ir.Chain.name);
        ("order", String (String.concat "" k.Codegen.Kernel.perm));
        ( "tiling",
          Obj
            (List.map
               (fun (a, s) -> (a, Int s))
               (Analytical.Tiling.bindings k.Codegen.Kernel.tiling)) );
        ("dv_bytes", Float (Codegen.Kernel.predicted_dv_bytes k));
        ("mu_bytes", Int (Codegen.Kernel.predicted_mu_bytes k));
      ]
  in
  Obj
    [
      ("ok", Bool true);
      ("workload", String req.Service.Request.workload);
      ("arch", String req.Service.Request.arch);
      ("fingerprint", String (Service.Fingerprint.to_hex fp));
      ("rung", String (Service.Plan_cache.rung_to_string entry.Service.Plan_cache.rung));
      ("degraded", Null);
      ("units", List (List.map unit_json compiled.Chimera.Compiler.units));
      ("estimated_us", Float (Chimera.Compiler.total_time_seconds compiled *. 1e6));
      ("certificate", String "certified");
    ]

let request t line =
  let t_req = Unix.gettimeofday () in
  let json =
    match span t "json.parse" (fun () -> Util.Json.parse line) with
    | Ok j -> j
    | Error e -> failwith ("replay: unparseable request: " ^ e)
  in
  let req, chain, machine, config =
    span t "request.resolve" (fun () ->
        match Service.Request.of_json json with
        | Error e -> failwith ("replay: " ^ e)
        | Ok req -> (
            match Service.Request.resolve req with
            | Error e -> failwith ("replay: " ^ Service.Error.to_string e)
            | Ok (chain, machine) ->
                (req, chain, machine, Service.Request.config_of req)))
  in
  let fp =
    span t "fingerprint" (fun () ->
        Service.Fingerprint.of_request ~chain ~machine ~config)
  in
  let registry = Chimera.Compiler.registry_for config in
  let hit = span t "plan_cache.find" (fun () -> Service.Plan_cache.find t.cache fp) in
  let entry =
    match hit with
    | Some entry -> entry
    | None ->
        let up =
          match
            span t "planner.plan_unit" (fun () ->
                Chimera.Compiler.plan_unit ~pool:t.pool config ~machine ~registry
                  chain)
          with
          | Ok up -> up
          | Error `No_feasible_tiling -> failwith "replay: no feasible tiling"
        in
        note_plan t up;
        let entry =
          {
            Service.Plan_cache.rung = Service.Plan_cache.Fused;
            degrade_reason = None;
            units = [ up ];
          }
        in
        span t "plan_cache.add" (fun () -> Service.Plan_cache.add t.cache fp entry);
        entry
  in
  let subs =
    match entry.Service.Plan_cache.rung with
    | Service.Plan_cache.Fused -> [ chain ]
    | Service.Plan_cache.Split | Service.Plan_cache.Heuristic ->
        Chimera.Compiler.split_stages chain
  in
  let units =
    List.map2
      (fun sub up ->
        span t "codegen.kernel" (fun () ->
            Chimera.Compiler.kernel_of_unit_plan ~machine ~registry sub up))
      subs entry.Service.Plan_cache.units
  in
  List.iter
    (fun (u : Chimera.Compiler.unit_) ->
      let ds =
        span t "cert_check" (fun () ->
            Verify.Cert_check.check_level_plans ~pool:t.pool
              u.Chimera.Compiler.sub_chain
              u.Chimera.Compiler.kernel.Codegen.Kernel.level_plans)
      in
      if not (Verify.Diagnostic.ok ds) then
        failwith ("replay: certificate check failed for " ^ Service.Request.describe req))
    units;
  let compiled = { Chimera.Compiler.chain; machine; config; units } in
  let resp = response_json req fp entry compiled in
  ignore (span t "json.print" (fun () -> Util.Json.to_string resp));
  if Service.Plan_cache.dirty t.cache then
    span t "plan_cache.save" (fun () -> Service.Plan_cache.save t.cache ~dir:t.dir);
  Spans.record t.spans ~name:"replay.request" ~tid t_req (Unix.gettimeofday ());
  t.requests <- t.requests + 1

(* Replay [lines] in order until they run out or [seconds] elapse. *)
let run t ~seconds lines =
  let fin = Unix.gettimeofday () +. seconds in
  let rec go = function
    | line :: rest when Unix.gettimeofday () < fin ->
        request t line;
        go rest
    | _ -> ()
  in
  go lines
