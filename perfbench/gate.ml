(* The correctness gate every answer passes through.

   An ok answer must echo its request and carry the request's own
   fingerprint.  Each unit's DV and MU are re-derived from its served
   order and tiling with the reference [Analytical.Movement.analyze] and
   must equal the served values exactly.  A full (non-degraded) answer
   must be the fused rung, carry [certificate: "certified"] (the fleet
   runs [--verify strict]), and its DV must be no worse than the
   expected table's, which the Reference solver engine produced. *)

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let field name json =
  match Util.Json.member name json with
  | Some v -> Ok v
  | None -> fail "missing field %S" name

let string_field name json =
  let* v = field name json in
  match Util.Json.to_string_opt v with
  | Some s -> Ok s
  | None -> fail "field %S is not a string" name

let float_field name json =
  let* v = field name json in
  match Util.Json.to_float_opt v with
  | Some f -> Ok f
  | None -> fail "field %S is not a number" name

let int_field name json =
  let* v = field name json in
  match v with Util.Json.Int i -> Ok i | _ -> fail "field %S is not an int" name

(* The served order is the concatenated axis names, outermost first;
   split it back into a permutation of the chain's fused axes. *)
let parse_order chain order =
  let axes = Analytical.Movement.fused_axes chain in
  let n = String.length order in
  let rec go pos remaining acc =
    if pos = n then if remaining = [] then Some (List.rev acc) else None
    else
      List.find_map
        (fun a ->
          let l = String.length a in
          if pos + l <= n && String.sub order pos l = a then
            go (pos + l) (List.filter (( <> ) a) remaining) (a :: acc)
          else None)
        remaining
  in
  go 0 axes []

let check_unit sub json =
  let* kernel = string_field "kernel" json in
  let* () =
    if kernel = sub.Ir.Chain.name then Ok ()
    else fail "unit kernel %S, expected %S" kernel sub.Ir.Chain.name
  in
  let* order = string_field "order" json in
  let* perm =
    match parse_order sub order with
    | Some p -> Ok p
    | None -> fail "%s: order %S is not a permutation of the fused axes" kernel order
  in
  let* tiling =
    match Util.Json.member "tiling" json with
    | Some (Util.Json.Obj fields) ->
        let bindings =
          List.filter_map
            (fun (a, v) -> Option.map (fun s -> (a, s)) (Util.Json.to_int_opt v))
            fields
        in
        if List.length bindings <> List.length fields then
          fail "%s: non-integer tile size" kernel
        else Ok bindings
    | _ -> fail "%s: missing tiling" kernel
  in
  let* dv = float_field "dv_bytes" json in
  let* mu = int_field "mu_bytes" json in
  match
    Analytical.Movement.analyze sub ~perm
      ~tiling:(Analytical.Tiling.unchecked sub tiling)
  with
  | exception e -> fail "%s: re-analysis raised %s" kernel (Printexc.to_string e)
  | m ->
      if m.Analytical.Movement.dv_bytes <> dv then
        fail "%s: served dv_bytes %.17g, re-derived %.17g" kernel dv
          m.Analytical.Movement.dv_bytes
      else if m.Analytical.Movement.mu_bytes <> mu then
        fail "%s: served mu_bytes %d, re-derived %d" kernel mu
          m.Analytical.Movement.mu_bytes
      else Ok dv

let full json =
  match Util.Json.member "degraded" json with
  | Some Util.Json.Null | None -> true
  | Some _ -> false

(* Check one ok answer against its request. *)
let check ~expected (r : Reqpool.req) json =
  let req = r.Reqpool.request in
  let* chain, machine =
    Result.map_error Service.Error.to_string (Service.Request.resolve req)
  in
  let* workload = string_field "workload" json in
  let* arch = string_field "arch" json in
  let* () =
    if workload = req.Service.Request.workload && arch = req.Service.Request.arch
    then Ok ()
    else fail "answer for %s@%s, asked %s" workload arch (Service.Request.describe req)
  in
  let* fp = string_field "fingerprint" json in
  let want =
    Service.Fingerprint.to_hex
      (Service.Fingerprint.of_request ~chain ~machine
         ~config:(Service.Request.config_of req))
  in
  let* () = if fp = want then Ok () else fail "fingerprint %s, expected %s" fp want in
  let* rung = string_field "rung" json in
  let* subs =
    match rung with
    | "fused" -> Ok [ chain ]
    | "split" | "heuristic" -> Ok (Chimera.Compiler.split_stages chain)
    | other -> fail "unknown rung %S" other
  in
  let* units =
    match Util.Json.member "units" json with
    | Some (Util.Json.List us) when List.length us = List.length subs -> Ok us
    | _ -> fail "%s rung needs %d units" rung (List.length subs)
  in
  let* dvs =
    List.fold_left2
      (fun acc sub u ->
        let* acc = acc in
        let* dv = check_unit sub u in
        Ok (dv :: acc))
      (Ok []) subs units
  in
  let* est = float_field "estimated_us" json in
  let* () =
    if Float.is_finite est && est > 0.0 then Ok ()
    else fail "estimated_us %g is not a positive time" est
  in
  if not (full json) then Ok ()
  else
    let* () = if rung = "fused" then Ok () else fail "full answer on rung %s" rung in
    let* cert = string_field "certificate" json in
    let* () =
      if cert = "certified" then Ok () else fail "full answer certificate %S" cert
    in
    match (Hashtbl.find_opt expected r.Reqpool.key, dvs) with
    | None, _ -> fail "no expected DV for %s" r.Reqpool.key
    | Some want, [ dv ] ->
        if dv <= want then Ok ()
        else fail "dv_bytes %.17g worse than the expected %.17g" dv want
    | Some _, _ -> fail "fused answer with several units"

(* ------------------------------------------------------------------ *)
(* Tamper check: the gate must reject doctored copies of a good answer *)
(* ------------------------------------------------------------------ *)

let map_field name f = function
  | Util.Json.Obj fields ->
      Util.Json.Obj (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) fields)
  | j -> j

let map_unit f json =
  map_field "units"
    (function Util.Json.List (u :: rest) -> Util.Json.List (f u :: rest) | j -> j)
    json

(* Doctored copies of a passing full answer, each of which a sound gate
   rejects: a DV better than the plan achieves, a tiling the served DV
   does not belong to, a lost certificate, and a self-consistent but
   worse plan (all-ones tiles, DV and MU recomputed to match) that only
   the expected table catches. *)
let tampered (r : Reqpool.req) json =
  let chain =
    match Service.Request.resolve r.Reqpool.request with
    | Ok (chain, _) -> Some chain
    | Error _ -> None
  in
  let ones_json chain =
    Util.Json.Obj
      (List.map
         (fun (a, s) -> (a, Util.Json.Int s))
         (Analytical.Tiling.bindings (Analytical.Tiling.ones chain)))
  in
  let ones_tiling u =
    match chain with
    | Some chain -> map_field "tiling" (fun _ -> ones_json chain) u
    | None -> u
  in
  let worse_plan u =
    match (chain, Util.Json.member "order" u) with
    | Some chain, Some (Util.Json.String order) -> (
        match parse_order chain order with
        | None -> u
        | Some perm ->
            let m =
              Analytical.Movement.analyze chain ~perm
                ~tiling:(Analytical.Tiling.ones chain)
            in
            u
            |> map_field "tiling" (fun _ -> ones_json chain)
            |> map_field "dv_bytes" (fun _ -> Util.Json.Float m.Analytical.Movement.dv_bytes)
            |> map_field "mu_bytes" (fun _ -> Util.Json.Int m.Analytical.Movement.mu_bytes))
    | _ -> u
  in
  [
    ( "dv_bytes halved",
      map_unit
        (map_field "dv_bytes" (function
          | Util.Json.Float f -> Util.Json.Float (f /. 2.0)
          | j -> j))
        json );
    ("tiling replaced", map_unit ones_tiling json);
    ("certificate dropped", map_field "certificate" (fun _ -> Util.Json.String "uncertified") json);
    ("worse plan", map_unit worse_plan json);
  ]

(* [Ok n] when every doctored copy of the good answer was rejected. *)
let self_test ~expected (r : Reqpool.req) json =
  let doctored = tampered r json in
  let escaped =
    List.filter_map
      (fun (what, bad) ->
        match check ~expected r bad with Ok () -> Some what | Error _ -> None)
      doctored
  in
  match escaped with
  | [] -> Ok (List.length doctored)
  | l -> Error ("the gate accepted tampered answers: " ^ String.concat ", " l)
