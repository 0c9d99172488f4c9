type t = {
  workload : string;
  arch : string;
  softmax : bool;
  relu : bool;
  batch : int option;
  fusion : bool;
  tuner : bool;
  deadline_ms : float option;
  timings : bool;
  traceparent : string option;
}

let make ?(softmax = false) ?(relu = false) ?batch ?(fusion = true)
    ?(tuner = false) ?deadline_ms ?(timings = false) ?traceparent ~workload
    ~arch () =
  {
    workload;
    arch;
    softmax;
    relu;
    batch;
    fusion;
    tuner;
    deadline_ms;
    timings;
    traceparent;
  }

(* ------------------------------------------------------------------ *)
(* Validation limits                                                   *)
(* ------------------------------------------------------------------ *)

let max_stages = 64
let max_axis_extent = 1 lsl 20

let invalid field reason = Error (Error.Invalid_request { field; reason })

let validate_chain (chain : Ir.Chain.t) =
  let stages = Ir.Chain.stage_count chain in
  if stages > max_stages then
    invalid "workload"
      (Printf.sprintf "chain %s has %d stages (limit %d)"
         chain.Ir.Chain.name stages max_stages)
  else
    let rec check_axes = function
      | [] -> Ok ()
      | (axis : Ir.Axis.t) :: rest ->
          if axis.extent <= 0 then
            invalid "workload"
              (Printf.sprintf "axis %s has non-positive extent %d" axis.name
                 axis.extent)
          else if axis.extent > max_axis_extent then
            invalid "batch"
              (Printf.sprintf "axis %s extent %d exceeds the limit %d"
                 axis.name axis.extent max_axis_extent)
          else check_axes rest
    in
    check_axes chain.Ir.Chain.axes

let validate_fields t =
  match t.batch with
  | Some b when b <= 0 ->
      invalid "batch" (Printf.sprintf "must be positive, got %d" b)
  | Some b when b > max_axis_extent ->
      invalid "batch"
        (Printf.sprintf "%d exceeds the limit %d" b max_axis_extent)
  | _ -> (
      match t.deadline_ms with
      | Some d when not (Float.is_finite d) || d <= 0.0 ->
          invalid "deadline_ms" "must be a positive finite number"
      | _ -> Ok ())

let resolve t =
  match validate_fields t with
  | Error _ as e -> e
  | Ok () -> (
      match Arch.Presets.by_name t.arch with
      | None ->
          invalid "arch" (Printf.sprintf "unknown arch %S (cpu|gpu|npu)" t.arch)
      | Some machine -> (
          let built =
            (* Chain builders validate their own invariants with
               [Invalid_argument]; surface that as a typed rejection
               rather than letting it escape into the serve loop. *)
            match Workloads.Gemm_configs.by_name t.workload with
            | Some c ->
                Some
                  (try
                     Ok
                       (Workloads.Gemm_configs.chain ~softmax:t.softmax
                          ?batch_override:t.batch c)
                   with Invalid_argument reason -> invalid "batch" reason)
            | None -> (
                match Workloads.Conv_configs.by_name t.workload with
                | Some c ->
                    Some
                      (try
                         Ok
                           (Workloads.Conv_configs.chain ~relu:t.relu
                              ?batch:t.batch c)
                       with Invalid_argument reason -> invalid "batch" reason)
                | None -> None)
          in
          match built with
          | None ->
              invalid "workload"
                (Printf.sprintf
                   "unknown workload %S (G1..G12 from Table IV, C1..C8 from \
                    Table V)"
                   t.workload)
          | Some (Error _ as e) -> e
          | Some (Ok chain) -> (
              match validate_chain chain with
              | Error _ as e -> e
              | Ok () -> Ok (chain, machine))))

let config_of ?(base = Chimera.Config.default) t =
  {
    base with
    Chimera.Config.use_fusion = t.fusion;
    (* [tuner] forces the sampling path; it never turns the cost model
       back on when the base config already disables it. *)
    use_cost_model = base.Chimera.Config.use_cost_model && not t.tuner;
  }

(* Length-prefixed strings and fixed-width flags keep the encoding
   injective: two requests share an identity exactly when these seven
   fields are equal. *)
let identity t =
  let flag b = if b then '1' else '0' in
  Printf.sprintf "%d:%s%d:%s%c%c%c%c%s" (String.length t.workload) t.workload
    (String.length t.arch) t.arch (flag t.softmax) (flag t.relu)
    (flag t.fusion) (flag t.tuner)
    (match t.batch with Some b -> string_of_int b | None -> "")

let deadline_of ?default_ms t =
  match (t.deadline_ms, default_ms) with
  | Some ms, _ | None, Some ms -> Some (Deadline.of_ms ms)
  | None, None -> None

(* ------------------------------------------------------------------ *)
(* JSON wire form                                                      *)
(* ------------------------------------------------------------------ *)

let of_json json =
  let open Util.Json in
  let str key = Option.bind (member key json) to_string_opt in
  let flag key default =
    match Option.bind (member key json) to_bool_opt with
    | Some b -> b
    | None -> default
  in
  match json with
  | Obj _ -> (
      match (str "workload", str "arch") with
      | None, _ -> Error "missing or non-string \"workload\" field"
      | _, None -> Error "missing or non-string \"arch\" field"
      | Some workload, Some arch ->
          Ok
            {
              workload;
              arch;
              softmax = flag "softmax" false;
              relu = flag "relu" false;
              batch = Option.bind (member "batch" json) to_int_opt;
              fusion = flag "fusion" true;
              tuner = flag "tuner" false;
              deadline_ms =
                Option.bind (member "deadline_ms" json) to_float_opt;
              timings = flag "timings" false;
              traceparent = str "traceparent";
            })
  | _ -> Error "request must be a JSON object"

let to_json t =
  let open Util.Json in
  Obj
    ([
       ("workload", String t.workload);
       ("arch", String t.arch);
       ("softmax", Bool t.softmax);
       ("relu", Bool t.relu);
     ]
    @ (match t.batch with Some b -> [ ("batch", Int b) ] | None -> [])
    @ [ ("fusion", Bool t.fusion) ]
    @ (if t.tuner then [ ("tuner", Bool true) ] else [])
    @ (match t.deadline_ms with
      | Some d -> [ ("deadline_ms", Float d) ]
      | None -> [])
    @ (if t.timings then [ ("timings", Bool true) ] else [])
    @
    match t.traceparent with
    | Some tp -> [ ("traceparent", String tp) ]
    | None -> [])

let all_gemm_x_arch () =
  List.concat_map
    (fun (arch, _) ->
      List.map
        (fun (g : Workloads.Gemm_configs.t) ->
          make ~workload:g.Workloads.Gemm_configs.name ~arch ())
        Workloads.Gemm_configs.all)
    Arch.Presets.all

let describe t =
  Printf.sprintf "%s@%s%s%s%s%s" t.workload t.arch
    (if t.softmax then "+softmax" else "")
    (if t.relu then "+relu" else "")
    (match t.batch with Some b -> Printf.sprintf "+batch=%d" b | None -> "")
    (if t.fusion then "" else "+nofusion")
    ^ if t.tuner then "+tuner" else ""
