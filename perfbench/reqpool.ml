(* The benchmark's request pool and the seeded request streams drawn
   from it.

   A combo is one chain on one machine: the distinct G1-G12 shapes with
   softmax off/on and C1-C8 with ReLU off/on, on cpu, gpu and npu (96
   combos).  Every combo is requested at [rounds] distinct batch
   overrides, so the pool holds 96 x [rounds] distinct fingerprints.

   Round [k] asks every combo once at batch index
   [(k + offset combo) mod rounds], where the seeded offsets give every
   batch index to the same number of combos, so every round holds the
   same multiset of batch sizes and only the seeded pairing of combos
   with batches differs between seeds. *)

type req = {
  request : Service.Request.t;
  key : string;  (** combo and batch, the expected-table key. *)
}

let archs = [ "cpu"; "gpu"; "npu" ]
let rounds = 8
let batch_of_index i = i + 1

let make (workload, arch, softmax, relu) ~batch =
  {
    request = Service.Request.make ~softmax ~relu ~batch ~workload ~arch ();
    key =
      Printf.sprintf "%s|%s|%s|%d" workload arch
        (if softmax then "softmax" else if relu then "relu" else "plain")
        batch;
  }

let fingerprint (r : req) =
  match Service.Request.resolve r.request with
  | Error e -> failwith (Service.Error.to_string e)
  | Ok (chain, machine) ->
      Service.Fingerprint.to_hex
        (Service.Fingerprint.of_request ~chain ~machine
           ~config:(Service.Request.config_of r.request))

(* Some table rows differ only in their batch size (G1-G3, G4/G5,
   G7/G8): under a batch override they are the same request, so only the
   first row of each shape is kept, leaving 96 combos. *)
let combos =
  let all =
    List.concat_map
      (fun arch ->
        List.concat_map
          (fun (g : Workloads.Gemm_configs.t) ->
            List.map
              (fun softmax -> (g.Workloads.Gemm_configs.name, arch, softmax, false))
              [ false; true ])
          Workloads.Gemm_configs.all
        @ List.concat_map
            (fun (c : Workloads.Conv_configs.t) ->
              List.map
                (fun relu -> (c.Workloads.Conv_configs.name, arch, false, relu))
                [ false; true ])
            Workloads.Conv_configs.all)
      archs
  in
  let seen = Hashtbl.create 128 in
  List.filter
    (fun combo ->
      let fp = fingerprint (make combo ~batch:1) in
      if Hashtbl.mem seen fp then false
      else begin
        Hashtbl.add seen fp ();
        true
      end)
    all
  |> Array.of_list

(* Every request of the pool, in a fixed order: what the expected table
   covers. *)
let all () =
  List.concat_map
    (fun combo ->
      List.init rounds (fun i -> make combo ~batch:(batch_of_index i)))
    (Array.to_list combos)

(* Every round asks the combos in one fixed order, a stride permutation
   that interleaves GEMM and conv chains across the three machines.
   The order is deliberately not seeded: plan-cache entries differ in
   size by two orders of magnitude (a C2 plan with its certificate is
   ~200 KB, a GEMM's ~3 KB), and every save rewrites the shared file,
   so where the large entries fall in a pass moves its throughput.  The
   seed decides which batch each combo gets in each round, balanced so
   that every round holds each batch index equally often. *)
let round_list ~seed k =
  let prng = Util.Prng.create ~seed in
  let n = Array.length combos in
  let offsets = Array.init n (fun i -> i mod rounds) in
  Util.Prng.shuffle prng offsets;
  List.init n (fun i ->
      let c = i * 37 mod n in
      make combos.(c) ~batch:(batch_of_index ((k + offsets.(c)) mod rounds)))

(* Rounds [first] .. [first + n - 1] (mod [rounds]): [96 n] distinct
   requests. *)
let cold_list ~seed ~first n =
  List.concat (List.init n (fun i -> round_list ~seed ((first + i) mod rounds)))

(* The warm pool, most popular first: [hot] distinct requests from
   rounds [tail], [tail + 1], ..., then rounds [0 .. tail - 1].  The
   ranks past the first [hot] are exactly [tail] rounds, every combo
   [tail] times: with [hot] the router's hot-tier capacity, the requests
   the workers answer always have the same mix of chains.  The ranking
   follows the rounds' fixed combo order, so the seed moves only the
   batch sizes, not which chains are popular. *)
let warm_pool ~seed ~hot ~tail =
  let n = Array.length combos in
  let heads = cold_list ~seed ~first:tail ((hot + n - 1) / n) in
  Array.of_list (List.filteri (fun i _ -> i < hot) heads @ cold_list ~seed ~first:0 tail)

(* Zipf(s) sampler over ranks [0, n): rank 0 is the most popular. *)
type zipf = { cdf : float array }

let zipf ~s n =
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  { cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w }

let zipf_draw z prng =
  let u = Util.Prng.float prng in
  let n = Array.length z.cdf in
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if z.cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
  in
  Int.min (n - 1) (bisect 0 (n - 1))

(* ------------------------------------------------------------------ *)
(* The expected table: fused-plan DV per pool request, computed once   *)
(* with the Reference solver engine and committed with the benchmark.  *)
(* ------------------------------------------------------------------ *)

let reference_dv (r : req) =
  match Service.Request.resolve r.request with
  | Error e -> failwith (Service.Error.to_string e)
  | Ok (chain, machine) -> (
      let config =
        {
          (Service.Request.config_of r.request) with
          Chimera.Config.solver_engine = `Reference;
        }
      in
      let registry = Chimera.Compiler.registry_for config in
      match Chimera.Compiler.plan_unit config ~machine ~registry chain with
      | Error `No_feasible_tiling -> failwith (r.key ^ ": no feasible tiling")
      | Ok up -> (
          match List.rev up.Chimera.Compiler.level_plans with
          | outer :: _ ->
              outer.Analytical.Planner.plan.Analytical.Planner.movement
                .Analytical.Movement.dv_bytes
          | [] -> failwith (r.key ^ ": no analytical plan")))

let write_expected ~pool path =
  let reqs = Array.of_list (all ()) in
  let dvs =
    Util.Pool.run pool (fun i -> reference_dv reqs.(i)) (Array.length reqs)
  in
  let json =
    Util.Json.Obj
      [
        ("engine", Util.Json.String "reference");
        ("rounds", Util.Json.Int rounds);
        ( "dv_bytes",
          Util.Json.Obj
            (Array.to_list
               (Array.mapi (fun i r -> (r.key, Util.Json.Float dvs.(i))) reqs))
        );
      ]
  in
  let oc = open_out path in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Array.length reqs

let read_expected path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Util.Json.parse text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok json -> (
      match Util.Json.member "dv_bytes" json with
      | Some (Util.Json.Obj fields) ->
          let tbl = Hashtbl.create (List.length fields) in
          List.iter
            (fun (k, v) ->
              match Util.Json.to_float_opt v with
              | Some dv -> Hashtbl.replace tbl k dv
              | None -> failwith (path ^ ": bad entry " ^ k))
            fields;
          tbl
      | _ -> failwith (path ^ ": no dv_bytes table"))
