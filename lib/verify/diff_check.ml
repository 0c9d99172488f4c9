type sim_result = {
  model_dv_bytes : float;
  edge_dv_bytes : float;
  mu_bytes : int;
  blocks : int;
}

let stage_loops perm (op : Ir.Operator.t) =
  List.filter (Ir.Operator.uses_axis op) perm

(* One tensor reference of a stage, frozen for the walk.  Positions
   index the stage's loop nest (outermost first). *)
type walk_ref = {
  w_io : bool;
  w_df : int;  (* full-tile footprint: the model's charge per reload *)
  w_inner : int;
      (* innermost position the access uses whose loop iterates
         (trips > 1), or -1 *)
  w_ragged : int array;  (* used positions whose last tile is ragged *)
  w_dtype_bytes : int;
  w_dims : (int * (int * int * int) array) array;
      (* per dimension: (dim bound, [(position or -1, fixed tile,
         coeff)]) — a term on a non-loop axis keeps its tiling size *)
}

let simulate ?(max_blocks = 200_000) (chain : Ir.Chain.t) ~perm ~tiling =
  Analytical.Movement.validate_perm chain perm;
  let total_blocks =
    List.fold_left
      (fun acc (s : Ir.Chain.stage) ->
        acc
        +. List.fold_left
             (fun p a ->
               p *. float_of_int (Analytical.Tiling.trip_count tiling a))
             1.0
             (stage_loops perm s.Ir.Chain.op))
      0.0 chain.Ir.Chain.stages
  in
  if total_blocks > float_of_int max_blocks then None
  else begin
    let io = Ir.Chain.io_names chain in
    let model_dv = ref 0.0 in
    let edge_dv = ref 0.0 in
    let mu = ref 0 in
    let blocks = ref 0 in
    List.iter
      (fun (stage : Ir.Chain.stage) ->
        let op = stage.Ir.Chain.op in
        (* This stage's loop nest: the permutation restricted to the
           operator's axes, outermost first.  (Producer-private loops of
           earlier stages never appear in a later operator's axes, so
           observation 3 is implied by the restriction.) *)
        let loops = Array.of_list (stage_loops perm op) in
        let n = Array.length loops in
        let trips = Array.map (Analytical.Tiling.trip_count tiling) loops in
        let tiles = Array.map (Analytical.Tiling.get tiling) loops in
        (* Every block but a loop's last sees its full tile; the last
           one is clipped to what remains of the extent. *)
        let last =
          Array.mapi
            (fun i axis ->
              min tiles.(i)
                (Analytical.Tiling.extent_of tiling axis
                - ((trips.(i) - 1) * tiles.(i))))
            loops
        in
        let pos_of axis =
          let rec find i =
            if i >= n then -1
            else if String.equal loops.(i) axis then i
            else find (i + 1)
          in
          find 0
        in
        let refs =
          Array.of_list
            (List.map
               (fun (r : Ir.Operator.tensor_ref) ->
                 let used i =
                   Ir.Access.uses_axis r.Ir.Operator.access loops.(i)
                 in
                 let inner = ref (-1) in
                 let ragged = ref [] in
                 for i = 0 to n - 1 do
                   if used i && trips.(i) > 1 then inner := i;
                   if used i && last.(i) <> tiles.(i) then
                     ragged := i :: !ragged
                 done;
                 {
                   w_io = List.mem r.Ir.Operator.tensor io;
                   w_df =
                     Ir.Operator.tile_footprint_bytes r
                       ~tile_of:(Analytical.Tiling.tile_of tiling);
                   w_inner = !inner;
                   w_ragged = Array.of_list !ragged;
                   w_dtype_bytes = Tensor.Dtype.bytes r.Ir.Operator.dtype;
                   w_dims =
                     Array.of_list
                       (List.map2
                          (fun (d : Ir.Access.dim) bound ->
                            ( bound,
                              Array.of_list
                                (List.map
                                   (fun (t : Ir.Access.term) ->
                                     ( pos_of t.Ir.Access.axis,
                                       Analytical.Tiling.get tiling
                                         t.Ir.Access.axis,
                                       t.Ir.Access.coeff ))
                                   d.Ir.Access.terms) ))
                          r.Ir.Operator.access r.Ir.Operator.dims);
                 })
               (Ir.Operator.all_refs op))
        in
        let nrefs = Array.length refs in
        let idx = Array.make n 0 in
        (* A reference's clipped footprint differs from [w_df] only while
           a ragged last tile it reads is active. *)
        let edge_fp r =
          let ragged = ref false in
          for j = 0 to Array.length r.w_ragged - 1 do
            let i = r.w_ragged.(j) in
            if idx.(i) = trips.(i) - 1 then ragged := true
          done;
          if not !ragged then r.w_df
          else begin
            let elems = ref 1 in
            for d = 0 to Array.length r.w_dims - 1 do
              let bound, terms = r.w_dims.(d) in
              let span = ref 0 in
              for t = 0 to Array.length terms - 1 do
                let pos, fixed, coeff = terms.(t) in
                let tile =
                  if pos < 0 then fixed
                  else if idx.(pos) = trips.(pos) - 1 then last.(pos)
                  else tiles.(pos)
                in
                span := !span + (coeff * (tile - 1))
              done;
              let span = !span + 1 in
              elems := !elems * if span < bound then span else bound
            done;
            !elems * r.w_dtype_bytes
          end
        in
        (* The data tile a block touches is determined by the block
           indices of the positions its access uses.  An advance that
           carries into position [c] changes [c] and resets every
           iterating position inside it, so a reference reloads exactly
           when [c] is at or outside its innermost iterating used
           position.  The first block ([c = -1]) loads everything. *)
        let carry = ref (-1) in
        let running = ref true in
        while !running do
          incr blocks;
          let working_set = ref 0 in
          for k = 0 to nrefs - 1 do
            let r = refs.(k) in
            let fp = edge_fp r in
            working_set := !working_set + fp;
            if r.w_io && !carry <= r.w_inner then begin
              model_dv := !model_dv +. float_of_int r.w_df;
              edge_dv := !edge_dv +. float_of_int fp
            end
          done;
          if !working_set > !mu then mu := !working_set;
          (* Advance the odometer, innermost position first. *)
          let i = ref (n - 1) in
          while !i >= 0 && idx.(!i) + 1 >= trips.(!i) do
            idx.(!i) <- 0;
            decr i
          done;
          if !i < 0 then running := false
          else begin
            idx.(!i) <- idx.(!i) + 1;
            carry := !i
          end
        done)
      chain.Ir.Chain.stages;
    Some
      {
        model_dv_bytes = !model_dv;
        edge_dv_bytes = !edge_dv;
        mu_bytes = !mu;
        blocks = !blocks;
      }
  end

let default_dv_tolerance (chain : Ir.Chain.t) =
  let io = Ir.Chain.io_names chain in
  let widest =
    List.fold_left
      (fun acc (stage : Ir.Chain.stage) ->
        List.fold_left
          (fun acc (r : Ir.Operator.tensor_ref) ->
            if List.mem r.Ir.Operator.tensor io then
              let indexed =
                List.length
                  (List.filter
                     (fun (d : Ir.Access.dim) -> d.Ir.Access.terms <> [])
                     r.Ir.Operator.access)
              in
              max acc indexed
            else acc)
          acc
          (Ir.Operator.all_refs stage.Ir.Chain.op))
      1 chain.Ir.Chain.stages
  in
  2.0 ** float_of_int widest

let rel_close a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-9 *. scale

let check ?max_blocks ?dv_tolerance (chain : Ir.Chain.t) ~perm ~tiling
    ~(movement : Analytical.Movement.result) =
  let l ?part () = Diagnostic.loc ?part chain.Ir.Chain.name in
  match simulate ?max_blocks chain ~perm ~tiling with
  | None ->
      [
        Diagnostic.warningf ~code:"CHIM023" (l ())
          "differential check skipped: the walk would visit more blocks \
           than the budget allows";
      ]
  | Some sim ->
      let ds = ref [] in
      let add d = ds := d :: !ds in
      if not (rel_close sim.model_dv_bytes movement.Analytical.Movement.dv_bytes)
      then
        add
          (Diagnostic.errorf ~code:"CHIM020" (l ~part:"dv" ())
             "block walk moved %.6g model-unit bytes but the analytical DV \
              is %.6g"
             sim.model_dv_bytes movement.Analytical.Movement.dv_bytes);
      if sim.mu_bytes <> movement.Analytical.Movement.mu_bytes then
        add
          (Diagnostic.errorf ~code:"CHIM021" (l ~part:"mu" ())
             "block walk peaked at %d bytes but the analytical MU is %d"
             sim.mu_bytes movement.Analytical.Movement.mu_bytes);
      let tolerance =
        match dv_tolerance with
        | Some t -> t
        | None -> default_dv_tolerance chain
      in
      if sim.edge_dv_bytes > sim.model_dv_bytes *. (1.0 +. 1e-9) then
        add
          (Diagnostic.errorf ~code:"CHIM022" (l ~part:"dv" ())
             "edge-aware DV %.6g exceeds the model-unit DV %.6g — the model \
              must overcharge edges, never undercharge"
             sim.edge_dv_bytes sim.model_dv_bytes)
      else if
        sim.edge_dv_bytes > 0.0
        && sim.model_dv_bytes > tolerance *. sim.edge_dv_bytes
      then
        add
          (Diagnostic.errorf ~code:"CHIM022" (l ~part:"dv" ())
             "model-unit DV %.6g is more than %gx the edge-aware DV %.6g"
             sim.model_dv_bytes tolerance sim.edge_dv_bytes);
      List.rev !ds

(* The default [slack] widens the paper's approximation-ratio bound,
   which is derived for the free two-variable optimum and neglects the
   alpha floor imposed on [T_N, T_K]: when M and L sit near sqrt(MC)
   the alpha-tile terms it drops are not small.  Sweeping ~4000 shapes
   across capacities 4K..2M elems, the worst observed excess over the
   paper's bound is 1.88x, so 2.5 is a sound band that still flags a
   solver regression or a corrupted DV well before a factor of 4. *)
let check_closed_form ~m ~n ~k ~l ~capacity_elems ?alpha ?(slack = 2.5) () =
  match
    Analytical.Closed_form.solve ~m ~n ~k ~l ~capacity_elems ?alpha ()
  with
  | exception Invalid_argument _ -> []
  | sol ->
      let dv_opt =
        Analytical.Closed_form.dv_optimal_elems ~m ~n ~k ~l ~capacity_elems
          ?alpha ()
      in
      let chain =
        Ir.Chain.batch_gemm_chain ~name:"closed-form-check" ~batch:1 ~m ~n ~k
          ~l ()
      in
      let tiling =
        Analytical.Tiling.make chain
          [
            ("m", sol.Analytical.Closed_form.t_m);
            ("n", sol.Analytical.Closed_form.t_n);
            ("k", sol.Analytical.Closed_form.t_k);
            ("l", sol.Analytical.Closed_form.t_l);
          ]
      in
      let perm = [ "b"; "m"; "l"; "k"; "n" ] in
      let dtype_bytes =
        Tensor.Dtype.bytes (Ir.Chain.find_ref chain "A").Ir.Operator.dtype
      in
      let dv_app_elems =
        (Analytical.Movement.analyze chain ~perm ~tiling)
          .Analytical.Movement.dv_bytes
        /. float_of_int dtype_bytes
      in
      let bound =
        Analytical.Closed_form.approximation_ratio_bound ~m ~l ~capacity_elems
      in
      let loc = Diagnostic.loc ~part:"closed-form" "closed-form-check" in
      let ds = ref [] in
      if dv_app_elems < dv_opt *. (1.0 -. 1e-9) then
        ds :=
          Diagnostic.errorf ~code:"CHIM024" loc
            "achieved DV %.6g elems is below the provable optimum %.6g"
            dv_app_elems dv_opt
          :: !ds;
      if dv_app_elems > bound *. slack *. dv_opt then
        ds :=
          Diagnostic.errorf ~code:"CHIM024" loc
            "achieved DV %.6g elems exceeds the approximation bound %.6g \
             (ratio %.3f, bound %.3f with %.2f rounding slack)"
            dv_app_elems
            (bound *. slack *. dv_opt)
            (dv_app_elems /. dv_opt) bound slack
          :: !ds;
      List.rev !ds
