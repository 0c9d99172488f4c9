let check_chain = Ir_check.check

(* The level whose plan faces DRAM: last of the innermost-first list. *)
let outermost_plan (kernel : Codegen.Kernel.t) =
  match List.rev kernel.Codegen.Kernel.level_plans with
  | (outer : Analytical.Planner.level_plan) :: _ ->
      Some outer.Analytical.Planner.plan
  | [] -> None

let closed_form_check (chain : Ir.Chain.t) ~(machine : Arch.Machine.t) =
  let axes = List.sort compare (Ir.Axis.names chain.Ir.Chain.axes) in
  if axes = [ "b"; "k"; "l"; "m"; "n" ] && Ir.Chain.stage_count chain = 2
  then begin
    let e a = Ir.Chain.extent_of chain a in
    let capacity_elems =
      (Arch.Machine.primary_on_chip machine).Arch.Level.capacity_bytes
      / Tensor.Dtype.bytes Tensor.Dtype.Fp16
    in
    Diff_check.check_closed_form ~m:(e "m") ~n:(e "n") ~k:(e "k") ~l:(e "l")
      ~capacity_elems ()
  end
  else []

let check_unit ?max_blocks ?dv_tolerance ?require_certificates ?pool
    ?(obs = Obs.Trace.none) (u : Chimera.Compiler.unit_) =
  Obs.Trace.span obs "verify.unit"
    ~attrs:
      (if Obs.Trace.enabled obs then
         [ ("chain", u.Chimera.Compiler.sub_chain.Ir.Chain.name) ]
       else [])
  @@ fun obs ->
  let chain = u.Chimera.Compiler.sub_chain in
  let kernel = u.Chimera.Compiler.kernel in
  let ir = Ir_check.check chain in
  if not (Diagnostic.ok ir) then ir
  else begin
    let plan_ds =
      match kernel.Codegen.Kernel.level_plans with
      | [] ->
          Diagnostic.infof ~code:"CHIM018"
            (Diagnostic.loc chain.Ir.Chain.name)
            "no analytical plan to check: the tiling was chosen by the \
             sampling tuner"
          :: Plan_check.check_decomposition chain ~perm:kernel.Codegen.Kernel.perm
               ~tiling:kernel.Codegen.Kernel.tiling
      | lps -> Plan_check.check_level_plans chain lps
    in
    let diff_ds =
      if not (Diagnostic.ok plan_ds) then []
      else
        let perm, tiling, movement =
          match outermost_plan kernel with
          | Some (p : Analytical.Planner.plan) ->
              (p.Analytical.Planner.perm, p.Analytical.Planner.tiling,
               p.Analytical.Planner.movement)
          | None ->
              let perm = kernel.Codegen.Kernel.perm in
              let tiling = kernel.Codegen.Kernel.tiling in
              (perm, tiling, Analytical.Movement.analyze chain ~perm ~tiling)
        in
        Obs.Trace.span obs "verify.diff" @@ fun _ ->
        Diff_check.check ?max_blocks ?dv_tolerance chain ~perm ~tiling
          ~movement
    in
    let cert_ds =
      (* Certificates re-analyze recorded tilings, so only a plan that
         passed the structural checks above is safe to re-derive. *)
      if not (Diagnostic.ok plan_ds) then []
      else
        Obs.Trace.span obs "verify.cert" @@ fun _ ->
        Cert_check.check_level_plans ?require_certificates ?pool chain
          kernel.Codegen.Kernel.level_plans
    in
    let cf_ds =
      closed_form_check chain ~machine:kernel.Codegen.Kernel.machine
    in
    let cg_ds = Codegen_check.check kernel in
    ir @ plan_ds @ cert_ds @ diff_ds @ cf_ds @ cg_ds
  end

let check_compiled ?max_blocks ?dv_tolerance ?require_certificates ?pool ?obs
    (c : Chimera.Compiler.compiled) =
  List.concat_map
    (check_unit ?max_blocks ?dv_tolerance ?require_certificates ?pool ?obs)
    c.Chimera.Compiler.units
