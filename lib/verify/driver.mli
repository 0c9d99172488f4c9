(** The verifier entry point: run every applicable pass over a chain or
    a compiled unit and return the combined findings.

    Pass order and gating: IR well-formedness first — a malformed chain
    makes the later passes meaningless (and some would raise), so IR
    errors short-circuit.  Plan checking next; the differential
    block-walk only runs when the decomposition carries no errors (a
    broken one cannot be simulated).  The codegen lint is structural
    and always runs.  Units tuned by the sampling fallback carry no
    analytical plan; they get a CHIM018 note, a decomposition check,
    and a differential check against a fresh analysis instead. *)

val check_chain : Ir.Chain.t -> Diagnostic.t list
(** Pass 1 only — for workloads that have not been planned yet. *)

val check_unit :
  ?max_blocks:int -> ?dv_tolerance:float -> ?require_certificates:bool ->
  ?pool:Util.Pool.t -> ?obs:Obs.Trace.ctx ->
  Chimera.Compiler.unit_ ->
  Diagnostic.t list
(** All passes over one compiled unit, plus — for canonical two-GEMM
    chains — the closed-form cross-check (CHIM024) at the machine's
    primary on-chip capacity.  Plans carrying an optimality
    certificate additionally get the {!Cert_check} pass
    (CHIM036-043); [require_certificates] (default false) upgrades a
    missing certificate on an analytical plan to a CHIM044 warning —
    [chimera lint --certify]'s behaviour.  [pool] parallelizes the
    certificate pass's per-order re-checks (see
    {!Cert_check.check_level_plans}); findings are identical with or
    without it. *)

val check_compiled :
  ?max_blocks:int -> ?dv_tolerance:float -> ?require_certificates:bool ->
  ?pool:Util.Pool.t -> ?obs:Obs.Trace.ctx ->
  Chimera.Compiler.compiled ->
  Diagnostic.t list
(** {!check_unit} over every unit of a compilation, in order.  [obs]
    (default disabled) traces each unit as a ["verify.unit"] span, with
    its certificate and differential passes as ["verify.cert"] and
    ["verify.diff"] children. *)
