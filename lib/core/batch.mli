(** Parallel batch compilation: compiles N independent translation units
    concurrently on OCaml domains, one {!Instance} (hence one stats
    registry) per unit, optionally sharing one content-addressed
    {!Cache} across all workers.

    Results are deterministic: units are reported in input order
    whatever the scheduling, and — because every piece of per-compile
    mutable state (stats, node/instruction ids, generated names) is
    domain-local and reset per compilation — each unit's IR printout and
    counter snapshot are byte-identical whether the batch ran on 1
    domain or N.  (With a shared cache, {e which} duplicate unit
    compiles first is scheduling-dependent; hit/miss attribution may
    vary, results never.) *)

type unit_result = {
  u_name : string;
  u_result : (Driver.result, Instance.failure) result;
      (** [Error] is a contained internal compiler error (phase,
          exception, watermark, optional reproducer bundle); ordinary
          compile errors are an [Ok] result with error diagnostics.
          Workers use {!Instance.compile_safe}, so one unit's ICE —
          including [Stack_overflow] / [Out_of_memory] — never disturbs
          its siblings. *)
  u_cache_hit : bool;
      (** whole-pipeline hit: every stage from the parser onward reused *)
  u_trace : Pipeline.trace;
      (** per-stage outcomes for this unit ([[]] on a contained ICE) *)
  u_fn_trace : (string * Pipeline.outcome) list;
      (** slice outcomes for this unit (see {!Pipeline.exec.x_fn_trace};
          [[]] on a contained ICE or when the unit's AST manifest
          was reused) *)
  u_stats : Mc_support.Stats.snapshot; (** this unit's registry snapshot *)
  u_wall : float; (** wall seconds spent on this unit *)
}

type t = {
  units : unit_result list; (** in input order *)
  stats : Mc_support.Stats.snapshot; (** key-wise sum over all units *)
  wall : float; (** wall seconds for the whole batch *)
  jobs : int; (** domains actually used *)
}

val compile :
  ?jobs:int ->
  ?cache:Cache.t ->
  invocation:Invocation.t ->
  (string * string) list ->
  t
(** [compile ~invocation units] compiles each [(name, source)] unit.
    [jobs] defaults to the invocation's [jobs] field and is clamped to
    the unit count; [cache] defaults to the invocation's
    {!Instance.default_cache}, shared by every unit of the batch: a
    store-backed cache under [--cache-dir], an in-memory one under
    [--cache] or [--incremental], else none. *)

val compile_into : Instance.t -> (string * string) list -> t
(** Like {!compile}, but drives the batch on behalf of a parent
    instance: jobs and cache come from the instance, and every unit's
    registry is merged into the instance registry afterwards (in input
    order), so the instance's [-print-stats] / [-ftime-report] cover the
    whole batch. *)

val hits : t -> int
(** Number of units served from the cache. *)

val ices : t -> int
(** Units that died with a contained internal compiler error. *)

val codegen_errors : t -> int
(** Units CodeGen refused ([codegen_error] set, no IR). *)

val errors : t -> int
(** Units that compiled but produced error diagnostics. *)

val all_ok : t -> bool
(** No contained ICEs and no error diagnostics in any unit. *)
