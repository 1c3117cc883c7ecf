(** The [clang::CompilerInstance] analogue: one compilation context that
    owns its own {!Mc_support.Stats} registry (and optionally a stage
    cache), making the driver reentrant — any number of instances can
    coexist in one process, sequentially or on separate domains, without
    sharing mutable state.

    Every pipeline entry point here scopes the calling domain to the
    instance's registry for the duration of the call, so stage timers,
    layer counters, interpreter statistics and per-stage cache counters
    all land in (and render from) {e this} instance, never the
    process-global default registry. *)

type t

val create : ?cache:Cache.t -> Invocation.t -> t
(** A fresh instance with a zeroed registry.  When the invocation has
    [cache_enabled] (or [incremental]) and no [?cache] is supplied, a
    private stage cache is created; pass an explicit [?cache] to share
    one across instances (as {!Batch.compile} does across its
    workers). *)

val invocation : t -> Invocation.t
val registry : t -> Mc_support.Stats.Registry.t
val cache : t -> Cache.t option

val in_registry : t -> (unit -> 'a) -> 'a
(** Runs a thunk scoped to the instance registry — for driving pipeline
    pieces not wrapped here (e.g. interpreting a result so that
    [interp.*] counters land in the instance). *)

type compilation = {
  c_result : Driver.result;
  c_cache_hit : bool;
      (** Whole-pipeline hit: every stage from the parser onward was
          served from the stage cache. *)
  c_trace : Pipeline.trace;
      (** Per-stage outcomes, e.g. lex:run pp:run ast:hit ir:hit
          optir:hit for a comment-only edit. *)
  c_fn_trace : (string * Pipeline.outcome) list;
      (** Slice outcomes (see {!Pipeline.exec.x_fn_trace}): which
          top-level definitions were adopted from per-function artifacts
          versus parsed.  Empty when the unit's AST manifest was
          reused. *)
}

val compile : t -> ?name:string -> string -> compilation
(** {!Pipeline.execute} under the instance registry, consulting the
    stage cache when the instance has one.  Each stage is memoized
    independently: a same-source recompile hits every stage, a
    comment-only edit re-runs lex/pp and reuses AST, IR and OptIR, and
    an option change invalidates exactly the stages whose fingerprint
    slice it touches.  Cached artifacts carry no diagnostics (only
    diagnostic-free stage outputs are stored).  The result holds no AST:
    {!Driver.frontend} (or {!frontend}) parses one when a caller needs
    it.

    The instance registry is cumulative: the pipeline runs each
    compilation in its own scoped registry and merges it into the
    instance registry afterwards, so counters from repeated [compile]
    calls — including the per-stage [cache.*] counters — add up rather
    than overwrite. *)

val recompile : t -> ?name:string -> string -> compilation
(** Incremental recompilation: exactly {!compile}, but guarantees the
    instance has a stage cache (creating a private one on first use even
    when the invocation did not enable caching).  Call once for the cold
    build, then again after each edit; the returned [c_trace] shows
    which stages the edit actually re-ran. *)

val frontend :
  t -> ?name:string -> string ->
  Mc_diag.Diagnostics.t * Mc_ast.Tree.translation_unit
(** {!Driver.frontend} under the instance registry. *)

(** {1 Fault containment}

    The [clang::CrashRecoveryContext] analogue: the [_safe] entry points
    convert {e any} exception escaping the pipeline — including
    [Stack_overflow] and [Out_of_memory] — into a structured {!failure}
    instead of letting it unwind the embedder, so one broken unit cannot
    take down a batch or an interactive session. *)

type failure = {
  f_ice : Mc_support.Crash_recovery.ice;
    (* phase, exception, source watermark, backtrace *)
  f_reproducer : string option;
    (* ICE bundle directory ({!Reproducer}), when one was written *)
}

val compile_safe :
  t -> ?name:string -> string -> (compilation, failure) result
(** {!compile} with fault containment.  On an ICE: the [driver.ices]
    counter is bumped, a reproducer bundle is written (unless the
    invocation has [gen_reproducer = false]), whatever statistics the
    unit accrued before dying still merge into the instance registry —
    and no artifact of the stage that died was stored, since storing is
    the last act of each successfully executed stage. *)

val frontend_safe :
  t -> ?name:string -> string ->
  (Mc_diag.Diagnostics.t * Mc_ast.Tree.translation_unit, failure) result
(** {!frontend} with the same containment. *)

val run :
  t -> ?config:Mc_interp.Interp.config -> Driver.result ->
  (Mc_interp.Interp.outcome, string) Result.t
(** {!Driver.run} under the instance registry, so interpreter counters
    accrue to the instance. *)

val compile_and_run :
  t -> ?config:Mc_interp.Interp.config -> ?name:string -> string ->
  (Mc_interp.Interp.outcome, string) Result.t

val stats : t -> Mc_support.Stats.snapshot
val render_stats : t -> string
val render_time_report : t -> string

val exit_reports : t -> string
(** The reports the invocation requested ([-ftime-report] /
    [-print-stats]) rendered from the instance registry — at most once:
    subsequent calls return [""].  This is the per-instance fix for the
    PR-1 CLI bug where every compile in a process re-registered an
    [at_exit] hook over the global registry and exit double-reported. *)

val report_at_exit : t -> unit
(** Registers an [at_exit] hook printing {!exit_reports} to stderr; a
    no-op for instances that requested no report.  Combined with the
    consuming semantics of {!exit_reports}, reports print exactly once
    per requesting instance however many hooks or explicit calls race
    for them. *)
