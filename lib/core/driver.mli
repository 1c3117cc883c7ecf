(** The driver: the public end-to-end API of the reproduction, composing
    the layer stack of the paper's Fig. 1 (FileManager → SourceManager →
    Lexer → Preprocessor → Parser → Sema → CodeGen) with the mid-end pass
    pipeline and the interpreter.

    Since the stage-graph refactor this module is a thin walk over
    {!Mc_core.Pipeline}, which owns stage execution, per-stage caching
    and stats scoping; the types below are re-exports, so [Driver.result]
    and [Pipeline.result] interconvert freely.

    Options mirror the Clang flags the paper discusses:
    [use_irbuilder] is [-fopenmp-enable-irbuilder]; [optimize] enables the
    O1 pipeline (mem2reg, constprop, LoopUnroll, cleanups); [fold] toggles
    the IRBuilder's on-the-fly simplification (ablation A4). *)

type options = Pipeline.options = {
  use_irbuilder : bool; (* -fopenmp-enable-irbuilder *)
  optimize : bool; (* run the O1 pass pipeline *)
  fold : bool; (* IRBuilder on-the-fly folding *)
  verify_ir : bool; (* verify after codegen and passes *)
  defines : (string * string) list; (* -D name=value *)
  extra_files : (string * string) list; (* virtual #include targets *)
  error_limit : int; (* -ferror-limit (0 = unlimited); default 20 *)
  bracket_depth : int; (* -fbracket-depth parser recursion guard *)
  loop_nest_limit : int; (* -floop-nest-limit directive depth cap *)
  transfo_script : string option; (* --transfo-script contents *)
  transfo_check : bool; (* differential oracle per script step *)
  analyze : string list option; (* --analyze pass selection ([] = all) *)
}

val default_options : options

type timings = Pipeline.timings = {
  t_lex : float; (* tokenizing the main buffer *)
  t_preprocess : float;
  t_parse_sema : float;
  t_codegen : float;
  t_passes : float;
}
(** Wall-clock seconds actually spent executing each stage; a stage
    served from a cache contributes 0. *)

type result = Pipeline.result = {
  diag : Mc_diag.Diagnostics.t;
  srcmgr : Mc_srcmgr.Source_manager.t;
  ir : Mc_ir.Ir.modul option; (* None when errors or codegen unsupported *)
  codegen_error : string option;
  timings : timings;
  unroll_stats : Mc_passes.Loop_unroll.stats;
  stats : Mc_support.Stats.snapshot; (* pipeline counters for this compile *)
  transformed : (string * string) option;
      (* (rewritten source, step trace) when a transfo script ran *)
  analysis : Mc_analysis.Report.t option;
      (* dataflow analysis report when --analyze was requested *)
}

val compile : ?options:options -> ?name:string -> string -> result
(** Compiles a source string through the whole pipeline (uncached; give
    {!Pipeline.execute} a {!Cache} — or use {!Mc_core.Instance} — for
    per-stage memoization).

    Timings are monotonic wall clock ({!Mc_support.Clock}).  Each call
    runs in its own scoped stats registry, snapshotted into
    [result.stats] and then {e merged} into the calling domain's current
    registry — the caller's counters accrue but are never reset, so
    embedders' registries survive.  [compile] is fully reentrant: all
    remaining mutable compilation state is domain-local and reset per
    call. *)

val frontend : ?options:options -> ?name:string -> string ->
  Mc_diag.Diagnostics.t * Mc_ast.Tree.translation_unit
(** Stops after Sema (the [-syntax-only] action); useful for AST dumps. *)

val ast_dump : ?options:options -> ?shadow:bool -> string -> string
(** The [-ast-dump] action on a source string. *)

val run :
  ?config:Mc_interp.Interp.config -> result -> (Mc_interp.Interp.outcome, string) Result.t
(** Executes [main] of a successfully compiled result. *)

val compile_and_run :
  ?options:options ->
  ?config:Mc_interp.Interp.config ->
  string ->
  (Mc_interp.Interp.outcome, string) Result.t
(** Convenience composition; [Error] carries diagnostics or trap output. *)
