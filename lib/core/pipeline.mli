(** The stage-graph pipeline: the paper's Fig. 1 layer stack made
    explicit.

    Compilation is a linear DAG of typed stages —

    {v Source -> PPTokens -> AST(+Sema) -> IR -> OptIR v}

    — the pp, AST and OptIR stages each producing an artifact addressed
    by a content fingerprint: the hash of the stage's input artifact plus
    the stage-relevant slice of the options ({!option_slice}).  Given a
    stage {!Cache}, each such stage first consults the cache under its
    fingerprint and only executes on a miss.  Lexing runs inside the pp
    stage, and codegen has no unit artifact: its per-slice keys derive
    from the AST manifest.  Because the AST stage is content-addressed on
    the {e preprocessed stream}, a comment-only edit re-runs pp but
    reuses everything from the AST onward, while an option change
    invalidates exactly the stages whose slice mentions it.

    Only diagnostic-free stage outputs are ever cached, and storing is
    the last act of an executed stage — a compilation that ICEs can never
    have polluted the cache.  [-ferror-limit] is deliberately in no
    slice for the same reason: a diagnostic-free run is identical under
    any error limit.

    Warm paths read only what their caller uses.  The unit AST artifact
    is a manifest naming per-slice "fnast" artifacts, from which each
    slice's "fnir" key derives, and each slice looks up its post-pass
    module ("fnoptir") first: it reads its pre-pass IR only when its
    passes or analysis must run, and its decls only when its codegen
    must run.  A missing fnir snapshot is a counted miss and is
    re-emitted; a fnast member missing when it is needed (evicted,
    corrupt, a faulted read) turns the manifest's hit into a counted
    miss ({!Cache.reject}) and is rebuilt.  The IR is the same either
    way.

    The unit "optir" artifact's body is the final module marshalled
    ([Marshal.to_string module []]); its head is the unit's
    {!Mc_passes.Loop_unroll.stats}.  A caller that only forwards the IR
    (the daemon) asks {!execute} for it in [`Marshalled] form and gets
    those bytes, never decoded, in [result.ir_payload].

    Each execution runs in its own scoped stats registry (merged into
    the caller's on the way out, even on an ICE), so [result.stats] is
    exactly this compilation's events and concurrent domains never
    clobber an embedder's counters.

    {!Driver.compile} is a thin wrapper over {!execute}; {!Instance} and
    {!Batch} add crash containment and parallelism on top. *)

type options = {
  use_irbuilder : bool;  (** IRBuilder sema/codegen mode (paper §5). *)
  optimize : bool;  (** run the -O1 pass pipeline (else -O0). *)
  fold : bool;  (** constant-fold during codegen. *)
  defines : (string * string) list;  (** -D predefines, in order. *)
  extra_files : (string * string) list;  (** virtual #include files. *)
  error_limit : int;  (** -ferror-limit. *)
  bracket_depth : int;  (** parser nesting limit. *)
  loop_nest_limit : int;  (** sema perfect-nest analysis limit. *)
  transfo_script : string option;
      (** transformation-script contents ({!Mc_transfo.Script}); when
          present, the transfo pre-stage rewrites the source before the
          lexer ever sees it. *)
  transfo_check : bool;
      (** run the differential semantic oracle after every script step
          (on by default). *)
  analyze : string list option;
      (** run the {!Mc_analysis} passes over the pre-pass IR: [Some []]
          selects every pass, [Some ps] a subset (unknown names are
          ignored).  The report lands in [result.analysis] and is cached
          per slice. *)
}

val default_options : options

type timings = {
  t_lex : float;
  t_preprocess : float;
  t_parse_sema : float;
  t_codegen : float;
  t_passes : float;
}
(** Wall-clock seconds actually spent executing each stage in this
    compilation; a stage served from the cache contributes 0. *)

type result = {
  diag : Mc_diag.Diagnostics.t;
  srcmgr : Mc_srcmgr.Source_manager.t;
  ir : Mc_ir.Ir.modul option;
      (** The final module, in [`Module] form (see {!execute}); always
          [None] in [`Marshalled] form. *)
  ir_payload : string option;
      (** The final module as [Marshal.to_string module []], in
          [`Marshalled] form only: on a unit optir hit the stored
          artifact's body, copied out undecoded; on a miss the bytes the
          optir save stores.  Always [None] in [`Module] form. *)
  codegen_error : string option;
  timings : timings;
  unroll_stats : Mc_passes.Loop_unroll.stats;
  stats : Mc_support.Stats.snapshot;
  transformed : (string * string) option;
      (** When a transfo script ran (or hit the cache): the rewritten
          source and the rendered step trace. *)
  analysis : Mc_analysis.Report.t option;
      (** When [options.analyze] was set and IR was produced: the
          dataflow analysis report. *)
}
(** A compilation's outcome.  It holds no AST: a compilation served from
    the cache never builds one.  {!frontend} (or {!Driver.frontend})
    returns a unit's AST. *)

type stage = Transfo | Preprocess | Parse_sema | Codegen | Passes

val stages : stage list
(** In pipeline order. *)

val stage_name : stage -> string
(** -ftime-report / crash-phase label ("transfo", "preprocess",
    "parse-sema", "codegen", "passes") — stable across releases.
    Lexing runs inside the pp stage and is timed as its own phase,
    "lex". *)

val stage_tag : stage -> string
(** Tag in traces ("transfo", "pp", "ast", "ir", "optir").  For
    the cached stages (transfo, pp, ast, optir) it also names the
    artifact in the stage cache and its [cache.<tag>-*] counters.
    [Codegen]'s "ir" entry reports what codegen emitted: [run] for every
    declaring slice, [partial] for some, [hit] for none, and the AST
    stage's outcome for a unit with no declaring slice. *)

type outcome = Executed | Cache_hit | Partial
(** [Partial] is the function-granular middle ground: the unit-level
    artifact missed but at least one per-function artifact hit, so the
    stage re-ran only the changed slices and relinked the rest. *)

type trace = (stage * outcome) list
(** What happened to each stage reached by an execution, in pipeline
    order.  Stages after an error stop (or a codegen refusal) are
    absent. *)

val render_trace : trace -> string
(** E.g. ["pp:run ast:hit ir:hit optir:hit"] after a comment-only edit;
    a body edit on a warm cache renders ["pp:run ast:partial ir:partial
    optir:partial"]. *)

val render_fn_trace : (string * outcome) list -> string
(** Render {!exec.x_fn_trace} the same way, one token per slice: e.g.
    ["<decl>:hit f:hit main:run"] after an edit inside [main]'s body. *)

type exec = {
  x_result : result;
  x_trace : trace;
  x_full_hit : bool;
      (** Every stage from the parser onward was served from the cache —
          the whole-pipeline notion of a cache hit that [cache.hits]
          counts and {!Batch} reports. *)
  x_fn_trace : (string * outcome) list;
      (** Slice outcomes in unit order, labelled by the function
          definitions a slice holds (joined by ['+'] for a merged
          prototype-to-definition range) or ["<decl>"] when it holds
          none: [Cache_hit] when the slice's sema'd AST was adopted from
          a "fnast" artifact, [Executed] when it was parsed (always, in
          an uncached execution).  Empty only when the unit's AST
          manifest was reused, so no slice was walked. *)
}

val option_slice : stage -> options -> string
(** The canonical rendering of the slice of [options] that can affect a
    stage's output — the part of the fingerprint that makes, e.g., a
    [loop_nest_limit] change invalidate the AST stage (and therefore
    everything downstream) while leaving the pp artifact reusable. *)

val source_fingerprint : name:string -> string -> string

val stage_fingerprint : stage -> options -> input:string -> string
(** [stage_fingerprint st o ~input] where [input] is the fingerprint (or
    content digest) of the stage's input artifact. *)

val execute :
  ?cache:Cache.t ->
  ?options:options ->
  ?name:string ->
  ?ir:[ `Module | `Marshalled ] ->
  string ->
  exec
(** Run the pipeline over a source string, consulting [cache] at every
    stage when given.  There is one algorithm, cached or not: the
    preprocessed stream is split into top-level slices, parsed slice by
    slice against one sema, emitted and optimized per slice and
    relinked; [cache] only adds the memo table (without it no
    fingerprint is computed and nothing is marshalled).  Never raises
    on invalid input (diagnostics land
    in [x_result.diag]); lexer/parser/sema/codegen bugs may raise — see
    {!Instance} for containment.

    [ir] (default [`Module]) picks the form of the final IR: a module in
    [result.ir], or with [`Marshalled] its marshalled bytes in
    [result.ir_payload] — the form a caller that only forwards the IR
    wants, since a unit optir hit then decodes nothing.  Both forms
    count toward [x_full_hit] alike. *)

val frontend :
  ?options:options ->
  ?name:string ->
  string ->
  Mc_diag.Diagnostics.t * Mc_ast.Tree.translation_unit
(** Source through the AST stage only (-fsyntax-only / -ast-dump); never
    cached, and the one way to get a unit's AST.  When the options carry a [transfo_script], the script is
    applied first and the AST is that of the rewritten program; a failed
    script yields an empty translation unit plus the error diagnostic. *)

val transform :
  ?cache:Cache.t ->
  ?options:options ->
  ?name:string ->
  script:string ->
  string ->
  (outcome * string * string, string) Result.t
(** The transfo pre-stage alone (no compilation of the result): applies
    [script] to the source and returns
    [(cache outcome, rewritten source, rendered step trace)], consulting
    and filling the ["transfo"] stage of [cache] when given.  The error
    string is fully rendered and names the failing script line. *)

val reset_compilation_state : unit -> unit
(** Rewind every domain-local id/gensym generator, making the next
    compilation's ASTs and IR byte-reproducible.  {!execute} calls this
    itself; exposed for tests that drive layers directly. *)
