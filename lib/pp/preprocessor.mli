(** The preprocessor layer (Clang's Preprocessor in Fig. 1 of the paper).

    It drives the lexer, maintains the include stack and macro table,
    evaluates conditional-compilation directives, and — crucially for this
    reproduction — recognises [#pragma omp ...] / [#pragma clang loop ...]
    lines, macro-expands their token stream (as the OpenMP specification
    requires), and hands them to the parser as first-class {!pragma} items
    interleaved with ordinary tokens.

    As C11 asks: [#if] evaluates in [intmax_t]/[uintmax_t] under the usual
    arithmetic conversions (6.10.1p4); a macro argument is macro-replaced
    completely before substitution unless it is an operand of [#] or [##]
    (6.10.3.1); and [#] keeps one space where its argument had whitespace
    between tokens (6.10.3.2). *)

type pragma = {
  pragma_loc : Mc_srcmgr.Source_location.t; (* location of the '#' *)
  pragma_toks : Mc_lexer.Token.t list; (* tokens after '#pragma', expanded *)
}

type item = Tok of Mc_lexer.Token.t | Prag of pragma

type t

val create :
  Mc_diag.Diagnostics.t ->
  Mc_srcmgr.Source_manager.t ->
  Mc_srcmgr.File_manager.t ->
  t

val define_object_macro : t -> name:string -> body:string -> unit
(** Predefine an object-like macro, as a driver [-D] flag would. *)

val preprocess_main : t -> Mc_srcmgr.Memory_buffer.t -> item list
(** Runs the full preprocessing of a main buffer (registering it with the
    source manager) and returns the parser-ready stream, [Eof] excluded. *)

val preprocess_tokens :
  t -> file_id:int -> Mc_srcmgr.Memory_buffer.t -> Mc_lexer.Token.t list ->
  item list
(** Like {!preprocess_main}, but replays an already-lexed token stream of
    the main buffer (which the caller has registered with the source
    manager as [file_id]) instead of driving a lexer over it — how the
    stage-graph pipeline times lexing apart from preprocessing.  Included
    files still lex live. *)

val include_digests : t -> (string * string) list
(** The [(path, content digest)] of every file this preprocessor entered
    via [#include], in inclusion order (duplicates included).  The stage
    cache stores this alongside a PPTokens artifact and validates it
    against the current file manager before reusing the entry. *)

val macro_names : t -> string list
(** Currently defined macro names, for tests. *)
