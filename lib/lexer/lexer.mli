(** The tokenizer (Clang's Lexer layer).

    Pull-based, like Clang: the preprocessor calls {!next} to obtain one
    token at a time.  Comments and whitespace are skipped but recorded in the
    [at_line_start] / [has_space_before] token flags.  A line splice (a
    backslash before an LF or CRLF newline) is deleted wherever it stands
    (translation phase 2): between tokens it counts as whitespace, inside
    an identifier, number, punctuator or literal it joins the two lines'
    characters into one token, and it continues a [//] comment onto the
    next line, with Clang's "multi-line // comment" warning.  Only the
    lines that end in a splice take the copying slow path.  Lexical
    errors are reported through
    the diagnostics engine and a best-effort token is produced so that
    lexing always makes progress. *)

type t

val create :
  Mc_diag.Diagnostics.t -> file_id:int -> Mc_srcmgr.Memory_buffer.t -> t

val next : t -> Token.t
(** Returns the next token; after the end of the buffer, returns [Eof]
    tokens forever. *)

val tokenize :
  Mc_diag.Diagnostics.t ->
  file_id:int ->
  Mc_srcmgr.Memory_buffer.t ->
  Token.t list
(** Convenience: the whole buffer as a list, [Eof] excluded. *)
