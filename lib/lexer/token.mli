(** Tokens of the C subset.

    The lexer produces a flat stream of these; the preprocessor consumes the
    [Hash]-introduced directives (including [#pragma omp ...]) and re-emits a
    stream for the parser.  Each token remembers whether it started a line
    and whether whitespace preceded it, which is what directive parsing and
    macro expansion need. *)

type keyword =
  | Kw_int
  | Kw_long
  | Kw_short
  | Kw_char
  | Kw_signed
  | Kw_unsigned
  | Kw_float
  | Kw_double
  | Kw_void
  | Kw_bool
  | Kw_const
  | Kw_auto
  | Kw_if
  | Kw_else
  | Kw_switch
  | Kw_case
  | Kw_default
  | Kw_for
  | Kw_while
  | Kw_do
  | Kw_return
  | Kw_break
  | Kw_continue
  | Kw_sizeof

type punct =
  | LParen
  | RParen
  | LBrace
  | RBrace
  | LBracket
  | RBracket
  | Semi
  | Comma
  | Question
  | Colon
  | Tilde
  | Exclaim
  | ExclaimEqual
  | Equal
  | EqualEqual
  | Plus
  | PlusPlus
  | PlusEqual
  | Minus
  | MinusMinus
  | MinusEqual
  | Arrow
  | Star
  | StarEqual
  | Slash
  | SlashEqual
  | Percent
  | PercentEqual
  | Amp
  | AmpAmp
  | AmpEqual
  | Pipe
  | PipePipe
  | PipeEqual
  | Caret
  | CaretEqual
  | Less
  | LessEqual
  | LessLess
  | LessLessEqual
  | Greater
  | GreaterEqual
  | GreaterGreater
  | GreaterGreaterEqual
  | Period
  | Ellipsis
  | Hash
  | HashHash

type int_suffix = { suffix_unsigned : bool; suffix_long : bool }

type kind =
  | Ident of string
  | Keyword of keyword
  | Int_lit of { value : int64; suffix : int_suffix; text : string }
  | Float_lit of { value : float; text : string }
  | Char_lit of { value : int; text : string }
  | String_lit of { value : string; text : string }
  | Punct of punct
  | Eof

type t = {
  kind : kind;
  loc : Mc_srcmgr.Source_location.t;
  len : int;
  at_line_start : bool;
  has_space_before : bool;
}

val keyword_of_string : string -> keyword option
val keyword_to_string : keyword -> string
val punct_to_string : punct -> string

val spelling : t -> string
(** The token's source spelling, reconstructed from its kind. *)

val describe : kind -> string
(** Short human-readable form for diagnostics, e.g. ["'+='"], ["identifier"]. *)

val is_eof : t -> bool
val is_punct : t -> punct -> bool
val is_keyword : t -> keyword -> bool
