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

let keyword_of_string = function
  | "int" -> Some Kw_int
  | "long" -> Some Kw_long
  | "short" -> Some Kw_short
  | "char" -> Some Kw_char
  | "signed" -> Some Kw_signed
  | "unsigned" -> Some Kw_unsigned
  | "float" -> Some Kw_float
  | "double" -> Some Kw_double
  | "void" -> Some Kw_void
  | "bool" | "_Bool" -> Some Kw_bool
  | "const" -> Some Kw_const
  | "auto" -> Some Kw_auto
  | "if" -> Some Kw_if
  | "else" -> Some Kw_else
  | "switch" -> Some Kw_switch
  | "case" -> Some Kw_case
  | "default" -> Some Kw_default
  | "for" -> Some Kw_for
  | "while" -> Some Kw_while
  | "do" -> Some Kw_do
  | "return" -> Some Kw_return
  | "break" -> Some Kw_break
  | "continue" -> Some Kw_continue
  | "sizeof" -> Some Kw_sizeof
  | _ -> None

(* [Kw_bool] has two spellings; "bool" is canonical. *)
let keyword_to_string = function
  | Kw_int -> "int"
  | Kw_long -> "long"
  | Kw_short -> "short"
  | Kw_char -> "char"
  | Kw_signed -> "signed"
  | Kw_unsigned -> "unsigned"
  | Kw_float -> "float"
  | Kw_double -> "double"
  | Kw_void -> "void"
  | Kw_bool -> "bool"
  | Kw_const -> "const"
  | Kw_auto -> "auto"
  | Kw_if -> "if"
  | Kw_else -> "else"
  | Kw_switch -> "switch"
  | Kw_case -> "case"
  | Kw_default -> "default"
  | Kw_for -> "for"
  | Kw_while -> "while"
  | Kw_do -> "do"
  | Kw_return -> "return"
  | Kw_break -> "break"
  | Kw_continue -> "continue"
  | Kw_sizeof -> "sizeof"

let punct_to_string = function
  | LParen -> "("
  | RParen -> ")"
  | LBrace -> "{"
  | RBrace -> "}"
  | LBracket -> "["
  | RBracket -> "]"
  | Semi -> ";"
  | Comma -> ","
  | Question -> "?"
  | Colon -> ":"
  | Tilde -> "~"
  | Exclaim -> "!"
  | ExclaimEqual -> "!="
  | Equal -> "="
  | EqualEqual -> "=="
  | Plus -> "+"
  | PlusPlus -> "++"
  | PlusEqual -> "+="
  | Minus -> "-"
  | MinusMinus -> "--"
  | MinusEqual -> "-="
  | Arrow -> "->"
  | Star -> "*"
  | StarEqual -> "*="
  | Slash -> "/"
  | SlashEqual -> "/="
  | Percent -> "%"
  | PercentEqual -> "%="
  | Amp -> "&"
  | AmpAmp -> "&&"
  | AmpEqual -> "&="
  | Pipe -> "|"
  | PipePipe -> "||"
  | PipeEqual -> "|="
  | Caret -> "^"
  | CaretEqual -> "^="
  | Less -> "<"
  | LessEqual -> "<="
  | LessLess -> "<<"
  | LessLessEqual -> "<<="
  | Greater -> ">"
  | GreaterEqual -> ">="
  | GreaterGreater -> ">>"
  | GreaterGreaterEqual -> ">>="
  | Period -> "."
  | Ellipsis -> "..."
  | Hash -> "#"
  | HashHash -> "##"

let spelling t =
  match t.kind with
  | Ident s -> s
  | Keyword kw -> keyword_to_string kw
  | Int_lit { text; _ } | Float_lit { text; _ } | Char_lit { text; _ }
  | String_lit { text; _ } ->
    text
  | Punct p -> punct_to_string p
  | Eof -> ""

let describe = function
  | Ident s -> Printf.sprintf "identifier '%s'" s
  | Keyword kw -> Printf.sprintf "'%s'" (keyword_to_string kw)
  | Int_lit _ -> "integer literal"
  | Float_lit _ -> "floating-point literal"
  | Char_lit _ -> "character literal"
  | String_lit _ -> "string literal"
  | Punct p -> Printf.sprintf "'%s'" (punct_to_string p)
  | Eof -> "end of file"

let is_eof t = match t.kind with Eof -> true | _ -> false
let is_punct t p = match t.kind with Punct q -> p = q | _ -> false
let is_keyword t kw = match t.kind with Keyword k -> k = kw | _ -> false
