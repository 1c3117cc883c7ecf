module Buf = Mc_srcmgr.Memory_buffer
module Loc = Mc_srcmgr.Source_location
module Diag = Mc_diag.Diagnostics
module Stats = Mc_support.Stats

let stat_tokens =
  Stats.counter ~group:"lexer" ~name:"tokens-lexed"
    ~desc:"tokens produced by the lexer (all buffers, raw-lex prepass included)"
    ()
let stat_buffers =
  Stats.counter ~group:"lexer" ~name:"buffers-lexed"
    ~desc:"source buffers a lexer was created for" ()

type t = {
  diag : Diag.t;
  file_id : int;
  src : string;
  len : int;
  mutable pos : int;
  mutable at_line_start : bool;
  mutable has_space : bool;
  phys : int array;
      (* [src]'s offsets in the file when [src] is a splice-free copy of
         it; [||] when [src] is the file itself *)
  mutable splice : int; (* the next line splice, once looked for *)
  mutable splice_line : int;
      (* the start of [splice]'s line, or [len] when no splice is left *)
}

let create diag ~file_id buf =
  Stats.incr stat_buffers;
  {
    diag;
    file_id;
    src = Buf.contents buf;
    len = Buf.length buf;
    pos = 0;
    at_line_start = true;
    has_space = false;
    phys = [||];
    splice = -1;
    splice_line = 0;
  }

let loc_at t pos =
  let n = Array.length t.phys in
  Loc.encode ~file_id:t.file_id
    ~offset:(if n = 0 then pos else t.phys.(min pos (n - 1)))

(* The character at [i], or NUL past the end.  No scanner accepts NUL, so
   only the scanners a NUL in the source cannot stop (comments, character
   and string literals) test [i < t.len] themselves. *)
let at t i = if i < t.len then String.unsafe_get t.src i else '\000'

let advance t = t.pos <- t.pos + 1

(* Consume [n] characters and return [kind]. *)
let take t n kind =
  t.pos <- t.pos + n;
  kind

let is_digit = function '0' .. '9' -> true | _ -> false

let is_ident_cont = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let is_hex_digit = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let rec scan_while pred t i = if pred (at t i) then scan_while pred t (i + 1) else i

(* [scan_while is_ident_cont], without the indirect call: identifiers are
   the scan most characters go through. *)
let rec scan_ident t i = if is_ident_cont (at t i) then scan_ident t (i + 1) else i

(* Length of the line splice at [i] — a backslash and the newline after
   it, LF or CRLF, which translation phase 2 deletes — or 0. *)
let splice_len t i =
  if at t i <> '\\' then 0
  else
    match at t (i + 1) with
    | '\n' -> 2
    | '\r' when at t (i + 2) = '\n' -> 3
    | _ -> 0

(* The first index at or after [i] that does not start a line splice. *)
let rec past_splices t i =
  let n = splice_len t i in
  if n = 0 then i else past_splices t (i + n)

(* Whether the line starting at [i] is, after blanks, a // comment. *)
let line_comment_at t i =
  let i = scan_while (function ' ' | '\t' -> true | _ -> false) t i in
  at t i = '/' && at t (i + 1) = '/'

(* A // comment runs to its newline, which it leaves for [skip_trivia].
   Splices come before comments (phase 2 before phase 3), so a comment
   ending in a backslash continues onto the next line; like Clang, warn
   unless that line is a // comment itself. *)
let skip_line_comment t ~body =
  let rec go i =
    if i >= t.len then i
    else
      match String.unsafe_get t.src i with
      | '\n' -> i
      | '\\' ->
        let n = splice_len t i in
        if n = 0 then go (i + 1)
        else begin
          if not (line_comment_at t (i + n)) then
            Diag.warning t.diag ~loc:(loc_at t i) "multi-line // comment";
          go (i + n)
        end
      | _ -> go (i + 1)
  in
  t.pos <- go body

(* [body] is the index after the opening delimiter.  The closing one may
   be split by splices too ("*\<newline>/"), which phase 2 joins. *)
let skip_block_comment t ~body =
  let start = t.pos in
  let rec go i =
    if i >= t.len then begin
      t.pos <- i;
      Diag.error t.diag ~loc:(loc_at t start) "unterminated /* comment"
    end
    else
      match String.unsafe_get t.src i with
      | '*' -> (
        match at t (i + 1) with
        | '/' -> t.pos <- i + 2
        | '\\' ->
          let j = past_splices t (i + 1) in
          if at t j = '/' then t.pos <- j + 1 else go (i + 1)
        | _ -> go (i + 1))
      | '\n' ->
        t.at_line_start <- true;
        go (i + 1)
      | _ -> go (i + 1)
  in
  go body

let rec skip_trivia t =
  match at t t.pos with
  | ' ' | '\t' | '\r' ->
    t.has_space <- true;
    advance t;
    skip_trivia t
  | '\n' ->
    t.at_line_start <- true;
    t.has_space <- true;
    advance t;
    skip_trivia t
  | '\\' ->
    (* Line continuation: splice without starting a new line. *)
    let n = splice_len t t.pos in
    if n > 0 then begin
      t.has_space <- true;
      t.pos <- t.pos + n;
      skip_trivia t
    end
  | '/' -> (
    (* Splices come first (phase 2), so "/\<newline>/" opens a comment. *)
    let second =
      if at t (t.pos + 1) = '\\' then past_splices t (t.pos + 1) else t.pos + 1
    in
    match at t second with
    | '/' ->
      skip_line_comment t ~body:(second + 1);
      t.has_space <- true;
      skip_trivia t
    | '*' ->
      skip_block_comment t ~body:(second + 1);
      t.has_space <- true;
      skip_trivia t
    | _ -> ())
  | _ -> ()

(* The next line splice at or after [i], and the start of its line.  A
   token cannot cross a newline but by a splice, so a token that starts
   before that line takes the fast path, which reads the source in
   place. *)
let find_splice t i =
  let rec go i =
    match String.index_from_opt t.src i '\\' with
    | None ->
      t.splice <- t.len;
      t.splice_line <- t.len
    | Some b when splice_len t b > 0 ->
      t.splice <- b;
      t.splice_line <-
        (match String.rindex_from_opt t.src b '\n' with
        | Some nl -> nl + 1
        | None -> 0)
    | Some b -> go (b + 1)
  in
  go i

let lex_ident t start =
  t.pos <- scan_ident t (start + 1);
  let text = String.sub t.src start (t.pos - start) in
  match Token.keyword_of_string text with
  | Some kw -> Token.Keyword kw
  | None -> Token.Ident (Mc_support.Intern.share text)

(* Numeric literals: decimal/hex/octal integers with [uUlL] suffixes, and
   decimal floats with optional fraction and exponent. *)
let lex_number t start =
  let is_hex =
    at t t.pos = '0' && match at t (t.pos + 1) with 'x' | 'X' -> true | _ -> false
  in
  t.pos <-
    (if is_hex then scan_while is_hex_digit t (t.pos + 2)
     else scan_while is_digit t t.pos);
  let is_float = ref false in
  if (not is_hex) && at t t.pos = '.' then begin
    is_float := true;
    t.pos <- scan_while is_digit t (t.pos + 1)
  end;
  if (not is_hex) && (at t t.pos = 'e' || at t t.pos = 'E') then begin
    let save = t.pos in
    advance t;
    (match at t t.pos with '+' | '-' -> advance t | _ -> ());
    if is_digit (at t t.pos) then begin
      is_float := true;
      t.pos <- scan_while is_digit t t.pos
    end
    else t.pos <- save
  end;
  if !is_float then begin
    (match at t t.pos with 'f' | 'F' | 'l' | 'L' -> advance t | _ -> ());
    let text = String.sub t.src start (t.pos - start) in
    let digits =
      match text.[String.length text - 1] with
      | 'f' | 'F' | 'l' | 'L' -> String.sub text 0 (String.length text - 1)
      | _ -> text
    in
    match float_of_string_opt digits with
    | Some value -> Token.Float_lit { value; text }
    | None ->
      Diag.error t.diag ~loc:(loc_at t start)
        (Printf.sprintf "invalid floating-point literal '%s'" text);
      Token.Float_lit { value = 0.0; text }
  end
  else begin
    let suffix_unsigned = ref false and suffix_long = ref false in
    let rec suffixes () =
      match at t t.pos with
      | 'u' | 'U' ->
        suffix_unsigned := true;
        advance t;
        suffixes ()
      | 'l' | 'L' ->
        suffix_long := true;
        advance t;
        (match at t t.pos with 'l' | 'L' -> advance t | _ -> ());
        suffixes ()
      | _ -> ()
    in
    suffixes ();
    let text = String.sub t.src start (t.pos - start) in
    let digits =
      let stop = ref (String.length text) in
      while
        !stop > 0
        && match text.[!stop - 1] with 'u' | 'U' | 'l' | 'L' -> true | _ -> false
      do
        decr stop
      done;
      String.sub text 0 !stop
    in
    let value =
      (* [Int64.of_string] understands the 0x/0o prefixes; C's leading-zero
         octal needs rewriting to OCaml's 0o form. *)
      let normalized =
        if String.length digits > 1 && digits.[0] = '0'
           && digits.[1] <> 'x' && digits.[1] <> 'X'
        then "0o" ^ String.sub digits 1 (String.length digits - 1)
        else digits
      in
      match Int64.of_string_opt normalized with
      | Some v -> v
      | None -> (
        (* Decimal literals above [Int64.max_int] need OCaml's unsigned
           parse ("0u" prefix) to wrap like a C unsigned constant. *)
        match Int64.of_string_opt ("0u" ^ normalized) with
        | Some v -> v
        | None ->
          Diag.error t.diag ~loc:(loc_at t start)
            (Printf.sprintf "invalid integer literal '%s'" text);
          0L)
    in
    Token.Int_lit
      {
        value;
        suffix = { suffix_unsigned = !suffix_unsigned; suffix_long = !suffix_long };
        text;
      }
  end

let escape_char t = function
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c ->
    Diag.warning t.diag ~loc:(loc_at t t.pos)
      (Printf.sprintf "unknown escape sequence '\\%c'" c);
    c

let lex_char_lit t start =
  advance t (* opening quote *);
  let value =
    if t.pos >= t.len then 0
    else
      match String.unsafe_get t.src t.pos with
      | '\\' ->
        advance t;
        if t.pos >= t.len then 0
        else begin
          let c = String.unsafe_get t.src t.pos in
          advance t;
          Char.code (escape_char t c)
        end
      | c ->
        advance t;
        Char.code c
  in
  if at t t.pos = '\'' then advance t
  else Diag.error t.diag ~loc:(loc_at t start) "unterminated character literal";
  let text = String.sub t.src start (t.pos - start) in
  Token.Char_lit { value; text }

let lex_string_lit t start =
  advance t (* opening quote *);
  let out = Buffer.create 16 in
  let rec go () =
    let c = at t t.pos in
    if t.pos >= t.len || c = '\n' then
      Diag.error t.diag ~loc:(loc_at t start) "unterminated string literal"
    else
      match c with
      | '"' -> advance t
      | '\\' ->
        advance t;
        if t.pos < t.len then begin
          let c = String.unsafe_get t.src t.pos in
          advance t;
          Buffer.add_char out (escape_char t c)
        end;
        go ()
      | c ->
        advance t;
        Buffer.add_char out c;
        go ()
  in
  go ();
  let text = String.sub t.src start (t.pos - start) in
  Token.String_lit { value = Buffer.contents out; text }

(* A punctuator starting with [c] at [t.pos], by maximal munch.  Every
   kind returned is a constant. *)
let lex_punct t c =
  let open Token in
  let c2 = at t (t.pos + 1) in
  match c with
  | '(' -> take t 1 (Punct LParen)
  | ')' -> take t 1 (Punct RParen)
  | '{' -> take t 1 (Punct LBrace)
  | '}' -> take t 1 (Punct RBrace)
  | '[' -> take t 1 (Punct LBracket)
  | ']' -> take t 1 (Punct RBracket)
  | ';' -> take t 1 (Punct Semi)
  | ',' -> take t 1 (Punct Comma)
  | '?' -> take t 1 (Punct Question)
  | ':' -> take t 1 (Punct Colon)
  | '~' -> take t 1 (Punct Tilde)
  | '!' -> if c2 = '=' then take t 2 (Punct ExclaimEqual) else take t 1 (Punct Exclaim)
  | '=' -> if c2 = '=' then take t 2 (Punct EqualEqual) else take t 1 (Punct Equal)
  | '^' -> if c2 = '=' then take t 2 (Punct CaretEqual) else take t 1 (Punct Caret)
  | '.' ->
    if c2 = '.' && at t (t.pos + 2) = '.' then take t 3 (Punct Ellipsis)
    else take t 1 (Punct Period)
  | '#' -> if c2 = '#' then take t 2 (Punct HashHash) else take t 1 (Punct Hash)
  | '+' -> (
    match c2 with
    | '+' -> take t 2 (Punct PlusPlus)
    | '=' -> take t 2 (Punct PlusEqual)
    | _ -> take t 1 (Punct Plus))
  | '-' -> (
    match c2 with
    | '-' -> take t 2 (Punct MinusMinus)
    | '=' -> take t 2 (Punct MinusEqual)
    | '>' -> take t 2 (Punct Arrow)
    | _ -> take t 1 (Punct Minus))
  | '*' -> if c2 = '=' then take t 2 (Punct StarEqual) else take t 1 (Punct Star)
  | '/' -> if c2 = '=' then take t 2 (Punct SlashEqual) else take t 1 (Punct Slash)
  | '%' ->
    if c2 = '=' then take t 2 (Punct PercentEqual) else take t 1 (Punct Percent)
  | '&' -> (
    match c2 with
    | '&' -> take t 2 (Punct AmpAmp)
    | '=' -> take t 2 (Punct AmpEqual)
    | _ -> take t 1 (Punct Amp))
  | '|' -> (
    match c2 with
    | '|' -> take t 2 (Punct PipePipe)
    | '=' -> take t 2 (Punct PipeEqual)
    | _ -> take t 1 (Punct Pipe))
  | '<' -> (
    match c2 with
    | '=' -> take t 2 (Punct LessEqual)
    | '<' ->
      if at t (t.pos + 2) = '=' then take t 3 (Punct LessLessEqual)
      else take t 2 (Punct LessLess)
    | _ -> take t 1 (Punct Less))
  | '>' -> (
    match c2 with
    | '=' -> take t 2 (Punct GreaterEqual)
    | '>' ->
      if at t (t.pos + 2) = '=' then take t 3 (Punct GreaterGreaterEqual)
      else take t 2 (Punct GreaterGreater)
    | _ -> take t 1 (Punct Greater))
  | _ ->
    Diag.error t.diag ~loc:(loc_at t t.pos)
      (Printf.sprintf "unexpected character '%c' (0x%02x)" c (Char.code c));
    (* Re-lex from the next character rather than emitting a junk token. *)
    take t 1 (Punct Semi)

let lex_token t start =
  match String.unsafe_get t.src start with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident t start
  | '0' .. '9' -> lex_number t start
  | '.' when is_digit (at t (start + 1)) -> lex_number t start
  | '\'' -> lex_char_lit t start
  | '"' -> lex_string_lit t start
  | c -> lex_punct t c

(* The slow path, for a token on a line that ends in a splice: lex it
   from a copy of the source with every splice deleted (translation phase
   2), so "ma\<newline>in" is one identifier and a splice inside a string
   literal is no escape.  The copy ends at a newline, or, for a token
   that is no literal, at the first blank past a splice: no such token
   reaches further.  The token ends right after its last character, so a
   splice just past it stays trivia. *)
let lex_spliced t start =
  let literal = match t.src.[start] with '"' | '\'' -> true | _ -> false in
  let text = Buffer.create 64 and offs = ref [] in
  let rec copy i ~spliced =
    if i < t.len then
      let n = splice_len t i in
      if n > 0 then copy (i + n) ~spliced:true
      else begin
        let c = String.unsafe_get t.src i in
        Buffer.add_char text c;
        offs := i :: !offs;
        match c with
        | '\n' -> ()
        | ' ' | '\t' | '\r' when spliced && not literal -> ()
        | _ -> copy (i + 1) ~spliced
      end
  in
  copy start ~spliced:false;
  let phys = Array.of_list (List.rev !offs) in
  let sub =
    { t with src = Buffer.contents text; len = Buffer.length text; pos = 0; phys }
  in
  let kind = lex_token sub 0 in
  t.pos <- phys.(sub.pos - 1) + 1;
  kind

(* A token at or past [splice_line]: the end of the buffer, or look for
   the next splice once the last one is behind, and take the slow path
   on a splice's line.  [next] then tests one bound per token, as it
   would for the end of the buffer alone. *)
let lex_near_splice t start =
  if start >= t.len then Token.Eof
  else begin
    if start > t.splice then find_splice t start;
    if start < t.splice_line then lex_token t start else lex_spliced t start
  end

let next t =
  skip_trivia t;
  let at_line_start = t.at_line_start in
  let has_space_before = t.has_space in
  t.at_line_start <- false;
  t.has_space <- false;
  let start = t.pos in
  let kind =
    if start >= t.splice_line then lex_near_splice t start
    else
      (* [lex_token], written out: ocamlopt does not inline the call, and
         the fast path would pay for it on every token. *)
      match String.unsafe_get t.src start with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident t start
      | '0' .. '9' -> lex_number t start
      | '.' when is_digit (at t (start + 1)) -> lex_number t start
      | '\'' -> lex_char_lit t start
      | '"' -> lex_string_lit t start
      | c -> lex_punct t c
  in
  (match kind with Token.Eof -> () | _ -> Stats.incr stat_tokens);
  {
    Token.kind;
    loc = Loc.encode ~file_id:t.file_id ~offset:start;
    len = t.pos - start;
    at_line_start;
    has_space_before;
  }

let tokenize diag ~file_id buf =
  let lexer = create diag ~file_id buf in
  let rec go acc =
    let tok = next lexer in
    if Token.is_eof tok then List.rev acc else go (tok :: acc)
  in
  go []
