(* Lexer unit tests plus a print-and-relex property. *)

open Helpers
module Token = Mc_lexer.Token
module Lexer = Mc_lexer.Lexer
module Buf = Mc_srcmgr.Memory_buffer
module Srcmgr = Mc_srcmgr.Source_manager
module Diag = Mc_diag.Diagnostics

let lex ?(expect_errors = false) source =
  let sm = Srcmgr.create () in
  let diag = Diag.create sm in
  let buf = Buf.create ~name:"lex.c" ~contents:source in
  let id = Srcmgr.load_buffer sm buf in
  let toks = Lexer.tokenize diag ~file_id:id buf in
  if (not expect_errors) && Diag.has_errors diag then
    Alcotest.failf "unexpected lexer diagnostics:\n%s" (Diag.render_all diag);
  toks

let kinds source = List.map (fun t -> t.Token.kind) (lex source)

let test_keywords_and_idents () =
  match kinds "int foo while0 _bar" with
  | [ Token.Keyword Token.Kw_int; Token.Ident "foo"; Token.Ident "while0";
      Token.Ident "_bar" ] ->
    ()
  | other -> Alcotest.failf "got %d tokens" (List.length other)

let test_int_literals () =
  let value s =
    match kinds s with
    | [ Token.Int_lit { value; _ } ] -> value
    | _ -> Alcotest.failf "expected one int literal for %s" s
  in
  Alcotest.(check int64) "dec" 42L (value "42");
  Alcotest.(check int64) "hex" 255L (value "0xFF");
  Alcotest.(check int64) "octal" 8L (value "010");
  Alcotest.(check int64) "zero" 0L (value "0");
  Alcotest.(check int64) "big" 4294967295L (value "4294967295");
  match kinds "42u 42l 42ul 42ULL" with
  | [ Token.Int_lit { suffix = s1; _ }; Token.Int_lit { suffix = s2; _ };
      Token.Int_lit { suffix = s3; _ }; Token.Int_lit { suffix = s4; _ } ] ->
    Alcotest.(check bool) "u" true s1.Token.suffix_unsigned;
    Alcotest.(check bool) "l" true s2.Token.suffix_long;
    Alcotest.(check bool) "ul u" true s3.Token.suffix_unsigned;
    Alcotest.(check bool) "ul l" true s3.Token.suffix_long;
    Alcotest.(check bool) "ull" true (s4.Token.suffix_unsigned && s4.Token.suffix_long)
  | _ -> Alcotest.fail "suffix tokens"

let test_float_literals () =
  let value s =
    match kinds s with
    | [ Token.Float_lit { value; _ } ] -> value
    | _ -> Alcotest.failf "expected one float literal for %s" s
  in
  Alcotest.(check (float 1e-9)) "simple" 1.5 (value "1.5");
  Alcotest.(check (float 1e-9)) "exp" 150.0 (value "1.5e2");
  Alcotest.(check (float 1e-9)) "neg exp" 0.015 (value "1.5e-2");
  Alcotest.(check (float 1e-9)) "suffix" 2.0 (value "2.0f");
  (* '1.' then member access would be float; we only support digits after
     the dot when present, but '1.' alone is a float. *)
  Alcotest.(check (float 1e-9)) "trailing dot" 1.0 (value "1.")

let test_char_and_string () =
  (match kinds "'a' '\\n' '\\\\'" with
  | [ Token.Char_lit { value = 97; _ }; Token.Char_lit { value = 10; _ };
      Token.Char_lit { value = 92; _ } ] ->
    ()
  | _ -> Alcotest.fail "char literals");
  match kinds "\"hi\\tthere\"" with
  | [ Token.String_lit { value; _ } ] ->
    Alcotest.(check string) "escape" "hi\tthere" value
  | _ -> Alcotest.fail "string literal"

let test_punctuators () =
  let s = "<< >> <<= >>= <= >= == != && || ++ -- -> ... & | ^ ~ ! ? : ; , . # ##" in
  let expected =
    Token.[
      LessLess; GreaterGreater; LessLessEqual; GreaterGreaterEqual; LessEqual;
      GreaterEqual; EqualEqual; ExclaimEqual; AmpAmp; PipePipe; PlusPlus;
      MinusMinus; Arrow; Ellipsis; Amp; Pipe; Caret; Tilde; Exclaim; Question;
      Colon; Semi; Comma; Period; Hash; HashHash;
    ]
  in
  let got =
    List.filter_map
      (function Token.Punct p -> Some p | _ -> None)
      (kinds s)
  in
  Alcotest.(check int) "count" (List.length expected) (List.length got);
  List.iter2
    (fun e g ->
      Alcotest.(check string) "punct" (Token.punct_to_string e)
        (Token.punct_to_string g))
    expected got

let test_comments_and_flags () =
  let toks = lex "a // line comment\nb /* block\ncomment */ c" in
  (match List.map Token.spelling toks with
  | [ "a"; "b"; "c" ] -> ()
  | other -> Alcotest.failf "got %s" (String.concat "," other));
  let b = List.nth toks 1 and c = List.nth toks 2 in
  Alcotest.(check bool) "b at line start" true b.Token.at_line_start;
  (* Only whitespace/comments precede 'c' on its line, so it counts as
     line-initial (as in C's directive rules and Clang's StartOfLine). *)
  Alcotest.(check bool) "c at line start" true c.Token.at_line_start;
  Alcotest.(check bool) "c has space" true c.Token.has_space_before

let test_line_splice () =
  (* Translation phase 2 deletes every backslash-newline, inside a token
     too: "ab\<newline>cd" is the one identifier abcd. *)
  Alcotest.(check (list string)) "a splice inside an identifier" [ "abcd" ]
    (List.map Token.spelling (lex "ab\\\ncd"));
  (* Between tokens the splice is trivia: the newline is gone, so 'cd'
     does NOT start a line. *)
  let toks = lex "ab \\\ncd" in
  Alcotest.(check (list string)) "a splice between tokens" [ "ab"; "cd" ]
    (List.map Token.spelling toks);
  Alcotest.(check bool) "no line start" false
    (List.nth toks 1).Token.at_line_start

let test_splice_in_identifier () =
  List.iter
    (fun (what, source) ->
      let toks = lex source in
      Alcotest.(check (list string)) what
        [ "int"; "main"; "("; "void"; ")"; "{"; "return"; "4"; ";"; "}" ]
        (List.map Token.spelling toks);
      let main = List.nth toks 1 in
      Alcotest.(check int) (what ^ ": the token spans the splice")
        (String.index source '(' - String.length "int ")
        main.Token.len)
    [
      ("LF", "int ma\\\nin(void) { return 4; }");
      ("CRLF", "int ma\\\r\nin(void) { return 4; }");
      ("two splices", "int m\\\na\\\r\nin(void) { return 4; }");
    ]

let test_splice_in_string () =
  List.iter
    (fun (what, source) ->
      let sm = Srcmgr.create () in
      let diag = Diag.create sm in
      let buf = Buf.create ~name:"lex.c" ~contents:source in
      let toks = Lexer.tokenize diag ~file_id:(Srcmgr.load_buffer sm buf) buf in
      (match List.map (fun t -> t.Token.kind) toks with
      | [ Token.String_lit { value; text }; Token.Punct Token.Semi ] ->
        Alcotest.(check string) (what ^ ": value") "abcd" value;
        Alcotest.(check string) (what ^ ": spelling") "\"abcd\"" text
      | _ -> Alcotest.failf "%s: got %d tokens" what (List.length toks));
      Alcotest.(check string) (what ^ ": no escape warning") ""
        (Diag.render_all diag))
    [ ("LF", "\"ab\\\ncd\";"); ("CRLF", "\"ab\\\r\ncd\";") ]

(* Translation phase 2 splices lines before phase 3 removes comments, and
   a splice's newline may be CRLF. *)
let test_crlf_splice () =
  let toks = lex "#define N 3 + \\\r\n  4\r\nN" in
  Alcotest.(check (list string)) "CRLF splice"
    [ "#"; "define"; "N"; "3"; "+"; "4"; "N" ]
    (List.map Token.spelling toks);
  Alcotest.(check bool) "the spliced line starts no line" false
    (List.nth toks 5).Token.at_line_start;
  Alcotest.(check bool) "the line after it does" true
    (List.nth toks 6).Token.at_line_start

let test_line_comment_splice () =
  let lex_diag source =
    let sm = Srcmgr.create () in
    let diag = Diag.create sm in
    let buf = Buf.create ~name:"lex.c" ~contents:source in
    let toks = Lexer.tokenize diag ~file_id:(Srcmgr.load_buffer sm buf) buf in
    (List.map Token.spelling toks, Diag.render_all diag)
  in
  let spellings, rendered =
    lex_diag "int x = 1; // comment \\\nx = 5;\nreturn x;"
  in
  Alcotest.(check (list string)) "the comment swallows the next line"
    [ "int"; "x"; "="; "1"; ";"; "return"; "x"; ";" ]
    spellings;
  Alcotest.(check string) "Clang's warning, at the backslash"
    "lex.c:1:23: warning: multi-line // comment\n\
     int x = 1; // comment \\\n\
    \                      ^\n"
    rendered;
  let spellings, rendered = lex_diag "a // one \\\n// two\nb" in
  Alcotest.(check (list string)) "continued into a // comment" [ "a"; "b" ]
    spellings;
  Alcotest.(check string) "which does not warn" "" rendered

(* Phase 2 runs before comments are recognised, so a splice may split a
   comment's opening or closing delimiter. *)
let test_splice_in_comment_delimiter () =
  let lex_diag source =
    let sm = Srcmgr.create () in
    let diag = Diag.create sm in
    let buf = Buf.create ~name:"lex.c" ~contents:source in
    let toks = Lexer.tokenize diag ~file_id:(Srcmgr.load_buffer sm buf) buf in
    (List.map Token.spelling toks, Diag.render_all diag)
  in
  let main = [ "int"; "main"; "("; "void"; ")"; "{"; "return"; "3"; ";"; "}" ] in
  List.iter
    (fun (what, source, expected) ->
      Alcotest.(check (pair (list string) string)) what (expected, "") (lex_diag source))
    [
      ("// split by a splice", "int main(void) { return 3; } /\\\n/ comment\n", main);
      ("// split by a CRLF splice", "int main(void) { return 3; } /\\\r\n/ comment\r\n", main);
      ("/* split by a splice", "int main(void) { return 3; } /\\\n* block */\n", main);
      ("*/ split by a splice", "int main(void) { return 3; } /* block *\\\n/\n", main);
      ("*/ split by two splices", "a /* x *\\\r\n\\\n/ b", [ "a"; "b" ]);
      ("/* split by a CRLF splice", "a /\\\r\n* x */ b", [ "a"; "b" ]);
      ("a lone slash before a splice", "a /\\\n b", [ "a"; "/"; "b" ]);
      ("a slash-assign split by a splice", "a /\\\n= b", [ "a"; "/="; "b" ]);
      ("a star before a splice in a comment", "a /* *\\\n x */ b", [ "a"; "b" ]);
    ];
  let spellings, rendered = lex_diag "a /* open *\\\n" in
  Alcotest.(check (list string)) "an unclosed comment ends the buffer" [ "a" ] spellings;
  check_contains ~what:"unterminated" rendered "unterminated /* comment"

let test_errors () =
  let sm = Srcmgr.create () in
  let diag = Diag.create sm in
  let buf = Buf.create ~name:"e.c" ~contents:"int $ x; \"unterminated" in
  let id = Srcmgr.load_buffer sm buf in
  ignore (Lexer.tokenize diag ~file_id:id buf);
  Alcotest.(check bool) "errors" true (Diag.has_errors diag);
  check_contains ~what:"bad char" (Diag.render_all diag) "unexpected character";
  check_contains ~what:"string" (Diag.render_all diag) "unterminated string"

(* Property: rendering a random token list with spaces and re-lexing gives
   the same spellings back. *)
let arb_token_text =
  let idents = [ "a"; "foo"; "x1"; "_t" ] in
  let kws = [ "int"; "for"; "while"; "return"; "unsigned" ] in
  let puncts = [ "+"; "-"; "*"; "/"; "<<"; ">>="; "=="; "("; ")"; "{"; "}"; ";" ] in
  let lits = [ "0"; "42"; "0x1F"; "3.5"; "1e3"; "'c'"; "\"s\"" ] in
  QCheck.oneofl (idents @ kws @ puncts @ lits)

let relex_prop =
  prop "print-and-relex preserves spellings" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 30) arb_token_text)
    (fun texts ->
      let source = String.concat " " texts in
      let toks = lex source in
      List.map Token.spelling toks = texts)

let suite =
  [
    tc "keywords and identifiers" test_keywords_and_idents;
    tc "integer literals" test_int_literals;
    tc "float literals" test_float_literals;
    tc "char and string literals" test_char_and_string;
    tc "punctuators incl. maximal munch" test_punctuators;
    tc "comments and token flags" test_comments_and_flags;
    tc "line splices" test_line_splice;
    tc "a splice inside an identifier" test_splice_in_identifier;
    tc "a splice inside a string literal" test_splice_in_string;
    tc "a CRLF line splice" test_crlf_splice;
    tc "a // comment ending in a splice" test_line_comment_splice;
    tc "a splice inside a comment delimiter" test_splice_in_comment_delimiter;
    tc "lexical errors" test_errors;
    relex_prop;
  ]
