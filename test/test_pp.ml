(* Preprocessor tests: macros, conditionals, includes, pragma assembly. *)

open Helpers
module Pp = Mc_pp.Preprocessor
module Token = Mc_lexer.Token
module Buf = Mc_srcmgr.Memory_buffer
module Srcmgr = Mc_srcmgr.Source_manager
module Fmgr = Mc_srcmgr.File_manager
module Diag = Mc_diag.Diagnostics

let preprocess ?(files = []) ?(expect_errors = false) source =
  let sm = Srcmgr.create () in
  let fm = Fmgr.create () in
  List.iter (fun (path, contents) -> ignore (Fmgr.add_file fm ~path ~contents)) files;
  let diag = Diag.create sm in
  let pp = Pp.create diag sm fm in
  let items = Pp.preprocess_main pp (Buf.create ~name:"pp.c" ~contents:source) in
  if (not expect_errors) && Diag.has_errors diag then
    Alcotest.failf "unexpected pp diagnostics:\n%s" (Diag.render_all diag);
  (items, diag)

let spellings items =
  List.map
    (function
      | Pp.Tok t -> Token.spelling t
      | Pp.Prag p ->
        "#pragma<" ^ String.concat " " (List.map Token.spelling p.Pp.pragma_toks) ^ ">")
    items

let check_spellings what source expected =
  let items, _ = preprocess source in
  Alcotest.(check (list string)) what expected (spellings items)

let test_object_macro () =
  check_spellings "simple" "#define N 10\nint x = N;"
    [ "int"; "x"; "="; "10"; ";" ];
  check_spellings "multi-token body" "#define EXPR (1 + 2)\nEXPR" [ "("; "1"; "+"; "2"; ")" ];
  check_spellings "undef" "#define N 1\n#undef N\nN" [ "N" ]

let test_function_macro () =
  check_spellings "args" "#define ADD(a, b) a + b\nADD(1, 2)" [ "1"; "+"; "2" ];
  check_spellings "nested call parens" "#define ID(x) x\nID((1, 2))"
    [ "("; "1"; ","; "2"; ")" ];
  check_spellings "not followed by paren stays" "#define F(x) x\nF + 1"
    [ "F"; "+"; "1" ];
  check_spellings "expansion rescans" "#define A B\n#define B 7\nA" [ "7" ]

let test_recursion_guard () =
  (* Self-referential macros must not loop forever. *)
  check_spellings "self" "#define X X\nX" [ "X" ];
  check_spellings "mutual" "#define A B\n#define B A\nA" [ "A" ]

let test_conditionals () =
  check_spellings "ifdef taken" "#define ON 1\n#ifdef ON\nyes\n#else\nno\n#endif"
    [ "yes" ];
  check_spellings "ifndef" "#ifndef OFF\nyes\n#endif" [ "yes" ];
  check_spellings "if arithmetic" "#if 2 * 3 > 5\nyes\n#else\nno\n#endif" [ "yes" ];
  check_spellings "if defined()" "#define F 1\n#if defined(F) && F\nyes\n#endif"
    [ "yes" ];
  check_spellings "elif chain" "#if 0\na\n#elif 1\nb\n#elif 1\nc\n#else\nd\n#endif"
    [ "b" ];
  check_spellings "nested dead" "#if 0\n#if 1\nx\n#endif\ny\n#endif\nz" [ "z" ];
  check_spellings "macro in condition" "#define V 3\n#if V == 3\nyes\n#endif"
    [ "yes" ];
  check_spellings "ternary" "#if 1 ? 0 : 1\na\n#else\nb\n#endif" [ "b" ]

let test_include () =
  let items, _ =
    preprocess ~files:[ ("lib.h", "#define FROM_HEADER 5\n") ]
      "#include \"lib.h\"\nint x = FROM_HEADER;"
  in
  Alcotest.(check (list string)) "include"
    [ "int"; "x"; "="; "5"; ";" ]
    (spellings items)

(* The first token of the line after an #include belongs after the
   header's tokens, and a directive on that line is read from the
   including file. *)
let test_include_declaration () =
  let items, _ =
    preprocess ~files:[ ("inc.h", "int g;\n") ]
      "#include \"inc.h\"\nlong f(int n) { return n; }"
  in
  Alcotest.(check (list string)) "header first"
    [ "int"; "g"; ";"; "long"; "f"; "("; "int"; "n"; ")"; "{"; "return"; "n";
      ";"; "}" ]
    (spellings items);
  let items, _ =
    preprocess
      ~files:[ ("a.h", "#define A 1\nint a;\n") ]
      "#include \"a.h\"\n#define B 2\nlong x = A + B;"
  in
  Alcotest.(check (list string)) "a directive after an #include"
    [ "int"; "a"; ";"; "long"; "x"; "="; "1"; "+"; "2"; ";" ]
    (spellings items)

let test_include_missing () =
  let _, diag = preprocess ~expect_errors:true "#include \"nope.h\"\n" in
  check_contains ~what:"missing include" (Diag.render_all diag) "file not found"

let test_pragma_assembly () =
  let items, _ =
    preprocess "#pragma omp parallel for schedule(static)\nfor_token" in
  match items with
  | [ Pp.Prag p; Pp.Tok t ] ->
    Alcotest.(check (list string))
      "pragma tokens"
      [ "omp"; "parallel"; "for"; "schedule"; "("; "static"; ")" ]
      (List.map Token.spelling p.Pp.pragma_toks);
    Alcotest.(check string) "next token" "for_token" (Token.spelling t)
  | _ -> Alcotest.fail "expected pragma then token"

let test_pragma_macro_expansion () =
  (* OpenMP requires macro replacement inside directives. *)
  let items, _ = preprocess "#define UF 4\n#pragma omp unroll partial(UF)\nx" in
  match items with
  | [ Pp.Prag p; Pp.Tok _ ] ->
    Alcotest.(check (list string))
      "expanded" [ "omp"; "unroll"; "partial"; "("; "4"; ")" ]
      (List.map Token.spelling p.Pp.pragma_toks)
  | _ -> Alcotest.fail "expected pragma"

let test_unknown_pragma_warns () =
  let items, diag = preprocess "#pragma weird stuff\nx" in
  Alcotest.(check (list string)) "dropped" [ "x" ] (spellings items);
  Alcotest.(check int) "warning" 1 (Diag.warning_count diag)

let test_error_directive () =
  let _, diag = preprocess ~expect_errors:true "#if 0\n#error hidden\n#endif\n#error boom now\n" in
  let rendered = Diag.render_all diag in
  check_contains ~what:"#error text" rendered "#error boom now";
  Alcotest.(check int) "only the live one" 1 (Diag.error_count diag)

let test_unterminated_if () =
  let _, diag = preprocess ~expect_errors:true "#if 1\nx\n" in
  check_contains ~what:"unterminated" (Diag.render_all diag) "unterminated #if"

let test_stringize_and_paste () =
  (* ## pastes tokens; useful with numbered identifiers. *)
  check_spellings "paste idents" "#define GLUE(a, b) a ## b\nGLUE(var, 7)"
    [ "var7" ];
  check_spellings "paste numbers" "#define CAT(a, b) a ## b\nCAT(1, 2)" [ "12" ];
  (* # stringizes the argument's spelling. *)
  let items, _ = preprocess "#define STR(x) #x\nSTR(a + 1)" in
  (match items with
  | [ Pp.Tok { Token.kind = Token.String_lit { value; _ }; _ } ] ->
    Alcotest.(check string) "stringized" "a + 1" value
  | _ -> Alcotest.fail "expected one string literal");
  (* A pasted identifier participates in further expansion per usual
     rescanning rules. *)
  check_spellings "paste then expand"
    "#define N2 42\n#define GLUE(a, b) a ## b\nGLUE(N, 2)" [ "42" ];
  (* Invalid paste diagnoses. *)
  let _, diag =
    preprocess ~expect_errors:true "#define BAD(a) a ## ## \nBAD(x)"
  in
  Alcotest.(check bool) "errors" true (Mc_diag.Diagnostics.has_errors diag)

(* C11 6.10.1p4: #if evaluates in intmax_t/uintmax_t under the usual
   arithmetic conversions. *)
let test_if_arithmetic_types () =
  let taken cond =
    let items, _ =
      preprocess (Printf.sprintf "#if %s\nyes\n#else\nno\n#endif" cond)
    in
    match spellings items with
    | [ "yes" ] -> true
    | [ "no" ] -> false
    | other -> Alcotest.failf "%s: got %s" cond (String.concat " " other)
  in
  List.iter
    (fun (cond, expected) -> Alcotest.(check bool) cond expected (taken cond))
    [
      ("-1 < 0u", false);
      ("-1 < 0", true);
      ("0u - 1 > 0", true);
      ("-1 / 2u > 0", true);
      ("-7 % 5u == 4", true);
      ("-7 % 5 == -2", true);
      ("0xFFFFFFFFFFFFFFFF > 0", true);
      ("18446744073709551615 == -1", true);
      ("(0u - 1) >> 63 == 1", true);
      ("-1 >> 63 == -1", true);
      ("1u << 63 > 0", true);
      ("(1 ? -1 : 0u) > 0", true);
      ("(1 ? -1 : 0) > 0", false);
      ("!0u - 2 < 0", true);
      ("~0u == 0xFFFFFFFFFFFFFFFF", true);
    ]

(* C11 6.5.13-6.5.15: the right operand of a decided && or || and the
   arm ?: does not take are not evaluated, so they raise no evaluation
   error; they are still parsed and the arm still sets the type. *)
let test_if_unevaluated_operands () =
  let run cond =
    let items, diag =
      preprocess ~expect_errors:true
        (Printf.sprintf "#if %s\nyes\n#else\nno\n#endif" cond)
    in
    (spellings items, Diag.render_all diag)
  in
  List.iter
    (fun (cond, expected) ->
      Alcotest.(check (pair (list string) string)) cond (expected, "") (run cond))
    [
      ("0 && (1 / 0)", [ "no" ]);
      ("1 || (1 / 0)", [ "yes" ]);
      ("1 ? 2 : (1 / 0)", [ "yes" ]);
      ("0 ? (1 % 0) : 0", [ "no" ]);
      ("0 && 1 / 0 || 1", [ "yes" ]);
      ("1 || (0 && 1 / 0) / 0", [ "yes" ]);
      ("(1 ? -1 : 0u) < 0", [ "no" ]);
      ("(0 ? 0u : -1) < 0", [ "no" ]);
    ];
  List.iter
    (fun (cond, expected, message) ->
      Alcotest.(check (pair (list string) string))
        cond
        (expected, Printf.sprintf "pp.c:1:1: error: %s\n#if %s\n^\n" message cond)
        (run cond))
    [
      ("1 && (1 / 0)", [ "no" ], "division by zero in #if");
      ("0 || (1 % 0)", [ "no" ], "modulo by zero in #if");
      ("0 ? 1 : (1 / 0)", [ "no" ], "division by zero in #if");
      ("0 && (1 +)", [ "no" ], "expected expression in preprocessor condition");
    ]

(* C11 6.10.3.1: an argument that is no operand of # or ## is
   macro-replaced completely before substitution. *)
let test_argument_pre_expansion () =
  check_spellings "nested call" "#define ID(x) x\nID(ID(5))" [ "5" ];
  check_spellings "three deep" "#define ID(x) x\nID(ID(ID(7)))" [ "7" ];
  check_spellings "another macro in the argument"
    "#define ID(x) x\n#define F(x) x + 1\nID(F(2))" [ "2"; "+"; "1" ];
  check_spellings "a name completed by the argument"
    "#define ID(x) x\n#define G ID\nID(G(3))" [ "3" ];
  check_spellings "a lone function-like name stays"
    "#define ID(x) x\n#define F(x) x\nID(F) (4)" [ "4" ];
  check_spellings "## operands do not expand"
    "#define N 4\n#define CAT(a, b) a ## b\nCAT(N, 2)" [ "N2" ];
  check_spellings "self-reference still stops"
    "#define ID(x) x\n#define X ID(X)\nX" [ "X" ]

(* C11 6.10.3.2: # spells its argument with one space where the argument
   had whitespace, and none elsewhere. *)
let test_stringize_spacing () =
  let prelude = "#define ID(x) x\n#define STR(x) #x\n#define XSTR(x) STR(x)\n" in
  List.iter
    (fun (use, expected) ->
      check_spellings use (prelude ^ use) [ expected ])
    [
      ("STR(ID(5))", "\"ID(5)\"");
      ("XSTR(ID(5))", "\"5\"");
      ("STR(  a   +  b )", "\"a + b\"");
      ("STR(f (x))", "\"f (x)\"");
      ("STR(a\n+b)", "\"a +b\"");
    ];
  (* And the value the parser sees: sizeof("ID(5)") is 6. *)
  let run src = (run_ok src).Mc_interp.Interp.trace in
  Alcotest.(check (list string)) "sizeof through the compiler" [ "6"; "2"; "5" ]
    (List.map
       (function Mc_interp.Interp.T_int v -> Int64.to_string v | T_float _ -> "")
       (run
          (prelude
          ^ "void record(long x);\nint main(void) {\n\
             record(sizeof(STR(ID(5)))); record(sizeof(XSTR(ID(5))));\n\
             record(ID(ID(5)));\nreturn 0; }")))

let test_predefine () =
  let sm = Srcmgr.create () in
  let fm = Fmgr.create () in
  let diag = Diag.create sm in
  let pp = Pp.create diag sm fm in
  Pp.define_object_macro pp ~name:"N" ~body:"32";
  let items = Pp.preprocess_main pp (Buf.create ~name:"p.c" ~contents:"N") in
  Alcotest.(check (list string)) "predefined" [ "32" ] (spellings items);
  Alcotest.(check bool) "listed" true (List.mem "N" (Pp.macro_names pp))

let suite =
  [
    tc "object-like macros" test_object_macro;
    tc "function-like macros" test_function_macro;
    tc "recursion guard" test_recursion_guard;
    tc "conditional compilation" test_conditionals;
    tc "#include via virtual FS" test_include;
    tc "#include of a header holding a declaration" test_include_declaration;
    tc "#include missing file" test_include_missing;
    tc "#pragma omp assembly" test_pragma_assembly;
    tc "macro expansion inside pragmas" test_pragma_macro_expansion;
    tc "unknown pragma warning" test_unknown_pragma_warns;
    tc "#error directive" test_error_directive;
    tc "unterminated #if" test_unterminated_if;
    tc "stringize (#) and paste (##)" test_stringize_and_paste;
    tc "predefined macros (-D)" test_predefine;
    tc "#if arithmetic in intmax_t and uintmax_t" test_if_arithmetic_types;
    tc "#if leaves unevaluated operands unevaluated" test_if_unevaluated_operands;
    tc "arguments expand before substitution" test_argument_pre_expansion;
    tc "# spells whitespace as the argument had it" test_stringize_spacing;
  ]
