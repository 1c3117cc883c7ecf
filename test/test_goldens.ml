(* Golden tests for the paper's AST listings (Figs. 2, 6, 7, 9) and the IR
   loop skeleton (Fig. 10).  The goldens assert the structural lines the
   paper shows, insensitive to the exact indentation prefix. *)

open Helpers
module Driver = Mc_core.Driver

(* Every [expected] line must appear in [dump], in order (substring match
   per line, so tree-art prefixes don't matter). *)
let check_lines_in_order ~what dump expected =
  let lines = String.split_on_char '\n' dump in
  let rec go lines = function
    | [] -> ()
    | needle :: rest -> (
      match
        List.filteri
          (fun _ line -> contains_substring line needle)
          lines
      with
      | [] ->
        Alcotest.failf "%s: line %S not found (in order) in:\n%s" what needle dump
      | _ ->
        (* advance past the first occurrence *)
        let rec drop = function
          | [] -> []
          | l :: ls -> if contains_substring l needle then ls else drop ls
        in
        go (drop lines) rest)
  in
  go lines expected

let fig2_source =
  "void body(int i);\n\
   int main(void) {\n\
   #pragma omp parallel for schedule(static)\n\
   for (int i = 7; i < 17; i += 3)\n\
   body(i);\n\
   return 0; }"

let test_fig2_astdump () =
  let dump = Driver.ast_dump fig2_source in
  check_lines_in_order ~what:"Fig 2b" dump
    [
      "OMPParallelForDirective";
      "OMPScheduleClause static";
      "CapturedStmt";
      "CapturedDecl nothrow";
      "ForStmt";
      "DeclStmt";
      "used i 'int' cinit";
      "IntegerLiteral 'int' 7";
      "CallExpr 'void'";
      "ImplicitParamDecl implicit .global_tid.";
      "ImplicitParamDecl implicit .bound_tid.";
      "ImplicitParamDecl implicit __context";
      "VarDecl";
    ]

let fig6_source =
  "void body(int i);\n\
   int main(void) {\n\
   #pragma omp unroll full\n\
   #pragma omp unroll partial(2)\n\
   for (int i = 7; i < 17; i += 3)\n\
   body(i);\n\
   return 0; }"

let test_fig6_astdump () =
  let dump = Driver.ast_dump fig6_source in
  check_lines_in_order ~what:"Fig 6b" dump
    [
      "OMPUnrollDirective";
      "OMPFullClause";
      "OMPUnrollDirective";
      "OMPPartialClause";
      "ConstantExpr 'int'";
      "value: Int 2";
      "IntegerLiteral 'int' 2";
      "ForStmt";
      "DeclStmt";
      "VarDecl";
      "IntegerLiteral 'int' 7";
      "<<<NULL>>>";
      "CallExpr 'void'";
    ];
  (* The outer (full) directive has no shadow transformed AST; the inner
     (partial) one does — visible only in the shadow dump. *)
  let shadow = Driver.ast_dump ~shadow:true fig6_source in
  check_contains ~what:"shadow reveals" shadow "<transformed>"

let test_fig7_transformed () =
  let _, tu = Driver.frontend fig6_source in
  let inner = ref None in
  List.iter
    (function
      | Mc_ast.Tree.Tu_fn { fn_body = Some body; _ } ->
        Mc_ast.Visit.iter ~shadow:false
          ~on_stmt:(fun s ->
            match s.s_kind with
            | Mc_ast.Tree.Omp_directive d
              when d.Mc_ast.Tree.dir_kind = Mc_ast.Tree.D_unroll
                   && d.Mc_ast.Tree.dir_transformed <> None ->
              inner := Some d
            | _ -> ())
          body
      | _ -> ())
    tu.Mc_ast.Tree.tu_decls;
  match !inner with
  | None -> Alcotest.fail "inner unroll with transformed AST not found"
  | Some d -> (
    match Mc_ast.Dump.transformed_stmt d with
    | None -> Alcotest.fail "no transformed dump"
    | Some dump ->
      check_lines_in_order ~what:"Fig 7" dump
        [
          "ForStmt";
          ".unrolled.iv.i";
          "AttributedStmt";
          "LoopHintAttr Implicit loop UnrollCount Numeric";
          "IntegerLiteral 'int' 2";
          "ForStmt";
          ".unroll_inner.iv.i";
        ])

let fig9_source =
  "void body(int i);\n\
   int main(void) {\n\
   #pragma omp unroll partial(2)\n\
   for (int i = 7; i < 17; i += 3)\n\
   body(i);\n\
   return 0; }"

let test_fig9_astdump () =
  let options = { Driver.default_options with Driver.use_irbuilder = true } in
  let dump = Driver.ast_dump ~options fig9_source in
  check_lines_in_order ~what:"Fig 9" dump
    [
      "OMPUnrollDirective";
      "OMPPartialClause";
      "OMPCanonicalLoop";
      "ForStmt";
      "CallExpr 'void'";
      "CapturedStmt"; (* distance function *)
      "CapturedDecl nothrow";
      "CapturedStmt"; (* loop value function *)
      "CapturedDecl nothrow";
      "DeclRefExpr 'int' lvalue Var 'i' 'int'";
    ]

let test_fig10_ir_skeleton () =
  (* Raw CodeGen output (no cleanup passes, which would merge the skeleton
     blocks away). *)
  let options = { Driver.default_options with Driver.use_irbuilder = true } in
  let diag, tu =
    Driver.frontend ~options
      ("void body(int i);\nint main(void) {\n#pragma omp for\n\
        for (int i = 0; i < 128; i += 1) body(i);\nreturn 0; }")
  in
  Alcotest.(check bool) "frontend ok" false (Mc_diag.Diagnostics.has_errors diag);
  match
    Some
      (Mc_codegen.Codegen.emit_translation_unit
         ~mode:Mc_codegen.Codegen.Irbuilder tu)
  with
  | None -> Alcotest.fail "no IR"
  | Some m ->
    let text = Mc_ir.Printer.module_to_string m in
    List.iter
      (fun block ->
        check_contains ~what:"Fig 10 skeleton block" text (block ^ ":"))
      [
        "omp_loop.preheader"; "omp_loop.header"; "omp_loop.cond"; "omp_loop.body";
        "omp_loop.inc"; "omp_loop.exit"; "omp_loop.after";
      ];
    check_contains ~what:"iv phi" text "phi i32 [ 0, %omp_loop.preheader ]";
    check_contains ~what:"trip cmp" text "icmp ult";
    check_contains ~what:"worksharing init" text "__kmpc_for_static_init";
    check_contains ~what:"fini" text "__kmpc_for_static_fini";
    check_contains ~what:"barrier" text "__kmpc_barrier"

(* Fig 8: the range-for de-sugaring stages recorded on the AST node. *)
let test_fig8_rangefor_desugar () =
  let _, tu =
    Driver.frontend
      "void recordf(double x);\nint main(void) {\n\
       double a[4];\nfor (int i = 0; i < 4; i += 1) a[i] = i;\n\
       for (double &v : a) recordf(v);\nreturn 0; }"
  in
  let dump = Mc_ast.Dump.translation_unit tu in
  check_lines_in_order ~what:"Fig 8 helpers" dump
    [ "CXXForRangeStmt"; "__range"; "__begin"; "__end" ]

(* OpenMP 6.0 preview node names in the dump (extension goldens). *)
let test_omp60_dumps () =
  let dump =
    Driver.ast_dump
      "void record(long x);\nint main(void) {\n\
       #pragma omp interchange permutation(2, 1)\n\
       for (int i = 0; i < 2; i += 1)\nfor (int j = 0; j < 2; j += 1) record(i);\n\
       #pragma omp reverse\nfor (int i = 0; i < 2; i += 1) record(i);\n\
       #pragma omp fuse\n{\nfor (int i = 0; i < 2; i += 1) record(i);\n\
       for (int j = 0; j < 2; j += 1) record(j);\n}\nreturn 0; }"
  in
  check_lines_in_order ~what:"omp 6.0 nodes" dump
    [
      "OMPInterchangeDirective";
      "OMPPermutationClause";
      "value: Int 2";
      "OMPReverseDirective";
      "OMPFuseDirective";
      "CompoundStmt";
    ]

let test_switch_dump_and_unparse () =
  let src =
    "void record(long x);\nint main(void) {\n\
     switch (3) { case 1: record(1); break; default: record(0); }\nreturn 0; }"
  in
  let dump = Driver.ast_dump src in
  check_lines_in_order ~what:"switch nodes" dump
    [ "SwitchStmt"; "CaseStmt"; "BreakStmt"; "DefaultStmt" ];
  let _, tu = Driver.frontend src in
  let printed = Mc_ast.Unparse.translation_unit_to_string tu in
  check_contains ~what:"unparse" printed "switch (3)";
  check_contains ~what:"case" printed "case 1:";
  check_contains ~what:"default" printed "default:"

(* ---- direct paper statements -------------------------------------------- *)

(* §1.1: the intro example's pragma form is "semantically equivalent" to the
   manually unrolled version with the guarded second body. *)
let test_intro_equivalence () =
  let pragma_version =
    "void record(long x);\nvoid body(int i) { record(i); }\n\
     int main(void) {\nint N = 11;\n\
     #pragma omp parallel for\n#pragma omp unroll partial(2)\n\
     for (int i = 0; i < N; i += 1)\nbody(i);\nreturn 0; }"
  in
  let manual_version =
    "void record(long x);\nvoid body(int i) { record(i); }\n\
     int main(void) {\nint N = 11;\n\
     #pragma omp parallel for\n\
     for (int i = 0; i < N; i += 2) {\nbody(i);\nif (i + 1 < N) body(i + 1);\n}\n\
     return 0; }"
  in
  List.iter
    (fun threads ->
      let a = trace_of ~num_threads:threads pragma_version in
      let b = trace_of ~num_threads:threads manual_version in
      (* The unrolled loop has ceil(N/2) logical iterations in both forms, so
         worksharing splits identically and the traces agree exactly. *)
      Alcotest.(check bool)
        (Printf.sprintf "equivalent at %d threads" threads)
        true
        (Mc_interp.Interp.trace_equal a b))
    [ 1; 2; 4 ]

(* Listing 1: the remainder-loop formulation equals the single-loop form. *)
let test_listing1_equivalence () =
  let plain =
    "void record(long x);\nvoid body(int i) { record(i); }\n\
     int main(void) {\nint N = 13;\n\
     #pragma omp unroll partial(4)\n\
     for (int i = 0; i < N; i += 1) body(i);\nreturn 0; }"
  in
  let listing1 =
    "void record(long x);\nvoid body(int i) { record(i); }\n\
     int main(void) {\nint N = 13;\nint i = 0;\n\
     for (; i + 3 < N; i += 4) {\n\
     body(i);\nbody(i + 1);\nbody(i + 2);\nbody(i + 3);\n}\n\
     for (; i < N; i += 1)\nbody(i);\nreturn 0; }"
  in
  let a = trace_of plain and b = trace_of listing1 in
  Alcotest.(check bool) "Listing 1 preserves semantics" true
    (Mc_interp.Interp.trace_equal a b)

(* §1.1: "transformations are applied in reverse order as they appear in
   the source" — so swapping two transformations changes the iteration
   order (each stays self-consistent across representations, which the
   differential suite already guarantees). *)
let test_application_order_matters () =
  let reverse_of_tile =
    "void record(long x);\nint main(void) {\n\
     #pragma omp reverse\n#pragma omp tile sizes(3)\n\
     for (int i = 0; i < 8; i += 1) record(i);\nreturn 0; }"
  in
  let tile_of_reverse =
    "void record(long x);\nint main(void) {\n\
     #pragma omp tile sizes(3)\n#pragma omp reverse\n\
     for (int i = 0; i < 8; i += 1) record(i);\nreturn 0; }"
  in
  let a = trace_of reverse_of_tile and b = trace_of tile_of_reverse in
  Alcotest.(check bool) "different orders" false
    (Mc_interp.Interp.trace_equal a b);
  (* Both are permutations of 0..7. *)
  let sorted t =
    List.sort compare
      (List.filter_map
         (function Mc_interp.Interp.T_int v -> Some v | _ -> None)
         t)
  in
  Alcotest.(check (list int64)) "same iteration set"
    (List.init 8 Int64.of_int) (sorted a);
  Alcotest.(check (list int64)) "same iteration set (b)"
    (List.init 8 Int64.of_int) (sorted b)

(* A committed digest golden against the lines its generator prints now:
   every generated line must be in the file, and the counts must agree. *)
let check_golden ~file ~regenerate actual =
  let expected =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let differing = List.filter (fun l -> not (List.mem l expected)) actual in
  if differing <> [] then
    Alcotest.failf "%d of %d digests differ from test/%s, e.g.:\n%s\n(%s)"
      (List.length differing) (List.length actual) file
      (String.concat "\n" (List.filteri (fun i _ -> i < 5) differing))
      regenerate;
  Alcotest.(check int) "one digest per golden line" (List.length expected)
    (List.length actual)

let examples_dir = Filename.concat ".." "examples"

(* The committed IR digests (test/irdigest): --emit-ir text must stay
   byte-identical for examples/*.c and the fixed-seed generated units,
   under both lowerings at -O0 and -O1.  An intended IR change
   regenerates the file (see ir_digest.ml) and says so in CHANGES.md. *)
let test_ir_digests () =
  check_golden ~file:"irdigest/ir_digests.txt"
    ~regenerate:"regenerate it only for an intended IR change; see ir_digest.ml"
    (Ir_digest.lines ~examples_dir)

(* The committed token-stream digests (test/tokdigest): the lexer's
   tokens, locations, flags and diagnostics must stay exactly those the
   golden was generated with (see tok_digest.ml). *)
let test_tok_digests () =
  check_golden ~file:"tokdigest/tok_digests.txt"
    ~regenerate:
      "regenerate it only for an intended change to the tokens; see \
       tok_digest.ml"
    (Tok_digest.lines ~examples_dir)

(* The committed analysis report digests (test/andigest): every
   finding, note and verdict of the --analyze report, text and JSON,
   must stay exactly what the golden was generated with (see
   an_digest.ml). *)
let test_an_digests () =
  check_golden ~file:"andigest/an_digests.txt"
    ~regenerate:
      "regenerate it only for an intended change to a report; see \
       an_digest.ml"
    (An_digest.lines ~examples_dir)

let suite =
  [
    tc "paper 1.1: intro example equivalence" test_intro_equivalence;
    tc "paper Listing 1: remainder-form equivalence" test_listing1_equivalence;
    tc "paper 1.1: reverse application order" test_application_order_matters;
    tc "OpenMP 6.0 node names" test_omp60_dumps;
    tc "switch dump and unparse" test_switch_dump_and_unparse;
    tc "Fig 2: parallel for AST dump" test_fig2_astdump;
    tc "Fig 6: composed unroll AST dump" test_fig6_astdump;
    tc "Fig 7: transformed shadow AST" test_fig7_transformed;
    tc "Fig 9: OMPCanonicalLoop AST dump" test_fig9_astdump;
    tc "Fig 10: IR loop skeleton" test_fig10_ir_skeleton;
    tc "Fig 8: range-for helper variables" test_fig8_rangefor_desugar;
    tc "IR digests match the committed golden" test_ir_digests;
    tc "token digests match the committed golden" test_tok_digests;
    tc "analysis digests match the committed golden" test_an_digests;
  ]
