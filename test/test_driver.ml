(* Driver-level tests: options, stage timings, virtual includes, error
   propagation — the public API surface the examples and mcc rely on. *)

open Helpers
module Driver = Mc_core.Driver
module Interp = Mc_interp.Interp

let test_stage_timings () =
  let result =
    Driver.compile
      "void record(long x);\nint main(void) { for (int i = 0; i < 50; i += 1) record(i); return 0; }"
  in
  let t = result.Driver.timings in
  List.iter
    (fun (what, v) ->
      if v < 0.0 then Alcotest.failf "%s negative" what)
    [
      ("lex", t.Driver.t_lex);
      ("preprocess", t.Driver.t_preprocess);
      ("parse+sema", t.Driver.t_parse_sema);
      ("codegen", t.Driver.t_codegen);
      ("passes", t.Driver.t_passes);
    ];
  Alcotest.(check bool) "ir produced" true (result.Driver.ir <> None)

let test_extra_files () =
  let options =
    {
      Driver.default_options with
      Driver.extra_files =
        [ ("config.h", "#define LIMIT 4\n#define STEP 2\n") ];
    }
  in
  let outcome =
    match
      Driver.compile_and_run ~options
        "#include \"config.h\"\nvoid record(long x);\n\
         int main(void) { for (int i = 0; i < LIMIT; i += STEP) record(i); return 0; }"
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "failed: %s" e
  in
  Alcotest.(check string) "include worked" "0;2"
    (trace_to_string outcome.Interp.trace)

let test_defines () =
  let options =
    { Driver.default_options with Driver.defines = [ ("N", "3") ] }
  in
  let outcome =
    match
      Driver.compile_and_run ~options
        "void record(long x);\nint main(void) { record(N * N); return 0; }"
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "failed: %s" e
  in
  Alcotest.(check string) "-D worked" "9" (trace_to_string outcome.Interp.trace)

let test_error_propagation () =
  (* Compile errors surface through compile_and_run. *)
  (match Driver.compile_and_run "int main(void) { return undefined_var; }" with
  | Error msg -> check_contains ~what:"diag" msg "use of undeclared identifier"
  | Ok _ -> Alcotest.fail "should fail");
  (* Runtime traps surface as errors, not exceptions. *)
  match
    Driver.compile_and_run
      "int zero(void) { return 0; }\nint main(void) { return 1 / zero(); }"
  with
  | Error msg -> check_contains ~what:"trap" msg "division by zero"
  | Ok _ -> Alcotest.fail "should trap"

let test_verify_ir_flag () =
  (* Every compile goes through the verifier and the pass manager's
     inter-pass checks; this is a smoke test that a decently complex
     program stays verifiable at every stage. *)
  let source =
    "void record(long x);\n\
     long work(int n) {\n\
     long acc = 0;\n\
     #pragma omp parallel for reduction(+: acc) schedule(dynamic, 2)\n\
     #pragma omp unroll partial(3)\n\
     for (int i = 0; i < n; i += 1) acc += i * i;\n\
     return acc;\n}\n\
     int main(void) { record(work(40)); return 0; }"
  in
  List.iter
    (fun options ->
      let r = Driver.compile ~options source in
      Alcotest.(check bool) "compiled" true (r.Driver.ir <> None))
    [ classic; irbuilder; o0 classic; o0 irbuilder ]

let test_ast_dump_flags () =
  let source =
    "void record(long x);\nint main(void) {\n#pragma omp tile sizes(2)\n\
     for (int i = 0; i < 4; i += 1) record(i);\nreturn 0; }"
  in
  let plain = Driver.ast_dump source in
  let shadow = Driver.ast_dump ~shadow:true source in
  Alcotest.(check bool) "plain hides" false
    (contains_substring plain "<transformed>");
  check_contains ~what:"shadow shows" shadow "<transformed>";
  check_contains ~what:"floor iv" shadow ".floor.0.iv.i"

let test_step_counting_monotone () =
  (* More iterations must cost more interpreter steps. *)
  let steps n =
    let source =
      Printf.sprintf
        "void record(long x);\nint main(void) { long s = 0; for (int i = 0; i < %d; i += 1) s += i; record(s); return 0; }"
        n
    in
    (run_ok source).Interp.steps
  in
  let s10 = steps 10 and s100 = steps 100 in
  if s100 <= s10 then Alcotest.failf "steps not monotone: %d vs %d" s10 s100

let suite =
  [
    tc "stage timings populated" test_stage_timings;
    tc "virtual #include files" test_extra_files;
    tc "-D defines" test_defines;
    tc "errors and traps propagate" test_error_propagation;
    tc "verified IR at every stage" test_verify_ir_flag;
    tc "ast dump flags" test_ast_dump_flags;
    tc "step counting is monotone" test_step_counting_monotone;
  ]
