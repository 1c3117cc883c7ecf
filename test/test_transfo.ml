(* Transfo suite: target-DSL resolution (hit / miss / ambiguity), the
   scripted-vs-pragma IR identity that makes the engine trustworthy, the
   memset idiom rewrite, the differential oracle, transfo-stage caching
   (content change invalidates, comment edit hits), and the new flags'
   argv round-trip. *)

open Helpers
module Driver = Mc_core.Driver
module Pipeline = Mc_core.Pipeline
module Cache = Mc_core.Cache
module Invocation = Mc_core.Invocation
module Target = Mc_transfo.Target
module Script = Mc_transfo.Script
module Engine = Mc_transfo.Engine
module Diag = Mc_diag.Diagnostics

let frontend = Driver.frontend ~options:(o0 classic)

let resolve source target =
  let diag, tu = frontend source in
  if Diag.has_errors diag then
    Alcotest.failf "frontend failed:\n%s" (Diag.render_all diag);
  (Target.resolve diag tu target, diag)

let count_substring hay needle =
  let n = String.length needle in
  let rec go from acc =
    if from + n > String.length hay then acc
    else if String.sub hay from n = needle then go (from + 1) (acc + 1)
    else go (from + 1) acc
  in
  go 0 0

(* ---- resolution ---------------------------------------------------------- *)

let two_loops =
  "void record(long x);\n\
   int main(void) {\n\
  \  long s = 0;\n\
  \  for (int i = 0; i < 4; i += 1) s += i;\n\
  \  for (int i = 0; i < 8; i += 1) s += i;\n\
  \  record(s);\n\
  \  return 0;\n\
   }\n"

let test_resolution_hit () =
  match resolve two_loops (Target.occurrence (Target.cFor "i") 1) with
  | Ok stmt, _ ->
    Alcotest.(check (option string))
      "resolved an i loop" (Some "i")
      (Target.loop_var_name stmt)
  | Error Target.Resolution_failed, diag ->
    Alcotest.failf "resolution failed:\n%s" (Diag.render_all diag)

let test_resolution_miss () =
  match resolve two_loops (Target.cFor "zz") with
  | Ok _, _ -> Alcotest.fail "for(zz) resolved against a program without one"
  | Error Target.Resolution_failed, diag ->
    check_contains ~what:"miss diagnostic" (Diag.render_all diag)
      "matched no statement"

(* The ambiguity-refusal regression of the issue: two i loops, a bare
   for(i) target, and a diagnostic locating both candidates. *)
let test_resolution_ambiguity () =
  match
    resolve two_loops (Target.nested_in (Target.cFun "main") (Target.cFor "i"))
  with
  | Ok _, _ -> Alcotest.fail "ambiguous target resolved silently"
  | Error Target.Resolution_failed, diag ->
    let rendered = Diag.render_all diag in
    check_contains ~what:"ambiguity diagnostic" rendered "matched 2 statements";
    check_contains ~what:"disambiguation hint" rendered "occurrence";
    Alcotest.(check int) "one note per candidate" 2
      (count_substring rendered "note:")

let test_resolution_occurrence () =
  let pick k =
    match
      resolve two_loops
        (Target.occurrence
           (Target.nested_in (Target.cFun "main") (Target.cFor "i"))
           k)
    with
    | Ok stmt, _ -> stmt
    | Error Target.Resolution_failed, diag ->
      Alcotest.failf "occurrence(%d) failed:\n%s" k (Diag.render_all diag)
  in
  let first = pick 1 and second = pick 2 in
  Alcotest.(check bool) "occurrences are distinct statements" true
    (first.Mc_ast.Tree.s_id <> second.Mc_ast.Tree.s_id)

(* ---- scripted vs pragma'd: byte-identical IR ----------------------------- *)

let wrap body =
  "void record(long x);\n\
   int main(void) {\n\
  \  long s = 0;\n" ^ body ^ "  record(s);\n  return 0;\n}\n"

let ij_nest =
  "  for (int i = 0; i < 6; i += 1)\n\
  \    for (int j = 0; j < 4; j += 1)\n\
  \      s += i * 10 + j;\n"

(* (label, script, plain body, hand-pragma'd body) *)
let identity_cases =
  [
    ( "unroll",
      "unroll partial(3) @ for(i)",
      "  for (int i = 0; i < 12; i += 1) s += i;\n",
      "  #pragma omp unroll partial(3)\n\
      \  for (int i = 0; i < 12; i += 1) s += i;\n" );
    ( "tile",
      "tile sizes(2,2) @ for(i)",
      ij_nest,
      "  #pragma omp tile sizes(2,2)\n" ^ ij_nest );
    ( "stripe",
      "stripe sizes(4) @ for(i)",
      "  for (int i = 0; i < 12; i += 1) s += i;\n",
      "  #pragma omp stripe sizes(4)\n\
      \  for (int i = 0; i < 12; i += 1) s += i;\n" );
    ( "reverse",
      "reverse @ for(i)",
      "  for (int i = 0; i < 9; i += 1) s += i * 7;\n",
      "  #pragma omp reverse\n\
      \  for (int i = 0; i < 9; i += 1) s += i * 7;\n" );
    ( "interchange",
      "interchange permutation(2,1) @ for(i)",
      ij_nest,
      "  #pragma omp interchange permutation(2,1)\n" ^ ij_nest );
    ( "fuse",
      "fuse @ seq",
      "  {\n\
      \    for (int i = 0; i < 8; i += 1) s += i;\n\
      \    for (int i = 0; i < 8; i += 1) s += i * 3;\n\
      \  }\n",
      "  #pragma omp fuse\n\
      \  {\n\
      \    for (int i = 0; i < 8; i += 1) s += i;\n\
      \    for (int i = 0; i < 8; i += 1) s += i * 3;\n\
      \  }\n" );
    ( "fission",
      "fission @ for(i)",
      "  long t = 0;\n\
      \  for (int i = 0; i < 8; i += 1) {\n\
      \    s += i;\n\
      \    t += i * 2;\n\
      \  }\n\
      \  s += t;\n",
      "  long t = 0;\n\
      \  #pragma omp fission\n\
      \  for (int i = 0; i < 8; i += 1) {\n\
      \    s += i;\n\
      \    t += i * 2;\n\
      \  }\n\
      \  s += t;\n" );
  ]

let ir_text ~what (options : Driver.options) source =
  let r = Driver.compile ~options source in
  if Diag.has_errors r.Driver.diag then
    Alcotest.failf "%s failed to compile:\n%s" what
      (Diag.render_all r.Driver.diag);
  match r.Driver.ir with
  | Some m -> Mc_ir.Printer.module_to_string m
  | None ->
    Alcotest.failf "%s produced no IR (%s)" what
      (Option.value ~default:"?" r.Driver.codegen_error)

let test_scripted_matches_pragma () =
  List.iter
    (fun (label, script, plain, pragma'd) ->
      List.iter
        (fun (mode, options) ->
          let scripted =
            ir_text
              ~what:(label ^ " scripted " ^ mode)
              { options with Driver.transfo_script = Some script }
              (wrap plain)
          in
          let by_hand =
            ir_text ~what:(label ^ " pragma'd " ^ mode) options (wrap pragma'd)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: scripted IR = pragma'd IR (%s)" label mode)
            by_hand scripted)
        [ ("classic", classic); ("irbuilder", irbuilder) ])
    identity_cases

(* Composition: a later step targets the same region an earlier step
   already pragma'd; the insertion hops above the existing block, so the
   result equals writing both pragmas by hand (outermost last). *)
let test_scripted_composition_matches_pragma () =
  let script = "tile sizes(2,2) @ for(i)\nreverse @ for(i)" in
  let by_hand =
    wrap ("  #pragma omp reverse\n  #pragma omp tile sizes(2,2)\n" ^ ij_nest)
  in
  List.iter
    (fun (mode, options) ->
      let scripted =
        ir_text
          ~what:("composition scripted " ^ mode)
          { options with Driver.transfo_script = Some script }
          (wrap ij_nest)
      in
      Alcotest.(check string)
        ("composed script IR = stacked pragmas IR (" ^ mode ^ ")")
        (ir_text ~what:("composition pragma'd " ^ mode) options by_hand)
        scripted)
    [ ("classic", classic); ("irbuilder", irbuilder) ]

(* ---- semantic preservation (fission/fuse round trip) --------------------- *)

let test_fission_fuse_preserve_trace () =
  List.iter
    (fun (label, script, body) ->
      let plain = wrap body in
      let reference = trace_of ~options:classic plain in
      let scripted =
        trace_of
          ~options:{ classic with Driver.transfo_script = Some script }
          plain
      in
      Alcotest.(check string)
        (label ^ " preserves the execution trace")
        (trace_to_string reference)
        (trace_to_string scripted))
    [
      ( "fission",
        "fission @ for(i)",
        "  long t = 0;\n\
        \  for (int i = 0; i < 10; i += 1) {\n\
        \    s += i;\n\
        \    t += i * i;\n\
        \  }\n\
        \  s += t;\n" );
      ( "fuse",
        "fuse @ seq",
        "  {\n\
        \    for (int i = 0; i < 10; i += 1) s += i;\n\
        \    for (int i = 0; i < 10; i += 1) s += i * i;\n\
        \  }\n" );
    ]

(* ---- the memset idiom rewrite -------------------------------------------- *)

let memset_program =
  "void record(long x);\n\
   int main(void) {\n\
  \  long a[8];\n\
  \  for (int i = 0; i < 8; i += 1) a[i] = 0;\n\
  \  long s = 5;\n\
  \  for (int i = 0; i < 8; i += 1) s += a[i];\n\
  \  record(s);\n\
  \  return 0;\n\
   }\n"

let test_memset_positive () =
  let script = "memset @ fun(main) for(i) occurrence(1)" in
  match
    Pipeline.transform ~options:classic ~name:"m.c" ~script memset_program
  with
  | Error e -> Alcotest.failf "memset rewrite failed: %s" e
  | Ok (_, rewritten, trace) ->
    check_contains ~what:"rewritten source" rewritten "memset(a, 0, 64);";
    check_contains ~what:"declared the builtin" rewritten "void memset(";
    check_contains ~what:"step trace" trace "[checked]";
    (* The rewritten program runs on the interpreter's memset builtin and
       observes exactly what the zeroing loop observed. *)
    Alcotest.(check string) "trace preserved"
      (trace_to_string (trace_of ~options:classic memset_program))
      (trace_to_string (trace_of ~options:classic rewritten))

let test_memset_negative () =
  let not_zeroing =
    "void record(long x);\n\
     int main(void) {\n\
    \  long a[8];\n\
    \  for (int i = 0; i < 8; i += 1) a[i] = 1;\n\
    \  long s = 0;\n\
    \  for (int i = 0; i < 8; i += 1) s += a[i];\n\
    \  record(s);\n\
    \  return 0;\n\
     }\n"
  in
  match
    Pipeline.transform ~options:classic ~name:"m.c"
      ~script:"memset @ fun(main) for(i) occurrence(1)" not_zeroing
  with
  | Ok _ -> Alcotest.fail "non-zeroing loop was rewritten to memset"
  | Error e -> check_contains ~what:"refusal" e "does not match the memset idiom"

(* ---- the differential oracle --------------------------------------------- *)

(* 'reverse' on a loop whose body reads the running sum is
   order-sensitive: record(s) differs after reversal, so the checked
   engine must refuse the step. *)
let test_check_catches_divergence () =
  let source =
    wrap "  for (int i = 0; i < 6; i += 1) s = s * 2 + i;\n"
  in
  let options = { classic with Driver.transfo_script = Some "reverse @ for(i)" } in
  let r = Driver.compile ~options source in
  Alcotest.(check bool) "divergent step is an error" true
    (Diag.has_errors r.Driver.diag);
  check_contains ~what:"oracle diagnostic"
    (Diag.render_all r.Driver.diag)
    "semantic check failed";
  (* --no-transfo-check applies the same step unchecked. *)
  let unchecked = { options with Driver.transfo_check = false } in
  let r = Driver.compile ~options:unchecked source in
  Alcotest.(check bool) "unchecked step applies" false
    (Diag.has_errors r.Driver.diag)

let test_script_error_located () =
  let source = wrap "  for (int i = 0; i < 6; i += 1) s += i;\n" in
  let options =
    { classic with Driver.transfo_script = Some "unroll @ for(i)\ntile sizes(2,2) @ for(q)" }
  in
  let r = Driver.compile ~options source in
  Alcotest.(check bool) "bad target is an error" true
    (Diag.has_errors r.Driver.diag);
  let rendered = Diag.render_all r.Driver.diag in
  check_contains ~what:"failing line named" rendered "transfo script line 2";
  check_contains ~what:"resolution message" rendered "matched no statement"

(* ---- caching ------------------------------------------------------------- *)

let cached_source = wrap ij_nest

let test_transform_cache () =
  let cache = Cache.create () in
  let script = "tile sizes(2,2) @ for(i)  # tile the nest" in
  let go script source =
    match Pipeline.transform ~cache ~options:classic ~name:"t.c" ~script source with
    | Ok r -> r
    | Error e -> Alcotest.failf "transform failed: %s" e
  in
  let outcome1, src1, _ = go script cached_source in
  Alcotest.(check bool) "cold executes" true (outcome1 = Pipeline.Executed);
  Alcotest.(check int) "one transfo artifact" 1
    (Cache.stage_length cache ~stage:"transfo");
  let outcome2, src2, _ = go script cached_source in
  Alcotest.(check bool) "warm hits" true (outcome2 = Pipeline.Cache_hit);
  Alcotest.(check string) "identical rewrite on hit" src1 src2;
  (* A comment-only script edit keeps the canonical form: still a hit. *)
  let outcome3, _, _ =
    go "tile sizes(2,2) @ for(i)  # a different comment\n" cached_source
  in
  Alcotest.(check bool) "comment edit still hits" true
    (outcome3 = Pipeline.Cache_hit);
  (* Changing script content or source content invalidates. *)
  let outcome4, _, _ = go "tile sizes(3,3) @ for(i)" cached_source in
  Alcotest.(check bool) "script change misses" true (outcome4 = Pipeline.Executed);
  let outcome5, _, _ = go script (cached_source ^ "// trailing\n") in
  Alcotest.(check bool) "source change misses" true (outcome5 = Pipeline.Executed)

let test_scripted_pipeline_full_hit () =
  let cache = Cache.create () in
  let options =
    { classic with Driver.transfo_script = Some "unroll partial(2) @ for(i)" }
  in
  let source = wrap "  for (int i = 0; i < 12; i += 1) s += i;\n" in
  let cold = Pipeline.execute ~cache ~options source in
  Alcotest.(check string) "cold runs the transfo pre-stage"
    "transfo:run pp:run ast:run ir:run optir:run"
    (Pipeline.render_trace cold.Pipeline.x_trace);
  Alcotest.(check bool) "cold is not a full hit" false cold.Pipeline.x_full_hit;
  let warm = Pipeline.execute ~cache ~options source in
  Alcotest.(check string) "warm hits every stage including transfo"
    "transfo:hit pp:hit ast:hit ir:hit optir:hit"
    (Pipeline.render_trace warm.Pipeline.x_trace);
  Alcotest.(check bool) "warm is a full hit" true warm.Pipeline.x_full_hit;
  (* The transformed view survives the cache. *)
  match warm.Pipeline.x_result.Pipeline.transformed with
  | Some (src, _) -> check_contains ~what:"cached rewrite" src "#pragma omp unroll"
  | None -> Alcotest.fail "warm result lost the transformed source"

(* ---- the examples/ acceptance scenario ----------------------------------- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* The hand-pragma'd equivalent of examples/matmul.transfo applied to
   examples/matmul.c. *)
let matmul_by_hand =
  "void record(long x);\n\n\
   void matmat(long *C, long *A, long *B) {\n\
  \  #pragma omp tile sizes(4,4)\n\
  \  for (int i = 0; i < 8; i += 1)\n\
  \    for (int j = 0; j < 8; j += 1) {\n\
  \      C[i * 8 + j] = 0;\n\
  \      #pragma omp unroll partial(2)\n\
  \      for (int k = 0; k < 8; k += 1)\n\
  \        C[i * 8 + j] = C[i * 8 + j] + A[i * 8 + k] * B[k * 8 + j];\n\
  \    }\n\
   }\n\n\
   int main(void) {\n\
  \  long A[64], B[64], C[64];\n\
  \  #pragma omp fission\n\
  \  for (int v = 0; v < 64; v += 1) {\n\
  \    A[v] = v % 7;\n\
  \    B[v] = v % 5 - 2;\n\
  \  }\n\
  \  matmat(C, A, B);\n\
  \  long s = 0;\n\
  \  for (int w = 0; w < 64; w += 1) s += C[w];\n\
  \  record(s);\n\
  \  return 0;\n\
   }\n"

let test_example_script_end_to_end () =
  let source = read_file (Filename.concat ".." "examples/matmul.c") in
  let script = read_file (Filename.concat ".." "examples/matmul.transfo") in
  (* tile + unroll + fission on named loops of the un-pragma'd program:
     byte-identical IR to the hand-pragma'd source in both
     representations. *)
  List.iter
    (fun (mode, options) ->
      let scripted =
        ir_text
          ~what:("matmul scripted " ^ mode)
          { options with Driver.transfo_script = Some script }
          source
      in
      Alcotest.(check string)
        ("matmul: scripted IR = pragma'd IR (" ^ mode ^ ")")
        (ir_text ~what:("matmul pragma'd " ^ mode) options matmul_by_hand)
        scripted)
    [ ("classic", classic); ("irbuilder", irbuilder) ];
  (* The checked script preserves the program's behaviour. *)
  Alcotest.(check string) "matmul: script preserves the trace"
    (trace_to_string (trace_of ~options:classic source))
    (trace_to_string
       (trace_of
          ~options:{ classic with Driver.transfo_script = Some script }
          source))

(* A warm second run through a persistent on-disk store: every stage —
   the transfo pre-stage included — is served from the store even after
   a simulated process restart (fresh Store + Cache on the same dir). *)
let test_example_script_persistent_warm_hit () =
  let dir = Filename.temp_file "mcc-transfo-store" "" in
  Sys.remove dir;
  Mc_support.Binio.mkdir_p dir;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      let source = read_file (Filename.concat ".." "examples/matmul.c") in
      let script = read_file (Filename.concat ".." "examples/matmul.transfo") in
      let options = { classic with Driver.transfo_script = Some script } in
      let execute () =
        let cache =
          Mc_core.Cache.create ~store:(Mc_core.Store.create ~dir ()) ()
        in
        Pipeline.execute ~cache ~options ~name:"matmul.c" source
      in
      let cold = execute () in
      Alcotest.(check bool) "cold has no errors" false
        (Diag.has_errors cold.Pipeline.x_result.Pipeline.diag);
      Alcotest.(check bool) "cold is not a full hit" false
        cold.Pipeline.x_full_hit;
      let warm = execute () in
      Alcotest.(check bool) "warm full hit across the restart" true
        warm.Pipeline.x_full_hit;
      Alcotest.(check string) "warm reuses every stage"
        "transfo:hit pp:hit ast:hit ir:hit optir:hit"
        (Pipeline.render_trace warm.Pipeline.x_trace))

(* ---- invocation flags ---------------------------------------------------- *)

let test_invocation_argv_roundtrip () =
  match
    Invocation.of_argv
      [| "mcc"; "--transfo-script"; "x.transfo"; "--no-transfo-check"; "a.c" |]
  with
  | Error e -> Alcotest.failf "of_argv failed: %s" e
  | Ok inv ->
    Alcotest.(check bool) "script captured" true
      (inv.Invocation.transfo_script = Some (Invocation.File "x.transfo"));
    Alcotest.(check bool) "check disabled" false inv.Invocation.transfo_check;
    let rendered = Invocation.to_argv inv in
    Alcotest.(check bool) "script rendered" true
      (List.mem "-transfo-script=x.transfo" rendered);
    Alcotest.(check bool) "no-check rendered" true
      (List.mem "-no-transfo-check" rendered)

let suite =
  [
    tc "target resolves a unique loop" test_resolution_hit;
    tc "target miss is diagnosed" test_resolution_miss;
    tc "ambiguity is refused with located notes" test_resolution_ambiguity;
    tc "occurrence(k) disambiguates" test_resolution_occurrence;
    tc "scripted IR is byte-identical to pragma'd IR"
      test_scripted_matches_pragma;
    tc "script composition stacks pragmas like hand-written source"
      test_scripted_composition_matches_pragma;
    tc "fission and fuse preserve the trace" test_fission_fuse_preserve_trace;
    tc "memset idiom rewrite (positive)" test_memset_positive;
    tc "memset idiom refusal (negative)" test_memset_negative;
    tc "the differential oracle rejects divergent steps"
      test_check_catches_divergence;
    tc "script errors name the failing line" test_script_error_located;
    tc "transfo cache: content misses, comment edits hit" test_transform_cache;
    tc "scripted pipeline reaches a warm full hit"
      test_scripted_pipeline_full_hit;
    tc "examples/matmul.transfo end to end" test_example_script_end_to_end;
    tc "examples script: warm full hit via the persistent store"
      test_example_script_persistent_warm_hit;
    tc "argv round-trip of the transfo flags" test_invocation_argv_roundtrip;
  ]
