(* Crash-resilient compilation: fault containment around deliberate ICEs,
   reproducer bundles and their replayability, recovery AST nodes and
   cascade suppression, resource limits (-ferror-limit, -fbracket-depth,
   -floop-nest-limit), cache/ICE interaction, and a bounded in-process
   fuzz campaign asserting the no-escape invariant. *)

open Helpers
module Driver = Mc_core.Driver
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Batch = Mc_core.Batch
module Crash_recovery = Mc_support.Crash_recovery
module Tree = Mc_ast.Tree

let good_source =
  "void record(long x);\nint main(void) {\nlong s = 0;\n\
   for (int i = 0; i < 10; i += 1) s += i;\nrecord(s);\nreturn 0; }"

(* The crash lives in the source ('#pragma clang __debug crash'), so the
   reproducer bundle replays the ICE by construction. *)
let crash_source =
  "int main(void) {\n#pragma clang __debug crash\nreturn 0; }"

let overflow_source =
  "int main(void) {\n#pragma clang __debug overflow_stack\nreturn 0; }"

(* ---- fault containment ------------------------------------------------ *)

let test_ice_contained_siblings_survive () =
  let inputs =
    [ ("good.c", good_source); ("boom.c", crash_source);
      ("also-good.c", good_source) ]
  in
  let batch = Batch.compile ~jobs:3 ~invocation:Invocation.default inputs in
  Alcotest.(check bool) "batch not all ok" false (Batch.all_ok batch);
  Alcotest.(check int) "one ICE counted" 1 (Batch.ices batch);
  match batch.Batch.units with
  | [ g1; boom; g2 ] ->
    let ok u =
      match u.Batch.u_result with
      | Ok r -> r.Driver.ir <> None
      | Error _ -> false
    in
    Alcotest.(check bool) "first sibling compiled" true (ok g1);
    Alcotest.(check bool) "last sibling compiled" true (ok g2);
    (match boom.Batch.u_result with
    | Ok _ -> Alcotest.fail "deliberate ICE was not contained"
    | Error f ->
      let ice = f.Instance.f_ice in
      check_contains ~what:"ICE message" ice.Crash_recovery.ice_exn
        "crash requested by '#pragma clang __debug crash'";
      Alcotest.(check string) "ICE phase" "parse-sema"
        ice.Crash_recovery.ice_phase;
      (match ice.Crash_recovery.ice_location with
      | Some loc -> check_contains ~what:"source watermark" loc "boom.c"
      | None -> Alcotest.fail "ICE carries no source watermark");
      (* A reproducer bundle exists on disk with source, report, script. *)
      match f.Instance.f_reproducer with
      | None -> Alcotest.fail "no reproducer bundle written"
      | Some dir ->
        Alcotest.(check bool) "bundle dir exists" true
          (Sys.is_directory dir);
        let read name =
          In_channel.with_open_bin (Filename.concat dir name)
            In_channel.input_all
        in
        Alcotest.(check string) "bundled source is the input" crash_source
          (read "boom.c");
        check_contains ~what:"ice.txt" (read "ice.txt") "crash requested";
        let sh = read "repro.sh" in
        check_contains ~what:"repro.sh" sh "exec mcc ";
        check_contains ~what:"repro.sh names the source" sh "boom.c")
  | _ -> Alcotest.fail "unit count"

let test_reproducer_replays () =
  (* The bundle's (invocation rendered via to_argv, bundled source) pair
     must reproduce the ICE when fed back through the public entry points
     — the programmatic equivalent of running repro.sh. *)
  let inv =
    { Invocation.default with Invocation.opt_level = 0; use_irbuilder = true }
  in
  let inst = Instance.create inv in
  match Instance.compile_safe inst ~name:"boom.c" crash_source with
  | Ok _ -> Alcotest.fail "deliberate ICE was not contained"
  | Error { Instance.f_reproducer = None; _ } ->
    Alcotest.fail "no reproducer bundle written"
  | Error { Instance.f_reproducer = Some dir; _ } -> (
    let bundled =
      In_channel.with_open_bin (Filename.concat dir "boom.c")
        In_channel.input_all
    in
    let argv =
      Array.of_list (("mcc" :: Invocation.to_argv inv) @ [ "boom.c" ])
    in
    match Invocation.of_argv argv with
    | Error e -> Alcotest.failf "reproducer argv does not parse: %s" e
    | Ok replay_inv -> (
      Alcotest.(check bool) "replay invocation round-trips" true
        (Invocation.to_driver_options replay_inv
        = Invocation.to_driver_options inv);
      let replay = Instance.create replay_inv in
      match Instance.compile_safe replay ~name:"boom.c" bundled with
      | Ok _ -> Alcotest.fail "replay did not reproduce the ICE"
      | Error f ->
        check_contains ~what:"replayed ICE"
          f.Instance.f_ice.Crash_recovery.ice_exn "crash requested"))

(* A bundle made under a transfo script replays from inside the bundle:
   the script is copied in under its basename, and repro.sh names that
   copy rather than the path the script was given by. *)
let test_reproducer_carries_script () =
  let script = "unroll partial(2) @ for(i)" in
  let inv =
    {
      Invocation.default with
      Invocation.action = Invocation.Emit_ir;
      transfo_script =
        Some
          (Invocation.Source { name = "scripts/dir/unroll.transfo"; contents = script });
    }
  in
  match Instance.compile_safe (Instance.create inv) ~name:"boom.c" crash_source with
  | Ok _ -> Alcotest.fail "deliberate ICE was not contained"
  | Error { Instance.f_reproducer = None; _ } ->
    Alcotest.fail "no reproducer bundle written"
  | Error { Instance.f_reproducer = Some dir; _ } -> (
    let read name =
      In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
    in
    Alcotest.(check string) "bundled script" script (read "unroll.transfo");
    (* The argv repro.sh renders: each argument single-quoted. *)
    let argv =
      match
        List.find_opt
          (fun l -> String.starts_with ~prefix:"exec mcc " l)
          (String.split_on_char '\n' (read "repro.sh"))
      with
      | None -> Alcotest.fail "repro.sh has no exec line"
      | Some line ->
        String.split_on_char ' ' line
        |> List.filteri (fun i _ -> i >= 2)
        |> List.map (fun a -> String.sub a 1 (String.length a - 2))
    in
    Alcotest.(check bool) "repro.sh names the bundled script" true
      (List.mem "-transfo-script=unroll.transfo" argv);
    let cwd = Sys.getcwd () in
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        Sys.chdir dir;
        match Invocation.of_argv (Array.of_list ("mcc" :: argv)) with
        | Error e -> Alcotest.failf "reproducer argv does not parse: %s" e
        | Ok replay -> (
          match Invocation.load_transfo_script replay with
          | Error e -> Alcotest.failf "replay cannot load its script: %s" e
          | Ok replay ->
            Alcotest.(check bool) "replay runs the same script" true
              ((Invocation.to_driver_options replay).Driver.transfo_script
              = Some script);
            match
              Instance.compile_safe
                (Instance.create
                   { replay with Invocation.gen_reproducer = false })
                ~name:"boom.c" (read "boom.c")
            with
            | Ok _ -> Alcotest.fail "replay did not reproduce the ICE"
            | Error f ->
              check_contains ~what:"replayed ICE"
                f.Instance.f_ice.Crash_recovery.ice_exn "crash requested")))

let test_stack_overflow_contained () =
  let inst = Instance.create Invocation.default in
  match Instance.compile_safe inst ~name:"deep.c" overflow_source with
  | Ok _ -> Alcotest.fail "stack overflow was not contained"
  | Error f ->
    check_contains ~what:"overflow ICE"
      f.Instance.f_ice.Crash_recovery.ice_exn "tack overflow"

let test_no_reproducer_when_disabled () =
  let inv = { Invocation.default with Invocation.gen_reproducer = false } in
  let inst = Instance.create inv in
  match Instance.compile_safe inst ~name:"boom.c" crash_source with
  | Ok _ -> Alcotest.fail "deliberate ICE was not contained"
  | Error f ->
    Alcotest.(check bool) "no bundle under -fno-crash-diagnostics" true
      (f.Instance.f_reproducer = None)

(* The transfo pre-stage alone is contained like a compile: an ICE in the
   script engine's parse is a failure naming its phase, a script-level
   failure is a value, and both leave the instance usable. *)
let test_transform_safe () =
  let inv script =
    {
      Invocation.default with
      Invocation.gen_reproducer = false;
      transfo_script =
        Some (Invocation.Source { name = "s.transfo"; contents = script });
    }
  in
  let inst = Instance.create (inv "unroll partial(2) @ for(i)") in
  (match Instance.transform_safe inst ~name:"boom.c" crash_source with
  | Ok _ -> Alcotest.fail "deliberate ICE in the transfo stage escaped"
  | Error f ->
    Alcotest.(check string) "ICE phase" "parse-sema"
      f.Instance.f_ice.Crash_recovery.ice_phase;
    let report = Instance.render_failure ~name:"boom.c" f in
    check_contains ~what:"ICE report" report
      "internal compiler error compiling boom.c";
    check_contains ~what:"ICE report" report "phase: parse-sema, near boom.c";
    check_contains ~what:"server-side ICE report"
      (Instance.render_failure ~server_side:true ~name:"boom.c" f)
      "[contained by daemon]");
  Alcotest.(check int) "driver.ices" 1
    (Mc_support.Stats.find (Instance.stats inst) "driver.ices");
  (match Instance.transform_safe inst ~name:"good.c" good_source with
  | Ok (Ok (_, rewritten, _)) ->
    check_contains ~what:"rewritten source" rewritten
      "#pragma omp unroll partial(2)"
  | Ok (Error msg) -> Alcotest.failf "good script failed: %s" msg
  | Error _ -> Alcotest.fail "good script ICEd");
  match
    Instance.transform_safe
      (Instance.create (inv "unroll @ for(nope)"))
      ~name:"good.c" good_source
  with
  | Ok (Error msg) ->
    check_contains ~what:"script failure" msg "matched no statement"
  | Ok (Ok _) -> Alcotest.fail "bad script succeeded"
  | Error _ -> Alcotest.fail "bad script ICEd"

(* ---- cache / ICE interaction ------------------------------------------ *)

let test_ice_and_errors_never_cached () =
  let inv = { Invocation.default with Invocation.cache_enabled = true } in
  let inst = Instance.create inv in
  let cache =
    match Instance.cache inst with
    | Some c -> c
    | None -> Alcotest.fail "instance has no cache"
  in
  let backend_lengths () =
    List.map
      (fun stage -> Mc_core.Cache.stage_length cache ~stage)
      [ "ast"; "fnir"; "optir" ]
  in
  (* An ICE must leave nothing from the dying stage onward: storing is
     the last act of each successfully executed stage, so a unit that
     dies in parse-sema may have cached its (clean) pp artifact but never
     an AST, IR or OptIR. *)
  (match Instance.compile_safe inst ~name:"boom.c" crash_source with
  | Ok _ -> Alcotest.fail "deliberate ICE was not contained"
  | Error _ -> ());
  Alcotest.(check (list int)) "no backend artifacts after ICE" [ 0; 0; 0 ]
    (backend_lengths ());
  (* A unit with diagnostics is never stored from the diagnosed stage on
     either. *)
  let broken = "int main(void) { return undeclared_thing; }" in
  (match Instance.compile_safe inst ~name:"broken.c" broken with
  | Ok { Instance.c_cache_hit; _ } ->
    Alcotest.(check bool) "broken unit not a hit" false c_cache_hit
  | Error f ->
    Alcotest.failf "diagnosed unit must not ICE: %s"
      f.Instance.f_ice.Crash_recovery.ice_exn);
  Alcotest.(check (list int)) "no backend artifacts after errors" [ 0; 0; 0 ]
    (backend_lengths ());
  (* A clean compile afterwards stores every stage and then hits. *)
  (match Instance.compile_safe inst ~name:"clean.c" good_source with
  | Ok { Instance.c_cache_hit; _ } ->
    Alcotest.(check bool) "first clean compile misses" false c_cache_hit
  | Error _ -> Alcotest.fail "clean unit ICEd");
  Alcotest.(check (list int)) "clean unit stored each backend stage"
    [ 1; 1; 1 ] (backend_lengths ());
  match Instance.compile_safe inst ~name:"clean.c" good_source with
  | Ok { Instance.c_cache_hit; _ } ->
    Alcotest.(check bool) "second clean compile hits" true c_cache_hit
  | Error _ -> Alcotest.fail "clean unit ICEd on the hit path"

(* ---- resource limits --------------------------------------------------- *)

let test_error_limit () =
  (* limit errors, then one final fatal, then silence: limit + 1 total. *)
  let options = { classic with Driver.error_limit = 3 } in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "int main(void) {\n";
  for i = 1 to 10 do
    Buffer.add_string buf (Printf.sprintf "int a%d = undeclared_%d;\n" i i)
  done;
  Buffer.add_string buf "return 0; }\n";
  let diag, _ = Driver.frontend ~options (Buffer.contents buf) in
  Alcotest.(check int) "limit + 1 errors" 4 (Diag.error_count diag);
  Alcotest.(check bool) "limit reached" true (Diag.error_limit_reached diag);
  check_contains ~what:"final fatal" (Diag.render_all diag)
    "too many errors emitted, stopping now [-ferror-limit=]";
  (* Unlimited (the 0 setting) reports everything. *)
  let diag, _ =
    Driver.frontend
      ~options:{ classic with Driver.error_limit = 0 }
      (Buffer.contents buf)
  in
  Alcotest.(check int) "unlimited reports all" 10 (Diag.error_count diag)

let test_bracket_depth () =
  let deep n =
    "int main(void) { return " ^ String.concat "" (List.init n (fun _ -> "("))
    ^ "1" ^ String.concat "" (List.init n (fun _ -> ")")) ^ "; }"
  in
  let options = { classic with Driver.bracket_depth = 16 } in
  let diag, _ = Driver.frontend ~options (deep 40) in
  check_contains ~what:"bracket depth diagnostic" (Diag.render_all diag)
    "nesting level exceeds maximum of 16 [-fbracket-depth=]";
  (* The same source parses clean under a roomier limit. *)
  let diag, _ =
    Driver.frontend ~options:{ classic with Driver.bracket_depth = 64 } (deep 40)
  in
  Alcotest.(check bool) "fits under 64" false (Diag.has_errors diag);
  (* The guard also covers pathological statement nesting. *)
  let braces n =
    "int main(void) { " ^ String.concat "" (List.init n (fun _ -> "{")) ^ "1;"
    ^ String.concat "" (List.init n (fun _ -> "}")) ^ " return 0; }"
  in
  let diag, _ = Driver.frontend ~options (braces 40) in
  check_contains ~what:"brace depth diagnostic" (Diag.render_all diag)
    "[-fbracket-depth=]"

(* A statement whose first operand or pragma lies just past the limit
   recovers without consuming a token; the enclosing block then steps
   over it, so the parse ends with one diagnostic instead of parsing the
   same statement forever. *)
let test_bracket_depth_progress () =
  List.iter
    (fun (depth, source) ->
      let diag, _ =
        Driver.frontend ~options:{ classic with Driver.bracket_depth = depth }
          source
      in
      check_contains ~what:source (Diag.render_all diag)
        (Printf.sprintf "nesting level exceeds maximum of %d [-fbracket-depth=]"
           depth))
    [
      (2, "void f(long *C) { int i = 0; }");
      (2, "void f(void) { long i; for (i = 0;;) ; }");
      (2, "void f(long *C) { for (int i = 0; i < 8; i += 1) C[i] = 0; }");
      (1, "int main(void) {\n#pragma omp unroll partial(2)\n\
           for (int i = 0; i < 4; i += 1) ;\nreturn 0; }");
    ]

let test_loop_nest_limit () =
  let source =
    "int main(void) {\nlong s = 0;\n#pragma omp for collapse(100)\n\
     for (int i = 0; i < 4; i += 1) s += i;\nreturn 0; }"
  in
  let diag, tu = Driver.frontend ~options:classic source in
  check_contains ~what:"nest limit diagnostic" (Diag.render_all diag)
    "requires a loop nest of depth 100, which exceeds the maximum of 64 \
     [-floop-nest-limit=]";
  Alcotest.(check bool) "directive marked as erroneous" true
    (Tree.tu_contains_errors tu);
  (* Under a raised limit the same directive is refused only for the
     missing loops (collect_nest reports the depth still unsatisfied
     after consuming the one loop that is there). *)
  let diag, _ =
    Driver.frontend
      ~options:{ classic with Driver.loop_nest_limit = 128 }
      source
  in
  check_contains ~what:"within raised limit" (Diag.render_all diag)
    "expected 99 nested canonical for loop(s) after the directive"

(* ---- parser/sema recovery on malformed directives ---------------------- *)

let recovers ~what ~substring source =
  let diag, tu = Driver.frontend ~options:classic source in
  check_contains ~what (Diag.render_all diag) substring;
  Alcotest.(check bool) (what ^ ": AST marked") true
    (Tree.tu_contains_errors tu)

let test_malformed_directives_recover () =
  let wrap pragma loop =
    "int main(void) {\nlong s = 0;\n" ^ pragma ^ "\n" ^ loop ^ "\nreturn 0; }"
  in
  let counted_loop = "for (int i = 0; i < 8; i += 1) s += i;" in
  recovers ~what:"unknown clause"
    ~substring:"unknown OpenMP clause 'nonsense'"
    (wrap "#pragma omp unroll nonsense(3)" counted_loop);
  recovers ~what:"missing close paren"
    ~substring:"expected ')' in OpenMP clause"
    (wrap "#pragma omp unroll partial(2" counted_loop);
  recovers ~what:"non-positive partial"
    ~substring:"argument of 'partial' clause must be positive (got 0)"
    (wrap "#pragma omp unroll partial(0)" counted_loop);
  (* sizes(2, 2) wants a 2-deep nest; the body of the single loop is not a
     loop, so collection fails with one level still unsatisfied. *)
  recovers ~what:"tile arity mismatch"
    ~substring:"expected 1 nested canonical for loop(s) after the directive"
    (wrap "#pragma omp tile sizes(2, 2)" counted_loop);
  recovers ~what:"directive without a loop"
    ~substring:"expected 1 nested canonical for loop(s) after the directive"
    (wrap "#pragma omp unroll" "s += 1;")

let test_malformed_directive_does_not_cascade () =
  (* One malformed clause produces exactly one error — the rest of the
     unit still parses and analyzes (the trailing undeclared identifier
     is still caught, nothing else piles up). *)
  let source =
    "int main(void) {\nlong s = 0;\n#pragma omp unroll partial(0)\n\
     for (int i = 0; i < 8; i += 1) s += i;\nreturn later;\n}"
  in
  let diag, _ = Driver.frontend ~options:classic source in
  Alcotest.(check int) "exactly two errors" 2 (Diag.error_count diag);
  check_contains ~what:"second error" (Diag.render_all diag)
    "use of undeclared identifier 'later'"

(* ---- recovery AST nodes ------------------------------------------------ *)

let test_recovery_expr_in_ast () =
  let source = "int main(void) { return undeclared_thing + 1; }" in
  let diag, tu = Driver.frontend ~options:classic source in
  Alcotest.(check int) "single diagnostic" 1 (Diag.error_count diag);
  Alcotest.(check bool) "contains_errors set" true
    (Tree.tu_contains_errors tu);
  check_contains ~what:"ast dump" (Mc_ast.Dump.translation_unit tu)
    "RecoveryExpr";
  (* Codegen refuses the erroneous subtree cleanly instead of crashing. *)
  let r = Driver.compile ~options:classic source in
  Alcotest.(check bool) "no IR for error AST" true (r.Driver.ir = None)

let test_recovery_expr_suppresses_cascade () =
  (* Assigning through / taking the address of a recovery expression must
     not pile secondary "not assignable" errors on the primary one. *)
  let source =
    "int main(void) {\nint y = undeclared_a;\nundeclared_b += 2;\n\
     int *p = &undeclared_c;\nreturn 0; }"
  in
  let diag, _ = Driver.frontend ~options:classic source in
  Alcotest.(check int) "three primary errors only" 3 (Diag.error_count diag)

let test_error_stmt_unparse_and_dump () =
  let source = "int main(void) {\n#pragma clang bogus\nreturn 0;\n}" in
  let diag, tu = Driver.frontend ~options:classic source in
  Alcotest.(check bool) "diagnosed" true (Diag.has_errors diag);
  check_contains ~what:"diagnostic" (Diag.render_all diag)
    "unknown clang pragma";
  check_contains ~what:"dump shows ErrorStmt"
    (Mc_ast.Dump.translation_unit tu) "ErrorStmt"

(* ---- batch statistics -------------------------------------------------- *)

let test_batch_failure_taxonomy () =
  let inputs =
    [ ("ice.c", crash_source);
      ("diag.c", "int main(void) { return undeclared; }");
      (* Sema-clean but refused by codegen (pointers as booleans are
         outside the supported subset) — the third failure class. *)
      ( "refused.c",
        "int main(void) { int x = 0; int *p = &x; if (p) return 1;\n\
         return 0; }" );
      ("ok.c", good_source) ]
  in
  let batch = Batch.compile ~jobs:2 ~invocation:Invocation.default inputs in
  Alcotest.(check int) "ices" 1 (Batch.ices batch);
  Alcotest.(check int) "error units" 1 (Batch.errors batch);
  Alcotest.(check int) "codegen refusals" 1 (Batch.codegen_errors batch);
  Alcotest.(check bool) "merged stats count the ICE" true
    (List.mem_assoc "driver.ices" batch.Batch.stats
    && List.assoc "driver.ices" batch.Batch.stats = 1)

(* ---- invocation flags round-trip --------------------------------------- *)

let test_limit_flags_round_trip () =
  let argv =
    [|
      "mcc"; "-ferror-limit=7"; "-fbracket-depth=32"; "-floop-nest-limit=9";
      "-fno-crash-diagnostics"; "x.c";
    |]
  in
  let inv =
    match Invocation.of_argv argv with
    | Ok inv -> inv
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check int) "error limit" 7 inv.Invocation.error_limit;
  Alcotest.(check int) "bracket depth" 32 inv.Invocation.bracket_depth;
  Alcotest.(check int) "loop nest limit" 9 inv.Invocation.loop_nest_limit;
  Alcotest.(check bool) "reproducers off" false inv.Invocation.gen_reproducer;
  (* to_argv renders the non-default settings back; of_argv re-reads them. *)
  let argv' = Array.of_list (("mcc" :: Invocation.to_argv inv) @ [ "x.c" ]) in
  (match Invocation.of_argv argv' with
  | Ok inv' ->
    Alcotest.(check bool) "argv round-trips" true
      (inv' = { inv with Invocation.inputs = inv'.Invocation.inputs })
  | Error e -> Alcotest.failf "re-parse failed: %s" e);
  (* The -help text names every flag to_argv can render: take an
     invocation with every setting off its default, plus one per action
     (each with the bare -cache and -daemon spellings). *)
  let everything =
    {
      Invocation.default with
      Invocation.action = Invocation.Analyze;
      analyze = Some [ "deps" ];
      use_irbuilder = true;
      opt_level = 0;
      fold = false;
      defines = [ ("K", "2") ];
      jobs = 2;
      cache_enabled = true;
      cache_dir = Some "store";
      incremental = true;
      daemon = true;
      daemon_socket = Some "sock";
      daemon_timeout = Some 1.5;
      daemon_retries = Some 2;
      num_threads = 2;
      stage_timings = true;
      time_report = true;
      print_stats = true;
      error_limit = 7;
      bracket_depth = 32;
      loop_nest_limit = 9;
      transfo_script = Some (Invocation.File "x.transfo");
      transfo_check = false;
      analyze_format = "json";
      gen_reproducer = false;
    }
  in
  (* Every setting survives the trip through repro.sh's command line. *)
  (match
     Invocation.of_argv
       (Array.of_list (("mcc" :: Invocation.to_argv everything) @ [ "x.c" ]))
   with
  | Ok inv' ->
    Alcotest.(check bool) "every setting round-trips" true
      (inv' = { everything with Invocation.inputs = [ Invocation.File "x.c" ] })
  | Error e -> Alcotest.failf "re-parse of every setting failed: %s" e);
  let per_action =
    List.map
      (fun action ->
        {
          Invocation.default with
          Invocation.action;
          cache_enabled = true;
          daemon = true;
        })
      Invocation.
        [
          Run; Ast_dump; Ast_dump_shadow; Ast_print; Print_transformed;
          Emit_ir; Emit_transformed; Syntax_only;
        ]
  in
  let flag_name arg =
    let arg =
      match String.index_opt arg '=' with
      | Some i -> String.sub arg 0 i
      | None -> arg
    in
    (* One-letter flags carry their value attached: -DK=2, -j2, -O0. *)
    if List.mem (String.sub arg 0 2) [ "-D"; "-j"; "-O" ] then String.sub arg 0 2
    else arg
  in
  let named name =
    (* [name] as a whole word: not just the prefix of a longer flag. *)
    let n = String.length name and u = Invocation.usage in
    let rec at i =
      i + n <= String.length u
      && ((String.sub u i n = name
          && (i + n = String.length u
             || not
                  (match u.[i + n] with
                  | 'a' .. 'z' | '0' .. '9' | '-' -> true
                  | _ -> false)))
         || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun inv ->
      List.iter
        (fun arg ->
          let name = flag_name arg in
          if not (named name) then
            Alcotest.failf "-help does not name %s (rendered as %s)" name arg)
        (Invocation.to_argv inv))
    (everything :: per_action)

(* ---- bounded fuzz campaign --------------------------------------------- *)

let test_fuzz_no_escape () =
  let report =
    Mc_fuzz.Fuzz.run ~corpus:[ good_source ] ~jobs:[ 1; 2 ] ~n:24 ~seed:42 ()
  in
  Alcotest.(check int) "all inputs exercised" 24 report.Mc_fuzz.Fuzz.total;
  match report.Mc_fuzz.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "containment violated on %s (-j %d): %s\nminimized:\n%s"
      f.Mc_fuzz.Fuzz.fz_name f.Mc_fuzz.Fuzz.fz_jobs f.Mc_fuzz.Fuzz.fz_message
      f.Mc_fuzz.Fuzz.fz_source

let test_fuzz_minimizer () =
  (* The minimizer strips everything not needed to reproduce the crash. *)
  let noisy =
    "void record(long x);\nint unused(int a) { return a * 2; }\n"
    ^ crash_source
  in
  let minimized = Mc_fuzz.Fuzz.minimize noisy in
  check_contains ~what:"kept the crash line" minimized "__debug crash";
  Alcotest.(check bool) "dropped unrelated code" false
    (contains_substring minimized "unused");
  Alcotest.(check bool) "still fails" true
    (String.length minimized < String.length noisy)

let suite =
  [
    tc "ICE contained, siblings survive, bundle on disk"
      test_ice_contained_siblings_survive;
    tc "reproducer bundle replays the ICE" test_reproducer_replays;
    tc "stack overflow contained" test_stack_overflow_contained;
    tc "-fno-crash-diagnostics suppresses bundles"
      test_no_reproducer_when_disabled;
    tc "ICEs and diagnosed units never cached" test_ice_and_errors_never_cached;
    tc "-ferror-limit stops the cascade" test_error_limit;
    tc "-fbracket-depth guards parser recursion" test_bracket_depth;
    tc "-floop-nest-limit caps directive depth" test_loop_nest_limit;
    tc "malformed directives recover with exact diagnostics"
      test_malformed_directives_recover;
    tc "malformed directive does not cascade"
      test_malformed_directive_does_not_cascade;
    tc "RecoveryExpr in AST; codegen refuses" test_recovery_expr_in_ast;
    tc "recovery expressions suppress cascades"
      test_recovery_expr_suppresses_cascade;
    tc "ErrorStmt visible in dumps" test_error_stmt_unparse_and_dump;
    tc "batch failure taxonomy (ices/errors/codegen)"
      test_batch_failure_taxonomy;
    tc "limit flags parse, render and fingerprint"
      test_limit_flags_round_trip;
    tc "bounded fuzz: no escapes at -j 1 and -j 2" test_fuzz_no_escape;
    tc "fuzz minimizer shrinks a crashing input" test_fuzz_minimizer;
    tc "transform_safe contains the transfo stage" test_transform_safe;
    tc "reproducer bundle carries the transfo script"
      test_reproducer_carries_script;
    tc "a statement at the -fbracket-depth limit makes progress"
      test_bracket_depth_progress;
  ]
