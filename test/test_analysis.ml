(* Dataflow analysis suite: engine convergence on diamonds and loops,
   the uninitialized-read / unreachable-code / resource-leak passes
   (true positives and the false-positive guards), the per-directive
   dependence verdicts on known-safe and known-unsafe loops, and
   warm-cache report identity through the pipeline's analysis stage. *)

open Helpers
module Driver = Mc_core.Driver
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Stats = Mc_support.Stats
module Ir = Mc_ir.Ir
module Srcmgr = Mc_srcmgr.Source_manager
module Cfg = Mc_analysis.Cfg
module Dataflow = Mc_analysis.Dataflow
module Analyzer = Mc_analysis.Analyzer
module Report = Mc_analysis.Report

(* Compile classic -O0 (allocas intact — what the pipeline's analysis
   stage analyses) and hand back the module plus a describe function. *)
let compile_ir source =
  let r = Driver.compile ~options:(o0 classic) source in
  if Diag.has_errors r.Driver.diag then
    Alcotest.failf "compile failed:\n%s" (Diag.render_all r.Driver.diag);
  match r.Driver.ir with
  | Some m -> (m, fun loc -> Srcmgr.describe r.Driver.srcmgr loc)
  | None ->
    Alcotest.failf "no IR (%s)"
      (Option.value ~default:"?" r.Driver.codegen_error)

let func_named m name =
  match
    List.find_opt (fun (f : Ir.func) -> f.Ir.f_name = name) m.Ir.m_funcs
  with
  | Some f -> f
  | None -> Alcotest.failf "no function '%s' in the module" name

(* Through the driver's own analyze hook — the report comes off the
   pre-pass IR exactly as `mcc --analyze` sees it (allocas intact, dead
   blocks not yet pruned). *)
let analyze ?(passes = []) source =
  let options = { (o0 classic) with Driver.analyze = Some passes } in
  let r = Driver.compile ~options source in
  if Diag.has_errors r.Driver.diag then
    Alcotest.failf "compile failed:\n%s" (Diag.render_all r.Driver.diag);
  match r.Driver.analysis with
  | Some report -> report
  | None -> Alcotest.fail "driver produced no analysis report"

let findings_of_pass report pass =
  List.filter (fun (f : Report.finding) -> f.Report.f_pass = pass)
    (Report.findings report)

let verdict_of report ~func ~directive =
  match
    List.find_opt (fun (lr : Report.loop_report) -> lr.Report.lr_func = func)
      (Report.loops report)
  with
  | None -> Alcotest.failf "no loop report for '%s'" func
  | Some lr -> (
    match
      List.find_opt
        (fun (dv : Report.directive_verdict) ->
          dv.Report.dv_directive = directive)
        lr.Report.lr_directives
    with
    | Some dv -> dv.Report.dv_verdict
    | None -> Alcotest.failf "no '%s' verdict for '%s'" directive func)

let check_verdict msg want report ~func ~directive =
  Alcotest.(check string) msg
    (Report.verdict_name want)
    (Report.verdict_name (verdict_of report ~func ~directive))

(* ---- the engine ---------------------------------------------------------- *)

(* A step of the tests' own for the solver: the slots stored on some
   path to a point. *)
let stored_on_some_path (i : Ir.inst) fact =
  match i.Ir.i_kind with
  | Ir.Store { ptr; _ } -> (
    match Dataflow.slot_of_ptr ptr with
    | Some s -> Dataflow.Int_set.add s.Ir.i_id fact
    | None -> fact)
  | _ -> fact

let slot_named (cfg : Cfg.t) name =
  let slot =
    List.find_map
      (fun b ->
        List.find_opt
          (fun (i : Ir.inst) ->
            i.Ir.i_name = name
            && match i.Ir.i_kind with Ir.Alloca _ -> true | _ -> false)
          (Ir.block_insts b))
      cfg.Cfg.rpo
  in
  match slot with
  | Some i -> i.Ir.i_id
  | None -> Alcotest.failf "no slot '%s'" name

let return_block (cfg : Cfg.t) =
  List.find
    (fun (b : Ir.block) ->
      match b.Ir.b_term with Ir.Ret _ -> true | _ -> false)
    cfg.Cfg.rpo

(* An if/else diamond is acyclic: the FIFO worklist seeded in RPO must
   converge in one sweep (every block transferred exactly once), and the
   facts from both arms must reach the join. *)
let test_engine_diamond_converges () =
  let m, _ =
    compile_ir
      "long f(long n) {\n  long x;\n  long y;\n\
      \  if (n > 0) x = 1; else y = 2;\n  return n;\n}\n\
       int main(void) { return 0; }"
  in
  let cfg = Cfg.build (func_named m "f") in
  let n_blocks = List.length cfg.Cfg.rpo in
  let sol =
    Dataflow.solve cfg ~boundary:Dataflow.Int_set.empty
      ~step:stored_on_some_path
  in
  Alcotest.(check int) "acyclic graph: one transfer per block" n_blocks
    sol.Dataflow.iterations;
  (* each arm stores its own slot; the return block joins both *)
  let at_join = sol.Dataflow.entry_fact (return_block cfg) in
  Alcotest.(check (pair bool bool)) "facts from both arms reach the join"
    (true, true)
    ( Dataflow.Int_set.mem (slot_named cfg "x") at_join,
      Dataflow.Int_set.mem (slot_named cfg "y") at_join )

(* A loop needs a second visit of the header (the latch feeds facts
   back), strictly more transfers than blocks — and still terminates. *)
let test_engine_loop_converges () =
  let m, _ =
    compile_ir
      "long g(long n) {\n  long s = 0;\n  long last;\n\
      \  for (long i = 0; i < n; i += 1) { s = s + i; last = i; }\n\
      \  return s;\n}\n\
       int main(void) { return 0; }"
  in
  let cfg = Cfg.build (func_named m "g") in
  let n_blocks = List.length cfg.Cfg.rpo in
  let sol =
    Dataflow.solve cfg ~boundary:Dataflow.Int_set.empty
      ~step:stored_on_some_path
  in
  Alcotest.(check bool) "cyclic graph: needed a re-visit" true
    (sol.Dataflow.iterations > n_blocks);
  Alcotest.(check bool) "and converged in few sweeps" true
    (sol.Dataflow.iterations <= 4 * n_blocks);
  (* 'last' is stored only in the body, so it reaches the exit only
     around the back edge *)
  Alcotest.(check bool) "the body's fact reaches the exit around the back edge"
    true
    (Dataflow.Int_set.mem (slot_named cfg "last")
       (sol.Dataflow.entry_fact (return_block cfg)))

(* ---- uninit -------------------------------------------------------------- *)

let test_uninit_true_positive () =
  let report =
    analyze ~passes:[ "uninit" ]
      "long f(long n) {\n  long x;\n  if (n > 0) x = n;\n  return x + 1;\n}\n\
       int main(void) { return 0; }"
  in
  match findings_of_pass report "uninit" with
  | [ f ] ->
    Alcotest.(check bool) "names the variable" true
      (contains_substring f.Report.f_msg "'x'")
  | fs -> Alcotest.failf "expected exactly 1 uninit finding, got %d"
            (List.length fs)

(* Both arms of the diamond initialize: the kill-on-store reaching-defs
   must not cry wolf at the join. *)
let test_uninit_false_positive_guard () =
  let report =
    analyze ~passes:[ "uninit" ]
      "long f(long n) {\n  long x;\n  if (n > 0) x = n; else x = 0;\n\
      \  return x + 1;\n}\nint main(void) { return 0; }"
  in
  Alcotest.(check int) "no finding when every path initializes" 0
    (List.length (findings_of_pass report "uninit"))

(* ---- leak ---------------------------------------------------------------- *)

let leaky =
  "long *malloc(long n);\nvoid free(long *p);\n\
   long f(long n) {\n  long *p = malloc(8 * n);\n\
  \  if (n > 64) return -1;\n  free(p);\n  return 0;\n}\n\
   int main(void) { return 0; }"

let test_leak_on_early_return () =
  let report = analyze ~passes:[ "leak" ] leaky in
  match findings_of_pass report "leak" with
  | [ f ] ->
    Alcotest.(check bool) "names the holder" true
      (contains_substring f.Report.f_msg "'p'")
  | fs ->
    Alcotest.failf "expected exactly 1 leak finding, got %d" (List.length fs)

let test_no_leak_when_all_paths_release () =
  let report =
    analyze ~passes:[ "leak" ]
      "long *malloc(long n);\nvoid free(long *p);\n\
       long f(long n) {\n  long *p = malloc(8 * n);\n\
      \  if (n > 64) { free(p); return -1; }\n  free(p);\n  return 0;\n}\n\
       int main(void) { return 0; }"
  in
  Alcotest.(check int) "no finding when every path releases" 0
    (List.length (findings_of_pass report "leak"))

(* ---- unreachable --------------------------------------------------------- *)

let test_unreachable_after_return () =
  let report =
    analyze ~passes:[ "unreachable" ]
      "long f(long v) {\n  return v;\n  v = 0;\n  return v;\n}\n\
       int main(void) { return 0; }"
  in
  Alcotest.(check bool) "statements after return are reported" true
    (List.length (findings_of_pass report "unreachable") >= 1)

let test_reachable_code_is_silent () =
  let report =
    analyze ~passes:[ "unreachable" ]
      "long f(long v) {\n  if (v > 0) return v;\n  return 0 - v;\n}\n\
       int main(void) { return 0; }"
  in
  Alcotest.(check int) "no finding on fully reachable code" 0
    (List.length (findings_of_pass report "unreachable"))

(* ---- dependence verdicts ------------------------------------------------- *)

let test_deps_known_safe () =
  let report =
    analyze ~passes:[ "deps" ]
      "long elem(long n) {\n  long A[64];\n  long B[64];\n\
      \  for (long i = 0; i < 64; i += 1) B[i] = i;\n\
      \  for (long i = 0; i < 64; i += 1) A[i] = B[i] + 1;\n\
      \  return A[5];\n}\n\
       long red(long n) {\n  long s = 0;\n\
      \  for (long i = 0; i < n; i += 1) s = s + i;\n  return s;\n}\n\
       void nest(void) {\n  long C[100];\n\
      \  for (long i = 0; i < 10; i += 1)\n\
      \    for (long j = 0; j < 10; j += 1)\n      C[i * 10 + j] = i + j;\n}\n\
       int main(void) { return 0; }"
  in
  check_verdict "element-wise copy reverses safely" Report.Safe report
    ~func:"elem" ~directive:"reverse";
  check_verdict "reduction fuses safely" Report.Safe report ~func:"red"
    ~directive:"fuse";
  check_verdict "reduction reverses safely" Report.Safe report ~func:"red"
    ~directive:"reverse";
  check_verdict "perfect nest interchanges safely" Report.Safe report
    ~func:"nest" ~directive:"interchange";
  check_verdict "perfect nest tiles safely" Report.Safe report ~func:"nest"
    ~directive:"tile"

let test_deps_known_unsafe () =
  let report =
    analyze ~passes:[ "deps" ]
      "void shift(long n) {\n  long A[100];\n\
      \  for (long i = 1; i < n; i += 1) A[i] = A[i - 1] + 1;\n}\n\
       void lastidx(long n) {\n  long A[4];\n\
      \  for (long i = 0; i < n; i += 1) A[0] = i;\n}\n\
       int main(void) { return 0; }"
  in
  check_verdict "carried distance-1 dependence blocks reverse" Report.Unsafe
    report ~func:"shift" ~directive:"reverse";
  (* the distance witness is located *)
  let shift_loop =
    List.find
      (fun (lr : Report.loop_report) -> lr.Report.lr_func = "shift")
      (Report.loops report)
  in
  Alcotest.(check bool) "witness note names the array" true
    (List.exists
       (fun (n : Report.note) -> contains_substring n.Report.n_msg "'A'")
       shift_loop.Report.lr_notes);
  (* a loop-invariant non-reduction store is never declared safe *)
  let v = verdict_of report ~func:"lastidx" ~directive:"reverse" in
  Alcotest.(check bool) "invariant store is not safe to reverse" true
    (v <> Report.Safe);
  (* unroll preserves iteration order — safe even for shift *)
  check_verdict "unroll stays safe under carried deps" Report.Safe report
    ~func:"shift" ~directive:"unroll"

let test_non_canonical_loop_is_unknown () =
  let report =
    analyze ~passes:[ "deps" ]
      "long f(long n) {\n  long s = 0;\n  long i = 0;\n\
      \  while (i < n) { s = s + i; i = i + (s > 10 ? 2 : 1); }\n\
      \  return s;\n}\nint main(void) { return 0; }"
  in
  List.iter
    (fun (lr : Report.loop_report) ->
      List.iter
        (fun (dv : Report.directive_verdict) ->
          if dv.Report.dv_verdict = Report.Unsafe then
            Alcotest.failf "non-canonical loop drew an unsafe '%s' verdict"
              dv.Report.dv_directive)
        lr.Report.lr_directives)
    (Report.loops report)

(* ---- pass selection ------------------------------------------------------ *)

let test_pass_selection () =
  let report = analyze ~passes:[ "uninit"; "deps" ] leaky in
  Alcotest.(check (list string)) "selection is honoured, order kept"
    [ "uninit"; "deps" ] report.Report.r_passes;
  Alcotest.(check int) "unselected leak pass stayed off" 0
    (List.length (findings_of_pass report "leak"));
  let all = Analyzer.normalize_passes None in
  Alcotest.(check (list string)) "default selection is every pass"
    [ "uninit"; "unreachable"; "leak"; "deps" ] all;
  Alcotest.(check (list string)) "unknown names are dropped, dupes folded"
    [ "deps"; "uninit" ]
    (Analyzer.normalize_passes (Some [ "deps"; "nope"; "uninit"; "deps" ]))

(* ---- warm-cache report identity ------------------------------------------ *)

let analyzing_invocation =
  {
    Invocation.default with
    Invocation.cache_enabled = true;
    analyze = Some [];
  }

let report_of (c : Instance.compilation) =
  match c.Instance.c_result.Driver.analysis with
  | Some r -> r
  | None -> Alcotest.fail "compilation carried no analysis report"

let test_warm_cache_report_identity () =
  List.iter
    (fun source ->
      let inst = Instance.create analyzing_invocation in
      let cold = Instance.compile inst source in
      let warm = Instance.compile inst source in
      Alcotest.(check string) "cold and warm text reports are byte-identical"
        (Report.render_text (report_of cold))
        (Report.render_text (report_of warm));
      Alcotest.(check string) "and the JSON reports too"
        (Report.render_json (report_of cold))
        (Report.render_json (report_of warm)))
    [ leaky; wide_unit ~edit:11 ]

(* A body edit re-analyzes exactly the edited function: the per-function
   analysis stage rides the fnir fingerprints, so the sibling fragments
   are adopted from the cache. *)
let unit_with ~edit =
  Printf.sprintf
    "long w0(long n) { long a = 0; for (long i = 0; i < n; i += 1) a = a + \
     i; return a; }\n\
     long w1(long n) { long a = %d; for (long i = 0; i < n; i += 1) a = a + \
     i * 3; return a; }\n\
     long w2(long n) { long a = 2; for (long i = 0; i < n; i += 1) a = a + \
     i - n; return a; }\n\
     int main(void) { return 0; }\n"
    edit

let test_body_edit_reanalyzes_one_function () =
  List.iter
    (fun (unit_with, adopted) ->
      let inst = Instance.create analyzing_invocation in
      let cold = Instance.compile inst (unit_with ~edit:3) in
      Alcotest.(check int) "a clean unit draws no findings" 0
        (Report.finding_count (report_of cold));
      (* length-preserving edit: sibling source spans (and so their
         rendered locations) stay put *)
      let warm = Instance.compile inst (unit_with ~edit:9) in
      let counter name =
        try Stats.find warm.Instance.c_result.Driver.stats name
        with Not_found -> 0
      in
      let hits = counter "analysis.fn-hits"
      and misses = counter "analysis.fn-misses" in
      Alcotest.(check int) "sibling fragments adopted" adopted hits;
      Alcotest.(check int) "exactly the edited function re-analyzed" 1 misses;
      (* and the stitched report equals a cold analysis of the edited unit *)
      let fresh = Instance.create analyzing_invocation in
      let cold_edited = Instance.compile fresh (unit_with ~edit:9) in
      Alcotest.(check string) "stitched report = cold report"
        (Report.render_text (report_of cold_edited))
        (Report.render_text (report_of warm)))
    [ (unit_with, 3); (wide_unit, 24) ]

let suite =
  [
    Alcotest.test_case "engine: diamond converges in one sweep" `Quick
      test_engine_diamond_converges;
    Alcotest.test_case "engine: loop converges with a re-visit" `Quick
      test_engine_loop_converges;
    Alcotest.test_case "uninit: partial initialization is found" `Quick
      test_uninit_true_positive;
    Alcotest.test_case "uninit: full initialization is silent" `Quick
      test_uninit_false_positive_guard;
    Alcotest.test_case "leak: early return path is found" `Quick
      test_leak_on_early_return;
    Alcotest.test_case "leak: all-paths release is silent" `Quick
      test_no_leak_when_all_paths_release;
    Alcotest.test_case "unreachable: code after return is found" `Quick
      test_unreachable_after_return;
    Alcotest.test_case "unreachable: live code is silent" `Quick
      test_reachable_code_is_silent;
    Alcotest.test_case "deps: known-safe loops get safe verdicts" `Quick
      test_deps_known_safe;
    Alcotest.test_case "deps: known-unsafe loops never get safe verdicts"
      `Quick test_deps_known_unsafe;
    Alcotest.test_case "deps: non-canonical loops stay unknown" `Quick
      test_non_canonical_loop_is_unknown;
    Alcotest.test_case "pass selection and normalization" `Quick
      test_pass_selection;
    Alcotest.test_case "cache: warm report is byte-identical" `Quick
      test_warm_cache_report_identity;
    Alcotest.test_case "cache: body edit re-analyzes one function" `Quick
      test_body_edit_reanalyzes_one_function;
  ]
