(* Shared helpers for the test suites. *)

module Driver = Mc_core.Driver
module Interp = Mc_interp.Interp
module Diag = Mc_diag.Diagnostics

let classic = Driver.default_options
let irbuilder = { Driver.default_options with Driver.use_irbuilder = true }
let o0 options = { options with Driver.optimize = false }

let trace_to_string trace =
  String.concat ";"
    (List.map
       (function
         | Interp.T_int v -> Int64.to_string v
         | Interp.T_float f -> Printf.sprintf "%h" f)
       trace)

(* Compile and run; fails the test on any diagnostic error or trap. *)
let run_ok ?(options = classic) ?(num_threads = 4) source =
  let config = { Interp.default_config with Interp.num_threads } in
  match Driver.compile_and_run ~options ~config source with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "program failed:\n%s" msg

let trace_of ?options ?num_threads source =
  (run_ok ?options ?num_threads source).Interp.trace

(* The core differential harness: for each team size, the observable trace
   must be identical across both OpenMP lowering paths, optimization levels
   and folding settings (the reference is classic -O0 at that size — traces
   may legitimately depend on the team size, e.g. when recording thread
   ids, but never on the compilation configuration). *)
let assert_all_configs_agree ?(threads = [ 1; 3; 4 ]) ~name source =
  List.iter
    (fun num_threads ->
      let reference = trace_of ~options:(o0 classic) ~num_threads source in
      if reference = [] then
        Alcotest.failf "%s: reference trace is empty (test would be vacuous)"
          name;
      List.iter
        (fun (label, options) ->
          let trace = trace_of ~options ~num_threads source in
          if not (Interp.trace_equal reference trace) then
            Alcotest.failf
              "%s: %s with %d threads diverges:\nexpected %s\ngot      %s" name
              label num_threads (trace_to_string reference)
              (trace_to_string trace))
        [
          ("classic -O1", classic);
          ("irbuilder -O0", o0 irbuilder);
          ("irbuilder -O1", irbuilder);
          ("classic -O1 -no-fold", { classic with Driver.fold = false });
          ("irbuilder -O1 -no-fold", { irbuilder with Driver.fold = false });
        ])
    threads

let expect_error ?(options = classic) ~substring source =
  let diag, _ = Driver.frontend ~options source in
  let rendered = Diag.render_all diag in
  if not (Diag.has_errors diag) then
    Alcotest.failf "expected a diagnostic containing %S, got none" substring;
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  if not (contains rendered substring) then
    Alcotest.failf "expected a diagnostic containing %S, got:\n%s" substring
      rendered

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains ~what haystack needle =
  if not (contains_substring haystack needle) then
    Alcotest.failf "%s: expected to find %S in:\n%s" what needle haystack

(* 24 workers and main; [edit] expands only inside w11's body.  Defined
   beside the token golden, which lexes it. *)
let wide_unit ~edit = Tok_digest.wide_unit ~edit ()

(* The IR golden's inputs (examples/*.c and fixed-seed generated
   programs) and the 24-function unit. *)
let ir_inputs () =
  Ir_digest.inputs ~examples_dir:(Filename.concat ".." "examples")
  @ [ ("wide_unit", wide_unit ~edit:11) ]

(* CodeGen's output for each of [ir_inputs] under both lowerings, then
   the module after each -O1 pass in turn, verified between passes;
   [visit] sees every snapshot before the next pass runs. *)
let each_snapshot visit =
  List.iter
    (fun (name, source) ->
      List.iter
        (fun (lowering, irbuilder) ->
          match Mc_fuzz.Pass_audit.lower ~irbuilder ~name source with
          | Error e -> Alcotest.failf "%s (%s) does not lower:\n%s" name lowering e
          | Ok m ->
            visit (Printf.sprintf "%s (%s) after codegen" name lowering) m;
            List.iter
              (fun pass ->
                ignore
                  (Mc_passes.Pass_manager.run ~verify_between:true ~passes:[ pass ] m);
                visit (Printf.sprintf "%s (%s) after %s" name lowering pass) m)
              Mc_passes.Pass_manager.o1)
        Mc_fuzz.Pass_audit.lowerings)
    (ir_inputs ())

(* A full cache hit runs no stage, so it spends no time in any. *)
let check_no_stage_ran what (r : Driver.result) =
  let t = r.Driver.timings in
  Alcotest.(check (list (float 0.0)))
    what [ 0.0; 0.0; 0.0; 0.0; 0.0 ]
    [ t.Driver.t_lex; t.t_preprocess; t.t_parse_sema; t.t_codegen; t.t_passes ]

let tc name f = Alcotest.test_case name `Quick f

(* A little wrapper making qcheck tests uniform. *)
let prop name ?(count = 200) arbitrary f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arbitrary f)
