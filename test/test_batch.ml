(* The reentrant-driver and batch-compilation suite: Invocation parsing
   and shims, Instance registry isolation, the once-per-instance exit
   reports, and the determinism guarantee — 1 domain vs N domains must
   produce byte-identical IR printouts and identical stats snapshots. *)

open Helpers
module Driver = Mc_core.Driver
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Batch = Mc_core.Batch
module Stats = Mc_support.Stats

let unit_source n trip =
  Printf.sprintf
    "void record(long x);\nint main(void) {\nlong s = 0;\n\
     #pragma omp parallel for schedule(dynamic, 2)\n\
     #pragma omp unroll partial(%d)\n\
     for (int i = 0; i < %d; i += 1) s += i;\nrecord(s);\nreturn 0; }"
    (1 + (n mod 3))
    trip

let units count =
  List.init count (fun i -> (Printf.sprintf "unit%d.c" i, unit_source i (20 + i)))

(* ---- Invocation ------------------------------------------------------- *)

let test_invocation_of_argv () =
  let inv =
    match
      Invocation.of_argv
        [|
          "mcc"; "-j"; "4"; "--cache"; "-fsyntax-only"; "-DN=3"; "-D"; "M=7";
          "-O0"; "-ftime-report"; "a.c"; "b.c";
        |]
    with
    | Ok inv -> inv
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check int) "jobs" 4 inv.Invocation.jobs;
  Alcotest.(check bool) "cache" true inv.Invocation.cache_enabled;
  Alcotest.(check bool) "action" true
    (inv.Invocation.action = Invocation.Syntax_only);
  Alcotest.(check (list (pair string string))) "defines"
    [ ("N", "3"); ("M", "7") ]
    inv.Invocation.defines;
  Alcotest.(check int) "opt level" 0 inv.Invocation.opt_level;
  Alcotest.(check bool) "time report" true inv.Invocation.time_report;
  Alcotest.(check (list string)) "inputs in order" [ "a.c"; "b.c" ]
    (List.map Invocation.input_name inv.Invocation.inputs);
  (* -syntax-only and -fsyntax-only are synonyms; -jN attaches. *)
  (match Invocation.of_argv [| "mcc"; "-syntax-only"; "-j8"; "x.c" |] with
  | Ok inv ->
    Alcotest.(check bool) "syntax-only synonym" true
      (inv.Invocation.action = Invocation.Syntax_only);
    Alcotest.(check int) "attached -j8" 8 inv.Invocation.jobs
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* -jobs is a synonym for -j, in every spelling. *)
  List.iter
    (fun spelling ->
      match Invocation.of_argv (Array.of_list (("mcc" :: spelling) @ [ "x.c" ])) with
      | Ok inv ->
        Alcotest.(check int) (String.concat " " spelling) 2 inv.Invocation.jobs
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ [ "--jobs"; "2" ]; [ "-jobs=2" ] ];
  (* --analyze wins over every other action flag, in any order, and the
     invocation round-trips through to_argv with its pass selection. *)
  List.iter
    (fun flags ->
      let what = String.concat " " flags in
      match Invocation.of_argv (Array.of_list (("mcc" :: flags) @ [ "a.c" ])) with
      | Error e -> Alcotest.failf "%s: parse failed: %s" what e
      | Ok inv -> (
        Alcotest.(check bool) (what ^ ": analyze") true
          (inv.Invocation.action = Invocation.Analyze);
        match
          Invocation.of_argv
            (Array.of_list (("mcc" :: Invocation.to_argv inv) @ [ "a.c" ]))
        with
        | Ok inv' -> Alcotest.(check bool) (what ^ ": round-trips") true (inv' = inv)
        | Error e -> Alcotest.failf "%s: re-parse failed: %s" what e))
    [
      [ "--analyze"; "-emit-ir" ];
      [ "-emit-ir"; "--analyze" ];
      [ "--analyze=deps,leak"; "-emit-ir" ];
      [ "-emit-ir"; "--analyze=deps,leak" ];
    ];
  (match Invocation.of_argv [| "mcc"; "--daemon-timeout=0"; "x.c" |] with
  | Error e -> check_contains ~what:"zero timeout" e "daemon-timeout"
  | Ok _ -> Alcotest.fail "a zero daemon timeout must be rejected");
  (match Invocation.of_argv [| "mcc" |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no inputs must be rejected");
  match Invocation.of_argv [| "mcc"; "-walrus"; "x.c" |] with
  | Error e -> check_contains ~what:"unknown flag" e "walrus"
  | Ok _ -> Alcotest.fail "unknown flag must be rejected"

let test_driver_options_shim () =
  (* The default invocation maps onto the default driver options. *)
  Alcotest.(check bool) "defaults agree" true
    (Invocation.to_driver_options Invocation.default = Driver.default_options)

(* ---- Instance --------------------------------------------------------- *)

let test_instance_registry_isolation () =
  (* Two instances compile different sources; each snapshot sees its own
     compile only, and the default registry is untouched throughout. *)
  Stats.reset ();
  let baseline = Stats.snapshot () in
  let a = Instance.create Invocation.default in
  let b = Instance.create Invocation.default in
  (* b's source carries an extra helper function, so b lexes strictly
     more tokens than a (a differing literal alone would not: "10" and
     "200" are one token each). *)
  let ra = (Instance.compile a ~name:"a.c" (unit_source 0 10)).Instance.c_result in
  let rb =
    (Instance.compile b ~name:"b.c"
       (unit_source 0 200 ^ "\nlong helper(long x) { return x + 1; }"))
      .Instance.c_result
  in
  Alcotest.(check bool) "a compiled" true (ra.Driver.ir <> None);
  Alcotest.(check bool) "b compiled" true (rb.Driver.ir <> None);
  let steps snap = Stats.find snap "lexer.tokens-lexed" in
  Alcotest.(check bool) "instances differ" true
    (steps (Instance.stats a) < steps (Instance.stats b));
  Alcotest.(check (list (pair string int))) "default registry untouched"
    baseline (Stats.snapshot ());
  (* Interpreting through the instance charges the instance registry. *)
  (match Instance.run a ra with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "run failed: %s" e);
  Alcotest.(check bool) "interp counters in instance" true
    (Stats.find (Instance.stats a) "interp.steps-executed" > 0);
  Alcotest.(check int) "no interp counters in default registry" 0
    (Stats.find (Stats.snapshot ()) "interp.steps-executed")

let test_exit_reports_once () =
  let inv =
    { Invocation.default with Invocation.print_stats = true; time_report = true }
  in
  let inst = Instance.create inv in
  ignore (Instance.compile inst (unit_source 0 10));
  let first = Instance.exit_reports inst in
  check_contains ~what:"stats table" first "Statistics Collected";
  check_contains ~what:"time table" first "time report";
  Alcotest.(check string) "second take is empty" "" (Instance.exit_reports inst);
  (* Instances that requested nothing render nothing. *)
  let quiet = Instance.create Invocation.default in
  ignore (Instance.compile quiet (unit_source 0 10));
  Alcotest.(check string) "quiet instance" "" (Instance.exit_reports quiet)

(* ---- Batch determinism ------------------------------------------------ *)

let ir_printouts batch =
  List.map
    (fun u ->
      match u.Batch.u_result with
      | Ok r -> (
        match r.Driver.ir with
        | Some m -> Mc_ir.Printer.module_to_string m
        | None -> Alcotest.failf "%s: no IR" u.Batch.u_name)
      | Error f ->
        Alcotest.failf "%s: %s" u.Batch.u_name
          f.Instance.f_ice.Mc_support.Crash_recovery.ice_exn)
    batch.Batch.units

let test_batch_deterministic () =
  let inputs = units 8 in
  let invocation = Invocation.default in
  let seq = Batch.compile ~jobs:1 ~invocation inputs in
  let par = Batch.compile ~jobs:4 ~invocation inputs in
  Alcotest.(check int) "all units compiled" 8 (List.length par.Batch.units);
  Alcotest.(check (list string)) "input order preserved"
    (List.map fst inputs)
    (List.map (fun u -> u.Batch.u_name) par.Batch.units);
  (* Byte-identical IR printouts, unit by unit. *)
  List.iteri
    (fun i (a, b) ->
      if a <> b then Alcotest.failf "unit %d IR differs between 1 and 4 domains" i)
    (List.combine (ir_printouts seq) (ir_printouts par));
  (* Identical per-unit stats snapshots and identical merged snapshot. *)
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "unit %d stats" i)
        a.Batch.u_stats b.Batch.u_stats)
    (List.combine seq.Batch.units par.Batch.units);
  Alcotest.(check (list (pair string int))) "merged stats"
    seq.Batch.stats par.Batch.stats

let test_batch_irbuilder_deterministic () =
  (* The IRBuilder path gensyms outlined-function names; those must also
     be stable across domain counts. *)
  let inputs = units 4 in
  let invocation =
    { Invocation.default with Invocation.use_irbuilder = true }
  in
  let seq = Batch.compile ~jobs:1 ~invocation inputs in
  let par = Batch.compile ~jobs:4 ~invocation inputs in
  Alcotest.(check (list string)) "irbuilder IR identical"
    (ir_printouts seq) (ir_printouts par)

let test_batch_error_reporting () =
  let inputs =
    [
      ("good.c", unit_source 0 10);
      ("bad.c", "int main(void) { return undefined_var; }");
      ("also-good.c", unit_source 1 10);
    ]
  in
  let batch = Batch.compile ~jobs:3 ~invocation:Invocation.default inputs in
  Alcotest.(check bool) "batch not all ok" false (Batch.all_ok batch);
  (match batch.Batch.units with
  | [ g1; bad; g2 ] ->
    let ok u =
      match u.Batch.u_result with
      | Ok r -> not (Mc_diag.Diagnostics.has_errors r.Driver.diag)
      | Error _ -> false
    in
    Alcotest.(check bool) "first ok" true (ok g1);
    Alcotest.(check bool) "last ok" true (ok g2);
    (match bad.Batch.u_result with
    | Ok r ->
      check_contains ~what:"bad unit diagnostics"
        (Mc_diag.Diagnostics.render_all r.Driver.diag)
        "use of undeclared identifier"
    | Error f ->
      Alcotest.failf "expected diagnostics, got ICE: %s"
        f.Instance.f_ice.Mc_support.Crash_recovery.ice_exn)
  | _ -> Alcotest.fail "unit count");
  (* Failures in one unit never poison the others' results. *)
  Alcotest.(check int) "failing batch keeps order" 3
    (List.length batch.Batch.units)

let test_batch_compile_into_merges () =
  let inputs = units 3 in
  let inst = Instance.create Invocation.default in
  let batch = Batch.compile_into inst inputs in
  Alcotest.(check bool) "all ok" true (Batch.all_ok batch);
  (* The instance registry now holds the sum of all units. *)
  let merged = Instance.stats inst in
  Alcotest.(check (list (pair string int))) "instance = merged units"
    batch.Batch.stats merged;
  let total = Stats.find merged "codegen.functions-emitted" in
  Alcotest.(check bool) "summed across units" true (total >= 3)

let test_compile_and_run_through_instance () =
  let inst = Instance.create Invocation.default in
  match Instance.compile_and_run inst (unit_source 0 10) with
  | Ok outcome ->
    Alcotest.(check bool) "steps" true (outcome.Mc_interp.Interp.steps > 0)
  | Error e -> Alcotest.failf "failed: %s" e

let suite =
  [
    tc "invocation argv parsing" test_invocation_of_argv;
    tc "driver options shim round-trips" test_driver_options_shim;
    tc "instance registries are isolated" test_instance_registry_isolation;
    tc "exit reports render once per instance" test_exit_reports_once;
    tc "1 vs 4 domains: identical IR and stats" test_batch_deterministic;
    tc "irbuilder path deterministic too" test_batch_irbuilder_deterministic;
    tc "per-unit errors stay per-unit" test_batch_error_reporting;
    tc "compile_into merges into the instance" test_batch_compile_into_merges;
    tc "compile_and_run through an instance" test_compile_and_run_through_instance;
  ]
