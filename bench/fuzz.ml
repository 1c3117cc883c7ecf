(* The standalone fuzzing driver behind the CI smoke steps:

     fuzz -n 500 -seed 1 -jobs 1,4 -corpus examples -out fuzz-failures
     fuzz -mode diff -n 500 -seed 1 -jobs 1,4 -out diff-mismatches
     fuzz -mode audit -n 500 -seed 1 -out audit-findings

   The default (crash) mode drives [Mc_fuzz.Fuzz.run] over generated
   programs and mutations of the corpus and asserts crash containment;
   diff mode drives [Mc_fuzz.Differential.run], the differential-
   semantics oracle for the loop-transformation directives — including
   the scripted-transformation oracle, which pairs each program with a
   random transfo script and checks scripted-vs-pragma IR identity plus
   interpreter agreement.  Both print a one-line verdict, write each
   (minimized) failing input — plus its .transfo script for scripted
   mismatches — into the output directory, and exit non-zero iff the
   invariant was violated. *)

(* Writes one failing input into [out_dir]: [base].c, [base].transfo
   when there is a script and [base].txt when there are lines for it.
   Then prints [verdict] on stderr, followed by "  LABEL: PATH.c" when a
   [label] points the reader at the written input. *)
let write_finding ~out_dir ~base ?script ?(txt = []) ?label ~source verdict =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir base in
  let write ext text =
    Out_channel.with_open_text (path ^ ext) (fun oc ->
        Out_channel.output_string oc text)
  in
  write ".c" source;
  Option.iter (write ".transfo") script;
  if txt <> [] then
    write ".txt" (String.concat "" (List.map (fun l -> l ^ "\n") txt));
  Printf.eprintf "%s\n" verdict;
  Option.iter (fun label -> Printf.eprintf "  %s: %s.c\n" label path) label

let run_crash_mode ~n ~seed ~jobs ~corpus_dir ~out_dir =
  let corpus =
    match Sys.readdir corpus_dir with
    | entries ->
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".c")
      |> List.sort compare
      |> List.map (fun f ->
             In_channel.with_open_text
               (Filename.concat corpus_dir f)
               In_channel.input_all)
    | exception Sys_error _ -> []
  in
  let report = Mc_fuzz.Fuzz.run ~corpus ~jobs ~n ~seed () in
  match report.Mc_fuzz.Fuzz.failures with
  | [] ->
    Printf.printf
      "fuzz: OK: %d inputs (seed %d, %d corpus file(s)) under -j {%s}: no \
       escaped exceptions, no ICEs\n"
      report.Mc_fuzz.Fuzz.total seed (List.length corpus)
      (String.concat "," (List.map string_of_int jobs))
  | failures ->
    List.iteri
      (fun i (f : Mc_fuzz.Fuzz.failure) ->
        write_finding ~out_dir ~base:(Printf.sprintf "fail-%d" i)
          ~source:f.fz_source
          ~txt:
            [ "input: " ^ f.fz_name; Printf.sprintf "jobs: %d" f.fz_jobs;
              f.fz_message ]
          ~label:"minimized"
          (Printf.sprintf "fuzz: FAIL %s (-j %d): %s" f.fz_name f.fz_jobs
             (match String.index_opt f.fz_message '\n' with
             | Some nl -> String.sub f.fz_message 0 nl
             | None -> f.fz_message)))
      failures;
    Printf.eprintf "fuzz: %d/%d inputs violated crash containment\n"
      (List.length failures) report.Mc_fuzz.Fuzz.total;
    exit 1

let run_diff_mode ~n ~seed ~jobs ~out_dir =
  let report = Mc_fuzz.Differential.run ~jobs ~n ~seed () in
  match report.Mc_fuzz.Differential.dm_mismatches with
  | [] ->
    Printf.printf
      "fuzz: OK: %d differential inputs (seed %d) agree with their \
       pragma-stripped reference under every configuration and -j {%s}\n"
      report.Mc_fuzz.Differential.dm_total seed
      (String.concat "," (List.map string_of_int jobs))
  | mismatches ->
    List.iteri
      (fun i (m : Mc_fuzz.Differential.mismatch) ->
        let base = Printf.sprintf "mismatch-%d" i in
        write_finding ~out_dir ~base ?script:m.dm_script ~source:m.dm_source
          ~txt:
            ([ "input: " ^ m.dm_name; "config: " ^ m.dm_config; m.dm_detail ]
            @
            match m.dm_script with
            | Some _ ->
              [ Printf.sprintf "reproduce: mcc --transfo-script %s.transfo %s.c"
                  base base ]
            | None -> [])
          ~label:"minimized"
          (Printf.sprintf "fuzz: MISMATCH %s [%s]: %s" m.dm_name m.dm_config
             m.dm_detail))
      mismatches;
    Printf.eprintf "fuzz: %d/%d inputs diverged from their reference\n"
      (List.length mismatches) report.Mc_fuzz.Differential.dm_total;
    exit 1

(* The change-report audit ([Mc_fuzz.Pass_audit]): under both lowerings,
   every function whose printed form an -O1 pass moved must be one the
   pass reported changing, or the pass manager's verifier skip would
   leave it unchecked. *)
let run_audit_mode ~n ~seed ~out_dir =
  let report = Mc_fuzz.Pass_audit.run ~n ~seed () in
  match report.Mc_fuzz.Pass_audit.pa_findings with
  | [] ->
    Printf.printf
      "fuzz: OK: %d audit inputs (seed %d) under both lowerings: every \
       function an -O1 pass moved was reported changed\n"
      report.Mc_fuzz.Pass_audit.pa_total seed
  | findings ->
    List.iter
      (fun (f : Mc_fuzz.Pass_audit.finding) ->
        let write =
          write_finding ~out_dir ~base:(Filename.remove_extension f.pa_name)
            ~source:f.pa_source
        in
        if f.pa_pass = "" then
          write
            (Printf.sprintf "fuzz: %s [%s] did not lower: %s" f.pa_name
               f.pa_lowering f.pa_detail)
        else
          write ~label:"input"
            (Printf.sprintf
               "fuzz: UNREPORTED %s [%s]: pass '%s' changed '%s' without \
                reporting it"
               f.pa_name f.pa_lowering f.pa_pass f.pa_detail))
      findings;
    Printf.eprintf "fuzz: %d finding(s) over %d audit inputs\n" (List.length findings)
      report.Mc_fuzz.Pass_audit.pa_total;
    exit 1

let run_analyze_mode ~n ~seed ~out_dir =
  let report = Mc_fuzz.Analysis_oracle.run ~n ~seed () in
  match report.Mc_fuzz.Analysis_oracle.av_violations with
  | [] ->
    Printf.printf
      "fuzz: OK: %d analysis inputs (seed %d): no unsound transformation \
       verdicts, no missed or spurious uninitialized-read findings\n"
      report.Mc_fuzz.Analysis_oracle.av_total seed
  | violations ->
    List.iteri
      (fun i (v : Mc_fuzz.Analysis_oracle.violation) ->
        write_finding ~out_dir ~base:(Printf.sprintf "violation-%d" i)
          ~source:v.av_source
          ~txt:[ "input: " ^ v.av_name; "oracle: " ^ v.av_oracle; v.av_detail ]
          ~label:"input"
          (Printf.sprintf "fuzz: VIOLATION %s [%s]: %s" v.av_name v.av_oracle
             v.av_detail))
      violations;
    Printf.eprintf "fuzz: %d/%d inputs violated an analysis oracle\n"
      (List.length violations) report.Mc_fuzz.Analysis_oracle.av_total;
    exit 1

let () =
  let mode = ref "crash" in
  let n = ref 500 in
  let seed = ref 1 in
  let jobs = ref "1,4" in
  let corpus_dir = ref "examples" in
  let out_dir = ref "" in
  let spec =
    [
      ( "-mode",
        Arg.Set_string mode,
        "MODE  'crash' (containment, default), 'diff' (differential \
         semantics), 'analyze' (dataflow-analysis oracles) or 'audit' \
         (pass change reports)" );
      ("-n", Arg.Set_int n, "NUM  number of inputs (default 500)");
      ("-seed", Arg.Set_int seed, "SEED  campaign seed (default 1)");
      ( "-jobs",
        Arg.Set_string jobs,
        "LIST  comma-separated domain counts to test (default 1,4)" );
      ( "-corpus",
        Arg.Set_string corpus_dir,
        "DIR  directory of .c files to mutate (crash mode; default examples)"
      );
      ( "-out",
        Arg.Set_string out_dir,
        "DIR  where failing inputs are written (default fuzz-failures / \
         diff-mismatches / analysis-violations / audit-findings)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "fuzz [-mode crash|diff|analyze|audit] [-n NUM] [-seed SEED] [-jobs LIST] \
     [-corpus DIR] [-out DIR]";
  let jobs =
    String.split_on_char ',' !jobs
    |> List.filter_map int_of_string_opt
    |> function
    | [] -> [ 1; 4 ]
    | l -> l
  in
  match !mode with
  | "crash" ->
    let out_dir = if !out_dir = "" then "fuzz-failures" else !out_dir in
    run_crash_mode ~n:!n ~seed:!seed ~jobs ~corpus_dir:!corpus_dir ~out_dir
  | "diff" ->
    let out_dir = if !out_dir = "" then "diff-mismatches" else !out_dir in
    run_diff_mode ~n:!n ~seed:!seed ~jobs ~out_dir
  | "analyze" ->
    let out_dir = if !out_dir = "" then "analysis-violations" else !out_dir in
    run_analyze_mode ~n:!n ~seed:!seed ~out_dir
  | "audit" ->
    let out_dir = if !out_dir = "" then "audit-findings" else !out_dir in
    run_audit_mode ~n:!n ~seed:!seed ~out_dir
  | m ->
    Printf.eprintf
      "fuzz: unknown -mode %S (expected 'crash', 'diff', 'analyze' or 'audit')\n" m;
    exit 2
