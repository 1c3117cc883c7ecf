(* mcc — the mini-Clang driver CLI.

   Mirrors the Clang actions the paper mentions: [-ast-dump] (with an extra
   [-ast-dump-shadow] to reveal the hidden shadow AST of §1.2), [-emit-ir],
   [-fopenmp-enable-irbuilder] to switch the OpenMP lowering between the
   shadow-AST path (§2) and the OpenMPIRBuilder path (§3), and by default
   compiling and executing the program on the IR interpreter.

   The CLI is a thin shell over the reentrant API: argv becomes an
   [Invocation.t] through [Invocation.of_argv] (the one flag grammar, whose
   inverse writes an ICE bundle's repro.sh), one [Instance.t] owns the
   stats registry the reports render from, and multiple FILE arguments
   compile as a [Batch] over [-j N] domains (sharing a content-addressed
   compile cache under [--cache]).  Under [--daemon], every action a
   daemon serves makes its round-trip through [ask_daemon]. *)

module Driver = Mc_core.Driver
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Batch = Mc_core.Batch
module Client = Mc_core.Client
module Protocol = Mc_core.Protocol
module Diag = Mc_diag.Diagnostics
module Crash_recovery = Mc_support.Crash_recovery

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("mcc: " ^ msg); exit 1) fmt

(* A contained internal compiler error, in the style of Clang's "PLEASE
   submit a bug report" banner: one report for every path that contains
   one, in-process or in a daemon worker. *)
let report_ice ?server_side ~name f =
  prerr_string (Instance.render_failure ?server_side ~name f)

(* A unit-level failure a daemon sent, or its in-process equivalent:
   already rendered, printed as is. *)
let report_text msg =
  prerr_string msg;
  if msg <> "" && msg.[String.length msg - 1] <> '\n' then prerr_newline ()

let multi_header inv name =
  if List.length inv.Invocation.inputs > 1 then
    Printf.printf "// === %s ===\n" name

let run_frontend_action inst units =
  let inv = Instance.invocation inst in
  let failed = ref false in
  List.iter
    (fun (name, source) ->
      match Instance.frontend_safe inst ~name source with
      | Error f ->
        report_ice ~name f;
        failed := true
      | Ok (diag, tu) -> (
      prerr_string (Diag.render_all diag);
      if Diag.has_errors diag then failed := true;
      match inv.Invocation.action with
      | Invocation.Syntax_only -> ()
      | Invocation.Ast_dump | Invocation.Ast_dump_shadow ->
        multi_header inv name;
        print_string
          (Mc_ast.Dump.translation_unit
             ~shadow:(inv.Invocation.action = Invocation.Ast_dump_shadow)
             tu)
      | Invocation.Ast_print ->
        multi_header inv name;
        print_string (Mc_ast.Unparse.translation_unit_to_string tu)
      | Invocation.Print_transformed ->
        multi_header inv name;
        (* Source-to-source view of every transformation's generated loop
           (the shadow AST of paper section 2, unparsed back to C). *)
        List.iter
          (function
            | Mc_ast.Tree.Tu_fn { fn_body = Some body; fn_name; _ } ->
              Mc_ast.Visit.iter ~shadow:false
                ~on_stmt:(fun s ->
                  match s.Mc_ast.Tree.s_kind with
                  | Mc_ast.Tree.Omp_directive d
                    when d.Mc_ast.Tree.dir_transformed <> None ->
                    Printf.printf
                      "// in %s: getTransformedStmt() of '#pragma omp %s':\n"
                      fn_name
                      (Mc_ast.Unparse.directive_name d.Mc_ast.Tree.dir_kind);
                    (match d.Mc_ast.Tree.dir_preinits with
                    | Some pre ->
                      print_string (Mc_ast.Unparse.stmt_to_string ~indent:0 pre)
                    | None -> ());
                    (match d.Mc_ast.Tree.dir_transformed with
                    | Some tr ->
                      print_string (Mc_ast.Unparse.stmt_to_string ~indent:0 tr)
                    | None -> ())
                  | _ -> ())
                body
            | _ -> ())
          tu.Mc_ast.Tree.tu_decls
      | Invocation.Run | Invocation.Emit_ir | Invocation.Emit_transformed
      | Invocation.Analyze ->
        assert false))
    units;
  if !failed then exit 1

(* One line per transfo-script step, greppable like the daemon traces. *)
let print_transfo_trace name trace =
  List.iter
    (fun line -> Printf.eprintf "[mcc transfo: %s: %s]\n%!" name line)
    (List.filter
       (fun l -> String.trim l <> "")
       (String.split_on_char '\n' trace))

(* The end of a Run or -emit-ir compile, wherever the IR came from (the
   in-process batch or a daemon reply): -emit-ir prints the unit's IR,
   Run executes it on the local interpreter.  [false] when the unit has
   no IR or trapped. *)
let emit_or_run inst ~name ~codegen_error ir =
  let inv = Instance.invocation inst in
  match ir with
  | None ->
    (match codegen_error with
    | Some e -> Printf.eprintf "codegen error: %s\n" e
    | None -> Printf.eprintf "mcc: no IR was produced for %s\n" name);
    false
  | Some m when inv.Invocation.action = Invocation.Emit_ir ->
    multi_header inv name;
    print_string (Mc_ir.Printer.module_to_string m);
    true
  | Some m -> (
    let config =
      {
        Mc_interp.Interp.default_config with
        Mc_interp.Interp.num_threads = inv.Invocation.num_threads;
      }
    in
    match Instance.in_registry inst (fun () -> Mc_interp.Interp.run_main ~config m) with
    | outcome ->
      print_string outcome.Mc_interp.Interp.output;
      List.iter
        (function
          | Mc_interp.Interp.T_int v -> Printf.printf "record: %Ld\n" v
          | Mc_interp.Interp.T_float f -> Printf.printf "record: %g\n" f)
        outcome.Mc_interp.Interp.trace;
      Printf.eprintf "[%s: exit %s after %d steps]\n" name
        (match outcome.Mc_interp.Interp.return_value with
        | Some v -> Int64.to_string v
        | None -> "void")
        outcome.Mc_interp.Interp.steps;
      true
    | exception Mc_interp.Interp.Trap msg ->
      prerr_endline ("trap: " ^ msg);
      false)

let daemon_socket inv =
  Option.value inv.Invocation.daemon_socket ~default:(Client.default_socket ())

(* --daemon: the one round-trip of every action a daemon serves.  The
   request is built from the invocation and sent under the instance
   registry, so -print-stats counts busy retries too.  [expect] picks the
   stats snapshot and the payload out of the reply kind the request asks
   for; the snapshot is folded into the instance registry.  Every
   non-answer — no usable daemon, a rejection, a reply of another kind —
   is one counted fallback for this request's units: [None], and the
   caller does them in-process, with the same output and exit code.
   Without --daemon the answer is [None] at once. *)
let ask_daemon inst request expect =
  let inv = Instance.invocation inst in
  if not inv.Invocation.daemon then None
  else begin
    let policy =
      Client.policy_with ?timeout:inv.Invocation.daemon_timeout
        ?retries:inv.Invocation.daemon_retries ()
    in
    let fall_back reason =
      let outcome =
        Instance.in_registry inst (fun () -> Client.note_fallback reason)
      in
      Printf.eprintf "mcc: note: %s; falling back in-process\n%!"
        (Client.render_outcome outcome);
      None
    in
    match
      Instance.in_registry inst (fun () ->
          Client.roundtrip ~policy ~socket_path:(daemon_socket inv)
            (request inv))
    with
    | Error reason -> fall_back reason
    | Ok { Client.response = Protocol.Resp_rejected reason; _ } ->
      fall_back ("daemon rejected the request: " ^ reason)
    | Ok reply -> (
      match expect reply with
      | None -> fall_back "daemon sent an unexpected response kind"
      | Some (stats, answer) ->
        Instance.in_registry inst (fun () -> Client.absorb_snapshot stats);
        Some answer)
  end

let run_local_compile inst units =
  let inv = Instance.invocation inst in
  let batch = Batch.compile_into inst units in
  let failed = ref false in
  (* Per-file diagnostics, in input order whatever the domain schedule.
     A contained ICE fails that unit alone: its siblings keep going. *)
  List.iter
    (fun u ->
      match u.Batch.u_result with
      | Error f ->
        report_ice ~name:u.Batch.u_name f;
        failed := true
      | Ok r ->
        prerr_string (Diag.render_all r.Driver.diag);
        if Diag.has_errors r.Driver.diag then failed := true)
    batch.Batch.units;
  if List.length batch.Batch.units > 1 then
    Printf.eprintf
      "[mcc: %d unit(s): %d error(s), %d codegen error(s), %d ICE(s), %d \
       cache hit(s), %d domain(s), %.3fs]\n%!"
      (List.length batch.Batch.units)
      (Batch.errors batch) (Batch.codegen_errors batch) (Batch.ices batch)
      (Batch.hits batch) batch.Batch.jobs batch.Batch.wall;
  List.iter
    (fun u ->
      match u.Batch.u_result with
      | Error _ -> () (* already reported; siblings proceed *)
      | Ok r when Diag.has_errors r.Driver.diag -> ()
      | Ok r ->
        if inv.Invocation.stage_timings then begin
          let t = r.Driver.timings in
          Printf.eprintf
            "%s: stage timings: lex %.6fs, preprocess %.6fs, parse+sema \
             %.6fs, codegen %.6fs, passes %.6fs%s\n"
            u.Batch.u_name t.Driver.t_lex t.Driver.t_preprocess
            t.Driver.t_parse_sema t.Driver.t_codegen t.Driver.t_passes
            (if u.Batch.u_cache_hit then " (cache hit)" else "")
        end;
        Option.iter
          (fun (_, trace) -> print_transfo_trace u.Batch.u_name trace)
          r.Driver.transformed;
        if
          not
            (emit_or_run inst ~name:u.Batch.u_name
               ~codegen_error:r.Driver.codegen_error r.Driver.ir)
        then failed := true)
    batch.Batch.units;
  (* --incremental: recompile the whole batch against the instance's
     stage cache and report, per unit, how much of the pipeline the warm
     pass actually reused.  Actions ran on the cold pass; the warm pass
     only demonstrates (and measures) stage reuse. *)
  if inv.Invocation.incremental then begin
    (* The report goes to stderr while program output went to stdout; a
       consumer reading both through one pipe (the CI grep) needs stdout
       drained first and each report line pushed out as it is written —
       otherwise a non-zero exit below can reorder or swallow the
       summary still sitting in the buffer. *)
    flush stdout;
    let warm = Batch.compile_into inst units in
    List.iter2
      (fun cold_u warm_u ->
        match warm_u.Batch.u_result with
        | Error f ->
          report_ice ~name:warm_u.Batch.u_name f;
          failed := true
        | Ok _ ->
          let speedup =
            if warm_u.Batch.u_wall > 0.0 then
              cold_u.Batch.u_wall /. warm_u.Batch.u_wall
            else infinity
          in
          (* On a partial AST stage the per-slice outcomes say exactly
             which functions were adopted from per-function artifacts
             and which were re-parsed.  The warm pass usually full-hits
             the unit artifacts the cold pass just stored, so when it
             has no per-slice story, fall back to the cold pass — that
             is the pass that demonstrated per-function reuse (e.g. a
             body edit against a --cache-dir warmed by the old file). *)
          let fns =
            match
              (warm_u.Batch.u_fn_trace, cold_u.Batch.u_fn_trace)
            with
            | [], [] -> ""
            | [], fns | fns, _ ->
              Printf.sprintf ", fns: %s"
                (Mc_core.Pipeline.render_fn_trace fns)
          in
          Printf.eprintf
            "[mcc --incremental: %s: cold %.6fs, warm %.6fs (%.1fx), %s%s]\n%!"
            warm_u.Batch.u_name cold_u.Batch.u_wall warm_u.Batch.u_wall speedup
            (Mc_core.Pipeline.render_trace warm_u.Batch.u_trace) fns)
      batch.Batch.units warm.Batch.units
  end;
  if !failed then exit 1

(* A daemon's answer to a compile request, rendered with the semantics
   (and exit codes) of the in-process path; the IR comes back
   marshalled, so Run still executes on the local interpreter. *)
let render_daemon_units inst ~socket_path (p_units, p_wall, busy_retries) =
  let failed = ref false in
  List.iter
    (fun (u : Protocol.response_unit) ->
      match u.Protocol.r_outcome with
      | Protocol.R_ice { ice_phase; ice_exn; ice_location; ice_reproducer } ->
        report_ice ~server_side:true ~name:u.Protocol.r_name
          {
            Instance.f_ice =
              {
                Crash_recovery.ice_phase;
                ice_exn;
                ice_location;
                ice_backtrace = "";
              };
            f_reproducer = ice_reproducer;
          };
        failed := true
      | Protocol.R_ok { ok_diag; ok_errors; _ } ->
        prerr_string ok_diag;
        if ok_errors then failed := true)
    p_units;
  (* One line per unit with the server's stage trace, then a summary —
     greppable by the CI daemon smoke job. *)
  List.iter
    (fun (u : Protocol.response_unit) ->
      Printf.eprintf "[mcc --daemon: %s: %s%s, server %.6fs]\n%!"
        u.Protocol.r_name
        (Mc_core.Pipeline.render_trace u.Protocol.r_trace)
        (if u.Protocol.r_cache_hit then " (full hit)" else "")
        u.Protocol.r_wall)
    p_units;
  Printf.eprintf
    "[mcc --daemon: %d unit(s) via %s, %d full hit(s), %s, server %.3fs]\n%!"
    (List.length p_units) socket_path
    (List.length (List.filter (fun u -> u.Protocol.r_cache_hit) p_units))
    (Client.render_outcome
       (if busy_retries = 0 then Client.Served
        else Client.Shed_then_served busy_retries))
    p_wall;
  List.iter
    (fun (u : Protocol.response_unit) ->
      match u.Protocol.r_outcome with
      | Protocol.R_ice _ | Protocol.R_ok { ok_errors = true; _ } -> ()
      | Protocol.R_ok { ok_codegen_error; _ } ->
        if
          not
            (emit_or_run inst ~name:u.Protocol.r_name
               ~codegen_error:ok_codegen_error
               (Client.ir_of_response_unit u))
        then failed := true)
    p_units;
  if !failed then exit 1

(* Run and -emit-ir: one daemon request for every unit, else the
   in-process batch. *)
let run_compile_action inst units =
  match
    ask_daemon inst
      (fun inv -> Protocol.request_of_units inv units)
      (function
        | {
            Client.response = Protocol.Resp_units { p_units; p_stats; p_wall };
            busy_retries;
          } ->
          Some (p_stats, (p_units, p_wall, busy_retries))
        | _ -> None)
  with
  | Some answer ->
    render_daemon_units inst
      ~socket_path:(daemon_socket (Instance.invocation inst))
      answer
  | None -> run_local_compile inst units

(* -emit-transformed: apply the transfo script and print the rewritten
   program — the source-to-source view of the scripted pipeline, without
   compiling the result.  Under --daemon each unit is its own one-unit
   transform request, so script authors iterate against the daemon's warm
   transfo cache and a daemon lost mid-batch costs only the units it
   never answered. *)
let run_transform_action inst units =
  let inv = Instance.invocation inst in
  if inv.Invocation.transfo_script = None then
    die "-emit-transformed requires --transfo-script FILE";
  let failed = ref false in
  List.iter
    (fun (name, source) ->
      let result =
        match
          ask_daemon inst
            (fun inv -> Protocol.request_of_transform inv ~name source)
            (function
              | {
                  Client.response =
                    Protocol.Resp_transformed { p_result; p_stats; p_wall };
                  _;
                } ->
                Some (p_stats, (p_result, p_wall))
              | _ -> None)
        with
        | Some (Ok t, p_wall) ->
          Printf.eprintf "[mcc --daemon: transformed %s%s, server %.6fs]\n%!"
            name
            (if t.Protocol.x_cache_hit then " (hit)" else "")
            p_wall;
          Ok (t.Protocol.x_source, t.Protocol.x_trace)
        | Some (Error msg, _) -> Error msg
        | None -> (
          match Instance.transform_safe inst ~name source with
          | Ok (Ok (_, src, trace)) -> Ok (src, trace)
          | Ok (Error msg) -> Error ("mcc: " ^ msg)
          | Error f -> Error (Instance.render_failure ~name f))
      in
      match result with
      | Error msg ->
        report_text msg;
        failed := true
      | Ok (src, trace) ->
        multi_header inv name;
        print_string src;
        print_transfo_trace name trace)
    units;
  if !failed then exit 1

(* --analyze: compile each unit as far as pre-pass IR, run the selected
   dataflow analyses and print the report instead of executing anything.
   Exit 1 on compile errors or on any finding, so a CI job can gate on a
   clean report.  Under --daemon each unit is its own one-unit analysis
   request against the daemon's warm per-function analysis cache; a unit the
   daemon does not answer is analysed in-process, same output, same exit
   code. *)
let run_analyze_action inst units =
  let inv = Instance.invocation inst in
  let json = inv.Invocation.analyze_format = "json" in
  let failed = ref false in
  let findings = ref 0 in
  let local units =
    List.iter
      (fun u ->
        match u.Batch.u_result with
        | Error f ->
          report_ice ~name:u.Batch.u_name f;
          failed := true
        | Ok r -> (
          prerr_string (Diag.render_all r.Driver.diag);
          if Diag.has_errors r.Driver.diag then failed := true
          else
            match r.Driver.analysis with
            | Some report ->
              multi_header inv u.Batch.u_name;
              findings := !findings + Mc_analysis.Report.finding_count report;
              print_string
                (if json then Mc_analysis.Report.render_json report
                 else Mc_analysis.Report.render_text report)
            | None ->
              prerr_string (Instance.render_unanalysable ~name:u.Batch.u_name r);
              failed := true))
      (Batch.compile_into inst units).Batch.units
  in
  let remote ((name, source) as unit) =
    match
      ask_daemon inst
        (fun inv -> Protocol.request_of_analyze inv ~name source)
        (function
          | {
              Client.response =
                Protocol.Resp_analysis { p_result; p_stats; p_wall };
              _;
            } ->
            Some (p_stats, (p_result, p_wall))
          | _ -> None)
    with
    | Some (Ok a, p_wall) ->
      prerr_string a.Protocol.an_diag;
      Printf.eprintf
        "[mcc --daemon: analysed %s: %d finding(s)%s, server %.6fs]\n%!" name
        a.Protocol.an_findings
        (if a.Protocol.an_cache_hit then " (full hit)" else "")
        p_wall;
      multi_header inv name;
      print_string (if json then a.Protocol.an_json else a.Protocol.an_text);
      findings := !findings + a.Protocol.an_findings
    | Some (Error msg, _) ->
      (* A unit-level failure (diagnostics, codegen refusal, a contained
         ICE), not a daemon failure: report it, like the local path does. *)
      report_text msg;
      failed := true
    | None -> local [ unit ]
  in
  (* In-process, the units compile as one batch over -j domains. *)
  if inv.Invocation.daemon then List.iter remote units else local units;
  if !failed || !findings > 0 then exit 1

let () =
  let inv =
    match Invocation.of_argv Sys.argv with
    | Ok inv -> inv
    | Error msg -> die "%s" msg
  in
  (* Load the script eagerly: the contents must travel by value to a
     daemon, and an unreadable script should die like an unreadable
     input, before any compilation starts. *)
  let inv =
    match Invocation.load_transfo_script inv with
    | Ok inv -> inv
    | Error msg -> die "%s" msg
  in
  let inst = Instance.create inv in
  (* Registered before the action so the reports also appear on the exit-1
     error paths, like Clang's — but rendered from the instance registry,
     and at most once per instance. *)
  Instance.report_at_exit inst;
  match Invocation.load_inputs inv with
  | Error msg -> die "%s" msg
  | Ok units -> (
    match inv.Invocation.action with
    | Invocation.Run | Invocation.Emit_ir -> run_compile_action inst units
    | Invocation.Emit_transformed -> run_transform_action inst units
    | Invocation.Analyze -> run_analyze_action inst units
    | Invocation.Ast_dump | Invocation.Ast_dump_shadow | Invocation.Ast_print
    | Invocation.Print_transformed | Invocation.Syntax_only ->
      run_frontend_action inst units)
