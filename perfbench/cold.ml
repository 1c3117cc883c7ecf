(* cold_compile: one process, no cache, one caller, compiling a seeded
   corpus of distinct units through [Instance.compile_safe] — the path
   mcc takes.  Every layer from the lexer to the passes works; cache,
   store and daemon do nothing.  Each result is checked outside the timed
   region: its interpreter trace must equal that of the unit's
   pragma-free reference, run in set-up. *)

open Common
module Interp = Mc_interp.Interp
module Pipeline = Mc_core.Pipeline

type state = {
  corpus : Gen.unit_spec array;
  refs : Interp.trace_entry list array;
}

let setup ~seed =
  let corpus = Array.of_list (Gen.cold_corpus ~seed) in
  let o0 = { Driver.default_options with Driver.optimize = false } in
  let refs =
    Array.map
      (fun (u : Gen.unit_spec) ->
        match Driver.compile_and_run ~options:o0 u.Gen.u_reference with
        | Ok o -> o.Interp.trace
        | Error e -> failwith (Printf.sprintf "reference of %s failed: %s" u.Gen.u_name e))
      corpus
  in
  { corpus; refs }

let teardown _ = ()

let unit_invocation (u : Gen.unit_spec) =
  invocation ~irbuilder:u.Gen.u_irbuilder ~analyze:u.Gen.u_analyze ?script:u.Gen.u_script ()

(* The timed operation: exactly what mcc does per unit. *)
let compile (u : Gen.unit_spec) =
  Instance.compile_safe (Instance.create (unit_invocation u)) ~name:u.Gen.u_name u.Gen.u_source

(* Untimed: the unit's trace against its reference, plus the side outputs
   the invocation asked for.  Returns (optimised instructions, steps). *)
let check st i result =
  let u = st.corpus.(i) in
  match ir_of_compilation result with
  | Error e -> Error e
  | Ok m -> (
    let r = (Result.get_ok result).Instance.c_result in
    if u.Gen.u_analyze && r.Driver.analysis = None then Error "no analysis report"
    else if u.Gen.u_script <> None && r.Driver.transformed = None then
      Error "transfo script did not run"
    else
      match Interp.run_main m with
      | o ->
        if Interp.trace_equal st.refs.(i) o.Interp.trace then
          Ok (Mc_ir.Ir.module_inst_count m, o.Interp.steps)
        else Error "trace differs from the pragma-free reference"
      | exception Interp.Trap msg -> Error ("trap: " ^ msg))

let measure st ~seed ~seconds =
  let n = Array.length st.corpus in
  let insts = Array.make n (-1) and steps = Array.make n (-1) in
  let samples = ref [] and failed = ref 0 in
  let started = now () in
  let rec loop ops =
    (* Whole passes only, so every unit weighs the same in the figures. *)
    let enough =
      let k = List.length !samples in
      now () -. started >= seconds && k >= Pstats.samples_for_p95 && k mod n = 0
    in
    match ops with
    | i :: rest when not enough ->
      let result, lat = timed (fun () -> compile st.corpus.(i)) in
      (match check st i result with
      | Ok (ni, ns) ->
        insts.(i) <- ni;
        steps.(i) <- ns;
        samples := lat :: !samples
      | Error e ->
        incr failed;
        Printf.eprintf "cold_compile: %s: %s\n%!" st.corpus.(i).Gen.u_name e;
        (* Keep the corpus totals defined. *)
        insts.(i) <- max insts.(i) 0;
        steps.(i) <- max steps.(i) 0;
        samples := lat :: !samples);
      loop rest
    | _ -> ()
  in
  loop (Gen.cold_ops ~seed ~units:n 100_000);
  let sum a = float_of_int (Array.fold_left ( + ) 0 a) in
  {
    latencies = List.rev !samples;
    failed = !failed;
    lost = 0;
    extra =
      [
        ("peak_rss_mb", self_peak_rss_mb ());
        ("ir_insts", sum insts);
        ("exec_steps", sum steps);
      ];
  }

(* ---- the traced layer walk --------------------------------------------- *)

module Srcmgr = Mc_srcmgr.Source_manager
module Fmgr = Mc_srcmgr.File_manager
module Buf = Mc_srcmgr.Memory_buffer

let options_for (u : Gen.unit_spec) ~irbuilder =
  {
    Pipeline.default_options with
    Pipeline.use_irbuilder = irbuilder;
    analyze = (if u.Gen.u_analyze then Some [] else None);
    transfo_script = u.Gen.u_script;
  }

type walked = {
  w_ir : string; (* printed optimised IR *)
  w_counts : Stats.snapshot;
  w_codegen_insts : int;
  w_report : Mc_passes.Pass_manager.report;
}

let tag irbuilder = if irbuilder then "irbuilder" else "classic"

(* Source through every layer by direct calls, mirroring the pipeline's
   uncached path, one span per call. *)
let walk ~op ~root ~irbuilder ~lay (u : Gen.unit_spec) =
  let name = u.Gen.u_name in
  let mode_tag = tag irbuilder in
  let span name f = Span.time ~parent:root ~op name f in
  let source =
    match u.Gen.u_script with
    | None -> Ok u.Gen.u_source
    | Some script -> (
      let options = { (options_for u ~irbuilder) with Pipeline.transfo_script = None } in
      let r, dt =
        span "transfo.Pipeline.transform" (fun () ->
            Pipeline.transform ~options ~name ~script u.Gen.u_source)
      in
      Layers.time lay "transfo.busy_s" dt;
      match r with Ok (_, src, _) -> Ok src | Error e -> Error ("transfo: " ^ e))
  in
  match source with
  | Error e -> Error e
  | Ok source -> (
    Pipeline.reset_compilation_state ();
    let result, registry =
      Stats.with_scoped_registry (fun () ->
          let srcmgr = Srcmgr.create () in
          let fmgr = Fmgr.create () in
          let diag = Diag.create srcmgr in
          Diag.set_error_limit diag Pipeline.default_options.Pipeline.error_limit;
          let buf = Buf.create ~name ~contents:source in
          let file_id = Srcmgr.load_main srcmgr buf in
          let toks, dt =
            span "lexer.tokenize" (fun () -> Mc_lexer.Lexer.tokenize diag ~file_id buf)
          in
          Layers.time lay "lexer.busy_s" dt;
          let pp = Mc_pp.Preprocessor.create diag srcmgr fmgr in
          let items, dt =
            span "pp.preprocess_tokens" (fun () ->
                Mc_pp.Preprocessor.preprocess_tokens pp ~file_id buf toks)
          in
          Layers.time lay "pp.busy_s" dt;
          Layers.count lay "pp.items" (float_of_int (List.length items));
          let sema =
            Mc_sema.Sema.create
              ~mode:(if irbuilder then Mc_sema.Sema.Irbuilder else Mc_sema.Sema.Classic)
              ~loop_nest_limit:Pipeline.default_options.Pipeline.loop_nest_limit diag
          in
          let tu, dt =
            span "sema.parse_translation_unit" (fun () ->
                Mc_parser.Parser.parse_translation_unit
                  ~bracket_depth:Pipeline.default_options.Pipeline.bracket_depth sema items)
          in
          Layers.time lay ("sema.busy_s." ^ mode_tag) dt;
          if Diag.has_errors diag then Error (Diag.render_all diag)
          else
            let m, dt =
              span "codegen.emit_translation_unit" (fun () ->
                  Mc_codegen.Codegen.emit_translation_unit ~fold:true
                    ~mode:(if irbuilder then Mc_codegen.Codegen.Irbuilder else Mc_codegen.Codegen.Classic)
                    tu)
            in
            Layers.time lay ("codegen.busy_s." ^ mode_tag) dt;
            let codegen_insts = Mc_ir.Ir.module_inst_count m in
            let verified, _ = span "ir.Verifier.check" (fun () -> Mc_ir.Verifier.check m) in
            match verified with
            | Error e -> Error ("IR verification: " ^ e)
            | Ok () ->
              if u.Gen.u_analyze then begin
                let describe loc = Srcmgr.describe srcmgr loc in
                let _, dt =
                  span "analysis.Analyzer.run" (fun () ->
                      Mc_analysis.Analyzer.run
                        ~passes:(Mc_analysis.Analyzer.normalize_passes (Some []))
                        ~describe m)
                in
                Layers.time lay "analysis.busy_s" dt
              end;
              let pass_start = now () in
              let report, dt =
                span "passes.Pass_manager.run" (fun () ->
                    Mc_passes.Pass_manager.run ~verify_between:true
                      ~passes:Mc_passes.Pass_manager.o1 m)
              in
              Layers.time lay ("passes.busy_s." ^ mode_tag) dt;
              (* Per-pass spans come from the pass manager's own report,
                 laid end to end from the call's start. *)
              ignore
                (List.fold_left
                   (fun t (pt : Mc_passes.Pass_manager.pass_timing) ->
                     let p = pt.Mc_passes.Pass_manager.pt_name
                     and wall = pt.Mc_passes.Pass_manager.pt_wall in
                     ignore (Span.record ~parent:root ~op ("passes." ^ p) ~start:t ~stop:(t +. wall));
                     Layers.time lay ("passes." ^ p ^ ".busy_s") wall;
                     t +. wall)
                   pass_start report.Mc_passes.Pass_manager.pass_timings);
              let outcome, dt = span "interp.run_main" (fun () -> Interp.run_main m) in
              Layers.time lay "interp.busy_s" dt;
              Ok
                ( outcome,
                  { w_ir = ir_text m; w_counts = []; w_codegen_insts = codegen_insts;
                    w_report = report } ))
    in
    match result with
    | Error e -> Error e
    | Ok (outcome, w) ->
      Ok (outcome, { w with w_counts = Stats.snapshot ~registry () }))

(* The pipeline's own IR for the same unit and lowering. *)
let pipeline_ir (u : Gen.unit_spec) ~irbuilder =
  let x = Pipeline.execute ~options:(options_for u ~irbuilder) ~name:u.Gen.u_name u.Gen.u_source in
  Option.map ir_text x.Pipeline.x_result.Pipeline.ir

(* Walks every unit under both lowerings, pass after pass over the corpus
   until [seconds] are spent.  A walk whose IR differs from the
   pipeline's, or whose trace differs from the reference, fails the run:
   its numbers would describe a different program.  Counts cover the
   first pass only. *)
let traced st ~seed:_ ~seconds =
  let lay = Layers.create () in
  let failed = ref 0 and attempted = ref 0 in
  let runs = ref 0 and changed = ref 0 in
  let started = now () in
  let pass = ref 0 in
  while !pass = 0 || now () -. started < seconds do
    let first = !pass = 0 in
    Array.iteri
      (fun i (u : Gen.unit_spec) ->
        List.iter
          (fun irbuilder ->
            let op = !attempted in
            incr attempted;
            Layers.op lay ~tag:(tag irbuilder);
            let result, _ =
              Span.run ~op ("unit " ^ u.Gen.u_name) (fun root ->
                  walk ~op ~root ~irbuilder ~lay u)
            in
            match result with
            | Error e ->
              incr failed;
              Printf.eprintf "cold_compile traced: %s: %s\n%!" u.Gen.u_name e
            | Ok (outcome, w) ->
              let same_ir = pipeline_ir u ~irbuilder = Some w.w_ir in
              if not (same_ir && Interp.trace_equal st.refs.(i) outcome.Interp.trace) then begin
                incr failed;
                Printf.eprintf "cold_compile traced: %s (%s): %s\n%!" u.Gen.u_name
                  (tag irbuilder)
                  (if same_ir then "trace differs" else "walked IR differs from Pipeline.execute")
              end;
              let passes = w.w_report.Mc_passes.Pass_manager.pass_timings in
              runs := !runs + List.length passes;
              changed :=
                !changed
                + List.length (List.filter (fun pt -> pt.Mc_passes.Pass_manager.pt_changed) passes);
              if first then begin
                let t = tag irbuilder in
                let opt_insts =
                  match List.rev passes with
                  | last :: _ -> last.Mc_passes.Pass_manager.pt_insts_after
                  | [] -> w.w_codegen_insts
                in
                List.iter
                  (fun (name, v) ->
                    Layers.count lay name v;
                    Layers.count lay (name ^ "." ^ t) v)
                  [
                    ("lexer.tokens", stat w.w_counts "lexer.tokens-lexed");
                    ("sema.shadow_stmts", stat w.w_counts "sema.shadow-stmts-built");
                    ("sema.canonical_loops", stat w.w_counts "sema.canonical-loops");
                    ("codegen.ir_insts", float_of_int w.w_codegen_insts);
                    ("passes.ir_insts", float_of_int opt_insts);
                    ("interp.steps", float_of_int outcome.Interp.steps);
                  ]
              end)
          [ false; true ])
      st.corpus;
    incr pass
  done;
  Layers.set lay "passes.changed_ratio" (ratio (float_of_int !changed) (float_of_int !runs));
  let row label a b = Printf.sprintf "  %-32s %14s %14s" label a b in
  let both label f = row label (f "classic") (f "irbuilder") in
  let ms name t = Printf.sprintf "%.3f ms" (1000.0 *. Layers.per_op lay (name ^ "." ^ t)) in
  let n name t = Printf.sprintf "%.0f" (Layers.get_count lay (name ^ "." ^ t)) in
  let table =
    [
      Printf.sprintf "classic vs irbuilder over %d unit(s), %d pass(es); times are per unit:"
        (Array.length st.corpus) !pass;
      row "" "classic" "irbuilder";
      both "sema (parse + shadow/canonical)" (ms "sema.busy_s");
      both "codegen" (ms "codegen.busy_s");
      both "passes" (ms "passes.busy_s");
      both "shadow statements built" (n "sema.shadow_stmts");
      both "canonical loops" (n "sema.canonical_loops");
      both "IR instructions after codegen" (n "codegen.ir_insts");
      both "IR instructions after passes" (n "passes.ir_insts");
    ]
  in
  ({ Spec.attempted = !attempted; failed = !failed; lost = 0; metrics = Layers.metrics lay }, table)
