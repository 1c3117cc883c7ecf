(* The driver is now a thin walk over the stage-graph pipeline: all
   stage execution, timing, caching and stats scoping lives in
   [Pipeline]; this module keeps the historical entry points. *)

module Diag = Mc_diag.Diagnostics

type options = Pipeline.options = {
  use_irbuilder : bool;
  optimize : bool;
  fold : bool;
  defines : (string * string) list;
  extra_files : (string * string) list;
  error_limit : int;
  bracket_depth : int;
  loop_nest_limit : int;
  transfo_script : string option;
  transfo_check : bool;
  analyze : string list option;
}

let default_options = Pipeline.default_options

type timings = Pipeline.timings = {
  t_lex : float;
  t_preprocess : float;
  t_parse_sema : float;
  t_codegen : float;
  t_passes : float;
}

type result = Pipeline.result = {
  diag : Diag.t;
  srcmgr : Mc_srcmgr.Source_manager.t;
  ir : Mc_ir.Ir.modul option;
  ir_payload : string option;
  codegen_error : string option;
  timings : timings;
  unroll_stats : Mc_passes.Loop_unroll.stats;
  stats : Mc_support.Stats.snapshot;
  transformed : (string * string) option;
  analysis : Mc_analysis.Report.t option;
}

let compile ?options ?name source =
  (Pipeline.execute ?options ?name source).Pipeline.x_result

let frontend = Pipeline.frontend

let ast_dump ?options ?(shadow = false) source =
  let _, tu = frontend ?options source in
  Mc_ast.Dump.translation_unit ~shadow tu

let run ?config result =
  match result.ir with
  | None ->
    Error
      (match result.codegen_error with
      | Some e -> "codegen: " ^ e
      | None -> "compilation failed:\n" ^ Diag.render_all result.diag)
  | Some m -> (
    match Mc_interp.Interp.run_main ?config m with
    | outcome -> Ok outcome
    | exception Mc_interp.Interp.Trap msg -> Error ("trap: " ^ msg))

let compile_and_run ?options ?config source =
  let result = compile ?options source in
  if Diag.has_errors result.diag then
    Error ("compilation failed:\n" ^ Diag.render_all result.diag)
  else run ?config result
