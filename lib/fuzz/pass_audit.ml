module Ir = Mc_ir.Ir
module Pm = Mc_passes.Pass_manager
module Codegen = Mc_codegen.Codegen
module Driver = Mc_core.Driver
module Diag = Mc_diag.Diagnostics

type finding = {
  pa_name : string;
  pa_lowering : string;
  pa_pass : string;
  pa_detail : string;
  pa_source : string;
}

type report = { pa_total : int; pa_findings : finding list }

let lowerings = [ ("classic", false); ("irbuilder", true) ]

let lower ~irbuilder ~name source =
  let options = { Driver.default_options with Driver.use_irbuilder = irbuilder } in
  let diag, tu = Driver.frontend ~options ~name source in
  if Diag.has_errors diag then Error (Diag.render_all diag)
  else
    let mode = if irbuilder then Codegen.Irbuilder else Codegen.Classic in
    match Codegen.emit_translation_unit ~mode tu with
    | m -> Ok m
    | exception Codegen.Unsupported msg -> Error ("codegen: " ^ msg)

let digests m =
  List.filter_map
    (fun (f : Ir.func) ->
      if f.f_is_decl then None
      else Some (f.f_name, Digest.string (Mc_ir.Printer.func_to_string f)))
    m.Ir.m_funcs

let audit_module ?(passes = List.map Pm.named Pm.o1) m =
  List.concat_map
    (fun (p : Pm.pass) ->
      let before = digests m in
      let reported =
        List.concat_map (fun pt -> pt.Pm.pt_changed_funcs) (Pm.run_passes [ p ] m)
      in
      List.filter_map
        (fun (fn, d) ->
          if List.assoc_opt fn before = Some d || List.mem fn reported then None
          else Some (p.Pm.name, fn))
        (digests m))
    passes

let audit_source ~name source =
  List.concat_map
    (fun (lowering, irbuilder) ->
      let finding pass detail =
        { pa_name = name; pa_lowering = lowering; pa_pass = pass; pa_detail = detail;
          pa_source = source }
      in
      match lower ~irbuilder ~name source with
      | Error e -> [ finding "" e ]
      | Ok m ->
        List.map (fun (pass, fn) -> finding pass fn) (audit_module m))
    lowerings

let run ~n ~seed () =
  let rng = Fuzz.Rng.create seed in
  let rec go i acc =
    if i = n then List.concat (List.rev acc)
    else
      let source = Differential.gen_program rng in
      go (i + 1) (audit_source ~name:(Printf.sprintf "audit-%d-%d.c" seed i) source :: acc)
  in
  { pa_total = n; pa_findings = go 0 [] }
