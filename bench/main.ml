(* Benchmark harness: regenerates every figure/listing-derived experiment of
   DESIGN.md's index.

   It prints the structural reproduction metrics (the paper's quantified
   claims: shadow-node budgets, skeleton structure, unroll deferral,
   execution-step ablations), then checks the counters those experiments
   leave in the global registry against an exact golden and exits 1 on
   any difference.  It times nothing: perfbench/ is the sampled,
   spread-aware timing harness.  EXPERIMENTS.md records the
   paper-vs-measured comparison for each.  The harness writes no file. *)

module Driver = Mc_core.Driver
module Interp = Mc_interp.Interp
module Visit = Mc_ast.Visit
open Mc_ast.Tree

let classic = Driver.default_options
let irbuilder = { classic with Driver.use_irbuilder = true }
let o0 o = { o with Driver.optimize = false }

let compile_or_fail ?(options = classic) source =
  let r = Driver.compile ~options source in
  if Mc_diag.Diagnostics.has_errors r.Driver.diag then
    failwith (Mc_diag.Diagnostics.render_all r.Driver.diag);
  r

let steps_of ?(options = classic) ?(num_threads = 4) source =
  let r = compile_or_fail ~options source in
  match Driver.run ~config:{ Interp.default_config with Interp.num_threads } r with
  | Ok outcome -> outcome.Interp.steps
  | Error e -> failwith e

let heading title = Printf.printf "\n===== %s =====\n%!" title

(* --------------------------------------------------------------------- *)
(* Structural metrics                                                    *)
(* --------------------------------------------------------------------- *)

let find_directive tu =
  let found = ref None in
  List.iter
    (function
      | Tu_fn { fn_body = Some body; _ } ->
        Visit.iter ~shadow:false
          ~on_stmt:(fun s ->
            match s.s_kind with
            | Omp_directive d when !found = None -> found := Some d
            | _ -> ())
          body
      | _ -> ())
    tu.tu_decls;
  Option.get !found

let nest_source depth =
  let rec loops d =
    if d = 0 then "record(i0);"
    else
      Printf.sprintf "for (int i%d = 0; i%d < 4; i%d += 1)\n%s"
        (depth - d) (depth - d) (depth - d)
        (loops (d - 1))
  in
  Printf.sprintf
    "void record(long x);\nint main(void) {\n#pragma omp parallel for collapse(%d)\n%s\nreturn 0; }"
    depth (loops depth)

let claim_c1 () =
  heading "C1: shadow-node budget — OMPLoopDirective '30 + 6/loop' vs OMPCanonicalLoop '3'";
  List.iter
    (fun depth ->
      let _, tu = Driver.frontend (nest_source depth) in
      let d = find_directive tu in
      let h = Option.get d.dir_loop_helpers in
      Printf.printf
        "  depth %d: classic helper slots = %d (paper: up to 30 + 6*d = %d), occupied = %d\n"
        depth (Visit.helper_slot_count h)
        (30 + (6 * depth))
        (Visit.helper_occupied_count h))
    [ 1; 2; 3 ];
  let _, tu =
    Driver.frontend ~options:irbuilder
      "void record(long x);\nint main(void) {\n#pragma omp unroll partial(2)\n\
       for (int i = 0; i < 4; i += 1) record(i);\nreturn 0; }"
  in
  let d = find_directive tu in
  (match d.dir_assoc with
  | Some { s_kind = Omp_canonical_loop ocl; _ } ->
    Printf.printf "  OMPCanonicalLoop meta slots = %d (paper: 3)\n"
      (Visit.canonical_meta_count ocl)
  | _ -> ());
  Printf.printf "%!"

let fig10_structure () =
  heading "F10: createCanonicalLoop skeleton (paper Fig. 10)";
  let m = Mc_ir.Ir.create_module "bench" in
  let f = Mc_ir.Ir.define_function m ~name:"main" ~ret:Mc_ir.Ir.Void ~args:[] in
  let entry = Mc_ir.Ir.create_block ~name:"entry" f in
  let b = Mc_ir.Builder.create () in
  Mc_ir.Builder.set_insertion_point b entry;
  let cli =
    Mc_ompbuilder.Omp_builder.create_canonical_loop b
      ~trip_count:(Mc_ir.Ir.i32_const 128)
      ~body_gen:(fun _ _ -> ())
      ()
  in
  Mc_ir.Builder.ret b None;
  Printf.printf "  blocks: %s\n%!"
    (String.concat " -> " (Mc_ompbuilder.Cli.block_names cli))

let claim_c4 () =
  heading "C4: unroll deferral — no duplication before the mid-end (paper §2.2)";
  let src factor =
    Printf.sprintf
      "void record(long x);\nint main(void) {\n#pragma omp unroll partial(%d)\n\
       for (int i = 0; i < 64; i += 1) record(i);\nreturn 0; }"
      factor
  in
  List.iter
    (fun factor ->
      let before = compile_or_fail ~options:(o0 classic) (src factor) in
      let after = compile_or_fail ~options:classic (src factor) in
      let count r = Mc_ir.Ir.module_inst_count (Option.get r.Driver.ir) in
      Printf.printf
        "  partial(%d): %3d instructions at -O0 (metadata only) -> %3d after LoopUnroll\n"
        factor (count before) (count after))
    [ 2; 4; 8 ];
  (* Consumed unroll without a factor defaults to 2. *)
  let _, tu =
    Driver.frontend
      "void record(long x);\nint main(void) {\n#pragma omp for\n\
       #pragma omp unroll partial\nfor (int i = 0; i < 8; i += 1) record(i);\n\
       return 0; }"
  in
  let outer = find_directive tu in
  let inner =
    match outer.dir_assoc with
    | Some { s_kind = Captured c; _ } -> (
      match c.cap_body.s_kind with
      | Omp_directive d -> d
      | _ -> failwith "shape")
    | _ -> failwith "shape"
  in
  let factor =
    List.find_map
      (function C_partial (Some (n, _)) -> Some n | C_partial None -> Some 2 | _ -> None)
      inner.dir_clauses
  in
  Printf.printf "  consumed 'unroll partial' factor default = %d (paper: 2)\n%!"
    (Option.value factor ~default:(-1))

let ablation_a3 () =
  heading "A3/L1: unroll factor sweep (interpreter steps, Listing 1 shape)";
  let src factor =
    Printf.sprintf
      "void record(long x);\nint main(void) {\nlong s = 0;\n\
       #pragma omp unroll partial(%d)\n\
       for (int i = 0; i < 2000; i += 1) s += i;\nrecord(s);\nreturn 0; }"
      factor
  in
  let base = steps_of ~options:(o0 classic) (src 4) in
  Printf.printf "  no unrolling (-O0)            : %7d steps\n" base;
  List.iter
    (fun factor ->
      let steps = steps_of ~options:classic (src factor) in
      Printf.printf "  partial(%2d) after LoopUnroll  : %7d steps (%.2fx)\n" factor
        steps
        (float_of_int base /. float_of_int steps))
    [ 1; 2; 4; 8; 16 ];
  Printf.printf "%!"

let stencil_source ti tj =
  Printf.sprintf
    "void recordf(double x);\nint main(void) {\n\
     double g[34][34]; double n[34][34];\n\
     for (int i = 0; i < 34; i += 1) for (int j = 0; j < 34; j += 1)\n\
     { g[i][j] = (i * 31 + j * 17) %% 13; n[i][j] = 0.0; }\n\
     #pragma omp tile sizes(%d, %d)\n\
     for (int i = 1; i < 33; i += 1) for (int j = 1; j < 33; j += 1)\n\
     n[i][j] = 0.25 * (g[i-1][j] + g[i+1][j] + g[i][j-1] + g[i][j+1]);\n\
     double s = 0.0;\n\
     for (int i = 0; i < 34; i += 1) for (int j = 0; j < 34; j += 1) s += n[i][j];\n\
     recordf(s);\nreturn 0; }"
    ti tj

let ablation_a2 () =
  heading "A2: tile-size sweep on the 2-D stencil (interpreter steps)";
  List.iter
    (fun (ti, tj) ->
      Printf.printf "  sizes(%2d,%2d): classic %6d steps, irbuilder %6d steps\n"
        ti tj
        (steps_of ~options:classic (stencil_source ti tj))
        (steps_of ~options:irbuilder (stencil_source ti tj)))
    [ (2, 2); (4, 4); (8, 8); (16, 16) ];
  Printf.printf "%!"

let ablation_a4 () =
  heading "A4: IRBuilder on-the-fly folding (paper §1.3) — instruction counts";
  let source =
    "void record(long x);\nint main(void) {\n\
     int x = (3 * 4 + 1) * 0 + 5 * 1;\n\
     int y = x + 0;\n\
     int a[4];\n\
     a[0] = 2 * 0; a[1] = y - y + 1; a[2] = 1 * y; a[3] = (2 + 2) * (3 + 3);\n\
     record(a[0] + a[1] + a[2] + a[3] + x);\nreturn 0; }"
  in
  let count fold =
    let r =
      compile_or_fail ~options:{ (o0 classic) with Driver.fold } source
    in
    Mc_ir.Ir.module_inst_count (Option.get r.Driver.ir)
  in
  Printf.printf "  folding on : %3d instructions\n" (count true);
  Printf.printf "  folding off: %3d instructions\n%!" (count false)

let ablation_a1 () =
  heading "A1: whole-pipeline comparison (interpreter steps, shadow vs irbuilder)";
  let src =
    "void record(long x);\nint main(void) {\nlong s = 0;\n\
     #pragma omp parallel for\n#pragma omp unroll partial(4)\n\
     for (int i = 0; i < 1000; i += 1) s += i;\nrecord(s);\nreturn 0; }"
  in
  Printf.printf "  classic   -O0: %7d   -O1: %7d steps\n"
    (steps_of ~options:(o0 classic) src)
    (steps_of ~options:classic src);
  Printf.printf "  irbuilder -O0: %7d   -O1: %7d steps\n%!"
    (steps_of ~options:(o0 irbuilder) src)
    (steps_of ~options:irbuilder src)

let omp60_preview () =
  heading "X1: OpenMP 6.0 preview transformations (paper's conclusion outlook)";
  let src name =
    match name with
    | "reverse" ->
      "void record(long x);\nint main(void) {\nlong s = 0;\n\
       #pragma omp reverse\nfor (int i = 0; i < 500; i += 1) s += i * 3;\n\
       record(s);\nreturn 0; }"
    | "interchange" ->
      "void record(long x);\nint main(void) {\nlong s = 0;\n\
       #pragma omp interchange\nfor (int i = 0; i < 30; i += 1)\n\
       for (int j = 0; j < 20; j += 1) s += i * j;\nrecord(s);\nreturn 0; }"
    | _ ->
      "void record(long x);\nint main(void) {\nlong s = 0;\n\
       #pragma omp fuse\n{\nfor (int i = 0; i < 300; i += 1) s += i;\n\
       for (int j = 0; j < 200; j += 1) s += 2 * j;\n}\nrecord(s);\nreturn 0; }"
  in
  List.iter
    (fun name ->
      Printf.printf "  %-12s classic %6d steps, irbuilder %6d steps\n" name
        (steps_of ~options:classic (src name))
        (steps_of ~options:irbuilder (src name)))
    [ "reverse"; "interchange"; "fuse" ];
  (* Fused vs unfused loop sequence: in the cache-less interpreter the
     per-iteration guards roughly offset the saved loop control, so the
     step counts come out close — fuse's real-world win is locality, which
     the simulator deliberately does not model (see DESIGN.md). *)
  let seq =
    "int main(void) {\nlong s = 0;\n\
     for (int i = 0; i < 400; i += 1) s += i;\n\
     for (int j = 0; j < 400; j += 1) s += 2 * j;\nreturn (int)s; }"
  in
  let fused =
    "int main(void) {\nlong s = 0;\n#pragma omp fuse\n{\n\
     for (int i = 0; i < 400; i += 1) s += i;\n\
     for (int j = 0; j < 400; j += 1) s += 2 * j;\n}\nreturn (int)s; }"
  in
  Printf.printf "  loop sequence: %d steps unfused -> %d steps fused\n%!"
    (steps_of ~options:classic seq)
    (steps_of ~options:classic fused)

(* The non-zero counters of the global registry after every experiment
   above plus one compile-and-run of the 4x4-tiled stencil: what each
   layer did for the paper's experiments, exactly.  Like
   test/irdigest, change it only for an intended change and say why in
   CHANGES.md; a mismatch prints the current list in this format. *)
let counter_golden =
  {|ast.exprs-created 5437
ast.stmts-created 787
codegen.functions-emitted 35
codegen.ir-instructions-classic 1628
codegen.ir-instructions-irbuilder 963
interp.chunks-static 16
interp.parallel-regions 4
interp.steps-executed 1164206
lexer.buffers-lexed 40
lexer.tokens-lexed 3997
parser.external-decls 78
parser.omp-directives 42
passes.loops-partially-unrolled 8
passes.loops-unroll-skipped 2
passes.pass-runs 232
passes.passes-changed-ir 135
pp.directives-processed 42
pp.files-entered 40
pp.pragmas-kept 42
sema.canonical-loops 71
sema.loop-helpers-built 6
sema.shadow-stmts-built 24
sema.tile-transforms 5
verifier.functions-verified 178
verifier.unchanged-skipped 113
|}

let check_counter_golden () =
  heading "Counter golden: every experiment above + the 4x4-tiled stencil";
  (match Driver.run (compile_or_fail (stencil_source 4 4)) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let current =
    Mc_support.Stats.snapshot ()
    |> List.filter_map (fun (name, v) ->
           if v = 0 then None else Some (Printf.sprintf "%s %d\n" name v))
  in
  if String.concat "" current = counter_golden then
    Printf.printf "  %d non-zero counters match\n%!" (List.length current)
  else begin
    Printf.printf "  counters differ from the golden; current list:\n%s%!"
      (String.concat "" current);
    exit 1
  end

let () =
  print_endline "Loop Transformations using Clang's AST — benchmark harness";
  print_endline "(see DESIGN.md for the experiment index, EXPERIMENTS.md for analysis)";
  claim_c1 ();
  fig10_structure ();
  claim_c4 ();
  ablation_a3 ();
  ablation_a2 ();
  ablation_a4 ();
  ablation_a1 ();
  omp60_preview ();
  check_counter_golden ()
