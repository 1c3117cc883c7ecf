(* Benchmark harness: regenerates every figure/listing-derived experiment of
   DESIGN.md's index.

   Part 1 prints the structural reproduction metrics (the paper's
   quantified claims: shadow-node budgets, skeleton structure, unroll
   deferral, execution-step ablations).  Part 2 runs one bechamel timing
   benchmark per experiment id.  EXPERIMENTS.md records the paper-vs-
   measured comparison for each. *)

open Bechamel
open Toolkit
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
(* Part 1: structural metrics                                             *)
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

let ablation_a2 () =
  heading "A2: tile-size sweep on the 2-D stencil (interpreter steps)";
  let src ti tj =
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
  in
  List.iter
    (fun (ti, tj) ->
      Printf.printf "  sizes(%2d,%2d): classic %6d steps, irbuilder %6d steps\n"
        ti tj
        (steps_of ~options:classic (src ti tj))
        (steps_of ~options:irbuilder (src ti tj)))
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

(* --------------------------------------------------------------------- *)
(* Part 2: bechamel timing benchmarks                                     *)
(* --------------------------------------------------------------------- *)

(* A ~1000-line synthetic translation unit for the Fig. 1 stage timings. *)
let big_source =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "void record(long x);\n";
  for fn = 0 to 39 do
    Buffer.add_string buf (Printf.sprintf "long work%d(int n) {\n" fn);
    Buffer.add_string buf "  long acc = 0;\n";
    for i = 0 to 9 do
      Buffer.add_string buf
        (Printf.sprintf
           "  for (int i%d = 0; i%d < n; i%d += 1) acc += i%d * %d + (acc >> 3);\n"
           i i i i (i + fn))
    done;
    Buffer.add_string buf "  return acc;\n}\n"
  done;
  Buffer.add_string buf "int main(void) { record(work0(3)); return 0; }\n";
  Buffer.contents buf

let omp_source =
  "void record(long x);\nint main(void) {\nlong s = 0;\n\
   #pragma omp parallel for\n#pragma omp unroll partial(2)\n\
   for (int i = 0; i < 50; i += 1) s += i;\nrecord(s);\nreturn 0; }"

let fig2_source =
  "void record(long x);\nint main(void) {\n\
   #pragma omp parallel for schedule(static)\n\
   for (int i = 7; i < 17; i += 3) record(i);\nreturn 0; }"

let fig6_source =
  "void record(long x);\nint main(void) {\n\
   #pragma omp unroll full\n#pragma omp unroll partial(2)\n\
   for (int i = 7; i < 17; i += 3) record(i);\nreturn 0; }"

let fig8_source =
  "void recordf(double x);\nint main(void) {\ndouble a[64];\n\
   for (int i = 0; i < 64; i += 1) a[i] = i;\n\
   for (double &v : a) recordf(v);\nreturn 0; }"

let staged_frontend ?(options = classic) source =
  Staged.stage (fun () -> ignore (Driver.frontend ~options source))

(* Precompiled modules for execution benches. *)
let prepared_run ?(options = classic) source =
  let r = compile_or_fail ~options source in
  let m = Option.get r.Driver.ir in
  Staged.stage (fun () -> ignore (Interp.run_main m))

let unrolled_exec_source factor =
  Printf.sprintf
    "int main(void) {\nlong s = 0;\n#pragma omp unroll partial(%d)\n\
     for (int i = 0; i < 500; i += 1) s += i;\nreturn (int)s; }"
    factor

let tests =
  [
    (* F1: per-layer costs on the 1000-line unit. *)
    Test.make ~name:"fig1/lex" (Staged.stage (fun () ->
        let sm = Mc_srcmgr.Source_manager.create () in
        let diag = Mc_diag.Diagnostics.create sm in
        let buf = Mc_srcmgr.Memory_buffer.create ~name:"big.c" ~contents:big_source in
        let id = Mc_srcmgr.Source_manager.load_buffer sm buf in
        ignore (Mc_lexer.Lexer.tokenize diag ~file_id:id buf)));
    Test.make ~name:"fig1/preprocess" (Staged.stage (fun () ->
        let sm = Mc_srcmgr.Source_manager.create () in
        let diag = Mc_diag.Diagnostics.create sm in
        let fm = Mc_srcmgr.File_manager.create () in
        let pp = Mc_pp.Preprocessor.create diag sm fm in
        ignore
          (Mc_pp.Preprocessor.preprocess_main pp
             (Mc_srcmgr.Memory_buffer.create ~name:"big.c" ~contents:big_source))));
    Test.make ~name:"fig1/parse-sema" (staged_frontend big_source);
    Test.make ~name:"fig1/codegen-O0" (Staged.stage (fun () ->
        ignore (Driver.compile ~options:(o0 classic) big_source)));
    Test.make ~name:"fig1/full-O1" (Staged.stage (fun () ->
        ignore (Driver.compile ~options:classic big_source)));
    (* F2/F6/F8/F9: front-end cost of the paper's listings. *)
    Test.make ~name:"fig2/frontend-parallel-for" (staged_frontend fig2_source);
    Test.make ~name:"fig6/frontend-composed-unroll" (staged_frontend fig6_source);
    Test.make ~name:"fig7/shadow-construction" (staged_frontend fig6_source);
    Test.make ~name:"fig8/frontend-range-for" (staged_frontend fig8_source);
    Test.make ~name:"fig9/canonical-construction"
      (staged_frontend ~options:irbuilder fig6_source);
    (* F10: skeleton creation cost at the IR level. *)
    Test.make ~name:"fig10/create-canonical-loop" (Staged.stage (fun () ->
        let m = Mc_ir.Ir.create_module "bench" in
        let f = Mc_ir.Ir.define_function m ~name:"f" ~ret:Mc_ir.Ir.Void ~args:[] in
        let entry = Mc_ir.Ir.create_block ~name:"entry" f in
        let b = Mc_ir.Builder.create () in
        Mc_ir.Builder.set_insertion_point b entry;
        ignore
          (Mc_ompbuilder.Omp_builder.create_canonical_loop b
             ~trip_count:(Mc_ir.Ir.i32_const 128)
             ~body_gen:(fun _ _ -> ())
             ());
        Mc_ir.Builder.ret b None));
    (* L1/A3: execution cost, plain vs unrolled. *)
    Test.make ~name:"lst1/exec-no-unroll"
      (prepared_run ~options:(o0 classic) (unrolled_exec_source 4));
    Test.make ~name:"lst1/exec-unrolled-4"
      (prepared_run ~options:classic (unrolled_exec_source 4));
    Test.make ~name:"lst1/exec-unrolled-8"
      (prepared_run ~options:classic (unrolled_exec_source 8));
    (* A1: end-to-end compile time of the two lowering paths. *)
    Test.make ~name:"ablate/pipeline-shadow" (Staged.stage (fun () ->
        ignore (Driver.compile ~options:classic omp_source)));
    Test.make ~name:"ablate/pipeline-irbuilder" (Staged.stage (fun () ->
        ignore (Driver.compile ~options:irbuilder omp_source)));
    (* A4: codegen with and without on-the-fly folding. *)
    Test.make ~name:"ablate/codegen-fold" (Staged.stage (fun () ->
        ignore (Driver.compile ~options:(o0 classic) big_source)));
    Test.make ~name:"ablate/codegen-no-fold" (Staged.stage (fun () ->
        ignore
          (Driver.compile ~options:{ (o0 classic) with Driver.fold = false }
             big_source)));
    (* X1: front-end cost of the OpenMP 6.0 preview transformations. *)
    Test.make ~name:"omp60/reverse-shadow"
      (staged_frontend
         "void record(long x);\nint main(void) {\n#pragma omp reverse\n\
          for (int i = 0; i < 8; i += 1) record(i);\nreturn 0; }");
    Test.make ~name:"omp60/interchange-shadow"
      (staged_frontend
         "void record(long x);\nint main(void) {\n#pragma omp interchange\n\
          for (int i = 0; i < 4; i += 1)\nfor (int j = 0; j < 4; j += 1) \
          record(i + j);\nreturn 0; }");
    Test.make ~name:"omp60/fuse-shadow"
      (staged_frontend
         "void record(long x);\nint main(void) {\n#pragma omp fuse\n{\n\
          for (int i = 0; i < 4; i += 1) record(i);\n\
          for (int j = 0; j < 4; j += 1) record(j);\n}\nreturn 0; }");
    (* C1 cost angle: sema time of deep collapse nests. *)
    Test.make ~name:"claims/sema-collapse3-classic" (staged_frontend (nest_source 3));
    Test.make ~name:"claims/sema-collapse3-irbuilder"
      (staged_frontend ~options:irbuilder (nest_source 3));
  ]

(* --------------------------------------------------------------------- *)
(* Machine-readable stats: BENCH_stats.json                              *)
(* --------------------------------------------------------------------- *)

(* Emits the same counters as `mcc -print-stats` on the tiling example,
   plus the monotonic stage timings, so recorded runs can be diffed by
   tooling rather than eyeballed (no JSON library in the image — the
   writer is hand-rolled; every key is a [a-z0-9.-] statistic name). *)
let emit_stats_json () =
  heading "BENCH_stats.json (machine-readable counters + stage timings)";
  let tile_source =
    "void recordf(double x);\nint main(void) {\n\
     double g[34][34]; double n[34][34];\n\
     for (int i = 0; i < 34; i += 1) for (int j = 0; j < 34; j += 1)\n\
     { g[i][j] = (i * 31 + j * 17) % 13; n[i][j] = 0.0; }\n\
     #pragma omp tile sizes(4, 4)\n\
     for (int i = 1; i < 33; i += 1) for (int j = 1; j < 33; j += 1)\n\
     n[i][j] = 0.25 * (g[i-1][j] + g[i+1][j] + g[i][j-1] + g[i][j+1]);\n\
     double s = 0.0;\n\
     for (int i = 0; i < 34; i += 1) for (int j = 0; j < 34; j += 1) s += n[i][j];\n\
     recordf(s);\nreturn 0; }"
  in
  let r = compile_or_fail tile_source in
  (match Driver.run r with
  | Ok _ -> ()
  | Error e -> failwith e);
  (* The global registry now also holds the interpreter's counters. *)
  let counters = Mc_support.Stats.snapshot () in
  let t = r.Driver.timings in
  let buf = Buffer.create 1024 in
  let field last name value =
    Buffer.add_string buf (Printf.sprintf "    %S: %s%s\n" name value
      (if last then "" else ","))
  in
  Buffer.add_string buf "{\n  \"schema\": \"mcc-bench-stats/1\",\n";
  Buffer.add_string buf "  \"workload\": \"tile-sizes-4x4-stencil\",\n";
  Buffer.add_string buf "  \"timings_seconds\": {\n";
  field false "lex" (Printf.sprintf "%.9f" t.Driver.t_lex);
  field false "preprocess" (Printf.sprintf "%.9f" t.Driver.t_preprocess);
  field false "parse-sema" (Printf.sprintf "%.9f" t.Driver.t_parse_sema);
  field false "codegen" (Printf.sprintf "%.9f" t.Driver.t_codegen);
  field true "passes" (Printf.sprintf "%.9f" t.Driver.t_passes);
  Buffer.add_string buf "  },\n  \"counters\": {\n";
  let n = List.length counters in
  List.iteri
    (fun i (name, v) -> field (i = n - 1) name (string_of_int v))
    counters;
  Buffer.add_string buf "  }\n}\n";
  let path = "BENCH_stats.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf "  wrote %s (%d counters)\n%!" path n

(* --------------------------------------------------------------------- *)
(* Machine-readable cache metrics: BENCH_cache.json                      *)
(* --------------------------------------------------------------------- *)

(* A moderately compile-heavy synthetic unit, distinct per seed so the
   batch below really is N different translation units. *)
let batch_unit seed =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "void record(long x);\n";
  for fn = 0 to 11 do
    Buffer.add_string buf
      (Printf.sprintf "long u%d_work%d(int n) {\n  long acc = %d;\n" seed fn seed);
    for i = 0 to 5 do
      Buffer.add_string buf
        (Printf.sprintf
           "  for (int i%d = 0; i%d < n; i%d += 1) acc += i%d * %d + (acc >> 2);\n"
           i i i i (i + fn + seed))
    done;
    Buffer.add_string buf "  return acc;\n}\n"
  done;
  Buffer.add_string buf
    (Printf.sprintf "int main(void) { record(u%d_work0(3)); return 0; }\n" seed);
  Buffer.contents buf

(* Cold-vs-warm parallel batch over a shared content-addressed cache:
   the warm pass must be all hits and visibly cheaper.  Emitted as JSON
   so recorded runs can be compared by tooling (hand-rolled writer, as
   for BENCH_stats.json). *)
let emit_cache_json () =
  heading "BENCH_cache.json (cold vs warm parallel batch, shared compile cache)";
  let module Batch = Mc_core.Batch in
  let module Invocation = Mc_core.Invocation in
  let units = List.init 8 (fun i -> (Printf.sprintf "unit%d.c" i, batch_unit i)) in
  let invocation =
    { Invocation.default with Invocation.cache_enabled = true }
  in
  let jobs = min 4 (Batch.default_jobs ()) in
  let cache = Mc_core.Cache.create () in
  let cold = Batch.compile ~jobs ~cache ~invocation units in
  let warm = Batch.compile ~jobs ~cache ~invocation units in
  if not (Batch.all_ok cold && Batch.all_ok warm) then
    failwith "cache bench: batch compilation failed";
  let n = List.length units in
  let hit_rate = float_of_int (Batch.hits warm) /. float_of_int n in
  let stat snap name = Mc_support.Stats.find snap name in
  let buf = Buffer.create 512 in
  let field last name value =
    Buffer.add_string buf
      (Printf.sprintf "  %S: %s%s\n" name value (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  field false "schema" "\"mcc-bench-cache/1\"";
  field false "units" (string_of_int n);
  field false "jobs" (string_of_int warm.Batch.jobs);
  field false "cold_wall_seconds" (Printf.sprintf "%.9f" cold.Batch.wall);
  field false "warm_wall_seconds" (Printf.sprintf "%.9f" warm.Batch.wall);
  field false "warm_speedup"
    (Printf.sprintf "%.3f" (cold.Batch.wall /. warm.Batch.wall));
  field false "cold_misses" (string_of_int (stat cold.Batch.stats "cache.misses"));
  field false "cold_stores"
    (string_of_int (stat cold.Batch.stats "cache.optir-stores"));
  field false "warm_hits" (string_of_int (stat warm.Batch.stats "cache.hits"));
  field true "warm_hit_rate" (Printf.sprintf "%.3f" hit_rate);
  Buffer.add_string buf "}\n";
  let path = "BENCH_cache.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf
    "  %d units on %d domains: cold %.6fs -> warm %.6fs (%.1fx), hit rate %.0f%%\n"
    n warm.Batch.jobs cold.Batch.wall warm.Batch.wall
    (cold.Batch.wall /. warm.Batch.wall)
    (100.0 *. hit_rate);
  Printf.printf "  wrote %s\n%!" path

(* --------------------------------------------------------------------- *)
(* Incremental recompilation: BENCH_incremental.json                      *)
(* --------------------------------------------------------------------- *)

(* The editing-loop workload over the stage cache: cold build, warm
   same-source rebuild (every stage hit), comment-only edit (pp re-run,
   AST onward reused), and a body edit inside exactly one of the
   24 functions (every other function's fnast/fnir/fnoptir artifact is
   reused, only the edited one re-runs the front and back end).  Warm
   rebuilds are required to hit every stage and be at least 5x faster
   than cold, and a body edit must reuse all sibling slices — the
   harness fails loudly otherwise, so a regression can't ship a quietly
   cold "incremental" mode or a quietly unit-granular body edit. *)
let emit_incremental_json () =
  heading "BENCH_incremental.json (cold / warm / comment-edit / body-edit)";
  let module CInstance = Mc_core.Instance in
  let module Pipeline = Mc_core.Pipeline in
  let module Clock = Mc_support.Clock in
  (* A compile-heavy unit; [edit] lands only in inc_work7's body, so a
     body edit changes exactly one of the 26 top-level slices (record's
     prototype, 24 workers, main). *)
  let unit_with ~edit =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "void record(long x);\n";
    for fn = 0 to 23 do
      Buffer.add_string buf
        (Printf.sprintf "long inc_work%d(int n) {\n  long acc = %d;\n" fn
           (if fn = 7 then edit else fn));
      for i = 0 to 5 do
        Buffer.add_string buf
          (Printf.sprintf
             "  for (int i%d = 0; i%d < n + %d; i%d += 1) acc += i%d * %d + \
              (acc >> 2);\n"
             i i 10 i i (i + fn))
      done;
      Buffer.add_string buf "  return acc;\n}\n"
    done;
    Buffer.add_string buf "int main(void) { record(inc_work0(3)); return 0; }\n";
    Buffer.contents buf
  in
  let base = unit_with ~edit:7 in
  let inst =
    CInstance.create
      { Mc_core.Invocation.default with Mc_core.Invocation.cache_enabled = true }
  in
  let timed src =
    let started = Clock.now () in
    let c = CInstance.compile inst ~name:"incr.c" src in
    let wall = Clock.now () -. started in
    if Mc_diag.Diagnostics.has_errors c.CInstance.c_result.Driver.diag then
      failwith "incremental bench: compile failed";
    let stat name =
      try Mc_support.Stats.find c.CInstance.c_result.Driver.stats name
      with Not_found -> 0
    in
    (wall, Pipeline.render_trace c.CInstance.c_trace, stat)
  in
  (* Edits must be fresh each measurement (a repeated comment edit would
     itself become a full hit), so vary the edit text / constant and take
     the fastest of three to damp scheduler noise. *)
  let best f =
    let samples = List.init 3 f in
    List.fold_left
      (fun (bw, bt, bs) (w, t, s) ->
        if w < bw then (w, t, s) else (bw, bt, bs))
      (List.hd samples) (List.tl samples)
  in
  let cold_wall, cold_trace, _ = timed base in
  let warm_wall, warm_trace, _ = best (fun _ -> timed base) in
  let comment_wall, comment_trace, _ =
    best (fun i ->
        timed (Printf.sprintf "/* incremental edit nr. %d */\n%s" i base))
  in
  let body_wall, body_trace, body_stat =
    best (fun i -> timed (unit_with ~edit:(100 + i)))
  in
  let body_fn_hits = body_stat "cache.fn-hits" in
  let body_fn_misses = body_stat "cache.fn-misses" in
  (* Hard floor from the issue: warm same-source recompiles must hit every
     stage and be >= 5x faster than the cold build. *)
  if warm_trace <> "pp:hit ast:hit ir:hit optir:hit" then
    failwith ("incremental bench: warm rebuild not fully cached: " ^ warm_trace);
  if comment_trace <> "pp:run ast:hit ir:hit optir:hit" then
    failwith
      ("incremental bench: comment edit did not reuse AST onward: "
      ^ comment_trace);
  (* Hard floors for function granularity: a one-function body edit must
     re-run exactly that slice and reuse every sibling artifact. *)
  if body_trace <> "pp:run ast:partial ir:partial optir:partial" then
    failwith
      ("incremental bench: body edit was not function-granular: " ^ body_trace);
  if body_fn_misses <> 1 then
    failwith
      (Printf.sprintf
         "incremental bench: one-function edit re-parsed %d slices"
         body_fn_misses);
  let speedup = cold_wall /. warm_wall in
  if speedup < 5.0 then
    failwith
      (Printf.sprintf "incremental bench: warm speedup %.2fx < 5x" speedup);
  let body_speedup = cold_wall /. body_wall in
  let buf = Buffer.create 512 in
  let field last name value =
    Buffer.add_string buf
      (Printf.sprintf "  %S: %s%s\n" name value (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  field false "schema" "\"mcc-bench-incremental/2\"";
  field false "workload" "\"24-function synthetic unit\"";
  field false "cold_seconds" (Printf.sprintf "%.9f" cold_wall);
  field false "cold_trace" (Printf.sprintf "%S" cold_trace);
  field false "warm_seconds" (Printf.sprintf "%.9f" warm_wall);
  field false "warm_trace" (Printf.sprintf "%S" warm_trace);
  field false "warm_speedup" (Printf.sprintf "%.3f" speedup);
  field false "comment_edit_seconds" (Printf.sprintf "%.9f" comment_wall);
  field false "comment_edit_trace" (Printf.sprintf "%S" comment_trace);
  field false "body_edit_seconds" (Printf.sprintf "%.9f" body_wall);
  field false "body_edit_trace" (Printf.sprintf "%S" body_trace);
  field false "body_edit_fn_hits" (string_of_int body_fn_hits);
  field false "body_edit_fn_misses" (string_of_int body_fn_misses);
  field true "body_edit_speedup" (Printf.sprintf "%.3f" body_speedup);
  Buffer.add_string buf "}\n";
  let path = "BENCH_incremental.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf
    "  cold %.6fs -> warm %.6fs (%.1fx); comment edit %.6fs (%s); body edit \
     %.6fs (%.1fx, %d/%d slices reused)\n"
    cold_wall warm_wall speedup comment_wall comment_trace body_wall
    body_speedup body_fn_hits
    (body_fn_hits + body_fn_misses);
  Printf.printf "  wrote %s\n%!" path

(* --------------------------------------------------------------------- *)
(* Persistent warm start: BENCH_server.json                               *)
(* --------------------------------------------------------------------- *)

(* The PR-5 claim: artifacts outlive processes.  Three ways to compile
   the same unit "again": cold (fresh process state, nothing cached),
   disk-warm (fresh instance over a populated --cache-dir store), and
   daemon-warm (round-trip to an mccd whose in-memory cache is hot).
   Also exercises the containment contract end-to-end: a deliberate-ICE
   request must come back as a contained failure and leave the daemon
   serving full hits to the next client.  Hard floors fail the harness
   loudly, and the regression gate diffs the emitted ratios. *)
let emit_server_json () =
  heading "BENCH_server.json (cold vs disk-warm vs daemon-warm, mccd)";
  let module CInstance = Mc_core.Instance in
  let module Invocation = Mc_core.Invocation in
  let module Pipeline = Mc_core.Pipeline in
  let module Server = Mc_core.Server in
  let module Client = Mc_core.Client in
  let module Protocol = Mc_core.Protocol in
  let module Clock = Mc_support.Clock in
  let module Binio = Mc_support.Binio in
  (* Distinct per seed, so "cold through the daemon" can be sampled
     repeatedly without restarting the server between samples. *)
  let unit_seed seed =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "void record(long x);\n";
    for fn = 0 to 63 do
      Buffer.add_string buf
        (Printf.sprintf "long srv%d_work%d(int n) {\n  long acc = %d;\n" seed
           fn fn);
      for i = 0 to 7 do
        Buffer.add_string buf
          (Printf.sprintf
             "  for (int i%d = 0; i%d < n + %d; i%d += 1) acc += i%d * %d + \
              (acc >> 2);\n"
             i i (9 + seed) i i (i + fn))
      done;
      Buffer.add_string buf "  return acc;\n}\n"
    done;
    Buffer.add_string buf
      (Printf.sprintf "int main(void) { record(srv%d_work0(3)); return 0; }\n"
         seed);
    Buffer.contents buf
  in
  let source = unit_seed 0 in
  let invocation =
    { Invocation.default with Invocation.gen_reproducer = false }
  in
  let scratch =
    let seed = Filename.temp_file "mcc-bench-server" "" in
    Sys.remove seed;
    Binio.mkdir_p seed;
    seed
  in
  let store_dir = Filename.concat scratch "store" in
  let socket_path = Filename.concat scratch "mccd.sock" in
  let best f =
    let samples = List.init 3 f in
    List.fold_left min (List.hd samples) (List.tl samples)
  in
  let timed f =
    let started = Clock.now () in
    let v = f () in
    (Clock.now () -. started, v)
  in
  (* Cold: a fresh cache-less instance per sample — every stage runs. *)
  let cold_seconds =
    best (fun _ ->
        let inst = CInstance.create invocation in
        let w, c = timed (fun () -> CInstance.compile inst ~name:"srv.c" source) in
        if Mc_diag.Diagnostics.has_errors c.CInstance.c_result.Driver.diag then
          failwith "server bench: cold compile failed";
        w)
  in
  (* Disk-warm: populate the on-disk store once, then measure fresh
     instances that have only the store to go on. *)
  let populate =
    CInstance.create
      { invocation with Invocation.cache_dir = Some store_dir }
  in
  ignore (CInstance.compile populate ~name:"srv.c" source);
  let disk_warm_seconds, disk_warm_trace =
    let samples =
      List.init 3 (fun _ ->
          let inst =
            CInstance.create
              { invocation with Invocation.cache_dir = Some store_dir }
          in
          let w, c =
            timed (fun () -> CInstance.compile inst ~name:"srv.c" source)
          in
          (w, Pipeline.render_trace c.CInstance.c_trace))
    in
    List.fold_left
      (fun (bw, bt) (w, t) -> if w < bw then (w, t) else (bw, bt))
      (List.hd samples) (List.tl samples)
  in
  (* Daemon-warm: a live server on a spare domain, first request warms
     its in-memory cache, then we measure whole client round-trips. *)
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~stop
          {
            Server.socket_path;
            pool_size = 1;
            queue_capacity = 8;
            max_requests = None;
            idle_timeout = Some 60.0;
            request_timeout = None;
            cache_dir = None;
            max_cache_bytes = None;
            log = None;
          })
  in
  let rec await_socket tries =
    if Sys.file_exists socket_path then ()
    else if tries = 0 then failwith "server bench: daemon never listened"
    else begin
      Unix.sleepf 0.02;
      await_socket (tries - 1)
    end
  in
  await_socket 250;
  let roundtrip src =
    match Client.compile ~socket_path invocation [ ("srv.c", src) ] with
    | Ok { Client.response = Protocol.Resp_units { p_units = [ u ]; _ }; _ } ->
      u
    | Ok { Client.response = Protocol.Resp_rejected r; _ } ->
      failwith ("server bench: rejected: " ^ r)
    | Ok _ -> failwith "server bench: unexpected response shape"
    | Error e -> failwith ("server bench: " ^ e)
  in
  ignore (roundtrip source) (* warm both processes and the daemon cache *);
  (* Cold through the daemon: each sample is a never-seen unit, so the
     server really runs every stage; warm is the same transport with a
     hot cache — the speedup ratio is apples-to-apples. *)
  let daemon_cold_seconds =
    best (fun i ->
        let w, _ = timed (fun () -> roundtrip (unit_seed (1 + i))) in
        w)
  in
  let daemon_samples =
    List.init 5 (fun _ ->
        let w, u = timed (fun () -> roundtrip source) in
        (w, Pipeline.render_trace u.Protocol.r_trace))
  in
  let daemon_warm_seconds, daemon_warm_trace =
    List.fold_left
      (fun (bw, bt) (w, t) -> if w < bw then (w, t) else (bw, bt))
      (List.hd daemon_samples)
      (List.tl daemon_samples)
  in
  (* Containment: a deliberate ICE is a response, not a daemon death, and
     the very next client still gets a full hit. *)
  let ice_unit =
    roundtrip
      "int main(void){\n#pragma clang __debug crash\n  return 0;\n}\n"
  in
  let ice_contained =
    match ice_unit.Protocol.r_outcome with
    | Protocol.R_ice _ -> true
    | Protocol.R_ok _ -> false
  in
  let post_ice = roundtrip source in
  let post_ice_full_hit = post_ice.Protocol.r_cache_hit in
  Atomic.set stop true;
  (match Domain.join server with
  | Ok _ -> ()
  | Error e -> failwith ("server bench: server failed: " ^ e));
  let disk_warm_speedup = cold_seconds /. disk_warm_seconds in
  let daemon_warm_speedup = daemon_cold_seconds /. daemon_warm_seconds in
  (* Hard floors from the issue: containment must hold, warm paths must
     hit every stage, and daemon-warm must be >= 5x faster than cold. *)
  if not ice_contained then
    failwith "server bench: deliberate ICE was not contained";
  if not post_ice_full_hit then
    failwith "server bench: daemon not serving full hits after an ICE";
  if disk_warm_trace <> "pp:run ast:hit ir:hit optir:hit"
     && disk_warm_trace <> "pp:hit ast:hit ir:hit optir:hit" then
    failwith ("server bench: disk-warm pass not store-backed: " ^ disk_warm_trace);
  if daemon_warm_trace <> "pp:hit ast:hit ir:hit optir:hit" then
    failwith ("server bench: daemon-warm pass not fully cached: " ^ daemon_warm_trace);
  if daemon_warm_speedup < 5.0 then
    failwith
      (Printf.sprintf "server bench: daemon-warm speedup %.2fx < 5x"
         daemon_warm_speedup);
  let buf = Buffer.create 512 in
  let field last name value =
    Buffer.add_string buf
      (Printf.sprintf "  %S: %s%s\n" name value (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  field false "schema" "\"mcc-bench-server/1\"";
  field false "workload" "\"64-function synthetic unit\"";
  field false "cold_seconds" (Printf.sprintf "%.9f" cold_seconds);
  field false "disk_warm_seconds" (Printf.sprintf "%.9f" disk_warm_seconds);
  field false "disk_warm_speedup" (Printf.sprintf "%.3f" disk_warm_speedup);
  field false "disk_warm_trace" (Printf.sprintf "%S" disk_warm_trace);
  field false "daemon_cold_seconds" (Printf.sprintf "%.9f" daemon_cold_seconds);
  field false "daemon_warm_seconds" (Printf.sprintf "%.9f" daemon_warm_seconds);
  field false "daemon_warm_speedup" (Printf.sprintf "%.3f" daemon_warm_speedup);
  field false "daemon_warm_trace" (Printf.sprintf "%S" daemon_warm_trace);
  field false "ice_contained" (if ice_contained then "true" else "false");
  field true "post_ice_full_hit" (if post_ice_full_hit then "true" else "false");
  Buffer.add_string buf "}\n";
  let path = "BENCH_server.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf
    "  cold %.6fs; disk-warm %.6fs (%.1fx); daemon cold %.6fs -> warm %.6fs \
     (%.1fx)\n"
    cold_seconds disk_warm_seconds disk_warm_speedup daemon_cold_seconds
    daemon_warm_seconds daemon_warm_speedup;
  Printf.printf "  ICE contained: %b; daemon full-hit after ICE: %b\n"
    ice_contained post_ice_full_hit;
  Printf.printf "  wrote %s\n%!" path

(* --------------------------------------------------------------------- *)
(* Scripted transformations: BENCH_transfo.json                           *)
(* --------------------------------------------------------------------- *)

(* The PR-7 claim: a transfo script is a drop-in replacement for editing
   pragmas into the source.  Hard floors: scripted IR must be
   byte-identical to the hand-pragma'd program under both lowerings, and
   the transfo pre-stage must serve a warm repeat from its cache —
   locally and through an mccd Req_transform round-trip. *)
let emit_transfo_json () =
  heading "BENCH_transfo.json (scripted vs pragma'd, transform cold/warm, mccd)";
  let module Pipeline = Mc_core.Pipeline in
  let module Invocation = Mc_core.Invocation in
  let module Server = Mc_core.Server in
  let module Client = Mc_core.Client in
  let module Protocol = Mc_core.Protocol in
  let module Cache = Mc_core.Cache in
  let module Clock = Mc_support.Clock in
  let module Binio = Mc_support.Binio in
  (* examples/matmul.c, inlined so the harness is cwd-independent. *)
  let plain =
    "void record(long x);\n\n\
     void matmat(long *C, long *A, long *B) {\n\
    \  for (int i = 0; i < 8; i += 1)\n\
    \    for (int j = 0; j < 8; j += 1) {\n\
    \      C[i * 8 + j] = 0;\n\
    \      for (int k = 0; k < 8; k += 1)\n\
    \        C[i * 8 + j] = C[i * 8 + j] + A[i * 8 + k] * B[k * 8 + j];\n\
    \    }\n\
     }\n\n\
     int main(void) {\n\
    \  long A[64], B[64], C[64];\n\
    \  for (int v = 0; v < 64; v += 1) {\n\
    \    A[v] = v % 7;\n\
    \    B[v] = v % 5 - 2;\n\
    \  }\n\
    \  matmat(C, A, B);\n\
    \  long s = 0;\n\
    \  for (int w = 0; w < 64; w += 1) s += C[w];\n\
    \  record(s);\n\
    \  return 0;\n\
     }\n"
  in
  let pragma'd =
    "void record(long x);\n\n\
     void matmat(long *C, long *A, long *B) {\n\
    \  #pragma omp tile sizes(4,4)\n\
    \  for (int i = 0; i < 8; i += 1)\n\
    \    for (int j = 0; j < 8; j += 1) {\n\
    \      C[i * 8 + j] = 0;\n\
    \      #pragma omp unroll partial(2)\n\
    \      for (int k = 0; k < 8; k += 1)\n\
    \        C[i * 8 + j] = C[i * 8 + j] + A[i * 8 + k] * B[k * 8 + j];\n\
    \    }\n\
     }\n\n\
     int main(void) {\n\
    \  long A[64], B[64], C[64];\n\
    \  #pragma omp fission\n\
    \  for (int v = 0; v < 64; v += 1) {\n\
    \    A[v] = v % 7;\n\
    \    B[v] = v % 5 - 2;\n\
    \  }\n\
    \  matmat(C, A, B);\n\
    \  long s = 0;\n\
    \  for (int w = 0; w < 64; w += 1) s += C[w];\n\
    \  record(s);\n\
    \  return 0;\n\
     }\n"
  in
  let script =
    "tile sizes(4,4) @ fun(matmat) for(i)\n\
     unroll partial(2) @ fun(matmat) for(k)\n\
     fission @ fun(main) for(v)\n"
  in
  let ir_of options src =
    let r = Driver.compile ~options src in
    if Mc_diag.Diagnostics.has_errors r.Driver.diag then
      failwith
        ("transfo bench: compile failed:\n"
        ^ Mc_diag.Diagnostics.render_all r.Driver.diag);
    match r.Driver.ir with
    | Some m -> Mc_ir.Printer.module_to_string m
    | None -> failwith "transfo bench: no IR"
  in
  let ir_identical =
    List.for_all
      (fun options ->
        ir_of { options with Driver.transfo_script = Some script } plain
        = ir_of options pragma'd)
      [ classic; irbuilder ]
  in
  if not ir_identical then
    failwith "transfo bench: scripted IR diverges from pragma'd IR";
  let timed f =
    let started = Clock.now () in
    let v = f () in
    (Clock.now () -. started, v)
  in
  let best f =
    let samples = List.init 3 f in
    List.fold_left min (List.hd samples) (List.tl samples)
  in
  (* Checked transform (script + differential interpreter run) through
     the transfo pre-stage, cold then cache-warm. *)
  let cache = Cache.create () in
  let transform () =
    match Pipeline.transform ~cache ~name:"matmul.c" ~script plain with
    | Ok (outcome, _, _) -> outcome = Pipeline.Cache_hit
    | Error e -> failwith ("transfo bench: " ^ e)
  in
  let cold_seconds, cold_hit = timed transform in
  if cold_hit then failwith "transfo bench: cold transform claimed a hit";
  let warm_seconds =
    best (fun _ ->
        let w, hit = timed transform in
        if not hit then failwith "transfo bench: warm transform missed";
        w)
  in
  (* The same transform as an mccd Req_transform round-trip. *)
  let scratch =
    let seed = Filename.temp_file "mcc-bench-transfo" "" in
    Sys.remove seed;
    Binio.mkdir_p seed;
    seed
  in
  let socket_path = Filename.concat scratch "mccd.sock" in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~stop
          {
            Server.socket_path;
            pool_size = 1;
            queue_capacity = 8;
            max_requests = None;
            idle_timeout = Some 60.0;
            request_timeout = None;
            cache_dir = None;
            max_cache_bytes = None;
            log = None;
          })
  in
  let rec await_socket tries =
    if Sys.file_exists socket_path then ()
    else if tries = 0 then failwith "transfo bench: daemon never listened"
    else begin
      Unix.sleepf 0.02;
      await_socket (tries - 1)
    end
  in
  await_socket 250;
  let invocation =
    {
      Invocation.default with
      Invocation.gen_reproducer = false;
      transfo_script =
        Some (Invocation.Source { name = "matmul.transfo"; contents = script });
    }
  in
  let roundtrip () =
    match Client.transform ~socket_path invocation ~name:"matmul.c" plain with
    | Ok { Client.response = Protocol.Resp_transformed { p_result = Ok t; _ }; _ }
      ->
      t
    | Ok
        {
          Client.response = Protocol.Resp_transformed { p_result = Error e; _ };
          _;
        } ->
      failwith ("transfo bench: script failed on daemon: " ^ e)
    | Ok { Client.response = Protocol.Resp_rejected r; _ } ->
      failwith ("transfo bench: rejected: " ^ r)
    | Ok _ -> failwith "transfo bench: unexpected response shape"
    | Error e -> failwith ("transfo bench: " ^ e)
  in
  let daemon_cold_seconds, first = timed roundtrip in
  if first.Protocol.x_cache_hit then
    failwith "transfo bench: daemon cold transform claimed a hit";
  let daemon_warm_seconds =
    best (fun _ ->
        let w, t = timed roundtrip in
        if not t.Protocol.x_cache_hit then
          failwith "transfo bench: daemon warm transform missed";
        if t.Protocol.x_source <> first.Protocol.x_source then
          failwith "transfo bench: daemon warm output drifted";
        w)
  in
  Atomic.set stop true;
  (match Domain.join server with
  | Ok _ -> ()
  | Error e -> failwith ("transfo bench: server failed: " ^ e));
  let warm_speedup = cold_seconds /. warm_seconds in
  let daemon_warm_speedup = daemon_cold_seconds /. daemon_warm_seconds in
  let buf = Buffer.create 512 in
  let field last name value =
    Buffer.add_string buf
      (Printf.sprintf "  %S: %s%s\n" name value (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  field false "schema" "\"mcc-bench-transfo/1\"";
  field false "workload" "\"examples/matmul.c + 3-step script\"";
  field false "ir_identical" (if ir_identical then "true" else "false");
  field false "cold_seconds" (Printf.sprintf "%.9f" cold_seconds);
  field false "warm_seconds" (Printf.sprintf "%.9f" warm_seconds);
  field false "warm_speedup" (Printf.sprintf "%.3f" warm_speedup);
  field false "daemon_cold_seconds" (Printf.sprintf "%.9f" daemon_cold_seconds);
  field false "daemon_warm_seconds" (Printf.sprintf "%.9f" daemon_warm_seconds);
  field true "daemon_warm_speedup" (Printf.sprintf "%.3f" daemon_warm_speedup);
  Buffer.add_string buf "}\n";
  let path = "BENCH_transfo.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf
    "  scripted IR == pragma'd IR (classic + irbuilder): %b\n" ir_identical;
  Printf.printf
    "  transform cold %.6fs -> warm %.6fs (%.1fx); daemon cold %.6fs -> warm \
     %.6fs (%.1fx)\n"
    cold_seconds warm_seconds warm_speedup daemon_cold_seconds
    daemon_warm_seconds daemon_warm_speedup;
  Printf.printf "  wrote %s\n%!" path

(* --------------------------------------------------------------------- *)
(* Dataflow analysis: BENCH_analyze.json                                  *)
(* --------------------------------------------------------------------- *)

(* The analysis-subsystem claim (X6): `--analyze` rides the same
   function-granular cache as compilation.  Cold analysis of a
   24-function unit, a warm same-source repeat (report served from
   cache, byte-identical), a one-function body edit (exactly one
   function re-analysed, 24 sibling fragments adopted), and the p50 of
   warm Req_analyze round-trips through a live mccd.  Hard floors fail
   the harness loudly; the regression gate diffs the emitted numbers. *)
let emit_analyze_json () =
  heading "BENCH_analyze.json (cold / warm / body-edit analysis, mccd p50)";
  let module CInstance = Mc_core.Instance in
  let module Invocation = Mc_core.Invocation in
  let module Server = Mc_core.Server in
  let module Client = Mc_core.Client in
  let module Protocol = Mc_core.Protocol in
  let module Clock = Mc_support.Clock in
  let module Binio = Mc_support.Binio in
  (* Same shape as the incremental workload; [edit] lands only in
     ana_work7's body and stays a single digit so every sibling's source
     span (and so its rendered finding locations) is unmoved. *)
  let unit_with ~edit =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "void record(long x);\n";
    for fn = 0 to 23 do
      Buffer.add_string buf
        (Printf.sprintf "long ana_work%d(int n) {\n  long acc = %d;\n" fn
           (if fn = 7 then edit else fn mod 10));
      for i = 0 to 5 do
        Buffer.add_string buf
          (Printf.sprintf
             "  for (int i%d = 0; i%d < n + %d; i%d += 1) acc += i%d * %d + \
              (acc >> 2);\n"
             i i 10 i i (i + fn))
      done;
      Buffer.add_string buf "  return acc;\n}\n"
    done;
    Buffer.add_string buf "int main(void) { record(ana_work0(3)); return 0; }\n";
    Buffer.contents buf
  in
  let base = unit_with ~edit:3 in
  let invocation =
    {
      Invocation.default with
      Invocation.cache_enabled = true;
      gen_reproducer = false;
      analyze = Some [];
    }
  in
  let inst = CInstance.create invocation in
  let timed src =
    let started = Clock.now () in
    let c = CInstance.compile inst ~name:"ana.c" src in
    let wall = Clock.now () -. started in
    if Mc_diag.Diagnostics.has_errors c.CInstance.c_result.Driver.diag then
      failwith "analyze bench: compile failed";
    let report =
      match c.CInstance.c_result.Driver.analysis with
      | Some r -> r
      | None -> failwith "analyze bench: no analysis report"
    in
    let stat name =
      try Mc_support.Stats.find c.CInstance.c_result.Driver.stats name
      with Not_found -> 0
    in
    (wall, report, stat)
  in
  let best f =
    let samples = List.init 3 f in
    List.fold_left
      (fun (bw, br, bs) (w, r, s) ->
        if w < bw then (w, r, s) else (bw, br, bs))
      (List.hd samples) (List.tl samples)
  in
  let cold_wall, cold_report, _ = timed base in
  let warm_wall, warm_report, _ = best (fun _ -> timed base) in
  (* Fresh single-digit edit per sample, so each measurement really
     re-analyses the edited function. *)
  let body_wall, body_report, body_stat =
    best (fun i -> timed (unit_with ~edit:(4 + i)))
  in
  let findings = Mc_analysis.Report.finding_count cold_report in
  let body_fn_hits = body_stat "analysis.fn-hits" in
  let body_fn_misses = body_stat "analysis.fn-misses" in
  (* Hard floors: the clean workload stays finding-free, a warm repeat
     serves the byte-identical report, and a one-function edit
     re-analyses exactly that function. *)
  if findings <> 0 then
    failwith
      (Printf.sprintf "analyze bench: clean workload drew %d finding(s)"
         findings);
  if
    Mc_analysis.Report.render_text warm_report
    <> Mc_analysis.Report.render_text cold_report
  then failwith "analyze bench: warm report drifted from cold";
  if body_fn_misses <> 1 then
    failwith
      (Printf.sprintf "analyze bench: one-function edit re-analysed %d slices"
         body_fn_misses);
  if body_fn_hits <> 24 then
    failwith
      (Printf.sprintf
         "analyze bench: body edit adopted %d cached fragments, wanted 24"
         body_fn_hits);
  ignore body_report;
  (* Req_analyze round-trips through a live daemon: one cold request,
     then the p50 of warm repeats against its in-memory cache. *)
  let scratch =
    let seed = Filename.temp_file "mcc-bench-analyze" "" in
    Sys.remove seed;
    Binio.mkdir_p seed;
    seed
  in
  let socket_path = Filename.concat scratch "mccd.sock" in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~stop
          {
            Server.socket_path;
            pool_size = 1;
            queue_capacity = 8;
            max_requests = None;
            idle_timeout = Some 60.0;
            request_timeout = None;
            cache_dir = None;
            max_cache_bytes = None;
            log = None;
          })
  in
  let rec await_socket tries =
    if Sys.file_exists socket_path then ()
    else if tries = 0 then failwith "analyze bench: daemon never listened"
    else begin
      Unix.sleepf 0.02;
      await_socket (tries - 1)
    end
  in
  await_socket 250;
  let timed_f f =
    let started = Clock.now () in
    let v = f () in
    (Clock.now () -. started, v)
  in
  let roundtrip () =
    match Client.analyze ~socket_path invocation ~name:"ana.c" base with
    | Ok { Client.response = Protocol.Resp_analysis { p_result = Ok a; _ }; _ }
      ->
      a
    | Ok
        { Client.response = Protocol.Resp_analysis { p_result = Error e; _ }; _ }
      ->
      failwith ("analyze bench: daemon analysis failed: " ^ e)
    | Ok { Client.response = Protocol.Resp_rejected r; _ } ->
      failwith ("analyze bench: rejected: " ^ r)
    | Ok _ -> failwith "analyze bench: unexpected response shape"
    | Error e -> failwith ("analyze bench: " ^ e)
  in
  let daemon_cold_seconds, first = timed_f roundtrip in
  let daemon_samples =
    List.init 9 (fun _ ->
        let w, a = timed_f roundtrip in
        if not a.Protocol.an_cache_hit then
          failwith "analyze bench: warm daemon analysis missed the cache";
        if a.Protocol.an_text <> first.Protocol.an_text then
          failwith "analyze bench: daemon warm report drifted";
        w)
  in
  let daemon_p50_seconds =
    List.nth (List.sort compare daemon_samples) (List.length daemon_samples / 2)
  in
  Atomic.set stop true;
  (match Domain.join server with
  | Ok _ -> ()
  | Error e -> failwith ("analyze bench: server failed: " ^ e));
  if first.Protocol.an_findings <> 0 then
    failwith "analyze bench: daemon drew findings on the clean workload";
  let warm_speedup = cold_wall /. warm_wall in
  let body_speedup = cold_wall /. body_wall in
  let buf = Buffer.create 512 in
  let field last name value =
    Buffer.add_string buf
      (Printf.sprintf "  %S: %s%s\n" name value (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  field false "schema" "\"mcc-bench-analyze/1\"";
  field false "workload" "\"24-function synthetic unit\"";
  field false "findings" (string_of_int findings);
  field false "cold_seconds" (Printf.sprintf "%.9f" cold_wall);
  field false "warm_seconds" (Printf.sprintf "%.9f" warm_wall);
  field false "warm_speedup" (Printf.sprintf "%.3f" warm_speedup);
  field false "body_edit_seconds" (Printf.sprintf "%.9f" body_wall);
  field false "body_edit_speedup" (Printf.sprintf "%.3f" body_speedup);
  field false "body_edit_fn_hits" (string_of_int body_fn_hits);
  field false "body_edit_fn_misses" (string_of_int body_fn_misses);
  field false "daemon_cold_seconds" (Printf.sprintf "%.9f" daemon_cold_seconds);
  field true "daemon_p50_seconds" (Printf.sprintf "%.9f" daemon_p50_seconds);
  Buffer.add_string buf "}\n";
  let path = "BENCH_analyze.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf
    "  cold %.6fs -> warm %.6fs (%.1fx); body edit %.6fs (%d/%d fragments \
     reused); daemon cold %.6fs, warm p50 %.6fs\n"
    cold_wall warm_wall warm_speedup body_wall body_fn_hits
    (body_fn_hits + body_fn_misses) daemon_cold_seconds daemon_p50_seconds;
  Printf.printf "  wrote %s\n%!" path

let run_benchmarks () =
  heading "Timing benchmarks (bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  Printf.printf "  %-38s %14s %10s\n" "benchmark" "time/run" "r^2";
  Printf.printf "  %s\n" (String.make 66 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let time_ns =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | _ -> nan
          in
          let r2 = Option.value (Analyze.OLS.r_square ols_result) ~default:nan in
          let pretty =
            if time_ns > 1e6 then Printf.sprintf "%10.3f ms" (time_ns /. 1e6)
            else if time_ns > 1e3 then Printf.sprintf "%10.3f us" (time_ns /. 1e3)
            else Printf.sprintf "%10.1f ns" time_ns
          in
          Printf.printf "  %-38s %14s %10.4f\n%!" name pretty r2)
        analysis)
    tests

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
  emit_stats_json ();
  emit_cache_json ();
  emit_incremental_json ();
  emit_server_json ();
  emit_transfo_json ();
  emit_analyze_json ();
  run_benchmarks ()
