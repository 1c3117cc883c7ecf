(* Stage-cache suite: content addressing over the preprocessed stream,
   per-stage hit/miss behaviour under option and define changes, counter
   surfacing, and isolation of the artifact copies a hit hands out. *)

open Helpers
module Driver = Mc_core.Driver
module Pipeline = Mc_core.Pipeline
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Batch = Mc_core.Batch
module Cache = Mc_core.Cache
module Stats = Mc_support.Stats

let source =
  "void record(long x);\nint main(void) {\nlong s = 0;\n\
   #pragma omp unroll partial(N)\n\
   for (int i = 0; i < 40; i += 1) s += i;\nrecord(s);\nreturn 0; }"

let cached_invocation =
  { Invocation.default with Invocation.cache_enabled = true;
    defines = [ ("N", "2") ] }

let compile inst src =
  let c = Instance.compile inst src in
  if Mc_diag.Diagnostics.has_errors c.Instance.c_result.Driver.diag then
    Alcotest.failf "compile failed:\n%s"
      (Mc_diag.Diagnostics.render_all c.Instance.c_result.Driver.diag);
  c

let check_trace what expected (c : Instance.compilation) =
  Alcotest.(check string) what expected (Pipeline.render_trace c.Instance.c_trace)

let ir_text (c : Instance.compilation) =
  Mc_ir.Printer.module_to_string (Option.get c.Instance.c_result.Driver.ir)

let test_second_compile_hits () =
  let cache = Cache.create () in
  let inst = Instance.create ~cache cached_invocation in
  let first = compile inst source in
  Alcotest.(check bool) "first is a miss" false first.Instance.c_cache_hit;
  check_trace "cold runs every stage"
    "pp:run ast:run ir:run optir:run" first;
  (* One artifact per unit-granular stage (the transfo pre-stage only
     stores when a script runs; test_transfo covers that), plus the
     per-function family: one fnast per top-level slice (the record
     prototype and main), and fnir/fnoptir for the one slice that
     produces declarations. *)
  let compile_stages = [ "pp"; "ast"; "optir" ] in
  Alcotest.(check int) "seven artifacts stored" 7 (Cache.length cache);
  List.iter
    (fun stage ->
      Alcotest.(check int) (stage ^ " stored") 1
        (Cache.stage_length cache ~stage))
    compile_stages;
  Alcotest.(check int) "one fnast per slice" 2
    (Cache.stage_length cache ~stage:"fnast");
  Alcotest.(check int) "fnir for the defining slice" 1
    (Cache.stage_length cache ~stage:"fnir");
  Alcotest.(check int) "fnoptir for the defining slice" 1
    (Cache.stage_length cache ~stage:"fnoptir");
  let second = compile inst source in
  Alcotest.(check bool) "second is a hit" true second.Instance.c_cache_hit;
  check_trace "warm hits every stage"
    "pp:hit ast:hit ir:hit optir:hit" second;
  (* The cached result is behaviourally identical: byte-identical IR and
     the same execution trace as the cold compilation. *)
  Alcotest.(check string) "byte-identical IR" (ir_text first) (ir_text second);
  let trace r =
    match Instance.run inst r with
    | Ok o -> trace_to_string o.Mc_interp.Interp.trace
    | Error e -> Alcotest.failf "run failed: %s" e
  in
  Alcotest.(check string) "same trace"
    (trace first.Instance.c_result)
    (trace second.Instance.c_result);
  (* Aggregate and per-stage counters surface in the per-compile
     snapshots and the instance registry. *)
  let snap = Instance.stats inst in
  Alcotest.(check int) "cache.hits" 1 (Stats.find snap "cache.hits");
  Alcotest.(check int) "cache.misses" 1 (Stats.find snap "cache.misses");
  let warm = second.Instance.c_result.Driver.stats in
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (Printf.sprintf "warm cache.%s-hits" stage)
        1
        (Stats.find warm (Printf.sprintf "cache.%s-hits" stage)))
    compile_stages

let test_define_change_misses () =
  let cache = Cache.create () in
  let run_with defines =
    let inv = { cached_invocation with Invocation.defines } in
    let inst = Instance.create ~cache inv in
    compile inst source
  in
  Alcotest.(check bool) "cold" false
    (run_with [ ("N", "2") ]).Instance.c_cache_hit;
  Alcotest.(check bool) "same -D hits" true
    (run_with [ ("N", "2") ]).Instance.c_cache_hit;
  (* A -D change that alters expansion is a different translation unit
     from the preprocessor onward — but the record prototype's fnast
     slice is still reused (the N only expands inside main's body), so
     the AST stage is a partial re-run rather than a full one. *)
  check_trace "changed -D re-runs pp and the edited slice"
    "pp:run ast:partial ir:run optir:run"
    (run_with [ ("N", "4") ]);
  Alcotest.(check int) "two pp artifacts" 2
    (Cache.stage_length cache ~stage:"pp");
  Alcotest.(check int) "one shared fnast + one per N value for main" 3
    (Cache.stage_length cache ~stage:"fnast");
  Alcotest.(check int) "thirteen artifacts total" 13 (Cache.length cache)

let test_option_change_misses () =
  let cache = Cache.create () in
  let with_inv inv =
    let inst = Instance.create ~cache inv in
    compile inst source
  in
  Alcotest.(check bool) "cold" false
    (with_inv cached_invocation).Instance.c_cache_hit;
  (* -fopenmp-enable-irbuilder is in the sema slice: pp still hits, the
     AST stage and everything downstream misses. *)
  check_trace "irbuilder invalidates from ast on"
    "pp:hit ast:run ir:run optir:run"
    (with_inv { cached_invocation with Invocation.use_irbuilder = true });
  (* -O only reaches the pass pipeline: everything up to the IR hits. *)
  check_trace "-O0 invalidates only optir"
    "pp:hit ast:hit ir:hit optir:run"
    (with_inv { cached_invocation with Invocation.opt_level = 0 });
  Alcotest.(check bool) "original still hits" true
    (with_inv cached_invocation).Instance.c_cache_hit

let test_comment_change_still_hits () =
  (* Content addressing is post-preprocessing: edits the preprocessor
     erases (comments, whitespace) re-run pp but keep the AST
     stage's content address — and everything downstream. *)
  let cache = Cache.create () in
  let inst = Instance.create ~cache cached_invocation in
  ignore (compile inst source);
  let commented = "/* a comment the lexer drops */\n" ^ source ^ "\n\n" in
  let c = compile inst commented in
  Alcotest.(check bool) "comment-only change hits" true c.Instance.c_cache_hit;
  check_trace "comment edit reuses ast/ir/optir"
    "pp:run ast:hit ir:hit optir:hit" c

let test_hits_are_isolated_copies () =
  let cache = Cache.create () in
  let inst = Instance.create ~cache cached_invocation in
  let first = compile inst source in
  let a = compile inst source in
  let b = compile inst source in
  let ir r = Option.get r.Instance.c_result.Driver.ir in
  Alcotest.(check bool) "distinct modules" true (ir a != ir b);
  (* Mutating one hit's copy must not corrupt the next hit. *)
  let m = ir a in
  m.Mc_ir.Ir.m_funcs <- [];
  let c = compile inst source in
  Alcotest.(check string) "later hit unaffected"
    (Mc_ir.Printer.module_to_string (ir first))
    (Mc_ir.Printer.module_to_string (ir c))

(* The two IR forms over one cache: [`Marshalled] gives no module and
   bytes that decode to the cold IR, on a miss and on a hit (where they
   are the stored optir body); [`Module] gives a module and no bytes. *)
let test_ir_forms () =
  let cache = Cache.create () in
  let options = Invocation.to_driver_options cached_invocation in
  let execute ir = Pipeline.execute ~cache ~options ~name:"a.c" ~ir source in
  let cold_text =
    Mc_ir.Printer.module_to_string
      (Option.get (Driver.compile ~options ~name:"a.c" source).Driver.ir)
  in
  let decoded (x : Pipeline.exec) =
    let r = x.Pipeline.x_result in
    Alcotest.(check bool) "no module in marshalled form" true (r.Driver.ir = None);
    match r.Driver.ir_payload with
    | None -> Alcotest.fail "marshalled form carried no payload"
    | Some bytes ->
      ( bytes,
        Mc_ir.Printer.module_to_string (Marshal.from_string bytes 0 : Mc_ir.Ir.modul) )
  in
  let miss = execute `Marshalled in
  Alcotest.(check bool) "first is a miss" false miss.Pipeline.x_full_hit;
  let miss_bytes, miss_text = decoded miss in
  Alcotest.(check string) "miss payload decodes to the cold IR" cold_text miss_text;
  let hit = execute `Marshalled in
  Alcotest.(check bool) "second is a full hit" true hit.Pipeline.x_full_hit;
  let hit_bytes, hit_text = decoded hit in
  Alcotest.(check string) "hit payload decodes to the cold IR" cold_text hit_text;
  Alcotest.(check string) "the hit forwards the bytes the miss stored"
    miss_bytes hit_bytes;
  let m = execute `Module in
  Alcotest.(check bool) "module form is a full hit too" true m.Pipeline.x_full_hit;
  Alcotest.(check bool) "module form carries no payload" true
    (m.Pipeline.x_result.Driver.ir_payload = None);
  Alcotest.(check string) "module form decodes the same IR" cold_text
    (Mc_ir.Printer.module_to_string (Option.get m.Pipeline.x_result.Driver.ir));
  let uncached = Pipeline.execute ~options ~name:"a.c" source in
  Alcotest.(check bool) "an uncached module compile carries no payload" true
    (uncached.Pipeline.x_result.Driver.ir_payload = None)

let test_warnings_prevent_caching () =
  (* Stage artifacts are only stored while the compilation is still
     diagnostic-free: a hit replays no warnings, so a warned stage (and
     everything after it) must re-run on recompilation. *)
  (* [cached_invocation] predefines N on the command line, so the
     in-source #define reliably triggers "'N' macro redefined". *)
  let warning_source =
    "#define N 3\nvoid record(long x);\nint main(void) {\n\
     for (int i = 0; i < N; i += 1) record(i);\nreturn 0; }"
  in
  let cache = Cache.create () in
  let inst = Instance.create ~cache cached_invocation in
  let first = Instance.compile inst warning_source in
  let warned =
    Mc_diag.Diagnostics.warning_count first.Instance.c_result.Driver.diag > 0
  in
  (* Only meaningful if this source indeed warns; guard so the test fails
     loudly if the diagnostic disappears. *)
  Alcotest.(check bool) "source produces a warning" true warned;
  (* The warning fires in the preprocessor, so nothing from pp onward
     may be stored. *)
  List.iter
    (fun stage ->
      Alcotest.(check int) (stage ^ " not stored") 0
        (Cache.stage_length cache ~stage))
    [ "pp"; "ast"; "fnir"; "optir" ];
  let second = Instance.compile inst warning_source in
  Alcotest.(check bool) "recompile, with warnings again" false
    second.Instance.c_cache_hit;
  Alcotest.(check bool) "warning replayed" true
    (Mc_diag.Diagnostics.warning_count second.Instance.c_result.Driver.diag > 0)

let test_batch_cache_hit_rate () =
  (* Recompiling the same batch with a shared cache: every unit hits. *)
  let inputs =
    List.init 6 (fun i ->
        ( Printf.sprintf "u%d.c" i,
          Printf.sprintf
            "void record(long x);\nint main(void) { long s = 0;\n\
             for (int i = 0; i < %d; i += 1) s += i;\nrecord(s);\nreturn 0; }"
            (10 + i) ))
  in
  let cache = Cache.create () in
  let invocation = { Invocation.default with Invocation.cache_enabled = true } in
  let cold = Batch.compile ~jobs:3 ~cache ~invocation inputs in
  Alcotest.(check int) "cold: no hits" 0 (Batch.hits cold);
  let warm = Batch.compile ~jobs:3 ~cache ~invocation inputs in
  Alcotest.(check int) "warm: all hits" (List.length inputs) (Batch.hits warm);
  Alcotest.(check bool) "warm all ok" true (Batch.all_ok warm);
  (* The merged batch stats surface the hit counters. *)
  Alcotest.(check int) "merged cache.hits" (List.length inputs)
    (Stats.find warm.Batch.stats "cache.hits");
  (* Warm results still execute correctly. *)
  List.iter
    (fun u ->
      match u.Batch.u_result with
      | Ok r -> (
        match Driver.run r with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" u.Batch.u_name e)
      | Error f ->
        Alcotest.failf "%s: %s" u.Batch.u_name
          f.Instance.f_ice.Mc_support.Crash_recovery.ice_exn)
    warm.Batch.units

let suite =
  [
    tc "second compile is a hit" test_second_compile_hits;
    tc "-D change is a miss" test_define_change_misses;
    tc "backend option change is a miss" test_option_change_misses;
    tc "comment-only change still hits" test_comment_change_still_hits;
    tc "hits hand out isolated IR copies" test_hits_are_isolated_copies;
    tc "diagnosed units are not cached" test_warnings_prevent_caching;
    tc "warm batch hits 100%" test_batch_cache_hit_rate;
    tc "IR forms: module or marshalled bytes" test_ir_forms;
  ]
