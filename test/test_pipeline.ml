(* Stage-graph pipeline suite: per-stage fingerprint slices, incremental
   recompilation traces and counters, include-set invalidation, and the
   cold/warm and 1-domain/N-domain determinism guarantees. *)

open Helpers
module Driver = Mc_core.Driver
module Pipeline = Mc_core.Pipeline
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Batch = Mc_core.Batch
module Cache = Mc_core.Cache
module Stats = Mc_support.Stats

let source_with_bound n =
  Printf.sprintf
    "void record(long x);\nint main(void) {\nlong s = 0;\n\
     #pragma omp unroll partial(4)\n\
     for (int i = 0; i < %d; i += 1) s += i;\nrecord(s);\nreturn 0; }"
    n

let source = source_with_bound 40

let compile inst ?name src =
  let c = Instance.compile inst ?name src in
  if Mc_diag.Diagnostics.has_errors c.Instance.c_result.Driver.diag then
    Alcotest.failf "compile failed:\n%s"
      (Mc_diag.Diagnostics.render_all c.Instance.c_result.Driver.diag);
  c

let trace_of (c : Instance.compilation) =
  Pipeline.render_trace c.Instance.c_trace

let counter (c : Instance.compilation) name =
  Stats.find c.Instance.c_result.Driver.stats name

let ir_text (c : Instance.compilation) =
  Mc_ir.Printer.module_to_string (Option.get c.Instance.c_result.Driver.ir)

(* ---- fingerprint slices ------------------------------------------------- *)

let test_option_slices () =
  let o = Driver.default_options in
  (* The resource limits are in no slice: the AST artifacts record the
     demand their parse made on them, and a lookup validates it. *)
  List.iter
    (fun (what, o') ->
      List.iter
        (fun st ->
          Alcotest.(check string)
            (Pipeline.stage_tag st ^ " slice ignores " ^ what)
            (Pipeline.option_slice st o) (Pipeline.option_slice st o'))
        Pipeline.stages)
    [
      ("loop_nest_limit", { o with Driver.loop_nest_limit = 2 });
      ("bracket_depth", { o with Driver.bracket_depth = 3 });
    ];
  (* The lowering is sema-relevant, invisible to pp and passes. *)
  let oi = { o with Driver.use_irbuilder = true } in
  List.iter
    (fun st ->
      Alcotest.(check string)
        (Pipeline.stage_tag st ^ " slice ignores the lowering")
        (Pipeline.option_slice st o) (Pipeline.option_slice st oi))
    [ Pipeline.Preprocess; Pipeline.Passes ];
  Alcotest.(check bool) "ast slice sees the lowering" false
    (Pipeline.option_slice Pipeline.Parse_sema o
    = Pipeline.option_slice Pipeline.Parse_sema oi);
  (* -O is pass-relevant only. *)
  let oO0 = { o with Driver.optimize = false } in
  List.iter
    (fun st ->
      Alcotest.(check string)
        (Pipeline.stage_tag st ^ " slice ignores -O")
        (Pipeline.option_slice st o) (Pipeline.option_slice st oO0))
    [ Pipeline.Preprocess; Pipeline.Parse_sema; Pipeline.Codegen ];
  Alcotest.(check bool) "passes slice sees -O" false
    (Pipeline.option_slice Pipeline.Passes o
    = Pipeline.option_slice Pipeline.Passes oO0);
  (* -ferror-limit is in no slice: cached artifacts are diagnostic-free,
     and a diagnostic-free run is identical under any error limit. *)
  let oe = { o with Driver.error_limit = 1 } in
  List.iter
    (fun st ->
      Alcotest.(check string)
        (Pipeline.stage_tag st ^ " slice ignores error_limit")
        (Pipeline.option_slice st o) (Pipeline.option_slice st oe))
    Pipeline.stages

(* ---- incremental recompilation ------------------------------------------ *)

let test_recompile_warm_hits_every_stage () =
  Alcotest.(check bool) "no cache up front" true
    (Instance.cache (Instance.create Invocation.default) = None);
  let inst =
    Instance.create { Invocation.default with Invocation.cache_enabled = true }
  in
  let cold = Instance.compile inst source in
  Alcotest.(check string) "cold trace"
    "pp:run ast:run ir:run optir:run"
    (trace_of cold);
  let warm = Instance.compile inst source in
  Alcotest.(check bool) "warm recompile is a full hit" true
    warm.Instance.c_cache_hit;
  Alcotest.(check string) "warm trace"
    "pp:hit ast:hit ir:hit optir:hit"
    (trace_of warm);
  check_no_stage_ran "warm timings all zero" warm.Instance.c_result;
  Alcotest.(check string) "warm IR byte-identical to cold" (ir_text cold)
    (ir_text warm)

let test_comment_edit_counters () =
  (* The acceptance property, read off the per-compile stage counters: a
     comment-only edit re-runs pp (a miss) and reuses every stage from
     the AST onward (hits). *)
  let inv = { Invocation.default with Invocation.cache_enabled = true } in
  let inst = Instance.create inv in
  ignore (compile inst source);
  let edited = source ^ "\n/* trailing comment, invisible post-pp */\n" in
  let c = compile inst edited in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (counter c name))
    [
      ("cache.pp-misses", 1);
      ("cache.pp-hits", 0);
      ("cache.ast-hits", 1);
      ("cache.ast-misses", 0);
      ("cache.optir-hits", 1);
      ("cache.optir-misses", 0);
    ];
  Alcotest.(check bool) "comment edit counts as whole-pipeline hit" true
    c.Instance.c_cache_hit

let test_body_edit_reruns_backend () =
  let inst =
    Instance.create { Invocation.default with Invocation.cache_enabled = true }
  in
  ignore (compile inst source);
  let c = compile inst (source_with_bound 41) in
  (* The edit is inside main's body: the record prototype's fnast slice
     is reused (ast:partial), while main — the only slice producing
     declarations, hence the only one with fnir/fnoptir artifacts —
     re-runs codegen and passes in full. *)
  Alcotest.(check string) "body edit re-runs the edited function"
    "pp:run ast:partial ir:run optir:run" (trace_of c);
  Alcotest.(check int) "prototype slice reused" 1 (counter c "cache.fn-hits");
  Alcotest.(check int) "edited slice re-parsed" 1 (counter c "cache.fn-misses");
  Alcotest.(check bool) "not a whole-pipeline hit" false c.Instance.c_cache_hit

let test_loop_nest_limit_invalidates_sema_onward () =
  (* A -floop-nest-limit below the unit's demand (a depth-2 tile) touches
     only the sema stage: the pp artifact survives, the AST lookup is an
     invalidation, and the AST stage re-runs and diagnoses, so nothing
     downstream runs. *)
  let src =
    "void record(long x);
int main(void) {
long s = 0;
     #pragma omp tile sizes(2, 2)
     for (int i = 0; i < 8; i += 1)
     for (int j = 0; j < 8; j += 1) s += i * j;
     record(s);
return 0; }"
  in
  let cache = Cache.create () in
  let base = { Invocation.default with Invocation.cache_enabled = true } in
  let inst = Instance.create ~cache base in
  ignore (compile inst src);
  let c =
    Instance.compile
      (Instance.create ~cache { base with Invocation.loop_nest_limit = 1 })
      src
  in
  (* The record prototype's slice makes no demand and is reused. *)
  Alcotest.(check string) "limit below the demand re-runs sema"
    "pp:hit ast:partial" (trace_of c);
  Alcotest.(check int) "the manifest is invalidated" 1
    (counter c "cache.ast-invalidations");
  check_contains ~what:"the limit is diagnosed"
    (Mc_diag.Diagnostics.render_all c.Instance.c_result.Driver.diag)
    "exceeds the maximum of 1";
  (* And coming back to the original limit hits everything again. *)
  let back = compile (Instance.create ~cache base) src in
  Alcotest.(check string) "original limit fully warm"
    "pp:hit ast:hit ir:hit optir:hit" (trace_of back)

let test_include_edit_invalidates_pp () =
  (* Editing an extra file's contents flips the recorded include digest:
     the pp lookup counts an invalidation (stale entry kept) and re-runs;
     the new expansion then misses the AST stage too.  Restoring the old
     contents revalidates the original entry. *)
  let header v = Printf.sprintf "#define V %d\n" v in
  let src = "#include \"inc.h\"\nint main(void) { return V; }" in
  let cache = Cache.create () in
  let inv files =
    {
      Invocation.default with
      Invocation.cache_enabled = true;
      extra_files = [ ("inc.h", header files) ];
    }
  in
  let c1 = compile (Instance.create ~cache (inv 2)) ~name:"m.c" src in
  Alcotest.(check string) "cold" "pp:run ast:run ir:run optir:run"
    (trace_of c1);
  let c2 = compile (Instance.create ~cache (inv 3)) ~name:"m.c" src in
  Alcotest.(check int) "pp entry invalidated" 1
    (counter c2 "cache.pp-invalidations");
  Alcotest.(check string) "include edit re-runs pp and downstream"
    "pp:run ast:run ir:run optir:run" (trace_of c2);
  let c3 = compile (Instance.create ~cache (inv 2)) ~name:"m.c" src in
  Alcotest.(check string) "original include revalidates"
    "pp:hit ast:hit ir:hit optir:hit" (trace_of c3);
  Alcotest.(check bool) "original is a whole-pipeline hit" true
    c3.Instance.c_cache_hit

let test_include_declares_in_order () =
  (* A header holding declarations lands before the line after its
     #include, so the unit compiles to exactly the IR of the same unit
     with the header pasted in place, cached or not. *)
  let header = "void record(long x);\nlong twice(long v);\n" in
  let body =
    "int main(void) { record(twice(21)); return 0; }\n\
     long twice(long v) { return v + v; }\n"
  in
  let inv files = { Invocation.default with Invocation.extra_files = files } in
  let pasted =
    ir_text (compile (Instance.create (inv [])) ~name:"m.c" (header ^ body))
  in
  let included = "#include \"decls.h\"\n" ^ body in
  let files = [ ("decls.h", header) ] in
  Alcotest.(check string) "uncached" pasted
    (ir_text (compile (Instance.create (inv files)) ~name:"m.c" included));
  let inst = Instance.create ~cache:(Cache.create ()) (inv files) in
  Alcotest.(check string) "cached, cold" pasted
    (ir_text (compile inst ~name:"m.c" included));
  let warm = compile inst ~name:"m.c" included in
  Alcotest.(check string) "cached, warm" "pp:hit ast:hit ir:hit optir:hit"
    (trace_of warm);
  Alcotest.(check string) "cached, warm IR" pasted (ir_text warm)

(* ---- determinism -------------------------------------------------------- *)

let test_cold_warm_and_domain_count_determinism () =
  (* The same batch, cold vs warm and at -j 1 vs -j 4, must produce
     byte-identical IR for every unit: all per-compilation state is
     domain-local and reset per execution, and cached artifacts are
     unmarshalled copies of exactly what a cold run builds. *)
  let inputs =
    List.init 5 (fun i ->
        ( Printf.sprintf "u%d.c" i,
          Printf.sprintf
            "void record(long x);\nint main(void) {\nlong s = 0;\n\
             #pragma omp tile sizes(%d)\n\
             for (int i = 0; i < %d; i += 1) s += i;\n\
             record(s);\nreturn 0; }"
            (2 + i) (20 + (3 * i)) ))
  in
  let invocation =
    { Invocation.default with Invocation.cache_enabled = true }
  in
  let irs batch =
    List.map
      (fun u ->
        match u.Batch.u_result with
        | Ok r -> Mc_ir.Printer.module_to_string (Option.get r.Driver.ir)
        | Error _ -> Alcotest.failf "%s ICEd" u.Batch.u_name)
      batch.Batch.units
  in
  let cache1 = Cache.create () in
  let cold1 = irs (Batch.compile ~jobs:1 ~cache:cache1 ~invocation inputs) in
  let warm1 = irs (Batch.compile ~jobs:1 ~cache:cache1 ~invocation inputs) in
  let cache4 = Cache.create () in
  let cold4 = irs (Batch.compile ~jobs:4 ~cache:cache4 ~invocation inputs) in
  let warm4 = irs (Batch.compile ~jobs:4 ~cache:cache4 ~invocation inputs) in
  Alcotest.(check (list string)) "warm -j1 == cold -j1" cold1 warm1;
  Alcotest.(check (list string)) "cold -j4 == cold -j1" cold1 cold4;
  Alcotest.(check (list string)) "warm -j4 == cold -j1" cold1 warm4

let suite =
  [
    tc "per-stage option slices" test_option_slices;
    tc "warm recompile hits every stage" test_recompile_warm_hits_every_stage;
    tc "comment edit reuses AST onward (counters)" test_comment_edit_counters;
    tc "body edit re-runs the backend" test_body_edit_reruns_backend;
    tc "-floop-nest-limit invalidates sema onward"
      test_loop_nest_limit_invalidates_sema_onward;
    tc "include edit invalidates pp" test_include_edit_invalidates_pp;
    tc "a header's declarations include in order"
      test_include_declares_in_order;
    tc "cold/warm and -j1/-j4 IR identical"
      test_cold_warm_and_domain_count_determinism;
  ]
