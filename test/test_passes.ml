(* Mid-end pass tests: dominators, mem2reg, const-prop, DCE, simplify-cfg,
   and the LoopUnroll pass (experiments L1/C4). *)

open Helpers
open Mc_ir.Ir
module B = Mc_ir.Builder
module Dominators = Mc_passes.Dominators
module Loop_info = Mc_passes.Loop_info
module Trip_count = Mc_passes.Trip_count
module Mem2reg = Mc_passes.Mem2reg
module Const_prop = Mc_passes.Const_prop
module Dce = Mc_passes.Dce
module Simplify_cfg = Mc_passes.Simplify_cfg
module Loop_unroll = Mc_passes.Loop_unroll
module Pass_manager = Mc_passes.Pass_manager
module Verifier = Mc_ir.Verifier
module Interp = Mc_interp.Interp
module Driver = Mc_core.Driver

(* A diamond CFG with a loop:
   entry -> header; header -> {left, right}; left,right -> merge;
   merge -> {header (back), exit} *)
let diamond_loop () =
  let m = create_module "t" in
  let f = define_function m ~name:"main" ~ret:Void ~args:[] in
  let entry = create_block ~name:"entry" f in
  let header = create_block ~name:"header" f in
  let left = create_block ~name:"left" f in
  let right = create_block ~name:"right" f in
  let merge = create_block ~name:"merge" f in
  let exit = create_block ~name:"exit" f in
  let b = B.create ~fold:false () in
  B.set_insertion_point b entry;
  B.br b header;
  B.set_insertion_point b header;
  let c = B.call b ~ret:I1 (Runtime "__kmpc_single") [] in
  B.cond_br b c left right;
  left.b_term <- Br merge;
  right.b_term <- Br merge;
  B.set_insertion_point b merge;
  let c2 = B.call b ~ret:I1 (Runtime "__kmpc_single") [] in
  B.cond_br b c2 header exit;
  exit.b_term <- Ret None;
  (m, f, entry, header, left, right, merge, exit)

let test_dominators () =
  let _, f, entry, header, left, right, merge, exit = diamond_loop () in
  let dom = Dominators.compute f in
  let check_dom what a bb expected =
    Alcotest.(check bool) what expected (Dominators.dominates dom a bb)
  in
  check_dom "entry dom all" entry exit true;
  check_dom "header dom merge" header merge true;
  check_dom "left !dom merge" left merge false;
  check_dom "right !dom merge" right merge false;
  check_dom "reflexive" left left true;
  check_dom "merge !dom header (back edge)" merge header false;
  Alcotest.(check bool) "idom of merge is header" true
    (match Dominators.idom dom merge with Some d -> d == header | None -> false);
  (* Dominance frontier: left's frontier is merge; header's contains header
     (it is a loop header). *)
  Alcotest.(check bool) "df(left) = {merge}" true
    (List.exists (fun x -> x == merge) (Dominators.dominance_frontier dom left));
  Alcotest.(check bool) "df(header) contains header" true
    (List.exists (fun x -> x == header) (Dominators.dominance_frontier dom header))

let test_loop_detection () =
  let _, f, _, header, _, _, merge, _ = diamond_loop () in
  let dom = Dominators.compute f in
  match Loop_info.find_loops dom with
  | [ loop ] ->
    Alcotest.(check bool) "header" true (loop.Loop_info.header == header);
    Alcotest.(check (list string)) "latch" [ "merge" ]
      (List.map (fun b -> b.b_name) loop.Loop_info.latches);
    Alcotest.(check int) "blocks" 4 (List.length loop.Loop_info.blocks);
    Alcotest.(check bool) "preheader" true
      (match loop.Loop_info.preheader with
      | Some p -> p.b_name = "entry"
      | None -> false);
    ignore merge
  | loops -> Alcotest.failf "expected 1 loop, got %d" (List.length loops)

(* mem2reg / trip count exercised through real compilations. *)
let compile_ir ?(options = classic) source =
  let result = Driver.compile ~options source in
  if Mc_diag.Diagnostics.has_errors result.Driver.diag then
    Alcotest.failf "compile failed:\n%s"
      (Mc_diag.Diagnostics.render_all result.Driver.diag);
  match result.Driver.ir with
  | Some m -> (m, result)
  | None -> Alcotest.failf "no IR: %s" (Option.value result.Driver.codegen_error ~default:"?")

(* Property: CHK dominators agree with the naive definition (a dominates b
   iff removing a disconnects b from entry) on random CFGs. *)
let test_dominators_vs_naive () =
  let rng = ref 123456789 in
  let rand bound =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 16) mod bound
  in
  for _trial = 0 to 60 do
    let m = create_module "t" in
    let f = define_function m ~name:"main" ~ret:Void ~args:[] in
    let n = 4 + rand 8 in
    let blocks =
      List.init n (fun i -> create_block ~name:(Printf.sprintf "b%d" i) f)
    in
    let nth = List.nth blocks in
    (* Random terminators; entry is b0. *)
    List.iteri
      (fun i b ->
        ignore i;
        match rand 4 with
        | 0 -> b.b_term <- Ret None
        | 1 -> b.b_term <- Br (nth (rand n))
        | _ ->
          let c =
            (* An opaque i1 so nothing folds. *)
            let inst = mk_inst ~ty:I1 (Call { callee = Runtime "__kmpc_single"; args = [] }) in
            append_inst b inst;
            Inst_ref inst
          in
          b.b_term <- Cond_br (c, nth (rand n), nth (rand n)))
      blocks;
    let dom = Dominators.compute f in
    let reachable_without blocked =
      let seen = Hashtbl.create 16 in
      let rec dfs b =
        if (not (Hashtbl.mem seen b.b_id)) && not (b == blocked) then begin
          Hashtbl.add seen b.b_id ();
          List.iter dfs (successors b)
        end
      in
      (match blocked == List.hd blocks with
      | true -> ()
      | false -> dfs (List.hd blocks));
      seen
    in
    List.iter
      (fun a ->
        let cut = reachable_without a in
        List.iter
          (fun b ->
            if Dominators.is_reachable dom b then begin
              let expected =
                a == b || not (Hashtbl.mem cut b.b_id)
              in
              let got = Dominators.dominates dom a b in
              if expected <> got then
                Alcotest.failf "dominates(%s, %s): naive %b, CHK %b" a.b_name
                  b.b_name expected got
            end)
          blocks)
      blocks
  done

let test_mem2reg_promotes () =
  let source =
    "void record(long x);\nint main(void) {\n\
     int sum = 0;\nfor (int i = 0; i < 10; i += 1) sum += i;\n\
     record(sum);\nreturn 0; }"
  in
  let m, _ = compile_ir ~options:(o0 classic) source in
  let before = Interp.run_main m in
  let promoted = Mem2reg.run_func (Option.get (find_function m "main")) in
  (match Verifier.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid after mem2reg:\n%s" e);
  if promoted < 2 then Alcotest.failf "expected >=2 promotions, got %d" promoted;
  let after = Interp.run_main m in
  Alcotest.(check bool) "same trace" true
    (Interp.trace_equal before.Interp.trace after.Interp.trace);
  (* The promoted loop now has phis in its header. *)
  let main = Option.get (find_function m "main") in
  let has_phi =
    List.exists (fun bb -> block_phis bb <> []) main.f_blocks
  in
  Alcotest.(check bool) "phis created" true has_phi

let test_mem2reg_respects_address_taken () =
  let source =
    "void record(long x);\nvoid bump(int *p) { *p = *p + 1; }\n\
     int main(void) { int x = 1; bump(&x); record(x); return 0; }"
  in
  let m, _ = compile_ir ~options:(o0 classic) source in
  ignore (Pass_manager.run ~passes:[ "mem2reg" ] m);
  let outcome = Interp.run_main m in
  Alcotest.(check string) "escaped alloca survives" "2"
    (trace_to_string outcome.Interp.trace)

let test_const_prop_and_dce () =
  let m = create_module "t" in
  let f = define_function m ~name:"main" ~ret:I32 ~args:[] in
  let entry = create_block ~name:"entry" f in
  let dead_b = create_block ~name:"deadbranch" f in
  let live_b = create_block ~name:"live" f in
  let b = B.create ~fold:false () in
  B.set_insertion_point b entry;
  let x = B.add b (i32_const 2) (i32_const 3) in
  let unused = B.mul b x (i32_const 100) in
  ignore unused;
  let c = B.icmp b Islt x (i32_const 3) in
  B.cond_br b c dead_b live_b;
  B.set_insertion_point b dead_b;
  B.ret b (Some (i32_const 111));
  B.set_insertion_point b live_b;
  B.ret b (Some x);
  Alcotest.(check bool) "constprop changed" true (Const_prop.run_func f);
  ignore (Dce.run_func f);
  Alcotest.(check bool) "simplifycfg changed" true (Simplify_cfg.run_func f);
  (match Verifier.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid:\n%s" e);
  let outcome = Interp.run_main m in
  Alcotest.(check (option int64)) "returns 5" (Some 5L) outcome.Interp.return_value;
  (* Everything folded to a straight return. *)
  Alcotest.(check int) "single block" 1 (List.length f.f_blocks);
  Alcotest.(check int) "no instructions" 0 (func_inst_count f)

let test_trip_count_analysis () =
  let source =
    "int main(void) { int sum = 0;\n\
     for (int i = 3; i < 40; i += 4) sum += i;\nreturn sum; }"
  in
  let m, _ = compile_ir ~options:(o0 classic) source in
  ignore (Pass_manager.run ~passes:[ "simplifycfg"; "mem2reg" ] m);
  let main = Option.get (find_function m "main") in
  let dom = Dominators.compute main in
  match Loop_info.find_loops dom with
  | [ loop ] -> (
    match Trip_count.analyze dom loop with
    | Some a ->
      Alcotest.(check int64) "step" 4L a.Trip_count.step;
      (match a.Trip_count.init with
      | Const_int (_, 3L) -> ()
      | _ -> Alcotest.fail "init should be 3");
      Alcotest.(check (option int64)) "trip count = ceil(37/4)" (Some 10L)
        (Trip_count.constant_trip_count a)
    | None -> Alcotest.fail "loop should be affine")
  | loops -> Alcotest.failf "expected 1 loop, got %d" (List.length loops)

let test_constant_trip_counts () =
  (* Direct checks of the counting math through full compilations at -O1:
     full unroll leaves no loop iff the count was computed right, and the
     trace length tells us the count. *)
  List.iter
    (fun (loop, expected) ->
      let src =
        "void record(long x);\nint main(void) {\n#pragma omp unroll full\n"
        ^ loop ^ "\nreturn 0; }"
      in
      let t = trace_of ~options:classic src in
      Alcotest.(check int) loop expected (List.length t))
    [
      ("for (int i = 0; i < 10; i += 1) record(i);", 10);
      ("for (int i = 0; i <= 10; i += 1) record(i);", 11);
      ("for (int i = 7; i < 17; i += 3) record(i);", 4);
      ("for (int i = 10; i > 0; i -= 1) record(i);", 10);
      ("for (int i = 10; i >= 0; i -= 2) record(i);", 6);
      ("for (int i = 0; i != 6; i += 1) record(i);", 6);
      ("for (unsigned i = 0; i < 5u; i += 1) record(i);", 5);
    ]

let test_unroll_full_removes_loop () =
  let source =
    "void record(long x);\nint main(void) {\nlong s = 0;\n\
     #pragma omp unroll full\nfor (int i = 0; i < 8; i += 1) s += i * i;\n\
     record(s);\nreturn 0; }"
  in
  let m, result = compile_ir ~options:classic source in
  Alcotest.(check int) "fully unrolled once" 1
    result.Driver.unroll_stats.Loop_unroll.fully_unrolled;
  let main = Option.get (find_function m "main") in
  let dom = Dominators.compute main in
  Alcotest.(check int) "no loops remain" 0
    (List.length (Loop_info.find_loops dom));
  let outcome = Interp.run_main m in
  Alcotest.(check string) "value" "140" (trace_to_string outcome.Interp.trace)

let test_unroll_partial_structure () =
  (* Listing 1: the unrolled loop plus a remainder loop. *)
  let source =
    "void record(long x);\nint main(void) {\nint n = 11;\nlong s = 0;\n\
     #pragma omp unroll partial(4)\nfor (int i = 0; i < n; i += 1) s += i;\n\
     record(s);\nreturn 0; }"
  in
  let m, result = compile_ir ~options:classic source in
  Alcotest.(check int) "partially unrolled once" 1
    result.Driver.unroll_stats.Loop_unroll.partially_unrolled;
  let main = Option.get (find_function m "main") in
  let dom = Dominators.compute main in
  let loops = Loop_info.find_loops dom in
  Alcotest.(check int) "unrolled + remainder loops" 2 (List.length loops);
  let outcome = Interp.run_main m in
  Alcotest.(check string) "value" "55" (trace_to_string outcome.Interp.trace)

let test_unroll_skips_unsafe () =
  (* A loop whose bound is re-loaded from memory mutated in the body cannot
     be unrolled in Listing-1 form; the pass must skip, not miscompile. *)
  let source =
    "void record(long x);\nint main(void) {\nint n = 10;\nint i = 0;\n\
     #pragma clang loop unroll_count(4)\nwhile (i < n) { if (i == 3) n = 6; \
     record(i); i += 1; }\nreturn 0; }"
  in
  let t0 = trace_of ~options:(o0 classic) source in
  let t1 = trace_of ~options:classic source in
  Alcotest.(check bool) "same trace despite skip" true (Interp.trace_equal t0 t1)

let test_unroll_factor_sweep_semantics () =
  List.iter
    (fun factor ->
      List.iter
        (fun n ->
          let src =
            Printf.sprintf
              "void record(long x);\nint main(void) {\nint n = %d;\n\
               #pragma omp unroll partial(%d)\n\
               for (int i = 0; i < n; i += 1) record(2 * i + 1);\nreturn 0; }"
              n factor
          in
          let expected =
            String.concat ";" (List.init n (fun i -> string_of_int ((2 * i) + 1)))
          in
          let got = trace_to_string (trace_of ~options:classic src) in
          Alcotest.(check string)
            (Printf.sprintf "factor %d n %d" factor n)
            expected got)
        [ 0; 1; 3; 4; 7; 8; 9 ])
    [ 2; 3; 4; 8 ]

let test_while_loop_unrolls () =
  (* #pragma clang loop on a while loop: after mem2reg the while shape is
     affine and the unroller handles it (the paper's classic-path pipeline
     for LoopHintAttr). *)
  let source =
    "void record(long x);\nint main(void) {\nlong s = 0;\nint i = 0;\n\
     #pragma clang loop unroll_count(4)\nwhile (i < 100) { s += i; i += 1; }\n\
     record(s);\nreturn 0; }"
  in
  let _, result = compile_ir ~options:classic source in
  Alcotest.(check int) "partially unrolled" 1
    result.Driver.unroll_stats.Loop_unroll.partially_unrolled;
  Alcotest.(check string) "sum" "4950"
    (trace_to_string (trace_of ~options:classic source));
  (* do-while too *)
  let source2 =
    "void record(long x);\nint main(void) {\nlong s = 0;\nint i = 0;\n\
     #pragma clang loop unroll_count(2)\ndo { s += i; i += 1; } while (i < 50);\n\
     record(s);\nreturn 0; }"
  in
  Alcotest.(check string) "do-while sum" "1225"
    (trace_to_string (trace_of ~options:classic source2))

let test_heuristic_factor () =
  Alcotest.(check (option int)) "tiny loop goes full" None
    (Loop_unroll.choose_heuristic_factor ~body_size:4 ~trip_count:(Some 8L));
  Alcotest.(check (option int)) "small body gets 8" (Some 8)
    (Loop_unroll.choose_heuristic_factor ~body_size:10 ~trip_count:None);
  Alcotest.(check (option int)) "large body not unrolled" (Some 1)
    (Loop_unroll.choose_heuristic_factor ~body_size:500 ~trip_count:None)

let test_pass_manager () =
  let source =
    "void record(long x);\nint main(void) { record(40 + 2); return 0; }"
  in
  let m, _ = compile_ir ~options:(o0 classic) source in
  let report = Pass_manager.run ~verify_between:true ~passes:Pass_manager.o1 m in
  Alcotest.(check int) "all passes ran" (List.length Pass_manager.o1)
    (List.length report.Pass_manager.pass_timings);
  (match Pass_manager.run ~passes:[ "nonsense" ] m with
  | exception Invalid_argument msg -> check_contains ~what:"unknown" msg "nonsense"
  | _ -> Alcotest.fail "unknown pass should raise")

(* ---- change reports and the verifier skip ----------------------------- *)

module Pass_audit = Mc_fuzz.Pass_audit
module Stats = Mc_support.Stats

(* Every function whose printed form an -O1 pass moved is one the pass
   reported changing, over the IR golden's inputs and the wide unit,
   under both lowerings: the verifier skip is checked, not trusted. *)
let test_change_report_audit () =
  match
    List.concat_map
      (fun (name, source) -> Pass_audit.audit_source ~name source)
      (ir_inputs ())
  with
  | [] -> ()
  | findings ->
    Alcotest.failf "%d unreported change(s), first:\n%s"
      (List.length findings)
      (String.concat "\n"
         (List.map
            (fun (f : Pass_audit.finding) ->
              Printf.sprintf "%s (%s): %s moved %s" f.pa_name f.pa_lowering
                f.pa_pass f.pa_detail)
            findings))

let two_functions =
  "int f(int x) { return x + 1; }\nint main(void) { return f(2); }"

let lower_classic source =
  match Pass_audit.lower ~irbuilder:false ~name:"two.c" source with
  | Ok m -> m
  | Error e -> Alcotest.failf "does not lower:\n%s" e

(* A test pass that strips the terminator of [f]'s entry block, and
   reports the change only when told to. *)
let break_f ~report =
  {
    Pass_manager.name = "break-f";
    run_func =
      (fun fn ->
        fn.f_name = "f"
        && begin
          (entry_block fn).b_term <- No_term;
          report
        end);
  }

let test_broken_pass_reported () =
  let m = lower_classic two_functions in
  let passes =
    [ Pass_manager.named "simplifycfg"; break_f ~report:true; Pass_manager.named "dce" ]
  in
  match Pass_manager.run_passes ~verify_between:true passes m with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "caught at the breaking pass, which is named"
      (Printf.sprintf "IR verification failed after pass 'break-f':\nf/%s: block has no terminator"
         (entry_block (Option.get (find_function m "f"))).b_name)
      msg
  | _ -> Alcotest.fail "a reported broken function passed verification"

let test_broken_pass_unreported () =
  (* The manager trusts the report, so the unreported break slips past
     the between-pass check... *)
  let m = lower_classic two_functions in
  ignore
    (Pass_manager.run_passes ~verify_between:true [ break_f ~report:false ] m);
  Alcotest.(check bool) "the skipped function is broken" true
    (Verifier.verify_module m <> []);
  (* ...and the audit is what catches it. *)
  Alcotest.(check (list (pair string string)))
    "the audit names the pass and the function"
    [ ("break-f", "f") ]
    (Pass_audit.audit_module
       ~passes:[ Pass_manager.named "simplifycfg"; break_f ~report:false ]
       (lower_classic two_functions))

let counter registry name =
  Option.value ~default:0 (List.assoc_opt name (Stats.snapshot ~registry ()))

let test_verifier_skips_unchanged () =
  let m = lower_classic two_functions in
  let noop = { Pass_manager.name = "noop"; run_func = (fun _ -> false) } in
  let timings, registry =
    Stats.with_scoped_registry (fun () ->
        Pass_manager.run_passes ~verify_between:true [ noop; noop ] m)
  in
  Alcotest.(check (list (list string))) "nothing reported" [ []; [] ]
    (List.map (fun pt -> pt.Pass_manager.pt_changed_funcs) timings);
  Alcotest.(check int) "no function verified" 0
    (counter registry "verifier.functions-verified");
  Alcotest.(check int) "both functions skipped twice" 4
    (counter registry "verifier.unchanged-skipped");
  (* Over -O1, each pass verifies what it reported and skips the rest. *)
  let m = lower_classic two_functions in
  let report, registry =
    Stats.with_scoped_registry (fun () ->
        Pass_manager.run ~verify_between:true ~passes:Pass_manager.o1 m)
  in
  let reported =
    List.fold_left
      (fun n pt -> n + List.length pt.Pass_manager.pt_changed_funcs)
      0 report.Pass_manager.pass_timings
  in
  Alcotest.(check bool) "some pass changed something" true (reported > 0);
  Alcotest.(check int) "verified = reported" reported
    (counter registry "verifier.functions-verified");
  Alcotest.(check int) "verified + skipped = passes x functions"
    (2 * List.length Pass_manager.o1)
    (reported + counter registry "verifier.unchanged-skipped")

(* A request LoopUnroll skips still loses its metadata, which the printed
   IR shows, so the run reports the function changed. *)
let test_unroll_reports_skipped_request () =
  let source =
    "void record(long x);\nint main(void) {\nint n = 10;\nint i = 0;\n\
     #pragma clang loop unroll_count(4)\nwhile (i < n) { if (i == 3) n = 6; \
     record(i); i += 1; }\nreturn 0; }"
  in
  let m = lower_classic source in
  let upto_unroll =
    List.filteri (fun k _ -> k < 4) Pass_manager.o1
  in
  ignore (Pass_manager.run ~passes:upto_unroll m);
  let report = Pass_manager.run ~passes:[ "loop-unroll" ] m in
  let s = report.Pass_manager.unroll_stats in
  Alcotest.(check (list int)) "one request, skipped" [ 0; 0; 1 ]
    [ s.Loop_unroll.fully_unrolled; s.partially_unrolled; s.skipped ];
  Alcotest.(check (list string)) "main reported changed" [ "main" ]
    (List.concat_map (fun pt -> pt.Pass_manager.pt_changed_funcs)
       report.Pass_manager.pass_timings);
  (* Without a request left, the next run changes nothing. *)
  Alcotest.(check bool) "no request left" false
    (List.hd (Pass_manager.run ~passes:[ "loop-unroll" ] m).Pass_manager.pass_timings)
      .Pass_manager.pt_changed

(* ---- the shared predecessor index ------------------------------------ *)

(* The scan the index replaced, kept as the reference: every block of
   [f_blocks] naming [b] as a successor, in [f_blocks] order. *)
let reference_preds f b =
  List.filter (fun p -> List.exists (fun s -> s == b) (successors p)) f.f_blocks

let check_pred_index ~what m =
  List.iter
    (fun f ->
      if not f.f_is_decl then begin
        let idx = pred_index f in
        List.iter
          (fun b ->
            let got = preds idx b and want = reference_preds f b in
            if not (List.length got = List.length want && List.for_all2 ( == ) got want)
            then
              let names l = String.concat "," (List.map (fun p -> p.b_name) l) in
              Alcotest.failf "%s: @%s/%s: index [%s], reference scan [%s]" what
                f.f_name b.b_name (names got) (names want))
          f.f_blocks
      end)
    m.m_funcs

(* After CodeGen and after each -O1 pass, over every snapshot of
   [Helpers.each_snapshot], the index must list exactly the reference
   scan's blocks, in its order. *)
let test_pred_index_matches_scan () =
  each_snapshot (fun what m -> check_pred_index ~what m)

(* ---- simplifycfg: one sweep vs restarting from the entry --------------- *)

(* The algorithm the single-sweep [Simplify_cfg] replaced, kept as the
   reference: predecessors by scanning, and [merge_pairs] restarting
   from the entry block after every merge. *)
module Reference_simplify = struct
  let remove_unreachable f =
    let reachable = Hashtbl.create 32 in
    let rec dfs b =
      if not (Hashtbl.mem reachable b.b_id) then begin
        Hashtbl.add reachable b.b_id ();
        List.iter dfs (successors b)
      end
    in
    dfs (entry_block f);
    let dead = List.filter (fun b -> not (Hashtbl.mem reachable b.b_id)) f.f_blocks in
    if dead = [] then false
    else begin
      let is_dead b = List.exists (fun d -> d == b) dead in
      List.iter
        (fun b ->
          List.iter
            (fun phi ->
              match phi.i_kind with
              | Phi { incoming } ->
                phi.i_kind <-
                  Phi { incoming = List.filter (fun (_, ib) -> not (is_dead ib)) incoming }
              | _ -> ())
            (block_phis b))
        (List.filter (fun b -> not (is_dead b)) f.f_blocks);
      remove_blocks f dead;
      true
    end

  let merge_pairs f =
    let changed = ref false in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      let candidate =
        List.find_opt
          (fun b ->
            match b.b_term with
            | Br s ->
              (not (s == b))
              && (not (s == entry_block f))
              && (match reference_preds f s with [ p ] -> p == b | _ -> false)
              && block_phis s = []
            | _ -> false)
          f.f_blocks
      in
      match candidate with
      | Some ({ b_term = Br s; _ } as b) ->
        List.iter (fun i -> append_inst b i) (block_insts s);
        b.b_term <- s.b_term;
        b.b_loop_md <-
          {
            md_unroll =
              (match s.b_loop_md.md_unroll with
              | Some u -> Some u
              | None -> b.b_loop_md.md_unroll);
            md_vectorize_width =
              (match s.b_loop_md.md_vectorize_width with
              | Some w -> Some w
              | None -> b.b_loop_md.md_vectorize_width);
          };
        List.iter
          (fun blk ->
            List.iter
              (fun phi ->
                match phi.i_kind with
                | Phi { incoming } ->
                  phi.i_kind <-
                    Phi
                      {
                        incoming =
                          List.map (fun (v, ib) -> if ib == s then (v, b) else (v, ib)) incoming;
                      }
                | _ -> ())
              (block_phis blk))
          f.f_blocks;
        remove_blocks f [ s ];
        changed := true;
        continue_ := true
      | _ -> ()
    done;
    !changed

  let forward_empty f =
    let changed = ref false in
    List.iter
      (fun b ->
        if (not (b == entry_block f)) && block_insts b = [] then begin
          match b.b_term with
          | Br t when (not (t == b)) && block_phis t = [] ->
            let preds = reference_preds f b in
            if preds <> [] then begin
              List.iter (fun p -> replace_successor p ~from:b ~into:t) preds;
              changed := true
            end
          | _ -> ()
        end)
      f.f_blocks;
    !changed

  let run_func f =
    let changed = ref false in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      List.iter
        (fun step ->
          if step f then begin
            changed := true;
            continue_ := true
          end)
        [ remove_unreachable; forward_empty; remove_unreachable; merge_pairs ]
    done;
    !changed
end

(* A random CFG from [seed]: empty forwarding blocks, straight-line
   blocks, opaque conditional branches, returns, self-loops, unreachable
   islands, loop metadata on some terminators, and phis (one incoming
   per predecessor) in some blocks.  Ids restart at zero, so two builds
   from one seed print identically. *)
let random_cfg seed =
  let rng = ref seed in
  let rand bound =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 16) mod bound
  in
  reset_ids ();
  let m = create_module "t" in
  let f = define_function m ~name:"main" ~ret:Void ~args:[] in
  let n = 3 + rand 12 in
  let blocks = List.init n (fun i -> create_block ~name:(Printf.sprintf "b%d" i) f) in
  let nth = List.nth blocks in
  let opaque b =
    let inst = mk_inst ~ty:I1 (Call { callee = Runtime "__kmpc_single"; args = [] }) in
    append_inst b inst;
    Inst_ref inst
  in
  (* Most edges continue to the next block and few blocks return, so
     most blocks are reachable and the merge and forwarding rules fire. *)
  let target i = if i + 1 < n && rand 3 > 0 then nth (i + 1) else nth (rand n) in
  List.iteri
    (fun i b ->
      (match if i + 1 = n then 0 else 1 + rand 6 with
      | 0 -> b.b_term <- Ret None
      | 1 | 2 -> b.b_term <- Br (target i)
      | 3 ->
        ignore (opaque b);
        b.b_term <- Br (target i)
      | _ -> b.b_term <- Cond_br (opaque b, target i, target i));
      if rand 4 = 0 then
        b.b_loop_md <- { b.b_loop_md with md_unroll = Some (Unroll_count (2 + rand 3)) })
    blocks;
  List.iter
    (fun b ->
      match reference_preds f b with
      | [] -> ()
      | ps ->
        if rand 3 = 0 then begin
          let phi =
            mk_inst ~ty:I32
              (Phi { incoming = List.map (fun p -> (i32_const (rand 100), p)) ps })
          in
          phi.i_parent <- Some b;
          set_block_insts b (phi :: block_insts b)
        end)
    blocks;
  (m, f)

let test_simplifycfg_matches_restart_reference () =
  for trial = 0 to 400 do
    let seed = 7919 * (trial + 1) in
    let m1, f1 = random_cfg seed in
    let changed1 = Simplify_cfg.run_func f1 in
    let m2, f2 = random_cfg seed in
    let changed2 = Reference_simplify.run_func f2 in
    let text1 = Mc_ir.Printer.module_to_string m1
    and text2 = Mc_ir.Printer.module_to_string m2 in
    if changed1 <> changed2 || text1 <> text2 then
      Alcotest.failf "seed %d: single sweep (changed=%b):\n%s\nreference (changed=%b):\n%s"
        seed changed1 text1 changed2 text2
  done

(* ---- constprop on self-referencing phis -------------------------------- *)

(* These used to spin forever at -O1, so a regression must fail, not
   hang: the alarm turns a stuck compile into an exception. *)
let with_deadline seconds f =
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> failwith "compile did not finish"))
  in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)
    f

(* A folded constant-false branch drops a dead loop's preheader edge and
   leaves [x.phi = phi [x.phi, latch]]; swapped variables leave two
   phis feeding each other. *)
let self_phi_source =
  "void record(long x);\n\
   int main(void){ int x = 5; int n = 0; if (n) { while (x < 10) { x = x; } } \
   record(x); return 0; }"

let swapped_phis_source =
  "void record(long x);\n\
   int main(void){ int a = 5; int b = 7; int t = 0; int n = 0;\n\
   if (n) { while (a < 10) { t = a; a = b; b = t; } }\n\
   record(a); record(b); return 0; }"

let test_constprop_phi_cycles () =
  List.iter
    (fun (what, source, expected) ->
      List.iter
        (fun (lowering, options) ->
          let trace =
            with_deadline 20 (fun () -> trace_of ~options source)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s (%s, -O1)" what lowering)
            expected (trace_to_string trace);
          Alcotest.(check string)
            (Printf.sprintf "%s (%s, -O0 agrees)" what lowering)
            expected
            (trace_to_string (trace_of ~options:(o0 options) source)))
        [ ("classic", classic); ("irbuilder", irbuilder) ])
    [
      ("self-referencing phi", self_phi_source, "5");
      ("swapped phis", swapped_phis_source, "5;7");
    ]

(* The same on hand-built IR: a 3-cycle of phis with a fourth phi
   chained into it.  Used by a call, the cycle stays and the chain folds
   onto it; unused, all four fold away as they always did. *)
let test_constprop_cycle_shapes () =
  let build ~used =
    let m = create_module "t" in
    let f = define_function m ~name:"main" ~ret:Void ~args:[] in
    let entry = create_block ~name:"entry" f in
    let loop = create_block ~name:"loop" f in
    let exit = create_block ~name:"exit" f in
    entry.b_term <- Br exit;
    let phi name = mk_inst ~name ~ty:I32 (Phi { incoming = [] }) in
    let a = phi "a" and b = phi "b" and c = phi "c" and d = phi "d" in
    List.iter (append_inst loop) [ a; b; c; d ];
    let feed p v = p.i_kind <- Phi { incoming = [ (Inst_ref v, loop) ] } in
    feed a b;
    feed b c;
    feed c a;
    feed d a;
    loop.b_term <- Br loop;
    let call =
      mk_inst ~ty:Void (Call { callee = Runtime "record"; args = [ Inst_ref d ] })
    in
    if used then append_inst exit call;
    exit.b_term <- Ret None;
    (f, loop, a, call)
  in
  let f, loop, a, call = build ~used:true in
  Alcotest.(check bool) "changed" true
    (with_deadline 20 (fun () -> Const_prop.run_func f));
  Alcotest.(check (list string)) "the used cycle stays" [ "a"; "b"; "c" ]
    (List.map (fun i -> i.i_name) (block_phis loop));
  (match call.i_kind with
  | Call { args = [ Inst_ref x ]; _ } when x == a -> ()
  | _ -> Alcotest.fail "the chain into the cycle should fold onto it");
  let f, loop, _, _ = build ~used:false in
  ignore (with_deadline 20 (fun () -> Const_prop.run_func f));
  Alcotest.(check int) "an unused cycle folds away" 0
    (List.length (block_phis loop))

let suite =
  [
    tc "dominator tree" test_dominators;
    tc "natural loop detection" test_loop_detection;
    tc "dominators agree with the naive definition" test_dominators_vs_naive;
    tc "mem2reg promotes and preserves" test_mem2reg_promotes;
    tc "mem2reg keeps escaped allocas" test_mem2reg_respects_address_taken;
    tc "constprop + dce + simplifycfg" test_const_prop_and_dce;
    tc "affine trip-count analysis" test_trip_count_analysis;
    tc "constant trip counts (all cmp forms)" test_constant_trip_counts;
    tc "L1: full unroll removes the loop" test_unroll_full_removes_loop;
    tc "L1: partial unroll leaves unrolled + remainder" test_unroll_partial_structure;
    tc "unroll skips unsafe loops" test_unroll_skips_unsafe;
    tc "unroll factor sweep semantics" test_unroll_factor_sweep_semantics;
    tc "while/do loops unroll via LoopHintAttr" test_while_loop_unrolls;
    tc "C4: heuristic factor choice" test_heuristic_factor;
    tc "pass manager" test_pass_manager;
    tc "change report: every moved function was reported"
      test_change_report_audit;
    tc "a broken pass that reports is caught at that pass"
      test_broken_pass_reported;
    tc "a broken pass that does not report is caught by the audit"
      test_broken_pass_unreported;
    tc "between passes only reported functions are verified"
      test_verifier_skips_unchanged;
    tc "loop-unroll reports a skipped request as a change"
      test_unroll_reports_skipped_request;
    tc "predecessor index equals the reference scan after every pass"
      test_pred_index_matches_scan;
    tc "constprop: phi cycles in dead loops terminate"
      test_constprop_phi_cycles;
    tc "constprop: used phi cycles stay, unused ones fold"
      test_constprop_cycle_shapes;
    tc "simplifycfg: one sweep equals the restart-from-entry reference"
      test_simplifycfg_matches_restart_reference;
  ]
