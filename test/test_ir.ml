(* IR-level tests: builder folding (ablation A4's mechanism), the verifier,
   and the printer. *)

open Helpers
open Mc_ir.Ir
module B = Mc_ir.Builder
module Verifier = Mc_ir.Verifier
module Printer = Mc_ir.Printer

let fresh_fn ?(name = "f") ?(ret = Void) () =
  let m = create_module "test" in
  let f = define_function m ~name ~ret ~args:[] in
  let entry = create_block ~name:"entry" f in
  (m, f, entry)

let test_builder_constant_folding () =
  let _, _, entry = fresh_fn () in
  let b = B.create () in
  B.set_insertion_point b entry;
  (match B.add b (i32_const 2) (i32_const 3) with
  | Const_int (I32, 5L) -> ()
  | _ -> Alcotest.fail "2+3 should fold");
  (match B.mul b (i32_const 6) (i32_const 7) with
  | Const_int (I32, 42L) -> ()
  | _ -> Alcotest.fail "6*7 should fold");
  (match B.icmp b Islt (i32_const 1) (i32_const 2) with
  | Const_int (I1, 1L) -> ()
  | _ -> Alcotest.fail "1<2 should fold");
  (match B.sdiv b (i32_const 7) (i32_const 0) with
  | Inst_ref _ -> () (* division by zero must NOT fold *)
  | _ -> Alcotest.fail "x/0 must not fold");
  (* i32 wrap-around semantics in folding. *)
  match B.add b (i32_const 2147483647) (i32_const 1) with
  | Const_int (I32, v) -> Alcotest.(check int64) "wrap" (-2147483648L) v
  | _ -> Alcotest.fail "wrapping add should fold"

let test_builder_identities () =
  let _, _, entry = fresh_fn () in
  let b = B.create () in
  B.set_insertion_point b entry;
  let x = B.call b ~ret:I32 (Runtime "omp_get_thread_num") [] in
  Alcotest.(check bool) "x+0 = x" true (value_equal (B.add b x (i32_const 0)) x);
  Alcotest.(check bool) "0+x = x" true (value_equal (B.add b (i32_const 0) x) x);
  Alcotest.(check bool) "x*1 = x" true (value_equal (B.mul b x (i32_const 1)) x);
  (match B.mul b x (i32_const 0) with
  | Const_int (I32, 0L) -> ()
  | _ -> Alcotest.fail "x*0 = 0");
  Alcotest.(check bool) "x-0 = x" true (value_equal (B.sub b x (i32_const 0)) x);
  (match B.sub b x x with
  | Const_int (I32, 0L) -> ()
  | _ -> Alcotest.fail "x-x = 0");
  Alcotest.(check bool) "x|0 = x" true (value_equal (B.or_ b x (i32_const 0)) x);
  (* select folding *)
  Alcotest.(check bool) "select true" true
    (value_equal (B.select b (bool_const true) x (i32_const 9)) x)

let test_folding_disabled () =
  let _, f, entry = fresh_fn () in
  let b = B.create ~fold:false () in
  B.set_insertion_point b entry;
  (match B.add b (i32_const 2) (i32_const 3) with
  | Inst_ref _ -> ()
  | _ -> Alcotest.fail "folding disabled must materialise the add");
  Alcotest.(check int) "one inst" 1 (func_inst_count f)

let test_cond_br_folding () =
  let _, f, entry = fresh_fn () in
  let then_b = create_block ~name:"t" f in
  let else_b = create_block ~name:"e" f in
  let b = B.create () in
  B.set_insertion_point b entry;
  B.cond_br b (bool_const true) then_b else_b;
  (match entry.b_term with
  | Br t when t == then_b -> ()
  | _ -> Alcotest.fail "constant branch should fold");
  B.set_insertion_point b then_b;
  B.ret b None;
  B.set_insertion_point b else_b;
  B.ret b None

let test_verifier_catches_issues () =
  (* Unterminated block. *)
  let m, _, _ = fresh_fn () in
  (match Verifier.check m with
  | Error e -> check_contains ~what:"noterm" e "no terminator"
  | Ok () -> Alcotest.fail "should report missing terminator");
  (* Type mismatch. *)
  let m2, _, entry2 = fresh_fn () in
  let bad = mk_inst ~ty:I32 (Binop (Add, i32_const 1, i64_const 2)) in
  append_inst entry2 bad;
  entry2.b_term <- Ret None;
  (match Verifier.check m2 with
  | Error e -> check_contains ~what:"types" e "binop operand types differ"
  | Ok () -> Alcotest.fail "should report operand mismatch");
  (* Phi without matching predecessors. *)
  let m3, f3, entry3 = fresh_fn () in
  let next = create_block ~name:"next" f3 in
  entry3.b_term <- Br next;
  let phi = mk_inst ~ty:I32 (Phi { incoming = [] }) in
  append_inst next phi;
  next.b_term <- Ret None;
  (match Verifier.check m3 with
  | Error e -> check_contains ~what:"phi" e "phi has 0 incoming values for 1"
  | Ok () -> Alcotest.fail "should report phi arity");
  (* Branch condition must be i1. *)
  let m4, f4, entry4 = fresh_fn () in
  let t4 = create_block ~name:"t" f4 in
  t4.b_term <- Ret None;
  entry4.b_term <- Cond_br (i32_const 1, t4, t4);
  match Verifier.check m4 with
  | Error e -> check_contains ~what:"cond" e "branch condition not i1"
  | Ok () -> Alcotest.fail "should report non-i1 condition"

let test_verifier_accepts_valid () =
  let m, f, entry = fresh_fn ~ret:I32 () in
  let loop = create_block ~name:"loop" f in
  let exit = create_block ~name:"exit" f in
  let b = B.create () in
  B.set_insertion_point b entry;
  B.br b loop;
  B.set_insertion_point b loop;
  let iv = B.phi b ~name:"iv" I32 [ (i32_const 0, entry) ] in
  let next = B.add b iv (i32_const 1) in
  B.add_phi_incoming iv (next, loop);
  let c = B.icmp b Islt next (i32_const 10) in
  B.cond_br b c loop exit;
  B.set_insertion_point b exit;
  B.ret b (Some next);
  match Verifier.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid IR rejected:\n%s" e

let test_printer () =
  let m, f, entry = fresh_fn ~name:"compute" ~ret:I32 () in
  let b = B.create () in
  B.set_insertion_point b entry;
  let p = B.alloca b ~name:"slot" I32 in
  B.store b (i32_const 11) ~ptr:p;
  let v = B.load b ~name:"v" I32 p in
  let r = B.call b ~ret:I32 (Runtime "omp_get_num_threads") [] in
  let sum = B.add b ~name:"sum" v r in
  B.ret b (Some sum);
  ignore f;
  let text = Printer.module_to_string m in
  check_contains ~what:"define" text "define i32 @compute()";
  check_contains ~what:"alloca" text "%slot = alloca i32";
  check_contains ~what:"store" text "store i32 11, ptr %slot";
  check_contains ~what:"load" text "%v = load i32, ptr %slot";
  check_contains ~what:"call" text "call i32 @omp_get_num_threads()";
  check_contains ~what:"ret" text "ret i32 %sum";
  (* Loop metadata rendering. *)
  entry.b_loop_md <- { entry.b_loop_md with md_unroll = Some (Unroll_count 4) };
  let text2 = Printer.module_to_string m in
  check_contains ~what:"md" text2 "!llvm.loop !{llvm.loop.unroll.count(4)}"

let test_successors_predecessors () =
  let _, f, entry = fresh_fn () in
  let a = create_block ~name:"a" f in
  let bb = create_block ~name:"b" f in
  let b = B.create ~fold:false () in
  B.set_insertion_point b entry;
  let c = B.icmp b Ieq (i32_const 1) (i32_const 1) in
  B.cond_br b c a bb;
  a.b_term <- Ret None;
  bb.b_term <- Ret None;
  Alcotest.(check int) "two successors" 2 (List.length (successors entry));
  Alcotest.(check int) "a preds" 1 (List.length (preds (pred_index f) a));
  (* Same-target cond_br counts once. *)
  entry.b_term <- Cond_br (c, a, a);
  Alcotest.(check int) "merged successor" 1 (List.length (successors entry))

let suite =
  [
    tc "builder constant folding" test_builder_constant_folding;
    tc "builder algebraic identities" test_builder_identities;
    tc "folding can be disabled (A4)" test_folding_disabled;
    tc "constant cond_br folds" test_cond_br_folding;
    tc "verifier rejects malformed IR" test_verifier_catches_issues;
    tc "verifier accepts a loop" test_verifier_accepts_valid;
    tc "printer output" test_printer;
    tc "CFG successors/predecessors" test_successors_predecessors;
  ]
