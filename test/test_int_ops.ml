(* Unit and property tests for the fixed-width arithmetic shared by Sema's
   constant evaluator, the IRBuilder's folding, and the interpreter. *)

open Helpers
module I = Mc_support.Int_ops

let widths = [ I.i8; I.i16; I.i32; I.i64; I.u8; I.u16; I.u32; I.u64 ]

let arb_width = QCheck.oneofl widths
let arb_pair = QCheck.(pair arb_width (pair int64 int64))

let test_truncate_basics () =
  Alcotest.(check int64) "i8 wrap" (-128L) (I.truncate I.i8 128L);
  Alcotest.(check int64) "u8 wrap" 255L (I.truncate I.u8 (-1L));
  Alcotest.(check int64) "i32 id" 12345L (I.truncate I.i32 12345L);
  Alcotest.(check int64) "i32 sign" (-2147483648L) (I.truncate I.i32 0x80000000L);
  Alcotest.(check int64) "u32 keeps" 4294967295L (I.truncate I.u32 (-1L))

let test_min_max () =
  Alcotest.(check int64) "i8 min" (-128L) (I.min_value I.i8);
  Alcotest.(check int64) "i8 max" 127L (I.max_value I.i8);
  Alcotest.(check int64) "u8 min" 0L (I.min_value I.u8);
  Alcotest.(check int64) "u8 max" 255L (I.max_value I.u8);
  Alcotest.(check int64) "i64 min" Int64.min_int (I.min_value I.i64);
  Alcotest.(check int64) "i64 max" Int64.max_int (I.max_value I.i64)

let test_div_rem_edges () =
  Alcotest.(check (option int64)) "div by zero" None (I.div I.i32 5L 0L);
  Alcotest.(check (option int64)) "rem by zero" None (I.rem I.i32 5L 0L);
  Alcotest.(check (option int64))
    "INT_MIN / -1 overflows" None
    (I.div I.i32 (I.min_value I.i32) (-1L));
  Alcotest.(check (option int64)) "trunc toward zero" (Some (-2L)) (I.div I.i32 (-7L) 3L);
  Alcotest.(check (option int64)) "rem sign" (Some (-1L)) (I.rem I.i32 (-7L) 3L);
  (* u32: -1 is 4294967295 *)
  Alcotest.(check (option int64)) "unsigned div" (Some 2147483647L)
    (I.div I.u32 (I.truncate I.u32 (-1L)) 2L)

(* An unsigned operand carried sign-extended (the interpreter's and the
   IR builder's form of a negated [unsigned int]) divides as its low
   bits: (unsigned)-7 is 4294967289. *)
let test_div_rem_read_the_width () =
  let check what expected got =
    Alcotest.(check (option int64)) what (Some expected) got
  in
  check "u32 div" 2147483644L (I.div I.u32 (-7L) 2L);
  check "u32 rem" 4L (I.rem I.u32 (-7L) 7L);
  check "u32 div, canonical operand" 2147483644L
    (I.div I.u32 (I.truncate I.u32 (-7L)) 2L);
  check "u8 div" 124L (I.div I.u8 (-7L) 2L);
  check "u16 rem" 2L (I.rem I.u16 (-7L) 7L);
  check "i32 div, zero-extended operand" (-3L) (I.div I.i32 0xFFFFFFF9L 2L);
  Alcotest.(check (option int64)) "u32 divisor of 2^32 is zero" None
    (I.div I.u32 7L 0x100000000L)

(* The same values through each caller: the interpreter (-O0 without
   folding), the IR builder's folding (constant operands), the -O1
   passes, and Sema's constant evaluator (case labels). *)
let test_unsigned_div_rem_end_to_end () =
  let source =
    "void record(long x);\n\
     long pick(long v) {\n\
     switch (v) { case -7u / 2: return 1; case -7u % 7: return 2; }\n\
     return 0; }\n\
     int main(void) {\n\
     unsigned int u = 7;\n\
     record(-u / 2); record(-u % 7);\n\
     record(-7u / 2); record(-7u % 7);\n\
     record(pick(2147483644)); record(pick(4));\n\
     return 0; }"
  in
  List.iter
    (fun (what, options) ->
      Alcotest.(check (list int64)) what
        [ 2147483644L; 4L; 2147483644L; 4L; 1L; 2L ]
        (List.map
           (function Mc_interp.Interp.T_int v -> v | T_float _ -> 0L)
           (trace_of ~options source)))
    [
      ("classic -O0 no-fold", { (o0 classic) with Driver.fold = false });
      ("classic -O0", o0 classic);
      ("classic -O1", classic);
      ("irbuilder -O0 no-fold", { (o0 irbuilder) with Driver.fold = false });
      ("irbuilder -O1", irbuilder);
    ]

let test_shifts () =
  Alcotest.(check int64) "shl wraps width" 2L (I.shl I.i32 1L 33L);
  Alcotest.(check int64) "ashr sign" (-1L) (I.shr I.i32 (-2L) 1L);
  Alcotest.(check int64) "lshr unsigned" 2147483647L
    (I.shr I.u32 (I.truncate I.u32 (-1L)) 1L)

let test_to_string () =
  Alcotest.(check string) "u32 max" "4294967295" (I.to_string I.u32 (-1L));
  Alcotest.(check string) "i32" "-1" (I.to_string I.i32 (-1L));
  Alcotest.(check string) "u64 max" "18446744073709551615" (I.to_string I.u64 (-1L))

let test_convert () =
  Alcotest.(check int64) "sext i8->i32" (-1L)
    (I.convert ~from:I.i8 ~into:I.i32 (-1L));
  Alcotest.(check int64) "zext u8->i32" 255L
    (I.convert ~from:I.u8 ~into:I.i32 (I.truncate I.u8 (-1L)));
  Alcotest.(check int64) "trunc i32->u8" 255L
    (I.convert ~from:I.i32 ~into:I.u8 (-1L))

let props =
  [
    prop "truncate is idempotent" arb_pair (fun (w, (a, _)) ->
        let t = I.truncate w a in
        Int64.equal (I.truncate w t) t);
    prop "truncated values are in range" arb_pair (fun (w, (a, _)) ->
        I.in_range w (I.truncate w a));
    prop "add is commutative" arb_pair (fun (w, (a, b)) ->
        let a = I.truncate w a and b = I.truncate w b in
        Int64.equal (I.add w a b) (I.add w b a));
    prop "sub undoes add" arb_pair (fun (w, (a, b)) ->
        let a = I.truncate w a and b = I.truncate w b in
        Int64.equal (I.sub w (I.add w a b) b) a);
    prop "neg is sub from zero" arb_pair (fun (w, (a, _)) ->
        let a = I.truncate w a in
        Int64.equal (I.neg w a) (I.sub w 0L a));
    prop "bit_not involutive" arb_pair (fun (w, (a, _)) ->
        let a = I.truncate w a in
        Int64.equal (I.bit_not w (I.bit_not w a)) a);
    prop "div*b + rem = a (when defined)" arb_pair (fun (w, (a, b)) ->
        let a = I.truncate w a and b = I.truncate w b in
        match (I.div w a b, I.rem w a b) with
        | Some q, Some r -> Int64.equal (I.add w (I.mul w q b) r) a
        | _ -> true);
    prop "lt is irreflexive and asymmetric" arb_pair (fun (w, (a, b)) ->
        let a = I.truncate w a and b = I.truncate w b in
        (not (I.lt w a a)) && not (I.lt w a b && I.lt w b a));
    prop "le = lt or eq" arb_pair (fun (w, (a, b)) ->
        let a = I.truncate w a and b = I.truncate w b in
        Bool.equal (I.le w a b) (I.lt w a b || Int64.equal a b));
    prop "convert widening preserves order" QCheck.(pair int64 int64)
      (fun (a, b) ->
        let a = I.truncate I.i32 a and b = I.truncate I.i32 b in
        let a64 = I.convert ~from:I.i32 ~into:I.i64 a in
        let b64 = I.convert ~from:I.i32 ~into:I.i64 b in
        Bool.equal (I.lt I.i32 a b) (I.lt I.i64 a64 b64));
    prop "to_string round-trips through Int64.of_string" arb_pair
      (fun (w, (a, _)) ->
        let a = I.truncate w a in
        let s = I.to_string w a in
        let parsed =
          if w.I.signed then Int64.of_string s
          else I.truncate w (Int64.of_string ("0u" ^ s))
        in
        Int64.equal parsed a);
  ]

let suite =
  [
    tc "truncate basics" test_truncate_basics;
    tc "min/max values" test_min_max;
    tc "division edge cases" test_div_rem_edges;
    tc "division reads its operands at the width" test_div_rem_read_the_width;
    tc "unsigned division agrees in every caller"
      test_unsigned_div_rem_end_to_end;
    tc "shifts" test_shifts;
    tc "to_string signedness" test_to_string;
    tc "conversions" test_convert;
  ]
  @ props
