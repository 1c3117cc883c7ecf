open Mc_ast.Tree
module Ctype = Mc_ast.Ctype
module Int_ops = Mc_support.Int_ops
module Ir = Mc_ir.Ir
module B = Mc_ir.Builder
module Ob = Mc_ompbuilder.Omp_builder
module Cli = Mc_ompbuilder.Cli

type mode = Classic | Irbuilder

(* Unique ids for dynamic-dispatch worksharing sites (classic path).
   Domain-local and reset per compilation (see [reset_gensym]) so the
   emitted IR is deterministic under parallel batch compilation. *)
let dispatch_site_counter : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 1000)

let reset_gensym () = Domain.DLS.get dispatch_site_counter := 1000

exception Unsupported of string

let stat_fns =
  Mc_support.Stats.counter ~group:"codegen" ~name:"functions-emitted"
    ~desc:"function bodies lowered to IR" ()
let stat_insts_classic =
  Mc_support.Stats.counter ~group:"codegen" ~name:"ir-instructions-classic"
    ~desc:"IR instructions emitted by the classic (shadow-AST) path" ()
let stat_insts_irbuilder =
  Mc_support.Stats.counter ~group:"codegen" ~name:"ir-instructions-irbuilder"
    ~desc:"IR instructions emitted by the OpenMPIRBuilder path" ()

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type ctx = {
  m : Ir.modul;
  mode : mode;
  b : B.t;
  fn_map : (int, Ir.func) Hashtbl.t; (* AST fn id -> IR func *)
  mutable env : (int, Ir.value) Hashtbl.t; (* var id -> address value *)
  mutable entry : Ir.block option; (* alloca insertion block *)
  mutable break_targets : Ir.block list;
  mutable continue_targets : Ir.block list;
  mutable cur_fn : Ir.func option;
  (* Innermost-first switch contexts: case destinations collected while the
     body is emitted, resolved into a compare chain afterwards. *)
  mutable switch_cases : (int64 * Ir.block) list ref list;
  mutable switch_defaults : Ir.block option ref list;
}

let rec scalar_ty cty =
  match cty with
  | Void -> Ir.Void
  | Bool -> Ir.I8
  | Int { Int_ops.bits = 8; _ } -> Ir.I8
  | Int { Int_ops.bits = 16; _ } -> Ir.I16
  | Int { Int_ops.bits = 32; _ } -> Ir.I32
  | Int { Int_ops.bits = 64; _ } -> Ir.I64
  | Int _ -> unsupported "odd integer width"
  | Float 32 -> Ir.F32
  | Float _ -> Ir.F64
  | Ptr _ | Func _ -> Ir.Ptr
  | Array (elem, _) -> scalar_ty elem
(* arrays appear only via their decayed element accesses *)

let is_signed_cty = function
  | Int { Int_ops.signed; _ } -> signed
  | Bool -> false
  | _ -> true

(* Storage shape of a declared variable: ultimate scalar element + count. *)
let rec storage_shape cty =
  match cty with
  | Array (elem, Some n) ->
    let ty, count = storage_shape elem in
    (ty, n * count)
  | Array (_, None) -> unsupported "array of unknown bound"
  | _ -> (scalar_ty cty, 1)

let current_function ctx =
  match ctx.cur_fn with
  | Some f -> f
  | None -> unsupported "emission outside a function"

(* Allocas go to the function entry block so loops do not grow the stack. *)
let alloca_entry ctx ?(count = 1) ~name elt_ty =
  match ctx.entry with
  | None -> unsupported "no entry block for alloca"
  | Some entry ->
    let inst = Ir.mk_inst ~name ~ty:Ir.Ptr (Ir.Alloca { elt_ty; count }) in
    Ir.append_inst entry inst;
    Ir.Inst_ref inst

let declare_var ctx (v : var) =
  let elt_ty, count = storage_shape v.v_ty in
  let addr = alloca_entry ctx ~count ~name:v.v_name elt_ty in
  Hashtbl.replace ctx.env v.v_id addr;
  addr

let var_addr ctx (v : var) =
  match Hashtbl.find_opt ctx.env v.v_id with
  | Some a -> a
  | None ->
    (* Locals are declared before use by construction; synthesised helper
       variables may be first seen here. *)
    declare_var ctx v

let new_block ctx name = Ir.create_block ~name (current_function ctx)

let int_const cty v =
  let w =
    Option.value (Ctype.int_width cty) ~default:Int_ops.i64
  in
  (* IR constants are canonical in sign-extended form. *)
  Ir.Const_int
    (scalar_ty cty, Int_ops.truncate { w with Int_ops.signed = true } v)

let byte_size cty = Ctype.size_in_bytes cty

(* ---- scalar conversions -------------------------------------------------- *)

let cast_int ctx ~from_cty ~to_cty v =
  let from_ir = scalar_ty from_cty and to_ir = scalar_ty to_cty in
  if from_ir = to_ir then v
  else begin
    let from_bits = Ir.ty_size_in_bytes from_ir * 8 in
    let to_bits = Ir.ty_size_in_bytes to_ir * 8 in
    if to_bits < from_bits then B.cast ctx.b Ir.Trunc v to_ir
    else if is_signed_cty from_cty && from_cty <> Bool then
      B.cast ctx.b Ir.Sext v to_ir
    else B.cast ctx.b Ir.Zext v to_ir
  end

let to_bool_i1 ctx cty v =
  match cty with
  | Float _ -> B.fcmp ctx.b Ir.Fone v (Ir.Const_float (scalar_ty cty, 0.0))
  | Ptr _ -> unsupported "pointer used as a boolean"
  | _ -> B.icmp ctx.b Ir.Ine v (Ir.Const_int (scalar_ty cty, 0L))

(* ---- expressions ----------------------------------------------------------- *)

let rec emit_lvalue ctx e : Ir.value =
  match e.e_kind with
  | Decl_ref v -> var_addr ctx v
  | Paren inner -> emit_lvalue ctx inner
  | Subscript (base, index) ->
    let base_v = emit_rvalue ctx base in
    let idx = emit_rvalue ctx index in
    let idx = cast_int ctx ~from_cty:index.e_ty ~to_cty:Ctype.long_t idx in
    let off = B.mul ctx.b idx (Ir.i64_const (byte_size e.e_ty)) in
    B.gep ctx.b ~elt_ty:Ir.I8 base_v off
  | Unary (U_deref, p) -> emit_rvalue ctx p
  | String_lit _ -> unsupported "string literals at runtime"
  | _ -> unsupported "expression is not an lvalue in codegen"

and emit_rvalue ctx e : Ir.value =
  match e.e_kind with
  | Int_lit v -> int_const e.e_ty v
  | Float_lit f -> Ir.Const_float (scalar_ty e.e_ty, f)
  | String_lit _ -> unsupported "string literals at runtime"
  | Paren inner -> emit_rvalue ctx inner
  | Fn_ref fn -> Ir.Fn_addr (ir_function ctx fn)
  | Decl_ref _ | Subscript _ ->
    (* A bare lvalue used as a value (synthesised helper expressions omit
       the explicit LValueToRValue node). *)
    B.load ctx.b (scalar_ty e.e_ty) (emit_lvalue ctx e)
  | Implicit_cast (ck, inner) -> emit_cast ctx ck inner e.e_ty
  | C_style_cast (ty, inner) -> emit_explicit_cast ctx inner ty
  | Sizeof_type ty -> int_const e.e_ty (Int64.of_int (byte_size ty))
  | Unary (op, operand) -> emit_unary ctx op operand e
  | Binary (op, lhs, rhs) -> emit_binary ctx op lhs rhs e
  | Assign (op, lhs, rhs) -> emit_assign ctx op lhs rhs
  | Conditional (c, a, b) -> emit_conditional ctx c a b e.e_ty
  | Call (callee, args) -> emit_call ctx callee args e.e_ty
  | Recovery_expr _ ->
    unsupported "expression contains errors; code generation unavailable"

and ir_function ctx fn =
  match Hashtbl.find_opt ctx.fn_map fn.fn_id with
  | Some f -> f
  | None ->
    let args =
      List.map (fun p -> Ir.mk_arg ~name:p.v_name ~ty:(scalar_ty p.v_ty)) fn.fn_params
    in
    let f =
      Ir.declare_function ctx.m ~name:fn.fn_name ~ret:(scalar_ty fn.fn_ty.ft_ret)
        ~args
    in
    Hashtbl.replace ctx.fn_map fn.fn_id f;
    f

and emit_cast ctx ck inner target_cty =
  match ck with
  | CK_lvalue_to_rvalue ->
    B.load ctx.b (scalar_ty target_cty) (emit_lvalue ctx inner)
  | CK_array_to_pointer -> emit_lvalue ctx inner
  | CK_pointer -> emit_rvalue ctx inner
  | CK_integral ->
    cast_int ctx ~from_cty:inner.e_ty ~to_cty:target_cty (emit_rvalue ctx inner)
  | CK_integral_to_floating ->
    let v = emit_rvalue ctx inner in
    let op = if is_signed_cty inner.e_ty then Ir.Sitofp else Ir.Uitofp in
    B.cast ctx.b op v (scalar_ty target_cty)
  | CK_floating_to_integral ->
    let v = emit_rvalue ctx inner in
    let op = if is_signed_cty target_cty then Ir.Fptosi else Ir.Fptoui in
    B.cast ctx.b op v (scalar_ty target_cty)
  | CK_floating ->
    let v = emit_rvalue ctx inner in
    let op =
      if scalar_ty target_cty = Ir.F64 then Ir.Fpext else Ir.Fptrunc
    in
    B.cast ctx.b op v (scalar_ty target_cty)
  | CK_int_to_bool ->
    let v = emit_rvalue ctx inner in
    B.cast ctx.b Ir.Zext (to_bool_i1 ctx inner.e_ty v) Ir.I8
  | CK_float_to_bool ->
    let v = emit_rvalue ctx inner in
    B.cast ctx.b Ir.Zext (to_bool_i1 ctx inner.e_ty v) Ir.I8

and emit_explicit_cast ctx inner target =
  match (inner.e_ty, target) with
  | _, Void ->
    ignore (emit_rvalue ctx inner);
    Ir.Undef Ir.I32
  | (Int _ | Bool), (Int _ | Bool) ->
    cast_int ctx ~from_cty:inner.e_ty ~to_cty:target (emit_rvalue ctx inner)
  | (Int _ | Bool), Float _ -> emit_cast ctx CK_integral_to_floating inner target
  | Float _, (Int _ | Bool) -> emit_cast ctx CK_floating_to_integral inner target
  | Float _, Float _ -> emit_cast ctx CK_floating inner target
  | Ptr _, Ptr _ -> emit_rvalue ctx inner
  | Ptr _, Int _ | Int _, Ptr _ -> unsupported "pointer/integer casts"
  | _ -> unsupported "unsupported cast"

and emit_unary ctx op operand e =
  match op with
  | U_plus -> emit_rvalue ctx operand
  | U_minus ->
    let v = emit_rvalue ctx operand in
    (match operand.e_ty with
    | Float _ -> B.fsub ctx.b (Ir.Const_float (scalar_ty operand.e_ty, 0.0)) v
    | cty -> B.sub ctx.b (Ir.Const_int (scalar_ty cty, 0L)) v)
  | U_bnot ->
    let v = emit_rvalue ctx operand in
    B.xor ctx.b v (Ir.Const_int (scalar_ty operand.e_ty, -1L))
  | U_lnot ->
    let v = emit_rvalue ctx operand in
    let b1 = to_bool_i1 ctx operand.e_ty v in
    let inverted = B.xor ctx.b b1 (Ir.bool_const true) in
    B.cast ctx.b Ir.Zext inverted Ir.I32
  | U_preinc | U_predec | U_postinc | U_postdec -> (
    let addr = emit_lvalue ctx operand in
    let cty = operand.e_ty in
    let old = B.load ctx.b (scalar_ty cty) addr in
    let bump = match op with U_preinc | U_postinc -> 1L | _ -> -1L in
    let updated =
      match cty with
      | Ptr elem ->
        B.gep ctx.b ~elt_ty:Ir.I8 old
          (Ir.i64_const (Int64.to_int bump * Ctype.size_in_bytes elem))
      | Float _ ->
        B.fadd ctx.b old (Ir.Const_float (scalar_ty cty, Int64.to_float bump))
      | _ -> B.add ctx.b old (Ir.Const_int (scalar_ty cty, bump))
    in
    B.store ctx.b updated ~ptr:addr;
    match op with U_preinc | U_predec -> updated | _ -> old)
  | U_deref -> B.load ctx.b (scalar_ty e.e_ty) (emit_rvalue ctx operand)
  | U_addrof -> emit_lvalue ctx operand

and binop_ir op cty =
  let signed = is_signed_cty cty in
  let float = Ctype.is_floating cty in
  match op with
  | B_add -> if float then Ir.Fadd else Ir.Add
  | B_sub -> if float then Ir.Fsub else Ir.Sub
  | B_mul -> if float then Ir.Fmul else Ir.Mul
  | B_div -> if float then Ir.Fdiv else if signed then Ir.Sdiv else Ir.Udiv
  | B_rem -> if float then Ir.Frem else if signed then Ir.Srem else Ir.Urem
  | B_shl -> Ir.Shl
  | B_shr -> if signed then Ir.Ashr else Ir.Lshr
  | B_band -> Ir.And
  | B_bor -> Ir.Or
  | B_bxor -> Ir.Xor
  | _ -> unsupported "not an arithmetic operator"

and cmp_ir op cty =
  let signed = is_signed_cty cty in
  match op with
  | B_lt -> if signed then Ir.Islt else Ir.Iult
  | B_le -> if signed then Ir.Isle else Ir.Iule
  | B_gt -> if signed then Ir.Isgt else Ir.Iugt
  | B_ge -> if signed then Ir.Isge else Ir.Iuge
  | B_eq -> Ir.Ieq
  | B_ne -> Ir.Ine
  | _ -> unsupported "not a comparison"

and fcmp_ir = function
  | B_lt -> Ir.Folt
  | B_le -> Ir.Fole
  | B_gt -> Ir.Fogt
  | B_ge -> Ir.Foge
  | B_eq -> Ir.Foeq
  | B_ne -> Ir.Fone
  | _ -> unsupported "not a comparison"

and emit_binary ctx op lhs rhs e =
  match op with
  | B_land | B_lor -> emit_logical ctx op lhs rhs
  | B_comma ->
    ignore (emit_rvalue ctx lhs);
    emit_rvalue ctx rhs
  | B_lt | B_le | B_gt | B_ge | B_eq | B_ne ->
    let l = emit_rvalue ctx lhs and r = emit_rvalue ctx rhs in
    let c =
      match lhs.e_ty with
      | Float _ -> B.fcmp ctx.b (fcmp_ir op) l r
      | _ -> B.icmp ctx.b (cmp_ir op lhs.e_ty) l r
    in
    B.cast ctx.b Ir.Zext c Ir.I32
  | B_add | B_sub when Ctype.is_pointer lhs.e_ty || Ctype.is_pointer rhs.e_ty
    -> (
    let elem_size cty =
      match Ctype.element_type cty with
      | Some elem -> Ctype.size_in_bytes elem
      | None -> 1
    in
    match (lhs.e_ty, rhs.e_ty, op) with
    | Ptr _, Ptr _, B_sub ->
      let l = emit_rvalue ctx lhs and r = emit_rvalue ctx rhs in
      let diff = B.ptr_diff ctx.b l r in
      B.sdiv ctx.b diff (Ir.i64_const (elem_size lhs.e_ty))
    | Ptr _, _, _ ->
      let l = emit_rvalue ctx lhs and r = emit_rvalue ctx rhs in
      let idx = cast_int ctx ~from_cty:rhs.e_ty ~to_cty:Ctype.long_t r in
      let off = B.mul ctx.b idx (Ir.i64_const (elem_size lhs.e_ty)) in
      let off = if op = B_sub then B.sub ctx.b (Ir.i64_const 0) off else off in
      B.gep ctx.b ~elt_ty:Ir.I8 l off
    | _, Ptr _, B_add ->
      let l = emit_rvalue ctx lhs and r = emit_rvalue ctx rhs in
      let idx = cast_int ctx ~from_cty:lhs.e_ty ~to_cty:Ctype.long_t l in
      let off = B.mul ctx.b idx (Ir.i64_const (elem_size rhs.e_ty)) in
      B.gep ctx.b ~elt_ty:Ir.I8 r off
    | _ -> unsupported "invalid pointer arithmetic")
  | B_shl | B_shr ->
    let l = emit_rvalue ctx lhs in
    let r = emit_rvalue ctx rhs in
    let r = cast_int ctx ~from_cty:rhs.e_ty ~to_cty:lhs.e_ty r in
    B.binop ctx.b (binop_ir op lhs.e_ty) l r
  | _ ->
    let l = emit_rvalue ctx lhs and r = emit_rvalue ctx rhs in
    ignore e;
    B.binop ctx.b (binop_ir op lhs.e_ty) l r

and emit_logical ctx op lhs rhs =
  let f = current_function ctx in
  let rhs_block = Ir.create_block ~name:"land.rhs" f in
  let merge = Ir.create_block ~name:"land.end" f in
  let l = emit_rvalue ctx lhs in
  let lb = to_bool_i1 ctx lhs.e_ty l in
  let from_lhs = B.insertion_block ctx.b in
  (match op with
  | B_land -> B.cond_br ctx.b lb rhs_block merge
  | B_lor -> B.cond_br ctx.b lb merge rhs_block
  | _ -> assert false);
  B.set_insertion_point ctx.b rhs_block;
  let r = emit_rvalue ctx rhs in
  let rb = to_bool_i1 ctx rhs.e_ty r in
  let r32 = B.cast ctx.b Ir.Zext rb Ir.I32 in
  let from_rhs = B.insertion_block ctx.b in
  B.br ctx.b merge;
  B.set_insertion_point ctx.b merge;
  let short_circuit = Ir.i32_const (if op = B_land then 0 else 1) in
  (* The short-circuit edge may have been folded away. *)
  if List.memq merge (Ir.successors from_lhs) && not (from_lhs == from_rhs)
  then B.phi ctx.b Ir.I32 [ (short_circuit, from_lhs); (r32, from_rhs) ]
  else r32

and emit_assign ctx op lhs rhs =
  let addr = emit_lvalue ctx lhs in
  match op with
  | None ->
    let v = emit_rvalue ctx rhs in
    B.store ctx.b v ~ptr:addr;
    v
  | Some bop -> (
    match (lhs.e_ty, bop) with
    | Ptr elem, (B_add | B_sub) ->
      let old = B.load ctx.b Ir.Ptr addr in
      let idx = emit_rvalue ctx rhs in
      let idx = cast_int ctx ~from_cty:rhs.e_ty ~to_cty:Ctype.long_t idx in
      let off = B.mul ctx.b idx (Ir.i64_const (Ctype.size_in_bytes elem)) in
      let off = if bop = B_sub then B.sub ctx.b (Ir.i64_const 0) off else off in
      let updated = B.gep ctx.b ~elt_ty:Ir.I8 old off in
      B.store ctx.b updated ~ptr:addr;
      updated
    | _ ->
      let common =
        match Ctype.common_arithmetic lhs.e_ty rhs.e_ty with
        | Some c -> c
        | None -> lhs.e_ty
      in
      let old = B.load ctx.b (scalar_ty lhs.e_ty) addr in
      let widened = convert_arith ctx ~from_cty:lhs.e_ty ~to_cty:common old in
      let r = emit_rvalue ctx rhs in
      let r = convert_arith ctx ~from_cty:rhs.e_ty ~to_cty:common r in
      let computed = B.binop ctx.b (binop_ir bop common) widened r in
      let narrowed = convert_arith ctx ~from_cty:common ~to_cty:lhs.e_ty computed in
      B.store ctx.b narrowed ~ptr:addr;
      narrowed)

and convert_arith ctx ~from_cty ~to_cty v =
  if Ctype.equal from_cty to_cty then v
  else
    match (from_cty, to_cty) with
    | (Int _ | Bool), (Int _ | Bool) -> cast_int ctx ~from_cty ~to_cty v
    | (Int _ | Bool), Float _ ->
      B.cast ctx.b
        (if is_signed_cty from_cty then Ir.Sitofp else Ir.Uitofp)
        v (scalar_ty to_cty)
    | Float _, (Int _ | Bool) ->
      B.cast ctx.b
        (if is_signed_cty to_cty then Ir.Fptosi else Ir.Fptoui)
        v (scalar_ty to_cty)
    | Float _, Float _ ->
      B.cast ctx.b
        (if scalar_ty to_cty = Ir.F64 then Ir.Fpext else Ir.Fptrunc)
        v (scalar_ty to_cty)
    | _ -> v

and emit_conditional ctx c a bexp ty =
  let f = current_function ctx in
  let then_b = Ir.create_block ~name:"cond.then" f in
  let else_b = Ir.create_block ~name:"cond.else" f in
  let merge = Ir.create_block ~name:"cond.end" f in
  let cv = emit_rvalue ctx c in
  B.cond_br ctx.b (to_bool_i1 ctx c.e_ty cv) then_b else_b;
  B.set_insertion_point ctx.b then_b;
  let av = emit_rvalue ctx a in
  let then_end = B.insertion_block ctx.b in
  B.br ctx.b merge;
  B.set_insertion_point ctx.b else_b;
  let bv = emit_rvalue ctx bexp in
  let else_end = B.insertion_block ctx.b in
  B.br ctx.b merge;
  B.set_insertion_point ctx.b merge;
  if scalar_ty ty = Ir.Void then Ir.Undef Ir.I32
  else B.phi ctx.b (scalar_ty ty) [ (av, then_end); (bv, else_end) ]

and emit_call ctx callee args ret_cty =
  let rec strip e =
    match e.e_kind with
    | Paren inner | Implicit_cast (_, inner) -> strip inner
    | _ -> e
  in
  let args_v = List.map (emit_rvalue ctx) args in
  match (strip callee).e_kind with
  | Fn_ref fn ->
    let target =
      if fn.fn_builtin then Ir.Runtime fn.fn_name
      else Ir.Direct (ir_function ctx fn)
    in
    B.call ctx.b ~ret:(scalar_ty ret_cty) target args_v
  | _ -> unsupported "indirect calls"

and emit_condition ctx e =
  (* Comparisons used directly as conditions skip the int round trip
     (zext to i32 then icmp ne 0), as Clang's EmitBranchOnBoolExpr does. *)
  let rec strip e =
    match e.e_kind with
    | Paren inner -> strip inner
    | Implicit_cast ((CK_int_to_bool | CK_integral), inner)
      when (match inner.e_kind with Binary _ -> true | _ -> false) ->
      strip inner
    | _ -> e
  in
  match (strip e).e_kind with
  | Binary (((B_lt | B_le | B_gt | B_ge | B_eq | B_ne) as op), lhs, rhs) -> (
    let l = emit_rvalue ctx lhs and r = emit_rvalue ctx rhs in
    match lhs.e_ty with
    | Float _ -> B.fcmp ctx.b (fcmp_ir op) l r
    | _ -> B.icmp ctx.b (cmp_ir op lhs.e_ty) l r)
  | Binary (B_land, lhs, rhs) ->
    let v = emit_logical ctx B_land lhs rhs in
    to_bool_i1 ctx Ctype.int_t v
  | Binary (B_lor, lhs, rhs) ->
    let v = emit_logical ctx B_lor lhs rhs in
    to_bool_i1 ctx Ctype.int_t v
  | _ ->
    let v = emit_rvalue ctx e in
    to_bool_i1 ctx e.e_ty v

(* ---- statements ------------------------------------------------------------- *)

(* After an unconditional transfer (break/return), emission continues in a
   fresh unreachable block that cleanup passes remove. *)
let start_dead_block ctx name =
  let b = new_block ctx name in
  B.set_insertion_point ctx.b b

let attach_unroll_md latch md =
  latch.Ir.b_loop_md <- { latch.Ir.b_loop_md with Ir.md_unroll = Some md }

let hint_md = function
  | { lh_option = Hint_unroll_enable; _ } -> Ir.Unroll_enable
  | { lh_option = Hint_unroll_full; _ } -> Ir.Unroll_full
  | { lh_option = Hint_unroll_disable; _ } -> Ir.Unroll_disable
  | { lh_option = Hint_unroll_count; lh_value } ->
    Ir.Unroll_count (Option.value lh_value ~default:2)

let rec emit_stmt ctx s =
  (* Stamp the statement's source location onto every instruction this
     lowering creates (see [Ir.mk_inst]); nested statements re-stamp on
     entry, so location granularity is the innermost statement. *)
  Ir.set_emit_loc s.s_loc;
  match s.s_kind with
  | Null_stmt -> ()
  | Compound stmts -> List.iter (emit_stmt ctx) stmts
  | Expr_stmt e -> ignore (emit_rvalue ctx e)
  | Decl_stmt vars ->
    List.iter
      (fun v ->
        let addr = declare_var ctx v in
        match v.v_init with
        | Some init -> B.store ctx.b (emit_rvalue ctx init) ~ptr:addr
        | None -> ())
      vars
  | Switch (cond, body) ->
    let v = emit_rvalue ctx cond in
    let origin = B.insertion_block ctx.b in
    let exit_b = new_block ctx "sw.end" in
    let cases = ref [] in
    let default = ref None in
    ctx.switch_cases <- cases :: ctx.switch_cases;
    ctx.switch_defaults <- default :: ctx.switch_defaults;
    ctx.break_targets <- exit_b :: ctx.break_targets;
    (* Statements before the first label are unreachable, per C. *)
    start_dead_block ctx "sw.body.entry";
    emit_stmt ctx body;
    B.br ctx.b exit_b;
    ctx.switch_cases <- List.tl ctx.switch_cases;
    ctx.switch_defaults <- List.tl ctx.switch_defaults;
    ctx.break_targets <- List.tl ctx.break_targets;
    (* Dispatch: a compare chain from the origin block (Clang emits a
       switch instruction; the chain is its expansion). *)
    B.set_insertion_point ctx.b origin;
    let final_target = Option.value !default ~default:exit_b in
    List.iter
      (fun (value, target) ->
        let next = new_block ctx "sw.check" in
        let cmp =
          B.icmp ctx.b Ir.Ieq v (Ir.Const_int (Ir.value_ty v, value))
        in
        B.cond_br ctx.b cmp target next;
        B.set_insertion_point ctx.b next)
      (List.rev !cases);
    B.br ctx.b final_target;
    B.set_insertion_point ctx.b exit_b
  | Case { case_value; case_body; _ } -> (
    match ctx.switch_cases with
    | cases :: _ ->
      let blk = new_block ctx "sw.case" in
      B.br ctx.b blk (* fallthrough from the previous statement *);
      cases := (case_value, blk) :: !cases;
      B.set_insertion_point ctx.b blk;
      emit_stmt ctx case_body
    | [] -> unsupported "case label outside a switch")
  | Default body -> (
    match ctx.switch_defaults with
    | default :: _ ->
      let blk = new_block ctx "sw.default" in
      B.br ctx.b blk;
      default := Some blk;
      B.set_insertion_point ctx.b blk;
      emit_stmt ctx body
    | [] -> unsupported "default label outside a switch")
  | If (c, then_s, else_s) ->
    let then_b = new_block ctx "if.then" in
    let merge = new_block ctx "if.end" in
    let else_b =
      match else_s with Some _ -> new_block ctx "if.else" | None -> merge
    in
    B.cond_br ctx.b (emit_condition ctx c) then_b else_b;
    B.set_insertion_point ctx.b then_b;
    emit_stmt ctx then_s;
    B.br ctx.b merge;
    (match else_s with
    | Some es ->
      B.set_insertion_point ctx.b else_b;
      emit_stmt ctx es;
      B.br ctx.b merge
    | None -> ());
    B.set_insertion_point ctx.b merge
  | While _ | Do_while _ | For _ | Range_for _ -> ignore (emit_loop_stmt ctx s)
  | Break -> (
    match ctx.break_targets with
    | target :: _ ->
      B.br ctx.b target;
      start_dead_block ctx "after.break"
    | [] -> unsupported "break outside a loop")
  | Continue -> (
    match ctx.continue_targets with
    | target :: _ ->
      B.br ctx.b target;
      start_dead_block ctx "after.continue"
    | [] -> unsupported "continue outside a loop")
  | Return e ->
    (match e with
    | Some e -> B.ret ctx.b (Some (emit_rvalue ctx e))
    | None -> B.ret ctx.b None);
    start_dead_block ctx "after.return"
  | Attributed (attrs, sub) -> (
    match emit_loop_stmt ctx sub with
    | Some latch ->
      List.iter (fun (Loop_hint h) -> attach_unroll_md latch (hint_md h)) attrs
    | None -> ())
  | Captured c -> emit_stmt ctx c.cap_body
  | Omp_canonical_loop ocl ->
    (* Standalone canonical loop (error recovery): emit the literal loop. *)
    ignore (emit_loop_stmt ctx ocl.ocl_loop)
  | Omp_directive d -> emit_omp ctx d
  | Error_stmt _ ->
    unsupported "statement contains errors; code generation unavailable"

(* Emit a plain loop statement; returns the latch block for metadata. *)
and emit_loop_stmt ctx s : Ir.block option =
  match s.s_kind with
  | For { for_init; for_cond; for_inc; for_body } ->
    Option.iter (emit_stmt ctx) for_init;
    let cond_b = new_block ctx "for.cond" in
    let body_b = new_block ctx "for.body" in
    let inc_b = new_block ctx "for.inc" in
    let exit_b = new_block ctx "for.end" in
    B.br ctx.b cond_b;
    B.set_insertion_point ctx.b cond_b;
    (match for_cond with
    | Some c -> B.cond_br ctx.b (emit_condition ctx c) body_b exit_b
    | None -> B.br ctx.b body_b);
    B.set_insertion_point ctx.b body_b;
    ctx.break_targets <- exit_b :: ctx.break_targets;
    ctx.continue_targets <- inc_b :: ctx.continue_targets;
    emit_stmt ctx for_body;
    ctx.break_targets <- List.tl ctx.break_targets;
    ctx.continue_targets <- List.tl ctx.continue_targets;
    B.br ctx.b inc_b;
    B.set_insertion_point ctx.b inc_b;
    Option.iter (fun e -> ignore (emit_rvalue ctx e)) for_inc;
    B.br ctx.b cond_b;
    B.set_insertion_point ctx.b exit_b;
    Some inc_b
  | Range_for rf ->
    (* Direct emission of the Fig. 8 semantics over an array. *)
    let elem_cty, bound =
      match rf.rf_range.e_ty with
      | Array (elem, Some n) -> (elem, n)
      | _ -> unsupported "range-for over a non-array"
    in
    let elem_size = Ctype.size_in_bytes elem_cty in
    let range_addr = emit_lvalue ctx rf.rf_range in
    Hashtbl.replace ctx.env rf.rf_range_var.v_id range_addr;
    let begin_slot = alloca_entry ctx ~name:"__begin" Ir.Ptr in
    Hashtbl.replace ctx.env rf.rf_begin_var.v_id begin_slot;
    B.store ctx.b range_addr ~ptr:begin_slot;
    let end_slot = alloca_entry ctx ~name:"__end" Ir.Ptr in
    Hashtbl.replace ctx.env rf.rf_end_var.v_id end_slot;
    let end_v =
      B.gep ctx.b ~elt_ty:Ir.I8 range_addr (Ir.i64_const (bound * elem_size))
    in
    B.store ctx.b end_v ~ptr:end_slot;
    let cond_b = new_block ctx "rangefor.cond" in
    let body_b = new_block ctx "rangefor.body" in
    let inc_b = new_block ctx "rangefor.inc" in
    let exit_b = new_block ctx "rangefor.end" in
    B.br ctx.b cond_b;
    B.set_insertion_point ctx.b cond_b;
    let cur = B.load ctx.b Ir.Ptr begin_slot in
    let fin = B.load ctx.b Ir.Ptr end_slot in
    let cmp = B.icmp ctx.b Ir.Ine cur fin in
    B.cond_br ctx.b cmp body_b exit_b;
    B.set_insertion_point ctx.b body_b;
    let cur = B.load ctx.b Ir.Ptr begin_slot in
    (if rf.rf_byref then Hashtbl.replace ctx.env rf.rf_var.v_id cur
     else begin
       let copy = alloca_entry ctx ~name:rf.rf_var.v_name (scalar_ty elem_cty) in
       let v = B.load ctx.b (scalar_ty elem_cty) cur in
       B.store ctx.b v ~ptr:copy;
       Hashtbl.replace ctx.env rf.rf_var.v_id copy
     end);
    ctx.break_targets <- exit_b :: ctx.break_targets;
    ctx.continue_targets <- inc_b :: ctx.continue_targets;
    emit_stmt ctx rf.rf_body;
    ctx.break_targets <- List.tl ctx.break_targets;
    ctx.continue_targets <- List.tl ctx.continue_targets;
    B.br ctx.b inc_b;
    B.set_insertion_point ctx.b inc_b;
    let cur = B.load ctx.b Ir.Ptr begin_slot in
    let next = B.gep ctx.b ~elt_ty:Ir.I8 cur (Ir.i64_const elem_size) in
    B.store ctx.b next ~ptr:begin_slot;
    B.br ctx.b cond_b;
    B.set_insertion_point ctx.b exit_b;
    Some inc_b
  | While (c, body) ->
    let cond_b = new_block ctx "while.cond" in
    let body_b = new_block ctx "while.body" in
    let exit_b = new_block ctx "while.end" in
    B.br ctx.b cond_b;
    B.set_insertion_point ctx.b cond_b;
    B.cond_br ctx.b (emit_condition ctx c) body_b exit_b;
    B.set_insertion_point ctx.b body_b;
    ctx.break_targets <- exit_b :: ctx.break_targets;
    ctx.continue_targets <- cond_b :: ctx.continue_targets;
    emit_stmt ctx body;
    ctx.break_targets <- List.tl ctx.break_targets;
    ctx.continue_targets <- List.tl ctx.continue_targets;
    (* The block holding the back edge is the loop's latch. *)
    let latch = B.insertion_block ctx.b in
    B.br ctx.b cond_b;
    B.set_insertion_point ctx.b exit_b;
    Some latch
  | Do_while (body, c) ->
    let body_b = new_block ctx "do.body" in
    let cond_b = new_block ctx "do.cond" in
    let exit_b = new_block ctx "do.end" in
    B.br ctx.b body_b;
    B.set_insertion_point ctx.b body_b;
    ctx.break_targets <- exit_b :: ctx.break_targets;
    ctx.continue_targets <- cond_b :: ctx.continue_targets;
    emit_stmt ctx body;
    ctx.break_targets <- List.tl ctx.break_targets;
    ctx.continue_targets <- List.tl ctx.continue_targets;
    B.br ctx.b cond_b;
    B.set_insertion_point ctx.b cond_b;
    B.cond_br ctx.b (emit_condition ctx c) body_b exit_b;
    B.set_insertion_point ctx.b exit_b;
    Some cond_b
  | Compound [ single ] -> emit_loop_stmt ctx single
  | Attributed (attrs, sub) ->
    let latch = emit_loop_stmt ctx sub in
    Option.iter
      (fun l -> List.iter (fun (Loop_hint h) -> attach_unroll_md l (hint_md h)) attrs)
      latch;
    latch
  | Omp_canonical_loop ocl -> emit_loop_stmt ctx ocl.ocl_loop
  | Omp_directive inner when Mc_ast.Classify.is_loop_transformation inner.dir_kind
    -> (
    (* A nested transformation emitted as a statement: tile materialises
       its transformed AST; unroll defers to the mid-end (paper §2.2). *)
    match inner.dir_transformed with
    | Some tr when inner.dir_kind <> D_unroll ->
      (* tile/reverse/interchange/fuse: materialise the transformed AST. *)
      emit_transformation_preinits ctx inner;
      emit_loop_stmt ctx tr
    | Some tr ->
      (* Standalone unroll with partial: still cheaper to defer via
         metadata on the *original* loop (paper §2.2). *)
      ignore tr;
      emit_deferred_unroll ctx inner
    | None -> emit_deferred_unroll ctx inner)
  | _ ->
    emit_stmt ctx s;
    None

(* A consumed transformation chain's .capture_expr. temporaries must be
   live before the outermost generated loop runs: emit every level's
   preinits, innermost first. *)
and emit_transformation_preinits ctx (d : directive) =
  (match d.dir_assoc with
  | Some assoc -> (
    let rec unwrap s =
      match s.s_kind with Compound [ x ] -> unwrap x | _ -> s
    in
    match (unwrap assoc).s_kind with
    | Omp_directive inner
      when Mc_ast.Classify.is_loop_transformation inner.dir_kind ->
      emit_transformation_preinits ctx inner
    | _ -> ())
  | None -> ());
  Option.iter (emit_stmt ctx) d.dir_preinits

(* Unroll emitted by tagging the underlying loop with metadata. *)
and emit_deferred_unroll ctx d : Ir.block option =
  let md =
    List.find_map
      (function
        | C_full -> Some Ir.Unroll_full
        | C_partial (Some (n, _)) -> Some (Ir.Unroll_count n)
        | C_partial None -> Some (Ir.Unroll_count 2)
        | _ -> None)
      d.dir_clauses
    |> Option.value ~default:Ir.Unroll_enable
  in
  match d.dir_assoc with
  | Some assoc ->
    let latch = emit_loop_stmt ctx assoc in
    Option.iter (fun l -> attach_unroll_md l md) latch;
    latch
  | None -> None

(* ---- OpenMP: shared helpers -------------------------------------------------- *)

and schedule_of clauses =
  List.find_map (function C_schedule (k, c) -> Some (k, c) | _ -> None) clauses

and has_nowait clauses = List.exists (fun c -> c = C_nowait) clauses

and reduction_identity op cty =
  match (op, cty) with
  | Red_add, Float _ -> Ir.Const_float (scalar_ty cty, 0.0)
  | Red_mul, Float _ -> Ir.Const_float (scalar_ty cty, 1.0)
  | Red_min, Float _ -> Ir.Const_float (scalar_ty cty, infinity)
  | Red_max, Float _ -> Ir.Const_float (scalar_ty cty, neg_infinity)
  | Red_add, _ -> int_const cty 0L
  | Red_mul, _ -> int_const cty 1L
  | Red_band, _ -> int_const cty (-1L)
  | Red_bor, _ -> int_const cty 0L
  | Red_min, _ ->
    let w = Option.value (Ctype.int_width cty) ~default:Int_ops.i64 in
    int_const cty (Int_ops.max_value w)
  | Red_max, _ ->
    let w = Option.value (Ctype.int_width cty) ~default:Int_ops.i64 in
    int_const cty (Int_ops.min_value w)

and reduction_combine ctx op cty acc v =
  match (op, cty) with
  | Red_add, Float _ -> B.fadd ctx.b acc v
  | Red_mul, Float _ -> B.fmul ctx.b acc v
  | Red_add, _ -> B.add ctx.b acc v
  | Red_mul, _ -> B.mul ctx.b acc v
  | Red_band, _ -> B.and_ ctx.b acc v
  | Red_bor, _ -> B.or_ ctx.b acc v
  | Red_min, Float _ ->
    let c = B.fcmp ctx.b Ir.Folt acc v in
    B.select ctx.b c acc v
  | Red_max, Float _ ->
    let c = B.fcmp ctx.b Ir.Fogt acc v in
    B.select ctx.b c acc v
  | Red_min, _ ->
    let c =
      B.icmp ctx.b (if is_signed_cty cty then Ir.Islt else Ir.Iult) acc v
    in
    B.select ctx.b c acc v
  | Red_max, _ ->
    let c =
      B.icmp ctx.b (if is_signed_cty cty then Ir.Isgt else Ir.Iugt) acc v
    in
    B.select ctx.b c acc v

(* Applies private/firstprivate/reduction clauses around a region; returns
   the finaliser that writes reductions back. *)
and apply_data_sharing ctx clauses =
  let finalisers = ref [] in
  List.iter
    (function
      | C_private vars ->
        List.iter
          (fun v ->
            let slot = alloca_entry ctx ~name:(v.v_name ^ ".private") (scalar_ty v.v_ty) in
            Hashtbl.replace ctx.env v.v_id slot)
          vars
      | C_firstprivate vars ->
        List.iter
          (fun v ->
            let original = var_addr ctx v in
            let slot =
              alloca_entry ctx ~name:(v.v_name ^ ".firstprivate") (scalar_ty v.v_ty)
            in
            let init = B.load ctx.b (scalar_ty v.v_ty) original in
            B.store ctx.b init ~ptr:slot;
            Hashtbl.replace ctx.env v.v_id slot)
          vars
      | C_reduction (op, vars) ->
        List.iter
          (fun v ->
            let original = var_addr ctx v in
            let slot =
              alloca_entry ctx ~name:(v.v_name ^ ".red") (scalar_ty v.v_ty)
            in
            B.store ctx.b (reduction_identity op v.v_ty) ~ptr:slot;
            Hashtbl.replace ctx.env v.v_id slot;
            finalisers :=
              (fun () ->
                ignore
                  (B.call ctx.b ~ret:Ir.Void (Ir.Runtime "__kmpc_critical") []);
                let shared = B.load ctx.b (scalar_ty v.v_ty) original in
                let local = B.load ctx.b (scalar_ty v.v_ty) slot in
                let combined = reduction_combine ctx op v.v_ty shared local in
                B.store ctx.b combined ~ptr:original;
                ignore
                  (B.call ctx.b ~ret:Ir.Void (Ir.Runtime "__kmpc_end_critical") []))
              :: !finalisers)
          vars
      | _ -> ())
    clauses;
  fun () -> List.iter (fun f -> f ()) (List.rev !finalisers)

(* Runs [body] inside a freshly outlined parallel region. *)
and emit_parallel_region ctx d ~body =
  let cap =
    match d.dir_assoc with
    | Some { s_kind = Captured c; _ } -> c
    | _ -> unsupported "parallel directive without a captured statement"
  in
  let captures = cap.cap_captures @ cap.cap_byval in
  let capture_addrs = List.map (var_addr ctx) captures in
  let num_threads =
    List.find_map
      (function C_num_threads e -> Some (emit_rvalue ctx e) | _ -> None)
      d.dir_clauses
  in
  let if_cond =
    List.find_map
      (function C_if e -> Some (emit_condition ctx e) | _ -> None)
      d.dir_clauses
  in
  let saved_env = ctx.env and saved_entry = ctx.entry in
  let saved_fn = ctx.cur_fn in
  let saved_breaks = ctx.break_targets and saved_conts = ctx.continue_targets in
  Ob.create_parallel ctx.b ctx.m
    ~name:(current_function ctx).Ir.f_name ~num_threads ~if_cond
    ~captures:capture_addrs
    ~body_gen:(fun _b ~get_capture ->
      let outlined_entry = B.insertion_block ctx.b in
      ctx.cur_fn <- outlined_entry.Ir.b_parent;
      ctx.entry <- Some outlined_entry;
      ctx.env <- Hashtbl.copy saved_env;
      ctx.break_targets <- [];
      ctx.continue_targets <- [];
      List.iteri
        (fun i v -> Hashtbl.replace ctx.env v.v_id (get_capture i))
        captures;
      let finalize = apply_data_sharing ctx d.dir_clauses in
      body cap;
      finalize ());
  ctx.env <- saved_env;
  ctx.entry <- saved_entry;
  ctx.cur_fn <- saved_fn;
  ctx.break_targets <- saved_breaks;
  ctx.continue_targets <- saved_conts

(* ---- OpenMP classic: the helper-driven worksharing loop ------------------- *)

(* Walk the associated statement down to the innermost loop body, emitting
   the preinits of any consumed transformations on the way (their
   .capture_expr. temporaries must be live before the generated loops). *)
and collect_nest_body ctx s depth =
  let rec go s depth =
    match s.s_kind with
    | Captured c -> go c.cap_body depth
    | Compound [ single ] -> go single depth
    | Attributed (_, sub) -> go sub depth
    | Omp_directive inner
      when Mc_ast.Classify.is_loop_transformation inner.dir_kind -> (
      Option.iter (emit_stmt ctx) inner.dir_preinits;
      match inner.dir_transformed with
      | Some tr -> go tr depth
      | None -> unsupported "consumed transformation generates no loop")
    | For parts ->
      if depth = 1 then parts.for_body else go parts.for_body (depth - 1)
    | Range_for rf ->
      if depth = 1 then rf.rf_body
      else unsupported "nested range-for in a collapsed nest"
    | _ -> unsupported "malformed loop nest in codegen"
  in
  go s depth

(* The classic OMPLoopDirective emission: everything is steered by the
   shadow loop helpers Sema prepared (paper §1.2/§2). *)
and emit_driven_loop ctx d ~workshare : Ir.block =
  let h =
    match d.dir_loop_helpers with
    | Some h -> h
    | None -> unsupported "loop directive without shadow helpers"
  in
  let body_stmt =
    collect_nest_body ctx (Option.get d.dir_assoc) (List.length h.lhs_loops)
  in
  let declare_with_init v =
    let addr = declare_var ctx v in
    (match v.v_init with
    | Some init -> B.store ctx.b (emit_rvalue ctx init) ~ptr:addr
    | None -> ());
    addr
  in
  List.iter (fun v -> ignore (declare_with_init v)) h.lhs_capture_exprs;
  let iv_addr = declare_with_init h.lhs_iteration_variable in
  ignore iv_addr;
  let lb_addr = declare_with_init h.lhs_lower_bound_variable in
  let ub_addr = declare_with_init h.lhs_upper_bound_variable in
  let stride_addr = declare_with_init h.lhs_stride_variable in
  let islast_addr = declare_with_init h.lhs_is_last_iter_variable in
  ignore (emit_rvalue ctx h.lhs_calc_last_iteration);
  let uty = scalar_ty h.lhs_iteration_variable.v_ty in
  let sched = schedule_of d.dir_clauses in
  let dynamic =
    workshare
    && match sched with
       | Some ((Sched_dynamic | Sched_guided), _) -> true
       | _ -> false
  in
  let chunk_value default =
    match sched with
    | Some (_, Some chunk_e) ->
      let v = emit_rvalue ctx chunk_e in
      cast_int ctx ~from_cty:chunk_e.e_ty ~to_cty:h.lhs_iteration_variable.v_ty v
    | _ -> Ir.Const_int (uty, default)
  in
  (* Zero-trip guard: the logical space is unsigned, so ub = 0-1 would wrap. *)
  let then_b = new_block ctx "omp.precond.then" in
  let end_b = new_block ctx "omp.precond.end" in
  B.cond_br ctx.b (emit_condition ctx h.lhs_precondition) then_b end_b;
  B.set_insertion_point ctx.b then_b;
  (* Dynamic/guided schedules pull [lb, ub] chunks from the runtime queue
     around the inner loop; the static schedule gets its single chunk from
     __kmpc_for_static_init up front. *)
  let dispatch_cond =
    if dynamic then begin
      let sites = Domain.DLS.get dispatch_site_counter in
      incr sites;
      let site = Ir.i32_const !sites in
      let guided =
        match sched with Some (Sched_guided, _) -> true | _ -> false
      in
      let trip = emit_rvalue ctx h.lhs_num_iterations in
      let init_name, next_name =
        if uty = Ir.I64 then ("__kmpc_dispatch_init_8u", "__kmpc_dispatch_next_8u")
        else ("__kmpc_dispatch_init_4u", "__kmpc_dispatch_next_4u")
      in
      ignore
        (B.call ctx.b ~ret:Ir.Void (Ir.Runtime init_name)
           [ site; trip; chunk_value 1L;
             Ir.i32_const (if guided then 3 else 2) ]);
      let dcond = new_block ctx "omp.dispatch.cond" in
      let dbody = new_block ctx "omp.dispatch.body" in
      B.br ctx.b dcond;
      B.set_insertion_point ctx.b dcond;
      let got =
        B.call ctx.b ~ret:Ir.I32 (Ir.Runtime next_name)
          [ site; lb_addr; ub_addr ]
      in
      let more = B.icmp ctx.b Ir.Ine got (Ir.i32_const 0) in
      B.cond_br ctx.b more dbody end_b;
      B.set_insertion_point ctx.b dbody;
      Some dcond
    end
    else begin
      if workshare then begin
        ignore
          (B.call ctx.b ~ret:Ir.Void
             (Ir.Runtime
                (if uty = Ir.I64 then "__kmpc_for_static_init_8u"
                 else "__kmpc_for_static_init_4u"))
             [ islast_addr; lb_addr; ub_addr; stride_addr;
               Ir.Const_int (uty, 1L); chunk_value 0L ]);
        ignore (emit_rvalue ctx h.lhs_ensure_upper_bound)
      end;
      None
    end
  in
  ignore (emit_rvalue ctx h.lhs_init);
  let cond_b = new_block ctx "omp.inner.for.cond" in
  let body_b = new_block ctx "omp.inner.for.body" in
  let inc_b = new_block ctx "omp.inner.for.inc" in
  let exit_b = new_block ctx "omp.inner.for.exit" in
  B.br ctx.b cond_b;
  B.set_insertion_point ctx.b cond_b;
  B.cond_br ctx.b (emit_condition ctx h.lhs_cond) body_b exit_b;
  B.set_insertion_point ctx.b body_b;
  (* Private copies of the loop counters, updated from the logical iv. *)
  List.iter
    (fun pl ->
      let priv = declare_var ctx pl.pl_private_counter in
      Hashtbl.replace ctx.env pl.pl_counter.v_id priv;
      ignore (emit_rvalue ctx pl.pl_counter_update))
    h.lhs_loops;
  emit_stmt ctx body_stmt;
  B.br ctx.b inc_b;
  B.set_insertion_point ctx.b inc_b;
  ignore (emit_rvalue ctx h.lhs_inc);
  B.br ctx.b cond_b;
  B.set_insertion_point ctx.b exit_b;
  (match dispatch_cond with
  | Some dcond ->
    (* Back to the dispatcher for the next chunk. *)
    B.br ctx.b dcond
  | None ->
    if workshare then
      ignore (B.call ctx.b ~ret:Ir.Void (Ir.Runtime "__kmpc_for_static_fini") []);
    B.br ctx.b end_b);
  B.set_insertion_point ctx.b end_b;
  if workshare && not (has_nowait d.dir_clauses) then
    ignore (B.call ctx.b ~ret:Ir.Void (Ir.Runtime "__kmpc_barrier") []);
  inc_b

and simdlen_of clauses =
  List.find_map (function C_simdlen (n, _) -> Some n | _ -> None) clauses

and attach_simd_md latch simdlen =
  latch.Ir.b_loop_md <-
    { latch.Ir.b_loop_md with
      Ir.md_vectorize_width = Some (Option.value simdlen ~default:0) }

and is_simd_kind = function
  | D_simd | D_for_simd | D_parallel_for_simd -> true
  | _ -> false

(* ---- OpenMP irbuilder path -------------------------------------------------- *)

(* Bind the per-iteration state of an OMPCanonicalLoop inside the skeleton
   body: store the logical counter, run the loop-value function, and point
   the user variable's address at the result. *)
and bind_canonical_iteration ctx (ocl : canonical_loop) ~iv =
  let vres, logical =
    match ocl.ocl_loop_value.cap_params with
    | [ a; b ] -> (a, b)
    | _ -> unsupported "malformed loop-value function"
  in
  let lslot = declare_var ctx logical in
  B.store ctx.b iv ~ptr:lslot;
  let vslot = declare_var ctx vres in
  emit_stmt ctx ocl.ocl_loop_value.cap_body;
  let user_var =
    match ocl.ocl_var_ref.e_kind with
    | Decl_ref v -> v
    | _ -> unsupported "malformed user-variable reference"
  in
  match ocl.ocl_loop.s_kind with
  | Range_for rf ->
    let cur = B.load ctx.b Ir.Ptr vslot in
    if rf.rf_byref then Hashtbl.replace ctx.env user_var.v_id cur
    else begin
      let elem_ty = scalar_ty user_var.v_ty in
      let copy = alloca_entry ctx ~name:user_var.v_name elem_ty in
      B.store ctx.b (B.load ctx.b elem_ty cur) ~ptr:copy;
      Hashtbl.replace ctx.env user_var.v_id copy
    end
  | _ -> Hashtbl.replace ctx.env user_var.v_id vslot

(* Emit a canonical loop's trip count by calling its distance function. *)
and emit_distance ctx (ocl : canonical_loop) =
  (match ocl.ocl_loop.s_kind with
  | Range_for rf ->
    (* The helper variables (__range/__begin/__end) feed the distance and
       loop-value expressions. *)
    let range_addr = emit_lvalue ctx rf.rf_range in
    Hashtbl.replace ctx.env rf.rf_range_var.v_id range_addr;
    let bslot = declare_var ctx rf.rf_begin_var in
    (match rf.rf_begin_var.v_init with
    | Some e -> B.store ctx.b (emit_rvalue ctx e) ~ptr:bslot
    | None -> ());
    let eslot = declare_var ctx rf.rf_end_var in
    (match rf.rf_end_var.v_init with
    | Some e -> B.store ctx.b (emit_rvalue ctx e) ~ptr:eslot
    | None -> ())
  | _ -> ());
  let result_var =
    match ocl.ocl_distance.cap_params with
    | [ v ] -> v
    | _ -> unsupported "malformed distance function"
  in
  let rslot = declare_var ctx result_var in
  emit_stmt ctx ocl.ocl_distance.cap_body;
  B.load ctx.b (scalar_ty result_var.v_ty) rslot

and canonical_loop_body (ocl : canonical_loop) =
  match ocl.ocl_loop.s_kind with
  | For parts -> parts.for_body
  | Range_for rf -> rf.rf_body
  | _ -> unsupported "OMPCanonicalLoop does not wrap a loop"

and emit_canonical_loop ctx (ocl : canonical_loop) : Cli.t =
  let tc = emit_distance ctx ocl in
  Ob.create_canonical_loop ctx.b ~trip_count:tc
    ~body_gen:(fun _b iv ->
      bind_canonical_iteration ctx ocl ~iv;
      emit_stmt ctx (canonical_loop_body ocl))
    ()

(* A perfectly nested chain of OMPCanonicalLoops (tile/collapse targets). *)
and collect_canonical_chain s =
  let rec unwrap s =
    match s.s_kind with
    | Compound [ single ] -> unwrap single
    | Captured c -> unwrap c.cap_body
    | _ -> s
  in
  let rec go s acc =
    match (unwrap s).s_kind with
    | Omp_canonical_loop ocl -> (
      let body = canonical_loop_body ocl in
      match (unwrap body).s_kind with
      | Omp_canonical_loop _ -> go body (ocl :: acc)
      | _ -> List.rev (ocl :: acc))
    | _ -> List.rev acc
  in
  go s []

and emit_canonical_nest ctx s depth : Cli.t list =
  let chain = collect_canonical_chain s in
  if List.length chain < depth then
    unsupported "loop nest shallower than the directive requires";
  let chain = List.filteri (fun i _ -> i < depth) chain in
  (* All trip counts first: tile/collapse require them to dominate the
     outermost preheader. *)
  let tcs = List.map (emit_distance ctx) chain in
  let clis = Array.make depth None in
  let rec build i =
    let ocl = List.nth chain i in
    let cli =
      Ob.create_canonical_loop ctx.b ~trip_count:(List.nth tcs i)
        ~body_gen:(fun _b iv ->
          bind_canonical_iteration ctx ocl ~iv;
          if i < depth - 1 then build (i + 1)
          else emit_stmt ctx (canonical_loop_body (List.nth chain (depth - 1))))
        ()
    in
    clis.(i) <- Some cli
  in
  build 0;
  Array.to_list clis |> List.map Option.get

and tile_sizes_of clauses =
  List.find_map (function C_sizes s -> Some (List.map fst s) | _ -> None) clauses

and permutation_of_clauses clauses =
  match
    List.find_map (function C_permutation ps -> Some ps | _ -> None) clauses
  with
  | Some ps -> List.map (fun (p, _) -> p - 1) ps
  | None -> [ 1; 0 ]

(* [#pragma omp fuse] on the irbuilder path: emit every member of the
   loop sequence as a real canonical loop (they chain sequentially, each
   after block entering the next preheader), then hand the handles to
   [Ob.fuse_loops], which performs the block surgery.  Returns the fused
   loop's handle. *)
and emit_fused_loop ctx (d : directive) : Cli.t =
  let members =
    match Option.map (fun s -> s.s_kind) d.dir_assoc with
    | Some (Compound members) -> members
    | _ -> unsupported "fuse without a loop sequence"
  in
  let ocls =
    List.map
      (fun m ->
        let rec unwrap s =
          match s.s_kind with Compound [ x ] -> unwrap x | _ -> s
        in
        match (unwrap m).s_kind with
        | Omp_canonical_loop ocl -> ocl
        | _ -> unsupported "fuse member is not a canonical loop")
      members
  in
  (* All distances first, so every trip count dominates the first member's
     preheader where fuse_loops computes the maximum. *)
  let tcs = List.map (emit_distance ctx) ocls in
  (* Normalise the counter widths to the widest member: fuse_loops
     requires one shared trip-count type. *)
  let widest =
    if List.exists (fun tc -> Ir.value_ty tc = Ir.I64) tcs then Ir.I64 else Ir.I32
  in
  let tcs_w =
    List.map
      (fun tc ->
        if Ir.value_ty tc = widest then tc else B.cast ctx.b Ir.Zext tc widest)
      tcs
  in
  let clis =
    List.mapi
      (fun k ocl ->
        Ob.create_canonical_loop ctx.b
          ~name:(Printf.sprintf "fuse.member.%d" k)
          ~trip_count:(List.nth tcs_w k)
          ~body_gen:(fun _b iv ->
            let iv_k =
              let target = Ir.value_ty (List.nth tcs k) in
              if Ir.value_ty iv = target then iv
              else if target = Ir.I64 then B.cast ctx.b Ir.Zext iv Ir.I64
              else B.cast ctx.b Ir.Trunc iv Ir.I32
            in
            bind_canonical_iteration ctx ocl ~iv:iv_k;
            emit_stmt ctx (canonical_loop_body ocl))
          ())
      ocls
  in
  Ob.fuse_loops ctx.b clis

(* [#pragma omp fission] on the irbuilder path: one canonical loop per
   body statement, sharing a single trip-count value (the dual of
   [emit_fused_loop]). *)
and emit_fission_loops ctx (d : directive) =
  let rec unwrap s =
    match s.s_kind with
    | Compound [ x ] -> unwrap x
    | Captured c -> unwrap c.cap_body
    | _ -> s
  in
  match (unwrap (Option.get d.dir_assoc)).s_kind with
  | Omp_canonical_loop ocl ->
    let tc = emit_distance ctx ocl in
    let members =
      match (canonical_loop_body ocl).s_kind with
      | Compound (_ :: _ as ms) -> ms
      | _ -> [ canonical_loop_body ocl ]
    in
    let bodies =
      List.map
        (fun m _b iv ->
          bind_canonical_iteration ctx ocl ~iv;
          emit_stmt ctx m)
        members
    in
    ignore (Ob.fission_loops ctx.b ~trip_count:tc ~bodies ())
  | _ -> unsupported "fission without a canonical loop"

and partial_factor_of clauses =
  List.find_map
    (function
      | C_partial (Some (n, _)) -> Some n
      | C_partial None -> Some 2 (* paper §2.2 default *)
      | _ -> None)
    clauses

(* Obtain a CanonicalLoopInfo handle for a (possibly transformed) loop. *)
and emit_loop_handle ctx s : Cli.t =
  match s.s_kind with
  | Compound [ single ] -> emit_loop_handle ctx single
  | Captured c -> emit_loop_handle ctx c.cap_body
  | Omp_canonical_loop ocl -> emit_canonical_loop ctx ocl
  | Omp_directive inner when inner.dir_kind = D_unroll ->
    let cli = emit_loop_handle ctx (Option.get inner.dir_assoc) in
    let factor =
      match partial_factor_of inner.dir_clauses with
      | Some f -> f
      | None -> unsupported "consumed unroll without partial clause"
    in
    Ob.unroll_loop_partial ctx.b cli ~factor
  | Omp_directive inner when inner.dir_kind = D_tile -> (
    let sizes = Option.value (tile_sizes_of inner.dir_clauses) ~default:[] in
    let clis =
      (* A 1-D tile may sit on top of another transformation; deeper nests
         must be literal canonical loops (their trip counts have to
         dominate the outermost preheader). *)
      if List.length sizes = 1 then
        [ emit_loop_handle ctx (Option.get inner.dir_assoc) ]
      else
        emit_canonical_nest ctx (Option.get inner.dir_assoc) (List.length sizes)
    in
    let uty = Ir.value_ty (List.hd clis).Cli.cli_trip_count in
    let generated =
      Ob.tile_loops ctx.b clis
        ~sizes:(List.map (fun n -> Ir.Const_int (uty, Int64.of_int n)) sizes)
    in
    (* The consumer associates with the outermost generated loop. *)
    match generated with
    | outer :: _ -> outer
    | [] -> unsupported "tile produced no loops")
  | Omp_directive inner when inner.dir_kind = D_stripe -> (
    let sizes = Option.value (tile_sizes_of inner.dir_clauses) ~default:[] in
    let clis =
      (* Same shape as tile: a 1-D stripe may sit on top of another
         transformation; deeper nests must be literal canonical loops. *)
      if List.length sizes = 1 then
        [ emit_loop_handle ctx (Option.get inner.dir_assoc) ]
      else
        emit_canonical_nest ctx (Option.get inner.dir_assoc) (List.length sizes)
    in
    let uty = Ir.value_ty (List.hd clis).Cli.cli_trip_count in
    let generated =
      Ob.stripe_loops ctx.b clis
        ~sizes:(List.map (fun n -> Ir.Const_int (uty, Int64.of_int n)) sizes)
    in
    match generated with
    | outer :: _ -> outer
    | [] -> unsupported "stripe produced no loops")
  | Omp_directive inner when inner.dir_kind = D_reverse ->
    let cli = emit_loop_handle ctx (Option.get inner.dir_assoc) in
    Ob.reverse_loop ctx.b cli
  | Omp_directive inner when inner.dir_kind = D_interchange -> (
    let perm = permutation_of_clauses inner.dir_clauses in
    let clis =
      emit_canonical_nest ctx (Option.get inner.dir_assoc) (List.length perm)
    in
    match Ob.interchange_loops ctx.b clis ~perm with
    | outer :: _ -> outer
    | [] -> unsupported "interchange produced no loops")
  | Omp_directive inner when inner.dir_kind = D_fuse ->
    emit_fused_loop ctx inner
  | _ -> unsupported "expected a canonical loop in irbuilder codegen"

and emit_workshared_irb ctx d body_stmt =
  let collapse =
    List.find_map (function C_collapse (n, _) -> Some n | _ -> None) d.dir_clauses
  in
  (* The chunk expression must be emitted before the loop so it dominates
     the worksharing preheader. *)
  let chunk =
    match schedule_of d.dir_clauses with
    | Some (_, Some chunk_e) -> Some (emit_rvalue ctx chunk_e)
    | _ -> None
  in
  let cli =
    match collapse with
    | Some n when n > 1 ->
      let clis = emit_canonical_nest ctx body_stmt n in
      Ob.collapse_loops ctx.b clis
    | _ -> emit_loop_handle ctx body_stmt
  in
  let chunk =
    Option.map
      (fun c ->
        let target = Ir.value_ty cli.Cli.cli_trip_count in
        if Ir.value_ty c = target then c
        else if target = Ir.I64 then B.cast ctx.b Ir.Sext c Ir.I64
        else B.cast ctx.b Ir.Trunc c Ir.I32)
      chunk
  in
  if is_simd_kind d.dir_kind then
    Ob.apply_simd cli ~simdlen:(simdlen_of d.dir_clauses);
  (match schedule_of d.dir_clauses with
  | Some (Sched_dynamic, _) ->
    Ob.apply_dynamic_workshare ctx.b cli ~guided:false ~chunk
      ~nowait:(has_nowait d.dir_clauses)
  | Some (Sched_guided, _) ->
    Ob.apply_dynamic_workshare ctx.b cli ~guided:true ~chunk
      ~nowait:(has_nowait d.dir_clauses)
  | _ ->
    Ob.apply_static_workshare ctx.b cli ~chunk
      ~nowait:(has_nowait d.dir_clauses))
  (* emission continues wherever the loop construction left the builder *)

(* ---- OpenMP dispatch ---------------------------------------------------------- *)

and emit_omp ctx d =
  match ctx.mode with
  | Classic -> emit_omp_classic ctx d
  | Irbuilder -> emit_omp_irbuilder ctx d

and emit_omp_classic ctx d =
  match d.dir_kind with
  | D_parallel ->
    emit_parallel_region ctx d ~body:(fun cap -> emit_stmt ctx cap.cap_body)
  | D_parallel_for | D_parallel_for_simd ->
    emit_parallel_region ctx d ~body:(fun _cap ->
        let latch = emit_driven_loop ctx d ~workshare:true in
        if is_simd_kind d.dir_kind then
          attach_simd_md latch (simdlen_of d.dir_clauses))
  | D_for | D_for_simd ->
    let finalize = apply_data_sharing ctx d.dir_clauses in
    let latch = emit_driven_loop ctx d ~workshare:true in
    if is_simd_kind d.dir_kind then
      attach_simd_md latch (simdlen_of d.dir_clauses);
    finalize ()
  | D_simd ->
    let finalize = apply_data_sharing ctx d.dir_clauses in
    let latch = emit_driven_loop ctx d ~workshare:false in
    attach_simd_md latch (simdlen_of d.dir_clauses);
    finalize ()
  | D_unroll -> ignore (emit_deferred_unroll ctx d)
  | D_tile | D_reverse | D_interchange | D_stripe | D_fuse | D_fission -> (
    emit_transformation_preinits ctx d;
    match d.dir_transformed with
    | Some tr -> ignore (emit_loop_stmt ctx tr)
    | None -> unsupported "loop transformation without a transformed AST")
  | D_barrier -> Ob.create_barrier ctx.b
  | D_master ->
    Ob.create_master ctx.b ~body_gen:(fun _b ->
        emit_stmt ctx (Option.get d.dir_assoc))
  | D_critical name ->
    (* With run-to-completion simulation the lock cannot be contended, but
       the runtime entry/exit calls keep the IR shape faithful. *)
    ignore
      (B.call ctx.b ~ret:Ir.Void (Ir.Runtime "__kmpc_critical")
         (match name with
         | Some _ -> [ Ir.i32_const 1 ]
         | None -> []));
    emit_stmt ctx (Option.get d.dir_assoc);
    ignore (B.call ctx.b ~ret:Ir.Void (Ir.Runtime "__kmpc_end_critical") [])
  | D_single ->
    Ob.create_single ctx.b ~nowait:(has_nowait d.dir_clauses)
      ~body_gen:(fun _b -> emit_stmt ctx (Option.get d.dir_assoc))

and emit_omp_irbuilder ctx d =
  match d.dir_kind with
  | D_parallel ->
    emit_parallel_region ctx d ~body:(fun cap -> emit_stmt ctx cap.cap_body)
  | D_parallel_for | D_parallel_for_simd ->
    emit_parallel_region ctx d ~body:(fun cap ->
        emit_workshared_irb ctx d cap.cap_body)
  | D_for | D_for_simd ->
    let finalize = apply_data_sharing ctx d.dir_clauses in
    emit_workshared_irb ctx d (Option.get d.dir_assoc);
    finalize ()
  | D_simd ->
    let finalize = apply_data_sharing ctx d.dir_clauses in
    let cli = emit_loop_handle ctx (Option.get d.dir_assoc) in
    Ob.apply_simd cli ~simdlen:(simdlen_of d.dir_clauses);
    finalize ()
  | D_unroll -> (
    let assoc = Option.get d.dir_assoc in
    let full = List.exists (fun c -> c = C_full) d.dir_clauses in
    let cli = emit_loop_handle ctx assoc in
    if full then Ob.unroll_loop_full ctx.b cli
    else
      match partial_factor_of d.dir_clauses with
      | Some f -> ignore (Ob.unroll_loop_partial ctx.b cli ~factor:f)
      | None -> Ob.unroll_loop_heuristic ctx.b cli)
  | D_tile | D_reverse | D_interchange | D_stripe | D_fuse ->
    (* Non-consumed OpenMP 6.0 transformations: build the generated loops
       and leave them in place. *)
    ignore
      (emit_loop_handle ctx
         (mk_stmt ~loc:d.dir_loc (Omp_directive d)))
  | D_fission -> emit_fission_loops ctx d
  | D_barrier -> Ob.create_barrier ctx.b
  | D_master ->
    Ob.create_master ctx.b ~body_gen:(fun _b ->
        emit_stmt ctx (Option.get d.dir_assoc))
  | D_critical name ->
    (* With run-to-completion simulation the lock cannot be contended, but
       the runtime entry/exit calls keep the IR shape faithful. *)
    ignore
      (B.call ctx.b ~ret:Ir.Void (Ir.Runtime "__kmpc_critical")
         (match name with
         | Some _ -> [ Ir.i32_const 1 ]
         | None -> []));
    emit_stmt ctx (Option.get d.dir_assoc);
    ignore (B.call ctx.b ~ret:Ir.Void (Ir.Runtime "__kmpc_end_critical") [])
  | D_single ->
    Ob.create_single ctx.b ~nowait:(has_nowait d.dir_clauses)
      ~body_gen:(fun _b -> emit_stmt ctx (Option.get d.dir_assoc))

(* ---- top level --------------------------------------------------------------- *)

let emit_function ctx fn body =
  Ir.clear_emit_loc ();
  let f = ir_function ctx fn in
  f.Ir.f_is_decl <- false;
  ctx.cur_fn <- Some f;
  ctx.env <- Hashtbl.create 64;
  ctx.break_targets <- [];
  ctx.continue_targets <- [];
  let entry = Ir.create_block ~name:"entry" f in
  ctx.entry <- Some entry;
  B.set_insertion_point ctx.b entry;
  (* Parameters become addressable locals, as in Clang. *)
  List.iter2
    (fun p arg ->
      let slot = declare_var ctx p in
      B.store ctx.b (Ir.Arg arg) ~ptr:slot)
    fn.fn_params f.Ir.f_args;
  emit_stmt ctx body;
  (match (B.insertion_block ctx.b).Ir.b_term with
  | Ir.No_term ->
    if f.Ir.f_ret = Ir.Void then B.ret ctx.b None
    else if fn.fn_name = "main" then B.ret ctx.b (Some (Ir.Const_int (f.Ir.f_ret, 0L)))
    else B.ret ctx.b (Some (Ir.Undef f.Ir.f_ret))
  | _ -> ());
  ctx.cur_fn <- None;
  ctx.entry <- None

let emit_translation_unit ?(fold = true) ~mode tu =
  (* Recovery nodes (RecoveryExpr / ErrorStmt) keep the AST alive after a
     frontend error, but they have no semantics to lower; refuse the whole
     unit up front rather than tripping over one mid-function. *)
  if tu_contains_errors tu then
    unsupported "translation unit contains errors; code generation unavailable";
  let m = Ir.create_module "a.out" in
  let ctx =
    {
      m;
      mode;
      b = B.create ~fold ();
      fn_map = Hashtbl.create 16;
      env = Hashtbl.create 64;
      entry = None;
      break_targets = [];
      continue_targets = [];
      cur_fn = None;
      switch_cases = [];
      switch_defaults = [];
    }
  in
  List.iter
    (function
      | Tu_var v -> unsupported "global variable '%s' (globals are not supported)" v.v_name
      | Tu_fn fn when fn.fn_builtin -> ()
      | Tu_fn fn -> (
        match fn.fn_body with
        | None -> ignore (ir_function ctx fn)
        | Some body ->
          Mc_support.Stats.incr stat_fns;
          emit_function ctx fn body))
    tu.tu_decls;
  Mc_support.Stats.add
    (match mode with
    | Classic -> stat_insts_classic
    | Irbuilder -> stat_insts_irbuilder)
    (Ir.module_inst_count m);
  m
