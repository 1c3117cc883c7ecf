open Ir
module Int_ops = Mc_support.Int_ops

type t = { mutable ip : block option; fold : bool }

let create ?(fold = true) () = { ip = None; fold }
let folding t = t.fold
let set_insertion_point t b = t.ip <- Some b
let clear_insertion_point t = t.ip <- None

let insertion_block t =
  match t.ip with
  | Some b -> b
  | None -> invalid_arg "Builder: no insertion point set"

let insert t inst =
  append_inst (insertion_block t) inst;
  Inst_ref inst

(* ---- constant folding --------------------------------------------------- *)

let width_of ~signed ty = int_width ~signed ty

let fold_int_binop op ty a b =
  let ws = width_of ~signed:true ty and wu = width_of ~signed:false ty in
  match op with
  | Add -> Some (Int_ops.add ws a b)
  | Sub -> Some (Int_ops.sub ws a b)
  | Mul -> Some (Int_ops.mul ws a b)
  | Sdiv -> Int_ops.div ws a b
  | Udiv -> Int_ops.div wu a b
  | Srem -> Int_ops.rem ws a b
  | Urem -> Int_ops.rem wu a b
  | Shl -> Some (Int_ops.shl ws a b)
  | Lshr -> Some (Int_ops.shr wu a b)
  | Ashr -> Some (Int_ops.shr ws a b)
  | And -> Some (Int_ops.bit_and ws a b)
  | Or -> Some (Int_ops.bit_or ws a b)
  | Xor -> Some (Int_ops.bit_xor ws a b)
  | Fadd | Fsub | Fmul | Fdiv | Frem -> None

let fold_float_binop op a b =
  match op with
  | Fadd -> Some (a +. b)
  | Fsub -> Some (a -. b)
  | Fmul -> Some (a *. b)
  | Fdiv -> Some (a /. b)
  | Frem -> Some (Float.rem a b)
  | _ -> None

let is_zero = function Const_int (_, 0L) -> true | _ -> false
let is_one = function Const_int (_, 1L) -> true | _ -> false

(* Algebraic identities: only ones valid for all operands. *)
let simplify_binop op a b =
  match op with
  | Add when is_zero a -> Some b
  | Add when is_zero b -> Some a
  | Sub when is_zero b -> Some a
  | Mul when is_one a -> Some b
  | Mul when is_one b -> Some a
  | Mul when is_zero a -> Some a
  | Mul when is_zero b -> Some b
  | Sdiv when is_one b -> Some a
  | Udiv when is_one b -> Some a
  | Shl when is_zero b -> Some a
  | Lshr when is_zero b -> Some a
  | Ashr when is_zero b -> Some a
  | And when is_zero a -> Some a
  | And when is_zero b -> Some b
  | Or when is_zero a -> Some b
  | Or when is_zero b -> Some a
  | Xor when is_zero a -> Some b
  | Xor when is_zero b -> Some a
  | Sub when value_equal a b && (match value_ty a with F32 | F64 -> false | _ -> true)
    -> Some (Const_int (value_ty a, 0L))
  | _ -> None

let binop t ?(name = "") op a b =
  let ty = value_ty a in
  let folded =
    if not t.fold then None
    else
      match (a, b) with
      | Const_int (tya, va), Const_int (_, vb) ->
        Option.map (fun v -> Const_int (tya, v)) (fold_int_binop op tya va vb)
      | Const_float (tya, va), Const_float (_, vb) ->
        Option.map (fun v -> Const_float (tya, v)) (fold_float_binop op va vb)
      | _ -> simplify_binop op a b
  in
  match folded with
  | Some v -> v
  | None -> insert t (mk_inst ~name ~ty (Binop (op, a, b)))

let add t ?name a b = binop t ?name Add a b
let sub t ?name a b = binop t ?name Sub a b
let mul t ?name a b = binop t ?name Mul a b
let sdiv t ?name a b = binop t ?name Sdiv a b
let udiv t ?name a b = binop t ?name Udiv a b
let srem t ?name a b = binop t ?name Srem a b
let urem t ?name a b = binop t ?name Urem a b
let shl t ?name a b = binop t ?name Shl a b
let lshr t ?name a b = binop t ?name Lshr a b
let ashr t ?name a b = binop t ?name Ashr a b
let and_ t ?name a b = binop t ?name And a b
let or_ t ?name a b = binop t ?name Or a b
let xor t ?name a b = binop t ?name Xor a b
let fadd t ?name a b = binop t ?name Fadd a b
let fsub t ?name a b = binop t ?name Fsub a b
let fmul t ?name a b = binop t ?name Fmul a b
let fdiv t ?name a b = binop t ?name Fdiv a b
let frem t ?name a b = binop t ?name Frem a b

let eval_icmp op ty a b =
  let ws = width_of ~signed:true ty in
  let lt_s = Int_ops.lt ws and le_s = Int_ops.le ws in
  let lt_u x y = Int_ops.unsigned_lt x y in
  match op with
  | Ieq -> Int64.equal a b
  | Ine -> not (Int64.equal a b)
  | Islt -> lt_s a b
  | Isle -> le_s a b
  | Isgt -> lt_s b a
  | Isge -> le_s b a
  | Iult -> lt_u a b
  | Iule -> Int64.equal a b || lt_u a b
  | Iugt -> lt_u b a
  | Iuge -> Int64.equal a b || lt_u b a

let icmp t ?(name = "") op a b =
  match (t.fold, a, b) with
  | true, Const_int (ty, va), Const_int (_, vb) -> bool_const (eval_icmp op ty va vb)
  | _ -> insert t (mk_inst ~name ~ty:I1 (Icmp (op, a, b)))

let eval_fcmp op a b =
  match op with
  | Foeq -> Float.equal a b
  | Fone -> not (Float.equal a b)
  | Folt -> a < b
  | Fole -> a <= b
  | Fogt -> a > b
  | Foge -> a >= b

let fcmp t ?(name = "") op a b =
  match (t.fold, a, b) with
  | true, Const_float (_, va), Const_float (_, vb) -> bool_const (eval_fcmp op va vb)
  | _ -> insert t (mk_inst ~name ~ty:I1 (Fcmp (op, a, b)))

let fold_cast op v target =
  match (op, v) with
  | (Trunc | Zext | Sext), Const_int (ty, value) ->
    let signed = op = Sext in
    let from = width_of ~signed ty in
    let into = width_of ~signed target in
    Some (Const_int (target, Int_ops.convert ~from ~into value))
  | Sitofp, Const_int (_, value) -> Some (Const_float (target, Int64.to_float value))
  | Uitofp, Const_int (_, value) ->
    let f =
      if Int64.compare value 0L >= 0 then Int64.to_float value
      else Int64.to_float value +. 18446744073709551616.0
    in
    Some (Const_float (target, f))
  | Fptosi, Const_float (_, f) ->
    let w = width_of ~signed:true target in
    Some (Const_int (target, Int_ops.truncate w (Int64.of_float f)))
  | Fptoui, Const_float (_, f) ->
    let w = width_of ~signed:false target in
    Some (Const_int (target, Int_ops.truncate w (Int64.of_float f)))
  | (Fpext | Fptrunc), Const_float (_, f) -> Some (Const_float (target, f))
  | _ -> None

let cast t ?(name = "") op v target =
  if value_ty v = target && (match op with Trunc | Zext | Sext -> true | _ -> false)
  then v
  else
    match if t.fold then fold_cast op v target else None with
    | Some c -> c
    | None -> insert t (mk_inst ~name ~ty:target (Cast (op, v)))

let select t ?(name = "") c a b =
  match (t.fold, c) with
  | true, Const_int (I1, 1L) -> a
  | true, Const_int (I1, 0L) -> b
  | _ when t.fold && value_equal a b -> a
  | _ -> insert t (mk_inst ~name ~ty:(value_ty a) (Select (c, a, b)))

let alloca t ?(name = "") ?(count = 1) elt_ty =
  insert t (mk_inst ~name ~ty:Ptr (Alloca { elt_ty; count }))

let load t ?(name = "") ty ptr = insert t (mk_inst ~name ~ty (Load { ptr }))

let store t v ~ptr =
  ignore (insert t (mk_inst ~ty:Void (Store { ptr; v })))

let gep t ?(name = "") ~elt_ty base index =
  if t.fold && is_zero index then base
  else insert t (mk_inst ~name ~ty:Ptr (Gep { base; index; elt_ty }))

let call t ?(name = "") ~ret callee args =
  insert t (mk_inst ~name ~ty:ret (Call { callee; args }))

let phi t ?(name = "") ty incoming =
  insert t (mk_inst ~name ~ty (Phi { incoming }))

let add_phi_incoming v entry =
  match v with
  | Inst_ref ({ i_kind = Phi p; _ } as i) ->
    i.i_kind <- Phi { incoming = p.incoming @ [ entry ] }
  | _ -> invalid_arg "add_phi_incoming: not a phi"

let set_term t term =
  let b = insertion_block t in
  (match b.b_term with
  | No_term -> ()
  | _ -> invalid_arg (Printf.sprintf "block '%s' already terminated" b.b_name));
  b.b_term <- term

let ret t v = set_term t (Ret v)
let br t target = set_term t (Br target)

let cond_br t c then_b else_b =
  match (t.fold, c) with
  | true, Const_int (I1, 1L) -> set_term t (Br then_b)
  | true, Const_int (I1, 0L) -> set_term t (Br else_b)
  | _ -> set_term t (Cond_br (c, then_b, else_b))

let unreachable t = set_term t Unreachable

let min_u t ?(name = "") a b =
  let c = icmp t Iult a b in
  select t ~name c a b

let ptr_diff t ?(name = "") a b =
  insert t (mk_inst ~name ~ty:I64 (Binop (Sub, a, b)))

let fold_int_binop_const = fold_int_binop
let fold_float_binop_const op a b = fold_float_binop op a b
let eval_icmp_const = eval_icmp
let eval_fcmp_const = eval_fcmp
let fold_cast_const = fold_cast
