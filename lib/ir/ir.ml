(** A miniature LLVM-like intermediate representation.

    This is the substrate the paper's CodeGen layer and OpenMPIRBuilder
    target.  It models the parts of LLVM IR the loop-transformation work
    needs: typed instructions in basic blocks with explicit control flow,
    phi nodes for induction variables, calls into a (simulated) OpenMP
    runtime, and [llvm.loop.*] metadata attached to loop latches for the
    mid-end [LoopUnroll] pass.

    The in-memory design mirrors LLVM: instructions know their parent block,
    blocks their parent function; the CFG is mutable so that passes can
    rewrite it. *)

module Int_ops = Mc_support.Int_ops

type ty = I1 | I8 | I16 | I32 | I64 | F32 | F64 | Ptr | Void

let ty_to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "float"
  | F64 -> "double"
  | Ptr -> "ptr"
  | Void -> "void"

let ty_size_in_bytes = function
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 -> 8
  | F32 -> 4
  | F64 -> 8
  | Ptr -> 8
  | Void -> invalid_arg "ty_size_in_bytes: void"

let int_width ~signed = function
  | I1 -> { Int_ops.bits = 1; signed = false }
  | I8 -> { Int_ops.bits = 8; signed }
  | I16 -> { Int_ops.bits = 16; signed }
  | I32 -> { Int_ops.bits = 32; signed }
  | I64 -> { Int_ops.bits = 64; signed }
  | F32 | F64 | Ptr | Void -> invalid_arg "int_width: not an integer type"

type icmp = Ieq | Ine | Islt | Isle | Isgt | Isge | Iult | Iule | Iugt | Iuge

type fcmp = Foeq | Fone | Folt | Fole | Fogt | Foge

type binop =
  | Add
  | Sub
  | Mul
  | Sdiv
  | Udiv
  | Srem
  | Urem
  | Shl
  | Lshr
  | Ashr
  | And
  | Or
  | Xor
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Frem

type cast_op =
  | Trunc
  | Zext
  | Sext
  | Fptosi
  | Fptoui
  | Sitofp
  | Uitofp
  | Fpext
  | Fptrunc

(* [llvm.loop.unroll.*] metadata (paper §2.1/§2.2): attached to a loop's
   latch terminator and consumed by the mid-end LoopUnroll pass. *)
type unroll_md = Unroll_enable | Unroll_full | Unroll_count of int | Unroll_disable

type loop_md = { md_unroll : unroll_md option; md_vectorize_width : int option }

let no_loop_md = { md_unroll = None; md_vectorize_width = None }

type value =
  | Const_int of ty * int64 (* canonical per [Int_ops.truncate] of the width *)
  | Const_float of ty * float
  | Arg of arg
  | Inst_ref of inst
  | Fn_addr of func
  | Undef of ty

and arg = { a_id : int; a_name : string; a_ty : ty }

and inst = {
  i_id : int;
  mutable i_name : string; (* printer hint; may be "" *)
  mutable i_kind : inst_kind;
  i_ty : ty;
  mutable i_parent : block option;
  mutable i_loc : Mc_srcmgr.Source_location.t;
      (* the source statement this instruction lowers; invalid for
         synthetic instructions (runtime glue, pass-created code) *)
}

and inst_kind =
  | Alloca of { elt_ty : ty; count : int } (* count elements of elt_ty *)
  | Load of { ptr : value }
  | Store of { ptr : value; v : value } (* i_ty = Void *)
  | Binop of binop * value * value
  | Icmp of icmp * value * value (* i_ty = I1 *)
  | Fcmp of fcmp * value * value
  | Cast of cast_op * value
  | Gep of { base : value; index : value; elt_ty : ty } (* base + index*size *)
  | Select of value * value * value
  | Call of { callee : callee; args : value list }
  | Phi of { mutable incoming : (value * block) list }

and callee = Direct of func | Runtime of string

and terminator =
  | Ret of value option
  | Br of block
  | Cond_br of value * block * block
  | Unreachable
  | No_term (* block still under construction *)

and block = {
  b_id : int;
  mutable b_name : string;
  mutable b_insts_rev : inst list; (* reverse order; see [block_insts] *)
  mutable b_term : terminator;
  mutable b_parent : func option;
  mutable b_loop_md : loop_md;
}

and func = {
  f_id : int;
  f_name : string;
  f_ret : ty;
  f_args : arg list;
  mutable f_blocks : block list; (* entry first *)
  mutable f_is_decl : bool;
}

type modul = { m_name : string; mutable m_funcs : func list }

(* ---- construction ------------------------------------------------------ *)

(* Ids are domain-local so concurrent compilations neither race nor
   influence each other's numbering; the driver resets them at the start
   of every compilation so the printed IR of a given source is
   byte-identical no matter which domain (or how many) compiled it. *)
let id_counter : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let fresh_id () =
  let r = Domain.DLS.get id_counter in
  incr r;
  !r

(* The source location newly created instructions are stamped with —
   CodeGen sets it to the statement being lowered so analyses can report
   findings at source positions.  Domain-local for the same reason as
   the id counter; invalid outside statement lowering, so pass-created
   instructions stay location-free. *)
let emit_loc : Mc_srcmgr.Source_location.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref Mc_srcmgr.Source_location.invalid)

let set_emit_loc loc = Domain.DLS.get emit_loc := loc
let current_emit_loc () = !(Domain.DLS.get emit_loc)
let clear_emit_loc () = set_emit_loc Mc_srcmgr.Source_location.invalid

let reset_ids () =
  Domain.DLS.get id_counter := 0;
  clear_emit_loc ()

(* An unmarshalled module (store hit, daemon reply) carries ids from the
   process that built it, while this domain's counter is wherever the
   current compilation left it — usually 0.  A cached module records
   [current_id] at store time and a consumer claims up to that mark
   before allocating, so anything allocated afterwards (pass-created phis
   and casts) can never collide with an existing id; passes key def-use
   maps on [i_id], and a collision silently cross-wires two
   instructions. *)
let current_id () = !(Domain.DLS.get id_counter)

let claim_up_to n =
  let r = Domain.DLS.get id_counter in
  if n > !r then r := n

let create_module name = { m_name = name; m_funcs = [] }

let mk_arg ~name ~ty = { a_id = fresh_id (); a_name = name; a_ty = ty }

let declare_function m ~name ~ret ~args =
  let f =
    { f_id = fresh_id (); f_name = name; f_ret = ret; f_args = args;
      f_blocks = []; f_is_decl = true }
  in
  m.m_funcs <- m.m_funcs @ [ f ];
  f

let define_function m ~name ~ret ~args =
  let f =
    { f_id = fresh_id (); f_name = name; f_ret = ret; f_args = args;
      f_blocks = []; f_is_decl = false }
  in
  m.m_funcs <- m.m_funcs @ [ f ];
  f

let find_function m name = List.find_opt (fun f -> f.f_name = name) m.m_funcs

let create_block ?(name = "") f =
  let b =
    { b_id = fresh_id (); b_name = name; b_insts_rev = []; b_term = No_term;
      b_parent = Some f; b_loop_md = no_loop_md }
  in
  f.f_blocks <- f.f_blocks @ [ b ];
  b

(* Insert [b] in the function's block list right after [after]; layout order
   only affects printing, not semantics. *)
let insert_block_after f ~after b =
  let rec place = function
    | [] -> [ b ]
    | x :: rest when x == after -> x :: b :: rest
    | x :: rest -> x :: place rest
  in
  f.f_blocks <- place (List.filter (fun x -> not (x == b)) f.f_blocks)

let block_insts b = List.rev b.b_insts_rev
let set_block_insts b insts = b.b_insts_rev <- List.rev insts

let append_inst b inst =
  inst.i_parent <- Some b;
  b.b_insts_rev <- inst :: b.b_insts_rev

let mk_inst ?(name = "") ~ty kind =
  { i_id = fresh_id (); i_name = name; i_kind = kind; i_ty = ty;
    i_parent = None; i_loc = current_emit_loc () }

let value_ty = function
  | Const_int (ty, _) -> ty
  | Const_float (ty, _) -> ty
  | Arg a -> a.a_ty
  | Inst_ref i -> i.i_ty
  | Fn_addr _ -> Ptr
  | Undef ty -> ty

let value_equal a b =
  match (a, b) with
  | Const_int (ta, va), Const_int (tb, vb) -> ta = tb && Int64.equal va vb
  | Const_float (ta, va), Const_float (tb, vb) -> ta = tb && Float.equal va vb
  | Arg x, Arg y -> x.a_id = y.a_id
  | Inst_ref x, Inst_ref y -> x.i_id = y.i_id
  | Fn_addr x, Fn_addr y -> x.f_id = y.f_id
  | Undef ta, Undef tb -> ta = tb
  | _ -> false

let bool_const v = Const_int (I1, if v then 1L else 0L)
let i32_const v = Const_int (I32, Int_ops.truncate Int_ops.i32 (Int64.of_int v))
let i64_const v = Const_int (I64, Int64.of_int v)

(* ---- successors / predecessors ------------------------------------------ *)

let successors b =
  match b.b_term with
  | Ret _ | Unreachable | No_term -> []
  | Br target -> [ target ]
  | Cond_br (_, t, f) -> if t == f then [ t ] else [ t; f ]

(* Tables keyed on [i_id]/[b_id]/[f_id].  Ids are dense positive ints,
   so the id itself spreads well over the buckets; the polymorphic
   [Hashtbl] pays for a generic hash and compare on every operation.
   Iteration order follows the ids, so no caller may let
   [Id_tbl.iter]/[fold] order reach its output. *)
module Id_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x
end)

(* Every block's predecessors, built in one sweep over the function: the
   blocks [p] of [f_blocks] with [b] among [successors p], in [f_blocks]
   order.  A snapshot — a pass that rewires edges must update it or build
   a new one. *)
type pred_index = block list Id_tbl.t (* keyed on [b_id] *)

let pred_index f =
  let idx = Id_tbl.create (List.length f.f_blocks) in
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          let prev = Option.value (Id_tbl.find_opt idx s.b_id) ~default:[] in
          Id_tbl.replace idx s.b_id (p :: prev))
        (successors p))
    (List.rev f.f_blocks);
  idx

let preds idx b = Option.value (Id_tbl.find_opt idx b.b_id) ~default:[]

let inst_operands i =
  match i.i_kind with
  | Alloca _ -> []
  | Load { ptr } -> [ ptr ]
  | Store { ptr; v } -> [ ptr; v ]
  | Binop (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) -> [ a; b ]
  | Cast (_, v) -> [ v ]
  | Gep { base; index; _ } -> [ base; index ]
  | Select (c, a, b) -> [ c; a; b ]
  | Call { args; _ } -> args
  | Phi { incoming } -> List.map fst incoming

let terminator_operands = function
  | Ret (Some v) -> [ v ]
  | Ret None | Unreachable | No_term | Br _ -> []
  | Cond_br (c, _, _) -> [ c ]

(* Rewrites every operand of [i] through [f] (used by cloning and passes). *)
let map_inst_operands f i =
  let kind =
    match i.i_kind with
    | Alloca _ as k -> k
    | Load { ptr } -> Load { ptr = f ptr }
    | Store { ptr; v } -> Store { ptr = f ptr; v = f v }
    | Binop (op, a, b) -> Binop (op, f a, f b)
    | Icmp (op, a, b) -> Icmp (op, f a, f b)
    | Fcmp (op, a, b) -> Fcmp (op, f a, f b)
    | Cast (op, v) -> Cast (op, f v)
    | Gep { base; index; elt_ty } -> Gep { base = f base; index = f index; elt_ty }
    | Select (c, a, b) -> Select (f c, f a, f b)
    | Call { callee; args } -> Call { callee; args = List.map f args }
    | Phi { incoming } -> Phi { incoming = List.map (fun (v, b) -> (f v, b)) incoming }
  in
  i.i_kind <- kind

let map_terminator_operands f b =
  match b.b_term with
  | Ret (Some v) -> b.b_term <- Ret (Some (f v))
  | Cond_br (c, t, e) -> b.b_term <- Cond_br (f c, t, e)
  | Ret None | Br _ | Unreachable | No_term -> ()

(* Rewire every function reference in [m] — [Direct] callees and
   [Fn_addr] operands — through [resolve].  Linking a module from
   independently cached per-function modules leaves each call pointing
   at its own mini-module's copy of the callee record; the interpreter
   executes [Direct f] by following that very pointer, so the linker
   must redirect all references to the one canonical record per name.
   Almost every reference already is canonical, so the walk only checks
   (allocation-free) and rewrites just the instructions and terminators
   that hold a stale one. *)
let map_function_refs resolve m =
  let stale v = match v with Fn_addr f -> resolve f != f | _ -> false in
  let value v =
    match v with Fn_addr f when stale v -> Fn_addr (resolve f) | _ -> v
  in
  let rec stale_args = function
    | [] -> false
    | v :: r -> stale v || stale_args r
  in
  let rec stale_incoming = function
    | [] -> false
    | (v, _) :: r -> stale v || stale_incoming r
  in
  let stale_operand i =
    match i.i_kind with
    | Alloca _ -> false
    | Load { ptr } -> stale ptr
    | Store { ptr; v } -> stale ptr || stale v
    | Binop (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) -> stale a || stale b
    | Cast (_, v) -> stale v
    | Gep { base; index; _ } -> stale base || stale index
    | Select (c, a, b) -> stale c || stale a || stale b
    | Call { args; _ } -> stale_args args
    | Phi { incoming } -> stale_incoming incoming
  in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              (match i.i_kind with
              | Call { callee = Direct g; args } ->
                let g' = resolve g in
                if g' != g then i.i_kind <- Call { callee = Direct g'; args }
              | _ -> ());
              if stale_operand i then map_inst_operands value i)
            b.b_insts_rev;
          match b.b_term with
          | Ret (Some v) | Cond_br (v, _, _) when stale v ->
            map_terminator_operands value b
          | _ -> ())
        f.f_blocks)
    m.m_funcs

(* Redirect control-flow edges: every successor [from] of [b] becomes [into].
   Phi nodes in [from]'s other successors are NOT adjusted here. *)
let replace_successor b ~from ~into =
  match b.b_term with
  | Br t when t == from -> b.b_term <- Br into
  | Cond_br (c, t, e) ->
    let t = if t == from then into else t in
    let e = if e == from then into else e in
    b.b_term <- Cond_br (c, t, e)
  | _ -> ()

let phi_incoming_for_pred incoming pred =
  List.find_opt (fun (_, b) -> b == pred) incoming |> Option.map fst

(* ---- simple queries ------------------------------------------------------ *)

let entry_block f =
  match f.f_blocks with
  | [] -> invalid_arg (Printf.sprintf "entry_block: '%s' has no blocks" f.f_name)
  | b :: _ -> b

let block_phis b =
  List.filter_map
    (fun i -> match i.i_kind with Phi _ -> Some i | _ -> None)
    (block_insts b)

let is_const_int = function Const_int _ -> true | _ -> false

(* Replace every use of [from] with [into] across the function's
   instructions and terminators.  [where] restricts the replacement to
   blocks satisfying the predicate (used by loop transformations to rewrite
   only the body region). *)
let replace_uses_in_func ?(where = fun _ -> true) f ~from ~into =
  List.iter
    (fun b ->
      if where b then begin
        List.iter
          (map_inst_operands (fun v -> if value_equal v from then into else v))
          (block_insts b);
        map_terminator_operands
          (fun v -> if value_equal v from then into else v)
          b
      end)
    f.f_blocks

(* Remove blocks from the function (used after loop transformations discard
   a replaced skeleton).  Only detaches; callers must have rewired CFG. *)
let remove_blocks f blocks =
  let gone = Id_tbl.create (List.length blocks) in
  List.iter (fun b -> Id_tbl.replace gone b.b_id ()) blocks;
  f.f_blocks <- List.filter (fun b -> not (Id_tbl.mem gone b.b_id)) f.f_blocks;
  List.iter (fun b -> b.b_parent <- None) blocks

(* Number of instructions in a function, a cheap code-size proxy used by the
   folding ablation and unroll heuristics. *)
let func_inst_count f =
  List.fold_left (fun acc b -> acc + List.length b.b_insts_rev) 0 f.f_blocks

let module_inst_count m =
  List.fold_left
    (fun acc f -> if f.f_is_decl then acc else acc + func_inst_count f)
    0 m.m_funcs
