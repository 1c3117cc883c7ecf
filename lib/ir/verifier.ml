open Ir

type issue = { in_function : string; in_block : string; message : string }

module Stats = Mc_support.Stats

let stat_functions =
  Stats.counter ~group:"verifier" ~name:"functions-verified"
    ~desc:"defined functions the IR verifier checked" ()

(* The walk's scratch memory, one per domain and reused by every run:
   two open-addressing id sets, one of the function's blocks and one of
   its instructions.  A slot belongs to the current run only while its
   stamp equals [gen], so a run starts by bumping [gen] instead of
   clearing anything.  The capacity follows the largest function
   verified so far (twice its block or instruction count, rounded up to
   a power of two), never the id counter. *)
type scratch = {
  mutable gen : int;
  mutable b_mask : int;
  mutable b_stamp : int array;
  mutable b_key : int array; (* block id *)
  mutable b_block : block array; (* the block registered under the id *)
  mutable b_preds : int array;
      (* edges from the function's blocks into the id, as [pred_index]
         would list them *)
  mutable b_seen : int array; (* the last [phi] to name this block *)
  mutable phi : int;
  mutable i_mask : int;
  mutable i_stamp : int array;
  mutable i_key : int array; (* instruction id *)
  mutable issues : issue list; (* newest first *)
}

let no_block =
  { b_id = -1; b_name = ""; b_insts_rev = []; b_term = No_term; b_parent = None;
    b_loop_md = no_loop_md }

let capacity n =
  let rec up c = if c >= 2 * n then c else up (2 * c) in
  up 16

(* Never empty: a probe may run in a function with no instructions (a
   terminator can still name one). *)
let scratch_key =
  Domain.DLS.new_key (fun () ->
      let c = capacity 0 in
      {
        gen = 0; b_mask = c - 1; b_stamp = Array.make c 0; b_key = Array.make c 0;
        b_block = Array.make c no_block; b_preds = Array.make c 0;
        b_seen = Array.make c 0; phi = 0; i_mask = c - 1; i_stamp = Array.make c 0;
        i_key = Array.make c 0; issues = [];
      })

let reserve s ~blocks ~insts =
  if blocks > (s.b_mask + 1) / 2 then begin
    let c = capacity blocks in
    s.b_mask <- c - 1;
    s.b_stamp <- Array.make c 0;
    s.b_key <- Array.make c 0;
    s.b_block <- Array.make c no_block;
    s.b_preds <- Array.make c 0;
    s.b_seen <- Array.make c 0
  end;
  if insts > (s.i_mask + 1) / 2 then begin
    let c = capacity insts in
    s.i_mask <- c - 1;
    s.i_stamp <- Array.make c 0;
    s.i_key <- Array.make c 0
  end

(* The slot holding block id [id], or -1.  Ids are dense, so the id
   itself is the hash and a function's ids rarely collide.  The probes
   are top-level functions, since a local closure would be allocated on
   every call, and index unchecked: a slot is masked by the tables'
   length minus one. *)
let rec block_probe s id k =
  if Array.unsafe_get s.b_stamp k <> s.gen then -1
  else if Array.unsafe_get s.b_key k = id then k
  else block_probe s id ((k + 1) land s.b_mask)

let block_slot s id = block_probe s id (id land s.b_mask)

(* Registers [b] under its id; a second block with the same id keeps
   the first one's slot. *)
let rec add_block_probe s b k =
  if s.b_stamp.(k) <> s.gen then begin
    s.b_stamp.(k) <- s.gen;
    s.b_key.(k) <- b.b_id;
    s.b_block.(k) <- b;
    s.b_preds.(k) <- 0
  end
  else if s.b_key.(k) <> b.b_id then add_block_probe s b ((k + 1) land s.b_mask)

let add_block s b = add_block_probe s b (b.b_id land s.b_mask)

let rec add_inst_probe s id k =
  if Array.unsafe_get s.i_stamp k <> s.gen then begin
    Array.unsafe_set s.i_stamp k s.gen;
    Array.unsafe_set s.i_key k id
  end
  else if Array.unsafe_get s.i_key k <> id then add_inst_probe s id ((k + 1) land s.i_mask)

let add_inst s id = add_inst_probe s id (id land s.i_mask)

let rec defined_probe s id k =
  Array.unsafe_get s.i_stamp k = s.gen
  && (Array.unsafe_get s.i_key k = id || defined_probe s id ((k + 1) land s.i_mask))

let defined s id = defined_probe s id (id land s.i_mask)

(* One more edge into block id [id], if the id is the function's. *)
let count_edge s (target : block) =
  let k = block_slot s target.b_id in
  if k >= 0 then s.b_preds.(k) <- s.b_preds.(k) + 1

let rec add_insts s = function
  | [] -> ()
  | i :: r ->
    add_inst s i.i_id;
    add_insts s r

(* Registers [p]'s instructions and counts its edges. *)
let register s p =
  add_insts s p.b_insts_rev;
  match p.b_term with
  | Br t -> count_edge s t
  | Cond_br (_, t, e) ->
    count_edge s t;
    if not (t == e) then count_edge s e
  | Ret _ | Unreachable | No_term -> ()

let add s f b msg =
  s.issues <- { in_function = f.f_name; in_block = b.b_name; message = msg } :: s.issues

let rec has_arg id = function [] -> false | a :: r -> a.a_id = id || has_arg id r

(* [ty] has only constant constructors, so the checks below compare
   types with [==] and [!=], never the polymorphic compare. *)
let check_value s f b = function
  | Inst_ref i ->
    if not (defined s i.i_id) then
      add s f b
        (Printf.sprintf "use of instruction %d not defined in function" i.i_id)
  | Arg a ->
    if not (has_arg a.a_id f.f_args) then
      add s f b (Printf.sprintf "use of foreign argument '%s'" a.a_name)
  | Const_int _ | Const_float _ | Fn_addr _ | Undef _ -> ()

let rec check_values s f b = function
  | [] -> ()
  | v :: r ->
    check_value s f b v;
    check_values s f b r

let rec check_incoming_values s f b = function
  | [] -> ()
  | (v, _) :: r ->
    check_value s f b v;
    check_incoming_values s f b r

(* Whether [b]'s terminator has an edge into block id [id]. *)
let edge_into (b : block) id =
  match b.b_term with
  | Br t -> t.b_id = id
  | Cond_br (_, t, e) -> t.b_id = id || e.b_id = id
  | Ret _ | Unreachable | No_term -> false

(* With as many entries as [b] has predecessors: whether the entries
   name distinct blocks of the function, each with an edge into [b].
   Then they are exactly [b]'s predecessors and none is missing. *)
let rec distinct_preds s b = function
  | [] -> true
  | (_, (ib : block)) :: r ->
    let k = block_slot s ib.b_id in
    k >= 0
    && s.b_block.(k) == ib
    && s.b_seen.(k) <> s.phi
    && edge_into ib b.b_id
    && begin
      s.b_seen.(k) <- s.phi;
      distinct_preds s b r
    end

let incoming_are_preds s b incoming =
  s.phi <- s.phi + 1;
  distinct_preds s b incoming

let rec check_incoming_types s f b ty = function
  | [] -> ()
  | (v, _) :: r ->
    (match v with
    | Undef _ -> ()
    | _ -> if value_ty v != ty then add s f b "phi incoming type mismatch");
    check_incoming_types s f b ty r

let check_phi s f b i incoming =
  let n = List.length incoming in
  let npreds = s.b_preds.(block_slot s b.b_id) in
  if n <> npreds then
    add s f b
      (Printf.sprintf "phi has %d incoming values for %d predecessors" n npreds)
  else if not (incoming_are_preds s b incoming) then
    (* Only the message needs the predecessor list, in its order. *)
    List.iter
      (fun p ->
        if not (List.exists (fun (_, ib) -> ib == p) incoming) then
          add s f b
            (Printf.sprintf "phi missing incoming for predecessor '%s'" p.b_name))
      (preds (pred_index f) b);
  check_incoming_types s f b i.i_ty incoming

let check_inst s f b i =
  (match i.i_kind with
  | Alloca _ -> ()
  | Load { ptr } -> check_value s f b ptr
  | Store { ptr; v } ->
    check_value s f b ptr;
    check_value s f b v
  | Binop (_, x, y) | Icmp (_, x, y) | Fcmp (_, x, y) ->
    check_value s f b x;
    check_value s f b y
  | Cast (_, v) -> check_value s f b v
  | Gep { base; index; _ } ->
    check_value s f b base;
    check_value s f b index
  | Select (c, x, y) ->
    check_value s f b c;
    check_value s f b x;
    check_value s f b y
  | Call { args; _ } -> check_values s f b args
  | Phi { incoming } -> check_incoming_values s f b incoming);
  (match i.i_parent with
  | Some p when p == b -> ()
  | _ -> add s f b (Printf.sprintf "instruction %d has wrong parent" i.i_id));
  match i.i_kind with
  | Binop (op, x, y) ->
    let tx = value_ty x in
    if tx != value_ty y then add s f b "binop operand types differ"
    else if
      tx != i.i_ty
      && not ((match op with Sub -> true | _ -> false) && tx == Ptr && i.i_ty == I64)
    then add s f b "binop result type mismatch"
  | Icmp (_, x, y) ->
    if value_ty x != value_ty y then add s f b "icmp operand types differ"
  | Store { ptr; _ } | Load { ptr } ->
    if value_ty ptr != Ptr then add s f b "memory operand is not a pointer"
  | Gep { base; _ } -> if value_ty base != Ptr then add s f b "gep base is not a pointer"
  | Select (c, x, y) ->
    if value_ty c != I1 then add s f b "select condition not i1";
    if value_ty x != value_ty y then add s f b "select arm types differ"
  | Phi { incoming } -> check_phi s f b i incoming
  | Alloca _ | Cast _ | Call _ | Fcmp _ -> ()

(* The block's instructions are stored last first; checking the earlier
   ones before the head keeps the issues in program order. *)
let rec check_insts s f b = function
  | [] -> ()
  | i :: earlier ->
    check_insts s f b earlier;
    check_inst s f b i

(* Phis must lead the block.  Reports each phi after a non-phi, in
   program order; returns whether a non-phi was seen. *)
let rec report_misplaced s f b = function
  | [] -> false
  | i :: earlier -> (
    let seen_non_phi = report_misplaced s f b earlier in
    match i.i_kind with
    | Phi _ ->
      if seen_non_phi then add s f b "phi after non-phi instruction";
      seen_non_phi
    | _ -> true)

let check_successor s f b (t : block) =
  if block_slot s t.b_id < 0 then
    add s f b (Printf.sprintf "successor '%s' not in function" t.b_name)

let check_block s f b =
  ignore (report_misplaced s f b b.b_insts_rev);
  check_insts s f b b.b_insts_rev;
  (match b.b_term with
  | Ret (Some v) | Cond_br (v, _, _) -> check_value s f b v
  | Ret None | Br _ | Unreachable | No_term -> ());
  (match b.b_term with
  | No_term -> add s f b "block has no terminator"
  | Ret None -> if f.f_ret != Void then add s f b "ret void in non-void function"
  | Ret (Some v) ->
    if f.f_ret == Void then add s f b "ret value in void function"
    else if value_ty v != f.f_ret then add s f b "ret type mismatch"
  | Cond_br (c, _, _) -> if value_ty c != I1 then add s f b "branch condition not i1"
  | Br _ | Unreachable -> ());
  match b.b_term with
  | Br t -> check_successor s f b t
  | Cond_br (_, t, e) ->
    check_successor s f b t;
    if not (t == e) then check_successor s f b e
  | Ret _ | Unreachable | No_term -> ()

(* Drops the table's reference to [b], which would keep its function
   alive. *)
let release s b =
  let k = block_slot s b.b_id in
  if k >= 0 then s.b_block.(k) <- no_block

(* The four sweeps over the blocks, written out: [List.iter] with a
   partial application would allocate a closure per sweep. *)
let rec add_blocks s = function [] -> () | b :: r -> add_block s b; add_blocks s r
let rec register_blocks s = function [] -> () | b :: r -> register s b; register_blocks s r
let rec check_blocks s f = function [] -> () | b :: r -> check_block s f b; check_blocks s f r
let rec release_blocks s = function [] -> () | b :: r -> release s b; release_blocks s r

let verify_func f =
  if f.f_is_decl then []
  else begin
    Stats.incr stat_functions;
    let s = Domain.DLS.get scratch_key in
    s.issues <- [];
    if List.is_empty f.f_blocks then
      s.issues <-
        [ { in_function = f.f_name; in_block = "<none>";
            message = "defined function has no blocks" } ];
    reserve s ~blocks:(List.length f.f_blocks) ~insts:(func_inst_count f);
    s.gen <- s.gen + 1;
    (* Every block, instruction and edge is in the tables before any
       check reads them: a use may precede its definition in block
       order. *)
    add_blocks s f.f_blocks;
    register_blocks s f.f_blocks;
    check_blocks s f f.f_blocks;
    release_blocks s f.f_blocks;
    let issues = List.rev s.issues in
    s.issues <- [];
    issues
  end

let verify_module m = List.concat_map verify_func m.m_funcs

let render issues =
  String.concat "\n"
    (List.map
       (fun i -> Printf.sprintf "%s/%s: %s" i.in_function i.in_block i.message)
       issues)

let check_funcs fs =
  match List.concat_map verify_func fs with
  | [] -> Ok ()
  | issues -> Error (render issues)

let check m = check_funcs m.m_funcs
