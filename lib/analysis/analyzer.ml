(* The analysis passes over the annotated CFG.

   Four passes, all built on the [Dataflow] engine and the [Cfg] view:

   - "uninit":      reaching definitions with a synthetic uninitialized
                    definition per scalar slot; a load that can observe
                    the synthetic def may read the variable before any
                    store.
   - "unreachable": CFG reachability; a source statement whose every
                    lowered instruction lives in dominator-unreachable
                    blocks can never execute.
   - "leak":        forward may-hold tracking of acquire/release pairs
                    (malloc/free, fopen/fclose); a return reached while
                    a resource may still be held is a leak on that path
                    (the hector-style error-path case: `return` before
                    `free` in an error arm).
   - "deps":        per canonical loop, a loop-carried-dependence report
                    stating which loop transformation directives are
                    provably safe, which are provably unsafe, and why —
                    the analysis counterpart of the transformation
                    legality question from the paper (§4: the user
                    asserts semantic legality; this pass checks what the
                    compiler can prove about it).

   Verdict discipline for "deps" (the fuzz oracle depends on it):
   [Unsafe] is only ever emitted with a concrete witness — a pair of
   affine array accesses with a provable nonzero carried distance, or a
   non-reduction write to a loop-invariant address.  Anything the
   analysis cannot classify degrades to [Unknown], never [Unsafe], so a
   semantics-preserving transformation can never be called unsafe. *)

open Mc_ir
module Loc = Mc_srcmgr.Source_location
module Dominators = Mc_passes.Dominators
module Loop_info = Mc_passes.Loop_info
module Int_set = Dataflow.Int_set

let all_passes = [ "uninit"; "unreachable"; "leak"; "deps" ]
let is_known_pass p = List.mem p all_passes

(* Keep the caller's order, drop unknown names and duplicates; an empty
   selection means everything. *)
let normalize_passes = function
  | None | Some [] -> all_passes
  | Some ps ->
    let seen = Hashtbl.create 4 in
    List.filter
      (fun p ->
        is_known_pass p && not (Hashtbl.mem seen p)
        && (Hashtbl.replace seen p (); true))
      ps

(* ---- slot classification ------------------------------------------------- *)

(* How one alloca is used across the whole function.  A *scalar* slot is
   only ever addressed whole (direct loads/stores, possibly through
   casts) and never escapes; those are the slots the flow-sensitive
   passes track.  A GEP'd slot is an aggregate; an escaped slot (address
   stored, passed to a call, returned...) is out of scope entirely. *)
type usage = {
  u_slot : Ir.inst;
  mutable u_loads : Ir.inst list; (* direct Load, program order *)
  mutable u_stores : Ir.inst list; (* direct Store *)
  mutable u_elem_loads : Ir.inst list; (* Load through a GEP on this base *)
  mutable u_elem_stores : Ir.inst list; (* Store through a GEP *)
  mutable u_gep : bool;
  mutable u_escaped : bool;
}

let slot_name (s : Ir.inst) = if s.Ir.i_name = "" then "<anon>" else s.Ir.i_name

let rec strip_casts (v : Ir.value) =
  match v with
  | Ir.Inst_ref { Ir.i_kind = Ir.Cast (_, x); _ } -> strip_casts x
  | v -> v

let classify (f : Ir.func) : usage list =
  let table = Hashtbl.create 16 and order = ref [] in
  let usage (s : Ir.inst) =
    match Hashtbl.find_opt table s.Ir.i_id with
    | Some u -> u
    | None ->
      let u =
        { u_slot = s; u_loads = []; u_stores = []; u_elem_loads = [];
          u_elem_stores = []; u_gep = false; u_escaped = false }
      in
      Hashtbl.replace table s.Ir.i_id u;
      order := u :: !order;
      u
  in
  let escape v =
    match Dataflow.base_slot v with
    | Some s -> (usage s).u_escaped <- true
    | None -> ()
  in
  let walk_inst (i : Ir.inst) =
    match i.Ir.i_kind with
    | Ir.Alloca _ -> ignore (usage i)
    | Ir.Load { ptr } -> (
      match Dataflow.slot_of_ptr ptr with
      | Some s -> (usage s).u_loads <- (usage s).u_loads @ [ i ]
      | None -> (
        match Dataflow.base_slot ptr with
        | Some s -> (usage s).u_elem_loads <- (usage s).u_elem_loads @ [ i ]
        | None -> ()))
    | Ir.Store { ptr; v } -> (
      (match Dataflow.slot_of_ptr ptr with
      | Some s -> (usage s).u_stores <- (usage s).u_stores @ [ i ]
      | None -> (
        match Dataflow.base_slot ptr with
        | Some s -> (usage s).u_elem_stores <- (usage s).u_elem_stores @ [ i ]
        | None -> ()));
      (* storing a slot's *address* is an escape *)
      escape v)
    | Ir.Gep { base; index; _ } ->
      (match Dataflow.base_slot base with
      | Some s -> (usage s).u_gep <- true
      | None -> ());
      escape index
    | Ir.Call { args; _ } -> List.iter escape args
    | Ir.Binop (_, a, b) | Ir.Icmp (_, a, b) | Ir.Fcmp (_, a, b) ->
      escape a; escape b
    | Ir.Select (c, a, b) -> escape c; escape a; escape b
    | Ir.Phi { incoming } -> List.iter (fun (v, _) -> escape v) incoming
    | Ir.Cast _ -> () (* transparent: the cast's own uses decide *)
  in
  List.iter
    (fun b ->
      List.iter walk_inst (Ir.block_insts b);
      match b.Ir.b_term with Ir.Ret (Some v) -> escape v | _ -> ())
    f.Ir.f_blocks;
  List.rev !order

let is_scalar u =
  (not u.u_escaped) && (not u.u_gep) && u.u_elem_loads = [] && u.u_elem_stores = []

(* All uses of instruction [l]'s result across the function (the IR
   keeps no use lists; functions are small enough to scan). *)
let result_uses (f : Ir.func) (l : Ir.inst) : Ir.inst list =
  let is_ref v = match v with Ir.Inst_ref i -> i == l | _ -> false in
  List.concat_map
    (fun b ->
      List.filter (fun i -> List.exists is_ref (Ir.inst_operands i)) (Ir.block_insts b))
    f.Ir.f_blocks

let used_by_terminator (f : Ir.func) (l : Ir.inst) =
  let is_ref v = match strip_casts v with Ir.Inst_ref i -> i == l | _ -> false in
  List.exists
    (fun b ->
      match b.Ir.b_term with
      | Ir.Ret (Some v) -> is_ref v
      | Ir.Cond_br (c, _, _) -> is_ref c
      | _ -> false)
    f.Ir.f_blocks

(* ---- pass: uninit -------------------------------------------------------- *)

let callee_name = function
  | Ir.Direct f -> f.Ir.f_name
  | Ir.Runtime s -> s

let uninit_pass ~describe (f : Ir.func) (cfg : Cfg.t) usages : Report.finding list =
  let scalar_ids = Hashtbl.create 8 in
  List.iter
    (fun u -> if is_scalar u then Hashtbl.replace scalar_ids u.u_slot.Ir.i_id ())
    usages;
  let tracked (s : Ir.inst) = Hashtbl.mem scalar_ids s.Ir.i_id in
  let rd = Dataflow.reaching_defs cfg ~tracked in
  let reported = Hashtbl.create 4 and findings = ref [] in
  let report (slot : Ir.inst) (load : Ir.inst) =
    if not (Hashtbl.mem reported slot.Ir.i_id) then begin
      Hashtbl.replace reported slot.Ir.i_id ();
      let notes =
        if Loc.is_valid slot.Ir.i_loc && not (Loc.equal slot.Ir.i_loc load.Ir.i_loc)
        then [ { Report.n_loc = describe slot.Ir.i_loc; n_msg = "declared here" } ]
        else []
      in
      findings :=
        { Report.f_pass = "uninit"; f_func = f.Ir.f_name;
          f_loc = describe load.Ir.i_loc;
          f_msg =
            Printf.sprintf "variable '%s' may be read before initialization"
              (slot_name slot);
          f_notes = notes }
        :: !findings
    end
  in
  List.iter
    (fun b ->
      let fact = ref (rd.Dataflow.rd_entry b) in
      List.iter
        (fun (i : Ir.inst) ->
          (match i.Ir.i_kind with
          | Ir.Load { ptr } -> (
            match Dataflow.slot_of_ptr ptr with
            | Some slot when tracked slot -> (
              match rd.Dataflow.rd_uninit slot.Ir.i_id with
              | Some ix when Int_set.mem ix !fact -> report slot i
              | _ -> ())
            | _ -> ())
          | _ -> ());
          fact := rd.Dataflow.rd_step i !fact)
        (Ir.block_insts b))
    cfg.Cfg.rpo;
  (* Aggregates are checked flow-insensitively: an array that is read
     through GEPs but never written anywhere is uninitialized on every
     path that reaches a read. *)
  List.iter
    (fun u ->
      if
        (not u.u_escaped) && u.u_elem_loads <> []
        && u.u_elem_stores = [] && u.u_stores = []
      then
        match u.u_elem_loads with
        | load :: _ ->
          findings :=
            { Report.f_pass = "uninit"; f_func = f.Ir.f_name;
              f_loc = describe load.Ir.i_loc;
              f_msg =
                Printf.sprintf "array '%s' is read but never written"
                  (slot_name u.u_slot);
              f_notes = [] }
            :: !findings
        | [] -> ())
    usages;
  List.rev !findings

(* ---- pass: unreachable --------------------------------------------------- *)

let unreachable_pass ~describe (f : Ir.func) (cfg : Cfg.t) : Report.finding list =
  (* A source statement counts as unreachable only if *no* reachable
     block carries its location: a loop condition shares its location
     with reachable control blocks and must not be flagged. *)
  let live_locs = Hashtbl.create 32 in
  List.iter
    (fun b ->
      List.iter (fun l -> Hashtbl.replace live_locs l ())
        (Cfg.block_locs b))
    cfg.Cfg.rpo;
  let dead = ref [] in
  List.iter
    (fun b ->
      if not (Cfg.is_reachable cfg b) then
        List.iter
          (fun l ->
            if not (Hashtbl.mem live_locs l) then begin
              Hashtbl.replace live_locs l (); (* report each location once *)
              dead := l :: !dead
            end)
          (Cfg.block_locs b))
    f.Ir.f_blocks;
  List.map
    (fun l ->
      { Report.f_pass = "unreachable"; f_func = f.Ir.f_name; f_loc = describe l;
        f_msg = "statement can never be executed"; f_notes = [] })
    (List.sort Loc.compare (List.rev !dead))

(* ---- pass: leak ---------------------------------------------------------- *)

let acquire_fns = [ "malloc"; "calloc"; "realloc"; "fopen"; "acquire" ]
let release_fns = [ "free"; "fclose"; "release" ]

let is_call_to names (i : Ir.inst) =
  match i.Ir.i_kind with
  | Ir.Call { callee; _ } -> List.mem (callee_name callee) names
  | _ -> false

let leak_pass ~describe (f : Ir.func) (cfg : Cfg.t) usages : Report.finding list =
  (* Candidate slots: scalar pointer slots that are ever assigned the
     result of an acquire call, and whose loaded value never escapes
     into anything but a release call, a dereference, or a compare. *)
  let acquire_store = Hashtbl.create 4 (* slot i_id -> acquiring Store *) in
  let acquired_value v =
    match strip_casts v with
    | Ir.Inst_ref c when is_call_to acquire_fns c -> true
    | _ -> false
  in
  List.iter
    (fun u ->
      if is_scalar u then
        List.iter
          (fun (st : Ir.inst) ->
            match st.Ir.i_kind with
            | Ir.Store { v; _ } when acquired_value v ->
              if not (Hashtbl.mem acquire_store u.u_slot.Ir.i_id) then
                Hashtbl.replace acquire_store u.u_slot.Ir.i_id st
            | _ -> ())
          u.u_stores)
    usages;
  let release_arg (i : Ir.inst) =
    (* the slot a release call releases, if its argument is a direct load *)
    match i.Ir.i_kind with
    | Ir.Call { callee; args } when List.mem (callee_name callee) release_fns ->
      List.find_map
        (fun a ->
          match strip_casts a with
          | Ir.Inst_ref { Ir.i_kind = Ir.Load { ptr }; _ } ->
            Dataflow.slot_of_ptr ptr
          | _ -> None)
        args
    | _ -> None
  in
  let value_escapes (l : Ir.inst) =
    used_by_terminator f l
    && (match l.Ir.i_kind with Ir.Load _ -> true | _ -> false)
    |> fun ret_escape ->
    ret_escape
    || List.exists
         (fun (use : Ir.inst) ->
           match use.Ir.i_kind with
           | Ir.Icmp _ | Ir.Fcmp _ -> false (* null check *)
           | Ir.Cast _ -> false (* chased below via recursion? kept shallow *)
           | Ir.Load { ptr } -> (
             match ptr with Ir.Inst_ref i -> not (i == l) | _ -> true)
           | Ir.Store { ptr = Ir.Inst_ref i; v = _ } when i == l ->
             false (* store *through* the pointer *)
           | Ir.Gep { base = Ir.Inst_ref i; _ } when i == l ->
             false (* element access through the pointer *)
           | Ir.Call _ -> release_arg use = None
           | _ -> true)
         (result_uses f l)
  in
  let tracked = Hashtbl.create 4 in
  List.iter
    (fun u ->
      if
        Hashtbl.mem acquire_store u.u_slot.Ir.i_id
        && not (List.exists value_escapes u.u_loads)
      then Hashtbl.replace tracked u.u_slot.Ir.i_id u.u_slot)
    usages;
  if Hashtbl.length tracked = 0 then []
  else begin
    let step (i : Ir.inst) fact =
      match i.Ir.i_kind with
      | Ir.Store { ptr; v } -> (
        match Dataflow.slot_of_ptr ptr with
        | Some s when Hashtbl.mem tracked s.Ir.i_id ->
          if acquired_value v then Int_set.add s.Ir.i_id fact
          else Int_set.remove s.Ir.i_id fact
        | _ -> fact)
      | Ir.Call _ -> (
        match release_arg i with
        | Some s -> Int_set.remove s.Ir.i_id fact
        | None -> fact)
      | _ -> fact
    in
    let transfer b fact =
      List.fold_left (fun f i -> step i f) fact (Ir.block_insts b)
    in
    let sol =
      Dataflow.solve cfg
        { Dataflow.direction = Dataflow.Forward; boundary = Int_set.empty;
          init = Int_set.empty; join = Int_set.union; equal = Int_set.equal;
          transfer }
    in
    let findings = ref [] in
    List.iter
      (fun b ->
        match b.Ir.b_term with
        | Ir.Ret _ ->
          let held = transfer b (sol.Dataflow.entry_fact b) in
          Int_set.iter
            (fun slot_id ->
              let slot = Hashtbl.find tracked slot_id in
              let acq = Hashtbl.find acquire_store slot_id in
              let loc =
                match Cfg.last_loc b with
                | Some l -> l
                | None -> acq.Ir.i_loc
              in
              findings :=
                { Report.f_pass = "leak"; f_func = f.Ir.f_name;
                  f_loc = describe loc;
                  f_msg =
                    Printf.sprintf
                      "resource held in '%s' may leak on this return path"
                      (slot_name slot);
                  f_notes =
                    (if Loc.is_valid acq.Ir.i_loc then
                       [ { Report.n_loc = describe acq.Ir.i_loc;
                           n_msg = "acquired here" } ]
                     else []) }
                :: !findings)
            held
        | _ -> ())
      cfg.Cfg.rpo;
    List.rev !findings
  end

(* ---- pass: deps ---------------------------------------------------------- *)

(* Multi-IV linear form of an address or index: sum of [coeff * iv] over
   recognised induction variables (keyed by the IV slot's i_id) plus a
   constant, or unanalysable. *)
type lin = { l_coeffs : (int * int) list (* sorted (iv slot id, coeff) *); l_k : int }

let lin_const k = { l_coeffs = []; l_k = k }

let lin_add a b =
  let rec merge xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | (i, c) :: xt, (j, d) :: yt ->
      if i = j then
        let s = c + d in
        if s = 0 then merge xt yt else (i, s) :: merge xt yt
      else if i < j then (i, c) :: merge xt ((j, d) :: yt)
      else (j, d) :: merge ((i, c) :: xt) yt
  in
  { l_coeffs = merge a.l_coeffs b.l_coeffs; l_k = a.l_k + b.l_k }

let lin_scale s a =
  if s = 0 then lin_const 0
  else
    { l_coeffs = List.map (fun (i, c) -> (i, c * s)) a.l_coeffs; l_k = a.l_k * s }

let lin_neg = lin_scale (-1)
let lin_coeff iv_id a = Option.value (List.assoc_opt iv_id a.l_coeffs) ~default:0
let lin_drop iv_id a =
  { a with l_coeffs = List.filter (fun (i, _) -> i <> iv_id) a.l_coeffs }

(* The base a GEP'd access addresses: a local array, or a pointer loaded
   from a local slot (e.g. a function-scope `double *A`). *)
type base = Base_alloca of Ir.inst | Base_ptr of Ir.inst

let base_id = function Base_alloca s | Base_ptr s -> s.Ir.i_id
let base_name = function Base_alloca s | Base_ptr s -> slot_name s

type access = {
  ac_store : bool;
  ac_inst : Ir.inst; (* the Load/Store itself *)
  ac_lin : lin; (* byte offset from the base *)
}

type iv_info = { iv_slot : Ir.inst; iv_step : int }

let const_int_value = function
  | Ir.Const_int (_, v) -> Some (Int64.to_int v)
  | _ -> None

(* Recognise the canonical induction variable of [loop]: a scalar slot
   updated in the latch by [v = v +/- const] and tested by the header's
   conditional branch. *)
let recognize_iv (loop : Loop_info.loop) scalar_ids : iv_info option =
  match Loop_info.single_latch loop with
  | None -> None
  | Some latch ->
    let header_tests_slot (s : Ir.inst) =
      match loop.Loop_info.header.Ir.b_term with
      | Ir.Cond_br (c, _, _) -> (
        match strip_casts c with
        | Ir.Inst_ref { Ir.i_kind = Ir.Icmp (_, a, b); _ } ->
          let is_load_of v =
            match strip_casts v with
            | Ir.Inst_ref { Ir.i_kind = Ir.Load { ptr }; _ } -> (
              match Dataflow.slot_of_ptr ptr with
              | Some s' -> s' == s
              | None -> false)
            | _ -> false
          in
          is_load_of a || is_load_of b
        | _ -> false)
      | _ -> false
    in
    let candidates =
      List.filter_map
        (fun (i : Ir.inst) ->
          match i.Ir.i_kind with
          | Ir.Store { ptr; v } -> (
            match Dataflow.slot_of_ptr ptr with
            | Some s when Hashtbl.mem scalar_ids s.Ir.i_id -> (
              match strip_casts v with
              | Ir.Inst_ref { Ir.i_kind = Ir.Binop ((Ir.Add | Ir.Sub) as op, a, b); _ } ->
                let load_of v =
                  match strip_casts v with
                  | Ir.Inst_ref { Ir.i_kind = Ir.Load { ptr }; _ } ->
                    Dataflow.slot_of_ptr ptr
                  | _ -> None
                in
                let step =
                  match (load_of a, const_int_value (strip_casts b)) with
                  | Some s', Some k when s' == s ->
                    Some (match op with Ir.Sub -> -k | _ -> k)
                  | _ -> (
                    match (const_int_value (strip_casts a), load_of b) with
                    | Some k, Some s' when s' == s && op = Ir.Add -> Some k
                    | _ -> None)
                in
                (match step with
                | Some k when k <> 0 && header_tests_slot s ->
                  Some { iv_slot = s; iv_step = k }
                | _ -> None)
              | _ -> None)
            | _ -> None)
          | _ -> None)
        (Ir.block_insts latch)
    in
    (match candidates with [ iv ] -> Some iv | _ -> None)

(* What one loop body does to memory, summarised for dependence testing. *)
type effects = {
  mutable e_accesses : (int * string * access list) list; (* base id, name, accesses *)
  mutable e_unknowns : Report.note list; (* reasons the analysis gave up *)
  mutable e_reduction_slots : Ir.inst list; (* scalars updated reductively *)
  mutable e_outside_inner : bool; (* effects outside the sole inner loop *)
}

let assoc_comm_ops = [ Ir.Add; Ir.Mul; Ir.And; Ir.Or; Ir.Xor ]

let collect_effects ~describe (f : Ir.func) (loop : Loop_info.loop)
    ~(iv_ids : (int, unit) Hashtbl.t) (* control slots: every IV in this loop *)
    ~(inner_blocks : (int, unit) Hashtbl.t) usages : effects =
  let eff =
    { e_accesses = []; e_unknowns = []; e_reduction_slots = [];
      e_outside_inner = false }
  in
  let note (i : Ir.inst) msg =
    if List.length eff.e_unknowns < 8 then
      eff.e_unknowns <-
        eff.e_unknowns @ [ { Report.n_loc = describe i.Ir.i_loc; n_msg = msg } ]
  in
  let in_loop (i : Ir.inst) =
    match i.Ir.i_parent with
    | Some b -> Loop_info.loop_contains loop b
    | None -> false
  in
  let usage_of s =
    List.find_opt (fun u -> u.u_slot == s) usages
  in
  let stores_in_loop s =
    match usage_of s with
    | Some u -> List.filter in_loop u.u_stores
    | None -> []
  in
  let loads_in_loop s =
    match usage_of s with
    | Some u -> List.filter in_loop u.u_loads
    | None -> []
  in
  (* [lin_of] over index values; loads of loop-invariant scalars are not
     folded in (they would need symbolic terms) — only IVs and consts. *)
  let rec lin_of (v : Ir.value) : lin option =
    match v with
    | Ir.Const_int (_, k) -> Some (lin_const (Int64.to_int k))
    | Ir.Inst_ref i -> (
      match i.Ir.i_kind with
      | Ir.Cast ((Ir.Sext | Ir.Zext), x) -> lin_of x
      | Ir.Load { ptr } -> (
        match Dataflow.slot_of_ptr ptr with
        | Some s when Hashtbl.mem iv_ids s.Ir.i_id ->
          Some { l_coeffs = [ (s.Ir.i_id, 1) ]; l_k = 0 }
        | _ -> None)
      | Ir.Binop (Ir.Add, a, b) -> (
        match (lin_of a, lin_of b) with
        | Some x, Some y -> Some (lin_add x y)
        | _ -> None)
      | Ir.Binop (Ir.Sub, a, b) -> (
        match (lin_of a, lin_of b) with
        | Some x, Some y -> Some (lin_add x (lin_neg y))
        | _ -> None)
      | Ir.Binop (Ir.Mul, a, b) -> (
        match (lin_of a, const_int_value (strip_casts b)) with
        | Some x, Some k -> Some (lin_scale k x)
        | _ -> (
          match (const_int_value (strip_casts a), lin_of b) with
          | Some k, Some y -> Some (lin_scale k y)
          | _ -> None))
      | Ir.Binop (Ir.Shl, a, b) -> (
        match (lin_of a, const_int_value (strip_casts b)) with
        | Some x, Some k when k >= 0 && k < 31 -> Some (lin_scale (1 lsl k) x)
        | _ -> None)
      | _ -> None)
    | _ -> None
  in
  (* Byte-offset linear form of a GEP'd address, and the base it hangs
     off.  A pointer-slot base only counts if the pointer itself is not
     reassigned inside the loop. *)
  let rec addr_of (v : Ir.value) : (base * lin) option =
    match v with
    | Ir.Inst_ref i -> (
      match i.Ir.i_kind with
      | Ir.Alloca _ -> Some (Base_alloca i, lin_const 0)
      | Ir.Cast (_, x) -> addr_of x
      | Ir.Gep { base; index; elt_ty } -> (
        match (addr_of base, lin_of index) with
        | Some (b, off), Some ix ->
          Some (b, lin_add off (lin_scale (Ir.ty_size_in_bytes elt_ty) ix))
        | _ -> None)
      | Ir.Load { ptr } -> (
        match Dataflow.slot_of_ptr ptr with
        | Some s when stores_in_loop s = [] -> Some (Base_ptr s, lin_const 0)
        | _ -> None)
      | _ -> None)
    | _ -> None
  in
  let add_access b name a =
    let id = base_id b in
    match List.assoc_opt id (List.map (fun (i, n, l) -> (i, (n, l))) eff.e_accesses) with
    | Some _ ->
      eff.e_accesses <-
        List.map
          (fun (i, n, l) -> if i = id then (i, n, l @ [ a ]) else (i, n, l))
          eff.e_accesses
    | None -> eff.e_accesses <- eff.e_accesses @ [ (id, name, [ a ]) ]
  in
  (* Scalar reduction recognition, done per-slot up front so the access
     walk can skip the participating loads and stores. *)
  let reduction_insts = Hashtbl.create 8 (* inst i_id of loads/stores in reductions *) in
  let scalar_store_slots =
    List.sort_uniq compare
      (List.concat_map
         (fun b ->
           if Loop_info.loop_contains loop b then
             List.filter_map
               (fun (i : Ir.inst) ->
                 match i.Ir.i_kind with
                 | Ir.Store { ptr; _ } -> (
                   match Dataflow.slot_of_ptr ptr with
                   | Some s when not (Hashtbl.mem iv_ids s.Ir.i_id) ->
                     Some s.Ir.i_id
                   | _ -> None)
                 | _ -> None)
               (Ir.block_insts b)
           else [])
         f.Ir.f_blocks)
  in
  let slot_by_id id =
    List.find_map
      (fun u -> if u.u_slot.Ir.i_id = id then Some u.u_slot else None)
      usages
  in
  List.iter
    (fun slot_id ->
      match slot_by_id slot_id with
      | None -> ()
      | Some s ->
        let stores = stores_in_loop s and loads = loads_in_loop s in
        let store_op (st : Ir.inst) =
          match st.Ir.i_kind with
          | Ir.Store { v; _ } -> (
            match strip_casts v with
            | Ir.Inst_ref { Ir.i_kind = Ir.Binop (op, a, b); _ }
              when List.mem op assoc_comm_ops ->
              let is_load_of_s v =
                match strip_casts v with
                | Ir.Inst_ref ({ Ir.i_kind = Ir.Load { ptr }; _ } as l) -> (
                  match Dataflow.slot_of_ptr ptr with
                  | Some s' when s' == s -> Some l
                  | _ -> None)
                | _ -> None
              in
              (match (is_load_of_s a, is_load_of_s b) with
              | Some l, None | None, Some l -> Some (op, l)
              | _ -> None)
            | _ -> None)
          | _ -> ()
            |> fun () -> None
        in
        let recognized = List.map store_op stores in
        let ops = List.filter_map (Option.map fst) recognized in
        let red_loads = List.filter_map (Option.map snd) recognized in
        let same_op =
          match ops with
          | [] -> false
          | op :: rest -> List.for_all (( = ) op) rest
        in
        let all_stores_reductive = List.for_all Option.is_some recognized in
        let every_load_consumed =
          List.for_all (fun (l : Ir.inst) -> List.memq l red_loads) loads
        in
        if
          stores <> [] && all_stores_reductive && same_op && every_load_consumed
        then begin
          eff.e_reduction_slots <- eff.e_reduction_slots @ [ s ];
          List.iter
            (fun (i : Ir.inst) -> Hashtbl.replace reduction_insts i.Ir.i_id ())
            (stores @ red_loads)
        end)
    scalar_store_slots;
  (* The walk proper. *)
  List.iter
    (fun b ->
      if Loop_info.loop_contains loop b then
        let inner = Hashtbl.mem inner_blocks b.Ir.b_id in
        let effect_here () = if not inner then eff.e_outside_inner <- true in
        List.iter
          (fun (i : Ir.inst) ->
            match i.Ir.i_kind with
            | Ir.Store { ptr; _ } -> (
              match Dataflow.slot_of_ptr ptr with
              | Some s ->
                if Hashtbl.mem iv_ids s.Ir.i_id then () (* loop control *)
                else begin
                  effect_here ();
                  if Hashtbl.mem reduction_insts i.Ir.i_id then ()
                  else
                    note i
                      (Printf.sprintf
                         "order-sensitive update of scalar '%s'" (slot_name s))
                end
              | None -> (
                effect_here ();
                match addr_of ptr with
                | Some (base, lin) ->
                  add_access base (base_name base)
                    { ac_store = true; ac_inst = i; ac_lin = lin }
                | None -> note i "store through an unanalysable address"))
            | Ir.Load { ptr } -> (
              match Dataflow.slot_of_ptr ptr with
              | Some _ -> () (* scalar reads: invariant or reduction/control *)
              | None -> (
                effect_here ();
                match addr_of ptr with
                | Some (base, lin) ->
                  add_access base (base_name base)
                    { ac_store = false; ac_inst = i; ac_lin = lin }
                | None -> note i "load through an unanalysable address"))
            | Ir.Call { callee; _ } ->
              effect_here ();
              note i
                (Printf.sprintf "call to '%s' in the loop body"
                   (callee_name callee))
            | _ -> ())
          (Ir.block_insts b))
    f.Ir.f_blocks;
  eff

(* Array-reduction pairs: a store whose value is [load(addr) op t] with
   the load at the *same* linear address — safe to reorder when [op] is
   associative-commutative. *)
let reduction_pair (st : access) (ld : access) =
  (not ld.ac_store) && st.ac_store
  && st.ac_lin = ld.ac_lin
  &&
  match st.ac_inst.Ir.i_kind with
  | Ir.Store { v; _ } -> (
    match strip_casts v with
    | Ir.Inst_ref { Ir.i_kind = Ir.Binop (op, a, b); _ }
      when List.mem op assoc_comm_ops ->
      let is_ld v =
        match strip_casts v with Ir.Inst_ref i -> i == ld.ac_inst | _ -> false
      in
      is_ld a || is_ld b
    | _ -> false)
  | _ -> false

(* Loop-carried dependence test along one IV dimension.  Returns
   (unsafe witnesses, unknown notes). *)
let carried_in ~describe iv_id (accesses : (int * string * access list) list) =
  let witnesses = ref [] and unknowns = ref [] in
  let add_w n = if List.length !witnesses < 8 then witnesses := !witnesses @ [ n ] in
  let add_u n = if List.length !unknowns < 8 then unknowns := !unknowns @ [ n ] in
  List.iter
    (fun (_, name, accs) ->
      if List.exists (fun a -> a.ac_store) accs then begin
        let arr = Array.of_list accs in
        let n = Array.length arr in
        for x = 0 to n - 1 do
          for y = x to n - 1 do
            let a = arr.(x) and b = arr.(y) in
            if
              (a.ac_store || b.ac_store)
              && not (reduction_pair a b || reduction_pair b a)
              && not (x = y && not a.ac_store)
            then begin
              let ca = lin_coeff iv_id a.ac_lin
              and cb = lin_coeff iv_id b.ac_lin in
              let rest_a = lin_drop iv_id a.ac_lin
              and rest_b = lin_drop iv_id b.ac_lin in
              if rest_a.l_coeffs <> rest_b.l_coeffs || ca <> cb then
                add_u
                  { Report.n_loc = describe a.ac_inst.Ir.i_loc;
                    n_msg =
                      Printf.sprintf
                        "accesses to '%s' have coupled subscripts; dependence direction unproven"
                        name }
              else begin
                let dk = rest_a.l_k - rest_b.l_k in
                if ca = 0 then begin
                  if dk = 0 && not (x = y && a.ac_store && not b.ac_store) then
                    (* same address touched on every iteration of this IV *)
                    if x = y then
                      add_w
                        { Report.n_loc = describe a.ac_inst.Ir.i_loc;
                          n_msg =
                            Printf.sprintf
                              "'%s' is written at a loop-invariant address every iteration"
                              name }
                    else
                      add_w
                        { Report.n_loc = describe a.ac_inst.Ir.i_loc;
                          n_msg =
                            Printf.sprintf
                              "'%s' is accessed at the same loop-invariant address by two statements"
                              name }
                end
                else if dk mod ca = 0 && dk / ca <> 0 then
                  add_w
                    { Report.n_loc = describe a.ac_inst.Ir.i_loc;
                      n_msg =
                        Printf.sprintf
                          "loop-carried dependence on '%s': %s here conflicts with %s %d iteration(s) away (%s)"
                          name
                          (if a.ac_store then "store" else "load")
                          (if b.ac_store then "a store" else "a load")
                          (abs (dk / ca))
                          (describe b.ac_inst.Ir.i_loc) }
              end
            end
          done
        done
      end)
    accesses;
  (!witnesses, !unknowns)

let deps_pass ~describe (f : Ir.func) (cfg : Cfg.t) usages : Report.loop_report list
    =
  let scalar_ids = Hashtbl.create 8 in
  List.iter
    (fun u -> if is_scalar u then Hashtbl.replace scalar_ids u.u_slot.Ir.i_id ())
    usages;
  let loops = Loop_info.find_loops cfg.Cfg.dom in
  let ivs = List.map (fun l -> (l, recognize_iv l scalar_ids)) loops in
  let contains outer inner_loop =
    (not (outer == inner_loop))
    && Loop_info.loop_contains outer inner_loop.Loop_info.header
  in
  let depth l =
    1 + List.length (List.filter (fun l' -> contains l' l) loops)
  in
  let header_loc l =
    match Cfg.first_loc l.Loop_info.header with
    | Some loc -> loc
    | None -> Loc.invalid
  in
  let reports =
    List.map
      (fun (loop, iv) ->
        let d = depth loop in
        let loc = describe (header_loc loop) in
        match iv with
        | None ->
          { Report.lr_func = f.Ir.f_name; lr_loc = loc; lr_iv = "?";
            lr_depth = d;
            lr_directives =
              List.map
                (fun dir ->
                  { Report.dv_directive = dir; dv_verdict = Report.Unknown;
                    dv_why = "not a canonical loop (no recognised induction variable)" })
                [ "reverse"; "interchange"; "tile"; "unroll"; "fuse" ];
            lr_notes = [] }
        | Some iv ->
          (* control slots: this loop's IV plus every contained loop's IV *)
          let iv_ids = Hashtbl.create 4 in
          Hashtbl.replace iv_ids iv.iv_slot.Ir.i_id ();
          let inner_immediate =
            List.filter
              (fun (l', _) -> contains loop l' && depth l' = d + 1)
              ivs
          in
          List.iter
            (fun (l', iv') ->
              if contains loop l' then
                match iv' with
                | Some i -> Hashtbl.replace iv_ids i.iv_slot.Ir.i_id ()
                | None -> ())
            ivs;
          let inner_blocks = Hashtbl.create 16 in
          List.iter
            (fun (l', _) ->
              if contains loop l' then
                List.iter
                  (fun b -> Hashtbl.replace inner_blocks b.Ir.b_id ())
                  l'.Loop_info.blocks)
            ivs;
          let inner_unrecognized =
            List.exists
              (fun (l', iv') -> contains loop l' && iv' = None)
              ivs
          in
          let eff =
            collect_effects ~describe f loop ~iv_ids ~inner_blocks usages
          in
          let witnesses, unknowns =
            carried_in ~describe iv.iv_slot.Ir.i_id eff.e_accesses
          in
          let unknowns = eff.e_unknowns @ unknowns in
          let self_verdict =
            if witnesses <> [] then
              (Report.Unsafe, "a loop-carried dependence is witnessed (see notes)")
            else if inner_unrecognized then
              (Report.Unknown, "contains a non-canonical inner loop")
            else if unknowns <> [] then
              (Report.Unknown, (List.hd unknowns).Report.n_msg)
            else (Report.Safe, "no loop-carried dependences")
          in
          let order_preserving why = (Report.Safe, why) in
          let nest_verdict () =
            (* interchange/tile need a recognised perfect 2-deep nest
               whose accesses are dependence-free in *both* dimensions *)
            match inner_immediate with
            | [] -> (Report.Unknown, "loop nest of depth 1")
            | [ (_, None) ] | _ :: _ :: _ ->
              (Report.Unknown, "nest shape not recognised")
            | [ (inner, Some inner_iv) ] ->
              if eff.e_outside_inner then
                (Report.Unknown, "loop nest is not perfect")
              else if inner_unrecognized then
                (Report.Unknown, "contains a non-canonical inner loop")
              else begin
                ignore inner;
                let w2, u2 =
                  carried_in ~describe inner_iv.iv_slot.Ir.i_id eff.e_accesses
                in
                match (fst self_verdict, witnesses, unknowns, w2, u2) with
                | Report.Safe, [], [], [], [] ->
                  (Report.Safe, "perfect nest with no loop-carried dependences")
                | _, (_ :: _), _, _, _ | _, _, _, (_ :: _), _ ->
                  ( Report.Unsafe,
                    "a loop-carried dependence is witnessed (see notes)" )
                | _ -> (Report.Unknown, "dependence direction unproven")
              end
          in
          let fuse_verdict =
            if
              witnesses = [] && unknowns = []
              && List.for_all
                   (fun (_, _, accs) ->
                     List.for_all
                       (fun a ->
                         (not a.ac_store)
                         || List.exists (fun b -> reduction_pair a b) accs)
                       accs)
                   eff.e_accesses
            then
              ( Report.Safe,
                "body is an associative-commutative reduction; tolerant of fusion"
              )
            else if witnesses <> [] then
              (Report.Unsafe, "a loop-carried dependence is witnessed (see notes)")
            else
              (Report.Unknown, "fusion legality depends on the sibling loop body")
          in
          let mk dir (v, why) =
            { Report.dv_directive = dir; dv_verdict = v; dv_why = why }
          in
          let nv = nest_verdict () in
          { Report.lr_func = f.Ir.f_name; lr_loc = loc;
            lr_iv = slot_name iv.iv_slot; lr_depth = d;
            lr_directives =
              [ mk "reverse" self_verdict; mk "interchange" nv; mk "tile" nv;
                mk "unroll"
                  (order_preserving "iteration order is preserved");
                mk "fuse" fuse_verdict ];
            lr_notes = witnesses @ unknowns })
      ivs
  in
  List.sort
    (fun a b -> compare a.Report.lr_loc b.Report.lr_loc)
    reports

(* ---- driver -------------------------------------------------------------- *)

let analyze_func ~passes ~describe (f : Ir.func) : Report.func_report =
  if f.Ir.f_is_decl || f.Ir.f_blocks = [] then
    { Report.fr_func = f.Ir.f_name; fr_findings = []; fr_loops = [] }
  else begin
    let cfg = Cfg.build f in
    let usages = classify f in
    let findings =
      List.concat_map
        (fun p ->
          match p with
          | "uninit" -> uninit_pass ~describe f cfg usages
          | "unreachable" -> unreachable_pass ~describe f cfg
          | "leak" -> leak_pass ~describe f cfg usages
          | _ -> [])
        passes
    in
    let loops =
      if List.mem "deps" passes then deps_pass ~describe f cfg usages else []
    in
    { Report.fr_func = f.Ir.f_name; fr_findings = findings; fr_loops = loops }
  end

let run ?passes ~describe (m : Ir.modul) : Report.t =
  let passes = normalize_passes passes in
  {
    Report.r_passes = passes;
    r_funcs =
      List.filter_map
        (fun f ->
          if f.Ir.f_is_decl then None
          else Some (analyze_func ~passes ~describe f))
        m.Ir.m_funcs;
  }
