open Mc_ir.Ir
module Int_ops = Mc_support.Int_ops
module Stats = Mc_support.Stats
module Schedule = Mc_omprt.Schedule

type trace_entry = T_int of int64 | T_float of float

type wtime_mode = Wtime_virtual of float | Wtime_real

type config = {
  num_threads : int;
  max_steps : int;
  wtime : wtime_mode;
  fill_byte : char;
}

let default_config =
  {
    num_threads = 4;
    max_steps = 200_000_000;
    wtime = Wtime_virtual 1e-9;
    fill_byte = '\000';
  }

let stat_steps =
  Stats.counter ~group:"interp" ~name:"steps-executed"
    ~desc:"IR instructions interpreted" ()
let stat_parallel =
  Stats.counter ~group:"interp" ~name:"parallel-regions"
    ~desc:"simulated parallel regions forked" ()
let stat_chunks_static =
  Stats.counter ~group:"interp" ~name:"chunks-static"
    ~desc:"static worksharing chunks handed out" ()
let stat_chunks_dynamic =
  Stats.counter ~group:"interp" ~name:"chunks-dynamic"
    ~desc:"dynamic-schedule chunks dispatched" ()
let stat_chunks_guided =
  Stats.counter ~group:"interp" ~name:"chunks-guided"
    ~desc:"guided-schedule chunks dispatched" ()

type outcome = {
  return_value : int64 option;
  trace : trace_entry list;
  steps : int;
  output : string;
}

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(* ---- runtime values ------------------------------------------------------ *)

type addr = { slab : int; off : int }

type rvalue =
  | V_int of ty * int64 (* canonical per the type's width *)
  | V_float of ty * float
  | V_ptr of addr
  | V_fn of func
  | V_null

(* Per-(site, instance) dispatch queue for dynamic/guided worksharing.
   Because threads run to completion in order, the Nth time a thread reaches
   dispatch site S it joins region instance (S, N); the queue is shared by
   all team members of that instance and reclaimed once every member has
   drained it. *)
type dispatch_region = {
  queue : Schedule.dynamic_state;
  guided : bool; (* schedule(guided) rather than schedule(dynamic) *)
  mutable drained_by : int; (* members that have seen exhaustion *)
}

type team = {
  team_size : int;
  mutable team_tid : int;
  dispatch_regions : (int * int, dispatch_region) Hashtbl.t;
  dispatch_visits : (int * int, int) Hashtbl.t; (* (tid, site) -> visits *)
  dispatch_cursor : (int * int, int) Hashtbl.t;
      (* (tid, site) -> the instance that member is draining; per team, so
         a nested team's thread 0 never moves its enclosing team's
         thread-0 cursor for the same site *)
}

type state = {
  modul : modul;
  slabs : (int, Bytes.t) Hashtbl.t;
  (* Pointers stored to memory are remembered here because slab ids are not
     forgeable integers; raw bytes also get written so that size/offset
     arithmetic behaves. *)
  ptr_table : (int * int, rvalue) Hashtbl.t;
  mutable next_slab : int;
  mutable trace : trace_entry list; (* reverse order *)
  mutable steps : int;
  out : Buffer.t;
  config : config;
  mutable teams : team list; (* innermost team first *)
  mutable pushed_num_threads : int option;
  mutable orphan_team : team option; (* worksharing outside any parallel *)
}

let canon ty v = Int_ops.truncate (int_width ~signed:true ty) v

let alloc state bytes =
  let slab = state.next_slab in
  state.next_slab <- slab + 1;
  Hashtbl.replace state.slabs slab
    (Bytes.make (max bytes 1) state.config.fill_byte);
  { slab; off = 0 }

let free state addr = Hashtbl.remove state.slabs addr.slab

let slab_bytes state addr what =
  match Hashtbl.find_opt state.slabs addr.slab with
  | Some b -> b
  | None -> trap "%s through freed or invalid pointer (slab %d)" what addr.slab

let store_scalar state addr ty v =
  let bytes = slab_bytes state addr "store" in
  let size = ty_size_in_bytes ty in
  if addr.off < 0 || addr.off + size > Bytes.length bytes then
    trap "store out of bounds (offset %d, %d bytes into a %d-byte object)"
      addr.off size (Bytes.length bytes);
  let raw =
    match v with
    | V_int (_, i) -> i
    | V_float (F32, f) -> Int64.of_int32 (Int32.bits_of_float f)
    | V_float (_, f) -> Int64.bits_of_float f
    | V_ptr a -> Int64.of_int ((a.slab * 0x100000) + a.off)
    | V_fn f -> Int64.of_int f.f_id
    | V_null -> 0L
  in
  for i = 0 to size - 1 do
    Bytes.set bytes (addr.off + i)
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical raw (8 * i)) 0xFFL)))
  done;
  match v with
  | V_ptr _ | V_fn _ -> Hashtbl.replace state.ptr_table (addr.slab, addr.off) v
  | _ -> Hashtbl.remove state.ptr_table (addr.slab, addr.off)

let load_scalar state addr ty =
  let bytes = slab_bytes state addr "load" in
  let size = ty_size_in_bytes ty in
  if addr.off < 0 || addr.off + size > Bytes.length bytes then
    trap "load out of bounds (offset %d, %d bytes from a %d-byte object)"
      addr.off size (Bytes.length bytes);
  if ty = Ptr then
    match Hashtbl.find_opt state.ptr_table (addr.slab, addr.off) with
    | Some v -> v
    | None -> V_null
  else begin
    let raw = ref 0L in
    for i = size - 1 downto 0 do
      raw :=
        Int64.logor (Int64.shift_left !raw 8)
          (Int64.of_int (Char.code (Bytes.get bytes (addr.off + i))))
    done;
    match ty with
    | F32 -> V_float (F32, Int32.float_of_bits (Int64.to_int32 !raw))
    | F64 -> V_float (F64, Int64.float_of_bits !raw)
    | _ -> V_int (ty, canon ty !raw)
  end

(* ---- value helpers ------------------------------------------------------- *)

let as_int what = function
  | V_int (_, v) -> v
  | V_null -> 0L
  | _ -> trap "%s: expected an integer value" what

let as_float what = function
  | V_float (_, f) -> f
  | _ -> trap "%s: expected a floating-point value" what

let as_ptr what = function
  | V_ptr a -> a
  | V_null -> trap "%s: null pointer dereference" what
  | _ -> trap "%s: expected a pointer value" what

let as_fn what = function
  | V_fn f -> f
  | _ -> trap "%s: expected a function value" what

let current_team state = match state.teams with [] -> None | t :: _ -> Some t

let thread_num state =
  match current_team state with Some t -> t.team_tid | None -> 0

let team_size state =
  match current_team state with Some t -> t.team_size | None -> 1

(* ---- instruction evaluation ---------------------------------------------- *)

type frame = {
  env : (int, rvalue) Hashtbl.t; (* inst id -> value *)
  args : (int, rvalue) Hashtbl.t; (* arg id -> value *)
  mutable local_slabs : addr list;
}

let eval_value frame v =
  match v with
  | Const_int (ty, value) -> V_int (ty, value)
  | Const_float (ty, f) -> V_float (ty, f)
  | Arg a -> (
    match Hashtbl.find_opt frame.args a.a_id with
    | Some rv -> rv
    | None -> trap "unbound argument '%s'" a.a_name)
  | Inst_ref i -> (
    match Hashtbl.find_opt frame.env i.i_id with
    | Some rv -> rv
    | None -> trap "use of instruction '%s' (%d) before definition" i.i_name i.i_id)
  | Fn_addr f -> V_fn f
  | Undef ty -> (
    match ty with
    | F32 | F64 -> V_float (ty, 0.0)
    | Ptr -> V_null
    | _ -> V_int (ty, 0L))

let eval_int_binop op ty a b =
  let ws = int_width ~signed:true ty and wu = int_width ~signed:false ty in
  let or_trap what = function Some v -> v | None -> trap "%s" what in
  match op with
  | Add -> Int_ops.add ws a b
  | Sub -> Int_ops.sub ws a b
  | Mul -> Int_ops.mul ws a b
  | Sdiv -> or_trap "signed division by zero or overflow" (Int_ops.div ws a b)
  | Udiv -> or_trap "unsigned division by zero" (Int_ops.div wu a b)
  | Srem -> or_trap "signed remainder by zero or overflow" (Int_ops.rem ws a b)
  | Urem -> or_trap "unsigned remainder by zero" (Int_ops.rem wu a b)
  | Shl -> Int_ops.shl ws a b
  | Lshr -> Int_ops.shr wu a b
  | Ashr -> Int_ops.shr ws a b
  | And -> Int_ops.bit_and ws a b
  | Or -> Int_ops.bit_or ws a b
  | Xor -> Int_ops.bit_xor ws a b
  | Fadd | Fsub | Fmul | Fdiv | Frem -> trap "float binop on integers"

let eval_float_binop op a b =
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | Frem -> Float.rem a b
  | _ -> trap "integer binop on floats"

let eval_icmp op ty a b =
  let ws = int_width ~signed:true ty in
  let ult x y =
    (* Compare within the type's width, zero-extended. *)
    let wu = int_width ~signed:false ty in
    let x = Int_ops.truncate wu x and y = Int_ops.truncate wu y in
    Int64.unsigned_compare x y < 0
  in
  match op with
  | Ieq -> Int64.equal a b
  | Ine -> not (Int64.equal a b)
  | Islt -> Int_ops.lt ws a b
  | Isle -> Int_ops.le ws a b
  | Isgt -> Int_ops.lt ws b a
  | Isge -> Int_ops.le ws b a
  | Iult -> ult a b
  | Iule -> Int64.equal a b || ult a b
  | Iugt -> ult b a
  | Iuge -> Int64.equal a b || ult b a

let eval_fcmp op a b =
  match op with
  | Foeq -> Float.equal a b
  | Fone -> not (Float.equal a b)
  | Folt -> a < b
  | Fole -> a <= b
  | Fogt -> a > b
  | Foge -> a >= b

let eval_cast op v target =
  match (op, v) with
  | (Trunc | Zext), V_int (ty, value) ->
    let from = int_width ~signed:false ty in
    let into = int_width ~signed:(int_width ~signed:true target).Int_ops.signed target in
    V_int (target, Int_ops.convert ~from ~into value)
  | Sext, V_int (ty, value) ->
    let from = int_width ~signed:true ty in
    let into = int_width ~signed:true target in
    V_int (target, Int_ops.convert ~from ~into value)
  | Sitofp, V_int (_, value) -> V_float (target, Int64.to_float value)
  | Uitofp, V_int (ty, value) ->
    let wu = int_width ~signed:false ty in
    let z = Int_ops.truncate wu value in
    let f =
      if Int64.compare z 0L >= 0 then Int64.to_float z
      else Int64.to_float z +. 18446744073709551616.0
    in
    V_float (target, f)
  | Fptosi, V_float (_, f) ->
    V_int (target, Int_ops.truncate (int_width ~signed:true target) (Int64.of_float f))
  | Fptoui, V_float (_, f) ->
    V_int (target, Int_ops.truncate (int_width ~signed:false target) (Int64.of_float f))
  | (Fpext | Fptrunc), V_float (_, f) ->
    let f = if target = F32 then Int32.float_of_bits (Int32.bits_of_float f) else f in
    V_float (target, f)
  | _ -> trap "invalid cast operand"

(* ---- execution ----------------------------------------------------------- *)

let rec call_function state f args_rv =
  if f.f_is_decl then call_runtime state f.f_name args_rv
  else begin
    if List.length args_rv <> List.length f.f_args then
      trap "call to '%s' with %d arguments (expected %d)" f.f_name
        (List.length args_rv) (List.length f.f_args);
    let frame =
      { env = Hashtbl.create 64; args = Hashtbl.create 8; local_slabs = [] }
    in
    List.iter2
      (fun a v -> Hashtbl.replace frame.args a.a_id v)
      f.f_args args_rv;
    let result = run_from state frame ~prev:None (entry_block f) in
    List.iter (free state) frame.local_slabs;
    result
  end

and run_from state frame ~prev block =
  (* Phi nodes are evaluated simultaneously against the edge we came from. *)
  let insts = block_insts block in
  let phis, rest =
    List.partition (fun i -> match i.i_kind with Phi _ -> true | _ -> false) insts
  in
  (match prev with
  | Some prev_block ->
    let values =
      List.map
        (fun i ->
          match i.i_kind with
          | Phi { incoming } -> (
            match phi_incoming_for_pred incoming prev_block with
            | Some v -> (i, eval_value frame v)
            | None ->
              trap "phi in '%s' has no incoming for predecessor '%s'"
                block.b_name prev_block.b_name)
          | _ -> assert false)
        phis
    in
    List.iter (fun (i, v) -> Hashtbl.replace frame.env i.i_id v) values
  | None ->
    if phis <> [] then trap "phi nodes in entry block '%s'" block.b_name);
  state.steps <- state.steps + List.length phis;
  List.iter (exec_inst state frame) rest;
  state.steps <- state.steps + List.length rest + 1;
  if state.steps > state.config.max_steps then
    trap "execution exceeded the %d-step fuel limit" state.config.max_steps;
  match block.b_term with
  | Ret None -> None
  | Ret (Some v) -> Some (eval_value frame v)
  | Br next -> run_from state frame ~prev:(Some block) next
  | Cond_br (c, t, e) ->
    let taken =
      if Int64.equal (as_int "branch condition" (eval_value frame c)) 0L then e
      else t
    in
    run_from state frame ~prev:(Some block) taken
  | Unreachable -> trap "reached 'unreachable' in '%s'" block.b_name
  | No_term -> trap "unterminated block '%s'" block.b_name

and exec_inst state frame i =
  let ev = eval_value frame in
  let set v = Hashtbl.replace frame.env i.i_id v in
  match i.i_kind with
  | Alloca { elt_ty; count } ->
    let a = alloc state (ty_size_in_bytes elt_ty * count) in
    frame.local_slabs <- a :: frame.local_slabs;
    set (V_ptr a)
  | Load { ptr } -> set (load_scalar state (as_ptr "load" (ev ptr)) i.i_ty)
  | Store { ptr; v } ->
    store_scalar state (as_ptr "store" (ev ptr)) (value_ty v) (ev v)
  | Binop (op, a, b) -> (
    match (ev a, ev b, op) with
    | V_int (ty, x), V_int (_, y), _ -> set (V_int (ty, eval_int_binop op ty x y))
    | V_float (ty, x), V_float (_, y), _ -> set (V_float (ty, eval_float_binop op x y))
    | V_ptr x, V_ptr y, Sub ->
      (* Pointer difference in bytes (same object only). *)
      if x.slab <> y.slab then trap "subtraction of pointers into different objects"
      else set (V_int (I64, Int64.of_int (x.off - y.off)))
    | _ -> trap "binop operand type mismatch")
  | Icmp (op, a, b) -> (
    match (ev a, ev b) with
    | V_int (ty, x), V_int (_, y) ->
      set (V_int (I1, if eval_icmp op ty x y then 1L else 0L))
    | V_ptr x, V_ptr y ->
      let same = x.slab = y.slab && x.off = y.off in
      let r = match op with Ieq -> same | Ine -> not same | _ -> trap "pointer ordering" in
      set (V_int (I1, if r then 1L else 0L))
    | _ -> trap "icmp operand type mismatch")
  | Fcmp (op, a, b) ->
    let x = as_float "fcmp" (ev a) and y = as_float "fcmp" (ev b) in
    set (V_int (I1, if eval_fcmp op x y then 1L else 0L))
  | Cast (op, v) -> set (eval_cast op (ev v) i.i_ty)
  | Gep { base; index; elt_ty } ->
    let a = as_ptr "gep" (ev base) in
    let idx = Int64.to_int (as_int "gep index" (ev index)) in
    set (V_ptr { a with off = a.off + (idx * ty_size_in_bytes elt_ty) })
  | Select (c, a, b) ->
    set (if Int64.equal (as_int "select" (ev c)) 0L then ev b else ev a)
  | Call { callee; args } -> (
    let args_rv = List.map ev args in
    let result =
      match callee with
      | Direct f -> call_function state f args_rv
      | Runtime name -> call_runtime state name args_rv
    in
    match result with
    | Some v -> set v
    | None -> if i.i_ty <> Void then set V_null)
  | Phi _ -> () (* handled on block entry *)

(* ---- the simulated OpenMP runtime --------------------------------------- *)

and call_runtime state name args =
  let int_arg n = as_int name (List.nth args n) in
  let ptr_arg n = as_ptr name (List.nth args n) in
  match name with
  | "__kmpc_fork_call" | "__kmpc_serialized_parallel" ->
    let fn = as_fn name (List.nth args 0) in
    let ctx = List.nth args 1 in
    let size =
      if name = "__kmpc_serialized_parallel" then 1
      else begin
        match state.pushed_num_threads with
        | Some n -> max 1 n
        | None ->
          (* Nested parallel regions default to one thread, as OpenMP's
             default nested-parallelism setting. *)
          if state.teams <> [] then 1 else state.config.num_threads
      end
    in
    state.pushed_num_threads <- None;
    let t =
      { team_size = size; team_tid = 0; dispatch_regions = Hashtbl.create 4;
        dispatch_visits = Hashtbl.create 4; dispatch_cursor = Hashtbl.create 4 }
    in
    state.teams <- t :: state.teams;
    Stats.incr stat_parallel;
    (* Deterministic simulation: each thread runs to completion in order. *)
    for tid = 0 to size - 1 do
      t.team_tid <- tid;
      let gtid = alloc state 4 in
      store_scalar state gtid I32 (V_int (I32, Int64.of_int tid));
      let btid = alloc state 4 in
      store_scalar state btid I32 (V_int (I32, Int64.of_int tid));
      ignore (call_function state fn [ V_ptr gtid; V_ptr btid; ctx ]);
      free state gtid;
      free state btid
    done;
    state.teams <- List.tl state.teams;
    None
  | "__kmpc_push_num_threads" ->
    state.pushed_num_threads <- Some (Int64.to_int (int_arg 0));
    None
  | "__kmpc_for_static_init_4u" | "__kmpc_for_static_init_8u" ->
    let ty = if name = "__kmpc_for_static_init_8u" then I64 else I32 in
    let plast = ptr_arg 0 and plb = ptr_arg 1 and pub = ptr_arg 2 in
    let pstride = ptr_arg 3 in
    let chunk = int_arg 5 in
    let lb = as_int name (load_scalar state plb ty) in
    let ub = as_int name (load_scalar state pub ty) in
    let trip = Int64.add (Int64.sub ub lb) 1L in
    let tid = thread_num state and nth = team_size state in
    (* The generated loop runs a single contiguous chunk per thread, so a
       chunked static schedule is served with the unchunked (balanced)
       division — every iteration still executes exactly once; only the
       round-robin granularity differs (see DESIGN.md).  [chunk] is ignored
       apart from this note. *)
    ignore chunk;
    Stats.incr stat_chunks_static;
    let slb, sub, stride, is_last =
      let c = Schedule.static_unchunked ~trip_count:trip ~num_threads:nth ~tid in
      (c.Schedule.lb, c.Schedule.ub, trip, Int64.equal c.Schedule.ub (Int64.sub trip 1L))
    in
    store_scalar state plb ty (V_int (ty, canon ty (Int64.add lb slb)));
    store_scalar state pub ty (V_int (ty, canon ty (Int64.add lb sub)));
    store_scalar state pstride ty (V_int (ty, canon ty stride));
    store_scalar state plast I32 (V_int (I32, if is_last then 1L else 0L));
    None
  | "__kmpc_dispatch_init_4u" | "__kmpc_dispatch_init_8u" ->
    (* args: site, trip count, chunk, kind (2 = dynamic, 3 = guided) *)
    let site = Int64.to_int (int_arg 0) in
    let trip = int_arg 1 in
    let chunk = int_arg 2 in
    let kind = Int64.to_int (int_arg 3) in
    let t =
      match current_team state with
      | Some t -> t
      | None ->
        (* Orphaned worksharing outside a parallel region: a singleton
           pseudo-team lives on the state. *)
        (match state.orphan_team with
        | Some t -> t
        | None ->
          let t =
            { team_size = 1; team_tid = 0; dispatch_regions = Hashtbl.create 4;
              dispatch_visits = Hashtbl.create 4;
              dispatch_cursor = Hashtbl.create 4 }
          in
          state.orphan_team <- Some t;
          t)
    in
    let tid = t.team_tid in
    let visit =
      Option.value (Hashtbl.find_opt t.dispatch_visits (tid, site)) ~default:0
    in
    Hashtbl.replace t.dispatch_visits (tid, site) (visit + 1);
    if not (Hashtbl.mem t.dispatch_regions (site, visit)) then begin
      let queue =
        if kind = 3 then
          Schedule.guided_create ~trip_count:trip ~chunk_min:chunk
            ~num_threads:t.team_size
        else Schedule.dynamic_create ~trip_count:trip ~chunk_size:(max 1L chunk |> fun c -> c)
      in
      Hashtbl.replace t.dispatch_regions (site, visit)
        { queue; guided = kind = 3; drained_by = 0 }
    end;
    (* Remember which instance this thread is currently in. *)
    Hashtbl.replace t.dispatch_cursor (tid, site) visit;
    None
  | "__kmpc_dispatch_next_4u" | "__kmpc_dispatch_next_8u" ->
    let ty = if name = "__kmpc_dispatch_next_8u" then I64 else I32 in
    let site = Int64.to_int (int_arg 0) in
    let plb = ptr_arg 1 and pub = ptr_arg 2 in
    let t =
      match (current_team state, state.orphan_team) with
      | Some t, _ -> t
      | None, Some t -> t
      | None, None -> trap "dispatch_next without dispatch_init"
    in
    let tid = t.team_tid in
    let visit =
      match Hashtbl.find_opt t.dispatch_cursor (tid, site) with
      | Some v -> v
      | None -> trap "dispatch_next without dispatch_init (site %d)" site
    in
    let region =
      match Hashtbl.find_opt t.dispatch_regions (site, visit) with
      | Some r -> r
      | None -> trap "dispatch region missing (site %d)" site
    in
    (match Schedule.dynamic_next region.queue with
    | Some c ->
      Stats.incr
        (if region.guided then stat_chunks_guided else stat_chunks_dynamic);
      store_scalar state plb ty (V_int (ty, canon ty c.Schedule.lb));
      store_scalar state pub ty (V_int (ty, canon ty c.Schedule.ub));
      Some (V_int (I32, 1L))
    | None ->
      region.drained_by <- region.drained_by + 1;
      if region.drained_by >= t.team_size then
        Hashtbl.remove t.dispatch_regions (site, visit);
      Some (V_int (I32, 0L)))
  | "__kmpc_for_static_fini" | "__kmpc_barrier" | "__kmpc_end_single"
  | "__kmpc_critical" | "__kmpc_end_critical" | "__kmpc_flush" ->
    (* Synchronisation is a no-op under run-to-completion simulation. *)
    None
  | "__kmpc_single" ->
    Some (V_int (I32, if thread_num state = 0 then 1L else 0L))
  | "omp_get_thread_num" -> Some (V_int (I32, Int64.of_int (thread_num state)))
  | "omp_get_num_threads" -> Some (V_int (I32, Int64.of_int (team_size state)))
  | "omp_get_max_threads" ->
    Some (V_int (I32, Int64.of_int state.config.num_threads))
  | "omp_get_wtime" ->
    (* OpenMP specifies elapsed *wall* time; Sys.time () (process CPU time)
       is wrong here.  The virtual mode derives a deterministic clock from
       the step count so differential trace tests stay reproducible; the
       real mode reads the monotonic wall clock. *)
    let t =
      match state.config.wtime with
      | Wtime_virtual seconds_per_step ->
        float_of_int state.steps *. seconds_per_step
      | Wtime_real -> Mc_support.Clock.now ()
    in
    Some (V_float (F64, t))
  | "record" ->
    state.trace <- T_int (int_arg 0) :: state.trace;
    None
  | "recordf" ->
    state.trace <- T_float (as_float name (List.nth args 0)) :: state.trace;
    None
  | "print_int" | "print_long" ->
    Buffer.add_string state.out (Int64.to_string (int_arg 0));
    Buffer.add_char state.out '\n';
    None
  | "print_double" ->
    Buffer.add_string state.out
      (Printf.sprintf "%.6g\n" (as_float name (List.nth args 0)));
    None
  | "abort" -> trap "program called abort()"
  | "memset" ->
    let dst = ptr_arg 0 in
    let c = Char.chr (Int64.to_int (Int64.logand (int_arg 1) 0xFFL)) in
    let n = Int64.to_int (int_arg 2) in
    let bytes = slab_bytes state dst "memset" in
    if n < 0 || dst.off < 0 || dst.off + n > Bytes.length bytes then
      trap "memset out of bounds (offset %d, %d bytes into a %d-byte object)"
        dst.off n (Bytes.length bytes);
    Bytes.fill bytes dst.off n c;
    (* Any pointer shadow entries inside the filled range are now raw
       bytes, not pointers. *)
    for off = dst.off to dst.off + n - 1 do
      Hashtbl.remove state.ptr_table (dst.slab, off)
    done;
    None
  | _ -> trap "call to unknown runtime function '%s'" name

(* ---- entry points --------------------------------------------------------- *)

let fresh_state config m =
  {
    modul = m;
    slabs = Hashtbl.create 64;
    ptr_table = Hashtbl.create 64;
    next_slab = 1;
    trace = [];
    steps = 0;
    out = Buffer.create 256;
    config;
    teams = [];
    pushed_num_threads = None;
    orphan_team = None;
  }

let finish state result =
  let return_value =
    match result with Some (V_int (_, v)) -> Some v | _ -> None
  in
  Stats.add stat_steps state.steps;
  {
    return_value;
    trace = List.rev state.trace;
    steps = state.steps;
    output = Buffer.contents state.out;
  }

let run_function ?(config = default_config) m ~name ~args =
  match find_function m name with
  | None -> trap "no function named '%s'" name
  | Some f ->
    let state = fresh_state config m in
    let args_rv =
      List.map2
        (fun a v -> V_int (a.a_ty, canon a.a_ty v))
        f.f_args args
    in
    finish state (call_function state f args_rv)

let run_main ?config m = run_function ?config m ~name:"main" ~args:[]

let trace_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | T_int i, T_int j -> Int64.equal i j
         | T_float i, T_float j -> Float.equal i j
         | T_int _, T_float _ | T_float _, T_int _ -> false)
       a b
