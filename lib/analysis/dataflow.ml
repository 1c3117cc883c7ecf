(* The forward dataflow solver the analysis passes share, plus the
   slot-resolution helpers they all use.

   A fact is a set of ids (the [uninit] pass tracks the slots that may
   still be unwritten, [leak] the slots that may still hold a resource).
   Facts join by union, so every solution is a may-analysis, and every
   block but the entry starts from the empty set.  The caller supplies
   the fact on entry to the function and a per-instruction [step]; the
   solver folds [step] over each block itself.  It is a FIFO worklist
   seeded in reverse postorder, so acyclic graphs converge in one sweep
   and loops in a handful; [iterations] counts block transfers, which
   the tests use to pin convergence on diamonds and loops. *)

open Mc_ir
module Int_set = Set.Make (Int)

type solution = {
  entry_fact : Ir.block -> Int_set.t; (* fact holding at block entry *)
  iterations : int; (* block transfers applied before the fixpoint *)
}

(* [step] folded over a block's instructions, in program order. *)
let transfer step b fact =
  List.fold_left (fun f i -> step i f) fact (Ir.block_insts b)

let solve (cfg : Cfg.t) ~boundary ~step : solution =
  let is_entry b = match cfg.Cfg.rpo with e :: _ -> e == b | [] -> false in
  let pre = Hashtbl.create 16 (* fact before transfer, per b_id *)
  and post = Hashtbl.create 16 (* fact after transfer, per b_id *) in
  List.iter (fun b -> Hashtbl.replace post b.Ir.b_id Int_set.empty) cfg.Cfg.rpo;
  let queue = Queue.create () in
  let queued = Hashtbl.create 16 in
  let enqueue b =
    if not (Hashtbl.mem queued b.Ir.b_id) then begin
      Hashtbl.replace queued b.Ir.b_id ();
      Queue.add b queue
    end
  in
  List.iter enqueue cfg.Cfg.rpo;
  let iterations = ref 0 in
  while not (Queue.is_empty queue) do
    let b = Queue.pop queue in
    Hashtbl.remove queued b.Ir.b_id;
    incr iterations;
    let incoming =
      List.fold_left
        (fun acc src ->
          match Hashtbl.find_opt post src.Ir.b_id with
          | Some f -> Int_set.union acc f
          | None -> acc (* unreachable feeder: contributes nothing *))
        (if is_entry b then boundary else Int_set.empty)
        (Cfg.predecessors cfg b)
    in
    Hashtbl.replace pre b.Ir.b_id incoming;
    let outgoing = transfer step b incoming in
    let changed =
      match Hashtbl.find_opt post b.Ir.b_id with
      | Some old -> not (Int_set.equal old outgoing)
      | None -> true
    in
    if changed then begin
      Hashtbl.replace post b.Ir.b_id outgoing;
      List.iter enqueue (Ir.successors b)
    end
  done;
  {
    entry_fact =
      (fun b ->
        Option.value (Hashtbl.find_opt pre b.Ir.b_id) ~default:Int_set.empty);
    iterations = !iterations;
  }

(* Resolve a pointer operand to the alloca slot it addresses directly
   (through casts, but not through GEPs — a GEP'd access is an element
   access, not a whole-slot access). *)
let rec slot_of_ptr (v : Ir.value) : Ir.inst option =
  match v with
  | Ir.Inst_ref i -> (
    match i.Ir.i_kind with
    | Ir.Alloca _ -> Some i
    | Ir.Cast (_, x) -> slot_of_ptr x
    | _ -> None)
  | _ -> None

(* Resolve a pointer operand to its base alloca through GEP chains and
   casts: the slot whose storage an element access touches. *)
let rec base_slot (v : Ir.value) : Ir.inst option =
  match v with
  | Ir.Inst_ref i -> (
    match i.Ir.i_kind with
    | Ir.Alloca _ -> Some i
    | Ir.Cast (_, x) -> base_slot x
    | Ir.Gep { base; _ } -> base_slot base
    | _ -> None)
  | _ -> None
