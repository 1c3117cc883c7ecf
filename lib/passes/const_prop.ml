open Mc_ir.Ir
module Builder = Mc_ir.Builder

let fold_inst i =
  match i.i_kind with
  | Binop (op, Const_int (ty, a), Const_int (_, b)) ->
    Option.map (fun v -> Const_int (ty, v)) (Builder.fold_int_binop_const op ty a b)
  | Binop (op, Const_float (ty, a), Const_float (_, b)) ->
    Option.map (fun v -> Const_float (ty, v)) (Builder.fold_float_binop_const op a b)
  | Icmp (op, Const_int (ty, a), Const_int (_, b)) ->
    Some (bool_const (Builder.eval_icmp_const op ty a b))
  | Fcmp (op, Const_float (_, a), Const_float (_, b)) ->
    Some (bool_const (Builder.eval_fcmp_const op a b))
  | Cast (op, (Const_int _ | Const_float _ as v)) ->
    Builder.fold_cast_const op v i.i_ty
  | Select (Const_int (I1, c), a, b) -> Some (if Int64.equal c 1L then a else b)
  (* (zext i1 x) != 0  ==>  x   — re-exposes boolean conditions. *)
  | Icmp (Ine, Inst_ref { i_kind = Cast (Zext, v); _ }, Const_int (_, 0L))
    when value_ty v = I1 ->
    Some v
  | Icmp (Ieq, Inst_ref { i_kind = Cast (Zext, v); _ }, Const_int (_, 0L))
    when value_ty v = I1 -> (
    match v with
    | Const_int (I1, b) -> Some (bool_const (Int64.equal b 0L))
    | _ -> None)
  | Phi { incoming = [ (v, _) ] } -> Some v (* single-predecessor phi *)
  | Phi { incoming = (v, _) :: rest }
    when List.for_all (fun (w, _) -> value_equal v w) rest ->
    Some v
  | _ -> None

let remove_phi_edge target ~pred =
  List.iter
    (fun phi ->
      match phi.i_kind with
      | Phi { incoming } ->
        phi.i_kind <-
          Phi { incoming = List.filter (fun (_, b) -> not (b == pred)) incoming }
      | _ -> ())
    (block_phis target)

(* [replacement] can map a phi to itself — [x = phi [x, latch]] once a
   folded branch dropped the preheader edge of a dead loop — or close a
   longer cycle, e.g. two swapped variables' phis mapped to each other.
   A cycle that only [replacement] itself refers to just disappears with
   the rest of it, but resolving a use through one would never end.  So
   when a kept instruction or terminator reaches a cycle, the cycle's
   members stay unfolded: they carry no value to fold to, and chains
   into them then end at a kept phi. *)
let drop_used_cycles f replacement =
  let next id =
    match Id_tbl.find replacement id with
    | Inst_ref i when Id_tbl.mem replacement i.i_id -> Some i.i_id
    | _ -> None
  in
  (* Every entry leads to at most one other, so walking from each entry
     and stopping at anything already seen finds every cycle: a walk
     that meets itself has just closed one. *)
  let walk_of = Id_tbl.create 16 and cyclic = Id_tbl.create 4 in
  let rec mark_round start id =
    Id_tbl.replace cyclic id ();
    match next id with Some n when n <> start -> mark_round start n | _ -> ()
  in
  let rec walk w id =
    match Id_tbl.find_opt walk_of id with
    | Some w' -> if w' = w then mark_round id id
    | None -> (
      Id_tbl.replace walk_of id w;
      match next id with Some n -> walk w n | None -> ())
  in
  let in_program_order visit =
    List.iter (fun b -> List.iter visit (block_insts b)) f.f_blocks
  in
  in_program_order (fun i ->
      if Id_tbl.mem replacement i.i_id then walk i.i_id i.i_id);
  if Id_tbl.length cyclic > 0 then begin
    let rec reaches_cycle = function
      | Inst_ref i when Id_tbl.mem cyclic i.i_id -> true
      | Inst_ref i when Id_tbl.mem replacement i.i_id ->
        reaches_cycle (Id_tbl.find replacement i.i_id)
      | _ -> false
    in
    let used =
      List.exists
        (fun b ->
          List.exists reaches_cycle (terminator_operands b.b_term)
          || List.exists
               (fun i ->
                 (not (Id_tbl.mem replacement i.i_id))
                 && List.exists reaches_cycle (inst_operands i))
               b.b_insts_rev)
        f.f_blocks
    in
    if used then
      in_program_order (fun i ->
          if Id_tbl.mem cyclic i.i_id then Id_tbl.remove replacement i.i_id)
  end

let run_func f =
  if f.f_is_decl then false
  else begin
    let changed_ever = ref false in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      (* Fold instructions. *)
      let replacement = Id_tbl.create 16 in
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              match fold_inst i with
              | Some v -> Id_tbl.replace replacement i.i_id v
              | None -> ())
            (block_insts b))
        f.f_blocks;
      if Id_tbl.length replacement > 0 then drop_used_cycles f replacement;
      if Id_tbl.length replacement > 0 then begin
        continue_ := true;
        changed_ever := true;
        let rec resolve v =
          match v with
          | Inst_ref i when Id_tbl.mem replacement i.i_id ->
            resolve (Id_tbl.find replacement i.i_id)
          | _ -> v
        in
        List.iter
          (fun b ->
            List.iter
              (fun i ->
                if not (Id_tbl.mem replacement i.i_id) then
                  match i.i_kind with
                  | Phi { incoming } ->
                    i.i_kind <-
                      Phi
                        {
                          incoming =
                            List.map (fun (v, ib) -> (resolve v, ib)) incoming;
                        }
                  | _ -> map_inst_operands resolve i)
              (block_insts b);
            map_terminator_operands resolve b;
            set_block_insts b
              (List.filter
                 (fun i -> not (Id_tbl.mem replacement i.i_id))
                 (block_insts b)))
          f.f_blocks
      end;
      (* Fold constant conditional branches, dropping the dead edge from the
         target's phis. *)
      List.iter
        (fun b ->
          match b.b_term with
          | Cond_br (Const_int (I1, c), t, e) ->
            let taken, dropped = if Int64.equal c 1L then (t, e) else (e, t) in
            b.b_term <- Br taken;
            if not (dropped == taken) then remove_phi_edge dropped ~pred:b;
            continue_ := true;
            changed_ever := true
          | Cond_br (_, t, e) when t == e ->
            b.b_term <- Br t;
            continue_ := true;
            changed_ever := true
          | _ -> ())
        f.f_blocks
    done;
    !changed_ever
  end
