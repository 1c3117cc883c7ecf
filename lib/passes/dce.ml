open Mc_ir.Ir

let has_side_effects i =
  match i.i_kind with
  | Store _ | Call _ -> true
  | Alloca _ | Load _ | Binop _ | Icmp _ | Fcmp _ | Cast _ | Gep _ | Select _
  | Phi _ ->
    false

let run_func f =
  if f.f_is_decl then false
  else begin
    (* Mark: roots are side-effecting instructions and terminator operands. *)
    let live = Id_tbl.create 64 in
    let worklist = Queue.create () in
    let mark v =
      match v with
      | Inst_ref i when not (Id_tbl.mem live i.i_id) ->
        Id_tbl.add live i.i_id ();
        Queue.add i worklist
      | _ -> ()
    in
    List.iter
      (fun b ->
        List.iter
          (fun i -> if has_side_effects i then mark (Inst_ref i))
          (block_insts b);
        List.iter mark (terminator_operands b.b_term))
      f.f_blocks;
    while not (Queue.is_empty worklist) do
      let i = Queue.pop worklist in
      List.iter mark (inst_operands i)
    done;
    (* Sweep. *)
    let changed = ref false in
    List.iter
      (fun b ->
        let keep, drop =
          List.partition (fun i -> Id_tbl.mem live i.i_id) (block_insts b)
        in
        if drop <> [] then begin
          changed := true;
          set_block_insts b keep
        end)
      f.f_blocks;
    !changed
  end

let run m =
  List.fold_left
    (fun acc f -> run_func f || acc)
    false
    (List.filter (fun f -> not f.f_is_decl) m.m_funcs)
