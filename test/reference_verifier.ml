(* The IR verifier as it was before the single allocation-free walk,
   kept as the reference the walk must equal: the same issues, in the
   same order, with the same messages.  It builds fresh id tables per
   function, copies each block's instruction list and lists operands
   per instruction; none of that matters here. *)

open Mc_ir.Ir

type issue = Mc_ir.Verifier.issue = {
  in_function : string;
  in_block : string;
  message : string;
}

let verify_func f =
  let issues = ref [] in
  let add b msg =
    issues :=
      { in_function = f.f_name; in_block = b; message = msg } :: !issues
  in
  if f.f_is_decl then []
  else begin
    if f.f_blocks = [] then add "<none>" "defined function has no blocks";
    let in_func = Id_tbl.create (List.length f.f_blocks) in
    List.iter (fun b -> Id_tbl.replace in_func b.b_id ()) f.f_blocks;
    (* Instructions defined anywhere in the function (SSA availability is
       approximated: a full dominance check lives in the passes library). *)
    let defined = Id_tbl.create (func_inst_count f) in
    List.iter
      (fun b -> List.iter (fun i -> Id_tbl.replace defined i.i_id ()) b.b_insts_rev)
      f.f_blocks;
    (* Only phis consult predecessors: many functions have none. *)
    let preds = lazy (pred_index f) in
    let check_value b v =
      match v with
      | Inst_ref i ->
        if not (Id_tbl.mem defined i.i_id) then
          add b.b_name
            (Printf.sprintf "use of instruction %d not defined in function"
               i.i_id)
      | Arg a ->
        if not (List.exists (fun x -> x.a_id = a.a_id) f.f_args) then
          add b.b_name (Printf.sprintf "use of foreign argument '%s'" a.a_name)
      | Const_int _ | Const_float _ | Fn_addr _ | Undef _ -> ()
    in
    List.iter
      (fun b ->
        let insts = block_insts b in
        (* Phis must lead the block. *)
        let rec check_phi_position seen_non_phi = function
          | [] -> ()
          | i :: rest ->
            (match i.i_kind with
            | Phi _ when seen_non_phi ->
              add b.b_name "phi after non-phi instruction"
            | Phi _ -> ()
            | _ -> ());
            check_phi_position
              (seen_non_phi || match i.i_kind with Phi _ -> false | _ -> true)
              rest
        in
        check_phi_position false insts;
        List.iter
          (fun i ->
            List.iter (check_value b) (inst_operands i);
            (match i.i_parent with
            | Some p when p == b -> ()
            | _ -> add b.b_name (Printf.sprintf "instruction %d has wrong parent" i.i_id));
            match i.i_kind with
            | Binop (op, x, y) ->
              if value_ty x <> value_ty y then
                add b.b_name "binop operand types differ"
              else if
                value_ty x <> i.i_ty
                && not (op = Sub && value_ty x = Ptr && i.i_ty = I64)
              then add b.b_name "binop result type mismatch"
            | Icmp (_, x, y) ->
              if value_ty x <> value_ty y then
                add b.b_name "icmp operand types differ"
            | Store { ptr; _ } | Load { ptr } ->
              if value_ty ptr <> Ptr then
                add b.b_name "memory operand is not a pointer"
            | Gep { base; _ } ->
              if value_ty base <> Ptr then add b.b_name "gep base is not a pointer"
            | Select (c, x, y) ->
              if value_ty c <> I1 then add b.b_name "select condition not i1";
              if value_ty x <> value_ty y then
                add b.b_name "select arm types differ"
            | Phi { incoming } ->
              let preds = Mc_ir.Ir.preds (Lazy.force preds) b in
              if List.length incoming <> List.length preds then
                add b.b_name
                  (Printf.sprintf "phi has %d incoming values for %d predecessors"
                     (List.length incoming) (List.length preds))
              else
                List.iter
                  (fun p ->
                    if not (List.exists (fun (_, ib) -> ib == p) incoming) then
                      add b.b_name
                        (Printf.sprintf "phi missing incoming for predecessor '%s'"
                           p.b_name))
                  preds;
              List.iter
                (fun (v, _) ->
                  if value_ty v <> i.i_ty && (match v with Undef _ -> false | _ -> true)
                  then add b.b_name "phi incoming type mismatch")
                incoming
            | Alloca _ | Cast _ | Call _ | Fcmp _ -> ())
          insts;
        (* Terminators. *)
        List.iter (check_value b) (terminator_operands b.b_term);
        (match b.b_term with
        | No_term -> add b.b_name "block has no terminator"
        | Ret None ->
          if f.f_ret <> Void then add b.b_name "ret void in non-void function"
        | Ret (Some v) ->
          if f.f_ret = Void then add b.b_name "ret value in void function"
          else if value_ty v <> f.f_ret then add b.b_name "ret type mismatch"
        | Cond_br (c, _, _) ->
          if value_ty c <> I1 then add b.b_name "branch condition not i1"
        | Br _ | Unreachable -> ());
        List.iter
          (fun s ->
            if not (Id_tbl.mem in_func s.b_id) then
              add b.b_name
                (Printf.sprintf "successor '%s' not in function" s.b_name))
          (successors b))
      f.f_blocks;
    List.rev !issues
  end

let verify_module m = List.concat_map verify_func m.m_funcs
