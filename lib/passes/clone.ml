open Mc_ir.Ir

type mapping = {
  bmap : block Id_tbl.t;
  imap : inst Id_tbl.t;
  seed : value -> value;
}

let mapped_block m b =
  match Id_tbl.find_opt m.bmap b.b_id with Some nb -> nb | None -> b

let mapped_value m v =
  match v with
  | Inst_ref i -> (
    match Id_tbl.find_opt m.imap i.i_id with
    | Some ni -> Inst_ref ni
    | None -> m.seed v)
  | _ -> m.seed v

let clone_region f ~blocks ~seed ~suffix =
  let m = { bmap = Id_tbl.create 16; imap = Id_tbl.create 64; seed } in
  (* Phase 1: shells.  All instructions are created with their original
     operands so that intra-region forward references (phi back edges of
     nested loops) resolve in phase 2. *)
  let clones =
    List.map
      (fun b ->
        let nb = create_block ~name:(b.b_name ^ suffix) f in
        nb.b_loop_md <- b.b_loop_md;
        Id_tbl.replace m.bmap b.b_id nb;
        List.iter
          (fun i ->
            let ni = mk_inst ~name:i.i_name ~ty:i.i_ty i.i_kind in
            Id_tbl.replace m.imap i.i_id ni;
            append_inst nb ni)
          (block_insts b);
        (b, nb))
      blocks
  in
  (* Phase 2: remap operands, phi incoming blocks, and terminators. *)
  List.iter
    (fun (b, nb) ->
      List.iter
        (fun ni ->
          match ni.i_kind with
          | Phi { incoming } ->
            ni.i_kind <-
              Phi
                {
                  incoming =
                    List.map
                      (fun (v, ib) -> (mapped_value m v, mapped_block m ib))
                      incoming;
                }
          | _ -> map_inst_operands (mapped_value m) ni)
        (block_insts nb);
      nb.b_term <-
        (match b.b_term with
        | Ret v -> Ret (Option.map (mapped_value m) v)
        | Br t -> Br (mapped_block m t)
        | Cond_br (c, t, e) ->
          Cond_br (mapped_value m c, mapped_block m t, mapped_block m e)
        | Unreachable -> Unreachable
        | No_term -> No_term))
    clones;
  m
