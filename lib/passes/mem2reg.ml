open Mc_ir.Ir

(* An alloca is promotable when every use is a direct load of the whole
   scalar or a store *to* it (never of it), and it is a single element. *)
let promotable_allocas f =
  let candidates = Id_tbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.i_kind with
          | Alloca { elt_ty; count = 1 } when elt_ty <> Void ->
            Id_tbl.replace candidates i.i_id (i, elt_ty)
          | _ -> ())
        (block_insts b))
    f.f_blocks;
  let disqualify v =
    match v with
    | Inst_ref i -> Id_tbl.remove candidates i.i_id
    | _ -> ()
  in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.i_kind with
          | Load { ptr = Inst_ref a } when Id_tbl.mem candidates a.i_id ->
            (* A load of the right type keeps the candidate... *)
            let _, elt_ty = Id_tbl.find candidates a.i_id in
            if i.i_ty <> elt_ty then Id_tbl.remove candidates a.i_id
          | Store { ptr = Inst_ref a; v } when Id_tbl.mem candidates a.i_id ->
            let _, elt_ty = Id_tbl.find candidates a.i_id in
            if value_ty v <> elt_ty then Id_tbl.remove candidates a.i_id;
            (* storing the alloca's own address disqualifies *)
            disqualify v
          | _ -> List.iter disqualify (inst_operands i))
        (block_insts b);
      List.iter disqualify (terminator_operands b.b_term))
    f.f_blocks;
  (* Return survivors in program order.  Id_tbl.fold order depends on
     the numeric i_id values, which differ between a whole-unit compile
     and a relinked per-function one; phi placement below would then
     emit phis in a different order for byte-identical source. *)
  List.concat_map
    (fun b ->
      List.filter_map
        (fun i -> Id_tbl.find_opt candidates i.i_id)
        (block_insts b))
    f.f_blocks

let run_func f =
  if f.f_is_decl || f.f_blocks = [] then 0
  else begin
    let allocas = promotable_allocas f in
    if allocas = [] then 0
    else begin
      let dom = Dominators.compute f in
      let alloca_ids = Id_tbl.create 8 in
      List.iter (fun (a, ty) -> Id_tbl.replace alloca_ids a.i_id ty) allocas;
      (* 1. Phi placement at the iterated dominance frontier of stores.
         One sweep finds every alloca's storing blocks, in [f_blocks]
         order (placing phis adds no stores, so they can be found up
         front). *)
      let def_blocks = Id_tbl.create 8 in
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              match i.i_kind with
              | Store { ptr = Inst_ref p; _ } when Id_tbl.mem alloca_ids p.i_id -> (
                match Id_tbl.find_opt def_blocks p.i_id with
                | Some (last :: _) when last == b -> ()
                | seen ->
                  Id_tbl.replace def_blocks p.i_id
                    (b :: Option.value seen ~default:[]))
              | _ -> ())
            b.b_insts_rev)
        f.f_blocks;
      let phi_owner = Id_tbl.create 16 in
      (* phi inst id -> alloca id *)
      let placed_phis = Id_tbl.create 16 in
      (* block id -> the phis placed there, in program order *)
      List.iter
        (fun (a, elt_ty) ->
          let def_blocks =
            List.rev
              (Option.value (Id_tbl.find_opt def_blocks a.i_id) ~default:[])
          in
          let placed = Id_tbl.create 8 in
          let worklist = Queue.create () in
          List.iter (fun b -> Queue.add b worklist) def_blocks;
          while not (Queue.is_empty worklist) do
            let b = Queue.pop worklist in
            List.iter
              (fun frontier_block ->
                if not (Id_tbl.mem placed frontier_block.b_id) then begin
                  Id_tbl.add placed frontier_block.b_id ();
                  let phi =
                    mk_inst ~name:(a.i_name ^ ".phi") ~ty:elt_ty
                      (Phi { incoming = [] })
                  in
                  phi.i_parent <- Some frontier_block;
                  (* prepend: phis lead the block *)
                  frontier_block.b_insts_rev <-
                    frontier_block.b_insts_rev @ [ phi ];
                  Id_tbl.replace phi_owner phi.i_id a.i_id;
                  Id_tbl.replace placed_phis frontier_block.b_id
                    (phi
                    :: Option.value
                         (Id_tbl.find_opt placed_phis frontier_block.b_id)
                         ~default:[]);
                  Queue.add frontier_block worklist
                end)
              (Dominators.dominance_frontier dom b)
          done)
        allocas;
      (* 2. Renaming along the dominator tree. *)
      let stacks = Id_tbl.create 8 in
      (* alloca id -> value list ref *)
      List.iter (fun (a, _) -> Id_tbl.replace stacks a.i_id (ref [])) allocas;
      let top a_id ty =
        match !(Id_tbl.find stacks a_id) with
        | v :: _ -> v
        | [] -> Undef ty
      in
      let replacement = Id_tbl.create 32 in
      (* dead load id -> value *)
      let dead = Id_tbl.create 32 in
      let rec rename block =
        let pushed = ref [] in
        let push a_id v =
          let st = Id_tbl.find stacks a_id in
          st := v :: !st;
          pushed := a_id :: !pushed
        in
        List.iter
          (fun i ->
            match i.i_kind with
            | Phi _ when Id_tbl.mem phi_owner i.i_id ->
              push (Id_tbl.find phi_owner i.i_id) (Inst_ref i)
            | Load { ptr = Inst_ref a } when Id_tbl.mem alloca_ids a.i_id ->
              Id_tbl.replace replacement i.i_id
                (top a.i_id (Id_tbl.find alloca_ids a.i_id));
              Id_tbl.replace dead i.i_id ()
            | Store { ptr = Inst_ref a; v } when Id_tbl.mem alloca_ids a.i_id ->
              push a.i_id v;
              Id_tbl.replace dead i.i_id ()
            | Alloca _ when Id_tbl.mem alloca_ids i.i_id ->
              Id_tbl.replace dead i.i_id ()
            | _ -> ())
          (block_insts block);
        (* Seed successor phis with the current reaching value. *)
        List.iter
          (fun succ ->
            List.iter
              (fun phi ->
                let a_id = Id_tbl.find phi_owner phi.i_id in
                match phi.i_kind with
                | Phi p ->
                  phi.i_kind <-
                    Phi
                      {
                        incoming =
                          p.incoming
                          @ [ (top a_id (Id_tbl.find alloca_ids a_id), block) ];
                      }
                | _ -> ())
              (Option.value (Id_tbl.find_opt placed_phis succ.b_id) ~default:[]))
          (successors block);
        List.iter rename (Dominators.children dom block);
        List.iter
          (fun a_id ->
            let st = Id_tbl.find stacks a_id in
            st := List.tl !st)
          !pushed
      in
      rename (entry_block f);
      (* 3. Apply replacements (chasing chains) and drop dead memory ops. *)
      let rec resolve v =
        match v with
        | Inst_ref i when Id_tbl.mem replacement i.i_id ->
          resolve (Id_tbl.find replacement i.i_id)
        | _ -> v
      in
      List.iter
        (fun b ->
          List.iter (map_inst_operands resolve) b.b_insts_rev;
          map_terminator_operands resolve b;
          b.b_insts_rev <-
            List.filter (fun i -> not (Id_tbl.mem dead i.i_id)) b.b_insts_rev)
        f.f_blocks;
      List.length allocas
    end
  end
