open Mc_ir.Ir

type loop = {
  header : block;
  latches : block list;
  blocks : block list;
  preheader : block option;
  exits : block list;
  members : unit Id_tbl.t;
}

let loop_contains loop b = Id_tbl.mem loop.members b.b_id

let single_latch loop =
  match loop.latches with [ l ] -> Some l | _ -> None

let find_loops dom =
  (* Group back edges by header. *)
  let back_edges = Id_tbl.create 8 in
  let headers = ref [] in
  List.iter
    (fun b ->
      List.iter
        (fun succ ->
          if Dominators.dominates dom succ b then begin
            if not (Id_tbl.mem back_edges succ.b_id) then
              headers := succ :: !headers;
            Id_tbl.replace back_edges succ.b_id
              (b :: Option.value (Id_tbl.find_opt back_edges succ.b_id) ~default:[])
          end)
        (successors b))
    (Dominators.reverse_postorder dom);
  let build header =
    let latches = Id_tbl.find back_edges header.b_id in
    (* Body: reverse reachability from the latches, stopping at the header. *)
    let in_loop = Id_tbl.create 16 in
    Id_tbl.replace in_loop header.b_id header;
    let rec pull b =
      if not (Id_tbl.mem in_loop b.b_id) then begin
        Id_tbl.replace in_loop b.b_id b;
        List.iter pull (Dominators.predecessors dom b)
      end
    in
    List.iter pull latches;
    let blocks =
      header
      :: List.filter
           (fun b -> (not (b == header)) && Id_tbl.mem in_loop b.b_id)
           (Dominators.reverse_postorder dom)
    in
    let outside_preds =
      List.filter
        (fun p -> not (Id_tbl.mem in_loop p.b_id))
        (Dominators.predecessors dom header)
    in
    let preheader = match outside_preds with [ p ] -> Some p | _ -> None in
    let exits =
      List.sort_uniq
        (fun a b -> compare a.b_id b.b_id)
        (List.concat_map
           (fun b ->
             List.filter (fun s -> not (Id_tbl.mem in_loop s.b_id)) (successors b))
           blocks)
    in
    let members = Id_tbl.create (List.length blocks) in
    List.iter (fun b -> Id_tbl.replace members b.b_id ()) blocks;
    { header; latches; blocks; preheader; exits; members }
  in
  let loops = List.map build (List.rev !headers) in
  (* Outermost-first: more blocks first among nested loops. *)
  List.sort (fun a b -> compare (List.length b.blocks) (List.length a.blocks)) loops

let loop_with_unroll_request dom =
  List.filter_map
    (fun loop ->
      let md =
        List.find_map (fun l -> l.b_loop_md.md_unroll) loop.latches
      in
      Option.map (fun m -> (loop, m)) md)
    (find_loops dom)
