open Mc_ir.Ir

type t = {
  func : func;
  index : pred_index; (* the CFG the tree was computed on *)
  rpo : block list;
  rpo_index : int Id_tbl.t; (* block id -> RPO position *)
  idoms : block Id_tbl.t; (* block id -> immediate dominator *)
  frontiers : block list Id_tbl.t;
  kids : block list Id_tbl.t;
  span : (int * int) Id_tbl.t; (* block id -> dominator-tree pre/post number *)
}

let reverse_postorder_of func =
  let visited = Id_tbl.create 32 in
  let order = ref [] in
  let rec dfs b =
    if not (Id_tbl.mem visited b.b_id) then begin
      Id_tbl.add visited b.b_id ();
      List.iter dfs (successors b);
      order := b :: !order
    end
  in
  dfs (entry_block func);
  !order

let compute func =
  let index = pred_index func in
  let rpo = reverse_postorder_of func in
  let rpo_index = Id_tbl.create 32 in
  List.iteri (fun i b -> Id_tbl.replace rpo_index b.b_id i) rpo;
  let idoms = Id_tbl.create 32 in
  let entry = entry_block func in
  Id_tbl.replace idoms entry.b_id entry;
  (* Cooper-Harvey-Kennedy fixed point over RPO. *)
  let intersect b1 b2 =
    let rec walk f1 f2 =
      if f1 == f2 then f1
      else begin
        let i1 = Id_tbl.find rpo_index f1.b_id in
        let i2 = Id_tbl.find rpo_index f2.b_id in
        if i1 > i2 then walk (Id_tbl.find idoms f1.b_id) f2
        else walk f1 (Id_tbl.find idoms f2.b_id)
      end
    in
    walk b1 b2
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if not (b == entry) then begin
          let ps =
            List.filter
              (fun p ->
                Id_tbl.mem rpo_index p.b_id && Id_tbl.mem idoms p.b_id)
              (preds index b)
          in
          match ps with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            (match Id_tbl.find_opt idoms b.b_id with
            | Some old when old == new_idom -> ()
            | _ ->
              Id_tbl.replace idoms b.b_id new_idom;
              changed := true)
        end)
      rpo
  done;
  (* Dominance frontiers (per CHK). *)
  let frontiers = Id_tbl.create 32 in
  List.iter (fun b -> Id_tbl.replace frontiers b.b_id []) rpo;
  List.iter
    (fun b ->
      let ps = List.filter (fun p -> Id_tbl.mem idoms p.b_id) (preds index b) in
      if List.length ps >= 2 then
        List.iter
          (fun p ->
            let rec up runner =
              if not (runner == Id_tbl.find idoms b.b_id) then begin
                let fs = Id_tbl.find frontiers runner.b_id in
                if not (List.exists (fun x -> x == b) fs) then
                  Id_tbl.replace frontiers runner.b_id (b :: fs);
                up (Id_tbl.find idoms runner.b_id)
              end
            in
            up p)
          ps)
    rpo;
  let kids = Id_tbl.create 32 in
  List.iter
    (fun b ->
      if not (b == entry) then begin
        match Id_tbl.find_opt idoms b.b_id with
        | Some parent ->
          let existing =
            Option.value (Id_tbl.find_opt kids parent.b_id) ~default:[]
          in
          Id_tbl.replace kids parent.b_id (b :: existing)
        | None -> ()
      end)
    rpo;
  (* Number the tree in one walk so a dominance query is an interval
     test instead of a climb up the idom chain. *)
  let span = Id_tbl.create 32 in
  let clock = ref 0 in
  let rec number b =
    let pre = !clock in
    incr clock;
    List.iter number (Option.value (Id_tbl.find_opt kids b.b_id) ~default:[]);
    Id_tbl.replace span b.b_id (pre, !clock);
    incr clock
  in
  number entry;
  { func; index; rpo; rpo_index; idoms; frontiers; kids; span }

let reverse_postorder t = t.rpo
let predecessors t b = preds t.index b
let is_reachable t b = Id_tbl.mem t.rpo_index b.b_id

let idom t b =
  if b == entry_block t.func then None
  else Id_tbl.find_opt t.idoms b.b_id

let dominates t a b =
  match (Id_tbl.find_opt t.span a.b_id, Id_tbl.find_opt t.span b.b_id) with
  | Some (pre_a, post_a), Some (pre_b, post_b) ->
    pre_a <= pre_b && post_b <= post_a
  | _ -> false

let strictly_dominates t a b = (not (a == b)) && dominates t a b

let dominance_frontier t b =
  Option.value (Id_tbl.find_opt t.frontiers b.b_id) ~default:[]

let children t b = Option.value (Id_tbl.find_opt t.kids b.b_id) ~default:[]
