open Mc_ir.Ir

let remove_unreachable f =
  let reachable = Id_tbl.create 32 in
  let rec dfs b =
    if not (Id_tbl.mem reachable b.b_id) then begin
      Id_tbl.add reachable b.b_id ();
      List.iter dfs (successors b)
    end
  in
  dfs (entry_block f);
  let dead = List.filter (fun b -> not (Id_tbl.mem reachable b.b_id)) f.f_blocks in
  if dead = [] then false
  else begin
    let dead_set = Id_tbl.create (List.length dead) in
    List.iter (fun b -> Id_tbl.replace dead_set b.b_id ()) dead;
    let is_dead b = Id_tbl.mem dead_set b.b_id in
    List.iter
      (fun b ->
        List.iter
          (fun phi ->
            match phi.i_kind with
            | Phi { incoming } ->
              phi.i_kind <-
                Phi
                  {
                    incoming =
                      List.filter (fun (_, ib) -> not (is_dead ib)) incoming;
                  }
            | _ -> ())
          (block_phis b))
      (List.filter (fun b -> not (is_dead b)) f.f_blocks);
    remove_blocks f dead;
    true
  end

(* Merge [b] with its unique successor [s] when [s] has [b] as its unique
   predecessor and no phis.  [s]'s loop metadata survives (it may be a loop
   latch).

   One forward sweep makes the same merges, in the same order, as
   restarting from the entry after every merge would: merging [s] into
   [b] only renames [s] to [b] in the predecessor lists of [s]'s
   successors, so it can turn no block before [b] into a candidate —
   [b] itself is re-checked (its new successor may merge too) before the
   sweep moves on.  Absorbed blocks are skipped and removed at the end. *)
let merge_pairs f =
  let entry = entry_block f in
  let idx = pred_index f in
  let absorbed = ref [] in
  let absorbed_set = Id_tbl.create 8 in
  let rec absorb b =
    match b.b_term with
    | Br s
      when (not (s == b))
           && (not (s == entry))
           && (match preds idx s with [ p ] -> p == b | _ -> false)
           && block_phis s = [] ->
      List.iter (fun i -> append_inst b i) (block_insts s);
      b.b_term <- s.b_term;
      b.b_loop_md <-
        {
          md_unroll =
            (match s.b_loop_md.md_unroll with
            | Some u -> Some u
            | None -> b.b_loop_md.md_unroll);
          md_vectorize_width =
            (match s.b_loop_md.md_vectorize_width with
            | Some w -> Some w
            | None -> b.b_loop_md.md_vectorize_width);
        };
      (* [s]'s successors now see [b] where they saw [s], both in the
         index and in their phis (valid IR names [s] in no other phi). *)
      List.iter
        (fun succ ->
          Id_tbl.replace idx succ.b_id
            (List.map (fun p -> if p == s then b else p) (preds idx succ));
          List.iter
            (fun phi ->
              match phi.i_kind with
              | Phi { incoming } ->
                phi.i_kind <-
                  Phi
                    {
                      incoming =
                        List.map
                          (fun (v, ib) -> if ib == s then (v, b) else (v, ib))
                          incoming;
                    }
              | _ -> ())
            (block_phis succ))
        (successors b);
      Id_tbl.remove idx s.b_id;
      Id_tbl.replace absorbed_set s.b_id ();
      absorbed := s :: !absorbed;
      absorb b
    | _ -> ()
  in
  List.iter
    (fun b -> if not (Id_tbl.mem absorbed_set b.b_id) then absorb b)
    f.f_blocks;
  if !absorbed = [] then false
  else begin
    remove_blocks f !absorbed;
    true
  end

(* Forward branches through empty blocks (no instructions, unconditional
   branch) when the target's phis stay consistent. *)
let forward_empty f =
  let changed = ref false in
  let entry = entry_block f in
  let idx = pred_index f in
  List.iter
    (fun b ->
      if (not (b == entry)) && b.b_insts_rev = [] then begin
        match b.b_term with
        (* Safe when the target has no phis (otherwise incoming edges would
           need merging, with possible conflicts). *)
        | Br t when (not (t == b)) && block_phis t = [] ->
          let ps = preds idx b in
          if ps <> [] then begin
            List.iter (fun p -> replace_successor p ~from:b ~into:t) ps;
            (* Keep the index current for the blocks still to come: [t]
               gains [b]'s predecessors and [b] has none left.  Only
               membership matters here, not order. *)
            let into_t = preds idx t in
            Id_tbl.replace idx t.b_id
              (into_t @ List.filter (fun p -> not (List.memq p into_t)) ps);
            Id_tbl.remove idx b.b_id;
            changed := true
          end
        | _ -> ()
      end)
    f.f_blocks;
  !changed

let run_func f =
  if f.f_is_decl || f.f_blocks = [] then false
  else begin
    let changed = ref false in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      if remove_unreachable f then begin
        changed := true;
        continue_ := true
      end;
      if forward_empty f then begin
        changed := true;
        continue_ := true
      end;
      if remove_unreachable f then begin
        changed := true;
        continue_ := true
      end;
      if merge_pairs f then begin
        changed := true;
        continue_ := true
      end
    done;
    !changed
  end
