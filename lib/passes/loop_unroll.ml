open Mc_ir.Ir

type stats = { fully_unrolled : int; partially_unrolled : int; skipped : int }

let empty_stats = { fully_unrolled = 0; partially_unrolled = 0; skipped = 0 }

let processed s = s.fully_unrolled + s.partially_unrolled + s.skipped

let add_stats a b =
  {
    fully_unrolled = a.fully_unrolled + b.fully_unrolled;
    partially_unrolled = a.partially_unrolled + b.partially_unrolled;
    skipped = a.skipped + b.skipped;
  }

let clear_unroll_md loop =
  List.iter
    (fun l -> l.b_loop_md <- { l.b_loop_md with md_unroll = None })
    loop.Loop_info.latches

let header_phis header = block_phis header

let latch_incoming phi latch =
  match phi.i_kind with
  | Phi { incoming } -> (
    match phi_incoming_for_pred incoming latch with
    | Some v -> v
    | None -> invalid_arg "phi has no latch incoming")
  | _ -> invalid_arg "not a phi"

let body_size loop =
  List.fold_left
    (fun acc b -> acc + List.length (block_insts b))
    0 loop.Loop_info.blocks

(* Values flowing out of the loop must be loop-invariant or header phis;
   anything else (e.g. an exit-block phi consuming the header's cmp) makes
   the rewrite unsafe, so we bail. *)
let exit_values_manageable (a : Trip_count.affine) func loop =
  let in_chain b = List.exists (fun c -> c == b) a.Trip_count.header_chain in
  let defined_in_header_non_phi v =
    match v with
    | Inst_ref i -> (
      match (i.i_parent, i.i_kind) with
      | Some p, Phi _ when p == loop.Loop_info.header -> false
      | Some p, _ when in_chain p -> true
      | _ -> false)
    | _ -> false
  in
  List.for_all
    (fun b ->
      Loop_info.loop_contains loop b
      || List.for_all
           (fun i ->
             List.for_all
               (fun v -> not (defined_in_header_non_phi v))
               (inst_operands i))
           (block_insts b)
         && List.for_all
              (fun v -> not (defined_in_header_non_phi v))
              (terminator_operands b.b_term))
    func.f_blocks

(* Add phi incomings in out-of-loop successors for the edges a cloned block
   introduces: the clone contributes the mapped value of what the original
   contributed. *)
let patch_exit_phis loop mapping originals =
  List.iter
    (fun ob ->
      let cb = Clone.mapped_block mapping ob in
      List.iter
        (fun succ ->
          if not (Loop_info.loop_contains loop succ) then
            List.iter
              (fun phi ->
                match phi.i_kind with
                | Phi { incoming } -> (
                  match phi_incoming_for_pred incoming ob with
                  | Some v ->
                    phi.i_kind <-
                      Phi
                        {
                          incoming =
                            incoming @ [ (Clone.mapped_value mapping v, cb) ];
                        }
                  | None -> ())
                | _ -> ())
              (block_phis succ))
        (successors cb))
    originals

let remove_phi_incomings_from func loop =
  let is_deleted b = Loop_info.loop_contains loop b in
  List.iter
    (fun b ->
      List.iter
        (fun phi ->
          match phi.i_kind with
          | Phi { incoming } ->
            phi.i_kind <-
              Phi
                { incoming = List.filter (fun (_, ib) -> not (is_deleted ib)) incoming }
          | _ -> ())
        (block_phis b))
    (List.filter (fun b -> not (is_deleted b)) func.f_blocks)

(* ---- full unrolling ------------------------------------------------------ *)

let full_unroll func loop (a : Trip_count.affine) n =
  let header = loop.Loop_info.header in
  let latch = Option.get (Loop_info.single_latch loop) in
  let preheader = Option.get loop.Loop_info.preheader in
  let in_chain b = List.exists (fun c -> c == b) a.Trip_count.header_chain in
  let body = List.filter (fun b -> not (in_chain b)) loop.Loop_info.blocks in
  let phis = header_phis header in
  (* prev.(phi id) = the value of that loop-carried variable entering the
     next copy. *)
  let prev = Id_tbl.create 8 in
  List.iter
    (fun p ->
      match p.i_kind with
      | Phi { incoming } ->
        Id_tbl.replace prev p.i_id
          (Option.get (phi_incoming_for_pred incoming preheader))
      | _ -> ())
    phis;
  let seed v =
    match v with
    | Inst_ref i when Id_tbl.mem prev i.i_id -> Id_tbl.find prev i.i_id
    | _ -> v
  in
  let last_tail = ref None in
  (* block whose header-successor awaits re-pointing *)
  let hook_entry entry =
    match !last_tail with
    | None -> replace_successor preheader ~from:header ~into:entry
    | Some tail -> replace_successor tail ~from:header ~into:entry
  in
  for j = 0 to Int64.to_int n - 1 do
    let mapping =
      Clone.clone_region func ~blocks:body ~seed
        ~suffix:(Printf.sprintf ".unroll%d" j)
    in
    patch_exit_phis loop mapping body;
    hook_entry (Clone.mapped_block mapping a.Trip_count.body_succ);
    last_tail := Some (Clone.mapped_block mapping latch);
    (* Advance the loop-carried values simultaneously. *)
    let updated =
      List.map
        (fun p -> (p.i_id, Clone.mapped_value mapping (latch_incoming p latch)))
        phis
    in
    List.iter (fun (id, v) -> Id_tbl.replace prev id v) updated
  done;
  (* Fall through to the exit, and propagate final values of the loop
     phis to their uses outside the loop. *)
  hook_entry a.Trip_count.exit_succ;
  let deleted = loop.Loop_info.blocks in
  let outside b = not (Loop_info.loop_contains loop b) in
  List.iter
    (fun p ->
      replace_uses_in_func func ~from:(Inst_ref p) ~into:(Id_tbl.find prev p.i_id)
        ~where:outside)
    phis;
  (* The exit block's phis must see the fall-through edge as coming from the
     last copy (or the preheader when n = 0) instead of the header. *)
  let new_pred = match !last_tail with Some t -> t | None -> preheader in
  List.iter
    (fun phi ->
      match phi.i_kind with
      | Phi { incoming } ->
        phi.i_kind <-
          Phi
            {
              incoming =
                List.map
                  (fun (v, b) -> if b == header then (v, new_pred) else (v, b))
                  incoming;
            }
      | _ -> ())
    (block_phis a.Trip_count.exit_succ);
  remove_phi_incomings_from func loop;
  remove_blocks func deleted

(* ---- partial unrolling (Listing 1 shape) --------------------------------- *)

let partial_unroll func loop (a : Trip_count.affine) k =
  let header = loop.Loop_info.header in
  let latch = Option.get (Loop_info.single_latch loop) in
  let preheader = Option.get loop.Loop_info.preheader in
  let in_chain b = List.exists (fun c -> c == b) a.Trip_count.header_chain in
  let body = List.filter (fun b -> not (in_chain b)) loop.Loop_info.blocks in
  let phis = header_phis header in
  let iv_ty = a.Trip_count.iv.i_ty in
  (* Guard header: carries a phi per loop phi and tests whether k full
     iterations remain: iv + (k-1)*step cmp bound. *)
  let uh = create_block ~name:(header.b_name ^ ".unrolled") func in
  let guard_phis = Id_tbl.create 8 in
  List.iter
    (fun p ->
      match p.i_kind with
      | Phi { incoming } ->
        let init = Option.get (phi_incoming_for_pred incoming preheader) in
        let gp =
          mk_inst ~name:(p.i_name ^ ".u") ~ty:p.i_ty
            (Phi { incoming = [ (init, preheader) ] })
        in
        append_inst uh gp;
        Id_tbl.replace guard_phis p.i_id gp
      | _ -> ())
    phis;
  let giv = Inst_ref (Id_tbl.find guard_phis a.Trip_count.iv.i_id) in
  let lookahead =
    Int64.mul (Int64.of_int (k - 1)) a.Trip_count.step
  in
  let t = mk_inst ~name:"iv.ahead" ~ty:iv_ty (Binop (Add, giv, Const_int (iv_ty, lookahead))) in
  append_inst uh t;
  let cmp =
    mk_inst ~name:"unroll.guard" ~ty:I1
      (Icmp (a.Trip_count.cmp, Inst_ref t, a.Trip_count.bound))
  in
  append_inst uh cmp;
  (* Entry: the preheader now reaches the guard; the guard falls back to the
     original (remainder) loop. *)
  replace_successor preheader ~from:header ~into:uh;
  List.iter
    (fun p ->
      match p.i_kind with
      | Phi { incoming } ->
        p.i_kind <-
          Phi
            {
              incoming =
                List.map
                  (fun (v, b) ->
                    if b == preheader then
                      (Inst_ref (Id_tbl.find guard_phis p.i_id), uh)
                    else (v, b))
                  incoming;
            }
      | _ -> ())
    phis;
  (* The k body copies, chained. *)
  let prev = Id_tbl.create 8 in
  List.iter
    (fun p -> Id_tbl.replace prev p.i_id (Inst_ref (Id_tbl.find guard_phis p.i_id)))
    phis;
  let seed v =
    match v with
    | Inst_ref i when Id_tbl.mem prev i.i_id -> Id_tbl.find prev i.i_id
    | _ -> v
  in
  let first_entry = ref None in
  let last_tail = ref None in
  for j = 0 to k - 1 do
    let mapping =
      Clone.clone_region func ~blocks:body ~seed
        ~suffix:(Printf.sprintf ".unroll%d" j)
    in
    patch_exit_phis loop mapping body;
    let entry = Clone.mapped_block mapping a.Trip_count.body_succ in
    (match !last_tail with
    | None -> first_entry := Some entry
    | Some tail -> replace_successor tail ~from:header ~into:entry);
    last_tail := Some (Clone.mapped_block mapping latch);
    let updated =
      List.map
        (fun p -> (p.i_id, Clone.mapped_value mapping (latch_incoming p latch)))
        phis
    in
    List.iter (fun (id, v) -> Id_tbl.replace prev id v) updated
  done;
  let first_entry = Option.get !first_entry in
  let last_tail = Option.get !last_tail in
  uh.b_term <- Cond_br (Inst_ref cmp, first_entry, header);
  (* Back edge of the unrolled loop, feeding the guard phis. *)
  replace_successor last_tail ~from:header ~into:uh;
  List.iter
    (fun p ->
      let gp = Id_tbl.find guard_phis p.i_id in
      match gp.i_kind with
      | Phi { incoming } ->
        gp.i_kind <-
          Phi { incoming = incoming @ [ (Id_tbl.find prev p.i_id, last_tail) ] }
      | _ -> ())
    phis

(* ---- driver --------------------------------------------------------------- *)

let choose_heuristic_factor ~body_size ~trip_count =
  match trip_count with
  | Some n when Int64.compare n 16L <= 0 && body_size * Int64.to_int n <= 1024 ->
    None (* full *)
  | _ ->
    let candidates = [ 8; 4; 2 ] in
    let fits f = body_size * f <= 128 in
    (match List.find_opt fits candidates with
    | Some f -> Some f
    | None -> Some 1)

(* A request lives on a loop latch, so a function none of whose blocks
   carries one has no loop to analyse: not before the first request, and
   not after the last one is cleared. *)
let has_request func =
  List.exists (fun b -> Option.is_some b.b_loop_md.md_unroll) func.f_blocks

let run_func ?(threshold = 4096) func =
  if func.f_is_decl || not (has_request func) then empty_stats
  else begin
    let stats = ref empty_stats in
    let skip () = { !stats with skipped = !stats.skipped + 1 } in
    (* Unrolling invalidates the analyses, so re-scan after each rewrite. *)
    let rec process () =
      let dom = Dominators.compute func in
      let requests = Loop_info.loop_with_unroll_request dom in
      match requests with
      | [] -> ()
      | (loop, md) :: _ ->
        clear_unroll_md loop;
        let retry = ref true in
        (match Trip_count.analyze dom loop with
        | Some a
          when Trip_count.header_is_pure a loop
               && exit_values_manageable a func loop
               && Option.is_some loop.Loop_info.preheader
               && Option.is_some (Loop_info.single_latch loop) -> (
          let tc = Trip_count.constant_trip_count a in
          let size = body_size loop in
          let do_full n =
            if Int64.to_int n * size <= threshold then begin
              full_unroll func loop a n;
              stats := { !stats with fully_unrolled = !stats.fully_unrolled + 1 }
            end
            else stats := skip ()
          in
          let direction_ok =
            let s = a.Trip_count.step in
            match a.Trip_count.cmp with
            | Islt | Isle | Iult | Iule -> Int64.compare s 0L > 0
            | Isgt | Isge | Iugt | Iuge -> Int64.compare s 0L < 0
            | Ieq | Ine -> false
          in
          let do_partial k =
            if k <= 1 || not direction_ok then stats := skip ()
            else begin
              partial_unroll func loop a k;
              stats :=
                { !stats with partially_unrolled = !stats.partially_unrolled + 1 }
            end
          in
          match md with
          | Unroll_disable -> stats := skip ()
          | Unroll_full -> (
            match tc with Some n -> do_full n | None -> stats := skip ())
          | Unroll_count k -> (
            match tc with
            | Some n when Int64.compare n (Int64.of_int k) <= 0 -> do_full n
            | _ -> do_partial k)
          | Unroll_enable -> (
            match choose_heuristic_factor ~body_size:size ~trip_count:tc with
            | None -> (
              match tc with Some n -> do_full n | None -> stats := skip ())
            | Some 1 -> stats := skip ()
            | Some k -> do_partial k))
        | Some _ | None ->
          stats := skip ();
          retry := true);
        if !retry && has_request func then process ()
    in
    process ();
    !stats
  end
