open Mc_ir.Ir
module Int_ops = Mc_support.Int_ops

type affine = {
  iv : inst;
  init : value;
  step : int64;
  latch_update : inst;
  bound : value;
  cmp : icmp;
  exiting : block;
  header_chain : block list;
  body_succ : block;
  exit_succ : block;
}

let commute = function
  | Islt -> Isgt
  | Isle -> Isge
  | Isgt -> Islt
  | Isge -> Isle
  | Iult -> Iugt
  | Iule -> Iuge
  | Iugt -> Iult
  | Iuge -> Iule
  | Ieq -> Ieq
  | Ine -> Ine

let defined_in_loop loop v =
  match v with
  | Inst_ref i -> (
    match i.i_parent with
    | Some b -> Loop_info.loop_contains loop b
    | None -> false)
  | _ -> false

let analyze dom loop =
  let header = loop.Loop_info.header in
  (* Follow the straight-line chain from the header to the exiting block
     (for the canonical-loop skeleton: header -> cond). *)
  let rec chain acc b =
    match b.b_term with
    | Cond_br _ -> Some (List.rev (b :: acc))
    | Br next
      when Loop_info.loop_contains loop next
           && (not (next == header))
           && List.length (Dominators.predecessors dom next) = 1 ->
      chain (b :: acc) next
    | _ -> None
  in
  match (Loop_info.single_latch loop, loop.Loop_info.preheader, chain [] header) with
  | Some latch, Some preheader, Some header_chain -> (
    let exiting = List.nth header_chain (List.length header_chain - 1) in
    (* The loop must exit from this chain and continue into the body. *)
    match exiting.b_term with
    | Cond_br (Inst_ref cond, t, e) -> (
      let body_succ, exit_succ, negated =
        if Loop_info.loop_contains loop t && not (Loop_info.loop_contains loop e)
        then (t, e, false)
        else if
          Loop_info.loop_contains loop e && not (Loop_info.loop_contains loop t)
        then (e, t, true)
        else (t, e, true)
      in
      if
        not
          (Loop_info.loop_contains loop body_succ
          && not (Loop_info.loop_contains loop exit_succ))
      then None
      else if negated then None (* inverted conditions are not recognised *)
      else begin
        match cond.i_kind with
        | Icmp (cmp0, lhs, rhs) -> (
          (* Find the affine phi on one side. *)
          let as_affine v =
            match v with
            | Inst_ref phi when Loop_info.loop_contains loop header -> (
              match phi.i_kind with
              | Phi { incoming } -> (
                match
                  ( phi.i_parent,
                    phi_incoming_for_pred incoming preheader,
                    phi_incoming_for_pred incoming latch )
                with
                | Some pb, Some init, Some (Inst_ref upd) when pb == header -> (
                  match upd.i_kind with
                  | Binop (Add, a, Const_int (_, step))
                    when value_equal a (Inst_ref phi) ->
                    Some (phi, init, step, upd)
                  | Binop (Add, Const_int (_, step), a)
                    when value_equal a (Inst_ref phi) ->
                    Some (phi, init, step, upd)
                  | Binop (Sub, a, Const_int (_, step))
                    when value_equal a (Inst_ref phi) ->
                    Some (phi, init, Int64.neg step, upd)
                  | _ -> None)
                | _ -> None)
              | _ -> None)
            | _ -> None
          in
          match (as_affine lhs, as_affine rhs) with
          | Some (iv, init, step, latch_update), None ->
            if defined_in_loop loop rhs then None
            else
              Some
                { iv; init; step; latch_update; bound = rhs; cmp = cmp0;
                  exiting; header_chain; body_succ; exit_succ }
          | None, Some (iv, init, step, latch_update) ->
            if defined_in_loop loop lhs then None
            else
              Some
                { iv; init; step; latch_update; bound = lhs; cmp = commute cmp0;
                  exiting; header_chain; body_succ; exit_succ }
          | _ -> None)
        | _ -> None
      end)
    | _ -> None)
  | _ -> None

let constant_trip_count a =
  match (a.init, a.bound) with
  | Const_int (ty, init), Const_int (_, bound) ->
    let s = a.step in
    if Int64.equal s 0L then None
    else begin
      let ws = int_width ~signed:true ty in
      let wu = int_width ~signed:false ty in
      let count_up ~lt ~inclusive lo hi =
        (* iterations of: for (x = lo; x < hi (or <=); x += s), s > 0 *)
        ignore lt;
        let hi = if inclusive then Int64.add hi 1L else hi in
        if Int64.compare s 0L <= 0 then None
        else if Int64.compare lo hi >= 0 then Some 0L
        else begin
          let span = Int64.sub hi lo in
          let c = Int64.div (Int64.add span (Int64.sub s 1L)) s in
          if Int64.compare c 0x4000000000000000L > 0 then None else Some c
        end
      in
      let count_down ~inclusive hi lo =
        let lo = if inclusive then Int64.sub lo 1L else lo in
        let s = Int64.neg s in
        if Int64.compare s 0L <= 0 then None
        else if Int64.compare hi lo <= 0 then Some 0L
        else begin
          let span = Int64.sub hi lo in
          Some (Int64.div (Int64.add span (Int64.sub s 1L)) s)
        end
      in
      let unsigned_norm v = Int64.logand v (
        if wu.Int_ops.bits >= 64 then -1L
        else Int64.sub (Int64.shift_left 1L wu.Int_ops.bits) 1L)
      in
      (* Unsigned values whose top bit survives into the Int64 sign bit
         would corrupt the signed span arithmetic below; give up on them. *)
      let too_big v = Int64.compare (unsigned_norm v) 0L < 0 in
      match a.cmp with
      | (Iult | Iule | Iugt | Iuge) when too_big init || too_big bound -> None
      | Islt -> count_up ~lt:true ~inclusive:false init bound
      | Isle -> count_up ~lt:true ~inclusive:true init bound
      | Isgt -> count_down ~inclusive:false init bound
      | Isge -> count_down ~inclusive:true init bound
      | Iult -> count_up ~lt:true ~inclusive:false (unsigned_norm init) (unsigned_norm bound)
      | Iule -> count_up ~lt:true ~inclusive:true (unsigned_norm init) (unsigned_norm bound)
      | Iugt -> count_down ~inclusive:false (unsigned_norm init) (unsigned_norm bound)
      | Iuge -> count_down ~inclusive:true (unsigned_norm init) (unsigned_norm bound)
      | Ine ->
        let diff = Int_ops.sub ws bound init in
        if Int64.equal (Int64.rem diff s) 0L && Int64.compare (Int64.div diff s) 0L >= 0
        then Some (Int64.div diff s)
        else None
      | Ieq -> None
    end
  | _ -> None

let header_is_pure a loop =
  let in_chain b = List.exists (fun c -> c == b) a.header_chain in
  let non_phi =
    List.concat_map
      (fun b ->
        List.filter
          (fun i -> match i.i_kind with Phi _ -> false | _ -> true)
          (block_insts b))
      a.header_chain
  in
  let pure =
    List.for_all
      (fun i ->
        match i.i_kind with
        | Load _ | Store _ | Call _ | Alloca _ -> false
        | _ -> true)
      non_phi
  in
  (* No non-phi value computed in the chain may escape into the body (the
     unrolled copies skip the chain entirely). *)
  let ok_operand op =
    match op with
    | Inst_ref d -> (
      match d.i_parent with
      | Some p when in_chain p -> (
        match d.i_kind with Phi _ -> true | _ -> false)
      | _ -> true)
    | _ -> true
  in
  pure
  && List.for_all
       (fun b ->
         in_chain b
         || List.for_all
              (fun i -> List.for_all ok_operand (inst_operands i))
              (block_insts b)
            && List.for_all ok_operand (terminator_operands b.b_term))
       loop.Loop_info.blocks
