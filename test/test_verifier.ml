(* The verifier's one walk against the reference it replaced: equal issue
   lists (same records, same order) on every snapshot the -O1 pipeline
   produces for the IR golden's inputs and the wide unit, under both
   lowerings, and on fixed-seed corruptions of those snapshots. *)

open Helpers
open Mc_ir.Ir
module Verifier = Mc_ir.Verifier
module Rng = Mc_fuzz.Fuzz.Rng

let show issues =
  String.concat "\n"
    (List.map
       (fun (i : Verifier.issue) ->
         Printf.sprintf "%s/%s: %s" i.in_function i.in_block i.message)
       issues)

let check_same what m =
  let got = Verifier.verify_module m and want = Reference_verifier.verify_module m in
  if got <> want then
    Alcotest.failf "%s: the walk reports\n%s\nthe reference\n%s" what (show got)
      (show want);
  got

let test_snapshots () =
  let snapshots = ref 0 in
  each_snapshot (fun what m ->
      incr snapshots;
      match check_same what m with
      | [] -> ()
      | issues -> Alcotest.failf "%s is malformed:\n%s" what (show issues));
  Alcotest.(check bool) "every input lowered and ran" true (!snapshots > 1000)

(* ---- corruptions ------------------------------------------------------ *)

let copy (m : modul) : modul = Marshal.from_string (Marshal.to_string m []) 0

let nth_opt rng = function [] -> None | l -> Some (List.nth l (Rng.int rng (List.length l)))

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

let defined m = List.filter (fun f -> (not f.f_is_decl) && f.f_blocks <> []) m.m_funcs

let phis f =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun i -> match i.i_kind with Phi _ -> Some (b, i) | _ -> None)
        (block_insts b))
    f.f_blocks

let incoming i = match i.i_kind with Phi { incoming } -> incoming | _ -> []
let set_incoming i l = i.i_kind <- Phi { incoming = l }

let other_ty rng ty =
  let tys = List.filter (fun t -> t <> ty) [ I1; I8; I32; I64; Ptr; F64 ] in
  List.nth tys (Rng.int rng (List.length tys))

let bad_const rng ty = Const_int (other_ty rng ty, 0L)

(* Each corruption returns false when the function offers it nothing to
   corrupt, and the next kind is tried. *)
let corruptions : (string * (Rng.t -> modul -> func -> bool)) list =
  [
    ( "drop an instruction",
      fun rng _ f ->
        match nth_opt rng (List.filter (fun b -> b.b_insts_rev <> []) f.f_blocks) with
        | None -> false
        | Some b ->
          b.b_insts_rev <- remove_nth (Rng.int rng (List.length b.b_insts_rev)) b.b_insts_rev;
          true );
    ( "drop a block",
      fun rng _ f ->
        match f.f_blocks with
        | [] | [ _ ] -> false
        | blocks ->
          f.f_blocks <- remove_nth (1 + Rng.int rng (List.length blocks - 1)) blocks;
          true );
    ( "list a block twice",
      fun rng _ f ->
        match nth_opt rng f.f_blocks with
        | None -> false
        | Some b ->
          f.f_blocks <- f.f_blocks @ [ b ];
          true );
    ( "remove a phi entry",
      fun rng _ f ->
        match nth_opt rng (phis f) with
        | None -> false
        | Some (_, i) ->
          set_incoming i (remove_nth (Rng.int rng (List.length (incoming i))) (incoming i));
          true );
    ( "duplicate a phi entry",
      fun rng _ f ->
        match nth_opt rng (phis f) with
        | Some (_, i) when incoming i <> [] ->
          let l = incoming i in
          set_incoming i (l @ [ List.nth l (Rng.int rng (List.length l)) ]);
          true
        | _ -> false );
    ( "redirect a phi entry",
      fun rng _ f ->
        match (nth_opt rng (phis f), nth_opt rng f.f_blocks) with
        | Some (_, i), Some target when incoming i <> [] ->
          let k = Rng.int rng (List.length (incoming i)) in
          set_incoming i
            (List.mapi (fun n (v, b) -> if n = k then (v, target) else (v, b)) (incoming i));
          true
        | _ -> false );
    ( "mistype a phi entry",
      fun rng _ f ->
        match nth_opt rng (phis f) with
        | Some (_, i) -> (
          match incoming i with
          | (_, b) :: rest ->
            set_incoming i ((bad_const rng i.i_ty, b) :: rest);
            true
          | [] -> false)
        | None -> false );
    ( "move a phi after a non-phi",
      fun rng _ f ->
        match nth_opt rng (phis f) with
        | None -> false
        | Some (b, phi) ->
          let rest = List.filter (fun i -> i != phi) (block_insts b) in
          if List.for_all (fun i -> match i.i_kind with Phi _ -> true | _ -> false) rest
          then false
          else begin
            set_block_insts b (rest @ [ phi ]);
            true
          end );
    ( "retarget a successor",
      fun rng _ f ->
        match (nth_opt rng f.f_blocks, nth_opt rng f.f_blocks) with
        | Some b, Some target -> (
          match b.b_term with
          | Br _ ->
            b.b_term <- Br target;
            true
          | Cond_br (c, t, e) ->
            b.b_term <- (if Rng.int rng 2 = 0 then Cond_br (c, target, e) else Cond_br (c, t, target));
            true
          | _ -> false)
        | _ -> false );
    ( "take a successor from another function",
      fun rng m f ->
        let others = List.concat_map (fun g -> if g == f then [] else g.f_blocks) (defined m) in
        match (nth_opt rng f.f_blocks, nth_opt rng others) with
        | Some b, Some target -> (
          match b.b_term with
          | Br _ | Cond_br _ ->
            replace_successor b ~from:(List.hd (successors b)) ~into:target;
            true
          | _ -> false)
        | _ -> false );
    ( "give an instruction a wrong parent",
      fun rng _ f ->
        let insts = List.concat_map block_insts f.f_blocks in
        match (nth_opt rng insts, nth_opt rng f.f_blocks) with
        | Some { i_parent = Some p; _ }, Some b when p == b -> false
        | Some i, Some b ->
          i.i_parent <- Some b;
          true
        | _ -> false );
    ( "mistype an operand",
      fun rng _ f ->
        let insts = List.concat_map block_insts f.f_blocks in
        let typed =
          List.filter
            (fun i -> match i.i_kind with Binop _ | Icmp _ | Select _ | Load _ | Store _ | Gep _ -> true | _ -> false)
            insts
        in
        match nth_opt rng typed with
        | None -> false
        | Some i ->
          i.i_kind <-
            (match i.i_kind with
            | Binop (op, x, y) -> Binop (op, bad_const rng (value_ty x), y)
            | Icmp (op, x, y) -> Icmp (op, x, bad_const rng (value_ty y))
            | Select (c, x, y) ->
              if Rng.int rng 2 = 0 then Select (bad_const rng I1, x, y)
              else Select (c, x, bad_const rng (value_ty y))
            | Load _ -> Load { ptr = bad_const rng Ptr }
            | Store { v; _ } -> Store { ptr = bad_const rng Ptr; v }
            | Gep g -> Gep { g with base = bad_const rng Ptr }
            | k -> k);
          true );
    ( "mismatch a ret",
      fun rng _ f ->
        match nth_opt rng (List.filter (fun b -> match b.b_term with Ret _ -> true | _ -> false) f.f_blocks) with
        | None -> false
        | Some b ->
          b.b_term <-
            (match b.b_term with
            | Ret (Some _) -> if Rng.int rng 2 = 0 then Ret None else Ret (Some (bad_const rng f.f_ret))
            | _ -> Ret (Some (i32_const 0)));
          true );
    ( "use a foreign argument",
      fun rng m f ->
        let args = List.concat_map (fun g -> if g == f then [] else g.f_args) m.m_funcs in
        let insts =
          List.filter
            (fun i -> match i.i_kind with Binop _ | Icmp _ | Store _ | Call { args = _ :: _; _ } -> true | _ -> false)
            (List.concat_map block_insts f.f_blocks)
        in
        match (nth_opt rng insts, nth_opt rng args) with
        | Some i, Some a ->
          let first = ref true in
          map_inst_operands (fun v -> if !first then (first := false; Arg a) else v) i;
          true
        | _ -> false );
    ( "drop a terminator",
      fun rng _ f ->
        match nth_opt rng f.f_blocks with
        | None -> false
        | Some b ->
          b.b_term <- No_term;
          true );
  ]

let corrupt rng m =
  match nth_opt rng (defined m) with
  | None -> None
  | Some f ->
    let n = List.length corruptions in
    let start = Rng.int rng n in
    let rec attempt k =
      if k = n then None
      else
        let name, apply = List.nth corruptions ((start + k) mod n) in
        if apply rng m f then Some name else attempt (k + 1)
    in
    attempt 0

let test_corruptions () =
  let rng = Rng.create 27 in
  let corrupted = ref 0 and with_issues = ref 0 in
  let messages = Hashtbl.create 16 in
  let kinds = Hashtbl.create 16 in
  each_snapshot (fun what m ->
      for _ = 1 to 2 do
        let c = copy m in
        match corrupt rng c with
        | None -> ()
        | Some kind ->
          incr corrupted;
          Hashtbl.replace kinds kind ();
          let issues = check_same (Printf.sprintf "%s, corrupted (%s)" what kind) c in
          if issues <> [] then incr with_issues;
          List.iter
            (fun (i : Verifier.issue) ->
              let stem =
                match String.index_opt i.message '\'' with
                | Some k -> String.sub i.message 0 k
                | None -> i.message
              in
              Hashtbl.replace messages stem ())
            issues
      done);
  Alcotest.(check int) "every kind of corruption was made" (List.length corruptions)
    (Hashtbl.length kinds);
  Alcotest.(check bool) "most corruptions are caught" true (!with_issues * 2 > !corrupted);
  List.iter
    (fun stem ->
      if not (Hashtbl.mem messages stem) then
        Alcotest.failf "no corruption drew an issue starting %S" stem)
    [
      "phi after non-phi instruction";
      "phi missing incoming for predecessor ";
      "phi incoming type mismatch";
      "successor ";
      "use of foreign argument ";
      "block has no terminator";
      "ret type mismatch";
    ];
  if not (Hashtbl.fold (fun k () acc -> acc || String.starts_with ~prefix:"phi has " k) messages false)
  then Alcotest.fail "no corruption drew a phi count issue"

(* Edge shapes, each verified first in a fresh domain, whose scratch
   tables have never grown: a defined function without blocks, and one
   whose only block holds no instruction but returns one from another
   function. *)
let test_fresh_domain_edges () =
  let m = create_module "edges" in
  ignore (define_function m ~name:"empty" ~ret:Void ~args:[]);
  let x = mk_inst ~ty:I32 (Binop (Add, i32_const 1, i32_const 2)) in
  let bare = define_function m ~name:"bare" ~ret:I32 ~args:[] in
  (create_block ~name:"entry" bare).b_term <- Ret (Some (Inst_ref x));
  let donor = define_function m ~name:"donor" ~ret:I32 ~args:[] in
  let db = create_block ~name:"entry" donor in
  append_inst db x;
  db.b_term <- Ret (Some (Inst_ref x));
  let got = Domain.join (Domain.spawn (fun () -> Verifier.verify_module m)) in
  Alcotest.(check (list string)) "the reference's issues"
    [
      "empty/<none>: defined function has no blocks";
      Printf.sprintf "bare/entry: use of instruction %d not defined in function" x.i_id;
    ]
    (String.split_on_char '\n' (show got));
  Alcotest.(check bool) "equal records" true (got = Reference_verifier.verify_module m)

let suite =
  [
    tc "the walk equals the reference on every pass snapshot" test_snapshots;
    tc "the walk equals the reference on corrupted snapshots" test_corruptions;
    tc "a fresh domain verifies functions without blocks or instructions"
      test_fresh_domain_edges;
  ]
