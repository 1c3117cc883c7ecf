open Mc_ast.Tree
module Visit = Mc_ast.Visit
module Diag = Mc_diag.Diagnostics

(* The target DSL (OptiTrust-style): a chain of selectors that narrows the
   AST down to exactly one statement.  Each structural selector searches
   *inside* the previous matches, so [for "i"; for "j"] means "a j-loop
   nested in an i-loop".  Resolution refuses ambiguity: zero matches and
   more than one match are both hard errors (the latter carries one note
   per candidate and is resolved with [occurrence k]). *)

type selector =
  | In_fun of string (* fun(NAME): scope to the body of a named function *)
  | For_var of string (* for(V): a for loop iterating variable V *)
  | Loop_seq (* seq: a compound of >= 2 loops (fuse target) *)
  | With_depth of int (* depth(N): keep matches at least N loops deep *)
  | Occurrence of int (* occurrence(K): pick the K-th match, 1-based *)

type t = selector list

let render_selector = function
  | In_fun n -> Printf.sprintf "fun(%s)" n
  | For_var v -> Printf.sprintf "for(%s)" v
  | Loop_seq -> "seq"
  | With_depth n -> Printf.sprintf "depth(%d)" n
  | Occurrence n -> Printf.sprintf "occurrence(%d)" n

let render t = String.concat " " (List.map render_selector t)

(* Combinator constructors, mirroring the OptiTrust naming the ROADMAP
   cites: [cFun "matmat"], [cFor "i"], nesting by juxtaposition. *)
let cFun name : t = [ In_fun name ]
let cFor v : t = [ For_var v ]
let cSeq : t = [ Loop_seq ]
let nested_in outer inner : t = outer @ inner
let occurrence t k : t = t @ [ Occurrence k ]

(* ---- structural predicates ---------------------------------------------- *)

let rec unwrap_single s =
  match s.s_kind with
  | Compound [ x ] -> unwrap_single x
  | Attributed (_, x) -> unwrap_single x
  | _ -> s

let is_loop s =
  match s.s_kind with For _ | Range_for _ -> true | _ -> false

let loop_var_name s =
  match s.s_kind with
  | For { for_init = Some init; _ } -> (
    match init.s_kind with
    | Decl_stmt [ v ] -> Some v.v_name
    | Expr_stmt { e_kind = Assign (None, { e_kind = Decl_ref v; _ }, _); _ } ->
      Some v.v_name
    | _ -> None)
  | Range_for rf -> Some rf.rf_var.v_name
  | _ -> None

(* Perfect-nest depth: how many loops deep a [depth n] constraint can see. *)
let rec perfect_depth s =
  match (unwrap_single s).s_kind with
  | For { for_body; _ } ->
    let b = unwrap_single for_body in
    if is_loop b then 1 + perfect_depth b else 1
  | Range_for _ -> 1
  | _ -> 0

let is_loop_seq s =
  match s.s_kind with
  | Compound members when List.length members >= 2 ->
    List.for_all (fun m -> is_loop (unwrap_single m)) members
  | _ -> false

let rec subtree s =
  s :: List.concat_map subtree (Visit.stmt_sub_stmts ~shadow:false s)

let strict_subtree s =
  List.concat_map subtree (Visit.stmt_sub_stmts ~shadow:false s)

let dedup_by_id stmts =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      if Hashtbl.mem seen s.s_id then false
      else begin
        Hashtbl.add seen s.s_id ();
        true
      end)
    stmts

(* ---- resolution ----------------------------------------------------------- *)

type error = Resolution_failed

let functions tu =
  List.filter_map
    (function
      | Tu_fn f when f.fn_body <> None && not f.fn_builtin -> Some f
      | _ -> None)
    tu.tu_decls

let rec with_notes diag notes f =
  match notes with
  | [] -> f ()
  | (loc, msg) :: rest ->
    Diag.with_context_note diag ~loc msg (fun () -> with_notes diag rest f)

let resolve diag tu (t : t) : (stmt, error) result =
  let error ~loc fmt =
    Printf.ksprintf
      (fun s ->
        Diag.error diag ~loc s;
        Error Resolution_failed)
      fmt
  in
  let rendered = render t in
  (* [cands] are the current matches; while [scoped] they are whole-function
     bodies and structural selectors may match the scope node itself. *)
  let step (cands, scoped, anchor) sel =
    match sel with
    | In_fun name ->
      let fns = List.filter (fun f -> f.fn_name = name) (functions tu) in
      let anchor =
        match fns with f :: _ -> f.fn_loc | [] -> anchor
      in
      (List.filter_map (fun f -> f.fn_body) fns, true, anchor)
    | For_var v ->
      let space c = if scoped then subtree c else strict_subtree c in
      let hits =
        List.concat_map
          (fun c ->
            List.filter
              (fun s -> is_loop s && loop_var_name s = Some v)
              (space c))
          cands
      in
      (dedup_by_id hits, false, anchor)
    | Loop_seq ->
      let space c = if scoped then subtree c else strict_subtree c in
      let hits =
        List.concat_map (fun c -> List.filter is_loop_seq (space c)) cands
      in
      (dedup_by_id hits, false, anchor)
    | With_depth n ->
      (List.filter (fun s -> perfect_depth s >= n) cands, scoped, anchor)
    | Occurrence k ->
      let picked =
        if k >= 1 && k <= List.length cands then [ List.nth cands (k - 1) ]
        else []
      in
      (picked, scoped, anchor)
  in
  let init =
    (List.filter_map (fun f -> f.fn_body) (functions tu), true,
     Mc_srcmgr.Source_location.invalid)
  in
  let cands, scoped, anchor = List.fold_left step init t in
  if scoped then
    (* A bare [fun(...)] (or empty) target never names a statement. *)
    error ~loc:anchor
      "transformation target '%s' does not select a statement (add a \
       structural selector such as for(v) or seq)"
      rendered
  else
    match cands with
    | [ s ] -> Ok s
    | [] ->
      error ~loc:anchor "transformation target '%s' matched no statement"
        rendered
    | many ->
      (* Refuse ambiguity: one note per candidate (innermost-first render
         order matches the diagnostics engine), resolved via occurrence(k). *)
      let notes =
        List.mapi
          (fun i s ->
            (s.s_loc, Printf.sprintf "candidate %d of %d is here" (i + 1)
                        (List.length many)))
          many
      in
      with_notes diag (List.rev notes) (fun () ->
          error ~loc:(List.hd many).s_loc
            "transformation target '%s' matched %d statements; disambiguate \
             with 'occurrence(k)'"
            rendered (List.length many))
