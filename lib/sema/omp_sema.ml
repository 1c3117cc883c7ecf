open Mc_ast.Tree
module Classify = Mc_ast.Classify
module Diag = Mc_diag.Diagnostics

let error sema ~loc fmt =
  Printf.ksprintf (fun s -> Diag.error (Sema.diagnostics sema) ~loc s) fmt

let act_on_clause_expr_positive sema ~what e ~loc =
  match Const_eval.eval_int_as (Sema.rvalue sema e) with
  | Some n when n >= 1 -> (n, e)
  | Some n ->
    error sema ~loc "argument of '%s' clause must be positive (got %d)" what n;
    (1, e)
  | None ->
    error sema ~loc "argument of '%s' clause must be a constant integer" what;
    (1, e)

let transformed_stmt d = d.dir_transformed

(* ---- clause compatibility ------------------------------------------------ *)

let clause_allowed kind clause =
  let name = Classify.clause_class_name clause in
  let ok =
    match (kind, clause) with
    | D_unroll, (C_full | C_partial _) -> true
    | (D_tile | D_stripe), C_sizes _ -> true
    | D_interchange, C_permutation _ -> true
    | _, C_permutation _ -> false
    | ( ( D_unroll | D_tile | D_reverse | D_interchange | D_stripe | D_fuse
        | D_fission ),
        _ ) ->
      false
    | _, (C_full | C_partial _ | C_sizes _) -> false
    | (D_parallel | D_parallel_for | D_parallel_for_simd),
      (C_num_threads _ | C_if _) ->
      true
    | _, (C_num_threads _ | C_if _) -> false
    | (D_for | D_parallel_for | D_for_simd | D_parallel_for_simd),
      (C_schedule _ | C_nowait) ->
      true
    | _, (C_schedule _ | C_nowait) -> false
    | (D_for | D_parallel_for | D_simd | D_for_simd | D_parallel_for_simd),
      C_collapse _ ->
      true
    | _, C_collapse _ -> false
    | (D_simd | D_for_simd | D_parallel_for_simd), C_simdlen _ -> true
    | _, C_simdlen _ -> false
    | ( (D_parallel | D_for | D_parallel_for | D_simd | D_for_simd
        | D_parallel_for_simd),
        (C_private _ | C_firstprivate _ | C_shared _ | C_reduction _) ) ->
      true
    | _, (C_private _ | C_firstprivate _ | C_shared _ | C_reduction _) -> false
  in
  (ok, name)

let validate_clauses sema kind clauses ~loc =
  List.filter
    (fun c ->
      let ok, name = clause_allowed kind c in
      if not ok then
        error sema ~loc "clause '%s' is not valid on directive '%s'" name
          (Classify.directive_class_name kind);
      ok)
    clauses

(* ---- loop nest collection -------------------------------------------------- *)

let rec unwrap_single s =
  match s.s_kind with
  | Compound [ single ] -> unwrap_single single
  | _ -> s

(* Collect [depth] perfectly nested canonical loops.  Returns the analyses
   (outermost first) together with a function that rebuilds the nest with
   each literal loop replaced (used by irbuilder mode to insert
   OMPCanonicalLoop wrappers). *)
let rec collect_nest sema depth s :
    (Canonical.analyzed list * ((stmt -> stmt) -> stmt)) option =
  if depth = 0 then Some ([], fun _ -> s)
  else begin
    let s = unwrap_single s in
    match s.s_kind with
    | For parts -> (
      match Canonical.analyze sema s with
      | None -> None
      | Some a -> (
        if depth = 1 then Some ([ a ], fun wrap -> wrap s)
        else begin
          match collect_nest sema (depth - 1) parts.for_body with
          | None -> None
          | Some (inner, rebuild_inner) ->
            let rebuild wrap =
              let new_body = rebuild_inner wrap in
              wrap
                (mk_stmt ~loc:s.s_loc (For { parts with for_body = new_body }))
            in
            Some (a :: inner, rebuild)
        end))
    | Range_for _ -> (
      match Canonical.analyze sema s with
      | None -> None
      | Some a ->
        if depth = 1 then Some ([ a ], fun wrap -> wrap s)
        else begin
          error sema ~loc:s.s_loc
            "range-based for loops cannot carry a nested associated loop";
          None
        end)
    | Attributed (_, sub) -> collect_nest sema depth sub
    | Omp_canonical_loop _ -> (
      (* Already wrapped (irbuilder mode, re-analysis of a consumed
         transformation); do not wrap again. *)
      match Canonical.analyze sema s with
      | None -> None
      | Some a ->
        if depth = 1 then Some ([ a ], fun _wrap -> s)
        else begin
          error sema ~loc:s.s_loc
            "nested associated loops inside an OMPCanonicalLoop are not \
             supported";
          None
        end)
    | _ ->
      error sema ~loc:s.s_loc
        "expected %d nested canonical for loop(s) after the directive" depth;
      None
  end

(* Looking through an associated loop transformation: the consuming
   directive analyses the generated loop (paper §2: getTransformedStmt). *)
let consume_transformation sema (inner : directive) ~loc =
  if inner.dir_kind = D_fission then begin
    (* Symmetric in both modes: fission generates a loop *sequence*, which
       no consuming directive can associate with. *)
    error sema ~loc
      "a loop transformation that generates a loop sequence ('fission') \
       cannot be associated with another directive";
    None
  end
  else
    match Sema.mode sema with
    | Sema.Classic -> (
      match inner.dir_transformed with
      | Some tr -> Some tr
      | None ->
        (match inner.dir_kind with
        | D_unroll ->
          error sema ~loc
            "a loop transformation that does not generate a loop (full or \
             heuristic unroll) cannot be associated with another directive"
        | _ ->
          error sema ~loc "associated loop transformation generates no loop");
        None)
    | Sema.Irbuilder -> (
      (* No shadow AST exists; validity is checked structurally and code
         generation composes CanonicalLoopInfo handles instead. *)
      match inner.dir_kind with
      | D_unroll
        when not
               (List.exists
                  (function C_partial _ -> true | _ -> false)
                  inner.dir_clauses) ->
        error sema ~loc
          "a loop transformation that does not generate a loop (full or \
           heuristic unroll) cannot be associated with another directive";
        None
      | _ -> inner.dir_assoc)

let is_parallel_kind = function
  | D_parallel | D_parallel_for | D_parallel_for_simd -> true
  | D_for | D_simd | D_for_simd | D_unroll | D_tile | D_reverse
  | D_interchange | D_stripe | D_fuse | D_fission | D_barrier | D_single
  | D_master | D_critical _ ->
    false

(* Validated 0-based permutation for an interchange directive: without a
   clause the outermost two loops swap (the OpenMP 6.0 default). *)
let permutation_of sema clauses ~loc =
  match
    List.find_map (function C_permutation ps -> Some ps | _ -> None) clauses
  with
  | None -> [ 1; 0 ]
  | Some ps ->
    let n = List.length ps in
    let positions = List.map fst ps in
    if List.sort compare positions <> List.init n (fun i -> i + 1) then begin
      error sema ~loc
        "'permutation' arguments must name each loop position 1..%d exactly once"
        n;
      List.init n Fun.id
    end
    else List.map (fun p -> p - 1) positions

(* [#pragma omp fuse]: the associated statement is a *loop sequence* — a
   compound whose members are all canonical loops. *)
let act_on_fuse sema ~clauses ~assoc ~loc =
  let finish d = mk_stmt ~loc (Omp_directive d) in
  match assoc with
  | Some ({ s_kind = Compound members; _ } as original)
    when List.length members >= 2 -> (
    let analyzed =
      List.map (fun m -> Canonical.analyze sema (unwrap_single m)) members
    in
    match
      List.for_all Option.is_some analyzed
    with
    | false -> finish (mk_directive ~kind:D_fuse ~clauses ~assoc:original ~loc ())
    | true -> (
      let loops = List.map Option.get analyzed in
      match Sema.mode sema with
      | Sema.Classic ->
        let d = mk_directive ~kind:D_fuse ~clauses ~assoc:original ~loc () in
        (match
           Transform.apply sema Transform.Fuse Transform.no_params loops ~loc
         with
        | Transform.Applied tr ->
          d.dir_transformed <- Some tr.Shadow.tr_stmt;
          d.dir_preinits <- Some tr.Shadow.tr_preinits
        | Transform.Deferred | Transform.Not_applicable -> ());
        finish d
      | Sema.Irbuilder ->
        let wrapped =
          List.map2
            (fun member a ->
              ignore member;
              Canonical.make_canonical_loop sema a)
            members loops
        in
        let assoc = mk_stmt ~loc:original.s_loc (Compound wrapped) in
        finish (mk_directive ~kind:D_fuse ~clauses ~assoc ~loc ())))
  | Some bad ->
    error sema ~loc:bad.s_loc
      "'fuse' requires a compound statement containing at least two \
       canonical loops (a loop sequence)";
    finish (mk_directive ~kind:D_fuse ~clauses ~assoc:bad ~loc ())
  | None ->
    error sema ~loc "'fuse' requires an associated loop sequence";
    finish (mk_directive ~kind:D_fuse ~clauses ~loc ())

(* ---- main entry ------------------------------------------------------------ *)

let act_on_directive_inner sema ~kind ~clauses ~assoc ~loc =
  let clauses = validate_clauses sema kind clauses ~loc in
  let finish d = mk_stmt ~loc (Omp_directive d) in
  if not (Classify.is_omp_loop_based_directive kind) then begin
    (* Non-loop directives. *)
    match kind with
    | D_barrier ->
      if assoc <> None then
        error sema ~loc "'barrier' is a standalone directive";
      finish (mk_directive ~kind ~clauses ~loc ())
    | D_parallel | D_single | D_master | D_critical _ -> (
      match assoc with
      | None ->
        error sema ~loc "directive requires an associated statement";
        finish (mk_directive ~kind ~clauses ~loc ())
      | Some body ->
        let wrapped =
          if is_parallel_kind kind then Capture.make_captured_stmt body
          else body
        in
        finish (mk_directive ~kind ~clauses ~assoc:wrapped ~loc ()))
    | _ -> finish (mk_directive ~kind ~clauses ~loc ())
  end
  else if kind = D_fuse then act_on_fuse sema ~clauses ~assoc ~loc
  else begin
    (* Loop-based directives.  The permutation is validated once here —
       both the depth computation and the classic lowering read this
       result, so a malformed clause is diagnosed exactly once. *)
    let interchange_perm =
      if kind = D_interchange then Some (permutation_of sema clauses ~loc)
      else None
    in
    let depth =
      match kind with
      | D_reverse -> 1
      | D_interchange -> List.length (Option.get interchange_perm)
      | _ ->
        let rec from_clauses = function
          | [] -> 1
          | C_collapse (n, _) :: _ -> n
          | C_sizes sizes :: _ -> List.length sizes
          | _ :: rest -> from_clauses rest
        in
        from_clauses clauses
    in
    (match kind with
    | (D_tile | D_stripe)
      when not (List.exists (function C_sizes _ -> true | _ -> false) clauses)
      ->
      error sema ~loc "'%s' requires a 'sizes' clause"
        (if kind = D_tile then "tile" else "stripe")
    | _ -> ());
    if not (Sema.check_nest_depth sema depth) then begin
      (* A resource limit, not a crash: e.g. [collapse(1000000)] would drive
         the nest collection (and downstream transformation builders) to an
         absurd recursion depth.  Diagnose and keep the directive un-analyzed. *)
      error sema ~loc
        "directive requires a loop nest of depth %d, which exceeds the maximum of %d [-floop-nest-limit=]"
        depth (Sema.loop_nest_limit sema);
      finish (mk_directive ?assoc ~kind ~clauses ~loc ())
    end
    else
    match assoc with
    | None ->
      error sema ~loc "loop directive requires an associated loop";
      finish (mk_directive ~kind ~clauses ~loc ())
    | Some original_assoc -> (
      (* Look through a directly associated loop transformation: the
         *analysis* target is its generated loop, while the syntactic AST
         keeps the nested directive (Fig. 6). *)
      let generated, consumed_transform =
        match (unwrap_single original_assoc).s_kind with
        | Omp_directive inner when Classify.is_loop_transformation inner.dir_kind
          -> (
          match consume_transformation sema inner ~loc with
          | Some g -> (g, Some (unwrap_single original_assoc))
          | None -> (original_assoc, None))
        | _ -> (original_assoc, None)
      in
      (* The paper's §2 quality suggestion: diagnostics against the
         *generated* loop carry a note pointing at the transformation that
         produced it (like template-instantiation notes). *)
      let with_transform_note f =
        match consumed_transform with
        | Some { s_kind = Omp_directive inner; _ } ->
          Diag.with_context_note (Sema.diagnostics sema) ~loc:inner.dir_loc
            (Printf.sprintf "within the loop generated by '#pragma omp %s' here"
               (match inner.dir_kind with
               | D_unroll -> "unroll"
               | D_tile -> "tile"
               | D_reverse -> "reverse"
               | D_interchange -> "interchange"
               | D_stripe -> "stripe"
               | D_fuse -> "fuse"
               | D_fission -> "fission"
               | _ -> "<transformation>"))
            f
        | _ -> f ()
      in
      if kind = D_fission && consumed_transform <> None then begin
        (* The sequence-producing dual: splitting the loop another
           transformation generates has no per-statement body to split. *)
        error sema ~loc
          "'fission' of the loop generated by another transformation is not \
           supported";
        finish (mk_directive ~kind ~clauses ~assoc:original_assoc ~loc ())
      end
      else
      match (Sema.mode sema, consumed_transform) with
      | Sema.Irbuilder, Some _ ->
        (* The inner transformation directive already wraps (and validated)
           its loops; keep the nesting untouched — codegen composes
           CanonicalLoopInfo handles. *)
        let assoc_final =
          if is_parallel_kind kind then Capture.make_captured_stmt original_assoc
          else original_assoc
        in
        finish (mk_directive ~kind ~clauses ~assoc:assoc_final ~loc ())
      | _ -> (
      match with_transform_note (fun () -> collect_nest sema depth generated) with
      | None -> finish (mk_directive ~kind ~clauses ~assoc:original_assoc ~loc ())
      | Some (loops, _rebuild)
        when kind = D_fission
             &&
             match (List.hd loops).Canonical.cl_body.s_kind with
             | Compound ms ->
               List.exists
                 (fun m ->
                   match m.s_kind with Decl_stmt _ -> true | _ -> false)
                 ms
             | _ -> false ->
        (* Splitting would move a declaration out of the scope of the
           statements that use it; refuse rather than mis-compile. *)
        error sema ~loc
          "'fission' cannot split a loop body that declares variables";
        finish (mk_directive ~kind ~clauses ~assoc:original_assoc ~loc ())
      | Some (loops, rebuild) -> (
        match Sema.mode sema with
        | Sema.Irbuilder ->
          (* Wrap each literal loop in OMPCanonicalLoop (Fig. 9). *)
          let assoc_final =
            rebuild (fun literal ->
                match Canonical.analyze sema literal with
                | Some a -> Canonical.make_canonical_loop sema a
                | None -> literal)
          in
          let assoc_final =
            if is_parallel_kind kind then Capture.make_captured_stmt assoc_final
            else assoc_final
          in
          finish (mk_directive ~kind ~clauses ~assoc:assoc_final ~loc ())
        | Sema.Classic -> (
          match Transform.of_directive kind with
          | Some tkind ->
            (* Every classic loop transformation funnels through the single
               [Transform.apply] entry point shared with the script-driven
               path. *)
            let d = mk_directive ~kind ~clauses ~assoc:original_assoc ~loc () in
            let params =
              Transform.params_of_clauses ?perm:interchange_perm clauses
            in
            (match Transform.apply sema tkind params loops ~loc with
            | Transform.Applied tr ->
              d.dir_transformed <- Some tr.Shadow.tr_stmt;
              d.dir_preinits <- Some tr.Shadow.tr_preinits
            | Transform.Deferred | Transform.Not_applicable -> ());
            finish d
          | None ->
            (* OMPLoopDirective family: shadow loop helpers + CapturedStmt
               wrapping (Fig. 2).  The captured region keeps the syntactic
               statement (possibly a nested transformation directive); its
               shadow children are included in the capture analysis. *)
            let wrapped = Capture.make_captured_stmt original_assoc in
            let d = mk_directive ~kind ~clauses ~assoc:wrapped ~loc () in
            d.dir_loop_helpers <- Some (Shadow.build_loop_helpers sema loops ~loc);
            finish d))))
  end

let act_on_directive sema ~kind ~clauses ~assoc ~loc =
  (* Snapshot the error count: if analysing this directive diagnosed
     anything, the resulting statement is marked [contains_errors] so
     codegen / the interpreter refuse it instead of running a half-analysed
     transformation. *)
  let errors_before = Diag.error_count (Sema.diagnostics sema) in
  let stmt = act_on_directive_inner sema ~kind ~clauses ~assoc ~loc in
  if Diag.error_count (Sema.diagnostics sema) > errors_before then
    mark_stmt_errors stmt;
  stmt
