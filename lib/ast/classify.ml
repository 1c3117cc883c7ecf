open Tree

let directive_class_name = function
  | D_parallel -> "OMPParallelDirective"
  | D_for -> "OMPForDirective"
  | D_parallel_for -> "OMPParallelForDirective"
  | D_simd -> "OMPSimdDirective"
  | D_for_simd -> "OMPForSimdDirective"
  | D_parallel_for_simd -> "OMPParallelForSimdDirective"
  | D_unroll -> "OMPUnrollDirective"
  | D_tile -> "OMPTileDirective"
  | D_reverse -> "OMPReverseDirective"
  | D_interchange -> "OMPInterchangeDirective"
  | D_stripe -> "OMPStripeDirective"
  | D_fuse -> "OMPFuseDirective"
  | D_fission -> "OMPFissionDirective"
  | D_barrier -> "OMPBarrierDirective"
  | D_single -> "OMPSingleDirective"
  | D_master -> "OMPMasterDirective"
  | D_critical _ -> "OMPCriticalDirective"

let stmt_class_name s =
  match s.s_kind with
  | Null_stmt -> "NullStmt"
  | Compound _ -> "CompoundStmt"
  | Expr_stmt _ -> "ExprStmt"
  | Decl_stmt _ -> "DeclStmt"
  | If _ -> "IfStmt"
  | Switch _ -> "SwitchStmt"
  | Case _ -> "CaseStmt"
  | Default _ -> "DefaultStmt"
  | While _ -> "WhileStmt"
  | Do_while _ -> "DoStmt"
  | For _ -> "ForStmt"
  | Range_for _ -> "CXXForRangeStmt"
  | Break -> "BreakStmt"
  | Continue -> "ContinueStmt"
  | Return _ -> "ReturnStmt"
  | Attributed _ -> "AttributedStmt"
  | Captured _ -> "CapturedStmt"
  | Omp_canonical_loop _ -> "OMPCanonicalLoop"
  | Omp_directive d -> directive_class_name d.dir_kind
  | Error_stmt _ -> "ErrorStmt"

let expr_class_name e =
  match e.e_kind with
  | Int_lit _ -> "IntegerLiteral"
  | Float_lit _ -> "FloatingLiteral"
  | String_lit _ -> "StringLiteral"
  | Decl_ref _ | Fn_ref _ -> "DeclRefExpr"
  | Paren _ -> "ParenExpr"
  | Unary _ -> "UnaryOperator"
  | Binary _ -> "BinaryOperator"
  | Assign (None, _, _) -> "BinaryOperator"
  | Assign (Some _, _, _) -> "CompoundAssignOperator"
  | Conditional _ -> "ConditionalOperator"
  | Call _ -> "CallExpr"
  | Subscript _ -> "ArraySubscriptExpr"
  | Implicit_cast _ -> "ImplicitCastExpr"
  | C_style_cast _ -> "CStyleCastExpr"
  | Sizeof_type _ -> "UnaryExprOrTypeTraitExpr"
  | Recovery_expr _ -> "RecoveryExpr"

let clause_class_name = function
  | C_num_threads _ -> "OMPNumThreadsClause"
  | C_schedule _ -> "OMPScheduleClause"
  | C_collapse _ -> "OMPCollapseClause"
  | C_full -> "OMPFullClause"
  | C_partial _ -> "OMPPartialClause"
  | C_sizes _ -> "OMPSizesClause"
  | C_private _ -> "OMPPrivateClause"
  | C_firstprivate _ -> "OMPFirstprivateClause"
  | C_shared _ -> "OMPSharedClause"
  | C_reduction _ -> "OMPReductionClause"
  | C_nowait -> "OMPNowaitClause"
  | C_permutation _ -> "OMPPermutationClause"
  | C_simdlen _ -> "OMPSimdlenClause"
  | C_if _ -> "OMPIfClause"

let is_omp_loop_directive = function
  | D_for | D_parallel_for | D_simd | D_for_simd | D_parallel_for_simd -> true
  | D_parallel | D_unroll | D_tile | D_reverse | D_interchange | D_stripe
  | D_fuse | D_fission | D_barrier | D_single | D_master | D_critical _ ->
    false

let is_loop_transformation = function
  | D_unroll | D_tile | D_reverse | D_interchange | D_stripe | D_fuse
  | D_fission ->
    true
  | D_parallel | D_for | D_parallel_for | D_simd | D_for_simd
  | D_parallel_for_simd | D_barrier | D_single | D_master | D_critical _ ->
    false

let is_omp_loop_based_directive k =
  is_omp_loop_directive k || is_loop_transformation k

let stmt_ancestry s =
  match s.s_kind with
  | Omp_directive d ->
    let leaf = directive_class_name d.dir_kind in
    let chain =
      if is_omp_loop_directive d.dir_kind then
        [ leaf; "OMPLoopDirective"; "OMPLoopBasedDirective" ]
      else if is_loop_transformation d.dir_kind then
        [ leaf; "OMPLoopBasedDirective" ]
      else [ leaf ]
    in
    chain @ [ "OMPExecutableDirective"; "Stmt" ]
  | Expr_stmt e -> [ expr_class_name e; "Expr"; "Stmt" ]
  | _ -> [ stmt_class_name s; "Stmt" ]

let clause_ancestry c = [ clause_class_name c; "OMPClause" ]
