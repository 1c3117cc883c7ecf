(** Node classification mirroring the class hierarchies of the paper's
    Fig. 3 (Stmt), Fig. 4 (loop transformations, with the new
    [OMPLoopBasedDirective] layer) and Fig. 5 (clauses).

    OCaml variants have no inheritance, so the hierarchy is exposed as an
    explicit ancestry function: [stmt_ancestry] returns the Clang class
    chain from most-derived to [Stmt].  Tests assert the figures hold. *)

open Tree

val stmt_class_name : stmt -> string
(** Clang's node name, e.g. ["ForStmt"], ["OMPParallelForDirective"]. *)

val expr_class_name : expr -> string
val clause_class_name : clause -> string
val directive_class_name : directive_kind -> string

val stmt_ancestry : stmt -> string list
(** Class chain, most-derived first, ending in ["Stmt"]. *)

val clause_ancestry : clause -> string list
(** Ends in ["OMPClause"]. *)

val is_omp_loop_based_directive : directive_kind -> bool
(** The Fig. 4 layer: loop directives plus the transformations. *)

val is_omp_loop_directive : directive_kind -> bool
(** The worksharing/simd family with full shadow loop helpers. *)

val is_loop_transformation : directive_kind -> bool
(** [unroll] and [tile]. *)
