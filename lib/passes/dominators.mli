(** Dominator tree (Cooper–Harvey–Kennedy "A Simple, Fast Dominance
    Algorithm") and dominance frontiers, the analyses underpinning mem2reg
    and natural-loop detection in the mid-end. *)

open Mc_ir

type t

val compute : Ir.func -> t
(** Builds the function's predecessor index ({!Ir.pred_index}) once and
    keeps it: every analysis layered on this tree (loops, trip counts,
    the dataflow CFG) reads predecessors from it. *)

val reverse_postorder : t -> Ir.block list
(** Reachable blocks only, entry first. *)

val predecessors : t -> Ir.block -> Ir.block list
(** From the index of the CFG the tree was computed on, in [f_blocks]
    order; stale once a pass rewires an edge. *)

val is_reachable : t -> Ir.block -> bool
val idom : t -> Ir.block -> Ir.block option
(** The immediate dominator; [None] for the entry block (and unreachable
    blocks). *)

val dominates : t -> Ir.block -> Ir.block -> bool
(** [dominates t a b]: does [a] dominate [b]?  Reflexive. *)

val strictly_dominates : t -> Ir.block -> Ir.block -> bool

val dominance_frontier : t -> Ir.block -> Ir.block list

val children : t -> Ir.block -> Ir.block list
(** Dominator-tree children. *)
