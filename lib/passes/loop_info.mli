(** Natural-loop detection over the dominator tree: a back edge
    [latch -> header] where the header dominates the latch defines a loop
    whose body is everything that reaches the latch without passing the
    header. *)

open Mc_ir

type loop = {
  header : Ir.block;
  latches : Ir.block list; (* sources of back edges *)
  blocks : Ir.block list; (* header first *)
  preheader : Ir.block option; (* unique non-loop predecessor of the header *)
  exits : Ir.block list; (* blocks outside the loop targeted from inside *)
  members : unit Ir.Id_tbl.t; (* the [b_id]s of [blocks]: see [loop_contains] *)
}

val find_loops : Dominators.t -> loop list
(** All natural loops, outermost-first within each nest; loops sharing a
    header are merged (as in LLVM). *)

val loop_contains : loop -> Ir.block -> bool
(** Constant time. *)

val single_latch : loop -> Ir.block option

val loop_with_unroll_request : Dominators.t -> (loop * Ir.unroll_md) list
(** Loops whose latch carries [llvm.loop.unroll.*] metadata, paired with it;
    what the LoopUnroll pass iterates over. *)
