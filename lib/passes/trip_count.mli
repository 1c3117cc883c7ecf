(** Affine induction-variable and trip-count analysis — a deliberately small
    stand-in for ScalarEvolution.  The canonical-loop path never needs it
    (the paper lists "identifiable loop trip count, without requiring
    analysis by ScalarEvolution" as a [CanonicalLoopInfo] invariant); the
    classic shadow-AST path does, because its [LoopHintAttr]-tagged loops
    arrive as ordinary while-shaped CFGs. *)

open Mc_ir

type affine = {
  iv : Ir.inst; (* the header phi *)
  init : Ir.value; (* incoming from the preheader *)
  step : int64; (* constant per-iteration increment (signed) *)
  latch_update : Ir.inst; (* the add feeding the back edge *)
  bound : Ir.value; (* loop-invariant comparison bound *)
  cmp : Ir.icmp; (* with [iv] as the left operand *)
  exiting : Ir.block; (* block whose cond_br leaves the loop *)
  header_chain : Ir.block list; (* header .. exiting, straight-line *)
  body_succ : Ir.block; (* taken when the loop continues *)
  exit_succ : Ir.block; (* taken when the loop exits *)
}

val analyze : Dominators.t -> Loop_info.loop -> affine option
(** Recognises while-shaped loops, including the OpenMPIRBuilder skeleton
    where the comparison lives in a dedicated cond block: a straight-line
    chain of blocks from the header ends in the loop's only exiting
    conditional branch [icmp cmp iv bound] (commuted forms are normalised),
    the IV is an affine header phi, and the bound is defined outside the
    loop.  Returns [None] for anything else. *)

val constant_trip_count : affine -> int64 option
(** Exact iteration count when [init] and [bound] are constants.  Uses
    unsigned/signed semantics according to [cmp]; counts above 2^62 are
    reported as [None]. *)

val header_is_pure : affine -> Loop_info.loop -> bool
(** No loads, stores or calls among the header chain's non-phi
    instructions, and none of its non-phi values are used outside the chain
    — the safety condition for skipping the header check in unrolled
    copies. *)
