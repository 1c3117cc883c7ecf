(** Constant propagation and branch folding.  Evaluates instructions whose
    operands are constants (sharing the IRBuilder's folding primitives so
    the two layers agree bit-for-bit), rewrites their uses, and folds
    conditional branches on constants, maintaining phi nodes of the dropped
    edges. *)

val run_func : Mc_ir.Ir.func -> bool
(** [true] when anything changed. *)
