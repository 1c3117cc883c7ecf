(** Dead code elimination: removes side-effect-free instructions whose
    results are never used, transitively. *)

val run_func : Mc_ir.Ir.func -> bool
