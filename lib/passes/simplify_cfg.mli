(** CFG cleanup: removes unreachable blocks (maintaining phis), merges
    straight-line block pairs, and forwards through empty blocks.  Runs to a
    fixed point. *)

val run_func : Mc_ir.Ir.func -> bool
