(** Textual rendering of the IR in an LLVM-like syntax, used by [-emit-ir],
    golden tests (the Fig. 10 loop skeleton) and debugging. *)

val func_to_string : Ir.func -> string
val module_to_string : Ir.modul -> string
