(** Promotion of scalar allocas to SSA registers (LLVM's mem2reg).

    The classic Clang-style CodeGen path emits every local variable —
    including loop counters — as an alloca with loads and stores.  Promoting
    them to phi-based SSA is what makes loop trip counts recognisable to the
    mid-end LoopUnroll pass (paper §2.2: the [LoopHintAttr]-tagged loops are
    unrolled after, not before, this kind of cleanup). *)

val run_func : Mc_ir.Ir.func -> int
(** Returns the number of allocas promoted. *)
