(** Structural IR verifier, the analogue of LLVM's module verifier.  The
    pipeline checks every function whole after CodeGen and after linking
    per-slice modules; between mid-end passes the pass manager checks
    only the functions a pass reported changing.  Tests run it after
    every CodeGen path and every pass to catch malformed CFGs early.

    A run is one walk over the function that allocates only for the
    issues it reports: marks go into per-domain scratch tables sized by
    the largest function verified so far.  Each check reports in program
    order (blocks in layout order, a block's misplaced phis first, then
    its instructions, then its terminator), and the messages are part of
    the interface: ICE reports and reproducer bundles quote them. *)

type issue = { in_function : string; in_block : string; message : string }

val verify_func : Ir.func -> issue list
(** [[]] for a declaration.  Counts [verifier.functions-verified]
    otherwise. *)

val verify_module : Ir.modul -> issue list

val check_funcs : Ir.func list -> (unit, string) result
(** [Error] renders the issues of all the functions, in list order, one
    per line. *)

val check : Ir.modul -> (unit, string) result
(** [check_funcs] over the module's functions. *)
