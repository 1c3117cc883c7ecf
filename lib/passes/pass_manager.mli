(** Sequencing of mid-end passes, with optional IR verification between
    passes (the debugging aid every real pass pipeline has).

    A pass runs function by function and reports, per function, whether
    it changed it (LLVM's [PreservedAnalyses] reduced to one bit).  With
    [verify_between] the manager re-verifies only the functions the pass
    reported changing: a pass that changed nothing costs no verifier
    work.  The whole-module checks after CodeGen and after linking stay
    with the caller.  A skip is only as good as the report, so the test
    suite and [fuzz -mode audit] digest every function around every pass
    ({!Mc_fuzz.Pass_audit}). *)

type pass = {
  name : string;
  run_func : Mc_ir.Ir.func -> bool;
      (** Runs on one defined function; [true] iff it changed it in any
          way the printed IR shows. *)
}

type pass_timing = {
  pt_name : string;
  pt_changed : bool;
  pt_changed_funcs : string list;
      (* the functions the pass reported changing, in module order *)
  pt_wall : float; (* monotonic wall-clock seconds *)
  pt_insts_before : int; (* module instruction count going in *)
  pt_insts_after : int; (* … and coming out (delta = after - before) *)
}

type report = {
  unroll_stats : Loop_unroll.stats;
  pass_timings : pass_timing list; (* per-pass wall time + size delta *)
}

val o0 : string list
(** Cleanup only: ["simplifycfg"; "dce"]. *)

val o1 : string list
(** The default pipeline the driver runs:
    simplifycfg → mem2reg → constprop → dce → loop-unroll → constprop →
    simplifycfg → dce. *)

val named : ?on_unroll:(Loop_unroll.stats -> unit) -> string -> pass
(** The built-in pass of that name (["simplifycfg"], ["mem2reg"],
    ["constprop"], ["dce"] or ["loop-unroll"]); raises [Invalid_argument]
    on an unknown name.  LoopUnroll hands each function's statistics to
    [on_unroll]. *)

val run_passes :
  ?verify_between:bool -> pass list -> Mc_ir.Ir.modul -> pass_timing list
(** Runs the passes in order over the module's defined functions.  When
    [verify_between] is set, raises [Invalid_argument] naming the pass
    when a function it reported changing fails {!Mc_ir.Verifier}, and
    counts each defined function it did not change as
    [verifier.unchanged-skipped]. *)

val run :
  ?verify_between:bool -> passes:string list -> Mc_ir.Ir.modul -> report
(** [run_passes] over {!named} passes.  Raises [Invalid_argument] on an
    unknown pass name before any pass runs, or, when [verify_between] is
    set, on a verifier failure (including the failing pass's name). *)
