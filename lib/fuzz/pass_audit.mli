(** The change-report audit: the pass manager re-verifies only the
    functions a pass reports changing, so a pass that alters a function
    without reporting it would leave that function unchecked.  The audit
    digests the printed form of every function before and after each
    pass and names every function that moved unreported.  The test suite
    runs it over the IR golden's inputs; [fuzz -mode audit] runs it over
    generated programs. *)

type finding = {
  pa_name : string;  (** input name *)
  pa_lowering : string;  (** ["classic"] or ["irbuilder"] *)
  pa_pass : string;  (** the pass, or [""] when the input did not lower *)
  pa_detail : string;
      (** the function that moved unreported, or why the input did not
          lower *)
  pa_source : string;
}

type report = { pa_total : int; pa_findings : finding list }

val lowerings : (string * bool) list
(** [("classic", false); ("irbuilder", true)]: the two CodeGen paths,
    named, with their [use_irbuilder] flag. *)

val lower :
  irbuilder:bool -> name:string -> string -> (Mc_ir.Ir.modul, string) result
(** CodeGen's output for a source, before any pass; [Error] carries the
    diagnostics or CodeGen's refusal. *)

val audit_module :
  ?passes:Mc_passes.Pass_manager.pass list -> Mc_ir.Ir.modul -> (string * string) list
(** Runs the passes (default: -O1's) in order over the module and
    returns, for each, the [(pass, function)] pairs whose printed form
    moved although the pass did not report the function. *)

val audit_source : name:string -> string -> finding list
(** [audit_module] with -O1's passes over the source's CodeGen output
    under both lowerings. *)

val run : n:int -> seed:int -> unit -> report
(** [audit_source] over [n] {!Differential.gen_program} programs from
    the seed. *)
