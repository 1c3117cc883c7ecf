(** ICE reproducer bundles, the [-gen-reproducer] /
    "PLEASE ATTACH THE FOLLOWING FILES" analogue: when a unit dies with an
    internal compiler error, the driver preserves the unit's source, any
    virtual include files, the transfo script (under its sanitised
    basename, which [repro.sh] names), a [repro.sh] re-running the exact
    invocation through [mcc] from inside the bundle, and the rendered ICE
    report ([ice.txt]) in a fresh directory under the temp dir.
    [-fno-crash-diagnostics] disables it. *)

val write :
  invocation:Invocation.t ->
  name:string ->
  source:string ->
  ice:Mc_support.Crash_recovery.ice ->
  (string, string) result
(** [write ~invocation ~name ~source ~ice] creates the bundle and returns
    its directory, or [Error msg] on filesystem failure.  Never raises —
    it runs on the ICE reporting path. *)
