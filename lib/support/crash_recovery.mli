(** The [llvm::CrashRecoveryContext] analogue: convert any exception that
    escapes a compilation — including [Stack_overflow], [Out_of_memory]
    and [Assert_failure] — into a structured internal-compiler-error
    value instead of letting it take down the process (or a whole
    {!Mc_core.Batch} domain pool).

    All state here is domain-local, so concurrent compilations on
    separate domains never observe each other's phase or watermark. *)

type ice = {
  ice_phase : string;  (** pipeline stage active when the exception escaped *)
  ice_exn : string;  (** [Printexc.to_string] of the escaped exception *)
  ice_backtrace : string;  (** raw backtrace; [""] when unavailable *)
  ice_location : string option;  (** rendered source watermark, if any *)
}

exception Internal_error of string
(** The exception genuinely-unreachable [assert false] sites raise
    instead, so that a violated compiler invariant reports through the
    ICE machinery with a message rather than a bare [Assert_failure]. *)

val internal_error : ('a, unit, string, 'b) format4 -> 'a
(** [internal_error fmt ...] raises {!Internal_error} with a formatted
    message; the replacement for input-unreachable [assert false]. *)

val run : (unit -> 'a) -> ('a, ice) result
(** Runs the thunk with backtrace recording on and the phase/watermark
    reset; any escaped exception — of any kind — becomes [Error ice]. *)

val set_phase : string -> unit
(** Marks the pipeline stage the current domain is executing (the driver
    calls this as each timed stage starts). *)

val phase : unit -> string

val note_source_position : file:int -> offset:int -> unit
(** The parser's watermark: the raw (file id, byte offset) of the last
    consumed token, cheap enough to update per token. *)

val set_position_renderer : (file:int -> offset:int -> string) -> unit
(** Installed by whoever owns the source manager (the driver), so an ICE
    can render the watermark as "file:line:col" without this module
    depending on [Mc_srcmgr].  Renderer exceptions are swallowed. *)

val ice_of_exn : ?phase:string -> ?backtrace:string -> exn -> ice
(** Builds an {!ice} from a caught exception, for containment sites that
    cannot use {!run} directly (e.g. a batch worker's last-ditch arm). *)

val describe : ice -> string
(** Multi-line human rendering: phase, exception, watermark, backtrace. *)
