(** Binary framing and atomic-file helpers shared by the on-disk artifact
    store ({!Mc_core.Store}) and the compile-server wire protocol
    ({!Mc_core.Protocol}).

    A frame is [magic · version · length · payload] with 4-byte
    big-endian integers.  All decoding failures are [Error] values — the
    callers are exactly the paths where corruption must degrade to a
    cache miss or a rejected request, never an exception. *)

val max_frame_bytes : int
(** Hard cap on a frame's payload length (64 MiB); longer frames decode
    as {!Oversized} so a corrupt length field cannot force an unbounded
    allocation. *)

type frame_error =
  | Truncated
  | Bad_magic
  | Version_mismatch of int  (** the version the frame carries *)
  | Oversized of int
  | Timed_out
      (** an [SO_RCVTIMEO] deadline expired mid-read ([Sys_blocked_io]) *)

val frame_error_to_string : frame_error -> string

val frame : magic:string -> version:int -> string -> string
(** [frame ~magic ~version payload] renders one frame; [magic] must be
    exactly 4 bytes. *)

val parse_frame :
  magic:string -> version:int -> string -> (string, frame_error) result
(** Decodes a complete in-memory frame (the on-disk store format): the
    payload of a frame whose magic and version match and whose length
    equals the remaining bytes. *)

val read_frame :
  magic:string -> version:int -> in_channel -> (string, frame_error) result
(** Reads one frame from a channel (the wire format). *)

val write_frame : magic:string -> version:int -> out_channel -> string -> unit
(** Writes one frame and flushes: the 12-byte header, then [payload]
    itself, uncopied — the same bytes {!frame} renders. *)

val write_file_atomic : path:string -> string -> (unit, string) result
(** Write-to-tmp + rename in [path]'s directory, so concurrent readers
    across domains and processes only ever observe complete files. *)

val read_file : string -> string option
(** Whole-file read; [None] on any IO error (a vanished or unreadable
    file is a cache miss, not a failure). *)

val mkdir_p : string -> unit
(** [mkdir -p]; existing directories are fine, racing creators are fine. *)
