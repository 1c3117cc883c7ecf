(* Binary framing and atomic-file helpers shared by the on-disk artifact
   store and the compile-server wire protocol.

   A frame is [magic (4 bytes)][version (4-byte big-endian)][length
   (4-byte big-endian)][payload].  Readers validate magic and version
   before trusting the length, and refuse lengths above a hard cap so a
   corrupt or hostile peer cannot make us allocate unbounded memory.
   Every failure mode is an [Error] — framing is used on paths
   (cache loads, daemon requests) where corruption must degrade to a
   miss or a rejected request, never to an exception escaping into the
   pipeline. *)

(* 64 MiB: far above any marshalled stage artifact or batch request we
   produce, far below anything that could wedge the process. *)
let max_frame_bytes = 64 * 1024 * 1024

let put_u32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* The 12 bytes ahead of a payload of [len] bytes. *)
let header ~magic ~version len =
  if String.length magic <> 4 then invalid_arg "Binio.frame: magic must be 4 bytes";
  let buf = Buffer.create 12 in
  Buffer.add_string buf magic;
  put_u32 buf version;
  put_u32 buf len;
  Buffer.contents buf

let frame ~magic ~version payload =
  header ~magic ~version (String.length payload) ^ payload

type frame_error =
  | Truncated
  | Bad_magic
  | Version_mismatch of int  (** the version the frame carries *)
  | Oversized of int
  | Timed_out

let frame_error_to_string = function
  | Truncated -> "truncated frame"
  | Bad_magic -> "bad magic"
  | Version_mismatch v -> Printf.sprintf "version mismatch (got %d)" v
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes)" n
  | Timed_out -> "read timed out"

(* Reads exactly [n] bytes or reports truncation; [really_input] raises
   on EOF, which is one of the corruptions we must absorb. *)
let read_exact ic n =
  let b = Bytes.create n in
  match really_input ic b 0 n with
  | () -> Ok (Bytes.unsafe_to_string b)
  | exception End_of_file -> Error Truncated
  | exception Sys_error _ -> Error Truncated
  (* A blocking read on a socket with SO_RCVTIMEO set reports its
     expiry as EAGAIN, which channel IO surfaces as [Sys_blocked_io]. *)
  | exception Sys_blocked_io -> Error Timed_out

let read_frame ~magic ~version ic =
  match read_exact ic 12 with
  | Error e -> Error e
  | Ok header ->
    if String.sub header 0 4 <> magic then Error Bad_magic
    else
      let v = get_u32 header 4 in
      if v <> version then Error (Version_mismatch v)
      else
        let len = get_u32 header 8 in
        if len < 0 || len > max_frame_bytes then Error (Oversized len)
        else read_exact ic len

let parse_frame ~magic ~version s =
  if String.length s < 12 then Error Truncated
  else if String.sub s 0 4 <> magic then Error Bad_magic
  else
    let v = get_u32 s 4 in
    if v <> version then Error (Version_mismatch v)
    else
      let len = get_u32 s 8 in
      if len < 0 || len > max_frame_bytes then Error (Oversized len)
      else if String.length s <> 12 + len then Error Truncated
      else Ok (String.sub s 12 len)

(* The header, then the payload straight from the caller's string: a
   large reply is never copied into a whole frame first. *)
let write_frame ~magic ~version oc payload =
  output_string oc (header ~magic ~version (String.length payload));
  output_string oc payload;
  flush oc

(* ---- atomic file writes -------------------------------------------------- *)

(* Write-to-tmp + rename, so concurrent readers (other domains, other
   processes sharing a cache directory) only ever observe complete
   files.  The tmp name carries pid + a per-process sequence number so
   two writers racing on one entry cannot collide on the tmp path;
   rename's last-writer-wins is fine for a content-addressed store. *)
let tmp_seq = Atomic.make 0

let write_file_atomic ~path contents =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp.%d.%d.%s"
         (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1)
         (Filename.basename path))
  in
  match
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc contents);
    Unix.rename tmp path
  with
  | () -> Ok ()
  | exception (Sys_error _ | Unix.Unix_error _) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Printf.sprintf "cannot write %s" path)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Some contents
  | exception Sys_error _ -> None

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()
  end
