(* CrashRecoveryContext analogue: run a pipeline piece so that *no*
   exception escapes — not even Stack_overflow or Assert_failure — and
   whatever does get thrown is converted into a structured internal
   compiler error (ICE) carrying the active pipeline phase, the parser's
   source-position watermark and a backtrace.

   The phase and watermark live in domain-local storage, so concurrent
   compilations on separate domains (Batch workers) never see each
   other's state.  This module sits in mc_support and therefore cannot
   depend on the source manager; the watermark is kept as raw
   (file id, byte offset) integers, and whoever owns a source manager
   (the driver) installs a renderer that turns them into a
   "file:line:col" string at ICE time. *)

type ice = {
  ice_phase : string; (* pipeline stage active when the exception escaped *)
  ice_exn : string; (* Printexc rendering of the escaped exception *)
  ice_backtrace : string; (* raw backtrace, "" when unavailable *)
  ice_location : string option; (* rendered source watermark, if any *)
}

exception Internal_error of string

let internal_error fmt =
  Printf.ksprintf (fun s -> raise (Internal_error s)) fmt

let () =
  Printexc.register_printer (function
    | Internal_error msg -> Some ("internal error: " ^ msg)
    | _ -> None)

type state = {
  mutable phase : string;
  mutable position : (int * int) option; (* file id, byte offset *)
  mutable renderer : (file:int -> offset:int -> string) option;
}

let key =
  Domain.DLS.new_key (fun () ->
      { phase = "startup"; position = None; renderer = None })

let set_phase p = (Domain.DLS.get key).phase <- p
let phase () = (Domain.DLS.get key).phase

let note_source_position ~file ~offset =
  (Domain.DLS.get key).position <- Some (file, offset)

let set_position_renderer f = (Domain.DLS.get key).renderer <- Some f

let rendered_position () =
  let st = Domain.DLS.get key in
  match (st.position, st.renderer) with
  | Some (file, offset), Some render -> (
    (* The renderer closes over a source manager that may itself be in a
       broken state after a crash; never let it turn containment into a
       second escape. *)
    match render ~file ~offset with s -> Some s | exception _ -> None)
  | _ -> None

let ice_of_exn ?phase:p ?backtrace e =
  {
    ice_phase = (match p with Some p -> p | None -> phase ());
    ice_exn = Printexc.to_string e;
    ice_backtrace = (match backtrace with Some b -> b | None -> "");
    ice_location = rendered_position ();
  }

(* In OCaml 5 an ordinary [with e ->] handler does catch Stack_overflow
   and Out_of_memory, so a single catch-all arm gives the full
   CrashRecoveryContext guarantee. *)
let run f =
  Printexc.record_backtrace true;
  let st = Domain.DLS.get key in
  st.phase <- "startup";
  st.position <- None;
  st.renderer <- None;
  match f () with
  | v -> Ok v
  | exception e ->
    let backtrace = Printexc.get_backtrace () in
    Error (ice_of_exn ~backtrace e)

let describe ice =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "internal compiler error (phase: %s): %s" ice.ice_phase
       ice.ice_exn);
  (match ice.ice_location with
  | Some l -> Buffer.add_string b (Printf.sprintf "\nlast source location: %s" l)
  | None -> ());
  if ice.ice_backtrace <> "" then begin
    Buffer.add_string b "\nbacktrace:\n";
    Buffer.add_string b (String.trim ice.ice_backtrace)
  end;
  Buffer.contents b
