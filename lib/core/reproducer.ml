(* The -gen-reproducer analogue: when a compilation dies with an ICE,
   preserve everything needed to replay it — the preprocessed unit's
   source, any virtual include files, the transfo script, the invocation
   rendered back to an mcc command line, and the ICE report itself — in
   a fresh directory under the temp dir, like Clang's "PLEASE ATTACH THE
   FOLLOWING FILES" bundles. *)

module Crash_recovery = Mc_support.Crash_recovery

(* Bundle writing itself runs on the ICE path, so it must never raise;
   any filesystem failure is reported as a value. *)

let sanitize ?(default = "input.c") name =
  let base = Filename.basename name in
  let base =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
        | _ -> '_')
      base
  in
  if base = "" || base = "." || base = ".." then default else base

(* Distinguishes bundles from concurrent domains of one process; cross-
   process collisions are handled by the mkdir retry loop below. *)
let bundle_counter = Atomic.make 0

let rec fresh_dir base n =
  let dir = if n = 0 then base else Printf.sprintf "%s-%d" base n in
  match Sys.mkdir dir 0o755 with
  | () -> Ok dir
  | exception Sys_error _ when n < 1000 -> fresh_dir base (n + 1)
  | exception Sys_error msg -> Error msg

let write_file dir name contents =
  Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
      Out_channel.output_string oc contents)

let script ~invocation ~ice ~source_file =
  let args =
    List.map Filename.quote (Invocation.to_argv invocation @ [ source_file ])
  in
  String.concat ""
    [
      "#!/bin/sh\n";
      Printf.sprintf "# ICE reproducer for %s\n" source_file;
      Printf.sprintf "# phase: %s; exception: %s\n"
        ice.Crash_recovery.ice_phase ice.Crash_recovery.ice_exn;
      "cd \"$(dirname \"$0\")\"\n";
      "exec mcc " ^ String.concat " " args ^ "\n";
    ]

let write ~invocation ~name ~source ~ice =
  match
    let source_file = sanitize name in
    let base =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mcc-ice-%s-%d" source_file
           (Atomic.fetch_and_add bundle_counter 1))
    in
    match fresh_dir base 0 with
    | Error msg -> Error msg
    | Ok dir ->
      write_file dir source_file source;
      List.iter
        (fun (path, contents) ->
          (* Virtual #include targets: kept for inspection (the CLI has no
             flag to re-attach them); basenamed so a path cannot escape
             the bundle. *)
          write_file dir (sanitize path) contents)
        invocation.Invocation.extra_files;
      (* The transfo script goes into the bundle too, and repro.sh names
         that copy: the replay runs inside the bundle, where the path
         the script was given by means nothing. *)
      let invocation =
        match Invocation.load_transfo_script invocation with
        | Ok
            ({
               Invocation.transfo_script =
                 Some (Invocation.Source { name = script; contents });
               _;
             } as inv) ->
          let taken =
            source_file :: "ice.txt" :: "repro.sh"
            :: List.map (fun (p, _) -> sanitize p) inv.Invocation.extra_files
          in
          let file = sanitize ~default:"script.transfo" script in
          let file = if List.mem file taken then "script-" ^ file else file in
          write_file dir file contents;
          { inv with Invocation.transfo_script = Some (Invocation.File file) }
        | Ok _ | Error _ -> invocation
      in
      write_file dir "ice.txt" (Crash_recovery.describe ice);
      let sh = Filename.concat dir "repro.sh" in
      Out_channel.with_open_bin sh (fun oc ->
          Out_channel.output_string oc (script ~invocation ~ice ~source_file));
      (try Unix.chmod sh 0o755 with Unix.Unix_error _ -> ());
      Ok dir
  with
  | r -> r
  | exception e ->
    Error (Printf.sprintf "cannot write reproducer: %s" (Printexc.to_string e))
