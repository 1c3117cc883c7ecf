(* mccd — the mcc compile server.

   Runs Mc_core.Server in the foreground on a Unix-domain socket: a warm
   pool of worker domains sharing one stage cache (optionally persisted
   with --cache-dir), so `mcc --daemon` clients get warm-process compile
   times from cold processes.  SIGTERM/SIGINT request a graceful drain:
   stop accepting, finish every queued request, remove the socket, exit. *)

module Server = Mc_core.Server
module Stats = Mc_support.Stats

let main socket pool queue max_requests idle_timeout request_timeout
    cache_dir max_cache_mb print_stats quiet =
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  (* Parse MCC_FAULTS up front so malformed specs warn at startup, not
     on the first request. *)
  Mc_support.Fault.arm_from_env ();
  let config =
    {
      Server.socket_path =
        (match socket with
        | Some p -> p
        | None -> Server.default_config.Server.socket_path);
      pool_size = max 1 pool;
      queue_capacity = max 1 queue;
      max_requests;
      idle_timeout;
      request_timeout;
      cache_dir;
      max_cache_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_cache_mb;
      log = (if quiet then None else Some (fun m -> Printf.eprintf "mccd: %s\n%!" m));
    }
  in
  match Server.run ~stop config with
  | Error msg ->
    Printf.eprintf "mccd: %s\n%!" msg;
    exit 1
  | Ok snapshot ->
    if print_stats then
      List.iter
        (fun (key, v) -> if v <> 0 then Printf.eprintf "%8d %s\n" v key)
        snapshot;
    exit 0

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket to listen on (default \\$MCCD_SOCKET or \
           mccd-<uid>.sock in the temp directory)")

let pool_arg =
  Arg.(
    value & opt int 2
    & info [ "pool" ] ~docv:"N" ~doc:"Worker domains serving requests")

let queue_arg =
  Arg.(
    value & opt int 16
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Pending connections held before the accept loop sheds new \
           ones with a busy reply")

let max_requests_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-requests" ] ~docv:"N"
        ~doc:"Exit (gracefully) after serving $(docv) connections")

let idle_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Exit (gracefully) after $(docv) seconds without a connection")

let request_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "request-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-request wall-clock deadline (worker pickup to reply); a \
           request that exceeds it is answered with a structured timeout \
           rejection telling the client to compile locally")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the shared stage cache in $(docv), so the daemon starts \
           disk-warm and its artifacts outlive it")

let max_cache_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cache-mb" ] ~docv:"MB"
        ~doc:"On-disk cache byte cap in mebibytes (LRU eviction; default 512)")

let print_stats_arg =
  Arg.(
    value & flag
    & info [ "print-stats" ]
        ~doc:"Print the lifetime counter snapshot on exit")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress progress lines")

let cmd =
  let doc = "compile server for mcc --daemon (warm shared stage cache)" in
  Cmd.v
    (Cmd.info "mccd" ~doc)
    Term.(
      const main $ socket_arg $ pool_arg $ queue_arg $ max_requests_arg
      $ idle_timeout_arg $ request_timeout_arg $ cache_dir_arg
      $ max_cache_mb_arg $ print_stats_arg $ quiet_arg)

(* Same single-dash long-flag convenience as mcc. *)
let long_flags =
  [
    "socket"; "pool"; "queue"; "max-requests"; "idle-timeout";
    "request-timeout"; "cache-dir"; "max-cache-mb"; "print-stats"; "quiet";
  ]

let normalize_argv argv =
  Array.map
    (fun arg ->
      if String.length arg > 2 && arg.[0] = '-' && arg.[1] <> '-' then begin
        let body = String.sub arg 1 (String.length arg - 1) in
        let name =
          match String.index_opt body '=' with
          | Some i -> String.sub body 0 i
          | None -> body
        in
        if List.mem name long_flags then "-" ^ arg else arg
      end
      else arg)
    argv

let () = exit (Cmd.eval ~argv:(normalize_argv Sys.argv) cmd)
