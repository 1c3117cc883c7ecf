(* The mcc side of --daemon: connect to a running mccd, ship the
   invocation + sources, get back diagnostics/IR/traces.

   Resilience lives here, behind a [policy] record instead of the old
   single hardcoded receive timeout:

   - connect/send/receive deadlines.  The send deadline matters: without
     SO_SNDTIMEO, a daemon that reads nothing (wedged worker, dead
     domain) leaves the client blocked in write() forever once the
     request outgrows the socket buffers.
   - bounded retries with exponential backoff + deterministic jitter on
     [Resp_busy] — the daemon's load-shedding reply carries a
     [retry_after] hint, which the backoff honours as a floor.
   - an explicit count of absorbed sheds in the [reply], so callers can
     classify the outcome (served / shed-then-served / fell back) and
     -print-stats can show [client.retries] / [client.fallbacks] instead
     of silently falling back.

   Every failure short of a well-formed response — no socket, connect
   refused or timed out, protocol mismatch, short read, retries
   exhausted — is an [Error], and the caller (bin/mcc) treats any
   [Error] as "no usable daemon" and falls back to the in-process
   pipeline, preserving behaviour and exit codes. *)

module Stats = Mc_support.Stats
module Clock = Mc_support.Clock

let stat_retries =
  Stats.counter ~group:"client" ~name:"retries"
    ~desc:"daemon round-trips retried after a Resp_busy shed" ()

let stat_sheds =
  Stats.counter ~group:"client" ~name:"sheds"
    ~desc:"Resp_busy load-shedding replies received from the daemon" ()

let stat_fallbacks =
  Stats.counter ~group:"client" ~name:"fallbacks"
    ~desc:"daemon requests that fell back to the in-process pipeline" ()

let default_socket = Protocol.default_socket

(* ---- the resilience policy ------------------------------------------------ *)

type policy = {
  connect_timeout : float;
  send_timeout : float;
  receive_timeout : float;
  retries : int;
  backoff : float;
  backoff_max : float;
  jitter_seed : int;
}

let default_policy =
  {
    connect_timeout = 5.0;
    (* The server compiles between our write and its reply, so the
       receive deadline bounds server stall, not compile time; keep it
       generous.  The send deadline only has to cover draining the
       request into a healthy server's read loop. *)
    send_timeout = 30.0;
    receive_timeout = 120.0;
    retries = 3;
    backoff = 0.02;
    backoff_max = 1.0;
    jitter_seed = 0;
  }

let policy_with ?timeout ?retries () =
  let p = default_policy in
  let p =
    match timeout with
    | Some t ->
      {
        p with
        connect_timeout = Float.min t p.connect_timeout;
        send_timeout = t;
        receive_timeout = t;
      }
    | None -> p
  in
  match retries with Some r -> { p with retries = max 0 r } | None -> p

type reply = {
  response : Protocol.response;
  busy_retries : int; (* Resp_busy sheds absorbed before this response *)
}

type outcome =
  | Served
  | Shed_then_served of int
  | Fell_back of string

let outcome_of_reply r =
  if r.busy_retries = 0 then Served else Shed_then_served r.busy_retries

let note_fallback reason =
  Stats.incr stat_fallbacks;
  Fell_back reason

let render_outcome = function
  | Served -> "served"
  | Shed_then_served n -> Printf.sprintf "served after %d busy retr%s" n
                            (if n = 1 then "y" else "ies")
  | Fell_back reason -> "fell back: " ^ reason

(* Exponential backoff with deterministic jitter: attempt [k] waits
   [min backoff_max (backoff * 2^k)] plus up to half that again, the
   jitter drawn from a hash of (seed, attempt) so N clients started
   with distinct seeds fan out instead of retrying in lockstep — and a
   given client replays the same schedule every run. *)
let retry_delay ~policy ~attempt ~retry_after =
  let backoff =
    Float.min policy.backoff_max (policy.backoff *. (2.0 ** float_of_int attempt))
  in
  let jitter =
    let h = Hashtbl.hash (policy.jitter_seed, attempt, "client.backoff") in
    float_of_int (h land 0xFFFF) /. 65536.0 *. (backoff *. 0.5)
  in
  Float.max retry_after (backoff +. jitter)

(* ---- the wire ------------------------------------------------------------- *)

(* A dead server must surface as a fallback, not a SIGPIPE death.
   Installed once at first use: per-roundtrip [Sys.set_signal] mutated
   process-wide state on every call (and raced between domains). *)
let sigpipe_ignored =
  lazy (Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

(* Unix-domain connect with a deadline.  A nonblocking connect to a
   local socket either completes immediately, reports EINPROGRESS
   (finish via select + SO_ERROR), or — Linux, backlog full — fails
   EAGAIN, which we retry until the deadline; with admission control on
   the server the backlog should never stay full for long. *)
let connect_with_deadline fd addr ~timeout =
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. timeout in
  let finish r =
    (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
    r
  in
  let rec go () =
    match Unix.connect fd addr with
    | () -> finish (Ok ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
      let remaining = Float.max 0.01 (deadline -. Clock.now ()) in
      match Unix.select [] [ fd ] [] remaining with
      | _, _ :: _, _ -> (
        match Unix.getsockopt_error fd with
        | None -> finish (Ok ())
        | Some e -> finish (Error e))
      | _ -> finish (Error Unix.ETIMEDOUT)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        finish (Error Unix.ETIMEDOUT))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if Clock.now () >= deadline then finish (Error Unix.ETIMEDOUT)
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    | exception Unix.Unix_error (e, _, _) -> finish (Error e)
  in
  go ()

let single_roundtrip ~policy ~socket_path (request : Protocol.request) :
    (Protocol.response, string) result =
  Lazy.force sigpipe_ignored;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    connect_with_deadline fd (Unix.ADDR_UNIX socket_path)
      ~timeout:policy.connect_timeout
  with
  | Error e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "cannot reach daemon at %s: %s" socket_path
         (Unix.error_message e))
  | Ok () ->
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO policy.receive_timeout
     with Unix.Unix_error _ -> ());
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO policy.send_timeout
     with Unix.Unix_error _ -> ());
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let write_failed e =
      (* The write can fail because the daemon answered and hung up
         before reading us — it shed this connection with [Resp_busy].
         Prefer the structured reply if one is already buffered. *)
      match Protocol.read_response ic with
      | Ok _ as r -> r
      | Error _ -> Error ("request write failed: " ^ e)
      | exception _ -> Error ("request write failed: " ^ e)
    in
    let result =
      match Protocol.write_request oc request with
      | () -> Protocol.read_response ic
      | exception Sys_error e -> write_failed e
      (* SO_SNDTIMEO expiry: the daemon stopped draining our request
         (wedged, or a buffer-filling request to a stalled reader). *)
      | exception Sys_blocked_io ->
        write_failed
          (Printf.sprintf "send timed out after %gs" policy.send_timeout)
    in
    (* One descriptor under both channels: close it once (see
       [Server.handle_connection]). *)
    close_out_noerr oc;
    result

let roundtrip ?(policy = default_policy)
    ?(socket_path = Protocol.default_socket ()) (request : Protocol.request) :
    (reply, string) result =
  let rec go attempt =
    match single_roundtrip ~policy ~socket_path request with
    | Ok (Protocol.Resp_busy { queue_depth; retry_after }) ->
      Stats.incr stat_sheds;
      if attempt >= policy.retries then
        Error
          (Printf.sprintf
             "daemon busy (queue depth %d); %d attempt(s) exhausted"
             queue_depth (attempt + 1))
      else begin
        Stats.incr stat_retries;
        Unix.sleepf (retry_delay ~policy ~attempt ~retry_after);
        go (attempt + 1)
      end
    | Ok response -> Ok { response; busy_retries = attempt }
    | Error e -> Error e
  in
  go 0

let compile ?policy ?socket_path invocation units =
  roundtrip ?policy ?socket_path (Protocol.request_of_units invocation units)

let transform ?policy ?socket_path invocation ~name source =
  roundtrip ?policy ?socket_path
    (Protocol.request_of_transform invocation ~name source)

let analyze ?policy ?socket_path invocation ~name source =
  roundtrip ?policy ?socket_path
    (Protocol.request_of_analyze invocation ~name source)

let ping ?policy ?socket_path () =
  match roundtrip ?policy ?socket_path Protocol.Req_ping with
  | Ok { response = Protocol.Resp_pong { pong_queue_depth; pong_capacity }; _ }
    ->
    Ok (pong_queue_depth, pong_capacity)
  | Ok { response = Protocol.Resp_rejected reason; _ } ->
    Error ("ping rejected: " ^ reason)
  | Ok _ -> Error "unexpected response to a ping"
  | Error e -> Error e

(* Folds a server-side stats snapshot into the current registry, so
   -print-stats over a daemon compile shows the real pipeline counters.
   [Stats.counter] is idempotent on (group, name), which is exactly what
   makes re-registering the server's descriptors here safe. *)
let absorb_snapshot (snap : Stats.snapshot) =
  List.iter
    (fun (key, v) ->
      if v <> 0 then
        match String.index_opt key '.' with
        | None -> ()
        | Some i ->
          let group = String.sub key 0 i in
          let name = String.sub key (i + 1) (String.length key - i - 1) in
          Stats.add (Stats.counter ~group ~name ()) v)
    snap

let ir_of_response_unit (u : Protocol.response_unit) : Mc_ir.Ir.modul option =
  match u.Protocol.r_outcome with
  | Protocol.R_ok { ok_ir = Some s; _ } -> (
    (* Same-build Marshal (the frame version already matched), but a
       truncated payload must degrade to "no IR", not an exception. *)
    match (Marshal.from_string s 0 : Mc_ir.Ir.modul) with
    | m -> Some m
    | exception _ -> None)
  | _ -> None
