(** The [mcc --daemon] client: one-connection-one-request round-trips to
    a running [mccd] over the {!Protocol} framing, governed by a
    resilience {!policy} — connect/send/receive deadlines, and bounded
    retries with exponential backoff + deterministic jitter when the
    daemon sheds load with [Resp_busy].  Any failure short of a
    well-formed response (including exhausted retries) is an [Error]
    string; callers treat that as "no usable daemon" and fall back to
    the in-process pipeline. *)

val default_socket : unit -> string
(** Same resolution as the server: [$MCCD_SOCKET] or
    [<tmpdir>/mccd-<uid>.sock]. *)

type policy = {
  connect_timeout : float;  (** seconds to establish the connection *)
  send_timeout : float;
      (** [SO_SNDTIMEO]: bounds writing the request to a daemon that
          reads nothing — without it a large request blocks forever *)
  receive_timeout : float;
      (** [SO_RCVTIMEO]: bounds server stall, not compile time *)
  retries : int;  (** max retries after [Resp_busy] sheds *)
  backoff : float;  (** base backoff in seconds, doubled per attempt *)
  backoff_max : float;
  jitter_seed : int;
      (** deterministic jitter stream; distinct seeds de-synchronise
          concurrent clients *)
}

val default_policy : policy
(** 5 s connect, 30 s send, 120 s receive, 3 retries, 20 ms base
    backoff capped at 1 s, seed 0. *)

val policy_with : ?timeout:float -> ?retries:int -> unit -> policy
(** {!default_policy} with [mcc --daemon-timeout] (applied to all three
    deadlines, connect clamped down) and [--daemon-retries] applied. *)

type reply = {
  response : Protocol.response;
  busy_retries : int;
      (** [Resp_busy] sheds absorbed by retrying before this response *)
}

type outcome =
  | Served  (** first attempt *)
  | Shed_then_served of int  (** served after this many busy retries *)
  | Fell_back of string  (** no usable daemon; in-process pipeline ran *)

val outcome_of_reply : reply -> outcome
(** [Served] or [Shed_then_served]; [Fell_back] is the caller's to
    construct (via {!note_fallback}) when the round-trip [Error]s. *)

val note_fallback : string -> outcome
(** Bumps the [client.fallbacks] counter and returns
    [Fell_back reason]. *)

val render_outcome : outcome -> string

val roundtrip :
  ?policy:policy ->
  ?socket_path:string ->
  Protocol.request ->
  (reply, string) result
(** Connects, sends, awaits — retrying with backoff on [Resp_busy]
    (honouring its [retry_after] hint as a floor) up to
    [policy.retries] times.  A [reply] never carries [Resp_busy]:
    exhausted retries are an [Error]. *)

val compile :
  ?policy:policy ->
  ?socket_path:string ->
  Invocation.t ->
  (string * string) list ->
  (reply, string) result
(** [compile inv units] builds a [Req_run] from [(name, source)] pairs
    (digests included) and round-trips it; with a compile action ([Run],
    [Emit_ir]) the reply is [Resp_units]. *)

val transform :
  ?policy:policy ->
  ?socket_path:string ->
  Invocation.t ->
  name:string ->
  string ->
  (reply, string) result
(** [transform inv ~name source] round-trips a one-unit [Req_run] whose
    action is [Emit_transformed] ({!Protocol.request_of_transform}): the
    daemon applies [inv]'s transfo script to [source] and replies with
    [Resp_transformed].  [inv.transfo_script] must already be loaded
    ({!Invocation.load_transfo_script}) so the script travels by
    value. *)

val analyze :
  ?policy:policy ->
  ?socket_path:string ->
  Invocation.t ->
  name:string ->
  string ->
  (reply, string) result
(** [analyze inv ~name source] round-trips a one-unit [Req_run] whose
    action is [Analyze] ({!Protocol.request_of_analyze}): the daemon
    compiles [source] against its warm stage cache, runs [inv]'s
    analysis pass selection (every pass when it is [None]), and replies
    with [Resp_analysis] carrying both renderings of the report. *)

val ping :
  ?policy:policy ->
  ?socket_path:string ->
  unit ->
  (int * int, string) result
(** Health check: [Ok (queue_depth, queue_capacity)] from a live
    daemon's [Resp_pong]. *)

val absorb_snapshot : Mc_support.Stats.snapshot -> unit
(** Folds the server's counter snapshot into the {e current} registry so
    [-print-stats] stays transparent in daemon mode. *)

val ir_of_response_unit : Protocol.response_unit -> Mc_ir.Ir.modul option
(** Unmarshals the unit's IR payload, [None] on any decode failure. *)
