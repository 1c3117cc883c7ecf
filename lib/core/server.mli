(** The compile server behind [mccd]: a Unix-domain-socket daemon with a
    warm shared stage cache (optionally persisted via {!Store}), a pool
    of worker domains, and a bounded connection queue with admission
    control — when the queue is full the accept loop sheds the
    connection with a structured [Resp_busy] (queue depth + a fixed
    50 ms retry hint) instead of letting the kernel backlog fill and
    clients hang.

    Requests are framed {!Protocol} values.  Each [Req_run] is served on
    one {!Instance} over the shared cache, and each of its units runs
    contained — {!Instance.compile_safe}, or {!Instance.transform_safe}
    for [-emit-transformed] — so a client-submitted ICE becomes an
    [R_ice] response entry (or a one-unit reply's [Error] payload, the
    {!Instance.render_failure} report) and never takes the daemon down.
    The loop exits on the [stop] flag, after [max_requests] connections,
    or after [idle_timeout] seconds without one — always draining queued
    connections before returning. *)

(** The bounded blocking queue between the accept loop and the worker
    pool.  Exposed for its own tests: the daemon's overload behaviour is
    exactly this queue's edge behaviour. *)
module Bqueue : sig
  type 'a t

  val create : int -> 'a t
  (** Capacity is clamped to at least 1. *)

  val try_push : 'a t -> 'a -> [ `Accepted | `Closed | `Full ]
  (** Never blocks — the admission-control edge. *)

  val pop : 'a t -> 'a option
  (** Blocks while empty; [None] only after {!close} {e and} a full
      drain. *)

  val length : 'a t -> int

  val close : 'a t -> unit
  (** Wakes every blocked consumer; closing is a graceful drain, not an
      abort. *)
end

type config = {
  socket_path : string;
  pool_size : int;  (** worker domains (min 1) *)
  queue_capacity : int;
      (** pending connections before the accept loop sheds with
          [Resp_busy] *)
  max_requests : int option;  (** exit after this many connections *)
  idle_timeout : float option;  (** exit after this many idle seconds *)
  request_timeout : float option;
      (** per-request wall-clock deadline, measured from worker pickup
          to reply; a request that blows it gets one complete
          [Resp_rejected] frame with a timeout reason *)
  cache_dir : string option;  (** persist the shared cache via {!Store} *)
  max_cache_bytes : int option;  (** store byte cap (default {!Store}'s) *)
  log : (string -> unit) option;  (** progress lines, e.g. [prerr_endline] *)
}

val default_config : config
(** {!Protocol.default_socket}, 2 workers, queue 16, unbounded lifetime,
    no request deadline, in-memory cache, silent. *)

val run :
  ?stop:bool Atomic.t -> config -> (Mc_support.Stats.snapshot, string) result
(** Runs the daemon to completion on the calling domain.  [stop] makes
    the accept loop finish (checked at least every 0.2 s) and drain —
    mccd's signal handlers set it, and tests/benchmarks run the server
    on a spare domain with it.  [Ok snapshot] is the lifetime counter
    snapshot (including the [server.*] group); [Error] means the socket
    could not be taken — in particular when a live daemon already
    listens on it.  Stale socket files from crashed daemons are
    detected (connect refused) and replaced. *)
