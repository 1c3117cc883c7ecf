(* The compile server behind mccd: a Unix-domain-socket daemon holding a
   warm, shareable stage cache (optionally persisted via Store) and a
   pool of worker domains, so repeated compile requests from short-lived
   clients get long-lived-process cache locality.

   Life of a request: the accept loop (main domain) takes a connection
   and pushes it onto a bounded queue — when the queue is full the loop
   stops accepting, the kernel listen backlog fills, and clients block
   in connect(): backpressure propagates without any protocol chatter.
   A worker domain pops the connection, reads one framed request,
   re-verifies each unit's content digest, compiles the units through
   [Instance.compile_safe] against the shared cache, and writes one
   framed response.

   Crash containment is per request *and* per unit: an ICE inside a
   unit's compilation becomes an [R_ice] response entry (the
   Crash_recovery machinery, exactly as in-process Batch units), and any
   escaped exception around request handling — protocol garbage, a
   client that hung up mid-write — is swallowed after a best-effort
   rejection, so one client can never take the daemon down.

   Lifetime: the loop exits on (a) the [stop] flag (mccd's SIGTERM/SIGINT
   handlers set it), (b) [max_requests] accepted connections, or (c)
   [idle_timeout] seconds without a new connection.  Shutdown is a
   graceful drain: stop accepting, let workers finish every queued
   connection, join them, unlink the socket. *)

module Stats = Mc_support.Stats
module Clock = Mc_support.Clock
module Diag = Mc_diag.Diagnostics

let stat_requests =
  Stats.counter ~group:"server" ~name:"requests"
    ~desc:"compile requests served by the daemon" ()

let stat_units =
  Stats.counter ~group:"server" ~name:"units"
    ~desc:"translation units compiled for daemon clients" ()

let stat_ices =
  Stats.counter ~group:"server" ~name:"ices"
    ~desc:"client units that ICEd and were contained by the daemon" ()

let stat_rejects =
  Stats.counter ~group:"server" ~name:"rejects"
    ~desc:"requests rejected before compilation (framing, digests)" ()

let stat_transforms =
  Stats.counter ~group:"server" ~name:"transforms"
    ~desc:"transfo-script requests served by the daemon" ()

let stat_analyses =
  Stats.counter ~group:"server" ~name:"analyses"
    ~desc:"dataflow analysis requests served by the daemon" ()

let stat_shed =
  Stats.counter ~group:"server" ~name:"shed"
    ~desc:"connections shed with Resp_busy because the queue was full" ()

let stat_queue_depth_max =
  Stats.counter ~group:"server" ~name:"queue-depth-max"
    ~desc:"high-water mark of the bounded connection queue" ()

let stat_timeouts =
  Stats.counter ~group:"server" ~name:"timeouts"
    ~desc:"requests rejected for exceeding the per-request deadline" ()

let stat_pings =
  Stats.counter ~group:"server" ~name:"pings"
    ~desc:"health-check pings answered" ()

(* Injectable failures inside the worker path: a synthetic per-unit
   crash (contained as R_ice, like any real ICE) and a synthetic stall
   (caught by the per-request deadline when one is configured). *)
let fault_worker = Mc_support.Fault.point "server.worker"
let fault_slow_reply = Mc_support.Fault.point "server.slow_reply"

type config = {
  socket_path : string;
  pool_size : int;
  queue_capacity : int;
  max_requests : int option;
  idle_timeout : float option;
  request_timeout : float option;
  shed_retry_after : float;
  cache_dir : string option;
  max_cache_bytes : int option;
  log : (string -> unit) option;
}

let default_config =
  {
    socket_path = Protocol.default_socket ();
    pool_size = 2;
    queue_capacity = 16;
    max_requests = None;
    idle_timeout = None;
    request_timeout = None;
    shed_retry_after = 0.05;
    cache_dir = None;
    max_cache_bytes = None;
    log = None;
  }

(* ---- bounded blocking queue ---------------------------------------------- *)

module Bqueue = struct
  type 'a t = {
    q : 'a Queue.t;
    cap : int;
    m : Mutex.t;
    not_empty : Condition.t;
    not_full : Condition.t;
    mutable closed : bool;
  }

  let create cap =
    {
      q = Queue.create ();
      cap = max 1 cap;
      m = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      closed = false;
    }

  (* Blocks while full: the old backpressure edge, kept for callers
     that want blocking semantics (and for its edge-case tests). *)
  let push t v =
    Mutex.lock t.m;
    while Queue.length t.q >= t.cap && not t.closed do
      Condition.wait t.not_full t.m
    done;
    let accepted = not t.closed in
    if accepted then begin
      Queue.push v t.q;
      Condition.signal t.not_empty
    end;
    Mutex.unlock t.m;
    accepted

  (* Never blocks: the admission-control edge.  [`Full] is the accept
     loop's cue to shed the connection with [Resp_busy] instead of
     letting the kernel backlog fill and clients hang. *)
  let try_push t v =
    Mutex.lock t.m;
    let outcome =
      if t.closed then `Closed
      else if Queue.length t.q >= t.cap then `Full
      else begin
        Queue.push v t.q;
        Condition.signal t.not_empty;
        `Accepted
      end
    in
    Mutex.unlock t.m;
    outcome

  let length t = Mutex.protect t.m (fun () -> Queue.length t.q)

  (* [None] only after [close] *and* the queue has drained — closing is
     a graceful drain, not an abort. *)
  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.not_empty t.m
    done;
    let v = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Condition.signal t.not_full;
    Mutex.unlock t.m;
    v

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.m
end

(* ---- request handling ---------------------------------------------------- *)

(* [deadline_exceeded] lets a timed-out request stop burning worker time
   on its remaining units: the whole response is replaced by a
   [Resp_rejected] timeout in [handle_connection] anyway, so skipped
   units are never observable. *)
let compile_request ?(deadline_exceeded = fun () -> false) ~cache
    (req : Protocol.compile_request) =
  let registry = Stats.Registry.create () in
  let started = Clock.now () in
  let units =
    List.map
      (fun (u : Protocol.request_unit) ->
        let inst = Instance.create ?cache (req.Protocol.q_invocation) in
        let u_started = Clock.now () in
        let compile_unit () =
          if Mc_support.Fault.fire fault_worker then
            (* Injected crash in the worker itself, outside
               [compile_safe]'s net — containment must still hold, so
               synthesize the same structured ICE a real escape would
               produce. *)
            Error
              {
                Instance.f_ice =
                  {
                    Mc_support.Crash_recovery.ice_phase = "server.worker";
                    ice_exn = "injected worker fault (MCC_FAULTS)";
                    ice_backtrace = "";
                    ice_location = None;
                  };
                f_reproducer = None;
              }
          else Instance.compile_safe inst ~name:u.Protocol.q_name u.Protocol.q_source
        in
        let outcome, trace, hit =
          if deadline_exceeded () then
            ( Protocol.R_ok
                {
                  ok_diag = "";
                  ok_errors = false;
                  ok_ir = None;
                  ok_codegen_error = None;
                },
              [],
              false )
          else
          match compile_unit () with
          | Ok c ->
            let r = c.Instance.c_result in
            ( Protocol.R_ok
                {
                  ok_diag = Diag.render_all r.Driver.diag;
                  ok_errors = Diag.has_errors r.Driver.diag;
                  ok_ir =
                    Option.map (fun m -> Marshal.to_string m []) r.Driver.ir;
                  ok_codegen_error = r.Driver.codegen_error;
                },
              c.Instance.c_trace,
              c.Instance.c_cache_hit )
          | Error f ->
            let ice = f.Instance.f_ice in
            Stats.with_registry registry (fun () -> Stats.incr stat_ices);
            ( Protocol.R_ice
                {
                  ice_phase = ice.Mc_support.Crash_recovery.ice_phase;
                  ice_exn = ice.Mc_support.Crash_recovery.ice_exn;
                  ice_location = ice.Mc_support.Crash_recovery.ice_location;
                  ice_reproducer = f.Instance.f_reproducer;
                },
              [],
              false )
        in
        Stats.Registry.merge ~into:registry (Instance.registry inst);
        Stats.with_registry registry (fun () -> Stats.incr stat_units);
        {
          Protocol.r_name = u.Protocol.q_name;
          r_outcome = outcome;
          r_trace = trace;
          r_cache_hit = hit;
          r_wall = Clock.now () -. u_started;
        })
      req.Protocol.q_units
  in
  Stats.with_registry registry (fun () -> Stats.incr stat_requests);
  ( Protocol.Resp_units
      {
        p_units = units;
        p_stats = Stats.snapshot ~registry ();
        p_wall = Clock.now () -. started;
      },
    registry )

(* The transfo pre-stage alone: resolve the script out of the shipped
   invocation, run [Pipeline.transform] against the shared cache.  Script
   failures are a payload ([Error] inside [Resp_transformed]), not a
   protocol rejection — the client should render them like any other
   user-facing diagnostic. *)
let transform_request ~cache (req : Protocol.transform_request) =
  let started = Clock.now () in
  let options = Invocation.to_driver_options req.Protocol.t_invocation in
  let result, registry =
    match options.Driver.transfo_script with
    | None -> (Error "transform request carries no script", Stats.Registry.create ())
    | Some script -> (
      let options = { options with Driver.transfo_script = None } in
      match
        Stats.with_scoped_registry (fun () ->
            Pipeline.transform ?cache ~options ~name:req.Protocol.t_name
              ~script req.Protocol.t_source)
      with
      | (Ok (outcome, source, trace), registry) ->
        ( Ok
            {
              Protocol.x_source = source;
              x_trace = trace;
              x_cache_hit = outcome = Pipeline.Cache_hit;
            },
          registry )
      | (Error msg, registry) -> (Error msg, registry)
      | exception e ->
        (Error ("internal error: " ^ Printexc.to_string e),
         Stats.Registry.create ()))
  in
  Stats.with_registry registry (fun () ->
      Stats.incr stat_requests;
      Stats.incr stat_transforms);
  ( Protocol.Resp_transformed
      {
        p_result = result;
        p_stats = Stats.snapshot ~registry ();
        p_wall = Clock.now () -. started;
      },
    registry )

(* A dataflow-analysis query: compile the unit through the shared stage
   cache with the invocation's [analyze] selection live, then ship both
   renderings of the report.  Compilation failures (diagnostics, a
   codegen refusal, an ICE) are a payload [Error], not a rejection — the
   client prints them exactly as a local `mcc --analyze` would. *)
let analyze_request ~cache (req : Protocol.analyze_request) =
  let started = Clock.now () in
  let registry = Stats.Registry.create () in
  let inv =
    (* Force the analysis on, whatever else the invocation says: a
       Req_analyze with [analyze = None] should still analyse. *)
    match req.Protocol.a_invocation.Invocation.analyze with
    | Some _ -> req.Protocol.a_invocation
    | None -> { req.Protocol.a_invocation with Invocation.analyze = Some [] }
  in
  let inst = Instance.create ?cache inv in
  let result =
    match
      Instance.compile_safe inst ~name:req.Protocol.a_name
        req.Protocol.a_source
    with
    | Ok c -> (
      let r = c.Instance.c_result in
      if Diag.has_errors r.Driver.diag then
        Error (Diag.render_all r.Driver.diag)
      else
        match (r.Driver.analysis, r.Driver.codegen_error) with
        | Some report, _ ->
          Ok
            {
              Protocol.an_text = Mc_analysis.Report.render_text report;
              an_json = Mc_analysis.Report.render_json report;
              an_findings = Mc_analysis.Report.finding_count report;
              an_cache_hit = c.Instance.c_cache_hit;
            }
        | None, Some e -> Error ("cannot analyse: " ^ e)
        | None, None -> Error "cannot analyse: no IR was produced")
    | Error f ->
      let ice = f.Instance.f_ice in
      Stats.with_registry registry (fun () -> Stats.incr stat_ices);
      Error
        (Printf.sprintf "internal error in %s: %s"
           ice.Mc_support.Crash_recovery.ice_phase
           ice.Mc_support.Crash_recovery.ice_exn)
  in
  Stats.Registry.merge ~into:registry (Instance.registry inst);
  Stats.with_registry registry (fun () ->
      Stats.incr stat_requests;
      Stats.incr stat_analyses);
  ( Protocol.Resp_analysis
      {
        p_result = result;
        p_stats = Stats.snapshot ~registry ();
        p_wall = Clock.now () -. started;
      },
    registry )

let verify_digests (req : Protocol.request) =
  let ok source digest = String.equal (Protocol.unit_digest source) digest in
  match req with
  | Protocol.Req_compile c ->
    List.for_all
      (fun (u : Protocol.request_unit) ->
        ok u.Protocol.q_source u.Protocol.q_digest)
      c.Protocol.q_units
  | Protocol.Req_transform t -> ok t.Protocol.t_source t.Protocol.t_digest
  | Protocol.Req_analyze a -> ok a.Protocol.a_source a.Protocol.a_digest
  | Protocol.Req_ping -> true

(* One connection, one request; every failure mode ends with a closed
   socket and a still-healthy worker.  [request_timeout] is a wall-clock
   deadline starting when the worker picks the connection up (so it
   covers queue-to-reply, not just compile time): a request that blows
   it gets one complete [Resp_rejected] frame with a structured timeout
   reason — never a half-written response. *)
let handle_connection ~cache ~lifetime ~lifetime_lock ~log ~request_timeout
    ~queue_depth ~queue_capacity fd =
  let started = Clock.now () in
  let deadline_exceeded () =
    match request_timeout with
    | Some t -> Clock.now () -. started > t
    | None -> false
  in
  (* A client that connects and then stalls must not wedge the worker
     longer than the request deadline allows. *)
  let read_timeout =
    match request_timeout with Some t -> Float.max t 0.01 | None -> 30.0
  in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout
   with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let reject registry msg =
    Stats.with_registry registry (fun () -> Stats.incr stat_rejects);
    try Protocol.write_response oc (Protocol.Resp_rejected msg)
    with Sys_error _ | Sys_blocked_io -> ()
  in
  let registry =
    match Protocol.read_request ic with
    | Error e ->
      let registry = Stats.Registry.create () in
      reject registry ("bad request: " ^ e);
      registry
    | Ok req when not (verify_digests req) ->
      let registry = Stats.Registry.create () in
      reject registry "source digest mismatch";
      registry
    | Ok Protocol.Req_ping ->
      let registry = Stats.Registry.create () in
      Stats.with_registry registry (fun () -> Stats.incr stat_pings);
      (try
         Protocol.write_response oc
           (Protocol.Resp_pong
              {
                pong_queue_depth = queue_depth ();
                pong_capacity = queue_capacity;
              })
       with Sys_error _ | Sys_blocked_io -> ());
      registry
    | Ok req -> (
      (* Injected stall: a worker that reads the request and then goes
         quiet — exactly what the request deadline exists to bound. *)
      if Mc_support.Fault.fire fault_slow_reply then
        Unix.sleepf
          (match request_timeout with
          | Some t -> 1.5 *. t
          | None -> 0.35);
      let response, registry =
        match req with
        | Protocol.Req_compile c ->
          let response, registry =
            compile_request ~deadline_exceeded ~cache c
          in
          log
            (Printf.sprintf "served %d unit(s)"
               (List.length c.Protocol.q_units));
          (response, registry)
        | Protocol.Req_transform t ->
          let response, registry = transform_request ~cache t in
          log (Printf.sprintf "transformed %s" t.Protocol.t_name);
          (response, registry)
        | Protocol.Req_analyze a ->
          let response, registry = analyze_request ~cache a in
          log (Printf.sprintf "analysed %s" a.Protocol.a_name);
          (response, registry)
        | Protocol.Req_ping -> assert false (* handled above *)
      in
      let response =
        if deadline_exceeded () then begin
          Stats.with_registry registry (fun () -> Stats.incr stat_timeouts);
          let t = Option.value request_timeout ~default:0.0 in
          log (Printf.sprintf "request deadline (%.3gs) exceeded" t);
          Protocol.Resp_rejected
            (Printf.sprintf
               "deadline exceeded: request took longer than the %.3gs server \
                request timeout (queue wait + compile); compile locally" t)
        end
        else response
      in
      (try Protocol.write_response oc response
       with Sys_error _ | Sys_blocked_io -> ()
       (* client hung up or stopped reading; its loss, our survival *));
      registry)
  in
  Mutex.protect lifetime_lock (fun () ->
      Stats.Registry.merge ~into:lifetime registry);
  (* [ic] and [oc] share one descriptor: close it exactly once.  A second
     close would hit whatever connection another worker accepted onto the
     reused fd number in between.  [close_out_noerr] closes even when the
     final flush fails (client gone), and leaves [oc] marked closed so
     no exit-time flush can write to a reused fd; [ic] is dropped. *)
  close_out_noerr oc

(* ---- the daemon loop ----------------------------------------------------- *)

(* A live listener on [path]?  Used to refuse double-starts while still
   cleaning up sockets a crashed daemon left behind. *)
let socket_alive path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let alive =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  alive

let run ?stop config =
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  let log = match config.log with Some f -> f | None -> fun _ -> () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Sys.file_exists config.socket_path && socket_alive config.socket_path then
    Error (Printf.sprintf "a daemon is already listening on %s" config.socket_path)
  else begin
    (try Sys.remove config.socket_path with Sys_error _ -> ());
    let cache =
      match config.cache_dir with
      | Some dir ->
        Some
          (Cache.create
             ~store:(Store.create ~dir ?max_bytes:config.max_cache_bytes ())
             ())
      | None -> Some (Cache.create ())
    in
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
      Unix.listen listen_fd 64
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot listen on %s: %s" config.socket_path
           (Unix.error_message e))
    | () ->
      let lifetime = Stats.Registry.create () in
      let lifetime_lock = Mutex.create () in
      let queue = Bqueue.create config.queue_capacity in
      let worker () =
        let rec loop () =
          match Bqueue.pop queue with
          | None -> ()
          | Some fd ->
            (match
               handle_connection ~cache ~lifetime ~lifetime_lock ~log
                 ~request_timeout:config.request_timeout
                 ~queue_depth:(fun () -> Bqueue.length queue)
                 ~queue_capacity:config.queue_capacity fd
             with
            | () -> ()
            | exception _ ->
              (* Last-ditch containment: the worker survives anything a
                 single connection can throw at it. *)
              (try Unix.close fd with Unix.Unix_error _ -> ()));
            loop ()
        in
        loop ()
      in
      let workers =
        Array.init (max 1 config.pool_size) (fun _ -> Domain.spawn worker)
      in
      log
        (Printf.sprintf "listening on %s (%d worker(s), queue %d%s)"
           config.socket_path (max 1 config.pool_size) config.queue_capacity
           (match config.cache_dir with
           | Some d -> ", cache-dir " ^ d
           | None -> ""));
      let accepted = ref 0 in
      let shed_count = ref 0 in
      let depth_max = ref 0 in
      (* Shedding happens on the accept domain: the connection is taken
         off the backlog and answered with one small [Resp_busy] frame —
         structured "retry or compile locally" instead of a silent hang.
         The write is bounded (the frame fits any socket buffer, and a
         pathological client pays at most the SNDTIMEO) so a slow
         client cannot stall accepting. *)
      let shed fd =
        incr shed_count;
        Mutex.protect lifetime_lock (fun () ->
            Stats.with_registry lifetime (fun () -> Stats.incr stat_shed));
        (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
         with Unix.Unix_error _ -> ());
        let oc = Unix.out_channel_of_descr fd in
        (try
           Protocol.write_response oc
             (Protocol.Resp_busy
                {
                  queue_depth = Bqueue.length queue;
                  retry_after = config.shed_retry_after;
                })
         with Sys_error _ | Sys_blocked_io -> ());
        close_out_noerr oc
      in
      let last_activity = ref (Clock.now ()) in
      let finished () =
        Atomic.get stop
        || (match config.max_requests with
           | Some m -> !accepted >= m
           | None -> false)
        ||
        match config.idle_timeout with
        | Some t -> Clock.now () -. !last_activity > t
        | None -> false
      in
      while not (finished ()) do
        match Unix.select [ listen_fd ] [] [] 0.2 with
        | [], _, _ -> ()
        | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | fd, _ -> (
            incr accepted;
            last_activity := Clock.now ();
            match Bqueue.try_push queue fd with
            | `Accepted -> depth_max := max !depth_max (Bqueue.length queue)
            | `Full -> shed fd
            | `Closed -> Unix.close fd (* closing: refuse, client falls back *))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      log
        (if Atomic.get stop then "shutdown requested; draining"
         else "lifetime reached; draining");
      (* Graceful drain: no new connections, queued ones all served. *)
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Bqueue.close queue;
      Array.iter Domain.join workers;
      (try Sys.remove config.socket_path with Sys_error _ -> ());
      (* The high-water mark is a gauge, not an additive counter; it is
         folded into the lifetime registry exactly once, here. *)
      Stats.with_registry lifetime (fun () ->
          Stats.add stat_queue_depth_max !depth_max);
      log
        (Printf.sprintf "served %d connection(s) (%d shed); bye" !accepted
           !shed_count);
      Ok (Stats.snapshot ~registry:lifetime ())
  end
