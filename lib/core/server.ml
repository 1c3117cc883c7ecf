(* The compile server behind mccd: a Unix-domain-socket daemon holding a
   warm, shareable stage cache (optionally persisted via Store) and a
   pool of worker domains, so repeated requests from short-lived clients
   get long-lived-process cache locality.

   Life of a request: the accept loop (main domain) takes a connection
   and pushes it onto a bounded queue — when the queue is full the loop
   sheds the connection with a [Resp_busy] reply instead.  A worker
   domain pops the connection, reads one framed [Req_run], rejects it if
   a unit's content digest does not match or a transform/analysis does
   not carry exactly one unit, and otherwise [serve]s it: one [Instance]
   per request over the shared cache, every unit through the same
   contained call ([Instance.compile_safe], or [Instance.transform_safe]
   for -emit-transformed), and one framed response whose shape the
   invocation's action picks.  Units compile in [`Marshalled] form: the
   server neither decodes nor encodes an IR module, and a warm reply
   carries the stored optir artifact's body as it is.

   Crash containment is per request *and* per unit: an ICE inside a
   unit becomes an [R_ice] response entry, or the [Error] payload of a
   one-unit reply (the Crash_recovery machinery, exactly as in-process
   Batch units), and any escaped exception around request handling —
   protocol garbage, a client that hung up mid-write — is swallowed after
   a best-effort rejection, so one client can never take the daemon
   down.

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
    ~desc:"requests served by the daemon (any action)" ()

let stat_units =
  Stats.counter ~group:"server" ~name:"units"
    ~desc:"translation units run for daemon clients (any action)" ()

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

(* The [retry_after] hint every [Resp_busy] carries, in seconds: clients
   back off at least this long before retrying a shed request. *)
let shed_retry_after = 0.05

type config = {
  socket_path : string;
  pool_size : int;
  queue_capacity : int;
  max_requests : int option;
  idle_timeout : float option;
  request_timeout : float option;
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
    mutable closed : bool;
  }

  let create cap =
    {
      q = Queue.create ();
      cap = max 1 cap;
      m = Mutex.create ();
      not_empty = Condition.create ();
      closed = false;
    }

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
    Mutex.unlock t.m;
    v

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.m
end

(* ---- request handling ---------------------------------------------------- *)

(* The reply to a unit the injected worker fault crashed: outside every
   instance's containment net, so containment must still hold — the same
   structured ICE a real escape would produce. *)
let injected_failure =
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

(* A unit compiled to the end: diagnostics and the marshalled IR.  Units
   compile in [`Marshalled] form, so the IR bytes are the stored optir
   artifact's body on a hit, forwarded as they are. *)
let compiled (c : Instance.compilation) =
  let r = c.Instance.c_result in
  Protocol.R_ok
    {
      ok_diag = Diag.render_all r.Driver.diag;
      ok_errors = Diag.has_errors r.Driver.diag;
      ok_ir = r.Driver.ir_payload;
      ok_codegen_error = r.Driver.codegen_error;
    }

(* A unit compiled as far as its analysis report, with its warnings.
   Compilation failures are a payload [Error], not a rejection — the
   client prints either as a local `mcc --analyze` would, in the same
   words. *)
let analysed ~name (c : Instance.compilation) =
  let r = c.Instance.c_result in
  let diags = Diag.render_all r.Driver.diag in
  if Diag.has_errors r.Driver.diag then Error diags
  else
    match r.Driver.analysis with
    | Some report ->
      Ok
        {
          Protocol.an_diag = diags;
          an_text = Mc_analysis.Report.render_text report;
          an_json = Mc_analysis.Report.render_json report;
          an_findings = Mc_analysis.Report.finding_count report;
          an_cache_hit = c.Instance.c_cache_hit;
        }
    | None -> Error (diags ^ Instance.render_unanalysable ~name r)

(* One request, on one instance over the shared cache: its registry is
   the request's registry.  Every unit runs through [run], which carries
   the worker fault point, the deadline skip and the unit counters; only
   the projection into the reply differs by action.  A unit skipped past
   the deadline is never observable — [handle_connection] replaces the
   whole reply with a timeout rejection. *)
let serve ~deadline_exceeded ~cache (inv : Invocation.t) units =
  let started = Clock.now () in
  let inv =
    (* An analyze request analyses whatever its pass selection says. *)
    match (inv.Invocation.action, inv.Invocation.analyze) with
    | Invocation.Analyze, None -> { inv with Invocation.analyze = Some [] }
    | _ -> inv
  in
  let inst = Instance.create ?cache inv in
  (* The daemon never reads a module: its IR goes back to the client as
     bytes. *)
  let compile = Instance.compile_safe inst ~ir:`Marshalled in
  let count c = Instance.in_registry inst (fun () -> Stats.incr c) in
  let run
      (run_safe : ?name:string -> string -> (_, Instance.failure) result)
      (u : Protocol.request_unit) =
    if deadline_exceeded () then None
    else begin
      let r =
        if Mc_support.Fault.fire fault_worker then Error injected_failure
        else run_safe ~name:u.Protocol.q_name u.Protocol.q_source
      in
      count stat_units;
      if Result.is_error r then count stat_ices;
      Some r
    end
  in
  let report ~name f = Instance.render_failure ~server_side:true ~name f in
  let skipped = Error "skipped: request deadline exceeded" in
  let stats () = Instance.stats inst and wall () = Clock.now () -. started in
  count stat_requests;
  let response =
    match (inv.Invocation.action, units) with
    | Invocation.Emit_transformed, [ u ] ->
      count stat_transforms;
      let p_result =
        match run (Instance.transform_safe inst) u with
        | None -> skipped
        | Some (Ok (Ok (outcome, source, trace))) ->
          Ok
            {
              Protocol.x_source = source;
              x_trace = trace;
              x_cache_hit = outcome = Pipeline.Cache_hit;
            }
        | Some (Ok (Error msg)) -> Error ("mcc: " ^ msg)
        | Some (Error f) -> Error (report ~name:u.Protocol.q_name f)
      in
      Protocol.Resp_transformed
        { p_result; p_stats = stats (); p_wall = wall () }
    | Invocation.Analyze, [ u ] ->
      count stat_analyses;
      let p_result =
        match run compile u with
        | None -> skipped
        | Some (Ok c) -> analysed ~name:u.Protocol.q_name c
        | Some (Error f) -> Error (report ~name:u.Protocol.q_name f)
      in
      Protocol.Resp_analysis
        { p_result; p_stats = stats (); p_wall = wall () }
    | _ ->
      let unit_reply (u : Protocol.request_unit) =
        let u_started = Clock.now () in
        let outcome, trace, hit =
          match run compile u with
          | None ->
            ( Protocol.R_ok
                {
                  ok_diag = "";
                  ok_errors = false;
                  ok_ir = None;
                  ok_codegen_error = None;
                },
              [],
              false )
          | Some (Ok c) ->
            (compiled c, c.Instance.c_trace, c.Instance.c_cache_hit)
          | Some (Error f) ->
            let ice = f.Instance.f_ice in
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
        {
          Protocol.r_name = u.Protocol.q_name;
          r_outcome = outcome;
          r_trace = trace;
          r_cache_hit = hit;
          r_wall = Clock.now () -. u_started;
        }
      in
      let p_units = List.map unit_reply units in
      Protocol.Resp_units { p_units; p_stats = stats (); p_wall = wall () }
  in
  (response, Instance.registry inst)

(* Why a request cannot be served as sent: a unit whose bytes do not
   match its digest were mangled in transit, and a transform or analysis
   answers for exactly one unit. *)
let malformed (inv : Invocation.t) units =
  let intact (u : Protocol.request_unit) =
    String.equal (Protocol.unit_digest u.Protocol.q_source) u.Protocol.q_digest
  in
  if not (List.for_all intact units) then Some "source digest mismatch"
  else
    match (inv.Invocation.action, units) with
    | (Invocation.Emit_transformed | Invocation.Analyze), ([] | _ :: _ :: _)
      ->
      Some "bad request: a transform or analysis carries exactly one unit"
    | _ -> None

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
  let reject msg =
    let registry = Stats.Registry.create () in
    Stats.with_registry registry (fun () -> Stats.incr stat_rejects);
    (try Protocol.write_response oc (Protocol.Resp_rejected msg)
     with Sys_error _ | Sys_blocked_io -> ());
    registry
  in
  let registry =
    match Protocol.read_request ic with
    | Error e -> reject ("bad request: " ^ e)
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
    | Ok (Protocol.Req_run { q_invocation; q_units }) -> (
      match malformed q_invocation q_units with
      | Some msg -> reject msg
      | None ->
        (* Injected stall: a worker that reads the request and then goes
           quiet — exactly what the request deadline exists to bound. *)
        if Mc_support.Fault.fire fault_slow_reply then
          Unix.sleepf
            (match request_timeout with
            | Some t -> 1.5 *. t
            | None -> 0.35);
        let response, registry =
          serve ~deadline_exceeded ~cache q_invocation q_units
        in
        log (Printf.sprintf "served %d unit(s)" (List.length q_units));
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
                  retry_after = shed_retry_after;
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
