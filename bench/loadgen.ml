(* loadgen — the overload / tail-latency bench for the mccd daemon.

   Spawns an in-process daemon (bounded queue, worker pool) and N
   concurrent client threads issuing a seeded, mixed workload — mostly
   warm full-hit compiles, some cold units, some transfo-script
   requests, a few deliberate ICEs.  The defaults (16 clients against a
   queue of 4) put the daemon at 4x queue overload, so admission
   control must shed with [Resp_busy] and the client policy's
   retry/backoff must absorb the sheds.

   Its in-harness floors are its only gate (exit 1):
     - every client terminates before the watchdog deadline — load
       shedding may slow a request down, never hang it;
     - every request is accounted for, with zero protocol errors: a
       torn frame or unexpected response kind under overload is a bug,
       not noise.

   The latency percentiles and shed tallies it prints are one run's
   observations, not gated: perfbench's daemon_mix workload measures
   daemon latency with its spread.  It writes no file. *)

module Server = Mc_core.Server
module Client = Mc_core.Client
module Protocol = Mc_core.Protocol
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Stats = Mc_support.Stats
module Clock = Mc_support.Clock

(* ---- workload -------------------------------------------------------- *)

let warm_source =
  "void record(long x);\n\
   int main(void) {\n\
   long s = 0;\n\
   for (int i = 0; i < 40; i += 1) s += i;\n\
   record(s);\n\
   return 0; }"

let cold_source client request =
  Printf.sprintf
    "void record(long x);\n\
     int main(void) {\n\
     long s = 0;\n\
     for (int i = 0; i < %d; i += 1) s += i;\n\
     record(s);\n\
     return 0; }"
    (50 + (client * 997) + request)

let ice_source = "int main(void) {\n#pragma clang __debug crash\nreturn 0; }"

let invocation =
  { Invocation.default with Invocation.gen_reproducer = false }

let transfo_invocation =
  {
    invocation with
    Invocation.transfo_script =
      Some
        (Invocation.Source
           { name = "load.transfo"; contents = "unroll partial(2) @ for(i)" });
  }

type kind = Warm | Cold | Transform | Ice

let pick_kind rng =
  let d = Random.State.float rng 1.0 in
  if d < 0.70 then Warm
  else if d < 0.85 then Cold
  else if d < 0.95 then Transform
  else Ice

(* A request's terminal state.  [Served] covers every structured daemon
   reply (units, transform results, rejections): the daemon answered.
   [Fallback] is "no usable daemon" (busy retries exhausted, connect or
   deadline failure) — the client compiled locally, like mcc would.
   [Proto_error] is a malformed or nonsensical reply: always a bug. *)
type verdict =
  | Served of int (* busy retries absorbed *)
  | Fallback of string
  | Proto_error of string

type sample = {
  s_kind : kind;
  s_latency : float;
  s_verdict : verdict;
}

let protocolish e =
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length e && (String.sub e i n = sub || go (i + 1))
    in
    go 0
  in
  has "truncated frame" || has "bad magic" || has "version mismatch"
  || has "unmarshalling" || has "unexpected response"

(* ---- the client thread ----------------------------------------------- *)

let run_request ~policy ~socket_path ~client ~request rng =
  let kind = pick_kind rng in
  let started = Clock.now () in
  let verdict =
    match kind with
    | Transform -> (
      match
        Client.transform ~policy ~socket_path transfo_invocation
          ~name:"load.c" warm_source
      with
      | Ok { Client.response = Protocol.Resp_transformed _; busy_retries } ->
        Served busy_retries
      | Ok { Client.response = Protocol.Resp_rejected _; busy_retries } ->
        Served busy_retries
      | Ok _ -> Proto_error "unexpected response kind to a transform"
      | Error e -> if protocolish e then Proto_error e else Fallback e)
    | Warm | Cold | Ice -> (
      let name, src =
        match kind with
        | Warm -> ("warm.c", warm_source)
        | Cold ->
          (Printf.sprintf "cold-%d-%d.c" client request,
           cold_source client request)
        | Ice -> ("boom.c", ice_source)
        | Transform -> assert false
      in
      match Client.compile ~policy ~socket_path invocation [ (name, src) ] with
      | Ok { Client.response = Protocol.Resp_units { p_units = [ _ ]; _ };
             busy_retries } ->
        Served busy_retries
      | Ok { Client.response = Protocol.Resp_units _; _ } ->
        Proto_error "wrong unit count in response"
      | Ok { Client.response = Protocol.Resp_rejected _; busy_retries } ->
        Served busy_retries
      | Ok _ -> Proto_error "unexpected response kind to a compile"
      | Error e -> if protocolish e then Proto_error e else Fallback e)
  in
  { s_kind = kind; s_latency = Clock.now () -. started; s_verdict = verdict }

let fallback_lock = Mutex.create ()

(* The in-process fallback mcc would run; serialized so the bench
   measures the daemon's behaviour under load, not N local compilers
   fighting over cores. *)
let compile_locally kind =
  Mutex.protect fallback_lock (fun () ->
      let inst = Instance.create invocation in
      let src = match kind with Ice -> ice_source | _ -> warm_source in
      ignore (Instance.compile_safe inst ~name:"fallback.c" src))

(* ---- percentiles ------------------------------------------------------ *)

let percentile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let idx = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) idx))

(* ---- main ------------------------------------------------------------- *)

let () =
  let clients = ref 16 in
  let requests = ref 4 in
  let pool = ref 2 in
  let queue = ref 4 in
  let request_timeout = ref 0.0 in
  let seed = ref 1 in
  let watchdog = ref 180.0 in
  let quiet = ref false in
  Arg.parse
    [
      ("-clients", Arg.Set_int clients, "N concurrent client threads (16)");
      ("-requests", Arg.Set_int requests, "N requests per client (4)");
      ("-pool", Arg.Set_int pool, "N daemon worker domains (2)");
      ("-queue", Arg.Set_int queue, "N daemon queue capacity (4)");
      ( "-request-timeout",
        Arg.Set_float request_timeout,
        "S per-request server deadline, 0 = none (0)" );
      ("-seed", Arg.Set_int seed, "N workload-mix seed (1)");
      ( "-watchdog",
        Arg.Set_float watchdog,
        "S hang deadline for the whole run (180)" );
      ("-quiet", Arg.Set quiet, " suppress progress output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "loadgen -clients 16 -requests 4 -pool 2 -queue 4";
  let say fmt =
    Printf.ksprintf (fun s -> if not !quiet then print_endline s) fmt
  in
  let socket_path =
    let p = Filename.temp_file "mccd-load" ".sock" in
    Sys.remove p;
    p
  in
  let stop = Atomic.make false in
  let config =
    {
      Server.default_config with
      Server.socket_path;
      pool_size = max 1 !pool;
      queue_capacity = max 1 !queue;
      request_timeout =
        (if !request_timeout > 0.0 then Some !request_timeout else None);
      idle_timeout = Some 600.0;
    }
  in
  let server = Domain.spawn (fun () -> Server.run ~stop config) in
  let rec await tries =
    if tries = 0 then failwith "loadgen: daemon never listened";
    if not (Sys.file_exists socket_path) then begin
      Unix.sleepf 0.02;
      await (tries - 1)
    end
  in
  await 250;
  say "loadgen: %d client(s) x %d request(s), pool %d, queue %d (%.1fx overload)"
    !clients !requests !pool !queue
    (float_of_int !clients /. float_of_int !queue);
  let results =
    Array.init !clients (fun _ -> Array.make !requests None)
  in
  let completed = Atomic.make 0 in
  let started = Clock.now () in
  let client_thread i =
    let rng = Random.State.make [| !seed; i |] in
    let policy =
      {
        Client.connect_timeout = 10.0;
        send_timeout = 30.0;
        receive_timeout = 60.0;
        retries = 100;
        backoff = 0.005;
        backoff_max = 0.05;
        jitter_seed = (!seed * 1000) + i;
      }
    in
    for r = 0 to !requests - 1 do
      let sample =
        try run_request ~policy ~socket_path ~client:i ~request:r rng
        with e ->
          {
            s_kind = Warm;
            s_latency = 0.0;
            s_verdict = Proto_error ("escaped exception: " ^ Printexc.to_string e);
          }
      in
      (match sample.s_verdict with
      | Fallback _ -> compile_locally sample.s_kind
      | Served _ | Proto_error _ -> ());
      results.(i).(r) <- Some sample
    done;
    Atomic.incr completed
  in
  let threads = List.init !clients (fun i -> Thread.create client_thread i) in
  let deadline = Clock.now () +. !watchdog in
  let rec wait () =
    if Atomic.get completed >= !clients then ()
    else if Clock.now () > deadline then begin
      Printf.eprintf
        "loadgen: FAIL: %d of %d client(s) hung past the %gs watchdog — \
         load shedding must never leave a client hanging\n%!"
        (!clients - Atomic.get completed)
        !clients !watchdog;
      exit 1
    end
    else begin
      Thread.delay 0.05;
      wait ()
    end
  in
  wait ();
  List.iter Thread.join threads;
  let wall = Clock.now () -. started in
  Atomic.set stop true;
  let snapshot =
    match Domain.join server with
    | Ok snap -> snap
    | Error e -> failwith ("loadgen: daemon failed: " ^ e)
  in
  (* ---- classify ------------------------------------------------------- *)
  let samples =
    Array.to_list results
    |> List.concat_map (fun row ->
           Array.to_list row
           |> List.map (function
                | Some s -> s
                | None -> failwith "loadgen: request slot never recorded"))
  in
  let total = List.length samples in
  let served =
    List.filter
      (fun s -> match s.s_verdict with Served _ -> true | _ -> false)
      samples
  in
  let fallbacks =
    List.filter
      (fun s -> match s.s_verdict with Fallback _ -> true | _ -> false)
      samples
  in
  let proto_errors =
    List.filter_map
      (fun s -> match s.s_verdict with Proto_error e -> Some e | _ -> None)
      samples
  in
  let sheds =
    List.fold_left
      (fun acc s ->
        match s.s_verdict with Served n -> acc + n | _ -> acc)
      0 samples
  in
  let shed_then_served =
    List.length
      (List.filter
         (fun s -> match s.s_verdict with Served n -> n > 0 | _ -> false)
         samples)
  in
  let latencies = List.map (fun s -> s.s_latency) served in
  let warm_latencies =
    List.filter_map
      (fun s ->
        match (s.s_kind, s.s_verdict) with
        | Warm, Served _ -> Some s.s_latency
        | _ -> None)
      served
  in
  let p50 = percentile latencies 0.50 in
  let p95 = percentile latencies 0.95 in
  let p99 = percentile latencies 0.99 in
  let warm_p95 = percentile warm_latencies 0.95 in
  let server_shed = Stats.find snapshot "server.shed" in
  say
    "loadgen: %d request(s) in %.3fs (%.1f rps): %d served (%d after sheds, \
     %d busy replies), %d fallback(s), %d protocol error(s)"
    total wall
    (float_of_int total /. wall)
    (List.length served) shed_then_served sheds (List.length fallbacks)
    (List.length proto_errors);
  say "loadgen: p50 %.4fs  p95 %.4fs  p99 %.4fs  warm p95 %.4fs" p50 p95 p99
    warm_p95;
  say "loadgen: server counters: shed %d, queue-depth-max %d, timeouts %d"
    server_shed
    (Stats.find snapshot "server.queue-depth-max")
    (Stats.find snapshot "server.timeouts");
  (* ---- hard floors ---------------------------------------------------- *)
  if proto_errors <> [] then begin
    Printf.eprintf "loadgen: FAIL: %d protocol error(s) under load:\n"
      (List.length proto_errors);
    List.iter (fun e -> Printf.eprintf "  - %s\n" e) proto_errors;
    Printf.eprintf "%!";
    exit 1
  end;
  if total <> !clients * !requests then begin
    Printf.eprintf "loadgen: FAIL: %d of %d request(s) unaccounted for\n%!"
      ((!clients * !requests) - total)
      (!clients * !requests);
    exit 1
  end
