(* Compile-server suite: warm round-trips through a live daemon on a
   spare domain, ICE containment, digest-mismatch rejection, load
   shedding with client retry, per-request deadlines, injected faults
   (torn frames, worker crashes), Bqueue edge cases, stale-socket
   takeover, and the client's unreachable-daemon error path. *)

open Helpers
module Server = Mc_core.Server
module Client = Mc_core.Client
module Protocol = Mc_core.Protocol
module Pipeline = Mc_core.Pipeline
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Driver = Mc_core.Driver
module Stats = Mc_support.Stats
module Fault = Mc_support.Fault

let source =
  "void record(long x);\nint main(void) {\nlong s = 0;\n\
   for (int i = 0; i < 40; i += 1) s += i;\nrecord(s);\nreturn 0; }"

let ice_source = "int main(void) {\n#pragma clang __debug crash\nreturn 0; }"

(* Reproducer bundles from contained ICEs are not wanted in the test
   environment. *)
let invocation =
  { Invocation.default with Invocation.gen_reproducer = false }

let fresh_socket () =
  let path = Filename.temp_file "mccd-test" ".sock" in
  Sys.remove path;
  path

(* When the suite runs under an env-armed fault matrix (MCC_FAULTS),
   injected failures — torn frames, synthetic worker crashes — are
   expected outcomes: round-trips are re-rolled a bounded number of
   times and only clean passes are asserted on, while exact counter and
   cache-trace expectations (which re-rolls perturb) are relaxed.
   Correctness invariants — no wrong data, no hangs, no daemon deaths —
   are never relaxed.  With MCC_FAULTS unset every helper is a single
   attempt and any failure is fatal, exactly as before. *)
let tolerant = Sys.getenv_opt "MCC_FAULTS" <> None

let has_substring s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let rec retrying ?(tries = 40) f =
  match f () with
  | Ok v -> v
  | Error msg ->
    if tolerant && tries > 0 then begin
      Unix.sleepf 0.01;
      retrying ~tries:(tries - 1) f
    end
    else Alcotest.failf "%s" msg

(* Exact lifetime-counter expectations only hold when no fault matrix
   is re-rolling requests underneath us; under faults the counters are
   still monotone, so a floor remains checkable. *)
let check_count name expected actual =
  if tolerant then
    Alcotest.(check bool) (name ^ " (floor under faults)") true
      (actual >= expected)
  else Alcotest.(check int) name expected actual

let check_flag name expected actual =
  if not tolerant then Alcotest.(check bool) name expected actual

let check_trace name expected actual =
  if not tolerant then Alcotest.(check string) name expected actual

(* Starts a daemon on a spare domain, runs [f socket_path], then stops
   the daemon and returns [f]'s result with the lifetime snapshot. *)
let with_daemon ?(pool = 1) ?(queue = 8) ?request_timeout f =
  let socket_path = fresh_socket () in
  let stop = Atomic.make false in
  let config =
    {
      Server.default_config with
      Server.socket_path;
      pool_size = pool;
      queue_capacity = queue;
      request_timeout;
      (* Safety net: the test never relies on it, but a wedged daemon
         must not hang the suite forever. *)
      idle_timeout = Some 60.0;
    }
  in
  let server = Domain.spawn (fun () -> Server.run ~stop config) in
  (* Wait for the listening socket, then for a successful round-trip. *)
  let rec await n =
    if n = 0 then Alcotest.fail "daemon socket never appeared";
    if not (Sys.file_exists socket_path) then begin
      Unix.sleepf 0.02;
      await (n - 1)
    end
  in
  await 250;
  let result =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () -> f socket_path)
  in
  match Domain.join server with
  | Ok snapshot ->
    Alcotest.(check bool) "socket removed on shutdown" false
      (Sys.file_exists socket_path);
    (result, snapshot)
  | Error e -> Alcotest.failf "server failed: %s" e

(* A compile round-trip that must end in [Resp_units] with no injected
   worker crash; under the fault matrix, injected outcomes re-roll. *)
let compile_units ?policy ~socket_path inv units =
  retrying (fun () ->
      match Client.compile ?policy ~socket_path inv units with
      | Error e -> Error ("round-trip failed: " ^ e)
      | Ok { Client.response = Protocol.Resp_units { p_units; _ }; _ } ->
        let injected (u : Protocol.response_unit) =
          match u.Protocol.r_outcome with
          | Protocol.R_ice { ice_exn; _ } -> has_substring ice_exn "injected"
          | Protocol.R_ok _ -> false
        in
        if tolerant && List.exists injected p_units then
          Error "injected worker fault; re-rolling"
        else Ok p_units
      | Ok { Client.response = Protocol.Resp_rejected reason; _ } ->
        Error ("request rejected: " ^ reason)
      | Ok _ -> Error "unexpected response shape")

let compile_unit ?policy ~socket_path inv units =
  match compile_units ?policy ~socket_path inv units with
  | [ u ] -> u
  | us -> Alcotest.failf "expected one response unit, got %d" (List.length us)

let ir_text u =
  match Client.ir_of_response_unit u with
  | Some m -> Mc_ir.Printer.module_to_string m
  | None -> Alcotest.fail "response carried no decodable IR"

let ok_ir (u : Protocol.response_unit) =
  match u.Protocol.r_outcome with
  | Protocol.R_ok { ok_ir = Some bytes; _ } -> bytes
  | Protocol.R_ok { ok_ir = None; _ } -> Alcotest.fail "reply carried no IR"
  | Protocol.R_ice _ -> Alcotest.fail "unit ICEd"

let test_warm_roundtrip () =
  let (), snap =
    with_daemon (fun socket_path ->
        let compile () =
          compile_unit ~socket_path invocation [ ("a.c", source) ]
        in
        let cold = compile () in
        (match cold.Protocol.r_outcome with
        | Protocol.R_ok { ok_errors; _ } ->
          Alcotest.(check bool) "cold has no errors" false ok_errors
        | Protocol.R_ice _ -> Alcotest.fail "cold compile ICEd");
        check_flag "cold is a miss" false cold.Protocol.r_cache_hit;
        let warm = compile () in
        check_flag "warm is a full hit" true warm.Protocol.r_cache_hit;
        check_trace "warm reuses every stage"
          "pp:hit ast:hit ir:hit optir:hit"
          (Pipeline.render_trace warm.Protocol.r_trace);
        Alcotest.(check string) "byte-identical IR across the wire"
          (ir_text cold) (ir_text warm);
        (* The warm reply forwards the stored optir body: the very bytes
           the cold reply marshalled, and those of an in-process
           compile's module. *)
        let in_process =
          let c =
            Instance.compile (Instance.create invocation) ~name:"a.c" source
          in
          Marshal.to_string (Option.get c.Instance.c_result.Driver.ir) []
        in
        Alcotest.(check string) "warm ok_ir is the cold ok_ir" (ok_ir cold)
          (ok_ir warm);
        Alcotest.(check string) "ok_ir is the in-process module, marshalled"
          in_process (ok_ir cold))
  in
  check_count "server.requests" 2 (Stats.find snap "server.requests");
  check_count "server.units" 2 (Stats.find snap "server.units");
  check_count "server.ices" 0 (Stats.find snap "server.ices")

(* The payload [Error] of a one-unit transform or analysis reply; under
   the fault matrix, a reply the injected worker fault crashed re-rolls. *)
let unit_error what reply =
  retrying (fun () ->
      match reply () with
      | Ok
          {
            Client.response =
              ( Protocol.Resp_transformed { p_result = Error e; _ }
              | Protocol.Resp_analysis { p_result = Error e; _ } );
            _;
          } ->
        if tolerant && has_substring e "injected" then
          Error "injected worker fault; re-rolling"
        else Ok e
      | Ok
          {
            Client.response =
              ( Protocol.Resp_transformed { p_result = Ok _; _ }
              | Protocol.Resp_analysis { p_result = Ok _; _ } );
            _;
          } ->
        Alcotest.failf "%s of the crashing unit succeeded" what
      | Ok { Client.response = Protocol.Resp_rejected reason; _ } ->
        Error ("request rejected: " ^ reason)
      | Ok _ -> Error "unexpected response shape"
      | Error e -> Error ("round-trip failed: " ^ e))

let transfo_invocation contents =
  {
    invocation with
    Invocation.transfo_script =
      Some (Invocation.Source { name = "s.transfo"; contents });
  }

let test_ice_contained () =
  let (), snap =
    with_daemon (fun socket_path ->
        let ice =
          compile_unit ~socket_path invocation [ ("boom.c", ice_source) ]
        in
        (match ice.Protocol.r_outcome with
        | Protocol.R_ice { ice_phase; ice_exn; _ } ->
          Alcotest.(check bool) "phase reported" true (ice_phase <> "");
          Alcotest.(check bool) "exception reported" true (ice_exn <> "")
        | Protocol.R_ok _ -> Alcotest.fail "expected an R_ice outcome");
        (* The same crash through an analysis and a transform: contained
           by the same worker path, reported the same way. *)
        let analysis =
          unit_error "analysis" (fun () ->
              Client.analyze ~socket_path invocation ~name:"boom.c"
                ice_source)
        in
        check_contains ~what:"analysis ICE report" analysis
          "phase: parse-sema";
        check_contains ~what:"analysis ICE report" analysis
          "[contained by daemon]";
        let transform =
          unit_error "transform" (fun () ->
              Client.transform ~socket_path
                (transfo_invocation "unroll partial(2) @ for(i)")
                ~name:"boom.c" ice_source)
        in
        check_contains ~what:"transform ICE report" transform
          "phase: parse-sema";
        check_contains ~what:"transform ICE report" transform
          "internal compiler error compiling boom.c";
        (* The crash was contained in the worker: the daemon keeps
           serving, and its cache is intact. *)
        let after =
          compile_unit ~socket_path invocation [ ("a.c", source) ]
        in
        match after.Protocol.r_outcome with
        | Protocol.R_ok { ok_errors; _ } ->
          Alcotest.(check bool) "daemon still compiles" false ok_errors
        | Protocol.R_ice _ -> Alcotest.fail "daemon poisoned by earlier ICE")
  in
  check_count "server.ices" 3 (Stats.find snap "server.ices");
  check_count "driver.ices" 3 (Stats.find snap "driver.ices");
  check_count "server.units" 4 (Stats.find snap "server.units");
  check_count "server.requests" 4 (Stats.find snap "server.requests")

(* A unit codegen refuses cannot be analysed: the daemon's payload is the
   very stderr text an in-process `mcc --analyze` prints for it. *)
let test_analysis_refusal_wording () =
  let refused = "int g = 1; int main(void) { return g; }" in
  let inv = { invocation with Invocation.action = Invocation.Analyze } in
  let in_process =
    let r =
      (Instance.compile
         (Instance.create { inv with Invocation.analyze = Some [] })
         ~name:"g.c" refused)
        .Instance.c_result
    in
    Mc_diag.Diagnostics.render_all r.Driver.diag
    ^ Instance.render_unanalysable ~name:"g.c" r
  in
  check_contains ~what:"in-process line" in_process "mcc: cannot analyse g.c: ";
  let (), _ =
    with_daemon (fun socket_path ->
        let daemon =
          unit_error "analysis" (fun () ->
              Client.analyze ~socket_path inv ~name:"g.c" refused)
        in
        Alcotest.(check string) "daemon payload is the in-process stderr"
          in_process daemon)
  in
  ()

(* A transform or analysis answers for one unit: any other count is a
   counted rejection, and the daemon keeps serving. *)
let test_multi_unit_analysis_rejected () =
  let (), snap =
    with_daemon (fun socket_path ->
        let request =
          Protocol.request_of_units
            { invocation with Invocation.action = Invocation.Analyze }
            [ ("a.c", source); ("b.c", source) ]
        in
        let reason =
          retrying (fun () ->
              match Client.roundtrip ~socket_path request with
              | Ok { Client.response = Protocol.Resp_rejected reason; _ } ->
                Ok reason
              | Ok _ -> Alcotest.fail "a two-unit analysis was served"
              | Error e -> Error ("round-trip failed: " ^ e))
        in
        check_contains ~what:"rejection reason" reason "bad request";
        let after = compile_unit ~socket_path invocation [ ("a.c", source) ] in
        match after.Protocol.r_outcome with
        | Protocol.R_ok { ok_errors; _ } ->
          Alcotest.(check bool) "daemon serves after a rejection" false
            ok_errors
        | Protocol.R_ice _ -> Alcotest.fail "daemon poisoned by a rejection")
  in
  check_count "server.rejects" 1 (Stats.find snap "server.rejects");
  check_count "server.analyses" 0 (Stats.find snap "server.analyses")

let test_digest_mismatch_rejected () =
  let (), snap =
    with_daemon (fun socket_path ->
        let forged =
          match Protocol.request_of_units invocation [ ("a.c", source) ] with
          | Protocol.Req_run { q_invocation; q_units } ->
            Protocol.Req_run
              {
                q_invocation;
                q_units =
                  List.map
                    (fun u -> { u with Protocol.q_digest = String.make 32 '0' })
                    q_units;
              }
          | Protocol.Req_ping ->
            Alcotest.fail "request_of_units built a ping"
        in
        let reason =
          retrying (fun () ->
              match Client.roundtrip ~socket_path forged with
              | Ok { Client.response = Protocol.Resp_rejected reason; _ } ->
                Ok reason
              | Ok _ -> Alcotest.fail "forged digest was accepted"
              | Error e -> Error ("round-trip failed: " ^ e))
        in
        check_contains ~what:"rejection reason" reason "digest";
        (* A rejection must not wedge the daemon either. *)
        let after =
          compile_unit ~socket_path invocation [ ("a.c", source) ]
        in
        check_flag "daemon serves after a rejection" false
          after.Protocol.r_cache_hit)
  in
  check_count "server.rejects" 1 (Stats.find snap "server.rejects")

(* A transform request: the daemon applies the invocation's transfo
   script and returns the rewritten source, caching the transfo stage. *)
let test_transform_request () =
  let (), snap =
    with_daemon (fun socket_path ->
        let inv = transfo_invocation "unroll partial(2) @ for(i)" in
        let once () =
          retrying (fun () ->
              match Client.transform ~socket_path inv ~name:"a.c" source with
              | Ok
                  {
                    Client.response =
                      Protocol.Resp_transformed { p_result = Ok t; _ };
                    _;
                  } ->
                Ok t
              | Ok
                  {
                    Client.response =
                      Protocol.Resp_transformed { p_result = Error e; _ };
                    _;
                  } ->
                if tolerant && has_substring e "injected" then
                  Error "injected worker fault; re-rolling"
                else Alcotest.failf "script failed: %s" e
              | Ok { Client.response = Protocol.Resp_rejected reason; _ } ->
                Error ("request rejected: " ^ reason)
              | Ok _ -> Error "unexpected response shape"
              | Error e -> Error ("round-trip failed: " ^ e))
        in
        let cold = once () in
        check_contains ~what:"rewritten source" cold.Protocol.x_source
          "#pragma omp unroll partial(2)";
        check_flag "cold is a miss" false cold.Protocol.x_cache_hit;
        let warm = once () in
        check_flag "warm hits the transfo cache" true warm.Protocol.x_cache_hit;
        Alcotest.(check string) "identical rewrite across the wire"
          cold.Protocol.x_source warm.Protocol.x_source;
        (* A bad script is a payload error, not a rejection. *)
        let failure =
          unit_error "a bad script" (fun () ->
              Client.transform ~socket_path
                (transfo_invocation "unroll @ for(nope)")
                ~name:"a.c" source)
        in
        check_contains ~what:"script failure" failure "matched no statement")
  in
  check_count "server.transforms" 3 (Stats.find snap "server.transforms")

let test_unreachable_socket () =
  let path = fresh_socket () in
  match Client.compile ~socket_path:path invocation [ ("a.c", source) ] with
  | Error msg -> check_contains ~what:"client error" msg "cannot reach daemon"
  | Ok _ -> Alcotest.fail "expected an error for a dead socket"

let test_double_start_refused () =
  let (), _ =
    with_daemon (fun socket_path ->
        let config = { Server.default_config with Server.socket_path } in
        match Server.run config with
        | Error msg -> check_contains ~what:"second daemon" msg "already"
        | Ok _ -> Alcotest.fail "second daemon bound the same live socket")
  in
  ()

(* ---- protocol v3: ping ---------------------------------------------- *)

let test_ping () =
  let (), snap =
    with_daemon (fun socket_path ->
        let depth, cap =
          retrying (fun () ->
              match Client.ping ~socket_path () with
              | Ok v -> Ok v
              | Error e -> Error ("ping failed: " ^ e))
        in
        Alcotest.(check int) "advertised capacity" 8 cap;
        Alcotest.(check bool) "sane queue depth" true
          (depth >= 0 && depth <= cap))
  in
  check_count "server.pings" 1 (Stats.find snap "server.pings")

(* ---- admission control: shedding and client retry ------------------- *)

(* Pool of 1, queue of 1, and a worker that sleeps on every request
   (armed [server.slow_reply]): with one request in the worker and one
   in the queue, a third connection must be shed with [Resp_busy] —
   a retries=0 client surfaces that as a "busy" error, while a client
   with retries absorbs the sheds and is eventually served. *)
let test_shed_and_busy_retry () =
  let (), snap =
    Fault.with_armed
      [ ("server.slow_reply", 1.0, 7) ]
      (fun () ->
        with_daemon ~pool:1 ~queue:1 (fun socket_path ->
            let occupy name =
              Domain.spawn (fun () ->
                  Client.compile ~socket_path invocation [ (name, source) ])
            in
            let a = occupy "shed-a.c" in
            Unix.sleepf 0.1 (* a is in the worker, sleeping *);
            let b = occupy "shed-b.c" in
            Unix.sleepf 0.1 (* b fills the queue *);
            let impatient =
              { Client.default_policy with Client.retries = 0 }
            in
            (match
               Client.compile ~policy:impatient ~socket_path invocation
                 [ ("shed-c.c", source) ]
             with
            | Error msg ->
              if not tolerant then
                check_contains ~what:"shed error" msg "busy"
            | Ok _ ->
              if not tolerant then
                Alcotest.fail "expected a busy error with retries = 0");
            let patient =
              {
                Client.default_policy with
                Client.retries = 25;
                backoff = 0.05;
                backoff_max = 0.2;
              }
            in
            (match
               Client.compile ~policy:patient ~socket_path invocation
                 [ ("shed-d.c", source) ]
             with
            | Ok { Client.response = Protocol.Resp_units _; busy_retries } ->
              if not tolerant then begin
                Alcotest.(check bool) "absorbed at least one shed" true
                  (busy_retries >= 1);
                match
                  Client.outcome_of_reply
                    {
                      Client.response =
                        Protocol.Resp_rejected "shape only";
                      busy_retries;
                    }
                with
                | Client.Shed_then_served n ->
                  Alcotest.(check int) "outcome carries the retry count"
                    busy_retries n
                | Client.Served | Client.Fell_back _ ->
                  Alcotest.fail "expected a Shed_then_served outcome"
              end
            | Ok _ ->
              if not tolerant then Alcotest.fail "unexpected response shape"
            | Error e ->
              if not tolerant then
                Alcotest.failf "retrying client failed: %s" e);
            (* No hangs: the occupied clients both terminate. *)
            ignore (Domain.join a);
            ignore (Domain.join b)))
  in
  if not tolerant then begin
    Alcotest.(check bool) "server.shed counted" true
      (Stats.find snap "server.shed" >= 1);
    Alcotest.(check bool) "queue high-water mark recorded" true
      (Stats.find snap "server.queue-depth-max" >= 1)
  end

(* ---- concurrent connections ---------------------------------------- *)

(* Four client domains against a 2-worker pool, each opening a fresh
   connection per request as fast as the daemon answers.  Connection fds
   are reused at once, so a descriptor closed twice (once per channel)
   cuts off whichever connection took its number in between: a lost,
   truncated or cross-wired reply.  Every request must come back whole,
   carrying its own unit and its own value. *)
let test_concurrent_clients () =
  (* Under the fault matrix a torn request frame leaves its worker
     waiting for the rest of it, so keep that run short and bounded. *)
  let clients = 4 and per_client = if tolerant then 10 else 100 in
  let policy =
    if tolerant then Client.policy_with ~timeout:2.0 ()
    else Client.default_policy
  in
  let value c k = (c * 100) + (k mod 5) in
  let unit_source c k =
    Printf.sprintf
      "void record(long x);\nint main(void) { record(%d); return 0; }"
      (value c k)
  in
  let results, snap =
    with_daemon ~pool:2 ~queue:64 (fun socket_path ->
        let client c =
          Domain.spawn (fun () ->
              List.init per_client (fun k ->
                  let name = Printf.sprintf "stress-%d-%d.c" c k in
                  match
                    Client.compile ~policy ~socket_path invocation
                      [ (name, unit_source c k) ]
                  with
                  | Ok
                      {
                        Client.response = Protocol.Resp_units { p_units = [ u ]; _ };
                        _;
                      } -> (
                    let injected =
                      match u.Protocol.r_outcome with
                      | Protocol.R_ice { ice_exn; _ } ->
                        has_substring ice_exn "injected"
                      | Protocol.R_ok _ -> false
                    in
                    if u.Protocol.r_name <> name then
                      Error
                        (Printf.sprintf "wrong data: %s was answered with %s"
                           name u.Protocol.r_name)
                    else if injected then Ok ()
                    else
                      match Client.ir_of_response_unit u with
                      | None -> Error (name ^ ": reply carried no IR")
                      | Some m -> (
                        match Mc_interp.Interp.run_main m with
                        | { Mc_interp.Interp.trace = [ Mc_interp.Interp.T_int v ]; _ }
                          when Int64.to_int v = value c k ->
                          Ok ()
                        | _ -> Error ("wrong data: unexpected trace for " ^ name)))
                  | Ok _ -> Error (name ^ ": unexpected response shape")
                  | Error e -> Error (name ^ ": " ^ e)))
        in
        List.init clients client |> List.concat_map Domain.join)
  in
  let errors =
    List.filter_map (function Error e -> Some e | Ok () -> None) results
  in
  let wrong = List.filter (fun e -> has_substring e "wrong data") errors in
  if wrong <> [] then Alcotest.failf "%s" (String.concat "\n" wrong);
  (* Injected faults may fail a request; nothing else may. *)
  if not tolerant then begin
    if errors <> [] then
      Alcotest.failf "%d of %d requests failed:\n%s" (List.length errors)
        (List.length results)
        (String.concat "\n" errors);
    check_count "server.requests" (clients * per_client)
      (Stats.find snap "server.requests")
  end

(* ---- per-request deadline ------------------------------------------- *)

let test_request_deadline () =
  let (), snap =
    Fault.with_armed
      [ ("server.slow_reply", 1.0, 11) ]
      (fun () ->
        with_daemon ~request_timeout:0.05 (fun socket_path ->
            let reason =
              retrying (fun () ->
                  match
                    Client.compile ~socket_path invocation
                      [ ("slow.c", source) ]
                  with
                  | Ok { Client.response = Protocol.Resp_rejected reason; _ }
                    ->
                    Ok reason
                  | Ok _ -> Error "expected a deadline rejection"
                  | Error e -> Error ("round-trip failed: " ^ e))
            in
            check_contains ~what:"timeout reason" reason "deadline";
            check_contains ~what:"timeout tells the client what to do" reason
              "compile locally"))
  in
  check_count "server.timeouts" 1 (Stats.find snap "server.timeouts")

(* ---- client deadlines against a wedged server ----------------------- *)

(* A fake daemon that accepts connections and then neither reads nor
   replies: without SO_SNDTIMEO a large request write blocks forever
   once the socket buffers fill, and without SO_RCVTIMEO the response
   read does.  The client policy must bound both. *)
let test_wedged_server_times_out () =
  let socket_path = fresh_socket () in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 8;
  let stop = Atomic.make false in
  let acceptor =
    Domain.spawn (fun () ->
        let accepted = ref [] in
        (try
           while not (Atomic.get stop) do
             match Unix.select [ listen_fd ] [] [] 0.05 with
             | _ :: _, _, _ ->
               let c, _ = Unix.accept listen_fd in
               accepted := c :: !accepted
             | _ -> ()
           done
         with _ -> ());
        List.iter
          (fun c -> try Unix.close c with Unix.Unix_error _ -> ())
          !accepted)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join acceptor);
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Sys.remove socket_path with Sys_error _ -> ())
    (fun () ->
      (* Big enough to overflow any Unix-socket buffer, so the write
         itself must hit SO_SNDTIMEO. *)
      let big =
        "int main(void){return 0;}\n/*" ^ String.make (8 * 1024 * 1024) 'x'
        ^ "*/"
      in
      let policy = Client.policy_with ~timeout:0.2 ~retries:0 () in
      let started = Unix.gettimeofday () in
      (match
         Client.compile ~policy ~socket_path invocation [ ("big.c", big) ]
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a wedged server produced a response");
      let elapsed = Unix.gettimeofday () -. started in
      Alcotest.(check bool)
        (Printf.sprintf "deadlines bounded the round-trip (%.2fs)" elapsed)
        true (elapsed < 5.0))

(* ---- fault injection through the daemon ----------------------------- *)

(* A torn request frame (armed [protocol.write_frame]) must surface as a
   client error, never a hang — and the daemon must keep serving once
   the fault is disarmed. *)
let test_torn_frame_contained () =
  let (), _snap =
    with_daemon (fun socket_path ->
        let torn_point = Fault.point "protocol.write_frame" in
        let trips_before = Fault.trips torn_point in
        Fault.with_armed
          [ ("protocol.write_frame", 1.0, 3) ]
          (fun () ->
            let impatient =
              { Client.default_policy with Client.retries = 0 }
            in
            match
              Client.compile ~policy:impatient ~socket_path invocation
                [ ("torn.c", source) ]
            with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "a torn request frame produced a reply");
        Alcotest.(check bool) "fault trip counted" true
          (Fault.trips torn_point > trips_before);
        (* Disarmed again: the truncated frame did not kill the worker. *)
        let after = compile_unit ~socket_path invocation [ ("a.c", source) ] in
        match after.Protocol.r_outcome with
        | Protocol.R_ok { ok_errors; _ } ->
          Alcotest.(check bool) "daemon survives a torn frame" false ok_errors
        | Protocol.R_ice _ -> Alcotest.fail "daemon poisoned by a torn frame")
  in
  ()

(* An injected worker crash is contained exactly like a real ICE: a
   structured [R_ice] response entry, daemon alive. *)
let test_worker_fault_becomes_ice () =
  let (), snap =
    with_daemon (fun socket_path ->
        Fault.with_armed
          [ ("server.worker", 1.0, 9) ]
          (fun () ->
            let u =
              retrying (fun () ->
                  match
                    Client.compile ~socket_path invocation
                      [ ("wf.c", source) ]
                  with
                  | Ok
                      {
                        Client.response =
                          Protocol.Resp_units { p_units = [ u ]; _ };
                        _;
                      } ->
                    Ok u
                  | Ok _ -> Error "unexpected response shape"
                  | Error e -> Error ("round-trip failed: " ^ e))
            in
            match u.Protocol.r_outcome with
            | Protocol.R_ice { ice_phase; ice_exn; _ } ->
              check_contains ~what:"injected phase" ice_phase "server.worker";
              check_contains ~what:"injected exception" ice_exn "injected"
            | Protocol.R_ok _ ->
              Alcotest.fail "armed worker fault did not surface as R_ice");
        (* Disarmed: the same daemon compiles cleanly. *)
        let after = compile_unit ~socket_path invocation [ ("a.c", source) ] in
        match after.Protocol.r_outcome with
        | Protocol.R_ok { ok_errors; _ } ->
          Alcotest.(check bool) "daemon recovered" false ok_errors
        | Protocol.R_ice _ -> Alcotest.fail "daemon stuck in fault mode")
  in
  Alcotest.(check bool) "injected ICE counted" true
    (Stats.find snap "server.ices" >= 1)

(* ---- Bqueue edge cases ---------------------------------------------- *)

let test_bqueue_capacity_one () =
  let q = Server.Bqueue.create 1 in
  (match Server.Bqueue.try_push q 1 with
  | `Accepted -> ()
  | `Full | `Closed -> Alcotest.fail "empty queue refused an element");
  (match Server.Bqueue.try_push q 2 with
  | `Full -> ()
  | `Accepted | `Closed ->
    Alcotest.fail "capacity-1 queue accepted a second element");
  Alcotest.(check int) "length at capacity" 1 (Server.Bqueue.length q);
  (match Server.Bqueue.pop q with
  | Some 1 -> ()
  | Some _ | None -> Alcotest.fail "pop returned the wrong element");
  (match Server.Bqueue.try_push q 3 with
  | `Accepted -> ()
  | `Full | `Closed -> Alcotest.fail "drained queue refused an element");
  Server.Bqueue.close q;
  (match Server.Bqueue.pop q with
  | Some 3 -> ()
  | Some _ | None -> Alcotest.fail "close dropped a queued element");
  match Server.Bqueue.pop q with
  | None -> ()
  | Some _ -> Alcotest.fail "closed empty queue still popped"

let test_bqueue_push_after_close () =
  let q = Server.Bqueue.create 4 in
  Server.Bqueue.close q;
  (match Server.Bqueue.try_push q 1 with
  | `Closed -> ()
  | `Accepted | `Full -> Alcotest.fail "try_push after close not `Closed");
  match Server.Bqueue.pop q with
  | None -> ()
  | Some _ -> Alcotest.fail "closed queue popped a phantom element"

(* Two domains racing pop during a drain: every element is delivered
   exactly once, both poppers terminate with [None]. *)
let test_bqueue_drain_race () =
  let q = Server.Bqueue.create 8 in
  for i = 1 to 8 do
    match Server.Bqueue.try_push q i with
    | `Accepted -> ()
    | `Full | `Closed -> Alcotest.fail "queue below capacity refused"
  done;
  Server.Bqueue.close q;
  let popper () =
    Domain.spawn (fun () ->
        let rec go acc =
          match Server.Bqueue.pop q with
          | Some v -> go (v :: acc)
          | None -> acc
        in
        go [])
  in
  let a = popper () in
  let b = popper () in
  let got = List.sort compare (Domain.join a @ Domain.join b) in
  Alcotest.(check (list int)) "drained exactly once each"
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    got

(* ---- stale-socket takeover ------------------------------------------ *)

(* A listener that dies without unlinking its socket (a crashed daemon):
   while it lives, [Server.run] must refuse the path; once it is gone,
   the stale file must be detected, removed, and taken over. *)
let test_stale_socket_takeover () =
  let socket_path = fresh_socket () in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 1;
  let config =
    {
      Server.default_config with
      Server.socket_path;
      pool_size = 1;
      idle_timeout = Some 1.0;
    }
  in
  (match Server.run config with
  | Error msg -> check_contains ~what:"live listener refusal" msg "already"
  | Ok _ -> Alcotest.fail "bound over a live listener");
  (* The listener dies mid-takeover story: socket file left behind. *)
  Unix.close listen_fd;
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists socket_path);
  let stop = Atomic.make true in
  (match Server.run ~stop config with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "takeover of a stale socket failed: %s" e);
  Alcotest.(check bool) "stale socket removed by takeover" false
    (Sys.file_exists socket_path)

let suite =
  [
    tc "warm round-trip is a full hit" test_warm_roundtrip;
    tc "ICE is contained, daemon survives" test_ice_contained;
    tc "digest mismatch is rejected" test_digest_mismatch_rejected;
    tc "transform request round-trips and caches" test_transform_request;
    tc "unreachable socket is a client error" test_unreachable_socket;
    tc "second daemon on a live socket is refused" test_double_start_refused;
    tc "ping reports queue depth and capacity" test_ping;
    tc "full queue sheds; client retries absorb it" test_shed_and_busy_retry;
    tc "concurrent clients on a 2-worker pool: every reply whole"
      test_concurrent_clients;
    tc "request deadline becomes a structured rejection"
      test_request_deadline;
    tc "client deadlines bound a wedged server" test_wedged_server_times_out;
    tc "torn frame is contained" test_torn_frame_contained;
    tc "injected worker fault is a contained ICE"
      test_worker_fault_becomes_ice;
    tc "Bqueue: capacity-1 edge" test_bqueue_capacity_one;
    tc "Bqueue: push after close" test_bqueue_push_after_close;
    tc "Bqueue: pop race during drain" test_bqueue_drain_race;
    tc "stale socket takeover" test_stale_socket_takeover;
    tc "multi-unit analysis is rejected" test_multi_unit_analysis_rejected;
    tc "analysis refusal reads as in-process" test_analysis_refusal_wording;
  ]
