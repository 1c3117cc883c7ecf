(* daemon_mix: a separately spawned `mccd --pool 1` with an in-memory
   cache, warmed during set-up, and one closed-loop client.  Mostly warm
   compiles of small and large units (each followed by
   [Client.ir_of_response_unit], as `mcc --daemon` does), body-edit
   compiles, analyze and transform requests, a few never-seen units and
   one deliberate-ICE unit.  Socket, framing and the server's warm path
   dominate; the front end is nearly idle.  One worker keeps the load
   within two cores, and one client sends one request at a time: mccd and
   [Client] both close each connection's descriptor twice, and a
   connection opened between the two closes can be cut off or
   cross-wired (measurements in perfbench/README.md).

   Checks run outside the timed region: every compile reply's IR must
   equal a cold in-process compile of the same source (replies are
   fingerprinted in the loop and printed and compared after it), and
   analyze and transform replies must equal their in-process results. *)

open Common
module Client = Mc_core.Client
module Protocol = Mc_core.Protocol
module Pipeline = Mc_core.Pipeline

type warm = { w_name : string; w_source : string; w_inv : Invocation.t; w_ir : string }

type state = {
  dir : string;
  socket : string;
  pid : int;
  log : string; (* the daemon's stderr *)
  running : bool ref; (* shared by every copy of the record *)
  warm : warm array; (* Gen.daemon_small small units, then two large *)
  large : Gen.big;
  analyses : string array; (* expected report text per small unit *)
  transforms : (Invocation.t * string * string * (string * string)) array;
      (* invocation, name, source, expected (rewritten source, trace) *)
  seed : int;
  ir_insts : int;
  exec_steps : int;
}

let mccd_exe () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/mccd.exe"

let spawn ~dir ~socket ~log =
  let exe = mccd_exe () in
  if not (Sys.file_exists exe) then failwith ("mccd not found at " ^ exe);
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let env =
    Array.append
      [| "TMPDIR=" ^ Filename.concat (Sys.getcwd ()) dir |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"TMPDIR=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env exe
      [| exe; "--socket"; socket; "--pool"; "1"; "--quiet"; "--print-stats" |]
      env devnull devnull err
  in
  Unix.close devnull;
  Unix.close err;
  pid

(* Stops the daemon with SIGTERM (a graceful drain), escalating to
   SIGKILL if it has not exited within five seconds, and reaps it. *)
let stop st =
  if !(st.running) then begin
    st.running := false;
    (try Unix.kill st.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 5.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] st.pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        reap ()
      | 0, _ ->
        (try Unix.kill st.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] st.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ()
  end

let live = ref []
let () = at_exit (fun () -> List.iter stop !live)

let compile_reply ~socket inv ~name source =
  match Client.compile ~socket_path:socket inv [ (name, source) ] with
  | Ok { Client.response = Protocol.Resp_units { p_units = [ u ]; _ }; _ } -> Ok u
  | Ok { Client.response = Protocol.Resp_rejected r; _ } -> Error ("rejected: " ^ r)
  | Ok _ -> Error "unexpected response"
  | Error e -> Error e

let large_source st consts = Gen.render_big st.large consts

(* The client's pause between a reply and its next request.  mccd closes
   each served connection's descriptor twice; a connection accepted
   between the two closes is cut off ("truncated frame").  The pause
   lets the worker finish closing before the next connect, which makes
   the cut rare but not impossible: a worker stalled between its two
   closes for longer than the pause still loses the next request. *)
let think_s = 0.005

let setup ~seed =
  let dir = fresh_dir "daemon" in
  let socket = Filename.concat dir "d.sock" in
  let log = Filename.concat dir "mccd.log" in
  let pid = spawn ~dir ~socket ~log in
  let st0 =
    {
      dir; socket; pid; log; running = ref true; warm = [||];
      large = Gen.big_unit ~seed ~stream:401 ~prefix:"d0" ~fns:Gen.daemon_large_fns;
      analyses = [||]; transforms = [||]; seed; ir_insts = 0; exec_steps = 0;
    }
  in
  live := st0 :: !live;
  let fail msg =
    stop st0;
    rm_rf dir;
    failwith ("daemon_mix set-up: " ^ msg)
  in
  let deadline = now () +. 10.0 in
  let rec await () =
    match Client.ping ~socket_path:socket () with
    | Ok _ -> ()
    | Error e -> if now () > deadline then fail ("mccd never answered: " ^ e) else (Unix.sleepf 0.02; await ())
  in
  await ();
  (* Small units share one shape (three functions) so that which unit
     sits at the median does not depend on the seed. *)
  let small =
    List.init Gen.daemon_small (fun i ->
        let b = Gen.big_unit ~seed ~stream:(1000 + i) ~prefix:(Printf.sprintf "s%d" i) ~fns:3 in
        (Printf.sprintf "dsmall%d.c" i, Gen.render_big b (Gen.base_consts b)))
  in
  let large =
    [
      ("dlarge0.c", large_source st0 (Gen.base_consts st0.large));
      (let b = Gen.big_unit ~seed ~stream:402 ~prefix:"d1" ~fns:Gen.daemon_large_fns in
       ("dlarge1.c", Gen.render_big b (Gen.base_consts b)));
    ]
  in
  let insts = ref 0 and steps = ref 0 in
  let warm =
    Array.of_list
      (List.mapi
         (fun i (name, source) ->
           (* The body-edit unit (dlarge0) stays classic so its edits share
              the warm artifacts. *)
           let inv = invocation ~irbuilder:(i mod 2 = 1 && name <> "dlarge0.c") () in
           match ir_of_compilation (Instance.compile_safe (Instance.create inv) ~name source) with
           | Error e -> fail (name ^ ": " ^ e)
           | Ok m ->
             (* Code size and run time count the two large units only:
                their shape is fixed, the small units' is drawn. *)
             if i >= Gen.daemon_small then begin
               insts := !insts + Mc_ir.Ir.module_inst_count m;
               steps := !steps + (Mc_interp.Interp.run_main m).Mc_interp.Interp.steps
             end;
             { w_name = name; w_source = source; w_inv = inv; w_ir = ir_digest m })
         (small @ large))
  in
  let analyses =
    Array.init Gen.daemon_analyzed (fun i ->
        let w = warm.(i) in
        let inv = { w.w_inv with Invocation.analyze = Some [] } in
        match Instance.compile_safe (Instance.create inv) ~name:w.w_name w.w_source with
        | Ok { Instance.c_result = { Driver.analysis = Some rep; _ }; _ } ->
          Mc_analysis.Report.render_text rep
        | _ -> fail ("no in-process analysis for " ^ w.w_name))
  in
  let transforms =
    let r = Gen.rng ~seed ~stream:403 in
    Array.init Gen.scripted_units (fun i ->
        let name = Printf.sprintf "dscript%d.c" i in
        let sc = Mc_fuzz.Differential.gen_scripted r ~name in
        let script = sc.Mc_fuzz.Differential.sc_script in
        let source = sc.Mc_fuzz.Differential.sc_plain in
        let inv = invocation ~script () in
        match Pipeline.transform ~name ~script source with
        | Ok (_, src, trace) -> (inv, name, source, (src, trace))
        | Error e -> fail ("in-process transform of " ^ name ^ ": " ^ e))
  in
  (* Warm the daemon: every warm unit, analysis and script once, with the
     loop's pause between requests.  Set-up is not measured but must
     finish, so a request lost to the double close is retried. *)
  let warm_up what request =
    let rec go tries =
      Unix.sleepf think_s;
      match request () with
      | Ok _ -> ()
      | Error e -> if tries > 1 then go (tries - 1) else fail ("warming " ^ what ^ ": " ^ e)
    in
    go 3
  in
  Array.iter
    (fun w ->
      warm_up w.w_name (fun () -> compile_reply ~socket w.w_inv ~name:w.w_name w.w_source))
    warm;
  Array.iteri
    (fun i _ ->
      let w = warm.(i) in
      warm_up w.w_name (fun () ->
          Client.analyze ~socket_path:socket w.w_inv ~name:w.w_name w.w_source))
    analyses;
  Array.iter
    (fun (inv, name, source, _) ->
      warm_up name (fun () -> Client.transform ~socket_path:socket inv ~name source))
    transforms;
  { st0 with warm; analyses; transforms; ir_insts = !insts; exec_steps = !steps }

let teardown st =
  stop st;
  rm_rf st.dir

(* ---- one request ---------------------------------------------------------- *)

(* One completed request. *)
type record = {
  r_id : int;
  r_op : Gen.daemon_op;
  r_start : float;
  r_rtt : float; (* the Client call *)
  r_unmarshal : float; (* Client.ir_of_response_unit *)
  r_ok : (unit, string) result;
  r_lost : bool; (* no answer at all (a fallback); a rejection is an answer *)
  r_retries : int;
  r_wall : float option; (* server-side p_wall *)
  r_counts : (string * float) list; (* server counters of this request *)
  r_frames : (float * float * int) option; (* traced: encode, decode, bytes *)
  r_ping : float option; (* traced: a ping sent after this request *)
}

let latency r = r.r_rtt +. r.r_unmarshal

let server_keys =
  [
    "lexer.tokens-lexed"; "sema.shadow-stmts-built"; "sema.canonical-loops";
    "codegen.ir-instructions-classic"; "codegen.ir-instructions-irbuilder"; "cache.fn-hits";
    "cache.fn-misses";
  ]
  @ List.concat_map (fun s -> [ "cache." ^ s ^ "-hits"; "cache." ^ s ^ "-misses" ]) unit_stages

let request_of st op =
  match op with
  | Gen.Warm i ->
    let w = st.warm.(i) in
    (`Compile (Known w.w_ir), w.w_inv, w.w_name, w.w_source)
  | Gen.Body_edit (f, c) ->
    let consts = Gen.base_consts st.large in
    consts.(f) <- c;
    let w = st.warm.(Gen.daemon_small) in
    let src = large_source st consts in
    (`Compile (Cold_compile (w.w_inv, w.w_name, src)), w.w_inv, w.w_name, src)
  | Gen.Cold k ->
    let src = Gen.cold_unit ~seed:st.seed k in
    let inv = invocation () in
    let name = Printf.sprintf "dcold%d.c" k in
    (`Compile (Cold_compile (inv, name, src)), inv, name, src)
  | Gen.Ice -> (`Ice, invocation (), "dice.c", Gen.ice_source)
  | Gen.Analyze i ->
    let w = st.warm.(i) in
    (`Analyze st.analyses.(i), w.w_inv, w.w_name, w.w_source)
  | Gen.Transform i ->
    let inv, name, source, expected = st.transforms.(i) in
    (`Transform expected, inv, name, source)

(* Encode and decode the request and reply through a file, as the
   protocol layer does over the socket. *)
let frame_costs path request response =
  let (), enc_s =
    timed (fun () ->
        Out_channel.with_open_bin path (fun oc ->
            Protocol.write_request oc request;
            Protocol.write_response oc response))
  in
  let bytes = (Unix.stat path).Unix.st_size in
  let decoded, dec_s =
    timed (fun () ->
        In_channel.with_open_bin path (fun ic ->
            let q = Protocol.read_request ic in
            (q, Protocol.read_response ic)))
  in
  (match decoded with
  | Ok _, Ok _ -> ()
  | _ -> failwith "protocol round trip through a file failed");
  (enc_s, dec_s, bytes)

(* The timed call (round trip plus IR unmarshal), then, untimed, its
   check and — when traced — the layer probes.  Returns the record and
   the IR payload still to be compared with a cold compile. *)
let perform st ~traced ~id op =
  let kind, inv, name, source = request_of st op in
  let socket_path = st.socket in
  let start = now () in
  let reply =
    match kind with
    | `Compile _ | `Ice -> Client.compile ~socket_path inv [ (name, source) ]
    | `Analyze _ -> Client.analyze ~socket_path inv ~name source
    | `Transform _ -> Client.transform ~socket_path inv ~name source
  in
  let rtt = now () -. start in
  let ir, unmarshal =
    match reply with
    | Ok { Client.response = Protocol.Resp_units { p_units = [ u ]; _ }; _ } ->
      timed (fun () -> Client.ir_of_response_unit u)
    | _ -> (None, 0.0)
  in
  (* Untimed from here on. *)
  let to_check = ref None in
  let ok =
    match (kind, reply) with
    | _, Error e -> Error ("fell back: " ^ e)
    | _, Ok { Client.response = Protocol.Resp_rejected r; _ } -> Error ("rejected: " ^ r)
    | `Ice, Ok { Client.response = Protocol.Resp_units { p_units = [ u ]; _ }; _ } -> (
      match u.Protocol.r_outcome with
      | Protocol.R_ice _ -> Ok ()
      | Protocol.R_ok _ -> Error "deliberate ICE was not reported")
    | `Compile expect, Ok { Client.response = Protocol.Resp_units { p_units = [ u ]; _ }; _ } -> (
      match (u.Protocol.r_outcome, ir) with
      | Protocol.R_ice i, _ -> Error ("ICE: " ^ i.ice_exn)
      | Protocol.R_ok { ok_errors = true; ok_diag; _ }, _ -> Error ok_diag
      | Protocol.R_ok { ok_ir = Some payload; _ }, Some _ ->
        to_check := Some (expect, payload);
        Ok ()
      | Protocol.R_ok _, _ -> Error "no IR in the reply")
    | `Analyze want, Ok { Client.response = Protocol.Resp_analysis { p_result; _ }; _ } -> (
      match p_result with
      | Ok a when String.equal a.Protocol.an_text want -> Ok ()
      | Ok _ -> Error "analysis differs from the in-process report"
      | Error e -> Error e)
    | `Transform (src, trace), Ok { Client.response = Protocol.Resp_transformed { p_result; _ }; _ }
      -> (
      match p_result with
      | Ok x when String.equal x.Protocol.x_source src && String.equal x.Protocol.x_trace trace ->
        Ok ()
      | Ok _ -> Error "transform differs from the in-process result"
      | Error e -> Error e)
    | _, Ok _ -> Error "unexpected response"
  in
  let response = match reply with Ok r -> Some r.Client.response | Error _ -> None in
  let wall, counts =
    match response with
    | Some
        ( Protocol.Resp_units { p_wall; p_stats; _ }
        | Protocol.Resp_analysis { p_wall; p_stats; _ }
        | Protocol.Resp_transformed { p_wall; p_stats; _ } ) ->
      (Some p_wall, List.map (fun k -> (k, stat p_stats k)) server_keys)
    | _ -> (None, [])
  in
  let frames =
    match response with
    | Some resp when traced ->
      let request =
        match kind with
        | `Compile _ | `Ice -> Protocol.request_of_units inv [ (name, source) ]
        | `Analyze _ -> Protocol.request_of_analyze inv ~name source
        | `Transform _ -> Protocol.request_of_transform inv ~name source
      in
      Some (frame_costs (Filename.concat st.dir "frames") request resp)
    | _ -> None
  in
  let ping =
    if traced && id mod 10 = 0 then Some (snd (timed (fun () -> Client.ping ~socket_path ())))
    else None
  in
  ( {
      r_id = id;
      r_op = op;
      r_start = start;
      r_rtt = rtt;
      r_unmarshal = unmarshal;
      r_ok = ok;
      r_lost = Result.is_error reply;
      r_retries = (match reply with Ok r -> r.Client.busy_retries | Error _ -> 0);
      r_wall = wall;
      r_counts = counts;
      r_frames = frames;
      r_ping = ping;
    },
    !to_check )

(* ---- the client loop -------------------------------------------------------- *)

(* The daemon's memory high-water mark is read at this many replies, so
   that a faster daemon, which serves more never-seen units in the same
   time, does not read as a bigger one. *)
let rss_at = 300

(* The closed loop: past the deadline, with enough samples, it stops on a
   round boundary.  Each distinct reply payload is kept for [settle]. *)
let client_loop st ~seed ~seconds ~traced =
  let started = now () in
  let seen = Hashtbl.create 64 in
  let queue = ref [] and records = ref [] and rss = ref None in
  let rec loop i rounded = function
    | op :: rest
      when now () -. started < seconds
           || i < Pstats.samples_for_p95
           || rounded mod Gen.daemon_round_len <> 0 ->
      let r, check = perform st ~traced ~id:i op in
      Option.iter
        (fun (expect, payload) ->
          let k = Digest.string payload in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            queue := (expect, payload) :: !queue
          end)
        check;
      records := r :: !records;
      Unix.sleepf think_s;
      if i + 1 = rss_at then rss := Some (peak_rss_mb (string_of_int st.pid));
      loop (i + 1) (if op = Gen.Ice then rounded else rounded + 1) rest
    | _ -> ()
  in
  loop 0 0 (Gen.daemon_ops ~seed 100_000);
  (List.rev !records, List.rev !queue, !rss)

(* Prints and compares every distinct reply payload, once the loop is
   over; returns the number of mismatches.  A compile reply's warm unit
   has a known digest; any other source is compiled cold. *)
let settle queue =
  settle_against_cold ~label:"daemon_mix" (Hashtbl.create 64)
    (List.map
       (fun (reference, payload) ->
         let key = match reference with Cold_compile (_, _, src) -> Digest.string src | Known d -> d in
         (key, reference, ir_digest (Marshal.from_string payload 0 : Mc_ir.Ir.modul)))
       queue)

let run_loop st ~seed ~seconds ~traced =
  let records, queue, rss = client_loop st ~seed ~seconds ~traced in
  List.iter
    (fun r ->
      Result.iter_error
        (fun e -> Printf.eprintf "daemon_mix: %s: %s\n%!" (Gen.render_daemon_op r.r_op) e)
        r.r_ok)
    records;
  let failed = List.length (List.filter (fun r -> Result.is_error r.r_ok) records) + settle queue in
  (records, failed, List.length (List.filter (fun r -> r.r_lost) records), rss)

let measure st ~seed ~seconds =
  let records, failed, lost, rss = run_loop st ~seed ~seconds ~traced:false in
  let rss = match rss with Some r -> r | None -> peak_rss_mb (string_of_int st.pid) in
  {
    latencies = List.map latency records;
    failed;
    lost;
    extra =
      [
        ("peak_rss_mb", rss);
        ("ir_insts", float_of_int st.ir_insts);
        ("exec_steps", float_of_int st.exec_steps);
      ];
  }

(* ---- traced run ------------------------------------------------------------ *)

(* The daemon's lifetime counters, from its --print-stats lines. *)
let lifetime_counter st key =
  match In_channel.with_open_text st.log In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line " %d %s" (fun v k -> (v, k)) with
        | v, k when String.equal k key -> float_of_int v
        | _ -> acc
        | exception _ -> acc)
      0.0
      (String.split_on_char '\n' text)

(* The same request lists, with spans for each request's round trip and
   IR unmarshal, p_wall and the p_stats counters from every reply, a ping
   after every tenth request, and the protocol's encode and decode timed
   on each request and reply. *)
let traced st ~seed ~seconds =
  let records, failed, lost, _ = run_loop st ~seed ~seconds ~traced:true in
  stop st;
  let lay = Layers.create () in
  let counter key r = Option.value (List.assoc_opt key r.r_counts) ~default:0.0 in
  let count name r key = Layers.count lay name (counter key r) in
  List.iter
    (fun r ->
      Layers.op lay;
      let root =
        Span.record ~op:r.r_id ("daemon " ^ Gen.render_daemon_op r.r_op) ~start:r.r_start
          ~stop:(r.r_start +. latency r)
      in
      ignore
        (Span.record ~parent:root ~op:r.r_id "client.roundtrip" ~start:r.r_start
           ~stop:(r.r_start +. r.r_rtt));
      if r.r_unmarshal > 0.0 then
        ignore
          (Span.record ~parent:root ~op:r.r_id "client.ir_of_response_unit"
             ~start:(r.r_start +. r.r_rtt) ~stop:(r.r_start +. latency r));
      Layers.time lay "daemon.ir_unmarshal_s" r.r_unmarshal;
      Layers.count lay "client.busy_retries" (float_of_int r.r_retries);
      Option.iter
        (fun w ->
          Layers.time lay "daemon.server_s" w;
          Layers.time lay "daemon.transport_s" (r.r_rtt -. w))
        r.r_wall;
      Option.iter
        (fun (e, d, b) ->
          Layers.time lay "protocol.encode_s" e;
          Layers.time lay "protocol.decode_s" d;
          Layers.time lay "protocol.frame_bytes" (float_of_int b))
        r.r_frames;
      count "lexer.tokens" r "lexer.tokens-lexed";
      count "sema.shadow_stmts" r "sema.shadow-stmts-built";
      count "sema.canonical_loops" r "sema.canonical-loops";
      count "codegen.ir_insts.classic" r "codegen.ir-instructions-classic";
      count "codegen.ir_insts.irbuilder" r "codegen.ir-instructions-irbuilder")
    records;
  let hits, lookups, fn_hits, fn_lookups =
    List.fold_left
      (fun (a, b, c, d) r ->
        let h, l, fh, fl = cache_counts (fun key -> counter key r) in
        (a +. h, b +. l, c +. fh, d +. fl))
      (0.0, 0.0, 0.0, 0.0) records
  in
  let pings = List.filter_map (fun r -> r.r_ping) records in
  Layers.set lay "daemon.ping_s" (Pstats.mean pings);
  Layers.set lay "server.shed" (lifetime_counter st "server.shed");
  Layers.set lay "cache.hit_ratio" (ratio hits lookups);
  Layers.set lay "cache.fn_hit_ratio" (ratio fn_hits fn_lookups);
  let ms layer = 1000.0 *. Layers.per_op lay layer in
  (* Per request kind: round trip split into server time, transport and
     the client's IR unmarshal. *)
  let kind r =
    match r.r_op with
    | Gen.Warm i when i >= Gen.daemon_small -> "warm-large"
    | op -> List.hd (String.split_on_char '(' (Gen.render_daemon_op op))
  in
  let kinds = List.sort_uniq compare (List.map kind records) in
  let lines =
    Printf.sprintf
      "per request: server %.3f ms, transport %.3f ms (encode %.3f, decode %.3f), IR unmarshal \
       %.3f ms; ping %.3f ms"
      (ms "daemon.server_s") (ms "daemon.transport_s") (ms "protocol.encode_s")
      (ms "protocol.decode_s") (ms "daemon.ir_unmarshal_s")
      (1000.0 *. Pstats.mean pings)
    :: List.map
         (fun k ->
           let rs = List.filter (fun r -> kind r = k) records in
           let mean f = 1000.0 *. Pstats.mean (List.map f rs) in
           let wall r = Option.value r.r_wall ~default:0.0 in
           Printf.sprintf "  %-10s %5d request(s): %7.3f ms mean = server %7.3f + transport %6.3f + unmarshal %6.3f"
             k (List.length rs) (mean latency) (mean wall)
             (mean (fun r -> r.r_rtt -. wall r)) (mean (fun r -> r.r_unmarshal)))
         kinds
  in
  ({ Spec.attempted = List.length records; failed; lost; metrics = Layers.metrics lay }, lines)
