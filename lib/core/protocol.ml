(* The mccd wire protocol: length-prefixed, versioned frames over a
   Unix-domain socket, carrying marshalled request/response values.

   One connection serves one request.  A request is the client's
   invocation (a pure value — exactly what makes [Invocation] shareable
   across processes too) plus its translation units, each with a content
   digest the server re-verifies before compiling: a mismatch means the
   bytes were mangled in transit and must be rejected, not compiled.
   The invocation's action is the whole of what the request asks for:
   -emit-transformed is answered with the rewritten source, --analyze
   with the analysis report, anything else with compiled units.

   A response is either a per-unit result list — rendered diagnostics, a
   marshalled IR module (the client runs the interpreter locally, so
   `mcc --daemon` preserves Run/-emit-ir behaviour bit for bit), the
   per-stage cache trace, and a stats snapshot the client folds into its
   own registry so -print-stats works transparently — a one-unit
   transform or analysis result, or a protocol-level rejection.

   Marshal is safe here because both ends are built from this same
   source tree; the frame's magic + version reject cross-version talk
   before any unmarshalling happens. *)

module Binio = Mc_support.Binio
module Stats = Mc_support.Stats

let magic = "MCCD"

(* v2: the request became a variant (compile | transform) and the
   response gained [Resp_transformed]; v1 frames are rejected by the
   header check before unmarshalling.

   v3: overload resilience — [Req_ping] health checks, [Resp_busy]
   load-shedding replies carrying the queue depth and a retry hint,
   [Resp_pong] with live queue occupancy.  v2 frames are rejected by
   the header check like any other cross-version talk.

   v4: dataflow analysis — [Req_analyze] runs the {!Mc_analysis} passes
   over one unit against the daemon's warm per-function analysis cache
   and answers with [Resp_analysis] (both renderings plus the finding
   count, so the client needs no analysis code of its own).

   v5: [Invocation.t], marshalled into every request, lost its
   [verify_ir] field (the IR is always verified).

   v6: one request for every action — [Req_compile], [Req_transform]
   and [Req_analyze] became [Req_run], whose invocation's action picks
   the reply; the response shapes are unchanged.  [Pipeline.stage],
   carried in every response trace, lost its [Lex] case.

   v7: [analysis] carries the unit's rendered diagnostics ([an_diag]),
   so an analysed unit's warnings reach the client as they do
   in-process. *)
let version = 7

let default_socket () =
  match Sys.getenv_opt "MCCD_SOCKET" with
  | Some p when p <> "" -> p
  | _ ->
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mccd-%d.sock" (Unix.getuid ()))

type request_unit = { q_name : string; q_source : string; q_digest : string }

type request =
  | Req_run of {
      q_invocation : Invocation.t; (* the action and every option *)
      q_units : request_unit list; (* exactly one for transform/analyze *)
    }
  | Req_ping
      (* health check: answered from the accept/worker path without
         touching the pipeline — loadgen and clients use it to probe a
         daemon's liveness and queue occupancy cheaply *)

let unit_digest source = Digest.to_hex (Digest.string source)

let request_of_units invocation units =
  Req_run
    {
      q_invocation = invocation;
      q_units =
        List.map
          (fun (name, source) ->
            { q_name = name; q_source = source; q_digest = unit_digest source })
          units;
    }

let request_of_transform invocation ~name source =
  request_of_units
    { invocation with Invocation.action = Invocation.Emit_transformed }
    [ (name, source) ]

let request_of_analyze invocation ~name source =
  request_of_units
    { invocation with Invocation.action = Invocation.Analyze }
    [ (name, source) ]

type response_unit = {
  r_name : string;
  r_outcome : outcome;
  r_trace : Pipeline.trace;
  r_cache_hit : bool;
  r_wall : float;
}

and outcome =
  | R_ok of {
      ok_diag : string; (* rendered diagnostics, possibly empty *)
      ok_errors : bool;
      ok_ir : string option;
          (* marshalled Mc_ir.Ir.modul: on a hit, the stored optir
             artifact's body as it is *)
      ok_codegen_error : string option;
    }
  | R_ice of {
      ice_phase : string;
      ice_exn : string;
      ice_location : string option;
      ice_reproducer : string option; (* server-side bundle directory *)
    }

type response =
  | Resp_units of {
      p_units : response_unit list; (* in request order *)
      p_stats : Stats.snapshot; (* the request's counters, server-side *)
      p_wall : float; (* server-side wall time for the request *)
    }
  | Resp_transformed of {
      p_result : (transformed, string) result;
          (* Error: the unit's stderr text — a script-level failure
             (parse, resolution, check) or the contained ICE report *)
      p_stats : Stats.snapshot;
      p_wall : float;
    }
  | Resp_analysis of {
      p_result : (analysis, string) result;
          (* Error: the unit failed to compile far enough to analyse —
             rendered diagnostics, a codegen refusal or the contained ICE
             report, user-facing *)
      p_stats : Stats.snapshot;
      p_wall : float;
    }
  | Resp_rejected of string
  | Resp_busy of {
      queue_depth : int; (* connections queued when the shed happened *)
      retry_after : float;
          (* seconds the client should wait before retrying; a hint,
             not a promise of capacity *)
    }
  | Resp_pong of { pong_queue_depth : int; pong_capacity : int }

and transformed = {
  x_source : string; (* the rewritten program *)
  x_trace : string; (* rendered step trace *)
  x_cache_hit : bool; (* served from the daemon's transfo stage cache *)
}

(* Both renderings travel so the client stays free of analysis code;
   the structured report stays server-side (it is cacheable there). *)
and analysis = {
  an_diag : string; (* rendered diagnostics: the unit's warnings *)
  an_text : string; (* Report.render_text *)
  an_json : string; (* Report.render_json *)
  an_findings : int; (* drives the client's exit code *)
  an_cache_hit : bool; (* every stage up to the analysis was reused *)
}

(* ---- channel IO ---------------------------------------------------------- *)

(* A torn frame: the connection died mid-write.  The injected version
   flushes a prefix of the real frame and then fails exactly like a
   closed peer would, so both ends exercise their truncated-read /
   failed-write recovery paths. *)
let fault_write_frame = Mc_support.Fault.point "protocol.write_frame"

let send oc v =
  let payload = Marshal.to_string v [] in
  if Mc_support.Fault.fire fault_write_frame then begin
    let framed = Binio.frame ~magic ~version payload in
    (try
       output_string oc (String.sub framed 0 (String.length framed / 2));
       flush oc
     with Sys_error _ -> ());
    raise (Sys_error "injected torn frame")
  end
  else Binio.write_frame ~magic ~version oc payload

let recv : type a. in_channel -> (a, string) result =
 fun ic ->
  match Binio.read_frame ~magic ~version ic with
  | Error e -> Error (Binio.frame_error_to_string e)
  | Ok payload -> (
    match (Marshal.from_string payload 0 : a) with
    | v -> Ok v
    | exception _ -> Error "unmarshalling failed")

let write_request oc (r : request) = send oc r
let read_request ic : (request, string) result = recv ic
let write_response oc (r : response) = send oc r
let read_response ic : (response, string) result = recv ic
