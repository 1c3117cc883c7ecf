(** The [mccd] wire protocol: versioned, length-prefixed frames
    ({!Mc_support.Binio}, magic ["MCCD"]) over a Unix-domain socket,
    carrying marshalled request/response values.

    One connection, one request.  The request is the client's
    {!Invocation} plus its units with content digests (re-verified
    server-side); the invocation's action picks the reply.  The response
    carries per-unit outcomes — rendered diagnostics, a marshalled IR
    module the client unmarshals to run or print locally, the per-stage
    cache trace — or a one-unit transform or analysis result, plus a
    server-side stats snapshot; or a protocol-level rejection.
    Cross-version talk is rejected by the frame header before any
    unmarshalling.

    Version 6 merged the three action requests of v2–v5
    ([Req_compile], [Req_transform], [Req_analyze]) into {!Req_run}. *)

val magic : string
val version : int

val default_socket : unit -> string
(** [$MCCD_SOCKET] when set, else [<tmpdir>/mccd-<uid>.sock]. *)

type request_unit = {
  q_name : string;
  q_source : string;
  q_digest : string;  (** content digest of [q_source], verified server-side *)
}

type request =
  | Req_run of {
      q_invocation : Invocation.t;
          (** the action and every option; a transform carries a loaded
              [transfo_script] ([Source], not [File]) *)
      q_units : request_unit list;
    }
      (** Run the pipeline over the units under the invocation.  Its
          action picks the reply: [Emit_transformed] gets
          {!Resp_transformed}, [Analyze] gets {!Resp_analysis} (with every
          pass when [analyze = None]), any other action gets
          {!Resp_units}.  A transform or analysis carries exactly one
          unit; any other count is rejected. *)
  | Req_ping
      (** health check: answered with {!Resp_pong} without touching
          the pipeline *)

val unit_digest : string -> string

val request_of_units : Invocation.t -> (string * string) list -> request
(** Builds a [Req_run] from [(name, source)] pairs, computing
    digests. *)

val request_of_transform : Invocation.t -> name:string -> string -> request
(** A one-unit [Req_run] whose action is [Emit_transformed]. *)

val request_of_analyze : Invocation.t -> name:string -> string -> request
(** A one-unit [Req_run] whose action is [Analyze]. *)

type response_unit = {
  r_name : string;
  r_outcome : outcome;
  r_trace : Pipeline.trace;
  r_cache_hit : bool;  (** whole-pipeline hit against the daemon's cache *)
  r_wall : float;  (** server-side seconds compiling this unit *)
}

and outcome =
  | R_ok of {
      ok_diag : string;
      ok_errors : bool;
      ok_ir : string option;
          (** [Marshal.to_string module []] of the unit's
              {!Mc_ir.Ir.modul}.  On a unit optir hit it is the stored
              artifact's body, forwarded verbatim: the server neither
              decodes nor re-encodes the module. *)
      ok_codegen_error : string option;
    }
  | R_ice of {
      ice_phase : string;
      ice_exn : string;
      ice_location : string option;
      ice_reproducer : string option;
    }

type response =
  | Resp_units of {
      p_units : response_unit list;
      p_stats : Mc_support.Stats.snapshot;
      p_wall : float;
    }
  | Resp_transformed of {
      p_result : (transformed, string) result;
          (** [Error]: the unit's stderr text — a script-level failure
              (parse, target resolution, semantic check) or the contained
              ICE report ({!Instance.render_failure}) *)
      p_stats : Mc_support.Stats.snapshot;
      p_wall : float;
    }
  | Resp_analysis of {
      p_result : (analysis, string) result;
          (** [Error]: the unit failed to compile far enough to analyse
              — rendered diagnostics, a codegen refusal or the contained
              ICE report ({!Instance.render_failure}) *)
      p_stats : Mc_support.Stats.snapshot;
      p_wall : float;
    }
  | Resp_rejected of string
  | Resp_busy of { queue_depth : int; retry_after : float }
      (** v3 load shedding: the daemon's bounded queue was full, so the
          connection was accepted and immediately shed.  [retry_after]
          is a backoff hint in seconds; clients with retries left wait
          and try again, others fall back to the in-process pipeline. *)
  | Resp_pong of { pong_queue_depth : int; pong_capacity : int }
      (** v3 answer to {!Req_ping}: live queue occupancy. *)

and transformed = {
  x_source : string;  (** the rewritten program *)
  x_trace : string;  (** rendered step trace *)
  x_cache_hit : bool;  (** served from the daemon's transfo stage cache *)
}

and analysis = {
  an_text : string;  (** {!Mc_analysis.Report.render_text} *)
  an_json : string;  (** {!Mc_analysis.Report.render_json} *)
  an_findings : int;  (** drives the client's exit code *)
  an_cache_hit : bool;  (** every stage up to the analysis was reused *)
}

val write_request : out_channel -> request -> unit
val read_request : in_channel -> (request, string) result
val write_response : out_channel -> response -> unit
val read_response : in_channel -> (response, string) result
