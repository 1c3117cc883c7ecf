(* The benchmark's metric declarations — the single list the printer walks,
   kept in step with BENCHMARK.json by the test suite — and the JSON
   result line. *)

let workloads = [ "cold_compile"; "edit_rebuild"; "daemon_mix" ]

(* End-to-end metrics, reported by every workload with tracing off. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_s", "s");
    ("latency_p95_s", "s");
    ("ops_per_s", "1/s");
    ("ok_ratio", "ratio");
    ("peak_rss_mb", "MiB");
    ("ir_insts", "count");
    ("exec_steps", "count");
  ]

let o1_passes = List.sort_uniq compare Mc_passes.Pass_manager.o1

(* Per-layer metrics, reported by every workload's traced run.  Times are
   mean seconds per operation that entered the layer; counts are totals
   over the traced operations; a layer a workload never enters reads 0. *)
let per_layer =
  [
    ("lexer.busy_s", "s");
    ("lexer.tokens", "count");
    ("pp.busy_s", "s");
    ("pp.items", "count");
    ("sema.busy_s.classic", "s");
    ("sema.busy_s.irbuilder", "s");
    ("sema.shadow_stmts", "count");
    ("sema.canonical_loops", "count");
    ("codegen.busy_s.classic", "s");
    ("codegen.busy_s.irbuilder", "s");
    ("codegen.ir_insts.classic", "count");
    ("codegen.ir_insts.irbuilder", "count");
    ("passes.busy_s.classic", "s");
    ("passes.busy_s.irbuilder", "s");
  ]
  @ List.map (fun p -> ("passes." ^ p ^ ".busy_s", "s")) o1_passes
  @ [
      ("passes.changed_ratio", "ratio");
      ("analysis.busy_s", "s");
      ("transfo.busy_s", "s");
      ("interp.busy_s", "s");
      ("interp.steps", "count");
      ("cache.hit_ratio", "ratio");
      ("cache.fn_hit_ratio", "ratio");
      ("cache.self_s", "s");
      ("store.load_s", "s");
      ("store.save_s", "s");
      ("store.bytes", "bytes");
      ("store.hits", "count");
      ("store.evictions", "count");
      ("artifact.unmarshal_s", "s");
      ("artifact.digest_s", "s");
      ("protocol.encode_s", "s");
      ("protocol.decode_s", "s");
      ("protocol.frame_bytes", "bytes");
      ("daemon.server_s", "s");
      ("daemon.transport_s", "s");
      ("daemon.ping_s", "s");
      ("daemon.ir_unmarshal_s", "s");
      ("client.busy_retries", "count");
      ("server.shed", "count");
    ]

let declared ~trace = if trace then per_layer else end_to_end

type result = {
  attempted : int;
  failed : int;
  lost : int; (* failed requests that got no answer, so no output to judge *)
  metrics : (string * float) list;
}

(* Every value with all its digits; whole numbers print as integers. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line, metrics in declaration order.  A declared metric the
   workload failed to produce is an error, never a silent omission.
   [correct] says whether every output produced passed its check. *)
let render ~trace r =
  let fields =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name r.metrics with
        | Some v when Float.is_finite v ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
        | Some _ -> failwith ("metric " ^ name ^ " is not a finite number")
        | None -> failwith ("metric " ^ name ^ " was not measured"))
      (declared ~trace)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = r.lost) r.attempted r.failed
    (String.concat ", " fields)
