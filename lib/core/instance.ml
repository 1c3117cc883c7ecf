(* CompilerInstance analogue: one compilation context owning its own
   stats registry (and optionally sharing a stage cache), so any number
   of instances can coexist in one process — sequentially or across
   domains — without touching the process-global registry. *)

module Stats = Mc_support.Stats
module Crash_recovery = Mc_support.Crash_recovery

type t = {
  invocation : Invocation.t;
  registry : Stats.Registry.t;
  cache : Cache.t option;
  mutable exit_report_taken : bool;
}

let create ?cache invocation =
  let cache =
    match cache with
    | Some _ as c -> c
    | None -> (
      match invocation.Invocation.cache_dir with
      | Some dir ->
        (* --cache-dir: the in-memory stage cache is layered over a
           persistent on-disk store, so this instance starts disk-warm
           and its artifacts outlive the process. *)
        Some (Cache.create ~store:(Store.create ~dir ()) ())
      | None ->
        if
          invocation.Invocation.cache_enabled
          || invocation.Invocation.incremental
        then Some (Cache.create ())
        else None)
  in
  {
    invocation;
    registry = Stats.Registry.create ();
    cache;
    exit_report_taken = false;
  }

let invocation t = t.invocation
let registry t = t.registry
let cache t = t.cache
let in_registry t f = Stats.with_registry t.registry f

type compilation = {
  c_result : Driver.result;
  c_cache_hit : bool;
  c_trace : Pipeline.trace;
  c_fn_trace : (string * Pipeline.outcome) list;
}

(* [Pipeline.execute] already scopes each compilation to its own fresh
   registry and merges it into the enclosing one on the way out, so
   running it with the instance registry current makes the instance
   registry cumulative over everything the instance ever compiled. *)
let compile_inner t ~name ~ir source =
  let options = Invocation.to_driver_options t.invocation in
  let x = Pipeline.execute ?cache:t.cache ~options ~name ~ir source in
  {
    c_result = x.Pipeline.x_result;
    c_cache_hit = x.Pipeline.x_full_hit;
    c_trace = x.Pipeline.x_trace;
    c_fn_trace = x.Pipeline.x_fn_trace;
  }

let compile t ?(name = "input.c") source =
  in_registry t (fun () -> compile_inner t ~name ~ir:`Module source)

(* ---- fault containment ---------------------------------------------------- *)

type failure = {
  f_ice : Crash_recovery.ice;
  f_reproducer : string option; (* bundle directory, when one was written *)
}

let ices_counter =
  Stats.counter ~group:"driver" ~name:"ices"
    ~desc:"units contained after an internal compiler error" ()

let contain t ~name ~source f =
  (* The CrashRecoveryContext analogue.  Everything — including the
     [Crash_recovery.run] barrier itself — happens with the instance
     registry current, so a unit that ICEs still merges whatever counters
     it accrued (the pipeline's scoped-registry merge runs in its
     [finally]), and the registry scoping is restored by
     [with_registry]'s own protection. *)
  in_registry t (fun () ->
      match Crash_recovery.run f with
      | Ok v -> Ok v
      | Error ice ->
        Stats.incr ices_counter;
        let reproducer =
          if t.invocation.Invocation.gen_reproducer then
            match
              Reproducer.write ~invocation:t.invocation ~name ~source ~ice
            with
            | Ok dir -> Some dir
            | Error _ -> None
          else None
        in
        Error { f_ice = ice; f_reproducer = reproducer })

let compile_safe t ?(name = "input.c") ?(ir = `Module) source =
  contain t ~name ~source (fun () -> compile_inner t ~name ~ir source)

let frontend_safe t ?(name = "input.c") source =
  contain t ~name ~source (fun () ->
      Driver.frontend
        ~options:(Invocation.to_driver_options t.invocation)
        ~name source)

(* The script is the stage's input here, not an option of the program it
   rewrites, so it is taken out of the options the transform runs under. *)
let transform_safe t ?(name = "input.c") source =
  let options = Invocation.to_driver_options t.invocation in
  match options.Driver.transfo_script with
  | None -> Ok (Error "no transformation script to apply")
  | Some script ->
    let options = { options with Driver.transfo_script = None } in
    contain t ~name ~source (fun () ->
        Pipeline.transform ?cache:t.cache ~options ~name ~script source)

let render_failure ?(server_side = false) ~name f =
  let ice = f.f_ice in
  Printf.sprintf
    "mcc: internal compiler error compiling %s: %s (phase: %s%s)%s\n%s" name
    ice.Crash_recovery.ice_exn ice.Crash_recovery.ice_phase
    (match ice.Crash_recovery.ice_location with
    | Some l -> ", near " ^ l
    | None -> "")
    (if server_side then " [contained by daemon]" else "")
    (match f.f_reproducer with
    | Some dir when server_side ->
      Printf.sprintf
        "mcc: note: reproducer bundle written server-side to %s\n" dir
    | Some dir ->
      Printf.sprintf
        "mcc: note: reproducer bundle written to %s (see repro.sh)\n" dir
    | None -> "")

let render_unanalysable ~name (r : Driver.result) =
  Printf.sprintf "mcc: cannot analyse %s: %s\n" name
    (Option.value r.Driver.codegen_error ~default:"no IR was produced")

let run t ?config result = in_registry t (fun () -> Driver.run ?config result)

let stats t = Stats.snapshot ~registry:t.registry ()
let render_stats t = Stats.render_stats ~registry:t.registry ()
let render_time_report t = Stats.render_time_report ~registry:t.registry ()

(* -print-stats / -ftime-report on process exit, the Clang way — but per
   instance: each instance renders its own registry, at most once, and
   only if its invocation asked for a report.  [exit_reports] consumes
   the report, so stacking [report_at_exit] with an explicit earlier
   report cannot double-print (the PR-1 CLI printed the global registry
   from every at_exit hook it had ever registered). *)
let exit_reports t =
  if t.exit_report_taken then ""
  else begin
    t.exit_report_taken <- true;
    let buf = Buffer.create 256 in
    if t.invocation.Invocation.time_report then
      Buffer.add_string buf (render_time_report t);
    if t.invocation.Invocation.print_stats then
      Buffer.add_string buf (render_stats t);
    Buffer.contents buf
  end

let report_at_exit t =
  if t.invocation.Invocation.time_report || t.invocation.Invocation.print_stats
  then at_exit (fun () -> prerr_string (exit_reports t))
