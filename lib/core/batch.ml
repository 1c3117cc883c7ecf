(* Parallel batch compilation: N translation units over M domains.

   Each unit compiles inside its own Instance (own registry, shared
   cache), so workers share no mutable compilation state; units are
   claimed from an atomic counter, results land in an array slot owned
   by exactly one worker, and Domain.join publishes them — results are
   therefore in input order and, because all per-compilation state is
   domain-local and reset per compile, byte-identical to a sequential
   run regardless of the domain count. *)

module Stats = Mc_support.Stats
module Clock = Mc_support.Clock
module Crash_recovery = Mc_support.Crash_recovery

type unit_result = {
  u_name : string;
  u_result : (Driver.result, Instance.failure) result;
  u_cache_hit : bool;
  u_trace : Pipeline.trace;
  u_fn_trace : (string * Pipeline.outcome) list;
  u_stats : Stats.snapshot;
  u_wall : float;
}

type t = {
  units : unit_result list;
  stats : Stats.snapshot;
  wall : float;
  jobs : int;
}

let compile_units ?cache ~jobs ~invocation inputs =
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let jobs = max 1 (min jobs (max n 1)) in
  let slots = Array.make n None in
  let registries = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let name, source = inputs.(i) in
        let inst = Instance.create ?cache invocation in
        let started = Clock.now () in
        let outcome, hit, trace, fn_trace =
          match Instance.compile_safe inst ~name source with
          | Ok { Instance.c_result; c_cache_hit; c_trace; c_fn_trace } ->
            (Ok c_result, c_cache_hit, c_trace, c_fn_trace)
          | Error failure -> (Error failure, false, [], [])
          | exception e ->
            (* Last-ditch containment: [compile_safe] itself should never
               raise, but a worker must not die and strand its siblings. *)
            ( Error
                {
                  Instance.f_ice = Crash_recovery.ice_of_exn e;
                  f_reproducer = None;
                },
              false,
              [],
              [] )
        in
        let wall = Clock.now () -. started in
        registries.(i) <- Some (Instance.registry inst);
        slots.(i) <-
          Some
            {
              u_name = name;
              u_result = outcome;
              u_cache_hit = hit;
              u_trace = trace;
              u_fn_trace = fn_trace;
              u_stats = Stats.snapshot ~registry:(Instance.registry inst) ();
              u_wall = wall;
            };
        loop ()
      end
    in
    loop ()
  in
  let started = Clock.now () in
  if jobs <= 1 then worker ()
  else begin
    let others = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join others
  end;
  let wall = Clock.now () -. started in
  let units =
    Array.to_list
      (Array.map
         (function
           | Some u -> u
           | None -> assert false (* every index was claimed exactly once *))
         slots)
  in
  let registries =
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) registries)
  in
  (units, registries, wall, jobs)

let merged_stats units =
  List.fold_left
    (fun acc u -> Stats.merge_snapshots acc u.u_stats)
    [] units

let compile ?jobs ?cache ~invocation inputs =
  let jobs =
    match jobs with Some j -> j | None -> invocation.Invocation.jobs
  in
  let cache =
    match cache with
    | Some _ as c -> c
    | None -> Instance.default_cache invocation
  in
  let units, _registries, wall, jobs =
    compile_units ?cache ~jobs ~invocation inputs
  in
  { units; stats = merged_stats units; wall; jobs }

let compile_into instance inputs =
  let invocation = Instance.invocation instance in
  let units, registries, wall, jobs =
    compile_units
      ?cache:(Instance.cache instance)
      ~jobs:invocation.Invocation.jobs ~invocation inputs
  in
  (* Merge per-unit registries into the parent instance in input order,
     so the instance's -print-stats / -ftime-report cover the batch. *)
  List.iter
    (fun r -> Stats.Registry.merge ~into:(Instance.registry instance) r)
    registries;
  { units; stats = merged_stats units; wall; jobs }

let hits t = List.length (List.filter (fun u -> u.u_cache_hit) t.units)

let ices t =
  List.length
    (List.filter (fun u -> Result.is_error u.u_result) t.units)

let codegen_errors t =
  List.length
    (List.filter
       (fun u ->
         match u.u_result with
         | Ok r -> r.Driver.codegen_error <> None
         | Error _ -> false)
       t.units)

let errors t =
  List.length
    (List.filter
       (fun u ->
         match u.u_result with
         | Ok r -> Mc_diag.Diagnostics.has_errors r.Driver.diag
         | Error _ -> false)
       t.units)

let all_ok t =
  List.for_all
    (fun u ->
      match u.u_result with
      | Ok r -> not (Mc_diag.Diagnostics.has_errors r.Driver.diag)
      | Error _ -> false)
    t.units
