module Stats = Mc_support.Stats
module Clock = Mc_support.Clock
module Ir = Mc_ir.Ir

type pass = { name : string; run_func : Ir.func -> bool }

type pass_timing = {
  pt_name : string;
  pt_changed : bool;
  pt_changed_funcs : string list;
  pt_wall : float;
  pt_insts_before : int;
  pt_insts_after : int;
}

type report = {
  unroll_stats : Loop_unroll.stats;
  pass_timings : pass_timing list;
}

let stat_runs =
  Stats.counter ~group:"passes" ~name:"pass-runs"
    ~desc:"individual pass executions" ()
let stat_changed =
  Stats.counter ~group:"passes" ~name:"passes-changed-ir"
    ~desc:"pass executions that modified the IR" ()
let stat_full =
  Stats.counter ~group:"passes" ~name:"loops-fully-unrolled"
    ~desc:"loops fully unrolled by LoopUnroll" ()
let stat_partial =
  Stats.counter ~group:"passes" ~name:"loops-partially-unrolled"
    ~desc:"loops partially unrolled by LoopUnroll" ()
let stat_skipped =
  Stats.counter ~group:"passes" ~name:"loops-unroll-skipped"
    ~desc:"unroll candidates skipped by LoopUnroll" ()
let stat_verify_skipped =
  Stats.counter ~group:"verifier" ~name:"unchanged-skipped"
    ~desc:"functions not re-verified after a pass that left them unchanged" ()

let o0 = [ "simplifycfg"; "dce" ]

let o1 =
  [
    "simplifycfg";
    "mem2reg";
    "constprop";
    "dce";
    "loop-unroll";
    "constprop";
    "simplifycfg";
    "dce";
  ]

let named ?(on_unroll = ignore) name =
  let run_func =
    match name with
    | "simplifycfg" -> Simplify_cfg.run_func
    | "mem2reg" -> fun f -> Mem2reg.run_func f > 0
    | "constprop" -> Const_prop.run_func
    | "dce" -> Dce.run_func
    | "loop-unroll" ->
      fun f ->
        let s = Loop_unroll.run_func f in
        Stats.add stat_full s.Loop_unroll.fully_unrolled;
        Stats.add stat_partial s.Loop_unroll.partially_unrolled;
        Stats.add stat_skipped s.Loop_unroll.skipped;
        on_unroll s;
        Loop_unroll.processed s > 0
    | other -> invalid_arg (Printf.sprintf "unknown pass '%s'" other)
  in
  { name; run_func }

(* The defined functions [p] reported changing, in module order. *)
let run_on_funcs p m =
  List.rev
    (List.fold_left
       (fun acc (f : Ir.func) ->
         if (not f.f_is_decl) && p.run_func f then f :: acc else acc)
       [] m.Ir.m_funcs)

let defined_count m =
  List.fold_left
    (fun n (f : Ir.func) -> if f.f_is_decl then n else n + 1)
    0 m.Ir.m_funcs

let run_passes ?(verify_between = false) passes m =
  (* The count after one pass is the count before the next. *)
  let insts = ref (Ir.module_inst_count m) in
  List.map
    (fun p ->
      let start = Clock.now () in
      let changed = run_on_funcs p m in
      let wall = Clock.now () -. start in
      Stats.record (Stats.timer ~group:"passes" ~name:p.name) wall;
      Stats.incr stat_runs;
      let any = not (List.is_empty changed) in
      if any then Stats.incr stat_changed;
      if verify_between then begin
        Stats.add stat_verify_skipped (defined_count m - List.length changed);
        match Mc_ir.Verifier.check_funcs changed with
        | Ok () -> ()
        | Error e ->
          invalid_arg
            (Printf.sprintf "IR verification failed after pass '%s':\n%s" p.name e)
      end;
      let before = !insts in
      insts := Ir.module_inst_count m;
      {
        pt_name = p.name;
        pt_changed = any;
        pt_changed_funcs = List.map (fun (f : Ir.func) -> f.f_name) changed;
        pt_wall = wall;
        pt_insts_before = before;
        pt_insts_after = !insts;
      })
    passes

let run ?verify_between ~passes m =
  let unroll = ref Loop_unroll.empty_stats in
  let on_unroll s = unroll := Loop_unroll.add_stats !unroll s in
  let timings = run_passes ?verify_between (List.map (named ~on_unroll) passes) m in
  { unroll_stats = !unroll; pass_timings = timings }
