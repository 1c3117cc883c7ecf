module Stats = Mc_support.Stats
module Clock = Mc_support.Clock

type pass_timing = {
  pt_name : string;
  pt_changed : bool;
  pt_wall : float;
  pt_insts_before : int;
  pt_insts_after : int;
}

type report = {
  pass_results : (string * bool) list;
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

let available =
  [ "simplifycfg"; "mem2reg"; "constprop"; "dce"; "loop-unroll" ]

let run ?(verify_between = false) ~passes m =
  let unroll_stats = ref Loop_unroll.empty_stats in
  let timings =
    List.map
      (fun name ->
        let insts_before = Mc_ir.Ir.module_inst_count m in
        let start = Clock.now () in
        let changed =
          match name with
          | "simplifycfg" -> Simplify_cfg.run m
          | "mem2reg" -> Mem2reg.run m > 0
          | "constprop" -> Const_prop.run m
          | "dce" -> Dce.run m
          | "loop-unroll" ->
            let s = Loop_unroll.run m in
            Stats.add stat_full s.Loop_unroll.fully_unrolled;
            Stats.add stat_partial s.Loop_unroll.partially_unrolled;
            Stats.add stat_skipped s.Loop_unroll.skipped;
            unroll_stats := Loop_unroll.add_stats !unroll_stats s;
            s.Loop_unroll.fully_unrolled > 0 || s.Loop_unroll.partially_unrolled > 0
          | other -> invalid_arg (Printf.sprintf "unknown pass '%s'" other)
        in
        let wall = Clock.now () -. start in
        Stats.record (Stats.timer ~group:"passes" ~name) wall;
        Stats.incr stat_runs;
        if changed then Stats.incr stat_changed;
        if verify_between then begin
          match Mc_ir.Verifier.check m with
          | Ok () -> ()
          | Error e ->
            invalid_arg
              (Printf.sprintf "IR verification failed after pass '%s':\n%s" name e)
        end;
        {
          pt_name = name;
          pt_changed = changed;
          pt_wall = wall;
          pt_insts_before = insts_before;
          pt_insts_after = Mc_ir.Ir.module_inst_count m;
        })
      passes
  in
  {
    pass_results = List.map (fun pt -> (pt.pt_name, pt.pt_changed)) timings;
    unroll_stats = !unroll_stats;
    pass_timings = timings;
  }
