(* The benchmark entry point:

     main.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it sets the workload up nine times, five before the
   measured loop and four after it, and reports the median set-up time.
   It runs the seeded operation list closed-loop for S seconds with every
   output checked outside the timed region, and prints the end-to-end
   metrics.  With --trace 1 it runs the same inputs
   with end-to-end timing off, records spans around every call into a
   layer, writes them to .perfbench/spans-W-N.jsonl and prints the
   per-layer metrics.  The last line of standard output is always the
   JSON result. *)

open Perfbench_lib

type 'st workload = {
  window : int; (* samples per statistics window: whole rounds, at least 200 *)
  setup : seed:int -> 'st;
  teardown : 'st -> unit;
  measure : 'st -> seed:int -> seconds:float -> Common.measured;
  traced : 'st -> seed:int -> seconds:float -> Spec.result * string list;
}

(* Set-ups per run: [setups_before] before the measured loop and the rest
   after it, so that their median covers the run, not only its start. *)
let setups = 9
let setups_before = 5

(* Latency figures are medians over consecutive windows of whole rounds,
   so a stretch of the run on a slowed machine moves them less.  Each
   window is large enough for its p95 to have ten samples beyond it. *)
let end_to_end ~window ~setup_s { Common.latencies = lats; failed; lost; extra } =
  let attempted = List.length lats in
  let windows = Pstats.windows window lats in
  let tails = List.filter_map (Pstats.tail 95.0) windows in
  if tails = [] then failwith (Printf.sprintf "only %d samples: too few for a p95" attempted);
  let per_window f = Pstats.median (List.map f windows) in
  let metrics =
    [
      ("setup_s", setup_s);
      ("latency_p50_s", per_window Pstats.median);
      ("latency_p95_s", Pstats.median (List.map fst tails));
      ("ops_per_s", per_window (fun w -> Common.ratio (float_of_int (List.length w)) (List.fold_left ( +. ) 0.0 w)));
      ("ok_ratio", float_of_int (attempted - failed) /. float_of_int attempted);
    ]
    @ extra
  in
  ( { Spec.attempted; failed; lost; metrics },
    [
      Printf.sprintf
        "%d operation(s), %d failed (%d without an answer); %d window(s) of %d or more, each p95 \
         with at least %d sample(s) beyond it"
        attempted failed lost (List.length windows) window
        (List.fold_left min max_int (List.map snd tails));
    ] )

let run w ~workload ~seed ~seconds ~trace =
  let result, lines =
    if trace then begin
      let st = w.setup ~seed in
      let r = Fun.protect ~finally:(fun () -> w.teardown st) (fun () -> w.traced st ~seed ~seconds) in
      Mc_support.Binio.mkdir_p Common.scratch_root;
      let path =
        Filename.concat Common.scratch_root (Printf.sprintf "spans-%s-%d.jsonl" workload seed)
      in
      Span.write path;
      (fst r, snd r @ [ Printf.sprintf "%d span(s) written to %s" (Span.count ()) path ])
    end
    else begin
      let times = ref [] in
      let set_up () =
        let st, dt = Common.timed (fun () -> w.setup ~seed) in
        times := dt :: !times;
        st
      in
      for _ = 2 to setups_before do
        w.teardown (set_up ())
      done;
      let st = set_up () in
      let m = Fun.protect ~finally:(fun () -> w.teardown st) (fun () -> w.measure st ~seed ~seconds) in
      for _ = setups_before + 1 to setups do
        w.teardown (set_up ())
      done;
      let r, lines = end_to_end ~window:w.window ~setup_s:(Pstats.median !times) m in
      ( r,
        lines
        @ [
            "set-up times (s): "
            ^ String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times);
          ] )
    end
  in
  List.iter print_endline lines;
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name result.Spec.metrics with
      | Some v -> Printf.printf "  %-28s %s %s\n" name (Spec.number v) unit
      | None -> ())
    (Spec.declared ~trace);
  print_endline (Spec.render ~trace result)

let usage = "main.exe --workload W --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " Spec.workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let workload = !workload in
  match
    match workload with
    | "cold_compile" ->
      run ~workload ~seed ~seconds ~trace
        { window = Gen.cold_units; setup = Cold.setup; teardown = Cold.teardown;
          measure = Cold.measure; traced = Cold.traced }
    | "edit_rebuild" ->
      run ~workload ~seed ~seconds ~trace
        { window = Edit.session_ops; setup = Edit.setup; teardown = Edit.teardown;
          measure = Edit.measure; traced = Edit.traced }
    | "daemon_mix" ->
      run ~workload ~seed ~seconds ~trace
        { window = 5 * Gen.daemon_round_len; setup = Daemon.setup; teardown = Daemon.teardown;
          measure = Daemon.measure; traced = Daemon.traced }
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  with
  | () -> exit 0
  | exception e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 2
