(* Helpers shared by the workloads: clocks, IR fingerprints, memory
   high-water marks and the benchmark's scratch directory. *)

module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Driver = Mc_core.Driver
module Diag = Mc_diag.Diagnostics
module Stats = Mc_support.Stats

let now = Mc_support.Clock.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let ir_text m = Mc_ir.Printer.module_to_string m
let ir_digest m = Digest.to_hex (Digest.string (ir_text m))

(* The optimised IR of a diagnostic-free compilation, else why not. *)
let ir_of_compilation = function
  | Error (f : Instance.failure) ->
    Error ("ICE: " ^ Mc_support.Crash_recovery.describe f.Instance.f_ice)
  | Ok (c : Instance.compilation) -> (
    let r = c.Instance.c_result in
    if Diag.has_errors r.Driver.diag then Error (Diag.render_all r.Driver.diag)
    else
      match (r.Driver.ir, r.Driver.codegen_error) with
      | Some m, _ -> Ok m
      | None, Some e -> Error ("codegen: " ^ e)
      | None, None -> Error "no IR")

let invocation ?(irbuilder = false) ?(analyze = false) ?script ?(nest_limit = 0) () =
  {
    Invocation.default with
    Invocation.use_irbuilder = irbuilder;
    analyze = (if analyze then Some [] else None);
    transfo_script =
      Option.map
        (fun s -> Invocation.Source { name = "bench.transfo"; contents = s })
        script;
    loop_nest_limit =
      (if nest_limit > 0 then nest_limit else Invocation.default.Invocation.loop_nest_limit);
    gen_reproducer = false;
  }

(* IR of a cold, cache-less compile: the reference every warm answer must
   equal byte for byte. *)
let cold_ir_digest inv ~name source =
  match ir_of_compilation (Instance.compile_safe (Instance.create inv) ~name source) with
  | Ok m -> Ok (ir_digest m)
  | Error e -> Error e

(* What a warm answer's IR is checked against once the timed loop is over:
   a digest already known, or a cold compile of this invocation, name and
   source. *)
type reference = Known of string | Cold_compile of Invocation.t * string * string

(* Compares each (key, reference, IR digest got) with its reference and
   returns the number of mismatches.  Cold references are memoised in
   [refs] by key, so a source seen again is compiled once. *)
let settle_against_cold ~label refs items =
  List.fold_left
    (fun failed (key, reference, got) ->
      let want =
        match reference with
        | Known d -> Ok d
        | Cold_compile (inv, name, src) -> (
          match Hashtbl.find_opt refs key with
          | Some d -> Ok d
          | None ->
            let d = cold_ir_digest inv ~name src in
            Result.iter (Hashtbl.replace refs key) d;
            d)
      in
      match want with
      | Ok d when String.equal d got -> failed
      | Ok _ ->
        prerr_endline (label ^ ": IR differs from a cold compile");
        failed + 1
      | Error e ->
        prerr_endline (label ^ ": reference compile failed: " ^ e);
        failed + 1)
    0 items

(* VmHWM of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> acc)
      nan
      (String.split_on_char '\n' text)

let self_peak_rss_mb () = peak_rss_mb "self"

(* Scratch space inside the working directory (the checkout), one
   subdirectory per use, removed again by [rm_rf]. *)
let scratch_root = ".perfbench"

let dirs_made = ref 0

let fresh_dir tag =
  incr dirs_made;
  let dir = Filename.concat scratch_root (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !dirs_made) in
  Mc_support.Binio.mkdir_p dir;
  dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let stat snap key = float_of_int (Stats.find snap key)

let ratio num den = if den = 0.0 then 0.0 else num /. den

let unit_stages = [ "lex"; "pp"; "ast"; "ir"; "optir" ]

(* Whole-unit stage hits and lookups, then per-function hits and lookups,
   from a reader of stats counters. *)
let cache_counts get =
  let sum suffix = List.fold_left (fun a s -> a +. get ("cache." ^ s ^ suffix)) 0.0 unit_stages in
  let fn_hits = get "cache.fn-hits" in
  (sum "-hits", sum "-hits" +. sum "-misses", fn_hits, fn_hits +. get "cache.fn-misses")

(* What a workload's timed loop returns. *)
type measured = {
  latencies : float list; (* seconds per operation, in order *)
  failed : int; (* failed operations, failed output checks included *)
  lost : int; (* of those, requests that got no answer at all *)
  extra : (string * float) list; (* workload-specific end-to-end metrics *)
}
