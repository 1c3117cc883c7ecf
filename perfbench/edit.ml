(* edit_rebuild: an editor loop over one 64-function unit with a
   persistent store in a scratch directory, in sessions of 200 operations
   that each start from a freshly built store.  A seeded mix of same-source
   rebuilds, restarts (a fresh instance and store handle over the same
   directory), comment edits, one-function body edits and
   -floop-nest-limit changes runs against it.  Cache lookup, store reads,
   the integrity digest, unmarshalling and relinking dominate; the front
   end re-runs at most one function, and edits write new per-function
   artifacts beside the reads.  Every result's IR must equal a cold,
   cache-less compile of the same source; those reference compiles run
   after the timed loop. *)

open Common
module Cache = Mc_core.Cache
module Store = Mc_core.Store

type state = {
  dir : string;
  store_dir : string;
  big : Gen.big;
  mutable cache : Cache.t;
  mutable consts : int array;
  mutable comment : int;
  mutable limit : int;
  refs : (string, string) Hashtbl.t; (* comment-free source digest -> IR digest *)
  base_insts : int;
  base_steps : int;
}

let open_cache store_dir = Cache.create ~store:(Store.create ~dir:store_dir ()) ()

(* A comment or a -floop-nest-limit change leaves the IR alone, so the
   reference is keyed on the comment-free source. *)
let content_key st = Digest.string (Gen.render_big st.big st.consts)
let source st = Gen.render_big ~comment:st.comment st.big st.consts
let name = "edit.c"

(* Operations per editor session.  The store grows by every edit, and a
   bigger store makes restarts slower; starting each session from the
   same fresh store keeps a faster run, which gets through more edits,
   from also measuring a bigger store.  Sessions are the statistics
   windows too. *)
let session_ops = 10 * Gen.edit_round_len

(* A new session (untimed): the editor opens the file on an empty store
   and builds it under each -floop-nest-limit the loop switches between. *)
let open_session st =
  st.cache <- Cache.create ();
  rm_rf st.store_dir;
  Gc.compact ();
  st.cache <- open_cache st.store_dir;
  st.consts <- Gen.base_consts st.big;
  st.comment <- 0;
  st.limit <- List.hd Gen.nest_limits;
  let src = Gen.render_big st.big st.consts in
  List.iter
    (fun nest_limit ->
      match
        ir_of_compilation
          (Instance.compile_safe
             (Instance.create ~cache:st.cache (invocation ~nest_limit ()))
             ~name src)
      with
      | Ok _ -> ()
      | Error e -> failwith ("edit_rebuild: initial build failed: " ^ e))
    Gen.nest_limits

let setup ~seed =
  let dir = fresh_dir "edit" in
  let store_dir = Filename.concat dir "store" in
  let big = Gen.big_unit ~seed ~stream:50 ~prefix:"e" ~fns:Gen.edit_fns in
  let consts = Gen.base_consts big in
  let src = Gen.render_big big consts in
  let refs = Hashtbl.create 64 in
  let m =
    match ir_of_compilation (Instance.compile_safe (Instance.create (invocation ())) ~name src) with
    | Ok m -> m
    | Error e -> failwith ("edit_rebuild: reference build failed: " ^ e)
  in
  Hashtbl.replace refs (Digest.string src) (ir_digest m);
  let steps = (Mc_interp.Interp.run_main m).Mc_interp.Interp.steps in
  let st =
    {
      dir;
      store_dir;
      big;
      cache = Cache.create ();
      consts;
      comment = 0;
      limit = List.hd Gen.nest_limits;
      refs;
      base_insts = Mc_ir.Ir.module_inst_count m;
      base_steps = steps;
    }
  in
  open_session st;
  st

let teardown st = rm_rf st.dir

(* Apply the edit to the editor state (untimed), then return the timed
   rebuild.  A restart drops the old process's memory before the clock
   starts, as a new process would not have it.  Operation [i] of a new
   session first opens it. *)
let prepare st i op =
  if i > 0 && i mod session_ops = 0 then open_session st;
  (match op with
  | Gen.Same -> ()
  | Gen.Restart ->
    st.cache <- Cache.create ();
    Gc.compact ()
  | Gen.Comment n -> st.comment <- n
  | Gen.Body (f, c) -> st.consts.(f) <- c
  | Gen.Nest_limit l -> st.limit <- l);
  let src = source st in
  let inv = invocation ~nest_limit:st.limit () in
  fun () ->
    if op = Gen.Restart then st.cache <- open_cache st.store_dir;
    Instance.compile_safe (Instance.create ~cache:st.cache inv) ~name src

(* Checks a result's IR digest now when the reference is known, else
   queues it for [settle]. *)
let check st pending result =
  match ir_of_compilation result with
  | Error e -> Error e
  | Ok m -> (
    let key = content_key st in
    let got = ir_digest m in
    match Hashtbl.find_opt st.refs key with
    | Some want -> if String.equal want got then Ok m else Error "IR differs from a cold compile"
    | None ->
      pending :=
        (key, Cold_compile (invocation (), name, Gen.render_big st.big st.consts), got) :: !pending;
      Ok m)

(* Cold reference compiles for the sources first seen in the loop. *)
let settle st pending = settle_against_cold ~label:"edit_rebuild" st.refs (List.rev pending)

(* Past the deadline, with enough samples, on a session boundary. *)
let finished ~started ~seconds n =
  now () -. started >= seconds && n >= Pstats.samples_for_p95 && n mod session_ops = 0

let measure st ~seed ~seconds =
  let samples = ref [] and failed = ref 0 and pending = ref [] in
  let started = now () in
  let rec loop = function
    | op :: rest when not (finished ~started ~seconds (List.length !samples)) ->
      let rebuild = prepare st (List.length !samples) op in
      let result, lat = timed rebuild in
      (match check st pending result with
      | Ok _ -> ()
      | Error e ->
        incr failed;
        Printf.eprintf "edit_rebuild: %s: %s\n%!" (Gen.render_edit_op op) e);
      samples := lat :: !samples;
      loop rest
    | _ -> ()
  in
  loop (Gen.edit_ops ~seed 100_000);
  (* The editor's memory, before the reference compiles run. *)
  let rss = self_peak_rss_mb () in
  let failed = !failed + settle st !pending in
  {
    latencies = List.rev !samples;
    failed;
    lost = 0;
    extra =
      [
        ("peak_rss_mb", rss);
        ("ir_insts", float_of_int st.base_insts);
        ("exec_steps", float_of_int st.base_steps);
      ];
  }

(* ---- traced run ---------------------------------------------------------- *)

(* The same operation list, with spans around each rebuild, the counters
   the pipeline already keeps in [result.stats], and direct timings of
   Store.load/save, Digest and Marshal.from_string on a payload the size
   of the unit's IR artifact. *)
let traced st ~seed ~seconds =
  let lay = Layers.create () in
  let probe = Store.create ~dir:(Filename.concat st.dir "probe") () in
  let failed = ref 0 and attempted = ref 0 and pending = ref [] in
  let hits = ref 0.0 and lookups = ref 0.0 and fn_hits = ref 0.0 and fn_lookups = ref 0.0 in
  let by_kind = Hashtbl.create 8 and payload_bytes = ref 0 in
  let started = now () in
  let rec loop = function
    | op :: rest when not (finished ~started ~seconds !attempted) ->
      let id = !attempted in
      incr attempted;
      (* Every edit_rebuild compile is classic. *)
      Layers.op lay ~tag:"classic";
      let rebuild = prepare st id op in
      let result, lat =
        Span.run ~op:id ("edit " ^ Gen.render_edit_op op) (fun root ->
            fst (Span.time ~parent:root ~op:id "instance.compile_safe" rebuild))
      in
      (match check st pending result with
      | Error e ->
        incr failed;
        Printf.eprintf "edit_rebuild traced: %s: %s\n%!" (Gen.render_edit_op op) e
      | Ok m ->
        let r = (Result.get_ok result).Instance.c_result in
        let t = r.Driver.timings in
        let snap = r.Driver.stats in
        let stages =
          t.Driver.t_lex +. t.Driver.t_preprocess +. t.Driver.t_parse_sema +. t.Driver.t_codegen
          +. t.Driver.t_passes
        in
        List.iter
          (fun (layer, dt) -> Layers.time lay layer dt)
          [
            ("lexer.busy_s", t.Driver.t_lex);
            ("pp.busy_s", t.Driver.t_preprocess);
            ("sema.busy_s.classic", t.Driver.t_parse_sema);
            ("codegen.busy_s.classic", t.Driver.t_codegen);
            ("passes.busy_s.classic", t.Driver.t_passes);
            ("cache.self_s", lat -. stages);
          ];
        let kind = List.hd (String.split_on_char '(' (Gen.render_edit_op op)) in
        let n, l, f = Option.value (Hashtbl.find_opt by_kind kind) ~default:(0, 0.0, 0.0) in
        Hashtbl.replace by_kind kind (n + 1, l +. lat, f +. stages);
        Layers.count lay "lexer.tokens" (stat snap "lexer.tokens-lexed");
        Layers.count lay "sema.shadow_stmts" (stat snap "sema.shadow-stmts-built");
        Layers.count lay "sema.canonical_loops" (stat snap "sema.canonical-loops");
        Layers.count lay "codegen.ir_insts.classic" (stat snap "codegen.ir-instructions-classic");
        Layers.count lay "store.hits" (stat snap "store.hits");
        Layers.count lay "store.evictions" (stat snap "store.evictions");
        let h, l, fh, fl = cache_counts (stat snap) in
        hits := !hits +. h;
        lookups := !lookups +. l;
        fn_hits := !fn_hits +. fh;
        fn_lookups := !fn_lookups +. fl;
        (* The artifact path, timed directly on a payload of this size. *)
        let payload = Marshal.to_string (m, r.Driver.unroll_stats) [] in
        payload_bytes := !payload_bytes + String.length payload;
        let fp = Printf.sprintf "probe%d" (id mod 8) in
        let timed_layer layer name f =
          let v, dt = Span.time ~parent:0 ~op:id name f in
          Layers.time lay layer dt;
          v
        in
        timed_layer "store.save_s" "store.Store.save" (fun () ->
            Store.save probe ~stage:"optir" fp [ payload ]);
        ignore (timed_layer "store.load_s" "store.Store.load" (fun () -> Store.load probe ~stage:"optir" fp));
        ignore (timed_layer "artifact.digest_s" "artifact.Digest.string" (fun () -> Digest.string payload));
        ignore
          (timed_layer "artifact.unmarshal_s" "artifact.Marshal.from_string" (fun () ->
               (Marshal.from_string payload 0 : Mc_ir.Ir.modul * Mc_passes.Loop_unroll.stats))));
      loop rest
    | _ -> ()
  in
  loop (Gen.edit_ops ~seed 100_000);
  failed := !failed + settle st !pending;
  Layers.set lay "cache.hit_ratio" (ratio !hits !lookups);
  Layers.set lay "cache.fn_hit_ratio" (ratio !fn_hits !fn_lookups);
  Layers.set lay "store.bytes"
    (float_of_int (Store.total_bytes (Option.get (Cache.store_of st.cache))));
  let ms layer = 1000.0 *. Layers.per_op lay layer in
  let lines =
    Printf.sprintf
      "per rebuild: an optir-sized artifact (%.0f KiB) costs %.3f ms to read from the store, \
       %.3f ms to digest and %.3f ms to unmarshal"
      (float_of_int !payload_bytes /. 1024.0 /. float_of_int (max 1 !attempted))
      (ms "store.load_s") (ms "artifact.digest_s") (ms "artifact.unmarshal_s")
    :: List.map
         (fun kind ->
           let n, l, f = Hashtbl.find by_kind kind in
           let per x = 1000.0 *. x /. float_of_int n in
           Printf.sprintf "  %-10s %4d rebuild(s): %8.3f ms mean, of which stages %7.3f ms, cache %7.3f ms"
             kind n (per l) (per f) (per (l -. f)))
         (List.sort compare (List.of_seq (Hashtbl.to_seq_keys by_kind)))
  in
  ({ Spec.attempted = !attempted; failed = !failed; lost = 0; metrics = Layers.metrics lay }, lines)
