(* Persistent-store suite: on-disk round-trips, corruption injection
   (every malformed entry is a miss, never an ICE), schema-version
   rejection, LRU eviction order, concurrent writers, persistence
   across Cache/Instance lifetimes, and injected I/O faults (a read
   fault is a counted miss with the entry intact; a write fault
   publishes nothing — no partial entry, no stray tmp file). *)

open Helpers
module Store = Mc_core.Store
module Cache = Mc_core.Cache
module Instance = Mc_core.Instance
module Invocation = Mc_core.Invocation
module Batch = Mc_core.Batch
module Driver = Mc_core.Driver
module Pipeline = Mc_core.Pipeline
module Stats = Mc_support.Stats
module Binio = Mc_support.Binio
module Fault = Mc_support.Fault

let temp_dir () =
  let path = Filename.temp_file "mcc-store-test" "" in
  Sys.remove path;
  Binio.mkdir_p path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_store_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

(* Runs the thunk under a fresh registry so counter assertions are exact
   regardless of what earlier tests did to the shared default. *)
let with_stats f =
  let registry = Stats.Registry.create () in
  let result = Stats.with_registry registry f in
  (result, Stats.snapshot ~registry ())

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Under an env-armed fault matrix (MCC_FAULTS), [store.read] turns
   random loads into counted misses and [store.write] swallows random
   saves.  These helpers re-roll — bounded — so the suite's assertions
   hold under injection without relaxing any correctness check: an
   expected miss stays a hard miss (a fault can widen misses, never
   serve wrong data), and a save is retried until its entry is actually
   on disk.  With nothing armed each helper is a single attempt. *)
let load_expect store ~stage fp expected =
  match expected with
  | None ->
    Alcotest.(check (option (list string)))
      (fp ^ " misses") None
      (Store.load store ~stage fp)
  | Some _ ->
    let rec go tries =
      match Store.load store ~stage fp with
      | Some _ as got ->
        Alcotest.(check (option (list string))) (fp ^ " loads") expected got
      | None when Fault.armed "store.read" && tries > 0 -> go (tries - 1)
      | None ->
        Alcotest.(check (option (list string))) (fp ^ " loads") expected None
    in
    go 80

let save_ok ?version store ~stage fp candidates =
  let path = Store.entry_path store ~stage fp in
  let rec go tries =
    Store.save ?version store ~stage fp candidates;
    if
      (not (Sys.file_exists path))
      && Fault.armed "store.write" && tries > 0
    then go (tries - 1)
  in
  go 80

(* Expects the entry under [fp] to be rejected by decoding (corrupt,
   mis-keyed, wrong schema): always a [None], and — because decoding
   unlinks what it rejects — the file must end up gone.  A read fault
   returns [None] *before* decoding, leaving the file in place, so
   under the matrix the load re-rolls until the decoder really saw it. *)
let expect_rejected store ~stage fp =
  let path = Store.entry_path store ~stage fp in
  let rec go tries =
    Alcotest.(check (option (list string)))
      (fp ^ " rejected entry misses") None
      (Store.load store ~stage fp);
    if Sys.file_exists path && Fault.armed "store.read" && tries > 0 then
      go (tries - 1)
  in
  go 80

(* Exact-counter assertions only hold when no fault matrix is inflating
   the miss counters underneath us; the counters stay monotone, so a
   floor remains checkable. *)
let check_count name expected actual =
  if Fault.armed "store.read" || Fault.armed "store.write" then
    Alcotest.(check bool) (name ^ " (floor under faults)") true
      (actual >= expected)
  else Alcotest.(check int) name expected actual

let test_roundtrip_and_restart () =
  with_store_dir (fun dir ->
      let (), snap =
        with_stats (fun () ->
            let store = Store.create ~dir () in
            let candidates = [ "newest"; "older" ] in
            save_ok store ~stage:"pp" "fp-1" candidates;
            load_expect store ~stage:"pp" "fp-1" (Some candidates);
            load_expect store ~stage:"pp" "fp-2" None;
            (* A second store on the same directory — a process restart —
               adopts the entry from disk. *)
            let reopened = Store.create ~dir () in
            Alcotest.(check int) "entry adopted" 1 (Store.entry_count reopened);
            load_expect reopened ~stage:"pp" "fp-1" (Some candidates))
      in
      Alcotest.(check int) "store.stores" 1 (Stats.find snap "store.stores");
      Alcotest.(check int) "store.hits" 2 (Stats.find snap "store.hits");
      check_count "store.misses" 1 (Stats.find snap "store.misses"))

let test_corruption_is_a_miss () =
  with_store_dir (fun dir ->
      let (), snap =
        with_stats (fun () ->
            let store = Store.create ~dir () in
            let path = Store.entry_path store ~stage:"ir" "fp-c" in
            let save () = save_ok store ~stage:"ir" "fp-c" [ "artifact" ] in
            (* Truncation: an interrupted write could never publish this
               (rename is atomic), but a damaged disk can. *)
            save ();
            let good = read_file path in
            write_file path (String.sub good 0 (String.length good / 2));
            expect_rejected store ~stage:"ir" "fp-c";
            Alcotest.(check bool) "truncated entry unlinked" false
              (Sys.file_exists path);
            (* Bit flip in the marshalled body: the payload digest rejects
               it before unmarshalling can see it. *)
            save ();
            let flipped = Bytes.of_string good in
            let i = Bytes.length flipped - 5 in
            Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 1));
            write_file path (Bytes.to_string flipped);
            expect_rejected store ~stage:"ir" "fp-c";
            (* Mis-keyed: a valid entry file copied into another key's slot
               must not serve under that key. *)
            save ();
            let other = Store.entry_path store ~stage:"ir" "fp-other" in
            write_file other (read_file path);
            expect_rejected store ~stage:"ir" "fp-other";
            (* Once unlinked, later lookups are plain misses: the corrupt
               counter must not grow forever. *)
            load_expect store ~stage:"ir" "fp-other" None)
      in
      Alcotest.(check int) "store.corrupt" 3 (Stats.find snap "store.corrupt");
      check_count "store.misses" 4 (Stats.find snap "store.misses");
      Alcotest.(check int) "store.hits" 0 (Stats.find snap "store.hits"))

let test_schema_version_mismatch () =
  with_store_dir (fun dir ->
      let (), snap =
        with_stats (fun () ->
            let store = Store.create ~dir () in
            save_ok ~version:(Store.schema_version + 1) store ~stage:"ast"
              "fp-v" [ "artifact" ];
            let path = Store.entry_path store ~stage:"ast" "fp-v" in
            Alcotest.(check bool) "entry written" true (Sys.file_exists path);
            expect_rejected store ~stage:"ast" "fp-v";
            Alcotest.(check bool) "rejected entry unlinked" false
              (Sys.file_exists path))
      in
      Alcotest.(check int) "store.version-mismatch" 1
        (Stats.find snap "store.version-mismatch");
      Alcotest.(check int) "store.corrupt" 0 (Stats.find snap "store.corrupt"))

let test_eviction_order () =
  (* Learn one entry's on-disk size first (all payloads below are the
     same length, so every entry costs the same), then budget for three:
     saving a fourth must evict exactly the least recently used key. *)
  let payload = String.make 1000 'x' in
  let entry_size =
    with_store_dir (fun dir ->
        let probe = Store.create ~dir () in
        save_ok probe ~stage:"lex" "probe" [ payload ];
        Store.total_bytes probe)
  in
  with_store_dir (fun dir ->
      let (), snap =
        with_stats (fun () ->
            let store =
              Store.create ~dir ~max_bytes:((3 * entry_size) + (entry_size / 2)) ()
            in
            save_ok store ~stage:"lex" "a" [ payload ];
            save_ok store ~stage:"lex" "b" [ payload ];
            save_ok store ~stage:"lex" "c" [ payload ];
            Alcotest.(check int) "three entries fit" 3 (Store.entry_count store);
            (* Touch [a]: recency is now b < c < a. *)
            load_expect store ~stage:"lex" "a" (Some [ payload ]);
            save_ok store ~stage:"lex" "d" [ payload ];
            Alcotest.(check int) "still three entries" 3 (Store.entry_count store);
            load_expect store ~stage:"lex" "b" None;
            List.iter
              (fun fp -> load_expect store ~stage:"lex" fp (Some [ payload ]))
              [ "a"; "c"; "d" ])
      in
      Alcotest.(check int) "store.evictions" 1 (Stats.find snap "store.evictions"))

let test_concurrent_writers () =
  (* Two domains, each with its own handle on the same directory, write
     an overlapping key set concurrently.  Atomic publishes mean a third
     handle must afterwards read every key completely — last-writer-wins
     on the shared keys, no torn files anywhere. *)
  with_store_dir (fun dir ->
      let writer tag =
        Domain.spawn (fun () ->
            (* Scope a fresh registry: the shared default must not be
               mutated from two domains at once. *)
            Stats.with_registry (Stats.Registry.create ()) (fun () ->
                let store = Store.create ~dir () in
                for i = 1 to 10 do
                  let fp = Printf.sprintf "shared-%d" i in
                  save_ok store ~stage:"pp" fp [ "candidate-" ^ fp ];
                  let own = Printf.sprintf "%s-%d" tag i in
                  save_ok store ~stage:"pp" own [ "candidate-" ^ own ]
                done))
      in
      let a = writer "left" and b = writer "right" in
      Domain.join a;
      Domain.join b;
      let reader = Store.create ~dir () in
      Alcotest.(check int) "all keys present" 30 (Store.entry_count reader);
      let check_fp fp =
        load_expect reader ~stage:"pp" fp (Some [ "candidate-" ^ fp ])
      in
      for i = 1 to 10 do
        check_fp (Printf.sprintf "shared-%d" i);
        check_fp (Printf.sprintf "left-%d" i);
        check_fp (Printf.sprintf "right-%d" i)
      done)

(* ---- injected I/O faults -------------------------------------------- *)

(* Any file the store's write path could leak: the atomic-write tmp
   prefix, or the injected-fault tmp suffix. *)
let stray_tmp_files dir =
  let rec scan acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc f -> scan acc (Filename.concat path f))
        acc (Sys.readdir path)
    else
      let base = Filename.basename path in
      if
        String.starts_with ~prefix:".tmp." base
        || Filename.check_suffix base ".fault-tmp"
      then path :: acc
      else acc
  in
  scan [] dir

let test_read_fault_is_a_counted_miss () =
  with_store_dir (fun dir ->
      let (), snap =
        with_stats (fun () ->
            let store = Store.create ~dir () in
            save_ok store ~stage:"pp" "fp-f" [ "artifact" ];
            let path = Store.entry_path store ~stage:"pp" "fp-f" in
            Alcotest.(check bool) "entry published" true (Sys.file_exists path);
            Fault.with_armed
              [ ("store.read", 1.0, 5) ]
              (fun () ->
                (* Injected I/O error on lookup: a miss, not corruption —
                   the entry must survive on disk untouched. *)
                Alcotest.(check (option (list string)))
                  "injected read fault misses" None
                  (Store.load store ~stage:"pp" "fp-f");
                Alcotest.(check bool) "entry left intact" true
                  (Sys.file_exists path));
            (* Disarmed: the same entry serves, byte-identical. *)
            load_expect store ~stage:"pp" "fp-f" (Some [ "artifact" ]))
      in
      check_count "store.misses" 1 (Stats.find snap "store.misses");
      check_count "fault.store.read" 1 (Stats.find snap "fault.store.read");
      Alcotest.(check int) "store.corrupt" 0 (Stats.find snap "store.corrupt"))

let test_write_fault_publishes_nothing () =
  with_store_dir (fun dir ->
      let (), snap =
        with_stats (fun () ->
            let store = Store.create ~dir () in
            let path = Store.entry_path store ~stage:"ir" "fp-w" in
            Fault.with_armed
              [ ("store.write", 1.0, 6) ]
              (fun () ->
                (* Injected short write / ENOSPC mid-publish: nothing may
                   become visible — no entry, no half-written tmp. *)
                Store.save store ~stage:"ir" "fp-w" [ "artifact" ];
                Alcotest.(check bool) "no entry published" false
                  (Sys.file_exists path);
                Alcotest.(check (option (list string)))
                  "failed publish misses" None
                  (Store.load store ~stage:"ir" "fp-w");
                Alcotest.(check int) "store is consistent (no entries)" 0
                  (Store.entry_count store));
            Alcotest.(check (list string)) "no stray tmp files" []
              (stray_tmp_files dir);
            (* Disarmed: the next save publishes normally. *)
            save_ok store ~stage:"ir" "fp-w" [ "artifact" ];
            load_expect store ~stage:"ir" "fp-w" (Some [ "artifact" ]))
      in
      check_count "fault.store.write" 1 (Stats.find snap "fault.store.write");
      Alcotest.(check int) "store.stores" 1 (Stats.find snap "store.stores"))

let source =
  "void record(long x);\nint main(void) {\nlong s = 0;\n\
   for (int i = 0; i < 40; i += 1) s += i;\nrecord(s);\nreturn 0; }"

let invocation =
  { Invocation.default with Invocation.cache_enabled = true }

let test_cache_survives_restart () =
  (* The integration the store exists for: a store-backed Cache in a
     fresh process (fresh Store + Cache + Instance) serves a full-hit
     compile from disk, byte-identical to the cold one.  Under an armed
     fault matrix the hit/persistence assertions are relaxed (a fault is
     a legitimate miss), but compiles must still succeed and agree. *)
  let store_faults () =
    Fault.armed "store.read" || Fault.armed "store.write"
  in
  with_store_dir (fun dir ->
      let compile_once () =
        let cache = Cache.create ~store:(Store.create ~dir ()) () in
        let inst = Instance.create ~cache invocation in
        let c = Instance.compile inst source in
        if Mc_diag.Diagnostics.has_errors c.Instance.c_result.Driver.diag then
          Alcotest.failf "compile failed:\n%s"
            (Mc_diag.Diagnostics.render_all c.Instance.c_result.Driver.diag);
        (c, Instance.stats inst)
      in
      let cold, cold_stats = compile_once () in
      Alcotest.(check bool) "cold is a miss" false cold.Instance.c_cache_hit;
      (* Three unit-granular stages plus the per-function families: one
         fnast per top-level slice (record's prototype and main), and
         fnir/fnoptir for the one slice producing declarations. *)
      if not (store_faults ()) then
        Alcotest.(check int) "cold persisted every stage" 7
          (Stats.find cold_stats "store.stores");
      let warm, warm_stats = compile_once () in
      if not (store_faults ()) then begin
        Alcotest.(check bool) "disk-warm is a hit" true
          warm.Instance.c_cache_hit;
        Alcotest.(check string) "every stage served from disk"
          "pp:hit ast:hit ir:hit optir:hit"
          (Pipeline.render_trace warm.Instance.c_trace);
        Alcotest.(check bool) "store hits recorded" true
          (Stats.find warm_stats "store.hits" > 0)
      end;
      let ir c =
        Mc_ir.Printer.module_to_string (Option.get c.Instance.c_result.Driver.ir)
      in
      Alcotest.(check string) "byte-identical IR" (ir cold) (ir warm);
      (* A restarted daemon compiles in marshalled form: the optir body it
         forwards comes from disk and decodes to the same IR. *)
      let cache = Cache.create ~store:(Store.create ~dir ()) () in
      match
        Instance.compile_safe (Instance.create ~cache invocation) ~ir:`Marshalled
          source
      with
      | Error _ -> Alcotest.fail "marshalled compile ICEd"
      | Ok c ->
        let r = c.Instance.c_result in
        if not (store_faults ()) then
          Alcotest.(check bool) "marshalled disk-warm is a hit" true
            c.Instance.c_cache_hit;
        Alcotest.(check bool) "no module in marshalled form" true
          (r.Driver.ir = None);
        Alcotest.(check string) "disk payload decodes to the cold IR" (ir cold)
          (Mc_ir.Printer.module_to_string
             (Marshal.from_string (Option.get r.Driver.ir_payload) 0
               : Mc_ir.Ir.modul)))

let test_lost_optir_entry_reruns_passes () =
  (* A store can lose any single entry independently (LRU eviction, a
     corruption unlink) — the nasty mix is every earlier stage hitting
     while optir misses: passes then re-run over the *unmarshalled* ir
     artifact, whose instruction ids this process never allocated.
     Regression test for an id collision found by the fault harness:
     pass-created instructions drew from a rewound counter and
     cross-wired the id-keyed def-use maps (IR verification failure
     after mem2reg).  Fixed by claiming each cached slice module's id
     watermark (Ir.claim_up_to) before its passes run. *)
  let store_faults () =
    Fault.armed "store.read" || Fault.armed "store.write"
  in
  with_store_dir (fun dir ->
      let compile_once () =
        let cache = Cache.create ~store:(Store.create ~dir ()) () in
        let inst = Instance.create ~cache invocation in
        let c = Instance.compile inst source in
        if Mc_diag.Diagnostics.has_errors c.Instance.c_result.Driver.diag then
          Alcotest.failf "compile failed:\n%s"
            (Mc_diag.Diagnostics.render_all c.Instance.c_result.Driver.diag);
        c
      in
      let cold = compile_once () in
      (* Lose the post-pass entries, exactly as eviction would: the unit
         optir artifact and the per-function fnoptir ones (losing only
         the former would be served back by a relink from the latter). *)
      List.iter
        (fun stage ->
          let d =
            Filename.concat
              (Filename.concat dir (Printf.sprintf "v%d" Store.schema_version))
              stage
          in
          if Sys.file_exists d then
            Array.iter
              (fun f -> Sys.remove (Filename.concat d f))
              (Sys.readdir d))
        [ "optir"; "fnoptir" ];
      let warm = compile_once () in
      if not (store_faults ()) then
        Alcotest.(check string) "frontend from disk, passes re-run"
          "pp:hit ast:hit ir:hit optir:run"
          (Pipeline.render_trace warm.Instance.c_trace);
      let ir c =
        Mc_ir.Printer.module_to_string
          (Option.get c.Instance.c_result.Driver.ir)
      in
      Alcotest.(check string) "byte-identical IR after re-running passes"
        (ir cold) (ir warm))

(* Remove every entry of the given stages, as eviction would. *)
let purge dir stages =
  List.iter
    (fun stage ->
      let d =
        Filename.concat
          (Filename.concat dir (Printf.sprintf "v%d" Store.schema_version))
          stage
      in
      if Sys.file_exists d then
        Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d))
    stages

(* The definition of a builtin's name: its slice is never stored as a
   fnast artifact. *)
let builtin_stub =
  "void record(long x);\n\
   int omp_get_thread_num(void) { return 0; }\n\
   int main(void) { record(omp_get_thread_num() + 5); return 0; }\n"

let test_missing_manifest_member_is_a_counted_miss () =
  (* The unit "ast" artifact names per-slice fnast members, from which
     the fnir keys derive.  With the members gone, a rebuild that hits the
     manifest and then needs a member must count a miss and rebuild the
     member — no ICE, and the IR of an uncached compile. *)
  List.iter
    (fun (unit_label, src) ->
      with_store_dir (fun dir ->
          let compile inv =
            let cache = Cache.create ~store:(Store.create ~dir ()) () in
            match Instance.compile_safe (Instance.create ~cache inv) src with
            | Ok c ->
              if Mc_diag.Diagnostics.has_errors c.Instance.c_result.Driver.diag
              then
                Alcotest.failf "%s: compile failed:\n%s" unit_label
                  (Mc_diag.Diagnostics.render_all
                     c.Instance.c_result.Driver.diag);
              c
            | Error f ->
              Alcotest.failf "%s: internal compiler error: %s" unit_label
                f.Instance.f_ice.Mc_support.Crash_recovery.ice_exn
          in
          let ir c =
            Mc_ir.Printer.module_to_string
              (Option.get c.Instance.c_result.Driver.ir)
          in
          ignore (compile invocation);
          purge dir [ "fnast"; "fnir" ];
          List.iter
            (fun (label, inv, stage) ->
              let warm = compile inv in
              let uncached =
                compile { inv with Invocation.cache_enabled = false }
              in
              Alcotest.(check string)
                (Printf.sprintf "%s, %s: IR equals an uncached compile"
                   unit_label label)
                (ir uncached) (ir warm);
              let stat name = Stats.find warm.Instance.c_result.Driver.stats name in
              check_count
                (Printf.sprintf "%s, %s: cache.%s-misses" unit_label label
                   stage)
                1
                (stat ("cache." ^ stage ^ "-misses")))
            [
              ("fold off (ast hits, ir misses)",
               { invocation with Invocation.fold = false }, "ast");
              ("-O0 (ast hits, optir misses)",
               { invocation with Invocation.opt_level = 0 }, "fnir");
            ]))
    [ ("loop unit", source); ("builtin stub", builtin_stub) ]

let test_older_schemas_removed () =
  with_store_dir (fun dir ->
      let put tree contents =
        let path = List.fold_left Filename.concat dir [ tree; "ast"; "x" ] in
        Binio.mkdir_p (Filename.dirname path);
        write_file path contents;
        path
      in
      let entry version =
        Binio.frame ~magic:"MCST" ~version (String.make 40 'e')
      in
      let tree version = Printf.sprintf "v%d" version in
      let older =
        put (tree (Store.schema_version - 1))
          (entry (Store.schema_version - 1))
      in
      let newer =
        put (tree (Store.schema_version + 1))
          (entry (Store.schema_version + 1))
      in
      (* An older version's name over something the store did not write. *)
      let foreign = put "v1" "not a store entry" in
      ignore (Store.create ~dir ());
      Alcotest.(check bool) "older schema tree removed" false
        (Sys.file_exists (Filename.dirname (Filename.dirname older)));
      Alcotest.(check bool) "newer schema tree left alone" true
        (Sys.file_exists newer);
      Alcotest.(check bool) "foreign v1 tree left alone" true
        (Sys.file_exists foreign))

let test_batch_domains_share_store () =
  (* Batch worker domains write through one store-backed cache; a fresh
     cache over the same directory then serves the whole batch warm. *)
  let store_faults () =
    Fault.armed "store.read" || Fault.armed "store.write"
  in
  with_store_dir (fun dir ->
      let inputs =
        List.init 6 (fun i ->
            ( Printf.sprintf "u%d.c" i,
              Printf.sprintf
                "void record(long x);\nint main(void) { long s = 0;\n\
                 for (int i = 0; i < %d; i += 1) s += i;\nrecord(s);\nreturn 0; }"
                (10 + i) ))
      in
      let cache = Cache.create ~store:(Store.create ~dir ()) () in
      let cold = Batch.compile ~jobs:2 ~cache ~invocation inputs in
      Alcotest.(check bool) "cold all ok" true (Batch.all_ok cold);
      Alcotest.(check int) "cold: no hits" 0 (Batch.hits cold);
      let fresh = Cache.create ~store:(Store.create ~dir ()) () in
      let warm = Batch.compile ~jobs:2 ~cache:fresh ~invocation inputs in
      Alcotest.(check bool) "warm all ok" true (Batch.all_ok warm);
      if not (store_faults ()) then
        Alcotest.(check int) "warm: all hits from disk" (List.length inputs)
          (Batch.hits warm))

let suite =
  [
    tc "round-trip and restart adoption" test_roundtrip_and_restart;
    tc "corrupt entries are misses" test_corruption_is_a_miss;
    tc "schema-version mismatch rejects" test_schema_version_mismatch;
    tc "LRU eviction order" test_eviction_order;
    tc "concurrent writers publish atomically" test_concurrent_writers;
    tc "read fault is a counted miss, entry intact"
      test_read_fault_is_a_counted_miss;
    tc "write fault publishes nothing" test_write_fault_publishes_nothing;
    tc "store-backed cache survives restart" test_cache_survives_restart;
    tc "lost optir entry re-runs passes on cached ir"
      test_lost_optir_entry_reruns_passes;
    tc "missing manifest member is a counted miss"
      test_missing_manifest_member_is_a_counted_miss;
    tc "older schema trees removed on open" test_older_schemas_removed;
    tc "batch domains share one store" test_batch_domains_share_store;
  ]
