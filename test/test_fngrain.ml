(* Function-granular incremental compilation suite: per-slice artifact
   reuse on body edits (traces, counters, fn-trace), byte-identity of
   relinked IR against a cold compile in both codegen modes, reuse
   across a persistent-store restart and through a warm daemon, ICE
   isolation at function granularity, and the string interner. *)

open Helpers
module Driver = Mc_core.Driver
module Pipeline = Mc_core.Pipeline
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Cache = Mc_core.Cache
module Store = Mc_core.Store
module Server = Mc_core.Server
module Client = Mc_core.Client
module Protocol = Mc_core.Protocol
module Stats = Mc_support.Stats
module Fault = Mc_support.Fault
module Intern = Mc_support.Intern
module Binio = Mc_support.Binio

(* Six top-level slices — record's prototype, four workers, main — with
   [edit] expanding only inside w2's body, so a "body edit" invalidates
   exactly one slice's artifacts. *)
let unit_with ~edit =
  Printf.sprintf
    "void record(long x);\n\
     long w0(int n) { long a = 0; for (int i = 0; i < n + 9; i += 1) a += i; \
     return a; }\n\
     long w1(int n) {\n\
     long a = 1;\n\
     #pragma omp unroll partial(4)\n\
     for (int i = 0; i < 40; i += 1) a += i * n;\n\
     return a; }\n\
     long w2(int n) { long a = %d; for (int i = 0; i < n + 7; i += 1) a += i \
     * 3; return a; }\n\
     long w3(int n) { long a = 3; for (int i = 0; i < n + 5; i += 1) a += i - \
     n; return a; }\n\
     int main(void) { record(w0(3) + w1(3) + w2(3) + w3(3)); return 0; }\n"
    edit

let base = unit_with ~edit:2
let edited = unit_with ~edit:77

let cached_invocation =
  { Invocation.default with Invocation.cache_enabled = true }

let compile inst ?name src =
  let c = Instance.compile inst ?name src in
  if Mc_diag.Diagnostics.has_errors c.Instance.c_result.Driver.diag then
    Alcotest.failf "compile failed:\n%s"
      (Mc_diag.Diagnostics.render_all c.Instance.c_result.Driver.diag);
  c

let trace_of (c : Instance.compilation) =
  Pipeline.render_trace c.Instance.c_trace

let counter (c : Instance.compilation) name =
  try Stats.find c.Instance.c_result.Driver.stats name with Not_found -> 0

let ir_text (c : Instance.compilation) =
  Mc_ir.Printer.module_to_string (Option.get c.Instance.c_result.Driver.ir)

let run_trace inst (c : Instance.compilation) =
  match Instance.run inst c.Instance.c_result with
  | Ok o -> trace_to_string o.Mc_interp.Interp.trace
  | Error e -> Alcotest.failf "run failed: %s" e

(* ---- body edit: one slice re-runs, the rest relink ----------------------- *)

let test_body_edit_is_function_granular () =
  List.iter
    (fun (base, edited, fn_trace, adopted) ->
      let inst = Instance.create cached_invocation in
      ignore (compile inst base);
      let c = compile inst edited in
      Alcotest.(check string) "every stage partial"
        "pp:run ast:partial ir:partial optir:partial" (trace_of c);
      Alcotest.(check string) "only the edited function re-ran" fn_trace
        (Pipeline.render_fn_trace c.Instance.c_fn_trace);
      Alcotest.(check int) "sibling slices adopted" adopted
        (counter c "cache.fn-hits");
      Alcotest.(check int) "one slice re-parsed" 1
        (counter c "cache.fn-misses");
      Alcotest.(check bool) "sibling functions relinked" true
        (counter c "cache.fn-relinks" > 0);
      (* The relinked unit is behaviourally the edited program, not a
         stale mix: a cold compile of the edited source agrees exactly. *)
      let fresh = Instance.create Invocation.default in
      let cold = compile fresh edited in
      Alcotest.(check string) "same execution trace" (run_trace fresh cold)
        (run_trace inst c))
    [
      (base, edited, "<decl>:hit w0:hit w1:hit w2:run w3:hit main:hit", 5);
      ( wide_unit ~edit:11,
        wide_unit ~edit:99,
        String.concat " "
          (("<decl>:hit"
           :: List.init 24 (fun fn ->
                  Printf.sprintf "w%d:%s" fn (if fn = 11 then "run" else "hit"))
           )
          @ [ "main:hit" ]),
        25 );
    ]

let test_warm_ir_byte_identical_both_modes () =
  List.iter
    (fun use_irbuilder ->
      let label = if use_irbuilder then "irbuilder" else "classic" in
      let inv = { cached_invocation with Invocation.use_irbuilder } in
      let inst = Instance.create inv in
      ignore (compile inst base);
      let warm = compile inst edited in
      let cold =
        compile
          (Instance.create { Invocation.default with Invocation.use_irbuilder })
          edited
      in
      Alcotest.(check string)
        (label ^ ": body-edit-warm IR == cold IR")
        (ir_text cold) (ir_text warm))
    [ false; true ]

(* ---- persistent store: per-function reuse across a restart --------------- *)

let temp_dir () =
  let path = Filename.temp_file "mcc-fngrain-test" "" in
  Sys.remove path;
  Binio.mkdir_p path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let store_faults () = Fault.armed "store.read" || Fault.armed "store.write"

let test_store_restart_reuses_functions () =
  (* "Restart" = a fresh Store + Cache + Instance over the same
     directory: the per-function artifacts must come back from disk, so
     a body edit in the new process still re-runs only the edited
     function.  Under an armed fault matrix the reuse assertions are
     relaxed (a fault is a legitimate miss); correctness never is. *)
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      let instance () =
        Instance.create
          ~cache:(Cache.create ~store:(Store.create ~dir ()) ())
          cached_invocation
      in
      ignore (compile (instance ()) base);
      let inst = instance () in
      let warm = compile inst edited in
      if not (store_faults ()) then begin
        Alcotest.(check string) "disk-warm body edit is partial"
          "pp:run ast:partial ir:partial optir:partial"
          (trace_of warm);
        Alcotest.(check int) "five slices served from disk" 5
          (counter warm "cache.fn-hits")
      end;
      let cold = compile (Instance.create Invocation.default) edited in
      Alcotest.(check string) "byte-identical IR across the restart"
        (ir_text cold) (ir_text warm))

(* ---- warm paths read only what they use ---------------------------------- *)

let lookups c stage =
  counter c ("cache." ^ stage ^ "-hits") + counter c ("cache." ^ stage ^ "-misses")

let test_warm_paths_read_only_what_they_use () =
  (* A rebuild reads the per-slice artifacts only of the slices whose
     stages must run: none on a same-source rebuild, whose three unit
     artifacts (pp, ast, optir) are all it reads, and for a body edit one
     fnir lookup, the edited slice's miss.  It writes only what changed:
     for a body edit the edited slice's fnast, fnir and fnoptir and the
     unit pp, ast and optir.  Each compile runs in a fresh process over
     the same store, so every read comes from disk. *)
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      let compile_fresh src =
        compile
          (Instance.create
             ~cache:(Cache.create ~store:(Store.create ~dir ()) ())
             cached_invocation)
          src
      in
      let base = wide_unit ~edit:11 and edited = wide_unit ~edit:99 in
      ignore (compile_fresh base);
      let same = compile_fresh base in
      let edit = compile_fresh edited in
      if not (store_faults ()) then begin
        Alcotest.(check string) "same source: every stage hit"
          "pp:hit ast:hit ir:hit optir:hit" (trace_of same);
        List.iter
          (fun stage ->
            Alcotest.(check int)
              ("same source: no " ^ stage ^ " lookup")
              0 (lookups same stage))
          [ "fnast"; "fnir"; "fnoptir" ];
        Alcotest.(check int) "same source: three store hits" 3
          (counter same "store.hits");
        Alcotest.(check string) "body edit: every stage partial"
          "pp:run ast:partial ir:partial optir:partial" (trace_of edit);
        Alcotest.(check int) "body edit: one fnir lookup" 1
          (lookups edit "fnir");
        Alcotest.(check int) "body edit: the edited slice's miss" 1
          (counter edit "cache.fnir-misses");
        Alcotest.(check int) "body edit: six store writes" 6
          (counter edit "store.stores")
      end;
      let cold src = compile (Instance.create Invocation.default) src in
      Alcotest.(check string) "same source: IR equals a cold compile"
        (ir_text (cold base)) (ir_text same);
      Alcotest.(check string) "body edit: IR equals a cold compile"
        (ir_text (cold edited)) (ir_text edit))

(* ---- daemon: a warm mccd re-runs only the edited function ---------------- *)

let tolerant = Sys.getenv_opt "MCC_FAULTS" <> None

let rec retrying ?(tries = 40) f =
  match f () with
  | Ok v -> v
  | Error msg ->
    if tolerant && tries > 0 then begin
      Unix.sleepf 0.01;
      retrying ~tries:(tries - 1) f
    end
    else Alcotest.failf "%s" msg

let with_daemon f =
  let socket_path = Filename.temp_file "mccd-fngrain" ".sock" in
  Sys.remove socket_path;
  let stop = Atomic.make false in
  let config =
    {
      Server.default_config with
      Server.socket_path;
      pool_size = 1;
      idle_timeout = Some 60.0;
    }
  in
  let server = Domain.spawn (fun () -> Server.run ~stop config) in
  let rec await n =
    if n = 0 then Alcotest.fail "daemon socket never appeared";
    if not (Sys.file_exists socket_path) then begin
      Unix.sleepf 0.02;
      await (n - 1)
    end
  in
  await 250;
  let result =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () -> f socket_path)
  in
  match Domain.join server with
  | Ok _ -> result
  | Error e -> Alcotest.failf "server failed: %s" e

let test_daemon_body_edit_reuses_functions () =
  with_daemon (fun socket_path ->
      let inv =
        { Invocation.default with
          Invocation.cache_enabled = true;
          gen_reproducer = false;
        }
      in
      let roundtrip src =
        retrying (fun () ->
            match Client.compile ~socket_path inv [ ("incr.c", src) ] with
            | Error e -> Error ("round-trip failed: " ^ e)
            | Ok { Client.response = Protocol.Resp_units { p_units; p_stats; _ };
                   _ } -> (
              match p_units with
              | [ ({ Protocol.r_outcome = Protocol.R_ok { ok_errors = false; _ };
                     _ } as u) ] ->
                Ok (u, p_stats)
              | _ -> Error "unexpected response units")
            | Ok _ -> Error "unexpected response shape")
      in
      ignore (roundtrip base);
      let u, stats = roundtrip edited in
      let stat name = try Stats.find stats name with Not_found -> 0 in
      if not tolerant then begin
        Alcotest.(check string) "daemon body edit is partial"
          "pp:run ast:partial ir:partial optir:partial"
          (Pipeline.render_trace u.Protocol.r_trace);
        Alcotest.(check int) "five slices reused by the daemon" 5
          (stat "cache.fn-hits");
        Alcotest.(check int) "one slice re-run by the daemon" 1
          (stat "cache.fn-misses")
      end
      else begin
        (* Under faults a retried request may legitimately miss more
           slices; reuse stays monotone, correctness unconditional. *)
        Alcotest.(check bool) "daemon reused at least one slice" true
          (stat "cache.fn-hits" > 0)
      end)

(* ---- ICE isolation at function granularity ------------------------------- *)

let test_ice_never_caches_siblings_reusable () =
  let boom body =
    Printf.sprintf
      "void record(long x);\n\
       long w0(int n) { return n + 1; }\n\
       long w1(int n) { return n * 2; }\n\
       long boom(int n) {\n\
       %s\n\
       return n; }\n\
       long w2(int n) { return n - 3; }\n\
       int main(void) { record(w0(1) + w1(2) + boom(3) + w2(4)); return 0; }\n"
      body
  in
  let crashing = boom "#pragma clang __debug crash" in
  let fixed = boom "n += 1;" in
  let cache = Cache.create () in
  let inst =
    Instance.create ~cache
      { cached_invocation with Invocation.gen_reproducer = false }
  in
  (match Instance.compile_safe inst crashing with
  | Ok _ -> Alcotest.fail "deliberate ICE was not contained"
  | Error f ->
    Alcotest.(check string) "ICE phase" "parse-sema"
      f.Instance.f_ice.Mc_support.Crash_recovery.ice_phase);
  (* The slices parsed before the crash were clean and stay cached; the
     crashing slice and everything at or past it never stored, and no
     unit-level or backend artifact exists at all. *)
  Alcotest.(check int) "pre-crash slices cached" 3
    (Cache.stage_length cache ~stage:"fnast");
  List.iter
    (fun stage ->
      Alcotest.(check int) (stage ^ " empty after ICE") 0
        (Cache.stage_length cache ~stage))
    [ "ast"; "optir"; "fnir"; "fnoptir" ];
  (* Fixing the crashing function reuses the pre-crash siblings. *)
  let c = compile inst fixed in
  Alcotest.(check string) "pre-crash siblings adopted"
    "<decl>:hit w0:hit w1:hit boom:run w2:run main:run"
    (Pipeline.render_fn_trace c.Instance.c_fn_trace);
  Alcotest.(check string) "recovery compile is partial"
    "pp:run ast:partial ir:run optir:run" (trace_of c);
  (* And the recovered unit matches a cold compile exactly. *)
  let cold = compile (Instance.create Invocation.default) fixed in
  Alcotest.(check string) "byte-identical IR after recovery" (ir_text cold)
    (ir_text c)

(* ---- one algorithm: uncached and cached compiles agree ------------------ *)

(* Outlined regions in two functions, one with a dynamic-schedule dispatch
   loop: outlined-function names and dispatch-site ids are numbered per
   slice, with or without a cache. *)
let two_parallel_fns =
  "void record(long x);\n\
   long f(int n) {\n\
   long a[8];\n\
   #pragma omp parallel for\n\
   for (int i = 0; i < 8; i += 1) a[i] = i * n;\n\
   return a[0] + a[7]; }\n\
   long g(int n) {\n\
   long b[8];\n\
   #pragma omp parallel for schedule(dynamic)\n\
   for (int i = 0; i < 8; i += 1) b[i] = i + n;\n\
   return b[1] + b[6]; }\n\
   int main(void) { record(f(2) + g(3)); return 0; }\n"

let test_uncached_equals_cached_ir () =
  List.iter
    (fun use_irbuilder ->
      let label = if use_irbuilder then "irbuilder" else "classic" in
      let inv = { Invocation.default with Invocation.use_irbuilder } in
      let uncached = compile (Instance.create inv) two_parallel_fns in
      let cached =
        compile
          (Instance.create { inv with Invocation.cache_enabled = true })
          two_parallel_fns
      in
      Alcotest.(check string)
        (label ^ ": uncached IR == cached IR")
        (ir_text uncached) (ir_text cached))
    [ false; true ]

(* A prototype, a caller, then the definition: the definition is merged
   with every slice back to its prototype, so sema's write of the body
   into the prototype's record stays inside one slice and the unit stays
   function granular.  [edit] expands only inside h's body, outside the
   merged range; [inner] inside g's, within it. *)
let proto_unit ?(inner = 0) ~edit () =
  Printf.sprintf
    "void record(long x);\n\
     long g(int n);\n\
     long f(int n) { return g(n) + 1; }\n\
     long g(int n) { long a = %d; for (int i = 0; i < n; i += 1) a += i; \
     return a; }\n\
     long h(int n) { long a = %d; for (int i = 0; i < n; i += 1) a += i * \
     2; return a; }\n\
     int main(void) { record(f(4) + h(5)); return 0; }\n"
    inner edit

let test_prototype_then_definition_is_granular () =
  let inst = Instance.create cached_invocation in
  let first = compile inst (proto_unit ~edit:1 ()) in
  Alcotest.(check string) "cold: prototype, caller and definition share a slice"
    "<decl>:run f+g:run h:run main:run"
    (Pipeline.render_fn_trace first.Instance.c_fn_trace);
  let edited = proto_unit ~edit:40 () in
  let c = compile inst edited in
  Alcotest.(check string) "only h re-ran" "<decl>:hit f+g:hit h:run main:hit"
    (Pipeline.render_fn_trace c.Instance.c_fn_trace);
  Alcotest.(check string) "every stage partial"
    "pp:run ast:partial ir:partial optir:partial" (trace_of c);
  let cold = compile (Instance.create Invocation.default) edited in
  Alcotest.(check string) "IR equals a cold compile" (ir_text cold) (ir_text c);
  (* A body edit inside the merged range re-runs that slice, and re-keys
     every later one: a merged slice's interface includes its bodies. *)
  let inner = proto_unit ~inner:7 ~edit:40 () in
  let c = compile inst inner in
  Alcotest.(check string) "in-range edit: earlier reused, later re-keyed"
    "<decl>:hit f+g:run h:run main:run"
    (Pipeline.render_fn_trace c.Instance.c_fn_trace);
  let cold = compile (Instance.create Invocation.default) inner in
  Alcotest.(check string) "in-range edit: IR equals a cold compile"
    (ir_text cold) (ir_text c)

(* A definition of a builtin's name (a serial stub) gives the builtin's
   own record a body, as the whole stream would: the unit compiles, the
   runtime builtin still answers the call, and uncached and cached agree.
   That body lives in no decl, so its slice is never stored: a later
   redefinition stays an error on a warm cache. *)
let builtin_stub =
  "void record(long x);\n\
   int omp_get_thread_num(void) { return 0; }\n\
   int main(void) { record(omp_get_thread_num() + 5); return 0; }\n"

let builtin_twice =
  "void record(long x);\n\
   int omp_get_thread_num(void) { return 0; }\n\
   int omp_get_thread_num(void) { return 1; }\n\
   int main(void) { record(omp_get_thread_num() + 5); return 0; }\n"

let test_builtin_definition_compiles () =
  let uncached_inst = Instance.create Invocation.default in
  let uncached = compile uncached_inst builtin_stub in
  Alcotest.(check string) "runs" "5" (run_trace uncached_inst uncached);
  let cache = Cache.create () in
  let inst = Instance.create ~cache cached_invocation in
  List.iter
    (fun pass ->
      let c = compile inst builtin_stub in
      Alcotest.(check string) (pass ^ ": IR equals uncached") (ir_text uncached)
        (ir_text c))
    [ "cold"; "warm" ];
  let render src inst =
    Mc_diag.Diagnostics.render_all
      (Instance.compile inst src).Instance.c_result.Driver.diag
  in
  let expected = render builtin_twice (Instance.create Invocation.default) in
  if not (contains_substring expected "redefinition of 'omp_get_thread_num'")
  then Alcotest.failf "no redefinition error:\n%s" expected;
  Alcotest.(check string) "redefinition on a warm cache" expected
    (render builtin_twice inst)

(* A file-scope error in the first function: later slices are still
   parsed (the unsplit stream's recovery would skip to end of file), the
   diagnostics are exactly the error's, and nothing from the parse stage
   onward is cached. *)
let erroneous_first =
  "widget broken(int n) { return n; }\n\
   long w0(int n) { return n + 1; }\n\
   int main(void) { return (int)w0(1); }\n"

let test_erroneous_slice_keeps_later_functions () =
  let cache = Cache.create () in
  let inst = Instance.create ~cache cached_invocation in
  let c = Instance.compile inst ~name:"err.c" erroneous_first in
  let diag = c.Instance.c_result.Driver.diag in
  Alcotest.(check string) "diagnostics"
    "err.c:1:1: error: expected a declaration at file scope\n\
     widget broken(int n) { return n; }\n\
     ^\n"
    (Mc_diag.Diagnostics.render_all diag);
  Alcotest.(check string) "every slice parsed" "broken:run w0:run main:run"
    (Pipeline.render_fn_trace c.Instance.c_fn_trace);
  List.iter
    (fun stage ->
      Alcotest.(check int) (stage ^ " not stored") 0
        (Cache.stage_length cache ~stage))
    [ "ast"; "fnast"; "fnir"; "optir"; "fnoptir"; "fnanalysis" ];
  let dump = Driver.ast_dump erroneous_first in
  List.iter
    (fun fn ->
      if not (contains_substring dump ("FunctionDecl " ^ fn ^ " ")) then
        Alcotest.failf "-ast-dump lost %s:\n%s" fn dump)
    [ "w0"; "main" ]

(* ---- string interner ------------------------------------------------------ *)

let test_interner_shares_strings () =
  let a = Intern.share "fngrain_ident" in
  let b = Intern.share (String.concat "_" [ "fngrain"; "ident" ]) in
  Alcotest.(check bool) "same physical string" true (a == b);
  Alcotest.(check bool) "id is stable" true
    (Intern.id "fngrain_ident" = Intern.id b);
  Alcotest.(check bool) "to_string returns the canonical copy" true
    (Intern.to_string (Intern.id a) == a);
  (* Lexing the same unit twice yields identifier spellings that are
     physically shared across compilations (the property that shrinks
     marshalled per-function artifacts). *)
  let idents src =
    let diag, tu = Driver.frontend src in
    Alcotest.(check bool) "frontend clean" false
      (Mc_diag.Diagnostics.has_errors diag);
    List.filter_map
      (function
        | Mc_ast.Tree.Tu_fn fn -> Some fn.Mc_ast.Tree.fn_name
        | Mc_ast.Tree.Tu_var _ -> None)
      tu.Mc_ast.Tree.tu_decls
  in
  let first = idents base and second = idents base in
  Alcotest.(check bool) "function names physically shared" true
    (List.for_all2 (fun a b -> a == b) first second)

let suite =
  [
    tc "body edit re-runs only the edited function"
      test_body_edit_is_function_granular;
    tc "body-edit-warm IR byte-identical to cold (both modes)"
      test_warm_ir_byte_identical_both_modes;
    tc "per-function reuse survives a store restart"
      test_store_restart_reuses_functions;
    tc "warm paths read only what they use"
      test_warm_paths_read_only_what_they_use;
    tc "warm daemon re-runs only the edited function"
      test_daemon_body_edit_reuses_functions;
    tc "ICE in one function never caches; siblings reusable"
      test_ice_never_caches_siblings_reusable;
    tc "uncached and cached IR agree (outlined regions in two functions)"
      test_uncached_equals_cached_ir;
    tc "prototype, caller, definition: granular, no restart"
      test_prototype_then_definition_is_granular;
    tc "erroneous slice: later functions parsed, nothing cached"
      test_erroneous_slice_keeps_later_functions;
    tc "definition of a builtin's name: compiles, uncached and cached"
      test_builtin_definition_compiles;
    tc "interner shares identifier spellings"
      test_interner_shares_strings;
  ]
