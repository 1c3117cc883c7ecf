(* Validated resource limits: -floop-nest-limit and -fbracket-depth are in
   no option slice.  The AST manifest and each fnast artifact record the
   demand their parse made on the two limits, and a lookup is valid only
   under limits that cover it.  Checked in both directions: a switch that
   binds nothing is a full hit with the IR of an uncached compile (in
   process, over a store in a fresh cache, at -j 4), and a limit that
   binds diagnoses exactly as an uncached compile, counts invalidations
   and stores nothing. *)

open Helpers
module Pipeline = Mc_core.Pipeline
module Invocation = Mc_core.Invocation
module Instance = Mc_core.Instance
module Batch = Mc_core.Batch
module Cache = Mc_core.Cache
module Stats = Mc_support.Stats
module Fault = Mc_support.Fault
module Differential = Mc_fuzz.Differential
module Rng = Mc_fuzz.Fuzz.Rng

(* Demand: loop nest 2 (the tile), bracket depth 7 (main's body, the
   directive, two loops, the statement and its operands). *)
let source =
  "void record(long x);\nlong twice(long v) { return v + v; }\n\
   int main(void) {\nlong s = 0;\n\
   #pragma omp tile sizes(2, 2)\n\
   for (int i = 0; i < 8; i += 1)\n\
   for (int j = 0; j < 8; j += 1) s += twice(i * j);\n\
   record(s);\nreturn 0; }\n"

let invocation ?(nest = Invocation.default.Invocation.loop_nest_limit)
    ?(bracket = Invocation.default.Invocation.bracket_depth) cache_enabled =
  {
    Invocation.default with
    Invocation.cache_enabled;
    loop_nest_limit = nest;
    bracket_depth = bracket;
    gen_reproducer = false;
  }

let compile ?cache ?nest ?bracket src =
  Instance.compile
    (Instance.create ?cache (invocation ?nest ?bracket (cache <> None)))
    ~name:"m.c" src

let uncached ?nest ?bracket src = compile ?nest ?bracket src
let render (c : Instance.compilation) = Diag.render_all c.Instance.c_result.Driver.diag
let has_errors (c : Instance.compilation) = Diag.has_errors c.Instance.c_result.Driver.diag

let ir_text (c : Instance.compilation) =
  Option.map Mc_ir.Printer.module_to_string c.Instance.c_result.Driver.ir

let counter (c : Instance.compilation) name =
  Stats.find c.Instance.c_result.Driver.stats name

let trace (c : Instance.compilation) = Pipeline.render_trace c.Instance.c_trace

(* The least bracket depth an uncached compile of [src] runs under without
   a [-fbracket-depth] diagnostic: the unit's bracket demand. *)
let bracket_demand src =
  let binds b =
    contains_substring (render (uncached ~bracket:b src)) "[-fbracket-depth="
  in
  let rec search lo hi = (* binds (lo - 1), not (binds hi) *)
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if binds mid then search (mid + 1) hi else search lo mid
  in
  search 1 Invocation.default.Invocation.bracket_depth

let check_same_as_uncached ~what ?nest ?bracket (c : Instance.compilation) src =
  let u = uncached ?nest ?bracket src in
  Alcotest.(check string) (what ^ ": diagnostics") (render u) (render c);
  Alcotest.(check bool) (what ^ ": exit status") (has_errors u) (has_errors c);
  Alcotest.(check (option string)) (what ^ ": IR") (ir_text u) (ir_text c)

let test_demand_of_the_fixture () =
  Alcotest.(check int) "bracket demand" 7 (bracket_demand source);
  Alcotest.(check bool) "nest demand 2: 1 binds" true
    (has_errors (uncached ~nest:1 source));
  Alcotest.(check bool) "nest demand 2: 2 covers" false
    (has_errors (uncached ~nest:2 source))

let test_non_binding_switch_is_a_full_hit () =
  let cache = Cache.create () in
  ignore (compile ~cache source);
  List.iter
    (fun (what, nest, bracket) ->
      let c = compile ~cache ?nest ?bracket source in
      Alcotest.(check string) (what ^ ": trace")
        "pp:hit ast:hit ir:hit optir:hit" (trace c);
      Alcotest.(check int) (what ^ ": cache.hits") 1 (counter c "cache.hits");
      Alcotest.(check int) (what ^ ": nothing lexed") 0
        (counter c "lexer.tokens-lexed");
      check_same_as_uncached ~what ?nest ?bracket c source)
    [
      ("-floop-nest-limit=8", Some 8, None);
      ("-floop-nest-limit=2", Some 2, None);
      ("-fbracket-depth=7", None, Some 7);
      ("-fbracket-depth=1000", None, Some 1000);
      ("both at the demand", Some 2, Some 7);
    ]

(* A limit that binds: the lookups that cannot cover it are
   invalidations, the parse diagnoses as an uncached one does, nothing is
   stored, and a covering limit afterwards is a full hit again. *)
let check_binding ~what ?nest ?bracket () =
  let cache = Cache.create () in
  ignore (compile ~cache source);
  let stored = Cache.length cache in
  let c = compile ~cache ?nest ?bracket source in
  Alcotest.(check bool) (what ^ ": diagnosed") true (has_errors c);
  check_same_as_uncached ~what ?nest ?bracket c source;
  Alcotest.(check int) (what ^ ": ast invalidation") 1
    (counter c "cache.ast-invalidations");
  Alcotest.(check int) (what ^ ": fnast invalidation (main's slice)") 1
    (counter c "cache.fnast-invalidations");
  Alcotest.(check bool) (what ^ ": not a hit") false c.Instance.c_cache_hit;
  Alcotest.(check int) (what ^ ": nothing stored") stored (Cache.length cache);
  let back = compile ~cache source in
  Alcotest.(check string) (what ^ ": a covering limit hits again")
    "pp:hit ast:hit ir:hit optir:hit" (trace back)

let test_binding_loop_nest_limit () =
  check_binding ~what:"-floop-nest-limit=1" ~nest:1 ()

let test_binding_bracket_depth () =
  check_binding ~what:"-fbracket-depth=6" ~bracket:6 ()

let store_faults () = Fault.armed "store.read" || Fault.armed "store.write"

(* Across processes: each compile parses its own argv, as [mcc] does, and
   gets a fresh cache over the store.  Then a batch at -j 4. *)
let test_non_binding_switch_over_a_store () =
  Test_store.with_store_dir (fun dir ->
      let argv flags =
        match
          Invocation.of_argv
            (Array.of_list (("mcc" :: "--cache-dir" :: dir :: flags) @ [ "m.c" ]))
        with
        | Ok inv -> inv
        | Error e -> Alcotest.failf "argv: %s" e
      in
      let run flags =
        Instance.compile (Instance.create (argv flags)) ~name:"m.c" source
      in
      ignore (run []);
      let c = run [ "-floop-nest-limit=8"; "-fbracket-depth=7" ] in
      if not (store_faults ()) then
        Alcotest.(check string) "a fresh process: full hit"
          "pp:hit ast:hit ir:hit optir:hit" (trace c);
      check_same_as_uncached ~what:"a fresh process" ~nest:8 ~bracket:7 c
        source;
      let c = run [ "-floop-nest-limit=1" ] in
      check_same_as_uncached ~what:"a fresh process, binding" ~nest:1 c source;
      let inputs =
        List.init 6 (fun i ->
            ( Printf.sprintf "u%d.c" i,
              Printf.sprintf
                "void record(long x);\nint main(void) {\nlong s = 0;\n\
                 #pragma omp tile sizes(2, %d)\n\
                 for (int i = 0; i < 8; i += 1)\n\
                 for (int j = 0; j < 8; j += 1) s += i * j;\n\
                 record(s);\nreturn 0; }\n"
                (i + 2) ))
      in
      let irs batch =
        List.map
          (fun u ->
            match u.Batch.u_result with
            | Ok r -> Mc_ir.Printer.module_to_string (Option.get r.Driver.ir)
            | Error _ -> Alcotest.failf "%s ICEd" u.Batch.u_name)
          batch.Batch.units
      in
      let cold = Batch.compile ~jobs:4 ~invocation:(argv [ "-j"; "4" ]) inputs in
      Alcotest.(check bool) "cold batch ok" true (Batch.all_ok cold);
      let warm =
        Batch.compile ~jobs:4
          ~invocation:(argv [ "-j"; "4"; "-floop-nest-limit=3" ])
          inputs
      in
      if not (store_faults ()) then
        Alcotest.(check int) "-j 4 at another limit: every unit hits"
          (List.length inputs) (Batch.hits warm);
      let reference =
        Batch.compile ~jobs:1 ~invocation:(invocation ~nest:3 false) inputs
      in
      Alcotest.(check (list string)) "-j 4 IR equals uncached" (irs reference)
        (irs warm))

(* The property, over examples/*.c and generated units: warm a cache at
   the default limits, then compile at -floop-nest-limit 1-4 and at
   -fbracket-depth equal to the unit's demand and one below it.  Every
   compile renders the diagnostics and IR of an uncached one; one that
   diagnoses nothing is a full hit, and one that diagnoses stores
   nothing. *)
let examples_dir = Filename.concat ".." "examples"

let corpus () =
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f ->
           let ic = open_in_bin (Filename.concat examples_dir f) in
           let s = really_input_string ic (in_channel_length ic) in
           close_in ic;
           (f, s))
  in
  let rng = Rng.create 26 in
  examples
  @ List.init 50 (fun i ->
        (Printf.sprintf "gen%d.c" i, Differential.gen_program rng))

let test_property_over_corpus () =
  let bound = ref 0 and covered = ref 0 in
  List.iter
    (fun (name, src) ->
      let cache = Cache.create () in
      let base = compile ~cache src in
      if has_errors base then Alcotest.failf "%s does not compile" name;
      let demand = bracket_demand src in
      let cases =
        List.map (fun n -> (Printf.sprintf "-floop-nest-limit=%d" n, Some n, None))
          [ 1; 2; 3; 4 ]
        @ List.map
            (fun b -> (Printf.sprintf "-fbracket-depth=%d" b, None, Some b))
            (if demand > 1 then [ demand; demand - 1 ] else [ demand ])
      in
      List.iter
        (fun (flag, nest, bracket) ->
          let what = name ^ " " ^ flag in
          let stored = Cache.length cache in
          let c = compile ~cache ?nest ?bracket src in
          check_same_as_uncached ~what ?nest ?bracket c src;
          if has_errors c then begin
            incr bound;
            Alcotest.(check int) (what ^ ": nothing stored") stored
              (Cache.length cache)
          end
          else begin
            incr covered;
            Alcotest.(check bool) (what ^ ": full hit") true
              c.Instance.c_cache_hit
          end)
        cases)
    (corpus ());
  (* Both directions were exercised. *)
  Alcotest.(check bool) "some limits bound" true (!bound > 50);
  Alcotest.(check bool) "some limits covered" true (!covered > 50)

let suite =
  [
    tc "the fixture's demand" test_demand_of_the_fixture;
    tc "a non-binding switch is a full hit" test_non_binding_switch_is_a_full_hit;
    tc "a binding -floop-nest-limit diagnoses as uncached"
      test_binding_loop_nest_limit;
    tc "a binding -fbracket-depth diagnoses as uncached"
      test_binding_bracket_depth;
    tc "a non-binding switch over a store and at -j 4"
      test_non_binding_switch_over_a_store;
    tc "validated limits equal uncached over the corpus"
      test_property_over_corpus;
  ]
