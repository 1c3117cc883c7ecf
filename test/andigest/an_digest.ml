(* The analysis report golden: per input and lowering, the MD5 of the
   text and of the JSON rendering of the [--analyze] report with every
   pass.  The inputs are examples/*.c, a few units written for the
   cases the generator never reaches (an array read but never written,
   a resource acquired twice, carried and symbolic dependences), a
   fixed-seed set of generated programs, and the same programs with the
   accumulator's initializer dropped ([int acc;]), which reads it before
   any store, so [uninit] findings are in the set.  The fuzz oracles
   check verdicts one way only; this pins every finding, note and
   verdict, in order, so a rewrite of an analysis cannot move a report
   without failing a test.

   Regenerate only for an intended change to a report, from the root of
   the repository, and name the moved entries in CHANGES.md:

     dune exec test/andigest/gen_an_digests.exe -- examples \
       > test/andigest/an_digests.txt *)

module Driver = Mc_core.Driver
module Report = Mc_analysis.Report

let gen_seed = 7
let gen_count = 200

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [int acc = 0;] becomes [int acc;]: the generator writes that
   declaration once, at the top of [main]. *)
let drop_initializer source =
  let target = " acc = 0;" in
  let tl = String.length target in
  let rec find i =
    if i + tl > String.length source then source
    else if String.sub source i tl = target then
      String.sub source 0 i ^ " acc;"
      ^ String.sub source (i + tl) (String.length source - i - tl)
    else find (i + 1)
  in
  find 0

let written =
  [
    ( "uninit-paths.c",
      "long f(long n) {\n  long x;\n  if (n > 0) x = n;\n  return x + 1;\n}\n\
       long g(long n) {\n  long y;\n  long s = 0;\n\
      \  for (long i = 0; i < n; i += 1) { s = s + y; y = i; }\n\
      \  return s + y;\n}\n\
       long h(long n) {\n  long z;\n  if (n > 0) z = 1; else z = 2;\n\
      \  return z;\n}\nint main(void) { return 0; }\n" );
    ( "array-never-written.c",
      "long f(long n) {\n  long A[8];\n  long s = A[1];\n\
      \  s = s + A[n];\n  return s;\n}\nint main(void) { return 0; }\n" );
    ( "leak-reacquire.c",
      "long *malloc(long n);\nvoid free(long *p);\n\
       long f(long n) {\n  long *p = malloc(8);\n\
      \  if (n > 1) p = malloc(16);\n  if (n > 64) return -1;\n\
      \  free(p);\n  return 0;\n}\n\
       long g(long n) {\n  long *q = malloc(8);\n\
      \  if (n > 64) { free(q); return -1; }\n  free(q);\n  return 0;\n}\n\
       int main(void) { return 0; }\n" );
    ( "unreachable.c",
      "long f(long v) {\n  return v;\n  v = 0;\n  return v;\n}\n\
       int main(void) { return 0; }\n" );
    ( "deps.c",
      "void shift(long n) {\n  long A[100];\n\
      \  for (long i = 1; i < n; i += 1) A[i] = A[i - 1] + 1;\n}\n\
       void lastidx(long n) {\n  long A[4];\n\
      \  for (long i = 0; i < n; i += 1) A[0] = i;\n}\n\
       void symbolic(long n, long k) {\n  long A[100];\n\
      \  for (long i = 0; i < n; i += 1) A[i] = A[i - k] + 1;\n}\n\
       long nest(void) {\n  long C[100];\n  long s = 0;\n\
      \  for (long i = 0; i < 10; i += 1)\n\
      \    for (long j = 0; j < 10; j += 1)\n      C[i * 10 + j] = i + j;\n\
      \  for (long i = 0; i < 100; i += 1) s = s + C[i];\n  return s;\n}\n\
       long walk(long n) {\n  long s = 0;\n  long i = 0;\n\
      \  while (i < n) { s = s + i; i = i + (s > 10 ? 2 : 1); }\n\
      \  return s;\n}\nint main(void) { return 0; }\n" );
  ]

let inputs ~examples_dir =
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f ->
           ("examples/" ^ f, read_file (Filename.concat examples_dir f)))
  in
  let rng = Mc_fuzz.Fuzz.Rng.create gen_seed in
  let generated =
    List.init gen_count (fun i ->
        ( Printf.sprintf "gen-%d-%d.c" gen_seed i,
          Mc_fuzz.Differential.gen_program rng ))
  in
  let uninitialized =
    List.map
      (fun (name, source) ->
        (Filename.remove_extension name ^ "-noinit.c", drop_initializer source))
      generated
  in
  examples @ written @ generated @ uninitialized

let lowerings = [ ("classic", false); ("irbuilder", true) ]

let digest ~use_irbuilder ~name source =
  let options =
    { Driver.default_options with Driver.use_irbuilder; analyze = Some [] }
  in
  match (Driver.compile ~options ~name source).Driver.analysis with
  | Some r ->
    let md5 s = Digest.to_hex (Digest.string s) in
    md5 (Report.render_text r) ^ " " ^ md5 (Report.render_json r)
  | None -> "no-report"

(* One line per (input, lowering): "NAME LOWERING TEXT_MD5 JSON_MD5". *)
let lines ~examples_dir =
  List.concat_map
    (fun (name, source) ->
      List.map
        (fun (lowering, use_irbuilder) ->
          Printf.sprintf "%s %s %s" name lowering
            (digest ~use_irbuilder ~name source))
        lowerings)
    (inputs ~examples_dir)
