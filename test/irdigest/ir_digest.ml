(* The IR digest golden: the MD5 of the [--emit-ir] text of every
   examples/*.c unit and of a fixed-seed set of generated programs,
   under both lowerings at -O0 and -O1.  The differential oracle checks
   semantics only, and the determinism checks compare one build with
   itself; this pins the text, so a change that moves IR without moving
   behaviour still fails a test.

   Regenerate after an intended IR change, from the root of the
   repository, and say why in CHANGES.md:

     dune exec test/irdigest/gen_ir_digests.exe -- examples \
       > test/irdigest/ir_digests.txt *)

module Driver = Mc_core.Driver

let gen_seed = 13
let gen_count = 100

let read_file path = In_channel.with_open_bin path In_channel.input_all

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
  examples @ generated

let configs =
  [
    ("classic", false, "O0", false);
    ("classic", false, "O1", true);
    ("irbuilder", true, "O0", false);
    ("irbuilder", true, "O1", true);
  ]

let digest ~use_irbuilder ~optimize ~name source =
  let options =
    { Driver.default_options with Driver.use_irbuilder; optimize }
  in
  match (Driver.compile ~options ~name source).Driver.ir with
  | Some m -> Digest.to_hex (Digest.string (Mc_ir.Printer.module_to_string m))
  | None -> "no-ir"

(* One line per (input, lowering, level): "NAME LOWERING LEVEL MD5". *)
let lines ~examples_dir =
  List.concat_map
    (fun (name, source) ->
      List.map
        (fun (lowering, use_irbuilder, level, optimize) ->
          Printf.sprintf "%s %s %s %s" name lowering level
            (digest ~use_irbuilder ~optimize ~name source))
        configs)
    (inputs ~examples_dir)
