(* Prints the IR digest golden (see ir_digest.ml) for the examples
   directory given as the only argument. *)

let () =
  match Sys.argv with
  | [| _; examples_dir |] ->
    List.iter print_endline (Ir_digest.lines ~examples_dir)
  | _ ->
    prerr_endline "usage: gen_ir_digests EXAMPLES_DIR";
    exit 2
