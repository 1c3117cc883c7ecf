(* Tests of the benchmark's own code: the percentile rules, seeded
   determinism of the inputs, and agreement between the metrics the
   benchmark prints and those BENCHMARK.json declares. *)

open Perfbench_lib

let floats = Alcotest.(list (float 0.0))

(* ---- percentiles ---------------------------------------------------------- *)

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Pstats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Pstats.median [ 4.0; 1.0; 3.0; 2.0 ])

let one_to n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.(check (float 0.0)) "p50 nearest rank" 5.0 (Pstats.percentile 50.0 (one_to 10));
  Alcotest.(check (float 0.0)) "p95 of 1..100" 95.0 (Pstats.percentile 95.0 (one_to 100));
  Alcotest.(check (float 0.0)) "p95 of 1..20" 19.0 (Pstats.percentile 95.0 (one_to 20));
  Alcotest.(check (float 0.0)) "single sample" 7.0 (Pstats.percentile 95.0 [ 7.0 ])

(* A tail percentile is only reported with ten samples beyond it. *)
let test_ten_beyond () =
  Alcotest.(check (option (pair (float 0.0) int)))
    "199 samples: 9 beyond p95" None
    (Pstats.tail 95.0 (one_to 199));
  Alcotest.(check (option (pair (float 0.0) int)))
    "200 samples: 10 beyond p95" (Some (190.0, 10))
    (Pstats.tail 95.0 (one_to 200));
  Alcotest.(check (option (pair (float 0.0) int)))
    "ties at the percentile are not beyond it" None
    (Pstats.tail 95.0 (List.init 300 (fun i -> if i < 295 then 1.0 else 2.0)));
  let n = Pstats.samples_for_p95 in
  Alcotest.(check bool) "samples_for_p95 is enough" true
    (Pstats.tail 95.0 (one_to n) <> None);
  Alcotest.(check bool) "and the least that is" true
    (Pstats.tail 95.0 (one_to (n - 1)) = None)

let test_windows () =
  let ints = Alcotest.(list (list int)) in
  Alcotest.check ints "short tail joins the last window" [ [ 1; 2; 3 ]; [ 4; 5; 6; 7 ] ]
    (Pstats.windows 3 [ 1; 2; 3; 4; 5; 6; 7 ]);
  Alcotest.check ints "whole windows" [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ]
    (Pstats.windows 3 [ 1; 2; 3; 4; 5; 6 ]);
  Alcotest.check ints "fewer than one window" [ [ 1; 2 ] ] (Pstats.windows 3 [ 1; 2 ]);
  Alcotest.check ints "no samples" [] (Pstats.windows 3 [])

(* ---- per-layer accumulation ----------------------------------------------- *)

(* A lowering-tagged time is averaged over the operations under that tag,
   and over every operation when none carries it, never reported as 0. *)
let test_layers_per_op () =
  let lay = Layers.create () in
  Layers.op lay ~tag:"classic";
  Layers.op lay ~tag:"irbuilder";
  Layers.op lay ~tag:"irbuilder";
  Layers.time lay "sema.busy_s.irbuilder" 3.0;
  Layers.time lay "lexer.busy_s" 6.0;
  Alcotest.(check (float 1e-12)) "per tagged op" 1.5 (Layers.per_op lay "sema.busy_s.irbuilder");
  Alcotest.(check (float 1e-12)) "untagged over every op" 2.0 (Layers.per_op lay "lexer.busy_s");
  let untagged = Layers.create () in
  Layers.op untagged;
  Layers.op untagged;
  Layers.time untagged "codegen.busy_s.classic" 0.5;
  Alcotest.(check (float 1e-12)) "tagged time under untagged ops" 0.25
    (Layers.per_op untagged "codegen.busy_s.classic");
  Alcotest.(check (float 0.0)) "reported through metrics" 0.25
    (List.assoc "codegen.busy_s.classic" (Layers.metrics untagged))

(* ---- seeded inputs -------------------------------------------------------- *)

let test_same_seed_same_ops () =
  let edit = List.map Gen.render_edit_op in
  Alcotest.(check (list string)) "edit ops" (edit (Gen.edit_ops ~seed:7 500))
    (edit (Gen.edit_ops ~seed:7 500));
  Alcotest.(check bool) "another seed, other edit ops" true
    (edit (Gen.edit_ops ~seed:7 500) <> edit (Gen.edit_ops ~seed:8 500));
  let daemon s = List.map Gen.render_daemon_op (Gen.daemon_ops ~seed:s 500) in
  Alcotest.(check (list string)) "daemon ops" (daemon 7) (daemon 7);
  Alcotest.(check bool) "another seed, other daemon ops" true (daemon 7 <> daemon 8);
  Alcotest.(check (list int)) "cold ops" (Gen.cold_ops ~seed:3 ~units:50 400)
    (Gen.cold_ops ~seed:3 ~units:50 400);
  let corpus s = List.map (fun u -> u.Gen.u_source) (Gen.cold_corpus ~seed:s) in
  Alcotest.(check (list string)) "cold corpus" (corpus 5) (corpus 5);
  Alcotest.(check bool) "another seed, another corpus" true (corpus 5 <> corpus 6)

(* Whole rounds have a fixed composition, whatever the seed. *)
let test_round_composition () =
  let kinds ops =
    List.sort compare
      (List.map
         (fun op -> List.hd (String.split_on_char '(' (Gen.render_edit_op op)))
         ops)
  in
  let round s k =
    List.filteri
      (fun i _ -> i >= k * Gen.edit_round_len && i < (k + 1) * Gen.edit_round_len)
      (Gen.edit_ops ~seed:s (3 * Gen.edit_round_len))
  in
  Alcotest.(check (list string)) "edit rounds" (kinds (round 1 0)) (kinds (round 9 2));
  let units = 37 in
  let ops = Gen.cold_ops ~seed:4 ~units (2 * units) in
  Alcotest.(check (list int)) "every unit once per cold round" (List.init units Fun.id)
    (List.sort compare (List.filteri (fun i _ -> i >= units) ops));
  let ops = Gen.daemon_ops ~seed:2 (Gen.daemon_round_len + 1) in
  Alcotest.(check int) "one deliberate ICE, extra to the round" 1
    (List.length (List.filter (fun op -> op = Gen.Ice) ops))

(* ---- declared vs printed metrics ------------------------------------------- *)

(* Just enough JSON for BENCHMARK.json. *)
type json = Obj of (string * json) list | Arr of json list | Str of string | Num of float | Lit

let parse_json s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \n\r\t" (peek ()) then (incr pos; ws ())
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = match value () with Str k -> k | _ -> failwith "key" in
          expect ':';
          let v = value () in
          ws ();
          if peek () = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if peek () = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' ->
      incr pos;
      let b = Buffer.create 16 in
      while peek () <> '"' do
        if peek () = '\\' then incr pos;
        Buffer.add_char b (peek ());
        incr pos
      done;
      incr pos;
      Str (Buffer.contents b)
    | _ ->
      let start = !pos in
      while !pos < String.length s && not (String.contains ",]} \n\r\t" (peek ())) do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      (match float_of_string_opt tok with Some f -> Num f | None -> Lit)
  in
  value ()

let field k = function Obj fs -> List.assoc k fs | _ -> failwith ("no field " ^ k)
let str = function Str s -> s | _ -> failwith "not a string"
let arr = function Arr l -> l | _ -> failwith "not an array"

let declared_file () =
  parse_json (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all)

let names_units section =
  List.map (fun m -> (str (field "name" m), str (field "unit" m))) (arr (field section (declared_file ())))

let pairs = Alcotest.(list (pair string string))

let test_declared_match () =
  Alcotest.(check pairs) "end_to_end" Spec.end_to_end (names_units "end_to_end");
  Alcotest.(check pairs) "per_layer" Spec.per_layer (names_units "per_layer");
  Alcotest.(check (list string)) "workloads" Spec.workloads
    (List.map (fun w -> str (field "name" w)) (arr (field "workloads" (declared_file ()))))

(* What [Spec.render] prints is exactly the declared set, in order, and a
   missing metric is an error rather than a silent gap. *)
let test_render () =
  List.iter
    (fun trace ->
      let declared = Spec.declared ~trace in
      let r =
        { Spec.attempted = 3; failed = 0; lost = 0; metrics = List.mapi (fun i (n, _) -> (n, float_of_int i +. 0.5)) declared }
      in
      let printed = parse_json (Spec.render ~trace r) in
      let metrics = match field "metrics" printed with Obj fs -> fs | _ -> [] in
      Alcotest.(check pairs) "printed names and units" declared
        (List.map (fun (n, v) -> (n, str (field "unit" v))) metrics);
      Alcotest.(check floats) "values" (List.map snd r.Spec.metrics)
        (List.map (fun (_, v) -> match field "value" v with Num f -> f | _ -> nan) metrics);
      Alcotest.check_raises "missing metric" (Failure ("metric " ^ fst (List.hd declared) ^ " was not measured"))
        (fun () -> ignore (Spec.render ~trace { r with Spec.metrics = List.tl r.Spec.metrics })))
    [ false; true ]

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond p95" `Quick test_ten_beyond;
          Alcotest.test_case "statistics windows" `Quick test_windows;
        ] );
      ("layers", [ Alcotest.test_case "time per operation" `Quick test_layers_per_op ]);
      ( "gen",
        [
          Alcotest.test_case "same seed, same operations" `Quick test_same_seed_same_ops;
          Alcotest.test_case "fixed round composition" `Quick test_round_composition;
        ] );
      ( "spec",
        [
          Alcotest.test_case "BENCHMARK.json declares what is printed" `Quick test_declared_match;
          Alcotest.test_case "result line" `Quick test_render;
        ] );
    ]
