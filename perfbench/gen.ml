(* Seeded inputs and operation lists.  Everything a workload feeds the
   compiler comes from here, as a pure function of the seed: the same seed
   gives the same units and the same operation list.  The seed chooses
   contents (constants, extents, directive parameters, generated programs);
   the shape of every input set — how many units, of which sizes, under
   which lowering — is fixed, so figures from different seeds compare. *)

module Rng = Mc_fuzz.Fuzz.Rng
module Differential = Mc_fuzz.Differential

(* One independent stream per (seed, purpose). *)
let rng ~seed ~stream = Rng.create ((seed * 1_000_003) + (stream * 7919) + 1)

(* ---- synthetic multi-function units ---------------------------------- *)

(* A unit of [fns] functions, each holding two perfectly nested loop pairs
   under transformation directives.  The six directives rotate by
   function index, so every unit of six or more functions carries all of
   them; the seed picks directive sizes and factors, and coefficients.  Every
   update is an order-independent sum, so the program's trace is that of
   its pragma-stripped reference. *)
type big = {
  b_prefix : string;
  b_bodies : (int -> string) array;
      (* function k's text, given its accumulator seed constant *)
}

let directive rng k =
  match k mod 6 with
  | 0 -> Printf.sprintf "unroll partial(%d)" (2 + Rng.int rng 3)
  | 1 -> Printf.sprintf "tile sizes(%d, %d)" (2 + Rng.int rng 4) (2 + Rng.int rng 4)
  | 2 -> "reverse"
  | 3 -> "interchange permutation(2, 1)"
  | 4 -> Printf.sprintf "stripe sizes(%d, %d)" (2 + Rng.int rng 4) (2 + Rng.int rng 4)
  | _ -> "fuse"

(* Extents follow the function index, not the seed, so the programs' run
   time (interpreter steps) is nearly the same for every seed. *)
let nest rng ~k ~dir ~a ~b =
  let e1 = 1 + (k mod 4) and e2 = 1 + ((k + 1) mod 4) in
  let c1 = 1 + Rng.int rng 29 and c2 = 1 + Rng.int rng 29 in
  if dir = "fuse" then
    Printf.sprintf
      "  #pragma omp fuse\n\
      \  {\n\
      \    for (int %s = 0; %s < n + %d; %s += 1)\n\
      \      acc += %s * %d;\n\
      \    for (int %s = 0; %s < n + %d; %s += 1)\n\
      \      acc += %s * %d;\n\
      \  }\n"
      a a e1 a a c1 b b e2 b b c2
  else
    Printf.sprintf
      "  #pragma omp %s\n\
      \  for (int %s = 0; %s < n + %d; %s += 1)\n\
      \    for (int %s = 0; %s < n + %d; %s += 1)\n\
      \      acc += %s * %d + %s * %d;\n"
      dir a a e1 a b b e2 b a c1 b c2

let big_unit ~seed ~stream ~prefix ~fns =
  let r = rng ~seed ~stream in
  let bodies =
    Array.init fns (fun k ->
        let first = nest r ~k ~dir:(directive r k) ~a:"i" ~b:"j" in
        let second = nest r ~k:(k + 2) ~dir:(directive r (k + 3)) ~a:"p" ~b:"q" in
        fun const ->
          Printf.sprintf "long %s_f%d(int n) {\n  long acc = %d;\n%s%s  return acc;\n}\n"
            prefix k const first second)
  in
  { b_prefix = prefix; b_bodies = bodies }

let big_fns b = Array.length b.b_bodies

(* The unit's text with function [k]'s accumulator seeded by
   [consts.(k)], behind a one-line header comment.  The comment is the
   only thing on line 1, so changing it moves no other token. *)
let render_big ?(comment = 0) b consts =
  let buf = Buffer.create (1024 * big_fns b) in
  Buffer.add_string buf (Printf.sprintf "/* rev %d */\nvoid record(long x);\n" comment);
  Array.iteri (fun k body -> Buffer.add_string buf (body consts.(k))) b.b_bodies;
  Buffer.add_string buf "int main(void) {\n";
  Array.iteri
    (fun k _ ->
      Buffer.add_string buf
        (Printf.sprintf "  record(%s_f%d(%d));\n" b.b_prefix k (1 + (k mod 3))))
    b.b_bodies;
  Buffer.add_string buf "  return 0;\n}\n";
  Buffer.contents buf

let base_consts b = Array.init (big_fns b) (fun k -> k)

(* ---- cold_compile corpus ---------------------------------------------- *)

type unit_spec = {
  u_name : string;
  u_source : string; (* what is compiled *)
  u_reference : string; (* pragma-free program with the same trace *)
  u_irbuilder : bool;
  u_analyze : bool;
  u_script : string option; (* transfo script applied before lexing *)
}

let small_units = 200
let scripted_units = 4
let cold_scripted_units = 8

(* Twenty sizes from 24 to 128 functions, evenly spaced, so the latency
   distribution's upper tail has no gaps for a percentile to jump. *)
let big_sizes = List.init 20 (fun k -> 24 + (k * 104 / 19))

let cold_units = small_units + cold_scripted_units + List.length big_sizes

let occurrences sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* A generated program's shape: loop nests and loops. *)
let shape src = (occurrences "record(" src, occurrences "for (" src)

(* How many small programs of each shape a corpus holds: the shapes of a
   fixed draw, so the mix of sizes is the same for every seed. *)
let small_quota =
  lazy
    (let r = rng ~seed:0 ~stream:999 in
     let q = Hashtbl.create 16 in
     for _ = 1 to small_units do
       let k = shape (Differential.gen_program r) in
       Hashtbl.replace q k (1 + Option.value (Hashtbl.find_opt q k) ~default:0)
     done;
     q)

(* Seeded programs drawn until every shape's quota is filled. *)
let small_programs r =
  let quota = Hashtbl.copy (Lazy.force small_quota) in
  let rec go acc left =
    if left = 0 then List.rev acc
    else
      let src = Differential.gen_program r in
      match Hashtbl.find_opt quota (shape src) with
      | Some q when q > 0 ->
        Hashtbl.replace quota (shape src) (q - 1);
        go (src :: acc) (left - 1)
      | _ -> go acc left
  in
  go [] small_units

(* 200 small generated programs, 8 scripted ones and 20 synthetic units.
   Lowerings alternate (along the size ladder too) and every fourth unit
   also runs --analyze. *)
let cold_corpus ~seed =
  let small =
    List.mapi
      (fun i src -> (Printf.sprintf "small%d.c" i, src, Differential.strip_pragmas src, None))
      (small_programs (rng ~seed ~stream:1))
  in
  let scripted =
    let r = rng ~seed ~stream:2 in
    List.init cold_scripted_units (fun i ->
        let name = Printf.sprintf "scripted%d.c" i in
        let sc = Differential.gen_scripted r ~name in
        (name, sc.Differential.sc_plain, sc.Differential.sc_plain,
         Some sc.Differential.sc_script))
  in
  let big =
    List.mapi
      (fun k fns ->
        let b = big_unit ~seed ~stream:(3 + k) ~prefix:(Printf.sprintf "w%d" k) ~fns in
        let src = render_big b (base_consts b) in
        (Printf.sprintf "big%d.c" fns, src, Differential.strip_pragmas src, None))
      big_sizes
  in
  List.mapi
    (fun i (name, src, reference, script) ->
      {
        u_name = name;
        u_source = src;
        u_reference = reference;
        u_irbuilder = i mod 2 = 1;
        u_analyze = i mod 4 = 1;
        u_script = script;
      })
    (small @ scripted @ big)

(* Operation lists come in rounds: each round is a seeded shuffle of a
   fixed multiset of operations, so every whole round has exactly the same
   composition whatever the seed.  Workloads stop on a round boundary. *)
let rounds r round n =
  let len = List.length round in
  let rec go acc left =
    if left <= 0 then List.rev acc
    else begin
      let a = Array.of_list round in
      for i = len - 1 downto 1 do
        let j = Rng.int r (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      let take = List.filteri (fun i _ -> i < left) (Array.to_list a) in
      go (List.rev_append take acc) (left - List.length take)
    end
  in
  go [] n

(* Every corpus unit once per round. *)
let cold_ops ~seed ~units n = rounds (rng ~seed ~stream:100) (List.init units Fun.id) n

(* ---- edit_rebuild operations ------------------------------------------ *)

let edit_fns = 64

type edit_op =
  | Same  (** rebuild the unchanged source *)
  | Restart  (** a fresh instance and store handle over the same directory *)
  | Comment of int  (** new header comment *)
  | Body of int * int  (** function, new accumulator constant *)
  | Nest_limit of int  (** new -floop-nest-limit *)

(* The -floop-nest-limit values the loop switches between; every session
   opens with a build under each, so a switch re-runs only the functions
   edited since that limit was last in force. *)
let nest_limits = [ 64; 32 ]

(* A round of twenty: five same-source rebuilds, three restarts, four
   comment edits, five body edits and three -floop-nest-limit switches.
   Body edits write a constant never used before, so each is new to the
   store. *)
let edit_round =
  List.concat_map
    (fun (k, n) -> List.init n (fun _ -> k))
    [ (`Same, 5); (`Restart, 3); (`Comment, 4); (`Body, 5); (`Nest, 3) ]

let edit_round_len = List.length edit_round

(* Restarts sit at fixed slots (the first of every seven operations), so
   the stretch a process lives, and with it the memory it reaches, is the
   same for every seed; the other operations are shuffled around them. *)
let restart_every = 7

let edit_ops ~seed n =
  let r = rng ~seed ~stream:200 in
  let limit = ref (List.hd nest_limits) in
  let others = List.filter (fun k -> k <> `Restart) edit_round in
  let restarts = edit_round_len - List.length others in
  (* One round: the shuffled others with restarts dropped into their slots. *)
  let round () =
    let rec place i round acc =
      if i mod restart_every = 0 && i / restart_every < restarts then
        place (i + 1) round (`Restart :: acc)
      else
        match round with [] -> List.rev acc | k :: rest -> place (i + 1) rest (k :: acc)
    in
    place 0 (rounds r others (List.length others)) []
  in
  let rec kinds acc left =
    if left <= 0 then List.filteri (fun i _ -> i < n) (List.concat (List.rev acc))
    else kinds (round () :: acc) (left - edit_round_len)
  in
  List.mapi
    (fun i kind ->
      match kind with
      | `Same -> Same
      | `Restart -> Restart
      | `Comment -> Comment (i + 1)
      | `Body -> Body (Rng.int r edit_fns, 1000 + i)
      | `Nest ->
        limit := if !limit = List.hd nest_limits then List.nth nest_limits 1 else List.hd nest_limits;
        Nest_limit !limit)
    (kinds [] n)

let render_edit_op = function
  | Same -> "same"
  | Restart -> "restart"
  | Comment n -> Printf.sprintf "comment(%d)" n
  | Body (f, c) -> Printf.sprintf "body(f%d=%d)" f c
  | Nest_limit l -> Printf.sprintf "nest-limit(%d)" l

(* ---- daemon_mix requests ---------------------------------------------- *)

let daemon_small = 24
let daemon_analyzed = 6
let daemon_large_fns = 64

type daemon_op =
  | Warm of int  (** index into the warm units (small ones first) *)
  | Body_edit of int * int  (** large unit 0: function, new constant *)
  | Analyze of int  (** warm small unit *)
  | Transform of int  (** scripted unit *)
  | Cold of int  (** a never-seen small unit *)
  | Ice  (** the deliberate internal-compiler-error unit *)

let ice_source = "int main(void){\n#pragma clang __debug crash\n  return 0;\n}\n"

(* A round of 47 requests: each small warm unit once, each large warm
   unit four times, one body edit, six analyses, each script once and
   four never-seen units. *)
let daemon_round =
  List.init daemon_small (fun i -> `Warm i)
  @ List.concat_map (fun i -> List.init 4 (fun _ -> `Warm i)) [ daemon_small; daemon_small + 1 ]
  @ [ `Body ]
  @ List.init daemon_analyzed (fun i -> `Analyze i)
  @ List.init scripted_units (fun i -> `Transform i)
  @ List.init 4 (fun _ -> `Cold)

let daemon_round_len = List.length daemon_round

(* The one deliberate-ICE request goes out after this many others; it is
   an extra request, outside the rounds. *)
let ice_at = 25

let daemon_ops ~seed n =
  let r = rng ~seed ~stream:300 in
  let ops =
    List.mapi
      (fun i kind ->
        match kind with
        | `Warm w -> Warm w
        | `Body -> Body_edit (Rng.int r daemon_large_fns, 1_000_000 + i)
        | `Analyze a -> Analyze a
        | `Transform t -> Transform t
        | `Cold -> Cold i)
      (rounds r daemon_round n)
  in
  List.filteri (fun i _ -> i < ice_at) ops @ (Ice :: List.filteri (fun i _ -> i >= ice_at) ops)

let render_daemon_op = function
  | Warm i -> Printf.sprintf "warm(%d)" i
  | Body_edit (f, c) -> Printf.sprintf "body(f%d=%d)" f c
  | Analyze i -> Printf.sprintf "analyze(%d)" i
  | Transform i -> Printf.sprintf "transform(%d)" i
  | Cold k -> Printf.sprintf "cold(%d)" k
  | Ice -> "ice"

(* A never-seen small unit for [Cold k]. *)
let cold_unit ~seed k = Differential.gen_program (rng ~seed ~stream:(10_000 + k))
