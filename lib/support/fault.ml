(* Deterministic fault injection: named failure points compiled into the
   hot paths of the store / protocol / server layers.

   A point is registered once at module initialisation ([point]) and
   does nothing until armed — the unarmed fast path is a single mutable
   bool load, so production code pays one branch.  Arming gives the
   point a firing probability and a seeded PRNG (splitmix64, whose
   stream is mixed with the point's name so two points armed with the
   same seed still fire independently); every [fire] draw then comes
   from that private deterministic stream, which is what lets a test or
   a CI matrix replay the exact same failure schedule run after run.

   Arming happens through the API ([arm] / [with_armed], used by tests)
   or the [MCC_FAULTS] environment variable
   ("point:prob:seed,point:prob:seed,…", used by the CI fault matrix),
   parsed lazily on first registration/arming so library initialisation
   order does not matter.

   Every trip bumps a [fault.<point>] counter in the calling domain's
   current Stats registry, so -print-stats shows exactly how many times
   each point fired during a run. *)

let env_var = "MCC_FAULTS"

type point = {
  p_name : string;
  p_counter : Stats.counter;
  mutable p_armed : bool;
  mutable p_probability : float;
  mutable p_state : int64; (* splitmix64 state; meaningful when armed *)
  p_lock : Mutex.t; (* serialises PRNG draws across domains *)
}

let table : (string, point) Hashtbl.t = Hashtbl.create 16
let table_lock = Mutex.create ()

(* ---- MCC_FAULTS parsing --------------------------------------------------- *)

let parse_spec spec =
  let specs = ref [] in
  let errors = ref [] in
  String.split_on_char ',' spec
  |> List.iter (fun item ->
         let item = String.trim item in
         if item <> "" then
           match String.split_on_char ':' item with
           | [ name; prob; seed ] -> (
             match (float_of_string_opt prob, int_of_string_opt seed) with
             | Some p, Some s when p >= 0.0 && p <= 1.0 ->
               specs := (name, (p, s)) :: !specs
             | _ ->
               errors :=
                 Printf.sprintf
                   "bad fault spec %S (want point:prob[0..1]:seed)" item
                 :: !errors)
           | _ ->
             errors :=
               Printf.sprintf "bad fault spec %S (want point:prob:seed)" item
               :: !errors);
  (List.rev !specs, List.rev !errors)

let env_specs =
  lazy
    (match Sys.getenv_opt env_var with
    | None | Some "" -> []
    | Some spec ->
      let specs, errors = parse_spec spec in
      List.iter
        (fun e -> prerr_endline (Printf.sprintf "mcc: %s: %s" env_var e))
        errors;
      specs)

(* ---- the deterministic PRNG ----------------------------------------------- *)

(* splitmix64: tiny, full-period, and statistically fine for firing
   decisions.  Not Random.State: the stream must be private to the
   point, stable across OCaml versions, and cheap to reseed. *)
let splitmix64 state =
  let state = Int64.add state 0x9E3779B97F4A7C15L in
  let z = state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  (state, Int64.logxor z (Int64.shift_right_logical z 31))

(* Uniform draw in [0,1) from the high 53 bits. *)
let unit_float_of_u64 u =
  Int64.to_float (Int64.shift_right_logical u 11) /. 9007199254740992.0

(* FNV-style fold of the point name, mixed into the seed so distinct
   points armed with one seed do not fire in lockstep. *)
let seed_state name seed =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    name;
  Int64.logxor !h (Int64.of_int seed)

(* ---- registration and arming ---------------------------------------------- *)

let arm_point_unlocked p ~probability ~seed =
  p.p_probability <- probability;
  p.p_state <- seed_state p.p_name seed;
  p.p_armed <- probability > 0.0

let disarm_point_unlocked p =
  p.p_armed <- false;
  p.p_probability <- 0.0

let find_or_create_unlocked name =
  match Hashtbl.find_opt table name with
  | Some p -> p
  | None ->
    let p =
      {
        p_name = name;
        p_counter =
          Stats.counter ~group:"fault" ~name
            ~desc:("injected failures tripped at " ^ name) ();
        p_armed = false;
        p_probability = 0.0;
        p_state = 0L;
        p_lock = Mutex.create ();
      }
    in
    (match List.assoc_opt name (Lazy.force env_specs) with
    | Some (probability, seed) -> arm_point_unlocked p ~probability ~seed
    | None -> ());
    Hashtbl.add table name p;
    p

let point name = Mutex.protect table_lock (fun () -> find_or_create_unlocked name)
let name p = p.p_name

let arm name ~probability ~seed =
  Mutex.protect table_lock (fun () ->
      let p = find_or_create_unlocked name in
      Mutex.protect p.p_lock (fun () ->
          arm_point_unlocked p ~probability ~seed))

let disarm name =
  Mutex.protect table_lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some p -> Mutex.protect p.p_lock (fun () -> disarm_point_unlocked p)
      | None -> ())

let armed point_name =
  let p = point point_name in
  p.p_armed

let arm_from_env () =
  List.iter (fun (n, _) -> ignore (point n)) (Lazy.force env_specs)

let with_armed specs f =
  let saved =
    List.map
      (fun (n, _, _) ->
        let p = point n in
        (n, p.p_armed, p.p_probability, p.p_state))
      specs
  in
  List.iter (fun (n, probability, seed) -> arm n ~probability ~seed) specs;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (n, was_armed, probability, state) ->
          let p = point n in
          Mutex.protect p.p_lock (fun () ->
              p.p_armed <- was_armed;
              p.p_probability <- probability;
              p.p_state <- state))
        saved)
    f

(* ---- the hot path --------------------------------------------------------- *)

let fire p =
  (* Unarmed: one load, one branch, no lock. *)
  p.p_armed
  && Mutex.protect p.p_lock (fun () ->
         p.p_armed
         &&
         let state, draw = splitmix64 p.p_state in
         p.p_state <- state;
         let tripped = unit_float_of_u64 draw < p.p_probability in
         if tripped then Stats.incr p.p_counter;
         tripped)

let trips p = Stats.value p.p_counter
