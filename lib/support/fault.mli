(** Deterministic fault injection for the distributed-system layers.

    A {e fault point} is a named probe compiled into a failure-prone
    code path (e.g. ["store.read"], ["protocol.write_frame"],
    ["server.worker"]).  Unarmed — the default — {!fire} is a single
    branch.  Armed with a probability and a seed (via {!arm}, or the
    [MCC_FAULTS] environment variable
    ["point:prob:seed,point:prob:seed,…"]), {!fire} draws from a
    point-private seeded PRNG, so the exact schedule of injected
    failures is reproducible run after run.  Each trip bumps a
    [fault.<point>] counter in the current {!Stats} registry, visible in
    [-print-stats]. *)

type point

val env_var : string
(** ["MCC_FAULTS"]. *)

val point : string -> point
(** Registers (or retrieves) the point — idempotent, safe from any
    domain.  If [MCC_FAULTS] names the point, registration arms it. *)

val name : point -> string

val fire : point -> bool
(** Draws once from the point's stream; [true] means the caller must
    fail here.  Always [false] when unarmed, at the cost of one branch. *)

val arm : string -> probability:float -> seed:int -> unit
(** Arms the point ([probability] in [0,1]; [0.] disarms).  Reseeds the
    stream: arming twice with the same seed replays the same schedule. *)

val disarm : string -> unit

val armed : string -> bool
(** Is the point currently armed?  Tests use this to relax
    exact-counter assertions when a CI fault matrix ([MCC_FAULTS]) is
    injecting failures underneath them. *)

val arm_from_env : unit -> unit
(** Forces [MCC_FAULTS] parsing and arms every point it names.  Point
    registration does this implicitly; binaries call it once at startup
    so malformed specs warn early. *)

val with_armed : (string * float * int) list -> (unit -> 'a) -> 'a
(** [with_armed [(name, prob, seed); …] f] arms the points, runs [f],
    and restores each point's previous state (armed or not, including
    its PRNG position) even if [f] raises. *)

val trips : point -> int
(** The point's trip count in the current registry (the [fault.<name>]
    counter). *)

val parse_spec : string -> (string * (float * int)) list * string list
(** Parses a [MCC_FAULTS]-syntax spec into [(point, (prob, seed))]
    bindings plus human-readable errors for malformed items (exposed
    for tests). *)
