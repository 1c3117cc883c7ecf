(** The IRBuilder (paper §1.3): convenience functions to create instructions,
    inserting each after the previously inserted one, with on-the-fly
    algebraic simplification so that "instructions that would later be
    optimized away anyway" are never materialised.

    Folding can be disabled ([~fold:false]) — the A4 ablation benchmark
    measures the instruction-count difference. *)

open Ir

type t

val create : ?fold:bool -> unit -> t
val folding : t -> bool
val set_insertion_point : t -> block -> unit
val insertion_block : t -> block
val clear_insertion_point : t -> unit

(* Arithmetic.  [signed] selects the division/remainder/shift flavour and
   how constants fold. *)
val add : t -> ?name:string -> value -> value -> value
val sub : t -> ?name:string -> value -> value -> value
val mul : t -> ?name:string -> value -> value -> value
val sdiv : t -> ?name:string -> value -> value -> value
val udiv : t -> ?name:string -> value -> value -> value
val srem : t -> ?name:string -> value -> value -> value
val urem : t -> ?name:string -> value -> value -> value
val shl : t -> ?name:string -> value -> value -> value
val lshr : t -> ?name:string -> value -> value -> value
val ashr : t -> ?name:string -> value -> value -> value
val and_ : t -> ?name:string -> value -> value -> value
val or_ : t -> ?name:string -> value -> value -> value
val xor : t -> ?name:string -> value -> value -> value
val fadd : t -> ?name:string -> value -> value -> value
val fsub : t -> ?name:string -> value -> value -> value
val fmul : t -> ?name:string -> value -> value -> value
val fdiv : t -> ?name:string -> value -> value -> value
val frem : t -> ?name:string -> value -> value -> value
val binop : t -> ?name:string -> binop -> value -> value -> value

val icmp : t -> ?name:string -> icmp -> value -> value -> value
val fcmp : t -> ?name:string -> fcmp -> value -> value -> value
val cast : t -> ?name:string -> cast_op -> value -> ty -> value
val select : t -> ?name:string -> value -> value -> value -> value

val alloca : t -> ?name:string -> ?count:int -> ty -> value
val load : t -> ?name:string -> ty -> value -> value
val store : t -> value -> ptr:value -> unit
val gep : t -> ?name:string -> elt_ty:ty -> value -> value -> value
val call : t -> ?name:string -> ret:ty -> callee -> value list -> value
val phi : t -> ?name:string -> ty -> (value * block) list -> value
val add_phi_incoming : value -> value * block -> unit
(** The first argument must be an [Inst_ref] of a phi. *)

val ret : t -> value option -> unit
val br : t -> block -> unit
val cond_br : t -> value -> block -> block -> unit
(** Folds to an unconditional branch when the condition is constant (and
    folding is on). *)

val unreachable : t -> unit

val min_u : t -> ?name:string -> value -> value -> value
(** Unsigned minimum via icmp+select; used by worksharing bounds clamping. *)

val ptr_diff : t -> ?name:string -> value -> value -> value
(** Pointer difference in bytes: a [sub] of two pointers typed [i64]. *)

(* Constant-folding primitives, shared with the mid-end constant-propagation
   pass so folding semantics cannot diverge between layers. *)

val fold_int_binop_const : binop -> ty -> int64 -> int64 -> int64 option
val fold_float_binop_const : binop -> float -> float -> float option
val eval_icmp_const : icmp -> ty -> int64 -> int64 -> bool
val eval_fcmp_const : fcmp -> float -> float -> bool
val fold_cast_const : cast_op -> value -> ty -> value option
