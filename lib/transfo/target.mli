(** The transformation-target DSL (OptiTrust-style, per ROADMAP): a chain
    of selectors narrowing the AST to exactly one statement.  Resolution
    refuses ambiguity — zero matches and more than one match are both
    errors; the latter carries one note per candidate and is resolved with
    [occurrence k]. *)

type selector =
  | In_fun of string  (** [fun(NAME)]: scope to the body of a named function *)
  | For_var of string  (** [for(V)]: a for loop iterating variable V *)
  | Loop_seq  (** [seq]: a compound of two or more loops (fuse target) *)
  | With_depth of int  (** [depth(N)]: keep matches at least N loops deep *)
  | Occurrence of int  (** [occurrence(K)]: pick the K-th match, 1-based *)

type t = selector list

val render : t -> string

(** Combinator constructors mirroring the OptiTrust naming. *)

val cFun : string -> t
val cFor : string -> t
val cSeq : t
val nested_in : t -> t -> t
val occurrence : t -> int -> t

val unwrap_single : Mc_ast.Tree.stmt -> Mc_ast.Tree.stmt
(** Strips singleton compounds and attributed wrappers. *)

val is_loop_seq : Mc_ast.Tree.stmt -> bool
(** A compound of >= 2 loops — what [fuse] associates with. *)

val loop_var_name : Mc_ast.Tree.stmt -> string option
(** The iteration variable a [for(V)] selector matches against. *)

type error = Resolution_failed

val resolve :
  Mc_diag.Diagnostics.t ->
  Mc_ast.Tree.translation_unit ->
  t ->
  (Mc_ast.Tree.stmt, error) result
(** Resolves a target to the unique statement it denotes, emitting
    "matched no statement" / "matched N statements" diagnostics (the
    latter with a located note per candidate) on failure. *)
