(** The shared loop-transformation entry point.

    Every classic-representation transformation — whether driven by a
    [#pragma omp] directive or by a transformation script — goes through
    {!apply}; {!of_directive} and {!params_of_clauses} translate the
    directive surface into the internal [kind]/[params] pair so the clause
    interpretation (default unroll factor, sizes/permutation arity) lives
    in exactly one place. *)

open Mc_ast.Tree

type kind = Unroll | Tile | Stripe | Reverse | Interchange | Fuse | Fission

type params = {
  factor : [ `Full | `Heuristic | `Partial of int ] option; (* unroll *)
  sizes : int list option; (* tile / stripe *)
  perm : int list option; (* interchange, validated 0-based *)
}

val no_params : params

type result =
  | Applied of Shadow.transformed
  | Deferred (* full/heuristic unroll: the mid-end LoopUnroll pass decides *)
  | Not_applicable (* params do not fit the nest; caller already diagnosed *)

val of_directive : directive_kind -> kind option
(** [Some kind] for the seven loop transformations, [None] for worksharing
    and region directives. *)

val params_of_clauses : ?perm:int list -> clause list -> params
(** Interprets the transformation clauses of a directive ([full],
    [partial], [sizes]); [perm] supplies the already-validated 0-based
    permutation for interchange. *)

val apply :
  Sema.t -> kind -> params -> Canonical.analyzed list -> loc:loc -> result
(** Builds the shadow transformed AST for the given nest (outermost
    first). *)
