open Mc_ast.Tree

(* The single entry point for applying a loop transformation to analysed
   canonical loops.  Both callers route through here: the pragma path
   (Omp_sema's classic lowering) and the script path (Mc_transfo resolves a
   target, then synthesises the equivalent directive).  The irbuilder
   representation keeps its CanonicalLoopInfo surgery in Omp_builder, but
   shares [of_directive]/[params_of_clauses] so the clause interpretation
   cannot drift between representations. *)

type kind = Unroll | Tile | Stripe | Reverse | Interchange | Fuse | Fission

type params = {
  factor : [ `Full | `Heuristic | `Partial of int ] option; (* unroll *)
  sizes : int list option; (* tile / stripe *)
  perm : int list option; (* interchange, validated 0-based *)
}

let no_params = { factor = None; sizes = None; perm = None }

type result =
  | Applied of Shadow.transformed
  | Deferred (* full/heuristic unroll: the mid-end LoopUnroll pass decides *)
  | Not_applicable (* params do not fit the nest; caller already diagnosed *)

let of_directive = function
  | D_unroll -> Some Unroll
  | D_tile -> Some Tile
  | D_stripe -> Some Stripe
  | D_reverse -> Some Reverse
  | D_interchange -> Some Interchange
  | D_fuse -> Some Fuse
  | D_fission -> Some Fission
  | D_parallel | D_for | D_parallel_for | D_simd | D_for_simd
  | D_parallel_for_simd | D_barrier | D_single | D_master | D_critical _ ->
    None

let params_of_clauses ?perm clauses =
  let factor =
    List.find_map
      (function
        | C_full -> Some `Full
        | C_partial (Some (n, _)) -> Some (`Partial n)
        | C_partial None ->
          (* Paper §2.2: the consumed-unroll factor defaults to 2. *)
          Some (`Partial 2)
        | _ -> None)
      clauses
  in
  let sizes =
    List.find_map
      (function C_sizes s -> Some (List.map fst s) | _ -> None)
      clauses
  in
  { factor; sizes; perm }

let apply sema kind params loops ~loc =
  match (kind, loops) with
  | Unroll, [ a ] -> (
    match params.factor with
    | Some (`Partial n) -> Applied (Shadow.transformed_unroll sema a ~factor:n)
    | Some `Full | Some `Heuristic | None ->
      (* No generated loop; CodeGen defers to the mid-end (paper §2.2). *)
      Deferred)
  | Tile, _ -> (
    match params.sizes with
    | Some sizes when List.length sizes = List.length loops ->
      Applied (Shadow.transformed_tile sema loops ~sizes ~loc)
    | _ -> Not_applicable)
  | Stripe, _ -> (
    match params.sizes with
    | Some sizes when List.length sizes = List.length loops ->
      Applied (Shadow.transformed_stripe sema loops ~sizes ~loc)
    | _ -> Not_applicable)
  | Reverse, [ a ] -> Applied (Shadow.transformed_reverse sema a)
  | Interchange, _ -> (
    match params.perm with
    | Some perm when List.length perm = List.length loops ->
      Applied (Shadow.transformed_interchange sema loops ~perm ~loc)
    | _ -> Not_applicable)
  | Fuse, _ :: _ :: _ -> Applied (Shadow.transformed_fuse sema loops ~loc)
  | Fission, [ a ] -> Applied (Shadow.transformed_fission sema a ~loc)
  | (Unroll | Reverse | Fuse | Fission), _ -> Not_applicable
