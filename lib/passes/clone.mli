(** Cloning of CFG regions, the machinery under loop unrolling.

    [clone_region] deep-copies a set of blocks into the same function.
    Values defined inside the region are remapped to their clones; values
    defined outside go through [seed] (identity by default), which is how
    the unroller substitutes the previous copy's loop-carried values for the
    header phis. *)

open Mc_ir

type mapping

val clone_region :
  Ir.func ->
  blocks:Ir.block list ->
  seed:(Ir.value -> Ir.value) ->
  suffix:string ->
  mapping

val mapped_block : mapping -> Ir.block -> Ir.block
(** Identity for blocks outside the region. *)

val mapped_value : mapping -> Ir.value -> Ir.value
(** Applies the region map, falling back to [seed]. *)
