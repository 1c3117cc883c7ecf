(* The annotated control-flow graph an analysis pass walks: one function's
   blocks with precomputed predecessor lists, a reverse-postorder
   numbering, the dominator tree, and the per-statement source locations
   CodeGen stamped onto the instructions ([Ir.inst.i_loc]) — the bridge
   from an IR-level fact back to a "file:line:col" the user can act on.

   The CFG is a read-only *view*: it aliases the function's blocks and
   never mutates them, so building one is cheap and an analysis can run
   on a module that the pass pipeline will later rewrite in place. *)

open Mc_ir
module Dominators = Mc_passes.Dominators
module Loc = Mc_srcmgr.Source_location

type t = {
  func : Ir.func;
  dom : Dominators.t; (* also holds the predecessor index *)
  rpo : Ir.block list; (* reachable blocks, entry first *)
}

let build func =
  let dom = Dominators.compute func in
  { func; dom; rpo = Dominators.reverse_postorder dom }

let predecessors t b = Dominators.predecessors t.dom b

let is_reachable t b = Dominators.is_reachable t.dom b

(* The distinct valid source locations of a block's instructions, in
   program order — the annotation layer of the annotated CFG. *)
let block_locs b =
  List.rev
    (List.fold_left
       (fun acc (i : Ir.inst) ->
         if
           Loc.is_valid i.Ir.i_loc
           && not (List.exists (Loc.equal i.Ir.i_loc) acc)
         then i.Ir.i_loc :: acc
         else acc)
       []
       (Ir.block_insts b))

let first_loc b =
  List.find_map
    (fun (i : Ir.inst) ->
      if Loc.is_valid i.Ir.i_loc then Some i.Ir.i_loc else None)
    (Ir.block_insts b)

let last_loc b =
  List.fold_left
    (fun acc (i : Ir.inst) ->
      if Loc.is_valid i.Ir.i_loc then Some i.Ir.i_loc else acc)
    None
    (Ir.block_insts b)
