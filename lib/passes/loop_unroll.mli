(** The LoopUnroll pass (paper §2.1/§2.2): consumes [llvm.loop.unroll.*]
    metadata planted by either CodeGen path and performs the duplication
    "only at that point" — no copies exist in the AST or in the IR before
    the mid-end runs.

    Three strategies, chosen per loop:

    - {b full unroll} for affine loops with a known constant trip count
      within the size threshold: the loop disappears into straight-line
      copies;
    - {b partial unroll with a remainder loop} (the paper's Listing 1
      shape): a guarded unrolled loop [while (iv + (k-1)*step cmp bound)]
      executing [k] body copies back to back, falling through into the
      original loop which drains the remaining iterations;
    - {b skip} when the loop is not recognisably affine or its header is
      not pure — the metadata is dropped and the loop left intact, which is
      always semantics-preserving.

    [llvm.loop.unroll.enable] (the heuristic mode of [#pragma omp unroll])
    picks between the above from the body size, like LLVM's profitability
    logic. *)

type stats = {
  fully_unrolled : int;
  partially_unrolled : int;
  skipped : int;
}

val empty_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum. *)

val processed : stats -> int
(** Requests handled, whatever the outcome.  Each one changed the
    function: a skipped request still has its metadata cleared. *)

val run_func : ?threshold:int -> Mc_ir.Ir.func -> stats
(** [threshold] caps the number of cloned instructions per full unroll
    (default 4096).  A function none of whose blocks carries
    [md_unroll] returns at once, before any dominator or loop
    analysis. *)

val choose_heuristic_factor : body_size:int -> trip_count:int64 option -> int option
(** Exposed for the C4/A3 benchmarks: [None] means full unroll is
    preferred, [Some 1] means don't unroll. *)
