(** An immutable chunk of source text with an identifying name, the analogue
    of [llvm::MemoryBuffer] that Clang's FileManager hands to the
    SourceManager (see Fig. 1 of the paper). *)

type t

val create : name:string -> contents:string -> t
val name : t -> string
val contents : t -> string
val length : t -> int

val sub : t -> pos:int -> len:int -> string

val digest : t -> string
(** Hex content digest of the buffer — its identity for the stage cache
    (artifact fingerprints, [#include]-set validation).  Computed lazily
    and cached; the contents are immutable so it cannot go stale. *)
