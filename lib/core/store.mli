(** Persistent, content-addressed on-disk artifact store: the durability
    layer under {!Cache}, making per-stage memoization survive process
    restarts and be shareable across processes ([mcc --cache-dir DIR],
    the [mccd] daemon, {!Batch} domains).

    One file per (stage tag, fingerprint) key holds that key's full
    candidate list, framed ({!Mc_support.Binio}) with a schema version
    and an integrity digest.  {e Corruption is a miss, never an ICE}:
    truncated, bit-flipped, mis-keyed or version-mismatched entries are
    counted ([store.corrupt] / [store.version-mismatch]), unlinked, and
    reported as [None].  Writes are atomic (tmp + rename), so concurrent
    writers can only publish complete files.  A byte-budget LRU evicts
    least-recently-used entries on save ([store.evictions]).

    All store traffic lands in [store.*] counters of the calling
    domain's current stats registry: hits, misses, stores, corrupt,
    version-mismatch, evictions. *)

type t

val schema_version : int
(** Version of the on-disk entry format.  Entries written under any
    other version are rejected on load (counted, unlinked, missed) — a
    format change invalidates an old cache directory instead of
    misreading it. *)

val default_max_bytes : int
(** The default LRU byte budget (512 MiB). *)

val create : dir:string -> ?max_bytes:int -> unit -> t
(** Opens (creating if needed) the store rooted at
    [dir/v<schema_version>].  Existing entries are adopted with recency
    seeded from file mtimes, so a restarted process continues the same
    LRU order.  Sibling trees [dir/v<k>] of older schemas ([k <
    schema_version]) are removed: nothing can read them, and they count
    against no byte budget.  Newer ones, and any [v<k>] directory
    without a store's layout, are left alone. *)

val dir : t -> string
(** The directory [create] was given. *)

val load : t -> stage:string -> string -> string list option
(** [load t ~stage fp] returns the candidate payload list stored under
    the key, newest first — exactly what {!Cache} keeps in memory per
    key — or [None] on absence or any validation failure.  A hit bumps
    the entry's recency (and its file mtime, for cross-process LRU). *)

val save : ?version:int -> t -> stage:string -> string -> string list -> unit
(** [save t ~stage fp candidates] atomically persists the key's full
    candidate list, then evicts LRU entries while the store exceeds its
    byte budget.  IO failures (full disk, unwritable directory) degrade
    to not persisting.  [?version] overrides the embedded schema version
    and exists only so tests can exercise mismatch rejection. *)

val entry_path : t -> stage:string -> string -> string
(** Where the key's entry file lives — exposed for corruption-injection
    tests. *)

val total_bytes : t -> int
(** Current accounted size of all entries, in bytes. *)

val entry_count : t -> int
