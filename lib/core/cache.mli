(** Per-stage artifact cache for the stage-graph pipeline.

    Generalizes the PR-2 whole-compile cache: instead of one entry per
    translation unit, each cached {!Pipeline} stage (pp, ast, optir)
    memoizes its artifact under a content fingerprint — the hash of the
    stage's input artifact plus the stage-relevant slice of the
    invocation.  A comment-only edit therefore re-runs pp (lexing
    included) but reuses everything from the AST stage onward, while an
    option change invalidates exactly the stages whose slice it
    touches.

    The cache itself is untyped (marshalled bytes); {!Pipeline} owns the
    artifact types, the fingerprints and the marshalling.  A cache is
    safe to share across the domains of a {!Batch} compilation; payload
    strings are immutable, and consumers unmarshal a fresh copy per hit,
    so mutable artifacts (IR modules, source managers) are never aliased
    across units.

    Per-stage hit/miss/store/invalidation events land in the
    [cache.<stage>-*] counters of the calling domain's current stats
    registry, surfacing through [-print-stats] and per-compile
    snapshots; the whole-pipeline [cache.hits]/[cache.misses] aggregates
    are maintained by {!Pipeline}. *)

type t

val stage_names : string list
(** The stage tags, in pipeline order: ["transfo"; "pp"; "ast";
    "optir"], followed by the per-slice artifact families: ["fnast";
    "fnir"; "fnoptir"; "fnanalysis"] (one artifact per top-level
    slice).  Lexing runs inside the pp stage and codegen's keys derive
    from the AST manifest, so neither has a unit artifact. *)

val create : ?store:Store.t -> unit -> t
(** A fresh in-memory cache.  With [?store], the cache is layered over a
    persistent on-disk {!Store}: memory misses fall back to disk (a
    disk-served artifact counts as that stage's cache hit and is adopted
    into memory), and every store writes through, so the cache survives
    process restarts and is shareable across processes. *)

val store_of : t -> Store.t option
(** The backing on-disk store, when the cache was created with one. *)

val length : t -> int
(** Total number of cached stage artifacts (across all stages). *)

val stage_length : t -> stage:string -> int
(** Number of cached artifacts for one stage tag. *)

val find : t -> stage:string -> ?validate:(string -> bool) -> string -> string option
(** [find t ~stage fp] looks up a stage artifact by fingerprint, counting
    a hit or a miss.  When [validate] is given, the newest-first list of
    candidate payloads under the fingerprint is scanned and the first
    accepted one returned; if every candidate is rejected (e.g. no
    recorded PPTokens #include set matches the current file manager),
    the lookup counts an invalidation plus a miss and returns [None] —
    the entries are kept for later revalidation. *)

val reject : stage:string -> unit
(** Re-count the current compilation's hit on a [stage] artifact as an
    invalidation plus a miss: what {!Pipeline} does when the AST
    manifest it was served names a member the cache no longer holds
    (evicted, corrupt, or lost to a faulted read). *)

val store : t -> stage:string -> string -> string -> unit
(** [store t ~stage fp payload] adds a stage artifact as the newest
    candidate under the fingerprint (deduplicating byte-identical
    payloads). *)

val canonical_items : Buffer.t -> Mc_pp.Preprocessor.item list -> unit
(** Append the canonical, location-free rendering of a preprocessed
    stream (token spellings, NUL-separated, with SOH pragma markers) to
    [buf] — the encoding {!canonical_digest} hashes, exposed so the
    function-granular slicer can address sub-streams the same way. *)

val canonical_digest : Mc_pp.Preprocessor.item list -> string
(** Digest of the canonical, location-free rendering of a preprocessed
    stream (token spellings, NUL-separated, with SOH pragma markers) —
    the content address the AST stage fingerprint builds on. *)
