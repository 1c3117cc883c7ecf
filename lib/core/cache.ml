(* Per-stage memoization for the stage-graph pipeline.

   The cache is a mutex-guarded map from (stage tag, fingerprint) to the
   marshalled bytes of that stage's artifact.  It is deliberately untyped
   at this layer: [Pipeline] owns the artifact types, computes the
   fingerprints (hash of the input artifact + the stage-relevant slice of
   the invocation) and does the marshalling, so the cache stays a dumb,
   domain-shareable store.  Payload strings are immutable, so handing the
   same bytes to two domains is safe; consumers unmarshal a fresh copy
   per hit (mutable artifacts such as IR modules must never be aliased
   across units).

   Lookups can carry a validation predicate — the PPTokens stage uses it
   to check the recorded #include set (path + content digest) against the
   current file manager, ccache-style: a stale include set counts as an
   invalidation plus a miss, never a wrong hit.

   Every stage's hit/miss/store/invalidation events land in [cache.*]
   counters of the calling domain's current stats registry, so they
   surface in -print-stats and in per-compile snapshots. *)

module Stats = Mc_support.Stats

let stage_names =
  (* Unit-level stages first, then the per-slice artifact families (one
     artifact per top-level slice). *)
  [ "transfo"; "lex"; "pp"; "ast"; "ir"; "optir"; "fnast"; "fnir"; "fnoptir";
    "fnanalysis" ]

type stage_counters = {
  sc_hits : Stats.counter;
  sc_misses : Stats.counter;
  sc_stores : Stats.counter;
  sc_invalidations : Stats.counter;
}

let stage_counters =
  List.map
    (fun s ->
      ( s,
        {
          sc_hits =
            Stats.counter ~group:"cache" ~name:(s ^ "-hits")
              ~desc:(Printf.sprintf "%s stage artifacts reused from the cache" s)
              ();
          sc_misses =
            Stats.counter ~group:"cache" ~name:(s ^ "-misses")
              ~desc:(Printf.sprintf "%s stage lookups that found nothing" s)
              ();
          sc_stores =
            Stats.counter ~group:"cache" ~name:(s ^ "-stores")
              ~desc:(Printf.sprintf "%s stage artifacts stored" s)
              ();
          sc_invalidations =
            Stats.counter ~group:"cache" ~name:(s ^ "-invalidations")
              ~desc:
                (Printf.sprintf
                   "cached %s stage artifacts rejected by validation" s)
              ();
        } ))
    stage_names

let counters_for stage =
  match List.assoc_opt stage stage_counters with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Cache: unknown stage %S" stage)

(* Each (stage, fp) key holds a list of candidate payloads, newest
   first.  For most stages the list has one element; the PPTokens stage
   can legitimately accumulate one candidate per #include-set variant
   (the fingerprint cannot see include contents — that is what the
   validation predicate is for), ccache-manifest style, so flipping a
   header back and forth revalidates old candidates instead of thrashing
   one slot. *)
type t = {
  table : (string * string, string list) Hashtbl.t;
  lock : Mutex.t;
  disk : Store.t option;
      (* write-through persistence: misses fall back to disk, stores
         mirror the key's full candidate list to disk *)
}

let create ?store () =
  { table = Hashtbl.create 64; lock = Mutex.create (); disk = store }

let store_of t = t.disk

let length t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ ps n -> n + List.length ps) t.table 0)

let stage_length t ~stage =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun (s, _) ps n -> if String.equal s stage then n + List.length ps else n)
        t.table 0)

(* The key's candidates: memory first, then — on a memory miss — the
   on-disk store, whose entry (the full candidate list as of its last
   write) is adopted into memory so subsequent lookups stay in-process.
   A concurrent adopter racing on the same key keeps whichever list
   landed first; both are valid reads of the same on-disk entry. *)
let candidates_for t ~stage fp =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table (stage, fp)) with
  | Some (_ :: _) as found -> found
  | None | Some [] -> (
    match t.disk with
    | None -> None
    | Some st -> (
      match Store.load st ~stage fp with
      | None -> None
      | Some loaded ->
        Mutex.protect t.lock (fun () ->
            match Hashtbl.find_opt t.table (stage, fp) with
            | Some (_ :: _ as existing) -> Some existing
            | None | Some [] ->
              Hashtbl.replace t.table (stage, fp) loaded;
              Some loaded)))

let find t ~stage ?validate fp =
  let c = counters_for stage in
  match candidates_for t ~stage fp with
  | None | Some [] ->
    Stats.incr c.sc_misses;
    None
  | Some candidates -> (
    match validate with
    | None ->
      Stats.incr c.sc_hits;
      Some (List.hd candidates)
    | Some ok -> (
      match List.find_opt ok candidates with
      | Some payload ->
        Stats.incr c.sc_hits;
        Some payload
      | None ->
        (* Every candidate is stale under the current invocation (e.g.
           an #include's contents changed): the entries stay — an
           invocation matching a recorded state may still revalidate one
           — but this lookup is a miss. *)
        Stats.incr c.sc_invalidations;
        Stats.incr c.sc_misses;
        None))

(* A hit whose artifact proved unusable once read — a manifest naming a
   member the cache no longer holds.  The lookup is re-counted as a
   validation would have counted it: an invalidation and a miss. *)
let reject ~stage =
  let c = counters_for stage in
  Stats.add c.sc_hits (-1);
  Stats.incr c.sc_invalidations;
  Stats.incr c.sc_misses

let store t ~stage fp payload =
  let c = counters_for stage in
  let added =
    Mutex.protect t.lock (fun () ->
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt t.table (stage, fp))
        in
        if List.exists (String.equal payload) existing then None
        else begin
          let updated = payload :: existing in
          Hashtbl.replace t.table (stage, fp) updated;
          Some updated
        end)
  in
  match added with
  | None -> ()
  | Some updated ->
    Stats.incr c.sc_stores;
    (* Write-through: persist the key's full candidate list so a fresh
       process (or the daemon after a restart) revalidates the same
       ccache-style manifest this process would have. *)
    (match t.disk with
    | Some st -> Store.save st ~stage fp updated
    | None -> ())

(* Canonical, location-free rendering of the preprocessed stream.  NUL
   separates tokens (no token spelling contains one) and SOH marks
   pragma boundaries, so distinct streams cannot collide by
   concatenation.  This is what makes the AST stage content-addressed on
   the preprocessor's *output*: comment/whitespace edits — and -D changes
   the expansion never uses — leave the digest unchanged. *)
let canonical_items buf items =
  List.iter
    (fun item ->
      match item with
      | Mc_pp.Preprocessor.Tok tok ->
        Buffer.add_string buf (Mc_lexer.Token.spelling tok);
        Buffer.add_char buf '\x00'
      | Mc_pp.Preprocessor.Prag p ->
        Buffer.add_string buf "\x01#pragma\x00";
        List.iter
          (fun tok ->
            Buffer.add_string buf (Mc_lexer.Token.spelling tok);
            Buffer.add_char buf '\x00')
          p.Mc_pp.Preprocessor.pragma_toks;
        Buffer.add_char buf '\x01')
    items

let canonical_digest items =
  let buf = Buffer.create 4096 in
  canonical_items buf items;
  Digest.to_hex (Digest.string (Buffer.contents buf))
