(* Persistent, content-addressed on-disk artifact store — the layer that
   makes the stage cache survive process restarts.

   Layout: <dir>/v<schema_version>/<stage>/<fingerprint>, one file per
   (stage, fingerprint) key holding that key's full candidate list (the
   PPTokens stage can carry several candidates per fingerprint,
   ccache-manifest style; every other stage has one).  Opening a
   directory removes the trees of older schema versions.

   File format: a Binio frame (magic "MCST", version = schema_version)
   whose payload is a 32-char payload digest followed by the marshalled
   entry record.  Loads validate, in order: frame magic/version/length,
   payload digest, unmarshalling, and that the recorded stage and
   fingerprint match the requested key (a file renamed or cross-linked
   into the wrong slot must not serve).  Every validation failure is a
   miss — a [store.corrupt] or [store.version-mismatch] counter bump and
   [None] — never an exception into the pipeline: a corrupt cache can
   cost time, not correctness.

   Writes are atomic (tmp + rename within the store directory), so
   concurrent writers — Batch domains sharing one store, or an mccd
   daemon and an mcc process sharing a --cache-dir — can only ever
   publish complete files, and last-writer-wins is harmless because
   entries are content-addressed.

   Eviction: a byte-budget LRU.  Recency is a per-process logical clock
   (deterministic for tests), seeded from file mtimes when an existing
   directory is opened, and hits touch the file's mtime so recency
   survives restarts approximately.  Eviction is per save: after a write
   pushes the total over [max_bytes], oldest entries are unlinked until
   it fits. *)

module Stats = Mc_support.Stats
module Binio = Mc_support.Binio
module Fault = Mc_support.Fault

(* Injectable failures: a read fault is an I/O error on lookup (the
   entry stays on disk, unlike corruption), a write fault is a short
   write / ENOSPC mid-publish.  Both must degrade to counted misses —
   a store fault can cost time, never correctness. *)
let fault_read = Fault.point "store.read"
let fault_write = Fault.point "store.write"

(* v2: the "ir" artifact of function-granular units became a list of
   per-function payloads (see Pipeline); bumping makes pre-granular
   stores miss cleanly instead of unmarshalling the wrong shape.
   v3: instructions grew an [i_loc] source location for the analysis
   subsystem, changing the marshalled IR layout.
   v4: one compile algorithm — the "ast" artifact became the unit's
   per-slice split (id watermark, (fnast fp, decls) list), the "ir"
   artifact is always the untagged per-slice list, and the whole-unit
   "analysis" family is gone.
   v5: the "ast" and "ir" artifacts became manifests of per-slice
   fingerprints, the "pp" artifact carries its stream's digest, and a
   "fnast" artifact has a head that says whether the slice declares
   anything.
   v6: the "optir" artifact became [pack unroll_stats module] (Pipeline):
   its body is the marshalled module itself, which the daemon forwards
   without decoding.  A v5 optir payload would decode as the wrong
   type. *)
let schema_version = 6
let magic = "MCST"
let default_max_bytes = 512 * 1024 * 1024

let stat_hits =
  Stats.counter ~group:"store" ~name:"hits"
    ~desc:"stage artifacts served from the on-disk store" ()

let stat_misses =
  Stats.counter ~group:"store" ~name:"misses"
    ~desc:"on-disk store lookups that found no entry" ()

let stat_stores =
  Stats.counter ~group:"store" ~name:"stores"
    ~desc:"stage artifacts persisted to the on-disk store" ()

let stat_corrupt =
  Stats.counter ~group:"store" ~name:"corrupt"
    ~desc:"on-disk entries rejected as corrupt (treated as misses)" ()

let stat_version_mismatch =
  Stats.counter ~group:"store" ~name:"version-mismatch"
    ~desc:"on-disk entries rejected for a different schema version" ()

let stat_evictions =
  Stats.counter ~group:"store" ~name:"evictions"
    ~desc:"on-disk entries evicted by the LRU byte budget" ()

type entry = {
  e_stage : string;
  e_fp : string;
  e_candidates : string list;
}

(* Per-key accounting for the LRU: on-disk size and logical last use. *)
type slot = { mutable sl_bytes : int; mutable sl_used : int }

type t = {
  root : string; (* <dir>/v<schema_version> *)
  max_bytes : int;
  slots : (string * string, slot) Hashtbl.t;
  mutable total_bytes : int;
  mutable clock : int;
  lock : Mutex.t;
}

let entry_path_unlocked t ~stage fp = Filename.concat (Filename.concat t.root stage) fp

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let remove_file path = try Sys.remove path with Sys_error _ -> ()

(* Opening an existing directory adopts whatever complete entries are on
   disk, ordering their recency by mtime so a restarted process evicts
   the same way a long-running one would have. *)
let scan t =
  let files = ref [] in
  (if Sys.file_exists t.root && Sys.is_directory t.root then
     Array.iter
       (fun stage ->
         let sdir = Filename.concat t.root stage in
         if Sys.is_directory sdir then
           Array.iter
             (fun fp ->
               if String.length fp > 0 && fp.[0] = '.' then ()
               else
               let path = Filename.concat sdir fp in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                 files := ((stage, fp), st_size, st_mtime) :: !files
               | _ | (exception Unix.Unix_error _) -> ())
             (Sys.readdir sdir))
       (Sys.readdir t.root));
  List.iter
    (fun (key, size, _) ->
      Hashtbl.replace t.slots key { sl_bytes = size; sl_used = tick t };
      t.total_bytes <- t.total_bytes + size)
    (List.sort (fun (_, _, a) (_, _, b) -> compare a b) !files)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Sys.rmdir path with Sys_error _ -> ())
  | _ -> remove_file path
  | exception Unix.Unix_error _ -> ()

(* Whether [path] has the layout a store writes: stage directories
   holding framed entries (plus dot-named temporaries).  A directory the
   cache directory merely shares a name with is not a store tree. *)
let is_store_tree path =
  let entries p = try Sys.readdir p with Sys_error _ -> [||] in
  let framed file =
    match
      In_channel.with_open_bin file (fun ic ->
          In_channel.really_input_string ic (String.length magic))
    with
    | Some head -> String.equal head magic
    | None -> false
    | exception Sys_error _ -> false
  in
  match
    Array.for_all
      (fun stage ->
        let sdir = Filename.concat path stage in
        Sys.is_directory sdir
        && Array.for_all
             (fun f -> f.[0] = '.' || framed (Filename.concat sdir f))
             (entries sdir))
      (entries path)
  with
  | ok -> ok
  | exception Sys_error _ -> false

(* Trees of older schemas are unreachable from this binary and outside
   its byte budget, so they are removed.  A still-running older binary
   sees that as eviction: a miss, nothing worse.  Newer trees belong to
   newer binaries and are left alone. *)
let remove_older_schemas dir =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      match Scanf.sscanf_opt name "v%u%!" Fun.id with
      | Some k
        when k < schema_version
             && name = Printf.sprintf "v%d" k
             && is_store_tree path ->
        remove_tree path
      | _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let create ~dir ?(max_bytes = default_max_bytes) () =
  let root = Filename.concat dir (Printf.sprintf "v%d" schema_version) in
  Binio.mkdir_p root;
  remove_older_schemas dir;
  let t =
    {
      root;
      max_bytes;
      slots = Hashtbl.create 64;
      total_bytes = 0;
      clock = 0;
      lock = Mutex.create ();
    }
  in
  (match scan t with () -> () | exception Sys_error _ -> ());
  t

let dir t = Filename.dirname t.root
let entry_path t ~stage fp = entry_path_unlocked t ~stage fp

let total_bytes t = Mutex.protect t.lock (fun () -> t.total_bytes)
let entry_count t = Mutex.protect t.lock (fun () -> Hashtbl.length t.slots)

let forget_unlocked t key =
  match Hashtbl.find_opt t.slots key with
  | Some slot ->
    t.total_bytes <- t.total_bytes - slot.sl_bytes;
    Hashtbl.remove t.slots key
  | None -> ()

(* ---- load ---------------------------------------------------------------- *)

let decode ~stage ~fp contents =
  match Binio.parse_frame ~magic ~version:schema_version contents with
  | Error (Binio.Version_mismatch _) -> Error `Version
  | Error _ -> Error `Corrupt
  | Ok payload -> (
    if String.length payload < 32 then Error `Corrupt
    else
      let digest = String.sub payload 0 32 in
      let body = String.sub payload 32 (String.length payload - 32) in
      if Digest.to_hex (Digest.string body) <> digest then Error `Corrupt
      else
        match (Marshal.from_string body 0 : entry) with
        | e ->
          if e.e_stage = stage && e.e_fp = fp && e.e_candidates <> [] then
            Ok e.e_candidates
          else Error `Corrupt
        | exception _ -> Error `Corrupt)

let load t ~stage fp =
  if Fault.fire fault_read then begin
    (* Injected I/O failure: a miss, counted like any other, but the
       on-disk entry is intact — the next lookup may serve it. *)
    Stats.incr stat_misses;
    None
  end
  else
  let path = entry_path_unlocked t ~stage fp in
  match Binio.read_file path with
  | None ->
    Stats.incr stat_misses;
    None
  | Some contents -> (
    match decode ~stage ~fp contents with
    | Ok candidates ->
      Stats.incr stat_hits;
      Mutex.protect t.lock (fun () ->
          (match Hashtbl.find_opt t.slots (stage, fp) with
          | Some slot -> slot.sl_used <- tick t
          | None ->
            Hashtbl.replace t.slots (stage, fp)
              { sl_bytes = String.length contents; sl_used = tick t };
            t.total_bytes <- t.total_bytes + String.length contents);
          (* Refresh the file's mtime so cross-process recency tracks use. *)
          try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
      Some candidates
    | Error kind ->
      (* A bad entry is unlinked so it cannot be re-read (and re-counted)
         forever; either way this lookup is a miss. *)
      Stats.incr
        (match kind with
        | `Corrupt -> stat_corrupt
        | `Version -> stat_version_mismatch);
      Stats.incr stat_misses;
      Mutex.protect t.lock (fun () ->
          forget_unlocked t (stage, fp);
          remove_file path);
      None)

(* ---- save + eviction ----------------------------------------------------- *)

let evict_until_fits_unlocked t =
  while
    t.total_bytes > t.max_bytes
    && Hashtbl.length t.slots > 1 (* never evict the entry just written *)
  do
    let victim =
      Hashtbl.fold
        (fun key slot acc ->
          match acc with
          | Some (_, best) when best.sl_used <= slot.sl_used -> acc
          | _ -> Some (key, slot))
        t.slots None
    in
    match victim with
    | None -> t.total_bytes <- 0 (* unreachable: slots non-empty *)
    | Some ((stage, fp), _) ->
      remove_file (entry_path_unlocked t ~stage fp);
      forget_unlocked t (stage, fp);
      Stats.incr stat_evictions
  done

let save ?(version = schema_version) t ~stage fp candidates =
  if candidates = [] then ()
  else begin
    let body = Marshal.to_string { e_stage = stage; e_fp = fp; e_candidates = candidates } [] in
    let payload = Digest.to_hex (Digest.string body) ^ body in
    let contents = Binio.frame ~magic ~version payload in
    let path = entry_path_unlocked t ~stage fp in
    Binio.mkdir_p (Filename.dirname path);
    let write () =
      if Fault.fire fault_write then begin
        (* Injected ENOSPC / short write mid-publish: mimic
           [write_file_atomic]'s own failure discipline — the torn tmp
           file is removed, nothing is renamed into place, so readers
           can never observe a partial entry. *)
        let tmp = path ^ ".fault-tmp" in
        (try
           Out_channel.with_open_bin tmp (fun oc ->
               Out_channel.output_string oc
                 (String.sub contents 0 (String.length contents / 2)))
         with Sys_error _ -> ());
        remove_file tmp;
        Error "injected write fault"
      end
      else Binio.write_file_atomic ~path contents
    in
    match write () with
    | Error _ -> () (* a full or unwritable disk degrades to no persistence *)
    | Ok () ->
      Stats.incr stat_stores;
      Mutex.protect t.lock (fun () ->
          forget_unlocked t (stage, fp);
          Hashtbl.replace t.slots (stage, fp)
            { sl_bytes = String.length contents; sl_used = tick t };
          t.total_bytes <- t.total_bytes + String.length contents;
          evict_until_fits_unlocked t)
  end

(* The newest-written entry is exempt from its own eviction pass (see
   [evict_until_fits_unlocked]), so a single artifact larger than the
   whole budget still persists — it just evicts everything else.  That
   beats refusing to cache big units at all. *)
