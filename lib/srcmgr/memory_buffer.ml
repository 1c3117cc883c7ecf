type t = {
  name : string;
  contents : string;
  (* Content digest, computed on demand and then remembered: buffer
     identity for the stage cache (pipeline fingerprints, #include set
     validation) without rehashing on every lookup.  The contents are
     immutable, so the cached digest can never go stale. *)
  mutable digest : string option;
}

let create ~name ~contents = { name; contents; digest = None }
let name t = t.name
let contents t = t.contents
let length t = String.length t.contents
let sub t ~pos ~len = String.sub t.contents pos len

let digest t =
  match t.digest with
  | Some d -> d
  | None ->
    let d = Digest.to_hex (Digest.string t.contents) in
    t.digest <- Some d;
    d
