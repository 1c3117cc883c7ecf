(* Accumulates the traced run's per-layer figures.  Times are summed and
   reported as mean seconds per traced operation (per operation under that
   lowering, for the per-lowering metrics), so a layer that only some
   operations enter reads low; counts are totals over the traced
   operations; ratios are set directly.  A declared metric the workload
   never touched reads 0. *)

type t = {
  times : (string, float) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
  fixed : (string, float) Hashtbl.t;
  ops : (string, int) Hashtbl.t; (* operations per lowering tag, "" = all *)
}

let create () =
  {
    times = Hashtbl.create 32;
    counts = Hashtbl.create 32;
    fixed = Hashtbl.create 8;
    ops = Hashtbl.create 4;
  }

let bump tbl name v =
  Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)

let time t name dt = bump t.times name dt
let count t name v = bump t.counts name v
let set t name v = Hashtbl.replace t.fixed name v

(* One traced operation, under the given lowering tag if any. *)
let op ?tag t =
  let incr k = Hashtbl.replace t.ops k (1 + Option.value (Hashtbl.find_opt t.ops k) ~default:0) in
  incr "";
  Option.iter incr tag

(* Operations a time is averaged over: those under the metric's lowering
   tag, or every operation when none carries the tag, so a forgotten tag
   cannot silently zero a metric. *)
let ops_for t name =
  let count k = Option.value (Hashtbl.find_opt t.ops k) ~default:0 in
  match
    List.find_opt (fun tag -> String.ends_with ~suffix:("." ^ tag) name) [ "classic"; "irbuilder" ]
  with
  | Some tag when count tag > 0 -> count tag
  | _ -> count ""

let per_op t name =
  match (Hashtbl.find_opt t.times name, ops_for t name) with
  | Some s, n when n > 0 -> s /. float_of_int n
  | _ -> 0.0

let get_count t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.0

let metrics t =
  List.map
    (fun (name, _) ->
      let v =
        match Hashtbl.find_opt t.fixed name with
        | Some v -> v
        | None -> if Hashtbl.mem t.times name then per_op t name else get_count t name
      in
      (name, v))
    Spec.per_layer
