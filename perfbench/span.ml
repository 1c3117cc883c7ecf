(* In-memory span recorder for the traced run: one span per call the
   benchmark makes into a layer's public function, with its start, end,
   parent span and operation id.  Spans are kept in memory and written
   out as JSON lines when the run ends. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int; (* 0 for a root span *)
  op : int; (* the operation the span belongs to *)
}

let spans : t list ref = ref []
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let add s = spans := s :: !spans

(* Record a span for an interval measured elsewhere. *)
let record ?(parent = 0) ~op name ~start ~stop =
  let id = fresh_id () in
  add { id; name; start; stop; parent; op };
  id

(* Time [f] as a span; [f] receives the span's id, to parent its children.
   Returns the result and the duration. *)
let run ?(parent = 0) ~op name f =
  let id = fresh_id () in
  let start = Common.now () in
  let v = f id in
  let stop = Common.now () in
  add { id; name; start; stop; parent; op };
  (v, stop -. start)

(* The same, for a thunk that opens no child spans. *)
let time ?parent ~op name f = run ?parent ~op name (fun _ -> f ())

let count () = List.length !spans

let write path =
  let all = List.rev !spans in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"start\": %.9f, \"end\": %.9f, \"parent\": %d, \"op\": %d}\n"
            s.id s.name s.start s.stop s.parent s.op)
        all)
