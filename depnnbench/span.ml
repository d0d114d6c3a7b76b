(* In-memory span recorder for the traced run.

   Spans are recorded only around the calls the benchmark itself makes
   into the depnn layers; nothing inside the library is instrumented.
   The recorder is single-domain state: the traced replay runs every
   verifier call with [cores = 1] on the calling domain. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  query : int;
  extra : bool;
      (* measurement-only work the driver never does (reference encodes,
         root relaxations on both LP cores, store probes): excluded from
         coverage and from the tracing overhead *)
  start : float;
  stop : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let query = ref 0
let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let set_query q = query := q

let add name v =
  Hashtbl.replace counts name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let count name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

(* A per-event sample (e.g. time to first incumbent) reduced to a median
   by the caller. *)
let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let samples_of name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* Record a span whose name is only known once the call has returned
   (a store lookup is named by the kind of hit it produced). *)
let record ?(extra = false) name ~start ~stop =
  let id = !next_id in
  incr next_id;
  spans :=
    { id; name; parent = !current; query = !query; extra; start; stop }
    :: !spans

let with_ ?(extra = false) name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let start = Linalg.Mclock.now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Linalg.Mclock.now () in
      current := parent;
      spans := { id; name; parent; query = !query; extra; start; stop } :: !spans)
    f

let duration s = s.stop -. s.start

let named name = List.filter (fun s -> s.name = name) !spans

let durations name = List.map duration (named name)

let total name = List.fold_left (fun acc s -> acc +. duration s) 0.0 (named name)

(* Self time: the span's duration minus the part of its interval that
   its children cover. Children of one span never overlap (one domain),
   so subtracting their clipped durations is exact. *)
let self_times () =
  let child_time = Hashtbl.create 256 in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id s.parent with
      | None -> ()
      | Some p ->
          let covered =
            Float.max 0.0 (Float.min s.stop p.stop -. Float.max s.start p.start)
          in
          Hashtbl.replace child_time p.id
            (covered
            +. Option.value ~default:0.0 (Hashtbl.find_opt child_time p.id)))
    !spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      (s, Float.max 0.0 (duration s -. c)))
    !spans

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"query\":%d,\
             \"extra\":%b,\"start\":%.9f,\"end\":%.9f}\n"
            s.id s.name s.parent s.query s.extra s.start s.stop)
        (List.rev !spans))
