(* Shared settings, pinned inputs, checks and metric bookkeeping. *)

let components = 3
let bound_mode = Encoding.Encoder.Symbolic_bounds

(* Whole-call budget of every verifier call. The slowest pinned query
   settles in under 3 s, so a busy machine has ample room before a
   verdict could degrade to Unknown. *)
let time_limit = 30.0

let now = Linalg.Mclock.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let sum = List.fold_left ( +. ) 0.0

(* {1 Pinned networks}

   Produced by [depnn_cli train --width N --epochs 5 --samples 600
   --seed 7] (see README.md); the content hash is checked on every load
   so a training change can never silently change what is verified. *)

let pinned =
  [
    (10, "766dabdb75ae7bcf");
    (20, "6a3782a9e9a6fd31");
    (40, "ad1e488a7cac376c");
    (60, "03d318fd81baaf5c");
  ]

let net_path width = Printf.sprintf "depnnbench/nets/i4x%d.nn" width

let load_pinned width =
  let net = Nn.Io.load (net_path width) in
  let hash = Nn.Io.content_hash net in
  let expected = List.assoc width pinned in
  if hash <> expected then
    failwith
      (Printf.sprintf "%s: content hash %s, pinned %s" (net_path width) hash
         expected);
  net

let property ~threshold (box : Interval.Box.box) =
  {
    Certify.Certificate.threshold;
    components;
    bound_mode = Certify.Checker.mode_string bound_mode;
    box = Array.map (fun (iv : Interval.t) -> (iv.Interval.lo, iv.Interval.hi)) box;
  }

let box_of_property (p : Certify.Certificate.property) =
  Array.map (fun (lo, hi) -> Interval.make lo hi) p.Certify.Certificate.box

let outcome = function
  | Verify.Driver.Proved -> "proved"
  | Verify.Driver.Disproved _ -> "disproved"
  | Verify.Driver.Unknown _ -> "unknown"

let audit_verdict = function
  | `Proved -> "proved"
  | `Disproved -> "disproved"
  | `Unknown -> "unknown"

(* {1 Operations and checks}

   Every verifier call, audit and client request is one attempted
   operation; it fails when any of its checks does. *)

let attempted = ref 0
let failed = ref 0

let op what problems =
  incr attempted;
  match List.filter_map Fun.id problems with
  | [] -> ()
  | reasons ->
      incr failed;
      Printf.eprintf "FAILED %s: %s\n%!" what (String.concat "; " reasons)

let expect what ~ok = if ok then None else Some what

(* {1 Metrics} *)

type metric = { name : string; unit_ : string; value : float; count : int }

let metrics : metric list ref = ref []

let emit ?(count = 1) name unit_ value =
  metrics := { name; unit_; value; count } :: !metrics

(* Median of per-sample timings, with its sample count. *)
let emit_median name unit_ xs = emit ~count:(List.length xs) name unit_ (median xs)

(* {1 Repeated units, and the host's speed}

   The host this runs on changes the speed of the CPU it lends by up to
   2x, in spells from tens of milliseconds to tens of seconds, and the
   share of slow spells drifts from run to run. One long call averages
   over whatever spells it met, so timings of long passes spread by
   25-40 % between runs of the same code.

   So every workload is built from short units (a query, an audit, a
   set-up stage, a block of hits) that run once per round, and rounds
   repeat until the run's deadline. Each round also runs a reference
   computation of the benchmark's own, twice: three fixed kernels that
   use no depnn code (float row reductions, interval arithmetic through
   a fixed network, allocation of a map), about 35 ms in all, which
   [Serve_mix] joins with a socket kernel. A unit's
   time is the mean of its repetitions. Units and reference meet the
   same mix of spells, so their ratio is steady where neither is: a
   gated time is the sum of its units' means scaled by
   [ref_nominal_s /. reference mean], i.e. seconds on a host that runs
   the reference in [ref_nominal_s]. The raw sums are printed beside
   the gated ones. *)

let unit_times : (string, float list) Hashtbl.t = Hashtbl.create 64
let unit_order : string list ref = ref []

let record_unit key t =
  match Hashtbl.find_opt unit_times key with
  | None ->
      unit_order := key :: !unit_order;
      Hashtbl.replace unit_times key [ t ]
  | Some ts -> Hashtbl.replace unit_times key (t :: ts)

(* Run [f] as one repetition of unit [key]. *)
let sample key f =
  let r, t = timed f in
  record_unit key t;
  r

let in_group group key =
  let p = group ^ "." in
  String.length key >= String.length p && String.sub key 0 (String.length p) = p

let group_keys group = List.filter (in_group group) (List.rev !unit_order)

let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

(* The sum of the means of the units of [group] (keys [group.*]), with
   the fewest repetitions any of them had. *)
let group_mean group =
  let keys = group_keys group in
  let times k = Hashtbl.find unit_times k in
  ( sum (List.map (fun k -> mean (times k)) keys),
    List.fold_left (fun acc k -> min acc (List.length (times k))) max_int keys )

(* {2 The reference computation} *)

let kernel_rows = 48
let kernel_cols = 96
let kernel_m = Array.make (kernel_rows * kernel_cols) 0.0

(* Row reductions over a 48x96 float matrix, allocation-free. *)
let reference_rows () =
  let r = kernel_rows and c = kernel_cols and m = kernel_m in
  let acc = ref 0.0 in
  for rep = 1 to 40 do
    for i = 0 to (r * c) - 1 do
      m.(i) <- 1.0 +. (float_of_int (((i * 7919) + rep) mod 101) /. 101.0)
    done;
    for p = 0 to r - 1 do
      let piv = m.((p * c) + p) in
      for i = 0 to r - 1 do
        if i <> p then begin
          let f = m.((i * c) + p) /. piv in
          for j = p to c - 1 do
            m.((i * c) + j) <- m.((i * c) + j) -. (f *. m.((p * c) + j))
          done
        end
      done
    done;
    acc := !acc +. m.(c - 1)
  done;
  ignore (Sys.opaque_identity !acc)

let kernel_weights =
  let st = ref 12345 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    (float_of_int (!st mod 2001) /. 1000.0) -. 1.0
  in
  List.map
    (fun (rows, cols) -> Array.init rows (fun _ -> Array.init cols (fun _ -> 0.2 *. next ())))
    [ (40, 84); (40, 40); (40, 40); (40, 40); (9, 40) ]

(* Interval bounds through a fixed 84-40-40-40-40-9 ReLU network. *)
let reference_interval () =
  let acc = ref 0.0 in
  for rep = 1 to 200 do
    let w0 = 0.01 *. float_of_int rep in
    let lo = ref (Array.init 84 (fun i -> -.w0 -. (0.001 *. float_of_int i)))
    and hi = ref (Array.init 84 (fun i -> w0 +. (0.001 *. float_of_int i))) in
    List.iter
      (fun w ->
        let n = Array.length w in
        let nlo = Array.make n 0.0 and nhi = Array.make n 0.0 in
        for r = 0 to n - 1 do
          let row = w.(r) in
          let a = ref 0.0 and b = ref 0.0 in
          for c = 0 to Array.length row - 1 do
            let x = row.(c) in
            if x >= 0.0 then begin
              a := !a +. (x *. !lo.(c));
              b := !b +. (x *. !hi.(c))
            end
            else begin
              a := !a +. (x *. !hi.(c));
              b := !b +. (x *. !lo.(c))
            end
          done;
          nlo.(r) <- Float.max 0.0 !a;
          nhi.(r) <- Float.max 0.0 !b
        done;
        lo := nlo;
        hi := nhi)
      kernel_weights;
    acc := !acc +. !hi.(0)
  done;
  ignore (Sys.opaque_identity !acc)

module IntMap = Map.Make (Int)

(* Allocation-heavy bookkeeping: a map and a list of boxed tuples. *)
let reference_alloc () =
  let m = ref IntMap.empty in
  for i = 0 to 20_000 do
    m := IntMap.add ((i * 7919) mod 30011) (float_of_int i, i) !m
  done;
  let l = IntMap.fold (fun k (f, _) acc -> (k, f) :: acc) !m [] in
  ignore (Sys.opaque_identity (List.fold_left (fun a (_, f) -> a +. f) 0.0 l))

let reference () =
  sample "ref.rows" reference_rows;
  sample "ref.interval" reference_interval;
  sample "ref.alloc" reference_alloc

(* A fixed scale, of the order of what the reference takes on the
   2-vCPU host the benchmark was built on. *)
let ref_nominal_s = 0.05

(* [<base>_s]: the units of [group], scaled to the nominal reference
   speed; [<base>_raw_s]: their plain sum of means. *)
let emit_group base group =
  if group_keys group <> [] then begin
    let raw, count = group_mean group in
    let reference, _ = group_mean "ref" in
    emit ~count (base ^ "_s") "s" (raw *. ref_nominal_s /. reference);
    emit ~count (base ^ "_raw_s") "s" raw
  end

(* Run [round ()], with the reference before and after it, until
   [seconds] have passed, and at least [min_rounds] times. Prints the
   reference's mean as [host_ref_s]. *)
let rounds ?(min_rounds = 3) ~seconds round =
  let deadline = now () +. seconds in
  let rec loop n =
    reference ();
    round ();
    reference ();
    if n + 1 < min_rounds || now () < deadline then loop (n + 1) else n + 1
  in
  let n = loop 0 in
  let reference, count = group_mean "ref" in
  emit ~count "host_ref_s" "s" reference;
  n

let notes : string list ref = ref []
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

(* {1 Files} *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run_root = "depnnbench/_run"

(* A fresh scratch directory under the run root, removed by [cleanup]. *)
let work_dir = ref ""

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d = Filename.concat !work_dir (Printf.sprintf "%s-%d" tag !n) in
    mkdir_p d;
    d
