(* Workload [serve_hits]: a closed-loop request stream against the
   proof server.

   The server runs in its own process (this executable re-run with
   [--serve-child]) with one worker on the pinned I4x20. Two client
   connections, one thread each, send their next request only after the
   previous reply arrived.

   First each connection asks [warmup] fresh questions (misses that
   solve, certify and write the store); these boxes are the same for
   every seed. Then the measured phase runs in rounds: 1.5 s of hits,
   each block of [block] completed hits a unit, then an audit of every
   warm-up miss's certificate directory and the start and stop of one
   more server (a set-up unit). Each connection's seeded stream deals
   from decks of 20 requests: 14 exact repeats of a question it already
   had answered, and 6 nested boxes at looser thresholds inside such a
   question, which the store answers by subsumption.

   No caller in the repository sends a stream that mixes misses and
   hits, so any share of misses would be a guess, and with one in 20 the
   misses already took almost all of the phase's wall clock. So the
   timed phase holds hits only, and the misses are measured on their own
   before it.

   Fresh boxes of the two connections occupy disjoint slots along one
   scenario dimension, and repeats and nested requests refer only to the
   connection's own answered questions, so the cache class of every
   request is known in advance whatever the interleaving. Every
   threshold is at least 0.5, which the pinned I4x20 meets on the whole
   scenario (a plain decision proves it in about 3 s), so every verdict
   must be Proved. *)

open Common

let slack = 0.03
let width = 20
let request_time_limit = 10.0
let slots = 8192

type kind = Exact | Subsumed | Miss

(* Misses each connection sends before the measured phase; the length
   of the hit phase of one round; and the number of consecutive
   completed hits timed as one block, a unit of about 20 ms. *)
let warmup = 8
let round_hits_s = 1.5
let block = 50

let kind_name = function Exact -> "exact" | Subsumed -> "subsumed" | Miss -> "miss"

type sample = {
  kind : kind;
  rtt : float;
  t_done : float;
  answer : Serve.Protocol.answer option;
  problems : string option list;
}

(* {1 Server process} *)

let serve_child ~socket ~cache =
  let net = load_pinned width in
  let config =
    {
      (Serve.Server.default_config ~address:(Serve.Protocol.Unix_socket socket)
         ~cache_dir:cache ())
      with
      Serve.Server.workers = 1;
      stats_interval = 0.0;
      handle_signals = true;
      log = ignore;
    }
  in
  Serve.Server.run config net

type server = { pid : int; address : Serve.Protocol.address; root : string }

let rec wait_exit pid ~until =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now () < until ->
      Unix.sleepf 0.02;
      wait_exit pid ~until
  | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~until

let stop s =
  (match Serve.Client.call ~timeout:30.0 s.address Serve.Protocol.Shutdown with
   | Ok _ -> ()
   | Error _ -> ( try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  wait_exit s.pid ~until:(now () +. 60.0)

let start () =
  let root = fresh_dir "server" in
  let socket = Filename.concat root "sock" in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--serve-child"; socket; Filename.concat root "cache" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let s = { pid; address = Serve.Protocol.Unix_socket socket; root } in
  (* [Serve.Client.wait_ready] sleeps 50 ms between polls, which would
     round every start up to that step: poll every 0.2 ms. *)
  let deadline = now () +. 60.0 in
  let rec ready () =
    match Serve.Client.call ~timeout:1.0 s.address Serve.Protocol.Status with
    | Ok (Serve.Protocol.Stats _) -> s
    | _ when now () < deadline ->
        Unix.sleepf 0.0002;
        ready ()
    | _ ->
        stop s;
        failwith "serve: server did not come up within 60 s"
  in
  ready ()

(* {1 Request streams} *)

let scenario () = Verify.Scenario.vehicle_on_left ~slack ()

(* The slot dimension: the first scenario dimension with slack. *)
let slot_dim (box : Interval.Box.box) =
  let rec find i = if box.(i).Interval.hi > box.(i).Interval.lo then i else find (i + 1) in
  find 0

let sub_interval rng ~frac (lo, hi) =
  let w = hi -. lo in
  if w <= 0.0 then (lo, hi)
  else
    let a = lo +. Linalg.Rng.float rng (w *. (1.0 -. frac)) in
    (a, Float.min hi (a +. (w *. frac)))

let fresh rng ~conn ~index (box : Interval.Box.box) =
  let d = slot_dim box in
  let b =
    Array.mapi
      (fun i (iv : Interval.t) ->
        let lo = iv.Interval.lo and hi = iv.Interval.hi in
        if i = d then
          let k = float_of_int ((2 * index) + conn) and n = float_of_int slots in
          let w = hi -. lo in
          (lo +. (k *. w /. n), Float.min hi (lo +. ((k +. 1.0) *. w /. n)))
        else sub_interval rng ~frac:(0.3 +. Linalg.Rng.float rng 0.35) (lo, hi))
      box
  in
  {
    (property ~threshold:(0.5 +. Linalg.Rng.float rng 0.1) [||]) with
    Certify.Certificate.box = b;
  }

let nested rng (p : Certify.Certificate.property) =
  {
    p with
    Certify.Certificate.threshold =
      p.Certify.Certificate.threshold +. Linalg.Rng.float rng 0.1;
    box =
      Array.map
        (fun iv -> sub_interval rng ~frac:(0.5 +. Linalg.Rng.float rng 0.4) iv)
        p.Certify.Certificate.box;
  }

let deck = Array.concat [ Array.make 14 Exact; Array.make 6 Subsumed ]

let shuffled rng =
  let d = Array.copy deck in
  for i = Array.length d - 1 downto 1 do
    let j = Linalg.Rng.int rng (i + 1) in
    let t = d.(i) in
    d.(i) <- d.(j);
    d.(j) <- t
  done;
  d

(* {1 Checks} *)

(* The property of the certificate a store entry directory holds, read
   back from disk. *)
let backing_property dir =
  List.find_map
    (fun (e : Certify.Journal.entry) ->
      match e.Certify.Journal.cert_file with
      | None -> None
      | Some name -> (
          match Certify.Journal.read_cert ~dir ~name with
          | Error _ -> None
          | Ok blob -> (
              match Certify.Certificate.of_string blob with
              | Ok c -> Some c.Certify.Certificate.property
              | Error _ -> None)))
    (Certify.Journal.load ~dir)

let contains (outer : Certify.Certificate.property) (inner : Certify.Certificate.property) =
  inner.Certify.Certificate.threshold >= outer.Certify.Certificate.threshold
  && Array.for_all2
       (fun (olo, ohi) (ilo, ihi) -> olo <= ilo && ihi <= ohi)
       outer.Certify.Certificate.box inner.Certify.Certificate.box

(* What is wrong with one reply. [backing] maps the directories of the
   warm-up entries to the property their certificate holds; a subsumed
   hit must come from one of them and contain the query. *)
let problems ~backing kind prop reply =
  match reply with
  | Error e -> [ Some ("transport: " ^ e) ]
  | Ok (Serve.Protocol.Refused r) -> [ Some ("refused: " ^ r) ]
  | Ok (Serve.Protocol.Answer a) ->
      let cache =
        match kind with
        | Exact -> Serve.Protocol.Cache_exact
        | Subsumed -> Serve.Protocol.Cache_subsumed
        | Miss -> Serve.Protocol.Cache_miss
      in
      [
        expect "verdict is not proved"
          ~ok:(a.Serve.Protocol.verdict = Serve.Protocol.V_proved);
        expect
          (Printf.sprintf "answered from %s"
             (Serve.Protocol.cache_string a.Serve.Protocol.cache))
          ~ok:(a.Serve.Protocol.cache = cache);
        (if kind <> Subsumed then None
         else
           match List.assoc_opt a.Serve.Protocol.cert_dir backing with
           | Some (Some b) when contains b prop -> None
           | Some (Some _) -> Some "backing entry does not contain the query"
           | Some None -> Some "backing entry unreadable"
           | None -> Some "backing entry is not a warm-up entry");
      ]
  | Ok _ -> [ Some "unexpected response" ]

(* {1 Connections} *)

let ask ~address ~backing kind prop =
  let t0 = now () in
  let reply =
    Serve.Client.call ~timeout:60.0 address
      (Serve.Protocol.Verify
         {
           Serve.Protocol.property = prop;
           net_hash = Some (List.assoc width pinned);
           time_limit = Some request_time_limit;
           exact_only = false;
         })
  in
  let t1 = now () in
  let answer = match reply with Ok (Serve.Protocol.Answer a) -> Some a | _ -> None in
  { kind; rtt = t1 -. t0; t_done = t1; answer; problems = problems ~backing kind prop reply }

(* The warm-up misses of connection [conn], from a fixed stream. *)
let warm_up ~address ~conn =
  let rng = Linalg.Rng.create ((conn * 104729) + 1) in
  let box = scenario () in
  List.init warmup (fun index ->
      let prop = fresh rng ~conn ~index box in
      (prop, ask ~address ~backing:[] Miss prop))

(* The seeded hit stream of one connection; it lasts the whole run. *)
type stream = { rng : Linalg.Rng.t; mutable cards : kind array; mutable next_card : int }

let stream ~seed ~conn =
  { rng = Linalg.Rng.create ((seed * 7919) + (conn * 104729) + 1); cards = [||]; next_card = 0 }

(* Hits of one connection on its own answered questions until
   [deadline]. *)
let hits ~address ~backing ~deadline st answered =
  let out = ref [] in
  while now () < deadline do
    if st.next_card >= Array.length st.cards then begin
      st.cards <- shuffled st.rng;
      st.next_card <- 0
    end;
    let kind = st.cards.(st.next_card) in
    st.next_card <- st.next_card + 1;
    let picked = answered.(Linalg.Rng.int st.rng (Array.length answered)) in
    let prop = if kind = Exact then picked else nested st.rng picked in
    out := ask ~address ~backing kind prop :: !out
  done;
  List.rev !out

(* Run [f conn] for both connections, one thread each; with [poll], a
   third thread polls [status] every 0.2 s meanwhile. Returns the results
   and the deepest queue seen. *)
let both ~address ~poll f =
  let results = Array.make 2 (Error Exit) in
  let threads =
    List.init 2 (fun conn ->
        Thread.create
          (fun () -> results.(conn) <- (try Ok (f conn) with e -> Error e))
          ())
  in
  let stop = Atomic.make false and deepest = ref 0 in
  let poller =
    Thread.create
      (fun () ->
        while poll && not (Atomic.get stop) do
          (match Serve.Client.call ~timeout:10.0 address Serve.Protocol.Status with
           | Ok (Serve.Protocol.Stats st) ->
               deepest := max !deepest st.Serve.Protocol.queue_depth
           | _ -> ());
          Unix.sleepf 0.2
        done)
      ()
  in
  List.iter Thread.join threads;
  Atomic.set stop true;
  Thread.join poller;
  (Array.map (function Ok r -> r | Error e -> raise e) results, !deepest)

(* {1 The run} *)

type outcome = {
  warm : (Certify.Certificate.property * sample) list array;
  phase : sample list;  (* both connections, all rounds *)
  phase_s : float;  (* hit phases only *)
  stats : Serve.Protocol.stats;
  deepest : int;
}

(* The wall clock of each run of [block] consecutive completed hits of
   one round's phase, which started at [start]. *)
let blocks ~start phase =
  let a = Array.of_list (List.sort (fun x y -> compare x.t_done y.t_done) phase) in
  List.init (Array.length a / block) (fun i ->
      let first = if i = 0 then start else a.((i * block) - 1).t_done in
      a.(((i + 1) * block) - 1).t_done -. first)

(* A reference kernel of this workload's own, added to the [Common]
   reference: a hit is mostly socket work in the operating system,
   which the compute kernels do not follow. It connects to a listening
   unix socket, accepts, sends 64 bytes each way and closes, 1,000 times,
   all on the calling thread. Returns the kernel and its closer. *)
let socket_reference dir =
  let path = Filename.concat dir "ref.sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  let buf = Bytes.make 64 'x' in
  let kernel () =
    for _ = 1 to 1000 do
      let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect c (Unix.ADDR_UNIX path);
      let s, _ = Unix.accept listener in
      ignore (Unix.write c buf 0 64 : int);
      ignore (Unix.read s buf 0 64 : int);
      ignore (Unix.write s buf 0 64 : int);
      ignore (Unix.read c buf 0 64 : int);
      Unix.close c;
      Unix.close s
    done
  in
  (kernel, fun () -> Unix.close listener)

(* Warm up, run [between warm] once, then rounds of a hit phase of
   [round_hits_s] (each block a [campaign.hits] unit) followed by
   [after_round ()], until [seconds] have passed. *)
let session ~seed ~seconds ~poll ~between ~after_round server =
  let address = server.address in
  let warm, deep_warm = both ~address ~poll (fun conn -> warm_up ~address ~conn) in
  between (List.concat (Array.to_list warm));
  let backing =
    List.concat_map
      (fun (_, s) ->
        match s.answer with
        | Some a ->
            let dir = a.Serve.Protocol.cert_dir in
            [ (dir, backing_property dir) ]
        | None -> [])
      (List.concat (Array.to_list warm))
  in
  let answered =
    Array.map
      (fun w ->
        Array.of_list
          (List.filter_map
             (fun (p, s) -> if List.for_all Option.is_none s.problems then Some p else None)
             w))
      warm
  in
  let streams = Array.init 2 (fun conn -> stream ~seed ~conn) in
  let phase = ref [] and phase_s = ref 0.0 and deepest = ref deep_warm in
  let socket_kernel, close_kernel = socket_reference (fresh_dir "ref") in
  Fun.protect ~finally:close_kernel @@ fun () ->
  ignore
    (rounds ~seconds (fun () ->
         sample "ref.socket" socket_kernel;
         let start = now () in
         let deadline = start +. round_hits_s in
         let got, deep =
           both ~address ~poll (fun conn ->
               hits ~address ~backing ~deadline streams.(conn) answered.(conn))
         in
         phase_s := !phase_s +. (now () -. start);
         deepest := max !deepest deep;
         let got = got.(0) @ got.(1) in
         List.iter (record_unit "campaign.hits") (blocks ~start got);
         phase := got @ !phase;
         after_round ();
         sample "ref.socket" socket_kernel)
      : int);
  let stats =
    match Serve.Client.call ~timeout:30.0 address Serve.Protocol.Status with
    | Ok (Serve.Protocol.Stats st) -> st
    | Ok _ | Error _ -> failwith "serve: status request failed"
  in
  { warm; phase = !phase; phase_s = !phase_s; stats; deepest = !deepest }

let check s = op (Printf.sprintf "%s request" (kind_name s.kind)) s.problems

(* Audit the certificate directory of warm-up miss [i]; [timed] makes
   the audit a unit. *)
let audit_miss ?(timed = false) net i (s : sample) =
  match s.answer with
  | None -> ()
  | Some a ->
      let run () = Certify.Audit.run ~net ~dir:a.Serve.Protocol.cert_dir in
      let rep = if timed then sample (Printf.sprintf "audit.miss %02d" i) run else run () in
      op "audit of a miss"
        [
          expect "audit not ok" ~ok:rep.Certify.Audit.ok;
          expect "audit not proved" ~ok:(rep.Certify.Audit.verdict = `Proved);
        ]

let solve_time (s : sample) = Option.map (fun a -> a.Serve.Protocol.solve_s) s.answer

let share kind all =
  float_of_int (List.length (List.filter (fun s -> s.kind = kind) all))
  /. float_of_int (max 1 (List.length all))

(* Replay the warm-up misses in-process through the layers, into a store
   of the replay's own. Returns the store and the replay's wall clock. *)
let replay_misses net warm =
  let store = Certify.Store.open_ ~dir:(fresh_dir "replay-store") in
  let net_hash = List.assoc width pinned in
  let t0 = now () in
  List.iteri
    (fun i ((prop : Certify.Certificate.property), _) ->
      Span.set_query i;
      Span.with_ "query" (fun () ->
          let root = Certify.Store.root store in
          let dir = Filename.concat root (Certify.Certificate.property_hash ~net_hash prop) in
          ignore
            (Replay.decide_certified ~dir ~net_hash
               ~threshold:prop.Certify.Certificate.threshold net (box_of_property prop)
              : string);
          ignore
            (Span.with_ "certify.record" (fun () -> Certify.Store.record store ~net_hash prop)
              : Certify.Store.entry option)))
    warm;
  (store, now () -. t0)

let run ~seed ~seconds ~trace =
  let server = sample "setup.server" start in
  let net = load_pinned width in
  (* The traced replay runs right after the server solved the same
     misses, its reference: the speed of a shared host drifts by 10 %
     within a minute, which would read as tracing overhead across the
     measured phase. *)
  let replayed = ref None and misses = ref [] in
  let between warm =
    misses := List.map snd warm;
    if trace then replayed := Some (replay_misses net warm)
  in
  (* After each hit phase: audit every warm-up miss's certificate
     directory, and start and stop one more server. *)
  let after_round () =
    List.iteri (audit_miss ~timed:true net) !misses;
    let extra = sample "setup.server" start in
    stop extra;
    rm_rf extra.root
  in
  let o =
    Fun.protect
      ~finally:(fun () -> stop server)
      (fun () -> session ~seed ~seconds ~poll:trace ~between ~after_round server)
  in
  let warm = List.concat (Array.to_list o.warm) in
  let misses = List.map snd warm in
  List.iter check misses;
  List.iter check o.phase;
  let hit_ms = List.map (fun s -> 1e3 *. s.rtt) o.phase in
  if not trace then begin
    emit_group "setup" "setup";
    emit_group "campaign" "campaign";
    emit_group "audit" "audit";
    emit_median "hit_p50_ms" "ms" hit_ms;
    emit ~count:(List.length hit_ms) "hit_p99_ms" "ms" (percentile 99.0 hit_ms);
    emit ~count:(List.length o.phase) "throughput_qps" "1/s"
      (float_of_int (List.length o.phase) /. o.phase_s);
    emit_median "miss_p50_s" "s" (List.map (fun s -> s.rtt) misses);
    note "hits %d in %.1f s, blocks of %d: exact %.3f, subsumed %.3f; %d warm-up misses"
      (List.length o.phase) o.phase_s block (share Exact o.phase)
      (share Subsumed o.phase) (List.length misses)
  end
  else begin
    let stats = o.stats in
    let solve_s = sum (List.filter_map solve_time misses) in
    emit ~count:(List.length misses) "serve.solve_s" "s" solve_s;
    emit ~count:(List.length misses) "serve.queue_wait_s" "s"
      (sum (List.map (fun s -> s.rtt) misses) -. solve_s);
    emit ~count:stats.Serve.Protocol.queries "serve.hit_frac" "ratio"
      (float_of_int (stats.Serve.Protocol.served_exact + stats.Serve.Protocol.served_subsumed)
      /. float_of_int (max 1 stats.Serve.Protocol.queries));
    emit "serve.queue_depth_max" "count" (float_of_int o.deepest);
    emit "serve.rejected" "count" (float_of_int stats.Serve.Protocol.rejected);
    emit "serve.failed_workers" "count" (float_of_int stats.Serve.Protocol.failed_workers);
    let store, traced = Option.get !replayed in
    let net_hash = List.assoc width pinned in
    let queries = List.mapi (fun i _ -> i) warm in
    emit "trace.overhead_frac" "ratio"
      ((traced -. Replay.extra_time ~queries -. solve_s) /. solve_s);
    emit "trace.coverage_frac" "ratio" (Replay.layer_self ~queries /. solve_s);
    Span.set_query (List.length warm);
    let reopened =
      Span.with_ ~extra:true "certify.store_open" (fun () ->
          Certify.Store.open_ ~dir:(Certify.Store.root store))
    in
    let rng = Linalg.Rng.create seed in
    List.iter
      (fun (prop, _) ->
        let probe p =
          ignore (Replay.lookup ~extra:true reopened ~net_hash p : Certify.Store.hit option)
        in
        probe prop;
        probe (nested rng prop))
      warm;
    emit "certify.store_open_s" "s" (Span.total "certify.store_open");
    emit "certify.store_entries" "count" (float_of_int (Certify.Store.size reopened));
    Replay.emit_layers ()
  end
