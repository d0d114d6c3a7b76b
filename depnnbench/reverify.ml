(* Workload [reverify]: the model-update loop of a certification
   engineer.

   Every round opens a fresh proof store. Partitioned certified
   decisions go into it and are audited shard by shard ([cold]); the
   same questions, and looser ones, are re-asked on the same networks
   ([cached]); then one seeded weight per network is nudged and the
   nudged networks are re-verified against the filled store and
   audited again ([perturbed]). Symbolic planning, certificate writes,
   store lookups and revalidation dominate; OBBT never runs.

   The I4x10 questions are there for the reuse paths a model update can
   take: the stored disproof witness is replayed through the nudged
   network, so at least one leaf must come out revalidated, and the
   presolved proof is re-established by a fresh symbolic presolve. The
   I4x20 leaves are solved again.

   Each question has its own slack, so that every decision is a short
   unit (see [Common]). I4x40 and I4x60 are not asked: [Partition.Auto]
   does not split them at slacks where they settle within a second, and
   at slack 0.025 one I4x60 cold partition takes 3-10 s. *)

open Common

let widths = [ 10; 20 ]

type question = { width : int; slack : float; threshold : float; expect : string }

let questions =
  [
    (* Splits into 2 leaves, each solved with a search tree. *)
    { width = 20; slack = 0.01; threshold = 0.5; expect = "proved" };
    (* Plans 6 leaves; the first solved leaf carries the witness. I4x10
       reaches 1.237 on this box. *)
    { width = 10; slack = 0.02; threshold = 0.8; expect = "disproved" };
    (* One leaf, settled by the symbolic pre-pass. *)
    { width = 10; slack = 0.03; threshold = 1.4; expect = "proved" };
  ]

let looser =
  [
    { width = 20; slack = 0.01; threshold = 0.6; expect = "proved" };
    { width = 10; slack = 0.03; threshold = 1.5; expect = "proved" };
  ]

let label q = Printf.sprintf "I4x%d slack %g <= %g" q.width q.slack q.threshold

(* The CLI's [perturb]: one relative nudge of one weight, chosen by the
   seed alone, so every round of a run verifies the same nudged
   network. *)
let nudge ~seed ~width net =
  let net = Nn.Network.copy net in
  let rng = Linalg.Rng.create ((seed * 1_000_003) + width) in
  let li = Linalg.Rng.int rng (Nn.Network.num_layers net) in
  let w = (Nn.Network.layer net li).Nn.Layer.weights in
  let r = Linalg.Rng.int rng (Linalg.Mat.rows w) in
  let c = Linalg.Rng.int rng (Linalg.Mat.cols w) in
  let old = Linalg.Mat.get w r c in
  Linalg.Mat.set w r c (if old = 0.0 then 1e-3 else old *. (1.0 +. 1e-3));
  net

let scenario q = Verify.Scenario.vehicle_on_left ~slack:q.slack ()

(* One partitioned certified decision. With [revalidates], at least one
   leaf must be settled by revalidating another network's entry. *)
let decide ~store ~step ?(revalidates = false) nets q =
  let r =
    Verify.Driver.prove_lateral_velocity_le ~time_limit ~bound_mode ~cores:1
      ~components ~threshold:q.threshold ~split:Verify.Partition.Auto ~store
      (List.assoc q.width nets) (scenario q)
  in
  let got = outcome r.Verify.Driver.proof in
  let revalidated =
    match r.Verify.Driver.partition with
    | Some s -> s.Verify.Partition.revalidated
    | None -> 0
  in
  op
    (Printf.sprintf "%s %s" step (label q))
    [
      expect (Printf.sprintf "verdict %s, expected %s" got q.expect) ~ok:(got = q.expect);
      (if revalidates then expect "no leaf revalidated" ~ok:(revalidated > 0) else None);
    ];
  r

(* The shard audit of question [q]; [timed] makes it a unit. *)
let audit_one ?(timed = false) ~store ~step nets q =
  let net = List.assoc q.width nets in
  let net_hash = Nn.Io.content_hash net in
  let parent =
    Certify.Certificate.property_hash ~net_hash (property ~threshold:q.threshold (scenario q))
  in
  let name = Certify.Shard.manifest_name ~prop_hash:parent in
  let run () = Certify.Audit.run_shard ~net ~dir:(Certify.Store.root store) ~name in
  let audited =
    if timed then sample (Printf.sprintf "audit.%s.%s" step (label q)) run else run ()
  in
  let problems =
    match audited with
    | Error e -> [ Some e ]
    | Ok rep ->
        let got = audit_verdict rep.Certify.Audit.shard_verdict in
        [
          expect "shard audit not ok" ~ok:rep.Certify.Audit.shard_ok;
          expect (Printf.sprintf "shard %s, expected %s" got q.expect) ~ok:(got = q.expect);
        ]
  in
  op (Printf.sprintf "%s audit of %s" step (label q)) problems

let audit ?timed ~store ~step nets =
  List.iter (audit_one ?timed ~store ~step nets) questions

(* Set-up: load the pinned networks and open a fresh, empty store. *)
let setup () =
  let nets = List.map (fun w -> (w, load_pinned w)) widths in
  (nets, Certify.Store.open_ ~dir:(fresh_dir "store"))

(* One round: set-up, then every step of the loop, each decision and
   each shard audit a unit of its own. The perturbed decisions of the
   disproved question must revalidate a leaf. *)
let round ~nudged =
  let nets, store = sample "setup.load+open" setup in
  let ask step ?(revalidates = fun _ -> false) nets qs =
    List.map
      (fun q ->
        sample
          (Printf.sprintf "campaign.%s.%s" step (label q))
          (fun () -> decide ~store ~step ~revalidates:(revalidates q) nets q))
      qs
  in
  ignore (ask "cold" nets questions);
  audit ~timed:true ~store ~step:"cold" nets;
  ignore (ask "cached" nets questions);
  ignore (ask "cached" nets looser);
  let perturbed =
    ask "perturbed" ~revalidates:(fun q -> q.expect = "disproved") nudged questions
  in
  audit ~timed:true ~store ~step:"perturbed" nudged;
  rm_rf (Certify.Store.root store);
  perturbed

(* {1 Traced replay} *)

(* The round's decisions, each first through the driver into one store
   (the untraced reference) and then replayed with spans into another,
   back to back: the speed of a shared host drifts by 10 % within a
   minute, which would read as tracing overhead between two separate
   rounds. Returns the driver's results, the replays' wall clock, the
   replayed query ids and the size of the replay's store. *)
let replay ~nets ~nudged =
  let reference = Certify.Store.open_ ~dir:(fresh_dir "store") in
  let store = Certify.Store.open_ ~dir:(fresh_dir "replay-store") in
  let qid = ref 0 and results = ref [] and traced = ref 0.0 in
  let ask step ?(revalidates = fun _ -> false) nets qs =
    List.concat_map
      (fun q ->
        results :=
          decide ~store:reference ~step ~revalidates:(revalidates q) nets q :: !results;
        Span.set_query !qid;
        incr qid;
        let net = List.assoc q.width nets in
        let net_hash = Nn.Io.content_hash net in
        let (_, props), t =
          timed (fun () ->
              Span.with_ "query" (fun () ->
                  Replay.decide_partitioned ~store ~net_hash ~threshold:q.threshold net
                    (scenario q)))
        in
        traced := !traced +. t;
        Array.to_list (Array.map (fun p -> (net_hash, p)) props))
      qs
  in
  let cold_leaves = ask "cold" nets questions in
  ignore (ask "cached" nets questions @ ask "loose" nets looser);
  ignore (ask "perturbed" ~revalidates:(fun q -> q.expect = "disproved") nudged questions);
  audit ~store:reference ~step:"cold" nets;
  audit ~store:reference ~step:"perturbed" nudged;
  let queries = List.init !qid Fun.id in
  (* Store probes on the filled store: reopen it, then one exact and one
     subsumed lookup per cold leaf (a nested box at a looser threshold). *)
  Span.set_query !qid;
  let reopened =
    Span.with_ ~extra:true "certify.store_open" (fun () ->
        Certify.Store.open_ ~dir:(Certify.Store.root store))
  in
  List.iter
    (fun (net_hash, (p : Certify.Certificate.property)) ->
      let probe p =
        ignore (Replay.lookup ~extra:true reopened ~net_hash p : Certify.Store.hit option)
      in
      probe p;
      let nested =
        {
          p with
          Certify.Certificate.threshold = p.Certify.Certificate.threshold +. 0.05;
          box =
            Array.map
              (fun (lo, hi) ->
                let q = 0.25 *. (hi -. lo) in
                (lo +. q, hi -. q))
              p.Certify.Certificate.box;
        }
      in
      probe nested)
    cold_leaves;
  (List.rev !results, !traced, queries, Certify.Store.size reopened)

let emit_verify_stats results =
  let stats = List.filter_map (fun r -> r.Verify.Driver.partition) results in
  let total f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
  let n = List.length stats in
  let leaves = total (fun s -> s.Verify.Partition.leaves) in
  emit ~count:n "verify.leaves" "count" leaves;
  emit ~count:n "verify.presolved" "count" (total (fun s -> s.Verify.Partition.presolved));
  emit ~count:n "verify.cached" "count" (total (fun s -> s.Verify.Partition.cached));
  emit ~count:n "verify.revalidated" "count"
    (total (fun s -> s.Verify.Partition.revalidated));
  emit ~count:n "verify.solved" "count" (total (fun s -> s.Verify.Partition.solved));
  emit ~count:n "verify.unsettled" "count" (total (fun s -> s.Verify.Partition.unsettled));
  emit ~count:n "verify.reuse_frac" "ratio"
    ((total (fun s -> s.Verify.Partition.cached)
     +. total (fun s -> s.Verify.Partition.revalidated))
    /. Float.max 1.0 leaves)

let run ~seed ~seconds ~trace =
  let nudged_of nets = List.map (fun (w, net) -> (w, nudge ~seed ~width:w net)) nets in
  if not trace then begin
    let nudged = nudged_of (fst (setup ())) in
    let revalidated = ref [] in
    let n =
      rounds ~seconds (fun () ->
          revalidated :=
            List.map
              (fun r ->
                match r.Verify.Driver.partition with
                | Some s -> s.Verify.Partition.revalidated
                | None -> 0)
              (round ~nudged))
    in
    emit_group "setup" "setup";
    emit_group "campaign" "campaign";
    emit_group "audit" "audit";
    emit_group "cold" "campaign.cold";
    emit_group "cached" "campaign.cached";
    emit_group "perturbed" "campaign.perturbed";
    note "rounds %d; perturbed: %s leaves revalidated per question" n
      (String.concat "/" (List.map string_of_int !revalidated))
  end
  else begin
    let nets, _ = setup () in
    let nudged = nudged_of nets in
    let results, traced, queries, entries = replay ~nets ~nudged in
    let driver = sum (List.map (fun r -> r.Verify.Driver.proof_elapsed) results) in
    let traced_queries = traced -. Replay.extra_time ~queries in
    emit "trace.overhead_frac" "ratio" ((traced_queries -. driver) /. driver);
    emit "trace.coverage_frac" "ratio" (Replay.layer_self ~queries /. driver);
    emit "verify.budget_overrun_s" "s"
      (List.fold_left
         (fun acc r -> Float.max acc (r.Verify.Driver.proof_elapsed -. time_limit))
         0.0 results);
    emit_verify_stats results;
    emit "certify.store_open_s" "s" (Span.total "certify.store_open");
    emit "certify.store_entries" "count" (float_of_int entries);
    Replay.emit_layers ()
  end
