(* Workload [table2]: the paper's Table II pipeline.

   Set-up records scenes, sanitises them and trains I4x10/20/40 at the
   fixed seed (timed; only the final loss is sanity-checked). The timed
   queries run on the pinned networks: exact maximisation, plain
   decisions (zero-node pre-pass, OBBT-dominated, Disproved), certified
   decisions, then the audit of every certified directory. No store and
   no partitioning: the [lp], [milp] and OBBT layers do the work.

   Every query is a short unit (12-500 ms on a quiet host), repeated
   once per round: the scenario slack is chosen per query so that the
   wider networks still settle quickly (see [Common] on why units are
   short). *)

open Common

let seed = 7
let samples = 600
let epochs = 5
let widths = [ 10; 20; 40 ]

type kind =
  | Max of { value : float }  (* pinned exact maximum *)
  | Plain of { threshold : float; expect : string }
  | Certified of { threshold : float; expect : string }

type query = { width : int; slack : float; kind : kind; why : string }

let queries =
  [
    { width = 10; slack = 0.03; kind = Max { value = 1.267751 };
      why = "exact maximum, 29 nodes" };
    { width = 10; slack = 0.08; kind = Max { value = 1.421303 };
      why = "exact maximum, branch-and-bound-dominated (59 nodes)" };
    { width = 10; slack = 0.03; kind = Plain { threshold = 3.0; expect = "proved" };
      why = "zero-node pre-pass" };
    { width = 10; slack = 0.03; kind = Plain { threshold = 1.2; expect = "disproved" };
      why = "refuted by the first incumbent" };
    { width = 10; slack = 0.03; kind = Plain { threshold = 1.27; expect = "proved" };
      why = "OBBT-dominated, 3 nodes" };
    { width = 10; slack = 0.08; kind = Plain { threshold = 1.43; expect = "proved" };
      why = "17 nodes after OBBT" };
    { width = 20; slack = 0.005; kind = Plain { threshold = 0.4; expect = "proved" };
      why = "OBBT-dominated, widest plain" };
    { width = 10; slack = 0.03; kind = Certified { threshold = 0.5; expect = "disproved" };
      why = "certified witness" };
    { width = 10; slack = 0.08; kind = Certified { threshold = 1.43; expect = "proved" };
      why = "certified tree, 17 nodes" };
    { width = 20; slack = 0.005; kind = Certified { threshold = 0.5; expect = "proved" };
      why = "certified, I4x20" };
    { width = 40; slack = 0.003; kind = Certified { threshold = 1.0; expect = "proved" };
      why = "certified, widest network" };
  ]

(* Tolerance on the pinned exact maximum: the solver's optimality gap is
   1e-6 absolute, and the value is pinned to 6 decimals. *)
let max_tolerance = 2e-6

let label q = Printf.sprintf "I4x%d %s" q.width q.why

(* {1 Set-up} *)

(* Each stage is a unit of its own; with [spans] the stages are traced
   instead. *)
let setup ~spans () =
  let stage key name f =
    if spans then Span.with_ name f else sample ("setup." ^ key) f
  in
  let recorded =
    stage "record" "highway.record" (fun () ->
        Highway.Recorder.record ~rng:(Linalg.Rng.create seed)
          ~style:(Highway.Policy.Risky 0.25) ~n_samples:samples ())
  in
  let clean, report =
    stage "sanitize" "dataset.sanitize" (fun () ->
        Sanitizer.sanitize (Dataset.of_samples recorded))
  in
  List.iter
    (fun width ->
      let net =
        Nn.Network.i4xn ~rng:(Linalg.Rng.create (seed + 1))
          ~output_dim:(Nn.Gmm.output_dim ~components) width
      in
      let config =
        {
          (Train.Trainer.default ~loss:(Train.Loss.Mdn { components }) ()) with
          Train.Trainer.epochs;
          seed;
        }
      in
      let history =
        stage (Printf.sprintf "train.I4x%d" width) "train.fit" (fun () ->
            Train.Trainer.fit config net (Dataset.pairs clean) ())
      in
      let losses = history.Train.Trainer.train_loss in
      let final = losses.(Array.length losses - 1) in
      op
        (Printf.sprintf "train I4x%d" width)
        [
          expect
            (Printf.sprintf "final loss %g is not finite and below the first epoch's %g"
               final losses.(0))
            ~ok:(Float.is_finite final && final < losses.(0));
        ])
    widths;
  (report.Sanitizer.total, report.Sanitizer.accepted)

let load () = List.map (fun w -> (w, load_pinned w)) widths

(* {1 Queries through the public driver} *)

type result = {
  query : query;
  elapsed : float;  (* the driver's own whole-call wall clock *)
  dir : string option;
}

let run_query ~sampled nets q =
  let net = List.assoc q.width nets in
  let box = Verify.Scenario.vehicle_on_left ~slack:q.slack () in
  let what = label q in
  match q.kind with
  | Max { value } ->
      let r =
        Verify.Driver.max_lateral_velocity ~time_limit ~bound_mode ~cores:1
          ~components net box
      in
      let sampled = List.assoc q sampled in
      let v = Option.value ~default:nan r.Verify.Driver.value in
      op what
        [
          expect "not optimal" ~ok:r.Verify.Driver.optimal;
          expect (Printf.sprintf "maximum %.9f, pinned %.6f" v value)
            ~ok:(Float.abs (v -. value) <= max_tolerance);
          expect (Printf.sprintf "maximum %.9f below sampled %.9f" v sampled)
            ~ok:(v >= sampled);
        ];
      { query = q; elapsed = r.Verify.Driver.elapsed; dir = None }
  | Plain { threshold; expect = e } ->
      let r =
        Verify.Driver.prove_lateral_velocity_le ~time_limit ~bound_mode ~cores:1
          ~components ~threshold net box
      in
      let got = outcome r.Verify.Driver.proof in
      op what [ expect (Printf.sprintf "verdict %s, expected %s" got e) ~ok:(got = e) ];
      { query = q; elapsed = r.Verify.Driver.proof_elapsed; dir = None }
  | Certified { threshold; expect = e } ->
      let dir = fresh_dir "t2cert" in
      let r =
        Verify.Driver.prove_lateral_velocity_le ~time_limit ~bound_mode ~cores:1
          ~components ~threshold ~certify_dir:dir net box
      in
      let got = outcome r.Verify.Driver.proof in
      op what [ expect (Printf.sprintf "verdict %s, expected %s" got e) ~ok:(got = e) ];
      { query = q; elapsed = r.Verify.Driver.proof_elapsed; dir = Some dir }

(* Audit the certified directory of [r], if it has one; [timed] makes
   the audit a unit. *)
let audit ?(timed = false) nets r =
  match (r.dir, r.query.kind) with
  | Some dir, Certified { expect = e; _ } ->
      let net = List.assoc r.query.width nets in
      let run () = Certify.Audit.run ~net ~dir in
      let report =
        if timed then sample ("audit." ^ label r.query) run else run ()
      in
      let got = audit_verdict report.Certify.Audit.verdict in
      op
        ("audit " ^ label r.query)
        [
          expect "audit not ok" ~ok:report.Certify.Audit.ok;
          expect (Printf.sprintf "audited %s, expected %s" got e) ~ok:(got = e);
        ];
      rm_rf dir
  | _ -> ()

(* One round: every set-up stage, every query, every audit. *)
let round ~sampled nets =
  ignore (setup ~spans:false ());
  ignore (sample "setup.load" load);
  List.iter
    (fun q ->
      let r = sample ("campaign." ^ label q) (fun () -> run_query ~sampled nets q) in
      audit ~timed:true nets r)
    queries

(* {1 Traced replay of the same queries} *)

let replay_query nets i q =
  Span.set_query i;
  let net = List.assoc q.width nets in
  let net_hash = List.assoc q.width pinned in
  let box = Verify.Scenario.vehicle_on_left ~slack:q.slack () in
  Span.with_ "query" (fun () ->
      match q.kind with
      | Max _ -> ignore (Replay.maximize net box : float)
      | Plain { threshold; _ } -> ignore (Replay.decide_plain ~threshold net box : string)
      | Certified { threshold; _ } ->
          let dir = fresh_dir "t2replay" in
          ignore (Replay.decide_certified ~dir ~net_hash ~threshold net box : string);
          Span.with_ "certify.audit" (fun () ->
              ignore (Certify.Audit.run ~net ~dir : Certify.Audit.report)))

(* The sampled lower bound every exact maximum must reach: the seed's
   only role here, generating the inputs the networks are run on. *)
let sampled_maxima ~seed nets =
  let rng = Linalg.Rng.create seed in
  List.filter_map
    (fun q ->
      match q.kind with
      | Max _ ->
          let box = Verify.Scenario.vehicle_on_left ~slack:q.slack () in
          Some
            ( q,
              fst
                (Verify.Driver.sampled_max_lateral_velocity ~rng ~samples:2000
                   ~components (List.assoc q.width nets) box) )
      | _ -> None)
    queries

let run ~seed:run_seed ~seconds ~trace =
  if not trace then begin
    let nets = load () in
    let sampled = sampled_maxima ~seed:run_seed nets in
    let n = rounds ~seconds (fun () -> round ~sampled nets) in
    emit_group "setup" "setup";
    emit_group "campaign" "campaign";
    emit_group "audit" "audit";
    note "rounds %d of %d queries" n (List.length queries)
  end
  else begin
    (* Set-up spans belong to no query: keep them out of coverage. *)
    Span.set_query (-1);
    let total, accepted = setup ~spans:true () in
    let nets = load () in
    let fit = Span.total "train.fit" in
    emit "highway.record_s" "s" (Span.total "highway.record");
    emit "dataset.sanitize_s" "s" (Span.total "dataset.sanitize");
    emit ~count:total "dataset.accepted_frac" "ratio"
      (float_of_int accepted /. float_of_int total);
    emit ~count:(List.length widths) "train.fit_s" "s" fit;
    emit ~count:(List.length widths) "train.samples_per_s" "1/s"
      (float_of_int (epochs * accepted * List.length widths) /. fit);
    (* The untraced reference, the driver's own call, and the traced
       replay of the same query run back to back, query by query: the
       speed of a shared host drifts by 10 % within a minute, which would
       read as tracing overhead between two separate passes. *)
    let sampled = sampled_maxima ~seed:run_seed nets in
    let results, replays =
      List.split
        (List.mapi
           (fun i q ->
             let r = run_query ~sampled nets q in
             (r, snd (timed (fun () -> replay_query nets i q))))
           queries)
    in
    List.iter (audit nets) results;
    let elapsed = List.map (fun (r : result) -> r.elapsed) results in
    let driver = sum elapsed in
    let replay_ids = List.mapi (fun i _ -> i) queries in
    let traced = sum replays in
    let audits = Span.total "certify.audit" in
    let traced_queries = traced -. audits -. Replay.extra_time ~queries:replay_ids in
    emit "trace.overhead_frac" "ratio" ((traced_queries -. driver) /. driver);
    emit "trace.coverage_frac" "ratio"
      ((Replay.layer_self ~queries:replay_ids -. audits) /. driver);
    emit "verify.budget_overrun_s" "s"
      (List.fold_left (fun acc e -> Float.max acc (e -. time_limit)) 0.0 elapsed);
    Replay.emit_layers ()
  end
