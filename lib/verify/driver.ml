type witness = {
  input : Linalg.Vec.t;
  outputs : Linalg.Vec.t;
  achieved : float;
  component : int;
}

type max_result = {
  value : float option;
  upper_bound : float;
  optimal : bool;
  timed_out : bool;
  witness : witness option;
  elapsed : float;
  component_elapsed : float array;
  nodes : int;
  lp_iterations : int;
  unstable_neurons : int;
  encoder_stats : Encoding.Encoder.stats;
  obbt : Encoding.Encoder.obbt_stats;
}

(* Equal-share budget slicing used to be a bare
   [remaining / queue_len], which underflows to a near-zero slice once
   the queue holds hundreds of partition leaves — every query then hits
   its time limit during the root relaxation and the whole queue
   degenerates into instant Unknowns. The floor gives every query a
   slice worth starting; clamping to the live remaining time keeps the
   whole-call deadline binding, and unused share still rolls forward
   because callers recompute the slice from the clock as each query
   starts. *)
let min_query_slice = 0.2

let budget_slice ?now ~deadline ~queue_len () =
  let now = match now with Some t -> t | None -> Linalg.Mclock.now () in
  let remaining = Float.max 0.0 (deadline -. now) in
  Float.min remaining
    (Float.max min_query_slice (remaining /. float_of_int (max 1 queue_len)))

let witness_of_solution enc net ~component ~output_index solution =
  let input = Encoding.Encoder.input_point enc solution in
  let outputs = Nn.Network.forward net input in
  { input; outputs; achieved = outputs.(output_index); component }

(* The analysis upper bound on output [k] over the whole box: the last
   post-activation bound of the encoding. Sound in every bound mode and
   tightest under [Symbolic_bounds] — this is what the incomplete
   pre-pass and the solver-bound capping read. *)
let output_upper enc k =
  let post = enc.Encoding.Encoder.bounds.Encoding.Bounds.post in
  post.(Array.length post - 1).(k).Interval.hi

(* The branch-aware analysis callback: only the symbolic analyzer can
   re-propagate a node's fixed ReLU phases, so the hook exists only in
   [Symbolic_bounds] mode. *)
let node_bound_for ~bound_mode enc net box ~output =
  match bound_mode with
  | Encoding.Encoder.Symbolic_bounds ->
      Some (Encoding.Encoder.symbolic_node_bound enc net box ~output)
  | Encoding.Encoder.Interval_bounds | Encoding.Encoder.Coarse _ -> None

(* Maximise a set of output coordinates one by one over the same
   encoding; the overall maximum is the max of the per-coordinate
   results.

   Budget contract: [time_limit] covers *everything* — OBBT tightening
   during [encode] and every output query. OBBT may take at most half
   the budget. Sequentially ([cores = 1] or a single query) each query
   gets an equal share of whatever is left *at the moment it starts*,
   so time unspent by fast early queries (or by cheap OBBT) rolls over
   to later ones. With [cores > 1] and several queries, the queries
   themselves run concurrently on the worker domains and each receives
   an equal share of the remaining budget up front — the shares are
   spent in parallel, so the wall-clock total still respects the
   caller's limit. Either way the total can never exceed the limit by
   more than one node's slack. *)
let maximize_outputs ?(time_limit = 60.0)
    ?(bound_mode = Encoding.Encoder.Interval_bounds) ?(tighten_rounds = 1)
    ?(depth_first = false) ?(cores = 1) ?portfolio ?(warm = true) ?lp_core
    ~outputs:output_indices net box =
  let started = Linalg.Mclock.now () in
  let deadline = started +. time_limit in
  let enc =
    Encoding.Encoder.encode ~bound_mode ~tighten_rounds
      ~tighten_budget:(0.5 *. time_limit) ~cores ?lp_core net box
  in
  let priority = Encoding.Encoder.layer_order_priority enc in
  let queries = Array.of_list output_indices in
  let n_queries = Array.length queries in
  let run_query ~cores ~portfolio ~per_query_limit k =
    (* Any relaxation point projects to a feasible incumbent: forward-
       run the network on its input block. *)
    let primal_heuristic relaxation =
      let input = Encoding.Encoder.input_point enc relaxation in
      let point = Encoding.Encoder.assignment_of_input enc net input in
      Some (point, point.(enc.Encoding.Encoder.output_vars.(k)))
    in
    Milp.Parallel.solve ~cores ?portfolio ~time_limit:per_query_limit
      ~branch_rule:(Milp.Solver.Priority priority) ~depth_first
      ~primal_heuristic
      ?node_bound:(node_bound_for ~bound_mode enc net box ~output:k)
      ~objective:(Encoding.Encoder.output_objective enc k)
      ~warm ?lp_core enc.Encoding.Encoder.model
  in
  let results =
    if cores > 1 && n_queries > 1 && portfolio = None then begin
      (* Per-component parallelism: the queries fan out over the worker
         domains (each solving sequentially inside — no nested domain
         oversubscription, so the inner solves carry no portfolio
         either), every query granted an equal share of the remaining
         budget up front. An explicit portfolio split takes the other
         branch: the caller asked for within-query parallelism. *)
      (* Shares are spent concurrently, so the slice is sized for one
         domain's sequential chain of queries, not for the whole queue —
         which also stops under-granting by a factor of [cores]. *)
      let fan_cores = min cores n_queries in
      let per_domain = (n_queries + fan_cores - 1) / fan_cores in
      let share = budget_slice ~deadline ~queue_len:per_domain () in
      Milp.Parallel.map ~cores:fan_cores
        ~init:(fun () -> ())
        (fun () k -> run_query ~cores:1 ~portfolio:None ~per_query_limit:share k)
        queries
    end
    else begin
      let results = Array.make n_queries None in
      for qi = 0 to n_queries - 1 do
        let per_query_limit =
          budget_slice ~deadline ~queue_len:(n_queries - qi) ()
        in
        results.(qi) <-
          Some (run_query ~cores ~portfolio ~per_query_limit queries.(qi))
      done;
      Array.map (function Some r -> r | None -> assert false) results
    end
  in
  let best_value = ref None and best_witness = ref None in
  let upper = ref neg_infinity in
  let any_timeout = ref false and all_optimal = ref true in
  let nodes = ref 0 and lp_iters = ref 0 in
  let component_elapsed = Array.make n_queries 0.0 in
  Array.iteri
    (fun qi r ->
      let k = queries.(qi) in
      component_elapsed.(qi) <- r.Milp.Solver.elapsed;
      nodes := !nodes + r.Milp.Solver.nodes;
      lp_iters := !lp_iters + r.Milp.Solver.lp_iterations;
      (match r.Milp.Solver.outcome with
       | Milp.Solver.Optimal -> ()
       | Milp.Solver.Time_limit | Milp.Solver.Node_limit ->
           any_timeout := true;
           all_optimal := false
       | Milp.Solver.Infeasible ->
           (* An empty box cannot happen for well-formed scenarios; treat
              as an unfinished query. *)
           all_optimal := false);
      (* Two sound upper bounds on this output — the solver's and the
         analysis one — so the tighter of the two stands. *)
      upper :=
        Float.max !upper
          (Float.min r.Milp.Solver.best_bound (output_upper enc k));
      match r.Milp.Solver.incumbent with
      | Some (solution, objective) ->
          let better =
            match !best_value with None -> true | Some v -> objective > v
          in
          if better then begin
            best_value := Some objective;
            best_witness :=
              Some
                (witness_of_solution enc net ~component:qi ~output_index:k
                   solution)
          end
      | None -> ())
    results;
  {
    value = !best_value;
    upper_bound = !upper;
    optimal = !all_optimal && !best_value <> None;
    timed_out = !any_timeout;
    witness = !best_witness;
    elapsed = Linalg.Mclock.now () -. started;
    component_elapsed;
    nodes = !nodes;
    lp_iterations = !lp_iters;
    unstable_neurons = enc.Encoding.Encoder.stats.Encoding.Encoder.unstable;
    encoder_stats = enc.Encoding.Encoder.stats;
    obbt = enc.Encoding.Encoder.obbt;
  }

let max_lateral_velocity ?time_limit ?bound_mode ?tighten_rounds ?depth_first
    ?cores ?portfolio ?warm ?lp_core ~components net box =
  let outputs =
    List.init components (fun k -> Nn.Gmm.mu_lat_index ~components k)
  in
  maximize_outputs ?time_limit ?bound_mode ?tighten_rounds ?depth_first ?cores
    ?portfolio ?warm ?lp_core ~outputs net box

let maximize_output ?time_limit ?bound_mode ?tighten_rounds ?depth_first
    ?cores ?portfolio ?warm ?lp_core ~output net box =
  maximize_outputs ?time_limit ?bound_mode ?tighten_rounds ?depth_first ?cores
    ?portfolio ?warm ?lp_core ~outputs:[ output ] net box

type proof = Proved | Disproved of witness | Unknown of { best_bound : float }

type proof_result = {
  proof : proof;
  proof_elapsed : float;
  proof_nodes : int;
  presolved : int;
  certified : int;
  resumed : int;
  degraded : int;
  partition : Partition.stats option;
}

(* {2 Sessions}

   One-time per-model state for callers that issue many queries against
   the same loaded network (the [depnn serve] workers, campaign
   scripts). Two things are hoisted out of the per-call path:

   - the network's content hash, which can only change when the model
     file is reloaded;
   - the round-0 (no OBBT) encoding of the most recent monolithic
     question, so back-to-back queries over the same box — different
     thresholds, a server's cache-miss burst — skip the encoder. The
     memo is sound because that encoding depends only on the key, OBBT
     builds a new encoding rather than mutating it, and the solver
     copies the LP before mutating it.

   A session is single-domain state: give each worker its own. *)
type session = {
  session_net : Nn.Network.t;
  session_net_hash : string;
  mutable session_enc :
    ((Encoding.Encoder.bound_mode * float array * float array)
    * Encoding.Encoder.t)
    option;
}

let create_session net =
  {
    session_net = net;
    session_net_hash = Nn.Io.content_hash net;
    session_enc = None;
  }

let session_net s = s.session_net
let session_net_hash s = s.session_net_hash

let encode_round0 session ~bound_mode net box =
  let fresh () = Encoding.Encoder.encode ~bound_mode net box in
  match session with
  | None -> fresh ()
  | Some s -> (
      let key =
        ( bound_mode,
          Array.map (fun (iv : Interval.t) -> iv.Interval.lo) box,
          Array.map (fun (iv : Interval.t) -> iv.Interval.hi) box )
      in
      match s.session_enc with
      | Some (k, enc) when k = key -> enc
      | _ ->
          let enc = fresh () in
          s.session_enc <- Some (key, enc);
          enc)

(* Journal entries from a previous run of the {e same} question (network
   hash and property hash both match) whose certificate still parses;
   anything else is re-proved, never trusted. *)
let settled_components ~dir ~net_hash ~prop_hash =
  let settled = Hashtbl.create 8 in
  List.iter
    (fun (e : Certify.Journal.entry) ->
      if e.Certify.Journal.net_hash = net_hash
         && e.Certify.Journal.prop_hash = prop_hash
      then
        match (e.Certify.Journal.verdict, e.Certify.Journal.cert_file) with
        | ("proved" | "disproved"), Some name -> (
            match Certify.Journal.read_cert ~dir ~name with
            | Error _ -> ()
            | Ok blob -> (
                match Certify.Certificate.of_string blob with
                | Ok cert
                  when cert.Certify.Certificate.component
                       = e.Certify.Journal.component ->
                    Hashtbl.replace settled e.Certify.Journal.component
                      (e.Certify.Journal.verdict, cert)
                | Ok _ | Error _ -> ()))
        | _ -> () (* an unknown is not settled: try again *))
    (Certify.Journal.load ~dir);
  settled

(* Which rung settled a leaf — the partition accounting. *)
type rung = Cached | Revalidated | Presolved | Solved | Unsettled

(* The decision query. Every question is a plan of leaves — one leaf
   (the box itself, [Partition.plan] never called) unless [split] — and
   every leaf goes down one settle ladder, cheapest rung first:

   1. proof-store probe for this network (exact or subsumed) — O(1), no
      solver;
   2. cross-network revalidation: an entry answering the same leaf
      question about different weights is never served as-is, but its
      disproving witness replays through the current network with one
      forward pass (a proved entry revalidates through rung 4: the
      fresh symbolic bound of the current network, counted as
      revalidated rather than presolved);
   3. the leaf directory's journal: components a previous run of the
      same question settled with a certificate that still parses;
   4. the analysis pre-pass on the untightened encoding — then, in a
      run that keeps no evidence, OBBT on that same build for the
      components still pending, and the pre-pass again on the
      tightened bound;
   5. a cutoff MILP per pending component under a rolled-forward slice
      of the whole-call deadline, on the requested LP core and then on
      the dense one: only a rung that {e raises} hands over to the next
      (a timeout ends the ladder with the tightest sound bound seen),
      and a leaf whose every core raised ends in an honest Unknown.

   Rungs 1–2 need a proof store, which only a split brings; rung 3
   needs a leaf directory. One disproved leaf disproves the parent (its
   witness lies inside the leaf box, hence inside the parent box) and
   stops the campaign. *)
let prove_lateral_velocity_le ?(time_limit = 60.0)
    ?(bound_mode = Encoding.Encoder.Interval_bounds) ?(tighten_rounds = 1)
    ?(cores = 1) ?portfolio ?(warm = true) ?lp_core ?certify_dir ?split ?store
    ?session ~components ~threshold net box =
  let started = Linalg.Mclock.now () in
  let deadline = started +. time_limit in
  let net_hash =
    lazy
      (match session with
       | Some s -> s.session_net_hash
       | None -> Nn.Io.content_hash net)
  in
  let output k = Nn.Gmm.mu_lat_index ~components k in
  let property_of (b : Interval.Box.box) =
    {
      Certify.Certificate.threshold;
      components;
      bound_mode = Certify.Checker.mode_string bound_mode;
      box =
        Array.map (fun (iv : Interval.t) -> (iv.Interval.lo, iv.Interval.hi)) b;
    }
  in
  (* A monolithic question's leaf directory is [certify_dir] itself, so
     its layout (certificates and journal directly in the directory) is
     what [Certify.Audit.run] reads. A split adds the proof store
     (explicit, or opened on [certify_dir]), hash-named leaf
     directories under its root and the shard manifest. *)
  let store =
    match (split, store, certify_dir) with
    | None, _, _ -> None
    | Some _, (Some _ as s), _ -> s
    | Some _, None, Some dir -> Some (Certify.Store.open_ ~dir)
    | Some _, None, None -> None
  in
  (* The one rule behind every remaining difference between runs: does
     this run keep replayable evidence? If it does, it solves only what
     a certificate can replay — no OBBT (a tightened model embeds
     thousands of LP conclusions the checker would have to take on
     faith), no analysis node-bound hook (its prunes would be
     [Leaf_uncertified]) and a sequential, leaf-streaming search. If it
     does not, OBBT, the node-bound hook, parallel and portfolio search
     and the parallel leaf fan-out all stay on. *)
  let evidence =
    match split with None -> certify_dir <> None | Some _ -> store <> None
  in
  (* OBBT per partition leaf would dominate many small boxes: the
     symbolic pre-pass is what a split relies on. *)
  let tighten_rounds = if split = None then tighten_rounds else 0 in
  let plan =
    match split with
    | None ->
        {
          Partition.tree = Certify.Shard.Tile;
          boxes = [| box |];
          upper = [| infinity |];
          plan_depth = 0;
        }
    | Some policy ->
        (* Planning is cheap symbolic work, but it must never starve the
           solves it feeds: a quarter of the budget at most. *)
        Partition.plan ~policy ~deadline:(started +. (0.25 *. time_limit))
          ~components ~threshold net box
  in
  let n = Array.length plan.Partition.boxes in
  let leaf_props = Array.map property_of plan.Partition.boxes in
  let leaf_hashes =
    lazy
      (Array.map
         (Certify.Certificate.property_hash ~net_hash:(Lazy.force net_hash))
         leaf_props)
  in
  let leaf_dir idx =
    match (split, store) with
    | None, _ -> certify_dir
    | Some _, Some s ->
        Some
          (Filename.concat (Certify.Store.root s)
             (Lazy.force leaf_hashes).(idx))
    | Some _, None -> None
  in
  (* The manifest goes down before any leaf is attempted: a killed
     campaign still audits (to Unknown), and a re-run of the same
     question overwrites it with identical bytes. *)
  Option.iter
    (fun s ->
      let net_hash = Lazy.force net_hash and parent = property_of box in
      Certify.Journal.write_cert ~dir:(Certify.Store.root s)
        ~name:
          (Certify.Shard.manifest_name
             ~prop_hash:(Certify.Certificate.property_hash ~net_hash parent))
        (Certify.Shard.to_string
           {
             Certify.Shard.net_hash;
             property = parent;
             tree = plan.Partition.tree;
             leaf_hashes = Lazy.force leaf_hashes;
           }))
    store;
  let witness_of_input input =
    let outputs = Nn.Network.forward net input in
    let component = ref 0 in
    for c = 1 to components - 1 do
      if outputs.(output c) > outputs.(output !component) then component := c
    done;
    let component = !component in
    { input; outputs; achieved = outputs.(output component); component }
  in
  (* The LP cores of rung 5, in order. *)
  let cores_ladder =
    match Option.value lp_core ~default:(Lp.Simplex.default_core ()) with
    | Lp.Simplex.Dense -> [ Lp.Simplex.Dense ]
    | first -> [ first; Lp.Simplex.Dense ]
  in
  let settle_leaf ~cores ~portfolio ~slice idx =
    let leaf_started = Linalg.Mclock.now () in
    let leaf_deadline = leaf_started +. slice in
    let lbox = plan.Partition.boxes.(idx) in
    let upper = plan.Partition.upper.(idx) in
    let dir = leaf_dir idx in
    let nodes = ref 0 and presolved = ref 0 and certified = ref 0 in
    let resumed = ref 0 and degraded = ref 0 in
    let finish rung proof =
      ( rung,
        {
          proof;
          proof_elapsed = Linalg.Mclock.now () -. leaf_started;
          proof_nodes = !nodes;
          presolved = !presolved;
          certified = !certified;
          resumed = !resumed;
          degraded = !degraded;
          partition = None;
        } )
    in
    let journal ~dir k verdict cert_file =
      Certify.Journal.append ~dir
        {
          Certify.Journal.component = k;
          verdict;
          cert_file;
          net_hash = Lazy.force net_hash;
          prop_hash = (Lazy.force leaf_hashes).(idx);
        }
    in
    (* Self-check through the exact replay the independent audit runs: a
       certificate that would not survive the audit is still written
       (the rejection stays explainable) but is journaled as [unknown] —
       neither a resume nor the proof store may ever trust a verdict
       whose own evidence does not replay. Returns whether it replayed.
       The leaf's components share one replay of the leaf question —
       one outward bound pass and one encoder rebuild of its own, never
       this driver's encodings or analysis. *)
    let replay = Certify.Audit.replay net leaf_props.(idx) in
    let emit ~dir k verdict body =
      let cert =
        {
          Certify.Certificate.net_hash = Lazy.force net_hash;
          property = leaf_props.(idx);
          component = k;
          output = output k;
          body;
        }
      in
      let audited = Result.is_ok (Certify.Audit.check replay cert) in
      if audited then incr certified;
      let name = Printf.sprintf "component-%d.cert" k in
      Certify.Journal.write_cert ~dir ~name
        (Certify.Certificate.to_string cert);
      journal ~dir k (if audited then verdict else "unknown") (Some name);
      audited
    in
    let emit_witness ~dir (w : witness) =
      emit ~dir w.component "disproved"
        (Certify.Certificate.Witness { input = w.input; achieved = w.achieved })
    in
    (* Rungs 1–2. *)
    let probe =
      match store with
      | None -> `Miss false
      | Some s -> (
          let net_hash = Lazy.force net_hash and lprop = leaf_props.(idx) in
          match Certify.Store.lookup s ~net_hash lprop with
          | Some { Certify.Store.entry; _ } -> (
              match entry.Certify.Store.verdict with
              | Certify.Store.Proved -> `Settled (Cached, Proved)
              | Certify.Store.Disproved { witness; _ } ->
                  `Settled (Cached, Disproved (witness_of_input witness)))
          | None -> (
              let candidates =
                Certify.Store.revalidation_candidates s ~net_hash lprop
              in
              let replayed =
                List.find_map
                  (fun (e : Certify.Store.entry) ->
                    match e.Certify.Store.verdict with
                    | Certify.Store.Disproved { witness = input; _ }
                      when Interval.Box.contains lbox input ->
                        let w = witness_of_input input in
                        if w.achieved > threshold then Some w else None
                    | _ -> None)
                  candidates
              in
              let dir = Option.get dir in
              match replayed with
              | Some w when (Certify.Journal.init dir; emit_witness ~dir w) ->
                  ignore (Certify.Store.record s ~net_hash lprop);
                  `Settled (Revalidated, Disproved w)
              | _ ->
                  `Miss
                    (List.exists
                       (fun (e : Certify.Store.entry) ->
                         e.Certify.Store.verdict = Certify.Store.Proved)
                       candidates)))
    in
    match probe with
    | `Settled (rung, proof) -> finish rung proof
    | `Miss _ when dir = None && upper <= threshold ->
        (* The plan's own symbolic bound discharges the leaf: nothing to
           encode when no certificate is wanted. *)
        presolved := components;
        finish Presolved Proved
    | `Miss _
      when split <> None && Linalg.Mclock.now () >= deadline
           && upper > threshold ->
        (* Out of budget: an honest unattempted Unknown — paying the leaf
           encoding would overrun the whole-call deadline. *)
        finish Unsettled (Unknown { best_bound = upper })
    | `Miss had_candidate ->
        let enc0 =
          encode_round0
            (if split = None then session else None)
            ~bound_mode net lbox
        in
        (* Rung 3. *)
        let settled =
          match dir with
          | None -> Hashtbl.create 0
          | Some dir ->
              Certify.Journal.init dir;
              settled_components ~dir ~net_hash:(Lazy.force net_hash)
                ~prop_hash:(Lazy.force leaf_hashes).(idx)
        in
        let worst = ref neg_infinity and disproof = ref None in
        let todo =
          List.filter
            (fun k ->
              match Hashtbl.find_opt settled k with
              | Some ("proved", _) ->
                  incr resumed;
                  worst := Float.max !worst threshold;
                  false
              | Some
                  ( "disproved",
                    { Certify.Certificate.body =
                        Certify.Certificate.Witness { input; achieved = _ };
                      _ } ) ->
                  incr resumed;
                  let outputs = Nn.Network.forward net input in
                  if !disproof = None then
                    disproof :=
                      Some
                        { input; outputs; achieved = outputs.(output k);
                          component = k };
                  false
              | Some _ | None -> true)
            (List.init components Fun.id)
        in
        (* Rung 4. The symbolic upper bounding form is only built when
           some component is actually discharged with a certificate. *)
        let symbolic = lazy (Absint.Symbolic.propagate net lbox) in
        let prepass enc ks =
          List.filter
            (fun k ->
              let ub = output_upper enc (output k) in
              let discharged =
                ub <= threshold
                &&
                match dir with
                | None -> true
                | Some dir ->
                    (* Certifiable from the analysis's own bounding
                       hyperplane — but only if that hyperplane survives
                       the audit's outward-rounded replay. A marginal
                       bound (analysis says [<=], the replay says [>])
                       must not settle the component on unreplayable
                       evidence: it falls through to the MILP, whose
                       tree certificate replays leaf by leaf. *)
                    let coeffs, const =
                      Absint.Symbolic.output_upper_form (Lazy.force symbolic)
                        net ~output:(output k)
                    in
                    emit ~dir k "proved"
                      (Certify.Certificate.Presolve
                         { coeffs; const; bound = ub })
              in
              if discharged then begin
                incr presolved;
                worst := Float.max !worst ub
              end;
              not discharged)
            ks
        in
        let pending = if !disproof = None then prepass enc0 todo else [] in
        let enc, pending =
          if pending = [] || dir <> None || tighten_rounds <= 0
             || Linalg.Mclock.now () >= leaf_deadline
          then (enc0, pending)
          else
            match
              Encoding.Encoder.tighten ~rounds:tighten_rounds
                ~budget:(0.5 *. (leaf_deadline -. Linalg.Mclock.now ()))
                ~cores ?lp_core enc0 net lbox
            with
            | enc -> (enc, prepass enc pending)
            | exception (Lp.Simplex.Numerical_error _ | Failure _) ->
                incr degraded;
                (enc0, pending)
        in
        (* Rung 5. *)
        let priority = Encoding.Encoder.layer_order_priority enc in
        let model = enc.Encoding.Encoder.model in
        let model_hash = lazy (Certify.Certificate.model_fingerprint model) in
        let solve_on core ~time_limit k =
          let objective = Encoding.Encoder.output_objective enc (output k) in
          let branch_rule = Milp.Solver.Priority priority in
          match dir with
          | Some _ ->
              let leaves = ref [] in
              let on_leaf fixes cert =
                let evidence =
                  match cert with
                  | Milp.Solver.Leaf_bounded y ->
                      Certify.Certificate.Ev_bounded y
                  | Milp.Solver.Leaf_infeasible y ->
                      Certify.Certificate.Ev_infeasible y
                  | Milp.Solver.Leaf_empty_row i ->
                      Certify.Certificate.Ev_empty_row i
                  | Milp.Solver.Leaf_uncertified reason ->
                      Certify.Certificate.Ev_unsupported reason
                in
                leaves :=
                  { Certify.Certificate.fixes = Array.of_list (List.rev fixes);
                    evidence }
                  :: !leaves
              in
              let r =
                Milp.Solver.solve ~time_limit ~cutoff:threshold ~branch_rule
                  ~objective ~warm ~lp_core:core ~on_leaf model
              in
              (r, Array.of_list (List.rev !leaves))
          | None ->
              ( Milp.Parallel.solve ~cores ?portfolio ~time_limit
                  ~cutoff:threshold ~branch_rule
                  ?node_bound:
                    (node_bound_for ~bound_mode enc net lbox ~output:(output k))
                  ~objective ~warm ~lp_core:core model,
                [||] )
        in
        let rec solve = function
          | [] -> ()
          | k :: rest as queue -> (
              let share_end =
                Linalg.Mclock.now ()
                +. budget_slice ~deadline:leaf_deadline
                     ~queue_len:(List.length queue) ()
              in
              let analysis_ub = output_upper enc (output k) in
              let rec ladder = function
                | [] -> `Bound analysis_ub
                | core :: lower -> (
                    let time_limit =
                      Float.max 0.0 (share_end -. Linalg.Mclock.now ())
                    in
                    match solve_on core ~time_limit k with
                    | exception (Lp.Simplex.Numerical_error _ | Failure _) ->
                        incr degraded;
                        ladder lower
                    | r, leaves -> (
                        nodes := !nodes + r.Milp.Solver.nodes;
                        match (r.Milp.Solver.incumbent, r.Milp.Solver.outcome) with
                        | Some (solution, _), _ -> `Disproved solution
                        | None, Milp.Solver.Optimal -> `Proved leaves
                        | None, _ ->
                            (* Two sound upper bounds — the solver's and
                               the analysis one — so the tighter stands. *)
                            `Bound
                              (Float.min r.Milp.Solver.best_bound analysis_ub)))
              in
              match ladder cores_ladder with
              | `Proved leaves ->
                  Option.iter
                    (fun dir ->
                      ignore
                        (emit ~dir k "proved"
                           (Certify.Certificate.Milp_tree
                              { model_hash = Lazy.force model_hash; leaves })
                          : bool))
                    dir;
                  worst := Float.max !worst threshold;
                  solve rest
              | `Disproved solution ->
                  (* A feasible point above the cutoff refutes the
                     property. *)
                  let w =
                    witness_of_solution enc net ~component:k
                      ~output_index:(output k) solution
                  in
                  Option.iter
                    (fun dir -> ignore (emit_witness ~dir w : bool))
                    dir;
                  disproof := Some w
              | `Bound b ->
                  Option.iter (fun dir -> journal ~dir k "unknown" None) dir;
                  worst := Float.max !worst b;
                  solve rest)
        in
        solve pending;
        Option.iter
          (fun s ->
            ignore
              (Certify.Store.record s ~net_hash:(Lazy.force net_hash)
                 leaf_props.(idx)))
          store;
        (match !disproof with
         | Some w -> finish Solved (Disproved w)
         | None when !worst <= threshold ->
             finish
               (if !presolved = components && !nodes = 0 then
                  if had_candidate then Revalidated else Presolved
                else Solved)
               Proved
         | None -> finish Unsettled (Unknown { best_bound = !worst }))
  in
  (* Without evidence, leaves the plan's bound discharges settle for
     free; the rest share the deadline. *)
  let needs_work idx = evidence || plan.Partition.upper.(idx) > threshold in
  let results =
    Array.init n (fun idx ->
        if needs_work idx then None
        else Some (settle_leaf ~cores:1 ~portfolio:None ~slice:0.0 idx))
  in
  let queue = Array.of_list (List.filter needs_work (List.init n Fun.id)) in
  let nq = Array.length queue in
  let is_disproof = function
    | _, { proof = Disproved _; _ } -> true
    | _, { proof = Proved | Unknown _; _ } -> false
  in
  if (not evidence) && cores > 1 && nq > 1 && portfolio = None then begin
    (* Parallel leaf fan-out: each domain settles its chain of leaves
       sequentially (no nested domain oversubscription), on a slice
       sized for that chain; a disproof stops the leaves not yet
       started. *)
    let fan = min cores nq in
    let slice = budget_slice ~deadline ~queue_len:((nq + fan - 1) / fan) () in
    let stop = Atomic.make false in
    let settled =
      Milp.Parallel.map ~cores:fan
        ~init:(fun () -> ())
        (fun () idx ->
          if Atomic.get stop then None
          else begin
            let r = settle_leaf ~cores:1 ~portfolio:None ~slice idx in
            if is_disproof r then Atomic.set stop true;
            Some r
          end)
        queue
    in
    Array.iteri (fun i r -> results.(queue.(i)) <- r) settled
  end
  else begin
    let i = ref 0 and stop = ref false in
    while (not !stop) && !i < nq do
      let slice = budget_slice ~deadline ~queue_len:(nq - !i) () in
      let r = settle_leaf ~cores ~portfolio ~slice queue.(!i) in
      results.(queue.(!i)) <- Some r;
      stop := is_disproof r;
      incr i
    done
  end;
  let settled = List.filter_map Fun.id (Array.to_list results) in
  let count rung = List.length (List.filter (fun (r, _) -> r = rung) settled) in
  let sum f = List.fold_left (fun acc (_, p) -> acc + f p) 0 settled in
  let proof =
    match
      List.find_map
        (function _, { proof = Disproved w; _ } -> Some w | _ -> None)
        settled
    with
    | Some w -> Disproved w
    | None -> (
        match
          List.filter_map
            (function
              | _, { proof = Unknown { best_bound }; _ } -> Some best_bound
              | _ -> None)
            settled
        with
        | [] -> Proved
        | bounds ->
            Unknown
              { best_bound = List.fold_left Float.max neg_infinity bounds })
  in
  {
    proof;
    proof_elapsed = Linalg.Mclock.now () -. started;
    proof_nodes = sum (fun p -> p.proof_nodes);
    presolved = sum (fun p -> p.presolved);
    certified = sum (fun p -> p.certified);
    resumed = sum (fun p -> p.resumed);
    degraded = sum (fun p -> p.degraded);
    partition =
      Option.map
        (fun _ ->
          {
            Partition.leaves = n;
            depth = plan.Partition.plan_depth;
            presolved = count Presolved;
            cached = count Cached;
            revalidated = count Revalidated;
            solved = count Solved;
            unsettled = count Unsettled;
          })
        split;
  }

let sampled_max_lateral_velocity ~rng ~samples ~components net box =
  if samples <= 0 then invalid_arg "Driver.sampled_max_lateral_velocity";
  let best = ref neg_infinity and best_input = ref [||] in
  for _ = 1 to samples do
    let x = Interval.Box.sample box rng in
    let out = Nn.Network.forward net x in
    let v =
      List.fold_left
        (fun acc k -> Float.max acc out.(Nn.Gmm.mu_lat_index ~components k))
        neg_infinity
        (List.init components Fun.id)
    in
    if v > !best then begin
      best := v;
      best_input := x
    end
  done;
  (!best, !best_input)
