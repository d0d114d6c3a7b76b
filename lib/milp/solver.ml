type outcome = Optimal | Infeasible | Time_limit | Node_limit

type result = {
  outcome : outcome;
  incumbent : (float array * float) option;
  best_bound : float;
  nodes : int;
  elapsed : float;
  lp_iterations : int;
  failed_workers : int;
  first_incumbent_nodes : int option;
  first_incumbent_elapsed : float option;
}

type branch_rule = Search.branch_rule =
  | Most_fractional
  | Priority of (Model.var -> int)
  | Pseudo_first of int array

type leaf_cert =
  | Leaf_bounded of float array
  | Leaf_infeasible of float array
  | Leaf_empty_row of int
  | Leaf_uncertified of string

let conclude ~stopped ~eps ~cutoff ~incumbent ~open_bound ~lost_bound =
  let floor = match incumbent with Some (_, v) -> v | None -> cutoff in
  let outcome =
    match stopped with
    | Some o -> o
    | None ->
        (* A lost subtree the final incumbent would prune anyway costs
           nothing. With a finite cutoff, an empty incumbent is a proof
           that the optimum is <= cutoff, not infeasibility. *)
        if lost_bound > floor +. eps then Time_limit
        else if incumbent = None && cutoff = neg_infinity then Infeasible
        else Optimal
  in
  (outcome, Float.max floor (Float.max open_bound lost_bound))

let solve ?(time_limit = infinity) ?(node_limit = max_int) ?(eps = 1e-6)
    ?(int_eps = 1e-6) ?(branch_rule = Most_fractional) ?(depth_first = false)
    ?(cutoff = neg_infinity) ?primal_heuristic ?node_bound ?objective
    ?(warm = true) ?on_leaf model =
  let base = Model.lp model in
  let ints = Model.integer_vars model in
  let start = Linalg.Mclock.now () in
  (* One copy up front keeps the caller's problem untouched; every node
     after that is evaluated through the bound journal (O(depth) writes,
     no per-node copy). The optional objective override also lands on
     the copy, so one encoding can serve many queries concurrently. *)
  let problem = Lp.Problem.copy base in
  Option.iter (Lp.Problem.set_objective problem) objective;
  (* Both strategies behind the one {!Search.Pool} abstraction; the
     depth-first pool keeps the O(1) global open bound the old inline
     stack provided. *)
  let pool =
    if depth_first then Search.Pool.depth_first ()
    else Search.Pool.best_first ()
  in
  let push n = Search.Pool.push pool n in
  let pop () = Search.Pool.pop pool in
  push Search.root;
  let incumbent = ref None in
  let incumbent_value = ref cutoff in
  let lost_bound = ref neg_infinity in
  let nodes = ref 0 in
  let lp_iters = ref 0 in
  let first_incumbent = ref None in
  let adopt point value =
    incumbent := Some (point, value);
    incumbent_value := value;
    if !first_incumbent = None then
      first_incumbent := Some (!nodes, Linalg.Mclock.now () -. start)
  in
  (* Certificate stream: every closed subtree (a leaf of the explored
     tree) is reported to [on_leaf] with the branching fixes that define
     it and the evidence that closes it. The collector replays the
     evidence independently; anything it cannot replay is
     [Leaf_uncertified] and downgrades the proof honestly. *)
  let leaf fixes cert =
    match on_leaf with Some f -> f fixes cert | None -> ()
  in
  let relax_leaf fixes (relax : Lp.Simplex.solution) ~bounded =
    match relax.Lp.Simplex.cert with
    | Some (Lp.Simplex.Cert_duals y) when bounded ->
        leaf fixes (Leaf_bounded y)
    | Some (Lp.Simplex.Cert_farkas y) when not bounded ->
        leaf fixes (Leaf_infeasible y)
    | Some (Lp.Simplex.Cert_empty_row i) when not bounded ->
        leaf fixes (Leaf_empty_row i)
    | Some _ | None ->
        leaf fixes
          (Leaf_uncertified
             (if bounded then "lp optimum carried no dual certificate"
              else "lp infeasibility carried no certificate"))
  in
  let best_open_bound () =
    match Search.Pool.peek_bound pool with
    | Some b -> b
    | None -> neg_infinity
  in
  let finish stopped =
    let outcome, bound =
      conclude ~stopped ~eps ~cutoff ~incumbent:!incumbent
        ~open_bound:(best_open_bound ()) ~lost_bound:!lost_bound
    in
    {
      outcome;
      incumbent = !incumbent;
      best_bound = bound;
      nodes = !nodes;
      elapsed = Linalg.Mclock.now () -. start;
      lp_iterations = !lp_iters;
      failed_workers = 0;
      first_incumbent_nodes = Option.map fst !first_incumbent;
      first_incumbent_elapsed = Option.map snd !first_incumbent;
    }
  in
  let rec loop () =
    if Linalg.Mclock.now () -. start > time_limit then finish (Some Time_limit)
    else if !nodes >= node_limit then finish (Some Node_limit)
    else
      match pop () with
      | None -> finish None
      | Some node ->
          if node.Search.parent_bound <= !incumbent_value +. eps then begin
            (* Pruned by an incumbent found after this node was queued. *)
            leaf node.Search.fixes
              (Leaf_uncertified "pruned against a later incumbent");
            loop ()
          end
          else begin
            incr nodes;
            (* Independent analysis bound over the node's subtree (e.g.
               symbolic re-propagation of its fixed ReLU phases). When
               it already prunes, the node costs no LP at all; otherwise
               it caps the LP bound below. *)
            let analysis_cap =
              match node_bound with
              | Some f -> f node.Search.fixes
              | None -> None
            in
            let analysis_pruned =
              match analysis_cap with
              | Some b -> b <= !incumbent_value +. eps
              | None -> false
            in
            if analysis_pruned then begin
              leaf node.Search.fixes
                (Leaf_uncertified "pruned by the analysis bound");
              loop ()
            end
            else begin
            Search.with_node_bounds problem node (fun () ->
                let relax =
                  match (if warm then node.Search.parent_basis else None) with
                  | Some b -> Lp.Simplex.resolve ~basis:b problem
                  | None -> Lp.Simplex.solve problem
                in
                lp_iters := !lp_iters + relax.Lp.Simplex.iterations;
                match relax.Lp.Simplex.status with
                | Lp.Simplex.Infeasible ->
                    relax_leaf node.Search.fixes relax ~bounded:false
                | Lp.Simplex.Iteration_limit ->
                    (* Neither bounded nor branched: the subtree stays
                       open (see {!conclude}). *)
                    lost_bound :=
                      Float.max !lost_bound node.Search.parent_bound;
                    leaf node.Search.fixes
                      (Leaf_uncertified "lp iteration limit")
                | Lp.Simplex.Optimal ->
                    let lp_bound = relax.Lp.Simplex.objective in
                    (* The subtree bound is the tighter of the LP
                       relaxation and the analysis cap; a feasible
                       integral point still scores its true LP value. *)
                    let bound =
                      match analysis_cap with
                      | Some b -> Float.min b lp_bound
                      | None -> lp_bound
                    in
                    (* Caller-supplied rounding heuristic: project the
                       relaxation point onto a feasible integral one. *)
                    (match primal_heuristic with
                     | Some heuristic -> (
                         match heuristic relax.Lp.Simplex.x with
                         | Some (point, value)
                           when value > !incumbent_value +. eps ->
                             adopt point value
                         | Some _ | None -> ())
                     | None -> ());
                    if bound > !incumbent_value +. eps then begin
                      match
                        Search.select_branch_var branch_rule ints int_eps
                          relax.Lp.Simplex.x
                      with
                      | None ->
                          (* Integral: new incumbent. *)
                          adopt relax.Lp.Simplex.x lp_bound;
                          leaf node.Search.fixes
                            (Leaf_uncertified "integral incumbent")
                      | Some v ->
                          let xv = relax.Lp.Simplex.x.(v) in
                          let lo, hi = Lp.Problem.bounds problem v in
                          let basis =
                            if warm then relax.Lp.Simplex.basis else None
                          in
                          List.iter push
                            (Search.branch node ~v ~xv ~lo ~hi ~bound ~basis)
                    end
                    else if lp_bound <= !incumbent_value +. eps then
                      (* Pruned by the LP bound itself: the duals
                         certify it. *)
                      relax_leaf node.Search.fixes relax ~bounded:true
                    else
                      (* Pruned only through the analysis cap — the LP
                         duals certify a looser bound, so there is no
                         replayable evidence for this prune. *)
                      leaf node.Search.fixes
                        (Leaf_uncertified "pruned by the analysis cap"));
              loop ()
            end
          end
  in
  loop ()

let solve_min ?time_limit ?node_limit ?eps ?int_eps ?branch_rule ?depth_first
    ?cutoff ?primal_heuristic ?node_bound ?objective ?warm model =
  (* Negate the objective on a private copy of the model, maximise, then
     report back in min sense. The caller's model is never touched, so
     concurrent solves over the same model are safe and an exception
     cannot leave the objective negated. An explicit objective override
     is negated the same way before it lands on [solve]'s private copy. *)
  let minned = Model.copy model in
  let problem = Model.lp minned in
  let n = Lp.Problem.num_vars problem in
  let original = Lp.Problem.objective problem in
  let negated = List.init n (fun v -> (v, -.original.(v))) in
  Lp.Problem.set_objective problem negated;
  let neg_objective =
    Option.map (List.map (fun (v, c) -> (v, -.c))) objective
  in
  let neg_heuristic =
    Option.map
      (fun h x -> Option.map (fun (p, v) -> (p, -.v)) (h x))
      primal_heuristic
  in
  (* A min-sense node bound is a lower bound on the subtree minimum;
     negated it is an upper bound on the negated-objective maximum. *)
  let neg_node_bound =
    Option.map
      (fun f fixes -> Option.map (fun b -> -.b) (f fixes))
      node_bound
  in
  let r =
    solve ?time_limit ?node_limit ?eps ?int_eps ?branch_rule ?depth_first
      ?cutoff:(Option.map (fun c -> -.c) cutoff)
      ?primal_heuristic:neg_heuristic ?node_bound:neg_node_bound
      ?objective:neg_objective ?warm minned
  in
  {
    r with
    incumbent = Option.map (fun (x, v) -> (x, -.v)) r.incumbent;
    best_bound = -.r.best_bound;
  }
