(* Parallel branch & bound on OCaml 5 domains.

   Worker domains pull open nodes from a shared pool, publish the
   incumbent through an [Atomic], and prune against it. The workers are
   split into a portfolio of two groups sharing that incumbent:

   - provers run the shared best-first pool (mutex-protected max-heap,
     condition-variable wakeups), driving the proven bound down;
   - divers run depth-first on a private LIFO stack — the inactive-
     neuron side first, cf. {!Search.branch} — producing feasible
     incumbents early. A diver steals from the shared heap when its
     stack empties and donates its shallowest entries back when the
     stack exceeds [dive_open], so the provers are never starved.

   Every diver incumbent immediately prunes the provers through the
   shared atomic, and vice versa: the portfolio attacks time-to-first-
   incumbent without giving up the best-first bound proof.

   Each domain owns a private copy of the root LP plus its own simplex
   workspace; a node is evaluated through the {!Lp.Problem} bound
   journal (O(depth) bound writes), so nothing is copied per node and
   domains never share mutable LP state.

   Determinism contract: [~cores:1] without [?portfolio] delegates to
   {!Solver.solve} and is bit-identical to the sequential solver. For
   any core count or portfolio split the outcome, the incumbent
   objective and the proven bound agree with the sequential result up
   to [eps] (node/iteration counts and which optimal point is found may
   differ, since exploration order is timing-dependent).

   Robustness: a worker that raises while evaluating a node pushes the
   node — and, for a diver, its whole private stack — back into the
   shared heap, bumps [failed_workers] and retires; the search only
   fails as a whole when every domain has died (see the degradation
   contract in the interface). *)

open Solver

let available_cores () = Domain.recommended_domain_count ()

let cores_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | Some _ | None -> None

let cores_of_env () =
  match Sys.getenv_opt "DEPNN_CORES" with
  | None -> 1
  | Some s -> (
      match cores_of_string s with
      | Some n -> n
      | None ->
          (* Silently coercing garbage to 1 once sent misconfigured CI
             jobs into sequential runs with nobody the wiser. *)
          Printf.eprintf
            "depnn: ignoring malformed DEPNN_CORES=%S (want a positive \
             integer); running on 1 core\n%!"
            s;
          1)

let portfolio_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let divers = String.sub s 0 i
      and provers = String.sub s (i + 1) (String.length s - i - 1) in
      match
        ( int_of_string_opt (String.trim divers),
          int_of_string_opt (String.trim provers) )
      with
      | Some d, Some p when d >= 0 && p >= 0 && d + p >= 1 -> Some (d, p)
      | _ -> None)

let portfolio_of_env () =
  match Sys.getenv_opt "DEPNN_PORTFOLIO" with
  | None -> None
  | Some s -> (
      match portfolio_of_string s with
      | Some split -> Some split
      | None ->
          Printf.eprintf
            "depnn: ignoring malformed DEPNN_PORTFOLIO=%S (want D:P with \
             D + P >= 1); using the default split\n%!"
            s;
          None)

(* {1 Generic domain fan} *)

(* [map ~cores ~init f items] applies [f state item] to every item,
   work-stealing over a shared atomic index. [init] runs once per domain
   to build domain-private scratch state (e.g. an LP copy). Results come
   back in input order; the first exception is re-raised after all
   domains have been joined. *)
let map ?(cores = 1) ~init f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let cores = max 1 (min cores n) in
    if cores = 1 then begin
      let state = init () in
      Array.map (f state) items
    end
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let record e = ignore (Atomic.compare_and_set failure None (Some e)) in
      let work () =
        let state = init () in
        let rec go () =
          if Atomic.get failure = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (match f state items.(i) with
               | r -> results.(i) <- Some r
               | exception e -> record e);
              go ()
            end
          end
        in
        go ()
      in
      let domains = Array.init (cores - 1) (fun _ -> Domain.spawn work) in
      (* Every spawned domain must be joined exactly once, whatever
         raises where: [init] throwing on the coordinating domain used
         to skip the joins entirely (leaking the domains), and a join
         re-raising a worker's [init] exception used to abandon the
         domains after it. Record the first exception, join everything,
         re-raise at the end. *)
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun d ->
              match Domain.join d with () -> () | exception e -> record e)
            domains)
        (fun () -> match work () with () -> () | exception e -> record e);
      (match Atomic.get failure with Some e -> raise e | None -> ());
      Array.map (function Some r -> r | None -> assert false) results
    end
  end

(* {1 Portfolio parallel branch & bound} *)

(* A diver's private stack is bounded: past this many open nodes the
   shallowest entries are donated back to the shared heap, where the
   best-first provers (or an idle diver) pick them up. The stack grows
   by one sibling per dive level, so the bound must sit well below the
   typical dive depth (#unstable neurons, 20+ even on the smoke model)
   or the diver hoards the whole tree and the provers starve — 4 keeps
   the current dive path private and streams every shallower sibling,
   the nodes with the best bounds, out to the provers. *)
let dive_open = 4

let solve ?(cores = 1) ?portfolio ?(time_limit = infinity)
    ?(node_limit = max_int) ?(eps = 1e-6) ?(int_eps = 1e-6)
    ?(branch_rule = Search.Most_fractional) ?depth_first
    ?(cutoff = neg_infinity) ?primal_heuristic ?node_bound ?objective
    ?(warm = true) ?lp_core model =
  let cores = max 1 cores in
  let split =
    match portfolio with
    | Some (divers, provers) ->
        if divers < 0 || provers < 0 || divers + provers < 1 then
          invalid_arg
            "Milp.Parallel.solve: portfolio needs divers >= 0, provers >= 0 \
             and at least one worker";
        Some (divers, provers)
    | None -> if cores = 1 then None else Some (1, cores - 1)
  in
  match split with
  | None ->
      Solver.solve ~time_limit ~node_limit ~eps ~int_eps ~branch_rule
        ?depth_first ~cutoff ?primal_heuristic ?node_bound ?objective ~warm
        ?lp_core model
  | Some (divers, provers) ->
      (* [depth_first] is a sequential ablation hook; parallel node
         order is governed by the portfolio split. *)
      ignore depth_first;
      let workers = divers + provers in
      let base = Model.lp model in
      let ints = Model.integer_vars model in
      let start = Linalg.Mclock.now () in
      let pool = Search.Heap.create () in
      Search.Heap.push pool Search.root;
      let mutex = Mutex.create () in
      let work_available = Condition.create () in
      (* Guarded by [mutex]: the count of open nodes living outside the
         shared heap — nodes under evaluation plus nodes parked in diver
         stacks — and the stop reason once a limit fires. The search is
         exhausted exactly when the heap is empty and [in_flight] is 0;
         because parked diver nodes are counted, no worker can conclude
         termination while any private stack is nonempty. *)
      let in_flight = ref 0 in
      let stopped : outcome option ref = ref None in
      let failure : exn option ref = ref None in
      let failed = ref 0 in
      (* Incumbent published to every domain; monotone under CAS. *)
      let best : (float array * float) option Atomic.t = Atomic.make None in
      let nodes = Atomic.make 0 in
      let lp_iters = Atomic.make 0 in
      let first : (int * float) option Atomic.t = Atomic.make None in
      (* Max parent bound over nodes whose LP hit its iteration limit
         (see {!Solver.conclude}). *)
      let lost_bound = Atomic.make neg_infinity in
      let rec lose b =
        let cur = Atomic.get lost_bound in
        if b > cur && not (Atomic.compare_and_set lost_bound cur b) then lose b
      in
      let incumbent_value () =
        match Atomic.get best with Some (_, v) -> v | None -> cutoff
      in
      let rec offer point value =
        let cur = Atomic.get best in
        let cur_v = match cur with Some (_, v) -> v | None -> cutoff in
        if value > cur_v +. eps then
          if Atomic.compare_and_set best cur (Some (point, value)) then begin
            (* Exactly one CAS wins the None -> Some transition, so the
               first-incumbent stamp has a single writer. *)
            if cur = None then
              Atomic.set first
                (Some (Atomic.get nodes, Linalg.Mclock.now () -. start))
          end
          else offer point value
      in
      (* Solve the node's relaxation on the domain-private [problem] and
         return the children to enqueue. *)
      let evaluate problem node =
        (* Analysis bound first (cf. {!Solver.solve}): callers promise
           the callback is domain-safe, so workers may run it
           concurrently. *)
        let analysis_cap =
          match node_bound with
          | Some f -> f node.Search.fixes
          | None -> None
        in
        let analysis_pruned =
          match analysis_cap with
          | Some b -> b <= incumbent_value () +. eps
          | None -> false
        in
        if analysis_pruned then []
        else
          Search.with_node_bounds problem node (fun () ->
              (* Basis snapshots are immutable values, so a node stolen
                 from another domain warm-starts on this domain's private
                 LP copy without any sharing hazard. *)
              (* Factored snapshots ([bfactor]) ride along: the sparse
                 core re-uses a stolen node's LU + eta file directly on
                 this domain after an O(nnz) consistency probe. *)
              let relax =
                match (if warm then node.Search.parent_basis else None) with
                | Some b -> Lp.Simplex.resolve ?core:lp_core ~basis:b problem
                | None -> Lp.Simplex.solve ?core:lp_core problem
              in
              ignore
                (Atomic.fetch_and_add lp_iters relax.Lp.Simplex.iterations);
              match relax.Lp.Simplex.status with
              | Lp.Simplex.Infeasible -> []
              | Lp.Simplex.Iteration_limit ->
                  lose node.Search.parent_bound;
                  []
              | Lp.Simplex.Optimal ->
                  let lp_bound = relax.Lp.Simplex.objective in
                  let bound =
                    match analysis_cap with
                    | Some b -> Float.min b lp_bound
                    | None -> lp_bound
                  in
                  (match primal_heuristic with
                   | Some heuristic -> (
                       match heuristic relax.Lp.Simplex.x with
                       | Some (point, value) -> offer point value
                       | None -> ())
                   | None -> ());
                  if bound > incumbent_value () +. eps then begin
                    match
                      Search.select_branch_var branch_rule ints int_eps
                        relax.Lp.Simplex.x
                    with
                    | None ->
                        offer relax.Lp.Simplex.x lp_bound;
                        []
                    | Some v ->
                        let xv = relax.Lp.Simplex.x.(v) in
                        let lo, hi = Lp.Problem.bounds problem v in
                        Search.branch node ~v ~xv ~lo ~hi ~bound
                          ~basis:(if warm then relax.Lp.Simplex.basis else None)
                  end
                  else [])
      in
      let worker ~diver () =
        let problem = Lp.Problem.copy base in
        Option.iter (Lp.Problem.set_objective problem) objective;
        (* A diver explores depth-first on this private stack, bounded
           at [dive_open] with overflow donated to the shared heap. A
           prover is the degenerate diver with a zero-capacity stack:
           every child it pushes lands straight in the shared best-first
           heap, so both roles share one code path. [donate] runs only
           from push/drain calls made with [mutex] held. *)
        let private_pool =
          Search.Pool.depth_first
            ~max_open:(if diver then dive_open else 0)
            ~donate:(fun n -> Search.Heap.push pool n)
            ()
        in
        (* Pop the next node — own stack first, then the shared heap —
           sleeping while both are empty but open nodes exist elsewhere
           (their children may land here). Called and returning with
           [mutex] held. Private-stack nodes are already counted in
           [in_flight]; heap pops enter it. *)
        let rec next () =
          if !stopped <> None then None
          else
            match Search.Pool.pop private_pool with
            | Some n -> Some n
            | None -> (
                match Search.Heap.pop pool with
                | Some n ->
                    incr in_flight;
                    Some n
                | None ->
                    if !in_flight = 0 then None
                    else begin
                      Condition.wait work_available mutex;
                      next ()
                    end)
        in
        (* Return the private stack to the shared heap so the final open
           bound still covers those subtrees. With [mutex] held. *)
        let flush_private () =
          let stranded = Search.Pool.drain private_pool in
          List.iter (Search.Heap.push pool) stranded;
          in_flight := !in_flight - List.length stranded
        in
        let retire children =
          Mutex.lock mutex;
          let kept_before = Search.Pool.size private_pool in
          List.iter (Search.Pool.push private_pool) children;
          (* Children kept on the private stack stay in [in_flight];
             donated ones moved to the heap, and the evaluated node
             itself retires. *)
          in_flight :=
            !in_flight + (Search.Pool.size private_pool - kept_before) - 1;
          Condition.broadcast work_available;
          Mutex.unlock mutex
        in
        (* A worker stopped by a limit puts its node — and a diver its
           whole stack — back so the final open bound still covers
           them. *)
        let abort node reason =
          Mutex.lock mutex;
          Search.Heap.push pool node;
          decr in_flight;
          flush_private ();
          if !stopped = None then stopped := reason;
          Condition.broadcast work_available;
          Mutex.unlock mutex
        in
        let rec loop () =
          Mutex.lock mutex;
          match next () with
          | None ->
              (* Another worker may have fired a limit while this one's
                 stack still held nodes: hand them back before leaving. *)
              flush_private ();
              Condition.broadcast work_available;
              Mutex.unlock mutex
          | Some node ->
              Mutex.unlock mutex;
              if Linalg.Mclock.now () -. start > time_limit then
                abort node (Some Time_limit)
              else if Atomic.get nodes >= node_limit then
                abort node (Some Node_limit)
              else if node.Search.parent_bound <= incumbent_value () +. eps
              then begin
                (* Pruned by an incumbent published after queueing. *)
                retire [];
                loop ()
              end
              else begin
                ignore (Atomic.fetch_and_add nodes 1);
                match evaluate problem node with
                | children ->
                    retire children;
                    loop ()
                | exception e ->
                    (* Degrade instead of killing the whole search: put
                       the node and any parked private nodes back (so
                       the open-node bound still covers their subtrees
                       and [best_bound] stays sound), record the loss,
                       and let this domain retire while the others keep
                       draining the pool. The exception is re-raised
                       after the join only if every worker died. *)
                    Mutex.lock mutex;
                    Search.Heap.push pool node;
                    decr in_flight;
                    flush_private ();
                    incr failed;
                    if !failure = None then failure := Some e;
                    Condition.broadcast work_available;
                    Mutex.unlock mutex
              end
        in
        loop ()
      in
      (* Workers 0 .. divers-1 dive, the rest prove; worker 0 runs on
         the coordinating domain. *)
      let domains =
        Array.init (workers - 1) (fun i ->
            Domain.spawn (worker ~diver:(i + 1 < divers)))
      in
      worker ~diver:(divers > 0) ();
      Array.iter Domain.join domains;
      (* All domains lost: there is nobody left to make progress, so the
         degraded-result contract cannot be honoured — propagate. *)
      (match !failure with
       | Some e when !failed >= workers -> raise e
       | _ -> ());
      let incumbent = Atomic.get best in
      let open_bound =
        match Search.Heap.peek_bound pool with
        | Some b -> b
        | None -> neg_infinity
      in
      let outcome, best_bound =
        Solver.conclude ~stopped:!stopped ~eps ~cutoff ~incumbent ~open_bound
          ~lost_bound:(Atomic.get lost_bound)
      in
      {
        outcome;
        incumbent;
        best_bound;
        nodes = Atomic.get nodes;
        elapsed = Linalg.Mclock.now () -. start;
        lp_iterations = Atomic.get lp_iters;
        failed_workers = !failed;
        first_incumbent_nodes = Option.map fst (Atomic.get first);
        first_incumbent_elapsed = Option.map snd (Atomic.get first);
      }

let solve_min ?cores ?portfolio ?time_limit ?node_limit ?eps ?int_eps
    ?branch_rule ?depth_first ?cutoff ?primal_heuristic ?node_bound ?objective
    ?warm ?lp_core model =
  let minned = Model.copy model in
  let problem = Model.lp minned in
  let n = Lp.Problem.num_vars problem in
  let original = Lp.Problem.objective problem in
  Lp.Problem.set_objective problem (List.init n (fun v -> (v, -.original.(v))));
  let neg_objective =
    Option.map (List.map (fun (v, c) -> (v, -.c))) objective
  in
  let neg_heuristic =
    Option.map
      (fun h x -> Option.map (fun (p, v) -> (p, -.v)) (h x))
      primal_heuristic
  in
  let neg_node_bound =
    Option.map
      (fun f fixes -> Option.map (fun b -> -.b) (f fixes))
      node_bound
  in
  let r =
    solve ?cores ?portfolio ?time_limit ?node_limit ?eps ?int_eps ?branch_rule
      ?depth_first
      ?cutoff:(Option.map (fun c -> -.c) cutoff)
      ?primal_heuristic:neg_heuristic ?node_bound:neg_node_bound
      ?objective:neg_objective ?warm ?lp_core minned
  in
  {
    r with
    incumbent = Option.map (fun (x, v) -> (x, -.v)) r.incumbent;
    best_bound = -.r.best_bound;
  }
