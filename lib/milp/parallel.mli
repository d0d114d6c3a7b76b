(** Parallel branch & bound for {!Model} instances on OCaml 5 domains.

    [solve ~cores] runs the search of {!Solver.solve} with a portfolio
    of worker domains sharing one incumbent ([Atomic]) and one
    best-first pool of open nodes:

    - {b provers} pull from the shared max-heap best-first, driving the
      proven bound down towards the incumbent;
    - {b divers} run depth-first on a bounded private stack (the
      inactive-neuron branch first, cf. {!Search.branch}), reaching
      integral leaves — incumbents — early; they steal from the shared
      heap when their stack empties and donate their shallowest nodes
      back when it overflows, so the provers are never starved.

    A diver's incumbent immediately tightens every prover's pruning
    test and vice versa: the split attacks time-to-first-incumbent
    (see [first_incumbent_nodes] / [first_incumbent_elapsed] in
    {!Solver.result}) without giving up the best-first optimality
    proof. The default split, [?portfolio] absent and [cores >= 2], is
    1 diver : [cores - 1] provers.

    Each domain owns one private copy of the root LP and evaluates
    nodes through the {!Lp.Problem} bound journal (no per-node problem
    copies anywhere).

    {b Determinism contract.} With [~cores:1] and no [?portfolio] the
    call delegates to {!Solver.solve} and is bit-identical to it. For
    any core count or split the [outcome], the incumbent objective and
    [best_bound] agree with the sequential solver up to [eps]; [nodes],
    [lp_iterations] and the particular optimal point may differ because
    exploration order is timing-dependent.

    The [primal_heuristic] callback is invoked concurrently from worker
    domains and must therefore be thread-safe (the verifier's forward-run
    heuristic only reads the network and encoding, which qualifies).

    {b Degradation contract.} A worker that raises during node
    evaluation (e.g. {!Lp.Simplex.Numerical_error}) does not abort the
    search: its node — and, for a diver, its whole private stack — is
    pushed back into the shared pool, so the open bound still covers
    those subtrees and [best_bound] stays sound; the loss is counted in
    [failed_workers], and the surviving domains keep draining the pool.
    The exception is re-raised only when {e every} worker has died,
    since then nobody is left to make progress. A result with
    [failed_workers > 0] is therefore degraded (less parallelism,
    possibly retried nodes) but never unsound. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val cores_of_string : string -> int option
(** Parse a core count: a positive integer, else [None]. *)

val cores_of_env : unit -> int
(** Parse the [DEPNN_CORES] environment variable. Unset defaults to 1;
    a malformed value is rejected with a one-line [stderr] warning
    naming it (it used to be silently coerced to 1, hiding typos like
    [DEPNN_CORES=four] from CI logs) and also falls back to 1. *)

val portfolio_of_string : string -> (int * int) option
(** Parse a ["D:P"] portfolio split (divers [:] provers): two
    non-negative integers with [D + P >= 1], else [None]. *)

val portfolio_of_env : unit -> (int * int) option
(** Parse the [DEPNN_PORTFOLIO] environment variable as ["D:P"]. Unset
    means no explicit split ([solve] then derives one from [cores]); a
    malformed value warns on [stderr] and is treated as unset. *)

val map : ?cores:int -> init:(unit -> 'state) -> ('state -> 'a -> 'b) -> 'a array -> 'b array
(** [map ~cores ~init f items]: apply [f state item] to every item, the
    items being claimed work-stealing style over a shared atomic index
    by [cores] domains. [init] runs once per domain and builds
    domain-private scratch state (e.g. an LP copy for OBBT probes).
    Results are returned in input order. Every spawned domain is joined
    before the call returns — even when [init] or [f] raises on any
    domain, including the coordinating one — and the first exception
    recorded is then re-raised in the caller. *)

val solve :
  ?cores:int ->
  ?portfolio:int * int ->
  ?time_limit:float ->
  ?node_limit:int ->
  ?eps:float ->
  ?int_eps:float ->
  ?branch_rule:Solver.branch_rule ->
  ?depth_first:bool ->
  ?cutoff:float ->
  ?primal_heuristic:(float array -> (float array * float) option) ->
  ?node_bound:((Model.var * float * float) list -> float option) ->
  ?objective:(Model.var * float) list ->
  ?warm:bool ->
  Model.t ->
  Solver.result
(** Maximise the model objective. [portfolio = (divers, provers)] fixes
    the worker split explicitly (both non-negative, at least one worker
    in total; [cores] is then ignored). Without it, [cores] (default 1)
    picks the split: 1 is the sequential delegation, [n >= 2] becomes
    [(1, n - 1)]. [Invalid_argument] on a negative or empty split.

    Parameters match {!Solver.solve}; [depth_first] only applies to the
    sequential delegation — parallel node order is governed by the
    portfolio split. [objective] lands on every domain's private LP
    copy, so concurrent queries over one shared encoding are safe;
    [warm] (default [true]) warm-starts each node from its parent's
    basis — snapshots (including the sparse core's factored basis +
    eta file) are immutable, so stolen nodes warm-start safely on any
    domain. [node_bound], like [primal_heuristic], is invoked
    concurrently from worker domains and must be thread-safe (the
    encoder's symbolic re-propagation only reads the network and
    bounds, which qualifies). *)

val solve_min :
  ?cores:int ->
  ?portfolio:int * int ->
  ?time_limit:float ->
  ?node_limit:int ->
  ?eps:float ->
  ?int_eps:float ->
  ?branch_rule:Solver.branch_rule ->
  ?depth_first:bool ->
  ?cutoff:float ->
  ?primal_heuristic:(float array -> (float array * float) option) ->
  ?node_bound:((Model.var * float * float) list -> float option) ->
  ?objective:(Model.var * float) list ->
  ?warm:bool ->
  Model.t ->
  Solver.result
(** Minimise, like {!Solver.solve_min} (operates on a private copy of
    the model; the caller's objective is never touched). An [objective]
    override and [node_bound] are given in the minimisation sense
    ([node_bound] returns a lower bound on the subtree minimum). *)
