(** Branch & bound for {!Model} instances (maximisation).

    Best-first search on the LP-relaxation bound. At each node the
    relaxation is solved by the dual simplex; fractional integer
    variables are branched on (most-fractional by default, or the
    caller's priority order). Because the paper's Table II reports a
    *time-out* for its widest network, the solver treats a wall-clock
    limit as a first-class outcome and reports the best incumbent and
    the remaining bound (optimality gap) when it stops early. *)

type outcome =
  | Optimal        (** incumbent proven optimal within [eps] *)
  | Infeasible
  | Time_limit     (** stopped early; [incumbent]/[best_bound] still valid *)
  | Node_limit

type result = {
  outcome : outcome;
  incumbent : (float array * float) option;
      (** best integral solution found: (point, objective) *)
  best_bound : float;
      (** valid upper bound on the optimum (for maximisation) *)
  nodes : int;
  elapsed : float;  (** seconds *)
  lp_iterations : int;  (** total simplex pivots across all nodes *)
  failed_workers : int;
      (** worker domains lost to an exception during a parallel solve
          (see {!Parallel.solve}); always [0] for the sequential solver.
          A nonzero count flags a degraded — but still sound — result. *)
  first_incumbent_nodes : int option;
      (** nodes evaluated when the {e first} incumbent was adopted
          ([None]: no incumbent) — the time-to-first-incumbent metric
          the portfolio's diving group exists to improve *)
  first_incumbent_elapsed : float option;
      (** seconds from the start of the solve to the first incumbent *)
}

type branch_rule = Search.branch_rule =
  | Most_fractional
  | Priority of (Model.var -> int)
      (** branch on the eligible fractional variable with the smallest
          priority value (ties broken by fractionality); lets the
          encoder branch layer-by-layer *)
  | Pseudo_first of int array
      (** explicit order: first fractional variable in the given array *)

type leaf_cert =
  | Leaf_bounded of float array
      (** LP dual multipliers whose weak-duality bound [U(y)] closes the
          subtree (see {!Lp.Simplex.cert}) *)
  | Leaf_infeasible of float array
      (** Farkas ray proving the subtree's LP region empty *)
  | Leaf_empty_row of int
      (** row whose slack range is empty under the subtree's box *)
  | Leaf_uncertified of string
      (** closed without replayable evidence (iteration limit, analysis
          cap, later-incumbent prune, integral incumbent, or a solve
          path that emits no certificate); a certificate collector must
          downgrade the proof when it sees one *)
(** Evidence closing one leaf of the explored branch-and-bound tree. *)

val conclude :
  stopped:outcome option ->
  eps:float ->
  cutoff:float ->
  incumbent:(float array * float) option ->
  open_bound:float ->
  lost_bound:float ->
  outcome * float
(** The outcome and [best_bound] a search reports when it ends —
    shared by {!solve} and {!Parallel.solve}. [stopped] is the limit
    that fired, [None] for an exhausted pool; [open_bound] the best
    bound still open ([neg_infinity] for none); [lost_bound] the
    largest parent bound of a node whose LP relaxation stopped at its
    iteration limit ([neg_infinity] for none). Such a node was neither
    bounded nor branched, so its subtree stays in the bound, and an
    exhausted search that lost a subtree the incumbent (or [cutoff])
    does not dominate by more than [eps] reports [Time_limit] instead
    of [Optimal] or [Infeasible]: its incumbent and bound are valid,
    but nothing is proved. *)

val solve :
  ?time_limit:float ->
  ?node_limit:int ->
  ?eps:float ->
  ?int_eps:float ->
  ?branch_rule:branch_rule ->
  ?depth_first:bool ->
  ?cutoff:float ->
  ?primal_heuristic:(float array -> (float array * float) option) ->
  ?node_bound:((Model.var * float * float) list -> float option) ->
  ?objective:(Model.var * float) list ->
  ?warm:bool ->
  ?on_leaf:((Model.var * float * float) list -> leaf_cert -> unit) ->
  Model.t ->
  result
(** Maximise the model objective. [eps] (default 1e-6) is the absolute
    optimality gap below which a node is pruned against the incumbent.
    [time_limit] is wall-clock seconds. [depth_first] switches the node
    order from best-first to LIFO (ablation hook). Each node LP runs on
    the sparse core, and a warm node re-solve reuses the factored basis
    carried in its parent snapshot.

    [objective] replaces the model's objective for this solve only — it
    is applied to the solver's private problem copy, so the caller's
    model is never mutated and many queries can share one encoding
    (even concurrently). [warm] (default [true]) re-solves each child
    node from its parent's optimal basis via {!Lp.Simplex.resolve};
    pass [false] to force cold per-node solves (ablation/benchmarks).

    [cutoff] turns the search into a decision query: nodes whose bound
    is at most [cutoff] are pruned as if an incumbent of that value were
    already known. An [Optimal] outcome with [incumbent = None] then
    certifies that the true maximum is <= [cutoff] — this is how the
    paper's "prove the lateral velocity can never exceed 3 m/s" query is
    answered without computing the exact maximum.

    [primal_heuristic] is called with each node's relaxation point; it
    may return a {e feasible} integral solution vector and its objective
    value, which is adopted as incumbent when it improves. The solver
    trusts the caller on feasibility (the NN encoder derives such points
    by forward-running the network on the relaxation's input block).

    [node_bound] is an independent analysis bound: called with a node's
    accumulated branching fixes [(var, lo, hi)] {e before} its LP is
    solved, it may return a sound upper bound on the objective over the
    node's whole subtree (e.g. symbolic bound re-propagation of the
    fixed ReLU phases — see [Encoding.Encoder.symbolic_node_bound]).
    When the returned bound already loses to the incumbent the node is
    pruned without any LP work; [neg_infinity] declares the subtree
    empty; otherwise the bound caps the LP relaxation bound used for
    pruning and branching. The callback must be sound — a bound below
    the true subtree maximum can prune the optimum away — and, for
    {!Parallel.solve}, safe to call from multiple domains at once.

    [on_leaf] streams one {!leaf_cert} per closed subtree, together
    with the node's accumulated branching fixes (most recent first — a
    root-to-leaf path read right-to-left). Over a completed [Optimal]
    run the reported fixes tile the whole branching tree, which is what
    lets an auditor check coverage without replaying the search. Only
    the sequential solver streams leaves; certificate collection
    deliberately avoids the parallel pool (leaf order and work stealing
    are nondeterministic there). *)

val solve_min :
  ?time_limit:float ->
  ?node_limit:int ->
  ?eps:float ->
  ?int_eps:float ->
  ?branch_rule:branch_rule ->
  ?depth_first:bool ->
  ?cutoff:float ->
  ?primal_heuristic:(float array -> (float array * float) option) ->
  ?node_bound:((Model.var * float * float) list -> float option) ->
  ?objective:(Model.var * float) list ->
  ?warm:bool ->
  Model.t ->
  result
(** Minimise; [best_bound] is then a valid lower bound, and incumbent
    objectives are reported in the minimisation sense. An [objective]
    override is given in the minimisation sense too, and [node_bound]
    must return a {e lower} bound on the subtree minimum. *)
