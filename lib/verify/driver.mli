(** Verification drivers: run MILP queries against a network and return
    auditable verdicts.

    [max_lateral_velocity] reproduces the paper's Table II measurement
    ("maximum lateral velocity when there exists a vehicle in the
    left"): one exact maximisation per GMM component lateral mean, the
    overall result being the maximum. [prove_lateral_velocity_le]
    reproduces the decision query of the table's last row ("prove that
    the lateral velocity can never be larger than 3 m/s"), which uses
    the solver cutoff and is typically much cheaper than the exact
    maximum. *)

type witness = {
  input : Linalg.Vec.t;       (** feature point inside the scenario box *)
  outputs : Linalg.Vec.t;     (** network outputs at that point *)
  achieved : float;           (** objective value as recomputed by forward run *)
  component : int;            (** GMM component that attains it *)
}

type max_result = {
  value : float option;   (** best maximum found (None: no solve finished) *)
  upper_bound : float;
      (** proven sound upper bound: the tighter of the solver bound and
          the encoding's analysis bound on each output *)
  optimal : bool;          (** value = exact maximum *)
  timed_out : bool;
  witness : witness option;
  elapsed : float;         (** whole-call wall clock, encoding included *)
  component_elapsed : float array;
      (** per-component solver seconds, in query order — shows how the
          budget was actually spent, sequentially or across domains *)
  nodes : int;
  lp_iterations : int;
  unstable_neurons : int;  (** binaries in the encoding *)
  encoder_stats : Encoding.Encoder.stats;
      (** full stable/unstable breakdown under the chosen bound mode *)
  obbt : Encoding.Encoder.obbt_stats;
      (** OBBT accounting: refined / failed / skipped-by-budget probes *)
}

val max_lateral_velocity :
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?tighten_rounds:int ->
  ?depth_first:bool ->
  ?cores:int ->
  ?portfolio:int * int ->
  ?warm:bool ->
  components:int ->
  Nn.Network.t ->
  Interval.Box.box ->
  max_result
(** [time_limit] (default 60 s) bounds the {e whole} call: OBBT
    tightening spends from it (at most half) and the component queries
    share the remainder — sequentially each query gets an equal share
    of the time remaining when it starts (leftover time from fast
    queries rolls over to later ones); with [cores > 1] and several
    components the queries themselves run {e concurrently} on the
    worker domains, each granted an equal share of the remaining budget
    up front (the inner solves are then sequential, so domains are
    never oversubscribed). Either way the total elapsed respects the
    caller's limit (plus at most one node's slack). [tighten_rounds]
    (default 1) rounds of OBBT are applied before searching (see
    {!Encoding.Encoder.encode}). [cores] (default 1) also runs the
    OBBT probes on that many domains ({!Milp.Parallel}); results agree
    with [cores = 1] up to solver epsilon. [warm] (default [true])
    warm-starts child nodes from parent bases; pass [false] for
    cold-solve ablations.

    [bound_mode] selects the encoder's bound analysis
    ({!Encoding.Encoder.bound_mode}). Under [Symbolic_bounds] the
    driver additionally (1) caps [upper_bound] with the symbolic output
    bound and (2) passes the branch-aware symbolic re-propagation hook
    ([Encoding.Encoder.symbolic_node_bound]) to the solver, pruning
    subtrees whose fixed ReLU phases already bound the objective below
    the incumbent.

    [portfolio] forces the diver/prover split of {!Milp.Parallel.solve}
    inside {e each} query. Explicitly splitting disables the
    per-component fan-out — the caller asked for within-query
    parallelism — so each component query runs the full portfolio in
    turn. Left unset, the fan-out path keeps its sequential inner
    solves and single-query calls inherit the default split from
    [cores]. *)

val maximize_output :
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?tighten_rounds:int ->
  ?depth_first:bool ->
  ?cores:int ->
  ?portfolio:int * int ->
  ?warm:bool ->
  output:int ->
  Nn.Network.t ->
  Interval.Box.box ->
  max_result
(** Exact maximisation of a single raw output coordinate. *)

type proof =
  | Proved
  | Disproved of witness
  | Unknown of { best_bound : float }

type proof_result = {
  proof : proof;
  proof_elapsed : float;  (** whole-call wall clock, encoding included *)
  proof_nodes : int;
      (** branch & bound nodes across all component queries; [0] when
          the analysis pre-pass discharged every component *)
  presolved : int;
      (** components discharged by the incomplete pre-pass alone — their
          analysis upper bound already met the threshold, so no MILP
          search ran for them *)
  certified : int;
      (** components whose emitted certificate passed the in-process
          {!Certify.Audit.check} replay; [0] in a run that keeps no
          evidence. The components of one leaf question share one
          {!Certify.Audit.replay}, which rebuilds its own encoding and
          outward bounds rather than reading the driver's, so the count
          is what {!Certify.Audit.check_certificate} would give for each
          certificate alone *)
  resumed : int;
      (** components skipped because a valid journal entry from a
          previous run of the same question already settled them *)
  degraded : int;
      (** ladder steps — an OBBT round or a component's MILP — that
          raised ([Lp.Simplex.Numerical_error] or [Failure]); the leaf
          then goes on without that step's result *)
  partition : Partition.stats option;
      (** leaf accounting when the query ran partitioned ([?split]);
          [None] for a monolithic solve *)
}

val budget_slice : ?now:float -> deadline:float -> queue_len:int -> unit -> float
(** The whole-call budget contract's per-query slice: an equal share of
    the time remaining at [now] (default: the monotonic clock) across
    [queue_len] queries still pending, floored at a minimum slice of
    0.2 s — so late queries in a long queue are attempted rather than
    starved by rounding the remainder down to nothing — and clamped to
    the remaining budget itself, so the floor can never grant time the
    caller no longer has. Exposed for tests. *)

(** {2 Sessions}

    Per-model state for callers that issue many queries against the
    same loaded network — the [depnn serve] workers above all. The
    session computes the network's {!Nn.Io.content_hash} {e once} at
    creation and memoises the round-0 (no OBBT) encoding of the most
    recent monolithic question, so back-to-back queries over the same
    box skip the encoder. A session is single-domain state: give each
    worker domain its own. *)

type session

val create_session : Nn.Network.t -> session
(** Hashes the network once and starts with an empty encoding memo. *)

val session_net : session -> Nn.Network.t
val session_net_hash : session -> string

val prove_lateral_velocity_le :
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?tighten_rounds:int ->
  ?cores:int ->
  ?portfolio:int * int ->
  ?warm:bool ->
  ?certify_dir:string ->
  ?split:Partition.policy ->
  ?store:Certify.Store.t ->
  ?session:session ->
  components:int ->
  threshold:float ->
  Nn.Network.t ->
  Interval.Box.box ->
  proof_result
(** Decision query: is every component's lateral mean [<= threshold]
    on the box? [time_limit] (default 60 s) is one deadline for the
    {e whole} call — planning, encoding, OBBT and every solve — and
    the call ends within it plus one node's slack. [depnn verify] runs
    this decision first under its [--time-limit] and gives the exact
    maximisation only the time it leaves.

    {b Plan.} Without [split] the question is a one-leaf plan: the box
    itself. [split] bisects the box along its most influential
    dimensions ({!Partition.plan}, at most a quarter of the budget).
    Leaves share the deadline as rolled-forward slices
    ({!budget_slice}). One disproved leaf disproves the parent (the
    witness lies inside the parent box) and stops the campaign;
    [Proved] requires every leaf settled.

    {b Ladder.} Every leaf settles down the same rungs, cheapest first:
    + proof-store probe, exact or subsumed (split runs only);
    + cross-network revalidation: a stored disproving witness of the
      same leaf question about other weights replays through this
      network (split runs only);
    + the leaf directory's journal: components a previous run of the
      {e same} question settled (same network content hash and property
      hash, checksummed certificate that parses) are skipped —
      [resumed] counts them; torn lines, other questions and
      unparseable certificates are re-proved, never trusted;
    + the analysis pre-pass on the untightened encoding: a component
      whose output upper bound (symbolic under [Symbolic_bounds])
      already meets [threshold] is discharged without search —
      [presolved] counts them, and when it discharges everything the
      verdict is [Proved] with [proof_nodes = 0];
    + one cutoff MILP per pending component. A timeout leaves the
      tightest sound bound seen: the solver's or the analysis one. A
      MILP that raises a numerical failure leaves the component an
      honest [Unknown] at its analysis bound, never an exception, and
      counts in [degraded]; no second engine is tried, because every
      LP inside it that raised or doubted was already re-solved cold on
      the dense core ({!Lp.Simplex.resolve}).

    {b Evidence.} One rule decides everything else: does the run keep
    replayable evidence? It does with [certify_dir] on a monolithic
    question, and with a store (explicit [store], or opened on
    [certify_dir]) on a split one.
    - Evidence kept: every settled component writes a replayable
      {!Certify.Certificate} (dual or Farkas evidence per
      branch-and-bound leaf, the symbolic bounding hyperplane for
      presolved components, a concrete witness for falsifications),
      self-checked by the audit's own replay, plus a checksummed,
      fsynced journal line, so [depnn audit] can re-verify the verdict
      with outward-rounded arithmetic and a kill at any instant loses
      at most the component in flight. A certificate that fails its
      self-check is kept as [component-k.<kind>.rejected] ([kind] one
      of [presolve], [tree], [witness]) behind an [unknown] journal
      line, so a later certificate of the component never overwrites
      it. The monolithic directory holds [component-k.cert] and the
      journal directly; a split gives each
      leaf its own directory named by its property hash under the store
      root, records each verdict in the store as it lands, and writes a
      checksummed {!Certify.Shard} manifest of the split tree. Only what
      a certificate replays is searched: no OBBT, no analysis node-bound
      hook, one sequential leaf-streaming solve per component.
    - No evidence: after the pre-pass, [tighten_rounds] (default 1)
      rounds of OBBT tighten the same round-0 build for the pending
      components only, and the pre-pass runs again on the tightened
      bound; the search runs on [cores] domains or the [portfolio]
      split with the branch-aware symbolic node bound under
      [Symbolic_bounds]; with [cores > 1] and no [portfolio], a split's
      surviving leaves fan out over the domains.

    [split] ignores [tighten_rounds] (OBBT per leaf would dominate many
    small boxes; the split relies on the symbolic pre-pass); the
    monolithic question ignores [store]. [session] (created from the
    same [net]) reuses its network hash and encoding memo. *)

val sampled_max_lateral_velocity :
  rng:Linalg.Rng.t ->
  samples:int ->
  components:int ->
  Nn.Network.t ->
  Interval.Box.box ->
  float * Linalg.Vec.t
(** Monte-Carlo lower bound on the true maximum (testing oracle: must
    never exceed the verifier's [upper_bound]). Returns the best value
    and the input achieving it. *)
