(** Two-phase primal simplex with a dual-simplex warm restart.

    Solves [maximize c·x subject to rows, l <= x <= u] for problems
    built with {!Problem}. A cold {!solve} starts from the artificial
    identity basis (phase 1 drives the artificials out, phase 2
    optimises the real objective). {!resolve} instead refactors a basis
    captured from a previous optimal solve — after a single bound
    change the old optimal basis stays dual feasible, so a short
    dual-simplex run restores primal feasibility and a primal cleanup
    finishes the job. This is the natural fit for branch & bound, where
    a child's LP differs from its parent's by exactly one bound.

    Every solve runs on the sparse revised simplex. The dense
    Gauss-Jordan tableau is its checker: it re-solves cold whatever the
    sparse core doubts, and {!solve} [~core:Dense] exposes it as the
    oracle for tests and benchmarks.

    Primal unboundedness cannot occur because every variable carries
    finite bounds (enforced by {!Problem.add_var}). *)

exception Numerical_error of string
(** Raised as soon as NaN/Inf is detected in the solve: a non-finite
    constraint coefficient or right-hand side, a NaN reduced cost, a
    non-finite pivot element, or a NaN objective value. Failing fast
    beats the alternative — NaN comparisons are all false, so a poisoned
    tableau silently terminates with a garbage basis reported as
    [Optimal]. Callers that can degrade (e.g. the parallel MILP solver)
    catch this and widen their bounds instead of trusting the result. *)

type status =
  | Optimal
  | Infeasible
  | Iteration_limit  (** gave up; treat as unknown *)

type var_status = Basic | At_lower | At_upper

type basis = {
  bm : int;            (** rows of the problem the snapshot came from *)
  bnstruct : int;      (** structural variables of that problem *)
  bbasic : int array;  (** basic column per row (structural or slack) *)
  bupper : bool array; (** per real column: parked at its upper bound? *)
  bfactor : Sparse.factor option;
      (** factored basis (LU + eta file) when the snapshot came from
          the sparse core; advisory — {!resolve} probes it against the
          current problem and refactorizes on any mismatch *)
}
(** Compact snapshot of an optimal basis. Pure data — the arrays and
    the factor are immutable by contract, so snapshots can be shared
    freely across domains (the parallel MILP solver migrates them with
    stolen nodes). A snapshot is only meaningful for the problem shape
    it was taken from (same rows in the same order, same variable
    count); {!resolve} validates this and falls back to a cold solve on
    any mismatch. *)

type core = Dense | Sparse
(** Which LP engine runs a {!solve}. [Sparse]: the revised simplex on
    factored sparse columns — O(nnz) per pivot instead of
    O(rows·cols), the default and the only engine of every other entry
    point; on any numerical doubt it re-runs the problem cold on the
    dense tableau, and it never reports [Infeasible] without dense
    confirmation. [Dense]: the original Gauss-Jordan tableau, cold
    only — the oracle tests and benchmarks compare against. *)

val sparse_fallbacks : unit -> int
(** How many times the sparse core handed a conclusion back to the
    dense oracle since startup (observability for tests/bench). *)

val refactor_interval : int ref
(** Eta-file length that triggers a refactorization of the sparse
    basis (default 32). Exposed for tests; leave alone otherwise. *)

type cert =
  | Cert_duals of float array
      (** One dual multiplier per row, certifying an upper bound on the
          max-sense objective. In the slack-equality view (every row
          [A_i·x + s_i = b_i] with slack bounds encoding the sense) the
          multipliers are sign-free: for ANY [y],
          [U(y) = y·b + sum_j max(r_j·l_j, r_j·u_j)] with
          [r = (c,0) − [A|I]ᵀ·y] bounds [c·x] over every feasible
          point, so an auditor recomputes [U(y)] with outward-rounded
          interval arithmetic and trusts nothing about the pivoting
          that produced [y]. *)
  | Cert_farkas of float array
      (** Same shape, but certifying infeasibility: with the zero
          objective, [U(y) < 0] proves the feasible region empty
          (Farkas ray from the phase-1 optimum). *)
  | Cert_empty_row of int
      (** Row index whose slack range is empty under the variable box —
          infeasibility by exact interval arithmetic, checkable by
          recomputing the row's activity range outward. *)
(** Machine-checkable evidence for a solve's conclusion, designed so a
    small independent checker ({!Certify}) can replay it without
    re-running any simplex. *)

type solution = {
  status : status;
  objective : float;  (** meaningful only when [status = Optimal] *)
  x : float array;    (** structural variable values (primal point) *)
  iterations : int;
  basis : basis option;
      (** optimal basis for warm restarts; [None] unless
          [status = Optimal] and the basis is free of artificials *)
  warm : bool;
      (** [true] iff this result came from the warm dual-simplex path
          (no fallback to a cold solve was needed) *)
  cert : cert option;
      (** dual certificate for the conclusion: [Cert_duals] /
          [Cert_farkas] / [Cert_empty_row] as applicable. [None] on
          [Iteration_limit] and on {!solve_min} optima (certificates
          are emitted in the max sense only). Reading the maintained
          reduced costs costs O(rows); any drift since the last refresh
          only loosens the certified bound — the auditor revalidates
          from [y] alone. *)
}

val solve :
  ?max_iterations:int -> ?eps:float -> ?core:core -> Problem.t -> solution
(** Maximise the problem's objective from a cold start. [eps] is the
    feasibility/optimality tolerance (default [1e-7]).
    [max_iterations] defaults to [500 * (rows + cols)]. [core] defaults
    to [Sparse]. *)

val resolve :
  ?max_iterations:int -> ?eps:float -> basis:basis -> Problem.t -> solution
(** Maximise like {!solve}, but warm-start from [basis] (typically the
    parent node's optimal basis under slightly different bounds). The
    restored basis is driven primal-feasible by the sparse dual simplex,
    then polished by the primal simplex. Correctness never depends on
    the warm path: a stale/corrupted snapshot, a singular restored
    basis, a dual-simplex infeasibility certificate or an iteration
    limit falls back to a cold sparse solve, and numerical trouble or a
    sparse infeasibility conclusion to a cold dense one, counted by
    {!sparse_fallbacks} (the returned [warm] flag tells which path
    produced the answer). Only the dense solve's own {!Numerical_error}
    escapes. *)

val solve_min : ?max_iterations:int -> ?eps:float -> Problem.t -> solution
(** Minimise instead; [objective] is reported in the minimisation sense. *)

val primal_feasible : ?eps:float -> Problem.t -> float array -> bool
(** Check a point against all bounds and constraints (testing helper). *)
