type status = Optimal | Infeasible | Iteration_limit

type var_status = Basic | At_lower | At_upper

(* Compact basis snapshot: which column is basic in each row, and which
   bound every nonbasic column is parked on. Together with the problem's
   current bounds this determines a unique basic point, so a child
   branch-and-bound node (one bound change away from its parent) can
   refactor the parent's optimal basis and re-solve with the sparse dual
   simplex instead of starting from the artificial identity. The arrays
   are immutable by contract — snapshots migrate across domains in the
   parallel solver — and every consumer copies before mutating.

   [bfactor] additionally carries the sparse core's factored basis
   (LU + eta file) when the snapshot came from the sparse path: a child
   node's matrix is identical to its parent's (only bounds differ), so
   the warm restore can skip factorization entirely. The factor is
   persistent data, safe to share across domains; it is advisory — the
   sparse restore probes it against the current problem's basis matrix
   and refactorizes from scratch on any mismatch. *)
type basis = {
  bm : int;
  bnstruct : int;
  bbasic : int array;
  bupper : bool array;
  bfactor : Sparse.factor option;
}

(* Certificates are plain dual vectors over the original (unscaled)
   rows, one entry per row, in the slack-equality view of the problem:
   every row reads  A_i·x + s_i = b_i  with the slack bounds encoding
   the sense, so the duals are sign-free. For ANY y the identity
   c·x = y·b + r·z with r = c̄ − Āᵀy holds over feasible z = (x, s),
   hence U(y) = y·b + Σ_j max(r_j·l_j, r_j·u_j) is a sound upper bound
   on the objective — an auditor recomputes U(y) with outward rounding
   and never has to trust the pivoting that produced y. *)
type cert =
  | Cert_duals of float array
  | Cert_farkas of float array
  | Cert_empty_row of int

type solution = {
  status : status;
  objective : float;
  x : float array;
  iterations : int;
  basis : basis option;
  warm : bool;
  cert : cert option;
}

(* Two-phase primal bounded-variable simplex on a dense tableau.

   Columns are laid out [structural | slacks | artificials]. Every
   variable carries finite bounds (slack bounds are implied by the
   finite structural bounds; artificials live in [0, |initial
   residual|]). The initial basis is the artificial identity, which is
   primal feasible by construction; phase 1 maximises -sum(artificials)
   to 0 and phase 2 maximises the real objective with artificials pinned
   to [0,0]. Primal feasibility is invariant, so the only termination
   hazard is degenerate cycling, which a stall-triggered switch to
   Bland's rule removes. *)
type tableau = {
  m : int;
  n : int;                     (* total columns incl. slacks+artificials *)
  nstruct : int;
  nreal : int;                 (* structural + slack columns *)
  t : float array array;       (* m x n, current basis representation *)
  lo : float array;
  hi : float array;
  r : float array;             (* reduced costs for the active phase *)
  cost : float array;          (* objective of the active phase *)
  basis : int array;
  status : var_status array;
  xb : float array;            (* values of basic variables per row *)
}

(* Raised during tableau construction when row [i]'s slack range is
   empty under the variable box — exact interval arithmetic, no
   pivoting involved, so the row index itself is the certificate. *)
exception Row_infeasible of int

exception Numerical_error of string

(* Fail fast when NaN/Inf appears in the tableau: continuing would
   either cycle (NaN comparisons are all false, so no entering column is
   ever found and a garbage basis is reported "optimal") or return a
   meaningless objective. *)
let check_finite what x =
  if not (Float.is_finite x) then raise (Numerical_error what)

let row_activity_bounds lo hi (terms : (int * float) array) =
  let alo = ref 0.0 and ahi = ref 0.0 in
  Array.iter
    (fun (v, c) ->
      if c >= 0.0 then begin
        alo := !alo +. (c *. lo.(v));
        ahi := !ahi +. (c *. hi.(v))
      end
      else begin
        alo := !alo +. (c *. hi.(v));
        ahi := !ahi +. (c *. lo.(v))
      end)
    terms;
  (!alo, !ahi)

(* Slack bounds encode the row sense: activity + slack = rhs. An empty
   range means the row cannot be satisfied by any point of the box. *)
let slack_bounds ~row:i lo hi (row : Problem.row) =
  let alo, ahi = row_activity_bounds lo hi row.terms in
  match row.cmp with
  | Problem.Le ->
      let shi = row.rhs -. alo in
      if shi < 0.0 then raise (Row_infeasible i);
      (0.0, shi)
  | Problem.Ge ->
      let slo = row.rhs -. ahi in
      if slo > 0.0 then raise (Row_infeasible i);
      (slo, 0.0)
  | Problem.Eq ->
      if row.rhs < alo -. 1e-9 || row.rhs > ahi +. 1e-9 then
        raise (Row_infeasible i);
      (0.0, 0.0)

let build problem ~negate =
  let rows = Problem.rows problem in
  let m = Array.length rows in
  let nstruct = Problem.num_vars problem in
  let nreal = nstruct + m in
  let n = nreal + m in
  let vlo = Problem.var_lo problem and vhi = Problem.var_hi problem in
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  Array.blit vlo 0 lo 0 nstruct;
  Array.blit vhi 0 hi 0 nstruct;
  let status = Array.make n At_lower in
  (* Structural variables start at the bound of smaller magnitude (an
     arbitrary but deterministic choice). *)
  for j = 0 to nstruct - 1 do
    status.(j) <-
      (if Float.abs hi.(j) < Float.abs lo.(j) then At_upper else At_lower)
  done;
  let value j = match status.(j) with
    | At_lower -> lo.(j)
    | At_upper -> hi.(j)
    | Basic -> assert false
  in
  let t = Array.init m (fun _ -> Array.make n 0.0) in
  let basis = Array.init m (fun i -> nreal + i) in
  let xb = Array.make m 0.0 in
  Array.iteri
    (fun i row ->
      Array.iter
        (fun (_, c) -> check_finite "non-finite constraint coefficient" c)
        row.Problem.terms;
      check_finite "non-finite constraint rhs" row.Problem.rhs;
      let slo, shi = slack_bounds ~row:i vlo vhi row in
      let si = nstruct + i in
      lo.(si) <- slo;
      hi.(si) <- shi;
      (* Residual with all non-artificial columns at their bounds; the
         slack starts at whichever bound leaves the smaller residual. *)
      let activity =
        Array.fold_left
          (fun acc (v, c) -> acc +. (c *. value v))
          0.0 row.Problem.terms
      in
      let resid_at b = row.Problem.rhs -. activity -. b in
      let s_at_lo = resid_at slo and s_at_hi = resid_at shi in
      let sstat, resid =
        if Float.abs s_at_lo <= Float.abs s_at_hi then (At_lower, s_at_lo)
        else (At_upper, s_at_hi)
      in
      status.(si) <- sstat;
      let sign = if resid >= 0.0 then 1.0 else -1.0 in
      (* Row scaled by [sign] so the artificial's basic coefficient is +1. *)
      Array.iter
        (fun (v, c) -> t.(i).(v) <- t.(i).(v) +. (sign *. c))
        row.Problem.terms;
      t.(i).(si) <- sign;
      let ai = nreal + i in
      t.(i).(ai) <- 1.0;
      lo.(ai) <- 0.0;
      hi.(ai) <- Float.abs resid;
      status.(ai) <- Basic;
      xb.(i) <- Float.abs resid)
    rows;
  let cost = Array.make n 0.0 in
  for i = 0 to m - 1 do
    cost.(nreal + i) <- -1.0
  done;
  (* Phase-1 reduced costs: r_j = c_j - c_B . T_j with c_B = -1. *)
  let r = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let acc = ref 0.0 in
    for i = 0 to m - 1 do
      acc := !acc +. t.(i).(j)
    done;
    r.(j) <- cost.(j) +. !acc
  done;
  for i = 0 to m - 1 do
    r.(nreal + i) <- 0.0
  done;
  ignore negate;
  { m; n; nstruct; nreal; t; lo; hi; r; cost; basis; status; xb }

let pivot_tolerance = 1e-8

(* Entering column for the current phase: an improving nonbasic column.
   Dantzig rule (largest reduced-cost violation) by default, smallest
   index in Bland mode. *)
let select_entering tb ~bland eps =
  let best = ref (-1) and best_score = ref eps in
  let consider j score =
    if Float.is_nan score then
      raise (Numerical_error "NaN reduced cost in pricing");
    if bland then begin
      if score > eps && !best < 0 then best := j
    end
    else if score > !best_score then begin
      best_score := score;
      best := j
    end
  in
  for j = 0 to tb.n - 1 do
    (match tb.status.(j) with
     | Basic -> ()
     | At_lower -> if tb.lo.(j) < tb.hi.(j) then consider j tb.r.(j)
     | At_upper -> if tb.lo.(j) < tb.hi.(j) then consider j (-.tb.r.(j)))
  done;
  !best

type step =
  | Bound_flip
  | Pivot of { rrow : int; to_lower : bool }
  | Unbounded_step  (* cannot happen with finite bounds; defensive *)

(* Ratio test: entering variable q moves by t >= 0 in direction [dir]
   (+1 from its lower bound, -1 from its upper bound). Basic variable i
   changes as xb_i - t * dir * T[i][q]. The step is capped by the
   entering variable's own range (a cap reached first is a bound flip).
   Ties between blocking rows go to the largest pivot magnitude for
   stability, or to the smallest basic-variable index in Bland mode. *)
let ratio_test tb ~q ~dir ~bland =
  let t_entering = tb.hi.(q) -. tb.lo.(q) in
  let best_t = ref t_entering in
  let best_row = ref (-1) and best_to_lower = ref true and best_mag = ref 0.0 in
  for i = 0 to tb.m - 1 do
    let k = dir *. tb.t.(i).(q) in
    if Float.abs k > pivot_tolerance then begin
      let v = tb.basis.(i) in
      (* k > 0: basic value decreases towards its lower bound. *)
      let limit, to_lower =
        if k > 0.0 then ((tb.xb.(i) -. tb.lo.(v)) /. k, true)
        else ((tb.xb.(i) -. tb.hi.(v)) /. k, false)
      in
      let limit = Float.max 0.0 limit in
      let mag = Float.abs tb.t.(i).(q) in
      if limit < !best_t -. 1e-10 then begin
        best_t := limit;
        best_row := i;
        best_to_lower := to_lower;
        best_mag := mag
      end
      else if limit < !best_t +. 1e-10 && !best_row >= 0 then begin
        let wins =
          if bland then tb.basis.(i) < tb.basis.(!best_row)
          else mag > !best_mag
        in
        if wins then begin
          best_row := i;
          best_to_lower := to_lower;
          best_mag := mag
        end
      end
      else if limit < !best_t +. 1e-10 && !best_row < 0
              && limit < t_entering -. 1e-10
      then begin
        best_t := limit;
        best_row := i;
        best_to_lower := to_lower;
        best_mag := mag
      end
    end
  done;
  if !best_row < 0 then
    if Float.is_finite t_entering then (t_entering, Bound_flip)
    else (0.0, Unbounded_step)
  else (!best_t, Pivot { rrow = !best_row; to_lower = !best_to_lower })

let apply_move tb ~q ~dir ~t =
  for i = 0 to tb.m - 1 do
    let k = tb.t.(i).(q) in
    if k <> 0.0 then tb.xb.(i) <- tb.xb.(i) -. (t *. dir *. k)
  done

let pivot tb ~rrow ~q ~entering_value ~leaving_to_lower =
  let trow = tb.t.(rrow) in
  let alpha = trow.(q) in
  let leaving = tb.basis.(rrow) in
  let inv = 1.0 /. alpha in
  check_finite "non-finite pivot element" inv;
  check_finite "non-finite entering value" entering_value;
  (* Incremental NaN fail-fast: a pivot can only inject non-finite
     values through the normalized pivot row (every other row is a
     finite multiple away from it), so validating this one row while it
     is rewritten catches poisoning at O(cols) instead of a full
     O(rows·cols) tableau rescan. *)
  let row_finite = ref true in
  for j = 0 to tb.n - 1 do
    let v = trow.(j) *. inv in
    if not (Float.is_finite v) then row_finite := false;
    trow.(j) <- v
  done;
  if not !row_finite then
    raise (Numerical_error "non-finite entry in pivot row");
  trow.(q) <- 1.0;
  for i = 0 to tb.m - 1 do
    if i <> rrow then begin
      let f = tb.t.(i).(q) in
      if f <> 0.0 then begin
        let ti = tb.t.(i) in
        for j = 0 to tb.n - 1 do
          ti.(j) <- ti.(j) -. (f *. trow.(j))
        done;
        ti.(q) <- 0.0
      end
    end
  done;
  let rq = tb.r.(q) in
  if rq <> 0.0 then begin
    for j = 0 to tb.n - 1 do
      tb.r.(j) <- tb.r.(j) -. (rq *. trow.(j))
    done;
    tb.r.(q) <- 0.0
  end;
  tb.basis.(rrow) <- q;
  tb.status.(q) <- Basic;
  tb.status.(leaving) <- (if leaving_to_lower then At_lower else At_upper);
  tb.xb.(rrow) <- entering_value

let recompute_reduced_costs tb =
  for j = 0 to tb.n - 1 do
    if tb.status.(j) = Basic then tb.r.(j) <- 0.0
    else begin
      let acc = ref 0.0 in
      for i = 0 to tb.m - 1 do
        let cb = tb.cost.(tb.basis.(i)) in
        if cb <> 0.0 && tb.t.(i).(j) <> 0.0 then
          acc := !acc +. (cb *. tb.t.(i).(j))
      done;
      tb.r.(j) <- tb.cost.(j) -. !acc
    end
  done

(* Dual vector over the original rows, read straight off the maintained
   reduced costs: row i's slack column satisfies r_si = −sign_i·ŷ_i in
   the build-scaled tableau and r_si = −ŷ_i in the unscaled warm
   tableau, while the original-row dual is y_i = sign_i·ŷ_i — the row
   scaling cancels because the slack column carries the same sign
   factor as its row, so y_i = −r_si in both layouts. O(m) copy, no
   extra factorisation; drift since the last reduced-cost refresh only
   loosens the certified bound, never unsoundly (the auditor recomputes
   everything from y). *)
let row_duals tb = Array.init tb.m (fun i -> -.tb.r.(tb.nstruct + i))

let phase_objective tb =
  let total = ref 0.0 in
  for i = 0 to tb.m - 1 do
    let c = tb.cost.(tb.basis.(i)) in
    if c <> 0.0 then total := !total +. (c *. tb.xb.(i))
  done;
  for j = 0 to tb.n - 1 do
    (match tb.status.(j) with
     | Basic -> ()
     | At_lower -> if tb.cost.(j) <> 0.0 then total := !total +. (tb.cost.(j) *. tb.lo.(j))
     | At_upper -> if tb.cost.(j) <> 0.0 then total := !total +. (tb.cost.(j) *. tb.hi.(j)))
  done;
  if Float.is_nan !total then raise (Numerical_error "NaN objective value");
  !total

(* Run primal iterations for the current phase until no improving column
   remains. Returns the iteration count consumed or None on limit. *)
let optimize tb ~eps ~limit ~start_iter =
  let stall_threshold = 4 * (tb.m + 16) in
  let rec loop iter ~bland ~stall ~best_obj =
    if iter >= limit then None
    else begin
      if iter mod 1024 = 1023 then recompute_reduced_costs tb;
      let q = select_entering tb ~bland eps in
      if q < 0 then Some iter
      else begin
        let dir = match tb.status.(q) with
          | At_lower -> 1.0
          | At_upper -> -1.0
          | Basic -> assert false
        in
        let t, step = ratio_test tb ~q ~dir ~bland in
        match step with
        | Unbounded_step ->
            (* Finite bounds make this impossible; bail out as a limit. *)
            None
        | Bound_flip ->
            apply_move tb ~q ~dir ~t;
            tb.status.(q) <- (if dir > 0.0 then At_upper else At_lower);
            let obj = phase_objective tb in
            let bland, stall, best_obj =
              if bland then (true, 0, best_obj)
              else if obj > best_obj +. 1e-12 then (false, 0, obj)
              else if stall + 1 >= stall_threshold then (true, 0, best_obj)
              else (false, stall + 1, best_obj)
            in
            loop (iter + 1) ~bland ~stall ~best_obj
        | Pivot { rrow; to_lower } ->
            apply_move tb ~q ~dir ~t;
            let entering_value =
              (if dir > 0.0 then tb.lo.(q) else tb.hi.(q)) +. (dir *. t)
            in
            pivot tb ~rrow ~q ~entering_value ~leaving_to_lower:to_lower;
            let obj = phase_objective tb in
            let bland, stall, best_obj =
              if bland then (true, 0, best_obj)
              else if obj > best_obj +. 1e-12 then (false, 0, obj)
              else if stall + 1 >= stall_threshold then (true, 0, best_obj)
              else (false, stall + 1, best_obj)
            in
            loop (iter + 1) ~bland ~stall ~best_obj
      end
    end
  in
  loop start_iter ~bland:false ~stall:0 ~best_obj:(phase_objective tb)

(* Basic values carry elimination round-off (one ulp suffices to land
   outside a bound); clamp so the reported point always respects the
   variable bounds exactly, like nonbasic variables do. *)
let extract tb =
  let row_of = Array.make tb.n (-1) in
  Array.iteri (fun i v -> row_of.(v) <- i) tb.basis;
  Array.init tb.nstruct (fun j ->
      match tb.status.(j) with
      | Basic -> Float.min tb.hi.(j) (Float.max tb.lo.(j) tb.xb.(row_of.(j)))
      | At_lower -> tb.lo.(j)
      | At_upper -> tb.hi.(j))

(* Snapshot the current basis. Only bases made of real (structural or
   slack) columns are re-usable; a degenerate optimum that kept an
   artificial basic yields no snapshot and the child falls back to a
   cold solve. The dense core never restarts warm itself, but the basis
   of a dense fallback result still warm-starts the sparse children. *)
let snapshot tb =
  if Array.exists (fun v -> v >= tb.nreal) tb.basis then None
  else
    Some
      {
        bm = tb.m;
        bnstruct = tb.nstruct;
        bbasic = Array.copy tb.basis;
        bupper = Array.init tb.nreal (fun j -> tb.status.(j) = At_upper);
        bfactor = None;
      }

let solve_internal ?max_iterations ?(eps = 1e-7) problem ~negate =
  match build problem ~negate with
  | exception Row_infeasible i ->
      { status = Infeasible; objective = 0.0; x = [||]; iterations = 0;
        basis = None; warm = false; cert = Some (Cert_empty_row i) }
  | tb ->
      let limit =
        match max_iterations with
        | Some l -> l
        | None -> 500 * (tb.m + tb.n)
      in
      (* Phase 1: drive sum of artificials to zero. *)
      let result =
        match optimize tb ~eps ~limit ~start_iter:0 with
        | None -> (Iteration_limit, limit, None)
        | Some it1 ->
            let infeasibility = -.phase_objective tb in
            if infeasibility > 1e-6 then begin
              (* Farkas ray from the phase-1 optimum: with the phase-1
                 objective (0 on every real column) the same duals give
                 U(y) ≈ −infeasibility < 0, which an auditor confirms
                 with outward rounding. Recompute first — the infeasible
                 exit is rare and the ray must be as clean as possible. *)
              recompute_reduced_costs tb;
              (Infeasible, it1, Some (Cert_farkas (row_duals tb)))
            end
            else begin
              (* Pin artificials and switch to the real objective. *)
              for i = 0 to tb.m - 1 do
                let ai = tb.nreal + i in
                tb.hi.(ai) <- 0.0;
                if tb.status.(ai) = At_upper then tb.status.(ai) <- At_lower
              done;
              let obj = Problem.objective problem in
              Array.fill tb.cost 0 tb.n 0.0;
              for j = 0 to tb.nstruct - 1 do
                check_finite "non-finite objective coefficient" obj.(j);
                tb.cost.(j) <- (if negate then -.obj.(j) else obj.(j))
              done;
              recompute_reduced_costs tb;
              match optimize tb ~eps ~limit ~start_iter:it1 with
              | None -> (Iteration_limit, limit, None)
              | Some it2 ->
                  let cert =
                    if negate then None else Some (Cert_duals (row_duals tb))
                  in
                  (Optimal, it2, cert)
            end
      in
      let status, iterations, cert = result in
      let x = extract tb in
      let obj = Problem.objective problem in
      let value = ref 0.0 in
      for j = 0 to tb.nstruct - 1 do
        value := !value +. (obj.(j) *. x.(j))
      done;
      { status; objective = !value; x; iterations; warm = false; cert;
        basis = (if status = Optimal then snapshot tb else None) }

(* ------------------------------------------------------------------ *)
(* Sparse revised simplex.

   Same two-phase bounded-variable primal as the dense core above, with
   identical pricing/ratio/stall rules, plus the dual-simplex warm
   restart that only this core has — but the basis inverse lives in an LU factorization plus a product-form
   eta file ({!Sparse.factor}) instead of an explicit m×n tableau.
   Tableau columns are materialized on demand: the entering column by
   FTRAN, the pivot row by BTRAN of a unit vector, so a pivot costs
   O(nnz) work instead of O(rows·cols).

   The sparse path never decides infeasibility alone: any numerical
   doubt and every infeasibility conclusion that is not exact interval
   arithmetic surfaces as [Doubt] (or as a raised [Numerical_error]),
   and the dispatcher below re-runs the problem cold on the dense
   tableau. *)

(* Refactorize once the eta file reaches this length: each eta adds one
   O(nnz alpha) term to every FTRAN/BTRAN and compounds round-off, so
   past a fixed depth a fresh O(m·nnz) LU is both faster and safer —
   the classic Forrest–Tomlin-style trigger. Exposed for tests. *)
let refactor_interval = ref 32

module Rev = struct
  type state = {
    m : int;
    n : int;                   (* columns of [mat] *)
    nstruct : int;
    nreal : int;
    mat : Sparse.mat;
    b : float array;           (* raw row rhs, for xb refresh *)
    lo : float array;
    hi : float array;
    r : float array;
    cost : float array;
    basis : int array;
    status : var_status array;
    xb : float array;          (* basic values, indexed by basis position *)
    mutable fac : Sparse.factor;
  }

  let value st j =
    match st.status.(j) with
    | At_lower -> st.lo.(j)
    | At_upper -> st.hi.(j)
    | Basic -> assert false

  (* Effective rhs with every nonbasic column folded in: B·xb = rhs_eff. *)
  let rhs_eff st =
    let r = Array.copy st.b in
    for j = 0 to st.n - 1 do
      if st.status.(j) <> Basic then begin
        let v = value st j in
        if v <> 0.0 then Sparse.scatter_col st.mat j ~scale:(-.v) r
      end
    done;
    r

  let refactor st =
    match Sparse.factorize st.mat st.basis with
    | Some f -> st.fac <- f
    | None -> raise (Numerical_error "singular basis at refactorization")

  let recompute_reduced_costs st =
    let cb = Array.make st.m 0.0 in
    for i = 0 to st.m - 1 do
      cb.(i) <- st.cost.(st.basis.(i))
    done;
    let y = Sparse.btran st.fac cb in
    for j = 0 to st.n - 1 do
      if st.status.(j) = Basic then st.r.(j) <- 0.0
      else begin
        let v = st.cost.(j) -. Sparse.col_dot st.mat j y in
        if Float.is_nan v then
          raise (Numerical_error "NaN reduced cost in sparse recompute");
        st.r.(j) <- v
      end
    done

  (* Periodic stability refresh: fresh LU, exact reduced costs, and the
     basic point recomputed from the factors so incremental round-off
     cannot accumulate unboundedly. *)
  let refresh st =
    refactor st;
    recompute_reduced_costs st;
    let xb = Sparse.ftran st.fac (rhs_eff st) in
    Array.iteri
      (fun i v ->
        if not (Float.is_finite v) then
          raise (Numerical_error "non-finite basic value after refresh");
        st.xb.(i) <- v)
      xb

  let phase_objective st =
    let total = ref 0.0 in
    for i = 0 to st.m - 1 do
      let c = st.cost.(st.basis.(i)) in
      if c <> 0.0 then total := !total +. (c *. st.xb.(i))
    done;
    for j = 0 to st.n - 1 do
      (match st.status.(j) with
       | Basic -> ()
       | At_lower ->
           if st.cost.(j) <> 0.0 then
             total := !total +. (st.cost.(j) *. st.lo.(j))
       | At_upper ->
           if st.cost.(j) <> 0.0 then
             total := !total +. (st.cost.(j) *. st.hi.(j)))
    done;
    if Float.is_nan !total then raise (Numerical_error "NaN objective value");
    !total

  let select_entering st ~bland eps =
    let best = ref (-1) and best_score = ref eps in
    let consider j score =
      if Float.is_nan score then
        raise (Numerical_error "NaN reduced cost in pricing");
      if bland then begin
        if score > eps && !best < 0 then best := j
      end
      else if score > !best_score then begin
        best_score := score;
        best := j
      end
    in
    for j = 0 to st.n - 1 do
      (match st.status.(j) with
       | Basic -> ()
       | At_lower -> if st.lo.(j) < st.hi.(j) then consider j st.r.(j)
       | At_upper -> if st.lo.(j) < st.hi.(j) then consider j (-.st.r.(j)))
    done;
    !best

  (* FTRAN image of column q: the simplex direction through the current
     factored basis — the revised-simplex replacement for tableau
     column q. *)
  let entering_alpha st q =
    let alpha = Sparse.ftran st.fac (Sparse.col_to_dense st.mat q) in
    Array.iter
      (fun v ->
        if Float.is_nan v then
          raise (Numerical_error "NaN in FTRAN column"))
      alpha;
    alpha

  let ratio_test st ~q ~dir ~alpha ~bland =
    let t_entering = st.hi.(q) -. st.lo.(q) in
    let best_t = ref t_entering in
    let best_row = ref (-1)
    and best_to_lower = ref true
    and best_mag = ref 0.0 in
    for i = 0 to st.m - 1 do
      let k = dir *. alpha.(i) in
      if Float.abs k > pivot_tolerance then begin
        let v = st.basis.(i) in
        let limit, to_lower =
          if k > 0.0 then ((st.xb.(i) -. st.lo.(v)) /. k, true)
          else ((st.xb.(i) -. st.hi.(v)) /. k, false)
        in
        let limit = Float.max 0.0 limit in
        let mag = Float.abs alpha.(i) in
        if limit < !best_t -. 1e-10 then begin
          best_t := limit;
          best_row := i;
          best_to_lower := to_lower;
          best_mag := mag
        end
        else if limit < !best_t +. 1e-10 && !best_row >= 0 then begin
          let wins =
            if bland then st.basis.(i) < st.basis.(!best_row)
            else mag > !best_mag
          in
          if wins then begin
            best_row := i;
            best_to_lower := to_lower;
            best_mag := mag
          end
        end
        else if limit < !best_t +. 1e-10 && !best_row < 0
                && limit < t_entering -. 1e-10
        then begin
          best_t := limit;
          best_row := i;
          best_to_lower := to_lower;
          best_mag := mag
        end
      end
    done;
    if !best_row < 0 then
      if Float.is_finite t_entering then (t_entering, Bound_flip)
      else (0.0, Unbounded_step)
    else (!best_t, Pivot { rrow = !best_row; to_lower = !best_to_lower })

  let apply_move st ~alpha ~dir ~t =
    for i = 0 to st.m - 1 do
      let k = alpha.(i) in
      if k <> 0.0 then st.xb.(i) <- st.xb.(i) -. (t *. dir *. k)
    done

  (* Replace basis position [rrow] by column [q]. Reduced costs update
     in O(nnz): one BTRAN for the pivot row rho (reused from the dual
     loop when already at hand), then r_j -= (r_q / alpha_piv)·(rho·A_j)
     over nonbasic columns. The factor takes one eta; once the file
     reaches [refactor_interval] the basis is refactorized. *)
  let pivot st ~rrow ~q ~alpha ?rho ?arow ~entering_value ~leaving_to_lower ()
      =
    let apiv = alpha.(rrow) in
    check_finite "non-finite pivot element" (1.0 /. apiv);
    check_finite "non-finite entering value" entering_value;
    let leaving = st.basis.(rrow) in
    let rq = st.r.(q) in
    if rq <> 0.0 then begin
      let k = rq /. apiv in
      (* The dual loop already materialized this tableau row into
         [arow]; reuse it instead of repeating the col_dot sweep. *)
      let row_entry =
        match arow with
        | Some ar -> fun j _rho -> ar.(j)
        | None -> fun j rho -> Sparse.col_dot st.mat j rho
      in
      let rho =
        match (arow, rho) with
        | Some _, _ -> [||]
        | None, Some r -> r
        | None, None ->
            let e = Array.make st.m 0.0 in
            e.(rrow) <- 1.0;
            Sparse.btran st.fac e
      in
      for j = 0 to st.n - 1 do
        if st.status.(j) <> Basic then begin
          let a = row_entry j rho in
          if a <> 0.0 then begin
            let nr = st.r.(j) -. (k *. a) in
            if Float.is_nan nr then
              raise (Numerical_error "NaN reduced cost after pivot");
            st.r.(j) <- nr
          end
        end
      done;
      (* The leaving column's tableau-row entry is exactly 1. *)
      st.r.(leaving) <- st.r.(leaving) -. k;
      st.r.(q) <- 0.0
    end;
    st.basis.(rrow) <- q;
    st.status.(q) <- Basic;
    st.status.(leaving) <- (if leaving_to_lower then At_lower else At_upper);
    st.xb.(rrow) <- entering_value;
    match Sparse.update st.fac ~pos:rrow ~alpha with
    | Some f ->
        st.fac <- f;
        if Sparse.eta_count f >= !refactor_interval then refactor st
    | None ->
        (* Eta rejected (tiny/non-finite diagonal): rebuild from
           scratch; a singular rebuild raises and the dispatcher falls
           back to the dense core. *)
        refactor st

  let optimize st ~eps ~limit ~start_iter =
    let stall_threshold = 4 * (st.m + 16) in
    let rec loop iter ~bland ~stall ~best_obj =
      if iter >= limit then None
      else begin
        if iter mod 256 = 255 then refresh st;
        let q = select_entering st ~bland eps in
        if q < 0 then Some iter
        else begin
          let dir =
            match st.status.(q) with
            | At_lower -> 1.0
            | At_upper -> -1.0
            | Basic -> assert false
          in
          let alpha = entering_alpha st q in
          let t, step = ratio_test st ~q ~dir ~alpha ~bland in
          match step with
          | Unbounded_step -> None
          | Bound_flip ->
              apply_move st ~alpha ~dir ~t;
              st.status.(q) <- (if dir > 0.0 then At_upper else At_lower);
              let obj = phase_objective st in
              let bland, stall, best_obj =
                if bland then (true, 0, best_obj)
                else if obj > best_obj +. 1e-12 then (false, 0, obj)
                else if stall + 1 >= stall_threshold then (true, 0, best_obj)
                else (false, stall + 1, best_obj)
              in
              loop (iter + 1) ~bland ~stall ~best_obj
          | Pivot { rrow; to_lower } ->
              apply_move st ~alpha ~dir ~t;
              let entering_value =
                (if dir > 0.0 then st.lo.(q) else st.hi.(q)) +. (dir *. t)
              in
              pivot st ~rrow ~q ~alpha ~entering_value
                ~leaving_to_lower:to_lower ();
              let obj = phase_objective st in
              let bland, stall, best_obj =
                if bland then (true, 0, best_obj)
                else if obj > best_obj +. 1e-12 then (false, 0, obj)
                else if stall + 1 >= stall_threshold then (true, 0, best_obj)
                else (false, stall + 1, best_obj)
              in
              loop (iter + 1) ~bland ~stall ~best_obj
        end
      end
    in
    loop start_iter ~bland:false ~stall:0 ~best_obj:(phase_objective st)

  let extract st =
    let row_of = Array.make st.n (-1) in
    Array.iteri (fun i v -> row_of.(v) <- i) st.basis;
    Array.init st.nstruct (fun j ->
        match st.status.(j) with
        | Basic -> Float.min st.hi.(j) (Float.max st.lo.(j) st.xb.(row_of.(j)))
        | At_lower -> st.lo.(j)
        | At_upper -> st.hi.(j))

  let snapshot st =
    if Array.exists (fun v -> v >= st.nreal) st.basis then None
    else
      Some
        {
          bm = st.m;
          bnstruct = st.nstruct;
          bbasic = Array.copy st.basis;
          bupper = Array.init st.nreal (fun j -> st.status.(j) = At_upper);
          bfactor = Some st.fac;
        }

  (* Cold build. Unlike the dense build, rows are NOT scaled by the
     residual sign — the artificial column i is [(i, sign_i)] instead —
     so the structural and slack columns here are bit-identical to the
     warm-restore matrix and a factor snapshot transfers between the
     two without translation. *)
  let build problem ~negate =
    ignore negate;
    let rows = Problem.rows problem in
    let m = Array.length rows in
    let nstruct = Problem.num_vars problem in
    let nreal = nstruct + m in
    let n = nreal + m in
    let vlo = Problem.var_lo problem and vhi = Problem.var_hi problem in
    let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
    Array.blit vlo 0 lo 0 nstruct;
    Array.blit vhi 0 hi 0 nstruct;
    let status = Array.make n At_lower in
    for j = 0 to nstruct - 1 do
      status.(j) <-
        (if Float.abs hi.(j) < Float.abs lo.(j) then At_upper else At_lower)
    done;
    let value j =
      match status.(j) with
      | At_lower -> lo.(j)
      | At_upper -> hi.(j)
      | Basic -> assert false
    in
    let struct_cols = Array.make nstruct [] in
    Array.iteri
      (fun i row ->
        Array.iter
          (fun (v, c) ->
            check_finite "non-finite constraint coefficient" c;
            struct_cols.(v) <- (i, c) :: struct_cols.(v))
          row.Problem.terms)
      rows;
    let columns = Array.make n [||] in
    for v = 0 to nstruct - 1 do
      columns.(v) <- Array.of_list struct_cols.(v)
    done;
    let basis = Array.init m (fun i -> nreal + i) in
    let xb = Array.make m 0.0 in
    let b = Array.make m 0.0 in
    Array.iteri
      (fun i row ->
        check_finite "non-finite constraint rhs" row.Problem.rhs;
        let slo, shi = slack_bounds ~row:i vlo vhi row in
        let si = nstruct + i in
        lo.(si) <- slo;
        hi.(si) <- shi;
        columns.(si) <- [| (i, 1.0) |];
        let activity =
          Array.fold_left
            (fun acc (v, c) -> acc +. (c *. value v))
            0.0 row.Problem.terms
        in
        let resid_at bnd = row.Problem.rhs -. activity -. bnd in
        let s_at_lo = resid_at slo and s_at_hi = resid_at shi in
        let sstat, resid =
          if Float.abs s_at_lo <= Float.abs s_at_hi then (At_lower, s_at_lo)
          else (At_upper, s_at_hi)
        in
        status.(si) <- sstat;
        let sign = if resid >= 0.0 then 1.0 else -1.0 in
        let ai = nreal + i in
        columns.(ai) <- [| (i, sign) |];
        lo.(ai) <- 0.0;
        hi.(ai) <- Float.abs resid;
        status.(ai) <- Basic;
        xb.(i) <- Float.abs resid;
        b.(i) <- row.Problem.rhs)
      rows;
    let mat = Sparse.of_columns ~rows:m columns in
    let fac =
      match Sparse.factorize mat basis with
      | Some f -> f
      | None ->
          (* The artificial identity is ±1-diagonal; failure here means
             non-finite input slipped through. *)
          raise (Numerical_error "artificial basis factorization failed")
    in
    let cost = Array.make n 0.0 in
    for i = 0 to m - 1 do
      cost.(nreal + i) <- -1.0
    done;
    let st =
      { m; n; nstruct; nreal; mat; b; lo; hi; r = Array.make n 0.0; cost;
        basis; status; xb; fac }
    in
    recompute_reduced_costs st;
    st

  (* Warm restore at a snapshot basis: reject a snapshot that does not
     fit this problem's shape or repeats a column; the basis inverse
     comes either from the factor
     that rode in on the snapshot — accepted only after an O(nnz)
     residual probe against this problem's basis matrix — or from a
     fresh factorization. *)
  let restore problem basis ~negate =
    let rows = Problem.rows problem in
    let m = Array.length rows in
    let nstruct = Problem.num_vars problem in
    let nreal = nstruct + m in
    let valid =
      basis.bm = m && basis.bnstruct = nstruct
      && Array.length basis.bbasic = m
      && Array.length basis.bupper = nreal
      &&
      let seen = Array.make nreal false in
      Array.for_all
        (fun v ->
          v >= 0 && v < nreal
          &&
          if seen.(v) then false
          else begin
            seen.(v) <- true;
            true
          end)
        basis.bbasic
    in
    if not valid then None
    else begin
      let vlo = Problem.var_lo problem and vhi = Problem.var_hi problem in
      let lo = Array.make nreal 0.0 and hi = Array.make nreal 0.0 in
      Array.blit vlo 0 lo 0 nstruct;
      Array.blit vhi 0 hi 0 nstruct;
      let struct_cols = Array.make nstruct [] in
      Array.iteri
        (fun i row ->
          Array.iter
            (fun (v, c) ->
              check_finite "non-finite constraint coefficient" c;
              struct_cols.(v) <- (i, c) :: struct_cols.(v))
          row.Problem.terms)
        rows;
      let columns = Array.make nreal [||] in
      for v = 0 to nstruct - 1 do
        columns.(v) <- Array.of_list struct_cols.(v)
      done;
      let b = Array.make m 0.0 in
      Array.iteri
        (fun i row ->
          check_finite "non-finite constraint rhs" row.Problem.rhs;
          let slo, shi = slack_bounds ~row:i vlo vhi row in
          lo.(nstruct + i) <- slo;
          hi.(nstruct + i) <- shi;
          columns.(nstruct + i) <- [| (i, 1.0) |];
          b.(i) <- row.Problem.rhs)
        rows;
      let mat = Sparse.of_columns ~rows:m columns in
      let status = Array.make nreal At_lower in
      for j = 0 to nreal - 1 do
        if basis.bupper.(j) then status.(j) <- At_upper
      done;
      Array.iter (fun q -> status.(q) <- Basic) basis.bbasic;
      let value j =
        match status.(j) with
        | At_lower -> lo.(j)
        | At_upper -> hi.(j)
        | Basic -> assert false
      in
      let rhs = Array.copy b in
      for j = 0 to nreal - 1 do
        if status.(j) <> Basic then begin
          let v = value j in
          if v <> 0.0 then Sparse.scatter_col mat j ~scale:(-.v) rhs
        end
      done;
      let scale =
        Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 rhs
      in
      let accept f =
        let xb = Sparse.ftran f rhs in
        if Sparse.basis_residual mat basis.bbasic ~x:xb ~b:rhs
           <= 1e-6 *. scale
        then Some (f, xb)
        else None
      in
      let picked =
        match basis.bfactor with
        | Some f when Sparse.dim f = m -> (
            match accept f with
            | Some r -> Some r
            | None ->
                (* Snapshot factor disagrees with this problem's basis
                   matrix (stale or drifted eta file): refactorize. *)
                Option.bind (Sparse.factorize mat basis.bbasic) accept)
        | _ -> Option.bind (Sparse.factorize mat basis.bbasic) accept
      in
      match picked with
      | None -> None
      | Some (fac, xb) ->
          let cost = Array.make nreal 0.0 in
          let obj = Problem.objective problem in
          for j = 0 to nstruct - 1 do
            check_finite "non-finite objective coefficient" obj.(j);
            cost.(j) <- (if negate then -.obj.(j) else obj.(j))
          done;
          let st =
            { m; n = nreal; nstruct; nreal; mat; b; lo; hi;
              r = Array.make nreal 0.0; cost;
              basis = Array.copy basis.bbasic; status; xb; fac }
          in
          recompute_reduced_costs st;
          Some st
    end

  type dual_outcome = Dual_feasible of int | Dual_limit | Dual_infeasible_row

  (* Bounded-variable dual simplex: starting from a (near) dual-feasible
     basis whose basic values may violate their bounds — exactly the
     state a parent-optimal basis is in after one child bound change —
     drive the basic point back inside the box while keeping the reduced
     costs optimal. Each iteration kicks the most-violated basic variable
     out to its violated bound; the entering column is chosen by the dual
     ratio test (smallest |r_j / alpha_j| over sign-eligible columns),
     ties to the largest pivot magnitude, or the smallest index once a
     stall has switched the loop to Bland mode. *)
  let dual_optimize st ~limit ~start_iter =
    let tol v = 1e-9 *. (1.0 +. Float.abs v) in
    let violation i =
      let v = st.basis.(i) in
      if st.xb.(i) < st.lo.(v) -. tol st.lo.(v) then st.lo.(v) -. st.xb.(i)
      else if st.xb.(i) > st.hi.(v) +. tol st.hi.(v) then
        st.xb.(i) -. st.hi.(v)
      else 0.0
    in
    let stall_threshold = 4 * (st.m + 16) in
    let arow = Array.make st.n 0.0 in
    let rec loop iter ~bland ~stall ~best_obj =
      if iter >= limit then Dual_limit
      else begin
        if iter mod 256 = 255 then refresh st;
        let rrow = ref (-1) and worst = ref 0.0 in
        for i = 0 to st.m - 1 do
          let v = violation i in
          if v > !worst then begin
            worst := v;
            rrow := i
          end
        done;
        if !rrow < 0 then Dual_feasible iter
        else begin
          let rrow = !rrow in
          let vleave = st.basis.(rrow) in
          let below = st.xb.(rrow) < st.lo.(vleave) in
          (* Materialize tableau row rrow: one BTRAN of a unit vector,
             then a sparse dot per nonbasic column — O(nnz) overall. *)
          let e = Array.make st.m 0.0 in
          e.(rrow) <- 1.0;
          let rho = Sparse.btran st.fac e in
          for j = 0 to st.n - 1 do
            arow.(j) <-
              (if st.status.(j) = Basic then 0.0
               else Sparse.col_dot st.mat j rho)
          done;
          let q = ref (-1)
          and best_ratio = ref infinity
          and best_mag = ref 0.0 in
          for j = 0 to st.n - 1 do
            let a = arow.(j) in
            let eligible =
              st.lo.(j) < st.hi.(j)
              &&
              match st.status.(j) with
              | Basic -> false
              | At_lower ->
                  if below then a < -.pivot_tolerance
                  else a > pivot_tolerance
              | At_upper ->
                  if below then a > pivot_tolerance
                  else a < -.pivot_tolerance
            in
            if eligible then begin
              let ratio = Float.abs (st.r.(j) /. a) in
              if Float.is_nan ratio then
                raise (Numerical_error "NaN dual ratio");
              let mag = Float.abs a in
              if ratio < !best_ratio -. 1e-10 then begin
                q := j;
                best_ratio := ratio;
                best_mag := mag
              end
              else if ratio < !best_ratio +. 1e-10 && !q >= 0 then begin
                let wins = if bland then j < !q else mag > !best_mag in
                if wins then begin
                  q := j;
                  best_ratio := ratio;
                  best_mag := mag
                end
              end
            end
          done;
          if !q < 0 then
            if !worst > 1e-6 then Dual_infeasible_row
            else begin
              st.xb.(rrow) <-
                (if below then st.lo.(vleave) else st.hi.(vleave));
              loop (iter + 1) ~bland ~stall ~best_obj
            end
          else begin
            let q = !q in
            let alpha = entering_alpha st q in
            let apiv = alpha.(rrow) in
            let target = if below then st.lo.(vleave) else st.hi.(vleave) in
            let delta = (st.xb.(rrow) -. target) /. apiv in
            check_finite "non-finite dual step" delta;
            apply_move st ~alpha ~dir:1.0 ~t:delta;
            let entering_value =
              (match st.status.(q) with
               | At_lower -> st.lo.(q)
               | At_upper -> st.hi.(q)
               | Basic -> assert false)
              +. delta
            in
            pivot st ~rrow ~q ~alpha ~rho ~arow ~entering_value
              ~leaving_to_lower:below ();
            let obj = phase_objective st in
            let bland, stall, best_obj =
              if bland then (true, 0, best_obj)
              else if obj < best_obj -. 1e-12 then (false, 0, obj)
              else if stall + 1 >= stall_threshold then (true, 0, best_obj)
              else (false, stall + 1, best_obj)
            in
            loop (iter + 1) ~bland ~stall ~best_obj
          end
        end
      end
    in
    loop start_iter ~bland:false ~stall:0 ~best_obj:(phase_objective st)

  (* [Done] carries a result the sparse core fully stands behind;
     [Doubt] is the signal for the dispatcher to re-run the dense
     oracle — notably every phase-1 infeasibility conclusion, so the
     sparse path never prunes a branch-and-bound node alone. *)
  type outcome = Done of solution | Doubt of string

  (* Same slack-column identity as the dense [row_duals]: the sparse
     build never scales rows, so y_i = −r_si directly. *)
  let row_duals st = Array.init st.m (fun i -> -.st.r.(st.nstruct + i))

  let finish ?(certify = true) st ~status ~iterations ~warm problem =
    let x = extract st in
    let obj = Problem.objective problem in
    let value = ref 0.0 in
    for j = 0 to st.nstruct - 1 do
      value := !value +. (obj.(j) *. x.(j))
    done;
    {
      status;
      objective = !value;
      x;
      iterations;
      warm;
      basis = (if status = Optimal then snapshot st else None);
      cert =
        (if certify && status = Optimal then Some (Cert_duals (row_duals st))
         else None);
    }

  let solve_internal ?max_iterations ?(eps = 1e-7) problem ~negate =
    match build problem ~negate with
    | exception Row_infeasible i ->
        (* Empty slack range under the box is exact interval arithmetic,
           the same test the dense build runs: no doubt to defer. *)
        Done
          { status = Infeasible; objective = 0.0; x = [||]; iterations = 0;
            basis = None; warm = false; cert = Some (Cert_empty_row i) }
    | st -> (
        let limit =
          match max_iterations with
          | Some l -> l
          | None -> 500 * (st.m + st.n)
        in
        match optimize st ~eps ~limit ~start_iter:0 with
        | None -> Done (finish st ~status:Iteration_limit ~iterations:limit ~warm:false problem)
        | Some it1 ->
            let infeasibility = -.phase_objective st in
            if infeasibility > 1e-6 then Doubt "sparse phase-1 infeasible"
            else begin
              for i = 0 to st.m - 1 do
                let ai = st.nreal + i in
                st.hi.(ai) <- 0.0;
                if st.status.(ai) = At_upper then st.status.(ai) <- At_lower
              done;
              let obj = Problem.objective problem in
              Array.fill st.cost 0 st.n 0.0;
              for j = 0 to st.nstruct - 1 do
                check_finite "non-finite objective coefficient" obj.(j);
                st.cost.(j) <- (if negate then -.obj.(j) else obj.(j))
              done;
              recompute_reduced_costs st;
              match optimize st ~eps ~limit ~start_iter:it1 with
              | None ->
                  Done
                    (finish st ~status:Iteration_limit ~iterations:limit
                       ~warm:false problem)
              | Some it2 ->
                  Done
                    (finish ~certify:(not negate) st ~status:Optimal
                       ~iterations:it2 ~warm:false problem)
            end)

  let resolve_internal ?max_iterations ?(eps = 1e-7) problem ~basis =
    let cold () = solve_internal ?max_iterations ~eps problem ~negate:false in
    match restore problem basis ~negate:false with
    | exception Row_infeasible i ->
        Done
          { status = Infeasible; objective = 0.0; x = [||]; iterations = 0;
            basis = None; warm = false; cert = Some (Cert_empty_row i) }
    | None -> cold ()
    | Some st -> (
        let limit =
          match max_iterations with
          | Some l -> l
          | None -> 500 * (st.m + st.n)
        in
        let dual_limit = Int.min limit (Int.max 100 (200 + (4 * st.m))) in
        match dual_optimize st ~limit:dual_limit ~start_iter:0 with
        | exception Numerical_error _ -> cold ()
        | Dual_limit | Dual_infeasible_row -> cold ()
        | Dual_feasible it -> (
            match optimize st ~eps ~limit ~start_iter:it with
            | exception Numerical_error _ -> cold ()
            | None -> cold ()
            | Some iterations ->
                Done (finish st ~status:Optimal ~iterations ~warm:true problem)))
end

(* ------------------------------------------------------------------ *)
(* The sparse→dense fallback contract. *)

type core = Dense | Sparse

(* How often the sparse core handed a conclusion back to the dense
   oracle — observability for tests and the bench, not control flow. *)
let fallback_count = Atomic.make 0
let sparse_fallbacks () = Atomic.get fallback_count

(* Run the sparse core; on doubt or a numerical failure, solve the
   problem again cold on the dense tableau — never warm, whatever path
   the sparse attempt took. The dense solve's own [Numerical_error] is
   the only exception that escapes. *)
let sparse_or_dense_cold ?max_iterations ?eps problem ~negate sparse =
  match sparse () with
  | Rev.Done s -> s
  | Rev.Doubt _ | (exception Numerical_error _) ->
      Atomic.incr fallback_count;
      solve_internal ?max_iterations ?eps problem ~negate

let solve ?max_iterations ?eps ?(core = Sparse) problem =
  match core with
  | Dense -> solve_internal ?max_iterations ?eps problem ~negate:false
  | Sparse ->
      sparse_or_dense_cold ?max_iterations ?eps problem ~negate:false
        (fun () -> Rev.solve_internal ?max_iterations ?eps problem ~negate:false)

let solve_min ?max_iterations ?eps problem =
  sparse_or_dense_cold ?max_iterations ?eps problem ~negate:true (fun () ->
      Rev.solve_internal ?max_iterations ?eps problem ~negate:true)

let resolve ?max_iterations ?eps ~basis problem =
  sparse_or_dense_cold ?max_iterations ?eps problem ~negate:false (fun () ->
      Rev.resolve_internal ?max_iterations ?eps problem ~basis)

let primal_feasible ?(eps = 1e-6) problem x =
  let n = Problem.num_vars problem in
  Array.length x = n
  && begin
       let lo = Problem.var_lo problem and hi = Problem.var_hi problem in
       let ok = ref true in
       for j = 0 to n - 1 do
         if x.(j) < lo.(j) -. eps || x.(j) > hi.(j) +. eps then ok := false
       done;
       Array.iter
         (fun (row : Problem.row) ->
           let act =
             Array.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0.0 row.terms
           in
           let sat =
             match row.cmp with
             | Problem.Le -> act <= row.rhs +. eps
             | Problem.Ge -> act >= row.rhs -. eps
             | Problem.Eq -> Float.abs (act -. row.rhs) <= eps
           in
           if not sat then ok := false)
         (Problem.rows problem);
       !ok
     end
