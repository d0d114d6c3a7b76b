(** Replay arithmetic for the audit — built exclusively from
    {!Outward} primitives. Nothing the solver computed is trusted:
    certificates supply {e candidate} facts (dual vectors, witness
    points, row indices) and these evaluators decide whether the
    claimed conclusion follows from them under outward rounding. *)

type lp_view = {
  rows : Lp.Problem.row array;
  lo : float array;  (** variable bounds with a leaf's fixes applied *)
  hi : float array;
  obj : float array; (** dense objective; zeros for a Farkas replay *)
}

val row_certainly_empty : lp_view -> int -> bool
(** True when row [i]'s outward activity range cannot meet its
    right-hand side over the view's box — infeasibility by interval
    arithmetic alone. *)

val dual_upper : lp_view -> float array -> (float, string) result
(** Weak-duality bound from a candidate multiplier vector [y]: in the
    slack-equality view ([A_i·x + s_i = b_i], slack bounds encoding the
    senses), for {e any} [y],
    [U(y) = y·b + Σ_j sup r_j·[l_j,u_j] + Σ_i sup (-y_i)·[slo,shi]]
    with [r = c − Aᵀy] bounds [c·x] over every feasible point. All
    operations are outward. [Ok neg_infinity] signals a certainly-empty
    region (any bound holds vacuously); [Error] on shape or
    non-finiteness problems with [y] itself. With the zero objective,
    [U(y) < 0] proves infeasibility (Farkas). *)

val forward_enclosure : Nn.Network.t -> float array -> Outward.iv array
(** Outward enclosure of the network outputs at a concrete input —
    witness replay. Raises [Invalid_argument] on dimension mismatch. *)

val symbolic_output_uppers : Nn.Network.t -> Interval.Box.box -> float array
(** Independent outward DeepPoly: per-neuron lower/upper linear forms
    over the inputs with {e interval} coefficients (each step absorbs
    its own rounding; composition stays sound because interval
    operations contain every coefficient selection), intersected with
    plain outward interval propagation. Returns a guaranteed upper
    bound on every output over the box, indexed by output — the
    audit-side counterpart of {!Absint.Symbolic}, sharing no code with
    it. The pass covers every neuron whichever output is wanted, so a
    caller needing several outputs of one box runs it once. Raises
    [Invalid_argument] on a box of the wrong dimension. *)

val symbolic_output_upper :
  Nn.Network.t -> Interval.Box.box -> output:int -> float
(** One output of {!symbolic_output_uppers}, bit for bit. Raises
    [Invalid_argument] on a box of the wrong dimension or an output
    index out of range. *)

val mode_string : Encoding.Encoder.bound_mode -> string
val mode_of_string : string -> Encoding.Encoder.bound_mode option
