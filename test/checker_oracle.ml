(* The per-output outward symbolic bound exactly as the audit computed
   it before the all-outputs pass: one full propagation per output,
   reading only the requested one. Kept verbatim as the bit-for-bit
   oracle for [Certify.Checker.symbolic_output_uppers]. *)

module Outward = Certify.Outward

let act_iv act v =
  match act with
  | Nn.Activation.Identity -> v
  | Nn.Activation.Relu -> Outward.relu_iv v
  | Nn.Activation.Tanh -> Outward.tanh_iv v
  | Nn.Activation.Sigmoid -> Outward.sigmoid_iv v

(* A linear form over the inputs with {e interval} coefficients: for
   every x in the box, the quantity it bounds lies below the supremum
   of [Σ c_j·x_j + k] over all selections [c_j ∈ fc_j, k ∈ fk]. Using
   interval coefficients lets each DeepPoly step absorb its own
   rounding outward; composition stays sound because interval
   operations contain every selection. *)
type form = { fc : Outward.iv array; fk : Outward.iv }

let zero_form d = { fc = Array.make d Outward.zero; fk = Outward.zero }

let unit_form d j =
  let fc = Array.make d Outward.zero in
  fc.(j) <- Outward.exact 1.0;
  { fc; fk = Outward.zero }

let eval_hi f blo bhi =
  let acc = ref f.fk.Outward.hi in
  Array.iteri
    (fun j c ->
      acc := Outward.add_up !acc (Outward.sup_extreme c ~lo:blo.(j) ~hi:bhi.(j)))
    f.fc;
  !acc

let eval_lo f blo bhi =
  let acc = ref f.fk.Outward.lo in
  Array.iteri
    (fun j c ->
      acc := Outward.add_dn !acc (Outward.inf_extreme c ~lo:blo.(j) ~hi:bhi.(j)))
    f.fc;
  !acc

(* Scale a form by an interval [s >= 0] and add an interval offset —
   the ReLU chord substitution [post <= s·pre + bu]. *)
let chord_form s bu f =
  {
    fc = Array.map (fun c -> Outward.mul s c) f.fc;
    fk = Outward.add (Outward.mul s f.fk) bu;
  }

let symbolic_output_upper net (box : Interval.Box.box) ~output =
  let d = Nn.Network.input_dim net in
  if Array.length box <> d then
    invalid_arg "Checker_oracle.symbolic_output_upper: box dimension mismatch";
  let nlayers = Nn.Network.num_layers net in
  let out_dim = Nn.Network.output_dim net in
  if output < 0 || output >= out_dim then
    invalid_arg "Checker_oracle.symbolic_output_upper: output index out of range";
  let blo = Array.map (fun (iv : Interval.t) -> iv.Interval.lo) box in
  let bhi = Array.map (fun (iv : Interval.t) -> iv.Interval.hi) box in
  let lower = ref (Array.init d (unit_form d)) in
  let upper = ref (Array.init d (unit_form d)) in
  let post =
    ref
      (Array.map
         (fun (iv : Interval.t) ->
           { Outward.lo = iv.Interval.lo; hi = iv.Interval.hi })
         box)
  in
  for li = 0 to nlayers - 1 do
    let lay = Nn.Network.layer net li in
    let w = lay.Nn.Layer.weights and b = lay.Nn.Layer.bias in
    let in_dim = Nn.Layer.input_dim lay in
    let n = Nn.Layer.output_dim lay in
    let new_lower = Array.make n (zero_form d) in
    let new_upper = Array.make n (zero_form d) in
    let new_post = Array.make n Outward.zero in
    for r = 0 to n - 1 do
      (* Affine substitution: a positive weight pulls the predecessor's
         like-side form, a negative one the opposite side. *)
      let ufc = Array.make d Outward.zero and ufk = ref (Outward.exact b.(r)) in
      let lfc = Array.make d Outward.zero and lfk = ref (Outward.exact b.(r)) in
      let plain = ref (Outward.exact b.(r)) in
      for j = 0 to in_dim - 1 do
        let wj = Linalg.Mat.get w r j in
        if wj <> 0.0 then begin
          let su = if wj >= 0.0 then !upper.(j) else !lower.(j) in
          let sl = if wj >= 0.0 then !lower.(j) else !upper.(j) in
          for k = 0 to d - 1 do
            ufc.(k) <- Outward.add ufc.(k) (Outward.scale wj su.fc.(k));
            lfc.(k) <- Outward.add lfc.(k) (Outward.scale wj sl.fc.(k))
          done;
          ufk := Outward.add !ufk (Outward.scale wj su.fk);
          lfk := Outward.add !lfk (Outward.scale wj sl.fk);
          plain := Outward.add !plain (Outward.scale wj !post.(j))
        end
      done;
      let pre_u = { fc = ufc; fk = !ufk } in
      let pre_l = { fc = lfc; fk = !lfk } in
      (* Both the form evaluation and the plain interval are sound
         enclosures, so their intersection is sound and never empty. *)
      let pre_hi = Float.min (eval_hi pre_u blo bhi) !plain.Outward.hi in
      let pre_lo = Float.max (eval_lo pre_l blo bhi) !plain.Outward.lo in
      let pre_iv = { Outward.lo = pre_lo; hi = pre_hi } in
      (match lay.Nn.Layer.activation with
       | Nn.Activation.Identity ->
           new_lower.(r) <- pre_l;
           new_upper.(r) <- pre_u;
           new_post.(r) <- pre_iv
       | Nn.Activation.Relu ->
           if pre_lo >= 0.0 then begin
             new_lower.(r) <- pre_l;
             new_upper.(r) <- pre_u;
             new_post.(r) <- pre_iv
           end
           else if pre_hi <= 0.0 then begin
             new_lower.(r) <- zero_form d;
             new_upper.(r) <- zero_form d;
             new_post.(r) <- Outward.zero
           end
           else begin
             (* DeepPoly triangle with the slope held as an interval:
                s = U/(U-L), bu = -s·L, both outward, so the chord the
                analysis used is contained in every selection set. *)
             let denom =
               Outward.sub (Outward.exact pre_hi) (Outward.exact pre_lo)
             in
             let s = Outward.div_pos pre_hi denom in
             let bu = Outward.neg (Outward.mul s (Outward.exact pre_lo)) in
             new_upper.(r) <- chord_form s bu pre_u;
             new_lower.(r) <-
               (if pre_hi > -.pre_lo then pre_l else zero_form d);
             new_post.(r) <- Outward.relu_iv pre_iv
           end
       | Nn.Activation.Tanh | Nn.Activation.Sigmoid ->
           (* Monotone transfer as constant forms — matches the
              analysis's constant relaxation for these activations. *)
           let piv = act_iv lay.Nn.Layer.activation pre_iv in
           new_lower.(r) <- { (zero_form d) with fk = piv };
           new_upper.(r) <- { (zero_form d) with fk = piv };
           new_post.(r) <- piv)
    done;
    lower := new_lower;
    upper := new_upper;
    post := new_post
  done;
  Float.min (eval_hi !upper.(output) blo bhi) !post.(output).Outward.hi
