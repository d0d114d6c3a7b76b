(* Certification layer: content hashes, outward arithmetic, LP dual
   replay for both simplex cores, certificate round trips and
   mutation detection, journal crash-safety, and the certifying driver
   end-to-end against the independent audit. *)

let small_net seed dims =
  let rng = Linalg.Rng.create seed in
  Nn.Network.create ~rng dims

let box dim radius = Array.make dim (Interval.make (-.radius) radius)

let mini_predictor seed =
  small_net seed [ 6; 8; 8; Nn.Gmm.output_dim ~components:2 ]

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "depnn_test_%s_%d_%d" prefix (Unix.getpid ()) !n)

(* {1 Content hash} *)

let test_content_hash_stable_and_sensitive () =
  let a = mini_predictor 3 and b = mini_predictor 3 in
  Alcotest.(check string) "same weights, same hash" (Nn.Io.content_hash a)
    (Nn.Io.content_hash b);
  Alcotest.(check int) "16 hex chars" 16 (String.length (Nn.Io.content_hash a));
  let mutated =
    Fault.Model.inject
      (Fault.Model.Weight_bit_flip { layer = 1; row = 2; col = 3; bit = 0 })
      a
  in
  Alcotest.(check bool) "one weight bit flips the hash" true
    (Nn.Io.content_hash a <> Nn.Io.content_hash mutated);
  let bias =
    Fault.Model.inject (Fault.Model.Bias_bit_flip { layer = 0; row = 1; bit = 7 }) a
  in
  Alcotest.(check bool) "one bias bit flips the hash" true
    (Nn.Io.content_hash a <> Nn.Io.content_hash bias)

let test_property_hash_sensitive () =
  let p =
    {
      Certify.Certificate.threshold = 3.0;
      components = 2;
      bound_mode = "symbolic";
      box = [| (-0.5, 0.5); (-0.25, 1.0) |];
    }
  in
  let h = Certify.Certificate.property_hash ~net_hash:"00aa" p in
  Alcotest.(check string) "deterministic" h
    (Certify.Certificate.property_hash ~net_hash:"00aa" p);
  let differs p' =
    h <> Certify.Certificate.property_hash ~net_hash:"00aa" p'
  in
  Alcotest.(check bool) "threshold matters" true
    (differs { p with threshold = 3.0000001 });
  Alcotest.(check bool) "mode matters" true
    (differs { p with bound_mode = "interval" });
  Alcotest.(check bool) "box matters" true
    (differs { p with box = [| (-0.5, 0.5); (-0.25, 1.0000001) |] });
  Alcotest.(check bool) "net matters" true
    (h <> Certify.Certificate.property_hash ~net_hash:"00ab" p)

(* {1 Outward arithmetic} *)

let test_outward_encloses_samples () =
  let rng = Linalg.Rng.create 7 in
  let iv () =
    let a = Linalg.Rng.uniform rng (-3.0) 3.0
    and b = Linalg.Rng.uniform rng (-3.0) 3.0 in
    { Certify.Outward.lo = Float.min a b; hi = Float.max a b }
  in
  let inside (z : Certify.Outward.iv) v = z.lo <= v && v <= z.hi in
  for _ = 1 to 2000 do
    let x = iv () and y = iv () in
    let px = Linalg.Rng.uniform rng x.lo x.hi
    and py = Linalg.Rng.uniform rng y.lo y.hi in
    if not (inside (Certify.Outward.add x y) (px +. py)) then
      Alcotest.fail "add escaped";
    if not (inside (Certify.Outward.mul x y) (px *. py)) then
      Alcotest.fail "mul escaped";
    if not (inside (Certify.Outward.tanh_iv x) (tanh px)) then
      Alcotest.fail "tanh escaped";
    if not (inside (Certify.Outward.relu_iv x) (Float.max 0.0 px)) then
      Alcotest.fail "relu escaped"
  done

let test_outward_sup_extreme_dominates () =
  let rng = Linalg.Rng.create 8 in
  for _ = 1 to 2000 do
    let a = Linalg.Rng.uniform rng (-2.0) 2.0
    and b = Linalg.Rng.uniform rng (-2.0) 2.0 in
    let r = { Certify.Outward.lo = Float.min a b; hi = Float.max a b } in
    let lo = Linalg.Rng.uniform rng (-4.0) 0.0
    and hi = Linalg.Rng.uniform rng 0.0 4.0 in
    let u = Certify.Outward.sup_extreme r ~lo ~hi in
    let pr = Linalg.Rng.uniform rng r.lo r.hi in
    let exact = Float.max (pr *. lo) (pr *. hi) in
    if exact > u then Alcotest.fail "sup_extreme under-approximated"
  done

(* {1 Outward symbolic bound: one pass for every output} *)

let bits = Int64.bits_of_float

(* A random small net: one to three layers of width one to five, each
   with a random activation among the four the checker replays, about
   one weight in five exactly zero. *)
let random_net rng =
  let depth = 1 + Linalg.Rng.int rng 3 in
  let dims = Array.init (depth + 1) (fun _ -> 1 + Linalg.Rng.int rng 5) in
  let acts =
    [| Nn.Activation.Relu; Nn.Activation.Identity; Nn.Activation.Tanh;
       Nn.Activation.Sigmoid |]
  in
  Nn.Network.make
    (Array.init depth (fun l ->
         let w =
           Linalg.Mat.init dims.(l + 1) dims.(l) (fun _ _ ->
               if Linalg.Rng.int rng 5 = 0 then 0.0
               else Linalg.Rng.uniform rng (-2.0) 2.0)
         in
         let b = Array.init dims.(l + 1) (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
         Nn.Layer.make w b acts.(Linalg.Rng.int rng 4)))

(* A random sub-box of [-1.5, 1.5]^d; about one dimension in four has
   zero width. *)
let random_box rng d =
  Array.init d (fun _ ->
      let c = Linalg.Rng.uniform rng (-1.0) 1.0 in
      if Linalg.Rng.int rng 4 = 0 then Interval.make c c
      else
        let w = Linalg.Rng.uniform rng 0.0 0.5 in
        Interval.make (c -. w) (c +. w))

(* Every output of the all-outputs pass, and its one-output projection,
   equals the per-output oracle bit for bit. *)
let uppers_match_oracle net b =
  let uppers = Certify.Checker.symbolic_output_uppers net b in
  Array.length uppers = Nn.Network.output_dim net
  && Array.for_all Fun.id
       (Array.mapi
          (fun output u ->
            let want = Checker_oracle.symbolic_output_upper net b ~output in
            bits u = bits want
            && bits (Certify.Checker.symbolic_output_upper net b ~output)
               = bits want)
          uppers)

let prop_symbolic_uppers_bit_identical =
  QCheck.Test.make ~count:300
    ~name:"all-outputs symbolic bound equals the per-output oracle bit for bit"
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let net = random_net rng in
      uppers_match_oracle net (random_box rng (Nn.Network.input_dim net)))

(* The same on a paper-sized predictor over the scenario box, where
   many neurons are unstable and the forms are 84 wide. *)
let test_symbolic_uppers_i4x10 () =
  let net = Nn.Network.i4xn ~rng:(Linalg.Rng.create 9) 10 in
  List.iter
    (fun slack ->
      Alcotest.(check bool)
        (Printf.sprintf "slack %g: bit-identical" slack)
        true
        (uppers_match_oracle net (Verify.Scenario.vehicle_on_left ~slack ())))
    [ 0.01; 0.05 ];
  match
    Certify.Checker.symbolic_output_upper net
      (Verify.Scenario.vehicle_on_left ())
      ~output:(Nn.Network.output_dim net)
  with
  | _ -> Alcotest.fail "output index out of range accepted"
  | exception Invalid_argument _ -> ()

(* {1 LP certificate replay, both cores} *)

let view_of p =
  {
    Certify.Checker.rows = Lp.Problem.rows p;
    lo = Lp.Problem.var_lo p;
    hi = Lp.Problem.var_hi p;
    obj = Lp.Problem.objective p;
  }

let random_lp seed =
  let rng = Linalg.Rng.create seed in
  let p = Lp.Problem.create () in
  let n = 2 + Linalg.Rng.int rng 4 in
  let vars =
    Array.init n (fun _ ->
        let a = Linalg.Rng.uniform rng (-4.0) 4.0
        and b = Linalg.Rng.uniform rng (-4.0) 4.0 in
        Lp.Problem.add_var p ~lo:(Float.min a b) ~hi:(Float.max a b)
          ~obj:(Linalg.Rng.uniform rng (-2.0) 2.0)
          ())
  in
  let m = 1 + Linalg.Rng.int rng 5 in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Linalg.Rng.bool rng then
               Some (v, Linalg.Rng.uniform rng (-2.0) 2.0)
             else None)
    in
    let terms = if terms = [] then [ (vars.(0), 1.0) ] else terms in
    let cmp =
      match Linalg.Rng.int rng 3 with
      | 0 -> Lp.Problem.Le
      | 1 -> Lp.Problem.Ge
      | _ -> Lp.Problem.Eq
    in
    (* Right-hand sides drawn wide enough that a fair share of the
       generated programs are infeasible, exercising the Farkas and
       empty-row replays as well as the optimal-dual one. *)
    Lp.Problem.add_constraint p terms cmp (Linalg.Rng.uniform rng (-6.0) 6.0)
  done;
  p

let cert_replays core p =
  let s = Lp.Simplex.solve ~core p in
  match s.Lp.Simplex.cert with
  | None -> s.Lp.Simplex.status = Lp.Simplex.Iteration_limit
  | Some (Lp.Simplex.Cert_duals y) -> (
      s.Lp.Simplex.status = Lp.Simplex.Optimal
      &&
      match Certify.Checker.dual_upper (view_of p) y with
      | Ok u -> u >= s.Lp.Simplex.objective -. 1e-6
      | Error _ -> false)
  | Some (Lp.Simplex.Cert_farkas y) -> (
      s.Lp.Simplex.status = Lp.Simplex.Infeasible
      &&
      let zero_obj =
        { (view_of p) with Certify.Checker.obj = Array.make (Lp.Problem.num_vars p) 0.0 }
      in
      match Certify.Checker.dual_upper zero_obj y with
      | Ok u -> u < 0.0
      | Error _ -> false)
  | Some (Lp.Simplex.Cert_empty_row i) ->
      s.Lp.Simplex.status = Lp.Simplex.Infeasible
      && Certify.Checker.row_certainly_empty (view_of p) i

let prop_lp_certs_replay_both_cores =
  QCheck.Test.make ~count:120
    ~name:"sparse and dense LP certificates replay under outward rounding"
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let p = random_lp seed in
      cert_replays Lp.Simplex.Dense (Lp.Problem.copy p)
      && cert_replays Lp.Simplex.Sparse (Lp.Problem.copy p))

(* {1 Certificate serialisation} *)

let sample_cert net =
  {
    Certify.Certificate.net_hash = Nn.Io.content_hash net;
    property =
      {
        threshold = 1.5;
        components = 2;
        bound_mode = "interval";
        box = Array.map (fun iv -> (iv.Interval.lo, iv.Interval.hi)) (box 6 0.3);
      };
    component = 0;
    output = Nn.Gmm.mu_lat_index ~components:2 0;
    body = Certify.Certificate.Witness { input = Array.make 6 0.1; achieved = 2.0 };
  }

let test_certificate_round_trip () =
  let c = sample_cert (mini_predictor 11) in
  match Certify.Certificate.of_string (Certify.Certificate.to_string c) with
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)
  | Ok c' ->
      Alcotest.(check bool) "round trips bit-exactly" true (c = c')

let test_certificate_mutation_rejected () =
  let s = Certify.Certificate.to_string (sample_cert (mini_predictor 12)) in
  (* Flip one byte in the middle of the payload. *)
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
  (match Certify.Certificate.of_string (Bytes.to_string b) with
   | Ok _ -> Alcotest.fail "mutated certificate accepted"
   | Error _ -> ());
  (* Truncation is also detected. *)
  match Certify.Certificate.of_string (String.sub s 0 (String.length s - 10)) with
  | Ok _ -> Alcotest.fail "truncated certificate accepted"
  | Error _ -> ()

(* {1 Per-question replay} *)

let result_string = function Ok d -> "ok: " ^ d | Error m -> "error: " ^ m

(* [check] through a fresh replay of the certificate's own question
   agrees with the unshared [check_certificate], and so does a second
   check through the same (now forced) replay. *)
let check_replay_agrees net (cert : Certify.Certificate.t) =
  let expected = result_string (Certify.Audit.check_certificate net cert) in
  let r = Certify.Audit.replay net cert.Certify.Certificate.property in
  Alcotest.(check string) "fresh replay agrees" expected
    (result_string (Certify.Audit.check r cert));
  Alcotest.(check string) "forced replay agrees" expected
    (result_string (Certify.Audit.check r cert))

let dir_certificates dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".cert")
  |> List.filter_map (fun name ->
         match Certify.Journal.read_cert ~dir ~name with
         | Error _ -> None
         | Ok blob -> Result.to_option (Certify.Certificate.of_string blob))

(* Every parseable certificate of a directory: alone, and all of them
   in turn through the one replay of the first one's question — the
   sharing [Audit.run] and the driver do. *)
let check_dir_replays_agree net dir =
  let certs = dir_certificates dir in
  List.iter (check_replay_agrees net) certs;
  match certs with
  | [] -> ()
  | first :: _ ->
      let shared = Certify.Audit.replay net first.Certify.Certificate.property in
      List.iter
        (fun cert ->
          Alcotest.(check string) "shared replay agrees"
            (result_string (Certify.Audit.check_certificate net cert))
            (result_string (Certify.Audit.check shared cert)))
        certs

let test_wrong_network_rejected () =
  let net = mini_predictor 13 in
  let cert = { (sample_cert net) with Certify.Certificate.net_hash = "feedfacefeedface" } in
  check_replay_agrees net cert;
  check_replay_agrees net (sample_cert net);
  match Certify.Audit.check_certificate net cert with
  | Ok _ -> Alcotest.fail "stale certificate accepted"
  | Error _ -> ()

(* {1 Journal} *)

let entry i =
  {
    Certify.Journal.component = i;
    verdict = "proved";
    cert_file = Some (Printf.sprintf "c%d.cert" i);
    net_hash = "aaaabbbbccccdddd";
    prop_hash = "1111222233334444";
  }

let loaded_components dir =
  List.map (fun e -> e.Certify.Journal.component) (Certify.Journal.load ~dir)

let test_journal_round_trip_and_torn_line () =
  let dir = fresh_dir "journal" in
  Certify.Journal.init dir;
  Certify.Journal.append ~dir (entry 0);
  Certify.Journal.append ~dir (entry 1);
  Alcotest.(check (list int)) "entries in order" [ 0; 1 ] (loaded_components dir);
  (* A torn final line (kill mid-write) fails its checksum and is
     skipped, never trusted. *)
  Certify.Journal.append ~dir (entry 2);
  let path = Filename.concat dir "journal.log" in
  let len = (Unix.stat path).Unix.st_size in
  Unix.truncate path (len - 5);
  Alcotest.(check (list int)) "torn line skipped" [ 0; 1 ] (loaded_components dir);
  (* A later append after the torn line keeps the journal usable. *)
  Certify.Journal.append ~dir (entry 3);
  Alcotest.(check bool) "journal recovers after torn tail" true
    (List.mem 3 (loaded_components dir))

let test_journal_edited_line_skipped () =
  let dir = fresh_dir "journal_edit" in
  Certify.Journal.init dir;
  Certify.Journal.append ~dir (entry 0);
  Certify.Journal.append ~dir (entry 1);
  let path = Filename.concat dir "journal.log" in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* Flip a byte inside the first line's body. *)
  let b = Bytes.of_string s in
  let eol = Bytes.index b '\n' in
  Bytes.set b (eol - 1) 'X';
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  Alcotest.(check (list int)) "edited line rejected" [ 1 ] (loaded_components dir)

(* {1 Certifying driver + independent audit, end-to-end} *)

let exact_max net b0 =
  Option.get
    (Verify.Driver.max_lateral_velocity ~components:2 net b0).Verify.Driver.value

let prove ?certify_dir ~threshold net b0 =
  Verify.Driver.prove_lateral_velocity_le ?certify_dir ~components:2
    ~threshold net b0

let test_certified_proof_audits () =
  let net = mini_predictor 61 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let dir = fresh_dir "proof" in
  let p = prove ~certify_dir:dir ~threshold:(v +. 0.5) net b0 in
  Alcotest.(check bool) "proved" true (p.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "both components certified" 2 p.Verify.Driver.certified;
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit confirms" true
    (rep.Certify.Audit.verdict = `Proved && rep.Certify.Audit.ok);
  check_dir_replays_agree net dir;
  check_dir_replays_agree (mini_predictor 62) dir;
  (* The audit must reject the same directory replayed against a
     different network. *)
  let other = Certify.Audit.run ~net:(mini_predictor 62) ~dir in
  Alcotest.(check bool) "wrong network rejected" true (not other.Certify.Audit.ok)

let test_mutated_certificate_fails_audit () =
  let net = mini_predictor 63 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let dir = fresh_dir "mutate" in
  let p = prove ~certify_dir:dir ~threshold:(v +. 0.5) net b0 in
  Alcotest.(check bool) "proved" true (p.Verify.Driver.proof = Verify.Driver.Proved);
  let cert_file =
    Sys.readdir dir |> Array.to_list
    |> List.find (fun f -> Filename.check_suffix f ".cert")
  in
  let path = Filename.concat dir cert_file in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "mutated certificate rejected" true
    (not rep.Certify.Audit.ok);
  Alcotest.(check bool) "verdict withdrawn" true
    (rep.Certify.Audit.verdict <> `Proved);
  check_dir_replays_agree net dir

let test_disproof_witness_audits () =
  let net = mini_predictor 64 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let dir = fresh_dir "witness" in
  let p = prove ~certify_dir:dir ~threshold:(v -. 0.2) net b0 in
  (match p.Verify.Driver.proof with
   | Verify.Driver.Disproved w ->
       Alcotest.(check bool) "witness beats threshold" true
         (w.Verify.Driver.achieved > v -. 0.2)
   | _ -> Alcotest.fail "expected a falsification");
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit confirms the witness" true
    (rep.Certify.Audit.verdict = `Disproved && rep.Certify.Audit.ok);
  check_dir_replays_agree net dir

let journal_lines dir =
  let path = Filename.concat dir "journal.log" in
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let test_resume_after_kill () =
  let net = mini_predictor 65 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let threshold = v +. 0.5 in
  let dir = fresh_dir "resume" in
  let p1 = prove ~certify_dir:dir ~threshold net b0 in
  Alcotest.(check bool) "initial run proved" true
    (p1.Verify.Driver.proof = Verify.Driver.Proved);
  (* Simulate a kill right after the first component was journaled:
     drop every journal line but the first. The certificates stay on
     disk — only the journal decides what is settled. *)
  let first = List.hd (journal_lines dir) in
  let oc = open_out_bin (Filename.concat dir "journal.log") in
  output_string oc (first ^ "\n");
  close_out oc;
  let p2 = prove ~certify_dir:dir ~threshold net b0 in
  Alcotest.(check bool) "resumed run proved" true
    (p2.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "one component resumed, not re-proved" 1
    p2.Verify.Driver.resumed;
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit confirms after resume" true
    (rep.Certify.Audit.verdict = `Proved && rep.Certify.Audit.ok);
  check_dir_replays_agree net dir;
  (* A third run resumes everything and does no solving at all. *)
  let p3 = prove ~certify_dir:dir ~threshold net b0 in
  Alcotest.(check int) "everything resumed" 2 p3.Verify.Driver.resumed;
  Alcotest.(check int) "no nodes searched" 0 p3.Verify.Driver.proof_nodes;
  Alcotest.(check bool) "verdict preserved" true
    (p3.Verify.Driver.proof = Verify.Driver.Proved);
  (* Asking a different question must not reuse the journal. *)
  let p4 = prove ~certify_dir:dir ~threshold:(v +. 0.7) net b0 in
  Alcotest.(check int) "different threshold resumes nothing" 0
    p4.Verify.Driver.resumed

let test_watchdog_same_verdict () =
  let net = mini_predictor 66 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let p = prove ~threshold:(v +. 0.5) net b0 in
  Alcotest.(check bool) "watchdog proves" true
    (p.Verify.Driver.proof = Verify.Driver.Proved);
  let dir = fresh_dir "watchdog" in
  let pc = prove ~certify_dir:dir ~threshold:(v +. 0.5) net b0 in
  Alcotest.(check bool) "certified watchdog proves" true
    (pc.Verify.Driver.proof = Verify.Driver.Proved);
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit confirms" true rep.Certify.Audit.ok;
  check_dir_replays_agree net dir

(* A replay never lends one question's state to another. Certificates
   of a proved campaign are replayed through their question's replay
   after it is forced; the same certificates with a mutated box or
   bound mode must then get exactly the unshared verdict — for a
   search-tree certificate a rejection (the rebuilt model no longer
   matches), which the forced state would wrongly confirm. In the
   directory, such a certificate is rejected exactly as before. *)
let test_replay_never_lends_state () =
  let net = mini_predictor 69 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let dir = fresh_dir "lend" in
  let p = prove ~certify_dir:dir ~threshold:(v +. 0.05) net b0 in
  Alcotest.(check bool) "proved" true (p.Verify.Driver.proof = Verify.Driver.Proved);
  let certs = dir_certificates dir in
  let trees =
    List.filter
      (fun (c : Certify.Certificate.t) ->
        match c.Certify.Certificate.body with
        | Certify.Certificate.Milp_tree _ -> true
        | _ -> false)
      certs
  in
  Alcotest.(check bool) "premise: a search-tree certificate" true (trees <> []);
  let grown (q : Certify.Certificate.property) =
    { q with box = Array.map (fun (lo, hi) -> (lo -. 0.1, hi +. 0.1)) q.box }
  in
  let remoded (q : Certify.Certificate.property) =
    let other = if q.bound_mode = "interval" then "symbolic" else "interval" in
    { q with bound_mode = other }
  in
  let nan_threshold (q : Certify.Certificate.property) =
    { q with threshold = Float.nan }
  in
  let mutated mutate (c : Certify.Certificate.t) =
    { c with property = mutate c.Certify.Certificate.property }
  in
  List.iter
    (fun (c : Certify.Certificate.t) ->
      let r = Certify.Audit.replay net c.Certify.Certificate.property in
      (match Certify.Audit.check r c with
       | Ok _ -> ()
       | Error m -> Alcotest.fail ("genuine certificate rejected: " ^ m));
      List.iter
        (fun mutate ->
          let c' = mutated mutate c in
          let alone = result_string (Certify.Audit.check_certificate net c') in
          Alcotest.(check string) "mutated property: unshared verdict" alone
            (result_string (Certify.Audit.check r c'));
          check_replay_agrees net c')
        [ grown; remoded; nan_threshold ])
    certs;
  List.iter
    (fun (c : Certify.Certificate.t) ->
      List.iter
        (fun mutate ->
          match Certify.Audit.check_certificate net (mutated mutate c) with
          | Ok _ -> Alcotest.fail "mutated tree certificate confirmed"
          | Error _ -> ())
        [ grown; remoded ])
    trees;
  (* In the directory: rewrite one certificate, validly serialised, with
     its box grown. *)
  let victim = List.hd trees in
  let name = Printf.sprintf "component-%d.cert" victim.Certify.Certificate.component in
  Certify.Journal.write_cert ~dir ~name
    (Certify.Certificate.to_string (mutated grown victim));
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit withdraws the proof" true
    ((not rep.Certify.Audit.ok) && rep.Certify.Audit.verdict <> `Proved);
  List.iter
    (fun (cr : Certify.Audit.component_report) ->
      if cr.Certify.Audit.component = victim.Certify.Certificate.component then
        Alcotest.(check bool) "rejected for its property" true
          (cr.Certify.Audit.status
          = Certify.Audit.Rejected "certificate property hash mismatch")
      else
        Alcotest.(check bool) "the other component still confirms" true
          (cr.Certify.Audit.status = Certify.Audit.Confirmed))
    rep.Certify.Audit.components

(* {1 The settle ladder's rungs} *)

(* The analysis bound of the untightened encoding: what a decision that
   no MILP rung could improve reports. *)
let analysis_bound net b0 =
  let enc = Encoding.Encoder.encode net b0 in
  let post = enc.Encoding.Encoder.bounds.Encoding.Bounds.post in
  List.fold_left
    (fun acc k ->
      Float.max acc
        post.(Array.length post - 1).(Nn.Gmm.mu_lat_index ~components:2 k)
          .Interval.hi)
    neg_infinity [ 0; 1 ]

(* A timeout is not a numerical failure: it ends the ladder with the
   tightest sound bound seen instead of handing over to the dense rung
   and discarding the timed-out rung's bound. Under a hopeless budget
   the certified decision is Unknown with nothing degraded, and its
   bound is never looser than the untightened evidence-free run of the
   same question under the same budget; under a budget that lets the
   search start, the bound never exceeds the analysis bound the search
   began from. *)
let test_timeout_ends_ladder_with_bound () =
  let net = small_net 67 [ 6; 40; 40; 40; Nn.Gmm.output_dim ~components:2 ] in
  let b0 = box 6 1.0 in
  let rng = Linalg.Rng.create 67 in
  let sampled, _ =
    Verify.Driver.sampled_max_lateral_velocity ~rng ~samples:500
      ~components:2 net b0
  in
  let analysis = analysis_bound net b0 in
  let threshold = sampled +. (0.05 *. (analysis -. sampled)) in
  let unknown_bound (r : Verify.Driver.proof_result) =
    match r.Verify.Driver.proof with
    | Verify.Driver.Unknown { best_bound } -> best_bound
    | Verify.Driver.Proved | Verify.Driver.Disproved _ ->
        Alcotest.fail "expected the decision to time out"
  in
  let certified time_limit =
    Verify.Driver.prove_lateral_velocity_le
      ~certify_dir:(fresh_dir "ladder_timeout") ~time_limit ~components:2
      ~threshold net b0
  in
  let hopeless = 1e-3 in
  let c = certified hopeless in
  let free =
    Verify.Driver.prove_lateral_velocity_le ~tighten_rounds:0
      ~time_limit:hopeless ~components:2 ~threshold net b0
  in
  Alcotest.(check int) "hopeless: nothing degraded" 0 c.Verify.Driver.degraded;
  Alcotest.(check bool)
    (Printf.sprintf "hopeless: certified bound %.6f <= evidence-free %.6f"
       (unknown_bound c) (unknown_bound free))
    true
    (unknown_bound c <= unknown_bound free);
  let c = certified 0.3 in
  Alcotest.(check int) "0.3 s: nothing degraded" 0 c.Verify.Driver.degraded;
  Alcotest.(check bool)
    (Printf.sprintf "0.3 s: bound %.6f within the analysis bound %.6f"
       (unknown_bound c) analysis)
    true
    (unknown_bound c <= analysis)

(* A rung that raises hands over to the next one, and a leaf whose every
   rung raised ends in an honest Unknown — never an exception, which is
   what keeps a proof server's worker alive. Weights of 1e307 out of
   one hidden neuron keep every bound finite, so the network encodes,
   but overflow the first pivots, so both LP cores raise
   [Numerical_error]. *)
let test_raising_rungs_degrade_to_unknown () =
  let net = mini_predictor 68 in
  let w = (Nn.Network.layer net 1).Nn.Layer.weights in
  for r = 0 to Linalg.Mat.rows w - 1 do
    Linalg.Mat.set w r 0 1e307
  done;
  let b0 = box 6 0.3 in
  List.iter
    (fun certify_dir ->
      let r =
        Verify.Driver.prove_lateral_velocity_le ?certify_dir ~time_limit:10.0
          ~components:2 ~threshold:0.0 net b0
      in
      let mode = if certify_dir = None then "plain" else "certified" in
      (match r.Verify.Driver.proof with
       | Verify.Driver.Unknown _ -> ()
       | Verify.Driver.Proved | Verify.Driver.Disproved _ ->
           Alcotest.fail (mode ^ ": expected an honest Unknown"));
      Alcotest.(check bool) (mode ^ ": rungs degraded") true
        (r.Verify.Driver.degraded > 0);
      Option.iter
        (fun dir ->
          let rep = Certify.Audit.run ~net ~dir in
          Alcotest.(check bool) (mode ^ ": audit does not prove") true
            (rep.Certify.Audit.verdict <> `Proved);
          check_dir_replays_agree net dir)
        certify_dir)
    [ None; Some (fresh_dir "ladder_raise") ]

(* A certificate that fails its self-check keeps a file of its own: on
   the pinned I4x40 at slack 0.003 the outward replay of every presolve
   hyperplane is too loose for threshold 1.0, so each component is
   journaled [unknown] behind its rejected presolve certificate and then
   proved by the MILP tree. The tree certificate must not overwrite the
   rejected one, so each journal line still points at the evidence it
   speaks of. *)
let test_rejected_certificate_keeps_its_file () =
  let net = Nn.Io.load "../depnnbench/nets/i4x40.nn" in
  let dir = fresh_dir "rejected" in
  let r =
    Verify.Driver.prove_lateral_velocity_le
      ~bound_mode:Encoding.Encoder.Symbolic_bounds ~certify_dir:dir
      ~time_limit:30.0 ~components:3 ~threshold:1.0 net
      (Verify.Scenario.vehicle_on_left ~slack:0.003 ())
  in
  Alcotest.(check bool) "proved" true (r.Verify.Driver.proof = Verify.Driver.Proved);
  let load name =
    match Certify.Journal.read_cert ~dir ~name with
    | Error m -> Alcotest.fail (name ^ ": " ^ m)
    | Ok blob -> (
        match Certify.Certificate.of_string blob with
        | Error m -> Alcotest.fail (name ^ ": " ^ m)
        | Ok c -> c)
  in
  let entries = Certify.Journal.load ~dir in
  List.iter
    (fun k ->
      let lines =
        List.filter (fun (e : Certify.Journal.entry) -> e.Certify.Journal.component = k) entries
      in
      match lines with
      | [ { Certify.Journal.verdict = "unknown"; cert_file = Some rejected; _ };
          { Certify.Journal.verdict = "proved"; cert_file = Some proved; _ } ] ->
          Alcotest.(check string) "rejected presolve name"
            (Printf.sprintf "component-%d.presolve.rejected" k) rejected;
          Alcotest.(check string) "proved name"
            (Printf.sprintf "component-%d.cert" k) proved;
          (match (load rejected).Certify.Certificate.body with
           | Certify.Certificate.Presolve _ -> ()
           | _ -> Alcotest.fail "the unknown line's file is not the presolve");
          Alcotest.(check bool) "the unknown line's file fails its audit" true
            (Result.is_error (Certify.Audit.check_certificate net (load rejected)));
          Alcotest.(check bool) "the proved line's file passes its audit" true
            (Result.is_ok (Certify.Audit.check_certificate net (load proved)))
      | _ ->
          Alcotest.fail
            (Printf.sprintf "component %d: expected an unknown then a proved line" k))
    [ 0; 1; 2 ];
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "directory audits to proved" true
    (rep.Certify.Audit.ok && rep.Certify.Audit.verdict = `Proved)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "certify"
    [
      ( "hash",
        [
          quick "content hash" test_content_hash_stable_and_sensitive;
          quick "property hash" test_property_hash_sensitive;
        ] );
      ( "outward",
        [
          quick "encloses samples" test_outward_encloses_samples;
          quick "sup_extreme dominates" test_outward_sup_extreme_dominates;
        ] );
      ( "certificate",
        [
          quick "round trip" test_certificate_round_trip;
          quick "mutation rejected" test_certificate_mutation_rejected;
          quick "wrong network rejected" test_wrong_network_rejected;
        ] );
      ( "journal",
        [
          quick "round trip + torn line" test_journal_round_trip_and_torn_line;
          quick "edited line skipped" test_journal_edited_line_skipped;
        ] );
      ( "end-to-end",
        [
          slow "certified proof audits" test_certified_proof_audits;
          slow "mutated certificate fails" test_mutated_certificate_fails_audit;
          slow "disproof witness audits" test_disproof_witness_audits;
          slow "kill + resume" test_resume_after_kill;
          slow "watchdog verdict" test_watchdog_same_verdict;
          slow "timeout ends ladder with bound"
            test_timeout_ends_ladder_with_bound;
          slow "raising rungs degrade to unknown"
            test_raising_rungs_degrade_to_unknown;
          slow "replay never lends state" test_replay_never_lends_state;
          slow "rejected certificate keeps its file"
            test_rejected_certificate_keeps_its_file;
        ] );
      ("symbolic", [ quick "I4x10 bit-identical" test_symbolic_uppers_i4x10 ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lp_certs_replay_both_cores; prop_symbolic_uppers_bit_identical ] );
    ]
