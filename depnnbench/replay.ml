(* Traced replay: the queries of a workload re-run through each layer's
   public functions, with a span around every call into a layer. The
   sequence mirrors what [Verify.Driver] does for the same query (plain,
   maximisation, certified, partitioned), so per-layer self-times can be
   set against the driver's own [elapsed]. Spans flagged [extra] are
   measurements the driver never performs. *)

open Common

let output_of k = Nn.Gmm.mu_lat_index ~components k

let output_upper (enc : Encoding.Encoder.t) k =
  let post = enc.Encoding.Encoder.bounds.Encoding.Bounds.post in
  post.(Array.length post - 1).(k).Interval.hi

let encode ?(extra = false) ~rounds net box =
  let name = if rounds = 0 then "encoding.encode" else "encoding.obbt" in
  Span.with_ ~extra name (fun () ->
      Encoding.Encoder.encode ~bound_mode ~tighten_rounds:rounds
        ~tighten_budget:(0.5 *. time_limit) ~cores:1 net box)

(* Rounds-0 encoding stats, plus the OBBT round timed as the difference
   of a rounds-1 encode and the rounds-0 reference. *)
let encode_stats ~obbt net box =
  let enc0, t0 = timed (fun () -> encode ~extra:obbt ~rounds:0 net box) in
  let st = enc0.Encoding.Encoder.stats in
  Span.add "encoding.binaries" (float_of_int st.Encoding.Encoder.unstable);
  Span.add "encoding.lp_nnz" (float_of_int st.Encoding.Encoder.nnz);
  if not obbt then enc0
  else begin
    let enc1, t1 = timed (fun () -> encode ~rounds:1 net box) in
    let ob = enc1.Encoding.Encoder.obbt in
    Span.add "encoding.obbt_s" (Float.max 0.0 (t1 -. t0));
    Span.add "encoding.obbt_refined" (float_of_int ob.Encoding.Encoder.refined);
    Span.add "encoding.obbt_failed" (float_of_int ob.Encoding.Encoder.failed);
    Span.add "encoding.obbt_skipped"
      (float_of_int ob.Encoding.Encoder.skipped_budget);
    enc1
  end

let symbolic ?(extra = false) net box =
  Span.with_ ~extra "absint.symbolic" (fun () ->
      Absint.Symbolic.propagate net box)

(* The root relaxation of the first component query that reaches the
   MILP in each replayed query, once per LP core. Once per query, not per
   component or leaf: a dense root solve on I4x60 takes ~0.6 s. *)
let rooted = Hashtbl.create 16

let root_lp (enc : Encoding.Encoder.t) ~output =
  if not (Hashtbl.mem rooted !Span.query) then begin
    Hashtbl.replace rooted !Span.query ();
    let lp = Lp.Problem.copy (Milp.Model.lp enc.Encoding.Encoder.model) in
    Lp.Problem.set_objective lp (Encoding.Encoder.output_objective enc output);
    List.iter
      (fun (core, name) ->
        let fb = Lp.Simplex.sparse_fallbacks () in
        let sol =
          Span.with_ ~extra:true name (fun () -> Lp.Simplex.solve ~core lp)
        in
        if core = Lp.Simplex.Sparse then
          Span.add "lp.root_iterations" (float_of_int sol.Lp.Simplex.iterations);
        Span.add "lp.dense_fallbacks"
          (float_of_int (Lp.Simplex.sparse_fallbacks () - fb)))
      [
        (Lp.Simplex.Sparse, "lp.root_sparse"); (Lp.Simplex.Dense, "lp.root_dense");
      ]
  end

let milp ?cutoff ?primal_heuristic ?(node_bound = true) ?on_leaf ~net ~box
    (enc : Encoding.Encoder.t) ~output =
  let node_bound =
    if not node_bound then None
    else begin
      let nb = Encoding.Encoder.symbolic_node_bound enc net box ~output in
      Some (fun fixes -> Span.with_ "absint.node_bound" (fun () -> nb fixes))
    end
  in
  let on_leaf fixes cert =
    (match cert with
     | Milp.Solver.Leaf_uncertified _ -> Span.add "milp.leaves_uncertified" 1.0
     | Milp.Solver.Leaf_bounded _ | Milp.Solver.Leaf_infeasible _
     | Milp.Solver.Leaf_empty_row _ ->
         Span.add "milp.leaves_certified" 1.0);
    Option.iter (fun f -> f fixes cert) on_leaf
  in
  let fb = Lp.Simplex.sparse_fallbacks () in
  let r =
    Span.with_ "milp.solve" (fun () ->
        Milp.Solver.solve ~time_limit ?cutoff
          ~branch_rule:
            (Milp.Solver.Priority (Encoding.Encoder.layer_order_priority enc))
          ?primal_heuristic ?node_bound
          ~objective:(Encoding.Encoder.output_objective enc output)
          ~warm:true ~on_leaf enc.Encoding.Encoder.model)
  in
  let fallbacks = Lp.Simplex.sparse_fallbacks () - fb in
  Span.add "lp.dense_fallbacks" (float_of_int fallbacks);
  Span.add "milp.node_fallbacks" (float_of_int fallbacks);
  Span.add "milp.nodes" (float_of_int r.Milp.Solver.nodes);
  Span.add "milp.lp_iterations" (float_of_int r.Milp.Solver.lp_iterations);
  Option.iter (Span.sample "milp.first_incumbent_s")
    r.Milp.Solver.first_incumbent_elapsed;
  r

(* [Verify.Driver.max_lateral_velocity]: OBBT encode, then one exact
   maximisation per component with the forward-run primal heuristic. *)
let maximize net box =
  let enc = encode_stats ~obbt:true net box in
  ignore (symbolic ~extra:true net box : Absint.Symbolic.t);
  List.fold_left
    (fun best k ->
      let output = output_of k in
      root_lp enc ~output;
      let primal_heuristic relaxation =
        let input = Encoding.Encoder.input_point enc relaxation in
        let point = Encoding.Encoder.assignment_of_input enc net input in
        Some (point, point.(enc.Encoding.Encoder.output_vars.(output)))
      in
      let r = milp ~primal_heuristic ~net ~box enc ~output in
      match r.Milp.Solver.incumbent with
      | Some (_, v) -> Float.max best v
      | None -> best)
    neg_infinity
    (List.init components Fun.id)

(* The plain decision query: OBBT encode, zero-node pre-pass, then a
   cutoff solve per pending component until one is refuted. *)
let decide_plain ~threshold net box =
  let enc = encode_stats ~obbt:true net box in
  ignore (symbolic ~extra:true net box : Absint.Symbolic.t);
  let pending =
    List.filter
      (fun k -> output_upper enc (output_of k) > threshold)
      (List.init components Fun.id)
  in
  let rec go = function
    | [] -> "proved"
    | k :: rest -> (
        let output = output_of k in
        root_lp enc ~output;
        let r = milp ~cutoff:threshold ~net ~box enc ~output in
        match (r.Milp.Solver.incumbent, r.Milp.Solver.outcome) with
        | Some _, _ -> "disproved"
        | None, Milp.Solver.Optimal -> go rest
        | None, _ -> "unknown")
  in
  go pending

(* One certificate: self-checked, rendered and, with [dir], journaled.
   False when the self-check rejects it. *)
let emit_cert ?dir ~net_hash ~prop ~prop_hash net k verdict body =
  let cert =
    {
      Certify.Certificate.net_hash;
      property = prop;
      component = k;
      output = output_of k;
      body;
    }
  in
  let t0 = now () in
  let checked = Certify.Audit.check_certificate net cert in
  let t1 = now () in
  Span.record "certify.check" ~start:t0 ~stop:t1;
  let ok = Result.is_ok checked in
  let text = Span.with_ "certify.emit" (fun () -> Certify.Certificate.to_string cert) in
  Span.add "certify.certificates" 1.0;
  Span.add "certify.cert_bytes" (float_of_int (String.length text));
  Option.iter
    (fun dir ->
      Span.with_ "certify.write" (fun () ->
          let name = Printf.sprintf "component-%d.cert" k in
          Certify.Journal.write_cert ~dir ~name text;
          Certify.Journal.append ~dir
            {
              Certify.Journal.component = k;
              verdict = (if ok then verdict else "unknown");
              cert_file = Some name;
              net_hash;
              prop_hash;
            }))
    dir;
  ok

(* The certifying decision query on one box: rounds-0 encode, per
   component either the symbolic hyperplane (when it replays) or a
   leaf-streaming MILP, each conclusion turned into a certificate,
   self-checked and, with [dir], journaled. *)
let decide_certified ?dir ~net_hash ~threshold net box =
  let enc = encode_stats ~obbt:false net box in
  let prop = property ~threshold box in
  let prop_hash = Certify.Certificate.property_hash ~net_hash prop in
  Option.iter Certify.Journal.init dir;
  let sym = lazy (symbolic net box) in
  let emit = emit_cert ?dir ~net_hash ~prop ~prop_hash net in
  let rec go = function
    | [] -> "proved"
    | k :: rest ->
        let output = output_of k in
        let ub = output_upper enc output in
        let presolved =
          ub <= threshold
          &&
          let coeffs, const =
            Absint.Symbolic.output_upper_form (Lazy.force sym) net ~output
          in
          emit k "proved"
            (Certify.Certificate.Presolve { coeffs; const; bound = ub })
        in
        if presolved then go rest
        else begin
          root_lp enc ~output;
          let leaves = ref [] in
          let on_leaf fixes cert =
            let evidence =
              match cert with
              | Milp.Solver.Leaf_bounded y -> Certify.Certificate.Ev_bounded y
              | Milp.Solver.Leaf_infeasible y -> Certify.Certificate.Ev_infeasible y
              | Milp.Solver.Leaf_empty_row i -> Certify.Certificate.Ev_empty_row i
              | Milp.Solver.Leaf_uncertified why ->
                  Certify.Certificate.Ev_unsupported why
            in
            leaves :=
              { Certify.Certificate.fixes = Array.of_list (List.rev fixes); evidence }
              :: !leaves
          in
          let r =
            milp ~cutoff:threshold ~node_bound:false ~on_leaf ~net ~box enc ~output
          in
          match (r.Milp.Solver.incumbent, r.Milp.Solver.outcome) with
          | Some (solution, _), _ ->
              let input = Encoding.Encoder.input_point enc solution in
              let achieved = (Nn.Network.forward net input).(output) in
              ignore
                (emit k "disproved"
                   (Certify.Certificate.Witness { input; achieved })
                  : bool);
              "disproved"
          | None, Milp.Solver.Optimal ->
              let model_hash =
                Span.with_ "certify.emit" (fun () ->
                    Certify.Certificate.model_fingerprint enc.Encoding.Encoder.model)
              in
              ignore
                (emit k "proved"
                   (Certify.Certificate.Milp_tree
                      { model_hash; leaves = Array.of_list (List.rev !leaves) })
                  : bool);
              go rest
          | None, _ -> "unknown"
        end
  in
  go (List.init components Fun.id)

(* A proof-store lookup, named by the kind of answer it produced. *)
let lookup ?(extra = false) store ~net_hash prop =
  let t0 = now () in
  let hit = Certify.Store.lookup store ~net_hash prop in
  let t1 = now () in
  let name =
    match hit with
    | Some { Certify.Store.exact = true; _ } -> "certify.lookup_exact"
    | Some { Certify.Store.exact = false; _ } -> "certify.lookup_subsumed"
    | None -> "certify.lookup_miss"
  in
  Span.record ~extra name ~start:t0 ~stop:t1;
  hit

(* Cross-network revalidation of a stored disproof: the witness is run
   forward through this network and, when its best component still
   beats the threshold, journaled as this leaf's witness certificate. *)
let revalidate_witness ~dir ~net_hash ~prop ~prop_hash ~threshold net input =
  let outputs = Span.with_ "verify.revalidate" (fun () -> Nn.Network.forward net input) in
  let k =
    List.fold_left
      (fun best k -> if outputs.(output_of k) > outputs.(output_of best) then k else best)
      0
      (List.init components Fun.id)
  in
  let achieved = outputs.(output_of k) in
  achieved > threshold
  && begin
    Certify.Journal.init dir;
    emit_cert ~dir ~net_hash ~prop ~prop_hash net k "disproved"
      (Certify.Certificate.Witness { input; achieved })
  end

(* [Verify.Driver.prove_lateral_velocity_le ~split:Auto ~store]: plan,
   write the shard manifest, then per leaf store lookup, revalidation
   candidates, certified solve into the leaf directory and store record.
   A leaf whose box holds another network's stored witness is settled by
   replaying it. Returns the verdict and the leaf properties. *)
let decide_partitioned ~store ~net_hash ~threshold net box =
  let root = Certify.Store.root store in
  let plan =
    Span.with_ "verify.plan" (fun () ->
        Verify.Partition.plan ~policy:Verify.Partition.Auto
          ~deadline:(now () +. (0.25 *. time_limit))
          ~components ~threshold net box)
  in
  let boxes = plan.Verify.Partition.boxes in
  let props = Array.map (fun b -> property ~threshold b) boxes in
  let hashes = Array.map (Certify.Certificate.property_hash ~net_hash) props in
  Span.with_ "certify.write" (fun () ->
      let parent = Certify.Certificate.property_hash ~net_hash (property ~threshold box) in
      Certify.Journal.write_cert ~dir:root
        ~name:(Certify.Shard.manifest_name ~prop_hash:parent)
        (Certify.Shard.to_string
           {
             Certify.Shard.net_hash;
             property = property ~threshold box;
             tree = plan.Verify.Partition.tree;
             leaf_hashes = hashes;
           }));
  let rec go i =
    if i >= Array.length boxes then "proved"
    else
      match lookup store ~net_hash props.(i) with
      | Some { Certify.Store.entry; _ } ->
          if entry.Certify.Store.verdict = Certify.Store.Proved then go (i + 1)
          else "disproved"
      | None ->
          let dir = Filename.concat root hashes.(i) in
          let candidates =
            Span.with_ "certify.revalidation" (fun () ->
                Certify.Store.revalidation_candidates store ~net_hash props.(i))
          in
          let witness =
            List.find_map
              (fun (e : Certify.Store.entry) ->
                match e.Certify.Store.verdict with
                | Certify.Store.Disproved { witness = input; _ }
                  when Interval.Box.contains boxes.(i) input ->
                    Some input
                | _ -> None)
              candidates
          in
          let revalidated =
            match witness with
            | None -> false
            | Some input ->
                revalidate_witness ~dir ~net_hash ~prop:props.(i)
                  ~prop_hash:hashes.(i) ~threshold net input
          in
          let v =
            if revalidated then "disproved"
            else decide_certified ~dir ~net_hash ~threshold net boxes.(i)
          in
          ignore
            (Span.with_ "certify.record" (fun () ->
                 Certify.Store.record store ~net_hash props.(i))
              : Certify.Store.entry option);
          if v = "proved" then go (i + 1) else v
  in
  (go 0, props)

(* {1 Reduction to per-layer metrics} *)

(* Self-time of the layer spans of [queries]: everything but the
   per-query glue span and the measurement-only spans. *)
let layer_self ~queries =
  List.fold_left
    (fun acc ((s : Span.span), self) ->
      if s.Span.extra || s.Span.name = "query" || not (List.mem s.Span.query queries)
      then acc
      else acc +. self)
    0.0 (Span.self_times ())

let extra_time ~queries =
  List.fold_left
    (fun acc (s : Span.span) ->
      (* Extra spans are never nested in one another. *)
      if s.Span.extra && List.mem s.Span.query queries then acc +. Span.duration s
      else acc)
    0.0 !Span.spans

let ms xs = List.map (fun s -> 1e3 *. s) xs
let us xs = List.map (fun s -> 1e6 *. s) xs

(* Every per-layer metric the workloads can produce, from the spans and
   counts recorded so far. A layer idle in this workload reports 0 with
   a sample count of 0. *)
let emit_layers () =
  let c = Span.count in
  let n name = List.length (Span.named name) in
  emit ~count:(n "absint.symbolic") "absint.symbolic_calls" "count"
    (float_of_int (n "absint.symbolic"));
  emit ~count:(n "absint.symbolic") "absint.symbolic_s" "s" (Span.total "absint.symbolic");
  emit ~count:(n "absint.node_bound") "absint.node_bound_calls" "count"
    (float_of_int (n "absint.node_bound"));
  emit ~count:(n "absint.node_bound") "absint.node_bound_s" "s"
    (Span.total "absint.node_bound");
  let encodes = n "encoding.encode" and obbts = n "encoding.obbt" in
  emit ~count:encodes "encoding.encode_s" "s" (Span.total "encoding.encode");
  emit ~count:encodes "encoding.binaries" "count" (c "encoding.binaries");
  emit ~count:encodes "encoding.lp_nnz" "count" (c "encoding.lp_nnz");
  emit ~count:obbts "encoding.obbt_s" "s" (c "encoding.obbt_s");
  emit ~count:obbts "encoding.obbt_refined" "count" (c "encoding.obbt_refined");
  emit ~count:obbts "encoding.obbt_failed" "count" (c "encoding.obbt_failed");
  emit ~count:obbts "encoding.obbt_skipped" "count" (c "encoding.obbt_skipped");
  emit_median "lp.root_sparse_ms" "ms" (ms (Span.durations "lp.root_sparse"));
  emit_median "lp.root_dense_ms" "ms" (ms (Span.durations "lp.root_dense"));
  let roots = n "lp.root_sparse" in
  emit ~count:roots "lp.root_iterations" "count" (c "lp.root_iterations");
  let solves = n "milp.solve" in
  emit ~count:(roots + solves) "lp.dense_fallbacks" "count" (c "lp.dense_fallbacks");
  let nodes = c "milp.nodes" in
  let per x = if nodes > 0.0 then x /. nodes else 0.0 in
  emit ~count:solves "lp.fallbacks_per_node" "1/node" (per (c "milp.node_fallbacks"));
  let solve_s = Span.total "milp.solve" in
  emit ~count:solves "milp.solve_s" "s" solve_s;
  emit ~count:solves "milp.nodes" "count" nodes;
  emit ~count:solves "milp.nodes_per_s" "1/s"
    (if solve_s > 0.0 then nodes /. solve_s else 0.0);
  emit ~count:solves "milp.lp_iterations" "count" (c "milp.lp_iterations");
  emit ~count:solves "milp.iterations_per_node" "1/node" (per (c "milp.lp_iterations"));
  emit_median "milp.first_incumbent_s" "s" (Span.samples_of "milp.first_incumbent_s");
  emit ~count:solves "milp.leaves_certified" "count" (c "milp.leaves_certified");
  emit ~count:solves "milp.leaves_uncertified" "count" (c "milp.leaves_uncertified");
  emit ~count:(n "verify.plan") "verify.plan_s" "s" (Span.total "verify.plan");
  let certs = int_of_float (c "certify.certificates") in
  emit ~count:certs "certify.certificates" "count" (c "certify.certificates");
  emit ~count:certs "certify.cert_bytes" "bytes" (c "certify.cert_bytes");
  emit_median "certify.check_ms" "ms" (ms (Span.durations "certify.check"));
  emit_median "certify.lookup_exact_us" "us" (us (Span.durations "certify.lookup_exact"));
  emit_median "certify.lookup_subsumed_us" "us"
    (us (Span.durations "certify.lookup_subsumed"))
