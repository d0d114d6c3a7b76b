(* depnn benchmark: one command per workload run.

     main.exe --workload table2|reverify|serve_hits --seed N --seconds S --trace 0|1

   With [--trace 0] the run measures the workload through the public
   entry points and prints the end-to-end metrics; with [--trace 1] it
   runs the workload once untraced as a reference, replays the same
   queries through each layer with spans, and prints the per-layer
   metrics. Every verdict is checked; any failed check makes the exit
   code non-zero. The last line of standard output is the result
   object. *)

open Common

let end_to_end = [ "setup_s"; "campaign_s"; "audit_s" ]

let per_layer =
  [
    "highway.record_s"; "dataset.sanitize_s"; "dataset.accepted_frac";
    "train.fit_s"; "train.samples_per_s";
    "absint.symbolic_calls"; "absint.symbolic_s"; "absint.node_bound_calls";
    "absint.node_bound_s";
    "encoding.encode_s"; "encoding.binaries"; "encoding.lp_nnz"; "encoding.obbt_s";
    "encoding.obbt_refined"; "encoding.obbt_failed"; "encoding.obbt_skipped";
    "lp.root_sparse_ms"; "lp.root_dense_ms"; "lp.root_iterations";
    "lp.dense_fallbacks"; "lp.fallbacks_per_node";
    "milp.solve_s"; "milp.nodes"; "milp.nodes_per_s"; "milp.lp_iterations";
    "milp.iterations_per_node"; "milp.first_incumbent_s"; "milp.leaves_certified";
    "milp.leaves_uncertified";
    "verify.plan_s"; "verify.leaves"; "verify.presolved"; "verify.cached";
    "verify.revalidated"; "verify.solved"; "verify.unsettled"; "verify.reuse_frac";
    "verify.budget_overrun_s";
    "certify.certificates"; "certify.cert_bytes"; "certify.check_ms";
    "certify.store_open_s"; "certify.store_entries"; "certify.lookup_exact_us";
    "certify.lookup_subsumed_us";
    "serve.solve_s"; "serve.queue_wait_s"; "serve.hit_frac"; "serve.queue_depth_max";
    "serve.rejected"; "serve.failed_workers";
    "trace.overhead_frac"; "trace.coverage_frac";
  ]

(* Units of per-layer metrics a workload leaves idle (reported as 0
   with a sample count of 0). *)
let idle_unit name =
  let suffix s = Filename.check_suffix name s in
  if suffix "per_s" then "1/s"
  else if suffix "per_node" then "1/node"
  else if suffix "_ms" then "ms"
  else if suffix "_us" then "us"
  else if suffix "_s" then "s"
  else if suffix "_frac" then "ratio"
  else if suffix "bytes" then "bytes"
  else "count"

(* Parts of a driver call the replay cannot time on their own, with the
   workloads they apply to. *)
let not_separable =
  [
    ( [ "table2"; "reverify"; "serve_hits" ],
      "node LP re-solves inside Milp.Solver.solve (only root relaxations are \
       timed per core; node LPs count as milp self-time)" );
    ( [ "table2"; "reverify"; "serve_hits" ],
      "the symbolic analysis inside Encoder.encode (absint spans time separate \
       propagations of the same boxes)" );
    ( [ "table2"; "reverify" ],
      "the driver's budget slicing and leaf bookkeeping (outside every layer \
       span)" );
    ( [ "serve_hits" ],
      "the server's accept loop and queue (serve.queue_wait_s is round trip \
       minus solve_s)" );
  ]

(* {1 Run metadata} *)

let git_sha () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head -> (
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" ->
          let ref_ = String.sub head (i + 1) (String.length head - i - 1) in
          Option.value ~default:("unresolved " ^ ref_) (read (Filename.concat ".git" ref_))
      | _ -> head)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let usage () =
  prerr_endline
    "usage: main.exe --workload table2|reverify|serve_hits --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--serve-child"; socket; cache ] -> Serve_mix.serve_child ~socket ~cache
  | _ :: args ->
      let rec parse acc = function
        | [] -> acc
        | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
            parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let workload = get "workload" in
      let seed = int "seed" and seconds = int "seconds" in
      let trace =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let run =
        match workload with
        | "table2" -> Table2.run
        | "reverify" -> Reverify.run
        | "serve_hits" -> Serve_mix.run
        | _ -> usage ()
      in
      let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int trace) in
      work_dir := Filename.concat run_root (Printf.sprintf "%s-%d" tag (Unix.getpid ()));
      mkdir_p !work_dir;
      let started = now () in
      Fun.protect
        ~finally:(fun () -> rm_rf !work_dir)
        (fun () -> run ~seed ~seconds:(float_of_int seconds) ~trace);
      let wall = now () -. started in
      if not trace then
        emit ~count:!attempted "ops_failed_frac" "ratio"
          (float_of_int !failed /. float_of_int (max 1 !attempted));
      if trace then Span.write_jsonl (Filename.concat run_root (tag ^ ".spans.jsonl"));
      let wanted = if trace then per_layer else end_to_end in
      let found name = List.find_opt (fun m -> m.name = name) !metrics in
      let reported =
        List.map
          (fun name ->
            match found name with
            | Some m when m.count > 0 || trace -> m
            | Some _ -> failwith ("no samples for end-to-end metric " ^ name)
            | None when trace -> { name; unit_ = idle_unit name; value = 0.0; count = 0 }
            | None -> failwith ("no value for end-to-end metric " ^ name))
          wanted
      in
      (* Everything measured, wanted or not, by name and unit. *)
      List.iter
        (fun m ->
          Printf.printf "metric %-28s %14.6f %-6s (n=%d)\n" m.name m.value m.unit_ m.count)
        (List.rev !metrics);
      List.iter
        (fun key ->
          let ts = Hashtbl.find unit_times key in
          Printf.printf "unit %-52s mean %10.6f s  fastest %10.6f s  (n=%d)\n" key
            (mean ts) (List.fold_left Float.min infinity ts) (List.length ts))
        (List.rev !unit_order);
      List.iter (Printf.printf "note %s\n") (List.rev !notes);
      if trace then
        List.iter
          (fun (workloads, what) ->
            if List.mem workload workloads then Printf.printf "not-separable %s\n" what)
          not_separable;
      let samples =
        String.concat ","
          (List.map (fun m -> Printf.sprintf "%S:%d" m.name m.count) (List.rev !metrics))
      in
      let meta =
        Printf.sprintf
          "{\"workload\":%S,\"seed\":%d,\"seconds\":%d,\"trace\":%b,\
           \"nproc\":%d,\"git_sha\":%S,\"ocaml\":%S,\"wall_s\":%s,\
           \"attempted\":%d,\"failed\":%d,\"samples\":{%s}}"
          workload seed seconds trace (Domain.recommended_domain_count ()) (git_sha ())
          Sys.ocaml_version (json_float wall) !attempted !failed samples
      in
      print_endline ("metadata " ^ meta);
      let oc = open_out (Filename.concat run_root (tag ^ ".json")) in
      output_string oc (meta ^ "\n");
      close_out oc;
      (* Every repetition of every unit, in run order. *)
      let oc = open_out (Filename.concat run_root (tag ^ ".units.json")) in
      output_string oc
        ("{"
        ^ String.concat ","
            (List.map
               (fun key ->
                 Printf.sprintf "%S:[%s]" key
                   (String.concat ","
                      (List.rev_map json_float (Hashtbl.find unit_times key))))
               (List.rev !unit_order))
        ^ "}\n");
      close_out oc;
      let correct = !failed = 0 && !attempted > 0 in
      Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
        correct !attempted !failed
        (String.concat ","
           (List.map
              (fun m ->
                Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_float m.value)
                  m.unit_)
              reported));
      if not correct then exit 1
  | [] -> usage ()
