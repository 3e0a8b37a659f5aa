(* drr -- distributed routing reproduction CLI.

   Subcommands:
     drr build       build a routing scheme on a generated graph and print
                     its measured parameters (rounds, table/label words,
                     memory); --json emits the full report as JSON
     drr route       build and route queries, printing paths and stretch
     drr tree        run the distributed tree-routing protocol on the
                     simulator; --json emits the full report as JSON
     drr trace       run the tree protocol under a trace and print the
                     per-phase round breakdown and histograms
     drr json-check  validate that files parse as the JSON this repo emits
     drr info        print graph statistics for a generated workload *)

open Cmdliner
open Dgraph

(* ---- shared options ---- *)

let json_t =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the full report as JSON on stdout instead of text.")

let seed_t =
  Arg.(value & opt int 2026 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let n_t = Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc:"Number of vertices.")

let k_t =
  Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"Stretch parameter (stretch 4k-3).")

let rounds_limit_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "rounds-limit" ] ~docv:"R"
        ~doc:
          "Abort the simulation after $(docv) rounds (outcome Round_limit) \
           instead of the simulator default.")

type topology = Er | Grid | Torus | Rtree | Ba | Ring | Dumbbell

let topology_t =
  let alts =
    [ ("er", Er); ("grid", Grid); ("torus", Torus); ("tree", Rtree); ("ba", Ba);
      ("ring", Ring); ("dumbbell", Dumbbell) ]
  in
  let doc =
    Printf.sprintf "Workload topology, one of %s." (Arg.doc_alts_enum alts)
  in
  Arg.(value & opt (enum alts) Er & info [ "topology"; "t" ] ~docv:"TOPO" ~doc)

let make_graph ~seed ~n topology =
  let rng = Random.State.make [| seed |] in
  let w = Gen.uniform_weights 1.0 8.0 in
  match topology with
  | Er -> Gen.connected_erdos_renyi ~rng ~weights:w ~n ~avg_deg:5.0 ()
  | Grid ->
    let side = int_of_float (sqrt (float_of_int n)) in
    Gen.grid ~rng ~weights:w ~rows:side ~cols:side ()
  | Torus ->
    let side = int_of_float (sqrt (float_of_int n)) in
    Gen.torus ~rng ~weights:w ~rows:side ~cols:side ()
  | Rtree -> Gen.random_tree ~rng ~weights:w ~n ()
  | Ba -> Gen.preferential_attachment ~rng ~weights:w ~n ~out_deg:3 ()
  | Ring -> Gen.ring ~rng ~weights:w ~n ()
  | Dumbbell -> Gen.dumbbell ~rng ~weights:w ~side:(n / 2) ~bridge:(n / 8) ()

(* fault-injection and transport flags, shared by every subcommand that
   drives the simulator *)

let faults_t =
  let drop_t =
    Arg.(
      value & opt float 0.0
      & info [ "drop-prob" ] ~docv:"P" ~doc:"Per-message drop probability.")
  in
  let dup_t =
    Arg.(
      value & opt float 0.0
      & info [ "dup-prob" ] ~docv:"P" ~doc:"Per-message duplication probability.")
  in
  let delay_t =
    Arg.(
      value & opt float 0.0
      & info [ "delay-prob" ] ~docv:"P" ~doc:"Per-message delay probability.")
  in
  let max_delay_t =
    Arg.(
      value & opt int 3
      & info [ "max-delay" ] ~docv:"R" ~doc:"Maximum delay in rounds for delayed messages.")
  in
  let link_fail_t =
    Arg.(
      value
      & opt_all (t3 ~sep:',' int int int) []
      & info [ "link-fail" ] ~docv:"U,V,R"
          ~doc:"Fail the link $(i,U)-$(i,V) permanently from round $(i,R) on (repeatable).")
  in
  let crash_t =
    Arg.(
      value
      & opt_all (t2 ~sep:',' int int) []
      & info [ "crash" ] ~docv:"V,R"
          ~doc:"Crash-stop vertex $(i,V) at round $(i,R) (repeatable).")
  in
  let fault_seed_t =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed of the fault plan's random stream.")
  in
  let mk drop dup delay max_delay link_fail crash fault_seed =
    let spec =
      {
        Congest.Fault.seed = fault_seed;
        drop;
        duplicate = dup;
        delay;
        max_delay;
        link_failures = link_fail;
        link_flaps = [];
        crashes = crash;
      }
    in
    (* is_none ignores seed and max_delay: on their own they alter no
       message, so they must not force the reliable transport on *)
    if Congest.Fault.is_none spec then None else Some (Congest.Fault.make spec)
  in
  Term.(
    const mk $ drop_t $ dup_t $ delay_t $ max_delay_t $ link_fail_t $ crash_t
    $ fault_seed_t)

let reliable_t =
  Arg.(
    value
    & opt (some bool) None
    & info [ "reliable" ] ~docv:"BOOL"
        ~doc:
          "Run over the reliable transport (default: true exactly when any \
           fault is injected).")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Shard the simulator's event engine across $(docv) OCaml domains \
           (outcome is bit-identical to --domains 1).")

let q_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "q" ] ~docv:"Q" ~doc:"Sampling probability (default 1/sqrt n).")

let pp_fault_plan faults reliable =
  match faults with
  | None -> ()
  | Some f ->
    let s = Congest.Fault.spec f in
    Format.printf
      "fault plan: seed=%d drop=%.3f dup=%.3f delay=%.3f/%d link-fails=%d \
       crashes=%d (transport: %s)@."
      s.Congest.Fault.seed s.Congest.Fault.drop s.Congest.Fault.duplicate
      s.Congest.Fault.delay s.Congest.Fault.max_delay
      (List.length s.Congest.Fault.link_failures)
      (List.length s.Congest.Fault.crashes)
      (match reliable with Some false -> "raw" | _ -> "reliable")

let pp_fault_counters (m : Congest.Metrics.t) =
  if m.dropped + m.duplicated + m.delayed + m.retransmitted > 0 then
    Format.printf "faults: dropped %d, duplicated %d, delayed %d; retransmitted %d@."
      m.dropped m.duplicated m.delayed m.retransmitted

let pp_failures = function
  | [] -> ()
  | fs ->
    Format.printf "PROTOCOL FAILURES:@.";
    List.iter (fun f -> Format.printf "  %a@." Routing.Protocol.pp_failure f) fs

let failures_json fs =
  let open Congest.Export.Json in
  Arr (List.map (fun f -> Str (Routing.Protocol.failure_to_string f)) fs)

(* ---- info ---- *)

let info_cmd =
  let run seed n topology =
    let g = make_graph ~seed ~n topology in
    let rng = Random.State.make [| seed; 1 |] in
    Format.printf "%a@." Graph.pp g;
    Format.printf "hop-diameter (estimate): %d@." (Diameter.hop_diameter_estimate g);
    Format.printf "shortest-path diameter (sampled): %d@."
      (Diameter.shortest_path_diameter ~samples:20 ~rng g);
    Format.printf "degeneracy: %d@." (Arboricity.degeneracy g);
    Format.printf "aspect ratio (approx): %.1f@." (Diameter.aspect_ratio g)
  in
  Cmd.v (Cmd.info "info" ~doc:"Print workload statistics.")
    Term.(const run $ seed_t $ n_t $ topology_t)

(* ---- build ---- *)

let scheme_json ~g ~k scheme trace =
  let open Congest.Export.Json in
  let hist = Congest.Histogram.of_array (Routing.Scheme.per_vertex_memory scheme) in
  Obj
    [
      ("command", Str "build");
      ("n", Int (Graph.n g));
      ("m", Int (Graph.m g));
      ("k", Int k);
      ("cost", Routing.Cost.to_json (Routing.Scheme.cost scheme));
      ("total_rounds", Int (Routing.Cost.total_rounds (Routing.Scheme.cost scheme)));
      ("virtual_size", Int (Routing.Scheme.virtual_size scheme));
      ("b", Int (Routing.Scheme.b_bound scheme));
      ("beta", Int (Routing.Scheme.beta scheme));
      ("hopset_size", Int (Routing.Scheme.hopset_size scheme));
      ("max_table_words", Int (Routing.Scheme.max_table_words scheme));
      ("max_label_words", Int (Routing.Scheme.max_label_words scheme));
      ("peak_memory_words", Int (Routing.Scheme.peak_memory_words scheme));
      ("avg_memory_words", Float (Routing.Scheme.avg_memory_words scheme));
      ("memory", Congest.Export.histogram hist);
      ( "trace",
        match trace with None -> Null | Some tr -> Congest.Export.trace tr );
    ]

let build_cmd =
  let run seed n k topology json =
    let g = make_graph ~seed ~n topology in
    let rng = Random.State.make [| seed; 2 |] in
    if json then begin
      let tr = Congest.Trace.make () in
      let scheme = Routing.Scheme.build ~rng ~k ~trace:tr g in
      print_endline
        (Congest.Export.Json.to_string (scheme_json ~g ~k scheme (Some tr)))
    end
    else begin
      Format.printf "building Elkin-Neiman scheme on %a with k=%d...@." Graph.pp g k;
      let scheme = Routing.Scheme.build ~rng ~k g in
      Format.printf "@.%a@.@." Routing.Cost.pp (Routing.Scheme.cost scheme);
      Format.printf "virtual vertices |V'| = %d, B = %d, beta = %d@."
        (Routing.Scheme.virtual_size scheme)
        (Routing.Scheme.b_bound scheme) (Routing.Scheme.beta scheme);
      Format.printf "hopset: %d edges, max per-vertex store %d@."
        (Routing.Scheme.hopset_size scheme)
        (Routing.Scheme.hopset_max_store scheme);
      Format.printf "max table: %d words, max label: %d words@."
        (Routing.Scheme.max_table_words scheme)
        (Routing.Scheme.max_label_words scheme);
      Format.printf "peak memory: %d words, avg: %.1f words@."
        (Routing.Scheme.peak_memory_words scheme)
        (Routing.Scheme.avg_memory_words scheme)
    end
  in
  Cmd.v (Cmd.info "build" ~doc:"Build a routing scheme and print measured parameters.")
    Term.(const run $ seed_t $ n_t $ k_t $ topology_t $ json_t)

(* ---- route ---- *)

let route_cmd =
  let pairs_t =
    Arg.(value & opt int 10 & info [ "pairs" ] ~docv:"P" ~doc:"Number of random queries.")
  in
  let run seed n k topology pairs =
    let g = make_graph ~seed ~n topology in
    let rng = Random.State.make [| seed; 3 |] in
    let scheme = Routing.Scheme.build ~rng ~k g in
    for _ = 1 to pairs do
      let src = Random.State.int rng (Graph.n g)
      and dst = Random.State.int rng (Graph.n g) in
      if src <> dst then begin
        let exact = (Sssp.dijkstra g ~src).Sssp.dist.(dst) in
        match Routing.Scheme.route scheme ~src ~dst with
        | Ok path ->
          Format.printf "%4d -> %-4d  stretch %.3f  path %s@." src dst
            (Sssp.path_weight g path /. exact)
            (String.concat "-" (List.map string_of_int path))
        | Error e ->
          Format.printf "%4d -> %-4d  FAILED: %s@." src dst
            (Tz.Routing_error.to_string e)
      end
    done;
    let stats =
      Routing.Stretch.evaluate ~rng ~pairs:1000 g ~route:(fun ~src ~dst ->
          Routing.Scheme.route scheme ~src ~dst)
    in
    Format.printf "@.aggregate over 1000 pairs: %a@." Routing.Stretch.pp stats
  in
  Cmd.v (Cmd.info "route" ~doc:"Route random queries and report stretch.")
    Term.(const run $ seed_t $ n_t $ k_t $ topology_t $ pairs_t)

(* ---- tree ---- *)

let tree_cmd =
  let run seed n topology q faults reliable rounds_limit domains json =
    let g = make_graph ~seed ~n topology in
    let rng = Random.State.make [| seed; 4 |] in
    let tree = Tree.bfs_spanning g ~root:0 in
    if not json then begin
      Format.printf "running the distributed tree-routing protocol on %a@." Graph.pp g;
      pp_fault_plan faults reliable
    end;
    let trace = if json then Some (Congest.Trace.make ()) else None in
    let out =
      Routing.Dist_tree_routing.run ~rng ?q ?faults ?reliable ?trace
        ?max_rounds:rounds_limit ~domains g ~tree
    in
    let m = out.Routing.Dist_tree_routing.report in
    if json then
      let open Congest.Export.Json in
      print_endline
        (to_string
           (Obj
              [
                ("command", Str "tree");
                ("n", Int (Graph.n g));
                ("m", Int (Graph.m g));
                ("metrics", Congest.Export.metrics m);
                ("u_count", Int out.Routing.Dist_tree_routing.u_count);
                ("d_bfs", Int out.Routing.Dist_tree_routing.d_bfs);
                ("failures", failures_json out.Routing.Dist_tree_routing.failures);
                ( "trace",
                  match trace with
                  | None -> Null
                  | Some tr -> Congest.Export.trace tr );
              ]))
    else begin
      pp_failures out.Routing.Dist_tree_routing.failures;
      Format.printf "rounds: %d@.messages: %d (%d words)@." m.Congest.Metrics.rounds
        m.Congest.Metrics.messages m.Congest.Metrics.message_words;
      pp_fault_counters m;
      Format.printf "|U(T)| = %d, ecc(root) = %d@." out.Routing.Dist_tree_routing.u_count
        out.Routing.Dist_tree_routing.d_bfs;
      Format.printf "peak memory: %d words (avg %.1f), max edge load: %d@."
        (Congest.Metrics.peak_memory_max m)
        (Congest.Metrics.peak_memory_avg m)
        m.Congest.Metrics.max_edge_load;
      (* verify — only meaningful when every vertex finished its tables *)
      if out.Routing.Dist_tree_routing.failures <> [] then
        Format.printf "scheme incomplete (unrecoverable faults): skipping route check@."
      else begin
        let r = Random.State.make [| seed; 5 |] in
        let nv = Graph.n g in
        let ok = ref true in
        for _ = 1 to 500 do
          let s = Random.State.int r nv and d = Random.State.int r nv in
          if
            Tz.Tree_routing.route out.Routing.Dist_tree_routing.scheme ~src:s ~dst:d
            <> Tree.path tree s d
          then ok := false
        done;
        Format.printf "exact on 500 sampled pairs: %b@." !ok;
        if not !ok then exit 1
      end
    end;
    if out.Routing.Dist_tree_routing.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "tree"
       ~doc:
         "Run the distributed tree-routing protocol on the simulator. Exits 1 \
          when the protocol reports failures or a sampled route differs from \
          the tree path.")
    Term.(
      const run $ seed_t $ n_t $ topology_t $ q_t $ faults_t $ reliable_t
      $ rounds_limit_t $ domains_t $ json_t)

(* ---- trace ---- *)

let trace_cmd =
  let run seed n topology q rounds_limit domains json =
    let g = make_graph ~seed ~n topology in
    let rng = Random.State.make [| seed; 4 |] in
    let tree = Tree.bfs_spanning g ~root:0 in
    let tr = Congest.Trace.make () in
    let t0 = Unix.gettimeofday () in
    let out =
      Routing.Dist_tree_routing.run ~rng ?q ~trace:tr ?max_rounds:rounds_limit
        ~domains g ~tree
    in
    let wall = Unix.gettimeofday () -. t0 in
    let m = out.Routing.Dist_tree_routing.report in
    let total = m.Congest.Metrics.rounds in
    let per_round =
      if total = 0 then 0.0
      else float_of_int m.Congest.Metrics.wakeups /. float_of_int total
    in
    if json then
      let open Congest.Export.Json in
      print_endline
        (to_string
           (Obj
              [
                ("command", Str "trace");
                ("n", Int (Graph.n g));
                ("m", Int (Graph.m g));
                ("wall_seconds", Float wall);
                ("wakeups_per_round", Float per_round);
                ( "phases",
                  Arr
                    (List.map
                       (fun (name, rounds) ->
                         Obj [ ("name", Str name); ("rounds", Int rounds) ])
                       (Congest.Trace.phase_breakdown tr ~total_rounds:total)) );
                ("metrics", Congest.Export.metrics m);
                ("failures", failures_json out.Routing.Dist_tree_routing.failures);
                ("trace", Congest.Export.trace tr);
              ]))
    else begin
      pp_failures out.Routing.Dist_tree_routing.failures;
      Format.printf "tree-routing protocol on %a: %d rounds@.@." Graph.pp g total;
      Format.printf "per-phase breakdown (root's phase spans):@.";
      List.iter
        (fun (name, rounds) ->
          Format.printf "  %-28s %8d rounds  %5.1f%%@." name rounds
            (if total = 0 then 0.0
             else 100.0 *. float_of_int rounds /. float_of_int total))
        (Congest.Trace.phase_breakdown tr ~total_rounds:total);
      Format.printf "  %-28s %8d rounds@.@." "TOTAL" total;
      Format.printf "message size:  %a@." Congest.Histogram.pp
        m.Congest.Metrics.message_size;
      Format.printf "edge load:     %a@." Congest.Histogram.pp
        m.Congest.Metrics.edge_load;
      Format.printf "vertex memory: %a@." Congest.Histogram.pp
        (Congest.Metrics.memory_hist m);
      Format.printf "spans recorded: %d, ring samples: %d, events: %d@."
        (List.length (Congest.Trace.spans tr))
        (Array.length (Congest.Trace.rounds tr))
        (Congest.Trace.events_recorded tr);
      Format.printf "wall-clock: %.3f s, wakeups: %d (%.1f per round)@." wall
        m.Congest.Metrics.wakeups per_round
    end;
    if out.Routing.Dist_tree_routing.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the tree-routing protocol under a trace and print the per-phase \
          round breakdown (rows sum to the measured round count). Exits 1 \
          when the protocol reports failures.")
    Term.(
      const run $ seed_t $ n_t $ topology_t $ q_t $ rounds_limit_t $ domains_t
      $ json_t)

(* ---- dist-scheme ---- *)

let dist_scheme_json ~full ~k g (p : Routing.Pipeline.t) =
  let open Congest.Export.Json in
  let ds = p.exact in
  let divergences = function Routing.Pipeline.Diverged ds -> ds | _ -> [] in
  (* gate_mode and divergences are null exactly when no gate ran *)
  let gated = p.exact_gate <> Skipped || p.upper_gate <> Skipped in
  let verdict v = Str (Routing.Pipeline.verdict_name v) in
  Obj
    [
      ("command", Str "dist-scheme");
      ("full", Bool full);
      ("n", Int (Graph.n g));
      ("m", Int (Graph.m g));
      ("k", Int k);
      ("b", Int ds.b);
      ("virtual_size", Int (List.length ds.members));
      ( "hopset_size",
        match p.upper with
        | Some { hopset = Some h; _ } -> Int (Hopsets.Hopset.size h)
        | _ -> Null );
      ( "phases",
        Arr
          (List.map2
             (fun (name, rounds) (_, (t : Routing.Superstep.traffic)) ->
               Obj
                 [
                   ("name", Str name);
                   ("rounds", Int rounds);
                   ("data_messages", Int t.data);
                   ("control_messages", Int t.control);
                   ("supersteps", Int t.supersteps);
                   ("detection_waves", Int t.waves);
                 ])
             p.phases p.traffic) );
      ("exact_stage_cost", Routing.Cost.to_json ds.exact.phases);
      ("metrics", Congest.Export.metrics p.metrics);
      ( "scheme_cost",
        match p.scheme with
        | Some s -> Routing.Cost.to_json (Routing.Scheme.cost s)
        | None -> Null );
      ( "gate_mode",
        if gated then Str (Routing.Dist_scheme.gate_mode_name p.gate_mode)
        else Null );
      ( "divergences",
        if gated then
          Arr
            (List.map
               (fun d -> Str d)
               (divergences p.exact_gate @ divergences p.upper_gate))
        else Null );
      ("gates", Obj [ ("exact", verdict p.exact_gate); ("upper", verdict p.upper_gate) ]);
      ("failures", failures_json p.failures);
    ]

let pp_dist_scheme ~full (p : Routing.Pipeline.t) =
  let ds = p.exact and m = p.metrics in
  pp_failures p.failures;
  Format.printf
    "measured phase spans (|V'| = %d, B = %d; data and control messages, \
     supersteps and detection waves):@."
    (List.length ds.members) ds.b;
  List.iter2
    (fun (name, rounds) (_, (t : Routing.Superstep.traffic)) ->
      Format.printf "  %-34s %8d rounds %9d %8d %5d %3d@." name rounds t.data
        t.control t.supersteps t.waves)
    p.phases p.traffic;
  Format.printf "rounds: %d@.messages: %d (%d words)@." m.rounds m.messages
    m.message_words;
  pp_fault_counters m;
  Format.printf "peak memory: %d words (avg %.1f), max edge load: %d@."
    (Congest.Metrics.peak_memory_max m)
    (Congest.Metrics.peak_memory_avg m)
    m.max_edge_load;
  if full then begin
    match p.scheme with
    | Some s ->
      Format.printf
        "spliced scheme: hopset %d edges, cost %d rounds (construction spans \
         measured, except the charged \"tree routing schemes\")@."
        (Routing.Scheme.hopset_size s)
        (Routing.Cost.total_rounds (Routing.Scheme.cost s))
    | None -> Format.printf "no scheme: pipeline stopped on failures@."
  end;
  let mode = Routing.Dist_scheme.gate_mode_name p.gate_mode in
  List.iter
    (fun (stage, (verdict : Routing.Pipeline.verdict)) ->
      match verdict with
      | Identical ->
        Format.printf "%s gate (%s): identical to centralized@." stage mode
      | Skipped -> Format.printf "%s gate: skipped@." stage
      | Diverged ds ->
        Format.printf "%s gate (%s): %d DIVERGENCES@." stage mode
          (List.length ds);
        List.iteri (fun i d -> if i < 10 then Format.printf "  %s@." d) ds)
    (("exact-stage", p.exact_gate)
    :: (if full then [ ("upper-stage", p.upper_gate) ] else []))

let dist_scheme_cmd =
  let b_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "b" ] ~docv:"B"
          ~doc:
            "Virtual-edge hop bound for the B-bounded wave (default: the \
             paper's 4*n^(ceil(k/2)/k)*ln n, capped at n-1).")
  in
  let no_check_t =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:"Skip the differential gates against the centralized computation.")
  in
  let full_t =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Run the complete distributed pipeline: exact stage, hopset \
             construction and approximate Bellman-Ford (Dist_hopset), then \
             splice the measured upper stage into the full routing scheme.")
  in
  let run seed n k topology b faults reliable rounds_limit domains no_check full
      json =
    let g = make_graph ~seed ~n topology in
    if not json then begin
      if full then
        Format.printf "executing the full Appendix B pipeline on %a with k=%d...@."
          Graph.pp g k
      else
        Format.printf "executing Appendix B's exact stage on %a with k=%d...@."
          Graph.pp g k;
      pp_fault_plan faults reliable
    end;
    let p =
      Routing.Pipeline.run ~rng:(Random.State.make [| seed; 6 |]) ~k
        ~params:{ Routing.Scheme.Params.default with b }
        ?faults ?reliable ?max_rounds:rounds_limit ~domains
        ~check:(not no_check) ~full g
    in
    if json then
      print_endline (Congest.Export.Json.to_string (dist_scheme_json ~full ~k g p))
    else pp_dist_scheme ~full p;
    let diverged = function Routing.Pipeline.Diverged _ -> true | _ -> false in
    if p.failures <> [] || diverged p.exact_gate || diverged p.upper_gate then
      exit 1
  in
  Cmd.v
    (Cmd.info "dist-scheme"
       ~doc:
         "Execute Appendix B's exact stage (pivot, cluster and virtual-edge \
          waves) as a CONGEST protocol and gate it against the centralized \
          computation; with $(b,--full), continue through the hopset \
          construction and approximate Bellman-Ford and splice the measured \
          upper stage into the full scheme. Exits 1 when a stage reports \
          failures or a gate finds a divergence.")
    Term.(
      const run $ seed_t $ n_t $ k_t $ topology_t $ b_t $ faults_t $ reliable_t
      $ rounds_limit_t $ domains_t $ no_check_t $ full_t $ json_t)

(* ---- churn ---- *)

let churn_cmd =
  let events_t =
    Arg.(
      value & opt int 200
      & info [ "events" ] ~docv:"E" ~doc:"Length of the mutation stream.")
  in
  let checkpoint_t =
    Arg.(
      value & opt int 50
      & info [ "checkpoint" ] ~docv:"C"
          ~doc:"Run the shadow differential gate every C generations.")
  in
  let spare_t =
    Arg.(
      value & opt int 4
      & info [ "spare" ] ~docv:"S"
          ~doc:"Isolated vertex slots appended as the join pool.")
  in
  let trigger_t =
    Arg.(
      value & opt float 1.0
      & info [ "trigger" ] ~docv:"F"
          ~doc:
            "Fraction of the last full build's round charge beyond which a \
             repair whose support-subtree-depth estimate of the cluster \
             regrows predicts it to cost escalates to a full bounded \
             rebuild.")
  in
  let run seed n k topology events checkpoint spare trigger json =
    let module Churn = Congest.Churn in
    let module Dyn = Routing.Dyn_scheme in
    let g = Churn.add_spare ~spare (make_graph ~seed ~n topology) in
    if not json then
      Format.printf
        "churning %a for %d generations (k=%d, gate every %d)...@." Graph.pp g
        events k checkpoint;
    let rng = Random.State.make [| seed; 6 |] in
    let t = Dyn.create ~params:{ Dyn.rebuild_trigger = trigger } ~rng ~k g in
    let stream = Churn.generate { Churn.default_spec with seed; events } g in
    let metrics = Congest.Metrics.create ~n:(Graph.n g) in
    let repairs = ref [] in
    let checkpoints = ref [] in
    let divergences = ref 0 in
    List.iter
      (fun (e : Churn.event) ->
        let rs = Dyn.apply ~metrics t e in
        repairs := List.rev_append rs !repairs;
        if e.Churn.gen mod checkpoint = 0 || e.Churn.gen = events then begin
          let errs = Dyn.check_against_shadow t in
          divergences := !divergences + List.length errs;
          checkpoints := (e.Churn.gen, errs) :: !checkpoints;
          if not json then begin
            (match errs with
            | [] ->
              Format.printf "  gen %4d: gate ok (%d repair rounds so far)@."
                e.Churn.gen (Dyn.stats t).Dyn.repair_rounds
            | ds ->
              Format.printf "  gen %4d: %d DIVERGENCES@." e.Churn.gen
                (List.length ds);
              List.iteri (fun i d -> if i < 5 then Format.printf "    %s@." d) ds)
          end
        end)
      stream;
    let stats = Dyn.stats t in
    let rebuild = Dyn.rebuild_charge t in
    let amortized =
      if stats.Dyn.events = 0 then 0.0
      else float_of_int stats.Dyn.repair_rounds /. float_of_int stats.Dyn.events
    in
    if json then
      let open Congest.Export.Json in
      print_endline
        (to_string
           (Obj
              [
                ("command", Str "churn");
                ("n", Int (Graph.n g));
                ("k", Int k);
                ("events", Int stats.Dyn.events);
                ("build_rounds", Int stats.Dyn.build_rounds);
                ("repair_rounds", Int stats.Dyn.repair_rounds);
                ("amortized_rounds_per_mutation", Float amortized);
                ("rebuild_rounds", Int rebuild);
                ("full_rebuilds", Int stats.Dyn.full_rebuilds);
                ("metrics", Congest.Export.metrics metrics);
                ( "checkpoints",
                  Arr
                    (List.rev_map
                       (fun (gen, errs) ->
                         Obj
                           [
                             ("gen", Int gen);
                             ("divergences", Int (List.length errs));
                           ])
                       !checkpoints) );
              ]))
    else begin
      Format.printf
        "events: %d (%a)@." stats.Dyn.events
        (fun ppf (m : Congest.Metrics.t) ->
          Format.fprintf ppf
            "ins %d, del %d, rew %d, join %d, leave %d, flap %d"
            m.Congest.Metrics.churn_inserts m.Congest.Metrics.churn_deletes
            m.Congest.Metrics.churn_reweights m.Congest.Metrics.churn_joins
            m.Congest.Metrics.churn_leaves m.Congest.Metrics.churn_flaps)
        metrics;
      Format.printf "initial build: %d rounds@." stats.Dyn.build_rounds;
      Format.printf
        "repair: %d rounds total, %.2f amortized/mutation (%d full rebuilds)@."
        stats.Dyn.repair_rounds amortized stats.Dyn.full_rebuilds;
      Format.printf "rebuild-from-scratch baseline: %d rounds/mutation@." rebuild
    end;
    if !divergences > 0 then begin
      if not json then
        Format.printf "differential gate: %d DIVERGENCES@." !divergences;
      exit 1
    end
    else if not json then
      Format.printf "differential gate: identical to centralized at every checkpoint@."
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Drive a generation-stamped mutation stream against the incremental \
          maintainer and gate it bit-exactly against a centralized shadow \
          recompute at checkpoints (exit 1 on any divergence).")
    Term.(
      const run $ seed_t $ n_t $ k_t $ topology_t $ events_t $ checkpoint_t
      $ spare_t $ trigger_t $ json_t)

(* ---- traffic ---- *)

let traffic_cmd =
  let queries_t =
    Arg.(
      value & opt int 20_000
      & info [ "queries" ] ~docv:"Q" ~doc:"Queries per traffic model.")
  in
  let model_t =
    let alts =
      [
        ("all", `All);
        ("uniform", `Uniform);
        ("zipf", `Zipf);
        ("gravity", `Gravity);
        ("bimodal", `Bimodal);
        ("far", `Far);
      ]
    in
    let doc =
      Printf.sprintf "Traffic model, one of %s." (Arg.doc_alts_enum alts)
    in
    Arg.(value & opt (enum alts) `All & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let zipf_s_t =
    Arg.(
      value & opt float 1.1
      & info [ "zipf-s" ] ~docv:"S" ~doc:"Skew exponent of the Zipf model.")
  in
  let no_check_t =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:
            "Skip the differential gate proving the packed router and oracle \
             bit-identical to the centralized reference.")
  in
  let run seed n k topology queries model zipf_s domains no_check json =
    let g = make_graph ~seed ~n topology in
    let rng = Random.State.make [| seed; 7 |] in
    if not json then
      Format.printf "serving traffic over %a (k=%d, stretch bound %d)@."
        Graph.pp g k ((4 * k) - 3);
    let h = Tz.Hierarchy.build ~rng ~k g in
    let clusters = Tz.Cluster.all g h in
    let gr = Tz.Graph_routing.of_parts ~k g h clusters in
    let oracle = Tz.Oracle.of_hierarchy g h in
    let packed = Serve.Packed_router.of_graph_routing gr in
    let poracle = Serve.Packed_oracle.of_oracle oracle in
    if not no_check then begin
      let grng = Random.State.make [| seed; 8 |] in
      let errs =
        Serve.Differential.check_router ~rng:grng gr packed ~pairs:1000
        @ Serve.Differential.check_oracle ~rng:grng oracle poracle ~pairs:1000
      in
      match errs with
      | [] ->
        if not json then
          Format.printf
            "differential gate: packed = centralized on 1000 router + 1000 \
             oracle pairs@."
      | e :: _ ->
        Format.eprintf "differential gate FAILED: %s@." e;
        exit 1
    end;
    let models =
      match model with
      | `All ->
        [
          Serve.Traffic.Uniform;
          Serve.Traffic.Zipf zipf_s;
          Serve.Traffic.Gravity 1.0;
          Serve.Traffic.Bimodal (0.05, 0.8);
          Serve.Traffic.Far_pairs;
        ]
      | `Uniform -> [ Serve.Traffic.Uniform ]
      | `Zipf -> [ Serve.Traffic.Zipf zipf_s ]
      | `Gravity -> [ Serve.Traffic.Gravity 1.0 ]
      | `Bimodal -> [ Serve.Traffic.Bimodal (0.05, 0.8) ]
      | `Far -> [ Serve.Traffic.Far_pairs ]
    in
    let trace = if json then Some (Congest.Trace.make ()) else None in
    let clock = ref 0 in
    (* one per-source Dijkstra cache for every model and gate run below *)
    let cache = Serve.Engine.sp_cache g in
    let rows =
      List.map
        (fun m ->
          let mrng = Random.State.make [| seed; 9 |] in
          let pairs = Serve.Traffic.generate ~rng:mrng m g ~queries in
          let st =
            Serve.Engine.run ?trace ~label:(Serve.Traffic.name m)
              ~clock0:!clock ~domains ~cache g packed pairs
          in
          clock := Serve.Engine.clock_after ~clock0:!clock st;
          (m, st))
        models
    in
    (* sharding gate: a multi-domain serve must be bit-identical to the
       sequential engine on every deterministic statistic *)
    if domains > 1 && not no_check then begin
      List.iter
        (fun ((m : Serve.Traffic.model), st) ->
          let mrng = Random.State.make [| seed; 9 |] in
          let pairs = Serve.Traffic.generate ~rng:mrng m g ~queries in
          let st1 = Serve.Engine.run ~domains:1 ~cache g packed pairs in
          if not (Serve.Engine.same_outcome st st1) then begin
            Format.eprintf
              "engine gate FAILED on %s: --domains %d diverged from \
               --domains 1@."
              (Serve.Traffic.name m) domains;
            exit 1
          end)
        rows;
      if not json then
        Format.printf
          "engine gate: --domains %d bit-identical to --domains 1 on every \
           model@."
          domains
    end;
    if json then
      let open Congest.Export.Json in
      print_endline
        (to_string
           (Obj
              [
                ("command", Str "traffic");
                ("n", Int (Graph.n g));
                ("m", Int (Graph.m g));
                ("k", Int k);
                ("seed", Int seed);
                ("stretch_bound", Int ((4 * k) - 3));
                ("router_words", Int (Serve.Packed_router.words packed));
                ("oracle_words", Int (Serve.Packed_oracle.words poracle));
                ( "models",
                  Arr
                    (List.map
                       (fun ((m : Serve.Traffic.model), (st : Serve.Engine.stats)) ->
                         Obj
                           [
                             ("model", Str (Serve.Traffic.name m));
                             ("queries", Int st.queries);
                             ("domains", Int st.domains);
                             ("delivered", Int st.delivered);
                             ("failed", Int st.failed);
                             ("queries_per_sec", Float st.qps);
                             ("loop_alloc_bytes", Float st.loop_alloc_bytes);
                             ("sp_cache_hits", Int st.sp_hits);
                             ("sp_cache_misses", Int st.sp_misses);
                             ("stretch_p50", Float st.stretch_p50);
                             ("stretch_p95", Float st.stretch_p95);
                             ("stretch_max", Float st.stretch_max);
                             ("stretch_avg", Float st.stretch_avg);
                             ("hops", Congest.Export.histogram st.hops);
                             ("max_edge_load", Int st.max_load);
                             ("sp_baseline_max_edge_load", Int st.base_max_load);
                             ("edge_load", Congest.Export.histogram st.load);
                             ( "sp_baseline_edge_load",
                               Congest.Export.histogram st.base_load );
                           ])
                       rows) );
                ( "trace",
                  match trace with
                  | None -> Null
                  | Some tr -> Congest.Export.trace tr );
              ]))
    else begin
      Format.printf "%-8s | %9s %9s | %5s %5s %5s | %8s %8s | %5s@." "model"
        "queries" "qps" "p50" "p95" "max" "maxload" "sp-max" "fail";
      List.iter
        (fun ((m : Serve.Traffic.model), (st : Serve.Engine.stats)) ->
          Format.printf
            "%-8s | %9d %9.0f | %5.2f %5.2f %5.2f | %8d %8d | %5d@."
            (Serve.Traffic.name m) st.queries st.qps st.stretch_p50
            st.stretch_p95 st.stretch_max st.max_load st.base_max_load
            st.failed)
        rows;
      let bound = float_of_int ((4 * k) - 3) in
      List.iter
        (fun ((m : Serve.Traffic.model), (st : Serve.Engine.stats)) ->
          if st.stretch_max > bound +. 1e-9 then begin
            Format.eprintf "stretch bound VIOLATED on %s: %.3f > %.0f@."
              (Serve.Traffic.name m) st.stretch_max bound;
            exit 1
          end)
        rows;
      Format.printf "stretch within the 4k-3 = %.0f bound on every model@."
        bound
    end
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Compile the built scheme into packed flat arrays and push synthetic \
          traffic (uniform, Zipf hot-spot, gravity, bimodal hot-clique, \
          adversarial far-pairs) through the forwarding engine — optionally \
          sharded across OCaml domains, gated bit-identical to the \
          sequential engine — reporting queries/sec, stretch percentiles and \
          per-edge congestion vs the shortest-path baseline.")
    Term.(
      const run $ seed_t $ n_t $ k_t $ topology_t $ queries_t $ model_t
      $ zipf_s_t $ domains_t $ no_check_t $ json_t)

(* ---- json-check ---- *)

let json_check_cmd =
  let files_t =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"JSON files to validate.")
  in
  let run files =
    let bad = ref 0 in
    List.iter
      (fun path ->
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        match Congest.Export.Json.parse s with
        | Ok _ -> Format.printf "%s: ok@." path
        | Error e ->
          incr bad;
          Format.printf "%s: INVALID (%s)@." path e)
      files;
    if !bad > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "json-check"
       ~doc:"Validate that each FILE parses as JSON (exit 1 on any failure).")
    Term.(const run $ files_t)

let () =
  let doc = "Near-optimal distributed routing with low memory (PODC 2018) -- reproduction" in
  let main =
    Cmd.group (Cmd.info "drr" ~doc)
      [
        info_cmd; build_cmd; route_cmd; tree_cmd; trace_cmd; dist_scheme_cmd;
        churn_cmd; traffic_cmd; json_check_cmd;
      ]
  in
  (* cmdliner renders one-character option names with a single dash; accept
     the double-dash spelling (--n, --k, ...) people type anyway *)
  let argv =
    Array.map
      (fun a ->
        if String.length a = 3 && a.[0] = '-' && a.[1] = '-' && a.[2] <> '-'
        then String.sub a 1 2
        else a)
      Sys.argv
  in
  exit (Cmd.eval ~argv main)
