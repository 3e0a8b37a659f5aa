(* Tests for the paper's distributed tree-routing protocol (Section 3 +
   Appendix A), run message-by-message on the CONGEST simulator. *)

open Dgraph

let rng seed = Random.State.make [| seed; 77 |]

let log2 n = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))

let run_protocol ?(seed = 5) ?q g tree =
  let out = Routing.Dist_tree_routing.run ~rng:(rng seed) ?q g ~tree in
  if out.Routing.Dist_tree_routing.failures <> [] then
    Alcotest.failf "protocol failures: %s"
      (String.concat " | "
         (List.map Routing.Protocol.failure_to_string
            out.Routing.Dist_tree_routing.failures));
  out

let check_exact g tree (out : Routing.Dist_tree_routing.outcome) ~samples ~seed =
  ignore g;
  let vs = Array.of_list (Tree.vertices tree) in
  let nv = Array.length vs in
  let r = rng seed in
  for _ = 1 to samples do
    let src = vs.(Random.State.int r nv) and dst = vs.(Random.State.int r nv) in
    let path = Tz.Tree_routing.route out.Routing.Dist_tree_routing.scheme ~src ~dst in
    let expected = Tree.path tree src dst in
    if path <> expected then
      Alcotest.failf "route %d->%d: got [%s] want [%s]" src dst
        (String.concat ";" (List.map string_of_int path))
        (String.concat ";" (List.map string_of_int expected))
  done

(* ---------- exactness across topologies ---------- *)

let test_exact_random_tree () =
  let g = Gen.random_tree ~rng:(rng 1) ~n:150 () in
  let tree = Tree.of_tree_graph g ~root:0 in
  let out = run_protocol g tree in
  check_exact g tree out ~samples:800 ~seed:2

let test_exact_spanning_of_er () =
  (* tree is a BFS spanning tree; the network has extra non-tree edges that
     serve only as communication shortcuts *)
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 3) ~weights:(Gen.uniform_weights 1.0 5.0)
      ~n:150 ~avg_deg:4.0 ()
  in
  let tree = Tree.bfs_spanning g ~root:0 in
  let out = run_protocol g tree in
  check_exact g tree out ~samples:800 ~seed:4

let test_exact_grid_spanning () =
  let g = Gen.grid ~rng:(rng 5) ~rows:10 ~cols:10 () in
  let tree = Tree.bfs_spanning g ~root:45 in
  let out = run_protocol g tree in
  check_exact g tree out ~samples:800 ~seed:6

let test_exact_spider () =
  let g = Gen.random_spider ~rng:(rng 7) ~legs:10 ~leg_len:12 () in
  let tree = Tree.of_tree_graph g ~root:0 in
  let out = run_protocol g tree in
  check_exact g tree out ~samples:600 ~seed:8

let test_exact_caterpillar () =
  let g = Gen.caterpillar ~rng:(rng 9) ~spine:30 ~legs_per:3 () in
  let tree = Tree.of_tree_graph g ~root:7 in
  let out = run_protocol g tree in
  check_exact g tree out ~samples:600 ~seed:10

let test_exact_path () =
  let g = Gen.grid ~rng:(rng 11) ~rows:1 ~cols:80 () in
  let tree = Tree.of_tree_graph g ~root:0 in
  let out = run_protocol g tree in
  check_exact g tree out ~samples:400 ~seed:12

let test_exact_star () =
  let g = Gen.random_spider ~rng:(rng 13) ~legs:60 ~leg_len:1 () in
  let tree = Tree.of_tree_graph g ~root:0 in
  let out = run_protocol g tree in
  check_exact g tree out ~samples:400 ~seed:14

let test_exact_all_pairs_small () =
  let g = Gen.random_tree ~rng:(rng 15) ~n:60 () in
  let tree = Tree.of_tree_graph g ~root:0 in
  let out = run_protocol g tree in
  for src = 0 to 59 do
    for dst = 0 to 59 do
      let path = Tz.Tree_routing.route out.Routing.Dist_tree_routing.scheme ~src ~dst in
      if path <> Tree.path tree src dst then Alcotest.failf "pair %d->%d" src dst
    done
  done

(* ---------- structure of the computed scheme ---------- *)

let scheme_of ?(n = 120) ?(seed = 21) () =
  let g = Gen.random_tree ~rng:(rng seed) ~n () in
  let tree = Tree.of_tree_graph g ~root:0 in
  let out = run_protocol ~seed:(seed + 1) g tree in
  (g, tree, out)

let test_intervals_valid () =
  let g, tree, out = scheme_of () in
  let n = Tree.size tree in
  let seen = Array.make (n + 1) false in
  let scheme = out.Routing.Dist_tree_routing.scheme in
  List.iter
    (fun v ->
      match Tz.Tree_routing.table scheme v with
      | None -> Alcotest.(check bool) "all tree vertices have tables" false (Tree.mem tree v)
      | Some t ->
        let a = t.Tz.Tree_routing.entry and b = t.Tz.Tree_routing.exit_ in
        Alcotest.(check int) "interval width = subtree size" (Tree.subtree_size tree v)
          (b - a + 1);
        Alcotest.(check bool) "entry in range" true (a >= 1 && a <= n);
        Alcotest.(check bool) "entry fresh" false seen.(a);
        seen.(a) <- true;
        (* nesting *)
        if v <> Tree.root tree then begin
          match Tz.Tree_routing.table scheme (Tree.parent tree v) with
          | Some pt ->
            Alcotest.(check bool) "nested" true
              (pt.Tz.Tree_routing.entry < a && b <= pt.Tz.Tree_routing.exit_)
          | None -> Alcotest.fail "parent table missing"
        end)
      (List.init (Graph.n g) Fun.id)

let test_heavy_children_match () =
  let _, tree, out = scheme_of ~seed:23 () in
  List.iter
    (fun v ->
      match Tz.Tree_routing.table out.Routing.Dist_tree_routing.scheme v with
      | Some t ->
        let expected = match Tree.heavy_child tree v with Some c -> c | None -> -1 in
        Alcotest.(check int) (Printf.sprintf "heavy child of %d" v) expected
          t.Tz.Tree_routing.heavy
      | None -> Alcotest.fail "table missing")
    (Tree.vertices tree)

let test_light_lists_match () =
  let _, tree, out = scheme_of ~seed:25 () in
  List.iter
    (fun v ->
      match Tz.Tree_routing.label out.Routing.Dist_tree_routing.scheme v with
      | Some l ->
        let expected = Tree.light_edges_to_root tree v in
        if l.Tz.Tree_routing.lights <> expected then
          Alcotest.failf "lights of %d: got %d entries want %d" v
            (List.length l.Tz.Tree_routing.lights)
            (List.length expected)
      | None -> Alcotest.fail "label missing")
    (Tree.vertices tree)

let test_table_label_sizes () =
  let _, tree, out = scheme_of ~n:200 ~seed:27 () in
  let bound = 2 + (2 * log2 200) in
  List.iter
    (fun v ->
      match Tz.Tree_routing.label out.Routing.Dist_tree_routing.scheme v with
      | Some l ->
        Alcotest.(check bool) "label words" true (Tz.Tree_routing.label_words l <= bound)
      | None -> ())
    (Tree.vertices tree);
  Alcotest.(check int) "table words O(1)" 4 Routing.Dist_tree_routing.words_of_table

(* ---------- the headline claims: memory, rounds ---------- *)

let test_memory_logarithmic () =
  (* peak memory words should stay ~O(log n): generous absolute envelope *)
  List.iter
    (fun n ->
      let g = Gen.random_tree ~rng:(rng (31 + n)) ~n () in
      let tree = Tree.of_tree_graph g ~root:0 in
      let out = run_protocol ~seed:(32 + n) g tree in
      let peak = Congest.Metrics.peak_memory_max out.Routing.Dist_tree_routing.report in
      let bound = 40 + (6 * log2 n) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: peak=%d <= %d" n peak bound)
        true (peak <= bound))
    [ 50; 150; 400 ]

let test_rounds_sublinear () =
  List.iter
    (fun n ->
      let g = Gen.random_tree ~rng:(rng (41 + n)) ~n () in
      let tree = Tree.of_tree_graph g ~root:0 in
      let out = run_protocol ~seed:(42 + n) g tree in
      let r = out.Routing.Dist_tree_routing.report.Congest.Metrics.rounds in
      let d = out.Routing.Dist_tree_routing.d_bfs in
      let bound =
        int_of_float
          (60.0 *. ((sqrt (float_of_int n) +. float_of_int d) *. float_of_int (log2 n)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: rounds=%d <= 60(sqrt n + D)log n = %d" n r bound)
        true
        (r <= bound && r >= d))
    [ 100; 400 ]

let test_edge_load_bounded () =
  let _, _, out = scheme_of ~n:150 ~seed:51 () in
  Alcotest.(check bool) "edge load <= 2" true
    (out.Routing.Dist_tree_routing.report.Congest.Metrics.max_edge_load <= 2)

let test_deterministic () =
  let g = Gen.random_tree ~rng:(rng 61) ~n:80 () in
  let tree = Tree.of_tree_graph g ~root:0 in
  let o1 = run_protocol ~seed:62 g tree in
  let o2 = run_protocol ~seed:62 g tree in
  Alcotest.(check int) "same rounds"
    o1.Routing.Dist_tree_routing.report.Congest.Metrics.rounds
    o2.Routing.Dist_tree_routing.report.Congest.Metrics.rounds;
  Alcotest.(check bool) "same tables" true
    (List.map (Tz.Tree_routing.table o1.Routing.Dist_tree_routing.scheme) (Tree.vertices tree)
    = List.map (Tz.Tree_routing.table o2.Routing.Dist_tree_routing.scheme) (Tree.vertices tree))

let test_stagger_ablation () =
  (* the random broadcast start times are what keeps relay queues small
     (Lemma 2): without them the protocol stays exact but queue memory blows
     up by an order of magnitude *)
  let g = Gen.connected_erdos_renyi ~rng:(rng 201) ~n:300 ~avg_deg:6.0 () in
  let tree = Tree.bfs_spanning g ~root:0 in
  let run st =
    Routing.Dist_tree_routing.run ~rng:(rng 202) ~stagger:st ~q:0.2 g ~tree
  in
  let on = run true and off = run false in
  Alcotest.(check (list string)) "both exact protocols" []
    (List.map Routing.Protocol.failure_to_string on.Routing.Dist_tree_routing.failures);
  Alcotest.(check (list string)) "ablation still correct" []
    (List.map Routing.Protocol.failure_to_string off.Routing.Dist_tree_routing.failures);
  check_exact g tree off ~samples:200 ~seed:203;
  let m_on = Congest.Metrics.peak_memory_max on.Routing.Dist_tree_routing.report in
  let m_off = Congest.Metrics.peak_memory_max off.Routing.Dist_tree_routing.report in
  Alcotest.(check bool)
    (Printf.sprintf "unstaggered memory %d >= 4x staggered %d" m_off m_on)
    true
    (m_off >= 4 * m_on)

let test_custom_q () =
  (* denser sampling: more local roots, shallower local trees, still exact *)
  let g = Gen.random_tree ~rng:(rng 71) ~n:100 () in
  let tree = Tree.of_tree_graph g ~root:0 in
  let out = run_protocol ~seed:72 ~q:0.3 g tree in
  Alcotest.(check bool) "many local roots" true (out.Routing.Dist_tree_routing.u_count > 10);
  check_exact g tree out ~samples:400 ~seed:73

let test_tiny_trees () =
  List.iter
    (fun n ->
      let g = Gen.random_tree ~rng:(rng (81 + n)) ~n () in
      let tree = Tree.of_tree_graph g ~root:0 in
      let out = run_protocol ~seed:(82 + n) g tree in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let p = Tz.Tree_routing.route out.Routing.Dist_tree_routing.scheme ~src ~dst in
          if p <> Tree.path tree src dst then Alcotest.failf "n=%d %d->%d" n src dst
        done
      done)
    [ 2; 3; 5; 9 ]

let test_subtree_of_network () =
  (* the tree spans only part of the network; other vertices relay *)
  let g = Gen.grid ~rng:(rng 91) ~rows:8 ~cols:8 () in
  let full = Tree.bfs_spanning g ~root:0 in
  (* restrict the tree to vertices in the top-left 6x8 block *)
  let keep v = v < 48 in
  let parent = Array.make 64 (-2) and wparent = Array.make 64 1.0 in
  let rec anchored v = v = 0 || (keep v && anchored (Tree.parent full v)) in
  List.iter
    (fun v ->
      if anchored v then
        if v = 0 then parent.(v) <- -1
        else begin
          parent.(v) <- Tree.parent full v;
          wparent.(v) <- Tree.weight_to_parent full v
        end)
    (Tree.vertices full);
  let tree = Tree.of_parents ~root:0 ~parent ~wparent in
  let out = run_protocol ~seed:92 g tree in
  check_exact g tree out ~samples:300 ~seed:93

let test_multi_tree_batch () =
  (* Theorem 2, second assertion: several trees sharing the network; each
     protocol measured, the batch composed under the paper's schedule *)
  let g = Gen.connected_erdos_renyi ~rng:(rng 301) ~n:200 ~avg_deg:5.0 () in
  let nv = Graph.n g in
  let trees =
    List.map (fun root -> Tree.bfs_spanning g ~root) [ 0; nv / 3; 2 * nv / 3 ]
  in
  let batch = Routing.Dist_tree_routing.run_batch ~rng:(rng 302) g ~trees in
  Alcotest.(check int) "all trees built" 3
    (List.length batch.Routing.Dist_tree_routing.outcomes);
  List.iter2
    (fun tree o ->
      Alcotest.(check (list string)) "no failures" []
        (List.map Routing.Protocol.failure_to_string o.Routing.Dist_tree_routing.failures);
      let vs = Array.of_list (Tree.vertices tree) in
      let r = rng 303 in
      for _ = 1 to 100 do
        let s = vs.(Random.State.int r (Array.length vs))
        and d = vs.(Random.State.int r (Array.length vs)) in
        if
          Tz.Tree_routing.route o.Routing.Dist_tree_routing.scheme ~src:s ~dst:d
          <> Tree.path tree s d
        then Alcotest.failf "tree route %d->%d" s d
      done)
    trees batch.Routing.Dist_tree_routing.outcomes;
  (* spanning trees: every vertex is in all 3 trees *)
  Alcotest.(check int) "overlap = 3" 3 batch.Routing.Dist_tree_routing.max_overlap;
  Alcotest.(check bool) "parallel beats serial" true
    (batch.Routing.Dist_tree_routing.parallel_rounds
    < batch.Routing.Dist_tree_routing.serial_rounds);
  (* memory O(s log n): 3 trees x ~(log n)-word peaks *)
  Alcotest.(check bool)
    (Printf.sprintf "batch peak %d <= 3 x single-tree envelope"
       batch.Routing.Dist_tree_routing.peak_memory)
    true
    (batch.Routing.Dist_tree_routing.peak_memory <= 3 * (40 + (6 * log2 nv)))

(* ---------- pins: exact counts on fixed instances ---------- *)

(* A digest of every member's table and label, in member order: any change
   to an interval, a parent, a heavy child or a light list moves it. *)
let scheme_digest tree (out : Routing.Dist_tree_routing.outcome) =
  let b = Buffer.create 1024 in
  let int x =
    Buffer.add_string b (string_of_int x);
    Buffer.add_char b ' '
  in
  let scheme = out.Routing.Dist_tree_routing.scheme in
  List.iter
    (fun v ->
      int v;
      (match Tz.Tree_routing.table scheme v with
      | None -> int (-2)
      | Some t -> List.iter int Tz.Tree_routing.[ t.entry; t.exit_; t.parent; t.heavy ]);
      match Tz.Tree_routing.label scheme v with
      | None -> int (-2)
      | Some l ->
        List.iter int
          Tz.Tree_routing.[ l.target; l.target_entry; List.length l.lights ];
        List.iter (fun (x, y) -> int x; int y) l.Tz.Tree_routing.lights)
    (Tree.vertices tree);
  Digest.to_hex (Digest.string (Buffer.contents b))

let peak_digest (out : Routing.Dist_tree_routing.outcome) =
  let peaks = out.Routing.Dist_tree_routing.report.Congest.Metrics.peak_memory in
  Digest.to_hex
    (Digest.string
       (String.concat " " (Array.to_list (Array.map string_of_int peaks))))

(* rounds, messages, message words, wakeups, |U|, ecc(root), then the
   fault counters (retransmitted, dropped, duplicated, delayed) *)
let check_counts what (out : Routing.Dist_tree_routing.outcome) expected =
  let m = out.Routing.Dist_tree_routing.report in
  Alcotest.(check (list int))
    (what ^ " counts")
    expected
    Congest.Metrics.
      [
        m.rounds;
        m.messages;
        m.message_words;
        m.wakeups;
        out.Routing.Dist_tree_routing.u_count;
        out.Routing.Dist_tree_routing.d_bfs;
        m.retransmitted;
        m.dropped;
        m.duplicated;
        m.delayed;
      ]

let pin_instance () =
  let g = Gen.connected_erdos_renyi ~rng:(rng 401) ~n:40 ~avg_deg:3.0 () in
  (g, Tree.bfs_spanning g ~root:0)

let pin_run ?faults ?config g tree =
  Routing.Dist_tree_routing.run ~rng:(rng 402) ?faults ?config g ~tree

let test_pin_raw () =
  let g, tree = pin_instance () in
  let out = pin_run g tree in
  Alcotest.(check (list string)) "no failures" []
    (List.map Routing.Protocol.failure_to_string out.Routing.Dist_tree_routing.failures);
  check_counts "raw" out [ 2587; 17770; 77199; 14213; 10; 6; 0; 0; 0; 0 ];
  Alcotest.(check string) "peak words" "1c247c54b48cc9ca1e6452bb1fb4a5cf"
    (peak_digest out);
  Alcotest.(check string) "tables and labels" "986233303e4b8cb9d0656eb10d28a4b7"
    (scheme_digest tree out)

let test_pin_fault_mix () =
  let g, tree = pin_instance () in
  let faults =
    Congest.Fault.make
      {
        Congest.Fault.none with
        seed = 13;
        drop = 0.05;
        duplicate = 0.02;
        delay = 0.05;
        max_delay = 3;
      }
  in
  let out = pin_run ~faults g tree in
  Alcotest.(check (list string)) "no failures" []
    (List.map Routing.Protocol.failure_to_string out.Routing.Dist_tree_routing.failures);
  check_counts "fault mix" out
    [ 11712; 596473; 1603839; 242878; 10; 6; 45276; 29844; 11322; 27876 ];
  Alcotest.(check string) "peak words" "52e098708499a2b2a21c749912c770f2"
    (peak_digest out);
  Alcotest.(check string) "tables and labels" "986233303e4b8cb9d0656eb10d28a4b7"
    (scheme_digest tree out)

(* A non-root vertex crashes long after the setup: its neighbours lose the
   link, its tree children abort, and the vertices whose pointer jumping
   relied on it report what never arrived. No setup timeout fires. *)
let test_pin_crash () =
  let g, tree = pin_instance () in
  let faults =
    Congest.Fault.make { Congest.Fault.none with crashes = [ (12, 150) ] }
  in
  let config = { Congest.Reliable.ack_timeout = 2; backoff = 2; max_retries = 4 } in
  let out = pin_run ~faults ~config g tree in
  Alcotest.(check (list string))
    "failure lines"
    [
      "v6: link to v12 lost: no ack for seq 157 from v12 after 4 transmissions";
      "v6: tree parent unreachable: aborting";
      "v7: link to v12 lost: no ack for seq 172 from v12 after 4 transmissions";
      "v9: alg3: end marker missing";
      "v9: alg3: end marker missing";
      "v9: alg6: ancestor msg missing";
      "v9: alg6: ancestor msg missing";
      "v10: link to v12 lost: no ack for seq 156 from v12 after 4 transmissions";
      "v10: tree parent unreachable: aborting";
      "v17: no dfs interval";
      "v18: no dfs interval";
      "v21: link to v12 lost: no ack for seq 154 from v12 after 4 transmissions";
      "v21: tree parent unreachable: aborting";
      "v30: link to v12 lost: no ack for seq 154 from v12 after 4 transmissions";
      "v30: tree parent unreachable: aborting";
      "v33: alg3: end marker missing";
      "v33: alg3: end marker missing";
      "v33: alg6: ancestor msg missing";
      "v33: alg6: ancestor msg missing";
      "v34: link to v12 lost: no ack for seq 170 from v12 after 4 transmissions";
    ]
    (List.map Routing.Protocol.failure_to_string out.Routing.Dist_tree_routing.failures);
  check_counts "crash" out [ 2618; 438934; 1145075; 80043; 10; 6; 42; 69; 0; 0 ];
  Alcotest.(check string) "peak words" "5c90f64d2955e0537703ff755a9f4588"
    (peak_digest out);
  Alcotest.(check string) "tables and labels" "688ce8e68169bb662b9572b3445a274d"
    (scheme_digest tree out)

(* ---------- qcheck: exactness over random instances ---------- *)

let prop_exact =
  QCheck.Test.make ~name:"distributed scheme routes exactly" ~count:8
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 10 90)))
    (fun (seed, n) ->
      let g = Gen.random_tree ~rng:(rng seed) ~n () in
      let tree = Tree.of_tree_graph g ~root:0 in
      let out = Routing.Dist_tree_routing.run ~rng:(rng (seed + 1)) g ~tree in
      out.Routing.Dist_tree_routing.failures = []
      &&
      let ok = ref true in
      let r = rng (seed + 2) in
      for _ = 1 to 50 do
        let src = Random.State.int r n and dst = Random.State.int r n in
        let p = Tz.Tree_routing.route out.Routing.Dist_tree_routing.scheme ~src ~dst in
        if p <> Tree.path tree src dst then ok := false
      done;
      !ok)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "tree_routing"
    [
      ( "exactness",
        [
          Alcotest.test_case "random tree" `Quick test_exact_random_tree;
          Alcotest.test_case "spanning tree of ER" `Quick test_exact_spanning_of_er;
          Alcotest.test_case "grid spanning tree" `Quick test_exact_grid_spanning;
          Alcotest.test_case "spider" `Quick test_exact_spider;
          Alcotest.test_case "caterpillar" `Quick test_exact_caterpillar;
          Alcotest.test_case "path" `Quick test_exact_path;
          Alcotest.test_case "star" `Quick test_exact_star;
          Alcotest.test_case "all pairs (n=60)" `Quick test_exact_all_pairs_small;
          Alcotest.test_case "tiny trees all pairs" `Quick test_tiny_trees;
          Alcotest.test_case "tree on subset of network" `Quick test_subtree_of_network;
        ] );
      ( "structure",
        [
          Alcotest.test_case "DFS intervals valid" `Quick test_intervals_valid;
          Alcotest.test_case "heavy children = centralized" `Quick test_heavy_children_match;
          Alcotest.test_case "light lists = centralized" `Quick test_light_lists_match;
          Alcotest.test_case "table/label sizes" `Quick test_table_label_sizes;
        ] );
      ( "claims",
        [
          Alcotest.test_case "memory O(log n)" `Slow test_memory_logarithmic;
          Alcotest.test_case "rounds ~ (sqrt n + D) polylog" `Slow test_rounds_sublinear;
          Alcotest.test_case "edge load bounded" `Quick test_edge_load_bounded;
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
          Alcotest.test_case "stagger ablation (Lemma 2)" `Slow test_stagger_ablation;
          Alcotest.test_case "multi-tree batch (Theorem 2)" `Slow test_multi_tree_batch;
          Alcotest.test_case "custom q" `Quick test_custom_q;
        ] );
      ( "pins",
        [
          Alcotest.test_case "raw run (ER, n=40)" `Quick test_pin_raw;
          Alcotest.test_case "reliable under the fault mix" `Quick test_pin_fault_mix;
          Alcotest.test_case "reliable with a crash after setup" `Quick test_pin_crash;
        ] );
      qsuite "properties" [ prop_exact ];
    ]
