(* The paper's distributed tree-routing protocol, live on the CONGEST
   simulator: watch the rounds, messages and (the headline) per-vertex
   memory, and compare with the EN16b-style baseline that stores the whole
   virtual tree at every sampled vertex.

   Run with:  dune exec examples/tree_routing_demo.exe *)

open Dgraph

let () =
  let rng = Random.State.make [| 3; 2026 |] in
  Format.printf "%-8s %-10s %10s %10s %12s | %14s %12s@." "n" "topology" "rounds"
    "messages" "peak mem(w)" "en16 peak(w)" "en16 label";
  List.iter
    (fun n ->
      List.iter
        (fun (name, make_tree) ->
          let g, tree = make_tree n in
          let out = Routing.Dist_tree_routing.run ~rng g ~tree in
          if out.Routing.Dist_tree_routing.failures <> [] then
            Format.printf "%-8d %-10s PROTOCOL FAILURE: %s@." n name
              (Routing.Protocol.failure_to_string
                 (List.hd out.Routing.Dist_tree_routing.failures))
          else begin
            let en16 = Routing.Tree_routing_en16.run ~rng g ~tree in
            Format.printf "%-8d %-10s %10d %10d %12d | %14d %12d@." n name
              out.Routing.Dist_tree_routing.report.Congest.Metrics.rounds
              out.Routing.Dist_tree_routing.report.Congest.Metrics.messages
              (Congest.Metrics.peak_memory_max out.Routing.Dist_tree_routing.report)
              en16.Routing.Tree_routing_en16.peak_memory
              en16.Routing.Tree_routing_en16.max_label_words;
            (* spot-check exactness *)
            let vs = Array.of_list (Tree.vertices tree) in
            for _ = 1 to 100 do
              let src = vs.(Random.State.int rng (Array.length vs))
              and dst = vs.(Random.State.int rng (Array.length vs)) in
              let p =
                Tz.Tree_routing.route out.Routing.Dist_tree_routing.scheme ~src ~dst
              in
              assert (p = Tree.path tree src dst)
            done
          end)
        [
          ( "random",
            fun n ->
              let g = Gen.random_tree ~rng ~n () in
              (g, Tree.of_tree_graph g ~root:0) );
          ( "spanning",
            fun n ->
              let g =
                Gen.connected_erdos_renyi ~rng ~n ~avg_deg:4.0 ()
              in
              (g, Tree.bfs_spanning g ~root:0) );
        ])
    [ 128; 256; 512 ];
  Format.printf
    "@.note: our peak memory stays ~O(log n) words while the EN16b baseline@.\
     grows like 2|U| = Theta(sqrt n) at the virtual vertices; its labels@.\
     carry a local label per virtual light edge (O(log^2 n) words).@."
