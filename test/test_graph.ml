(* Tests for the dgraph substrate: construction, generators, shortest paths,
   trees, diameters, arboricity. Property-based tests use qcheck. *)

open Dgraph

let rng () = Random.State.make [| 7; 11 |]

let graph_of_triples n triples =
  Graph.of_edges ~n
    (List.map (fun (u, v, w) -> { Graph.u; v; w }) triples)

(* ---------- Graph basics ---------- *)

let test_build_basic () =
  let g = graph_of_triples 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 3.0); (0, 3, 10.0) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 4 (Graph.m g);
  Alcotest.(check (option (float 1e-9))) "w(1,2)" (Some 2.0) (Graph.weight g 1 2);
  Alcotest.(check (option (float 1e-9))) "w(2,1)" (Some 2.0) (Graph.weight g 2 1);
  Alcotest.(check (option (float 1e-9))) "no edge" None (Graph.weight g 1 3);
  Alcotest.(check int) "deg 0" 2 (Graph.degree g 0)

let test_parallel_and_loops () =
  let g = graph_of_triples 3 [ (0, 1, 5.0); (1, 0, 2.0); (2, 2, 1.0) ] in
  Alcotest.(check int) "m collapses" 1 (Graph.m g);
  Alcotest.(check (option (float 1e-9))) "min weight kept" (Some 2.0) (Graph.weight g 0 1)

let test_invalid_edges () =
  Alcotest.check_raises "range" (Invalid_argument "Graph.of_edges: vertex 5 out of [0,3)")
    (fun () -> ignore (graph_of_triples 3 [ (0, 5, 1.0) ]));
  Alcotest.check_raises "weight" (Invalid_argument "Graph.of_edges: non-positive weight")
    (fun () -> ignore (graph_of_triples 3 [ (0, 1, 0.0) ]))

let test_ports () =
  let g = graph_of_triples 3 [ (0, 1, 1.0); (0, 2, 1.0) ] in
  (match Graph.port g 0 2 with
  | Some p ->
    let v, w = Graph.endpoint g 0 p in
    Alcotest.(check int) "endpoint" 2 v;
    Alcotest.(check (float 1e-9)) "endpoint w" 1.0 w
  | None -> Alcotest.fail "port missing");
  Alcotest.(check (option int)) "no port" None (Graph.port g 1 2)

let test_components () =
  let g = graph_of_triples 6 [ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0) ] in
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g);
  let lc, map = Graph.largest_component g in
  Alcotest.(check int) "largest" 3 (Graph.n lc);
  Alcotest.(check (list int)) "map" [ 0; 1; 2 ] (Array.to_list map)

let test_subgraph () =
  let g = graph_of_triples 5 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0) ] in
  let sub, map = Graph.subgraph g ~keep:(fun v -> v mod 2 = 0) in
  Alcotest.(check int) "3 vertices" 3 (Graph.n sub);
  Alcotest.(check int) "no edges survive" 0 (Graph.m sub);
  Alcotest.(check (list int)) "map" [ 0; 2; 4 ] (Array.to_list map)

let test_union_edges () =
  let g = graph_of_triples 3 [ (0, 1, 1.0) ] in
  let g' = Graph.union_edges g [ { Graph.u = 1; v = 2; w = 4.0 }; { Graph.u = 0; v = 1; w = 0.5 } ] in
  Alcotest.(check int) "m" 2 (Graph.m g');
  Alcotest.(check (option (float 1e-9))) "min kept" (Some 0.5) (Graph.weight g' 0 1)

(* ---------- Generators ---------- *)

let test_gen_grid () =
  let g = Gen.grid ~rng:(rng ()) ~rows:5 ~cols:7 () in
  Alcotest.(check int) "n" 35 (Graph.n g);
  Alcotest.(check int) "m" ((4 * 7) + (5 * 6)) (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_torus () =
  let g = Gen.torus ~rng:(rng ()) ~rows:4 ~cols:5 () in
  Alcotest.(check int) "4-regular" 4 (Graph.max_degree g);
  Alcotest.(check int) "m" 40 (Graph.m g)

let test_gen_tree () =
  let g = Gen.random_tree ~rng:(rng ()) ~n:100 () in
  Alcotest.(check int) "m = n-1" 99 (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_gnm () =
  let g = Gen.gnm ~rng:(rng ()) ~n:50 ~m:120 () in
  Alcotest.(check int) "m exact" 120 (Graph.m g)

let test_gen_ba () =
  let g = Gen.preferential_attachment ~rng:(rng ()) ~n:200 ~out_deg:3 () in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check bool) "power law head" true (Graph.max_degree g > 10)

let test_gen_spider () =
  let g = Gen.random_spider ~rng:(rng ()) ~legs:5 ~leg_len:4 () in
  Alcotest.(check int) "n" 21 (Graph.n g);
  Alcotest.(check int) "hub degree" 5 (Graph.degree g 0);
  Alcotest.(check bool) "tree" true (Graph.m g = Graph.n g - 1 && Graph.is_connected g)

let test_gen_caterpillar () =
  let g = Gen.caterpillar ~rng:(rng ()) ~spine:10 ~legs_per:3 () in
  Alcotest.(check int) "n" 40 (Graph.n g);
  Alcotest.(check bool) "tree" true (Graph.m g = Graph.n g - 1 && Graph.is_connected g)

let test_gen_balanced () =
  let g = Gen.balanced_tree ~rng:(rng ()) ~arity:2 ~depth:4 () in
  Alcotest.(check int) "n = 2^5 - 1" 31 (Graph.n g);
  Alcotest.(check bool) "tree" true (Graph.m g = Graph.n g - 1)

let test_gen_dumbbell () =
  let g = Gen.dumbbell ~rng:(rng ()) ~side:10 ~bridge:8 () in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check bool) "long bridge" true (Diameter.hop_diameter g >= 8)

(* ---------- Shortest paths ---------- *)

let test_dijkstra_line () =
  let g = graph_of_triples 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 4.0) ] in
  let { Sssp.dist; _ } = Sssp.dijkstra g ~src:0 in
  Alcotest.(check (float 1e-9)) "d(3)" 7.0 dist.(3)

let test_dijkstra_vs_bf () =
  let r = rng () in
  for _ = 1 to 20 do
    let g = Gen.connected_erdos_renyi ~rng:r ~weights:(Gen.uniform_weights 1.0 10.0) ~n:60 ~avg_deg:4.0 () in
    let n = Graph.n g in
    if n > 1 then begin
      let src = Random.State.int r n in
      let d1 = (Sssp.dijkstra g ~src).Sssp.dist in
      let d2 = (Sssp.bellman_ford g ~src ~hops:n).Sssp.dist in
      Array.iteri
        (fun v d ->
          if abs_float (d -. d2.(v)) > 1e-6 then
            Alcotest.failf "mismatch at %d: %f vs %f" v d d2.(v))
        d1
    end
  done

let test_bf_hop_bounded () =
  let g = graph_of_triples 3 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0) ] in
  let d1 = (Sssp.bellman_ford g ~src:0 ~hops:1).Sssp.dist in
  let d2 = (Sssp.bellman_ford g ~src:0 ~hops:2).Sssp.dist in
  Alcotest.(check (float 1e-9)) "1 hop takes heavy edge" 5.0 d1.(2);
  Alcotest.(check (float 1e-9)) "2 hops find light path" 2.0 d2.(2)

let test_bf_multi_offsets () =
  let g = graph_of_triples 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let d = (Sssp.bellman_ford_multi g ~srcs:[ (0, 10.0); (2, 0.0) ] ~hops:3).Sssp.dist in
  Alcotest.(check (float 1e-9)) "offset respected" 1.0 d.(1);
  (* vertex 0 starts at its own offset 10 but is improved to 2 by the wave
     arriving from source 2 *)
  Alcotest.(check (float 1e-9)) "src offset improvable" 2.0 d.(0)

let test_bf_limited () =
  let g = graph_of_triples 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let res = Sssp.bellman_ford_limited g ~src:0 ~hops:5 ~keep_going:(fun v _ -> v <> 1) in
  Alcotest.(check (float 1e-9)) "reaches blocker" 1.0 res.Sssp.dist.(1);
  Alcotest.(check bool) "does not pass" true (res.Sssp.dist.(2) = infinity)

let test_path_reconstruction () =
  let g = graph_of_triples 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 4.0); (0, 3, 100.0) ] in
  let res = Sssp.dijkstra g ~src:0 in
  (match Sssp.path_to res 3 with
  | Some p ->
    Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] p;
    Alcotest.(check (float 1e-9)) "weight" 7.0 (Sssp.path_weight g p)
  | None -> Alcotest.fail "no path");
  let g2 = graph_of_triples 3 [ (0, 1, 1.0) ] in
  Alcotest.(check bool) "unreachable" true (Sssp.path_to (Sssp.dijkstra g2 ~src:0) 2 = None)

(* ---------- BFS / diameter ---------- *)

let test_bfs () =
  let g = Gen.grid ~rng:(rng ()) ~rows:3 ~cols:3 () in
  let d = Bfs.distances g ~src:0 in
  Alcotest.(check int) "corner to corner" 4 d.(8);
  Alcotest.(check int) "ecc" 4 (Bfs.eccentricity g ~src:0)

let test_hop_diameter () =
  let g = Gen.grid ~rng:(rng ()) ~rows:4 ~cols:6 () in
  Alcotest.(check int) "grid D" 8 (Diameter.hop_diameter g);
  Alcotest.(check bool) "estimate lower bound" true (Diameter.hop_diameter_estimate g <= 8)

let test_sp_diameter_vs_hop () =
  let r = rng () in
  let g = Gen.connected_erdos_renyi ~rng:r ~weights:(Gen.uniform_weights 1.0 100.0) ~n:80 ~avg_deg:5.0 () in
  let d = Diameter.hop_diameter g in
  let s = Diameter.shortest_path_diameter ~rng:r g in
  Alcotest.(check bool) (Printf.sprintf "D=%d <= S=%d" d s) true (d <= s)

let test_radius_center () =
  let g = Gen.grid ~rng:(rng ()) ~rows:1 ~cols:9 () in
  let radius, center = Diameter.hop_radius_center g in
  Alcotest.(check int) "radius" 4 radius;
  Alcotest.(check int) "center" 4 center

(* ---------- Trees ---------- *)

let test_tree_structure () =
  let g = Gen.balanced_tree ~rng:(rng ()) ~arity:2 ~depth:3 () in
  let t = Tree.of_tree_graph g ~root:0 in
  Alcotest.(check int) "size" 15 (Tree.size t);
  Alcotest.(check int) "height" 3 (Tree.height t);
  Alcotest.(check int) "subtree of root" 15 (Tree.subtree_size t 0);
  Alcotest.(check int) "subtree of child" 7 (Tree.subtree_size t 1);
  Alcotest.(check int) "depth of leaf" 3 (Tree.depth t 14)

let test_tree_lca_path () =
  let g = Gen.balanced_tree ~rng:(rng ()) ~arity:2 ~depth:3 () in
  let t = Tree.of_tree_graph g ~root:0 in
  Alcotest.(check int) "lca(7,8)=3" 3 (Tree.lca t 7 8);
  Alcotest.(check int) "lca(7,4)=1" 1 (Tree.lca t 7 4);
  Alcotest.(check (list int)) "path" [ 7; 3; 1; 4 ] (Tree.path t 7 4);
  Alcotest.(check int) "hops" 3 (Tree.dist_hops t 7 4)

let test_tree_heavy_light () =
  let parent = [| -1; 0; 1; 1; 0 |] in
  let wparent = Array.make 5 1.0 in
  let t = Tree.of_parents ~root:0 ~parent ~wparent in
  Alcotest.(check (option int)) "heavy child of 0" (Some 1) (Tree.heavy_child t 0);
  Alcotest.(check bool) "4 is light" true (Tree.is_light_edge t 4);
  Alcotest.(check bool) "1 is heavy" false (Tree.is_light_edge t 1);
  let lights = Tree.light_edges_to_root t 3 in
  Alcotest.(check (list (pair int int))) "lights to 3" [ (1, 3) ] lights

let test_tree_dfs_intervals () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = Gen.random_tree ~rng:r ~n:60 () in
    let t = Tree.of_tree_graph g ~root:0 in
    let iv = Tree.interval t in
    let seen = Array.make 60 false in
    List.iter
      (fun v ->
        let a, b = iv v in
        Alcotest.(check bool) "entry range" true (a >= 0 && a < 60);
        Alcotest.(check bool) "width = subtree" true (b - a + 1 = Tree.subtree_size t v);
        Alcotest.(check bool) "fresh" false seen.(a);
        seen.(a) <- true)
      (Tree.vertices t);
    List.iter
      (fun v ->
        if v <> 0 then begin
          let pa, pb = iv (Tree.parent t v) and a, b = iv v in
          Alcotest.(check bool) "nested" true (pa < a && b <= pb)
        end)
      (Tree.vertices t)
  done

let test_tree_light_edge_count () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = Gen.random_tree ~rng:r ~n:200 () in
    let t = Tree.of_tree_graph g ~root:0 in
    let log2n = int_of_float (ceil (log (float_of_int 200) /. log 2.0)) in
    List.iter
      (fun v ->
        let l = List.length (Tree.light_edges_to_root t v) in
        Alcotest.(check bool) (Printf.sprintf "lights %d <= log n" l) true (l <= log2n))
      (Tree.vertices t)
  done

let test_tree_of_parents_invalid () =
  Alcotest.check_raises "cycle"
    (Invalid_argument "Tree: disconnected or cyclic parent array") (fun () ->
      ignore
        (Tree.of_parents ~root:0 ~parent:[| -1; 2; 1 |] ~wparent:(Array.make 3 1.0)))

let test_bfs_spanning_depth () =
  let g = Gen.grid ~rng:(rng ()) ~rows:5 ~cols:5 () in
  let t = Tree.bfs_spanning g ~root:0 in
  Alcotest.(check int) "size" 25 (Tree.size t);
  Alcotest.(check int) "height = ecc" (Bfs.eccentricity g ~src:0) (Tree.height t)

let test_shortest_path_tree () =
  let g = graph_of_triples 4 [ (0, 1, 1.0); (1, 3, 1.0); (0, 3, 5.0); (0, 2, 1.0) ] in
  let t = Tree.shortest_path_tree g ~root:0 in
  Alcotest.(check int) "parent of 3 via light path" 1 (Tree.parent t 3);
  Alcotest.(check (float 1e-9)) "dist" 2.0 (Tree.dist_weight t 0 3)

(* ---------- Arboricity ---------- *)

let test_arboricity_tree () =
  let g = Gen.random_tree ~rng:(rng ()) ~n:50 () in
  Alcotest.(check int) "tree = 1 forest" 1 (Arboricity.forest_count g);
  Alcotest.(check int) "degeneracy 1" 1 (Arboricity.degeneracy g)

let test_arboricity_clique () =
  let es = ref [] in
  for u = 0 to 9 do
    for v = u + 1 to 9 do
      es := (u, v, 1.0) :: !es
    done
  done;
  let g = graph_of_triples 10 !es in
  let fc = Arboricity.forest_count g in
  Alcotest.(check bool) (Printf.sprintf "K10 forests=%d in [5,10]" fc) true (fc >= 5 && fc <= 10);
  Alcotest.(check int) "degeneracy K10" 9 (Arboricity.degeneracy g)

let test_forest_decomposition_partition () =
  let g = Gen.connected_erdos_renyi ~rng:(rng ()) ~n:40 ~avg_deg:6.0 () in
  let forests = Arboricity.forest_decomposition g in
  let total = List.fold_left (fun acc f -> acc + List.length f) 0 forests in
  Alcotest.(check int) "edges partitioned" (Graph.m g) total;
  List.iter
    (fun f ->
      let uf = Union_find.create (Graph.n g) in
      List.iter
        (fun { Graph.u; v; _ } ->
          Alcotest.(check bool) "acyclic" true (Union_find.union uf u v))
        f)
    forests

let test_degeneracy_orientation () =
  let g = Gen.connected_erdos_renyi ~rng:(rng ()) ~n:60 ~avg_deg:8.0 () in
  let out = Arboricity.degeneracy_orientation g in
  let d = Arboricity.degeneracy g in
  Alcotest.(check bool) "out-degree bounded" true (Arboricity.max_out_degree out <= d);
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 out in
  Alcotest.(check int) "each edge once" (Graph.m g) total

(* ---------- Util ---------- *)

let test_union_find () =
  let uf = Union_find.create 10 in
  Alcotest.(check int) "init classes" 10 (Union_find.count uf);
  Alcotest.(check bool) "union" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "re-union" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check int) "classes" 9 (Union_find.count uf)

let test_pqueue_sorts () =
  let q = Pqueue.create () in
  let input = [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5 ] in
  List.iteri (fun i k -> Pqueue.push q ~key:k i) input;
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 0.5; 1.0; 2.0; 3.0; 4.0; 5.0 ] (drain [])


let test_gnm_too_large () =
  Alcotest.check_raises "too many edges" (Invalid_argument "Gen.gnm: m too large")
    (fun () -> ignore (Gen.gnm ~rng:(rng ()) ~n:4 ~m:10 ()))

let test_gen_ring () =
  let g = Gen.ring ~rng:(rng ()) ~n:12 () in
  Alcotest.(check int) "m" 12 (Graph.m g);
  Alcotest.(check int) "D" 6 (Diameter.hop_diameter g);
  Alcotest.(check int) "2-regular" 2 (Graph.max_degree g)

let test_gen_regularish () =
  let g = Gen.random_regularish ~rng:(rng ()) ~n:100 ~degree:4 () in
  Alcotest.(check bool) "near-regular" true (Graph.max_degree g <= 4);
  Alcotest.(check bool) "dense enough" true (Graph.m g >= 150);
  Alcotest.check_raises "odd sum rejected"
    (Invalid_argument "Gen.random_regularish: n * degree must be even") (fun () ->
      ignore (Gen.random_regularish ~rng:(rng ()) ~n:3 ~degree:3 ()))

let test_map_weights_unweighted () =
  let g = graph_of_triples 3 [ (0, 1, 2.5); (1, 2, 7.0) ] in
  let doubled = Graph.map_weights g (fun _ _ w -> 2.0 *. w) in
  Alcotest.(check (option (float 1e-9))) "doubled" (Some 5.0) (Graph.weight doubled 0 1);
  let unw = Graph.unweighted g in
  Alcotest.(check (float 1e-9)) "unit total" 2.0 (Graph.total_weight unw)

let test_neighbors_iterators () =
  let g = graph_of_triples 4 [ (0, 1, 1.0); (0, 2, 2.0); (0, 3, 3.0) ] in
  let sum = Graph.fold_neighbors g 0 (fun acc _ w -> acc +. w) 0.0 in
  Alcotest.(check (float 1e-9)) "fold" 6.0 sum;
  let count = ref 0 in
  Graph.iter_neighbors g 0 (fun _ _ -> incr count);
  Alcotest.(check int) "iter" 3 !count

let test_dijkstra_hops_reports () =
  let g = graph_of_triples 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (0, 3, 3.0) ] in
  let res, hops = Sssp.dijkstra_hops g ~src:0 in
  Alcotest.(check (float 1e-9)) "dist ties" 3.0 res.Sssp.dist.(3);
  (* both routes weigh 3.0; the hop-aware tie-break prefers the 1-hop edge *)
  Alcotest.(check int) "min hops on ties" 1 hops.(3)

let test_weighted_diameter_and_aspect () =
  let g = Gen.ring ~rng:(rng ()) ~weights:(Gen.uniform_weights 2.0 2.0) ~n:10 () in
  let r = rng () in
  Alcotest.(check (float 1e-9)) "weighted diameter" 10.0 (Diameter.weighted_diameter ~rng:r g);
  Alcotest.(check (float 1e-6)) "aspect" 5.0 (Diameter.aspect_ratio g)

let test_path_weight_invalid () =
  let g = graph_of_triples 3 [ (0, 1, 1.0) ] in
  Alcotest.check_raises "not a path" (Invalid_argument "Sssp.path_weight: not a path")
    (fun () -> ignore (Sssp.path_weight g [ 0; 2 ]))

let test_tree_length_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Tree.of_parents: array length mismatch") (fun () ->
      ignore (Tree.of_parents ~root:0 ~parent:[| -1; 0 |] ~wparent:[| 0.0 |]))

(* A tree built from a member list, in shuffled order and with sparse ids
   (so lookups take the binary search), answers every accessor like the
   tree of_parents builds from the same relation with dense ids. *)
let test_tree_of_members () =
  let r = rng () in
  let id v = (3 * v) + 7 in
  for _ = 1 to 10 do
    let g = Gen.random_tree ~rng:r ~n:80 () in
    let t = Tree.of_tree_graph g ~root:0 in
    let members =
      List.map
        (fun v ->
          if v = 0 then (id v, -1, 0.0)
          else (id v, id (Tree.parent t v), Tree.weight_to_parent t v))
        (Tree.vertices t)
    in
    let shuffled =
      List.map snd
        (List.sort compare (List.map (fun m -> (Random.State.bits r, m)) members))
    in
    let s = Tree.of_members ~root:(id 0) shuffled in
    Alcotest.(check int) "size" (Tree.size t) (Tree.size s);
    Alcotest.(check int) "height" (Tree.height t) (Tree.height s);
    Alcotest.(check (list int)) "vertices" (List.map id (Tree.vertices t)) (Tree.vertices s);
    List.iter
      (fun v ->
        Alcotest.(check int) "index" v (Tree.index s (id v));
        Alcotest.(check (list int)) "children"
          (List.map id (Array.to_list (Tree.children t v)))
          (Array.to_list (Tree.children s (id v)));
        Alcotest.(check int) "depth" (Tree.depth t v) (Tree.depth s (id v));
        Alcotest.(check int) "subtree" (Tree.subtree_size t v) (Tree.subtree_size s (id v));
        Alcotest.(check (option int)) "heavy"
          (Option.map id (Tree.heavy_child t v))
          (Tree.heavy_child s (id v));
        Alcotest.(check (pair int int)) "interval" (Tree.interval t v) (Tree.interval s (id v));
        Alcotest.(check (float 0.0)) "dist to root" (Tree.dist_weight t v 0)
          (Tree.dist_weight s (id v) (id 0)))
      (Tree.vertices t);
    Alcotest.(check bool) "gaps are not members" false (Tree.mem s (id 5 + 1))
  done;
  Alcotest.check_raises "repeated vertex"
    (Invalid_argument "Tree.of_members: vertex 1 negative or repeated") (fun () ->
      ignore (Tree.of_members ~root:0 [ (0, -1, 0.0); (1, 0, 1.0); (1, 0, 1.0) ]))

(* ---------- Property-based ---------- *)

let arb_connected_graph =
  QCheck.make
    ~print:(fun (seed, n, deg) -> Printf.sprintf "seed=%d n=%d deg=%f" seed n deg)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 2 60) (float_range 2.0 6.0))

let graph_of_params (seed, n, deg) =
  let r = Random.State.make [| seed; 3 |] in
  Gen.connected_erdos_renyi ~rng:r ~weights:(Gen.uniform_weights 1.0 5.0) ~n ~avg_deg:deg ()

let prop_triangle_inequality =
  QCheck.Test.make ~name:"dijkstra distances satisfy triangle inequality" ~count:40
    arb_connected_graph (fun params ->
      let g = graph_of_params params in
      let n = Graph.n g in
      QCheck.assume (n >= 3);
      let d0 = (Sssp.dijkstra g ~src:0).Sssp.dist in
      let d1 = (Sssp.dijkstra g ~src:(n / 2)).Sssp.dist in
      Array.for_all Fun.id
        (Array.init n (fun v -> d0.(v) <= d0.(n / 2) +. d1.(v) +. 1e-9)))

let prop_hop_bounded_monotone =
  QCheck.Test.make ~name:"hop-bounded distances decrease with more hops" ~count:30
    arb_connected_graph (fun params ->
      let g = graph_of_params params in
      let n = Graph.n g in
      let exact = (Sssp.dijkstra g ~src:0).Sssp.dist in
      let prev = ref (Sssp.bellman_ford g ~src:0 ~hops:1).Sssp.dist in
      let ok = ref true in
      for h = 2 to min 6 n do
        let cur = (Sssp.bellman_ford g ~src:0 ~hops:h).Sssp.dist in
        for v = 0 to n - 1 do
          if cur.(v) > !prev.(v) +. 1e-9 then ok := false;
          if cur.(v) < exact.(v) -. 1e-9 then ok := false
        done;
        prev := cur
      done;
      !ok)

let prop_bfs_tree_parent_depth =
  QCheck.Test.make ~name:"bfs tree: depth(child) = depth(parent) + 1" ~count:30
    arb_connected_graph (fun params ->
      let g = graph_of_params params in
      let t = Tree.bfs_spanning g ~root:0 in
      List.for_all
        (fun v -> v = 0 || Tree.depth t v = Tree.depth t (Tree.parent t v) + 1)
        (Tree.vertices t))

let prop_subtree_sizes_sum =
  QCheck.Test.make ~name:"tree: subtree sizes = 1 + sum of children" ~count:30
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 2 80)))
    (fun (seed, n) ->
      let r = Random.State.make [| seed |] in
      let g = Gen.random_tree ~rng:r ~n () in
      let t = Tree.of_tree_graph g ~root:0 in
      List.for_all
        (fun v ->
          Tree.subtree_size t v
          = 1 + Array.fold_left (fun acc c -> acc + Tree.subtree_size t c) 0 (Tree.children t v))
        (Tree.vertices t))

let prop_tree_path_endpoints =
  QCheck.Test.make ~name:"tree path connects endpoints" ~count:30
    QCheck.(
      make
        Gen.(triple (int_bound 10_000) (int_range 3 60) (pair (int_bound 1000) (int_bound 1000))))
    (fun (seed, n, (a, b)) ->
      let r = Random.State.make [| seed |] in
      let g = Gen.random_tree ~rng:r ~n () in
      let t = Tree.of_tree_graph g ~root:0 in
      let u = a mod n and v = b mod n in
      let p = Tree.path t u v in
      List.hd p = u
      && List.nth p (List.length p - 1) = v
      && List.length p = Tree.dist_hops t u v + 1)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "build basics" `Quick test_build_basic;
          Alcotest.test_case "parallel edges & loops" `Quick test_parallel_and_loops;
          Alcotest.test_case "invalid edges rejected" `Quick test_invalid_edges;
          Alcotest.test_case "ports" `Quick test_ports;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "subgraph" `Quick test_subgraph;
          Alcotest.test_case "union edges" `Quick test_union_edges;
        ] );
      ( "generators",
        [
          Alcotest.test_case "grid" `Quick test_gen_grid;
          Alcotest.test_case "torus" `Quick test_gen_torus;
          Alcotest.test_case "random tree" `Quick test_gen_tree;
          Alcotest.test_case "gnm" `Quick test_gen_gnm;
          Alcotest.test_case "preferential attachment" `Quick test_gen_ba;
          Alcotest.test_case "spider" `Quick test_gen_spider;
          Alcotest.test_case "caterpillar" `Quick test_gen_caterpillar;
          Alcotest.test_case "balanced tree" `Quick test_gen_balanced;
          Alcotest.test_case "dumbbell" `Quick test_gen_dumbbell;
          Alcotest.test_case "gnm too large" `Quick test_gnm_too_large;
          Alcotest.test_case "ring" `Quick test_gen_ring;
          Alcotest.test_case "regularish" `Quick test_gen_regularish;
        ] );
      ( "sssp",
        [
          Alcotest.test_case "dijkstra line" `Quick test_dijkstra_line;
          Alcotest.test_case "dijkstra = bellman-ford" `Quick test_dijkstra_vs_bf;
          Alcotest.test_case "hop-bounded semantics" `Quick test_bf_hop_bounded;
          Alcotest.test_case "multi-source offsets" `Quick test_bf_multi_offsets;
          Alcotest.test_case "limited exploration" `Quick test_bf_limited;
          Alcotest.test_case "path reconstruction" `Quick test_path_reconstruction;
          Alcotest.test_case "dijkstra hop counts" `Quick test_dijkstra_hops_reports;
          Alcotest.test_case "invalid path weight" `Quick test_path_weight_invalid;
        ] );
      ( "bfs-diameter",
        [
          Alcotest.test_case "bfs grid" `Quick test_bfs;
          Alcotest.test_case "hop diameter" `Quick test_hop_diameter;
          Alcotest.test_case "D <= S" `Quick test_sp_diameter_vs_hop;
          Alcotest.test_case "radius/center" `Quick test_radius_center;
          Alcotest.test_case "weighted diameter & aspect" `Quick test_weighted_diameter_and_aspect;
        ] );
      ( "tree",
        [
          Alcotest.test_case "structure" `Quick test_tree_structure;
          Alcotest.test_case "lca & paths" `Quick test_tree_lca_path;
          Alcotest.test_case "heavy/light" `Quick test_tree_heavy_light;
          Alcotest.test_case "dfs intervals" `Quick test_tree_dfs_intervals;
          Alcotest.test_case "light edges <= log n" `Quick test_tree_light_edge_count;
          Alcotest.test_case "invalid parents" `Quick test_tree_of_parents_invalid;
          Alcotest.test_case "bfs spanning depth" `Quick test_bfs_spanning_depth;
          Alcotest.test_case "shortest path tree" `Quick test_shortest_path_tree;
          Alcotest.test_case "of_parents length mismatch" `Quick test_tree_length_mismatch;
          Alcotest.test_case "of_members = of_parents" `Quick test_tree_of_members;
        ] );
      ( "arboricity",
        [
          Alcotest.test_case "tree" `Quick test_arboricity_tree;
          Alcotest.test_case "clique" `Quick test_arboricity_clique;
          Alcotest.test_case "partition" `Quick test_forest_decomposition_partition;
          Alcotest.test_case "orientation" `Quick test_degeneracy_orientation;
        ] );
      ( "util",
        [
          Alcotest.test_case "map/unweighted" `Quick test_map_weights_unweighted;
          Alcotest.test_case "neighbor iterators" `Quick test_neighbors_iterators;
          Alcotest.test_case "union-find" `Quick test_union_find;
          Alcotest.test_case "pqueue" `Quick test_pqueue_sorts;
        ] );
      qsuite "properties"
        [
          prop_triangle_inequality;
          prop_hop_bounded_monotone;
          prop_bfs_tree_parent_depth;
          prop_subtree_sizes_sum;
          prop_tree_path_endpoints;
        ];
    ]
