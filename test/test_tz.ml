(* Tests for the centralized Thorup-Zwick machinery: hierarchy sampling,
   clusters/bunches, distance oracle stretch, exact tree routing, and the
   compact graph routing scheme (stretch <= 4k-3). *)

open Dgraph

let rng seed = Random.State.make [| seed; 2026 |]

let er_graph ?(seed = 1) ?(n = 120) ?(deg = 5.0) () =
  Gen.connected_erdos_renyi ~rng:(rng seed)
    ~weights:(Gen.uniform_weights 1.0 8.0) ~n ~avg_deg:deg ()

(* ---------- Hierarchy ---------- *)

let test_hierarchy_nesting () =
  let h = Tz.Hierarchy.sample ~rng:(rng 3) ~k:4 ~n:1000 in
  for v = 0 to 999 do
    let l = Tz.Hierarchy.level h v in
    for i = 0 to 3 do
      Alcotest.(check bool) "nesting" (i <= l) (Tz.Hierarchy.mem h i v)
    done;
    Alcotest.(check bool) "A_k empty" false (Tz.Hierarchy.mem h 4 v)
  done;
  Alcotest.(check int) "A_0 = V" 1000 (List.length (Tz.Hierarchy.members h 0))

let test_hierarchy_population () =
  (* expected |A_1| = n^{1-1/k}; allow generous slack *)
  let n = 4000 and k = 2 in
  let h = Tz.Hierarchy.sample ~rng:(rng 5) ~k ~n in
  let a1 = List.length (Tz.Hierarchy.members h 1) in
  let expected = float_of_int n ** (1.0 -. (1.0 /. float_of_int k)) in
  Alcotest.(check bool)
    (Printf.sprintf "|A_1|=%d ~ %.0f" a1 expected)
    true
    (float_of_int a1 > expected /. 3.0 && float_of_int a1 < expected *. 3.0)

let test_pivot_distances () =
  let g = er_graph () in
  let h = Tz.Hierarchy.build ~rng:(rng 7) ~k:3 g in
  let n = Graph.n g in
  for i = 0 to 2 do
    let members = Tz.Hierarchy.members h i in
    if members <> [] then begin
      let d = (Sssp.dijkstra_multi g ~srcs:members).Sssp.dist in
      for v = 0 to n - 1 do
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "d(v%d, A_%d)" v i)
          d.(v)
          (Tz.Hierarchy.dist_to_level h i v);
        match Tz.Hierarchy.pivot h i v with
        | Some p ->
          Alcotest.(check bool) "pivot in A_i" true (Tz.Hierarchy.mem h i p);
          let dp = (Sssp.dijkstra g ~src:p).Sssp.dist.(v) in
          Alcotest.(check (float 1e-6)) "pivot realises distance" d.(v) dp
        | None -> Alcotest.failf "no pivot for %d at level %d" v i
      done
    end
  done

let test_strict_pivots () =
  (* when pivot stays at level exactly i, membership y in C(pivot) holds;
     the unit-weight grid has the distance ties that promotion resolves *)
  List.iter
    (fun g ->
      let h = Tz.Hierarchy.build ~rng:(rng 13) ~k:3 g in
      let clusters = Tz.Cluster.all g h in
      let n = Graph.n g in
      for y = 0 to n - 1 do
        for i = 0 to 2 do
          match Tz.Hierarchy.pivot h i y with
          | Some w when Tz.Hierarchy.level h w = i ->
            Alcotest.(check bool)
              (Printf.sprintf "y=%d in C(pivot_%d=%d)" y i w)
              true
              (Tz.Cluster.mem clusters.(w) y)
          | _ -> ()
        done
      done)
    [ er_graph ~seed:11 (); Gen.grid ~rng:(rng 15) ~rows:10 ~cols:10 () ]

(* ---------- Clusters ---------- *)

let test_cluster_definition () =
  let g = er_graph ~seed:21 ~n:80 () in
  let h = Tz.Hierarchy.build ~rng:(rng 23) ~k:3 g in
  let clusters = Tz.Cluster.all g h in
  let n = Graph.n g in
  Array.iter
    (fun c ->
      let w = c.Tz.Cluster.owner in
      let i = c.Tz.Cluster.owner_level in
      let dw = (Sssp.dijkstra g ~src:w).Sssp.dist in
      for v = 0 to n - 1 do
        let should = dw.(v) < Tz.Hierarchy.dist_to_level h (i + 1) v in
        Alcotest.(check bool)
          (Printf.sprintf "v%d in C(%d)" v w)
          should
          (Tz.Cluster.mem c v)
      done;
      (* tree distances are graph distances *)
      List.iter
        (fun (v, d) ->
          Alcotest.(check (float 1e-6)) "cluster dist exact" dw.(v) d;
          Alcotest.(check (float 1e-6)) "tree dist = graph dist" dw.(v)
            (Tree.dist_weight c.Tz.Cluster.tree w v))
        c.Tz.Cluster.dist)
    clusters

let test_cluster_membership_bound () =
  let g = er_graph ~seed:31 ~n:200 () in
  let k = 3 in
  let h = Tz.Hierarchy.build ~rng:(rng 33) ~k g in
  let clusters = Tz.Cluster.all g h in
  let bound =
    let n = float_of_int (Graph.n g) in
    4.0 *. (n ** (1.0 /. float_of_int k)) *. log n
  in
  let worst = Tz.Cluster.max_membership clusters in
  Alcotest.(check bool)
    (Printf.sprintf "membership %d <= 4 n^{1/k} ln n = %.0f" worst bound)
    true
    (float_of_int worst <= bound)

let test_top_level_cluster_spans () =
  let g = er_graph ~seed:41 ~n:60 () in
  let h = Tz.Hierarchy.build ~rng:(rng 43) ~k:3 g in
  let clusters = Tz.Cluster.all g h in
  Array.iter
    (fun c ->
      if c.Tz.Cluster.owner_level = 2 then
        Alcotest.(check int) "top cluster spans V" (Graph.n g)
          (Tree.size c.Tz.Cluster.tree))
    clusters

let test_bunches_dual () =
  let g = er_graph ~seed:51 ~n:70 () in
  let h = Tz.Hierarchy.build ~rng:(rng 53) ~k:3 g in
  let clusters = Tz.Cluster.all g h in
  let bunches = Tz.Cluster.bunches g h in
  Array.iteri
    (fun v entries ->
      List.iter
        (fun (w, d) ->
          Alcotest.(check bool) "dual" true (Tz.Cluster.mem clusters.(w) v);
          let dw = (Sssp.dijkstra g ~src:w).Sssp.dist.(v) in
          Alcotest.(check (float 1e-6)) "bunch distance" dw d)
        entries)
    bunches

(* ---------- Oracle ---------- *)

let test_oracle_stretch () =
  List.iter
    (fun k ->
      let g = er_graph ~seed:(60 + k) ~n:100 () in
      let oracle = Tz.Oracle.build ~rng:(rng (61 + k)) ~k g in
      let n = Graph.n g in
      for src = 0 to min 19 (n - 1) do
        let exact = (Sssp.dijkstra g ~src).Sssp.dist in
        for dst = 0 to n - 1 do
          if dst <> src then begin
            let est = Tz.Oracle.query oracle src dst in
            if est < exact.(dst) -. 1e-6 then
              Alcotest.failf "oracle underestimates: %f < %f" est exact.(dst);
            if est > (float_of_int ((2 * k) - 1) *. exact.(dst)) +. 1e-6 then
              Alcotest.failf "k=%d stretch violated: %f > %d * %f" k est
                ((2 * k) - 1)
                exact.(dst)
          end
        done
      done)
    [ 2; 3; 4 ]

(* ---------- oracle: disconnected vs broken-hierarchy exhaustion ---------- *)

let test_oracle_disconnected () =
  (* two components: exhaustion across them is the legitimate answer *)
  let c1 = er_graph ~seed:61 ~n:40 ~deg:4.0 () in
  let edges =
    Graph.edges c1
    @ List.map
        (fun { Graph.u; v; w } -> { Graph.u = u + 40; v = v + 40; w })
        (Graph.edges c1)
  in
  let g = Graph.of_edges ~n:80 edges in
  let oracle = Tz.Oracle.build ~rng:(rng 62) ~k:3 g in
  (* across components: Disconnected, and query reports plain infinity *)
  Alcotest.(check bool)
    "checked = Disconnected" true
    (Tz.Oracle.query_checked oracle 3 47 = Tz.Oracle.Disconnected);
  Alcotest.(check bool)
    "query = infinity" true
    (Tz.Oracle.query oracle 3 47 = infinity);
  (* within a component everything stays finite *)
  Alcotest.(check bool)
    "same-component query finite" true
    (Float.is_finite (Tz.Oracle.query oracle 3 17))

let test_oracle_broken_hierarchy () =
  let g = er_graph ~seed:63 ~n:60 ~deg:5.0 () in
  let oracle = Tz.Oracle.build ~rng:(rng 64) ~k:3 g in
  let h = Tz.Oracle.hierarchy oracle in
  let k = Tz.Oracle.k oracle in
  let u = 5 and v = 41 in
  Alcotest.(check bool)
    "intact pair answers" true
    (Float.is_finite (Tz.Oracle.query oracle u v));
  (* corrupt every bunch entry the walk for (u, v) can reach, mirroring the
     walk's swap discipline, so the walk is guaranteed to exhaust *)
  let o = ref oracle in
  let rec corrupt i u' v' w =
    o := Tz.Oracle.drop_bunch_entry !o ~v:v' ~w;
    let i = i + 1 in
    if i < k then begin
      let u'', v'' = (v', u') in
      match Tz.Hierarchy.pivot h i u'' with
      | None -> ()
      | Some w' -> corrupt i u'' v'' w'
    end
  in
  corrupt 0 u v u;
  (match Tz.Oracle.query_checked !o u v with
  | Tz.Oracle.Broken_hierarchy { u = bu; v = bv; level } ->
    Alcotest.(check bool) "reports the queried pair" true (bu = u && bv = v);
    Alcotest.(check bool) "level within hierarchy" true (level >= 1 && level <= k)
  | Tz.Oracle.Distance d -> Alcotest.failf "corrupted walk answered %f" d
  | Tz.Oracle.Disconnected -> Alcotest.fail "connected pair reported Disconnected");
  (match Tz.Oracle.query !o u v with
  | exception Invalid_argument _ -> ()
  | d -> Alcotest.failf "query on corrupted oracle returned %f instead of raising" d);
  (* the corruption hook copies: the original oracle still answers *)
  Alcotest.(check bool)
    "original untouched" true
    (Float.is_finite (Tz.Oracle.query oracle u v))

let test_oracle_symmetric_zero () =
  let g = er_graph ~seed:71 ~n:50 () in
  let oracle = Tz.Oracle.build ~rng:(rng 73) ~k:3 g in
  Alcotest.(check (float 1e-9)) "self" 0.0 (Tz.Oracle.query oracle 7 7)

(* ---------- Tree routing ---------- *)

let check_exact_tree_routing tree =
  let scheme = Tz.Tree_routing.build tree in
  let vs = Array.of_list (Tree.vertices tree) in
  let nv = Array.length vs in
  let r = rng 101 in
  for _ = 1 to 400 do
    let src = vs.(Random.State.int r nv) and dst = vs.(Random.State.int r nv) in
    let path = Tz.Tree_routing.route scheme ~src ~dst in
    let expected = Tree.path tree src dst in
    if path <> expected then
      Alcotest.failf "tree route %d->%d: got %s want %s" src dst
        (String.concat "," (List.map string_of_int path))
        (String.concat "," (List.map string_of_int expected))
  done

let test_tree_routing_random () =
  let g = Gen.random_tree ~rng:(rng 103) ~n:300 () in
  check_exact_tree_routing (Tree.of_tree_graph g ~root:0)

let test_tree_routing_spider () =
  let g = Gen.random_spider ~rng:(rng 105) ~legs:12 ~leg_len:10 () in
  check_exact_tree_routing (Tree.of_tree_graph g ~root:0)

let test_tree_routing_caterpillar () =
  let g = Gen.caterpillar ~rng:(rng 107) ~spine:40 ~legs_per:2 () in
  check_exact_tree_routing (Tree.of_tree_graph g ~root:5)

let test_tree_routing_path () =
  let g = Gen.grid ~rng:(rng 109) ~rows:1 ~cols:50 () in
  check_exact_tree_routing (Tree.of_tree_graph g ~root:25)

let test_tree_table_label_sizes () =
  let g = Gen.random_tree ~rng:(rng 111) ~n:1000 () in
  let tree = Tree.of_tree_graph g ~root:0 in
  let scheme = Tz.Tree_routing.build tree in
  let log2n = int_of_float (ceil (log 1000.0 /. log 2.0)) in
  List.iter
    (fun v ->
      match Tz.Tree_routing.table scheme v with
      | None -> ()
      | Some tab ->
        Alcotest.(check int) "table words" 4 (Tz.Tree_routing.table_words tab))
    (Tree.vertices tree);
  List.iter
    (fun v ->
      match Tz.Tree_routing.label scheme v with
      | None -> ()
      | Some lab ->
        let w = Tz.Tree_routing.label_words lab in
        Alcotest.(check bool)
          (Printf.sprintf "label %d <= 2 + 2 log n" w)
          true
          (w <= 2 + (2 * log2n)))
    (Tree.vertices tree)

let test_tree_routing_on_subset_tree () =
  (* a cluster tree lives on a subset of the host graph's ids *)
  let g = er_graph ~seed:121 ~n:60 () in
  let h = Tz.Hierarchy.build ~rng:(rng 123) ~k:3 g in
  let clusters = Tz.Cluster.all g h in
  let c =
    (* pick the largest cluster *)
    Array.to_list clusters
    |> List.sort (fun a b ->
           compare (Tree.size b.Tz.Cluster.tree) (Tree.size a.Tz.Cluster.tree))
    |> List.hd
  in
  check_exact_tree_routing c.Tz.Cluster.tree

(* ---------- Graph routing ---------- *)

let check_graph_routing_stretch ~k ~seed ~n ~pairs =
  let g = er_graph ~seed ~n () in
  let scheme = Tz.Graph_routing.build ~rng:(rng (seed + 1)) ~k g in
  let nv = Graph.n g in
  let r = rng (seed + 2) in
  let worst = ref 1.0 in
  for _ = 1 to pairs do
    let src = Random.State.int r nv and dst = Random.State.int r nv in
    if src <> dst then begin
      let exact = (Sssp.dijkstra g ~src).Sssp.dist.(dst) in
      match Tz.Graph_routing.route_weight g scheme ~src ~dst with
      | Error e -> Alcotest.failf "route %d->%d failed: %s" src dst (Tz.Routing_error.to_string e)
      | Ok w ->
        let stretch = w /. exact in
        worst := max !worst stretch;
        if stretch > float_of_int ((4 * k) - 3) +. 1e-6 then
          Alcotest.failf "stretch %f > 4k-3 for %d->%d" stretch src dst
    end
  done;
  !worst

let test_graph_routing_k2 () = ignore (check_graph_routing_stretch ~k:2 ~seed:131 ~n:100 ~pairs:400)
let test_graph_routing_k3 () = ignore (check_graph_routing_stretch ~k:3 ~seed:141 ~n:120 ~pairs:400)
let test_graph_routing_k4 () = ignore (check_graph_routing_stretch ~k:4 ~seed:151 ~n:140 ~pairs:400)

let test_graph_routing_delivers_everywhere () =
  let g = er_graph ~seed:161 ~n:80 () in
  let scheme = Tz.Graph_routing.build ~rng:(rng 163) ~k:3 g in
  let n = Graph.n g in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      match Tz.Graph_routing.route scheme ~src ~dst with
      | Ok path ->
        Alcotest.(check int) "starts at src" src (List.hd path);
        Alcotest.(check int) "ends at dst" dst (List.nth path (List.length path - 1))
      | Error e -> Alcotest.failf "%d->%d: %s" src dst (Tz.Routing_error.to_string e)
    done
  done

let test_graph_routing_table_sizes () =
  let k = 3 in
  let g = er_graph ~seed:171 ~n:250 () in
  let scheme = Tz.Graph_routing.build ~rng:(rng 173) ~k g in
  let n = float_of_int (Graph.n g) in
  let table_bound = 5.0 *. 4.0 *. (n ** (1.0 /. float_of_int k)) *. log n in
  let mt = Tz.Graph_routing.max_table_words scheme in
  Alcotest.(check bool)
    (Printf.sprintf "tables %d <= %.0f" mt table_bound)
    true
    (float_of_int mt <= table_bound);
  let log2n = ceil (log n /. log 2.0) in
  let label_bound = float_of_int k *. ((2.0 *. log2n) +. 3.0) in
  let ml = Tz.Graph_routing.max_label_words scheme in
  Alcotest.(check bool)
    (Printf.sprintf "labels %d <= k(2 log n + 3) = %.0f" ml label_bound)
    true
    (float_of_int ml <= label_bound)

let test_graph_routing_weighted_grid () =
  let g = Gen.grid ~rng:(rng 181) ~weights:(Gen.uniform_weights 1.0 4.0) ~rows:10 ~cols:10 () in
  let k = 3 in
  let scheme = Tz.Graph_routing.build ~rng:(rng 183) ~k g in
  let r = rng 185 in
  for _ = 1 to 200 do
    let src = Random.State.int r 100 and dst = Random.State.int r 100 in
    if src <> dst then begin
      let exact = (Sssp.dijkstra g ~src).Sssp.dist.(dst) in
      match Tz.Graph_routing.route_weight g scheme ~src ~dst with
      | Error e -> Alcotest.failf "%s" (Tz.Routing_error.to_string e)
      | Ok w ->
        Alcotest.(check bool) "stretch bound" true
          (w <= (float_of_int ((4 * k) - 3) *. exact) +. 1e-6)
    end
  done


(* ---------- forwarding-machine unit semantics ---------- *)

let test_step_semantics () =
  (* hand-built table/label checks of the three forwarding rules *)
  let tab = { Tz.Tree_routing.entry = 10; exit_ = 20; parent = 3; heavy = 5 } in
  let lab target_entry lights =
    { Tz.Tree_routing.target = 99; target_entry; lights }
  in
  (* arrived *)
  Alcotest.(check bool) "arrived" true
    (Tz.Tree_routing.step ~me:7 tab (lab 10 []) = Tz.Tree_routing.Arrived);
  (* destination outside my subtree: go to parent *)
  Alcotest.(check bool) "up" true
    (Tz.Tree_routing.step ~me:7 tab (lab 5 []) = Tz.Tree_routing.Forward 3);
  Alcotest.(check bool) "up (beyond)" true
    (Tz.Tree_routing.step ~me:7 tab (lab 25 []) = Tz.Tree_routing.Forward 3);
  (* inside, my light edge named: take it *)
  Alcotest.(check bool) "light" true
    (Tz.Tree_routing.step ~me:7 tab (lab 15 [ (7, 12) ]) = Tz.Tree_routing.Forward 12);
  (* inside, not named: heavy child *)
  Alcotest.(check bool) "heavy" true
    (Tz.Tree_routing.step ~me:7 tab (lab 15 [ (4, 12) ]) = Tz.Tree_routing.Forward 5)

let test_tree_route_errors () =
  let g = Gen.random_tree ~rng:(rng 301) ~n:10 () in
  let t = Tree.of_tree_graph g ~root:0 in
  let scheme = Tz.Tree_routing.build t in
  (* self route is the singleton path *)
  Alcotest.(check (list int)) "self" [ 4 ] (Tz.Tree_routing.route scheme ~src:4 ~dst:4)

let test_oracle_bunch_sizes () =
  let g = er_graph ~seed:311 ~n:300 () in
  let k = 3 in
  let oracle = Tz.Oracle.build ~rng:(rng 313) ~k g in
  let n = float_of_int (Graph.n g) in
  (* whp bunches are O(k n^{1/k} log n) entries => words bound with slack *)
  let bound = 3.0 *. 2.0 *. float_of_int k *. (n ** (1.0 /. float_of_int k)) *. log n in
  let worst = Tz.Oracle.max_bunch_size oracle in
  Alcotest.(check bool)
    (Printf.sprintf "bunch words %d <= %.0f" worst bound)
    true
    (float_of_int worst <= bound)

let test_hierarchy_unbuilt_raises () =
  let h = Tz.Hierarchy.sample ~rng:(rng 321) ~k:3 ~n:10 in
  Alcotest.check_raises "pivot needs build"
    (Invalid_argument "Hierarchy.pivot: hierarchy was not built on a graph") (fun () ->
      ignore (Tz.Hierarchy.pivot h 1 0))

(* ---------- qcheck properties ---------- *)

let prop_oracle_never_underestimates =
  QCheck.Test.make ~name:"oracle never underestimates" ~count:25
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 10 80)))
    (fun (seed, n) ->
      let g = er_graph ~seed ~n () in
      let nv = Graph.n g in
      QCheck.assume (nv >= 2);
      let oracle = Tz.Oracle.build ~rng:(rng (seed + 9)) ~k:3 g in
      let src = seed mod nv in
      let exact = (Sssp.dijkstra g ~src).Sssp.dist in
      Array.for_all Fun.id
        (Array.init nv (fun v -> Tz.Oracle.query oracle src v >= exact.(v) -. 1e-6)))

let prop_routing_roundtrip_bounded =
  QCheck.Test.make ~name:"routed path bounded by 4k-3 both directions" ~count:15
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 20 70)))
    (fun (seed, n) ->
      let k = 3 in
      let g = er_graph ~seed ~n () in
      let nv = Graph.n g in
      QCheck.assume (nv >= 3);
      let scheme = Tz.Graph_routing.build ~rng:(rng (seed + 5)) ~k g in
      let u = seed mod nv and v = (seed / 7) mod nv in
      QCheck.assume (u <> v);
      let exact = (Sssp.dijkstra g ~src:u).Sssp.dist.(v) in
      match
        ( Tz.Graph_routing.route_weight g scheme ~src:u ~dst:v,
          Tz.Graph_routing.route_weight g scheme ~src:v ~dst:u )
      with
      | Ok a, Ok b ->
        let bound = (float_of_int ((4 * k) - 3) *. exact) +. 1e-6 in
        a <= bound && b <= bound
      | _ -> false)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "tz"
    [
      ( "hierarchy",
        [
          Alcotest.test_case "nesting" `Quick test_hierarchy_nesting;
          Alcotest.test_case "population" `Quick test_hierarchy_population;
          Alcotest.test_case "pivot distances" `Quick test_pivot_distances;
          Alcotest.test_case "strict pivots cluster" `Quick test_strict_pivots;
        ] );
      ( "clusters",
        [
          Alcotest.test_case "definition" `Quick test_cluster_definition;
          Alcotest.test_case "membership bound (Claim 6)" `Quick test_cluster_membership_bound;
          Alcotest.test_case "top level spans" `Quick test_top_level_cluster_spans;
          Alcotest.test_case "bunch duality" `Quick test_bunches_dual;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "stretch 2k-1" `Slow test_oracle_stretch;
          Alcotest.test_case "self distance" `Quick test_oracle_symmetric_zero;
          Alcotest.test_case "disconnected pairs" `Quick test_oracle_disconnected;
          Alcotest.test_case "broken hierarchy detected" `Quick
            test_oracle_broken_hierarchy;
        ] );
      ( "tree-routing",
        [
          Alcotest.test_case "random tree exact" `Quick test_tree_routing_random;
          Alcotest.test_case "spider exact" `Quick test_tree_routing_spider;
          Alcotest.test_case "caterpillar exact" `Quick test_tree_routing_caterpillar;
          Alcotest.test_case "path exact" `Quick test_tree_routing_path;
          Alcotest.test_case "table/label sizes" `Quick test_tree_table_label_sizes;
          Alcotest.test_case "cluster-subset tree" `Quick test_tree_routing_on_subset_tree;
        ] );
      ( "units",
        [
          Alcotest.test_case "step rules" `Quick test_step_semantics;
          Alcotest.test_case "route corner cases" `Quick test_tree_route_errors;
          Alcotest.test_case "oracle bunch sizes" `Quick test_oracle_bunch_sizes;
          Alcotest.test_case "unbuilt hierarchy raises" `Quick test_hierarchy_unbuilt_raises;
        ] );
      ( "graph-routing",
        [
          Alcotest.test_case "stretch k=2" `Quick test_graph_routing_k2;
          Alcotest.test_case "stretch k=3" `Quick test_graph_routing_k3;
          Alcotest.test_case "stretch k=4" `Quick test_graph_routing_k4;
          Alcotest.test_case "all pairs delivered" `Slow test_graph_routing_delivers_everywhere;
          Alcotest.test_case "table/label bounds" `Quick test_graph_routing_table_sizes;
          Alcotest.test_case "weighted grid" `Quick test_graph_routing_weighted_grid;
        ] );
      qsuite "properties" [ prop_oracle_never_underestimates; prop_routing_roundtrip_bounded ];
    ]
