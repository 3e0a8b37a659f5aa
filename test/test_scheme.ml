(* Tests for the general-graph routing scheme of Appendix B: delivery,
   stretch, the approximate-cluster sandwich (Claims 9/10), approximate
   pivots, size and memory bounds. *)

open Dgraph

let rng seed = Random.State.make [| seed; 313 |]

let workload ?(seed = 1) ?(n = 120) ?(deg = 5.0) () =
  Gen.connected_erdos_renyi ~rng:(rng seed)
    ~weights:(Gen.uniform_weights 1.0 8.0) ~n ~avg_deg:deg ()

let params ?epsilon ?beta ?b () =
  let d = Routing.Scheme.Params.default in
  {
    d with
    Routing.Scheme.Params.epsilon =
      Option.value epsilon ~default:d.Routing.Scheme.Params.epsilon;
    beta;
    b;
  }

let build ?(seed = 1) ?(k = 3) ?epsilon ?beta g =
  Routing.Scheme.build ~rng:(rng (seed + 100)) ~k ~params:(params ?epsilon ?beta ()) g

(* ---------- delivery and stretch ---------- *)

let check_delivery_and_stretch ~k ~seed ~n =
  let g = workload ~seed ~n () in
  let scheme = build ~seed ~k g in
  let eps = Routing.Scheme.epsilon scheme in
  let bound = float_of_int ((4 * k) - 3) *. (1.0 +. (8.0 *. eps)) in
  match
    Routing.Stretch.all_pairs_max g ~route:(fun ~src ~dst ->
        Routing.Scheme.route scheme ~src ~dst)
  with
  | Error e -> Alcotest.failf "undelivered: %s" e
  | Ok worst ->
    Alcotest.(check bool)
      (Printf.sprintf "k=%d worst stretch %.3f <= %.3f" k worst bound)
      true (worst <= bound)

let test_stretch_k2 () = check_delivery_and_stretch ~k:2 ~seed:11 ~n:90
let test_stretch_k3 () = check_delivery_and_stretch ~k:3 ~seed:13 ~n:110
let test_stretch_k4 () = check_delivery_and_stretch ~k:4 ~seed:15 ~n:130

let test_stretch_grid () =
  let g = Gen.grid ~rng:(rng 17) ~weights:(Gen.uniform_weights 1.0 4.0) ~rows:9 ~cols:9 () in
  let scheme = build ~seed:17 ~k:3 g in
  match
    Routing.Stretch.all_pairs_max g ~route:(fun ~src ~dst ->
        Routing.Scheme.route scheme ~src ~dst)
  with
  | Error e -> Alcotest.failf "undelivered: %s" e
  | Ok worst ->
    Alcotest.(check bool) (Printf.sprintf "grid stretch %.3f" worst) true (worst <= 10.0)

let test_routes_are_paths () =
  let g = workload ~seed:19 ~n:80 () in
  let scheme = build ~seed:19 ~k:3 g in
  let r = rng 20 in
  for _ = 1 to 300 do
    let src = Random.State.int r (Graph.n g) and dst = Random.State.int r (Graph.n g) in
    match Routing.Scheme.route scheme ~src ~dst with
    | Error e -> Alcotest.failf "%s" (Tz.Routing_error.to_string e)
    | Ok path ->
      Alcotest.(check int) "starts" src (List.hd path);
      Alcotest.(check int) "ends" dst (List.nth path (List.length path - 1));
      (* consecutive vertices adjacent: path_weight raises otherwise *)
      ignore (Sssp.path_weight g path)
  done

(* ---------- Claims 9 and 10 ---------- *)

let sandwich_check ~seed ~n ~k =
  let g = workload ~seed ~n () in
  let scheme = build ~seed ~k g in
  let eps = Routing.Scheme.epsilon scheme in
  let h = Routing.Scheme.hierarchy scheme in
  let nv = Graph.n g in
  List.iter
    (fun (w, tree) ->
      let i = Tz.Hierarchy.level h w in
      let dw = (Sssp.dijkstra g ~src:w).Sssp.dist in
      for u = 0 to nv - 1 do
        let d_next = Tz.Hierarchy.dist_to_level h (i + 1) u in
        (* Claim 9: members of the approximate cluster are in C(w) *)
        if Tree.mem tree u && u <> w then
          Alcotest.(check bool)
            (Printf.sprintf "claim9 w=%d u=%d" w u)
            true
            (dw.(u) < d_next +. 1e-9);
        (* Claim 10: C_{6eps}(w) is inside the approximate cluster *)
        if dw.(u) *. (1.0 +. (6.0 *. eps)) < d_next then
          Alcotest.(check bool)
            (Printf.sprintf "claim10 w=%d u=%d" w u)
            true (Tree.mem tree u)
      done)
    (Routing.Scheme.approx_cluster_trees scheme)

let test_claims_9_10 () = sandwich_check ~seed:31 ~n:100 ~k:3
let test_claims_9_10_k4 () = sandwich_check ~seed:33 ~n:120 ~k:4

let test_approx_pivots () =
  let g = workload ~seed:41 ~n:120 () in
  let k = 4 in
  let scheme = build ~seed:41 ~k g in
  let eps = Routing.Scheme.epsilon scheme in
  let h = Routing.Scheme.hierarchy scheme in
  let nv = Graph.n g in
  for j = (k / 2) + 1 to k - 1 do
    match Routing.Scheme.pivot_estimate scheme ~level:j with
    | None -> ()
    | Some (dhat, origin) ->
      let members = Tz.Hierarchy.members h j in
      if members <> [] then begin
        let exact = (Sssp.dijkstra_multi g ~srcs:members).Sssp.dist in
        for u = 0 to nv - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "dhat lower level %d u %d" j u)
            true
            (dhat.(u) >= exact.(u) -. 1e-9);
          Alcotest.(check bool)
            (Printf.sprintf "dhat upper (1+eps) level %d u %d: %f vs %f" j u dhat.(u) exact.(u))
            true
            (dhat.(u) <= ((1.0 +. eps) *. exact.(u)) +. 1e-9);
          if origin.(u) >= 0 then
            Alcotest.(check bool) "origin is a level member" true
              (Tz.Hierarchy.mem h j origin.(u))
        done
      end
  done

let test_cluster_trees_are_shortest_pathish () =
  (* members of C_{6eps} reach the root within (1+2eps) of optimal *)
  let g = workload ~seed:51 ~n:100 () in
  let scheme = build ~seed:51 ~k:3 g in
  let eps = Routing.Scheme.epsilon scheme in
  let h = Routing.Scheme.hierarchy scheme in
  List.iter
    (fun (w, tree) ->
      let i = Tz.Hierarchy.level h w in
      let dw = (Sssp.dijkstra g ~src:w).Sssp.dist in
      List.iter
        (fun u ->
          if u <> w && dw.(u) *. (1.0 +. (6.0 *. eps)) < Tz.Hierarchy.dist_to_level h (i + 1) u
          then begin
            let dt = Tree.dist_weight tree w u in
            Alcotest.(check bool)
              (Printf.sprintf "tree dist w=%d u=%d: %.3f vs %.3f" w u dt dw.(u))
              true
              (dt <= ((1.0 +. (2.0 *. eps)) *. dw.(u)) +. 1e-6)
          end)
        (Tree.vertices tree))
    (Routing.Scheme.approx_cluster_trees scheme)

(* ---------- sizes and memory ---------- *)

let test_size_bounds () =
  let k = 3 in
  let g = workload ~seed:61 ~n:250 () in
  let scheme = build ~seed:61 ~k g in
  let n = float_of_int (Graph.n g) in
  let table_bound = 5.0 *. 4.0 *. (n ** (1.0 /. float_of_int k)) *. log n in
  let mt = Routing.Scheme.max_table_words scheme in
  Alcotest.(check bool)
    (Printf.sprintf "tables %d <= %.0f" mt table_bound)
    true
    (float_of_int mt <= table_bound);
  let log2n = ceil (log n /. log 2.0) in
  let label_bound = float_of_int k *. ((2.0 *. log2n) +. 4.0) in
  let ml = Routing.Scheme.max_label_words scheme in
  Alcotest.(check bool)
    (Printf.sprintf "labels %d <= k(2 log n + 4) = %.0f" ml label_bound)
    true
    (float_of_int ml <= label_bound)

let test_memory_bound () =
  let k = 3 in
  let g = workload ~seed:71 ~n:250 () in
  let scheme = build ~seed:71 ~k g in
  let n = float_of_int (Graph.n g) in
  let bound = 12.0 *. (n ** (1.0 /. float_of_int k)) *. (log n ** 2.0) in
  let peak = Routing.Scheme.peak_memory_words scheme in
  Alcotest.(check bool)
    (Printf.sprintf "memory %d <= 12 n^{1/k} log^2 n = %.0f" peak bound)
    true
    (float_of_int peak <= bound)

let test_cost_phases () =
  let g = workload ~seed:81 ~n:100 () in
  let scheme = build ~seed:81 ~k:3 g in
  let cost = Routing.Scheme.cost scheme in
  Alcotest.(check bool) "has phases" true (List.length cost.Routing.Cost.phases >= 4);
  Alcotest.(check bool) "positive rounds" true (Routing.Cost.total_rounds cost > 0);
  Alcotest.(check bool) "peak covers final state" true
    (Routing.Cost.peak_memory cost >= 1)

let test_virtual_graph_parameters () =
  let g = workload ~seed:91 ~n:200 () in
  let scheme = build ~seed:91 ~k:2 g in
  Alcotest.(check bool) "virtual set nonempty" true (Routing.Scheme.virtual_size scheme > 0);
  Alcotest.(check bool) "B positive" true (Routing.Scheme.b_bound scheme > 0);
  Alcotest.(check bool) "hopset nonempty" true (Routing.Scheme.hopset_size scheme > 0)

(* ---------- integration: the two halves of the paper composed ---------- *)

let test_distributed_tree_routing_on_cluster_tree () =
  (* Appendix B hands every approximate cluster tree to the Section 3
     protocol. Run the message-level protocol on a cluster tree produced by
     the scheme, over the original network, and check exactness. *)
  let g = workload ~seed:151 ~n:150 () in
  let scheme = build ~seed:151 ~k:3 g in
  let tree =
    Routing.Scheme.approx_cluster_trees scheme
    |> List.map snd
    |> List.sort (fun a b -> compare (Tree.size b) (Tree.size a))
    |> List.hd
  in
  Alcotest.(check bool) "cluster tree is large" true (Tree.size tree > 50);
  let out = Routing.Dist_tree_routing.run ~rng:(rng 152) g ~tree in
  Alcotest.(check (list string)) "no protocol failures" []
    out.Routing.Dist_tree_routing.failures;
  let vs = Array.of_list (Tree.vertices tree) in
  let r = rng 153 in
  for _ = 1 to 400 do
    let src = vs.(Random.State.int r (Array.length vs))
    and dst = vs.(Random.State.int r (Array.length vs)) in
    let p = Tz.Tree_routing.route out.Routing.Dist_tree_routing.scheme ~src ~dst in
    if p <> Tree.path tree src dst then Alcotest.failf "pair %d->%d" src dst
  done;
  (* low memory holds on cluster trees too *)
  let peak = Congest.Metrics.peak_memory_max out.Routing.Dist_tree_routing.report in
  Alcotest.(check bool) (Printf.sprintf "peak %d stays low" peak) true (peak <= 90)

(* ---------- comparison against centralized TZ on the same graph ---------- *)

let test_vs_centralized_tz () =
  let g = workload ~seed:101 ~n:100 () in
  let k = 3 in
  let ours = build ~seed:101 ~k g in
  let tz = Tz.Graph_routing.build ~rng:(rng 102) ~k g in
  let s_ours =
    Routing.Stretch.evaluate ~rng:(rng 103) ~pairs:400 g ~route:(fun ~src ~dst ->
        Routing.Scheme.route ours ~src ~dst)
  in
  let s_tz =
    Routing.Stretch.evaluate ~rng:(rng 103) ~pairs:400 g ~route:(fun ~src ~dst ->
        Tz.Graph_routing.route tz ~src ~dst)
  in
  Alcotest.(check bool) "both deliver all" true
    (s_ours.Routing.Stretch.delivered = s_ours.Routing.Stretch.pairs
    && s_tz.Routing.Stretch.delivered = s_tz.Routing.Stretch.pairs);
  (* approximate clusters cost at most a small stretch factor over exact TZ *)
  Alcotest.(check bool)
    (Printf.sprintf "avg stretch ours %.3f within 1.5x of TZ %.3f"
       s_ours.Routing.Stretch.avg_stretch s_tz.Routing.Stretch.avg_stretch)
    true
    (s_ours.Routing.Stretch.avg_stretch
    <= (1.5 *. s_tz.Routing.Stretch.avg_stretch) +. 0.5)

let test_hop_bounded_regime () =
  (* force B far below the hop diameter: routing must now lean on hopset
     jumps and path recovery (the default B hides this at small n) *)
  let g = Gen.ring ~rng:(rng 111) ~weights:(Gen.uniform_weights 1.0 4.0) ~n:200 () in
  let scheme = Routing.Scheme.build ~rng:(rng 112) ~k:2 ~params:(params ~b:24 ()) g in
  Alcotest.(check bool) "B << diameter" true
    (Routing.Scheme.b_bound scheme * 4 < Diameter.hop_diameter g);
  match
    Routing.Stretch.all_pairs_max g ~route:(fun ~src ~dst ->
        Routing.Scheme.route scheme ~src ~dst)
  with
  | Error e -> Alcotest.failf "undelivered: %s" e
  | Ok worst ->
    Alcotest.(check bool) (Printf.sprintf "worst %.3f <= 5+o(1)" worst) true (worst <= 5.5)

let test_dumbbell_topology () =
  (* large S, small intra-blob distances: the D-vs-S separation workload *)
  let g = Gen.dumbbell ~rng:(rng 121) ~side:40 ~bridge:30 () in
  let scheme = build ~seed:122 ~k:3 g in
  match
    Routing.Stretch.all_pairs_max g ~route:(fun ~src ~dst ->
        Routing.Scheme.route scheme ~src ~dst)
  with
  | Error e -> Alcotest.failf "undelivered: %s" e
  | Ok worst -> Alcotest.(check bool) "bound" true (worst <= 9.5)

let test_invalid_parameters () =
  let g = workload ~seed:131 ~n:30 () in
  Alcotest.check_raises "k=1 rejected" (Invalid_argument "Scheme.build: k >= 2 required")
    (fun () -> ignore (Routing.Scheme.build ~rng:(rng 132) ~k:1 g));
  Alcotest.check_raises "b=0 rejected" (Invalid_argument "Scheme.build: b >= 1 required")
    (fun () ->
      ignore (Routing.Scheme.build ~rng:(rng 133) ~k:2 ~params:(params ~b:0 ()) g))

let test_self_route () =
  let g = workload ~seed:141 ~n:40 () in
  let scheme = build ~seed:141 ~k:2 g in
  let routing_error = Alcotest.testable Tz.Routing_error.pp Tz.Routing_error.equal in
  Alcotest.(check (result (list int) routing_error)) "self" (Ok [ 7 ])
    (Routing.Scheme.route scheme ~src:7 ~dst:7)

(* ---------- qcheck ---------- *)

let prop_delivery =
  QCheck.Test.make ~name:"scheme delivers sampled pairs" ~count:8
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 30 90)))
    (fun (seed, n) ->
      let g = workload ~seed ~n () in
      let nv = Graph.n g in
      QCheck.assume (nv >= 5);
      let scheme = build ~seed ~k:3 g in
      let r = rng (seed + 7) in
      let ok = ref true in
      for _ = 1 to 40 do
        let s = Random.State.int r nv and d = Random.State.int r nv in
        match Routing.Scheme.route scheme ~src:s ~dst:d with
        | Ok _ -> ()
        | Error _ -> ok := false
      done;
      !ok)

(* ---------- router pins ---------- *)

(* A canonical all-int serialization of a router, digested: every vertex's
   owner-sorted (owner, entry, exit_, parent, heavy) rows, then every
   destination's label entries (owner, target, target_entry, lights) in
   order. Each list is preceded by its length. Any change to a table row or
   a label entry changes the digest. *)
let router_digest gr =
  let b = Buffer.create 4096 in
  let int x =
    Buffer.add_string b (string_of_int x);
    Buffer.add_char b ' '
  in
  let n = Tz.Graph_routing.n gr in
  for v = 0 to n - 1 do
    let rows =
      List.sort
        (fun (a, _) (c, _) -> compare a c)
        (Tz.Graph_routing.fold_tables gr v (fun w tab acc -> (w, tab) :: acc) [])
    in
    int (List.length rows);
    List.iter
      (fun (w, (t : Tz.Tree_routing.table)) ->
        List.iter int [ w; t.entry; t.exit_; t.parent; t.heavy ])
      rows
  done;
  for y = 0 to n - 1 do
    let entries = Tz.Graph_routing.label gr y in
    int (List.length entries);
    List.iter
      (fun (e : Tz.Graph_routing.entry) ->
        let l = e.tree_label in
        List.iter int
          [ e.owner; l.target; l.target_entry; List.length l.lights ];
        List.iter (fun (a, c) -> int a; int c) l.lights)
      entries
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_router what expected gr =
  Alcotest.(check string) (what ^ " router digest") expected (router_digest gr)

(* Scheme.build on ER and grid graphs for k = 2..5. At k = 5 the top level
   [k-1] lies above [ih + 1], so approximate pivots there come from a level
   with no exact distances. *)
let test_pin_scheme_build () =
  let er = workload ~seed:41 ~n:100 () in
  let grid =
    Gen.grid ~rng:(rng 43) ~weights:(Gen.uniform_weights 1.0 4.0) ~rows:9
      ~cols:9 ()
  in
  List.iter
    (fun (what, g, k, expected) ->
      let s = build ~seed:(43 + k) ~k g in
      if k = 5 then
        Alcotest.(check bool)
          (what ^ ": top level populated") true
          (Tz.Hierarchy.members (Routing.Scheme.hierarchy s) (k - 1) <> []);
      check_router (Printf.sprintf "%s k=%d" what k) expected
        (Routing.Scheme.router s))
    [
      ("er", er, 2, "98b84a1b56b684d1930a62451751b7cf");
      ("er", er, 3, "b2d25e46a03a81311008d89450954151");
      ("er", er, 4, "baa4451f6878317beb4af7644a7604eb");
      ("er", er, 5, "1ed406ce7d1e5dff35d5acd22faacffd");
      ("grid", grid, 2, "454007c80965444438f38605e0a4a9ae");
      ("grid", grid, 3, "37f1caf89d53f793eaba192406864ac4");
      ("grid", grid, 4, "838897f4abf5939522899299fcabc56d");
      ("grid", grid, 5, "c64897fba59321aa2a0d5fdf4ab16fa1");
    ]

(* Pipeline.run's spliced scheme on the 6x6 grid pinned in test_dist_hopset,
   and Dist_scheme.build_scheme on a 7x7 grid. *)
let test_pin_distributed () =
  let rng91 seed = Random.State.make [| seed; 91 |] in
  let g = Gen.grid ~rng:(rng91 70) ~rows:6 ~cols:6 () in
  let p = Routing.Pipeline.run ~rng:(rng91 71) ~k:3 ~max_rounds:500_000 g in
  (match p.Routing.Pipeline.scheme with
  | Some s ->
    check_router "Pipeline.run" "d53bf5537b7b9dc8f144d31c281b680a"
      (Routing.Scheme.router s)
  | None -> Alcotest.fail "Pipeline.run spliced no scheme");
  let g = Gen.grid ~rng:(rng 47) ~rows:7 ~cols:7 () in
  let r = rng 48 in
  let o = Routing.Dist_scheme.run ~rng:r ~k:4 ~max_rounds:500_000 g in
  check_router "Dist_scheme.build_scheme" "afb3c5e6d6396e1c938aac09a10d16fb"
    (Routing.Scheme.router (Routing.Dist_scheme.build_scheme ~rng:r g o))

let test_pin_tz () =
  let g = workload ~seed:51 ~n:100 () in
  check_router "Graph_routing.build" "7c599ba49d4fd556bd9e6bf62507f497"
    (Tz.Graph_routing.build ~rng:(rng 52) ~k:3 g)

(* Dyn_scheme after a churn stream, at the default trigger and with every
   repair forced down the rebuild path; the round charges are pinned too. *)
let test_pin_dyn () =
  let module Dyn = Routing.Dyn_scheme in
  let g =
    Congest.Churn.add_spare ~spare:4
      (Gen.grid ~rng:(rng 53) ~weights:(Gen.uniform_weights 1.0 8.0) ~rows:6
         ~cols:6 ())
  in
  List.iter
    (fun (trigger, expected, (build, repair, rebuilds)) ->
      let t =
        Dyn.create ~params:{ Dyn.rebuild_trigger = trigger } ~rng:(rng 54) ~k:3
          g
      in
      List.iter
        (fun e -> ignore (Dyn.apply t e))
        (Congest.Churn.generate
           { Congest.Churn.default_spec with seed = 55; events = 60 }
           g);
      let what = Printf.sprintf "trigger %g" trigger in
      check_router what expected (Dyn.router t);
      let st = Dyn.stats t in
      Alcotest.(check (list int))
        (what ^ " build/repair rounds, rebuilds")
        [ build; repair; rebuilds ]
        [ st.Dyn.build_rounds; st.Dyn.repair_rounds; st.Dyn.full_rebuilds ])
    [
      (1.0, "4b68363ec52779e5c88e043896759732", (49, 1992, 0));
      (0.0, "4b68363ec52779e5c88e043896759732", (49, 2831, 60));
    ]

(* ---------- cost pins ---------- *)

(* A scheme's accounting: total rounds, peak words, a digest of every cost
   phase's (name, detail, rounds, peak words) in order, and a digest of the
   per-vertex final-state words. A digest mismatch prints the phases. *)
let check_cost what (rounds, peak, phases_digest, memory_digest) s =
  let cost = Routing.Scheme.cost s in
  let rows =
    List.map
      (fun (p : Routing.Cost.phase) ->
        Printf.sprintf "%s\t%s\t%d\t%d" p.name p.detail p.rounds p.peak_memory)
      (Routing.Cost.phases cost)
  in
  let digest l = Digest.to_hex (Digest.string (String.concat "\n" l)) in
  Alcotest.(check int) (what ^ " total rounds") rounds (Routing.Cost.total_rounds cost);
  Alcotest.(check int) (what ^ " peak_memory_words") peak
    (Routing.Scheme.peak_memory_words s);
  if digest rows <> phases_digest then
    Alcotest.failf "%s phases digest %s, expected %s; phases:\n%s" what
      (digest rows) phases_digest (String.concat "\n" rows);
  Alcotest.(check string) (what ^ " per-vertex memory digest") memory_digest
    (digest
       (Array.to_list
          (Array.map string_of_int (Routing.Scheme.per_vertex_memory s))))

(* the Scheme.build instances of test_pin_scheme_build *)
let test_cost_scheme_build () =
  let er = workload ~seed:41 ~n:100 () in
  let grid =
    Gen.grid ~rng:(rng 43) ~weights:(Gen.uniform_weights 1.0 4.0) ~rows:9
      ~cols:9 ()
  in
  List.iter
    (fun (what, g, k, expected) ->
      check_cost (Printf.sprintf "%s k=%d" what k) expected
        (build ~seed:(43 + k) ~k g))
    [
      ("er", er, 2,
       (3217, 355, "727759fb0206ba2426423a939e89fad6",
        "8fe03c51717c35e918ed5555da7fe3db") );
      ("er", er, 3,
       (5002, 202, "703d906abd3fab9229ece7ef0340c229",
        "8b8fc77fc0b4627b6a27a564b70c3a27") );
      ("er", er, 4,
       (4683, 171, "f791c4707fcc3924ff12af8b4785b280",
        "ea720360cbeeaa33b9423766539bb603") );
      ("er", er, 5,
       (8439, 200, "21dfd5a678f054d978b61e24f76bb888",
        "23d0f8d7862b92507f9672adbb4a8831") );
      ("grid", grid, 2,
       (2834, 239, "fbdca62d8b526cc4f186eb64aebb7398",
        "17965fb2174390ae3535758ef3c22560") );
      ("grid", grid, 3,
       (5533, 161, "de42c40bfe984eeb244cbf19be09f4bf",
        "9fb37e7e565d7395564eb60c7b097874") );
      ("grid", grid, 4,
       (4210, 169, "3f8d64f4f3e650a1fb57a734df8346ed",
        "c240988385939341f9dc8daf76884b40") );
      ("grid", grid, 5,
       (7646, 123, "32746663bb8c364a54a5b74071efb6e5",
        "88b7ce10b1e009eb48bf115c5b12d835") );
    ]

(* the Pipeline.run and Dist_scheme.build_scheme instances of
   test_pin_distributed *)
let test_cost_distributed () =
  let rng91 seed = Random.State.make [| seed; 91 |] in
  let g = Gen.grid ~rng:(rng91 70) ~rows:6 ~cols:6 () in
  let p = Routing.Pipeline.run ~rng:(rng91 71) ~k:3 ~max_rounds:500_000 g in
  (match p.Routing.Pipeline.scheme with
  | Some s ->
    check_cost "Pipeline.run"
      (7594, 620, "e9f73971ac92e7cf0b8b59a803a32b6e",
       "8022f44ca9e0f80d756c905469baf49e")
      s
  | None -> Alcotest.fail "Pipeline.run spliced no scheme");
  let g = Gen.grid ~rng:(rng 47) ~rows:7 ~cols:7 () in
  let r = rng 48 in
  let o = Routing.Dist_scheme.run ~rng:r ~k:4 ~max_rounds:500_000 g in
  check_cost "Dist_scheme.build_scheme"
    (3606, 120, "8717ade1c5562c6ca165f0da88e21746",
     "65463f688020d162c4440298de592163")
    (Routing.Dist_scheme.build_scheme ~rng:r g o)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "scheme"
    [
      ( "stretch",
        [
          Alcotest.test_case "k=2 all pairs" `Quick test_stretch_k2;
          Alcotest.test_case "k=3 all pairs" `Quick test_stretch_k3;
          Alcotest.test_case "k=4 all pairs" `Quick test_stretch_k4;
          Alcotest.test_case "weighted grid" `Quick test_stretch_grid;
          Alcotest.test_case "routes are graph paths" `Quick test_routes_are_paths;
        ] );
      ( "claims",
        [
          Alcotest.test_case "claims 9/10 sandwich (k=3)" `Quick test_claims_9_10;
          Alcotest.test_case "claims 9/10 sandwich (k=4)" `Quick test_claims_9_10_k4;
          Alcotest.test_case "approximate pivots (1+eps)" `Quick test_approx_pivots;
          Alcotest.test_case "cluster tree distances" `Quick test_cluster_trees_are_shortest_pathish;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "table/label bounds" `Quick test_size_bounds;
          Alcotest.test_case "memory ~ n^{1/k} polylog" `Quick test_memory_bound;
          Alcotest.test_case "cost phases" `Quick test_cost_phases;
          Alcotest.test_case "virtual graph params" `Quick test_virtual_graph_parameters;
        ] );
      ( "regimes",
        [
          Alcotest.test_case "hop-bounded regime (B << D)" `Quick test_hop_bounded_regime;
          Alcotest.test_case "dumbbell topology" `Quick test_dumbbell_topology;
          Alcotest.test_case "invalid parameters" `Quick test_invalid_parameters;
          Alcotest.test_case "self route" `Quick test_self_route;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "vs centralized TZ" `Quick test_vs_centralized_tz;
          Alcotest.test_case "section-3 protocol on appendix-B cluster tree" `Quick
            test_distributed_tree_routing_on_cluster_tree;
        ] );
      ( "pins",
        [
          Alcotest.test_case "Scheme.build routers" `Quick test_pin_scheme_build;
          Alcotest.test_case "distributed routers" `Quick test_pin_distributed;
          Alcotest.test_case "Graph_routing.build router" `Quick test_pin_tz;
          Alcotest.test_case "Dyn_scheme routers" `Quick test_pin_dyn;
          Alcotest.test_case "Scheme.build costs" `Quick test_cost_scheme_build;
          Alcotest.test_case "distributed costs" `Quick test_cost_distributed;
        ] );
      qsuite "properties" [ prop_delivery ];
    ]
