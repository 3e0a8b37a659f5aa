(* Tests for the cost-accounting module and the EN16b baseline model. *)

open Dgraph

let rng seed = Random.State.make [| seed; 909 |]

let test_cost_algebra () =
  let c = Routing.Cost.empty in
  Alcotest.(check int) "empty rounds" 0 (Routing.Cost.total_rounds c);
  Alcotest.(check int) "empty peak" 0 (Routing.Cost.peak_memory c);
  let c = Routing.Cost.add c ~name:"a" ~rounds:10 ~peak_memory:5 in
  let c = Routing.Cost.add c ~name:"b" ~rounds:7 ~peak_memory:9 in
  let c = Routing.Cost.add c ~name:"c" ~rounds:0 ~peak_memory:2 in
  Alcotest.(check int) "rounds add" 17 (Routing.Cost.total_rounds c);
  Alcotest.(check int) "memory maxes" 9 (Routing.Cost.peak_memory c);
  let s = Format.asprintf "%a" Routing.Cost.pp c in
  let contains sub =
    let ls = String.length s and lsub = String.length sub in
    let rec scan i = i + lsub <= ls && (String.sub s i lsub = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "pp mentions phases" true
    (List.for_all contains [ "a"; "b"; "c"; "TOTAL" ])

let test_metrics_merge () =
  let a = Congest.Metrics.create ~n:3 and b = Congest.Metrics.create ~n:3 in
  a.Congest.Metrics.rounds <- 5;
  b.Congest.Metrics.rounds <- 7;
  a.Congest.Metrics.messages <- 10;
  b.Congest.Metrics.messages <- 1;
  Congest.Metrics.note_memory a 0 8;
  Congest.Metrics.note_memory b 0 3;
  Congest.Metrics.note_memory b 2 9;
  let m = Congest.Metrics.merge a b in
  Alcotest.(check int) "rounds" 12 m.Congest.Metrics.rounds;
  Alcotest.(check int) "messages" 11 m.Congest.Metrics.messages;
  Alcotest.(check int) "mem v0" 8 m.Congest.Metrics.peak_memory.(0);
  Alcotest.(check int) "mem v2" 9 m.Congest.Metrics.peak_memory.(2)

(* ---------- EN16b baseline model ---------- *)

let baseline ?(n = 400) ?(seed = 3) () =
  let g = Gen.random_tree ~rng:(rng seed) ~n () in
  let tree = Tree.of_tree_graph g ~root:0 in
  (g, tree, Routing.Tree_routing_en16.run ~rng:(rng (seed + 1)) g ~tree)

let test_en16_memory_is_sqrt () =
  let _, _, out = baseline () in
  (* every virtual vertex stores T': peak >= 2|U| ~ 2 sqrt n *)
  Alcotest.(check bool)
    (Printf.sprintf "peak %d >= 2|U|=%d" out.Routing.Tree_routing_en16.peak_memory
       (2 * out.Routing.Tree_routing_en16.u_count))
    true
    (out.Routing.Tree_routing_en16.peak_memory >= 2 * out.Routing.Tree_routing_en16.u_count);
  Alcotest.(check bool) "|U| ~ sqrt n" true (out.Routing.Tree_routing_en16.u_count >= 10)

let test_en16_labels_are_log2 () =
  (* the composed labels must be strictly bigger than the paper's O(log n):
     compare with the distributed scheme on the same tree *)
  let g, tree, en16 = baseline ~n:400 ~seed:7 () in
  let ours = Routing.Dist_tree_routing.run ~rng:(rng 9) g ~tree in
  let our_max_label =
    List.fold_left
      (fun acc v ->
        match Tz.Tree_routing.label ours.Routing.Dist_tree_routing.scheme v with
        | Some l -> max acc (Tz.Tree_routing.label_words l)
        | None -> acc)
      0 (Tree.vertices tree)
  in
  Alcotest.(check bool)
    (Printf.sprintf "en16 label %d > ours %d" en16.Routing.Tree_routing_en16.max_label_words
       our_max_label)
    true
    (en16.Routing.Tree_routing_en16.max_label_words >= our_max_label);
  Alcotest.(check bool)
    (Printf.sprintf "en16 peak %d > ours %d" en16.Routing.Tree_routing_en16.peak_memory
       (Congest.Metrics.peak_memory_max ours.Routing.Dist_tree_routing.report))
    true
    (en16.Routing.Tree_routing_en16.peak_memory
    > Congest.Metrics.peak_memory_max ours.Routing.Dist_tree_routing.report)

let test_en16_memory_scales_sqrt () =
  (* the baseline's peak memory must grow like sqrt n (ours stays ~log n,
     tested in test_tree_routing) *)
  let peak n seed =
    let _, _, out = baseline ~n ~seed () in
    float_of_int out.Routing.Tree_routing_en16.peak_memory
  in
  let small = peak 400 21 and large = peak 6400 23 in
  Alcotest.(check bool)
    (Printf.sprintf "16x vertices: peak %.0f -> %.0f (>= 2x)" small large)
    true
    (large >= 2.0 *. small)

let test_en16_rounds_same_regime () =
  let _, _, out = baseline ~n:400 ~seed:11 () in
  (* Õ(sqrt n + D) regime: generous envelope *)
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d sublinear-ish" out.Routing.Tree_routing_en16.rounds)
    true
    (out.Routing.Tree_routing_en16.rounds < 400 * 30)

let test_en16_table_log () =
  let _, _, out = baseline ~n:400 ~seed:13 () in
  Alcotest.(check bool)
    (Printf.sprintf "table %d >= 4" out.Routing.Tree_routing_en16.max_table_words)
    true
    (out.Routing.Tree_routing_en16.max_table_words >= 4)

let () =
  Alcotest.run "cost"
    [
      ( "cost",
        [
          Alcotest.test_case "algebra" `Quick test_cost_algebra;
          Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
        ] );
      ( "en16-baseline",
        [
          Alcotest.test_case "memory Theta(sqrt n)" `Quick test_en16_memory_is_sqrt;
          Alcotest.test_case "labels dominate ours" `Quick test_en16_labels_are_log2;
          Alcotest.test_case "rounds regime" `Quick test_en16_rounds_same_regime;
          Alcotest.test_case "tables" `Quick test_en16_table_log;
          Alcotest.test_case "memory scales like sqrt n" `Quick test_en16_memory_scales_sqrt;
        ] );
    ]
