(* Tests for the serving plane: the packed router/oracle differential gate
   swept over topologies × seeds × k (the acceptance criterion for any
   perf claim), the forwarding engine's accounting invariants, and the
   synthetic traffic generators. *)

open Dgraph

let rng seed = Random.State.make [| seed; 77 |]

let build ~seed ~k g =
  let h = Tz.Hierarchy.build ~rng:(rng seed) ~k g in
  let clusters = Tz.Cluster.all g h in
  let gr = Tz.Graph_routing.of_parts ~k g h clusters in
  let oracle = Tz.Oracle.of_hierarchy g h in
  (gr, oracle)

let topologies =
  [
    ("grid", fun s -> Gen.grid ~rng:(rng s) ~rows:8 ~cols:8 ());
    ("torus", fun s -> Gen.torus ~rng:(rng s) ~rows:7 ~cols:7 ());
    ( "er",
      fun s ->
        Gen.connected_erdos_renyi ~rng:(rng s)
          ~weights:(Gen.uniform_weights 1.0 3.0) ~n:80 ~avg_deg:4.0 () );
  ]

(* ---------- the differential gate across topologies × seeds × k ---------- *)

let test_differential_sweep () =
  List.iter
    (fun (tname, mk) ->
      List.iter
        (fun seed ->
          List.iter
            (fun k ->
              let g = mk seed in
              let gr, oracle = build ~seed:(100 + seed) ~k g in
              let packed = Serve.Packed_router.of_graph_routing gr in
              let poracle = Serve.Packed_oracle.of_oracle oracle in
              let drng = rng (200 + seed) in
              (match
                 Serve.Differential.check_router ~rng:drng gr packed ~pairs:400
               with
              | [] -> ()
              | e :: _ ->
                Alcotest.failf "%s seed %d k %d router: %s" tname seed k e);
              match
                Serve.Differential.check_oracle ~rng:drng oracle poracle
                  ~pairs:400
              with
              | [] -> ()
              | e :: _ ->
                Alcotest.failf "%s seed %d k %d oracle: %s" tname seed k e)
            [ 2; 4 ])
        [ 1; 2 ])
    topologies

let test_route_into_matches_route () =
  (* the list wrapper and the in-place variant agree hop for hop, and the
     scratch buffer is safely reusable across queries *)
  let g = Gen.grid ~rng:(rng 3) ~rows:6 ~cols:6 () in
  let gr, _ = build ~seed:5 ~k:3 g in
  let packed = Serve.Packed_router.of_graph_routing gr in
  let buf = Serve.Packed_router.buffer packed in
  let r = rng 6 in
  let n = Graph.n g in
  for _ = 1 to 500 do
    let src = Random.State.int r n and dst = Random.State.int r n in
    match
      ( Serve.Packed_router.route packed ~src ~dst,
        Serve.Packed_router.route_into packed ~buf ~src ~dst )
    with
    | Ok path, Ok len ->
      Alcotest.(check int) "path length" (List.length path) len;
      List.iteri
        (fun i v -> Alcotest.(check int) "hop" v buf.(i))
        path
    | Error e1, Error e2 ->
      if not (Tz.Routing_error.equal e1 e2) then
        Alcotest.failf "error mismatch: %a vs %a" Tz.Routing_error.pp e1
          Tz.Routing_error.pp e2
    | Ok _, Error e | Error e, Ok _ ->
      Alcotest.failf "ok/error split on %d -> %d (%a)" src dst
        Tz.Routing_error.pp e
  done

(* ---------- engine accounting invariants ---------- *)

let models =
  [
    Serve.Traffic.Uniform;
    Serve.Traffic.Zipf 1.1;
    Serve.Traffic.Gravity 1.0;
    Serve.Traffic.Bimodal (0.1, 0.7);
    Serve.Traffic.Far_pairs;
  ]

let test_engine_conservation () =
  let g = Gen.torus ~rng:(rng 7) ~rows:8 ~cols:8 () in
  let k = 3 in
  let gr, _ = build ~seed:9 ~k g in
  let packed = Serve.Packed_router.of_graph_routing gr in
  List.iter
    (fun model ->
      let queries = Serve.Traffic.generate ~rng:(rng 11) model g ~queries:2_000 in
      let st = Serve.Engine.run g packed queries in
      let name = Serve.Traffic.name model in
      Alcotest.(check int)
        (name ^ ": delivered + failed") st.Serve.Engine.queries
        (st.Serve.Engine.delivered + st.Serve.Engine.failed);
      Alcotest.(check int) (name ^ ": no failures when connected") 0
        st.Serve.Engine.failed;
      (* every hop of every delivered path lands on exactly one edge *)
      Alcotest.(check int)
        (name ^ ": load conservation")
        (Congest.Histogram.sum st.Serve.Engine.hops)
        (Congest.Histogram.sum st.Serve.Engine.load);
      Alcotest.(check int)
        (name ^ ": one load sample per edge")
        (Graph.m g)
        (Congest.Histogram.count st.Serve.Engine.load);
      let bound = float_of_int ((4 * k) - 3) +. 1e-9 in
      if st.Serve.Engine.stretch_max > bound then
        Alcotest.failf "%s: stretch %.3f exceeds 4k-3 = %.1f" name
          st.Serve.Engine.stretch_max bound;
      if st.Serve.Engine.stretch_p50 < 1.0 -. 1e-9 then
        Alcotest.failf "%s: stretch p50 %.3f below 1" name
          st.Serve.Engine.stretch_p50)
    models

let test_engine_deterministic () =
  let g = Gen.grid ~rng:(rng 13) ~rows:7 ~cols:7 () in
  let gr, _ = build ~seed:14 ~k:2 g in
  let packed = Serve.Packed_router.of_graph_routing gr in
  let queries =
    Serve.Traffic.generate ~rng:(rng 15) Serve.Traffic.Uniform g ~queries:1_000
  in
  let a = Serve.Engine.run g packed queries in
  let b = Serve.Engine.run g packed queries in
  (* everything but wall time is a pure function of (graph, router, matrix) *)
  Alcotest.(check int) "delivered" a.Serve.Engine.delivered b.Serve.Engine.delivered;
  Alcotest.(check int) "sources" a.Serve.Engine.sources b.Serve.Engine.sources;
  Alcotest.(check int) "max load" a.Serve.Engine.max_load b.Serve.Engine.max_load;
  Alcotest.(check int) "baseline max load" a.Serve.Engine.base_max_load
    b.Serve.Engine.base_max_load;
  Alcotest.(check (float 0.0)) "stretch max" a.Serve.Engine.stretch_max
    b.Serve.Engine.stretch_max;
  Alcotest.(check (float 0.0)) "stretch avg" a.Serve.Engine.stretch_avg
    b.Serve.Engine.stretch_avg

(* ---------- sharded engine: bit-identity, errors, allocation ---------- *)

(* every deterministic field of [stats]: timings and cache counters are the
   only things allowed to differ across domain counts. [compare] (not [=])
   so NaN stretch fields of an all-failed run still match themselves. *)
let fingerprint (st : Serve.Engine.stats) =
  ( (st.Serve.Engine.delivered, st.Serve.Engine.failed, st.Serve.Engine.errors),
    ( st.Serve.Engine.queries,
      st.Serve.Engine.sources,
      Congest.Histogram.buckets st.Serve.Engine.hops,
      Congest.Histogram.buckets st.Serve.Engine.load,
      Congest.Histogram.buckets st.Serve.Engine.base_load ),
    ( st.Serve.Engine.stretch_p50,
      st.Serve.Engine.stretch_p95,
      st.Serve.Engine.stretch_max,
      st.Serve.Engine.stretch_avg ),
    (st.Serve.Engine.max_load, st.Serve.Engine.base_max_load) )

let test_sharded_bit_identity () =
  (* domains ∈ {2,3,4} vs the sequential engine, across topologies × seeds
     × models; the sharded runs share one sp_cache while the baseline runs
     without one, so the sweep also proves the cache never shows in any
     statistic *)
  List.iter
    (fun (tname, mk) ->
      List.iter
        (fun seed ->
          let g = mk seed in
          let gr, _ = build ~seed:(300 + seed) ~k:3 g in
          let packed = Serve.Packed_router.of_graph_routing gr in
          let cache = Serve.Engine.sp_cache g in
          List.iter
            (fun model ->
              let queries =
                Serve.Traffic.generate ~rng:(rng (400 + seed)) model g
                  ~queries:600
              in
              let st1 = Serve.Engine.run ~domains:1 g packed queries in
              let fp1 = fingerprint st1 in
              List.iter
                (fun domains ->
                  let st = Serve.Engine.run ~domains ~cache g packed queries in
                  if compare (fingerprint st) fp1 <> 0 then
                    Alcotest.failf "%s seed %d %s: domains=%d diverged from 1"
                      tname seed (Serve.Traffic.name model) domains;
                  Alcotest.(check int)
                    "every distinct source solved or cached"
                    st.Serve.Engine.sources
                    (st.Serve.Engine.sp_hits + st.Serve.Engine.sp_misses))
                [ 2; 3; 4 ])
            models)
        [ 1; 2 ])
    topologies

let test_sharded_failed_queries () =
  (* a sparse G(n,m) is disconnected: cross-component queries must come
     back as typed unreachable errors, identically at every domain count *)
  let g = Gen.gnm ~rng:(rng 31) ~n:60 ~m:45 () in
  let gr, _ = build ~seed:32 ~k:2 g in
  let packed = Serve.Packed_router.of_graph_routing gr in
  let queries =
    Serve.Traffic.generate ~rng:(rng 33) Serve.Traffic.Uniform g ~queries:800
  in
  let st1 = Serve.Engine.run ~domains:1 g packed queries in
  if st1.Serve.Engine.failed = 0 then
    Alcotest.fail "expected cross-component failures on a disconnected graph";
  (match st1.Serve.Engine.errors with
  | [ ("unreachable", c) ] ->
    Alcotest.(check int) "all failures typed unreachable" st1.Serve.Engine.failed c
  | other ->
    Alcotest.failf "unexpected error kinds: %s"
      (String.concat "," (List.map fst other)));
  List.iter
    (fun domains ->
      let st = Serve.Engine.run ~domains g packed queries in
      if compare (fingerprint st) (fingerprint st1) <> 0 then
        Alcotest.failf "failed-query run diverged at domains=%d" domains)
    [ 2; 3; 4 ]

let test_same_outcome () =
  (* Engine.same_outcome against the independent key above: blind to the
     domain count, timings, cache counters and allocation bytes, sees every
     other field, and NaN-safe *)
  let g = Gen.grid ~rng:(rng 38) ~rows:6 ~cols:6 () in
  let gr, _ = build ~seed:39 ~k:2 g in
  let packed = Serve.Packed_router.of_graph_routing gr in
  let queries =
    Serve.Traffic.generate ~rng:(rng 40) Serve.Traffic.Uniform g ~queries:300
  in
  let st = Serve.Engine.run g packed queries in
  let agree what expect st' =
    Alcotest.(check bool) (what ^ ", independent key") expect
      (compare (fingerprint st) (fingerprint st') = 0);
    Alcotest.(check bool) (what ^ ", same_outcome") expect
      (Serve.Engine.same_outcome st st')
  in
  agree "measurements differ" true
    {
      st with
      Serve.Engine.domains = 4;
      seconds = 1.0;
      qps = 2.0;
      eval_seconds = 3.0;
      sp_hits = 5;
      sp_misses = 6;
      dijkstra_seconds = 7.0;
      loop_alloc_bytes = 8.0;
    };
  agree "queries differ" false
    { st with Serve.Engine.queries = st.Serve.Engine.queries + 1 };
  agree "failed differs" false
    { st with Serve.Engine.failed = st.Serve.Engine.failed + 1 };
  agree "stretch differs" false
    { st with Serve.Engine.stretch_max = st.Serve.Engine.stretch_max +. 1.0 };
  agree "load differs" false
    { st with Serve.Engine.base_max_load = st.Serve.Engine.base_max_load + 1 };
  let all_failed =
    {
      st with
      Serve.Engine.stretch_p50 = nan;
      stretch_p95 = nan;
      stretch_max = nan;
      stretch_avg = nan;
    }
  in
  Alcotest.(check bool) "NaN stretch fields equal themselves" true
    (Serve.Engine.same_outcome all_failed all_failed)

let test_forward_allocation_free () =
  (* the Gc-bracketed forwarding loops must allocate nothing at any domain
     count — the bracket itself boxes one float per domain, so allow a few
     words each, far below one word per query *)
  let g = Gen.grid ~rng:(rng 35) ~rows:9 ~cols:9 () in
  let gr, _ = build ~seed:36 ~k:3 g in
  let packed = Serve.Packed_router.of_graph_routing gr in
  let queries =
    Serve.Traffic.generate ~rng:(rng 37) (Serve.Traffic.Zipf 1.1) g
      ~queries:4_000
  in
  List.iter
    (fun domains ->
      let f = Serve.Engine.forward ~domains g packed queries in
      let budget = 2048.0 *. float_of_int f.Serve.Engine.fwd_domains in
      if f.Serve.Engine.fwd_loop_alloc_bytes > budget then
        Alcotest.failf
          "forwarding loop allocated %.0f bytes at domains=%d (budget %.0f)"
          f.Serve.Engine.fwd_loop_alloc_bytes domains budget)
    [ 1; 2 ]

let prop_sharded_identity =
  QCheck.Test.make ~count:25
    ~name:"sharded engine bit-identical to sequential (random seed/domains)"
    QCheck.(triple (int_range 0 1000) (int_range 2 4) (int_range 0 4))
    (fun (seed, domains, mi) ->
      let g =
        Gen.connected_erdos_renyi ~rng:(rng seed)
          ~weights:(Gen.uniform_weights 1.0 2.0) ~n:50 ~avg_deg:3.0 ()
      in
      let gr, _ = build ~seed:(seed + 1) ~k:2 g in
      let packed = Serve.Packed_router.of_graph_routing gr in
      let model = List.nth models mi in
      let queries =
        Serve.Traffic.generate ~rng:(rng (seed + 2)) model g ~queries:300
      in
      let st1 = Serve.Engine.run ~domains:1 g packed queries in
      let st = Serve.Engine.run ~domains g packed queries in
      compare (fingerprint st) (fingerprint st1) = 0)

(* ---------- traffic generators ---------- *)

let test_traffic_deterministic () =
  let g = Gen.grid ~rng:(rng 17) ~rows:9 ~cols:9 () in
  List.iter
    (fun model ->
      let a = Serve.Traffic.generate ~rng:(rng 18) model g ~queries:500 in
      let b = Serve.Traffic.generate ~rng:(rng 18) model g ~queries:500 in
      Alcotest.(check int)
        (Serve.Traffic.name model ^ ": length") 500 (Array.length a);
      if a <> b then
        Alcotest.failf "%s: same seed, different matrix"
          (Serve.Traffic.name model);
      Array.iter
        (fun (s, d) ->
          if s = d then
            Alcotest.failf "%s: self pair %d" (Serve.Traffic.name model) s)
        a)
    models

let test_zipf_concentration () =
  (* with s > 1 the hottest destination must absorb far more than a
     uniform share of the matrix *)
  let g = Gen.grid ~rng:(rng 19) ~rows:20 ~cols:20 () in
  let n = Graph.n g in
  let queries = 4_000 in
  let pairs =
    Serve.Traffic.generate ~rng:(rng 20) (Serve.Traffic.Zipf 1.2) g ~queries
  in
  let freq = Array.make n 0 in
  Array.iter (fun (_, d) -> freq.(d) <- freq.(d) + 1) pairs;
  let hottest = Array.fold_left max 0 freq in
  let uniform_share = queries / n in
  if hottest < 10 * uniform_share then
    Alcotest.failf "hottest destination got %d queries, uniform share is %d"
      hottest uniform_share

let test_gravity_concentrates_both_endpoints () =
  (* P(s,d) ∝ w_s · w_d: unlike Zipf (sources uniform), the hottest SOURCE
     must also absorb far more than a uniform share *)
  let g = Gen.grid ~rng:(rng 23) ~rows:20 ~cols:20 () in
  let n = Graph.n g in
  let queries = 4_000 in
  let pairs =
    Serve.Traffic.generate ~rng:(rng 24) (Serve.Traffic.Gravity 1.2) g ~queries
  in
  let sfreq = Array.make n 0 and dfreq = Array.make n 0 in
  Array.iter
    (fun (s, d) ->
      sfreq.(s) <- sfreq.(s) + 1;
      dfreq.(d) <- dfreq.(d) + 1)
    pairs;
  let uniform_share = queries / n in
  if Array.fold_left max 0 sfreq < 10 * uniform_share then
    Alcotest.fail "hottest gravity source has a near-uniform share";
  if Array.fold_left max 0 dfreq < 10 * uniform_share then
    Alcotest.fail "hottest gravity destination has a near-uniform share"

let test_bimodal_hot_clique () =
  (* with (hot_frac, p) = (0.05, 0.8), the hottest ⌈0.05·n⌉ sources must
     absorb close to the hot fraction of the matrix *)
  let g = Gen.grid ~rng:(rng 25) ~rows:16 ~cols:16 () in
  let n = Graph.n g in
  let queries = 4_000 in
  let pairs =
    Serve.Traffic.generate ~rng:(rng 26)
      (Serve.Traffic.Bimodal (0.05, 0.8))
      g ~queries
  in
  let sfreq = Array.make n 0 in
  Array.iter (fun (s, _) -> sfreq.(s) <- sfreq.(s) + 1) pairs;
  Array.sort (fun a b -> compare b a) sfreq;
  let hn = int_of_float (ceil (0.05 *. float_of_int n)) in
  let top = ref 0 in
  for i = 0 to hn - 1 do
    top := !top + sfreq.(i)
  done;
  if float_of_int !top < 0.7 *. float_of_int queries then
    Alcotest.failf "top %d sources hold only %d/%d queries" hn !top queries

let test_far_pairs_are_far () =
  let g = Gen.grid ~rng:(rng 21) ~rows:10 ~cols:10 () in
  let avg pairs =
    let total = ref 0.0 in
    let by_src = Hashtbl.create 16 in
    Array.iter
      (fun (s, d) ->
        let dist =
          match Hashtbl.find_opt by_src s with
          | Some dist -> dist
          | None ->
            let dist = (Sssp.dijkstra g ~src:s).Sssp.dist in
            Hashtbl.add by_src s dist;
            dist
        in
        total := !total +. dist.(d))
      pairs;
    !total /. float_of_int (Array.length pairs)
  in
  let far =
    Serve.Traffic.generate ~rng:(rng 22) Serve.Traffic.Far_pairs g ~queries:400
  in
  let uni =
    Serve.Traffic.generate ~rng:(rng 22) Serve.Traffic.Uniform g ~queries:400
  in
  let afar = avg far and auni = avg uni in
  if afar <= auni then
    Alcotest.failf "far-pairs avg distance %.3f not beyond uniform %.3f" afar
      auni

let () =
  Alcotest.run "serve"
    [
      ( "differential",
        [
          Alcotest.test_case "packed = reference over topologies x seeds x k"
            `Quick test_differential_sweep;
          Alcotest.test_case "route_into = route" `Quick
            test_route_into_matches_route;
        ] );
      ( "engine",
        [
          Alcotest.test_case "accounting invariants per model" `Quick
            test_engine_conservation;
          Alcotest.test_case "deterministic given the matrix" `Quick
            test_engine_deterministic;
        ] );
      ( "sharding",
        [
          Alcotest.test_case
            "bit-identical across domains x topologies x models" `Quick
            test_sharded_bit_identity;
          Alcotest.test_case "typed errors identical across domains" `Quick
            test_sharded_failed_queries;
          Alcotest.test_case "same_outcome = independent key" `Quick
            test_same_outcome;
          Alcotest.test_case "forwarding loop allocation-free" `Quick
            test_forward_allocation_free;
          QCheck_alcotest.to_alcotest ~long:false prop_sharded_identity;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "deterministic per seed, no self pairs" `Quick
            test_traffic_deterministic;
          Alcotest.test_case "zipf concentrates destinations" `Quick
            test_zipf_concentration;
          Alcotest.test_case "gravity concentrates both endpoints" `Quick
            test_gravity_concentrates_both_endpoints;
          Alcotest.test_case "bimodal keeps a hot clique" `Quick
            test_bimodal_hot_clique;
          Alcotest.test_case "far pairs beat uniform distance" `Quick
            test_far_pairs_are_far;
        ] );
    ]
