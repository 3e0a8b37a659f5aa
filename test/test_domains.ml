(* Domain determinism: the sharded event scheduler must produce *bit
   identical* results at any domain count — same outcome and Metrics
   (JSON-fingerprint equality, histograms included), same routing tables,
   labels and failure reports, same trace phase totals — on random vertex
   programs, random topologies, random fault plans, both transports and the
   full protocols. Plus the Histogram.merge exactness the per-domain metrics
   merge relies on. *)

open Dgraph
module CS = Congest.Sim
module Export = Congest.Export
module H = Congest.Histogram

module Imsg = struct
  type t = int

  let words _ = 1
  let slots = 1
  let encode s b v = Congest.Slab.set s b v
  let decode s b = Congest.Slab.get s b
end

module S = Congest.Sim.Make (Imsg)

let fingerprint (r : CS.report) = Export.Json.to_string (Export.report r)

(* --- random vertex programs (same generator family as sched_equiv) --- *)

let random_node ~steps ~seed (ctx : S.ctx) =
  let rng = Random.State.make [| seed; ctx.me; 0x7ab |] in
  let deg = Array.length ctx.neighbors in
  S.set_memory (1 + (ctx.me mod 7));
  for _ = 1 to steps do
    let op = Random.State.int rng 10 in
    if op < 4 then begin
      if deg > 0 then S.send (Random.State.int rng deg) (Random.State.int rng 1000);
      ignore (S.sync ())
    end
    else if op < 6 then ignore (S.sync ())
    else if op < 8 then
      ignore (S.wait_until (S.round () + 1 + Random.State.int rng 6))
    else if op < 9 then
      ignore (S.sleep_until (S.round () + Random.State.int rng 8 - 2))
    else ignore (S.wait ())
  done

let topology_of ~seed ~kind ~n =
  let rng = Random.State.make [| seed; 0x9a |] in
  match kind mod 4 with
  | 0 -> Gen.ring ~rng ~n ()
  | 1 ->
    let c = max 2 (int_of_float (sqrt (float_of_int n))) in
    Gen.grid ~rng ~rows:(max 2 (n / c)) ~cols:c ()
  | 2 -> Gen.random_tree ~rng ~n ()
  | _ -> Gen.gnm ~rng ~n ~m:(min (2 * n) (n * (n - 1) / 2)) ()

let fault_spec_of ~seed ~flavor ~n =
  match flavor mod 3 with
  | 0 -> None
  | 1 ->
    Some
      {
        Congest.Fault.none with
        Congest.Fault.seed;
        drop = 0.05;
        duplicate = 0.05;
        delay = 0.1;
        max_delay = 5;
      }
  | _ ->
    Some
      {
        Congest.Fault.none with
        Congest.Fault.seed;
        drop = 0.02;
        crashes = [ (n / 3, 4); (n / 2, 9) ];
        link_failures = [ (0, 1, 3) ];
      }

let run_random_program ~domains ~seed ~kind ~flavor ~n =
  let g = topology_of ~seed ~kind ~n in
  let faults = Option.map Congest.Fault.make (fault_spec_of ~seed ~flavor ~n) in
  S.run ~max_rounds:5_000 ?faults ~domains g ~node:(random_node ~steps:12 ~seed)

let prop_random_programs =
  QCheck.Test.make
    ~name:"random programs: domains 1 = 2 = 4, bit-identical" ~count:40
    (QCheck.make
       ~print:(fun (seed, kind, flavor, n) ->
         Printf.sprintf "seed=%d kind=%d flavor=%d n=%d" seed kind flavor n)
       QCheck.Gen.(
         quad (int_bound 10_000) (int_bound 3) (int_bound 2) (int_range 2 40)))
    (fun (seed, kind, flavor, n) ->
      let fp d = fingerprint (run_random_program ~domains:d ~seed ~kind ~flavor ~n) in
      let base = fp 1 in
      List.for_all (fun d -> fp d = base) [ 2; 4 ])

(* --- full tree-routing protocol: tables/labels/failures across domains --- *)

let run_tree_routing ~domains ~seed ~reliable ~faulty ~n =
  let rng = Random.State.make [| seed; 0x3ee |] in
  let g =
    Gen.connected_erdos_renyi ~rng ~weights:(Gen.uniform_weights 1.0 4.0) ~n
      ~avg_deg:3.0 ()
  in
  let tree = Tree.bfs_spanning g ~root:0 in
  let faults =
    if not faulty then None
    else
      Some
        (Congest.Fault.make
           {
             Congest.Fault.none with
             Congest.Fault.seed;
             drop = 0.01;
             duplicate = 0.01;
             delay = 0.02;
             max_delay = 3;
           })
  in
  let rng = Random.State.make [| seed; 0xd157 |] in
  Routing.Dist_tree_routing.run ~rng ?faults ~reliable ~domains g ~tree

let tree_routing_equal (a : Routing.Dist_tree_routing.outcome)
    (b : Routing.Dist_tree_routing.outcome) =
  let open Routing.Dist_tree_routing in
  Export.Json.to_string (Export.metrics a.report)
  = Export.Json.to_string (Export.metrics b.report)
  && Tz.Tree_routing.equal a.scheme b.scheme
  && a.failures = b.failures
  && a.u_count = b.u_count

let prop_tree_routing =
  QCheck.Test.make
    ~name:"tree routing (both transports): domains agree exactly" ~count:6
    (QCheck.make
       ~print:(fun (seed, reliable, faulty) ->
         Printf.sprintf "seed=%d reliable=%b faulty=%b" seed reliable faulty)
       QCheck.Gen.(triple (int_bound 1_000) bool bool))
    (fun (seed, reliable, faulty) ->
      let n = 36 in
      let base = run_tree_routing ~domains:1 ~seed ~reliable ~faulty ~n in
      List.for_all
        (fun d ->
          tree_routing_equal base
            (run_tree_routing ~domains:d ~seed ~reliable ~faulty ~n))
        [ 2; 4 ])

(* --- dist-scheme: harvest structures + trace phase totals across domains --- *)

let run_scheme ~domains ?trace () =
  let rng = Random.State.make [| 0x5c4e; 77 |] in
  let g =
    Gen.connected_erdos_renyi ~rng
      ~weights:(Gen.uniform_weights 1.0 4.0)
      ~n:48 ~avg_deg:3.5 ()
  in
  let rng = Random.State.make [| 0x5c4e; 78 |] in
  Routing.Dist_scheme.run ~rng ~k:4 ~domains ?trace g

let test_scheme_domains () =
  let base = run_scheme ~domains:1 () in
  List.iter
    (fun d ->
      let o = run_scheme ~domains:d () in
      Alcotest.(check string)
        (Printf.sprintf "metrics (domains=%d)" d)
        (Export.Json.to_string (Export.metrics base.Routing.Dist_scheme.report))
        (Export.Json.to_string (Export.metrics o.Routing.Dist_scheme.report));
      Alcotest.(check bool)
        (Printf.sprintf "exact-stage harvest (domains=%d)" d)
        true
        (base.Routing.Dist_scheme.exact = o.Routing.Dist_scheme.exact
        && base.Routing.Dist_scheme.virtual_rows
           = o.Routing.Dist_scheme.virtual_rows
        && base.Routing.Dist_scheme.members = o.Routing.Dist_scheme.members);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "phase rounds (domains=%d)" d)
        base.Routing.Dist_scheme.phase_rounds
        o.Routing.Dist_scheme.phase_rounds)
    [ 2; 4 ]

(* --- dist-hopset: both upper-stage runs across domains and transports --- *)

(* The exact stage once, then the upper stage (run A and run B) on a copy of
   the rng it left, at the given domain count and transport. *)
let upper_runs g ~seed ~k =
  let r = Random.State.make [| seed; 91 |] in
  let ds = Routing.Dist_scheme.run ~rng:r ~k ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    Alcotest.failf "exact stage: %s"
      (String.concat " | "
         (List.map Routing.Dist_scheme.failure_to_string
            ds.Routing.Dist_scheme.failures));
  fun ~domains ~reliable ->
    let o =
      Routing.Dist_hopset.run ~rng:(Random.State.copy r) ~reliable ~domains
        ~max_rounds:500_000 g ds
    in
    if o.Routing.Dist_hopset.upper = None then
      Alcotest.failf "upper stage (domains=%d, reliable=%b): %s" domains reliable
        (String.concat " | "
           (List.map Routing.Dist_hopset.failure_to_string
              o.Routing.Dist_hopset.failures));
    o

let check_upper_domains g ~seed ~k =
  let run = upper_runs g ~seed ~k in
  let base = run ~domains:1 ~reliable:false in
  let same what (o : Routing.Dist_hopset.outcome) =
    Alcotest.(check bool)
      (what ^ ": upper record") true
      (base.Routing.Dist_hopset.upper = o.Routing.Dist_hopset.upper);
    Alcotest.(check (list (pair string int)))
      (what ^ ": phase rounds") base.Routing.Dist_hopset.phase_rounds
      o.Routing.Dist_hopset.phase_rounds
  in
  List.iter
    (fun d ->
      let o = run ~domains:d ~reliable:false in
      let what = Printf.sprintf "domains=%d" d in
      Alcotest.(check string)
        (what ^ ": metrics")
        (Export.Json.to_string (Export.metrics base.Routing.Dist_hopset.report))
        (Export.Json.to_string (Export.metrics o.Routing.Dist_hopset.report));
      same what o)
    [ 2; 3 ];
  (* fault-free Reliable: virtual rounds, the same record *)
  same "reliable" (run ~domains:1 ~reliable:true)

let test_upper_domains () =
  (* the 6x6 pin instance of test_dist_hopset, and a weighted ER graph *)
  check_upper_domains
    (Gen.grid ~rng:(Random.State.make [| 70; 91 |]) ~rows:6 ~cols:6 ())
    ~seed:71 ~k:3;
  check_upper_domains
    (Gen.connected_erdos_renyi
       ~rng:(Random.State.make [| 0x5c4e; 79 |])
       ~weights:(Gen.uniform_weights 1.0 4.0) ~n:48 ~avg_deg:3.5 ())
    ~seed:80 ~k:3

(* trace phase totals: the partition of rounds into phases must be identical
   whatever the domain count *)
let test_trace_phase_totals () =
  let breakdown d =
    let trace = Congest.Trace.make () in
    let o = run_scheme ~domains:d ~trace () in
    Congest.Trace.phase_breakdown trace
      ~total_rounds:o.Routing.Dist_scheme.report.Congest.Metrics.rounds
  in
  let base = breakdown 1 in
  List.iter
    (fun d ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "phase breakdown (domains=%d)" d)
        base (breakdown d))
    [ 2; 4 ]

(* domains beyond the vertex count must clamp, not crash or diverge *)
let test_domains_exceed_n () =
  let g = Gen.ring ~rng:(Random.State.make [| 3 |]) ~n:3 () in
  let node (ctx : S.ctx) =
    let deg = Array.length ctx.neighbors in
    for p = 0 to deg - 1 do
      S.send p ctx.me
    done;
    ignore (S.sync ())
  in
  let a = S.run ~domains:1 g ~node in
  let b = S.run ~domains:16 g ~node in
  Alcotest.(check string) "clamped" (fingerprint a) (fingerprint b)

let test_domains_invalid () =
  let g = Gen.ring ~rng:(Random.State.make [| 3 |]) ~n:3 () in
  Alcotest.check_raises "domains=0 rejected"
    (Invalid_argument "Sim.run: domains must be >= 1") (fun () ->
      ignore (S.run ~domains:0 g ~node:(fun _ -> ())))

(* exceptions from vertex programs still surface under sharding *)
let test_congestion_raises_sharded () =
  let g = Gen.ring ~rng:(Random.State.make [| 4 |]) ~n:8 () in
  let node (ctx : S.ctx) =
    if ctx.me = 5 then begin
      S.send 0 1;
      S.send 0 2
    end
  in
  Alcotest.check_raises "congestion surfaces"
    (CS.Congestion { vertex = 5; port = 0; round = 0 })
    (fun () -> ignore (S.run ~domains:4 g ~node))

(* --- Histogram.merge exactness --- *)

let test_histogram_merge_unit () =
  let a = H.of_array [| 1; 5; 5; 9 |] in
  let b = H.of_array [| 0; 5; 13 |] in
  let m = H.merge a b in
  Alcotest.(check int) "count" 7 (H.count m);
  Alcotest.(check int) "sum" 38 (H.sum m);
  Alcotest.(check int) "min" 0 (H.min_value m);
  Alcotest.(check int) "max" 13 (H.max_value m);
  Alcotest.(check (list (pair int int)))
    "buckets"
    [ (0, 1); (1, 1); (5, 3); (9, 1); (13, 1) ]
    (H.buckets m);
  (* merging with empty is the identity *)
  let e = H.create () in
  Alcotest.(check (list (pair int int)))
    "merge with empty" (H.buckets a)
    (H.buckets (H.merge a e));
  Alcotest.(check int) "empty merge count" 0 (H.count (H.merge e e));
  Alcotest.(check int) "empty merge min" 0 (H.min_value (H.merge e e))

let prop_histogram_merge =
  QCheck.Test.make
    ~name:
      "histogram: merged percentiles/min/max/mean/count = single accumulator"
    ~count:200
    QCheck.(pair (list (int_bound 300)) (list (int_bound 300)))
    (fun (xs, ys) ->
      let a = H.of_array (Array.of_list xs) in
      let b = H.of_array (Array.of_list ys) in
      let m = H.merge a b in
      let whole = H.of_array (Array.of_list (xs @ ys)) in
      H.count m = H.count whole
      && H.sum m = H.sum whole
      && H.min_value m = H.min_value whole
      && H.max_value m = H.max_value whole
      && H.mean m = H.mean whole
      && H.buckets m = H.buckets whole
      && List.for_all
           (fun p -> H.percentile m p = H.percentile whole p)
           [ 0; 10; 25; 50; 75; 90; 95; 99; 100 ])

(* Metrics.merge over shards must also be exact when shards only ever add *)
let prop_metrics_histogram_roundtrip =
  QCheck.Test.make
    ~name:"histogram: merge is associative and commutative on buckets"
    ~count:100
    QCheck.(
      triple (list (int_bound 50)) (list (int_bound 50)) (list (int_bound 50)))
    (fun (xs, ys, zs) ->
      let h l = H.of_array (Array.of_list l) in
      let left = H.merge (H.merge (h xs) (h ys)) (h zs) in
      let right = H.merge (h xs) (H.merge (h ys) (h zs)) in
      let swapped = H.merge (h ys) (h xs) in
      H.buckets left = H.buckets right
      && H.buckets swapped = H.buckets (H.merge (h xs) (h ys)))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "domains"
    [
      ("property", qsuite [ prop_random_programs; prop_tree_routing ]);
      ( "protocols",
        [
          Alcotest.test_case "dist-scheme harvest identical" `Quick
            test_scheme_domains;
          Alcotest.test_case "trace phase totals identical" `Quick
            test_trace_phase_totals;
          Alcotest.test_case "dist-hopset runs A and B identical" `Quick
            test_upper_domains;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "domains > n clamps" `Quick test_domains_exceed_n;
          Alcotest.test_case "domains = 0 rejected" `Quick test_domains_invalid;
          Alcotest.test_case "congestion surfaces sharded" `Quick
            test_congestion_raises_sharded;
        ] );
      ( "histogram-merge",
        Alcotest.test_case "unit" `Quick test_histogram_merge_unit
        :: qsuite [ prop_histogram_merge; prop_metrics_histogram_roundtrip ] );
    ]
