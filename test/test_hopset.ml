(* Tests for the implicit virtual graph and the TZ-emulator hopsets:
   (beta, eps) property, sizes, arboricity, path recovery. *)

open Dgraph
open Hopsets

let rng seed = Random.State.make [| seed; 404 |]

let host_graph ?(seed = 1) ?(n = 300) () =
  Gen.connected_erdos_renyi ~rng:(rng seed)
    ~weights:(Gen.uniform_weights 1.0 6.0) ~n ~avg_deg:4.0 ()

let make_vg ?(seed = 1) ?(n = 300) ?(b = 20) () =
  let g = host_graph ~seed ~n () in
  (g, Virtual_graph.sample ~rng:(rng (seed + 1)) g ~b)

(* ---------- Virtual graph ---------- *)

let test_vg_membership () =
  let g, vg = make_vg () in
  Alcotest.(check bool) "has members" true (Virtual_graph.size vg > 0);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "member is virtual" true (Virtual_graph.is_virtual vg v))
    (Virtual_graph.members vg);
  let count = ref 0 in
  for v = 0 to Graph.n g - 1 do
    if Virtual_graph.is_virtual vg v then incr count
  done;
  Alcotest.(check int) "size consistent" (Virtual_graph.size vg) !count

let test_vg_edges_are_bounded_distances () =
  let g, vg = make_vg ~n:120 ~b:8 () in
  let v' = (Virtual_graph.members vg).(0) in
  let bounded = (Sssp.bellman_ford g ~src:v' ~hops:8).Sssp.dist in
  List.iter
    (fun (u', w) ->
      Alcotest.(check (float 1e-6)) "edge = d^(B)" bounded.(u') w;
      Alcotest.(check bool) "virtual endpoint" true (Virtual_graph.is_virtual vg u'))
    (Virtual_graph.edges_from vg v')

let test_vg_bf_iteration_semantics () =
  let g, vg = make_vg ~n:120 ~b:8 () in
  let n = Graph.n g in
  let v' = (Virtual_graph.members vg).(0) in
  let est = Array.make n infinity in
  est.(v') <- 0.0;
  let est' = Array.copy est in
  Virtual_graph.bf_iteration vg ~keep_going:(fun _ _ -> true) ~dist:est'
    ~parent:(Array.make n (-1)) ();
  let bounded = (Sssp.bellman_ford g ~src:v' ~hops:8).Sssp.dist in
  (* one virtual BF iteration from v' = a single B-bounded wave *)
  for v = 0 to n - 1 do
    Alcotest.(check (float 1e-6)) "wave" (min bounded.(v) est.(v)) est'.(v)
  done

(* An independent reference for the wave under Virtual_graph.bf_iteration
   (Sssp.bf_rounds): b double-buffered rounds over [Array.iteri] and
   [Graph.iter_neighbors], sharing no code with the kernel. *)
let reference_wave g ~b est ~origin ~keep_going =
  let n = Graph.n g in
  let dist = Array.copy est and orig = Array.copy origin in
  let parent = Array.make n (-1) in
  let next = Array.make n infinity and next_orig = Array.make n (-1) in
  let rec rounds i =
    if i < b then begin
      Array.blit dist 0 next 0 n;
      Array.blit orig 0 next_orig 0 n;
      let improved = ref false in
      Array.iteri
        (fun v d ->
          if d < infinity && keep_going v d then
            Graph.iter_neighbors g v (fun u w ->
                let nd = d +. w in
                if nd < next.(u) then begin
                  next.(u) <- nd;
                  next_orig.(u) <- orig.(v);
                  parent.(u) <- v;
                  improved := true
                end))
        dist;
      Array.blit next 0 dist 0 n;
      Array.blit next_orig 0 orig 0 n;
      if !improved then rounds (i + 1)
    end
  in
  rounds 0;
  (dist, parent, orig)

(* Connected ER graphs with n <= 60 and a random b; estimates, origins and
   per-vertex limits drawn with infinities. Half the draws use unit weights
   and integral estimates and limits, so that equal offers inside a round
   and estimates on a limit are common. *)
let prop_bf_iteration_matches_reference =
  QCheck.Test.make ~name:"bf_iteration = reference wave" ~count:300
    QCheck.(make Gen.(pair (int_bound 1_000_000) bool))
    (fun (seed, with_origin) ->
      let r = Random.State.make [| seed; 405 |] in
      let ties = Random.State.bool r in
      let weights = if ties then Gen.unit_weights else Gen.uniform_weights 1.0 6.0 in
      let g =
        Gen.connected_erdos_renyi ~rng:r ~weights
          ~n:(2 + Random.State.int r 59)
          ~avg_deg:(1.0 +. Random.State.float r 5.0)
          ()
      in
      let n = Graph.n g in
      let b = 1 + Random.State.int r n in
      let vg = Virtual_graph.make g ~members:[ 0 ] ~b in
      let draw ~inf scale =
        if Random.State.int r 4 < inf then infinity
        else if ties then float_of_int (Random.State.int r (int_of_float scale))
        else Random.State.float r scale
      in
      let est = Array.init n (fun _ -> draw ~inf:2 12.0) in
      let lim = Array.init n (fun _ -> draw ~inf:1 16.0) in
      let origin = Array.init n (fun _ -> Random.State.int r (n + 1) - 1) in
      let keep_going v d = d < lim.(v) in
      let rdist, rparent, rorigin = reference_wave g ~b est ~origin ~keep_going in
      let dist = Array.copy est and parent = Array.make n (-1) in
      let orig = Array.copy origin in
      if with_origin then
        Virtual_graph.bf_iteration vg ~keep_going ~origin:orig ~dist ~parent ()
      else Virtual_graph.bf_iteration vg ~keep_going ~dist ~parent ();
      let bits = Array.map Int64.bits_of_float in
      bits dist = bits rdist
      && parent = rparent
      && ((not with_origin) || orig = rorigin))

let test_bf_iteration_rejects_bad_lengths () =
  let g, vg = make_vg ~n:40 ~b:4 () in
  let n = Graph.n g in
  let rejects name ?origin ~dist ~parent () =
    Alcotest.(check bool) name true
      (try
         Virtual_graph.bf_iteration vg ~keep_going:(fun _ _ -> true) ?origin ~dist
           ~parent ();
         false
       with Invalid_argument _ -> true)
  in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  rejects "short dist" ~dist:(Array.make (n - 1) infinity) ~parent ();
  rejects "long parent" ~dist ~parent:(Array.make (n + 1) (-1)) ();
  rejects "short origin" ~origin:(Array.make (n - 1) (-1)) ~dist ~parent ()

let test_vg_claim7_distances () =
  (* with sampling density 4 ln n / B, virtual distances = host distances *)
  let g, vg = make_vg ~n:250 ~b:16 () in
  let explicit = Virtual_graph.explicit vg in
  let mv = Virtual_graph.members vg in
  let m = Array.length mv in
  if m >= 2 then begin
    let dv = (Sssp.dijkstra explicit ~src:0).Sssp.dist in
    let dh = (Sssp.dijkstra g ~src:mv.(0)).Sssp.dist in
    for j = 0 to m - 1 do
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "d_G' = d_G for pair (0,%d)" j)
        dh.(mv.(j)) dv.(j)
    done
  end

let test_vg_explicit_weights_dominate () =
  (* without Claim 7 density, d_G' >= d_G always *)
  let g = host_graph ~seed:9 ~n:150 () in
  let vg = Virtual_graph.make g ~members:[ 0; 5; 17; 33; 70; 99 ] ~b:3 in
  let explicit = Virtual_graph.explicit vg in
  let mv = Virtual_graph.members vg in
  Array.iteri
    (fun i v ->
      let dh = (Sssp.dijkstra g ~src:v).Sssp.dist in
      let dv = (Sssp.dijkstra explicit ~src:i).Sssp.dist in
      Array.iteri
        (fun j u ->
          if dv.(j) < infinity then
            Alcotest.(check bool) "dominates" true (dv.(j) >= dh.(u) -. 1e-6))
        mv)
    mv

(* ---------- Hopset construction ---------- *)

let build_hopset ?(seed = 1) ?(n = 300) ?(b = 20) ?(lambda = 3) () =
  let g, vg = make_vg ~seed ~n ~b () in
  (g, vg, Construct.tz_hopset ~rng:(rng (seed + 2)) ~lambda vg)

let test_hopset_paths_valid () =
  let g, _, h = build_hopset () in
  Array.iter
    (fun e ->
      let path = Array.to_list e.Hopset.path in
      Alcotest.(check int) "starts at x" e.Hopset.x (List.hd path);
      Alcotest.(check int) "ends at y" e.Hopset.y (List.nth path (List.length path - 1));
      Alcotest.(check (float 1e-6)) "weight" e.Hopset.w (Sssp.path_weight g path))
    (Hopset.edges h)

let test_hopset_edges_are_distances () =
  let g, _, h = build_hopset ~n:150 () in
  Array.iter
    (fun e ->
      let d = (Sssp.dijkstra g ~src:e.Hopset.x).Sssp.dist.(e.Hopset.y) in
      Alcotest.(check (float 1e-6)) "exact distance" d e.Hopset.w)
    (Hopset.edges h)

let test_hopset_size_bound () =
  let _, vg, h = build_hopset ~n:400 ~lambda:2 () in
  let m = float_of_int (Virtual_graph.size vg) in
  (* TZ bunches: expected lambda * m^{1+1/lambda}; generous whp factor *)
  let bound = 8.0 *. 2.0 *. (m ** 1.5) *. log (m +. 2.0) in
  Alcotest.(check bool)
    (Printf.sprintf "|H|=%d <= %.0f" (Hopset.size h) bound)
    true
    (float_of_int (Hopset.size h) <= bound)

let test_hopset_storage_bound () =
  let _, vg, h = build_hopset ~n:400 ~lambda:3 () in
  let m = float_of_int (max (Virtual_graph.size vg) 2) in
  let bound = 8.0 *. 3.0 *. (m ** (1.0 /. 3.0)) *. log m in
  let worst = Hopset.max_out_degree h in
  Alcotest.(check bool)
    (Printf.sprintf "per-vertex storage %d <= 8 lambda m^{1/lambda} ln m = %.0f" worst bound)
    true
    (float_of_int worst <= bound)

let test_hopset_property () =
  (* the headline test: beta-hop distances in G' u H approximate d_G *)
  let _, _, h = build_hopset ~n:300 ~b:20 ~lambda:3 () in
  let c = Hopset.verify ~rng:(rng 77) h ~beta:8 ~epsilon:0.0 ~pairs:60 in
  Alcotest.(check int)
    (Printf.sprintf "beta=8 exact on %d pairs (worst %.4f)" c.Hopset.pairs c.Hopset.worst_ratio)
    0 c.Hopset.violations

let test_hopset_never_underestimates () =
  let g, _, h = build_hopset ~n:200 ~b:16 () in
  let mv = Virtual_graph.members (Hopset.virtual_graph h) in
  let m = Array.length mv in
  let r = rng 88 in
  for _ = 1 to 30 do
    let s = mv.(Random.State.int r m) and t' = mv.(Random.State.int r m) in
    if s <> t' then begin
      let exact = (Sssp.dijkstra g ~src:s).Sssp.dist.(t') in
      let est = Hopset.beta_distance h ~src:s ~dst:t' ~beta:4 in
      Alcotest.(check bool) "no underestimate" true (est >= exact -. 1e-6)
    end
  done

let test_measure_beta_converges () =
  let _, _, h = build_hopset ~n:250 ~b:16 ~lambda:2 () in
  match Hopset.measure_beta ~rng:(rng 99) h ~epsilon:0.1 ~pairs:40 ~max_beta:64 with
  | Some beta -> Alcotest.(check bool) (Printf.sprintf "beta=%d small" beta) true (beta <= 32)
  | None -> Alcotest.fail "no beta up to 64 achieved (1+eps)"

let test_hopset_provenance () =
  let _, _, h = build_hopset ~n:200 ~b:16 () in
  let mv = Virtual_graph.members (Hopset.virtual_graph h) in
  let dist, prov, _ = Hopset.run h ~sources:[ (mv.(0), 0.0) ] ~beta:6 in
  Alcotest.(check bool) "source marked" true (prov.(mv.(0)) = Hopset.Source);
  Array.iteri
    (fun v p ->
      match p with
      | Hopset.Unreached -> Alcotest.(check bool) "unreached = inf" true (dist.(v) = infinity)
      | Hopset.Source | Hopset.Via_host _ | Hopset.Via_hopset _ ->
        Alcotest.(check bool) "reached = finite" true (dist.(v) < infinity))
    prov

let test_hopset_rejects_bad_edges () =
  let g, vg = make_vg ~n:60 ~b:8 () in
  let mv = Virtual_graph.members vg in
  if Array.length mv >= 2 then begin
    let x = mv.(0) and y = mv.(1) in
    let d = (Sssp.dijkstra g ~src:x).Sssp.dist.(y) in
    match Sssp.path_to (Sssp.dijkstra g ~src:x) y with
    | None -> ()
    | Some p ->
      let path = Array.of_list p in
      (* weight mismatch *)
      Alcotest.(check bool) "bad weight rejected" true
        (try
           ignore (Hopset.make vg [ { Hopset.x; y; w = d +. 100.0; path } ]);
           false
         with Invalid_argument _ -> true);
      (* disconnected path *)
      Alcotest.(check bool) "bad path rejected" true
        (try
           ignore (Hopset.make vg [ { Hopset.x; y = x; w = d; path } ]);
           false
         with Invalid_argument _ -> true)
  end

(* ---------- properties ---------- *)

let prop_hopset_beta_improves =
  QCheck.Test.make ~name:"more hops never hurt" ~count:10
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let _, _, h = build_hopset ~seed:(seed + 3) ~n:150 ~b:12 ~lambda:2 () in
      let mv = Virtual_graph.members (Hopset.virtual_graph h) in
      let m = Array.length mv in
      QCheck.assume (m >= 2);
      let s = mv.(seed mod m) and t' = mv.((seed / 3) mod m) in
      QCheck.assume (s <> t');
      let d2 = Hopset.beta_distance h ~src:s ~dst:t' ~beta:2 in
      let d4 = Hopset.beta_distance h ~src:s ~dst:t' ~beta:4 in
      let d8 = Hopset.beta_distance h ~src:s ~dst:t' ~beta:8 in
      d4 <= d2 +. 1e-9 && d8 <= d4 +. 1e-9)


(* ---------- limited and attributed explorations ---------- *)

let test_run_limited_blocks () =
  let g, vg = make_vg ~seed:31 ~n:150 ~b:10 () in
  let h = Construct.tz_hopset ~rng:(rng 32) ~lambda:2 vg in
  let src = (Virtual_graph.members vg).(0) in
  (* block everything beyond radius 5: distances past it must be worse than
     the unlimited run *)
  let d_free, _, _ = Hopset.run h ~sources:[ (src, 0.0) ] ~beta:6 in
  let d_lim, _, _ =
    Hopset.run h ~sources:[ (src, 0.0) ] ~beta:6
      ~keep_host:(fun _ d -> d < 5.0)
      ~keep_virtual:(fun _ d -> d < 5.0)
  in
  let n = Graph.n g in
  let degraded = ref 0 in
  for v = 0 to n - 1 do
    Alcotest.(check bool) "limited >= free" true (d_lim.(v) >= d_free.(v) -. 1e-9);
    (* far vertices may still hear large values over long hopset edges, but
       the limit must degrade estimates somewhere *)
    if d_lim.(v) > d_free.(v) +. 1e-6 then incr degraded
  done;
  Alcotest.(check bool) "limit degrades some estimates" true (!degraded > 0)

let test_run_attributed_origins () =
  let g, vg = make_vg ~seed:41 ~n:150 ~b:150 () in
  let h = Construct.tz_hopset ~rng:(rng 42) ~lambda:2 vg in
  let mv = Virtual_graph.members vg in
  let srcs = [ mv.(0); mv.(Array.length mv - 1) ] in
  let dist, _, origin =
    Hopset.run h ~sources:(List.map (fun s -> (s, 0.0)) srcs) ~beta:8
  in
  let exact = (Sssp.dijkstra_multi g ~srcs).Sssp.dist in
  Array.iteri
    (fun v o ->
      if dist.(v) < infinity then begin
        Alcotest.(check bool) "origin is a source" true (List.mem o srcs);
        (* the attributed origin's distance matches the estimate within eps *)
        let d_o = (Sssp.dijkstra g ~src:o).Sssp.dist.(v) in
        Alcotest.(check bool) "estimate >= origin distance" true (dist.(v) >= d_o -. 1e-6);
        Alcotest.(check bool) "estimate >= nearest source" true
          (dist.(v) >= exact.(v) -. 1e-6)
      end)
    origin

let test_empty_hopset () =
  let _, vg = make_vg ~seed:51 ~n:60 ~b:6 () in
  let h = Hopset.make vg [] in
  Alcotest.(check int) "size" 0 (Hopset.size h);
  Alcotest.(check int) "store" 0 (Hopset.max_out_degree h);
  Alcotest.(check int) "arboricity" 0 (Hopset.measured_arboricity h);
  (* runs still work: pure B-bounded waves *)
  let src = (Virtual_graph.members vg).(0) in
  let dist, _, _ = Hopset.run h ~sources:[ (src, 0.0) ] ~beta:2 in
  Alcotest.(check (float 1e-9)) "source zero" 0.0 dist.(src)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "hopset"
    [
      ( "virtual-graph",
        [
          Alcotest.test_case "membership" `Quick test_vg_membership;
          Alcotest.test_case "edges = B-bounded distances" `Quick test_vg_edges_are_bounded_distances;
          Alcotest.test_case "bf iteration = one wave" `Quick test_vg_bf_iteration_semantics;
          Alcotest.test_case "Claim 7 density: d_G' = d_G" `Quick test_vg_claim7_distances;
          Alcotest.test_case "sparse V': d_G' >= d_G" `Quick test_vg_explicit_weights_dominate;
          Alcotest.test_case "bf iteration rejects bad lengths" `Quick
            test_bf_iteration_rejects_bad_lengths;
        ] );
      ( "hopset",
        [
          Alcotest.test_case "paths valid" `Quick test_hopset_paths_valid;
          Alcotest.test_case "edge weights exact" `Quick test_hopset_edges_are_distances;
          Alcotest.test_case "size bound" `Quick test_hopset_size_bound;
          Alcotest.test_case "per-vertex storage bound" `Quick test_hopset_storage_bound;
          Alcotest.test_case "(beta,eps) property" `Quick test_hopset_property;
          Alcotest.test_case "never underestimates" `Quick test_hopset_never_underestimates;
          Alcotest.test_case "measure_beta converges" `Quick test_measure_beta_converges;
          Alcotest.test_case "provenance" `Quick test_hopset_provenance;
          Alcotest.test_case "bad edges rejected" `Quick test_hopset_rejects_bad_edges;
        ] );
      ( "explorations",
        [
          Alcotest.test_case "run_limited blocks" `Quick test_run_limited_blocks;
          Alcotest.test_case "run_attributed origins" `Quick test_run_attributed_origins;
          Alcotest.test_case "empty hopset" `Quick test_empty_hopset;
        ] );
      qsuite "properties"
        [ prop_hopset_beta_improves; prop_bf_iteration_matches_reference ];
    ]
