(* Tests for the distributed exact stage (Appendix B on the CONGEST
   simulator): the differential gate against the centralized computation,
   the hop-limited Bellman-Ford primitives, and the full-scheme splice. *)

open Dgraph

let rng seed = Random.State.make [| seed; 91 |]

let concat_take k l =
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  String.concat " | " (take k l)

let run_gate ?b ?faults ?reliable ~seed ~k g =
  let o =
    Routing.Dist_scheme.run ~rng:(rng seed) ~k ?b ?faults ?reliable
      ~max_rounds:500_000 g
  in
  if o.Routing.Dist_scheme.failures <> [] then
    Alcotest.failf "protocol failures: %s"
      (String.concat " | "
         (List.map Routing.Dist_scheme.failure_to_string
            o.Routing.Dist_scheme.failures));
  let errs = Routing.Dist_scheme.check_against_centralized ~rng:(rng seed) g o in
  if errs <> [] then
    Alcotest.failf "%d divergences vs centralized: %s" (List.length errs)
      (concat_take 5 errs);
  o

(* ---------- the differential gate across topologies ---------- *)

let test_gate_grid () =
  let g = Gen.grid ~rng:(rng 1) ~rows:8 ~cols:8 () in
  let o = run_gate ~seed:11 ~k:4 g in
  (* phases: setup + ih pivot + ih cluster + virtual, all with measured
     positive spans *)
  let ih = o.Routing.Dist_scheme.exact.Routing.Scheme.Exact_stage.ih in
  Alcotest.(check int) "phase count" ((2 * ih) + 2)
    (List.length o.Routing.Dist_scheme.phase_rounds);
  List.iter
    (fun (name, rounds) ->
      if rounds <= 0 then Alcotest.failf "phase %S measured %d rounds" name rounds)
    o.Routing.Dist_scheme.phase_rounds

let test_gate_er () =
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 2)
      ~weights:(Gen.uniform_weights 1.0 4.0) ~n:80 ~avg_deg:4.0 ()
  in
  ignore (run_gate ~seed:12 ~k:4 g)

let test_gate_torus () =
  let g = Gen.torus ~rng:(rng 3) ~rows:6 ~cols:6 () in
  ignore (run_gate ~seed:13 ~k:3 g)

let test_gate_k2 () =
  (* k = 2: a single pivot phase, a single cluster phase, the virtual wave *)
  let g = Gen.grid ~rng:(rng 4) ~rows:5 ~cols:5 () in
  let o = run_gate ~seed:14 ~k:2 g in
  Alcotest.(check int) "phase count" 4
    (List.length o.Routing.Dist_scheme.phase_rounds)

let test_gate_small_b () =
  (* forcing b below the hop diameter truncates the virtual rows; the gate
     compares against Virtual_graph at the same b, so it must still pass *)
  let g = Gen.grid ~rng:(rng 5) ~rows:7 ~cols:7 () in
  ignore (run_gate ~seed:15 ~k:4 ~b:3 g)

let test_gate_sampled_agrees_with_exact () =
  (* the sampled gate keeps dist/pivots/owner-sequence/member-set exact and
     only samples cluster waves and virtual rows; on a graph where the exact
     gate passes, every sample size must pass too *)
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 30)
      ~weights:(Gen.uniform_weights 1.0 4.0) ~n:120 ~avg_deg:4.0 ()
  in
  let o = run_gate ~seed:31 ~k:4 g in
  List.iter
    (fun sample ->
      let mode = Routing.Dist_scheme.Sampled { sample; seed = 0x5eed } in
      let errs =
        Routing.Dist_scheme.check_against_centralized ~rng:(rng 31) ~mode g o
      in
      if errs <> [] then
        Alcotest.failf "%s: %d divergences: %s"
          (Routing.Dist_scheme.gate_mode_name mode)
          (List.length errs) (concat_take 5 errs))
    [ 1; 8; 1000 (* > population: degenerates to exhaustive *) ];
  (* threshold dispatch: small n stays exact, big n samples *)
  (match Routing.Dist_scheme.auto_gate_mode (Graph.n g) with
  | Routing.Dist_scheme.Exact -> ()
  | m -> Alcotest.failf "auto mode for n=120: %s" (Routing.Dist_scheme.gate_mode_name m));
  match Routing.Dist_scheme.auto_gate_mode (Routing.Dist_scheme.gate_threshold + 1) with
  | Routing.Dist_scheme.Sampled _ -> ()
  | m -> Alcotest.failf "auto mode above threshold: %s" (Routing.Dist_scheme.gate_mode_name m)

(* ---------- transports ---------- *)

let test_reliable_matches_raw () =
  let g = Gen.grid ~rng:(rng 6) ~rows:6 ~cols:6 () in
  let raw = run_gate ~seed:16 ~k:4 ~reliable:false g in
  let rel = run_gate ~seed:16 ~k:4 ~reliable:true g in
  (* virtual rounds over Reliable are bit-identical to the raw transport *)
  Alcotest.(check (list (pair string int)))
    "measured phase spans" raw.Routing.Dist_scheme.phase_rounds
    rel.Routing.Dist_scheme.phase_rounds

let test_gate_under_faults () =
  let g = Gen.grid ~rng:(rng 7) ~rows:6 ~cols:6 () in
  let faults =
    Congest.Fault.make
      {
        Congest.Fault.none with
        seed = 21;
        drop = 0.15;
        duplicate = 0.08;
        delay = 0.1;
      }
  in
  let clean = run_gate ~seed:17 ~k:4 g in
  let faulty = run_gate ~seed:17 ~k:4 ~faults g in
  (* the reliable transport masks the faults entirely: same measured virtual
     spans, same harvested stage *)
  Alcotest.(check (list (pair string int)))
    "measured phase spans" clean.Routing.Dist_scheme.phase_rounds
    faulty.Routing.Dist_scheme.phase_rounds

let test_deterministic () =
  let g = Gen.torus ~rng:(rng 8) ~rows:5 ~cols:5 () in
  let o1 = run_gate ~seed:18 ~k:3 g in
  let o2 = run_gate ~seed:18 ~k:3 g in
  Alcotest.(check (list (pair string int)))
    "phase spans" o1.Routing.Dist_scheme.phase_rounds
    o2.Routing.Dist_scheme.phase_rounds;
  if o1.Routing.Dist_scheme.virtual_rows <> o2.Routing.Dist_scheme.virtual_rows
  then Alcotest.fail "virtual rows differ across identical runs"

(* ---------- hop-limited Bellman-Ford vs the distributed waves ---------- *)

let test_virtual_wave_is_bounded_bf () =
  (* the B-bounded wave's deposits are d^(B), checked against the
     Sssp.bellman_ford primitive directly (the gate itself goes through
     Virtual_graph) *)
  let g = Gen.grid ~rng:(rng 9) ~rows:7 ~cols:7 () in
  let o = run_gate ~seed:19 ~k:4 ~b:5 g in
  List.iter
    (fun u' ->
      let r = Sssp.bellman_ford g ~src:u' ~hops:o.Routing.Dist_scheme.b in
      List.iter
        (fun (v', row) ->
          if v' <> u' then
            let got = List.assoc_opt u' row in
            let want =
              if r.Sssp.dist.(v') = infinity then None else Some r.Sssp.dist.(v')
            in
            if got <> want then
              Alcotest.failf "d^(%d)(%d -> %d): wave %s, bellman_ford %s"
                o.Routing.Dist_scheme.b u' v'
                (match got with None -> "absent" | Some d -> Printf.sprintf "%h" d)
                (match want with None -> "inf" | Some d -> Printf.sprintf "%h" d))
        o.Routing.Dist_scheme.virtual_rows)
    o.Routing.Dist_scheme.members

let test_cluster_wave_is_limited_bf () =
  (* each cluster phase is a limited exploration: members and distances must
     equal Sssp.bellman_ford_limited run to convergence with the Claim-8
     predicate d < d(v, A_{i+1}) *)
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 10)
      ~weights:(Gen.uniform_weights 1.0 3.0) ~n:60 ~avg_deg:4.0 ()
  in
  let n = Graph.n g in
  let o = run_gate ~seed:20 ~k:4 g in
  let h = Tz.Hierarchy.build ~rng:(rng 20) ~k:4 g in
  List.iter
    (fun (c : Tz.Cluster.t) ->
      let i = c.Tz.Cluster.owner_level in
      let bound v = Tz.Hierarchy.dist_to_level h (i + 1) v in
      let r =
        Sssp.bellman_ford_limited g ~src:c.Tz.Cluster.owner ~hops:n
          ~keep_going:(fun v d -> d < bound v)
      in
      let want = ref [] in
      for v = n - 1 downto 0 do
        if r.Sssp.dist.(v) < bound v then want := (v, r.Sssp.dist.(v)) :: !want
      done;
      if c.Tz.Cluster.dist <> !want then
        Alcotest.failf "cluster of %d (level %d): wave differs from limited BF"
          c.Tz.Cluster.owner i)
    o.Routing.Dist_scheme.exact.Routing.Scheme.Exact_stage.clusters

(* ---------- splicing into the full scheme ---------- *)

let test_build_scheme_matches_centralized () =
  let g = Gen.grid ~rng:(rng 11) ~rows:7 ~cols:7 () in
  let k = 4 and seed = 23 in
  let r1 = rng seed in
  let s1 = Routing.Scheme.build ~rng:r1 ~k g in
  let r2 = rng seed in
  let o = Routing.Dist_scheme.run ~rng:r2 ~k ~max_rounds:500_000 g in
  if o.Routing.Dist_scheme.failures <> [] then
    Alcotest.failf "protocol failures: %s"
      (String.concat " | "
         (List.map Routing.Dist_scheme.failure_to_string
            o.Routing.Dist_scheme.failures));
  (* r2 is now positioned exactly where build's sampling left r1, so the
     hopset construction draws the same stream; parameters and the virtual
     graph are identical. The schemes as a whole are NOT bit-identical:
     exact cluster trees tie-differ (message arrival vs heap order), which
     shifts individual routes and a few table/label words - both remain
     valid shortest-path trees, so delivery and stretch must hold alike. *)
  let s2 = Routing.Dist_scheme.build_scheme ~rng:r2 g o in
  Alcotest.(check int) "k" (Routing.Scheme.k s1) (Routing.Scheme.k s2);
  Alcotest.(check int) "b" (Routing.Scheme.b_bound s1) (Routing.Scheme.b_bound s2);
  Alcotest.(check int) "virtual size" (Routing.Scheme.virtual_size s1)
    (Routing.Scheme.virtual_size s2);
  Alcotest.(check int) "hopset size" (Routing.Scheme.hopset_size s1)
    (Routing.Scheme.hopset_size s2);
  let n = Graph.n g in
  let bound =
    float_of_int ((4 * k) - 3) *. (1.0 +. (8.0 *. Routing.Scheme.epsilon s1))
  in
  let r = rng 24 in
  for _ = 1 to 400 do
    let src = Random.State.int r n and dst = Random.State.int r n in
    if src <> dst then begin
      let d = (Sssp.dijkstra g ~src).Sssp.dist.(dst) in
      let w s name =
        match Routing.Scheme.route_weight g s ~src ~dst with
        | Ok w -> w
        | Error e ->
          Alcotest.failf "%s: route %d -> %d failed: %a" name src dst
            Tz.Routing_error.pp e
      in
      let w1 = w s1 "centralized" and w2 = w s2 "distributed" in
      if w1 > bound *. d || w2 > bound *. d then
        Alcotest.failf "stretch %d -> %d: centralized %.3f, distributed %.3f, bound %.3f"
          src dst (w1 /. d) (w2 /. d) bound
    end
  done

(* ---------- watchdog: typed failures under crash-stop faults ---------- *)

let test_watchdog_crash () =
  (* crash an interior vertex early: the barrier tree is cut, the stage can
     never complete — the run must terminate with typed failures (the
     crash's neighbours see Link_lost, stalled survivors trip the watchdog)
     rather than hang or report an untyped string *)
  let g = Gen.grid ~rng:(rng 4) ~rows:4 ~cols:4 () in
  let faults =
    Congest.Fault.make { Congest.Fault.none with crashes = [ (5, 40) ] }
  in
  let o =
    Routing.Dist_scheme.run ~rng:(rng 4) ~k:2 ~faults ~max_rounds:100_000 g
  in
  (match o.Routing.Dist_scheme.failures with
  | [] -> Alcotest.fail "crash-stop run reported no failures"
  | fs ->
    let typed =
      List.exists
        (function
          | Routing.Dist_scheme.Stalled _ | Routing.Dist_scheme.Link_lost _
          | Routing.Dist_scheme.Setup_timeout _ ->
            true
          | Routing.Dist_scheme.Harvest _ | Routing.Dist_scheme.Transport _ ->
            false)
        fs
    in
    if not typed then
      Alcotest.failf "no watchdog/link failure among: %s"
        (String.concat " | " (List.map Routing.Dist_scheme.failure_to_string fs)));
  (* rendering stays human-readable *)
  List.iter
    (fun f ->
      Alcotest.(check bool)
        "failure_to_string non-empty" true
        (String.length (Routing.Dist_scheme.failure_to_string f) > 0))
    o.Routing.Dist_scheme.failures

(* ---------- watchdog: interval derived from the backoff schedule ---------- *)

let test_watchdog_backoff_boundary () =
  (* the stall watchdog must dominate the transport's retransmission
     schedule.  First pin the closed form, then run with a config whose
     budget (2040) exceeds the old hardcoded interval (1100) under heavy
     drop faults: with the interval derived from the config the run stays
     clean; a magic constant would trip false [Stalled] reports while the
     transport is still legitimately backing off. *)
  Alcotest.(check int) "default budget" 1020
    Congest.Reliable.(retransmission_budget default_config);
  Alcotest.(check int) "doubled ack_timeout budget" 2040
    (Congest.Reliable.retransmission_budget
       { Congest.Reliable.default_config with ack_timeout = 8 });
  Alcotest.(check int) "no retries, no budget" 0
    (Congest.Reliable.retransmission_budget
       { Congest.Reliable.default_config with max_retries = 0 });
  let g = Gen.grid ~rng:(rng 12) ~rows:5 ~cols:5 () in
  let config = { Congest.Reliable.default_config with ack_timeout = 8 } in
  let faults =
    Congest.Fault.make { Congest.Fault.none with seed = 33; drop = 0.15 }
  in
  let o =
    Routing.Dist_scheme.run ~rng:(rng 12) ~k:3 ~faults ~config
      ~max_rounds:1_000_000 g
  in
  if o.Routing.Dist_scheme.failures <> [] then
    Alcotest.failf "failures with derived watchdog: %s"
      (String.concat " | "
         (List.map Routing.Dist_scheme.failure_to_string
            o.Routing.Dist_scheme.failures));
  let errs = Routing.Dist_scheme.check_against_centralized ~rng:(rng 12) g o in
  if errs <> [] then
    Alcotest.failf "%d divergences vs centralized: %s" (List.length errs)
      (concat_take 5 errs)

(* ---------- engine pin: exact counts on one fixed instance ---------- *)

let pin_faults =
  Congest.Fault.make
    { Congest.Fault.none with seed = 5; drop = 0.1; duplicate = 0.05 }

let check_pin what (o : Routing.Dist_scheme.outcome) ~rounds ~messages ~peak
    ~phases =
  let m = o.Routing.Dist_scheme.report in
  if o.Routing.Dist_scheme.failures <> [] then
    Alcotest.failf "%s: protocol failures: %s" what
      (String.concat " | "
         (List.map Routing.Dist_scheme.failure_to_string
            o.Routing.Dist_scheme.failures));
  Alcotest.(check int) (what ^ " rounds") rounds m.Congest.Metrics.rounds;
  Alcotest.(check int) (what ^ " messages") messages m.Congest.Metrics.messages;
  Alcotest.(check int) (what ^ " peak memory") peak
    (Congest.Metrics.peak_memory_max m);
  Alcotest.(check (list (pair string int)))
    (what ^ " phase rounds") phases o.Routing.Dist_scheme.phase_rounds

let test_engine_pin () =
  (* the superstep engine's exact behaviour on a 6x6 grid, k = 3: any
     change to barrier timing, capacity tally or memory accounting moves
     one of these figures *)
  let g = Gen.grid ~rng:(rng 70) ~rows:6 ~cols:6 () in
  let phases =
    [
      ("hierarchy sampling + BFS setup", 23);
      ("exact pivots level 1", 84);
      ("exact clusters level 0", 63);
      ("virtual edges (B-bounded wave)", 253);
    ]
  in
  let raw = Routing.Dist_scheme.run ~rng:(rng 71) ~k:3 ~max_rounds:500_000 g in
  check_pin "raw" raw ~rounds:433 ~messages:2979 ~peak:98 ~phases;
  let rel =
    Routing.Dist_scheme.run ~rng:(rng 71) ~k:3 ~faults:pin_faults
      ~max_rounds:500_000 g
  in
  check_pin "reliable" rel ~rounds:4176 ~messages:111533 ~peak:195 ~phases

(* The same instance over Reliable under the build-er-faulty benchmark's
   fault mix, delays included. Every fault counter and each vertex's peak
   declared words are pinned, so a change to delayed delivery order, to
   the fault hash or to the transport's buffered-word accounting moves a
   figure here. *)
let test_engine_pin_fault_mix () =
  let g = Gen.grid ~rng:(rng 70) ~rows:6 ~cols:6 () in
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
  let o =
    Routing.Dist_scheme.run ~rng:(rng 71) ~k:3 ~faults ~max_rounds:500_000 g
  in
  check_pin "fault mix" o ~rounds:2958 ~messages:107002 ~peak:192
    ~phases:
      [
        ("hierarchy sampling + BFS setup", 23);
        ("exact pivots level 1", 84);
        ("exact clusters level 0", 63);
        ("virtual edges (B-bounded wave)", 253);
      ];
  let m = o.Routing.Dist_scheme.report in
  Alcotest.(check (list int))
    "fault counters (retransmitted, dropped, duplicated, delayed)"
    [ 8262; 5383; 2004; 4877 ]
    Congest.Metrics.[ m.retransmitted; m.dropped; m.duplicated; m.delayed ];
  Alcotest.(check (array int))
    "per-vertex peak memory"
    [|
      119; 134; 143; 137; 132; 107; 140; 152; 152; 151; 142; 131; 129; 157;
      157; 160; 180; 136; 142; 149; 192; 146; 142; 122; 138; 152; 144; 151;
      161; 130; 107; 138; 129; 125; 129; 112;
    |]
    m.Congest.Metrics.peak_memory

(* ---------- the wire codec ---------- *)

(* A message with its floats shown by their bits, so NaN payloads, -0.0
   and subnormals compare exactly. *)
let view =
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  function
  | Routing.Superstep.Bfs { depth } -> Printf.sprintf "Bfs %d" depth
  | Bfs_adopt -> "Bfs_adopt"
  | Bfs_echo -> "Bfs_echo"
  | Done { sent } -> Printf.sprintf "Done %d" sent
  | Advance -> "Advance"
  | Next -> "Next"
  | Offer { key; dist } -> Printf.sprintf "Offer %d %s" key (bits dist)
  | Offer2 { key; dist; origin } ->
    Printf.sprintf "Offer2 %d %s %d" key (bits dist) origin
  | Relay { key; edge; dir; value; origin } ->
    Printf.sprintf "Relay %d %d %d %s %d" key edge dir (bits value) origin
  | Rec_req { key; edge; dir } -> Printf.sprintf "Rec_req %d %d %d" key edge dir
  | Rec { key; edge; dir; acc } ->
    Printf.sprintf "Rec %d %d %d %s" key edge dir (bits acc)

let gen_msg =
  let open QCheck.Gen in
  let int = oneof [ int; oneofl [ 0; -1; max_int; min_int ] ] in
  let float =
    oneof
      [
        float;
        map Int64.float_of_bits int64;
        oneofl
          [ infinity; neg_infinity; nan; -.nan; -0.0; 5e-324; -2.2e-308; max_float ];
      ]
  in
  oneof
    [
      map (fun depth -> Routing.Superstep.Bfs { depth }) int;
      pure Routing.Superstep.Bfs_adopt;
      pure Routing.Superstep.Bfs_echo;
      map (fun sent -> Routing.Superstep.Done { sent }) int;
      pure Routing.Superstep.Advance;
      pure Routing.Superstep.Next;
      map2 (fun key dist -> Routing.Superstep.Offer { key; dist }) int float;
      map3
        (fun key dist origin -> Routing.Superstep.Offer2 { key; dist; origin })
        int float int;
      (fun st ->
        let key = int st and edge = int st and dir = int st in
        Routing.Superstep.Relay { key; edge; dir; value = float st; origin = int st });
      map3 (fun key edge dir -> Routing.Superstep.Rec_req { key; edge; dir }) int int int;
      (fun st ->
        let key = int st and edge = int st and dir = int st in
        Routing.Superstep.Rec { key; edge; dir; acc = float st });
    ]

(* decode (encode m) = m for every constructor, at an arbitrary base, with
   the slot just past [slots] left untouched and at most 8 words accounted *)
let prop_codec_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"wire codec round-trips every constructor"
    QCheck.(pair (make ~print:view gen_msg) (int_bound 9))
    (fun (m, base) ->
      let sl = Congest.Slab.create () in
      let b = Congest.Slab.alloc sl (base + Routing.Superstep.slots + 1) + base in
      let guard = b + Routing.Superstep.slots in
      Congest.Slab.set sl guard 0x5eed;
      Routing.Superstep.encode sl b m;
      view (Routing.Superstep.decode sl b) = view m
      && Congest.Slab.get sl guard = 0x5eed
      && Routing.Superstep.words m <= 8)

(* ---------- watchdog: setup never completes ---------- *)

let test_setup_timeout () =
  (* crash the root after its BFS flood left but before the echo returns:
     phase 0 never opens anywhere, so every survivor either loses its link
     to the root or times out in setup *)
  let g = Gen.grid ~rng:(rng 4) ~rows:4 ~cols:4 () in
  let faults =
    Congest.Fault.make { Congest.Fault.none with crashes = [ (0, 4) ] }
  in
  let max_rounds = 100_000 in
  let o = Routing.Dist_scheme.run ~rng:(rng 4) ~k:2 ~faults ~max_rounds g in
  let fs = o.Routing.Dist_scheme.failures in
  let show () =
    String.concat " | " (List.map Routing.Dist_scheme.failure_to_string fs)
  in
  List.iter
    (function
      | Routing.Dist_scheme.Setup_timeout _ | Routing.Dist_scheme.Link_lost _ -> ()
      | _ -> Alcotest.failf "unexpected failure kind among: %s" (show ()))
    fs;
  if
    not
      (List.exists
         (function Routing.Dist_scheme.Setup_timeout _ -> true | _ -> false)
         fs)
  then Alcotest.failf "no Setup_timeout among: %s" (show ());
  if o.Routing.Dist_scheme.report.Congest.Metrics.rounds >= max_rounds then
    Alcotest.failf "ran into the round limit (%d rounds)"
      o.Routing.Dist_scheme.report.Congest.Metrics.rounds

(* A failed exact stage is never spliced: cut at 150 rounds, the run
   harvests no cluster, and build_scheme must not route on what is left. *)
let test_build_scheme_rejects_failed_stage () =
  let g = Gen.grid ~rng:(Random.State.make [| 3 |]) ~rows:6 ~cols:6 () in
  let r = Random.State.make [| 71 |] in
  let o = Routing.Dist_scheme.run ~rng:r ~k:3 ~max_rounds:150 g in
  Alcotest.(check (list string))
    "failures" [ "round limit exceeded" ]
    (List.map Routing.Dist_scheme.failure_to_string o.Routing.Dist_scheme.failures);
  Alcotest.check_raises "build_scheme"
    (Invalid_argument "Dist_scheme.build_scheme: exact stage failed: round limit exceeded")
    (fun () -> ignore (Routing.Dist_scheme.build_scheme ~rng:r g o))

let () =
  Alcotest.run "dist_scheme"
    [
      ( "gate",
        [
          Alcotest.test_case "grid, raw transport" `Quick test_gate_grid;
          Alcotest.test_case "weighted ER, raw transport" `Quick test_gate_er;
          Alcotest.test_case "torus k=3" `Quick test_gate_torus;
          Alcotest.test_case "k=2 minimal" `Quick test_gate_k2;
          Alcotest.test_case "small b truncation" `Quick test_gate_small_b;
          Alcotest.test_case "sampled gate agrees with exact" `Quick
            test_gate_sampled_agrees_with_exact;
        ] );
      ( "transports",
        [
          Alcotest.test_case "reliable = raw (virtual rounds)" `Quick
            test_reliable_matches_raw;
          Alcotest.test_case "gate holds under faults" `Quick
            test_gate_under_faults;
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
          Alcotest.test_case "watchdog under crash-stop" `Quick
            test_watchdog_crash;
          Alcotest.test_case "watchdog at the backoff boundary" `Quick
            test_watchdog_backoff_boundary;
          Alcotest.test_case "crash before setup: Setup_timeout" `Quick
            test_setup_timeout;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pinned counts (6x6 grid, k=3)" `Quick test_engine_pin;
          Alcotest.test_case "pinned counts under the fault mix" `Quick
            test_engine_pin_fault_mix;
          QCheck_alcotest.to_alcotest ~long:false prop_codec_roundtrip;
        ] );
      ( "bounded BF",
        [
          Alcotest.test_case "virtual wave = bellman_ford" `Quick
            test_virtual_wave_is_bounded_bf;
          Alcotest.test_case "cluster wave = bellman_ford_limited" `Quick
            test_cluster_wave_is_limited_bf;
        ] );
      ( "scheme",
        [
          Alcotest.test_case "build_scheme = Scheme.build" `Quick
            test_build_scheme_matches_centralized;
          Alcotest.test_case "build_scheme rejects a failed stage" `Quick
            test_build_scheme_rejects_failed_stage;
        ] );
    ]
