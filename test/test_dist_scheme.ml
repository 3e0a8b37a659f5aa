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
          | Routing.Protocol.Stalled _ | Routing.Protocol.Link_lost _
          | Routing.Protocol.Setup_timeout _ ->
            true
          | Routing.Protocol.Queue_overflow _ | Routing.Protocol.Harvest _
          | Routing.Protocol.Transport _ ->
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
      ("exact pivots level 1", 63);
      ("exact clusters level 0", 63);
      ("virtual edges (B-bounded wave)", 253);
    ]
  in
  let raw = Routing.Dist_scheme.run ~rng:(rng 71) ~k:3 ~max_rounds:500_000 g in
  check_pin "raw" raw ~rounds:412 ~messages:2917 ~peak:98 ~phases;
  let rel =
    Routing.Dist_scheme.run ~rng:(rng 71) ~k:3 ~faults:pin_faults
      ~max_rounds:500_000 g
  in
  check_pin "reliable" rel ~rounds:3755 ~messages:105729 ~peak:192 ~phases

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
  check_pin "fault mix" o ~rounds:1801 ~messages:102162 ~peak:180
    ~phases:
      [
        ("hierarchy sampling + BFS setup", 23);
        ("exact pivots level 1", 63);
        ("exact clusters level 0", 63);
        ("virtual edges (B-bounded wave)", 253);
      ];
  let m = o.Routing.Dist_scheme.report in
  Alcotest.(check (list int))
    "fault counters (retransmitted, dropped, duplicated, delayed)"
    [ 7926; 5094; 1926; 4752 ]
    Congest.Metrics.[ m.retransmitted; m.dropped; m.duplicated; m.delayed ];
  Alcotest.(check (array int))
    "per-vertex peak memory"
    [|
      119; 134; 143; 128; 141; 107; 131; 164; 160; 148; 172; 131; 129; 153;
      161; 164; 180; 136; 142; 156; 167; 168; 164; 130; 125; 159; 168; 160;
      156; 140; 107; 123; 129; 134; 141; 109;
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
      | Routing.Protocol.Setup_timeout _ | Routing.Protocol.Link_lost _ -> ()
      | _ -> Alcotest.failf "unexpected failure kind among: %s" (show ()))
    fs;
  if
    not
      (List.exists
         (function Routing.Protocol.Setup_timeout _ -> true | _ -> false)
         fs)
  then Alcotest.failf "no Setup_timeout among: %s" (show ());
  if o.Routing.Dist_scheme.report.Congest.Metrics.rounds >= max_rounds then
    Alcotest.failf "ran into the round limit (%d rounds)"
      o.Routing.Dist_scheme.report.Congest.Metrics.rounds

(* ---------- a continuous segment closes only after its data lands ------ *)

(* Toy plans on a ring rooted at vertex 0, one continuous segment each, in
   which vertex 0 launches one Offer token whose key is a budget of hops.
   A vertex that receives a token of key [k] spends one hop and passes
   [k - 1] on: all of it away from the port it came in on ([split] false),
   or split between both neighbours ([split] true). Either way the
   segment's receipts total the initial budget exactly. Each vertex
   harvests, when the phase closes, the receipts it handled and whether
   the last of them was a token of key 1, which lands there. *)
let relay_run ?(split = false) ?(burst = 1) ~n ~budget ~port0 () =
  let g = Gen.ring ~rng:(Random.State.make [| n |]) ~n () in
  let hops = Array.make n 0 and landed = Array.make n false in
  let plan =
    {
      Routing.Superstep.phases = 1;
      segments = (fun _ -> [| () |]);
      kind = (fun () -> Routing.Superstep.Continuous);
      name = (fun p -> if p < 0 then "setup" else "token");
      detail = (fun _ -> "");
    }
  in
  let vertex ctx =
    let me = Routing.Superstep.me ctx in
    let seen = ref 0 and here = ref false in
    let pass port key =
      if key > 0 then Routing.Superstep.enqueue ctx port (Offer { key; dist = 0.0 })
    in
    let on_data port = function
      | Routing.Superstep.Offer { key; _ } ->
        incr seen;
        here := key = 1;
        if split then begin
          pass (1 - port) (key / 2);
          pass port ((key - 1) / 2)
        end
        else pass (1 - port) (key - 1)
      | _ -> ()
    in
    {
      Routing.Superstep.seed = ignore;
      seg_start =
        (fun () ->
          if me = 0 then
            for _ = 1 to burst do
              pass port0 budget
            done);
      snapshot = ignore;
      on_data;
      finalize_seg = ignore;
      finalize_phase =
        (fun () ->
          hops.(me) <- !seen;
          landed.(me) <- !here);
      words = (fun () -> 1);
    }
  in
  (Routing.Superstep.run ~plan ~vertex ~max_rounds:100_000 g, hops, landed)

let token_relay ?split ~n ~budget ~port0 () =
  let r, hops, landed = relay_run ?split ~n ~budget ~port0 () in
  if r.Routing.Superstep.failures <> [] then
    Alcotest.failf "ring n=%d: %s" n
      (String.concat " | "
         (List.map Routing.Protocol.failure_to_string r.Routing.Superstep.failures));
  match (r.Routing.Superstep.phases, r.Routing.Superstep.traffic) with
  | [ _; p ], [ _; (_, t) ] ->
    (Array.fold_left ( + ) 0 hops, landed, t, p.Routing.Cost.rounds)
  | _ -> Alcotest.failf "ring n=%d: expected the setup and one phase" n

(* One token for three laps, longer than a detection wave (about n + 1
   rounds) takes, or for three laps and part of a fourth: the segment
   closes only after the token has landed, with every hop harvested, and
   at the first detection wave that can prove it: two consecutive waves
   with the same (sent, received) counts at every vertex. The wave count
   and the span are pinned per ring; closing after one wave whose balance
   is 0, or on sent counts alone, closes some of these earlier. *)
let test_continuous_token () =
  List.iter
    (fun (n, port0, budget, at, waves, rounds) ->
      let what = Printf.sprintf "ring n=%d port %d budget %d" n port0 budget in
      let hops, landed, t, span = token_relay ~n ~budget ~port0 () in
      Alcotest.(check int) (what ^ ": hops harvested") budget hops;
      Alcotest.(check (list bool))
        (what ^ ": where the token landed")
        (List.init n (fun v -> v = at))
        (Array.to_list landed);
      Alcotest.(check int) (what ^ ": data messages") budget t.Routing.Superstep.data;
      Alcotest.(check int) (what ^ ": supersteps") 0 t.Routing.Superstep.supersteps;
      Alcotest.(check (pair int int))
        (what ^ ": detection waves, rounds")
        (waves, rounds)
        (t.Routing.Superstep.waves, span))
    [
      (8, 0, 24, 0, 4, 36);
      (8, 1, 24, 0, 4, 36);
      (9, 0, 27, 0, 5, 45);
      (9, 1, 27, 0, 5, 45);
      (16, 0, 48, 0, 4, 68);
      (16, 1, 48, 0, 4, 68);
      (17, 0, 51, 0, 5, 85);
      (17, 1, 51, 0, 5, 85);
      (8, 0, 26, 2, 5, 45);
      (9, 1, 32, 4, 6, 54);
      (16, 0, 50, 2, 5, 85);
      (17, 0, 60, 9, 6, 102);
    ];
  (* the budget split at every hop instead: receipts at many vertices at
     once, each spending one hop and fanning the rest out both ways *)
  List.iter
    (fun n ->
      List.iter
        (fun budget ->
          let what = Printf.sprintf "ring n=%d split budget %d" n budget in
          let hops, _, t, _ = token_relay ~split:true ~n ~budget ~port0:0 () in
          Alcotest.(check int) (what ^ ": receipts harvested") budget hops;
          Alcotest.(check int) (what ^ ": data messages") budget
            t.Routing.Superstep.data)
        [ 7; 20; 33; 64; 100; 257 ])
    [ 5; 8; 11; 16; 23; 32 ]

(* Vertex 0 queues 1 500 one-hop tokens on one port of a 12-vertex ring
   when the segment opens. Its neighbour hears two a round; every other
   vertex hears nothing until that queue has drained and the root's
   Advance comes back, far longer than the watchdog interval of
   4n + 64 = 112 rounds, so without a bound on the queue every vertex
   would report Stalled while data still flows. The queue passes the
   longest one the interval covers, 2 (interval - 2n), and enqueue stops
   vertex 0 with a typed failure naming the port and the length. *)
let test_queue_overflow () =
  let r, _, _ = relay_run ~n:12 ~budget:1 ~burst:1500 ~port0:0 () in
  match r.Routing.Superstep.failures with
  | Routing.Protocol.Queue_overflow { vertex = 0; port = 0; length; limit } :: _ ->
    Alcotest.(check int) "limit" (2 * ((4 * 12) + 64 - (2 * 12))) limit;
    Alcotest.(check int) "length" (limit + 1) length
  | fs ->
    Alcotest.failf "expected a queue overflow at v0 port 0, got: %s"
      (String.concat " | " (List.map Routing.Protocol.failure_to_string fs))

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

(* ---------- memory: cluster trees and router linear in their members ---------- *)

(* A tree and a router hold O(1) words per member, whatever n is: the
   clusters the exact stage harvests and the router Scheme.build assembles
   on the same graph stay within a bound linear in Σ|C| + n, where Σ|C|
   counts cluster memberships. The constants are the measured words per
   member (17.9 and 13.4) with 2x slack; a tree sized by n (about 7n words
   each, so quadratic over the n clusters) is far past them. *)
let test_memory_linear () =
  let k = 4 and b = 24 in
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 50)
      ~weights:(Gen.uniform_weights 1.0 4.0) ~n:1_500 ~avg_deg:4.0 ()
  in
  let n = Graph.n g in
  let o = Routing.Dist_scheme.run ~rng:(rng 51) ~k ~b ~max_rounds:500_000 g in
  if o.Routing.Dist_scheme.failures <> [] then
    Alcotest.failf "protocol failures: %s"
      (String.concat " | "
         (List.map Routing.Dist_scheme.failure_to_string
            o.Routing.Dist_scheme.failures));
  let clusters = o.Routing.Dist_scheme.exact.Routing.Scheme.Exact_stage.clusters in
  let members =
    List.fold_left (fun acc c -> acc + List.length c.Tz.Cluster.dist) 0 clusters
  in
  let words = Obj.reachable_words (Obj.repr clusters) in
  if words > 36 * (members + n) then
    Alcotest.failf "clusters: %d words for %d members on %d vertices (bound 36 per)"
      words members n;
  let scheme =
    Routing.Scheme.build ~rng:(rng 51) ~k
      ~params:{ Routing.Scheme.Params.default with b = Some b }
      g
  in
  let router = Routing.Scheme.router scheme in
  let memberships = ref 0 in
  for v = 0 to n - 1 do
    memberships := Tz.Graph_routing.fold_tables router v (fun _ _ c -> c + 1) !memberships
  done;
  let rwords = Obj.reachable_words (Obj.repr router) in
  if rwords > 27 * (!memberships + n) then
    Alcotest.failf "router: %d words for %d memberships on %d vertices (bound 27 per)"
      rwords !memberships n

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
          Alcotest.test_case "continuous segment: token relay" `Quick
            test_continuous_token;
          Alcotest.test_case "token relay: queue past the watchdog's cover" `Quick
            test_queue_overflow;
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
      ( "memory",
        [
          Alcotest.test_case "cluster trees and router linear in members" `Quick
            test_memory_linear;
        ] );
    ]
