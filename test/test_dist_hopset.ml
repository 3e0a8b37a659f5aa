(* Tests for the distributed upper stage (hopset construction and
   [beta]-iteration approximate Bellman-Ford on the CONGEST simulator): the
   differential gate against the centralized computation, edge-for-edge
   hopset identity, typed fault outcomes, and the full-pipeline splice. *)

open Dgraph

let rng seed = Random.State.make [| seed; 91 |]

let concat_take k l =
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  String.concat " | " (take k l)

let fail_failures what fs =
  Alcotest.failf "%s failures: %s" what
    (String.concat " | " (List.map Routing.Dist_hopset.failure_to_string fs))

(* Run the whole pipeline on one rng state and require both gates to pass;
   returns the upper-stage outcome. *)
let run_gate ?params ?reliable ~seed ~k g =
  let p =
    Routing.Pipeline.run ~rng:(rng seed) ~k ?params ?reliable
      ~max_rounds:500_000 g
  in
  if p.Routing.Pipeline.failures <> [] then
    fail_failures "pipeline" p.Routing.Pipeline.failures;
  List.iter
    (fun (stage, verdict) ->
      match verdict with
      | Routing.Pipeline.Identical -> ()
      | Routing.Pipeline.Diverged errs ->
        Alcotest.failf "%s stage: %d divergences vs centralized: %s" stage
          (List.length errs) (concat_take 5 errs)
      | Routing.Pipeline.Skipped -> Alcotest.failf "%s stage gate skipped" stage)
    [
      ("exact", p.Routing.Pipeline.exact_gate);
      ("upper", p.Routing.Pipeline.upper_gate);
    ];
  match p.Routing.Pipeline.upper with
  | Some ({ Routing.Dist_hopset.upper = Some _; _ } as o) -> o
  | _ -> Alcotest.fail "clean run produced no upper stage"

(* ---------- the differential gate across topologies ---------- *)

let test_gate_grid () =
  let g = Gen.grid ~rng:(rng 1) ~rows:7 ~cols:7 () in
  let o = run_gate ~seed:11 ~k:3 g in
  (* run A: setup + (lambda-1) level phases + lambda bunch phases;
     run B: setup + (k-1-ih) pivot phases + (k-ih) cluster phases *)
  let lambda = o.Routing.Dist_hopset.lambda in
  let k = o.Routing.Dist_hopset.k and ih = o.Routing.Dist_hopset.ih in
  let expect = (1 + (lambda - 1) + lambda) + (1 + (k - 1 - ih) + (k - ih)) in
  Alcotest.(check int) "phase count" expect
    (List.length o.Routing.Dist_hopset.phase_rounds);
  List.iter
    (fun (name, rounds) ->
      if rounds <= 0 then Alcotest.failf "phase %S measured %d rounds" name rounds)
    o.Routing.Dist_hopset.phase_rounds

let test_gate_er_k2 () =
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 2)
      ~weights:(Gen.uniform_weights 1.0 4.0) ~n:60 ~avg_deg:4.0 ()
  in
  ignore (run_gate ~seed:12 ~k:2 g)

let test_gate_er_k3 () =
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 3)
      ~weights:(Gen.uniform_weights 1.0 4.0) ~n:60 ~avg_deg:4.0 ()
  in
  ignore (run_gate ~seed:13 ~k:3 g)

let test_gate_torus () =
  let g = Gen.torus ~rng:(rng 4) ~rows:6 ~cols:6 () in
  ignore (run_gate ~seed:14 ~k:2 g)

let test_gate_small_b () =
  (* forcing b below the hop diameter makes the hopset do real work: waves
     are cut at b hops, so relays and path recovery carry real traffic *)
  let g = Gen.grid ~rng:(rng 5) ~rows:6 ~cols:6 () in
  let params = { Routing.Scheme.Params.default with b = Some 3 } in
  ignore (run_gate ~seed:15 ~k:3 ~params g)

let test_gate_lambda2 () =
  let g = Gen.grid ~rng:(rng 6) ~rows:6 ~cols:6 () in
  let params = { Routing.Scheme.Params.default with lambda = 2 } in
  ignore (run_gate ~seed:16 ~k:3 ~params g)

let test_gate_sampled_agrees_with_exact () =
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 30)
      ~weights:(Gen.uniform_weights 1.0 4.0) ~n:80 ~avg_deg:4.0 ()
  in
  let r = rng 31 in
  let ds = Routing.Dist_scheme.run ~rng:r ~k:3 ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let rgate = Random.State.copy r in
  let o = Routing.Dist_hopset.run ~rng:r ~max_rounds:500_000 g ds in
  if o.Routing.Dist_hopset.failures <> [] then
    fail_failures "upper stage" o.Routing.Dist_hopset.failures;
  List.iter
    (fun sample ->
      let mode = Routing.Dist_scheme.Sampled { sample; seed = 0x5eed } in
      let errs =
        Routing.Dist_hopset.check_against_centralized
          ~rng:(Random.State.copy rgate) ~mode g o
      in
      if errs <> [] then
        Alcotest.failf "%s: %d divergences: %s"
          (Routing.Dist_scheme.gate_mode_name mode)
          (List.length errs) (concat_take 5 errs))
    [ 1; 8; 1000 (* > population: degenerates to exhaustive *) ]

(* ---------- hopset identity: distributed = centralized, edge for edge ----- *)

let prop_hopset_identical =
  QCheck.Test.make ~name:"distributed hopset = tz_hopset edge-for-edge"
    ~count:6
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let g =
        Gen.connected_erdos_renyi
          ~rng:(Random.State.make [| seed; 7 |])
          ~weights:(Gen.uniform_weights 1.0 4.0) ~n:40 ~avg_deg:3.5 ()
      in
      let r = rng seed in
      let ds = Routing.Dist_scheme.run ~rng:r ~k:3 ~max_rounds:500_000 g in
      QCheck.assume (ds.Routing.Dist_scheme.failures = []);
      let rc = Random.State.copy r in
      let o = Routing.Dist_hopset.run ~rng:r ~max_rounds:500_000 g ds in
      QCheck.assume (o.Routing.Dist_hopset.failures = []);
      let dist_hs =
        match o.Routing.Dist_hopset.hopset with
        | Some h -> h
        | None -> QCheck.Test.fail_report "no hopset harvested"
      in
      let vg =
        Hopsets.Virtual_graph.make g ~members:o.Routing.Dist_hopset.members
          ~b:o.Routing.Dist_hopset.b
      in
      let cent_hs =
        Hopsets.Construct.tz_hopset ~rng:rc
          ~lambda:o.Routing.Dist_hopset.lambda vg
      in
      let de = Hopsets.Hopset.edges dist_hs and ce = Hopsets.Hopset.edges cent_hs in
      if Array.length de <> Array.length ce then
        QCheck.Test.fail_reportf "size: distributed %d, centralized %d"
          (Array.length de) (Array.length ce);
      Array.iteri
        (fun i (c : Hopsets.Hopset.edge) ->
          let d = de.(i) in
          if
            c.Hopsets.Hopset.x <> d.Hopsets.Hopset.x
            || c.Hopsets.Hopset.y <> d.Hopsets.Hopset.y
            || c.Hopsets.Hopset.w <> d.Hopsets.Hopset.w
            || c.Hopsets.Hopset.path <> d.Hopsets.Hopset.path
          then
            QCheck.Test.fail_reportf "edge %d: {%d,%d} vs {%d,%d}" i
              d.Hopsets.Hopset.x d.Hopsets.Hopset.y c.Hopsets.Hopset.x
              c.Hopsets.Hopset.y)
        ce;
      true)

(* ---------- faults: typed outcome, no upper stage ---------- *)

let test_crash_typed_failure () =
  let g = Gen.grid ~rng:(rng 40) ~rows:4 ~cols:4 () in
  let r = rng 41 in
  let ds = Routing.Dist_scheme.run ~rng:r ~k:2 ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let faults =
    Congest.Fault.make { Congest.Fault.none with crashes = [ (5, 40) ] }
  in
  let o = Routing.Dist_hopset.run ~rng:r ~faults ~max_rounds:100_000 g ds in
  (match o.Routing.Dist_hopset.failures with
  | [] -> Alcotest.fail "crash-stop run reported no failures"
  | fs ->
    let typed =
      List.exists
        (function
          | Routing.Dist_hopset.Stalled _ | Routing.Dist_hopset.Link_lost _
          | Routing.Dist_hopset.Setup_timeout _ ->
            true
          | Routing.Dist_hopset.Harvest _ | Routing.Dist_hopset.Transport _ ->
            false)
        fs
    in
    if not typed then
      Alcotest.failf "no watchdog/link failure among: %s"
        (String.concat " | "
           (List.map Routing.Dist_hopset.failure_to_string fs)));
  if o.Routing.Dist_hopset.upper <> None then
    Alcotest.fail "failed run still produced an upper stage"

let test_reliable_transport_gate () =
  (* the same protocol body over Congest.Reliable, fault-free: both gates
     must hold identically *)
  let g = Gen.grid ~rng:(rng 42) ~rows:5 ~cols:5 () in
  ignore (run_gate ~reliable:true ~seed:43 ~k:3 g)

(* ---------- splicing into the full scheme ---------- *)

let test_build_scheme_matches_centralized_upper () =
  (* both schemes share the SAME distributed exact stage; one computes the
     upper half centrally, the other splices the distributed upper stage.
     When the gate holds, every routing structure is bit-identical, so
     routes must agree path-for-path. *)
  let g = Gen.grid ~rng:(rng 50) ~rows:6 ~cols:6 () in
  let k = 3 and seed = 51 in
  let r = rng seed in
  let ds = Routing.Dist_scheme.run ~rng:r ~k ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let rc = Random.State.copy r in
  let o = Routing.Dist_hopset.run ~rng:r ~max_rounds:500_000 g ds in
  if o.Routing.Dist_hopset.failures <> [] then
    fail_failures "upper stage" o.Routing.Dist_hopset.failures;
  let s_dist = Routing.Dist_hopset.build_scheme ~rng:r g ds o in
  let s_cent = Routing.Dist_scheme.build_scheme ~rng:rc g ds in
  Alcotest.(check int) "k" (Routing.Scheme.k s_cent) (Routing.Scheme.k s_dist);
  Alcotest.(check int) "b" (Routing.Scheme.b_bound s_cent)
    (Routing.Scheme.b_bound s_dist);
  Alcotest.(check int) "hopset size" (Routing.Scheme.hopset_size s_cent)
    (Routing.Scheme.hopset_size s_dist);
  Alcotest.(check int) "virtual size" (Routing.Scheme.virtual_size s_cent)
    (Routing.Scheme.virtual_size s_dist);
  let n = Graph.n g in
  let r' = rng 52 in
  for _ = 1 to 300 do
    let src = Random.State.int r' n and dst = Random.State.int r' n in
    if src <> dst then
      let p1 = Routing.Scheme.route s_cent ~src ~dst in
      let p2 = Routing.Scheme.route s_dist ~src ~dst in
      match (p1, p2) with
      | Ok p1, Ok p2 ->
        if p1 <> p2 then
          Alcotest.failf "route %d -> %d differs (lengths %d vs %d)" src dst
            (List.length p1) (List.length p2)
      | Error e, _ | _, Error e ->
        Alcotest.failf "route %d -> %d failed: %a" src dst Tz.Routing_error.pp e
  done;
  (* the spliced scheme's cost must carry the measured spans: every hopset /
     approx phase name from the protocol appears, none of the charged-only
     hopset formula names *)
  let phases = Routing.Cost.phases (Routing.Scheme.cost s_dist) in
  let has name =
    List.exists
      (fun (ph : Routing.Cost.phase) -> ph.Routing.Cost.name = name)
      phases
  in
  if has "hopset" then
    Alcotest.fail "spliced scheme still charges the centralized hopset formula";
  if not (has "hopset levels 1") then
    Alcotest.fail "spliced scheme lost the measured hopset level spans";
  if not (has "approx setup (BFS)") then
    Alcotest.fail "spliced scheme lost the measured approx setup span"

(* A failed upper stage is never spliced: cut at 200 rounds after a clean
   exact stage, the run has no record, and build_scheme must not fall back
   to computing the upper half centrally. *)
let test_build_scheme_rejects_failed_stage () =
  let g = Gen.grid ~rng:(Random.State.make [| 3 |]) ~rows:6 ~cols:6 () in
  let r = Random.State.make [| 71 |] in
  let ds = Routing.Dist_scheme.run ~rng:r ~k:3 ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let o = Routing.Dist_hopset.run ~rng:r ~max_rounds:200 g ds in
  if o.Routing.Dist_hopset.upper <> None then
    Alcotest.fail "a run cut at 200 rounds produced an upper stage";
  match o.Routing.Dist_hopset.failures with
  | [ f ] ->
    Alcotest.check_raises "build_scheme"
      (Invalid_argument
         ("Dist_hopset.build_scheme: upper stage failed: "
         ^ Routing.Dist_hopset.failure_to_string f))
      (fun () -> ignore (Routing.Dist_hopset.build_scheme ~rng:r g ds o))
  | fs -> fail_failures "expected one upper-stage failure, got" fs

let test_pipeline_end_to_end () =
  let g = Gen.torus ~rng:(rng 60) ~rows:5 ~cols:5 () in
  let p = Routing.Pipeline.run ~rng:(rng 61) ~k:3 ~max_rounds:500_000 g in
  if p.Routing.Pipeline.failures <> [] then
    fail_failures "pipeline" p.Routing.Pipeline.failures;
  let s =
    match p.Routing.Pipeline.scheme with
    | Some s -> s
    | None -> Alcotest.fail "no scheme"
  in
  let n = Graph.n g in
  let bound =
    float_of_int ((4 * 3) - 3) *. (1.0 +. (8.0 *. Routing.Scheme.epsilon s))
  in
  let r = rng 62 in
  for _ = 1 to 200 do
    let src = Random.State.int r n and dst = Random.State.int r n in
    if src <> dst then
      let d = (Sssp.dijkstra g ~src).Sssp.dist.(dst) in
      match Routing.Scheme.route_weight g s ~src ~dst with
      | Ok w ->
        if w > bound *. d then
          Alcotest.failf "stretch %d -> %d: %.3f > bound %.3f" src dst (w /. d)
            bound
      | Error e ->
        Alcotest.failf "route %d -> %d failed: %a" src dst Tz.Routing_error.pp e
  done

(* ---------- per-stage gate verdicts ---------- *)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Routing.Pipeline.verdict_name v))
    ( = )

let test_stage_verdicts () =
  (* the pinned 6x6 grid below: the exact stage finishes in 433 rounds, so a
     600-round limit stops only the upper stage. Its gate must read
     skipped while the exact stage's still reads identical. *)
  let g = Gen.grid ~rng:(rng 70) ~rows:6 ~cols:6 () in
  let run ?check ?max_rounds () =
    Routing.Pipeline.run ~rng:(rng 71) ~k:3 ?check ?max_rounds g
  in
  let p = run ~max_rounds:600 () in
  Alcotest.(check int) "exact rounds" 433
    p.Routing.Pipeline.exact.Routing.Dist_scheme.report.Congest.Metrics.rounds;
  if p.Routing.Pipeline.exact.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage"
      p.Routing.Pipeline.exact.Routing.Dist_scheme.failures;
  if
    not
      (List.mem
         (Routing.Dist_hopset.Transport "round limit exceeded")
         p.Routing.Pipeline.failures)
  then
    Alcotest.failf "upper stage did not stop on the round limit: %s"
      (concat_take 3
         (List.map Routing.Dist_hopset.failure_to_string
            p.Routing.Pipeline.failures));
  Alcotest.check verdict "exact gate, upper stalled" Routing.Pipeline.Identical
    p.Routing.Pipeline.exact_gate;
  Alcotest.check verdict "upper gate, upper stalled" Routing.Pipeline.Skipped
    p.Routing.Pipeline.upper_gate;
  if p.Routing.Pipeline.scheme <> None then
    Alcotest.fail "stalled upper stage still spliced a scheme";
  let p = run () in
  Alcotest.check verdict "exact gate, clean" Routing.Pipeline.Identical
    p.Routing.Pipeline.exact_gate;
  Alcotest.check verdict "upper gate, clean" Routing.Pipeline.Identical
    p.Routing.Pipeline.upper_gate;
  let p = run ~check:false () in
  Alcotest.check verdict "exact gate, check off" Routing.Pipeline.Skipped
    p.Routing.Pipeline.exact_gate;
  Alcotest.check verdict "upper gate, check off" Routing.Pipeline.Skipped
    p.Routing.Pipeline.upper_gate

(* ---------- engine pin: exact counts on one fixed instance ---------- *)

let check_pin what (o : Routing.Dist_hopset.outcome) ~rounds ~messages ~peak
    ~phases =
  let m = o.Routing.Dist_hopset.report in
  if o.Routing.Dist_hopset.failures <> [] then
    fail_failures what o.Routing.Dist_hopset.failures;
  Alcotest.(check int) (what ^ " rounds") rounds m.Congest.Metrics.rounds;
  Alcotest.(check int) (what ^ " messages") messages m.Congest.Metrics.messages;
  Alcotest.(check int) (what ^ " peak memory") peak
    (Congest.Metrics.peak_memory_max m);
  Alcotest.(check (list (pair string int)))
    (what ^ " phase rounds") phases o.Routing.Dist_hopset.phase_rounds

let test_engine_pin () =
  (* both upper-stage runs on a 6x6 grid, k = 3, over the raw transport and
     over Reliable under a fixed drop/duplicate plan *)
  let g = Gen.grid ~rng:(rng 70) ~rows:6 ~cols:6 () in
  let r = rng 71 in
  let ds = Routing.Dist_scheme.run ~rng:r ~k:3 ~max_rounds:500_000 g in
  if ds.Routing.Dist_scheme.failures <> [] then
    fail_failures "exact stage" ds.Routing.Dist_scheme.failures;
  let faults =
    Congest.Fault.make
      { Congest.Fault.none with seed = 5; drop = 0.1; duplicate = 0.05 }
  in
  let phases =
    [
      ("hopset setup (BFS)", 23);
      ("hopset levels 1", 147);
      ("hopset levels 2", 189);
      ("hopset bunches level 0", 126);
      ("hopset bunches level 1", 168);
      ("hopset bunches level 2", 210);
      ("approx setup (BFS)", 23);
      ("approx pivots level 2", 1759);
      ("approx clusters level 1", 1897);
      ("approx clusters level 2", 2551);
    ]
  in
  let raw =
    Routing.Dist_hopset.run ~rng:(Random.State.copy r) ~max_rounds:500_000 g ds
  in
  check_pin "raw" raw ~rounds:7113 ~messages:45039 ~peak:620 ~phases;
  let rel =
    Routing.Dist_hopset.run ~rng:(Random.State.copy r) ~faults
      ~max_rounds:500_000 g ds
  in
  check_pin "reliable" rel ~rounds:51893 ~messages:1844565 ~peak:660 ~phases

(* Each phase's (name, rounds, peak words) on the pin instance, for the
   exact stage and both upper-stage runs, over the raw transport and over
   Reliable. The run-wide peaks above are set by one phase each (the
   virtual wave, run B's top cluster phase), so only these catch a slip in
   another phase's declared words. Peaks are the stage's own words, so
   both transports read the same. *)
let test_phase_pin () =
  let g = Gen.grid ~rng:(rng 70) ~rows:6 ~cols:6 () in
  let faults =
    Congest.Fault.make
      { Congest.Fault.none with seed = 5; drop = 0.1; duplicate = 0.05 }
  in
  let rows (c : Routing.Cost.t) =
    List.map
      (fun (p : Routing.Cost.phase) ->
        Routing.Cost.(p.name, p.rounds, p.peak_memory))
      (Routing.Cost.phases c)
  in
  let check what expected c =
    Alcotest.(check (list (triple string int int))) what expected (rows c)
  in
  let exact_phases =
    [
      ("hierarchy sampling + BFS setup", 23, 20);
      ("exact pivots level 1", 84, 20);
      ("exact clusters level 0", 63, 50);
      ("virtual edges (B-bounded wave)", 253, 98);
    ]
  in
  let upper_phases =
    [
      ("hopset setup (BFS)", 23, 20);
      ("hopset levels 1", 147, 20);
      ("hopset levels 2", 189, 20);
      ("hopset bunches level 0", 126, 76);
      ("hopset bunches level 1", 168, 36);
      ("hopset bunches level 2", 210, 36);
      ("approx setup (BFS)", 23, 160);
      ("approx pivots level 2", 1759, 244);
      ("approx clusters level 1", 1897, 369);
      ("approx clusters level 2", 2551, 620);
    ]
  in
  let exact what (ds : Routing.Dist_scheme.outcome) =
    if ds.Routing.Dist_scheme.failures <> [] then
      fail_failures what ds.Routing.Dist_scheme.failures;
    check (what ^ " phases") exact_phases
      ds.Routing.Dist_scheme.exact.Routing.Scheme.Exact_stage.phases
  in
  let upper what (o : Routing.Dist_hopset.outcome) =
    match o.Routing.Dist_hopset.upper with
    | Some u -> check (what ^ " phases") upper_phases u.Routing.Scheme.Upper_stage.phases
    | None -> fail_failures what o.Routing.Dist_hopset.failures
  in
  exact "exact raw"
    (Routing.Dist_scheme.run ~rng:(rng 71) ~k:3 ~max_rounds:500_000 g);
  exact "exact reliable"
    (Routing.Dist_scheme.run ~rng:(rng 71) ~k:3 ~faults ~max_rounds:500_000 g);
  let r = rng 71 in
  let ds = Routing.Dist_scheme.run ~rng:r ~k:3 ~max_rounds:500_000 g in
  upper "upper raw"
    (Routing.Dist_hopset.run ~rng:(Random.State.copy r) ~max_rounds:500_000 g ds);
  upper "upper reliable"
    (Routing.Dist_hopset.run ~rng:(Random.State.copy r) ~faults
       ~max_rounds:500_000 g ds)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "dist_hopset"
    [
      ( "gate",
        [
          Alcotest.test_case "grid k=3 + phase accounting" `Quick test_gate_grid;
          Alcotest.test_case "erdos-renyi k=2" `Quick test_gate_er_k2;
          Alcotest.test_case "erdos-renyi k=3" `Quick test_gate_er_k3;
          Alcotest.test_case "torus k=2" `Quick test_gate_torus;
          Alcotest.test_case "small b (hopset under load)" `Quick
            test_gate_small_b;
          Alcotest.test_case "lambda=2" `Quick test_gate_lambda2;
          Alcotest.test_case "sampled gate agrees with exact" `Quick
            test_gate_sampled_agrees_with_exact;
        ] );
      qsuite "identity" [ prop_hopset_identical ];
      ( "faults",
        [
          Alcotest.test_case "crash-stop -> typed failure" `Quick
            test_crash_typed_failure;
          Alcotest.test_case "gate over Reliable" `Quick
            test_reliable_transport_gate;
        ] );
      ( "splice",
        [
          Alcotest.test_case "upper splice = centralized upper" `Quick
            test_build_scheme_matches_centralized_upper;
          Alcotest.test_case "Pipeline.run end-to-end" `Quick
            test_pipeline_end_to_end;
          Alcotest.test_case "build_scheme rejects a failed stage" `Quick
            test_build_scheme_rejects_failed_stage;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "per-stage gate verdicts (6x6 grid, k=3)" `Quick
            test_stage_verdicts;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pinned counts (6x6 grid, k=3)" `Quick test_engine_pin;
          Alcotest.test_case "per-phase pins (6x6 grid, k=3)" `Quick test_phase_pin;
        ] );
    ]
