(* Fault injection and the reliable transport: determinism of fault plans,
   counter accounting, exactly-once in-order delivery under drops, and the
   headline property — the distributed tree-routing protocol over the
   reliable layer produces a scheme bit-identical to its fault-free run. *)

open Dgraph

let rng () = Random.State.make [| 42 |]

module CS = Congest.Sim

module Imsg = struct
  type t = int

  let words _ = 1
  let slots = 1
  let encode s b v = Congest.Slab.set s b v
  let decode s b = Congest.Slab.get s b
end

module S = Congest.Sim.Make (Imsg)
module R = Congest.Reliable.Make (Imsg)

(* an inbox view as [(port, message)] pairs, decoded before the next
   blocking call expires it *)
let to_list ib = List.init (S.count ib) (fun i -> (S.port ib i, S.msg ib i))

(* A quick transport config so dead-link detection happens in tens, not
   thousands, of rounds. Only safe when faults are deterministic (crashes,
   link cuts): under random drops, 4 transmissions of a frame can all be lost
   often enough to fake a dead link — random-drop tests use the default
   config, whose retry budget makes false deaths vanishingly unlikely. *)
let fast = { Congest.Reliable.ack_timeout = 2; backoff = 2; max_retries = 4 }

(* every vertex beacons on all ports for [rounds] rounds — a fixed send
   pattern, so message counts are identical across runs no matter what the
   network does to the payloads *)
let beacon ~rounds (ctx : S.ctx) =
  let deg = Array.length ctx.neighbors in
  for r = 1 to rounds do
    for p = 0 to deg - 1 do
      S.send p r
    done;
    ignore (S.sync ())
  done;
  ignore (S.sleep_until (rounds + 8))

let run_beacon spec =
  let g = Gen.grid ~rng:(rng ()) ~rows:4 ~cols:4 () in
  S.run ~faults:(Congest.Fault.make spec) g ~node:(beacon ~rounds:20)

(* --- same spec => identical run, counter for counter --- *)

let test_fault_determinism () =
  let spec =
    { Congest.Fault.none with seed = 7; drop = 0.2; duplicate = 0.1; delay = 0.15;
      max_delay = 3 }
  in
  let a = run_beacon spec and b = run_beacon spec in
  let m (r : CS.report) =
    let m = r.CS.metrics in
    Congest.Metrics.
      (m.rounds, m.messages, m.message_words, m.dropped, m.duplicated, m.delayed,
       m.retransmitted)
  in
  Alcotest.(check bool) "identical metrics" true (m a = m b);
  let c = run_beacon { spec with seed = 8 } in
  Alcotest.(check bool) "different seed, different faults" true (m a <> m c)

(* --- each fault class is counted where expected --- *)

let test_fault_counters () =
  let r0 = run_beacon Congest.Fault.none in
  let m0 = r0.CS.metrics in
  Alcotest.(check int) "clean run drops nothing" 0
    Congest.Metrics.(m0.dropped + m0.duplicated + m0.delayed);
  let spec =
    { Congest.Fault.none with seed = 3; drop = 0.3; duplicate = 0.2; delay = 0.2;
      max_delay = 4 }
  in
  let r = run_beacon spec in
  let m = r.CS.metrics in
  Alcotest.(check bool) "drops counted" true (m.Congest.Metrics.dropped > 0);
  Alcotest.(check bool) "duplicates counted" true (m.Congest.Metrics.duplicated > 0);
  Alcotest.(check bool) "delays counted" true (m.Congest.Metrics.delayed > 0);
  Alcotest.(check int) "same sends as the clean run" m0.Congest.Metrics.messages
    m.Congest.Metrics.messages

(* --- permanent link failure: messages sent from the failure round on are
   gone, earlier ones arrive --- *)

let test_link_failure () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let got = ref [] in
  let node (ctx : S.ctx) =
    if ctx.me = 0 then
      for r = 0 to 9 do
        S.send 0 r;
        ignore (S.sync ())
      done
    else begin
      let inbox = to_list (S.wait_until 20) in
      let rec drain acc inbox =
        let acc = acc @ List.map snd inbox in
        if S.round () >= 20 then acc else drain acc (to_list (S.wait_until 20))
      in
      got := drain [] inbox
    end
  in
  let faults =
    Congest.Fault.make
      { Congest.Fault.none with link_failures = [ (0, 1, 5) ] }
  in
  let report = S.run ~faults g ~node in
  (match report.CS.outcome with
  | CS.Completed -> ()
  | oc -> Alcotest.failf "unexpected outcome: %a" CS.pp_outcome oc);
  Alcotest.(check (list int)) "only pre-failure sends arrive" [ 0; 1; 2; 3; 4 ] !got;
  Alcotest.(check int) "losses counted" 5 report.CS.metrics.Congest.Metrics.dropped

(* --- verdicts: the allocation-free hash against the boxed original --- *)

(* The plain boxed implementation of [Fault.link_down] and
   [Fault.classify] the allocation-free one replaced, kept verbatim as the
   reference: every verdict must match it bit for bit. *)
module Oracle = struct
  open Congest.Fault

  let edge_key u v = (u lsl 31) lor v

  let make spec =
    let down = Hashtbl.create 16 in
    let note_window u v from until =
      let note a b =
        let prev =
          match Hashtbl.find_opt down (edge_key a b) with
          | Some ws -> ws
          | None -> []
        in
        Hashtbl.replace down (edge_key a b) ((from, until) :: prev)
      in
      note u v;
      note v u
    in
    List.iter (fun (u, v, r) -> note_window u v r max_int) spec.link_failures;
    List.iter
      (fun (u, v, from, until) -> note_window u v from until)
      spec.link_flaps;
    (spec, down)

  let link_down (_, down) ~round u v =
    match Hashtbl.find_opt down (edge_key u v) with
    | Some windows ->
      List.exists (fun (from, until) -> round >= from && round < until) windows
    | None -> false

  let mix64 (z : int64) =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let hash_coord ~seed ~round ~src ~dst ~k ~salt =
    let golden = 0x9e3779b97f4a7c15L in
    let step acc x = mix64 (Int64.add (Int64.logxor acc (Int64.of_int x)) golden) in
    let acc = mix64 (Int64.add (Int64.of_int seed) golden) in
    let acc = step acc round in
    let acc = step acc src in
    let acc = step acc dst in
    let acc = step acc k in
    step acc salt

  let u01 ~seed ~round ~src ~dst ~k ~salt =
    let h = hash_coord ~seed ~round ~src ~dst ~k ~salt in
    Int64.to_float (Int64.shift_right_logical h 11) *. 0x1.0p-53

  let classify ((s, _) as t) ~round ~src ~dst ~k =
    if link_down t ~round src dst then Drop
    else begin
      let seed = s.seed in
      let hit salt p = p > 0.0 && u01 ~seed ~round ~src ~dst ~k ~salt < p in
      if hit 1 s.drop then Drop
      else if hit 2 s.duplicate then Duplicate
      else if hit 3 s.delay && s.max_delay > 0 then begin
        let h = hash_coord ~seed ~round ~src ~dst ~k ~salt:4 in
        let amount =
          Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int s.max_delay))
        in
        Delay (1 + amount)
      end
      else Deliver
    end
end

(* A random plan over vertices 0..7 (so its link windows are hit often)
   with a batch of message coordinates to classify under it. A
   probability is 0 a quarter of the time, exercising the skipped draws. *)
let gen_plan_and_coords =
  let open QCheck.Gen in
  let prob = frequency [ (1, return 0.0); (3, float_bound_inclusive 1.0) ] in
  let vertex = int_bound 7 in
  let failure = triple vertex vertex (int_bound 300) in
  let flap =
    map
      (fun ((u, v), (from, len)) -> (u, v, from, from + 1 + len))
      (pair (pair vertex vertex) (pair (int_bound 300) (int_bound 100)))
  in
  let spec =
    map
      (fun ((seed, drop, duplicate, delay), (max_delay, link_failures, link_flaps)) ->
        {
          Congest.Fault.seed;
          drop;
          duplicate;
          delay;
          max_delay;
          link_failures;
          link_flaps;
          crashes = [];
        })
      (pair
         (quad int prob prob prob)
         (triple (int_bound 6) (list_size (int_bound 2) failure)
            (list_size (int_bound 3) flap)))
  in
  let coord = quad (int_bound 400) (pair vertex vertex) (int_bound 3) int in
  pair spec (list_size (return 200) coord)

let show_verdict = function
  | Congest.Fault.Deliver -> "deliver"
  | Congest.Fault.Drop -> "drop"
  | Congest.Fault.Duplicate -> "duplicate"
  | Congest.Fault.Delay d -> Printf.sprintf "delay %d" d

let prop_verdicts_match_oracle =
  QCheck.Test.make ~name:"classify = boxed reference, verdict for verdict"
    ~count:300
    (QCheck.make
       ~print:(fun (s, _) ->
         Printf.sprintf "seed=%d drop=%h dup=%h delay=%h max_delay=%d"
           s.Congest.Fault.seed s.Congest.Fault.drop s.Congest.Fault.duplicate
           s.Congest.Fault.delay s.Congest.Fault.max_delay)
       gen_plan_and_coords)
    (fun (spec, coords) ->
      let t = Congest.Fault.make spec and o = Oracle.make spec in
      List.iter
        (fun (round, (src, dst), k, far) ->
          (* every fourth coordinate lies far out, where the hash mixes
             large values and no window applies *)
          let round = if far land 3 = 0 then round + (far land 0xFFFF_FFFF) else round in
          let got = Congest.Fault.classify t ~round ~src ~dst ~k in
          let want = Oracle.classify o ~round ~src ~dst ~k in
          if got <> want then
            QCheck.Test.fail_reportf "round=%d src=%d dst=%d k=%d: %s, want %s"
              round src dst k (show_verdict got) (show_verdict want);
          if
            Congest.Fault.link_down t ~round src dst
            <> Oracle.link_down o ~round src dst
          then QCheck.Test.fail_reportf "link_down round=%d %d->%d" round src dst)
        coords;
      true)

(* Minor-heap words per [classify] call over 100 000 calls on a plan that
   reaches every verdict and has a link window; the minimum of three
   brackets discards a bracket a collection happened to land in. *)
let test_classify_allocates_nothing () =
  let t =
    Congest.Fault.make
      {
        Congest.Fault.none with
        seed = 21;
        drop = 0.05;
        duplicate = 0.02;
        delay = 0.05;
        max_delay = 3;
        link_flaps = [ (0, 1, 100, 200) ];
      }
  in
  let calls = 100_000 in
  let bracket () =
    let w0 = Gc.minor_words () in
    for i = 0 to calls - 1 do
      ignore
        (Sys.opaque_identity
           (Congest.Fault.classify t ~round:(i lsr 4) ~src:(i land 3)
              ~dst:((i lsr 2) land 3) ~k:0))
    done;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  let per_call = List.fold_left min infinity (List.init 3 (fun _ -> bracket ())) in
  if per_call >= 1.0 then
    Alcotest.failf "classify allocates %.2f words per call" per_call

(* --- reliable transport: exactly-once, in-order delivery under heavy
   drop/duplicate/delay noise --- *)

let test_reliable_stream () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let tokens = 25 in
  let got = ref [] in
  let node ((module T) : (module CS.TRANSPORT with type msg = int)) (ctx : R.ctx) =
    if ctx.me = 0 then
      for i = 1 to tokens do
        T.send 0 i;
        ignore (T.sync ())
      done
    else begin
      let acc = ref [] in
      while List.length !acc < tokens do
        let ib = T.wait () in
        acc := !acc @ List.init (T.count ib) (T.msg ib)
      done;
      got := !acc;
      Alcotest.(check (list int)) "no dead links" [] (List.map fst (T.dead_ports ()))
    end
  in
  let faults =
    Congest.Fault.make
      { Congest.Fault.none with seed = 11; drop = 0.25; duplicate = 0.15;
        delay = 0.2; max_delay = 3 }
  in
  let report = R.run ~faults g ~node in
  (match report.CS.outcome with
  | CS.Completed -> ()
  | oc -> Alcotest.failf "unexpected outcome: %a" CS.pp_outcome oc);
  Alcotest.(check (list int))
    "every token exactly once, in order"
    (List.init tokens (fun i -> i + 1))
    !got;
  Alcotest.(check bool) "losses repaired by retransmission" true
    (report.CS.metrics.Congest.Metrics.retransmitted > 0)

(* --- virtual rounds line up with fault-free rounds: a message sent in
   virtual round v arrives in virtual round v+1, drops notwithstanding --- *)

let test_reliable_round_alignment () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let arrived_vr = ref (-1) in
  let node ((module T) : (module CS.TRANSPORT with type msg = int)) (ctx : R.ctx) =
    if ctx.me = 0 then begin
      ignore (T.sleep_until 3);
      T.send 0 99;
      ignore (T.sync ())
    end
    else begin
      let ib = T.wait () in
      assert (List.exists (fun i -> T.msg ib i = 99) (List.init (T.count ib) Fun.id));
      arrived_vr := T.round ()
    end
  in
  let faults =
    Congest.Fault.make { Congest.Fault.none with seed = 5; drop = 0.3 }
  in
  let report = R.run ~faults g ~node in
  (match report.CS.outcome with
  | CS.Completed -> ()
  | oc -> Alcotest.failf "unexpected outcome: %a" CS.pp_outcome oc);
  Alcotest.(check int) "virtual arrival round" 4 !arrived_vr

(* --- a sleep across many virtual rounds collects exactly what the raw
   simulator's sleep collects, in the same order --- *)

let test_reliable_sleep_until () =
  let g = Gen.grid ~rng:(rng ()) ~rows:3 ~cols:3 () in
  (* even ids sleep through the traffic; their neighbours all have odd ids
     and send on every port for ten rounds *)
  let body ((module T) : (module CS.TRANSPORT with type msg = int)) ~me ~deg
      got =
    if me mod 2 = 0 then begin
      let ib = T.sleep_until 14 in
      got.(me) <- List.init (T.count ib) (fun i -> (T.port ib i, T.msg ib i))
    end
    else
      for r = 0 to 9 do
        for p = 0 to deg - 1 do
          T.send p ((me * 1000) + r)
        done;
        ignore (T.sync ())
      done
  in
  let raw = Array.make 9 [] and rel = Array.make 9 [] in
  let report =
    S.run g ~node:(fun (ctx : S.ctx) ->
        body (module S.Transport) ~me:ctx.me ~deg:(Array.length ctx.neighbors) raw)
  in
  (match report.CS.outcome with
  | CS.Completed -> ()
  | oc -> Alcotest.failf "raw run: %a" CS.pp_outcome oc);
  let faults =
    Congest.Fault.make
      { Congest.Fault.none with seed = 9; drop = 0.1; duplicate = 0.05;
        delay = 0.1; max_delay = 3 }
  in
  let report =
    R.run ~faults g ~node:(fun t (ctx : R.ctx) ->
        body t ~me:ctx.me ~deg:(Array.length ctx.neighbors) rel)
  in
  (match report.CS.outcome with
  | CS.Completed -> ()
  | oc -> Alcotest.failf "reliable run: %a" CS.pp_outcome oc);
  Alcotest.(check bool) "the network really was noisy" true
    Congest.Metrics.(report.CS.metrics.dropped > 0 && report.CS.metrics.delayed > 0);
  Alcotest.(check int) "the centre heard ten rounds from four ports" 40
    (List.length raw.(4));
  for v = 0 to 8 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "v%d's inbox" v) raw.(v) rel.(v)
  done

(* --- two messages on one port in one round reach the protocol in the raw
   simulator's order (newest first), not in the link's sequence order --- *)

let test_reliable_port_order () =
  let g = Gen.grid ~rng:(rng ()) ~rows:3 ~cols:3 () in
  let body ((module T) : (module CS.TRANSPORT with type msg = int)) ~me ~deg
      got =
    for r = 0 to 4 do
      for p = 0 to deg - 1 do
        T.send p ((me * 1000) + (10 * r));
        T.send p ((me * 1000) + (10 * r) + 1)
      done;
      let ib = T.sync () in
      got.(me) <- got.(me) @ List.init (T.count ib) (fun i -> (T.port ib i, T.msg ib i))
    done
  in
  let raw = Array.make 9 [] and rel = Array.make 9 [] in
  ignore
    (S.run ~edge_capacity:2 g ~node:(fun (ctx : S.ctx) ->
         body (module S.Transport) ~me:ctx.me ~deg:(Array.length ctx.neighbors) raw));
  let faults =
    Congest.Fault.make
      { Congest.Fault.none with seed = 9; drop = 0.1; duplicate = 0.05 }
  in
  ignore
    (R.run ~edge_capacity:2 ~faults g ~node:(fun t (ctx : R.ctx) ->
         body t ~me:ctx.me ~deg:(Array.length ctx.neighbors) rel));
  Alcotest.(check int) "the centre heard two per port per round" 40
    (List.length raw.(4));
  for v = 0 to 8 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "v%d's inbox" v) raw.(v) rel.(v)
  done

(* --- the flagship property: tree routing over the reliable layer under
   random drops computes the exact scheme of the fault-free run --- *)

let tree_routing_run ?faults ?reliable ?config seed g tree =
  Routing.Dist_tree_routing.run
    ~rng:(Random.State.make [| seed |])
    ?faults ?reliable ?config g ~tree

let test_tree_routing_masked_drops () =
  let g = Gen.connected_erdos_renyi ~rng:(rng ()) ~n:28 ~avg_deg:3.0 () in
  let tree = Tree.bfs_spanning g ~root:0 in
  let clean = tree_routing_run 123 g tree in
  Alcotest.(check (list string)) "clean run has no failures" []
    (List.map Routing.Protocol.failure_to_string clean.failures);
  let faults =
    Congest.Fault.make { Congest.Fault.none with seed = 17; drop = 0.05 }
  in
  let noisy = tree_routing_run ~faults 123 g tree in
  Alcotest.(check (list string)) "noisy run has no failures" []
    (List.map Routing.Protocol.failure_to_string noisy.failures);
  Alcotest.(check bool) "scheme bit-identical under drops" true
    (Tz.Tree_routing.equal clean.scheme noisy.scheme);
  Alcotest.(check bool) "the network really was noisy" true
    (noisy.report.Congest.Metrics.dropped > 0);
  Alcotest.(check bool) "repairs happened" true
    (noisy.report.Congest.Metrics.retransmitted > 0)

(* A tree-protocol run's typed failures, split by constructor: setup
   timeouts (vertex, round), lost links (vertex, neighbour) and aborts or
   broken invariants (vertex, reason). A transport-level failure (deadlock,
   round limit) fails the test, as does a constructor only the superstep
   engine reports. *)
let split_failures fs =
  List.fold_right
    (fun f (timeouts, lost, harvest) ->
      match f with
      | Routing.Protocol.Setup_timeout { vertex; round } ->
        ((vertex, round) :: timeouts, lost, harvest)
      | Routing.Protocol.Link_lost { vertex; neighbor; _ } ->
        (timeouts, (vertex, neighbor) :: lost, harvest)
      | Routing.Protocol.Harvest { vertex; reason } ->
        (timeouts, lost, (vertex, reason) :: harvest)
      | Routing.Protocol.Transport _ | Routing.Protocol.Stalled _
      | Routing.Protocol.Queue_overflow _ ->
        Alcotest.failf "unexpected failure: %s" (Routing.Protocol.failure_to_string f))
    fs ([], [], [])

(* --- crash-stop of a non-root tree vertex mid-setup: the setup never
   completes, so every live vertex times out; the victim's neighbours also
   lose their links to it. The run terminates, never deadlocks. --- *)

let test_tree_routing_crash () =
  let g = Gen.connected_erdos_renyi ~rng:(rng ()) ~n:24 ~avg_deg:3.0 () in
  let tree = Tree.bfs_spanning g ~root:0 in
  (* crash a non-root tree vertex mid-setup *)
  let victim =
    List.find (fun v -> v <> 0) (Tree.vertices tree)
  in
  let faults =
    Congest.Fault.make { Congest.Fault.none with crashes = [ (victim, 12) ] }
  in
  let out = tree_routing_run ~faults ~config:fast 123 g tree in
  let timeouts, lost, harvest = split_failures out.failures in
  Alcotest.(check int) "victim" 1 victim;
  (* the watchdog fires at round 4n + 64 = 152 (the connected ER graph
     has n = 22) *)
  Alcotest.(check (list (pair int int)))
    "one setup timeout per live vertex"
    (List.filter_map
       (fun v -> if v = victim then None else Some (v, 152))
       (List.init (Graph.n g) Fun.id))
    timeouts;
  Alcotest.(check (list (pair int int)))
    "the victim's neighbours lose their links"
    [ (8, 1); (9, 1); (17, 1); (20, 1) ]
    lost;
  Alcotest.(check (list (pair int string))) "no aborts" [] harvest

(* --- crash pre-setup: the watchdog ends the run with a reason even when the
   crash silences the whole schedule flood (4n + 64 = 96 on the 8-ring) --- *)

let test_tree_routing_crash_of_root_neighbor_region () =
  let g = Gen.ring ~rng:(rng ()) ~n:8 () in
  let tree = Tree.bfs_spanning g ~root:0 in
  let faults =
    Congest.Fault.make
      { Congest.Fault.none with crashes = [ (1, 0); (7, 0) ] }
  in
  (* vertices 1 and 7 are the root's only neighbours on the ring: from round 0
     the root is cut off and nothing can be set up *)
  let out = tree_routing_run ~faults ~config:fast 123 g tree in
  let timeouts, lost, harvest = split_failures out.failures in
  Alcotest.(check (list (pair int int)))
    "the vertices cut off from the root time out"
    [ (3, 96); (4, 96); (5, 96) ]
    timeouts;
  Alcotest.(check (list (pair int int)))
    "the crashed vertices' neighbours lose their links"
    [ (0, 1); (0, 7); (2, 1); (6, 7) ]
    lost;
  Alcotest.(check (list (pair int string)))
    "their tree children abort"
    [ (2, "tree parent unreachable: aborting"); (6, "tree parent unreachable: aborting") ]
    harvest

let () =
  Alcotest.run "fault"
    [
      ( "inject",
        [
          Alcotest.test_case "plans are deterministic" `Quick test_fault_determinism;
          Alcotest.test_case "counters per fault class" `Quick test_fault_counters;
          Alcotest.test_case "permanent link failure" `Quick test_link_failure;
        ] );
      ( "verdicts",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_verdicts_match_oracle;
          Alcotest.test_case "classify allocates nothing" `Quick
            test_classify_allocates_nothing;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "exactly-once in-order" `Quick test_reliable_stream;
          Alcotest.test_case "virtual round alignment" `Quick test_reliable_round_alignment;
          Alcotest.test_case "multi-round sleep_until = raw Sim" `Quick
            test_reliable_sleep_until;
          Alcotest.test_case "order within a port = raw Sim" `Quick
            test_reliable_port_order;
        ] );
      ( "tree-routing",
        [
          Alcotest.test_case "drops masked, scheme identical" `Quick
            test_tree_routing_masked_drops;
          Alcotest.test_case "crash-stop degrades gracefully" `Quick
            test_tree_routing_crash;
          Alcotest.test_case "crash before setup: watchdog" `Quick
            test_tree_routing_crash_of_root_neighbor_region;
        ] );
    ]
