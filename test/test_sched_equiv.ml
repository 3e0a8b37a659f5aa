(* Scheduler equivalence: the event-driven scheduler must reproduce the
   scan-reference scheduler *bit for bit* — same outcome (including deadlock
   totals and samples), same Metrics (rounds, messages, words, wakeups,
   per-class fault counters, histograms, per-vertex memory peaks) — on random
   topologies, random vertex programs, random fault plans, and both
   transports. Plus directed edge cases around the timer heap. *)

open Dgraph
module CS = Congest.Sim
module Export = Congest.Export

module Imsg = struct
  type t = int

  let words _ = 1
  let slots = 1
  let encode s b v = Congest.Slab.set s b v
  let decode s b = Congest.Slab.get s b
end

module S = Congest.Sim.Make (Imsg)

(* an inbox view as [(port, message)] pairs, decoded before the next
   blocking call expires it *)
let to_list ib = List.init (S.count ib) (fun i -> (S.port ib i, S.msg ib i))

(* One JSON string captures outcome + every metric incl. histograms; string
   equality is the bit-identical bar. *)
let fingerprint (r : CS.report) = Export.Json.to_string (Export.report r)

let check_equal what ref_rep evt_rep =
  Alcotest.(check string) what (fingerprint ref_rep) (fingerprint evt_rep)

(* --- random vertex programs over the raw simulator --- *)

(* Every blocking operation suspends until a strictly later round, so each
   iteration's (single) send lands in a fresh round: capacity 1 is never
   violated by construction. *)
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
      (* deliberately allowed to point into the past *)
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

let run_random_program ~scheduler ~seed ~kind ~flavor ~n =
  let g = topology_of ~seed ~kind ~n in
  let faults =
    Option.map Congest.Fault.make (fault_spec_of ~seed ~flavor ~n)
  in
  S.run ~max_rounds:5_000 ?faults ~scheduler g
    ~node:(random_node ~steps:12 ~seed)

let arb_case =
  QCheck.make
    ~print:(fun (seed, kind, flavor, n) ->
      Printf.sprintf "seed=%d kind=%d flavor=%d n=%d" seed kind flavor n)
    QCheck.Gen.(
      quad (int_bound 10_000) (int_bound 3) (int_bound 2) (int_range 2 40))

let prop_random_programs =
  QCheck.Test.make
    ~name:"random programs: event scheduler == scan scheduler" ~count:60
    arb_case
    (fun (seed, kind, flavor, n) ->
      let a = run_random_program ~scheduler:CS.Scan_reference ~seed ~kind ~flavor ~n in
      let b = run_random_program ~scheduler:CS.Event_driven ~seed ~kind ~flavor ~n in
      fingerprint a = fingerprint b)

(* --- the full tree-routing protocol, raw and reliable transports --- *)

let run_tree_routing ~scheduler ~seed ~reliable ~faulty ~n =
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
  Routing.Dist_tree_routing.run ~rng ?faults ~reliable ~scheduler g ~tree

(* metrics bit-identical via JSON; routing tables, labels and per-vertex
   failure reports structurally identical (ints and int lists only) *)
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
    ~name:"tree routing (both transports): schedulers agree exactly" ~count:8
    (QCheck.make
       ~print:(fun (seed, reliable, faulty) ->
         Printf.sprintf "seed=%d reliable=%b faulty=%b" seed reliable faulty)
       QCheck.Gen.(triple (int_bound 1_000) bool bool))
    (fun (seed, reliable, faulty) ->
      let n = 36 in
      let a = run_tree_routing ~scheduler:CS.Scan_reference ~seed ~reliable ~faulty ~n in
      let b = run_tree_routing ~scheduler:CS.Event_driven ~seed ~reliable ~faulty ~n in
      tree_routing_equal a b)

(* --- directed timer-heap edge cases, checked under BOTH schedulers --- *)

let both_schedulers name f =
  List.iter
    (fun (tag, sched) -> f (name ^ " [" ^ tag ^ "]") sched)
    [ ("scan", CS.Scan_reference); ("event", CS.Event_driven) ]

(* wait_until strictly in the past must wake next round, not hang or rewind *)
let test_wait_until_past () =
  both_schedulers "wait_until past" (fun name sched ->
      let g = Gen.ring ~rng:(Random.State.make [| 7 |]) ~n:2 () in
      let woke = ref (-1) in
      let node (ctx : S.ctx) =
        if ctx.me = 0 then begin
          ignore (S.sleep_until 20);
          ignore (S.wait_until 5);
          woke := S.round ()
        end
      in
      let report = S.run ~scheduler:sched g ~node in
      (match report.CS.outcome with
      | CS.Completed -> ()
      | _ -> Alcotest.fail (name ^ ": incomplete"));
      Alcotest.(check int) name 21 !woke)

(* a vertex crashing while asleep must not keep the run alive (and must not
   be woken); the sleeper's peer just runs to completion *)
let test_crash_during_sleep () =
  both_schedulers "crash during sleep" (fun name sched ->
      let g = Gen.ring ~rng:(Random.State.make [| 8 |]) ~n:3 () in
      let faults =
        Congest.Fault.make
          { Congest.Fault.none with Congest.Fault.crashes = [ (1, 6) ] }
      in
      let node (ctx : S.ctx) =
        if ctx.me = 1 then ignore (S.sleep_until 1_000)
        else ignore (S.sleep_until 3)
      in
      let report = S.run ~faults ~scheduler:sched g ~node in
      (match report.CS.outcome with
      | CS.Completed -> ()
      | oc -> Alcotest.failf "%s: %a" name CS.pp_outcome oc);
      Alcotest.(check bool)
        (name ^ ": ends at crash, far before the dead vertex's deadline") true
        (report.CS.metrics.Congest.Metrics.rounds < 100))

(* timer and message land on the same round: the message must be in the
   returned inbox (not lost to the deadline firing "first") *)
let test_timer_message_tie () =
  both_schedulers "timer+message tie" (fun name sched ->
      let g = Gen.ring ~rng:(Random.State.make [| 9 |]) ~n:2 () in
      let got = ref [] and woke = ref (-1) in
      let node (ctx : S.ctx) =
        if ctx.me = 0 then begin
          ignore (S.sleep_until 4);
          S.send 0 42 (* lands exactly at the peer's round-5 deadline *)
        end
        else begin
          let inbox = to_list (S.wait_until 5) in
          woke := S.round ();
          got := List.map snd inbox
        end
      in
      let report = S.run ~scheduler:sched g ~node in
      (match report.CS.outcome with
      | CS.Completed -> ()
      | _ -> Alcotest.fail (name ^ ": incomplete"));
      Alcotest.(check int) (name ^ ": woke at deadline") 5 !woke;
      Alcotest.(check (list int)) (name ^ ": message kept") [ 42 ] !got)

(* a cancelled deadline (woken early by a message, then re-suspended with a
   later one) must not fire as a stale heap entry *)
let test_stale_timer_entry () =
  both_schedulers "stale timer entry" (fun name sched ->
      let g = Gen.ring ~rng:(Random.State.make [| 10 |]) ~n:2 () in
      let wakes = ref [] in
      let node (ctx : S.ctx) =
        if ctx.me = 0 then begin
          ignore (S.sync ());
          S.send 0 1 (* wake the peer out of its round-10 deadline early *)
        end
        else begin
          ignore (S.wait_until 10);
          wakes := S.round () :: !wakes;
          ignore (S.wait_until 30);
          wakes := S.round () :: !wakes
        end
      in
      let report = S.run ~scheduler:sched g ~node in
      (match report.CS.outcome with
      | CS.Completed -> ()
      | _ -> Alcotest.fail (name ^ ": incomplete"));
      (* first wake: the message (round 2); second: the fresh deadline (30),
         not the stale 10 *)
      Alcotest.(check (list int)) name [ 30; 2 ] !wakes)

(* deadlock reports agree: totals, sample size, id order *)
let test_deadlock_equiv () =
  let g = Gen.ring ~rng:(Random.State.make [| 11 |]) ~n:25 () in
  let node (ctx : S.ctx) = if ctx.me mod 2 = 0 then ignore (S.wait ()) in
  let a = S.run ~scheduler:CS.Scan_reference g ~node in
  let b = S.run ~scheduler:CS.Event_driven g ~node in
  check_equal "deadlock report" a b;
  match b.CS.outcome with
  | CS.Deadlocked d ->
    Alcotest.(check int) "total" 13 d.CS.total;
    Alcotest.(check int) "bounded sample" 10 (List.length d.CS.stuck)
  | _ -> Alcotest.fail "expected deadlock"

(* round-limit semantics agree even when the limit cuts a sleep short *)
let test_round_limit_equiv () =
  let g = Gen.ring ~rng:(Random.State.make [| 12 |]) ~n:2 () in
  let node (_ : S.ctx) = ignore (S.sleep_until 1_000) in
  let a = S.run ~max_rounds:100 ~scheduler:CS.Scan_reference g ~node in
  let b = S.run ~max_rounds:100 ~scheduler:CS.Event_driven g ~node in
  check_equal "round limit report" a b;
  match b.CS.outcome with
  | CS.Round_limit -> ()
  | oc -> Alcotest.failf "expected round limit, got %a" CS.pp_outcome oc

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "sched_equiv"
    [
      ( "property",
        qsuite [ prop_random_programs; prop_tree_routing ] );
      ( "timer-heap",
        [
          Alcotest.test_case "wait_until in the past" `Quick test_wait_until_past;
          Alcotest.test_case "crash during sleep" `Quick test_crash_during_sleep;
          Alcotest.test_case "timer + message same round" `Quick test_timer_message_tie;
          Alcotest.test_case "stale heap entry ignored" `Quick test_stale_timer_entry;
          Alcotest.test_case "deadlock reports agree" `Quick test_deadlock_equiv;
          Alcotest.test_case "round limit agrees" `Quick test_round_limit_equiv;
        ] );
    ]
