(* Validation of the CONGEST simulator: message delivery timing, capacity
   enforcement, wake-up semantics, deadlock detection, metrics. *)

open Dgraph

let rng () = Random.State.make [| 42 |]

module Imsg = struct
  type t = int

  let words _ = 1
  let slots = 1
  let encode s b v = Congest.Slab.set s b v
  let decode s b = Congest.Slab.get s b
end

module CS = Congest.Sim
module S = Congest.Sim.Make (Imsg)
module R = Congest.Reliable.Make (Imsg)

(* an inbox view as [(port, message)] pairs, decoded before the next
   blocking call expires it *)
let to_list ib = List.init (S.count ib) (fun i -> (S.port ib i, S.msg ib i))

(* --- flood: every vertex learns the minimum id; rounds ~ eccentricity --- *)

let flood_protocol (ctx : S.ctx) =
  let best = ref ctx.me in
  let deg = Array.length ctx.neighbors in
  let broadcast v = for p = 0 to deg - 1 do S.send p v done in
  S.set_memory 1;
  broadcast !best;
  let quiet = ref 0 in
  while !quiet < 1 do
    let inbox = to_list (S.sync ()) in
    let improved = ref false in
    List.iter
      (fun (_, v) ->
        if v < !best then begin
          best := v;
          improved := true
        end)
      inbox;
    if !improved then broadcast !best;
    if inbox = [] then incr quiet else quiet := 0
  done;
  assert (!best = 0)

let test_flood () =
  let g = Gen.grid ~rng:(rng ()) ~rows:8 ~cols:8 () in
  let report = S.run g ~node:flood_protocol in
  (match report.CS.outcome with
  | CS.Completed -> ()
  | CS.Deadlocked _ as oc -> Alcotest.failf "%a" CS.pp_outcome oc
  | CS.Round_limit -> Alcotest.fail "round limit");
  let d = Diameter.hop_diameter g in
  let r = report.CS.metrics.Congest.Metrics.rounds in
  Alcotest.(check bool)
    (Printf.sprintf "flood rounds %d within [D=%d, D+3]" r d)
    true
    (r >= d && r <= d + 3)

(* --- convergecast: sum of ids up a BFS tree --- *)

let convergecast_sum g root =
  let tree = Tree.bfs_spanning g ~root in
  let node (ctx : S.ctx) =
    let v = ctx.me in
    if not (Tree.mem tree v) then ()
    else begin
      let kids = Tree.children tree v in
      let port_of u =
        let rec find p =
          if ctx.neighbors.(p) = u then p else find (p + 1)
        in
        find 0
      in
      S.set_memory 2;
      let expected = Array.length kids in
      let acc = ref v and got = ref 0 in
      while !got < expected do
        let inbox = to_list (S.wait ()) in
        List.iter
          (fun (_, value) ->
            acc := !acc + value;
            incr got)
          inbox
      done;
      if v <> root then S.send (port_of (Tree.parent tree v)) !acc
      else begin
        let n = ctx.n in
        assert (!acc = n * (n - 1) / 2)
      end
    end
  in
  S.run g ~node

let test_convergecast () =
  let g = Gen.random_tree ~rng:(rng ()) ~n:200 () in
  let report = convergecast_sum g 0 in
  (match report.CS.outcome with
  | CS.Completed -> ()
  | _ -> Alcotest.fail "convergecast did not complete");
  let tree = Tree.bfs_spanning g ~root:0 in
  Alcotest.(check bool)
    "rounds <= height + 1" true
    (report.CS.metrics.Congest.Metrics.rounds <= Tree.height tree + 1)

(* --- timing: message sent in round r arrives in round r+1 --- *)

let test_delivery_timing () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let observed = ref (-1) in
  let node (ctx : S.ctx) =
    if ctx.me = 0 then begin
      (* send in round 3 *)
      ignore (S.sleep_until 3);
      S.send 0 99
    end
    else begin
      let inbox = to_list (S.wait ()) in
      assert (List.exists (fun (_, m) -> m = 99) inbox);
      observed := S.round ()
    end
  in
  let report = S.run g ~node in
  (match report.CS.outcome with CS.Completed -> () | _ -> Alcotest.fail "incomplete");
  Alcotest.(check int) "arrival round" 4 !observed

(* --- capacity: two messages through one port in one round must raise --- *)

let test_congestion_detected () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let node (ctx : S.ctx) =
    if ctx.me = 0 then begin
      S.send 0 1;
      S.send 0 2
    end
    else ignore (S.wait ())
  in
  Alcotest.check_raises "congestion"
    (Congest.Sim.Congestion { vertex = 0; port = 0; round = 0 })
    (fun () -> ignore (S.run g ~node))

let test_word_limit () =
  let module Wide = struct
    type t = unit

    let words () = 100
    let slots = 0
    let encode _ _ () = ()
    let decode _ _ = ()
  end in
  let module W = Congest.Sim.Make (Wide) in
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let node (ctx : W.ctx) = if ctx.me = 0 then W.send 0 () else ignore (W.wait ()) in
  Alcotest.check_raises "too large"
    (Congest.Sim.Message_too_large { vertex = 0; words = 100; round = 0 })
    (fun () -> ignore (W.run g ~node))

(* --- deadlock detection --- *)

let test_deadlock () =
  let g = Gen.ring ~rng:(rng ()) ~n:3 () in
  let node (_ : S.ctx) = ignore (S.wait ()) in
  let report = S.run g ~node in
  match report.CS.outcome with
  | CS.Deadlocked d ->
    Alcotest.(check int) "all stuck" 3 d.CS.total;
    Alcotest.(check int) "sample covers all" 3 (List.length d.CS.stuck);
    List.iter
      (fun (_, w) ->
        Alcotest.(check bool) "stuck in wait" true (w = CS.On_message))
      d.CS.stuck;
    let s = Format.asprintf "%a" CS.pp_outcome report.CS.outcome in
    let contains ~sub s =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "printer shows totals and wake states: %s" s)
      true
      (contains ~sub:"3 vertices stuck" s && contains ~sub:"wait" s)
  | _ -> Alcotest.fail "expected deadlock"

(* --- sleep_until fast-forward: silent rounds still counted --- *)

let test_fast_forward () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let node (_ : S.ctx) = ignore (S.sleep_until 1000) in
  let report = S.run g ~node in
  (match report.CS.outcome with CS.Completed -> () | _ -> Alcotest.fail "incomplete");
  Alcotest.(check bool) "rounds >= 1000" true (report.CS.metrics.Congest.Metrics.rounds >= 1000)

(* --- memory ledger --- *)

let test_memory_ledger () =
  let g = Gen.ring ~rng:(rng ()) ~n:4 () in
  let node (ctx : S.ctx) =
    S.set_memory (10 * (ctx.me + 1));
    S.add_memory 5;
    S.set_memory 1
  in
  let report = S.run g ~node in
  Alcotest.(check int) "peak" 45 (Congest.Metrics.peak_memory_max report.CS.metrics);
  Alcotest.(check int) "per-vertex peak" 15 report.CS.metrics.Congest.Metrics.peak_memory.(0)

(* --- pipelined broadcast: M messages through a BFS tree in O(M + D) --- *)

let test_pipelined_broadcast () =
  (* Root floods [m] tokens down a path of length L: last token arrives by
     m + L rounds (pipelining), not m * L. *)
  let n = 30 and m_tokens = 20 in
  let g = Gen.ring ~rng:(rng ()) ~n () in
  (* cut the ring into a path by ignoring the wrap edge logically: vertex ids
     along the path are 0..n-1; we use the full ring but route by id. *)
  let node (ctx : S.ctx) =
    let next_port =
      let target = (ctx.me + 1) mod ctx.n in
      let rec find p = if ctx.neighbors.(p) = target then p else find (p + 1) in
      if ctx.me = ctx.n - 1 then None else Some (find 0)
    in
    if ctx.me = 0 then begin
      match next_port with
      | Some p ->
        for i = 1 to m_tokens do
          S.send p i;
          ignore (S.sync ())
        done
      | None -> ()
    end
    else begin
      let got = ref 0 in
      while !got < m_tokens do
        let inbox = to_list (S.wait ()) in
        List.iter
          (fun (_, tok) ->
            incr got;
            match next_port with Some p -> S.send p tok | None -> ())
          inbox
      done
    end
  in
  let report = S.run g ~node in
  (match report.CS.outcome with CS.Completed -> () | _ -> Alcotest.fail "incomplete");
  let r = report.CS.metrics.Congest.Metrics.rounds in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined: %d rounds <= M + L + 2 = %d" r (m_tokens + n + 2))
    true
    (r <= m_tokens + n + 2)


(* --- wait_until: wake on message or deadline, whichever first --- *)

let test_wait_until () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let woke_at = ref (-1) and got = ref (-1) in
  let node (ctx : S.ctx) =
    if ctx.me = 0 then begin
      (* no message before round 50: deadline fires *)
      let inbox = to_list (S.wait_until 50) in
      assert (inbox = []);
      woke_at := S.round ();
      (* now send to the peer, who is waiting with a far deadline *)
      S.send 0 7
    end
    else begin
      let inbox = to_list (S.wait_until 100_000) in
      (match inbox with [ (_, v) ] -> got := v | _ -> assert false);
      assert (S.round () < 100_000)
    end
  in
  let report = S.run g ~node in
  (match report.CS.outcome with CS.Completed -> () | _ -> Alcotest.fail "incomplete");
  Alcotest.(check bool) "deadline wake" true (!woke_at >= 50 && !woke_at <= 51);
  Alcotest.(check int) "message wake" 7 !got

let test_edge_capacity_2 () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let node (ctx : S.ctx) =
    if ctx.me = 0 then begin
      S.send 0 1;
      S.send 0 2
    end
    else begin
      let inbox = to_list (S.wait ()) in
      assert (List.length inbox = 2)
    end
  in
  let report = S.run ~edge_capacity:2 g ~node in
  (match report.CS.outcome with CS.Completed -> () | _ -> Alcotest.fail "incomplete");
  Alcotest.(check int) "max load recorded" 2 report.CS.metrics.Congest.Metrics.max_edge_load

let test_inbox_sorted_by_port () =
  (* vertex 0 of a 4-ring has two neighbours; both send in the same round *)
  let g = Gen.ring ~rng:(rng ()) ~n:4 () in
  let seen = ref [] in
  let node (ctx : S.ctx) =
    if ctx.me = 0 then begin
      let ib = S.wait () in
      seen := List.init (S.count ib) (S.port ib);
      (* [slot] reads the payload in place; Imsg's one slot is the value *)
      for i = 0 to S.count ib - 1 do
        assert (S.slot ib i 0 = S.msg ib i)
      done
    end
    else if ctx.me = 1 || ctx.me = 3 then begin
      let rec find p = if ctx.neighbors.(p) = 0 then p else find (p + 1) in
      S.send (find 0) ctx.me
    end
  in
  ignore (S.run g ~node);
  Alcotest.(check (list int)) "sorted ports" (List.sort compare !seen) !seen;
  Alcotest.(check int) "both arrived" 2 (List.length !seen)

(* --- sleep_until a round that has already passed: returns next round --- *)

let test_sleep_until_past () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let woke = ref (-1) in
  let node (ctx : S.ctx) =
    if ctx.me = 0 then begin
      ignore (S.sleep_until 10);
      (* target already 7 rounds behind: must not rewind or hang *)
      ignore (S.sleep_until 3);
      woke := S.round ()
    end
  in
  let report = S.run g ~node in
  (match report.CS.outcome with CS.Completed -> () | _ -> Alcotest.fail "incomplete");
  Alcotest.(check int) "stale deadline wakes next round" 11 !woke

(* --- wait_until whose deadline round also delivers a message: the inbox
   must carry the message rather than losing it to the deadline --- *)

let test_wait_until_race () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let got = ref [] and woke = ref (-1) in
  let node (ctx : S.ctx) =
    if ctx.me = 0 then begin
      ignore (S.sleep_until 4);
      S.send 0 77 (* arrives exactly at the peer's deadline, round 5 *)
    end
    else begin
      let inbox = to_list (S.wait_until 5) in
      woke := S.round ();
      got := List.map snd inbox
    end
  in
  let report = S.run g ~node in
  (match report.CS.outcome with CS.Completed -> () | _ -> Alcotest.fail "incomplete");
  Alcotest.(check int) "woke at the deadline" 5 !woke;
  Alcotest.(check (list int)) "message not lost to the deadline" [ 77 ] !got

(* --- CONGEST limits hold *through* the reliable layer: its wider physical
   budget must not let the protocol overspend its own --- *)

let test_reliable_congestion () =
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let node ((module T) : (module CS.TRANSPORT with type msg = int)) (ctx : R.ctx) =
    if ctx.me = 0 then begin
      T.send 0 1;
      T.send 0 2
    end
    else ignore (T.wait ())
  in
  Alcotest.check_raises "congestion through reliable"
    (Congest.Sim.Congestion { vertex = 0; port = 0; round = 0 })
    (fun () -> ignore (R.run ~edge_capacity:1 g ~node))

let test_reliable_word_limit () =
  let module Wide = struct
    type t = unit

    let words () = 100
    let slots = 0
    let encode _ _ () = ()
    let decode _ _ = ()
  end in
  let module RW = Congest.Reliable.Make (Wide) in
  let g = Gen.ring ~rng:(rng ()) ~n:2 () in
  let node ((module T) : (module CS.TRANSPORT with type msg = unit)) (ctx : RW.ctx) =
    if ctx.me = 0 then T.send 0 () else ignore (T.wait ())
  in
  Alcotest.check_raises "too large through reliable"
    (Congest.Sim.Message_too_large { vertex = 0; words = 100; round = 0 })
    (fun () -> ignore (RW.run g ~node))

let () =
  Alcotest.run "congest"
    [
      ( "sim",
        [
          Alcotest.test_case "flood completes in ~D rounds" `Quick test_flood;
          Alcotest.test_case "convergecast sums ids" `Quick test_convergecast;
          Alcotest.test_case "delivery is next-round" `Quick test_delivery_timing;
          Alcotest.test_case "congestion detected" `Quick test_congestion_detected;
          Alcotest.test_case "word limit enforced" `Quick test_word_limit;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock;
          Alcotest.test_case "sleep fast-forward" `Quick test_fast_forward;
          Alcotest.test_case "memory ledger peaks" `Quick test_memory_ledger;
          Alcotest.test_case "broadcast pipelines (M+D)" `Quick test_pipelined_broadcast;
          Alcotest.test_case "wait_until semantics" `Quick test_wait_until;
          Alcotest.test_case "edge capacity 2" `Quick test_edge_capacity_2;
          Alcotest.test_case "inbox sorted by port" `Quick test_inbox_sorted_by_port;
          Alcotest.test_case "sleep_until past round" `Quick test_sleep_until_past;
          Alcotest.test_case "wait_until deadline race" `Quick test_wait_until_race;
          Alcotest.test_case "congestion through reliable" `Quick test_reliable_congestion;
          Alcotest.test_case "word limit through reliable" `Quick test_reliable_word_limit;
        ] );
    ]
