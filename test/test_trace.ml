(* Tests for the observability layer: histogram percentiles against brute
   force, span nesting and phase partitioning, the simulator's per-round
   ring, JSON round-trips (including a fault-injected run), Cost/Trace phase
   alignment on the general scheme, the shared TRANSPORT signature, typed
   routing errors, and the legacy Scheme.build wrapper. *)

open Dgraph
module CS = Congest.Sim
module H = Congest.Histogram
module Tr = Congest.Trace
module E = Congest.Export

let rng seed = Random.State.make [| seed; 991 |]

module Imsg = struct
  type t = int

  let words _ = 1
  let slots = 1
  let encode s b v = Congest.Slab.set s b v
  let decode s b = Congest.Slab.get s b
end

module S = CS.Make (Imsg)
module R = Congest.Reliable.Make (Imsg)

(* an inbox view as [(port, message)] pairs, decoded before the next
   blocking call expires it *)
let to_list ib = List.init (S.count ib) (fun i -> (S.port ib i, S.msg ib i))

(* ---------- histograms ---------- *)

let brute_percentile arr p =
  let a = Array.copy arr in
  Array.sort compare a;
  let total = Array.length a in
  a.(min (total - 1) (total * p / 100))

let test_histogram_vs_brute_force () =
  let r = rng 7 in
  for _ = 1 to 50 do
    let len = 1 + Random.State.int r 200 in
    let arr = Array.init len (fun _ -> Random.State.int r 500) in
    let h = H.of_array arr in
    List.iter
      (fun p ->
        Alcotest.(check int)
          (Printf.sprintf "p%d" p)
          (brute_percentile arr p) (H.percentile h p))
      [ 0; 25; 50; 90; 95; 99; 100 ];
    Alcotest.(check int) "count" len (H.count h);
    Alcotest.(check int) "max" (Array.fold_left max 0 arr) (H.max_value h);
    Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 arr) (H.sum h)
  done

let test_histogram_merge_and_buckets () =
  let a = H.of_array [| 1; 1; 3 |] and b = H.of_array [| 3; 7 |] in
  let m = H.merge a b in
  Alcotest.(check int) "merged count" 5 (H.count m);
  Alcotest.(check (list (pair int int)))
    "buckets"
    [ (1, 2); (3, 2); (7, 1) ]
    (H.buckets m);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (H.mean m);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Histogram.add: negative value") (fun () ->
      H.add (H.create ()) (-1))

(* ---------- spans and phases (driven by a fake clock) ---------- *)

let fake_trace () =
  let clock = ref 0 and msgs = ref 0 and words = ref 0 in
  let t = Tr.make () in
  Tr.bind t ~clock:(fun () -> !clock) ~counters:(fun () -> (!msgs, !words));
  (t, clock, msgs, words)

let test_span_nesting_and_ordering () =
  let t, clock, msgs, words = fake_trace () in
  Tr.phase t "alpha";
  clock := 2;
  Tr.begin_span t "inner";
  clock := 3;
  msgs := 10;
  words := 25;
  Tr.begin_span t ~detail:"deep" "innermost";
  clock := 5;
  Tr.end_span t;
  Tr.end_span t;
  clock := 6;
  Tr.phase t "beta";
  clock := 9;
  Tr.phase_end t;
  let spans = Tr.spans t in
  Alcotest.(check (list string))
    "open order"
    [ "alpha"; "inner"; "innermost"; "beta" ]
    (List.map Tr.span_name spans);
  Alcotest.(check (list int)) "depths" [ 0; 1; 2; 0 ] (List.map Tr.span_depth spans);
  let innermost = List.nth spans 2 in
  Alcotest.(check int) "innermost rounds" 2 (Tr.span_rounds innermost);
  Alcotest.(check string) "detail" "deep" (Tr.span_detail innermost);
  let alpha = List.hd spans in
  (* opening phase "beta" closed "alpha" (and its still-open children) *)
  Alcotest.(check int) "alpha closed at 6" 6 (Tr.span_end alpha);
  Alcotest.(check bool) "alpha is a phase" true (Tr.span_is_phase alpha);
  Alcotest.(check bool) "inner is not" false (Tr.span_is_phase (List.nth spans 1));
  Alcotest.(check (list string))
    "phases only"
    [ "alpha"; "beta" ]
    (List.map Tr.span_name (Tr.phases t))

let test_phase_breakdown_partitions () =
  let t, _, _, _ = fake_trace () in
  Tr.add_closed_span t ~phase:true ~name:"a" ~start_round:0 ~end_round:5 ();
  Tr.add_closed_span t ~phase:true ~name:"b" ~start_round:10 ~end_round:15 ();
  let rows = Tr.phase_breakdown t ~total_rounds:20 in
  Alcotest.(check (list (pair string int)))
    "gaps become unattributed rows"
    [ ("a", 5); ("(unattributed)", 5); ("b", 5); ("(unattributed)", 5) ]
    rows;
  Alcotest.(check int) "rows always sum to total" 20
    (List.fold_left (fun acc (_, r) -> acc + r) 0 rows)

(* ---------- the simulator feeds the ring ---------- *)

let test_sim_ring_consistency () =
  let g = Gen.ring ~rng:(rng 21) ~n:8 () in
  let tr = Tr.make () in
  let node (ctx : S.ctx) =
    (* two-round gossip: everyone tells both neighbours its id, then echoes
       what it heard once *)
    S.send 0 ctx.S.me;
    S.send 1 ctx.S.me;
    let inbox = to_list (S.sync ()) in
    List.iter (fun (p, v) -> S.send p (v + 1)) inbox;
    ignore (S.sync ())
  in
  let report = S.run ~trace:tr g ~node in
  (match report.CS.outcome with
  | CS.Completed -> ()
  | oc -> Alcotest.failf "unexpected outcome: %a" CS.pp_outcome oc);
  let m = report.CS.metrics in
  let samples = Tr.rounds tr in
  Alcotest.(check int)
    "full history retained" (Tr.rounds_recorded tr) (Array.length samples);
  Alcotest.(check int) "ring messages sum to the metrics total"
    m.Congest.Metrics.messages
    (Array.fold_left (fun acc s -> acc + s.Tr.r_messages) 0 samples);
  Alcotest.(check int) "ring words sum to the metrics total"
    m.Congest.Metrics.message_words
    (Array.fold_left (fun acc s -> acc + s.Tr.r_words) 0 samples);
  Array.iteri
    (fun i s ->
      if i > 0 then
        Alcotest.(check bool)
          "rounds strictly increase" true
          (s.Tr.r_round > samples.(i - 1).Tr.r_round))
    samples;
  Alcotest.(check bool) "wakeups observed" true
    (Array.exists (fun s -> s.Tr.r_wakeups > 0) samples)

let test_ring_overwrites_oldest () =
  let t, _, _, _ = fake_trace () in
  let t = ignore t; Tr.make ~ring:4 () in
  Tr.bind t ~clock:(fun () -> 0) ~counters:(fun () -> (0, 0));
  for r = 0 to 9 do
    Tr.record_round t ~round:r ~messages:r ~words:0 ~wakeups:0 ~max_edge_load:0
      ~faults:0
  done;
  Alcotest.(check int) "all recorded counted" 10 (Tr.rounds_recorded t);
  let kept = Tr.rounds t in
  Alcotest.(check (list int))
    "newest 4 kept, oldest first"
    [ 6; 7; 8; 9 ]
    (Array.to_list (Array.map (fun s -> s.Tr.r_round) kept))

(* ---------- JSON ---------- *)

let test_json_round_trip_values () =
  let open E.Json in
  let j =
    Obj
      [
        ("s", Str "quote\" slash\\ tab\t nl\n unicode\x01");
        ("i", Int (-42));
        ("zero", Int 0);
        ("f", Float 3.25);
        ("f_integral", Float 4.0);
        ("f_tiny", Float 1.2345678901234567e-300);
        ("b", Bool true);
        ("null", Null);
        ("arr", Arr [ Int 1; Arr []; Obj [] ]);
      ]
  in
  match parse (to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' ->
    Alcotest.(check bool) "round-trips exactly (Int/Float preserved)" true (j = j')

let test_json_report_round_trip_faulty_run () =
  let g = Gen.ring ~rng:(rng 31) ~n:2 () in
  let faults =
    Congest.Fault.make
      { Congest.Fault.none with seed = 13; drop = 0.25; duplicate = 0.1 }
  in
  let tr = Tr.make () in
  let tokens = 8 in
  let node ((module T) : (module CS.TRANSPORT with type msg = int)) (ctx : R.ctx) =
    if ctx.R.me = 0 then
      for i = 1 to tokens do
        T.send 0 i;
        ignore (T.sync ())
      done
    else begin
      let seen = ref 0 in
      while !seen < tokens do
        seen := !seen + T.count (T.wait ())
      done
    end
  in
  let report = R.run ~faults ~trace:tr g ~node in
  (match report.CS.outcome with
  | CS.Completed -> ()
  | oc -> Alcotest.failf "unexpected outcome: %a" CS.pp_outcome oc);
  Alcotest.(check bool) "drops actually injected" true
    (report.CS.metrics.Congest.Metrics.dropped > 0);
  if report.CS.metrics.Congest.Metrics.retransmitted > 0 then
    Alcotest.(check bool) "retransmissions logged as events" true
      (Tr.events_recorded tr > 0);
  let j = E.Json.Obj [ ("report", E.report report); ("trace", E.trace tr) ] in
  match E.Json.parse (E.Json.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' -> Alcotest.(check bool) "report+trace round-trip" true (j = j')

let test_json_member_access () =
  let h = H.of_array [| 2; 2; 9 |] in
  let j = E.histogram h in
  (match E.Json.member "p50" j with
  | Some (E.Json.Int v) -> Alcotest.(check int) "p50" 2 v
  | _ -> Alcotest.fail "p50 missing");
  match E.Json.member "max" j with
  | Some (E.Json.Int v) -> Alcotest.(check int) "max" 9 v
  | _ -> Alcotest.fail "max missing"

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_json_bytes_escaping () =
  let open E.Json in
  (* DEL and the C0 controls must be \u-escaped; UTF-8 multibyte sequences
     (and any byte >= 0x80) pass through verbatim *)
  let s = "del\x7f caf\xc3\xa9 \xf0\x9f\x90\xab ctl\x1f" in
  let printed = to_string (Str s) in
  Alcotest.(check bool) "DEL escaped as \\u007f" true (contains_sub printed "\\u007f");
  Alcotest.(check bool) "no raw DEL byte in output" false (String.contains printed '\x7f');
  Alcotest.(check bool) "C0 control escaped" true (contains_sub printed "\\u001f");
  Alcotest.(check bool) "UTF-8 bytes pass through raw" true
    (contains_sub printed "caf\xc3\xa9" && contains_sub printed "\xf0\x9f\x90\xab");
  match parse printed with
  | Ok (Str s') -> Alcotest.(check string) "byte-exact round-trip" s s'
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let prop_json_bytes_round_trip =
  let arbitrary_bytes =
    QCheck.string_gen QCheck.Gen.(map Char.chr (int_range 0 255))
  in
  QCheck.Test.make ~count:500 ~name:"arbitrary byte strings round-trip"
    arbitrary_bytes (fun s ->
      let open E.Json in
      (* both as a value and as an object key *)
      match parse (to_string (Obj [ (s, Str s) ])) with
      | Ok (Obj [ (k, Str v) ]) -> String.equal k s && String.equal v s
      | _ -> false)

(* ---------- Cost phases and trace spans line up on Scheme.build ---------- *)

let test_scheme_phase_alignment () =
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 41)
      ~weights:(Gen.uniform_weights 1.0 8.0) ~n:60 ~avg_deg:5.0 ()
  in
  let tr = Tr.make () in
  let scheme = Routing.Scheme.build ~rng:(rng 42) ~k:3 ~trace:tr g in
  let cost = Routing.Scheme.cost scheme in
  let cphases = Routing.Cost.phases cost in
  let tphases = Tr.phases tr in
  Alcotest.(check int) "same phase count" (List.length cphases) (List.length tphases);
  List.iter2
    (fun (c : Routing.Cost.phase) s ->
      Alcotest.(check string) "same name" c.Routing.Cost.name (Tr.span_name s);
      Alcotest.(check int) "same rounds" c.Routing.Cost.rounds (Tr.span_rounds s);
      Alcotest.(check int) "same memory" c.Routing.Cost.peak_memory
        (Tr.span_peak_memory s))
    cphases tphases;
  let total = Routing.Cost.total_rounds cost in
  let rows = Tr.phase_breakdown tr ~total_rounds:total in
  Alcotest.(check bool) "no unattributed rows" true
    (List.for_all (fun (name, _) -> name <> "(unattributed)") rows);
  Alcotest.(check int) "breakdown sums to the cost total" total
    (List.fold_left (fun acc (_, r) -> acc + r) 0 rows)

(* ---------- tree protocol: trace rounds = measured rounds ---------- *)

let test_tree_trace_totals () =
  let g = Gen.grid ~rng:(rng 51) ~rows:5 ~cols:5 () in
  let tree = Tree.bfs_spanning g ~root:0 in
  let tr = Tr.make () in
  let out = Routing.Dist_tree_routing.run ~rng:(rng 52) ~trace:tr g ~tree in
  Alcotest.(check (list string)) "no protocol failures" []
    (List.map Routing.Protocol.failure_to_string
       out.Routing.Dist_tree_routing.failures);
  let total =
    out.Routing.Dist_tree_routing.report.Congest.Metrics.rounds
  in
  let rows = Tr.phase_breakdown tr ~total_rounds:total in
  Alcotest.(check int) "breakdown sums to measured rounds" total
    (List.fold_left (fun acc (_, r) -> acc + r) 0 rows);
  Alcotest.(check bool) "all protocol stages present" true
    (List.length (Tr.phases tr) >= 8);
  Alcotest.(check bool) "pointer jumping has per-iteration sub-spans" true
    (List.exists
       (fun s -> Tr.span_depth s > 0 && not (Tr.span_is_phase s))
       (Tr.spans tr))

(* ---------- one protocol body, both transports ---------- *)

let test_dual_transport_protocol () =
  let g = Gen.ring ~rng:(rng 61) ~n:2 () in
  let result = ref (-1) in
  let node ((module T) : (module CS.TRANSPORT with type msg = int)) me =
    if me = 0 then begin
      T.send 0 5;
      ignore (T.sync ());
      let ib = T.wait () in
      result := 0;
      for i = 0 to T.count ib - 1 do
        result := !result + T.msg ib i
      done
    end
    else begin
      let ib = T.wait () in
      for i = 0 to T.count ib - 1 do
        T.send (T.port ib i) (2 * T.msg ib i)
      done;
      ignore (T.sync ())
    end
  in
  let raw =
    S.run g ~node:(fun (ctx : S.ctx) ->
        node (module S.Transport : CS.TRANSPORT with type msg = int) ctx.S.me)
  in
  (match raw.CS.outcome with
  | CS.Completed -> ()
  | oc -> Alcotest.failf "raw: %a" CS.pp_outcome oc);
  Alcotest.(check int) "raw transport result" 10 !result;
  result := -1;
  let faults = Congest.Fault.make { Congest.Fault.none with seed = 3; drop = 0.3 } in
  let rel = R.run ~faults g ~node:(fun t (ctx : R.ctx) -> node t ctx.R.me) in
  (match rel.CS.outcome with
  | CS.Completed -> ()
  | oc -> Alcotest.failf "reliable: %a" CS.pp_outcome oc);
  Alcotest.(check int) "same body, reliable transport, same result" 10 !result

(* ---------- typed routing errors ---------- *)

let test_routing_errors () =
  let g = Gen.connected_erdos_renyi ~rng:(rng 71) ~n:40 ~avg_deg:4.0 () in
  let scheme = Tz.Graph_routing.build ~rng:(rng 72) ~k:2 g in
  let err = Alcotest.testable Tz.Routing_error.pp Tz.Routing_error.equal in
  (match Tz.Graph_routing.route scheme ~src:(-1) ~dst:0 with
  | Error e -> Alcotest.check err "negative src" (Tz.Routing_error.Bad_vertex (-1)) e
  | Ok _ -> Alcotest.fail "negative src accepted");
  (match Tz.Graph_routing.route scheme ~src:0 ~dst:999 with
  | Error e -> Alcotest.check err "oob dst" (Tz.Routing_error.Bad_vertex 999) e
  | Ok _ -> Alcotest.fail "out-of-range dst accepted");
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Format.asprintf "%a has a message" Tz.Routing_error.pp e)
        true
        (String.length (Tz.Routing_error.to_string e) > 0))
    [
      Tz.Routing_error.Unreachable;
      Tz.Routing_error.Bad_vertex 3;
      Tz.Routing_error.Bad_port 2;
      Tz.Routing_error.No_table { vertex = 1; owner = 2 };
      Tz.Routing_error.Ttl_exceeded 160;
    ]

(* ---------- ?params defaults to Params.default ---------- *)

let test_params_default_equivalence () =
  let g =
    Gen.connected_erdos_renyi ~rng:(rng 81)
      ~weights:(Gen.uniform_weights 1.0 8.0) ~n:50 ~avg_deg:5.0 ()
  in
  let implicit = Routing.Scheme.build ~rng:(rng 82) ~k:2 g in
  let explicit =
    Routing.Scheme.build ~rng:(rng 82) ~k:2
      ~params:Routing.Scheme.Params.default g
  in
  Alcotest.(check int) "same rounds"
    (Routing.Cost.total_rounds (Routing.Scheme.cost implicit))
    (Routing.Cost.total_rounds (Routing.Scheme.cost explicit));
  Alcotest.(check int) "same tables"
    (Routing.Scheme.max_table_words implicit)
    (Routing.Scheme.max_table_words explicit);
  let r = rng 83 in
  for _ = 1 to 100 do
    let src = Random.State.int r (Graph.n g) and dst = Random.State.int r (Graph.n g) in
    Alcotest.(check bool) "same routes" true
      (Routing.Scheme.route implicit ~src ~dst
      = Routing.Scheme.route explicit ~src ~dst)
  done

let () =
  Alcotest.run "trace"
    [
      ( "histogram",
        [
          Alcotest.test_case "percentiles vs brute force" `Quick
            test_histogram_vs_brute_force;
          Alcotest.test_case "merge and buckets" `Quick test_histogram_merge_and_buckets;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting_and_ordering;
          Alcotest.test_case "phase breakdown partitions" `Quick
            test_phase_breakdown_partitions;
        ] );
      ( "ring",
        [
          Alcotest.test_case "sim feeds ring consistently" `Quick
            test_sim_ring_consistency;
          Alcotest.test_case "ring overwrites oldest" `Quick test_ring_overwrites_oldest;
        ] );
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_round_trip_values;
          Alcotest.test_case "faulty run report round-trip" `Quick
            test_json_report_round_trip_faulty_run;
          Alcotest.test_case "member access" `Quick test_json_member_access;
          Alcotest.test_case "DEL and UTF-8 byte escaping" `Quick
            test_json_bytes_escaping;
          QCheck_alcotest.to_alcotest ~long:false prop_json_bytes_round_trip;
        ] );
      ( "integration",
        [
          Alcotest.test_case "scheme: cost/trace phases align" `Quick
            test_scheme_phase_alignment;
          Alcotest.test_case "tree: trace partitions measured rounds" `Quick
            test_tree_trace_totals;
          Alcotest.test_case "one body, both transports" `Quick
            test_dual_transport_protocol;
        ] );
      ( "api",
        [
          Alcotest.test_case "typed routing errors" `Quick test_routing_errors;
          Alcotest.test_case "params default equivalence" `Quick
            test_params_default_equivalence;
        ] );
    ]
