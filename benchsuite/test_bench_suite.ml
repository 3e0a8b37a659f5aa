(* The benchmark's own arithmetic: the tail-percentile rule, quartiles as
   Python's statistics.quantiles computes them, span self time, suite-compare
   verdicts and keyed trend matching. *)

open Bench_suite
module J = Congest.Export.Json

let close = Alcotest.float 1e-12
let arr = Array.of_list

let test_tail_rule () =
  (* nearest rank of p99 in 1000 samples is index 990: 9 samples beyond *)
  Alcotest.(check int) "beyond p99 of 1000" 9 (Stats.beyond 1000 99);
  Alcotest.(check bool) "p99 of 1000 unsupported" false (Stats.tail_supported 1000 99);
  Alcotest.(check bool) "p99 of 1001 supported" true (Stats.tail_supported 1001 99);
  Alcotest.(check bool) "p99 of 60000 supported" true (Stats.tail_supported 60_000 99);
  let a = Stats.sorted (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.check close "p50 nearest rank" 51.0 (Stats.percentile a 50);
  Alcotest.check close "p99 nearest rank" 100.0 (Stats.percentile a 99)

(* reference values from Python: statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles (arr xs) in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "1..4" [ 1.; 2.; 3.; 4. ] (1.25, 2.5, 3.75);
  check "unsorted" [ 5.; 1.; 3. ] (1.0, 3.0, 5.0);
  check "two points extrapolate" [ 2.; 7. ] (0.75, 4.5, 8.25);
  Alcotest.check close "median even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  let s = Stats.summarize [| 10.; 12.; 11.; 13. |] in
  Alcotest.check close "spread" ((12.75 -. 10.25) /. 11.5) (Stats.spread s);
  Alcotest.(check int) "count" 4 s.Stats.n

(* a scripted clock: each read returns the next value *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
      q := rest;
      t
    | [] -> failwith "clock exhausted"

let test_self_time () =
  (* root [0,100] with children a [10,30] and b [40,90]; b has a child c
     [50,60]; a second root d [200,210] starts its own request *)
  let tr = Spans.create ~now:(scripted [ 0; 10; 30; 40; 50; 60; 90; 100; 200; 210 ]) true in
  Spans.enter tr "root";
  Spans.enter tr "a";
  Spans.leave tr [];
  Spans.enter tr "b";
  Spans.enter tr "c";
  Spans.leave tr [];
  Spans.leave tr [ ("rounds", 7.0) ];
  Spans.leave tr [];
  Spans.enter tr "d";
  Spans.leave tr [];
  let all = Spans.spans tr in
  let get n = List.find (fun s -> s.Spans.name = n) all in
  let self n = Spans.self_ns all (get n) in
  Alcotest.(check int) "root self = 100 - 20 - 50" 30 (self "root");
  Alcotest.(check int) "b self excludes c" 40 (self "b");
  Alcotest.(check int) "leaf self = duration" 10 (self "c");
  Alcotest.(check int) "c's parent" (get "b").Spans.id (get "c").Spans.parent;
  Alcotest.(check int) "request inherited" (get "root").Spans.id (get "c").Spans.request;
  Alcotest.(check int) "new root, new request" (get "d").Spans.id (get "d").Spans.request;
  Alcotest.(check (list (pair string (float 0.)))) "counters" [ ("rounds", 7.0) ] (get "b").Spans.counters;
  let off = Spans.create false in
  Spans.enter off "x";
  Spans.leave off [];
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans off))

let verdict =
  Alcotest.testable (fun f v -> Format.pp_print_string f (Verdict.to_string v)) ( = )

let test_verdicts () =
  let j ?(dir = Verdict.Lower) ~bound o n = Verdict.judge dir ~bound ~old_:(arr o) ~new_:(arr n) in
  let base = [ 10.0; 10.1; 10.2; 9.9; 10.0 ] in
  Alcotest.check verdict "identical" Verdict.Same (j ~bound:0.1 base base);
  Alcotest.check verdict "deterministic, bound 0" Verdict.Same (j ~bound:0.0 [ 5.; 5. ] [ 5.; 5. ]);
  Alcotest.check verdict "deterministic regression" Verdict.Worse (j ~bound:0.0 [ 5.; 5. ] [ 6.; 6. ]);
  Alcotest.check verdict "within bound" Verdict.Same
    (j ~bound:0.1 base (List.map (fun x -> x *. 1.05) base));
  Alcotest.check verdict "beyond bound" Verdict.Worse
    (j ~bound:0.1 base (List.map (fun x -> x *. 1.3) base));
  Alcotest.check verdict "separated improvement" Verdict.Better
    (j ~bound:0.1 base (List.map (fun x -> x *. 0.7) base));
  Alcotest.check verdict "higher is better flips the sign" Verdict.Worse
    (j ~dir:Verdict.Higher ~bound:0.1 base (List.map (fun x -> x *. 0.7) base));
  (* quartile spread above the bound, runs overlapping: no verdict *)
  let noisy = [ 5.; 10.; 15.; 20.; 25. ] in
  Alcotest.check verdict "noisy overlap" Verdict.Unresolved (j ~bound:0.1 noisy [ 6.; 11.; 16.; 21.; 26. ]);
  (* the same spread, but every new run worse than every old run *)
  Alcotest.check verdict "noisy but separated" Verdict.Worse
    (j ~bound:0.1 noisy [ 40.; 45.; 50.; 55.; 60. ])

let test_trend_keyed () =
  let row w v = J.Obj [ ("workload", J.Str w); ("seed", J.Int 1); ("x", J.Float v) ] in
  let prev = J.Obj [ ("rows", J.Arr [ row "a" 1.0; row "b" 2.0 ]) ] in
  (* a row inserted in front: keyed matching still pairs a with a *)
  let cur = J.Obj [ ("rows", J.Arr [ row "new" 9.0; row "a" 1.5; row "b" 2.0 ]) ] in
  Alcotest.(check (list string)) "only a moved"
    [ "rows.[workload=a,seed=1].x" ]
    (List.map (fun (p, _, _, _) -> p) (Trend.deltas prev cur));
  (* rows without identity fields fall back to positions *)
  let plain v = J.Obj [ ("x", J.Float v) ] in
  Alcotest.(check (list string)) "positional"
    [ "rows.0.x" ]
    (List.map
       (fun (p, _, _, _) -> p)
       (Trend.deltas
          (J.Obj [ ("rows", J.Arr [ plain 1.0; plain 2.0 ]) ])
          (J.Obj [ ("rows", J.Arr [ plain 3.0; plain 2.0 ]) ])));
  (* duplicate identities are ambiguous: positions again *)
  Alcotest.(check (list string)) "duplicates fall back"
    [ "1" ]
    (Trend.row_keys [ row "a" 1.0; row "a" 2.0 ] |> List.tl)

let () =
  Alcotest.run "bench_suite"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles as statistics.quantiles" `Quick test_quartiles;
        ] );
      ("spans", [ Alcotest.test_case "self time with nested children" `Quick test_self_time ]);
      ("suite-compare", [ Alcotest.test_case "verdict rules" `Quick test_verdicts ]);
      ("trend", [ Alcotest.test_case "keyed row matching" `Quick test_trend_keyed ]);
    ]
