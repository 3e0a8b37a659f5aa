(* One run of one workload: what [main.exe --workload] executes, alone or
   as a child process of [suite].

     set-up, [setups] times   the workload's instance -> routing scheme ->
                              packed router; gates run after each, outside
                              the timing, and every set-up must reproduce
                              the first one's protocol counts
     serving, --seconds       closed loop, one caller: forward passes and
                              per-call timed routes over the seed's traffic
     evaluation               stretch of a fixed query prefix, untimed

   Every workload builds a scheme and then serves on it. They differ in the
   graph and in how much of the construction runs as CONGEST protocols:
   all of it over the raw simulator, all of it over the reliable transport
   under faults, or only the exact stage.

   A workload's instance (graph, hierarchy sampling, fault plan) is fixed,
   so rounds, messages, memory words and allocation are the same in every
   run and are judged exactly; --seed draws the traffic and the gate's
   sample pairs. *)

open Bench_suite
open Dgraph
module DS = Routing.Dist_scheme
module DH = Routing.Dist_hopset
module M = Congest.Metrics

type construction =
  | Distributed of { faulty : bool }
      (** exact stage and upper stage as protocols, spliced *)
  | Exact_stage  (** exact stage as a protocol, upper half computed in-process *)

type workload = {
  name : string;
  k : int;
  generate : Random.State.t -> Graph.t;
  construction : construction;
}

let er n rng =
  Gen.connected_erdos_renyi ~rng ~weights:(Gen.uniform_weights 1.0 4.0) ~n
    ~avg_deg:4.0 ()

let grid side rng = Gen.grid ~rng ~rows:side ~cols:side ()

let workloads =
  [
    { name = "build-grid"; k = 4; generate = grid 24; construction = Distributed { faulty = false } };
    { name = "build-er"; k = 4; generate = er 1024; construction = Distributed { faulty = false } };
    { name = "build-er-faulty"; k = 3; generate = er 96; construction = Distributed { faulty = true } };
    { name = "serve-grid"; k = 3; generate = grid 40; construction = Exact_stage };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Layers a workload executes; a per-layer metric of any other layer reads
   0 on it. *)
let layers w =
  [ "gen"; "setup"; "exact"; "pack"; "forward"; "evaluate" ]
  @
  match w.construction with
  | Exact_stage -> [ "central" ]
  | Distributed { faulty } -> [ "upper"; "splice" ] @ if faulty then [ "transport" ] else []

let instance = 1
let setups = 3

(* The matrix is large so that its edge loads and stretch percentile move
   by about a percent between seeds; the passes cycle through it one chunk
   at a time. *)
let queries = 100_000
let chunk = 2_000
let eval_queries = 40_000
let gate_pairs = 2_000

(* Co-tenants on a shared host slow a run by up to 2x, for anything from
   a second to minutes, and never speed it up. Passes are short (one chunk,
   a few ms) and a pass timing is reported at its fastest tenth: it moves
   only when a slowdown covers nine tenths of the run, where the median
   moves when it covers half. *)
let fastest_tenth better xs =
  let a = Stats.sorted (Array.of_list xs) in
  Stats.percentile a (match better with Verdict.Lower -> 10 | Verdict.Higher -> 90)

(* The forwarding loop must not allocate; the slack absorbs Gc bookkeeping
   (the per-domain budget bench traffic applies). *)
let loop_alloc_budget = 4096.0

exception Incorrect of string

let incorrect fmt = Printf.ksprintf (fun s -> raise (Incorrect s)) fmt
let rng a stream = Random.State.make [| a; stream |]
let now_ns = Spans.now_ns
let secs t0 t1 = float_of_int (t1 - t0) /. 1e9
let mb bytes = bytes /. 1e6

(* Time one call into a layer from outside, bracketing its allocation and
   recording it as a span whose counters come from the result. *)
let call tr name ?(counts = fun _ -> []) f =
  let a0 = Gc.allocated_bytes () in
  Spans.enter tr name;
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let alloc = Gc.allocated_bytes () -. a0 in
  Spans.leave tr (("alloc_bytes", alloc) :: counts r);
  (r, secs t0 t1, alloc)

let report_counts (m : M.t) =
  [
    ("rounds", float_of_int m.M.rounds);
    ("messages", float_of_int m.M.messages);
    ("wakeups", float_of_int m.M.wakeups);
  ]

let per a b = if b = 0 then 0.0 else a /. float_of_int b

(* exact.* / upper.* of one protocol run *)
let protocol_layer layer (m : M.t) wall alloc =
  [
    (layer ^ ".wall_s", wall);
    (layer ^ ".rounds", float_of_int m.M.rounds);
    (layer ^ ".messages", float_of_int m.M.messages);
    (layer ^ ".wakeups", float_of_int m.M.wakeups);
    (layer ^ ".alloc_mb", mb alloc);
    (layer ^ ".us_per_round", per (wall *. 1e6) m.M.rounds);
    (layer ^ ".ns_per_message", per (wall *. 1e9) m.M.messages);
  ]

let rounds_with_prefix prefix phases =
  List.fold_left
    (fun acc (name, r) -> if String.starts_with ~prefix name then acc + r else acc)
    0 phases

(* Measured rounds of the whole upper stage over what the paper's formulas
   charge for it: the centralized upper half on the same exact stage
   charges "hopset" as one lump plus one phase per approx level. *)
let overcharge g ~rgate o oh =
  let cent = DS.build_scheme ~rng:(Random.State.copy rgate) g o in
  let charged =
    List.fold_left
      (fun acc (p : Routing.Cost.phase) ->
        let n = p.Routing.Cost.name in
        if n = "hopset" || String.starts_with ~prefix:"approx " n then
          acc + p.Routing.Cost.rounds
        else acc)
      0
      (Routing.Cost.phases (Routing.Scheme.cost cent))
  in
  let measured = List.fold_left (fun acc (_, r) -> acc + r) 0 oh.DH.phase_rounds in
  per (float_of_int measured) charged

let fault_plan =
  Congest.Fault.make
    {
      Congest.Fault.none with
      seed = Hashtbl.hash (instance, "faults");
      drop = 0.05;
      duplicate = 0.02;
      delay = 0.05;
      max_delay = 3;
    }

let check_gate what = function
  | [] -> ()
  | d :: _ as ds -> incorrect "%s gate: %d divergences, first: %s" what (List.length ds) d

let check_failures what to_string = function
  | [] -> ()
  | fs -> incorrect "%s: %s" what (String.concat " | " (List.map to_string fs))

(* A construction returns the routing tables, the stretch bound they must
   meet, the counts of the protocols it ran, the layer metrics of the timed
   calls, and the checks to run once the set-up clock has stopped (which
   may add layer metrics of their own). *)
type constructed = {
  tables : Tz.Graph_routing.t;
  stretch_bound : float;
  report : M.t;
  timed : (string * float) list;
  after : unit -> (string * float) list;
}

(* Appendix B's stretch bound, (4k-3)(1+8e) *)
let stretch_bound k scheme =
  float_of_int ((4 * k) - 3) *. (1.0 +. (8.0 *. Routing.Scheme.epsilon scheme))

let exact_stage tr ?faults k g =
  let r = rng instance 2 in
  let o, wall, alloc =
    call tr "exact" ~counts:(fun o -> report_counts o.DS.report) (fun () ->
        DS.run ~rng:r ~k ?faults g)
  in
  check_failures "exact stage" DS.failure_to_string o.DS.failures;
  let gate () =
    let (), gate_s, _ =
      call tr "exact.gate" (fun () ->
          check_gate "exact stage"
            (DS.check_against_centralized ~rng:(rng instance 2)
               ~mode:(DS.auto_gate_mode (Graph.n g)) g o))
    in
    ("exact.gate_s", gate_s)
  in
  (o, r, protocol_layer "exact" o.DS.report wall alloc, gate, wall)

let distributed tr w ~faulty ~trace i g =
  let faults = if faulty then Some fault_plan else None in
  let o, r, exact_layer, exact_gate, exact_s = exact_stage tr ?faults w.k g in
  let rgate = Random.State.copy r in
  let oh, upper_s, upper_a =
    call tr "upper" ~counts:(fun oh -> report_counts oh.DH.report) (fun () ->
        DH.run ~rng:r ?faults g o)
  in
  check_failures "upper stage" DH.failure_to_string oh.DH.failures;
  let scheme, splice_s, splice_a = call tr "splice" (fun () -> DH.build_scheme ~rng:r g o oh) in
  let built = M.merge o.DS.report oh.DH.report in
  let after () =
    let exact_gate = exact_gate () in
    let (), upper_gate_s, _ =
      call tr "upper.gate" (fun () ->
          check_gate "upper stage"
            (DH.check_against_centralized ~rng:(Random.State.copy rgate)
               ~mode:(DS.auto_gate_mode (Graph.n g)) g oh))
    in
    let overcharge =
      if trace && i = 0 then
        let ratio, _, _ = call tr "upper.overcharge" (fun () -> overcharge g ~rgate o oh) in
        [ ("upper.overcharge", ratio) ]
      else []
    in
    let transport =
      if not (trace && faulty && i = 0) then []
      else
        (* the same graph and sampling over the raw transport, fault-free *)
        let raw, raw_s, _ =
          call tr "transport.raw_twin" (fun () ->
              let r' = rng instance 2 in
              let o' = DS.run ~rng:r' ~k:w.k g in
              M.merge o'.DS.report (DH.run ~rng:r' g o').DH.report)
        in
        [
          ("transport.round_inflation", per (float_of_int built.M.rounds) raw.M.rounds);
          ("transport.message_inflation", per (float_of_int built.M.messages) raw.M.messages);
          ("transport.wall_inflation", (exact_s +. upper_s) /. raw_s);
          ("transport.retransmitted", float_of_int built.M.retransmitted);
          ("transport.retransmit_ratio", per (float_of_int built.M.retransmitted) built.M.messages);
          ("transport.dropped", float_of_int built.M.dropped);
        ]
    in
    [ exact_gate; ("upper.gate_s", upper_gate_s) ] @ overcharge @ transport
  in
  {
    tables = Routing.Scheme.router scheme;
    stretch_bound = stretch_bound w.k scheme;
    report = built;
    timed =
      exact_layer
      @ protocol_layer "upper" oh.DH.report upper_s upper_a
      @ [
          ("upper.rounds.hopset", float_of_int (rounds_with_prefix "hopset" oh.DH.phase_rounds));
          ( "upper.rounds.approx_pivots",
            float_of_int (rounds_with_prefix "approx pivots" oh.DH.phase_rounds) );
          ( "upper.rounds.approx_clusters",
            float_of_int (rounds_with_prefix "approx clusters" oh.DH.phase_rounds) );
          ("splice.wall_s", splice_s);
          ("splice.alloc_mb", mb splice_a);
        ];
    after;
  }

(* What drr dist-scheme builds without --full: the upper half (hopset,
   approximate pivots and clusters, tables) is computed in-process on the
   protocol's exact stage. *)
let exact_then_central tr w g =
  let o, r, exact_layer, exact_gate, _ = exact_stage tr w.k g in
  let scheme, central_s, central_a = call tr "central" (fun () -> DS.build_scheme ~rng:r g o) in
  {
    tables = Routing.Scheme.router scheme;
    stretch_bound = stretch_bound w.k scheme;
    report = o.DS.report;
    timed = exact_layer @ [ ("central.wall_s", central_s); ("central.alloc_mb", mb central_a) ];
    after = (fun () -> [ exact_gate () ]);
  }

type router = {
  graph : Graph.t;
  packed : Serve.Packed_router.t;
  bound : float;  (** the stretch the routes must stay within *)
}

type setup = {
  router : router;
  setup_s : float;  (** graph generation to packed router *)
  alloc_mb : float;  (** allocated over the same span *)
  counts : int * int * int;  (** rounds, messages, peak memory words of the protocols *)
  layer : (string * float) list;
}

(* Set-up [i] of the workload's instance, gated against [seed]'s sample
   pairs once the clock has stopped. *)
let setup tr w ~trace ~seed i =
  Gc.compact ();
  Spans.enter tr "setup";
  let a0 = Gc.allocated_bytes () in
  let t0 = now_ns () in
  let g, gen_s, _ = call tr "gen" (fun () -> w.generate (rng instance 1)) in
  let c =
    match w.construction with
    | Exact_stage -> exact_then_central tr w g
    | Distributed { faulty } -> distributed tr w ~faulty ~trace i g
  in
  let packed, pack_s, _ =
    call tr "pack" (fun () -> Serve.Packed_router.of_graph_routing c.tables)
  in
  let t1 = now_ns () in
  let alloc = Gc.allocated_bytes () -. a0 in
  let checked = c.after () in
  let (), pack_gate_s, _ =
    call tr "pack.gate" (fun () ->
        check_gate "packed router"
          (Serve.Differential.check_router ~rng:(rng seed 4) c.tables packed ~pairs:gate_pairs))
  in
  Spans.leave tr [];
  {
    router = { graph = g; packed; bound = c.stretch_bound };
    setup_s = secs t0 t1;
    alloc_mb = mb alloc;
    counts = (c.report.M.rounds, c.report.M.messages, M.peak_memory_max c.report);
    layer =
      c.timed @ checked
      @ [
          ("gen.wall_s", gen_s);
          ("setup.wall_s", secs t0 t1);
          ("pack.wall_s", pack_s);
          ("pack.router_words", float_of_int (Serve.Packed_router.words packed));
          ("pack.gate_s", pack_gate_s);
        ];
  }

(* ---- serving ---- *)

type pass = {
  chunk_index : int;
  qps : float;
  p50_us : float;
  p99_us : float;
  forward_s : float;
  ns_per_hop : float;
  loop_alloc : float;
}

(* One closed-loop pass over one chunk: the engine's forwarding pass, then
   every query again through [route_len], each call timed. *)
let serve_pass tr r chunks ~lat j =
  let chunk_index = j mod Array.length chunks in
  let q = chunks.(chunk_index) in
  Spans.enter tr "serve";
  let f, forward_s, _ =
    call tr "forward" (fun () -> Serve.Engine.forward r.graph r.packed q)
  in
  if f.Serve.Engine.fwd_failed > 0 then
    incorrect "forward: %d of %d queries failed" f.Serve.Engine.fwd_failed
      f.Serve.Engine.fwd_queries;
  let (), _, _ =
    call tr "route" (fun () ->
        let buf = Serve.Packed_router.buffer r.packed in
        Array.iteri
          (fun i (src, dst) ->
            let c0 = now_ns () in
            let len = Serve.Packed_router.route_len r.packed ~buf ~src ~dst in
            let c1 = now_ns () in
            if len < 1 then incorrect "route_len %d -> %d: error code %d" src dst len;
            Array.unsafe_set lat i (float_of_int (c1 - c0)))
          q)
  in
  Spans.leave tr [];
  Array.sort Float.compare lat;
  {
    chunk_index;
    qps = float_of_int (Array.length q) /. forward_s;
    p50_us = Stats.percentile lat 50 /. 1e3;
    p99_us = Stats.percentile lat 99 /. 1e3;
    forward_s;
    ns_per_hop = forward_s *. 1e9 /. float_of_int (max 1 (Congest.Histogram.sum f.Serve.Engine.fwd_hops));
    loop_alloc = f.Serve.Engine.fwd_loop_alloc_bytes;
  }

(* Now and then a single bracket reads ~1.8 MB on an allocation-free loop
   while the passes around it read a few bytes. An allocation in the loop's
   code recurs whenever the same queries are forwarded, so a pass over the
   budget is forwarded once more and the run fails only if that reading is
   over the budget too. *)
let check_loop_alloc r chunks passes =
  List.iter
    (fun p ->
      if p.loop_alloc > loop_alloc_budget then
        let again =
          (Serve.Engine.forward r.graph r.packed chunks.(p.chunk_index)).Serve.Engine
            .fwd_loop_alloc_bytes
        in
        if again > loop_alloc_budget then
          incorrect "forwarding loop allocated %.0f and then %.0f bytes on chunk %d (budget %.0f)"
            p.loop_alloc again p.chunk_index loop_alloc_budget)
    passes

(* Stretch of the first [eval_queries] queries. *)
let evaluate tr r queries =
  let sub = Array.sub queries 0 (min eval_queries (Array.length queries)) in
  let ev, s, _ =
    call tr "evaluate" (fun () ->
        let f = Serve.Engine.forward r.graph r.packed sub in
        Serve.Engine.evaluate r.graph sub ~weight:f.Serve.Engine.fwd_weight)
  in
  let st = ev.Serve.Engine.ev_stretches in
  let worst = if Array.length st = 0 then 0.0 else st.(Array.length st - 1) in
  if worst > r.bound +. 1e-9 then incorrect "stretch %.3f beyond the bound %.3f" worst r.bound;
  ( Stats.percentile st 95,
    Array.length st,
    [ ("evaluate.wall_s", s); ("evaluate.sources", float_of_int ev.Serve.Engine.ev_sources) ] )

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type result = {
  attempted : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
}

let median_of xs = Stats.median (Array.of_list xs)

(* Median per metric name over the set-ups that reported it. *)
let median_by_name tables =
  let names = List.sort_uniq compare (List.concat_map (List.map fst) tables) in
  List.map
    (fun name -> (name, median_of (List.filter_map (List.assoc_opt name) tables)))
    names

let run w ~seed ~seconds ~trace tr =
  let built = List.init setups (fun i -> setup tr w ~trace ~seed i) in
  let first = List.hd built in
  List.iter
    (fun s ->
      if s.counts <> first.counts then
        let show (r, m, p) = Printf.sprintf "%d rounds, %d messages, %d words" r m p in
        incorrect "set-ups of one instance disagree: %s vs %s" (show first.counts) (show s.counts))
    built;
  let rounds, messages, memory_words = first.counts in
  let r = (List.nth built (setups - 1)).router in
  let matrix = Serve.Traffic.generate ~rng:(rng seed 3) Serve.Traffic.Uniform r.graph ~queries in
  let chunks = Array.init (queries / chunk) (fun j -> Array.sub matrix (j * chunk) chunk) in
  if not (Stats.tail_supported chunk 99) then
    incorrect "a pass of %d queries cannot support a p99" chunk;
  let lat = Array.make chunk 0.0 in
  Gc.compact ();
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop j acc =
    if j >= 3 && now_ns () >= deadline then List.rev acc
    else loop (j + 1) (serve_pass tr r chunks ~lat j :: acc)
  in
  let passes = loop 0 [] in
  check_loop_alloc r chunks passes;
  let fast better f = fastest_tenth better (List.map f passes) in
  (* hop and load statistics are pure functions of (graph, router, matrix) *)
  let whole = Serve.Engine.forward r.graph r.packed matrix in
  let hops = whole.Serve.Engine.fwd_hops in
  let stretch_p95, scored, evaluated = evaluate tr r matrix in
  let end_to_end =
    [
      ("setup_s", median_of (List.map (fun s -> s.setup_s) built));
      ("rounds", float_of_int rounds);
      ("messages", float_of_int messages);
      ("peak_memory_words", float_of_int memory_words);
      ("alloc_mb", median_of (List.map (fun s -> s.alloc_mb) built));
      ("serve_qps", fast Verdict.Higher (fun p -> p.qps));
      ("route_us_p50", fast Verdict.Lower (fun p -> p.p50_us));
      ("route_us_p99", fast Verdict.Lower (fun p -> p.p99_us));
      ("stretch_p95", stretch_p95);
      ( "max_edge_load",
        float_of_int (Array.fold_left max 0 whole.Serve.Engine.fwd_edge_load) );
      ("peak_rss_mb", peak_rss_mb ());
    ]
  in
  let per_layer =
    median_by_name (List.map (fun s -> s.layer) built)
    @ evaluated
    @ [
        ("forward.hops_p50", float_of_int (Congest.Histogram.percentile hops 50));
        ("forward.hops_max", float_of_int (Congest.Histogram.max_value hops));
        ("forward.wall_s", fast Verdict.Lower (fun p -> p.forward_s));
        ("forward.ns_per_hop", fast Verdict.Lower (fun p -> p.ns_per_hop));
        ("forward.loop_alloc_bytes", median_of (List.map (fun p -> p.loop_alloc) passes));
      ]
  in
  {
    attempted = setups + (2 * chunk * List.length passes) + scored;
    end_to_end;
    per_layer;
  }
