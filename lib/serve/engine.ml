(* The forwarding engine: push a traffic matrix through the packed router
   hop by hop and account for what the network would feel — sharded over
   OCaml 5 domains, merged at a barrier, bit-identical at every domain
   count.

   Both passes partition the matrix the same way: queries are counting-
   sorted by source and the *source id range* is cut into [domains]
   contiguous chunks of roughly equal query count. Keying the partition on
   sources (not raw query indices) keeps every query of one source inside
   one domain, so the evaluation's per-source Dijkstra cache stays local
   to the domain that needs it and forwarding gets the same hot-source
   locality for free.

   The timed pass routes every query of a chunk with
   [Packed_router.route_len] into that domain's reused scratch buffer — no
   allocation, no Hashtbl, not even a boxed [result] (errors come back as
   negative codes written into disjoint slots of a shared per-query error
   array) — walking the path once to accumulate its weight into a flat
   float array and bump the domain's per-directed-slot load counter (the
   slot of hop (a,b) is found by scanning a's flattened adjacency row; the
   same work a real forwarding plane does to pick an output port). At the
   barrier the per-domain counters are summed, directed slots fold into
   undirected edge ids, and per-domain hop histograms merge with the
   exactness-tested [Histogram.merge] — so every statistic is the one a
   single accumulator would have produced.

   The second, untimed pass evaluates the same chunks in parallel: one
   Dijkstra per distinct source (memoized in the optional [sp_cache], so
   serving several matrices over one graph re-solves nothing), shared by
   (a) exact distances for the stretch of every delivered query and (b)
   the shortest-path baseline, whose parent-tree walks charge the per-edge
   loads a shortest-path-routed network would see. Stretch samples land in
   per-query slots and are compacted in source-sorted order — the exact
   sequence the sequential pass produced — then sorted, so percentiles are
   bit-identical whatever the domain count. *)

open Dgraph
module H = Congest.Histogram

(* ---------- shared layout: flattened adjacency + slot -> edge id ---------- *)

type layout = {
  n : int;
  m : int;
  ndir : int;  (* directed slots = sum of degrees *)
  row_off : int array;  (* vertex v owns slots [row_off.(v), row_off.(v+1)) *)
  nbr : int array;  (* flattened neighbor ids *)
  wgt : float array;  (* flattened edge weights (unboxed) *)
  dir2eid : int array;  (* directed slot -> undirected edge id *)
}

let layout_of g =
  let n = Graph.n g in
  let m = Graph.m g in
  let row_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row_off.(v + 1) <- row_off.(v) + Graph.degree g v
  done;
  let ndir = row_off.(n) in
  let nbr = Array.make (max 1 ndir) (-1) in
  let wgt = Array.make (max 1 ndir) nan in
  for v = 0 to n - 1 do
    Array.iteri
      (fun p (u, w) ->
        nbr.(row_off.(v) + p) <- u;
        wgt.(row_off.(v) + p) <- w)
      (Graph.neighbors g v)
  done;
  let dir2eid = Array.make (max 1 ndir) (-1) in
  List.iteri
    (fun eid { Graph.u; v; _ } ->
      (match Graph.port g u v with
      | Some p -> dir2eid.(row_off.(u) + p) <- eid
      | None -> assert false);
      match Graph.port g v u with
      | Some p -> dir2eid.(row_off.(v) + p) <- eid
      | None -> assert false)
    (Graph.edges g);
  { n; m; ndir; row_off; nbr; wgt; dir2eid }

(* directed slot of hop (a, b): scan a's row. Degrees are O(1) on our
   topologies; returns an absolute slot index. Closed top-level recursion —
   a nested [let rec] would allocate its closure on every hop. *)
let rec scan_row nbr b s r1 =
  if s >= r1 then -1
  else if Array.unsafe_get nbr s = b then s
  else scan_row nbr b (s + 1) r1

let slot_of lay a b = scan_row lay.nbr b lay.row_off.(a) lay.row_off.(a + 1)

(* ---------- source-keyed partition ---------- *)

(* Counting sort of query indices by source: [order.(src_off.(s) ..
   src_off.(s+1)-1)] are the original indices of source s's queries, in
   original order. *)
let source_order n queries =
  let nq = Array.length queries in
  let by_src = Array.make n 0 in
  Array.iter (fun (s, _) -> by_src.(s) <- by_src.(s) + 1) queries;
  let src_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    src_off.(v + 1) <- src_off.(v) + by_src.(v)
  done;
  let order = Array.make (max 1 nq) 0 in
  let cursor = Array.copy src_off in
  Array.iteri
    (fun i (s, _) ->
      order.(cursor.(s)) <- i;
      cursor.(s) <- cursor.(s) + 1)
    queries;
  (by_src, src_off, order)

(* Chunk d owns sources [bounds.(d), bounds.(d+1)): boundaries are the
   smallest source ids whose cumulative query count reaches d/nd of the
   matrix — a pure function of (queries, nd), so the partition (and hence
   the merge order) is deterministic. *)
let chunk_bounds ~domains n nq src_off =
  if domains < 1 then invalid_arg "Engine: domains must be >= 1";
  let nd = max 1 (min domains (max 1 n)) in
  let bounds = Array.make (nd + 1) n in
  bounds.(0) <- 0;
  for d = 1 to nd - 1 do
    let target = nq * d / nd in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if src_off.(mid) >= target then hi := mid else lo := mid + 1
    done;
    bounds.(d) <- !lo
  done;
  (nd, bounds)

(* Run [work 0 .. work (nd-1)] with chunks 1.. on spawned domains and chunk
   0 on the caller; results come back in chunk order, so merges are
   deterministic. *)
let scatter_gather nd work =
  if nd = 1 then [| work 0 |]
  else begin
    let spawned =
      Array.init (nd - 1) (fun i -> Domain.spawn (fun () -> work (i + 1)))
    in
    let r0 = work 0 in
    Array.append [| r0 |] (Array.map Domain.join spawned)
  end

(* ---------- the timed forwarding pass ---------- *)

let error_kinds = [| "unreachable"; "bad-vertex"; "bad-port"; "no-table"; "ttl" |]

type forwarded = {
  fwd_queries : int;
  fwd_domains : int;
  fwd_delivered : int;
  fwd_failed : int;
  fwd_errors : (string * int) list;
  fwd_err_code : int array;
  fwd_seconds : float;
  fwd_loop_alloc_bytes : float;
  fwd_hops : H.t;
  fwd_edge_load : int array;
  fwd_weight : float array;
}

let forward ?(domains = 1) g router queries =
  let lay = layout_of g in
  let nq = Array.length queries in
  let _, src_off, order = source_order lay.n queries in
  let nd, bounds = chunk_bounds ~domains lay.n nq src_off in
  let weight = Array.make (max 1 nq) nan in
  let err_code = Array.make (max 1 nq) 0 in
  (* Gc.allocated_bytes counts runtime-wide in OCaml 5, so one domain's
     bracket would otherwise catch another's scratch-buffer setup or
     spawn/teardown machinery; spin barriers fence the brackets so while
     any is open, every domain is inside its allocation-free loop *)
  let ready = Atomic.make 0 and finished = Atomic.make 0 in
  let await c =
    Atomic.incr c;
    while Atomic.get c < nd do
      Domain.cpu_relax ()
    done
  in
  (* one scratch buffer, one load accumulator, one hop histogram and one
     weight cell per domain; [weight]/[err_code] slots are disjoint across
     domains, so the only shared writes are single-writer *)
  let work d =
    let q0 = src_off.(bounds.(d)) and q1 = src_off.(bounds.(d + 1)) in
    let buf = Packed_router.buffer router in
    let dir_load = Array.make (max 1 lay.ndir) 0 in
    let hops = H.create () in
    let wacc = Array.make 1 0.0 in
    let delivered = ref 0 and failed = ref 0 in
    await ready;
    let a0 = Gc.allocated_bytes () in
    for qi = q0 to q1 - 1 do
      let i = order.(qi) in
      let src, dst = queries.(i) in
      let len = Packed_router.route_len router ~buf ~src ~dst in
      if len < 1 then begin
        incr failed;
        err_code.(i) <- -len
      end
      else begin
        incr delivered;
        H.add hops (len - 1);
        wacc.(0) <- 0.0;
        for j = 0 to len - 2 do
          let s = slot_of lay buf.(j) buf.(j + 1) in
          dir_load.(s) <- dir_load.(s) + 1;
          wacc.(0) <- wacc.(0) +. lay.wgt.(s)
        done;
        weight.(i) <- wacc.(0)
      end
    done;
    let a1 = Gc.allocated_bytes () in
    await finished;
    (dir_load, hops, !delivered, !failed, a1 -. a0)
  in
  let t0 = Unix.gettimeofday () in
  let shards = scatter_gather nd work in
  let seconds = Unix.gettimeofday () -. t0 in
  (* barrier merge: sum the per-domain counters, then fold directed slots
     into undirected edge loads *)
  let dir_load, _, _, _, _ = shards.(0) in
  for d = 1 to nd - 1 do
    let dl, _, _, _, _ = shards.(d) in
    for s = 0 to lay.ndir - 1 do
      dir_load.(s) <- dir_load.(s) + dl.(s)
    done
  done;
  let edge_load = Array.make (max 1 lay.m) 0 in
  for s = 0 to lay.ndir - 1 do
    if dir_load.(s) > 0 then begin
      let e = lay.dir2eid.(s) in
      edge_load.(e) <- edge_load.(e) + dir_load.(s)
    end
  done;
  let hops =
    H.merge_list (Array.to_list (Array.map (fun (_, h, _, _, _) -> h) shards))
  in
  let delivered =
    Array.fold_left (fun acc (_, _, d, _, _) -> acc + d) 0 shards
  and failed = Array.fold_left (fun acc (_, _, _, f, _) -> acc + f) 0 shards
  and alloc = Array.fold_left (fun acc (_, _, _, _, a) -> acc +. a) 0.0 shards in
  let by_kind = Array.make (Array.length error_kinds) 0 in
  Array.iter
    (fun c -> if c > 0 then by_kind.(c - 1) <- by_kind.(c - 1) + 1)
    err_code;
  let errors = ref [] in
  for k = Array.length by_kind - 1 downto 0 do
    if by_kind.(k) > 0 then errors := (error_kinds.(k), by_kind.(k)) :: !errors
  done;
  {
    fwd_queries = nq;
    fwd_domains = nd;
    fwd_delivered = delivered;
    fwd_failed = failed;
    fwd_errors = !errors;
    fwd_err_code = err_code;
    fwd_seconds = seconds;
    fwd_loop_alloc_bytes = alloc;
    fwd_hops = hops;
    fwd_edge_load = edge_load;
    fwd_weight = weight;
  }

(* ---------- the untimed evaluation pass ---------- *)

type sp_cache = {
  cache_dist : float array array;  (* [||] until source s is solved *)
  cache_parent : int array array;
}

let sp_cache g =
  let n = max 1 (Graph.n g) in
  { cache_dist = Array.make n [||]; cache_parent = Array.make n [||] }

type evaluated = {
  ev_domains : int;
  ev_sources : int;
  ev_seconds : float;
  ev_sp_hits : int;
  ev_sp_misses : int;
  ev_dijkstra_seconds : float;
  ev_stretches : float array;
  ev_base_load : int array;
}

let evaluate ?(domains = 1) ?cache g queries ~weight =
  let lay = layout_of g in
  let nq = Array.length queries in
  let by_src, src_off, order = source_order lay.n queries in
  let nd, bounds = chunk_bounds ~domains lay.n nq src_off in
  (* per-query stretch slots, written by the owning domain, compacted in
     source-sorted order afterwards — exactly the sequential sequence *)
  let st_raw = Array.make (max 1 nq) nan in
  let work d =
    let s0 = bounds.(d) and s1 = bounds.(d + 1) in
    let base_load = Array.make (max 1 lay.m) 0 in
    let sources = ref 0 and hits = ref 0 and misses = ref 0 in
    let dijkstra_s = ref 0.0 in
    for s = s0 to s1 - 1 do
      if by_src.(s) > 0 then begin
        incr sources;
        let dist, parent =
          match cache with
          | Some c when Array.length c.cache_dist.(s) > 0 ->
            incr hits;
            (c.cache_dist.(s), c.cache_parent.(s))
          | _ ->
            incr misses;
            let t0 = Unix.gettimeofday () in
            let { Sssp.dist; parent } = Sssp.dijkstra g ~src:s in
            dijkstra_s := !dijkstra_s +. (Unix.gettimeofday () -. t0);
            (match cache with
            | Some c ->
              c.cache_dist.(s) <- dist;
              c.cache_parent.(s) <- parent
            | None -> ());
            (dist, parent)
        in
        for qi = src_off.(s) to src_off.(s + 1) - 1 do
          let i = order.(qi) in
          let _, dst = queries.(i) in
          if Float.is_finite weight.(i) then begin
            let d = dist.(dst) in
            if dst = s then st_raw.(qi) <- 1.0
            else if Float.is_finite d && d > 0.0 then begin
              st_raw.(qi) <- weight.(i) /. d;
              (* baseline: charge the shortest-path tree path to dst *)
              let b = ref dst in
              while parent.(!b) >= 0 do
                let a = parent.(!b) in
                let e = lay.dir2eid.(slot_of lay a !b) in
                base_load.(e) <- base_load.(e) + 1;
                b := a
              done
            end
          end
        done
      end
    done;
    (base_load, !sources, !hits, !misses, !dijkstra_s)
  in
  let t0 = Unix.gettimeofday () in
  let shards = scatter_gather nd work in
  let seconds = Unix.gettimeofday () -. t0 in
  let base_load, _, _, _, _ = shards.(0) in
  for d = 1 to nd - 1 do
    let bl, _, _, _, _ = shards.(d) in
    for e = 0 to lay.m - 1 do
      base_load.(e) <- base_load.(e) + bl.(e)
    done
  done;
  let sources =
    Array.fold_left (fun acc (_, s, _, _, _) -> acc + s) 0 shards
  and hits = Array.fold_left (fun acc (_, _, h, _, _) -> acc + h) 0 shards
  and misses = Array.fold_left (fun acc (_, _, _, m, _) -> acc + m) 0 shards
  and dijkstra_seconds =
    Array.fold_left (fun acc (_, _, _, _, t) -> acc +. t) 0.0 shards
  in
  let stretches = Array.make (max 1 nq) nan in
  let ns = ref 0 in
  for qi = 0 to nq - 1 do
    if Float.is_finite st_raw.(qi) then begin
      stretches.(!ns) <- st_raw.(qi);
      incr ns
    end
  done;
  let stretches = Array.sub stretches 0 !ns in
  Array.sort compare stretches;
  {
    ev_domains = nd;
    ev_sources = sources;
    ev_seconds = seconds;
    ev_sp_hits = hits;
    ev_sp_misses = misses;
    ev_dijkstra_seconds = dijkstra_seconds;
    ev_stretches = stretches;
    ev_base_load = base_load;
  }

(* ---------- the composed run ---------- *)

type stats = {
  queries : int;
  domains : int;
  delivered : int;
  failed : int;
  errors : (string * int) list;
  sources : int;  (** distinct sources (Dijkstras run by the evaluation) *)
  seconds : float;  (** wall time of the timed forwarding pass *)
  qps : float;
  eval_seconds : float;
  sp_hits : int;
  sp_misses : int;
  dijkstra_seconds : float;
  loop_alloc_bytes : float;
  hops : H.t;
  stretch_p50 : float;
  stretch_p95 : float;
  stretch_max : float;
  stretch_avg : float;
  max_load : int;
  base_max_load : int;
  load : H.t;
  base_load : H.t;
}

let same_outcome a b =
  let key st =
    ( (st.queries, st.delivered, st.failed, st.errors, st.sources),
      (H.buckets st.hops, H.buckets st.load, H.buckets st.base_load),
      (st.stretch_p50, st.stretch_p95, st.stretch_max, st.stretch_avg),
      (st.max_load, st.base_max_load) )
  in
  compare (key a) (key b) = 0

(* nearest-rank percentile of a sorted float array *)
let fpercentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let idx = ((p * n) + 99) / 100 in
    sorted.(max 0 (min (n - 1) (idx - 1)))
  end

let run ?trace ?(label = "traffic") ?(clock0 = 0) ?(domains = 1) ?cache g
    router queries =
  let fwd = forward ~domains g router queries in
  let ev = evaluate ~domains ?cache g queries ~weight:fwd.fwd_weight in
  let stretches = ev.ev_stretches in
  let ns = Array.length stretches in
  let stretch_avg =
    if ns = 0 then nan
    else Array.fold_left ( +. ) 0.0 stretches /. float_of_int ns
  in
  (match trace with
  | None -> ()
  | Some tr ->
    Congest.Trace.add_closed_span tr
      ~detail:(Printf.sprintf "%d queries" fwd.fwd_queries)
      ~name:(label ^ ":forward") ~start_round:clock0
      ~end_round:(clock0 + fwd.fwd_queries) ();
    Congest.Trace.add_closed_span tr
      ~detail:(Printf.sprintf "%d sources" ev.ev_sources)
      ~name:(label ^ ":evaluate")
      ~start_round:(clock0 + fwd.fwd_queries)
      ~end_round:(clock0 + fwd.fwd_queries + ev.ev_sources)
      ());
  {
    queries = fwd.fwd_queries;
    domains = fwd.fwd_domains;
    delivered = fwd.fwd_delivered;
    failed = fwd.fwd_failed;
    errors = fwd.fwd_errors;
    sources = ev.ev_sources;
    seconds = fwd.fwd_seconds;
    qps =
      (if fwd.fwd_seconds > 0.0 then
         float_of_int fwd.fwd_queries /. fwd.fwd_seconds
       else 0.0);
    eval_seconds = ev.ev_seconds;
    sp_hits = ev.ev_sp_hits;
    sp_misses = ev.ev_sp_misses;
    dijkstra_seconds = ev.ev_dijkstra_seconds;
    loop_alloc_bytes = fwd.fwd_loop_alloc_bytes;
    hops = fwd.fwd_hops;
    stretch_p50 = fpercentile stretches 50;
    stretch_p95 = fpercentile stretches 95;
    stretch_max = (if ns = 0 then nan else stretches.(ns - 1));
    stretch_avg;
    max_load = Array.fold_left max 0 fwd.fwd_edge_load;
    base_max_load = Array.fold_left max 0 ev.ev_base_load;
    load = H.of_array fwd.fwd_edge_load;
    base_load = H.of_array ev.ev_base_load;
  }

let clock_after ~clock0 stats = clock0 + stats.queries + stats.sources
