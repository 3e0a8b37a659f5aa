(** The forwarding engine: routes a traffic matrix through a
    {!Packed_router} hop by hop and accounts for what the network feels —
    sharded across OCaml 5 domains with a merge-at-barrier that is proven
    bit-identical to the sequential pass at every domain count.

    Both passes counting-sort the matrix by source and cut the source id
    range into [domains] contiguous chunks of roughly equal query count,
    so each source's queries (and its Dijkstra) stay local to one domain.
    The timed pass forwards every query allocation-free (one scratch path
    buffer and one per-directed-slot load accumulator per domain); the
    untimed evaluation pass runs one Dijkstra per distinct source —
    memoized in an optional {!sp_cache} shared across matrices — feeding
    both each query's stretch and the shortest-path baseline loads. At the
    barrier, loads are summed, hop histograms merge with the exact
    {!Congest.Histogram.merge}, and stretch samples are compacted in
    source-sorted order (the sequential sequence), so every derived
    statistic is independent of [domains]. *)

type stats = {
  queries : int;
  domains : int;  (** domain count actually used (clamped to [n]) *)
  delivered : int;
  failed : int;  (** unreachable (cross-component) or corrupt-state routes *)
  errors : (string * int) list;
      (** failed-query counts by typed-error kind (["unreachable"],
          ["bad-vertex"], ["bad-port"], ["no-table"], ["ttl"]), nonzero
          kinds only, fixed order — identical at every domain count *)
  sources : int;  (** distinct sources (= Dijkstras run by the evaluation) *)
  seconds : float;  (** wall time of the timed forwarding pass *)
  qps : float;  (** queries per second of the forwarding pass *)
  eval_seconds : float;  (** wall time of the untimed evaluation pass *)
  sp_hits : int;  (** evaluation Dijkstras answered by the {!sp_cache} *)
  sp_misses : int;  (** evaluation Dijkstras actually solved *)
  dijkstra_seconds : float;
      (** CPU seconds spent inside cache-miss Dijkstras, summed across
          domains — [sp_hits * (dijkstra_seconds / sp_misses)] estimates
          the wall clock a shared cache saved *)
  loop_alloc_bytes : float;
      (** bytes allocated inside the forwarding hot loops, summed across
          domains (Gc bracketing) — the allocation-regression gate *)
  hops : Congest.Histogram.t;  (** per-delivered-query hop counts *)
  stretch_p50 : float;
  stretch_p95 : float;
  stretch_max : float;  (** ≤ 4k−3 on a correct scheme *)
  stretch_avg : float;
  max_load : int;  (** max packets on one edge, routed paths *)
  base_max_load : int;  (** same for the shortest-path baseline *)
  load : Congest.Histogram.t;  (** per-edge loads, routed paths *)
  base_load : Congest.Histogram.t;  (** per-edge loads, baseline *)
}

val same_outcome : stats -> stats -> bool
(** [same_outcome a b]: [a] and [b] agree on every field except [domains],
    the timings, the cache counters ([sp_hits], [sp_misses]) and
    [loop_alloc_bytes] — the fields the engine promises are independent of
    the domain count. Compared with [compare], not [=], so the NaN stretch
    fields of an all-failed run equal themselves. *)

type sp_cache
(** Per-source single-source-shortest-path memo: the first evaluation to
    need source [s] solves and stores it; later evaluations over the same
    graph (other traffic models, other domain counts) reuse it. Within one
    evaluation each source is owned by exactly one domain, and runs are
    separated by the join barrier, so the cache needs no locking. Only
    ever share a cache across runs on the {e same} graph. *)

val sp_cache : Dgraph.Graph.t -> sp_cache
(** A fresh, empty cache for [g] (capacity one entry per vertex). *)

type forwarded = {
  fwd_queries : int;
  fwd_domains : int;
  fwd_delivered : int;
  fwd_failed : int;
  fwd_errors : (string * int) list;  (** as {!stats.errors} *)
  fwd_err_code : int array;
      (** per-query outcome: [0] delivered, else the 1-based index into
          the error-kind table — the finest-grained typed-error identity
          the domain gates compare *)
  fwd_seconds : float;  (** wall time, spawn to join *)
  fwd_loop_alloc_bytes : float;  (** as {!stats.loop_alloc_bytes} *)
  fwd_hops : Congest.Histogram.t;
  fwd_edge_load : int array;  (** per undirected edge id *)
  fwd_weight : float array;  (** per query; [nan] where failed *)
}

val forward :
  ?domains:int -> Dgraph.Graph.t -> Packed_router.t -> (int * int) array ->
  forwarded
(** The timed pass alone: route every (src, dst) pair through [domains]
    domains (default 1; raises [Invalid_argument] on [< 1]) and merge at
    the barrier. Every field except [fwd_seconds] is a pure function of
    (graph, router, matrix) — independent of [domains]. *)

type evaluated = {
  ev_domains : int;
  ev_sources : int;
  ev_seconds : float;
  ev_sp_hits : int;
  ev_sp_misses : int;
  ev_dijkstra_seconds : float;
  ev_stretches : float array;  (** sorted ascending; one per scored query *)
  ev_base_load : int array;  (** shortest-path baseline, per edge id *)
}

val evaluate :
  ?domains:int ->
  ?cache:sp_cache ->
  Dgraph.Graph.t ->
  (int * int) array ->
  weight:float array ->
  evaluated
(** The untimed pass alone, against the [fwd_weight] of a {!forward} over
    the same matrix. Deterministic (modulo the timing fields) and
    independent of [domains] and of the cache's prior contents. *)

val run :
  ?trace:Congest.Trace.t ->
  ?label:string ->
  ?clock0:int ->
  ?domains:int ->
  ?cache:sp_cache ->
  Dgraph.Graph.t ->
  Packed_router.t ->
  (int * int) array ->
  stats
(** {!forward} then {!evaluate}, assembled into {!stats}. With [?trace],
    two closed spans are appended per call — ["<label>:forward"] spanning
    one tick per query and ["<label>:evaluate"] spanning one tick per
    distinct source — starting at [clock0] (default 0); use
    {!clock_after} to stack phases. *)

val clock_after : clock0:int -> stats -> int
(** The clock value after a {!run} that started at [clock0]. *)
