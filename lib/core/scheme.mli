(** The paper's contribution, part 2: the low-memory compact routing scheme
    for general graphs (Appendix B).

    Construction, following the paper:

    + sample the TZ hierarchy [A_0 ⊇ … ⊇ A_k = ∅];
    + levels [i < ⌈k/2⌉]: grow *exact* clusters by limited explorations of
      hop-depth [4·n^{(i+1)/k}·ln n] (Claim 8) — whp these see true
      distances, so we reuse the exact truncated Dijkstra;
    + the virtual vertex set is [V' = A_{k/2}] with
      [B = Θ(n^{(k/2)/k} log n)]-bounded virtual edges, never materialized;
    + a low-arboricity [(β,ε)]-hopset [H] with path recovery is built for
      the implicit [G'] ({!Hopsets.Construct});
    + approximate pivots: [β] Bellman–Ford iterations on [G' ∪ H] rooted at
      each high level [A_j], giving every host vertex
      [d̂(u, A_j) ≤ (1+ε)·d(u, A_j)] and an approximate-pivot identity;
    + approximate clusters for [i ≥ k/2]: limited explorations in [G' ∪ H]
      (virtual limit [d̂/(1+ε)²], host limit [d̂/(1+ε)]), path-recovery
      joins along used hopset edges, a final [B]-bounded limited wave, and a
      parent-pointer tree extraction — Claims 9/10 (the sandwich
      [C_{6ε}(v) ⊆ C̃(v) ⊆ C(v)]) are tested against this code;
    + the router is {!Tz.Graph_routing.of_trees} over the exact clusters
      and the approximate cluster trees — the same table install and label
      rule as exact TZ, routed with the same forwarding machine. Label
      pivots are the strict pivots of the exact levels
      ({!Tz.Hierarchy.strict_pivot} over levels [0..ih],
      [ih = max 1 ⌊k/2⌋]) and the approximate pivots above. Stretch: [4k−3+o(1)] as built here (the
      paper's [4k−5+o(1)] refinement costs a polylog-larger table).

    Rounds are charged per phase with the paper's own cost lemmas and the
    *measured* congestion factors (see {!module:Cost}); memory words per
    vertex are counted from what each vertex actually stores. *)

type t

(** Construction parameters, replacing the former optional-argument list of
    [build]. Extend by functional update of {!Params.default}:
    [{ Params.default with epsilon = 0.1 }]. *)
module Params : sig
  type t = {
    epsilon : float;  (** approximation slack; default 0.05 *)
    lambda : int;  (** hopset hierarchy depth; default 3 *)
    beta : int option;
        (** hop bound used in explorations; [None] = [max 8 (2·lambda)] *)
    b : int option;
        (** virtual-edge hop bound [B]; [None] = [4·n^{⌈k/2⌉/k}·ln n]
            capped at [n−1]. Forcing it below the hop diameter exercises the
            hop-bounded machinery (hopset jumps and path recovery) that the
            default hides on small inputs; explorations then reach only
            within [≈ β·B] hops, so [β·b] must cover the hop diameter for
            full delivery. *)
  }

  val default : t
  val pp : Format.formatter -> t -> unit
end

(** The {e exact stage} of Appendix B — hierarchy levels, exact distances,
    raw pivot attributions and exact clusters for all levels below
    [⌈k/2⌉] — as a standalone interchange value. {!Exact_stage.compute} is
    the centralized reference; [Dist_scheme] (lib/core) produces the same
    record by executing the stage message-by-message on the CONGEST
    simulator, with measured phase spans in [phases]. {!build_from_exact}
    consumes either one identically, which is what the differential gate
    leans on. *)
module Exact_stage : sig
  type t = {
    k : int;
    ih : int;  (** [max 1 (k/2)]: first level handled by the upper half *)
    levels : int array;  (** sampled level of each vertex *)
    dist : float array array;
        (** [dist.(i).(v) = d(v, A_i)] for [0 ≤ i ≤ ih] *)
    pivots : int array array;
        (** raw lexicographic attributions per level [0..ih] ([-1] if
            unreachable): smallest-id nearest member of [A_i].
            {!build_from_exact} promotes them with
            {!Tz.Hierarchy.strict_pivot}. *)
    clusters : Tz.Cluster.t list;
        (** exact clusters of levels [0..ih-1] in registration order (level
            ascending, owner ascending), member lists sorted by vertex id *)
    phases : Cost.t;
        (** charged phases (centralized) or measured spans (distributed);
            replayed verbatim into the scheme's {!Cost} by
            {!build_from_exact} *)
  }

  val claim8_depth : n:int -> k:int -> int -> int
  (** [claim8_depth ~n ~k i]: the Claim-8 exploration depth for level [i],
      [min n ⌈4·n^{(i+1)/k}·ln n⌉] — the hop budget after which the exact
      cluster/pivot waves of level [i] have provably converged. *)

  val default_b : n:int -> k:int -> int
  (** The paper's virtual-edge hop bound [B = min (n-1) ⌈4·n^{⌈k/2⌉/k}·ln n⌉]
      — the default {!Params.t.b} resolution, shared with [Dist_scheme]. *)

  val distances :
    Dgraph.Graph.t ->
    k:int ->
    levels:int array ->
    float array array * int array array
  (** The cheap half of {!compute}: [(dist, pivots)] from one lex
      multi-source Dijkstra per level [0..ih], without growing any cluster.
      The sampled differential gate uses it to keep every per-level
      distance and attribution exactly checked at sizes where recomputing
      all [n] bounded cluster waves is infeasible. *)

  val compute : Dgraph.Graph.t -> k:int -> levels:int array -> t
  (** Centralized reference: per-level lex multi-source Dijkstra
      ({!Dgraph.Sssp.dijkstra_sources}) plus bounded truncated Dijkstra
      cluster growing ({!Tz.Cluster.of_owner_bound}), with the exact-cluster
      round/memory charges of the paper recorded in [phases]. *)
end

val build :
  rng:Random.State.t ->
  k:int ->
  ?params:Params.t ->
  ?trace:Congest.Trace.t ->
  Dgraph.Graph.t ->
  t
(** Build the scheme with the given {!Params} (default {!Params.default}).

    With [?trace], every {!Cost} phase is mirrored as a closed phase span:
    same [name], same rounds, on a clock of cumulative charged rounds — so
    [Cost.phases] and [Trace.phases] line up one-to-one and
    [Trace.phase_breakdown ~total_rounds:(Cost.total_rounds (cost t))] has
    no unattributed rows. *)

(** The {e upper stage} of Appendix B — hopset edge list, approximate pivot
    fields and approximate-cluster candidate waves — as an interchange value
    mirroring {!Exact_stage}. [Dist_hopset] (lib/core) produces one by
    executing the hopset construction and the [β]-iteration approximate
    Bellman–Ford message-by-message; {!build_from_exact} with [?upper]
    consumes it in place of the centralized computation, replaying the
    measured [phases] spans instead of charging the hopset/approx formulas. *)
module Upper_stage : sig
  type cluster_wave = {
    owner : int;
    level : int;
    cdist : float array;  (** candidate distance per host vertex *)
    cparent : int array;  (** candidate parent per host vertex *)
    joined : bool array;  (** joined by hopset path recovery *)
  }

  type t = {
    hopset_edges : Hopsets.Hopset.edge list;
        (** exactly {!Hopsets.Construct.assemble}'s output edge list *)
    pivot_estimates : (int * (float array * int array)) list;
        (** per high level [j > ih]: [(d̂(·, A_j), origin attribution)] *)
    cluster_waves : cluster_wave list;
        (** one wave per high-level owner, any order; looked up by
            [(owner, level)] *)
    phases : Cost.t;  (** measured spans, replayed verbatim *)
  }
end

val approx_cluster_candidates :
  hopset:Hopsets.Hopset.t ->
  vg:Hopsets.Virtual_graph.t ->
  epsilon:float ->
  beta:int ->
  limits:float array ->
  Dgraph.Graph.t ->
  owner:int ->
  float array * Hopsets.Hopset.provenance array * float array * int array
  * bool array
(** One owner's approximate-cluster candidate computation — limited
    exploration in [G' ∪ H], order-free path recovery along used hopset
    edges, final [B]-bounded wave. Returns
    [(dist, prov, cdist, cparent, joined_by_path)]; the last three are what
    an {!Upper_stage.cluster_wave} must reproduce bitwise. Exposed as the
    centralized reference for the [Dist_hopset] differential gate. *)

val build_from_exact :
  rng:Random.State.t ->
  ?params:Params.t ->
  ?trace:Congest.Trace.t ->
  ?hierarchy:Tz.Hierarchy.t ->
  ?upper:Upper_stage.t ->
  exact:Exact_stage.t ->
  Dgraph.Graph.t ->
  t
(** Run the upper half (hopset, approximate pivots/clusters, labels, tree
    routing) on top of an already-computed exact stage. [exact.phases] is
    replayed verbatim into the scheme's cost/trace — so a distributed exact
    stage substitutes its {e measured} spans for the centralized charges
    while the rest of the accounting is unchanged. [?hierarchy] defaults to
    [Tz.Hierarchy.of_levels exact.levels] (levels only — sufficient for the
    upper half, which reads exact distances and pivots from [exact]); pass
    the fully built hierarchy to keep exact ground truth available through
    {!hierarchy} as {!build} does. [rng] drives the hopset construction and
    must be positioned exactly where {!build} leaves it after sampling for
    bit-identical output. Note that [params.b] must match the value the
    exact stage's virtual wave used, if it ran one. *)

(** {1 Routing} *)

val k : t -> int
val router : t -> Tz.Graph_routing.t
val route : t -> src:int -> dst:int -> (int list, Tz.Routing_error.t) result

val route_weight :
  Dgraph.Graph.t -> t -> src:int -> dst:int -> (float, Tz.Routing_error.t) result

(** {1 Measured quantities (Table 1 columns)} *)

val cost : t -> Cost.t
(** Per-phase round/memory charges; [Cost.total_rounds] is the "Number of
    Rounds" column. *)

val max_table_words : t -> int
val max_label_words : t -> int
val peak_memory_words : t -> int
(** Per-vertex peak across construction and the final state — the "Memory
    per vertex" column. *)

val avg_memory_words : t -> float

val per_vertex_memory : t -> int array
(** Final-state words stored by each vertex (tables + labels + hopset +
    bookkeeping) — feed to {!Congest.Histogram.of_array} for percentiles. *)

(** {1 Introspection for tests and experiments} *)

val hierarchy : t -> Tz.Hierarchy.t
val virtual_size : t -> int
val b_bound : t -> int
val beta : t -> int
val epsilon : t -> float
val hopset_size : t -> int
val hopset_max_store : t -> int

val approx_cluster_trees : t -> (int * Dgraph.Tree.t) list
(** High-level [(owner, C̃(owner) tree)] pairs. *)

val pivot_estimate : t -> level:int -> (float array * int array) option
(** [(d̂(·, A_level), approximate pivot ids)] for high levels. *)
