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

    {!build} computes the two stages centrally ({!Exact_stage},
    {!Upper_stage}) and splices them ({!build_from_exact}); the distributed
    producers substitute either record. Centralized rounds are charged per
    phase with the paper's own cost lemmas and the *measured* congestion
    factors (see {!module:Cost}); memory words per vertex are counted from
    what each vertex actually stores. *)

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
      The differential gate uses it to check every per-level distance and
      attribution exactly, even where recomputing all [n] bounded cluster
      waves is infeasible. *)

  val compute : Dgraph.Graph.t -> k:int -> levels:int array -> t
  (** Centralized reference: per-level lex multi-source Dijkstra
      ({!Dgraph.Sssp.dijkstra_sources}) plus bounded truncated Dijkstra
      cluster growing ({!Tz.Cluster.of_owner_bound}), with the exact-cluster
      round/memory charges of the paper recorded in [phases]. *)
end

(** The {e upper stage} of Appendix B — the hopset, approximate pivot
    fields and approximate-cluster waves with their trees — as an
    interchange value mirroring {!Exact_stage}. {!Upper_stage.compute} is
    the centralized reference; [Dist_hopset] (lib/core) produces the same
    record by executing the stage message-by-message, with measured spans
    in [phases]. *)
module Upper_stage : sig
  type cluster_wave = {
    owner : int;
    level : int;
    cdist : float array;  (** candidate distance per host vertex *)
    cparent : int array;  (** candidate parent per host vertex *)
    joined : bool array;  (** joined by hopset path recovery *)
    tree : Dgraph.Tree.t;  (** [C̃(owner)], as {!of_candidates} prunes it *)
  }

  type t = {
    hopset : Hopsets.Hopset.t;  (** over [G'], which fixes [B] and [V'] *)
    epsilon : float;
    beta : int;
    pivot_estimates : (int * (float array * int array)) list;
        (** every level [ih < j < k]: [(d̂(·, A_j), origin attribution)];
            infinity and [-1] where [A_j] is empty *)
    cluster_waves : cluster_wave list;
        (** one per high-level owner, any order; looked up by
            [(owner, level)] *)
    phases : Cost.t;  (** charged (centralized) or measured (distributed) *)
  }

  val pivot_estimate :
    Hopsets.Hopset.t ->
    beta:int ->
    levels:int array ->
    int ->
    float array * int array
  (** [pivot_estimate h ~beta ~levels j]: [(d̂(·, A_j), origin)] from [β]
      Bellman–Ford iterations on [G' ∪ H] rooted at every vertex of level
      [>= j]; infinity and [-1] if there is none. *)

  val limits :
    n:int -> (int * (float array * int array)) list -> int -> float array
  (** [limits ~n pivot_estimates i]: level [i]'s cluster limit
      [d̂(·, A_{i+1})], infinity if the list has no level [i+1]. *)

  val of_candidates :
    epsilon:float ->
    limits:float array ->
    Dgraph.Graph.t ->
    level:int ->
    owner:int ->
    cdist:float array ->
    cparent:int array ->
    joined:bool array ->
    cluster_wave
  (** The wave with its tree: the owner, the vertices path recovery joined
      and those with [cdist·(1+ε) < limits], linked by [cparent], broken
      chains pruned. Both producers build their waves with it. *)

  val wave :
    hopset:Hopsets.Hopset.t ->
    epsilon:float ->
    beta:int ->
    limits:float array ->
    Dgraph.Graph.t ->
    level:int ->
    owner:int ->
    cluster_wave
  (** One owner's candidates — limited exploration in [G' ∪ H] (virtual
      limit [limits/(1+ε)²], host limit [limits/(1+ε)]), order-free path
      recovery along used hopset edges, a final [B]-bounded wave — passed
      to {!of_candidates}. *)

  val compute :
    rng:Random.State.t ->
    ?params:Params.t ->
    exact:Exact_stage.t ->
    Dgraph.Graph.t ->
    t
  (** Centralized reference: {!Hopsets.Construct.tz_hopset} on [rng] over
      [V' = A_{ih}], one {!pivot_estimate} per high level and one {!wave}
      per high-level owner, with the paper's charges in [phases]: "hopset",
      "approx pivots level j" per non-empty [A_j] and "approx clusters
      level i" per level [ih..k-1]. [rng]
      must be where {!build}'s sampling leaves it for bit-identical output,
      and [params.b] the bound of the exact stage's virtual wave, if it ran
      one. *)
end

val build :
  rng:Random.State.t ->
  k:int ->
  ?params:Params.t ->
  ?trace:Congest.Trace.t ->
  Dgraph.Graph.t ->
  t
(** {!Exact_stage.compute}, {!Upper_stage.compute} and {!build_from_exact}
    with the given {!Params} (default {!Params.default}).

    With [?trace], every {!Cost} phase is mirrored as a closed phase span:
    same [name], same rounds, on a clock of cumulative charged rounds — so
    [Cost.phases] and [Trace.phases] line up one-to-one and
    [Trace.phase_breakdown ~total_rounds:(Cost.total_rounds (cost t))] has
    no unattributed rows. *)

val build_from_exact :
  ?trace:Congest.Trace.t ->
  ?hierarchy:Tz.Hierarchy.t ->
  exact:Exact_stage.t ->
  upper:Upper_stage.t ->
  Dgraph.Graph.t ->
  t
(** The splice: replay [exact.phases] then [upper.phases] verbatim, install
    the exact clusters then the upper trees (level, owner ascending) with
    the strict exact pivots up to [ih] and the approximate ones above,
    charge "tree routing schemes" (Theorem 2) and audit memory. It reads
    the records only, so measured spans replace charges and nothing else
    changes. [?hierarchy] defaults to [Tz.Hierarchy.of_levels exact.levels];
    pass the built one to keep exact ground truth in {!hierarchy}.
    @raise Invalid_argument if [upper] lacks a high level's pivot estimates
    or a high-level owner's wave. *)

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
