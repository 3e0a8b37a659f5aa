(** Single-source (and multi-source) shortest paths.

    Dijkstra is the exact reference used as ground truth by tests and by the
    stretch evaluator. Bellman–Ford variants compute the hop-bounded
    distances [d^(t)] that the paper's virtual-graph machinery is built on,
    and support the "limited" explorations used to grow clusters. *)

type result = {
  dist : float array;  (** [infinity] where unreachable *)
  parent : int array;  (** [-1] at sources and unreached vertices *)
}

val dijkstra : Graph.t -> src:int -> result

val dijkstra_multi : Graph.t -> srcs:int list -> result
(** Distance to the nearest source; [parent] forms a forest rooted at the
    sources. *)

val dijkstra_sources : Graph.t -> srcs:int list -> float array * int array
(** Multi-source Dijkstra with {e lexicographic} source attribution: the
    returned pair [(dist, src)] has [dist.(v)] the distance to the nearest
    source and [src.(v)] the {e smallest id} among the sources realizing that
    distance ([-1] if unreachable). This deterministic tie-break is the
    centralized reference for the distributed pivot waves, whose asynchronous
    relaxations converge to the same unique lex fixpoint. *)

val dijkstra_hops : Graph.t -> src:int -> result * int array
(** Dijkstra that also reports, for each vertex, the number of hops on the
    shortest path found (ties broken by the heap order). Used to measure the
    shortest-path diameter [S]. *)

val bf_rounds :
  Graph.t ->
  hops:int ->
  keep_going:(int -> float -> bool) ->
  ?origin:int array ->
  dist:float array ->
  parent:int array ->
  unit ->
  unit
(** The synchronous Bellman–Ford round that every hop-bounded wave here
    runs on. At most [hops] rounds run in place on [dist], stopping early
    at a fixpoint. In a round, every vertex [v] whose estimate [d] is
    finite and passes [keep_going v d] offers [d + w] to each neighbour,
    against the estimates the round started from; the smallest offer
    below the receiver's estimate commits, ties going to the smallest
    sender. [parent.(u)] becomes the sender of [u]'s last improvement and
    is untouched elsewhere, so a caller that fills [parent] with [-1]
    reads "improved in this call" as [parent.(u) >= 0]. When [origin] is
    given, an improvement also copies the sender's origin from the start
    of the round, exactly as a message would carry it.
    @raise Invalid_argument if an array's length is not [Graph.n g] *)

val bellman_ford : Graph.t -> src:int -> hops:int -> result
(** Hop-bounded distances: [dist.(v) = d^(hops)_G(src, v)] — the length of the
    shortest path using at most [hops] edges ([infinity] if none). *)

val bellman_ford_multi : Graph.t -> srcs:(int * float) list -> hops:int -> result
(** Multi-source hop-bounded distances with per-source initial offsets;
    source [s] starts at its offset rather than [0]. This is the primitive
    behind pivot computation (offset = 0) and hopset-assisted explorations
    (offset = current estimate). *)

val bellman_ford_limited :
  Graph.t ->
  src:int ->
  hops:int ->
  keep_going:(int -> float -> bool) ->
  result
(** Limited exploration: a vertex [v] with tentative distance [d] forwards the
    wave only if [keep_going v d] holds (the source always forwards). Vertices
    that received a value but failed the predicate still appear in [dist].
    This is the cluster-growing primitive of Appendix B. *)

val path_to : result -> int -> int list option
(** Reconstruct the path from the (a) source to [v] by following parents;
    [None] if unreachable. The list starts at the source and ends at [v]. *)

val path_weight : Graph.t -> int list -> float
(** Total weight of a vertex path.
    @raise Invalid_argument if consecutive vertices are not adjacent *)
