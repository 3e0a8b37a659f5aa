(** The Thorup–Zwick sampling hierarchy [A_0 ⊇ A_1 ⊇ … ⊇ A_k = ∅].

    Every vertex of [A_{i-1}] is promoted to [A_i] independently with
    probability [n^{-1/k}]. The hierarchy fixes, for every vertex [v] and
    level [i], the distance [d(v, A_i)] and an [i]-pivot realising it.
    Pivots are chosen *strictly*: when [d(v, A_i) = d(v, A_{i+1})] the
    [i]-pivot is set to the [(i+1)]-pivot, which guarantees that whenever
    [p_i(v)] lives at level exactly [i] we have [v ∈ C(p_i(v))] — the
    property the routing scheme needs (cf. [TZ01b]). *)

type t

val sample : rng:Random.State.t -> k:int -> n:int -> t
(** Sample level memberships only (no distances); [k ≥ 1].
    Level [k] is empty by definition. *)

val of_levels : k:int -> int array -> t
(** Wrap externally computed level memberships (no distances). Used by the
    distributed exact stage, where each vertex samples its own level and the
    array is harvested from per-vertex state. The array is copied.
    @raise Invalid_argument if any level lies outside [0, k-1]. *)

val build : rng:Random.State.t -> k:int -> Dgraph.Graph.t -> t
(** Sample and compute pivots/distances on the given graph (exact, via
    multi-source Dijkstra per level). *)

val k : t -> int

val level : t -> int -> int
(** [level h v]: the largest [i] with [v ∈ A_i] (0 for unsampled vertices). *)

val mem : t -> int -> int -> bool
(** [mem h i v]: is [v ∈ A_i]? True for all [v] at [i = 0], false at [i = k]. *)

val members : t -> int -> int list
(** All vertices of [A_i], increasing order. *)

val dist_to_level : t -> int -> int -> float
(** [dist_to_level h i v = d_G(v, A_i)]; [0] at level 0; [infinity] at level
    [k] (and at unreachable levels). Requires a [build]-constructed
    hierarchy. *)

val pivot : t -> int -> int -> int option
(** [pivot h i v]: the strict [i]-pivot of [v] ([None] iff [A_i] is empty or
    unreachable). [pivot h 0 v = Some v]. Requires [build]. *)

val strict_pivot :
  dist:float array array -> pivots:int array array -> int -> int -> int
(** [strict_pivot ~dist ~pivots i v]: the strict-pivot rule, the one place
    it is written. [pivots.(j).(v)] is a raw [j]-pivot of [v] ([-1] = none)
    and [dist.(j).(v) = d(v, A_j)], for [i ≤ j ≤ top] with
    [top = Array.length pivots - 1]. The top level keeps its raw pivot;
    below it, level [j] takes level [j+1]'s strict pivot when there is one
    and [d(v, A_j) ≥ d(v, A_{j+1})], and its raw pivot otherwise. {!build}
    stores these for every level; callers that hold rows for only some
    levels pass those rows, so promotion stops at their top. *)

val pp : Format.formatter -> t -> unit
(** Level population summary. *)
