(** Thorup–Zwick compact routing for general graphs (centralized).

    Built from the sampling hierarchy and the cluster trees: the routing
    table of [x] holds, for every cluster tree containing [x], the owner id
    and [x]'s O(1)-word tree-routing table — [Õ(n^{1/k})] words whp
    (Claim 6). The label of [y] holds, for each of its (strict) pivots [w]
    with [y ∈ C(w)], the pair [(w, y's tree label in T(w))] — [O(k log n)]
    words. Routing tries the label entries in level order and tree-routes in
    the first cluster tree that also contains the source; the delivered path
    has stretch at most [4k−3] (the [TZ01b]/[Che13] row of Table 1; the
    [4k−5] refinement trades a polylog-larger table and is reported
    separately by the paper).

    This module is the one router assembly: {!of_trees} installs the tree
    tables and {!label_of} is the label rule. Exact TZ ({!of_parts}),
    Appendix B's scheme (exact clusters on the low levels, approximate ones
    above) and the churn maintainer all build their routers with them, and
    differ only in the cluster trees and the pivots they pass. *)

type entry = { owner : int; tree_label : Tree_routing.label }

type t

val build : rng:Random.State.t -> k:int -> Dgraph.Graph.t -> t

val label_of :
  k:int ->
  pivot:(int -> int -> int) ->
  tree_label:(int -> int -> Tree_routing.label option) ->
  int ->
  entry list
(** [label_of ~k ~pivot ~tree_label y]: the label rule. [pivot i y] is
    [y]'s strict [i]-pivot ([-1] = none) and [tree_label w y] is [y]'s label
    in [T(w)] ([None] when [y ∉ C(w)]). Levels [0..k-1] are walked in
    increasing order; each pivot that differs from the previous level's
    contributes [(w, y's label in T(w))] when [y ∈ C(w)]. A pivot outside
    its own cluster (a promoted one) adds nothing: a later level covers
    it. *)

val of_trees :
  k:int -> n:int -> pivot:(int -> int -> int) -> (int * Dgraph.Tree.t) list -> t
(** [of_trees ~k ~n ~pivot trees]: the router on [n] vertices whose cluster
    trees are [trees], one [(owner, T(owner))] pair per owner. Every member
    of [T(w)] stores [w]'s {!Tree_routing} table under owner [w], installed
    in list order, and every label is {!label_of} with [pivot]. *)

val of_parts : k:int -> Dgraph.Graph.t -> Hierarchy.t -> Cluster.t array -> t
(** {!of_trees} on precomputed exact clusters, with the hierarchy's strict
    pivots (shares work with other experiments). *)

val assemble :
  k:int ->
  tables:(int, Tree_routing.table) Hashtbl.t array ->
  labels:entry list array ->
  t
(** Wrap tables and labels kept elsewhere — ones repaired in place under
    churn, say — so the router and the size meters here can be reused. The
    value shares the arrays. Label entries must be in level order. *)

val k : t -> int

val n : t -> int
(** Number of vertices the scheme was built for. *)

val label : t -> int -> entry list
(** Level-ordered label entries of a destination. *)

val fold_tables :
  t -> int -> (int -> Tree_routing.table -> 'a -> 'a) -> 'a -> 'a
(** Fold over vertex [v]'s routing-table rows [(owner, table)] in
    unspecified order — exposed so {!module:Serve.Packed_router} can compile
    the tables into flat arrays. *)

val table_words : t -> int -> int
(** Words stored by one vertex: 5 per cluster membership. *)

val label_words : t -> int -> int
val max_table_words : t -> int
val max_label_words : t -> int

val route : t -> src:int -> dst:int -> (int list, Routing_error.t) result
(** Hop-by-hop forwarding; the returned path starts at [src] and ends at
    [dst]. Failures are typed — render with {!Routing_error.to_string}. *)

val route_weight :
  Dgraph.Graph.t -> t -> src:int -> dst:int -> (float, Routing_error.t) result
(** Total weight of the routed path. *)
