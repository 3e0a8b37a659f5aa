(** Thorup–Zwick clusters, cluster trees and bunches.

    For [w ∈ A_i \ A_{i+1}] the cluster is
    [C(w) = { v : d(w,v) < d(v, A_{i+1}) }]. Clusters are prefix-closed along
    shortest paths, so the truncated Dijkstra that grows them also yields a
    shortest-path *tree* spanning [C(w)] — the tree all routing happens in.
    The bunch [B(v) = { w : v ∈ C(w) }] is the dual object used by the
    distance oracle; whp [|B(v)| = O(k n^{1/k} log n)]. *)

type t = {
  owner : int;
  owner_level : int;
  tree : Dgraph.Tree.t;  (** shortest-path tree of [C(owner)], rooted there *)
  dist : (int * float) list;  (** members with their distance to [owner] *)
}

type scratch
(** Search state of {!of_owner_bound} over the host's vertex ids, reused
    across calls: each search resets only the entries the previous one
    touched, so growing a cluster costs O(|C| + its boundary), not O(n). A
    scratch serves one search at a time. *)

val scratch : int -> scratch
(** [scratch n]: fresh state for graphs on [n] vertices. *)

val of_owner : scratch:scratch -> Dgraph.Graph.t -> Hierarchy.t -> int -> t
(** Grow the cluster of one vertex by truncated Dijkstra. *)

val of_owner_bound :
  scratch:scratch ->
  Dgraph.Graph.t ->
  owner:int ->
  owner_level:int ->
  bound:(int -> float) ->
  t
(** Same truncated Dijkstra with an explicit truncation radius: a settled
    vertex [v] with distance [d] joins the cluster iff [d < bound v]. This is
    {!of_owner} with [bound v = d(v, A_{owner_level+1})]; callers that already
    hold the level distances (e.g. the distributed exact stage) pass them in
    directly instead of rebuilding a hierarchy.
    @raise Invalid_argument if [scratch] is sized for another graph *)

val all : Dgraph.Graph.t -> Hierarchy.t -> t array
(** [all g h] has one entry per vertex, indexed by owner id. *)

val mem : t -> int -> bool

val bunches : Dgraph.Graph.t -> Hierarchy.t -> (int * float) list array
(** [bunches g h].(v) lists [(w, d(v,w))] for every [w] with [v ∈ C(w)]
    (computed by inverting {!all}). *)

val max_membership : t array -> int
(** Max over vertices of the number of clusters containing it — the
    congestion parameter of Claim 6. *)
