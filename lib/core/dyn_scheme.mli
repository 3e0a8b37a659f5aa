(** Incremental maintenance of the routing scheme under churn.

    The static pipeline (hierarchy rows → clusters → tree schemes → labels)
    is recomputed from scratch by {!Scheme.build}; this module keeps the
    same structures alive across a {!Congest.Churn} stream, repairing only
    what a mutation disturbed:

    - {b Rows.} Each hierarchy level holds the lex fixpoint of
      [Sssp.dijkstra_sources] (distance to [A_i] plus smallest realizing
      source) together with a support-parent forest. A removal orphans the
      support subtrees below the severed tree edges; the orphaned region is
      reset and re-seeded from its boundary by a hop-limited relaxation
      wave. An insertion or weight decrease runs an unrestricted
      improvement wave from the endpoints. Both waves use the exact
      tie-break of the centralized reference, so repaired rows are
      bit-identical to a fresh recompute.
    - {b Clusters.} The truncated Dijkstra growing [C(w)] settles only
      [C(w) ∪ N(C(w))], so the owners whose clusters (members, distances
      or tree tie-breaks) may change are exactly those clustering a mutated
      endpoint, a vertex whose level-bound changed, or a neighbour of one.
      Affected clusters are regrown on the repaired rows; all others are
      reused as-is. A rebuild and a regrow install a cluster the same way:
      each member stores the owner's tree table, as
      {!Tz.Graph_routing.of_trees} does.
    - {b Labels.} A label is {!Tz.Graph_routing.label_of} over the
      maintained rows, with pivots promoted by
      {!Tz.Hierarchy.strict_pivot} — the rule exact TZ uses. Only the
      destinations whose rows or clusters moved are relabelled.
    - {b Damage trigger.} The repair escalates to a full bounded rebuild
      when the support-subtree-depth estimate of its cluster regrows (per
      level: deepest affected cluster tree, worst old-membership overlap,
      one kick-off round — the same shape the regrow itself charges)
      exceeds [rebuild_trigger ×] the last full build's charge. The
      already-paid row-wave rounds are sunk cost either way and do not
      weigh in. Depth, not membership size, is the proxy: on
      small-diameter graphs even span-everything clusters regrow in a few
      rounds, which is where the earlier size-based trigger escalated
      3–4× too often.
    - {b Degraded routing.} Mutations may be applied with [defer], leaving
      the structures stale; {!route} keeps answering, marking replies as
      [Stale] (structures behind by [n] mutations, path re-validated
      against the current graph) or [Recomputed] (fallback shortest path)
      until {!quiesce} repairs the backlog.

    Round charges model the CONGEST execution: a repair wave costs its
    maximum message hop count (+1 kick-off), orphan notification costs the
    flood depth, and concurrent cluster regrows cost the deepest tree plus
    the worst per-vertex overlap — the congestion parameter of Claim 6 —
    plus one kick-off round, per owner level. The
    same accounting prices a from-scratch rebuild ({!rebuild_charge}), so
    amortized-vs-rebuild comparisons are apples to apples.

    {!check_against_shadow} is the differential gate: an independent
    centralized recompute of every structure (rows via
    [Sssp.dijkstra_sources], clusters via [Cluster.of_owner_bound], tables
    and labels via a router assembled by {!Tz.Graph_routing.of_trees}) that
    must agree {e bit-exactly} with the maintained state. Support-parent
    forests are excluded — they are tie-break dependent and never influence
    routed outputs. *)

type params = {
  rebuild_trigger : float;
      (** fraction of the last full build's round charge that the
          support-subtree-depth estimate of the cluster regrows must
          exceed to escalate to a full rebuild *)
}

val default_params : params
(** [{ rebuild_trigger = 1.0 }] — escalate only when repairing is
    predicted to cost at least as much as rebuilding from scratch (at
    which point the rebuild strictly dominates: no dearer, and it resets
    accumulated staleness). *)

type source =
  | Fresh  (** structures quiesced; the scheme's own path *)
  | Stale of int
      (** the scheme's path, computed on structures [n] mutations behind,
          re-validated edge by edge against the current graph *)
  | Recomputed  (** scheme path broken by pending churn; exact fallback *)

type reply = {
  path : int list;  (** from [src] to [dst] on the current graph *)
  source : source;
  stretch : float option;
      (** routed weight / true distance in the current graph; [None] when
          [src = dst] *)
}

type repair = {
  gen : int;
  cls : string;  (** {!Congest.Churn.class_name} of the event *)
  touched : int;  (** row entries disturbed across all levels *)
  clusters_rebuilt : int;
  rounds : int;  (** charged CONGEST rounds for this repair *)
  full_rebuild : bool;  (** the damage trigger escalated *)
}

type stats = {
  generation : int;  (** newest accepted generation stamp *)
  events : int;  (** mutations fully repaired *)
  pending : int;  (** deferred mutations awaiting {!quiesce} *)
  build_rounds : int;  (** charge of the initial build *)
  repair_rounds : int;  (** cumulative charge of all repairs *)
  full_rebuilds : int;
}

type t

val create : ?params:params -> rng:Random.State.t -> k:int -> Dgraph.Graph.t -> t
(** Sample a hierarchy and build the initial structures. *)

val create_with_levels :
  ?params:params -> k:int -> int array -> Dgraph.Graph.t -> t
(** Build on externally fixed level memberships (one per vertex, each in
    [0, k-1]). Levels are immutable for the lifetime of the maintainer:
    a vertex that leaves keeps its level and owns a singleton cluster
    while isolated.
    @raise Invalid_argument on a malformed levels array. *)

val apply :
  ?defer:bool ->
  ?metrics:Congest.Metrics.t ->
  t ->
  Congest.Churn.event ->
  repair list
(** Accept one mutation. With [defer] (default [false]) the graph advances
    but repair is postponed and [[]] is returned; otherwise any backlog and
    this event are repaired in generation order and their repair records
    returned. [metrics] bumps the per-class churn counter.
    @raise Invalid_argument if the mutation does not apply to the current
    graph. *)

val quiesce : t -> repair list
(** Repair every deferred mutation, oldest generation first. *)

val route :
  t -> src:int -> dst:int -> (reply, Tz.Routing_error.t) result
(** Route on the maintained tables/labels; degraded but answering while
    mutations are pending (see {!source}). Stretch is measured against the
    {e current} graph, pending mutations included. *)

val router : t -> Tz.Graph_routing.t
(** The maintained tables and labels as an ordinary router (shares state;
    valid until the next [apply]). *)

val check_against_shadow : t -> string list
(** Differential gate: recompute everything centrally and compare
    bit-exactly. Empty means the maintained state is indistinguishable from
    a from-scratch build. @raise Invalid_argument while mutations are
    pending. *)

val rebuild_charge : t -> int
(** Charged rounds of a from-scratch build on the current repaired graph —
    the baseline an amortized repair stream is compared against. *)

val stats : t -> stats

val graph : t -> Dgraph.Graph.t
(** The graph the structures describe (excludes deferred mutations). *)

val current : t -> Dgraph.Graph.t
(** The graph with every accepted mutation applied. *)

val k : t -> int

val levels : t -> int array
(** Copy of the per-vertex hierarchy levels. *)
