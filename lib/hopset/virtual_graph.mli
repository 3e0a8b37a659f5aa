(** The implicit virtual graph [G' = (V', E')] of Appendix B.

    [V'] is a set of "virtual" vertices of a host graph [G]; the virtual
    edge [{u', v'}] has weight [d_G^{(B)}(u', v')] — the [B]-hop-bounded
    distance in [G]. The whole point of the paper is that [E'] is *never*
    materialized: every operation here is implemented by hop-bounded
    Bellman–Ford waves in the host graph ({!bf_iteration}), exactly as a
    CONGEST node would run them: each costs [b] host rounds.

    When [V'] contains a vertex in every [B]-hop window of every shortest
    path (Claim 7, guaranteed whp by sampling with probability
    [≥ (ln n)/B]), virtual distances coincide with host distances:
    [d_{G'}(u', v') = d_G(u', v')]. *)

type t

val make : Dgraph.Graph.t -> members:int list -> b:int -> t
(** [members] are the virtual vertices; [b] is the hop bound [B]. *)

val sample :
  rng:Random.State.t -> Dgraph.Graph.t -> b:int -> t
(** Sample each host vertex into [V'] independently with probability
    [4 ln n / b] (capped at 1) — the density that makes Claim 7 hold whp. *)

val host : t -> Dgraph.Graph.t
val b : t -> int
val size : t -> int
(** [|V'|]. *)

val members : t -> int array
val is_virtual : t -> int -> bool

val bf_iteration :
  t ->
  keep_going:(int -> float -> bool) ->
  ?origin:int array ->
  dist:float array ->
  parent:int array ->
  unit ->
  unit
(** One Bellman–Ford iteration {e on the virtual graph}, implemented as a
    [B]-round bounded wave in the host graph: {!Dgraph.Sssp.bf_rounds} with
    [hops = b t], in place on per-host-vertex estimates (usually [infinity]
    off [V']). With [keep_going] always true, [dist.(v')] becomes
    [min(dist.(v'), min_{u'} dist.(u') + d^{(B)}(u', v'))] for virtual
    vertices, and intermediate host vertices see the passing wave too (the
    paper uses this to grow cluster trees). A vertex [u] holding estimate
    [d] extends the wave only when [keep_going u d] holds — the "limited"
    explorations that grow (approximate) clusters without flooding the
    graph; vertices that fail the predicate still {e receive} values.
    [parent] gets the host parent of each improved vertex, and [origin],
    when given, the origin label of the sender, as a message would carry
    it. Ties go to the smallest sender id within a round and are never
    displaced by equal values in later rounds — the rule a synchronized
    protocol superstep applies, which is what makes the distributed
    attribution bit-identical.
    @raise Invalid_argument if an array's length is not the host's [n] *)

val edges_from : t -> int -> (int * float) list
(** The virtual edges incident to one virtual vertex, computed on demand:
    [(u', d^{(B)}(v', u'))] for every virtual [u'] within [B] hops.
    Host-round cost: [b t]. *)

val explicit : t -> Dgraph.Graph.t
(** Materialize [G'] with vertices renumbered [0..size-1] in [members]
    order — for tests ONLY (this is exactly what the paper avoids). *)

val to_virtual : t -> int -> int option
(** Host id -> index in [members], if virtual. *)
