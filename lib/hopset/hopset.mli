(** Hopsets over an implicit virtual graph, with path recovery.

    A [(β, ε)]-hopset [H] for [G'] is a weighted edge set on [V'] such that
    [d_{G'}(u,v) ≤ d^{(β)}_{G' ∪ H}(u,v) ≤ (1+ε)·d_{G'}(u,v)]. Every hopset
    edge carries the host-graph path that realizes its weight — the
    path-recovery mechanism of Section 2, which lets intermediate host
    vertices join cluster trees that travel over hopset edges.

    Explorations over [G' ∪ H] never materialize [E']: a single
    Bellman–Ford iteration is (a) one [B]-bounded wave in the host graph
    (the [E'] relaxation) followed by (b) relaxing the explicit hopset
    edges. This mirrors Lemma 2 of the paper: an exploration of [β]
    iterations ({!run}) costs [β·(B + relaxation)] host rounds, which the
    callers charge. *)

type edge = {
  x : int;  (** host id *)
  y : int;  (** host id *)
  w : float;
  path : int array;  (** host path from [x] to [y] with weight [w] *)
}

type t

val make : Virtual_graph.t -> edge list -> t
(** @raise Invalid_argument if an edge endpoint is not virtual, or a path
    does not connect its endpoints *)

val virtual_graph : t -> Virtual_graph.t
val edges : t -> edge array
val size : t -> int

val out_edges : t -> int -> int list
(** Indices of hopset edges stored at (oriented out of) a host vertex. The
    construction orients edges so that this is the vertex's "parents in the
    arboricity decomposition"; its length is the vertex's hopset storage. *)

val max_out_degree : t -> int
(** The measured arboricity-style bound: max hopset edges stored at one
    vertex. *)

val measured_arboricity : t -> int
(** Greedy forest count of the hopset graph itself (≤ 2·arboricity). *)

(** {1 Explorations in [G' ∪ H]} *)

type provenance =
  | Unreached
  | Source
  | Via_host of int  (** improved by host neighbour [p] during a wave *)
  | Via_hopset of int  (** improved through hopset edge [index] *)

val run :
  ?keep_host:(int -> float -> bool) ->
  ?keep_virtual:(int -> float -> bool) ->
  t ->
  sources:(int * float) list ->
  beta:int ->
  float array * provenance array * int array
(** [β] Bellman–Ford iterations on [G' ∪ H] from the given host sources
    (with initial offsets). Returns per-host-vertex distance estimates, the
    provenance of each vertex's final value, and the source whose wave set
    that value ([-1] when unreached) — how approximate pivot {e identities}
    are found. Estimates of non-virtual host vertices reflect the waves
    that passed over them.

    The limited exploration of Appendix B: during the host waves a vertex
    [u] with estimate [d] forwards only if [keep_host u d]; a virtual
    vertex relaxes its hopset edges only if [keep_virtual u d]. Sources
    always forward; both limits default to none. *)

val beta_distance : t -> src:int -> dst:int -> beta:int -> float
(** Convenience wrapper over {!run} for a single pair. *)

(** {1 Verification} *)

type check = {
  pairs : int;
  violations : int;  (** pairs with [d^{(β)} > (1+ε)·d] *)
  worst_ratio : float;
  beta : int;
  epsilon : float;
}

val verify :
  rng:Random.State.t -> t -> beta:int -> epsilon:float -> pairs:int -> check
(** Sample virtual pairs, compare [β]-hop distances in [G' ∪ H] against
    exact host distances (= virtual distances under Claim 7). *)

val measure_beta :
  rng:Random.State.t -> t -> epsilon:float -> pairs:int -> max_beta:int -> int option
(** Smallest [β ≤ max_beta] for which {!verify} reports no violation on the
    sampled pairs. *)
