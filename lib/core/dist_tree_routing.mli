(** The paper's contribution, part 1: distributed exact tree routing with
    O(1)-word tables, O(log n)-word labels and O(log n)-word working memory
    (Section 3 + Appendix A), executed message-by-message on the CONGEST
    simulator.

    Protocol outline, following the paper:

    + setup: every tree vertex learns its child count and its index among
      its siblings (two rounds, O(1) memory — no children lists are ever
      stored); a BFS tree of the *network* [G] is built from the tree root
      [z] and used for all broadcasts; [z] learns the eccentricity and
      [|U(T)|] by convergecast and floods the phase schedule;
    + a random set [U] (each vertex with probability [q ≈ 1/√n]) partitions
      [T] into local trees of height [Õ(1/q)];
    + Stage 1: local subtree sizes by convergecast inside local trees, then
      Algorithm 1 — [log n] pointer-jumping iterations, each broadcasting
      [(x, a_i(x), s_i(x))] from every [x ∈ U(T)] with random start times so
      every relay queue stays logarithmic — then a second local convergecast
      for global sizes and heavy children;
    + Stage 2: light-edge lists streamed down local trees (each vertex
      appends its own edge, stores nothing else), Algorithm 3 pointer
      jumping on the lists, and a final distribution wave;
    + Stage 3: Algorithm 5 (sibling prefix sums through the parent with O(1)
      parent state), the local DFS wave (Algorithm 4), Algorithm 6 pointer
      jumping on DFS shifts, and the final shift wave.

    The output is bit-compatible with the centralized scheme of
    {!Tz.Tree_routing} (same table/label types; DFS child order is sibling
    index order rather than heavy-first, which routing is agnostic to).

    The protocol keeps its own codec, BFS setup, watchdog and schedule, and
    runs on {!Protocol} like Appendix B's {!Superstep}: the same transport
    choice, agenda, dead-link loop and typed failures. *)

type outcome = {
  scheme : Tz.Tree_routing.scheme;
  report : Congest.Metrics.t;
  u_count : int;  (** |U(T)| including the root *)
  d_bfs : int;  (** eccentricity of the root in [G] (≥ D/2) *)
  failures : Protocol.failure list;
      (** empty on a clean run: the transport's outcome first, then per
          vertex by id — [Setup_timeout] (the one-shot watchdog at round
          4n + 64), [Link_lost], and [Harvest] for a broken invariant or an
          abort after a dead tree or BFS parent link *)
}

val run :
  rng:Random.State.t ->
  ?q:float ->
  ?stagger:bool ->
  ?faults:Congest.Fault.t ->
  ?reliable:bool ->
  ?config:Congest.Reliable.config ->
  ?trace:Congest.Trace.t ->
  ?max_rounds:int ->
  ?scheduler:Congest.Sim.scheduler ->
  ?domains:int ->
  Dgraph.Graph.t ->
  tree:Dgraph.Tree.t ->
  outcome
(** Run the protocol for [tree] (a tree whose edges are edges of the given
    network graph, e.g. a spanning tree or a cluster tree). [q] defaults to
    [1/√n]. The network must be connected.

    [stagger] (default true) controls the random broadcast start times of
    Algorithms 1/3/6. Setting it to false is an *ablation* of the paper's
    Lemma 2 trick: the protocol remains exact, but relay queues near the
    root grow to Θ(|U|) = Θ(√n) words — exactly the memory blow-up the
    staggering exists to prevent.

    [faults] runs the protocol under a {!Congest.Fault} plan. [reliable]
    (default: [true] iff a fault plan is given) runs the protocol over the
    {!Congest.Reliable} transport instead of the raw simulator: random
    drops/duplications/delays are then fully masked — the resulting [scheme]
    is bit-identical to the fault-free run, at the cost of extra real rounds
    and retransmissions (visible in [report]). Unmaskable faults (crashed
    vertices, dead links) degrade gracefully: affected vertices abort with
    typed per-vertex reasons in [failures], and the run terminates — it
    never deadlocks waiting on a crashed peer. [config] tunes the
    transport's retransmission timeouts.

    [trace] attaches an observability trace: the root emits one phase span
    per protocol stage ("setup", "stage1: local sizes", "alg1: pointer
    jumping", …) with per-iteration sub-spans inside the pointer-jumping
    phases, and the simulator records per-round samples into the trace ring
    (see {!Congest.Trace}).

    [max_rounds] caps the underlying simulator's round counter (the run then
    reports [Transport "round limit exceeded"] in [failures]); [scheduler]
    selects the simulator's round engine — outcomes and metrics are
    identical under either, only wall-clock differs. [domains] shards the
    event engine across OCaml domains (see {!Congest.Sim.Make.run}); the
    resulting scheme, metrics and failures are bit-identical to a
    single-domain run.

    @raise Invalid_argument if the tree uses non-edges of the graph *)

type batch_outcome = {
  outcomes : outcome list;
  serial_rounds : int;  (** Σ per-tree measured rounds — the naive bound *)
  parallel_rounds : int;
      (** Theorem 2's parallel schedule: the slowest tree's measured rounds
          plus the [√(s·n) log n] random-start window that lets all trees
          share the network (modelled; the per-tree protocols themselves
          are measured) *)
  peak_memory : int;  (** max over vertices of Σ per-tree peaks — O(s log n) *)
  max_overlap : int;  (** measured s: most trees sharing one vertex *)
}

val run_batch :
  rng:Random.State.t ->
  ?q:float ->
  Dgraph.Graph.t ->
  trees:Dgraph.Tree.t list ->
  batch_outcome
(** Theorem 2, second assertion: tree-routing schemes for a set of trees in
    which each vertex appears in at most [s] trees. Every tree's protocol is
    executed message-by-message (measured); the batch round count composes
    them under the paper's random-start-time schedule, and per-vertex memory
    adds across the trees a vertex belongs to ([q] defaults to [1/√(s·n)]
    as the paper prescribes). *)

val words_of_table : int
(** Table words per vertex (4 — the O(1) claim). *)

val label_words : Tz.Tree_routing.label -> int
