(** Appendix B's exact stage as a real CONGEST protocol.

    {!Scheme.build} computes the exact half of the construction (hierarchy
    sampling, exact pivots and clusters below level [⌈k/2⌉], implicit
    virtual-edge distances) centrally and merely {e charges} rounds through
    {!Cost}. This module executes that same stage message-by-message on the
    simulator — over either the raw {!Congest.Sim} transport or
    {!Congest.Reliable} (the protocol body is written once against
    {!Congest.Sim.TRANSPORT}) — and returns a {!Scheme.Exact_stage.t} whose
    [phases] carry the {e measured} rounds and per-vertex memory instead of
    the charged formulas. {!Scheme.build_from_exact} then turns it into a
    full routing scheme.

    Protocol outline: one {!Superstep} run of {!waves}, whose BFS tree
    rooted at vertex 0 synchronizes a sequence of {e phases}, each a
    sequence of {e supersteps}. {!Dist_hopset}'s construction run drives
    the same pivot and cluster waves on the hopset hierarchy.

    + one superstep performs exactly one Bellman–Ford iteration: dirty
      entries snapshotted at the barrier are offered to every neighbour
      except the one they were learned from, at most [edge_capacity] per
      edge per round — so a congested superstep costs as many rounds as its
      most loaded edge needs, which is precisely what the measured spans
      capture;
    + pivot phases (levels [1..⌈k/2⌉]): lexicographic [(dist, src)]
      relaxations from all of [A_j]; the unique lex fixpoint equals
      {!Dgraph.Sssp.dijkstra_sources} bit-for-bit;
    + cluster phases (levels [0..⌈k/2⌉-1]): one limited wave per level, all
      owners concurrently; a vertex forwards an entry only while it lies
      inside the cluster ([d < d(v, A_{i+1})], Claim 8), per-vertex state is
      its own bunch entries (counted into {!Congest.Metrics} memory);
    + virtual-edge phase: a [B]-bounded wave from every member of
      [A_{⌈k/2⌉}], giving each virtual vertex its implicit virtual-edge row
      [d^{(B)}(u', ·)] without materializing [G'] — after exactly [B]
      supersteps the values equal {!Hopsets.Virtual_graph.edges_from};
    + pivot and cluster phases end on quiescence (a superstep that sends no
      data), so their measured spans reflect actual convergence; the
      virtual phase is cut at exactly [B] supersteps.

    Exactness notes: hierarchy sampling is pre-drawn from [rng] with the
    exact stream {!Tz.Hierarchy.build} uses, so levels are bit-identical on
    the same seed (each vertex program closes over only its own level). The
    differential gate {!check_against_centralized} proves levels, exact
    distances, pivot attributions, cluster member sets/distances and
    virtual rows bit-identical to the centralized computation; cluster
    {e trees} are excluded — the distributed parents are valid shortest-path
    parents but break ties by message arrival rather than heap order. *)

(** The engine's typed failures ({!Superstep.failure}), re-exported. *)
type failure = Superstep.failure =
  | Setup_timeout of { vertex : int; round : int }
  | Stalled of { vertex : int; round : int; phase : string; superstep : int }
  | Link_lost of { vertex : int; neighbor : int; reason : string }
  | Harvest of { vertex : int; reason : string }
  | Transport of string

val failure_to_string : failure -> string
val pp_failure : Format.formatter -> failure -> unit

type outcome = {
  exact : Scheme.Exact_stage.t;
      (** levels, exact distances/pivots, clusters — with {e measured}
          phases *)
  virtual_rows : (int * (int * float) list) list;
      (** per member [v'] (ascending): the harvested entries
          [(u', d^{(B)}(u' → v'))], [u'] ascending — the implicit
          virtual-edge row deposited at [v'] by the [B]-bounded wave *)
  b : int;  (** the hop bound the virtual wave ran with *)
  members : int list;  (** [A_{⌈k/2⌉}], ascending *)
  report : Congest.Metrics.t;
  phase_rounds : (string * int) list;
      (** measured rounds per protocol phase, chronological (virtual rounds
          over {!Congest.Reliable} — identical to the fault-free run) *)
  failures : failure list;  (** empty iff the protocol completed cleanly *)
}

val run :
  rng:Random.State.t ->
  k:int ->
  ?b:int ->
  ?faults:Congest.Fault.t ->
  ?reliable:bool ->
  ?config:Congest.Reliable.config ->
  ?trace:Congest.Trace.t ->
  ?max_rounds:int ->
  ?domains:int ->
  Dgraph.Graph.t ->
  outcome
(** Execute the exact stage. [rng] is consumed exactly as
    {!Tz.Hierarchy.build} consumes it for sampling, leaving it positioned
    for the hopset construction — so [run] followed by {!build_scheme} on
    the same state reproduces {!Scheme.build}'s routing structures
    bit-for-bit. [?b] defaults to the paper's
    [min (n-1) ⌈4·n^{⌈k/2⌉/k}·ln n⌉]. [?reliable] defaults to running over
    {!Congest.Reliable} iff [?faults] is given; [?trace] receives
    root-emitted phase spans in real rounds. [?domains] shards the
    simulator's event engine across OCaml domains
    (see {!Congest.Sim.Make.run}); the outcome is bit-identical to a
    single-domain run. *)

(** {2 The waves, shared with the hopset construction}

    Run A of {!Dist_hopset} builds the hopset's Thorup–Zwick fields with
    these same waves, on the hopset hierarchy of the virtual vertices. *)

(** A phase of {!waves}. *)
type wave =
  | Setup  (** the engine's BFS setup (phase [-1]) *)
  | Pivot of int
      (** level [j >= 1]: a lexicographic [(dist, src)] wave from every
          vertex of level [>= j]; its fixpoint is
          {!Dgraph.Sssp.dijkstra_sources} bit-for-bit *)
  | Cluster of int
      (** level [i]: one wave per vertex of level [i], all concurrent; a
          vertex forwards an owner's entry only while it is closer than the
          vertex's own [Pivot (i+1)] distance (infinity above the pivot
          levels) *)
  | Virtual  (** the [B]-bounded wave from every vertex of level [>= pivots] *)

val waves :
  levels:int array ->
  pivots:int ->
  clusters:int ->
  ?virtual_b:int ->
  name:(wave -> string) ->
  detail:(wave -> string) ->
  words:(int -> int) ->
  deposit:(me:int -> wave -> key:int -> float -> via:int -> unit) ->
  ?faults:Congest.Fault.t ->
  ?reliable:bool ->
  ?config:Congest.Reliable.config ->
  ?trace:Congest.Trace.t ->
  ?max_rounds:int ->
  ?domains:int ->
  Dgraph.Graph.t ->
  Superstep.result
(** One {!Superstep} run of [Pivot 1 .. Pivot pivots], then
    [Cluster 0 .. Cluster (clusters-1)], then [Virtual] iff [?virtual_b]
    is given, cut at exactly that many supersteps; the other phases end on
    quiescence or after [2n+4] supersteps. [levels] is each vertex's level
    ([-1] takes part in no source set); [name] and [detail] label every
    phase. A vertex declares [words e] words while it holds [e] cluster or
    virtual entries.

    When a phase closes, each vertex hands its results to [deposit ~me]:
    after [Pivot j], its distance to level [j] with [key] the lex-min
    source; after [Cluster i] and [Virtual], one call per entry it
    reached, [key] the owner. [via] is the neighbour the value came from
    ([-1] at the source). The deposit keeps what its stage needs. *)

type gate_mode =
  | Exact
  | Sampled of { sample : int; seed : int }
      (** spot-check [sample] clusters and [sample] virtual rows,
          seed-deterministically chosen *)

val gate_threshold : int
(** Vertex count above which {!auto_gate_mode} switches to sampling. *)

val auto_gate_mode : int -> gate_mode
(** [auto_gate_mode n]: [Exact] for [n <= gate_threshold], else
    [Sampled] with 256 samples and a fixed seed — the policy the CLI and
    benches apply. *)

val gate_mode_name : gate_mode -> string
(** ["exact"] or ["sampled(sample=…,seed=…)"] — log this next to the gate
    verdict so a sampled pass is never mistaken for an exact one. *)

val gate_indices : gate_mode -> salt:(int -> int array) -> int -> int list
(** [gate_indices mode ~salt total]: the indices in [[0, total)] a gate
    recomputes, ascending — all in [Exact] mode, [sample] distinct ones
    drawn from [Random.State.make (salt seed)] in [Sampled] mode. *)

val check_against_centralized :
  rng:Random.State.t ->
  ?mode:gate_mode ->
  Dgraph.Graph.t ->
  outcome ->
  string list
(** The differential gate. Re-samples levels from [rng] (pass a state
    seeded exactly like [run]'s) and recomputes the exact stage centrally
    ({!Scheme.Exact_stage.distances}, {!Tz.Cluster.of_owner_bound},
    {!Hopsets.Virtual_graph.edges_from});
    returns one human-readable line per divergence — levels, per-level
    distances and pivot attributions, cluster member sets and distances,
    and every virtual row, all compared bit-for-bit. Empty = identical.

    [?mode] (default [Exact]) controls the per-cluster / per-virtual-row
    half, whose bounded waves cost a Dijkstra-like pass {e each} — the
    O(n·m)-ish blocker at large [n]. [Sampled] keeps levels, every
    per-level distance/pivot ({!Scheme.Exact_stage.distances}), the full
    cluster registration order and the member set exactly checked, and
    recomputes only the sampled clusters' member/distance lists and the
    sampled members' virtual rows ({!gate_indices}). *)

val build_scheme : rng:Random.State.t -> Dgraph.Graph.t -> outcome -> Scheme.t
(** Splice the distributed exact stage with the centralized upper stage:
    {!Scheme.Upper_stage.compute} on [rng] with the default parameters and
    [outcome.b] (the bound the virtual wave actually used), then
    {!Scheme.build_from_exact}. The resulting scheme's cost carries the
    protocol's measured spans for the exact phases and the upper stage's
    charges for the rest.
    @raise Invalid_argument naming the first failure if the outcome has
    any: a failed stage is never spliced. *)
