(** Appendix B's upper stage as a real CONGEST protocol.

    {!Scheme.Upper_stage.compute} computes the hopset construction and the
    [β]-iteration approximate Bellman–Ford centrally and merely {e charges}
    rounds through {!Cost}. This module executes that stage
    message-by-message on the simulator — over either raw {!Congest.Sim} or
    {!Congest.Reliable}, the protocol body written once against
    {!Congest.Sim.TRANSPORT}, reporting typed {!Protocol.failure}s like the
    exact stage — and returns the same {!Scheme.Upper_stage.t}
    record, whose [phases] carry the {e measured} rounds and per-vertex
    memory. Stacked on [Dist_scheme] (the exact stage) and spliced through
    {!Scheme.build_from_exact}, the entire Appendix B construction runs as
    messages, end to end; {!Pipeline.run} chains the stages with their
    gates.

    Two {!Superstep} runs, the engine {!Dist_scheme} drives too:

    + {e run A (construction)} computes the wave fixpoints the hopset edge
      list is a pure function of ({!Hopsets.Construct.fields}). The hopset
      is a Thorup–Zwick hierarchy on the virtual vertices, so these are
      the exact stage's own waves ({!Dist_scheme.waves}) run on the hopset
      levels: one lexicographic [(dist, src)] pivot wave per hopset level
      [1..λ-1], then one cluster wave per bunch level [0..λ-1] with all
      owners of that level concurrent (a vertex forwards an owner's entry
      only while it lies under the vertex's own level field — the
      superclustering pruning rule; the top level is unbounded). Every
      reached entry is harvested, as in {!Hopsets.Construct.bunch_field}.
      No deposit reads a parent, so every phase is a continuous segment
      closed by termination detection.
      The fields feed the {e shared} {!Hopsets.Construct.assemble}, so the
      distributed edge list is bit-identical to
      {!Hopsets.Construct.tz_hopset} whenever the fields are;
    + {e run B (approximation)} executes, per high level, [β] iterations of
      {e [B]-budget host wave} (a barrier segment) then {e relay segment}
      (a continuous one): hopset-edge endpoints launch their post-wave
      values along the stored host paths (every path vertex forwards a
      relay as it arrives, by next-hop tables deposited from run A's edge
      list), the far endpoint buffers proposals and commits them when the
      segment closes by lex-min [(value, edge)] — a distributed Jacobi
      step, bit-identical to [Hopset.run_core]'s snapshot relaxation.
      Cluster phases append a continuous {e recovery segment} (backward
      trigger to the feeding endpoint, forward accumulating walk, commit
      at the close by lex-min [(acc, prev)]) and a final [B]-budget
      limited wave, mirroring {!Scheme.Upper_stage.wave} clause for
      clause. The harvest hands each owner's candidates to
      {!Scheme.Upper_stage.of_candidates}, which builds its tree.

    Exactness notes: wave commits in run B are {e stamped} — within one
    superstep an equal value from a smaller sender displaces (matching the
    centralized iteration's ascending scan), across supersteps only strict
    improvements commit. Every wave segment re-marks all entries dirty at
    open (a fresh Bellman–Ford iteration relaxes every estimate, not just
    the last superstep's commits). The differential gate
    {!check_against_centralized} proves levels, level fields, bunch fields,
    the assembled edge list, pivot estimates with attributions and every
    cluster wave (candidate distances, parents, recovery joins, tree)
    bit-identical to the centralized computation. *)

val failure_to_string : Protocol.failure -> string
(** {!Protocol.failure_to_string}: the stage reports the engine's typed
    failures. *)

type outcome = {
  upper : Scheme.Upper_stage.t option;
      (** [Some] iff both runs completed cleanly: the record
          {!Scheme.build_from_exact} splices, with {e measured} phases *)
  fields : Hopsets.Construct.fields;
      (** run A's harvested wave fixpoints (partial on failure) *)
  hopset : Hopsets.Hopset.t option;
      (** the assembled hopset, once run A's fields pass
          {!Hopsets.Construct.assemble} *)
  lambda : int;
  b : int;  (** virtual-edge hop bound, taken from the exact stage *)
  members : int list;  (** [A_{⌈k/2⌉}], ascending *)
  xlevels : int array;  (** exact-hierarchy level per vertex *)
  k : int;
  ih : int;
  report : Congest.Metrics.t;  (** both runs merged *)
  phase_rounds : (string * int) list;
      (** measured rounds per protocol phase, chronological across both
          runs *)
  phase_traffic : (string * Superstep.traffic) list;
      (** per phase, aligned with [phase_rounds]: data and control messages,
          supersteps and detection waves *)
  failures : Protocol.failure list;  (** empty iff both runs completed cleanly *)
}

val run :
  rng:Random.State.t ->
  ?params:Scheme.Params.t ->
  ?faults:Congest.Fault.t ->
  ?reliable:bool ->
  ?max_rounds:int ->
  ?domains:int ->
  Dgraph.Graph.t ->
  Dist_scheme.outcome ->
  outcome
(** Execute the upper stage on top of a clean {!Dist_scheme.run} outcome.
    [rng] must be the {e same state} [Dist_scheme.run] left positioned
    (i.e. where {!Scheme.build}'s sampling ends): the hopset level draw
    consumes exactly the stream {!Hopsets.Construct.tz_hopset} would, so
    levels are bit-identical on the same seed. [params] supplies
    [lambda]/[beta]/[epsilon] ([b] is taken from the exact-stage outcome).
    [?reliable] defaults to running over {!Congest.Reliable} iff [?faults]
    is given. On any failure [upper] is [None] and [failures] is
    non-empty — never a silently wrong stage. *)

val check_against_centralized :
  rng:Random.State.t ->
  ?mode:Dist_scheme.gate_mode ->
  Dgraph.Graph.t ->
  outcome ->
  string list
(** The differential gate. [rng] must be a {e copy captured just before}
    {!run} consumed the level draw (i.e. right after [Dist_scheme.run]
    returned). Compares bit-for-bit: hopset levels, every per-level lex
    field, bunch fields, the assembled edge list (exact mode re-runs
    {!Hopsets.Construct.compute_fields}[ + assemble] and compares edge for
    edge), every pivot-estimate array with its origin attribution against
    {!Scheme.Upper_stage.pivot_estimate}, and per-owner cluster waves
    (candidate distance, parent, recovery-join flag, tree) against
    {!Scheme.Upper_stage.wave}. Empty = identical.

    [?mode] (default [Exact]) controls the per-member bunch fields and the
    per-owner cluster waves — the two Dijkstra-like-per-element blockers at
    large [n]; [Sampled] keeps levels, level fields and all pivot
    estimates exactly checked and spot-checks the rest. *)

val build_scheme :
  rng:Random.State.t -> Dgraph.Graph.t -> Dist_scheme.outcome -> outcome -> Scheme.t
(** Splice both protocol outcomes' records ({!Scheme.build_from_exact}):
    every upper-stage phase of the cost carries measured spans. One
    construction phase stays charged: "tree routing schemes", booked by
    Theorem 2's formula. [rng] is ignored; it stays in the signature for
    the benchmark's call.
    @raise Invalid_argument naming the first failure of either outcome: a
    failed stage is never spliced, nor replaced by a centralized one. *)
