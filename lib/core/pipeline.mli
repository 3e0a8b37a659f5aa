(** Appendix B's whole distributed construction in one call: exact stage,
    exact gate, upper stage, upper gate, splice.

    {b Rng discipline.} [run] consumes one [rng] state, exactly as
    {!Scheme.build} would: {!Dist_scheme.run} draws the hierarchy, leaving
    the state positioned for the hopset level draw, which
    {!Dist_hopset.run} consumes next. Each gate needs a twin of the state
    its stage started from, so [run] copies the state twice — on entry for
    the exact gate, and right after the exact stage for the upper gate —
    and callers never handle those copies. The splice consumes nothing.

    {b Stop at the first failure.} A stage that reports failures ends the
    run: its gate is [Skipped], no later stage runs, and no scheme is
    spliced. A gate that finds divergences does {e not} stop the run; the
    verdict is reported and the caller decides. *)

type verdict =
  | Identical  (** the gate ran and found the stage bit-identical *)
  | Diverged of string list
      (** the gate ran; one line per divergence, as
          {!Dist_scheme.check_against_centralized} returns them *)
  | Skipped
      (** the gate did not run: checking was off, or the stage did not run
          or did not complete *)

val verdict_name : verdict -> string
(** ["identical"], ["diverged"] or ["skipped"]. *)

type t = {
  exact : Dist_scheme.outcome;
  upper : Dist_hopset.outcome option;
      (** [None] iff the upper stage did not run ([full] off, or the exact
          stage failed) *)
  scheme : Scheme.t option;
      (** the spliced scheme, every construction phase measured except
          the charged "tree routing schemes"; [Some] iff the upper stage
          completed *)
  exact_gate : verdict;
  upper_gate : verdict;
  gate_mode : Dist_scheme.gate_mode;
      (** the mode both gates run in: {!Dist_scheme.auto_gate_mode} of the
          vertex count *)
  failures : Protocol.failure list;
      (** the failing stage's; empty iff every stage that ran completed *)
  metrics : Congest.Metrics.t;  (** every stage that ran, merged *)
  phases : (string * int) list;
      (** measured rounds per protocol phase, in time order across both
          stages *)
  traffic : (string * Superstep.traffic) list;
      (** each phase's messages, supersteps and detection waves, aligned
          with [phases] *)
}

val run :
  rng:Random.State.t ->
  k:int ->
  ?params:Scheme.Params.t ->
  ?faults:Congest.Fault.t ->
  ?reliable:bool ->
  ?max_rounds:int ->
  ?domains:int ->
  ?check:bool ->
  ?full:bool ->
  Dgraph.Graph.t ->
  t
(** Run the construction on [rng]. [params.b] bounds the exact stage's
    virtual wave; [lambda], [beta] and [epsilon] drive the upper stage.
    [?faults], [?reliable], [?max_rounds] and [?domains] apply to every
    protocol run, as in {!Dist_scheme.run}. [?check] (default [true]) runs
    each completed stage's differential gate. [?full] (default [true])
    continues past the exact stage; with [~full:false] only the exact stage
    and its gate run. *)
