(** Seed-deterministic fault plans for the CONGEST simulator.

    A plan describes what the *network* does to the protocol: random message
    drops, duplications and bounded delays, permanent link failures from a
    given round on, and crash-stop vertex failures. {!Sim.run} consults the
    plan at the send/deliver boundary, after capacity and word-limit
    accounting, so a faulty run is charged for every message the protocol
    actually pushed into the network — fault injection never relaxes the
    CONGEST constraints.

    Determinism: a plan is compiled from a {!spec} whose [seed] fully
    determines every verdict. The fate of a message is a pure hash of
    [(seed, round, src, dst, k)] where [k] is the message's index among the
    sends of the same directed edge in the same round — not a draw from a
    sequential random stream — so verdicts do not depend on the order the
    simulator asks for them. That order-independence is what lets the
    domain-sharded scheduler classify messages from many domains in
    parallel and still reproduce the single-domain run bit for bit. *)

type spec = {
  seed : int;  (** seed of the per-message verdict hash *)
  drop : float;  (** per-message drop probability, in [0,1] *)
  duplicate : float;  (** per-message duplication probability *)
  delay : float;  (** per-message delay probability *)
  max_delay : int;
      (** delayed messages arrive 1..max_delay rounds late; a compiled plan
          and each simulator domain hold O(max_delay) words for them *)
  link_failures : (int * int * int) list;
      (** [(u, v, r)]: the undirected link u—v drops everything from round r on *)
  link_flaps : (int * int * int * int) list;
      (** [(u, v, from, until)]: a transient outage — the undirected link u—v
          drops everything in rounds [from, until), then carries traffic
          again. This is how churn-generated flaps reach a running protocol:
          {!Churn.to_fault_spec} compiles a mutation stream into these
          windows. *)
  crashes : (int * int) list;
      (** [(v, r)]: vertex v crash-stops at round r — it executes no round ≥ r
          and everything addressed to it from then on is lost *)
}

val none : spec
(** The empty plan: seed 0, all probabilities 0, no failures. Override fields
    with [{ Fault.none with drop = 0.05; seed = 7 }]. *)

val is_none : spec -> bool
(** [is_none s] holds when the plan injects nothing: all probabilities 0 and
    no link failures, flaps or crashes. [seed] and [max_delay] are ignored —
    on their own they alter no message (a lesson from a past regression where
    structural comparison against a default-[max_delay] record silently
    forced every run onto the reliable transport). Use this, never [(=)]
    against {!none}, to decide whether a spec is a real fault plan. *)

type t
(** A compiled plan. Verdicts are pure; the only per-run state is the
    simulator's own (crash application, delayed-message parking), so a plan
    value may be consulted concurrently from several domains. *)

val make : spec -> t
(** Compile a spec. @raise Invalid_argument on probabilities outside [0,1],
    negative delays or negative rounds. *)

val spec : t -> spec

(** {1 Queries used by the simulator} *)

type verdict =
  | Deliver
  | Drop
  | Duplicate  (** deliver two copies *)
  | Delay of int  (** deliver the given number of rounds late *)

val classify : t -> round:int -> src:int -> dst:int -> k:int -> verdict
(** Fate of the [k]-th message (0-based) crossing src->dst in the given
    round. Pure: the same arguments always yield the same verdict, in any
    call order, from any domain. The simulator derives [k] from its
    per-port capacity counter, so every physical message gets a distinct
    coordinate. Allocation-free in native code: the splitmix64 hash runs on
    unboxed [int64] values and a [Delay] verdict is shared, built once per
    delay length by {!make}. *)

val link_down : t -> round:int -> int -> int -> bool

val crash_round : t -> int -> int option
(** [crash_round t v] is the round at which [v] crash-stops, if any. *)
