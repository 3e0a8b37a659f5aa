(** Synchronous CONGEST-model simulator.

    Every vertex of a graph runs the same program (closed over per-vertex
    data). Programs are written in direct style; communication points are
    effects handled by a round-based scheduler:

    - messages sent in round [r] are delivered at the beginning of round
      [r+1];
    - at most [edge_capacity] messages (default 1) may cross each *directed*
      edge per round, and each message may carry at most [word_limit] words
      (the CONGEST RAM model of the paper: a message holds O(1) ids, weights
      or distances) — violations raise, so protocol bugs surface as failures
      rather than as silently optimistic round counts;
    - vertices declare their persistent state size in words via
      [set_memory]; the scheduler ledger keeps per-vertex peaks.

    The scheduler only wakes vertices that can make progress ([wait]ing
    vertices sleep until a message arrives), so protocols with long quiet
    phases simulate in time proportional to events, not rounds × n.

    In-flight messages are not boxed values: a send encodes its payload as
    [M.slots] unboxed ints into a {!Slab} record, delivery moves flat
    records between slabs, and a payload is only decoded back to an [M.t]
    when the receiving program asks for that record ([msg]). Under a fault
    plan the verdict is computed without allocating ({!Fault.classify}) and
    a delayed message waits in a slab record for its landing round like any
    other. A blocking call returns the vertex's {e inbox view}: its
    delivery slab itself, read in place (see {!TRANSPORT}). Blocking
    effects carry no payload (the kind of wait and its deadline are parked
    in the vertex's state) and each fiber's handler closures are built once,
    so from [send] to [msg] a message allocates nothing on the OCaml heap;
    the decoded value is the one per-message allocation left, and only for
    the records a program decodes. A suspension still costs the runtime's
    continuation capture plus an option cell. Slabs being Bigarrays, records
    cross domain boundaries without touching the GC.

    The event engine can be sharded across OCaml domains ([?domains]):
    vertices are partitioned into contiguous blocks, each domain runs its
    block's fibers and accumulates its own {!Metrics}, and a per-round
    barrier separates the gather / execute / deliver phases. Results are
    bit-identical to a single-domain run (see the domain-determinism tests):
    each inbound port has exactly one sender, hence one sending domain, so
    the per-port message order the delivery sort relies on survives any
    cross-domain interleaving, and fault verdicts are pure per-message
    hashes ({!Fault.classify}).

    Runs may execute under a {!Fault} plan ([?faults]): messages are then
    dropped, duplicated or delayed and vertices crash-stop according to the
    plan, *after* all capacity/word accounting, with every injected event
    counted in {!Metrics}. The raw simulator makes no recovery attempt — a
    protocol that needs to survive faults runs over {!Reliable}. *)

module type MESSAGE = sig
  type t

  val words : t -> int
  (** Size of the message in words; must be ≤ the run's [word_limit]. *)

  val slots : int
  (** Physical payload width: how many slab ints {!encode} writes. A
      constant — variable-size messages use the width of the largest
      variant. Distinct from {!words}, which is the *accounted* CONGEST
      size of the value actually sent. *)

  val encode : Slab.t -> int -> t -> unit
  (** [encode s base m] writes [m]'s payload into [s] at slots
      [base .. base+slots-1] (the slots are pre-allocated). Floats travel
      via {!Slab.set_float} (two slots). *)

  val decode : Slab.t -> int -> t
  (** [decode s base] reads back what {!encode} wrote; must satisfy
      [decode s base (encode s base m) = m]. The only place on the receive
      path where a message value is materialised. *)
end

exception Congestion of { vertex : int; port : int; round : int }
(** Raised when a vertex attempts to push more than [edge_capacity] messages
    through one port in one round. *)

exception Message_too_large of { vertex : int; words : int; round : int }

(** {1 Outcomes}

    These types are shared by every instantiation of {!Make} (and by
    {!Reliable}), so callers can pattern-match without knowing which message
    functor produced the report. *)

type wake = Now | On_message | At of int | Msg_or_at of int
(** What a suspended vertex is waiting for: [Now] = next round ([sync]),
    [On_message] = any message ([wait]), [At r] = round [r] ([sleep_until]),
    [Msg_or_at r] = whichever comes first ([wait_until]). *)

type deadlock = {
  total : int;  (** how many vertices are stuck in all *)
  stuck : (int * wake) list;  (** sample of ≤ 10 (vertex, wake state) *)
}

type outcome =
  | Completed  (** every vertex program returned (or crash-stopped) *)
  | Deadlocked of deadlock  (** some vertices wait forever *)
  | Round_limit

type report = { outcome : outcome; metrics : Metrics.t }

type scheduler =
  | Event_driven
      (** Default. A ready worklist plus an int-keyed timer heap: each round
          costs O(wakeups + deliveries), and quiet stretches are skipped by
          jumping to the heap minimum. The only engine that shards across
          domains. *)
  | Scan_reference
      (** The original scheduler: two O(n) passes over the state array per
          round. Kept as the semantic reference — both schedulers produce
          bit-identical {!Metrics} and outcomes on the same run (see the
          equivalence property test) — and as the baseline the perf harness
          measures speedups against. Always serial; [?domains] is ignored. *)

val pp_wake : Format.formatter -> wake -> unit

val pp_outcome : Format.formatter -> outcome -> unit
(** Debug pretty-printer; for deadlocks it prints the total stuck count and
    each sampled vertex with its wake state, e.g.
    ["deadlocked: 42 vertices stuck (showing 10) [v3: wait; v7: wait_until 120; ...]"]. *)

(** {1 Transport signature}

    The vertex-side operations shared by the raw simulator and the
    {!Reliable} layer. A protocol body written against a first-class
    [(module TRANSPORT with type msg = ...)] runs unchanged on either
    transport — {!Make.Transport} packages the raw simulator's effects,
    {!Reliable.Make.run} hands the node an endpoint-specific package.

    {b Inbox views.} Every blocking call returns the deliveries of the
    wake-up it ends as one view, read in place: record [i]
    ([0 <= i < count ib]) has a [port] and a payload that [msg] decodes
    when asked ([slot] reads one payload int without decoding). Records of
    an earlier round come first; within a round they come in port order,
    and within a port the raw simulator puts the newest send first,
    {!Reliable} the oldest. A view stays valid until the vertex's next
    blocking call, which reuses its storage: a program that keeps messages
    past that point must decode them first. On the raw simulator the view
    is the vertex's delivery slab; over {!Reliable} it is a per-vertex slab
    the transport fills when it closes a virtual round. Either way reading
    it allocates nothing but the decoded values. *)
module type TRANSPORT = sig
  type msg

  type inbox
  (** One wake-up's deliveries; valid until the next blocking call. *)

  val count : inbox -> int
  (** Number of records. *)

  val port : inbox -> int -> int
  (** [port ib i] — the port record [i] arrived on. *)

  val msg : inbox -> int -> msg
  (** [msg ib i] decodes record [i]'s payload (allocating the value). *)

  val slot : inbox -> int -> int -> int
  (** [slot ib i j] — int [j] ([0 <= j < slots]) of record [i]'s payload as
      the message codec wrote it; lets a protocol peek at its own tag
      without decoding. *)

  val send : int -> msg -> unit
  val sync : unit -> inbox
  val wait : unit -> inbox
  val sleep_until : int -> inbox
  val wait_until : int -> inbox

  val round : unit -> int
  (** Protocol-visible round: real rounds on the raw simulator, virtual
      rounds over {!Reliable}. *)

  val real_round : unit -> int
  (** Underlying simulator round ([= round] on the raw simulator). *)

  val set_memory : int -> unit
  val add_memory : int -> unit

  val dead_ports : unit -> (int * string) list
  (** Ports whose link was declared dead, with reasons; always empty on the
      raw simulator (fault masking is {!Reliable}'s job). *)
end

(** The record layout of an inbox view, shared by both transports: record
    [i] of a slab occupies ints [i * stride .. (i+1) * stride - 1], the port
    first, then the [M.slots] payload ints {!MESSAGE.encode} wrote. *)
module Inbox (M : MESSAGE) : sig
  val stride : int  (** [1 + M.slots] *)

  val count : Slab.t -> int
  val port : Slab.t -> int -> int
  val msg : Slab.t -> int -> M.t
  val slot : Slab.t -> int -> int -> int

  val add : Slab.t -> int -> int
  (** [add s port] appends a record for [port] and returns the slab index
      of its first payload int, for the caller to fill. *)
end

module Make (M : MESSAGE) : sig
  type ctx = {
    me : int;  (** this vertex's id *)
    n : int;  (** number of vertices in the network *)
    neighbors : int array;  (** port -> neighbour id *)
    weights : float array;  (** port -> edge weight *)
  }

  type inbox
  (** The vertex's delivery slab, read in place: oldest round first, each
      round's records in port order, newest send first within a port.
      Valid until the next blocking call (see {!TRANSPORT}). *)

  val count : inbox -> int
  val port : inbox -> int -> int
  val msg : inbox -> int -> M.t
  val slot : inbox -> int -> int -> int

  (** {1 Operations available inside a vertex program} *)

  val send : int -> M.t -> unit
  (** [send port msg] — buffered; delivered to the neighbour next round. *)

  val sync : unit -> inbox
  (** End the current round; receive the messages delivered next round. *)

  val wait : unit -> inbox
  (** Sleep until at least one message arrives (≥ 1 round later); returns all
      messages that arrived while asleep, oldest round first. *)

  val sleep_until : int -> inbox
  (** Sleep until the given round number; returns messages accumulated while
      asleep. Returns immediately (next round) if the round has passed. *)

  val wait_until : int -> inbox
  (** Sleep until a message arrives or the given round is reached, whichever
      comes first — the event-loop primitive for protocols that must both
      relay messages promptly and act on a schedule. *)

  val round : unit -> int
  (** Current round number (starts at 0). *)

  val set_memory : int -> unit
  (** Declare this vertex's current persistent state size in words. *)

  val add_memory : int -> unit
  (** Adjust the declared size by a (possibly negative) delta. *)

  val note_retransmit : unit -> unit
  (** Count one retransmission in the run's metrics — used by the
      {!Reliable} transport; the retransmitted message itself is still sent
      (and charged) through [send]. *)

  module Transport : TRANSPORT with type msg = M.t
  (** The operations above packaged as a first-class-module transport
      ([real_round = round], [dead_ports () = []]). *)

  (** {1 Running} *)

  val run :
    ?max_rounds:int ->
    ?edge_capacity:int ->
    ?word_limit:int ->
    ?faults:Fault.t ->
    ?trace:Trace.t ->
    ?scheduler:scheduler ->
    ?domains:int ->
    Dgraph.Graph.t ->
    node:(ctx -> unit) ->
    report
  (** Execute the protocol on every vertex of the graph. Deterministic:
      vertices are scheduled in id order and inboxes are sorted; under a
      [?faults] plan the injected faults are a pure function of the plan's
      spec and each message's coordinates, independent of scheduling.

      [?scheduler] selects the round engine (default {!Event_driven});
      outcomes and metrics do not depend on the choice, only wall-clock
      does.

      [?domains] (default 1) shards the event engine across that many OCaml
      domains (clamped to the vertex count; {!Scan_reference} ignores it).
      Outcomes, metrics and routing results are bit-identical to a
      single-domain run. Two caveats: when several shards raise in the same
      phase (e.g. simultaneous {!Congestion}), the lowest-numbered shard's
      exception wins, which may differ from the serial schedule's first
      raise; and live trace-counter reads from protocol spans may observe
      other shards' counters mid-round (round samples and phase totals are
      recorded at the barrier and remain exact).

      With [?trace] the run feeds the sink one {!Trace.round_sample} per
      executed round and binds the trace clock to the real round counter, so
      spans opened by the protocol measure real rounds. Without it the
      scheduler's hot path performs no trace work at all — leaving tracing
      off adds zero allocations per round. *)
end
