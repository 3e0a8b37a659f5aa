(** Reliable, round-preserving transport over the faulty simulator.

    {!Make} wraps {!Sim.Make} with a per-link ack/retransmit stream (sequence
    numbers over a ring of outgoing frames, cumulative acks,
    [wait_until]-driven timeouts with exponential backoff) underneath an
    alpha-synchronizer: every vertex closes each of its
    {e virtual} rounds with an end-of-round marker on every live link and only
    advances once it holds the matching marker from every live neighbour.

    The payoff is that a protocol written against {!Sim.TRANSPORT} observes,
    in virtual rounds, exactly the synchronous semantics of the raw simulator —
    same inboxes, same port order, same round arithmetic — even while the
    underlying network drops, duplicates, delays and reorders frames. As long
    as no link is declared dead, a computation over this layer is
    bit-identical to its fault-free run; only the real-round count and the
    message/retransmission metrics differ.

    Receive path: frames are read in place from the simulator's inbox view
    ({!Sim.TRANSPORT}). An in-order data frame's payload is copied, still
    encoded, into its link's FIFO slab with its virtual round (the frame's
    tag int carries the payload's accounted words, so nothing is decoded);
    closing a virtual round moves that round's payloads, port by port, into
    a per-vertex slab in {!Sim.Inbox}'s layout, and that slab is the view
    the protocol's blocking call returns. Only frames that arrive out of
    order are decoded, to wait in the link's reorder table.

    Failure detection: a link is declared {e dead} (with a reason) when the
    oldest unacknowledged frame exhausts [max_retries] transmissions, or when
    a peer withholds its end-of-round marker past a patience window while
    acking everything (a vertex that crash-stopped between acking and
    marking). Dead links are abandoned; the protocol polls [dead_ports] and
    decides how to degrade — the transport itself never deadlocks on a dead
    peer. A vertex whose program returns sends a final close notice so that
    peers treat its silence as graceful, not as failure. *)

type config = {
  ack_timeout : int;  (** real rounds before the first retransmission *)
  backoff : int;  (** timeout multiplier per retry (exponential backoff) *)
  max_retries : int;  (** transmissions before the link is declared dead *)
}

val default_config : config
(** [{ ack_timeout = 4; backoff = 2; max_retries = 8 }]. *)

val retransmission_budget : config -> int
(** Worst-case real rounds one link can spend in a single retransmission
    backoff streak while still alive: retry [t] waits
    [ack_timeout · backoff^(t−1)] rounds, so the streak lasts
    [Σ_{t=1..max_retries} ack_timeout · backoff^(t−1)] before the link is
    declared dead (1020 with {!default_config}). Stall watchdogs layered
    above the transport must dominate this value — derive their intervals
    from it rather than hardcoding, so changing the config cannot silently
    reintroduce false stall diagnoses. *)

module Make (M : Sim.MESSAGE) : sig
  type ctx = {
    me : int;
    n : int;
    neighbors : int array;  (** port -> neighbour id *)
    weights : float array;
  }

  val run :
    ?max_rounds:int ->
    ?edge_capacity:int ->
    ?faults:Fault.t ->
    ?trace:Trace.t ->
    ?scheduler:Sim.scheduler ->
    ?domains:int ->
    ?config:config ->
    Dgraph.Graph.t ->
    node:((module Sim.TRANSPORT with type msg = M.t) -> ctx -> unit) ->
    Sim.report
  (** Run a protocol over the reliable transport. The node receives its
      vertex's endpoint as a first-class {!Sim.TRANSPORT} module:
      [send]/[sync]/[wait]/[sleep_until]/[wait_until]/[round] have exactly
      the semantics of their {!Sim.Make} counterparts with "round" meaning
      {e virtual} round ([real_round] reads the underlying simulator's
      clock) — the blocking calls return the per-vertex view described
      above, records in port order and oldest first within a port, valid
      until the vertex's next blocking call; [send] raises
      {!Sim.Congestion} beyond [edge_capacity] sends
      to one port in one virtual round and {!Sim.Message_too_large} beyond
      8 words — the protocol-level CONGEST limits stay enforced even
      though the transport's own frames ride on a wider physical budget;
      [set_memory w] declares [w] plus the transport's buffered words, so
      retransmission buffers are charged to the vertex's ledger: the frame
      words of every frame in a link's outgoing stream (transmitted but
      unacked, or not yet transmitted) or held out of order, [1 + payload
      words] for every payload received but not yet delivered, and 6 words
      of state per link. The transport keeps that sum as a running counter,
      updated as frames enter and leave its buffers, so the call costs O(1);
      [add_memory d] adjusts the last declared total by [d] without
      re-reading the buffers. [dead_ports] lists links declared dead with
      reasons, in port order (empty in any run the transport fully masked);
      the list is rebuilt only when a link dies. A protocol body abstracted
      over the module runs unchanged on either transport.

      [edge_capacity] and the 8-word message size ({!Sim.Make.run}'s
      default [word_limit]) are the {e protocol-level} limits; the
      underlying simulator runs with a constant-factor wider budget
      ([edge_capacity + 2] frames of 10 words) to carry stream headers,
      end-of-round markers and acks. [max_rounds] bounds {e real} rounds.
      Metrics count real rounds/messages plus the transport's
      retransmissions.

      With [?trace], besides the per-round ring fed by the underlying
      simulator, every retransmission and link death logs a {!Trace.event}
      and each backoff episode (first retransmission until the link's
      outstanding window is acked, or until it dies) becomes a closed
      ["backoff"] span in real rounds. *)
end
