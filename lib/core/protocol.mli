(** What the distributed protocols share below their own messages: the
    typed failures every stage reports, the run over the raw simulator or
    the reliable transport with one failure slot per vertex, the agenda of
    timed actions, and the loop that reports each dead link once.

    Section 3's tree protocol ({!Dist_tree_routing}) and Appendix B's
    superstep engine ({!Superstep}) are both built on it. Each keeps its
    own codec, BFS setup, watchdog and schedule. *)

type failure =
  | Setup_timeout of { vertex : int; round : int }
      (** the BFS setup never opened the first phase at this vertex *)
  | Stalled of {
      vertex : int;
      round : int;
      phase : string;
      superstep : int;
      continuous : bool;
    }
      (** watchdog: no message traffic and no barrier progress for a whole
          interval — the typed outcome of a wedged stage (e.g. a crash-stop
          fault partitioning the barrier tree) instead of a hang.
          [superstep] counts the segment's supersteps, or its detection
          waves when the segment is [continuous] *)
  | Link_lost of { vertex : int; neighbor : int; reason : string }
      (** the reliable layer declared an incident edge dead *)
  | Queue_overflow of { vertex : int; port : int; length : int; limit : int }
      (** {!Superstep.enqueue} would have made a port's queue [length]
          messages long, past [limit], the longest single queue the
          watchdog interval covers (DESIGN.md §16); the vertex stops. Queues
          that feed one another are not bounded, and can still make the
          watchdog report a flowing stage as [Stalled]. *)
  | Harvest of { vertex : int; reason : string }
      (** a protocol invariant broke at this vertex, or its harvested state
          is inconsistent (rejected cluster tree, non-adjacent parent,
          missing pointer-jumping message, …) *)
  | Transport of string  (** simulator-level outcome: deadlock, round limit *)

val failure_to_string : failure -> string
val pp_failure : Format.formatter -> failure -> unit

val uses_reliable : faults:Congest.Fault.t option -> reliable:bool option -> bool
(** The transport rule: {!Congest.Reliable} iff [reliable], which defaults
    to whether a fault plan is given. *)

(** One vertex's side of a run. *)
type vertex = private {
  me : int;
  neighbors : int array;  (** port -> neighbour id *)
  weights : float array;  (** port -> edge weight *)
  fail : failure -> unit;
      (** report a failure at this vertex; writes only its own slot, so the
          collection is race-free under the domain-sharded scheduler *)
  mutable lost : int list;  (** ports {!check_dead} has reported *)
}

module Make (M : Congest.Sim.MESSAGE) : sig
  type transport = (module Congest.Sim.TRANSPORT with type msg = M.t)

  val run :
    ?faults:Congest.Fault.t ->
    ?reliable:bool ->
    ?config:Congest.Reliable.config ->
    ?trace:Congest.Trace.t ->
    ?max_rounds:int ->
    ?scheduler:Congest.Sim.scheduler ->
    ?domains:int ->
    Dgraph.Graph.t ->
    node:(transport -> vertex -> unit) ->
    Congest.Metrics.t * failure list
  (** Run [node] at every vertex at edge capacity 2, over the transport
      {!uses_reliable} picks ([config] tunes {!Congest.Reliable}). The
      failures are the transport's outcome first, then each vertex's in
      the order it reported them, by vertex id. *)
end

type 'a agenda
(** A vertex's timed actions, soonest first; actions due in the same round
    run in the order they were scheduled. *)

val agenda : unit -> 'a agenda
val schedule : 'a agenda -> int -> 'a -> unit

val deadline : 'a agenda -> int
(** The round of the soonest action, [max_int] if none. *)

val run_due : 'a agenda -> int -> ('a -> unit) -> unit
(** [run_due a now f] applies [f] to every action due by round [now],
    soonest first, including those [f] schedules for [now] or earlier. *)

val check_dead : vertex -> (int * string) list -> (int -> unit) -> unit
(** [check_dead v dead lost] reports [Link_lost] at [v] for each port in
    [dead] (a transport's {!Congest.Sim.TRANSPORT.dead_ports}) that it has
    not reported before, in list order, and calls [lost port] after each. *)
