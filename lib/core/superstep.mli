(** The superstep engine behind Appendix B's distributed stages.

    {!Dist_scheme} and {!Dist_hopset} both run root-synchronized
    Bellman–Ford phases over one BFS tree rooted at vertex 0. This engine
    owns everything but the waves: the BFS setup and its echo, the
    Done/Advance/Next barrier (a phase is a sequence of segments, a segment
    a sequence of supersteps the root cuts on quiescence or at its budget),
    the per-port data queues drained within edge capacity 2 after control
    traffic, the watchdog and typed failures, the per-phase memory peaks,
    the measured phase spans and the choice of transport. A stage supplies
    a {!plan} and, per vertex, a {!Make.hooks} record.

    Two timing invariants make phase and superstep tags unnecessary on
    data: the root defers each end-of-superstep decision by one round, so
    an Advance/Next reaches any vertex strictly after every data message of
    the superstep it closes; and each inbox is handled control first, since
    data sharing an inbox with the barrier that opens its superstep comes
    from a one-round-shallower neighbour. DESIGN.md §16 gives the
    argument. *)

type failure =
  | Setup_timeout of { vertex : int; round : int }
      (** the BFS setup never opened phase 0 at this vertex *)
  | Stalled of { vertex : int; round : int; phase : string; superstep : int }
      (** watchdog: no message traffic and no barrier progress for a whole
          interval — the typed outcome of a wedged stage (e.g. a crash-stop
          fault partitioning the barrier tree) instead of a hang *)
  | Link_lost of { vertex : int; neighbor : int; reason : string }
      (** the reliable layer declared an incident edge dead; every edge
          carries wave data, so the stage cannot complete *)
  | Harvest of { vertex : int; reason : string }
      (** harvested per-vertex state is inconsistent (rejected cluster
          tree, non-adjacent parent, …) *)
  | Transport of string  (** simulator-level outcome: deadlock, round limit *)

val failure_to_string : failure -> string
val pp_failure : Format.formatter -> failure -> unit

(** How the engine reads a message: one of its control messages, or stage
    data for {!Make.hooks}[.on_data]. *)
type control = Bfs | Bfs_adopt | Bfs_echo | Done | Advance | Next | Data

(** A stage's own message type, with its control constructors. *)
module type MESSAGE = sig
  include Congest.Sim.MESSAGE

  val control : t -> control

  val control_arg : t -> int
  (** The depth a [Bfs] carries, the data count a [Done] carries. *)

  val bfs : int -> t
  val bfs_adopt : t
  val bfs_echo : t
  val done_ : int -> t
  val advance : t
  val next : t
end

type 'seg plan = {
  phases : int;
  segments : int -> 'seg array;  (** a phase's segments, in order *)
  budget : 'seg -> int;  (** supersteps after which the root cuts a segment *)
  name : int -> string;  (** phase name; phase [-1] is the setup *)
  detail : int -> string;
}

module Make (M : MESSAGE) : sig
  type 'seg ctx
  (** One vertex's side of the engine. *)

  val me : 'seg ctx -> int
  val neighbors : 'seg ctx -> int array
  val weights : 'seg ctx -> float array
  val phase : 'seg ctx -> int
  val segment : 'seg ctx -> 'seg

  val superstep_id : 'seg ctx -> int
  (** Increases at every barrier snapshot. *)

  val enqueue : 'seg ctx -> int -> M.t -> unit
  (** Queue data on one port; counted as sent in this superstep. *)

  val enqueue_all : 'seg ctx -> except:int -> M.t -> unit

  val fail : 'seg ctx -> failure -> unit
  (** Report a failure at this vertex and stop it. *)

  type hooks = {
    seed : unit -> unit;  (** a phase opens: plant this vertex's sources *)
    seg_start : unit -> unit;  (** a segment opens (after [seed]) *)
    snapshot : unit -> unit;  (** a superstep opens: queue its data *)
    on_data : int -> M.t -> unit;  (** data arrived on a port *)
    finalize_seg : unit -> unit;  (** a segment closed *)
    finalize_phase : unit -> unit;  (** a phase closed: deposit results *)
    words : unit -> int;
        (** the stage's state in words; the engine adds 2 per queued
            message and declares the sum as the vertex's memory *)
  }

  type result = {
    metrics : Congest.Metrics.t;
    phases : Cost.phase list;
        (** setup first: measured rounds (virtual over {!Congest.Reliable})
            and the peak words of any vertex *)
    failures : failure list;  (** the transport's, then per vertex by id *)
  }

  val run :
    plan:'seg plan ->
    vertex:('seg ctx -> hooks) ->
    ?faults:Congest.Fault.t ->
    ?reliable:bool ->
    ?config:Congest.Reliable.config ->
    ?trace:Congest.Trace.t ->
    ?max_rounds:int ->
    ?scheduler:Congest.Sim.scheduler ->
    ?domains:int ->
    Dgraph.Graph.t ->
    result
  (** The stage's own options, forwarded: [?reliable] defaults to
      {!Congest.Reliable} iff [?faults] is given; [?trace] receives the
      root's phase spans. *)
end
