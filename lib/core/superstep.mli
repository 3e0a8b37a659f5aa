(** The superstep engine behind Appendix B's distributed stages, and the
    one wire type they share.

    {!Dist_scheme} and {!Dist_hopset} both run root-synchronized
    Bellman–Ford phases over one BFS tree rooted at vertex 0. This engine
    owns everything but the waves: the message type {!msg} with its codec,
    the BFS setup and its echo, the Done/Advance/Next control traffic (a
    phase is a sequence of segments, each of one {!kind}: a {e barrier}
    segment is a sequence of supersteps the root cuts on quiescence or at
    its budget, a {e continuous} one sends data as soon as edges have
    capacity and the root closes it by termination detection), the
    per-port data queues drained within edge capacity 2 after control
    traffic, the watchdog, and the per-phase memory peaks, spans and
    traffic. A stage supplies a {!plan} and, per vertex, a {!hooks}
    record. What the engine shares with Section 3's tree protocol is
    {!Protocol}'s: the typed failures, the choice of transport with its
    per-vertex failure slots, the agenda and the dead-link loop.

    Two timing invariants make phase and superstep tags unnecessary on
    data: the root defers each decision by one round, so an Advance/Next
    reaches any vertex strictly after every data message of the superstep
    it closes; and each vertex handles its BFS parent's Advance/Next
    records before the rest of its inbox, since data sharing an inbox with
    the barrier that opens its segment or superstep comes from a
    one-round-shallower neighbour. A continuous segment closes only when
    repeated Done convergecasts of per-vertex (sent, received) counts show
    that no data is queued or in flight (Mattern's four-counter method).
    The inbox is read in place and each record decoded once. DESIGN.md §16
    gives the argument. *)

(** The wire type of the distributed construction. The first six
    constructors are the engine's control traffic; the rest are stage
    data, handed unwrapped to {!hooks}[.on_data]. *)
type msg =
  | Bfs of { depth : int }  (** setup flood: the sender's BFS depth *)
  | Bfs_adopt  (** setup: the sender chose this vertex as its parent *)
  | Bfs_echo  (** setup: the sender's subtree is complete *)
  | Done of { sent : int }
      (** convergecast: data messages the sender's subtree sent in this
          superstep; in a continuous segment, the subtree's sent − received
          balance, or [min_int] if any of its vertices sent or received
          data since the previous detection wave *)
  | Advance
      (** broadcast: open the next superstep, or detection wave, of this
          segment *)
  | Next  (** broadcast: close the segment, open the next one or phase *)
  | Offer of { key : int; dist : float }
      (** a wave entry: its source or owner and the sender's distance *)
  | Offer2 of { key : int; dist : float; origin : int }
      (** a run-B wave entry with its attributed origin *)
  | Relay of { key : int; edge : int; dir : int; value : float; origin : int }
      (** run B: an endpoint's value travelling one hop along a hopset
          edge's host path *)
  | Rec_req of { key : int; edge : int; dir : int }
      (** run B: recovery trigger walking back to the feeding endpoint *)
  | Rec of { key : int; edge : int; dir : int; acc : float }
      (** run B: recovery walk accumulating the host-path distance *)

include Congest.Sim.MESSAGE with type t = msg
(** [words] is the accounted CONGEST size (at most 6); [slots] is 7, the
    widest record ([Relay]: tag, four ints, a float in two slots). *)

(** How a segment advances and ends. *)
type kind =
  | Barrier of int
      (** supersteps cut by Advance; the root closes the segment at the
          first superstep that sends no data, or after this many *)
  | Continuous
      (** no supersteps: data leaves as soon as its edge has capacity, and
          the root closes the segment once two consecutive detection waves
          find every vertex's (sent, received) unchanged and the totals
          equal. For segments whose result depends neither on arrival
          order nor on superstep boundaries. *)

type 'seg plan = {
  phases : int;
  segments : int -> 'seg array;  (** a phase's segments, in order *)
  kind : 'seg -> kind;
  name : int -> string;  (** phase name; phase [-1] is the setup *)
  detail : int -> string;
}

type 'seg ctx
(** One vertex's side of the engine. *)

val me : 'seg ctx -> int
val neighbors : 'seg ctx -> int array
val weights : 'seg ctx -> float array
val phase : 'seg ctx -> int
val segment : 'seg ctx -> 'seg

val superstep_id : 'seg ctx -> int
(** Increases at every barrier snapshot, not in continuous segments. *)

val enqueue : 'seg ctx -> int -> msg -> unit
(** Queue data on one port; counted as sent in this superstep, or in this
    continuous segment. *)

val enqueue_all : 'seg ctx -> except:int -> msg -> unit

val fail : 'seg ctx -> Protocol.failure -> unit
(** Report a failure at this vertex and stop it. *)

type hooks = {
  seed : unit -> unit;  (** a phase opens: plant this vertex's sources *)
  seg_start : unit -> unit;  (** a segment opens (after [seed]) *)
  snapshot : unit -> unit;
      (** queue data: when a barrier superstep opens; when a continuous
          segment opens (after [seg_start]) and after each of its wake-ups
          that delivered data *)
  on_data : int -> msg -> unit;  (** data arrived on a port *)
  finalize_seg : unit -> unit;  (** a segment closed *)
  finalize_phase : unit -> unit;  (** a phase closed: deposit results *)
  words : unit -> int;
      (** the stage's state in words; the engine adds 2 per queued
          message and declares the sum as the vertex's memory *)
}

(** What a phase sent, counted per vertex by the engine and summed once
    per phase: engine-level sends, so over {!Congest.Reliable} neither
    retransmissions nor the transport's own frames. *)
type traffic = {
  data : int;  (** stage data messages *)
  control : int;  (** BFS setup, Done, Advance and Next *)
  supersteps : int;  (** barrier supersteps the root decided *)
  waves : int;  (** detection waves of continuous segments *)
}

type result = {
  metrics : Congest.Metrics.t;
  phases : Cost.phase list;
      (** setup first: measured rounds (virtual over {!Congest.Reliable})
          and the peak words of any vertex *)
  traffic : (string * traffic) list;  (** per phase, aligned with [phases] *)
  failures : Protocol.failure list;  (** the transport's, then per vertex by id *)
}

val run :
  plan:'seg plan ->
  vertex:('seg ctx -> hooks) ->
  ?faults:Congest.Fault.t ->
  ?reliable:bool ->
  ?config:Congest.Reliable.config ->
  ?trace:Congest.Trace.t ->
  ?max_rounds:int ->
  ?domains:int ->
  Dgraph.Graph.t ->
  result
(** The stage's own options, forwarded: [?reliable] defaults to
    {!Congest.Reliable} iff [?faults] is given; [?trace] receives the
    root's phase spans. *)
