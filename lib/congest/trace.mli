(** Tracing sink for CONGEST runs: hierarchical spans, a bounded ring of
    per-round samples, and a bounded ring of discrete events.

    A trace is passed as [?trace] to {!Sim.Make.run}, {!Reliable.Make.run},
    {!Core.Dist_tree_routing.run} or {!Core.Scheme.build}; the engine binds
    the trace's clock and message counters ({!bind}) and feeds it while the
    run executes. When no trace is supplied the instrumented code paths cost
    nothing — in particular the simulator's sync hot path allocates exactly
    as much as it did before tracing existed (nothing).

    Spans flagged as {e phases} are top-level and consecutive: opening a
    phase closes the previous one, so the phases of a run partition its
    rounds ({!phase_breakdown} accounts for every round, inserting
    ["(unattributed)"] rows for gaps). Ordinary spans nest freely below the
    current phase. *)

type t

type span
(** A named interval of rounds with messages/words attributed to it. *)

type round_sample = {
  mutable r_round : int;
  mutable r_messages : int;  (** messages sent in this round *)
  mutable r_words : int;  (** words sent in this round *)
  mutable r_wakeups : int;  (** vertex programs resumed in this round *)
  mutable r_max_edge_load : int;  (** busiest directed edge this round *)
  mutable r_faults : int;  (** faults injected (drop+dup+delay) this round *)
}
(** One ring slot. The fields are mutable because slots are preallocated and
    overwritten in place; {!rounds} returns fresh copies. *)

val make : ?ring:int -> ?events:int -> unit -> t
(** [make ()] — [ring] bounds the per-round samples kept (default 4096,
    newest win), [events] bounds the event log (default 1024). *)

val bind : t -> clock:(unit -> int) -> counters:(unit -> int * int) -> unit
(** Called by the engine driving the run: [clock] is the current round,
    [counters] the cumulative (messages, words). Span opens/closes read
    both to attribute deltas. *)

val now : t -> int

(** {1 Spans} *)

val begin_span : t -> ?detail:string -> string -> unit
val end_span : t -> unit
(** Close the innermost open span; no-op when none is open. *)

val span : t -> ?detail:string -> string -> (unit -> 'a) -> 'a
(** [span t name f] — lexically scoped {!begin_span}/{!end_span} around [f],
    closing on exceptions too. *)

val phase : t -> ?detail:string -> string -> unit
(** Close every open span and the current phase, then open a new top-level
    phase span. Phases partition the run. *)

val phase_end : t -> unit
(** Close every open span and the current phase without opening another. *)

val add_closed_span :
  t ->
  ?detail:string ->
  ?phase:bool ->
  ?depth:int ->
  ?messages:int ->
  ?words:int ->
  ?peak_memory:int ->
  name:string ->
  start_round:int ->
  end_round:int ->
  unit ->
  unit
(** Append an already-measured span — used by block-accounted constructions
    ({!Core.Scheme.build} mirrors each {!Core.Cost} phase here) and by
    {!Reliable} for backoff intervals. *)

val spans : t -> span list
(** All spans in open order. *)

val phases : t -> span list
(** Phase spans only, in open order. *)

val span_name : span -> string
val span_detail : span -> string
val span_depth : span -> int
val span_is_phase : span -> bool
val span_start : span -> int

val span_end : span -> int
(** -1 while the span is open. *)

val span_rounds : span -> int
(** [end - start]; 0 while open. *)

val span_messages : span -> int
val span_words : span -> int
val span_peak_memory : span -> int

val phase_breakdown : t -> total_rounds:int -> (string * int) list
(** [(name, rounds)] rows partitioning [0, total_rounds): phase rows in
    order, with ["(unattributed)"] rows filling any gap before, between or
    after them. The row sum always equals [total_rounds]. *)

(** {1 Per-round samples} *)

val record_round :
  t ->
  round:int ->
  messages:int ->
  words:int ->
  wakeups:int ->
  max_edge_load:int ->
  faults:int ->
  unit
(** Write one ring slot. Mutates a preallocated record — no allocation. *)

val rounds_recorded : t -> int
(** Total rounds recorded, including any the ring has since overwritten. *)

val rounds : t -> round_sample array
(** Copies of the retained samples, oldest first. *)

(** {1 Events} *)

val event : t -> string -> unit
(** Log a discrete event (retransmission, link death, ...) at the current
    clock. *)

val events_recorded : t -> int

val events : t -> (int * string) list
(** Retained [(round, label)] events, oldest first. *)

val pp : Format.formatter -> t -> unit
