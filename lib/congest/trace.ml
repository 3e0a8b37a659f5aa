(* Tracing sink for CONGEST runs.

   A trace collects three kinds of evidence about one run:

   - hierarchical *spans*: named intervals of rounds with message/word deltas
     attributed to them. Top-level spans flagged as *phases* partition the
     run into the paper's algorithm phases;
   - a bounded ring of per-round samples (messages, words, wakeups, max edge
     load, faults) — the newest [ring] rounds survive, older ones are
     overwritten, so memory stays bounded on arbitrarily long runs;
   - a bounded ring of discrete events (retransmissions, link deaths, ...).

   The ring slots are preallocated mutable records and [record_round] only
   writes integer fields, so a bound trace adds no allocation per round; an
   absent trace ([?trace] = None at the simulator) costs nothing at all.

   Clock and counters are *bound* by whichever engine drives the run
   ({!Sim.Make.run} binds real rounds and its metrics; {!Core.Scheme.build}
   binds cumulative accounted rounds), so the same trace type serves both
   measured executions and block-accounted constructions. *)

type span = {
  sp_name : string;
  sp_detail : string;
  sp_depth : int;
  sp_phase : bool;
  sp_start : int;
  mutable sp_end : int;  (* -1 while open *)
  mutable sp_messages : int;
  mutable sp_words : int;
  mutable sp_peak_memory : int;
  (* counter snapshots at open, subtracted at close *)
  mutable sp_m0 : int;
  mutable sp_w0 : int;
}

type round_sample = {
  mutable r_round : int;
  mutable r_messages : int;
  mutable r_words : int;
  mutable r_wakeups : int;
  mutable r_max_edge_load : int;
  mutable r_faults : int;
}

type event_slot = { mutable ev_round : int; mutable ev_label : string }

type t = {
  ring : round_sample array;
  mutable seen_rounds : int;
  ev_ring : event_slot array;
  mutable seen_events : int;
  mutable clock : unit -> int;
  mutable counters : unit -> int * int;  (* (messages, words) so far *)
  mutable rev_spans : span list;  (* all spans, newest first *)
  mutable stack : span list;  (* open non-phase spans, innermost first *)
  mutable cur_phase : span option;
  (* Serializes every mutating entry point. Under the domain-sharded
     scheduler, protocol code on any domain may emit spans and events (the
     reliable transport's per-link backoff spans are the canonical case)
     while the coordinator records round samples; the lock keeps the
     structure consistent. All these paths are cold — a handful of
     operations per round at most — so the uncontended lock is noise. *)
  lock : Mutex.t;
}

let make ?(ring = 4096) ?(events = 1024) () =
  let ring = max 1 ring and events = max 1 events in
  {
    ring =
      Array.init ring (fun _ ->
          {
            r_round = 0;
            r_messages = 0;
            r_words = 0;
            r_wakeups = 0;
            r_max_edge_load = 0;
            r_faults = 0;
          });
    seen_rounds = 0;
    ev_ring = Array.init events (fun _ -> { ev_round = 0; ev_label = "" });
    seen_events = 0;
    clock = (fun () -> 0);
    counters = (fun () -> (0, 0));
    rev_spans = [];
    stack = [];
    cur_phase = None;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bind t ~clock ~counters =
  t.clock <- clock;
  t.counters <- counters

let now t = t.clock ()

(* {1 Spans} *)

let close_span t s =
  if s.sp_end < 0 then begin
    s.sp_end <- max s.sp_start (now t);
    let m, w = t.counters () in
    s.sp_messages <- m - s.sp_m0;
    s.sp_words <- w - s.sp_w0
  end

let open_span t ~phase ~detail name =
  let depth =
    if phase then 0
    else
      List.length t.stack + (match t.cur_phase with Some _ -> 1 | None -> 0)
  in
  let m, w = t.counters () in
  let s =
    {
      sp_name = name;
      sp_detail = detail;
      sp_depth = depth;
      sp_phase = phase;
      sp_start = now t;
      sp_end = -1;
      sp_messages = 0;
      sp_words = 0;
      sp_peak_memory = 0;
      sp_m0 = m;
      sp_w0 = w;
    }
  in
  t.rev_spans <- s :: t.rev_spans;
  s

let begin_span t ?(detail = "") name =
  locked t (fun () ->
      let s = open_span t ~phase:false ~detail name in
      t.stack <- s :: t.stack)

let end_span t =
  locked t (fun () ->
      match t.stack with
      | [] -> ()
      | s :: rest ->
        close_span t s;
        t.stack <- rest)

let span t ?detail name f =
  begin_span t ?detail name;
  Fun.protect ~finally:(fun () -> end_span t) f

let phase_end_unlocked t =
  List.iter (close_span t) t.stack;
  t.stack <- [];
  (match t.cur_phase with Some p -> close_span t p | None -> ());
  t.cur_phase <- None

let phase_end t = locked t (fun () -> phase_end_unlocked t)

let phase t ?(detail = "") name =
  locked t (fun () ->
      phase_end_unlocked t;
      t.cur_phase <- Some (open_span t ~phase:true ~detail name))

let add_closed_span t ?(detail = "") ?(phase = false) ?(depth = 0)
    ?(messages = 0) ?(words = 0) ?(peak_memory = 0) ~name ~start_round
    ~end_round () =
  let s =
    {
      sp_name = name;
      sp_detail = detail;
      sp_depth = (if phase then 0 else depth);
      sp_phase = phase;
      sp_start = start_round;
      sp_end = max start_round end_round;
      sp_messages = messages;
      sp_words = words;
      sp_peak_memory = peak_memory;
      sp_m0 = 0;
      sp_w0 = 0;
    }
  in
  locked t (fun () -> t.rev_spans <- s :: t.rev_spans)

let spans t = List.rev t.rev_spans
let phases t = List.filter (fun s -> s.sp_phase) (spans t)

let span_name s = s.sp_name
let span_detail s = s.sp_detail
let span_depth s = s.sp_depth
let span_is_phase s = s.sp_phase
let span_start s = s.sp_start
let span_end s = s.sp_end
let span_rounds s = if s.sp_end < 0 then 0 else s.sp_end - s.sp_start
let span_messages s = s.sp_messages
let span_words s = s.sp_words
let span_peak_memory s = s.sp_peak_memory

(* Partition [0, total_rounds) into consecutive phase intervals. Rounds no
   phase claims become ["(unattributed)"] rows, and phase bounds are clamped
   to the partition cursor, so the row sum is structurally [total_rounds]
   whatever the phases looked like. *)
let phase_breakdown t ~total_rounds =
  let total = max 0 total_rounds in
  let rows = ref [] and cursor = ref 0 in
  let push name rounds = if rounds > 0 then rows := (name, rounds) :: !rows in
  List.iter
    (fun p ->
      let s = min total (max !cursor p.sp_start) in
      let e = if p.sp_end < 0 then total else p.sp_end in
      let e = min total (max s e) in
      push "(unattributed)" (s - !cursor);
      push p.sp_name (e - s);
      cursor := max !cursor e)
    (phases t);
  push "(unattributed)" (total - !cursor);
  List.rev !rows

(* {1 Per-round ring} *)

let record_round t ~round ~messages ~words ~wakeups ~max_edge_load ~faults =
  (* single writer (the run's coordinator); no lock so the traced hot path
     stays allocation- and contention-free *)
  let slot = t.ring.(t.seen_rounds mod Array.length t.ring) in
  slot.r_round <- round;
  slot.r_messages <- messages;
  slot.r_words <- words;
  slot.r_wakeups <- wakeups;
  slot.r_max_edge_load <- max_edge_load;
  slot.r_faults <- faults;
  t.seen_rounds <- t.seen_rounds + 1

let rounds_recorded t = t.seen_rounds

let rounds t =
  let cap = Array.length t.ring in
  let kept = min t.seen_rounds cap in
  let first = t.seen_rounds - kept in
  Array.init kept (fun i ->
      let slot = t.ring.((first + i) mod cap) in
      {
        r_round = slot.r_round;
        r_messages = slot.r_messages;
        r_words = slot.r_words;
        r_wakeups = slot.r_wakeups;
        r_max_edge_load = slot.r_max_edge_load;
        r_faults = slot.r_faults;
      })

(* {1 Events} *)

let event t label =
  locked t (fun () ->
      let slot = t.ev_ring.(t.seen_events mod Array.length t.ev_ring) in
      slot.ev_round <- now t;
      slot.ev_label <- label;
      t.seen_events <- t.seen_events + 1)

let events_recorded t = t.seen_events

let events t =
  let cap = Array.length t.ev_ring in
  let kept = min t.seen_events cap in
  let first = t.seen_events - kept in
  List.init kept (fun i ->
      let slot = t.ev_ring.((first + i) mod cap) in
      (slot.ev_round, slot.ev_label))

let pp ppf t =
  Format.fprintf ppf "trace: %d spans (%d phases), %d rounds, %d events"
    (List.length t.rev_spans)
    (List.length (phases t))
    t.seen_rounds t.seen_events
