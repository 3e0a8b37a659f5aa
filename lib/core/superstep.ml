open Dgraph

type msg =
  | Bfs of { depth : int }
  | Bfs_adopt
  | Bfs_echo
  | Done of { sent : int }
  | Advance
  | Next
  | Offer of { key : int; dist : float }
  | Offer2 of { key : int; dist : float; origin : int }
  | Relay of { key : int; edge : int; dir : int; value : float; origin : int }
  | Rec_req of { key : int; edge : int; dir : int }
  | Rec of { key : int; edge : int; dir : int; acc : float }

type t = msg

let words = function
  | Bfs_adopt | Bfs_echo | Advance | Next -> 1
  | Bfs _ | Done _ -> 2
  | Offer _ -> 3
  | Offer2 _ | Rec_req _ -> 4
  | Rec _ -> 5
  | Relay _ -> 6

(* Slab codec: [tag; fields...], a float in two slots
   ({!Congest.Slab.set_float}). The widest record is Relay: tag + key +
   edge + dir + origin + value. *)
module Sl = Congest.Slab

let slots = 7

let encode sl b = function
  | Bfs { depth } ->
    Sl.set sl b 0;
    Sl.set sl (b + 1) depth
  | Bfs_adopt -> Sl.set sl b 1
  | Bfs_echo -> Sl.set sl b 2
  | Done { sent } ->
    Sl.set sl b 3;
    Sl.set sl (b + 1) sent
  | Advance -> Sl.set sl b 4
  | Next -> Sl.set sl b 5
  | Offer { key; dist } ->
    Sl.set sl b 6;
    Sl.set sl (b + 1) key;
    Sl.set_float sl (b + 2) dist
  | Offer2 { key; dist; origin } ->
    Sl.set sl b 7;
    Sl.set sl (b + 1) key;
    Sl.set sl (b + 2) origin;
    Sl.set_float sl (b + 3) dist
  | Relay { key; edge; dir; value; origin } ->
    Sl.set sl b 8;
    Sl.set sl (b + 1) key;
    Sl.set sl (b + 2) edge;
    Sl.set sl (b + 3) dir;
    Sl.set sl (b + 4) origin;
    Sl.set_float sl (b + 5) value
  | Rec_req { key; edge; dir } ->
    Sl.set sl b 9;
    Sl.set sl (b + 1) key;
    Sl.set sl (b + 2) edge;
    Sl.set sl (b + 3) dir
  | Rec { key; edge; dir; acc } ->
    Sl.set sl b 10;
    Sl.set sl (b + 1) key;
    Sl.set sl (b + 2) edge;
    Sl.set sl (b + 3) dir;
    Sl.set_float sl (b + 4) acc

let decode sl b =
  match Sl.get sl b with
  | 0 -> Bfs { depth = Sl.get sl (b + 1) }
  | 1 -> Bfs_adopt
  | 2 -> Bfs_echo
  | 3 -> Done { sent = Sl.get sl (b + 1) }
  | 4 -> Advance
  | 5 -> Next
  | 6 -> Offer { key = Sl.get sl (b + 1); dist = Sl.get_float sl (b + 2) }
  | 7 ->
    Offer2
      { key = Sl.get sl (b + 1); origin = Sl.get sl (b + 2); dist = Sl.get_float sl (b + 3) }
  | 8 ->
    Relay
      {
        key = Sl.get sl (b + 1);
        edge = Sl.get sl (b + 2);
        dir = Sl.get sl (b + 3);
        origin = Sl.get sl (b + 4);
        value = Sl.get_float sl (b + 5);
      }
  | 9 -> Rec_req { key = Sl.get sl (b + 1); edge = Sl.get sl (b + 2); dir = Sl.get sl (b + 3) }
  | 10 ->
    Rec
      {
        key = Sl.get sl (b + 1);
        edge = Sl.get sl (b + 2);
        dir = Sl.get sl (b + 3);
        acc = Sl.get_float sl (b + 4);
      }
  | t -> invalid_arg (Printf.sprintf "Superstep: corrupt tag %d" t)

(* Advance's and Next's codec tags, read off a record without decoding *)
let is_barrier_tag t = t = 4 || t = 5

module M = struct
  type nonrec t = t

  let words = words
  let slots = slots
  let encode = encode
  let decode = decode
end

module P = Protocol.Make (M)

type kind = Barrier of int | Continuous

type 'seg plan = {
  phases : int;
  segments : int -> 'seg array;
  kind : 'seg -> kind;
  name : int -> string;
  detail : int -> string;
}

type action = A_bfs_echo_check | A_decide | A_complete | A_watchdog

(* One port's queued data, oldest first: [len] messages from [buf.(head)]
   on, wrapping around the power-of-two array. *)
type ring = { mutable buf : msg array; mutable head : int; mutable len : int }

(* fills the rings' unused cells *)
let no_msg = Advance

type 'seg ctx = {
  v : Protocol.vertex;
  rings : ring array;
  queue_limit : int;
  mutable queued : int;
  mutable own_sent : int;
  mutable phase : int;
  mutable seg : int;
  mutable segs : 'seg array;
  mutable ss_id : int;
  mutable finished : bool;
}

let me c = c.v.me
let neighbors c = c.v.neighbors
let weights c = c.v.weights
let phase c = c.phase
let segment c = c.segs.(c.seg)
let superstep_id c = c.ss_id

let fail c f =
  c.v.fail f;
  c.finished <- true

let enqueue c p m =
  let r = c.rings.(p) in
  if r.len >= c.queue_limit then begin
    if not c.finished then
      fail c
        (Protocol.Queue_overflow
           { vertex = c.v.me; port = p; length = r.len + 1; limit = c.queue_limit })
  end
  else begin
    let cap = Array.length r.buf in
    if r.len = cap then begin
      let buf = Array.make (2 * cap) no_msg in
      for i = 0 to cap - 1 do
        buf.(i) <- r.buf.((r.head + i) land (cap - 1))
      done;
      r.buf <- buf;
      r.head <- 0
    end;
    r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- m;
    r.len <- r.len + 1;
    c.queued <- c.queued + 1;
    c.own_sent <- c.own_sent + 1
  end

let pop r =
  let m = r.buf.(r.head) in
  r.buf.(r.head) <- no_msg;
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  m

let enqueue_all c ~except m =
  for p = 0 to Array.length c.v.neighbors - 1 do
    if p <> except then enqueue c p m
  done

type hooks = {
  seed : unit -> unit;
  seg_start : unit -> unit;
  snapshot : unit -> unit;
  on_data : int -> msg -> unit;
  finalize_seg : unit -> unit;
  finalize_phase : unit -> unit;
  words : unit -> int;
}

type traffic = { data : int; control : int; supersteps : int; waves : int }

type result = {
  metrics : Congest.Metrics.t;
  phases : Cost.phase list;
  traffic : (string * traffic) list;
  failures : Protocol.failure list;
}

(* a Done that reports a moved subtree in a continuous segment *)
let moved = min_int

let run ~(plan : _ plan) ~vertex ?faults ?reliable ?config ?trace
    ?max_rounds ?domains g =
  let n = Graph.n g in
  let n_phases = plan.phases in
  (* Under Reliable a masked delivery may back off for a whole
     retransmission streak before the link is declared dead, so the stall
     interval must dominate that streak: shorter and a healthy faulted run
     could trip the watchdog mid-backoff. Derived from the transport
     config actually in use, not hardcoded. *)
  let watchdog_interval =
    let base = (4 * n) + 64 in
    if Protocol.uses_reliable ~faults ~reliable then
      let cfg =
        match config with Some c -> c | None -> Congest.Reliable.default_config
      in
      max base (Congest.Reliable.retransmission_budget cfg + 64)
    else base
  in
  (* The longest per-port queue the interval covers: a full queue with
     nothing arriving behind it drains two messages per round, and the
     vertices that wait on it hear again within a Done convergecast to the
     root, the root's one-round deferral and the Advance/Next broadcast
     back, under n hops each (DESIGN.md §16). [enqueue] fails past it.
     Queues that feed one another can outlast the interval with none of
     them past this length; nothing bounds that. *)
  let queue_limit = 2 * (watchdog_interval - (2 * n)) in
  (* measured per-vertex words, max per phase (index = phase + 1); atomic
     because every vertex maxes into the shared cells, under the
     domain-sharded scheduler from different domains — CAS-max keeps the
     result exact (max is commutative) without per-vertex storage *)
  let phase_peak = Array.init (n_phases + 1) (fun _ -> Atomic.make 0) in
  let rec peak_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then peak_max cell v
  in
  (* messages sent per phase (index = phase + 1): each vertex counts its
     own and adds them here once, when it leaves the phase *)
  let phase_data = Array.init (n_phases + 1) (fun _ -> Atomic.make 0) in
  let phase_ctrl = Array.init (n_phases + 1) (fun _ -> Atomic.make 0) in
  (* supersteps and detection waves per phase, counted by the root alone *)
  let phase_steps = Array.make (n_phases + 1) 0 in
  let phase_waves = Array.make (n_phases + 1) 0 in
  (* (phase, rounds), newest first; written by the root only *)
  let marks = ref [] in
  let node ((module T) : P.transport) (v : Protocol.vertex) =
    let me = v.me in
    let deg = Array.length v.neighbors in
    let is_root = me = 0 in
    let c =
      {
        v;
        rings =
          Array.init (max 1 deg) (fun _ ->
              { buf = Array.make 4 no_msg; head = 0; len = 0 });
        queue_limit;
        queued = 0;
        own_sent = 0;
        phase = -1;
        seg = 0;
        segs = [||];
        ss_id = 0;
        finished = false;
      }
    in
    let h = vertex c in
    let root_trace f = if is_root then Option.iter f trace in
    let phase_trace p = root_trace (fun tr -> Congest.Trace.phase tr (plan.name p)) in
    let phase_trace_end () = root_trace Congest.Trace.phase_end in
    (* ---- BFS setup state ---- *)
    let bfs_parent_port = ref (-1)
    and bfs_children = ref 0
    and echoes = ref 0 in
    let is_child = Array.make (max 1 deg) false in
    (* ---- barrier and detection state: [superstep] counts the current
       segment's supersteps or detection waves, [in_superstep] is set while
       this vertex owes the open one a Done ---- *)
    let superstep = ref 0
    and in_superstep = ref false
    and done_sent = ref false
    and done_children = ref 0
    and children_sent = ref 0
    and phase_start = ref 0
    and last_drain = ref (-1)
    and last_progress = ref 0 in
    (* continuous segments: data handled since the open, the (sent,
       received) pair at this vertex's previous Done, and whether a child's
       subtree reported a move in the open wave *)
    let continuous = ref false
    and received = ref 0
    and seen_sent = ref 0
    and seen_received = ref 0
    and children_moved = ref false in
    (* messages this vertex sent in the current phase *)
    let n_data = ref 0 and n_ctrl = ref 0 in
    let agenda = Protocol.agenda () in
    (* control messages share edges with data; every send is tallied per
       port so nothing exceeds the run's edge capacity of 2 *)
    let ctrl_round = ref (-1) in
    let ctrl = Array.make (max 1 deg) 0 in
    let note_send p =
      if !ctrl_round <> T.round () then begin
        ctrl_round := T.round ();
        Array.fill ctrl 0 (Array.length ctrl) 0
      end;
      ctrl.(p) <- ctrl.(p) + 1
    in
    let port_used p = if !ctrl_round = T.round () then ctrl.(p) else 0 in
    let send_ctrl p m =
      note_send p;
      incr n_ctrl;
      T.send p m
    in
    let bc_down m =
      for p = 0 to deg - 1 do
        if is_child.(p) then send_ctrl p m
      done
    in
    let update_mem () =
      let words = h.words () + (2 * c.queued) in
      T.set_memory words;
      peak_max phase_peak.(min n_phases (c.phase + 1)) words
    in
    (* a superstep or a detection wave opens at this vertex *)
    let open_wave () =
      in_superstep := true;
      done_sent := false;
      done_children := 0;
      children_sent := 0;
      children_moved := false
    in
    let snapshot () =
      open_wave ();
      c.own_sent <- 0;
      c.ss_id <- c.ss_id + 1;
      h.snapshot ()
    in
    (* the value this vertex's Done carries: a barrier superstep's sends,
       or a detection wave's sent - received balance unless this vertex's
       pair or a child's subtree moved since the previous wave *)
    let tally () =
      if !continuous then begin
        let still =
          (not !children_moved) && c.own_sent = !seen_sent && !received = !seen_received
        in
        seen_sent := c.own_sent;
        seen_received := !received;
        if still then c.own_sent - !received + !children_sent else moved
      end
      else c.own_sent + !children_sent
    in
    let open_segment () =
      superstep := 0;
      continuous := plan.kind c.segs.(c.seg) = Continuous;
      c.own_sent <- 0;
      received := 0;
      seen_sent := 0;
      seen_received := 0;
      h.seg_start ();
      if !continuous then begin
        open_wave ();
        h.snapshot ()
      end
      else snapshot ()
    in
    let open_phase () =
      let i = c.phase + 1 in
      ignore (Atomic.fetch_and_add phase_data.(i) !n_data);
      ignore (Atomic.fetch_and_add phase_ctrl.(i) !n_ctrl);
      n_data := 0;
      n_ctrl := 0;
      c.phase <- i;
      c.seg <- 0;
      if c.phase >= n_phases then begin
        c.finished <- true;
        phase_trace_end ()
      end
      else begin
        phase_trace c.phase;
        if is_root then phase_start := T.round ();
        c.segs <- plan.segments c.phase;
        h.seed ();
        open_segment ()
      end
    in
    let on_next () =
      if c.phase < 0 then begin
        phase_trace_end ();
        open_phase ()
      end
      else begin
        h.finalize_seg ();
        c.seg <- c.seg + 1;
        if c.seg >= Array.length c.segs then begin
          h.finalize_phase ();
          open_phase ()
        end
        else open_segment ()
      end
    in
    let echo_up () =
      if not is_root then send_ctrl !bfs_parent_port Bfs_echo
      else begin
        (* setup complete at the root: record its span, open phase 0 *)
        marks := (-1, T.round ()) :: !marks;
        bc_down Next;
        on_next ()
      end
    in
    let maybe_complete () =
      if
        !in_superstep && (not !done_sent) && c.queued = 0
        && !done_children = !bfs_children
      then begin
        if is_root then begin
          done_sent := true;
          (* the one-round deferral of the first timing invariant *)
          Protocol.schedule agenda (T.round () + 1) A_decide
        end
        else if port_used !bfs_parent_port < 2 then begin
          done_sent := true;
          in_superstep := false;
          send_ctrl !bfs_parent_port (Done { sent = tally () })
        end
        else
          (* parent edge is at capacity this round (the drain just emptied
             the queue into it) - send Done next round *)
          Protocol.schedule agenda (T.round () + 1) A_complete
      end
    in
    let on_control port = function
      | Bfs { depth } when !bfs_parent_port < 0 && not is_root ->
        bfs_parent_port := port;
        send_ctrl port Bfs_adopt;
        for p = 0 to deg - 1 do
          if p <> port then send_ctrl p (Bfs { depth = depth + 1 })
        done;
        Protocol.schedule agenda (T.round () + 3) A_bfs_echo_check
      | Bfs_adopt ->
        incr bfs_children;
        is_child.(port) <- true
      | Bfs_echo ->
        incr echoes;
        if !echoes = !bfs_children then echo_up ()
      | Done { sent } ->
        incr done_children;
        if sent = moved then children_moved := true
        else children_sent := !children_sent + sent
      | Advance when port = !bfs_parent_port ->
        bc_down Advance;
        incr superstep;
        if !continuous then open_wave () else snapshot ()
      | Next when port = !bfs_parent_port ->
        bc_down Next;
        on_next ()
      | Bfs _ | Advance | Next | Offer _ | Offer2 _ | Relay _ | Rec_req _ | Rec _ -> ()
    in
    let run_action = function
      | A_bfs_echo_check -> if !bfs_children = 0 then echo_up ()
      | A_decide ->
        let total = tally () in
        incr superstep;
        let cell = c.phase + 1 in
        let close =
          match plan.kind c.segs.(c.seg) with
          | Continuous ->
            phase_waves.(cell) <- phase_waves.(cell) + 1;
            total = 0
          | Barrier budget ->
            phase_steps.(cell) <- phase_steps.(cell) + 1;
            total = 0 || !superstep >= budget
        in
        if close then begin
          if c.seg = Array.length c.segs - 1 then
            marks := (c.phase, T.round () - !phase_start) :: !marks;
          bc_down Next;
          on_next ()
        end
        else begin
          bc_down Advance;
          if !continuous then open_wave () else snapshot ()
        end
      | A_complete -> maybe_complete ()
      | A_watchdog ->
        (* Typed-failure path under crash-stop faults: a vertex that has
           neither received a message nor advanced a barrier for a whole
           interval declares the stage wedged instead of hanging forever.
           The interval covers a wait on one port's queue of up to
           [queue_limit] messages, which [enqueue] enforces, but not on
           queues that feed one another (DESIGN.md §16). *)
        if not c.finished then begin
          if T.round () - !last_progress >= watchdog_interval then
            fail c
              (if c.phase < 0 then
                 Protocol.Setup_timeout { vertex = me; round = T.round () }
               else
                 Stalled
                   {
                     vertex = me;
                     round = T.round ();
                     phase = plan.name c.phase;
                     superstep = !superstep;
                     continuous = !continuous;
                   })
          else Protocol.schedule agenda (T.round () + watchdog_interval) A_watchdog
        end
    in
    let drain () =
      let r = T.round () in
      if !last_drain < r then begin
        last_drain := r;
        for p = 0 to deg - 1 do
          let budget = ref (2 - port_used p) in
          let ring = c.rings.(p) in
          while !budget > 0 && ring.len > 0 do
            let m = pop ring in
            c.queued <- c.queued - 1;
            decr budget;
            note_send p;
            incr n_data;
            T.send p m
          done
        done
      end
    in
    (* every edge carries wave data: any dead link stops the vertex *)
    let stop _ = c.finished <- true in
    (* round 0: BFS flood from the root *)
    phase_trace (-1);
    if is_root then begin
      for p = 0 to deg - 1 do
        send_ctrl p (Bfs { depth = 0 })
      done;
      Protocol.schedule agenda 3 A_bfs_echo_check
    end;
    Protocol.schedule agenda watchdog_interval A_watchdog;
    update_mem ();
    let rec loop () =
      if not c.finished then begin
        let dl = Protocol.deadline agenda in
        let dl = if c.queued > 0 then min dl (T.round () + 1) else dl in
        let ib = if dl = max_int then T.wait () else T.wait_until dl in
        let records = T.count ib in
        if records > 0 then begin
          last_progress := T.round ();
          (* the second timing invariant: the barrier that opens a
             superstep is handled before any data of that superstep. Only
             the parent sends Advance/Next, so those records go first; every
             other record is decoded once and dispatched in inbox order. *)
          let parent = !bfs_parent_port in
          if parent >= 0 then
            for i = 0 to records - 1 do
              if T.port ib i = parent && is_barrier_tag (T.slot ib i 0) then
                on_control parent (T.msg ib i)
            done;
          let received0 = !received in
          for i = 0 to records - 1 do
            let p = T.port ib i in
            if p <> parent || not (is_barrier_tag (T.slot ib i 0)) then
              match T.msg ib i with
              | (Bfs _ | Bfs_adopt | Bfs_echo | Done _ | Advance | Next) as m ->
                on_control p m
              | (Offer _ | Offer2 _ | Relay _ | Rec_req _ | Rec _) as m ->
                incr received;
                h.on_data p m
          done;
          (* a continuous segment queues what this wake-up's data changed *)
          if !continuous && !received > received0 && not c.finished then h.snapshot ()
        end;
        (match T.dead_ports () with [] -> () | dead -> Protocol.check_dead v dead stop);
        Protocol.run_due agenda (T.round ()) run_action;
        if not c.finished then begin
          drain ();
          maybe_complete ();
          update_mem ();
          loop ()
        end
      end
    in
    loop ()
  in
  let metrics, failures =
    P.run ?faults ?reliable ?config ?trace ?max_rounds ?domains g ~node
  in
  let marks = List.rev !marks in
  {
    metrics;
    phases =
      List.map
        (fun (p, rounds) ->
          {
            Cost.name = plan.name p;
            detail = plan.detail p;
            rounds;
            peak_memory = Atomic.get phase_peak.(p + 1);
          })
        marks;
    traffic =
      List.map
        (fun (p, _) ->
          ( plan.name p,
            {
              data = Atomic.get phase_data.(p + 1);
              control = Atomic.get phase_ctrl.(p + 1);
              supersteps = phase_steps.(p + 1);
              waves = phase_waves.(p + 1);
            } ))
        marks;
    failures;
  }
