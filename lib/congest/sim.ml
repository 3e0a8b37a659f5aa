module type MESSAGE = sig
  type t

  val words : t -> int
  val slots : int
  val encode : Slab.t -> int -> t -> unit
  val decode : Slab.t -> int -> t
end

exception Congestion of { vertex : int; port : int; round : int }
exception Message_too_large of { vertex : int; words : int; round : int }

type wake = Now | On_message | At of int | Msg_or_at of int

let pp_wake ppf = function
  | Now -> Format.pp_print_string ppf "sync"
  | On_message -> Format.pp_print_string ppf "wait"
  | At r -> Format.fprintf ppf "sleep_until %d" r
  | Msg_or_at r -> Format.fprintf ppf "wait_until %d" r

type deadlock = { total : int; stuck : (int * wake) list }
type outcome = Completed | Deadlocked of deadlock | Round_limit
type report = { outcome : outcome; metrics : Metrics.t }

type scheduler = Event_driven | Scan_reference

let pp_outcome ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Round_limit -> Format.pp_print_string ppf "round limit exceeded"
  | Deadlocked d ->
    Format.fprintf ppf "deadlocked: %d vertices stuck" d.total;
    if d.total > List.length d.stuck then
      Format.fprintf ppf " (showing %d)" (List.length d.stuck);
    Format.pp_print_string ppf " [";
    List.iteri
      (fun i (v, w) ->
        if i > 0 then Format.pp_print_string ppf "; ";
        Format.fprintf ppf "v%d: %a" v pp_wake w)
      d.stuck;
    Format.pp_print_string ppf "]"

(** Vertex-side operations common to the raw simulator and the {!Reliable}
    transport, so a protocol body can be written once against a first-class
    [(module TRANSPORT with type msg = ...)] and run on either. *)
module type TRANSPORT = sig
  type msg
  type inbox

  val count : inbox -> int
  val port : inbox -> int -> int
  val msg : inbox -> int -> msg
  val slot : inbox -> int -> int -> int
  val send : int -> msg -> unit
  val sync : unit -> inbox
  val wait : unit -> inbox
  val sleep_until : int -> inbox
  val wait_until : int -> inbox
  val round : unit -> int
  val real_round : unit -> int
  val set_memory : int -> unit
  val add_memory : int -> unit
  val dead_ports : unit -> (int * string) list
end

(* A wake-up's deliveries as records [port; payload x M.slots] in one slab,
   read in place: the layout both transports hand their vertices. *)
module Inbox (M : MESSAGE) = struct
  let stride = 1 + M.slots
  let count s = Slab.length s / stride
  let port s i = Slab.get s (i * stride)
  let msg s i = M.decode s ((i * stride) + 1)
  let slot s i j = Slab.get s ((i * stride) + 1 + j)

  let add s p =
    let b = Slab.alloc s stride in
    Slab.set s b p;
    b + 1
end

(* Growable int vector; the event scheduler's worklists. *)
type ivec = { mutable iv : int array; mutable ivlen : int }

let ivec_make () = { iv = Array.make 16 0; ivlen = 0 }

let ivec_push v x =
  if v.ivlen = Array.length v.iv then begin
    let a = Array.make (2 * v.ivlen) 0 in
    Array.blit v.iv 0 a 0 v.ivlen;
    v.iv <- a
  end;
  v.iv.(v.ivlen) <- x;
  v.ivlen <- v.ivlen + 1

let ivec_clear v = v.ivlen <- 0

let array_swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

(* In-place ascending sort of the subrange a.(lo..hi): quicksort with
   median-of-three pivots, insertion sort below a small cutoff. Used on the
   per-round ready list (distinct vertex ids), where Array.sub + Array.sort
   would allocate every round. *)
let rec sort_range (a : int array) lo hi =
  if hi - lo >= 12 then begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) < a.(lo) then array_swap a mid lo;
    if a.(hi) < a.(lo) then array_swap a hi lo;
    if a.(hi) < a.(mid) then array_swap a hi mid;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        array_swap a !i !j;
        incr i;
        decr j
      end
    done;
    sort_range a lo !j;
    sort_range a !i hi
  end
  else
    for k = lo + 1 to hi do
      let x = a.(k) in
      let j = ref (k - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

module Make (M : MESSAGE) = struct
  type ctx = {
    me : int;
    n : int;
    neighbors : int array;
    weights : float array;
  }

  (* Record layouts. Messages live as flat int records in slabs from the
     moment they are sent to the moment the receiving program asks for one
     ([msg]); [M.encode]/[M.decode] at those two boundaries are the only
     places a boxed message exists.

     - inbuf record (per-vertex buffer, and the vertex's inbox view):
       [port; payload x M.slots]
     - outbox record (per-domain transit, and fault-delayed messages parked
       until they land): [dst; port; payload x M.slots] *)
  module Ib = Inbox (M)

  type inbox = Slab.t

  let count = Ib.count
  let port = Ib.port
  let msg = Ib.msg
  let slot = Ib.slot
  let islots = M.slots
  let istride = Ib.stride
  let ostride = 2 + islots

  (* What a suspended vertex waits for; the deadline of [K_at] and
     [K_msg_or_at] sits beside it in the node state, so parking allocates
     nothing. *)
  type kind = K_now | K_msg | K_at | K_msg_or_at

  (* Only the blocking operations suspend the vertex's fiber, so only they
     are effects, and they share one payload-free effect: the blocking call
     first parks its kind and deadline in the running vertex's state
     through the ops record. The non-blocking primitives (send, round,
     memory accounting) dispatch through that domain-local ops record alone:
     performing an effect costs a continuation capture, and sends outnumber
     suspensions roughly ten to one on the tree-routing workloads. [run]
     installs one ops record per scheduler domain. *)
  type _ Effect.t += Block : inbox Effect.t

  type ops = {
    op_park : kind -> int -> unit;
    op_send : int -> M.t -> unit;
    op_round : unit -> int;
    op_set_memory : int -> unit;
    op_add_memory : int -> unit;
    op_note_retransmit : unit -> unit;
  }

  let ops_outside () = failwith "Sim: transport primitive used outside run"

  let outside_ops =
    {
      op_park = (fun _ _ -> ops_outside ());
      op_send = (fun _ _ -> ops_outside ());
      op_round = (fun () -> ops_outside ());
      op_set_memory = (fun _ -> ops_outside ());
      op_add_memory = (fun _ -> ops_outside ());
      op_note_retransmit = (fun () -> ops_outside ());
    }

  (* Domain-local: each scheduler domain (the caller for domains = 1, each
     worker otherwise) installs ops closed over its own shard context, so a
     vertex program's sends are attributed to the domain actually running
     the fiber without any cross-domain traffic. *)
  let dls_ops : ops Domain.DLS.key = Domain.DLS.new_key (fun () -> outside_ops)

  let send p m = (Domain.DLS.get dls_ops).op_send p m

  let block kind r =
    (Domain.DLS.get dls_ops).op_park kind r;
    Effect.perform Block

  let sync () = block K_now 0
  let wait () = block K_msg 0
  let sleep_until r = block K_at r
  let wait_until r = block K_msg_or_at r
  let round () = (Domain.DLS.get dls_ops).op_round ()
  let set_memory w = (Domain.DLS.get dls_ops).op_set_memory w
  let add_memory d = (Domain.DLS.get dls_ops).op_add_memory d
  let note_retransmit () = (Domain.DLS.get dls_ops).op_note_retransmit ()

  module Transport = struct
    type msg = M.t
    type nonrec inbox = inbox

    let count = count
    let port = port
    let msg = msg
    let slot = slot
    let send = send
    let sync = sync
    let wait = wait
    let sleep_until = sleep_until
    let wait_until = wait_until
    let round = round
    let real_round = round
    let set_memory = set_memory
    let add_memory = add_memory
    let dead_ports () = []
  end

  type node_state = {
    id : int;
    mutable cont : (inbox, unit) Effect.Deep.continuation option;
    mutable started : bool;
    mutable crashed : bool;
    mutable kind : kind;
    mutable deadline : int;  (* of [K_at] / [K_msg_or_at] *)
    inbuf : Slab.t;
        (* records delivered since the last suspension, in arrival order;
           while the vertex runs, the view its blocking call returned *)
    recv_scratch : int array;  (* per-port counters for the delivery sort *)
    mutable mem_words : int;
    sent_count : int array;
    sent_stamp : int array;
    mutable timer_at : int;  (* heap key of the live timer entry; -1 = none *)
    mutable queued_at : int;  (* last round this vertex was put on a worklist *)
  }

  let dummy_state () =
    {
      id = -1;
      cont = None;
      started = false;
      crashed = false;
      kind = K_now;
      deadline = 0;
      inbuf = Slab.create ();
      recv_scratch = [||];
      mem_words = 0;
      sent_count = [||];
      sent_stamp = [||];
      timer_at = -1;
      queued_at = -1;
    }

  (* Per-domain shard context. Every field is touched either exclusively by
     the owning domain (during the parallel Start/Gather/Exec/Deliver
     phases) or exclusively by the coordinator (between phases); the round
     barrier's mutex transfers ownership, so no field needs to be atomic. *)
  type dctx = {
    dom : int;
    lo : int;
    hi : int;  (* owns vertices [lo, hi) *)
    dmetrics : Metrics.t;
    ready : ivec;
    ready_next : ivec;
    timers : Dgraph.Pqueue.Int_heap.t;
    mutable dlive : int;
    out : Slab.t array;  (* out.(e): records bound for domain e's vertices *)
    dl : Slab.t array;
        (* dl.(slot * nd + e): fault-delayed records bound for domain e's
           vertices that land in a round congruent to [slot] *)
    mutable dl_hi : int;  (* latest landing round parked so far; -1 = none *)
    scatter : Slab.t;  (* per-round records regrouped by destination *)
    touched : ivec;  (* destinations with incoming records this round *)
    runs : ivec;  (* scatter-record index where each touched run starts *)
    dst_count : int array;  (* per owned vertex, indexed v - lo *)
    dports : ivec;
    mutable round_load : int;
    mutable wake_count : int;
    mutable drunning : node_state;
    mutable dexn : exn option;
  }

  type cmd = C_start | C_gather | C_exec | C_deliver | C_quit

  (* sense-reversing command barrier: the coordinator publishes (seq, cmd),
     workers run the phase and count down [pending] *)
  type par = {
    pm : Mutex.t;
    cv_cmd : Condition.t;
    cv_done : Condition.t;
    mutable seq : int;
    mutable cmd : cmd;
    mutable pending : int;
  }

  let run ?(max_rounds = 50_000_000) ?(edge_capacity = 1) ?(word_limit = 8)
      ?faults ?trace ?(scheduler = Event_driven) ?(domains = 1) g ~node =
    let open Dgraph in
    if domains < 1 then invalid_arg "Sim.run: domains must be >= 1";
    let n = Graph.n g in
    let evt = scheduler = Event_driven in
    (* the scan reference is serial by definition; sharding applies to the
       event engine *)
    let nd = if evt then max 1 (min domains n) else 1 in
    let cur_round = ref 0 in
    (* Messages the fault plan deferred are parked per landing round: a
       message landing in round r becomes readable in round r+1, exactly
       like a normal send performed in round r. Every round that executes
       first moves all landings before it into the inbufs, and its own sends
       land at most max_delay rounds later, so the parked landing rounds
       always lie in [!dl_from, !dl_from + max_delay] and a ring of
       max_delay + 1 slots gives each its own. *)
    let dslots =
      match faults with Some f -> (Fault.spec f).Fault.max_delay + 1 | None -> 1
    in
    let dl_from = ref 0 in
    (* Flat port translation: sending through port p of vertex v reaches
       nbr.(v).(p), arriving there on port rev_port.(v).(p). The int-keyed
       table below exists only during this setup pass. *)
    let nbr = Array.init n (fun u -> Array.map fst (Graph.neighbors g u)) in
    let rev_port =
      let tbl = Hashtbl.create (4 * Graph.m g) in
      for u = 0 to n - 1 do
        Array.iteri (fun q x -> Hashtbl.replace tbl ((u * n) + x) q) nbr.(u)
      done;
      Array.init n (fun v ->
          Array.map (fun x -> Hashtbl.find tbl ((x * n) + v)) nbr.(v))
    in
    let crash_at =
      Array.init n (fun v ->
          match faults with None -> None | Some f -> Fault.crash_round f v)
    in
    let states =
      Array.init n (fun v ->
          {
            id = v;
            cont = None;
            started = false;
            crashed = false;
            kind = K_now;
            deadline = 0;
            inbuf = Slab.create ();
            recv_scratch = Array.make (Graph.degree g v) 0;
            mem_words = 0;
            sent_count = Array.make (Graph.degree g v) 0;
            sent_stamp = Array.make (Graph.degree g v) (-1);
            timer_at = -1;
            queued_at = -1;
          })
    in
    (* owner.(v) = domain of vertex v; contiguous near-equal blocks *)
    let block_lo d = d * n / nd in
    let owner = Array.make (max n 1) 0 in
    for d = 0 to nd - 1 do
      for v = block_lo d to block_lo (d + 1) - 1 do
        owner.(v) <- d
      done
    done;
    let dctxs =
      Array.init nd (fun d ->
          let lo = block_lo d and hi = block_lo (d + 1) in
          {
            dom = d;
            lo;
            hi;
            dmetrics = Metrics.create ~n;
            ready = ivec_make ();
            ready_next = ivec_make ();
            timers = Pqueue.Int_heap.create ();
            dlive = hi - lo;
            out = Array.init nd (fun _ -> Slab.create ());
            dl = Array.init (dslots * nd) (fun _ -> Slab.create ());
            dl_hi = -1;
            scatter = Slab.create ();
            touched = ivec_make ();
            runs = ivec_make ();
            dst_count = Array.make (max 1 (hi - lo)) 0;
            dports = ivec_make ();
            round_load = 0;
            wake_count = 0;
            drunning = dummy_state ();
            dexn = None;
          })
    in
    let dctx0 = dctxs.(0) in
    let sum_msgs () =
      Array.fold_left (fun a d -> a + d.dmetrics.Metrics.messages) 0 dctxs
    in
    let sum_words () =
      Array.fold_left (fun a d -> a + d.dmetrics.Metrics.message_words) 0 dctxs
    in
    let sum_faults () =
      Array.fold_left
        (fun a d ->
          a + d.dmetrics.Metrics.dropped + d.dmetrics.Metrics.duplicated
          + d.dmetrics.Metrics.delayed)
        0 dctxs
    in
    (match trace with
    | None -> ()
    | Some t ->
      Trace.bind t
        ~clock:(fun () -> !cur_round)
        ~counters:(fun () -> (sum_msgs (), sum_words ())));
    (* per-round counter snapshots for the trace ring; hoisted so the
       traced path allocates nothing per round either *)
    let tr_m0 = ref 0 and tr_w0 = ref 0 and tr_f0 = ref 0 in
    let crash_sched =
      let l = ref [] in
      for v = n - 1 downto 0 do
        match crash_at.(v) with Some r -> l := (r, v) :: !l | None -> ()
      done;
      let a = Array.of_list !l in
      Array.sort
        (fun (r1, v1) (r2, v2) ->
          if r1 <> r2 then Int.compare r1 r2 else Int.compare v1 v2)
        a;
      a
    in
    let crash_idx = ref 0 in
    let finished st = st.cont = None && st.started in
    let inbuf_records st = Slab.length st.inbuf / istride in
    (* flush each edge's still-open active-round load sample, then report *)
    let finish outcome =
      Array.iter
        (fun st ->
          Array.iteri
            (fun p stamp ->
              if stamp >= 0 then begin
                Histogram.add dctx0.dmetrics.Metrics.edge_load st.sent_count.(p);
                st.sent_stamp.(p) <- -1
              end)
            st.sent_stamp)
        states;
      let metrics =
        if nd = 1 then dctx0.dmetrics
        else
          Array.fold_left
            (fun acc d -> Metrics.merge acc d.dmetrics)
            dctxs.(0).dmetrics
            (Array.sub dctxs 1 (nd - 1))
      in
      { outcome; metrics }
    in
    let crash_vertex st =
      let d = dctxs.(owner.(st.id)) in
      if st.cont <> None || not st.started then d.dlive <- d.dlive - 1;
      st.crashed <- true;
      st.started <- true;
      st.cont <- None;
      st.timer_at <- -1;
      (* everything queued for the dead vertex is lost *)
      d.dmetrics.Metrics.dropped <-
        d.dmetrics.Metrics.dropped + inbuf_records st;
      Slab.clear st.inbuf
    in
    let apply_crashes r =
      Array.iter
        (fun st ->
          match crash_at.(st.id) with
          | Some cr when cr <= r && not st.crashed -> crash_vertex st
          | _ -> ())
        states
    in
    (* event-mode equivalent: crash events are consumed in schedule order,
       so each is applied exactly once, at the first attempted round >= it *)
    let apply_crashes_upto r =
      while
        !crash_idx < Array.length crash_sched
        && fst crash_sched.(!crash_idx) <= r
      do
        let _, v = crash_sched.(!crash_idx) in
        incr crash_idx;
        if not states.(v).crashed then crash_vertex states.(v)
      done
    in
    (* append one encoded record for port q of u to slab s *)
    let emit s u q m =
      let base = Slab.alloc s ostride in
      Slab.set s base u;
      Slab.set s (base + 1) q;
      M.encode s (base + 2) m
    in
    let do_send dc st p m =
      let deg = Array.length st.sent_count in
      if p < 0 || p >= deg then
        invalid_arg
          (Printf.sprintf "Sim.send: vertex %d has no port %d (degree %d)" st.id p deg);
      let words = M.words m in
      if words > word_limit then
        raise (Message_too_large { vertex = st.id; words; round = !cur_round });
      let metrics = dc.dmetrics in
      if st.sent_stamp.(p) <> !cur_round then begin
        (* the edge's previous active round is over: sample its load *)
        if st.sent_stamp.(p) >= 0 then
          Histogram.add metrics.Metrics.edge_load st.sent_count.(p);
        st.sent_stamp.(p) <- !cur_round;
        st.sent_count.(p) <- 0
      end;
      if st.sent_count.(p) >= edge_capacity then
        raise (Congestion { vertex = st.id; port = p; round = !cur_round });
      st.sent_count.(p) <- st.sent_count.(p) + 1;
      if st.sent_count.(p) > metrics.Metrics.max_edge_load then
        metrics.Metrics.max_edge_load <- st.sent_count.(p);
      if st.sent_count.(p) > dc.round_load then dc.round_load <- st.sent_count.(p);
      metrics.Metrics.messages <- metrics.Metrics.messages + 1;
      metrics.Metrics.message_words <- metrics.Metrics.message_words + words;
      Histogram.add metrics.Metrics.message_size words;
      let u = nbr.(st.id).(p) in
      let q = rev_port.(st.id).(p) in
      (* fault injection sits strictly after the capacity and word-limit
         accounting: the sender is charged for the send whatever the network
         then does to it *)
      let out = dc.out.(owner.(u)) in
      match faults with
      | None -> emit out u q m
      | Some _ when states.(u).crashed ->
        metrics.Metrics.dropped <- metrics.Metrics.dropped + 1
      | Some f -> (
        match
          Fault.classify f ~round:!cur_round ~src:st.id ~dst:u
            ~k:(st.sent_count.(p) - 1)
        with
        | Fault.Deliver -> emit out u q m
        | Fault.Drop -> metrics.Metrics.dropped <- metrics.Metrics.dropped + 1
        | Fault.Duplicate ->
          metrics.Metrics.duplicated <- metrics.Metrics.duplicated + 1;
          emit out u q m;
          emit out u q m
        | Fault.Delay d ->
          metrics.Metrics.delayed <- metrics.Metrics.delayed + 1;
          let land_ = !cur_round + d in
          emit dc.dl.(((land_ mod dslots) * nd) + owner.(u)) u q m;
          if land_ > dc.dl_hi then dc.dl_hi <- land_)
    in
    (* One handler per fiber, its closures built when the fiber starts. A
       suspension first expires the view the last wake-up handed out: no
       delivery lands while a vertex runs (deliveries happen between the
       execute phases), so the inbuf then holds exactly that view's records,
       and it is empty again when the vertex parks. *)
    let handler dc (st : node_state) : (unit, unit) Effect.Deep.handler =
      let on_block =
        Some
          (fun (k : (inbox, unit) Effect.Deep.continuation) ->
            st.cont <- Some k;
            Slab.clear st.inbuf;
            match st.kind with
            | K_now ->
              st.timer_at <- -1;
              if evt then begin
                st.queued_at <- !cur_round + 1;
                ivec_push dc.ready_next st.id
              end
            | K_msg -> st.timer_at <- -1
            | K_at | K_msg_or_at ->
              if evt then begin
                let eff_r = max st.deadline (!cur_round + 1) in
                st.timer_at <- eff_r;
                Pqueue.Int_heap.push dc.timers ~key:eff_r st.id
              end)
      in
      {
        retc =
          (fun () ->
            st.cont <- None;
            Slab.clear st.inbuf;
            dc.dlive <- dc.dlive - 1);
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Block -> (on_block : ((a, unit) Effect.Deep.continuation -> unit) option)
            | _ -> None);
      }
    in
    let start dc st =
      st.started <- true;
      dc.wake_count <- dc.wake_count + 1;
      dc.dmetrics.Metrics.wakeups <- dc.dmetrics.Metrics.wakeups + 1;
      let ctx =
        {
          me = st.id;
          n;
          neighbors = Array.copy nbr.(st.id);
          weights = Array.map snd (Graph.neighbors g st.id);
        }
      in
      dc.drunning <- st;
      Effect.Deep.match_with node ctx (handler dc st)
    in
    let resume dc st =
      match st.cont with
      | None -> ()
      | Some k ->
        st.cont <- None;
        dc.wake_count <- dc.wake_count + 1;
        dc.dmetrics.Metrics.wakeups <- dc.dmetrics.Metrics.wakeups + 1;
        dc.drunning <- st;
        Effect.Deep.continue k st.inbuf
    in
    (* Wake a vertex blocked on messages ([wait]/[wait_until]) for round
       [r]; [queued_at] dedups against a same-round worklist entry. *)
    let push_msg_wakeup wl r stu =
      if stu.cont <> None then
        match stu.kind with
        | K_msg | K_msg_or_at ->
          if stu.queued_at < r then begin
            stu.queued_at <- r;
            ivec_push wl stu.id
          end
        | K_now | K_at -> ()
    in
    (* the records source domain e holds for domain dom's vertices: its
       outbox when [slot] < 0, else its fault-delayed records of that slot *)
    let inbound e dom slot =
      if slot < 0 then dctxs.(e).out.(dom) else dctxs.(e).dl.((slot * nd) + dom)
    in
    (* Drain the round's incoming records into the owned vertices' inbufs,
       in the order the seed scheduler produced: per destination, ports
       ascending and, within one port, newest send first. Pass A counts
       records per destination (and drops those bound for crashed
       vertices); pass B regroups them by destination into [scatter],
       preserving arrival order; the per-destination counting sort then
       reproduces the reference order in O(run + distinct ports),
       allocation-free once the slabs have grown. A port has one sender,
       so however domain outboxes interleave across sources, the per-port
       subsequences — the only order the sort preserves — are exactly the
       serial scheduler's. *)
    let deliver dc slot =
      let lo = dc.lo in
      let counts = dc.dst_count in
      ivec_clear dc.touched;
      ivec_clear dc.runs;
      let kept = ref 0 in
      for e = 0 to nd - 1 do
        let s = inbound e dc.dom slot in
        let nrec = Slab.length s / ostride in
        for i = 0 to nrec - 1 do
          let u = Slab.get s (i * ostride) in
          if states.(u).crashed then
            dc.dmetrics.Metrics.dropped <- dc.dmetrics.Metrics.dropped + 1
          else begin
            if counts.(u - lo) = 0 then ivec_push dc.touched u;
            counts.(u - lo) <- counts.(u - lo) + 1;
            incr kept
          end
        done
      done;
      if !kept > 0 then begin
        (* prefix-sum in touched order: counts.(u-lo) becomes u's cursor *)
        Slab.clear dc.scatter;
        ignore (Slab.alloc dc.scatter (!kept * istride));
        let cursor = ref 0 in
        for i = 0 to dc.touched.ivlen - 1 do
          let u = dc.touched.iv.(i) in
          let c = counts.(u - lo) in
          ivec_push dc.runs !cursor;
          counts.(u - lo) <- !cursor;
          cursor := !cursor + c
        done;
        for e = 0 to nd - 1 do
          let s = inbound e dc.dom slot in
          let nrec = Slab.length s / ostride in
          for i = 0 to nrec - 1 do
            let u = Slab.get s (i * ostride) in
            if not states.(u).crashed then begin
              let slot = counts.(u - lo) in
              counts.(u - lo) <- slot + 1;
              Slab.set dc.scatter (slot * istride) (Slab.get s ((i * ostride) + 1));
              Slab.blit ~src:s
                ~src_pos:((i * ostride) + 2)
                ~dst:dc.scatter
                ~dst_pos:((slot * istride) + 1)
                ~len:islots
            end
          done
        done;
        (* per destination: counting sort of its run by port *)
        for t = 0 to dc.touched.ivlen - 1 do
          let u = dc.touched.iv.(t) in
          let stu = states.(u) in
          let b = dc.runs.iv.(t) in
          let e = counts.(u - lo) in
          let len = e - b in
          let pc = stu.recv_scratch in
          ivec_clear dc.dports;
          for i = b to e - 1 do
            let p = Slab.get dc.scatter (i * istride) in
            if pc.(p) = 0 then ivec_push dc.dports p;
            pc.(p) <- pc.(p) + 1
          done;
          let dp = dc.dports.iv and dn = dc.dports.ivlen in
          sort_range dp 0 (dn - 1);
          let base_rec = Slab.length stu.inbuf / istride in
          let cursor = ref base_rec in
          for i = 0 to dn - 1 do
            let p = dp.(i) in
            let c = pc.(p) in
            pc.(p) <- !cursor;
            cursor := !cursor + c
          done;
          ignore (Slab.alloc stu.inbuf (len * istride));
          for i = e - 1 downto b do
            let p = Slab.get dc.scatter (i * istride) in
            let slot = pc.(p) in
            pc.(p) <- slot + 1;
            Slab.set stu.inbuf (slot * istride) p;
            Slab.blit ~src:dc.scatter
              ~src_pos:((i * istride) + 1)
              ~dst:stu.inbuf
              ~dst_pos:((slot * istride) + 1)
              ~len:islots
          done;
          for i = 0 to dn - 1 do
            pc.(dp.(i)) <- 0
          done;
          counts.(u - lo) <- 0;
          if evt then push_msg_wakeup dc.ready_next (!cur_round + 1) stu
        done
      end;
      for e = 0 to nd - 1 do
        Slab.clear (inbound e dc.dom slot)
      done
    in
    let parked_hi () =
      Array.fold_left (fun a d -> if d.dl_hi > a then d.dl_hi else a) (-1) dctxs
    in
    (* Move the fault-delayed messages that landed before round [r] into
       their destinations' inbufs (readable from round [r] on), one landing
       round at a time, oldest first. [deliver] orders each landing's
       records like a round's sends — per destination, ports ascending,
       newest first within a port — and a port's records all come from its
       one sender's domain, so the order is the same at every domain count.
       The wakeups it queues for round [!cur_round + 1 = r] join that
       round's worklist. *)
    let flush_delayed r =
      for land_ = !dl_from to Int.min (r - 1) (parked_hi ()) do
        for d = 0 to nd - 1 do
          deliver dctxs.(d) (land_ mod dslots)
        done
      done;
      if r > !dl_from then dl_from := r
    in
    (* the round after the earliest landing of a parked message whose
       destination still runs (sleepers may wake then), or max_int *)
    let delayed_wake () =
      let hi = parked_hi () in
      let wake = ref max_int in
      let land_ = ref !dl_from in
      while !wake = max_int && !land_ <= hi do
        let slot = !land_ mod dslots in
        for e = 0 to nd - 1 do
          for d = 0 to nd - 1 do
            let s = dctxs.(e).dl.((slot * nd) + d) in
            for i = 0 to (Slab.length s / ostride) - 1 do
              if not (finished states.(Slab.get s (i * ostride))) then
                wake := !land_ + 1
            done
          done
        done;
        incr land_
      done;
      !wake
    in
    let snapshot_trace () =
      tr_m0 := sum_msgs ();
      tr_w0 := sum_words ();
      tr_f0 := sum_faults ();
      Array.iter
        (fun d ->
          d.wake_count <- 0;
          d.round_load <- 0)
        dctxs
    in
    let record_trace r =
      match trace with
      | None -> ()
      | Some t ->
        let wakeups =
          Array.fold_left (fun a d -> a + d.wake_count) 0 dctxs
        in
        let load = Array.fold_left (fun a d -> max a d.round_load) 0 dctxs in
        Trace.record_round t ~round:r
          ~messages:(sum_msgs () - !tr_m0)
          ~words:(sum_words () - !tr_w0)
          ~wakeups ~max_edge_load:load
          ~faults:(sum_faults () - !tr_f0)
    in
    (* one bounded pass over the states: total stuck count plus the first
       ten, in id order — no full intermediate list *)
    let wake_of st =
      match st.kind with
      | K_now -> Now
      | K_msg -> On_message
      | K_at -> At st.deadline
      | K_msg_or_at -> Msg_or_at st.deadline
    in
    let deadlock_report () =
      let total = ref 0 and sample = ref [] in
      Array.iter
        (fun st ->
          if not (finished st) then begin
            incr total;
            if !total <= 10 then sample := (st.id, wake_of st) :: !sample
          end)
        states;
      { total = !total; stuck = List.rev !sample }
    in
    let runnable st r =
      st.cont <> None
      &&
      match st.kind with
      | K_now -> true
      | K_msg -> Slab.length st.inbuf > 0
      | K_at -> st.deadline <= r
      | K_msg_or_at -> Slab.length st.inbuf > 0 || st.deadline <= r
    in
    (* --- reference scheduler: the seed's per-round O(n) scan loop --- *)
    let rec scan_loop () =
      let r = !cur_round + 1 in
      if r > max_rounds then finish Round_limit
      else begin
        apply_crashes r;
        flush_delayed r;
        (* Find runnable nodes, possibly fast-forwarding over silent rounds. *)
        let any_runnable = ref false and all_done = ref true in
        let min_at = ref max_int in
        Array.iter
          (fun st ->
            if not (finished st) then begin
              all_done := false;
              if runnable st r then any_runnable := true
              else begin
                (match st.kind with
                | (K_at | K_msg_or_at) when st.cont <> None ->
                  min_at := min !min_at st.deadline
                | K_now | K_msg | K_at | K_msg_or_at -> ());
                match crash_at.(st.id) with
                | Some cr -> min_at := min !min_at cr
                | None -> ()
              end
            end)
          states;
        (* in-flight delayed messages can wake sleepers one round after they
           land: never fast-forward (or deadlock) past them *)
        min_at := Int.min !min_at (delayed_wake ());
        if !all_done then begin
          dctx0.dmetrics.Metrics.rounds <- !cur_round;
          finish Completed
        end
        else if not !any_runnable then begin
          if !min_at < max_int then begin
            cur_round := max !cur_round (!min_at - 1);
            scan_loop ()
          end
          else begin
            dctx0.dmetrics.Metrics.rounds <- !cur_round;
            finish (Deadlocked (deadlock_report ()))
          end
        end
        else begin
          cur_round := r;
          dctx0.dmetrics.Metrics.rounds <- r;
          snapshot_trace ();
          Array.iter (fun st -> if runnable st r then resume dctx0 st) states;
          deliver dctx0 (-1);
          record_trace r;
          scan_loop ()
        end
      end
    in
    (* --- event-driven scheduler, one shard per domain --- *)
    (* Next round at which anything can happen: a worklist entry (always
       cur+1), the earliest valid timer (stale heap tops — cancelled,
       crashed or superseded — are discarded on sight), the earliest crash
       of a still-unfinished vertex, or the wake-up round of an in-flight
       delayed message. max_int = nothing, ever: deadlock. *)
    let rec timer_candidate dc =
      let k = Pqueue.Int_heap.min_key dc.timers in
      if k = max_int then max_int
      else begin
        let v = Pqueue.Int_heap.min_payload dc.timers in
        let st = states.(v) in
        if st.cont <> None && not st.crashed && st.timer_at = k then k
        else begin
          Pqueue.Int_heap.drop_min dc.timers;
          timer_candidate dc
        end
      end
    in
    let next_candidate () =
      let c = ref max_int in
      Array.iter
        (fun d ->
          if d.ready_next.ivlen > 0 then c := min !c (!cur_round + 1);
          let tk = timer_candidate d in
          if tk < !c then c := tk)
        dctxs;
      (* crash rounds drive the clock only for vertices still running: a
         finished vertex's crash has its (bookkeeping-only) effect applied
         lazily at whatever round is attempted next *)
      let i = ref !crash_idx in
      let stop = ref false in
      while (not !stop) && !i < Array.length crash_sched do
        let r, v = crash_sched.(!i) in
        if not (finished states.(v)) then begin
          if r < !c then c := r;
          stop := true
        end
        else incr i
      done;
      Int.min !c (delayed_wake ())
    in
    (* Collect the vertices allowed to run in round [r]: the carried-over
       worklist (sync returns, message wakeups) plus every due timer. The
       result is exactly the scan scheduler's runnable set for [r],
       restricted to the shard. *)
    let gather dc r =
      for i = 0 to dc.ready_next.ivlen - 1 do
        let v = dc.ready_next.iv.(i) in
        let st = states.(v) in
        if st.cont <> None && not st.crashed then ivec_push dc.ready v
      done;
      ivec_clear dc.ready_next;
      while Pqueue.Int_heap.min_key dc.timers <= r do
        let k = Pqueue.Int_heap.min_key dc.timers in
        let v = Pqueue.Int_heap.min_payload dc.timers in
        Pqueue.Int_heap.drop_min dc.timers;
        let st = states.(v) in
        if
          st.cont <> None && (not st.crashed) && st.timer_at = k
          && st.queued_at < r
        then begin
          st.queued_at <- r;
          ivec_push dc.ready v
        end
      done
    in
    let do_phase dc = function
      | C_start ->
        for v = dc.lo to dc.hi - 1 do
          let st = states.(v) in
          if not st.crashed then start dc st
        done
      | C_gather -> gather dc (!cur_round + 1)
      | C_exec ->
        (* the scan scheduler resumes in id order; so does each shard *)
        sort_range dc.ready.iv 0 (dc.ready.ivlen - 1);
        for i = 0 to dc.ready.ivlen - 1 do
          let st = states.(dc.ready.iv.(i)) in
          if st.cont <> None && not st.crashed then resume dc st
        done
      | C_deliver -> deliver dc (-1)
      | C_quit -> ()
    in
    (* Coordinator/worker plumbing. For nd = 1 a phase is a plain call — no
       worker domains, no barrier, exceptions propagate synchronously. For
       nd > 1 the coordinator publishes the command, runs shard 0 itself,
       waits out the barrier and re-raises the lowest-domain exception (so
       a Congestion in any shard still surfaces; which shard's error wins
       is the one observable difference from the serial schedule). *)
    let par =
      {
        pm = Mutex.create ();
        cv_cmd = Condition.create ();
        cv_done = Condition.create ();
        seq = 0;
        cmd = C_quit;
        pending = 0;
      }
    in
    (* What a program's [send]/[round]/memory calls do while one domain
       context runs it: installed in the coordinator's and each worker's
       domain-local slot. *)
    let ops_of dc =
      {
        op_park =
          (fun kind r ->
            let st = dc.drunning in
            st.kind <- kind;
            st.deadline <- r);
        op_send = (fun p m -> do_send dc dc.drunning p m);
        op_round = (fun () -> !cur_round);
        op_set_memory =
          (fun w ->
            let st = dc.drunning in
            st.mem_words <- w;
            Metrics.note_memory dc.dmetrics st.id w);
        op_add_memory =
          (fun d ->
            let st = dc.drunning in
            st.mem_words <- max 0 (st.mem_words + d);
            Metrics.note_memory dc.dmetrics st.id st.mem_words);
        op_note_retransmit =
          (fun () ->
            dc.dmetrics.Metrics.retransmitted <-
              dc.dmetrics.Metrics.retransmitted + 1);
      }
    in
    let worker dc () =
      Domain.DLS.set dls_ops (ops_of dc);
      let myseq = ref 0 in
      let running = ref true in
      while !running do
        Mutex.lock par.pm;
        while par.seq = !myseq do
          Condition.wait par.cv_cmd par.pm
        done;
        myseq := par.seq;
        let cmd = par.cmd in
        Mutex.unlock par.pm;
        (match cmd with
        | C_quit -> running := false
        | c -> ( try do_phase dc c with e -> dc.dexn <- Some e));
        Mutex.lock par.pm;
        par.pending <- par.pending - 1;
        if par.pending = 0 then Condition.signal par.cv_done;
        Mutex.unlock par.pm
      done
    in
    let workers = ref [] in
    let workers_alive = ref false in
    let broadcast c =
      Mutex.lock par.pm;
      par.cmd <- c;
      par.pending <- nd - 1;
      par.seq <- par.seq + 1;
      Condition.broadcast par.cv_cmd;
      Mutex.unlock par.pm
    in
    let await () =
      Mutex.lock par.pm;
      while par.pending > 0 do
        Condition.wait par.cv_done par.pm
      done;
      Mutex.unlock par.pm
    in
    let run_phase c =
      if nd = 1 then do_phase dctx0 c
      else begin
        broadcast c;
        (try do_phase dctx0 c with e -> dctx0.dexn <- Some e);
        await ();
        Array.iter
          (fun d ->
            match d.dexn with
            | Some e ->
              d.dexn <- None;
              raise e
            | None -> ())
          dctxs
      end
    in
    let quit_workers () =
      if !workers_alive then begin
        workers_alive := false;
        broadcast C_quit;
        await ();
        List.iter Domain.join !workers;
        workers := []
      end
    in
    let total_live () = Array.fold_left (fun a d -> a + d.dlive) 0 dctxs in
    let total_ready () = Array.fold_left (fun a d -> a + d.ready.ivlen) 0 dctxs in
    (* The side effects the scan scheduler performs while probing its final,
       never-executed round: lazily pending crashes of finished vertices
       (dropping their buffered messages) and due delayed messages. Both
       must land before the report or fault counters drift. *)
    let phantom_attempt r =
      apply_crashes_upto r;
      flush_delayed r
    in
    let rec event_loop () =
      if !cur_round + 1 > max_rounds then finish Round_limit
      else if total_live () = 0 then begin
        phantom_attempt (!cur_round + 1);
        dctx0.dmetrics.Metrics.rounds <- !cur_round;
        finish Completed
      end
      else begin
        let r = next_candidate () in
        if r = max_int then begin
          phantom_attempt (!cur_round + 1);
          dctx0.dmetrics.Metrics.rounds <- !cur_round;
          finish (Deadlocked (deadlock_report ()))
        end
        else if r > max_rounds then begin
          (* the scan loop probes cur+1 (applying its side effects) before
             fast-forwarding into the limit *)
          phantom_attempt (!cur_round + 1);
          finish Round_limit
        end
        else begin
          cur_round := r - 1;
          Array.iter (fun d -> ivec_clear d.ready) dctxs;
          apply_crashes_upto r;
          flush_delayed r;
          run_phase C_gather;
          if total_ready () = 0 then event_loop ()
          else begin
            cur_round := r;
            dctx0.dmetrics.Metrics.rounds <- r;
            snapshot_trace ();
            run_phase C_exec;
            run_phase C_deliver;
            record_trace r;
            event_loop ()
          end
        end
      end
    in
    let saved_ops = Domain.DLS.get dls_ops in
    Domain.DLS.set dls_ops (ops_of dctx0);
    Fun.protect
      ~finally:(fun () ->
        quit_workers ();
        Domain.DLS.set dls_ops saved_ops)
      (fun () ->
        if nd > 1 then begin
          workers_alive := true;
          workers :=
            List.init (nd - 1) (fun i -> Domain.spawn (worker dctxs.(i + 1)))
        end;
        (* Round 0: start every program (crash-at-0 vertices never run). *)
        if evt then apply_crashes_upto 0 else apply_crashes 0;
        snapshot_trace ();
        run_phase C_start;
        run_phase C_deliver;
        record_trace 0;
        if evt then event_loop () else scan_loop ())
end
