(* Reliable, round-preserving transport over the faulty simulator.

   Design: an ack/retransmit sliding stream per directed link (sequence
   numbers, cumulative acks, exponential-backoff retransmission) underneath
   an alpha-synchronizer. Each endpoint closes every one of its *virtual*
   rounds with an end-of-round marker on every live link; a vertex advances
   from virtual round v to v+1 once it holds the round-v marker of every
   live neighbour. Because the per-link stream is FIFO (sequence numbers)
   and the marker trails the round's data, a vertex entering virtual round
   v+1 has received exactly the messages its neighbours sent in virtual
   round v — i.e. the protocol on top observes the same round structure,
   the same inboxes in the same port order, as on a fault-free synchronous
   network. That is what makes computations over this layer bit-identical
   to their fault-free runs as long as no link is declared dead.

   Failure detection: a link whose oldest unacknowledged frame has been
   retransmitted [max_retries] times, or that withholds its end-of-round
   marker for a whole patience window while acking everything (a peer that
   crashed between acking and marking), is declared dead with a reason. The
   protocol on top polls [dead_ports] and decides how to degrade. *)

type config = { ack_timeout : int; backoff : int; max_retries : int }

let default_config = { ack_timeout = 4; backoff = 2; max_retries = 8 }

(* The protocol-level CONGEST message limit in words, [Sim.run]'s default.
   Frames travel with two more words of header (tag + seq). *)
let word_limit = 8

let ipow b e =
  let r = ref 1 in
  for _ = 1 to e do
    if !r < 1 lsl 40 then r := !r * b
  done;
  !r

(* Worst-case length of one retransmission backoff streak: retry t waits
   ack_timeout · backoff^(t−1) rounds, so a link that loses every
   retransmission stays silent-but-alive for the sum over all max_retries
   tries before being declared dead. Watchdogs layered above the transport
   must dominate this, or a healthy masked run can be misdiagnosed as
   stalled mid-streak. *)
let retransmission_budget cfg =
  let acc = ref 0 in
  for t = 1 to cfg.max_retries do
    acc := !acc + (cfg.ack_timeout * ipow cfg.backoff (max 0 (t - 1)))
  done;
  !acc

module Make (M : Sim.MESSAGE) = struct
  type frame =
    | Data of { seq : int; body : M.t }
    | Eor of { seq : int; vr : int }
    | Fin of { seq : int }
    | Ack of { upto : int }

  module F = struct
    type t = frame

    let words = function
      | Data { body; _ } -> 2 + M.words body
      | Eor _ -> 3
      | Fin _ -> 2
      | Ack _ -> 2

    (* slab layout: [tag; seq/upto; rest]; Data nests M's codec in [rest],
       Eor reuses its first slot for the virtual round. Data's tag slot
       also carries the body's accounted words above the two tag bits, so a
       receiver books its buffers without decoding the body. *)
    let slots = 2 + max 1 M.slots

    let encode s base = function
      | Data { seq; body } ->
        Slab.set s base (M.words body lsl 2);
        Slab.set s (base + 1) seq;
        M.encode s (base + 2) body
      | Eor { seq; vr } ->
        Slab.set s base 1;
        Slab.set s (base + 1) seq;
        Slab.set s (base + 2) vr
      | Fin { seq } ->
        Slab.set s base 2;
        Slab.set s (base + 1) seq
      | Ack { upto } ->
        Slab.set s base 3;
        Slab.set s (base + 1) upto

    let decode s base =
      match Slab.get s base land 3 with
      | 0 -> Data { seq = Slab.get s (base + 1); body = M.decode s (base + 2) }
      | 1 -> Eor { seq = Slab.get s (base + 1); vr = Slab.get s (base + 2) }
      | 2 -> Fin { seq = Slab.get s (base + 1) }
      | _ -> Ack { upto = Slab.get s (base + 1) }
  end

  module S = Sim.Make (F)
  module V = Sim.Inbox (M)

  type ctx = { me : int; n : int; neighbors : int array; weights : float array }

  (* a received payload waiting for its virtual round:
     [virtual round; accounted words; payload x M.slots] *)
  let dstride = 2 + M.slots

  (* fills the outgoing ring's unused slots *)
  let no_frame = Ack { upto = -1 }

  type link = {
    port : int;
    peer : int;
    (* outgoing stream: the frame with sequence number s sits in
       ring.(s land (Array.length ring - 1)) while s is in [head, next_seq);
       [head, sent) are transmitted and unacked (oldest first), [sent,
       next_seq) not yet transmitted *)
    mutable ring : frame array;  (* power-of-two length *)
    mutable head : int;
    mutable sent : int;
    mutable next_seq : int;
    mutable tries : int;  (* transmissions of the current oldest unacked *)
    mutable last_tx : int;  (* real round of its last (re)transmission *)
    mutable sent_this_vr : int;
    (* incoming stream *)
    mutable recv_next : int;
    ooo : (int, frame) Hashtbl.t;  (* out-of-order frames by seq *)
    indata : Slab.t;  (* [dstride]-int records, round-ordered *)
    mutable peer_eor : int;  (* in-order end-of-round markers processed *)
    mutable peer_fin : bool;
    mutable last_heard : int;  (* real round of the last accepted frame *)
    mutable ack_due : bool;
    mutable dead : string option;
    mutable backoff_since : int;
        (* real round the link entered retransmission backoff; -1 outside *)
  }

  type t = {
    cfg : config;
    me : int;
    data_cap : int;  (* protocol-level per-link-per-round send budget *)
    burst : int;  (* stream frames we may push per link per real round *)
    patience : int;  (* real rounds before a marker-withholding peer is dead *)
    links : link array;
    mutable vr : int;
    mutable last_pump : int;
    mutable buffered : int;
        (* words held in every link's buffers: outgoing frames, out-of-order
           frames, undelivered payloads (1 + payload words each); kept up to
           date as frames enter and leave them *)
    mutable dead_ports : (int * string) list;  (* port order; rebuilt when a link dies *)
    view : Slab.t;
        (* the protocol's inbox view: the payloads of the virtual rounds the
           current blocking call closed, as {!Sim.Inbox} records *)
    trace : Trace.t option;
  }

  let make_ep cfg ~data_cap ?trace (sctx : S.ctx) =
    {
      cfg;
      me = sctx.S.me;
      data_cap;
      burst = data_cap + 1;
      patience = 2 * cfg.ack_timeout * ipow cfg.backoff cfg.max_retries;
      links =
        Array.mapi
          (fun port peer ->
            {
              port;
              peer;
              ring = Array.make 8 no_frame;
              head = 0;
              sent = 0;
              next_seq = 0;
              tries = 0;
              last_tx = -1;
              sent_this_vr = 0;
              recv_next = 0;
              ooo = Hashtbl.create 4;
              indata = Slab.create ();
              peer_eor = 0;
              peer_fin = false;
              last_heard = 0;
              ack_due = false;
              dead = None;
              backoff_since = -1;
            })
          sctx.S.neighbors;
      vr = 0;
      last_pump = -1;
      buffered = 0;
      dead_ports = [];
      view = Slab.create ();
      trace;
    }

  (* words the transport declares on top of the protocol's own: its buffers
     plus a fixed per-link header *)
  let transport_words ep = ep.buffered + (6 * Array.length ep.links)

  (* the outgoing stream still takes frames *)
  let streaming l = l.dead = None && not l.peer_fin

  let frame_at l s = l.ring.(s land (Array.length l.ring - 1))

  (* append [f], whose seq must be [l.next_seq], to the outgoing stream *)
  let push_frame ep l f =
    let cap = Array.length l.ring in
    if l.next_seq - l.head = cap then begin
      let ring = Array.make (2 * cap) no_frame in
      for s = l.head to l.next_seq - 1 do
        ring.(s land ((2 * cap) - 1)) <- frame_at l s
      done;
      l.ring <- ring
    end;
    l.ring.(l.next_seq land (Array.length l.ring - 1)) <- f;
    l.next_seq <- l.next_seq + 1;
    ep.buffered <- ep.buffered + F.words f

  (* drop the outgoing frames with seq below [upto] (at most [l.sent]) *)
  let release ep l upto =
    let mask = Array.length l.ring - 1 in
    for s = l.head to upto - 1 do
      ep.buffered <- ep.buffered - F.words l.ring.(s land mask);
      l.ring.(s land mask) <- no_frame
    done;
    l.head <- upto

  let clear_stream ep l =
    l.sent <- l.next_seq;
    release ep l l.next_seq

  (* the link recovered (or stopped mattering): close its backoff span *)
  let close_backoff ep l =
    if l.backoff_since >= 0 then begin
      (match ep.trace with
      | Some tr ->
        Trace.add_closed_span tr ~depth:1
          ~detail:(Printf.sprintf "v%d->v%d" ep.me l.peer)
          ~name:"backoff" ~start_round:l.backoff_since
          ~end_round:(S.round ()) ()
      | None -> ());
      l.backoff_since <- -1
    end

  let mark_dead ep l why =
    l.dead <- Some why;
    ep.dead_ports <-
      Array.fold_right
        (fun l acc ->
          match l.dead with Some why -> (l.port, why) :: acc | None -> acc)
        ep.links [];
    match ep.trace with
    | Some tr ->
      Trace.event tr (Printf.sprintf "link v%d->v%d dead: %s" ep.me l.peer why)
    | None -> ()

  (* book a payload of [words] for virtual round [l.peer_eor]; returns the
     slab index its [M.slots] ints go to *)
  let push_data ep l words =
    let b = Slab.alloc l.indata dstride in
    Slab.set l.indata b l.peer_eor;
    Slab.set l.indata (b + 1) words;
    ep.buffered <- ep.buffered + 1 + words;
    b + 2

  let accept_eor l vr =
    assert (vr = l.peer_eor);
    l.peer_eor <- l.peer_eor + 1

  let accept_fin ep l =
    l.peer_fin <- true;
    (* the peer has finished: nothing we still owe it can matter *)
    clear_stream ep l;
    l.tries <- 0;
    close_backoff ep l

  (* a buffered out-of-order frame, now next in line *)
  let accept ep l = function
    | Data { body; _ } -> M.encode l.indata (push_data ep l (M.words body)) body
    | Eor { vr; _ } -> accept_eor l vr
    | Fin _ -> accept_fin ep l
    | Ack _ -> assert false

  (* an in-order frame, read in place from record [i] of the simulator's
     inbox view; [hdr] is its tag slot *)
  let accept_raw ep l ib i hdr =
    match hdr land 3 with
    | 0 ->
      let b = push_data ep l (hdr lsr 2) in
      for j = 0 to M.slots - 1 do
        Slab.set l.indata (b + j) (S.slot ib i (2 + j))
      done
    | 1 -> accept_eor l (S.slot ib i 2)
    | 2 -> accept_fin ep l
    | _ -> assert false

  (* accept the buffered out-of-order frames that are now next in line *)
  let rec drain_ooo ep l =
    if Hashtbl.length l.ooo > 0 then
      match Hashtbl.find l.ooo l.recv_next with
      | f ->
        Hashtbl.remove l.ooo l.recv_next;
        ep.buffered <- ep.buffered - F.words f;
        accept ep l f;
        l.recv_next <- l.recv_next + 1;
        drain_ooo ep l
      | exception Not_found -> ()

  let process ep ib i =
    let l = ep.links.(S.port ib i) in
    if l.dead = None then begin
      let hdr = S.slot ib i 0 in
      if hdr = 3 then begin
        (* Ack *)
        let acked = Int.min (S.slot ib i 1 + 1) l.sent in
        if acked > l.head then begin
          release ep l acked;
          if l.head = l.sent then begin
            l.tries <- 0;
            close_backoff ep l
          end
          else begin
            (* a younger frame is now the oldest: restart its timer *)
            l.tries <- 1;
            l.last_tx <- S.round ()
          end
        end
      end
      else begin
        (* Data, Eor or Fin *)
        l.ack_due <- true;
        let s = S.slot ib i 1 in
        if s = l.recv_next then begin
          l.last_heard <- S.round ();
          accept_raw ep l ib i hdr;
          l.recv_next <- s + 1;
          drain_ooo ep l
        end
        else if s > l.recv_next && not (Hashtbl.mem l.ooo s) then begin
          let f = S.msg ib i in
          Hashtbl.replace l.ooo s f;
          ep.buffered <- ep.buffered + F.words f
        end
        (* s < recv_next, or already buffered: a duplicate; the pending ack
           repairs the peer's view *)
      end
    end

  let process_inbox ep ib =
    for i = 0 to S.count ib - 1 do
      process ep ib i
    done

  let timeout_of ep l = ep.cfg.ack_timeout * ipow ep.cfg.backoff (max 0 (l.tries - 1))

  let pump ep =
    let now = S.round () in
    if ep.last_pump < now then begin
      ep.last_pump <- now;
      for i = 0 to Array.length ep.links - 1 do
        let l = ep.links.(i) in
        if l.ack_due then begin
          l.ack_due <- false;
          S.send l.port (Ack { upto = l.recv_next - 1 })
        end;
        if l.dead = None then begin
          let budget = ref ep.burst in
          if l.head < l.sent && now - l.last_tx >= timeout_of ep l then begin
            if l.tries >= ep.cfg.max_retries then begin
              let oldest = l.head in
              clear_stream ep l;
              if not l.peer_fin then
                mark_dead ep l
                  (Printf.sprintf "no ack for seq %d from v%d after %d transmissions"
                     oldest l.peer l.tries);
              close_backoff ep l
            end
            else begin
              if l.backoff_since < 0 then l.backoff_since <- now;
              (match ep.trace with
              | Some tr ->
                Trace.event tr
                  (Printf.sprintf "retx v%d->v%d seq=%d try=%d" ep.me l.peer
                     l.head (l.tries + 1))
              | None -> ());
              let stop = Int.min l.sent (l.head + !budget) in
              for s = l.head to stop - 1 do
                S.send l.port (frame_at l s);
                S.note_retransmit ()
              done;
              budget := !budget - (stop - l.head);
              l.tries <- l.tries + 1;
              l.last_tx <- now
            end
          end;
          if l.dead = None then begin
            let was_empty = l.head = l.sent in
            while !budget > 0 && l.sent < l.next_seq do
              S.send l.port (frame_at l l.sent);
              l.sent <- l.sent + 1;
              decr budget
            done;
            if was_empty && l.head < l.sent then begin
              l.tries <- 1;
              l.last_tx <- now
            end
          end
        end
      done
    end

  let blocking ep l = l.dead = None && not l.peer_fin && l.peer_eor <= ep.vr

  let rec any_blocking ep i =
    i < Array.length ep.links && (blocking ep ep.links.(i) || any_blocking ep (i + 1))

  let next_deadline ep ~wait_start =
    let now = S.round () in
    let dl = ref max_int in
    for i = 0 to Array.length ep.links - 1 do
      let l = ep.links.(i) in
      if l.dead = None then begin
        if l.head < l.sent then begin
          let due = l.last_tx + timeout_of ep l in
          if due < !dl then dl := due
        end;
        (* frames enqueued after this round's pump already ran must get a
           pump next round, or they (and everyone waiting on them) stall *)
        if l.sent < l.next_seq && now + 1 < !dl then dl := now + 1
      end
    done;
    if any_blocking ep 0 then Int.min !dl (Int.max wait_start now + ep.patience + 1)
    else !dl

  let check_patience ep ~wait_start =
    let now = S.round () in
    for i = 0 to Array.length ep.links - 1 do
      let l = ep.links.(i) in
      let silent = now - Int.max wait_start l.last_heard in
      if blocking ep l && l.head = l.sent && silent > ep.patience then begin
        mark_dead ep l
          (Printf.sprintf "no end-of-round %d from v%d for %d rounds (crashed?)"
             ep.vr l.peer silent);
        close_backoff ep l
      end
    done

  (* finish virtual round [ep.vr], wait out the synchronizer, enter the next
     round and append the data delivered for it to the view (in port order,
     newest first within a port, the order [Sim] delivers in) *)
  let advance_one ep =
    for i = 0 to Array.length ep.links - 1 do
      let l = ep.links.(i) in
      if streaming l then push_frame ep l (Eor { seq = l.next_seq; vr = ep.vr })
    done;
    let wait_start = S.round () in
    while any_blocking ep 0 do
      pump ep;
      check_patience ep ~wait_start;
      if any_blocking ep 0 then begin
        let dl = next_deadline ep ~wait_start in
        process_inbox ep (if dl = max_int then S.wait () else S.wait_until dl)
      end
    done;
    ep.vr <- ep.vr + 1;
    for i = 0 to Array.length ep.links - 1 do
      let l = ep.links.(i) in
      l.sent_this_vr <- 0;
      let d = l.indata in
      let h = ref 0 in
      while !h < Slab.length d && Slab.get d !h < ep.vr do
        ep.buffered <- ep.buffered - 1 - Slab.get d (!h + 1);
        h := !h + dstride
      done;
      let r = ref (!h - dstride) in
      while !r >= 0 do
        let b = V.add ep.view l.port in
        Slab.blit ~src:d ~src_pos:(!r + 2) ~dst:ep.view ~dst_pos:b ~len:M.slots;
        r := !r - dstride
      done;
      Slab.shift d !h
    done

  let rec any_streaming links i =
    i < Array.length links && (streaming links.(i) || any_streaming links (i + 1))

  let rel_send ep p m =
    if p < 0 || p >= Array.length ep.links then
      invalid_arg
        (Printf.sprintf "Reliable.send: vertex %d has no port %d" ep.me p);
    let l = ep.links.(p) in
    if l.sent_this_vr >= ep.data_cap then
      raise (Sim.Congestion { vertex = ep.me; port = p; round = ep.vr });
    l.sent_this_vr <- l.sent_this_vr + 1;
    let words = M.words m in
    if words > word_limit then
      raise (Sim.Message_too_large { vertex = ep.me; words; round = ep.vr });
    if streaming l then push_frame ep l (Data { seq = l.next_seq; body = m })

  (* Each blocking call expires the previous view, closes at least one
     virtual round and returns the view. *)
  let rel_sync ep =
    Slab.clear ep.view;
    advance_one ep;
    ep.view

  let rel_wait ep =
    ignore (rel_sync ep);
    while Slab.length ep.view = 0 do
      (* nothing can ever arrive: park on the simulator so the run is
         reported as deadlocked rather than spinning forever *)
      if not (any_streaming ep.links 0) then ignore (S.wait ());
      advance_one ep
    done;
    ep.view

  let rel_sleep_until ep r =
    ignore (rel_sync ep);
    while ep.vr < r do
      advance_one ep
    done;
    ep.view

  let rel_wait_until ep r =
    ignore (rel_sync ep);
    while Slab.length ep.view = 0 && ep.vr < r do
      advance_one ep
    done;
    ep.view

  let transport ep : (module Sim.TRANSPORT with type msg = M.t) =
    (module struct
      type msg = M.t
      type inbox = Slab.t

      let count = V.count
      let port = V.port
      let msg = V.msg
      let slot = V.slot
      let send p m = rel_send ep p m
      let sync () = rel_sync ep
      let wait () = rel_wait ep
      let sleep_until r = rel_sleep_until ep r
      let wait_until r = rel_wait_until ep r
      let round () = ep.vr
      let real_round () = S.round ()
      let set_memory w = S.set_memory (w + transport_words ep)
      let add_memory d = S.add_memory d

      let dead_ports () = ep.dead_ports
    end)

  (* after the program returns: tell every live peer we are done and stick
     around until the notice is acknowledged (or the peer is itself gone) *)
  let settled l = l.dead <> None || l.peer_fin || l.head = l.next_seq

  let close ep =
    Array.iter
      (fun l -> if streaming l then push_frame ep l (Fin { seq = l.next_seq }))
      ep.links;
    while not (Array.for_all settled ep.links) do
      pump ep;
      (* pump may just have declared a link dead: recheck before waiting,
         or we would sleep forever on a now-settled state *)
      if not (Array.for_all settled ep.links) then begin
        let dl = next_deadline ep ~wait_start:(S.round ()) in
        process_inbox ep (if dl = max_int then S.wait () else S.wait_until dl)
      end
    done;
    (* flush final acks so peers' own Fins settle promptly; if this round's
       pump already ran, spend one more round to get them out *)
    pump ep;
    if Array.exists (fun l -> l.ack_due) ep.links then begin
      ignore (S.sync ());
      pump ep
    end

  let run ?max_rounds ?(edge_capacity = 1) ?faults ?trace ?scheduler ?domains
      ?(config = default_config) g ~node =
    if config.ack_timeout < 1 || config.backoff < 1 || config.max_retries < 1 then
      invalid_arg "Reliable.run: config fields must be >= 1";
    let burst = edge_capacity + 1 in
    S.run ?max_rounds
      ~edge_capacity:(burst + 1) (* stream burst + one ack per real round *)
      ~word_limit:(word_limit + 2) (* frame header: tag + seq *)
      ?faults ?trace ?scheduler ?domains g
      ~node:(fun (sctx : S.ctx) ->
        let ep = make_ep config ~data_cap:edge_capacity ?trace sctx in
        let rctx =
          {
            me = sctx.S.me;
            n = sctx.S.n;
            neighbors = sctx.S.neighbors;
            weights = sctx.S.weights;
          }
        in
        node (transport ep) rctx;
        close ep)
end
