open Dgraph

(* Payloads carried by the staggered BFS-tree broadcasts of Algorithms 1, 3
   and 6. Every other message travels a single edge. *)
type payload =
  | P_size of { origin : int; anc : int; s : int; iter : int }
  | P_light of { origin : int; tail : int; head : int; iter : int }
  | P_light_end of { origin : int; count : int; iter : int }
  | P_shift of { origin : int; q : int; iter : int }

type msg =
  | Hello of { is_u : bool }
  | Hello2
  | Index of { j : int; pid : int }
  | Bfs of { depth : int }
  | Bfs_adopt
  | Bfs_echo of { maxd : int; ucount : int }
  | Params of { t0 : int; dz : int; usize : int }
  | Local_root of { w : int }
  | Local_size of { s : int }
  | Size_to_parent of { s : int; id : int }
  | Global_size of { s : int; id : int }
  | You_are_heavy
  | Light_item of { tail : int; head : int }
  | Light_end
  | Final_item of { tail : int; head : int }
  | Final_end
  | Prefix of { j : int; flag : bool; s : int; width : int }
  | Prefix_add of { s : int }
  | Range_start of { a : int }
  | Shift of { q : int }
  | Bc_up of payload
  | Bc_down of payload

let payload_words = function
  | P_size _ -> 4
  | P_light _ -> 4
  | P_light_end _ -> 3
  | P_shift _ -> 3

module M = struct
  type t = msg

  let words = function
    | Hello _ | Hello2 | Bfs_adopt | You_are_heavy | Light_end | Final_end -> 1
    | Bfs _ | Local_root _ | Local_size _ | Prefix_add _ | Range_start _ | Shift _ -> 2
    | Bfs_echo _ | Index _ | Size_to_parent _ | Global_size _ | Light_item _
    | Final_item _ -> 3
    | Params _ -> 4
    | Prefix _ -> 5
    | Bc_up p | Bc_down p -> 1 + payload_words p

  (* Slab codec: [tag; fields...], all-int payloads. Broadcast payloads nest
     their own tag, so the widest record is Bc_up/Bc_down of P_size:
     message tag + payload tag + 4 fields. *)
  module Sl = Congest.Slab

  let slots = 6

  let put_payload sl b = function
    | P_size { origin; anc; s; iter } ->
      Sl.set sl b 0;
      Sl.set sl (b + 1) origin;
      Sl.set sl (b + 2) anc;
      Sl.set sl (b + 3) s;
      Sl.set sl (b + 4) iter
    | P_light { origin; tail; head; iter } ->
      Sl.set sl b 1;
      Sl.set sl (b + 1) origin;
      Sl.set sl (b + 2) tail;
      Sl.set sl (b + 3) head;
      Sl.set sl (b + 4) iter
    | P_light_end { origin; count; iter } ->
      Sl.set sl b 2;
      Sl.set sl (b + 1) origin;
      Sl.set sl (b + 2) count;
      Sl.set sl (b + 3) iter
    | P_shift { origin; q; iter } ->
      Sl.set sl b 3;
      Sl.set sl (b + 1) origin;
      Sl.set sl (b + 2) q;
      Sl.set sl (b + 3) iter

  let get_payload sl b =
    match Sl.get sl b with
    | 0 ->
      P_size
        {
          origin = Sl.get sl (b + 1);
          anc = Sl.get sl (b + 2);
          s = Sl.get sl (b + 3);
          iter = Sl.get sl (b + 4);
        }
    | 1 ->
      P_light
        {
          origin = Sl.get sl (b + 1);
          tail = Sl.get sl (b + 2);
          head = Sl.get sl (b + 3);
          iter = Sl.get sl (b + 4);
        }
    | 2 ->
      P_light_end
        {
          origin = Sl.get sl (b + 1);
          count = Sl.get sl (b + 2);
          iter = Sl.get sl (b + 3);
        }
    | t -> (
      match t with
      | 3 ->
        P_shift
          {
            origin = Sl.get sl (b + 1);
            q = Sl.get sl (b + 2);
            iter = Sl.get sl (b + 3);
          }
      | _ -> invalid_arg "Dist_tree_routing: corrupt payload tag")

  let encode sl b = function
    | Hello { is_u } ->
      Sl.set sl b 0;
      Sl.set sl (b + 1) (Bool.to_int is_u)
    | Hello2 -> Sl.set sl b 1
    | Index { j; pid } ->
      Sl.set sl b 2;
      Sl.set sl (b + 1) j;
      Sl.set sl (b + 2) pid
    | Bfs { depth } ->
      Sl.set sl b 3;
      Sl.set sl (b + 1) depth
    | Bfs_adopt -> Sl.set sl b 4
    | Bfs_echo { maxd; ucount } ->
      Sl.set sl b 5;
      Sl.set sl (b + 1) maxd;
      Sl.set sl (b + 2) ucount
    | Params { t0; dz; usize } ->
      Sl.set sl b 6;
      Sl.set sl (b + 1) t0;
      Sl.set sl (b + 2) dz;
      Sl.set sl (b + 3) usize
    | Local_root { w } ->
      Sl.set sl b 7;
      Sl.set sl (b + 1) w
    | Local_size { s } ->
      Sl.set sl b 8;
      Sl.set sl (b + 1) s
    | Size_to_parent { s; id } ->
      Sl.set sl b 9;
      Sl.set sl (b + 1) s;
      Sl.set sl (b + 2) id
    | Global_size { s; id } ->
      Sl.set sl b 10;
      Sl.set sl (b + 1) s;
      Sl.set sl (b + 2) id
    | You_are_heavy -> Sl.set sl b 11
    | Light_item { tail; head } ->
      Sl.set sl b 12;
      Sl.set sl (b + 1) tail;
      Sl.set sl (b + 2) head
    | Light_end -> Sl.set sl b 13
    | Final_item { tail; head } ->
      Sl.set sl b 14;
      Sl.set sl (b + 1) tail;
      Sl.set sl (b + 2) head
    | Final_end -> Sl.set sl b 15
    | Prefix { j; flag; s; width } ->
      Sl.set sl b 16;
      Sl.set sl (b + 1) j;
      Sl.set sl (b + 2) (Bool.to_int flag);
      Sl.set sl (b + 3) s;
      Sl.set sl (b + 4) width
    | Prefix_add { s } ->
      Sl.set sl b 17;
      Sl.set sl (b + 1) s
    | Range_start { a } ->
      Sl.set sl b 18;
      Sl.set sl (b + 1) a
    | Shift { q } ->
      Sl.set sl b 19;
      Sl.set sl (b + 1) q
    | Bc_up p ->
      Sl.set sl b 20;
      put_payload sl (b + 1) p
    | Bc_down p ->
      Sl.set sl b 21;
      put_payload sl (b + 1) p

  let decode sl b =
    match Sl.get sl b with
    | 0 -> Hello { is_u = Sl.get sl (b + 1) <> 0 }
    | 1 -> Hello2
    | 2 -> Index { j = Sl.get sl (b + 1); pid = Sl.get sl (b + 2) }
    | 3 -> Bfs { depth = Sl.get sl (b + 1) }
    | 4 -> Bfs_adopt
    | 5 -> Bfs_echo { maxd = Sl.get sl (b + 1); ucount = Sl.get sl (b + 2) }
    | 6 ->
      Params
        {
          t0 = Sl.get sl (b + 1);
          dz = Sl.get sl (b + 2);
          usize = Sl.get sl (b + 3);
        }
    | 7 -> Local_root { w = Sl.get sl (b + 1) }
    | 8 -> Local_size { s = Sl.get sl (b + 1) }
    | 9 -> Size_to_parent { s = Sl.get sl (b + 1); id = Sl.get sl (b + 2) }
    | 10 -> Global_size { s = Sl.get sl (b + 1); id = Sl.get sl (b + 2) }
    | 11 -> You_are_heavy
    | 12 -> Light_item { tail = Sl.get sl (b + 1); head = Sl.get sl (b + 2) }
    | 13 -> Light_end
    | 14 -> Final_item { tail = Sl.get sl (b + 1); head = Sl.get sl (b + 2) }
    | 15 -> Final_end
    | 16 ->
      Prefix
        {
          j = Sl.get sl (b + 1);
          flag = Sl.get sl (b + 2) <> 0;
          s = Sl.get sl (b + 3);
          width = Sl.get sl (b + 4);
        }
    | 17 -> Prefix_add { s = Sl.get sl (b + 1) }
    | 18 -> Range_start { a = Sl.get sl (b + 1) }
    | 19 -> Shift { q = Sl.get sl (b + 1) }
    | 20 -> Bc_up (get_payload sl (b + 1))
    | 21 -> Bc_down (get_payload sl (b + 1))
    | t -> invalid_arg (Printf.sprintf "Dist_tree_routing: corrupt tag %d" t)
end

(* The node program is written against the shared transport signature, so
   the same protocol body runs bit-identically on the raw synchronous
   simulator and on the reliable transport's virtual rounds. *)
module P = Protocol.Make (M)

type outcome = {
  scheme : Tz.Tree_routing.scheme;
  report : Congest.Metrics.t;
  u_count : int;
  d_bfs : int;
  failures : Protocol.failure list;
}

let words_of_table = 4
let label_words = Tz.Tree_routing.label_words

type action =
  | A_hello2
  | A_bfs_start
  | A_bfs_echo_check
  | A_start_waves
  | A_insert of payload list
  | A_alg1_start of int
  | A_alg1_end of int
  | A_size_up
  | A_global_trigger
  | A_wave1
  | A_alg3_start of int
  | A_alg3_end of int
  | A_wave2
  | A_alg5 of int
  | A_dfs
  | A_alg6_start of int
  | A_alg6_end of int
  | A_shift
  | A_finish
  | A_params_check

let run ~rng ?q ?(stagger = true) ?faults ?reliable ?config ?trace ?max_rounds
    ?scheduler ?domains g ~tree =
  let n = Graph.n g in
  let qprob = match q with Some q -> q | None -> 1.0 /. sqrt (float_of_int n) in
  let root = Tree.root tree in
  let in_tree = Array.init n (Tree.mem tree) in
  let tp_id = Array.make n (-1) and tp_port = Array.make n (-1) in
  List.iter
    (fun v ->
      if v <> root then begin
        let p = Tree.parent tree v in
        tp_id.(v) <- p;
        match Graph.port g v p with
        | Some prt -> tp_port.(v) <- prt
        | None ->
          invalid_arg
            (Printf.sprintf "Dist_tree_routing: tree edge (%d,%d) not in graph" v p)
      end)
    (Tree.vertices tree);
  let in_u =
    Array.init n (fun v ->
        in_tree.(v) && v <> root && Random.State.float rng 1.0 < qprob)
  in
  let seeds = Array.init n (fun _ -> Random.State.bits rng) in
  let llog = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0)) in
  let tables : Tz.Tree_routing.table option array = Array.make n None in
  let labels : Tz.Tree_routing.label option array = Array.make n None in
  let u_count_out = ref 1 and dz_out = ref 0 in

  let node ((module T) : P.transport) (v : Protocol.vertex) =
    let me = v.me in
    let deg = Array.length v.neighbors in
    let is_root = me = root in
    let my_tree = in_tree.(me) in
    let my_u = in_u.(me) in
    let local_root_flag = my_tree && (is_root || my_u) in
    let myrng = Random.State.make [| seeds.(me) |] in
    (* a protocol invariant broke here *)
    let fail reason = v.fail (Protocol.Harvest { vertex = me; reason }) in
    (* phase markers, root only: the run's rounds get named after the
       paper's algorithms so per-phase breakdowns line up with the text *)
    let phase name =
      if is_root then
        match trace with Some tr -> Congest.Trace.phase tr name | None -> ()
    in
    let phase_done () =
      if is_root then
        match trace with Some tr -> Congest.Trace.phase_end tr | None -> ()
    in
    let sub name =
      if is_root then
        match trace with
        | Some tr -> Congest.Trace.begin_span tr name
        | None -> ()
    in
    let sub_end () =
      if is_root then
        match trace with Some tr -> Congest.Trace.end_span tr | None -> ()
    in
    (* ---- state (O(log n) words, declared to the ledger) ---- *)
    let local_children = ref 0
    and virtual_children = ref 0
    and assign_counter = ref 0
    and my_index = ref 0
    and bfs_parent_port = ref (-1)
    and bfs_depth = ref (if is_root then 0 else -1)
    and bfs_children = ref 0
    and echo_maxd = ref 0
    and echo_ucount = ref 0
    and echoes = ref 0
    and params_known = ref false
    and t0 = ref 0
    and dz = ref 0
    and usize = ref 1
    and local_size_acc = ref 0
    and local_size_got = ref 0
    and s_cur = ref 0
    and a_next = ref (-1)
    and s_add = ref 0
    and got_anc = ref false
    and cur_iter = ref (-1)
    and global_phase = ref false
    and global_sum = ref 0
    and global_local_got = ref 0
    and virtual_got = ref 0
    and global_sent = ref false
    and my_global_s = ref 0
    and heavy_s = ref (-1)
    and heavy_id = ref (-1)
    and heavy_port = ref (-1)
    and is_light = ref (my_tree && not is_root)
    and lights = ref []
    and collect3 = ref []
    and collect3_len = ref 0
    and got_end3 = ref false
    and q_cur = ref 0
    and q_add = ref 0
    and prefix_cur = ref 0
    and prefix_scan_round = ref (-1)
    and scan_j = ref (-1)
    and scan_s = ref 0
    and range_a = ref 1
    and range_b = ref 1
    and final_entry = ref (-1)
    and final_exit = ref (-1)
    and finished = ref false
    and last_relay = ref (-1) in
    let ancestors = Array.make (llog + 2) (-1) in
    let upq : payload Queue.t = Queue.create () in
    let downq : payload Queue.t = Queue.create () in
    let streamq : msg Queue.t = Queue.create () in
    let agenda = Protocol.agenda () in
    let schedule r a = Protocol.schedule agenda r a in
    let update_mem () =
      let words =
        36
        + (5 * (Queue.length upq + Queue.length downq))
        + (2 * Queue.length streamq)
        + (if local_root_flag then llog + 2 else 0)
        + (2 * List.length !lights)
        + (2 * !collect3_len)
      in
      T.set_memory words
    in
    let send_all m = for p = 0 to deg - 1 do T.send p m done in
    (* tree-downward: every port except the tree parent *)
    let send_down m =
      for p = 0 to deg - 1 do
        if p <> tp_port.(me) then T.send p m
      done
    in
    (* bfs-downward: every port except the bfs parent *)
    let bc_send_down m =
      for p = 0 to deg - 1 do
        if p <> !bfs_parent_port then T.send p m
      done
    in
    let send_parent m = T.send tp_port.(me) m in
    let handle_payload pl =
      if local_root_flag then begin
        match pl with
        | P_size { origin; anc; s; iter } ->
          if iter = !cur_iter then begin
            if origin = ancestors.(iter) then begin
              a_next := anc;
              got_anc := true
            end;
            if anc = me then s_add := !s_add + s
          end
        | P_light { origin; tail; head; iter } ->
          if iter = !cur_iter && origin = ancestors.(iter) then begin
            collect3 := (tail, head) :: !collect3;
            incr collect3_len
          end
        | P_light_end { origin; count; iter } ->
          if iter = !cur_iter && origin = ancestors.(iter) then begin
            got_end3 := true;
            if count <> !collect3_len then fail "alg3: item count mismatch"
          end
        | P_shift { origin; q; iter } ->
          if iter = !cur_iter && origin = ancestors.(iter) then begin
            q_add := q;
            got_anc := true
          end
      end
    in
    let turnaround pl =
      handle_payload pl;
      Queue.add pl downq
    in
    let insert_payload pl = if is_root then turnaround pl else Queue.add pl upq in
    let note_child_size ~s ~id ~port =
      global_sum := !global_sum + s;
      if s > !heavy_s || (s = !heavy_s && id < !heavy_id) then begin
        heavy_s := s;
        heavy_id := id;
        heavy_port := port
      end
    in
    let try_complete_global () =
      if
        my_tree && !global_phase && (not !global_sent)
        && !global_local_got = !local_children
        && !virtual_got = !virtual_children
      then begin
        global_sent := true;
        my_global_s := 1 + !global_sum;
        if local_root_flag && !my_global_s <> !s_cur then
          fail
            (Printf.sprintf "global size mismatch: conv=%d alg1=%d" !my_global_s !s_cur);
        if local_root_flag then my_global_s := !s_cur;
        (* local roots already reported via Size_to_parent at A_size_up *)
        if (not is_root) && not my_u then
          send_parent (Global_size { s = !my_global_s; id = me });
        if !heavy_port >= 0 then T.send !heavy_port You_are_heavy
      end
    in
    let build_schedule () =
      let b_bound =
        min n (int_of_float (ceil (2.0 *. log (float_of_int n +. 2.0) /. qprob)) + 16)
      in
      let l = llog in
      let p1 = (3 * !usize) + (2 * (!dz + 1)) + 12 in
      let m3 = !usize * (l + 2) in
      let p3 = (3 * m3) + (2 * (!dz + 1)) + 12 in
      let ta = !t0 in
      schedule ta A_start_waves;
      let tc = ta + b_bound + 4 in
      for i = 0 to l - 1 do
        schedule (tc + (i * p1)) (A_alg1_start i);
        schedule (tc + ((i + 1) * p1) - 1) (A_alg1_end i)
      done;
      let td = tc + (l * p1) + 2 in
      schedule td A_size_up;
      schedule (td + 2) A_global_trigger;
      let te = td + b_bound + 8 in
      schedule te A_wave1;
      let tf = te + b_bound + l + 6 in
      for i = 0 to l - 1 do
        schedule (tf + (i * p3)) (A_alg3_start i);
        schedule (tf + ((i + 1) * p3) - 1) (A_alg3_end i)
      done;
      let tg = tf + (l * p3) + 2 in
      schedule tg A_wave2;
      let th = tg + b_bound + l + 6 in
      for i = 0 to l do
        schedule (th + (2 * i)) (A_alg5 i)
      done;
      let ti = th + (2 * (l + 1)) + 4 in
      schedule ti A_dfs;
      let tj = ti + b_bound + 4 in
      for i = 0 to l - 1 do
        schedule (tj + (i * p1)) (A_alg6_start i);
        schedule (tj + ((i + 1) * p1) - 1) (A_alg6_end i)
      done;
      let tk = tj + (l * p1) + 2 in
      schedule tk A_shift;
      schedule (tk + b_bound + 4) A_finish
    in
    let stagger_window w =
      if stagger then Random.State.int myrng (max 1 w) else 0
    in
    let handle port m =
      match m with
      | Hello { is_u } ->
        if is_u then incr virtual_children else incr local_children
      | Hello2 ->
        incr assign_counter;
        T.send port (Index { j = !assign_counter; pid = me })
      | Index { j; pid } ->
        if port = tp_port.(me) then begin
          my_index := j;
          if pid <> tp_id.(me) then fail "index from wrong parent"
        end
      | Bfs { depth } ->
        if !bfs_parent_port < 0 && not is_root then begin
          bfs_parent_port := port;
          bfs_depth := depth + 1;
          T.send port Bfs_adopt;
          for p = 0 to deg - 1 do
            if p <> port then T.send p (Bfs { depth = !bfs_depth })
          done;
          schedule (T.round () + 3) A_bfs_echo_check
        end
      | Bfs_adopt -> incr bfs_children
      | Bfs_echo { maxd; ucount } ->
        echo_maxd := max !echo_maxd maxd;
        echo_ucount := !echo_ucount + ucount;
        incr echoes;
        if !echoes = !bfs_children then begin
          let my_bit = if my_tree && my_u then 1 else 0 in
          if is_root then begin
            dz := !echo_maxd;
            usize := !echo_ucount + 1;
            t0 := T.round () + !dz + 4;
            params_known := true;
            u_count_out := !usize;
            dz_out := !dz;
            send_all (Params { t0 = !t0; dz = !dz; usize = !usize });
            build_schedule ()
          end
          else
            T.send !bfs_parent_port
              (Bfs_echo
                 { maxd = max !echo_maxd !bfs_depth; ucount = !echo_ucount + my_bit })
        end
      | Params { t0 = start; dz = dzv; usize = us } ->
        if port = !bfs_parent_port && not !params_known then begin
          params_known := true;
          t0 := start;
          dz := dzv;
          usize := us;
          bc_send_down m;
          build_schedule ()
        end
      | Local_root { w } ->
        if my_tree && port = tp_port.(me) then begin
          if my_u then ancestors.(0) <- w
          else begin
            send_down m
          end
        end
      | Local_size { s } ->
        local_size_acc := !local_size_acc + s;
        incr local_size_got;
        if !local_size_got = !local_children then begin
          let sz = 1 + !local_size_acc in
          if local_root_flag then s_cur := sz
          else send_parent (Local_size { s = sz })
        end
      | Size_to_parent { s; id } ->
        note_child_size ~s ~id ~port;
        incr virtual_got;
        try_complete_global ()
      | Global_size { s; id } ->
        note_child_size ~s ~id ~port;
        incr global_local_got;
        try_complete_global ()
      | You_are_heavy -> is_light := false
      | Light_item { tail; head } ->
        if my_tree && port = tp_port.(me) then begin
          if my_u then begin
            lights := (tail, head) :: !lights;
            update_mem ()
          end
          else if not is_root then Queue.add m streamq
        end
      | Light_end ->
        if my_tree && port = tp_port.(me) then begin
          if my_u then begin
            let l = List.rev !lights in
            lights := (if !is_light then l @ [ (tp_id.(me), me) ] else l)
          end
          else if not is_root then begin
            if !is_light then
              Queue.add (Light_item { tail = tp_id.(me); head = me }) streamq;
            Queue.add Light_end streamq
          end
        end
      | Final_item { tail; head } ->
        if my_tree && port = tp_port.(me) && not my_u then begin
          lights := (tail, head) :: !lights;
          Queue.add m streamq
        end
      | Final_end ->
        if my_tree && port = tp_port.(me) && not my_u then begin
          let l = List.rev !lights in
          lights := (if !is_light then l @ [ (tp_id.(me), me) ] else l);
          if !is_light then
            Queue.add (Final_item { tail = tp_id.(me); head = me }) streamq;
          Queue.add Final_end streamq
        end
      | Prefix { j; flag; s; width } ->
        if !prefix_scan_round <> T.round () then begin
          prefix_scan_round := T.round ();
          scan_j := -1
        end;
        if !scan_j >= 0 && j > !scan_j && j <= !scan_j + width then
          T.send port (Prefix_add { s = !scan_s });
        if flag then begin
          scan_j := j;
          scan_s := s
        end
      | Prefix_add { s } -> prefix_cur := !prefix_cur + s
      | Range_start { a } ->
        if my_tree && port = tp_port.(me) then begin
          if my_u then q_cur := a + !prefix_cur - !my_global_s
          else begin
            range_a := a + 1 + !prefix_cur - !my_global_s;
            range_b := a + !prefix_cur;
            send_down (Range_start { a = !range_a })
          end
        end
      | Shift { q } ->
        if my_tree && port = tp_port.(me) && not my_u then begin
          final_entry := !range_a + q;
          final_exit := !range_b + q;
          send_down m
        end
      | Bc_up pl -> if is_root then turnaround pl else Queue.add pl upq
      | Bc_down pl ->
        if port = !bfs_parent_port then begin
          handle_payload pl;
          Queue.add pl downq
        end
    in
    let run_action = function
      | A_hello2 -> if my_tree && not is_root then send_parent Hello2
      | A_bfs_start ->
        if is_root then begin
          send_all (Bfs { depth = 0 });
          schedule (T.round () + 3) A_bfs_echo_check
        end
      | A_bfs_echo_check ->
        if !bfs_children = 0 then begin
          let my_bit = if my_tree && my_u then 1 else 0 in
          if is_root then begin
            (* no neighbours at all: degenerate single-vertex network *)
            dz := 0;
            usize := 1;
            t0 := T.round () + 4;
            params_known := true;
            build_schedule ()
          end
          else T.send !bfs_parent_port (Bfs_echo { maxd = !bfs_depth; ucount = my_bit })
        end
      | A_start_waves ->
        phase "stage1: local sizes";
        if local_root_flag then send_down (Local_root { w = me });
        if my_tree && !local_children = 0 then begin
          if local_root_flag then s_cur := 1
          else send_parent (Local_size { s = 1 })
        end
      | A_insert pls -> List.iter insert_payload pls
      | A_alg1_start i ->
        if i = 0 then phase "alg1: pointer jumping";
        sub (Printf.sprintf "alg1 iter %d" i);
        cur_iter := i;
        s_add := 0;
        got_anc := false;
        a_next := -1;
        if local_root_flag then begin
          let pl = P_size { origin = me; anc = ancestors.(i); s = !s_cur; iter = i } in
          schedule (T.round () + stagger_window (2 * !usize)) (A_insert [ pl ])
        end
      | A_alg1_end i ->
        if local_root_flag then begin
          if ancestors.(i) >= 0 && not !got_anc then fail "alg1: ancestor msg missing";
          ancestors.(i + 1) <- (if ancestors.(i) >= 0 then !a_next else -1);
          s_cur := !s_cur + !s_add
        end;
        sub_end ();
        cur_iter := -1
      | A_size_up ->
        phase "stage1: global sizes";
        global_phase := true;
        if my_u then send_parent (Size_to_parent { s = !s_cur; id = me })
      | A_global_trigger -> try_complete_global ()
      | A_wave1 ->
        phase "stage2: light lists";
        if local_root_flag then Queue.add Light_end streamq
      | A_alg3_start i ->
        if i = 0 then phase "alg3: pointer jumping";
        sub (Printf.sprintf "alg3 iter %d" i);
        cur_iter := i;
        collect3 := [];
        collect3_len := 0;
        got_end3 := false;
        if local_root_flag then begin
          let items =
            List.map
              (fun (t, h) -> P_light { origin = me; tail = t; head = h; iter = i })
              !lights
          in
          let pls =
            items @ [ P_light_end { origin = me; count = List.length !lights; iter = i } ]
          in
          schedule
            (T.round () + stagger_window (2 * !usize * (llog + 2)))
            (A_insert pls)
        end
      | A_alg3_end i ->
        if local_root_flag && ancestors.(i) >= 0 then begin
          if not !got_end3 then fail "alg3: end marker missing";
          lights := List.rev !collect3 @ !lights
        end;
        collect3 := [];
        collect3_len := 0;
        sub_end ();
        cur_iter := -1
      | A_wave2 ->
        phase "stage2: distribution";
        if local_root_flag then begin
          List.iter
            (fun (t, h) -> Queue.add (Final_item { tail = t; head = h }) streamq)
            !lights;
          Queue.add Final_end streamq
        end
      | A_alg5 i ->
        if i = 0 then phase "alg5: prefix sums";
        if my_tree && not is_root then begin
          if i = 0 then prefix_cur := !my_global_s;
          let j = !my_index in
          let flag = j mod (1 lsl (i + 1)) = 1 lsl i in
          send_parent (Prefix { j; flag; s = !prefix_cur; width = 1 lsl i })
        end
      | A_dfs ->
        phase "alg4: dfs wave";
        if local_root_flag then begin
          range_a := 1;
          range_b := !s_cur;
          send_down (Range_start { a = 1 })
        end
      | A_alg6_start i ->
        if i = 0 then phase "alg6: pointer jumping";
        sub (Printf.sprintf "alg6 iter %d" i);
        cur_iter := i;
        got_anc := false;
        q_add := 0;
        if local_root_flag then begin
          let pl = P_shift { origin = me; q = !q_cur; iter = i } in
          schedule (T.round () + stagger_window (2 * !usize)) (A_insert [ pl ])
        end
      | A_alg6_end i ->
        if local_root_flag then begin
          if ancestors.(i) >= 0 && not !got_anc then fail "alg6: ancestor msg missing";
          q_cur := !q_cur + !q_add
        end;
        sub_end ();
        cur_iter := -1
      | A_shift ->
        phase "final shift";
        if local_root_flag then begin
          final_entry := !range_a + !q_cur;
          final_exit := !range_b + !q_cur;
          send_down (Shift { q = !q_cur })
        end
      | A_params_check ->
        (* self-healing watchdog: if the setup flood never reached us (root
           crashed, network cut), give up with a reason instead of waiting
           forever *)
        if not !params_known then begin
          v.fail (Protocol.Setup_timeout { vertex = me; round = T.round () });
          finished := true
        end
      | A_finish ->
        if my_tree then begin
          if !final_entry < 0 then fail "no dfs interval";
          tables.(me) <-
            Some
              {
                Tz.Tree_routing.entry = !final_entry;
                exit_ = !final_exit;
                parent = tp_id.(me);
                heavy = !heavy_id;
              };
          labels.(me) <-
            Some
              { Tz.Tree_routing.target = me; target_entry = !final_entry; lights = !lights }
        end;
        phase_done ();
        finished := true
    in
    let relay () =
      let r = T.round () in
      if !last_relay < r then begin
        last_relay := r;
        if not (Queue.is_empty upq) then begin
          let pl = Queue.pop upq in
          if is_root then turnaround pl else T.send !bfs_parent_port (Bc_up pl)
        end;
        if not (Queue.is_empty downq) then bc_send_down (Bc_down (Queue.pop downq));
        if not (Queue.is_empty streamq) then send_down (Queue.pop streamq)
      end
    in
    let abort_if_parent p =
      if p = tp_port.(me) then begin
        fail "tree parent unreachable: aborting";
        finished := true
      end
      else if p = !bfs_parent_port then begin
        fail "bfs parent unreachable: aborting";
        finished := true
      end
    in
    (* round 0: children announce; schedule fixed early actions *)
    phase "setup";
    if my_tree && not is_root then send_parent (Hello { is_u = my_u });
    schedule 1 A_hello2;
    schedule 4 A_bfs_start;
    schedule ((4 * n) + 64) A_params_check;
    update_mem ();
    let next_deadline () =
      let a = Protocol.deadline agenda in
      if Queue.is_empty upq && Queue.is_empty downq && Queue.is_empty streamq then a
      else min a (T.round () + 1)
    in
    let rec loop () =
      if not !finished then begin
        let dl = next_deadline () in
        let ib = if dl = max_int then T.wait () else T.wait_until dl in
        for i = 0 to T.count ib - 1 do
          handle (T.port ib i) (T.msg ib i)
        done;
        (match T.dead_ports () with
        | [] -> ()
        | dead -> Protocol.check_dead v dead abort_if_parent);
        Protocol.run_due agenda (T.round ()) run_action;
        relay ();
        update_mem ();
        loop ()
      end
    in
    loop ()
  in
  let report, failures =
    P.run ?faults ?reliable ?config ?trace ?max_rounds ?scheduler ?domains g ~node
  in
  {
    scheme =
      Tz.Tree_routing.of_members tree ~table:(Array.get tables) ~label:(Array.get labels);
    report;
    u_count = !u_count_out;
    d_bfs = !dz_out;
    failures;
  }

type batch_outcome = {
  outcomes : outcome list;
  serial_rounds : int;
  parallel_rounds : int;
  peak_memory : int;
  max_overlap : int;
}

let run_batch ~rng ?q g ~trees =
  let n = Graph.n g in
  let s =
    let count = Array.make n 0 in
    List.iter
      (fun t -> List.iter (fun v -> count.(v) <- count.(v) + 1) (Tree.vertices t))
      trees;
    max 1 (Array.fold_left max 0 count)
  in
  let q =
    match q with
    | Some q -> q
    | None -> 1.0 /. sqrt (float_of_int (max 1 (s * n)))
  in
  let outcomes = List.map (fun tree -> run ~rng ~q g ~tree) trees in
  let serial_rounds =
    List.fold_left (fun acc o -> acc + o.report.Congest.Metrics.rounds) 0 outcomes
  in
  let slowest =
    List.fold_left (fun acc o -> max acc o.report.Congest.Metrics.rounds) 0 outcomes
  in
  (* Theorem 2 schedule: random start times drawn from a window of length
     O(sqrt(s n) log n) let the trees share edges whp without congestion *)
  let window =
    int_of_float
      (ceil (sqrt (float_of_int (s * n)) *. log (float_of_int (max 2 n))))
  in
  let parallel_rounds = slowest + window in
  (* per-vertex memory adds across the trees that contain the vertex *)
  let mem = Array.make n 0 in
  List.iter
    (fun o ->
      Array.iteri
        (fun v w -> mem.(v) <- mem.(v) + w)
        o.report.Congest.Metrics.peak_memory)
    outcomes;
  {
    outcomes;
    serial_rounds;
    parallel_rounds;
    peak_memory = Array.fold_left max 0 mem;
    max_overlap = s;
  }
