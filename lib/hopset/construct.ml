open Dgraph

(* The construction is factored so that the distributed protocol
   (Routing.Dist_hopset) can reproduce it bit-for-bit: every ingredient is a
   wave fixpoint with a canonical, order-independent tie-break, and
   [assemble] turns the per-vertex fields into the edge list. The
   centralized path computes the fields with Dijkstra; the protocol computes
   the same fields message-by-message and feeds them to the same
   [assemble]. *)

let sample_levels ~rng ~lambda ~m =
  if lambda < 2 then invalid_arg "Construct.sample_levels: lambda >= 2 required";
  let p = float_of_int (max m 2) ** (-1.0 /. float_of_int lambda) in
  Array.init m (fun _ ->
      let rec climb l =
        if l >= lambda - 1 then l
        else if Random.State.float rng 1.0 < p then climb (l + 1)
        else l
      in
      climb 0)

let bunch_field g ~src ~bound =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let settled = Array.make n false in
  let q = Pqueue.create ~capacity:(max 16 n) () in
  dist.(src) <- 0.0;
  Pqueue.push q ~key:0.0 src;
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (d, v) ->
      if (not settled.(v)) && d <= dist.(v) then begin
        settled.(v) <- true;
        if v = src || d < bound v then
          Graph.iter_neighbors g v (fun u ew ->
              let nd = d +. ew in
              if nd < dist.(u) then begin
                dist.(u) <- nd;
                Pqueue.push q ~key:nd u
              end)
      end;
      drain ()
  in
  drain ();
  dist

let canonical_parent g ~dist ?src v =
  let dv = dist.(v) in
  let same_src u =
    match src with None -> true | Some s -> s.(u) = s.(v)
  in
  let best = ref None in
  Graph.iter_neighbors g v (fun u w ->
      let du = dist.(u) in
      if
        du < infinity
        && du +. w = dv
        && (du < dv || (du = dv && u < v))
        && same_src u
      then
        match !best with
        | Some (bd, bu) when (bd, bu) <= (du, u) -> ()
        | _ -> best := Some (du, u));
  match !best with Some (_, u) -> Some u | None -> None

let canonical_path g ~dist ?src ~target from_v =
  let n = Graph.n g in
  let rec walk acc v steps =
    if v = target then Some (Array.of_list (List.rev (v :: acc)))
    else if steps > n then None
    else
      match canonical_parent g ~dist ?src v with
      | Some u -> walk (v :: acc) u (steps + 1)
      | None -> None
  in
  if dist.(from_v) = infinity then None else walk [] from_v 0

type fields = {
  levels : int array;  (** hopset level per virtual index *)
  dist_to_level : float array array;
      (** [dist_to_level.(i).(v)] = d(v, members of level >= i), [1 <= i <=
          lambda]; row [lambda] is all-infinity *)
  pivot_of_level : int array array;
      (** lex source attributions matching [dist_to_level] *)
  bunch_dist : float array array;
      (** per virtual index [jw]: the truncated wave field of [mv.(jw)] *)
}

let level_fields g mv ~lambda ~levels =
  let n = Graph.n g in
  let m = Array.length mv in
  let dist_to_level = Array.make (lambda + 1) [||] in
  let pivot_of_level = Array.make (lambda + 1) [||] in
  for i = 1 to lambda - 1 do
    let srcs = ref [] in
    for j = m - 1 downto 0 do
      if levels.(j) >= i then srcs := mv.(j) :: !srcs
    done;
    let d, s = Sssp.dijkstra_sources g ~srcs:!srcs in
    dist_to_level.(i) <- d;
    pivot_of_level.(i) <- s
  done;
  dist_to_level.(lambda) <- Array.make n infinity;
  pivot_of_level.(lambda) <- Array.make n (-1);
  (dist_to_level, pivot_of_level)

let compute_fields g mv ~lambda ~levels =
  let m = Array.length mv in
  let dist_to_level, pivot_of_level = level_fields g mv ~lambda ~levels in
  let bunch_dist =
    Array.init m (fun jw ->
        let bound v = dist_to_level.(levels.(jw) + 1).(v) in
        bunch_field g ~src:mv.(jw) ~bound)
  in
  { levels; dist_to_level; pivot_of_level; bunch_dist }

let assemble vg (f : fields) =
  let g = Virtual_graph.host vg in
  let mv = Virtual_graph.members vg in
  let m = Array.length mv in
  let seen = Hashtbl.create (4 * m) in
  let acc = ref [] in
  let add_edge ~from_v ~to_w d path =
    let key = if from_v < to_w then (from_v, to_w) else (to_w, from_v) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      match path with
      | None -> ()
      | Some path -> acc := { Hopset.x = from_v; y = to_w; w = d; path } :: !acc
    end
  in
  (* Bunch edges: v' stores {v',w'} when d(w',v') < d(v', A_{level(w')+1}),
     with the distance taken from w''s truncated wave and the host path
     walked along canonical parents of that same field. *)
  for jw = 0 to m - 1 do
    let w' = mv.(jw) in
    let iw = f.levels.(jw) in
    let field = f.bunch_dist.(jw) in
    for jv = 0 to m - 1 do
      let v' = mv.(jv) in
      if v' <> w' then begin
        let d = field.(v') in
        if d < f.dist_to_level.(iw + 1).(v') then
          add_edge ~from_v:v' ~to_w:w' d
            (canonical_path g ~dist:field ~target:w' v')
      end
    done
  done;
  (* Pivot edges: v' -> its lex pivot of each level, weighted with the level
     field and routed along its canonical (source-respecting) parents. *)
  for jv = 0 to m - 1 do
    let v' = mv.(jv) in
    for i = (Array.length f.dist_to_level) - 2 downto 1 do
      let pvt = f.pivot_of_level.(i).(v') in
      if pvt >= 0 && pvt <> v' then
        add_edge ~from_v:v' ~to_w:pvt
          f.dist_to_level.(i).(v')
          (canonical_path g ~dist:f.dist_to_level.(i)
             ~src:f.pivot_of_level.(i) ~target:pvt v')
    done
  done;
  Hopset.make vg !acc

let tz_hopset ~rng ~lambda vg =
  if lambda < 2 then invalid_arg "Construct.tz_hopset: lambda >= 2 required";
  let g = Virtual_graph.host vg in
  let mv = Virtual_graph.members vg in
  let m = Array.length mv in
  let levels = sample_levels ~rng ~lambda ~m in
  assemble vg (compute_fields g mv ~lambda ~levels)

let stats h =
  Printf.sprintf "hopset(|H|=%d, max_store=%d, forests<=%d)" (Hopset.size h)
    (Hopset.max_out_degree h) (Hopset.measured_arboricity h)
