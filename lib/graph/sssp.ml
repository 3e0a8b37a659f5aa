type result = { dist : float array; parent : int array }

let dijkstra_from g sources =
  let n = Graph.n g in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  let settled = Array.make n false in
  let q = Pqueue.create ~capacity:(max 16 n) () in
  List.iter
    (fun (s, d0) ->
      if d0 < dist.(s) then begin
        dist.(s) <- d0;
        Pqueue.push q ~key:d0 s
      end)
    sources;
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (d, v) ->
      if not settled.(v) && d <= dist.(v) then begin
        settled.(v) <- true;
        Graph.iter_neighbors g v (fun u w ->
            let nd = d +. w in
            if nd < dist.(u) then begin
              dist.(u) <- nd;
              parent.(u) <- v;
              Pqueue.push q ~key:nd u
            end)
      end;
      drain ()
  in
  drain ();
  { dist; parent }

let dijkstra g ~src = dijkstra_from g [ (src, 0.0) ]

(* Multi-source Dijkstra over the lexicographic (distance, source) semiring:
   every vertex learns the id of the smallest-id source among those at minimum
   distance. Edge weights are strictly positive, so all shortest-path-DAG
   predecessors of [v] carry strictly smaller distances — but a vertex's
   attribution can still improve at equal distance after it first pops, so we
   re-relax on every pop that is not strictly stale instead of keeping a
   settled flag. Labels only decrease in the finite lex lattice, so this
   terminates at the unique fixpoint. *)
let dijkstra_sources g ~srcs =
  let n = Graph.n g in
  let dist = Array.make n infinity and src = Array.make n (-1) in
  let q = Pqueue.create ~capacity:(max 16 n) () in
  List.iter
    (fun s ->
      if dist.(s) > 0.0 || s < src.(s) || src.(s) = -1 then begin
        dist.(s) <- 0.0;
        src.(s) <- (if src.(s) = -1 then s else min s src.(s));
        Pqueue.push q ~key:0.0 s
      end)
    srcs;
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (d, v) ->
      if d <= dist.(v) then begin
        let sv = src.(v) in
        Graph.iter_neighbors g v (fun u w ->
            let nd = dist.(v) +. w in
            if nd < dist.(u) || (nd = dist.(u) && sv < src.(u)) then begin
              dist.(u) <- nd;
              src.(u) <- sv;
              Pqueue.push q ~key:nd u
            end)
      end;
      drain ()
  in
  drain ();
  (dist, src)

let dijkstra_multi g ~srcs = dijkstra_from g (List.map (fun s -> (s, 0.0)) srcs)

let dijkstra_hops g ~src =
  let n = Graph.n g in
  let dist = Array.make n infinity
  and parent = Array.make n (-1)
  and hops = Array.make n max_int in
  let settled = Array.make n false in
  let q = Pqueue.create ~capacity:(max 16 n) () in
  dist.(src) <- 0.0;
  hops.(src) <- 0;
  Pqueue.push q ~key:0.0 src;
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (d, v) ->
      if not settled.(v) && d <= dist.(v) then begin
        settled.(v) <- true;
        Graph.iter_neighbors g v (fun u w ->
            let nd = d +. w in
            if nd < dist.(u) || (nd = dist.(u) && hops.(v) + 1 < hops.(u)) then begin
              dist.(u) <- nd;
              hops.(u) <- hops.(v) + 1;
              parent.(u) <- v;
              Pqueue.push q ~key:nd u
            end)
      end;
      drain ()
  in
  drain ();
  ({ dist; parent }, hops)

(* [dist] is updated in place while [prev] holds the estimates the round
   started from, so round t computes exactly "d^(t) = min over paths with at
   most t edges", and a strict [<] against the running minimum gives ties
   to the smallest sender. The [for] loops over adjacency rows build no
   closure per vertex; bench tracecost's bellman-ford row gates that. *)
let bf_rounds g ~hops ~keep_going ?origin ~dist ~parent () =
  let n = Graph.n g in
  if
    Array.length dist <> n
    || Array.length parent <> n
    || match origin with Some o -> Array.length o <> n | None -> false
  then invalid_arg "Sssp.bf_rounds: array length <> n";
  let prev = Array.make n infinity in
  let prev_origin = match origin with Some _ -> Array.make n (-1) | None -> [||] in
  let t = ref 0 and improved = ref true in
  while !improved && !t < hops do
    Array.blit dist 0 prev 0 n;
    (match origin with Some o -> Array.blit o 0 prev_origin 0 n | None -> ());
    improved := false;
    for v = 0 to n - 1 do
      let d = prev.(v) in
      if d < infinity && keep_going v d then begin
        let row = Graph.neighbors g v in
        for p = 0 to Array.length row - 1 do
          let u, w = row.(p) in
          let nd = d +. w in
          if nd < dist.(u) then begin
            dist.(u) <- nd;
            parent.(u) <- v;
            (match origin with Some o -> o.(u) <- prev_origin.(v) | None -> ());
            improved := true
          end
        done
      end
    done;
    incr t
  done

let always _ _ = true

let bellman_ford_multi g ~srcs ~hops =
  let n = Graph.n g in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  List.iter (fun (s, d0) -> if d0 < dist.(s) then dist.(s) <- d0) srcs;
  bf_rounds g ~hops ~keep_going:always ~dist ~parent ();
  { dist; parent }

let bellman_ford g ~src ~hops = bellman_ford_multi g ~srcs:[ (src, 0.0) ] ~hops

let bellman_ford_limited g ~src ~hops ~keep_going =
  let n = Graph.n g in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  dist.(src) <- 0.0;
  bf_rounds g ~hops ~keep_going:(fun v d -> v = src || keep_going v d) ~dist ~parent ();
  { dist; parent }

let path_to { dist; parent } v =
  if dist.(v) = infinity then None
  else begin
    let rec walk v acc = if parent.(v) = -1 then v :: acc else walk parent.(v) (v :: acc) in
    Some (walk v [])
  end

let path_weight g path =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | u :: (v :: _ as rest) -> (
      match Graph.weight g u v with
      | Some w -> go (acc +. w) rest
      | None -> invalid_arg "Sssp.path_weight: not a path")
  in
  go 0.0 path
