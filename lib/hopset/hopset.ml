open Dgraph

type edge = { x : int; y : int; w : float; path : int array }

type t = {
  vg : Virtual_graph.t;
  edges : edge array;
  out : int list array; (* host vertex -> indices of edges oriented out of it *)
}

let make vg edge_list =
  let g = Virtual_graph.host vg in
  List.iter
    (fun e ->
      if not (Virtual_graph.is_virtual vg e.x && Virtual_graph.is_virtual vg e.y)
      then invalid_arg "Hopset.make: endpoint not virtual";
      let len = Array.length e.path in
      if len < 2 || e.path.(0) <> e.x || e.path.(len - 1) <> e.y then
        invalid_arg "Hopset.make: path does not connect endpoints";
      let pw = Sssp.path_weight g (Array.to_list e.path) in
      if abs_float (pw -. e.w) > 1e-6 *. (1.0 +. abs_float e.w) then
        invalid_arg "Hopset.make: path weight mismatch")
    edge_list;
  let edges = Array.of_list edge_list in
  let out = Array.make (Graph.n g) [] in
  Array.iteri (fun i e -> out.(e.x) <- i :: out.(e.x)) edges;
  { vg; edges; out }

let virtual_graph t = t.vg
let edges t = t.edges
let size t = Array.length t.edges
let out_edges t v = t.out.(v)
let max_out_degree t = Array.fold_left (fun acc l -> max acc (List.length l)) 0 t.out

let measured_arboricity t =
  (* build the hopset as a graph on virtual indices *)
  let vg = t.vg in
  let m = Virtual_graph.size vg in
  let es =
    Array.to_list t.edges
    |> List.filter_map (fun e ->
           match (Virtual_graph.to_virtual vg e.x, Virtual_graph.to_virtual vg e.y) with
           | Some i, Some j when i <> j -> Some { Graph.u = i; v = j; w = e.w }
           | _ -> None)
  in
  if es = [] then 0 else Arboricity.forest_count (Graph.of_edges ~n:m es)

type provenance = Unreached | Source | Via_host of int | Via_hopset of int

let no_limit _ _ = true

(* [beta] iterations, each a B-bounded host wave (the E' relaxation)
   followed by the explicit hopset-edge relaxation; origins ride with the
   waves exactly as a message would carry them. The edge relaxation is a
   Jacobi step — every relaxation reads the post-wave estimates, and
   candidates commit only after the pass, ties going to the smallest edge
   index — so the result is independent of edge-scan order and a
   distributed relay subphase (all relays launched from the same snapshot,
   committed at the closing barrier) reproduces it bit-for-bit. *)
let run ?(keep_host = no_limit) ?(keep_virtual = no_limit) t ~sources ~beta =
  let g = Virtual_graph.host t.vg in
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let prov = Array.make n Unreached in
  let origin = Array.make n (-1) in
  let is_source = Array.make n false in
  List.iter
    (fun (s, d0) ->
      is_source.(s) <- true;
      if d0 < dist.(s) then begin
        dist.(s) <- d0;
        prov.(s) <- Source;
        origin.(s) <- s
      end)
    sources;
  let keep_host v d = is_source.(v) || keep_host v d in
  let keep_virtual v d = is_source.(v) || keep_virtual v d in
  let parent = Array.make n (-1) in
  let cand = Array.make n infinity in
  let cand_e = Array.make n (-1) and cand_o = Array.make n (-1) in
  (* the edge record goes to the helper whole: a float argument would be
     boxed per call *)
  let relax i e a b =
    if dist.(a) < infinity && keep_virtual a dist.(a) then begin
      let c = dist.(a) +. e.w in
      if c < cand.(b) then begin
        cand.(b) <- c;
        cand_e.(b) <- i;
        cand_o.(b) <- origin.(a)
      end
    end
  in
  for _ = 1 to beta do
    (* (a) E' relaxation: one B-bounded limited wave in the host graph *)
    Array.fill parent 0 n (-1);
    Virtual_graph.bf_iteration t.vg ~keep_going:keep_host ~origin ~dist ~parent ();
    for v = 0 to n - 1 do
      if parent.(v) >= 0 then prov.(v) <- Via_host parent.(v)
    done;
    (* (b) hopset edge relaxation (both directions of each stored edge) *)
    Array.fill cand 0 n infinity;
    Array.iteri
      (fun i e ->
        relax i e e.x e.y;
        relax i e e.y e.x)
      t.edges;
    for v = 0 to n - 1 do
      if cand.(v) < dist.(v) then begin
        dist.(v) <- cand.(v);
        prov.(v) <- Via_hopset cand_e.(v);
        origin.(v) <- cand_o.(v)
      end
    done
  done;
  (dist, prov, origin)

let beta_distance t ~src ~dst ~beta =
  let dist, _, _ = run t ~sources:[ (src, 0.0) ] ~beta in
  dist.(dst)

type check = {
  pairs : int;
  violations : int;
  worst_ratio : float;
  beta : int;
  epsilon : float;
}

let sample_pairs ~rng t pairs =
  let mv = Virtual_graph.members t.vg in
  let m = Array.length mv in
  List.init pairs (fun _ ->
      (mv.(Random.State.int rng m), mv.(Random.State.int rng m)))
  |> List.filter (fun (a, b) -> a <> b)

let verify ~rng t ~beta ~epsilon ~pairs =
  let g = Virtual_graph.host t.vg in
  let ps = sample_pairs ~rng t pairs in
  (* group by source to share Dijkstra and hopset runs *)
  let by_src = Hashtbl.create 16 in
  List.iter
    (fun (s, d) ->
      Hashtbl.replace by_src s (d :: Option.value ~default:[] (Hashtbl.find_opt by_src s)))
    ps;
  let violations = ref 0 and worst = ref 1.0 and count = ref 0 in
  Hashtbl.iter
    (fun s dsts ->
      let exact = (Sssp.dijkstra g ~src:s).Sssp.dist in
      let est, _, _ = run t ~sources:[ (s, 0.0) ] ~beta in
      List.iter
        (fun dst ->
          if exact.(dst) < infinity && exact.(dst) > 0.0 then begin
            incr count;
            let ratio = est.(dst) /. exact.(dst) in
            if ratio > !worst then worst := ratio;
            if ratio > 1.0 +. epsilon +. 1e-9 then incr violations
          end)
        dsts)
    by_src;
  { pairs = !count; violations = !violations; worst_ratio = !worst; beta; epsilon }

let measure_beta ~rng t ~epsilon ~pairs ~max_beta =
  let seed = Random.State.int rng 1_000_000 in
  let rec search beta =
    if beta > max_beta then None
    else begin
      let r = Random.State.make [| seed |] in
      let c = verify ~rng:r t ~beta ~epsilon ~pairs in
      if c.violations = 0 then Some beta
      else search (beta + max 1 (beta / 2))
    end
  in
  search 1
