open Dgraph

type t = {
  host : Graph.t;
  b : int;
  members : int array;
  index : int array; (* host id -> virtual index or -1 *)
}

let make host ~members ~b =
  if b < 1 then invalid_arg "Virtual_graph.make: b >= 1 required";
  let n = Graph.n host in
  let members = List.sort_uniq compare members |> Array.of_list in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Virtual_graph.make: member out of range")
    members;
  let index = Array.make n (-1) in
  Array.iteri (fun i v -> index.(v) <- i) members;
  { host; b; members; index }

let sample ~rng host ~b =
  let n = Graph.n host in
  let p = Float.min 1.0 (4.0 *. log (float_of_int n) /. float_of_int b) in
  let members = ref [] in
  for v = n - 1 downto 0 do
    if Random.State.float rng 1.0 < p then members := v :: !members
  done;
  (* never empty: keep vertex 0 as a fallback member *)
  let members = if !members = [] then [ 0 ] else !members in
  make host ~members ~b

let host t = t.host
let b t = t.b
let size t = Array.length t.members
let members t = t.members
let is_virtual t v = t.index.(v) >= 0
let to_virtual t v = if t.index.(v) >= 0 then Some t.index.(v) else None

let bf_iteration t ~keep_going ?origin ~dist ~parent () =
  Sssp.bf_rounds t.host ~hops:t.b ~keep_going ?origin ~dist ~parent ()

let edges_from t v' =
  if not (is_virtual t v') then invalid_arg "Virtual_graph.edges_from: not virtual";
  let res = Sssp.bellman_ford t.host ~src:v' ~hops:t.b in
  Array.to_list t.members
  |> List.filter_map (fun u' ->
         if u' <> v' && res.Sssp.dist.(u') < infinity then
           Some (u', res.Sssp.dist.(u'))
         else None)

let explicit t =
  let m = size t in
  let es = ref [] in
  Array.iteri
    (fun i v' ->
      List.iter
        (fun (u', w) ->
          let j = t.index.(u') in
          if j > i then es := { Graph.u = i; v = j; w } :: !es)
        (edges_from t v'))
    t.members;
  Graph.of_edges ~n:m !es
