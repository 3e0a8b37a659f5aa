(* Per-member arrays are indexed by a member's slot: its rank among the
   members in increasing id order. *)
type t = {
  root : int;
  ids : int array; (* members, strictly increasing *)
  up : int array; (* slot of the parent, -1 at the root *)
  wparent : float array;
  children : int array array; (* vertex ids, increasing *)
  depth : int array;
  sizes : int array;
  heavy : int array; (* slot of the heavy child, -1 at leaves *)
  entry : int array; (* DFS entry time, heavy child first then by id *)
}

let absent = -2

(* A member's slot: binary search over the sorted ids, which allocates
   nothing and needs no table beside the members. *)
let rank ids v =
  let lo = ref 0 and hi = ref (Array.length ids - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = ids.(mid) in
    if x = v then found := mid else if x < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let index t v = rank t.ids v
let mem t v = index t v >= 0
let root t = t.root
let size t = Array.length t.ids

let slot t v fn =
  let i = index t v in
  if i < 0 then invalid_arg (Printf.sprintf "Tree.%s: vertex %d not in tree" fn v);
  i

(* [ids] strictly increasing and non-negative, [parent.(i)] the vertex id of
   [ids.(i)]'s parent ([-1] at the root), [wparent.(i)] the edge weight; the
   three arrays are adopted. *)
let build ~root ~ids ~parent ~wparent =
  let s = Array.length ids in
  let r = rank ids root in
  if r < 0 || parent.(r) <> -1 then
    invalid_arg "Tree: root must be in range with parent = -1";
  (* parent slots, and the children of each slot as a CSR of child slots in
     increasing id order *)
  let up = Array.make s (-1) and start = Array.make (s + 1) 0 in
  for i = 0 to s - 1 do
    let p = parent.(i) in
    if p >= 0 then begin
      let j = rank ids p in
      if j < 0 then invalid_arg "Tree: parent outside tree";
      up.(i) <- j;
      start.(j + 1) <- start.(j + 1) + 1
    end
  done;
  for i = 0 to s - 1 do
    start.(i + 1) <- start.(i + 1) + start.(i)
  done;
  let kids = Array.make start.(s) 0 and fill = Array.sub start 0 s in
  for i = 0 to s - 1 do
    let j = up.(i) in
    if j >= 0 then begin
      kids.(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1
    end
  done;
  let children =
    Array.init s (fun j ->
        Array.init (start.(j + 1) - start.(j)) (fun c -> ids.(kids.(start.(j) + c))))
  in
  (* BFS order from the root; also validates reachability/acyclicity *)
  let depth = Array.make s (-1) and order = Array.make s 0 in
  depth.(r) <- 0;
  order.(0) <- r;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    for c = start.(i) to start.(i + 1) - 1 do
      let k = kids.(c) in
      depth.(k) <- depth.(i) + 1;
      order.(!tail) <- k;
      incr tail
    done
  done;
  if !tail <> s then invalid_arg "Tree: disconnected or cyclic parent array";
  (* subtree sizes and heavy children: reverse BFS order is leaves-first *)
  let sizes = Array.make s 1 and heavy = Array.make s (-1) in
  for x = s - 1 downto 0 do
    let i = order.(x) in
    let best_size = ref 0 in
    for c = start.(i) to start.(i + 1) - 1 do
      let k = kids.(c) in
      sizes.(i) <- sizes.(i) + sizes.(k);
      if sizes.(k) > !best_size then begin
        heavy.(i) <- k;
        best_size := sizes.(k)
      end
    done
  done;
  (* DFS entry times, heavy child first then the rest by id: BFS order is
     parents-first, and a child's subtree starts where its older siblings'
     subtrees end *)
  let entry = Array.make s 0 in
  for x = 0 to s - 1 do
    let i = order.(x) in
    let h = heavy.(i) in
    let next = ref (entry.(i) + 1) in
    if h >= 0 then begin
      entry.(h) <- !next;
      next := !next + sizes.(h)
    end;
    for c = start.(i) to start.(i + 1) - 1 do
      let k = kids.(c) in
      if k <> h then begin
        entry.(k) <- !next;
        next := !next + sizes.(k)
      end
    done
  done;
  { root; ids; up; wparent; children; depth; sizes; heavy; entry }

let of_parents ~root ~parent ~wparent =
  if Array.length parent <> Array.length wparent then
    invalid_arg "Tree.of_parents: array length mismatch";
  let n = Array.length parent in
  if root < 0 || root >= n || parent.(root) <> -1 then
    invalid_arg "Tree: root must be in range with parent = -1";
  let s = Array.fold_left (fun acc p -> if p <> absent then acc + 1 else acc) 0 parent in
  let ids = Array.make s 0 and next = ref 0 in
  Array.iteri
    (fun v p ->
      if p <> absent then begin
        ids.(!next) <- v;
        incr next
      end)
    parent;
  build ~root ~ids
    ~parent:(Array.map (fun v -> parent.(v)) ids)
    ~wparent:(Array.map (fun v -> wparent.(v)) ids)

let of_members ~root members =
  let m = Array.of_list members in
  Array.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) m;
  let ids = Array.map (fun (v, _, _) -> v) m in
  Array.iteri
    (fun x v ->
      if v < 0 || (x > 0 && ids.(x - 1) = v) then
        invalid_arg (Printf.sprintf "Tree.of_members: vertex %d negative or repeated" v))
    ids;
  build ~root ~ids
    ~parent:(Array.map (fun (_, p, _) -> p) m)
    ~wparent:(Array.map (fun (_, _, w) -> w) m)

let bfs_spanning g ~root =
  let n = Graph.n g in
  let parent = Array.make n absent and wparent = Array.make n 0.0 in
  let queue = Queue.create () in
  parent.(root) <- -1;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    Graph.iter_neighbors g v (fun u w ->
        if parent.(u) = absent then begin
          parent.(u) <- v;
          wparent.(u) <- w;
          Queue.add u queue
        end)
  done;
  of_parents ~root ~parent ~wparent

let of_tree_graph g ~root =
  if Graph.m g <> Graph.n g - 1 || not (Graph.is_connected g) then
    invalid_arg "Tree.of_tree_graph: graph is not a tree";
  bfs_spanning g ~root

let shortest_path_tree g ~root =
  let { Sssp.dist; parent = sp } = Sssp.dijkstra g ~src:root in
  let n = Graph.n g in
  let parent = Array.make n absent and wparent = Array.make n 0.0 in
  parent.(root) <- -1;
  for v = 0 to n - 1 do
    if v <> root && dist.(v) < infinity then begin
      parent.(v) <- sp.(v);
      wparent.(v) <-
        (match Graph.weight g v sp.(v) with Some w -> w | None -> assert false)
    end
  done;
  of_parents ~root ~parent ~wparent

let vertices t = Array.to_list t.ids

let parent t v =
  let i = slot t v "parent" in
  if t.up.(i) < 0 then -1 else t.ids.(t.up.(i))

let weight_to_parent t v =
  let i = slot t v "weight_to_parent" in
  if v = t.root then invalid_arg "Tree.weight_to_parent: root has no parent";
  t.wparent.(i)

let children t v = t.children.(slot t v "children")
let depth t v = t.depth.(slot t v "depth")
let height t = Array.fold_left max 0 t.depth
let subtree_size t v = t.sizes.(slot t v "subtree_size")

let heavy_child t v =
  let h = t.heavy.(slot t v "heavy_child") in
  if h < 0 then None else Some t.ids.(h)

let is_light_edge t v =
  let i = slot t v "is_light_edge" in
  if v = t.root then invalid_arg "Tree.is_light_edge: root";
  t.heavy.(t.up.(i)) <> i

(* slot of the lowest common ancestor of slots [i] and [j] *)
let lca_slot t i j =
  let rec climb i j =
    if i = j then i
    else if t.depth.(i) >= t.depth.(j) then climb t.up.(i) j
    else climb i t.up.(j)
  in
  climb i j

let lca t u v =
  let i = slot t u "lca" and j = slot t v "lca" in
  t.ids.(lca_slot t i j)

let path t u v =
  let i = slot t u "lca" and j = slot t v "lca" in
  let a = lca_slot t i j in
  let rec up x acc = if x = a then t.ids.(x) :: acc else up t.up.(x) (t.ids.(x) :: acc) in
  let left = List.rev (up i []) in
  let right = up j [] in
  match right with
  | [] -> assert false
  | _ :: below_lca -> left @ below_lca

let dist_hops t u v =
  let i = slot t u "lca" and j = slot t v "lca" in
  t.depth.(i) + t.depth.(j) - (2 * t.depth.(lca_slot t i j))

let dist_weight t u v =
  let i = slot t u "lca" and j = slot t v "lca" in
  let a = lca_slot t i j in
  let rec up x acc = if x = a then acc else up t.up.(x) (acc +. t.wparent.(x)) in
  up i 0.0 +. up j 0.0

let interval t v =
  let i = slot t v "interval" in
  (t.entry.(i), t.entry.(i) + t.sizes.(i) - 1)

let light_edges_to_root t v =
  let rec up x acc =
    let p = t.up.(x) in
    if p < 0 then acc
    else
      let acc = if t.heavy.(p) <> x then (t.ids.(p), t.ids.(x)) :: acc else acc in
      up p acc
  in
  up (slot t v "light_edges_to_root") []

let pp ppf t =
  Format.fprintf ppf "tree(root=%d, size=%d, height=%d)" t.root (size t) (height t)
