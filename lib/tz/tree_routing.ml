open Dgraph

type table = { entry : int; exit_ : int; parent : int; heavy : int }

type label = {
  target : int;
  target_entry : int;
  lights : (int * int) list;
}

type scheme = {
  tree : Tree.t;
  tables : table option array;
  labels : label option array;
}

let of_members tree ~table ~label =
  let members = Tree.vertices tree in
  {
    tree;
    tables = Array.of_list (List.map table members);
    labels = Array.of_list (List.map label members);
  }

let build tree =
  of_members tree
    ~table:(fun v ->
      let entry, exit_ = Tree.interval tree v in
      let parent = Tree.parent tree v in
      let heavy = match Tree.heavy_child tree v with Some c -> c | None -> -1 in
      Some { entry; exit_; parent; heavy })
    ~label:(fun v ->
      let entry, _ = Tree.interval tree v in
      Some { target = v; target_entry = entry; lights = Tree.light_edges_to_root tree v })

let lookup what s v =
  match Tree.index s.tree v with -1 -> None | i -> what.(i)

let table s v = lookup s.tables s v
let label s v = lookup s.labels s v

let equal a b =
  Tree.vertices a.tree = Tree.vertices b.tree && a.tables = b.tables && a.labels = b.labels

let table_words _ = 4
let label_words l = 2 + (2 * List.length l.lights)

type step = Arrived | Forward of int

let step ~me tab lab =
  if lab.target_entry = tab.entry then Arrived
  else if lab.target_entry < tab.entry || lab.target_entry > tab.exit_ then
    Forward tab.parent
  else
    match List.assoc_opt me lab.lights with
    | Some child -> Forward child
    | None -> Forward tab.heavy

let route scheme ~src ~dst =
  let get what find v =
    match find scheme v with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "Tree_routing.route: no %s for vertex %d" what v)
  in
  let lab = get "label" label dst in
  let limit = 2 * Tree.size scheme.tree in
  let rec go v acc steps =
    if steps > limit then failwith "Tree_routing.route: forwarding loop"
    else
      match step ~me:v (get "table" table v) lab with
      | Arrived -> List.rev (v :: acc)
      | Forward next -> go next (v :: acc) (steps + 1)
  in
  go src [] 0
