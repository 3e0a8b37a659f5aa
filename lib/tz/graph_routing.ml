open Dgraph

type entry = { owner : int; tree_label : Tree_routing.label }

type t = {
  k : int;
  tables : (int, Tree_routing.table) Hashtbl.t array;
  labels : entry list array;
}

let label_of ~k ~pivot ~tree_label y =
  let entries = ref [] in
  let last = ref (-1) in
  for i = 0 to k - 1 do
    let w = pivot i y in
    if w >= 0 && w <> !last then begin
      last := w;
      match tree_label w y with
      | Some tree_label -> entries := { owner = w; tree_label } :: !entries
      | None -> () (* y not in C(w): promoted pivot, covered later *)
    end
  done;
  List.rev !entries

let of_trees ~k ~n ~pivot trees =
  let tables = Array.init n (fun _ -> Hashtbl.create 8) in
  let schemes = Array.make n None in
  List.iter
    (fun (w, tree) ->
      let scheme = Tree_routing.build tree in
      schemes.(w) <- Some scheme;
      List.iter
        (fun v ->
          match Tree_routing.table scheme v with
          | Some tab -> Hashtbl.replace tables.(v) w tab
          | None -> assert false)
        (Tree.vertices tree))
    trees;
  let tree_label w y = Option.bind schemes.(w) (fun s -> Tree_routing.label s y) in
  { k; tables; labels = Array.init n (label_of ~k ~pivot ~tree_label) }

let of_parts ~k g hierarchy clusters =
  let pivot i y = Option.value ~default:(-1) (Hierarchy.pivot hierarchy i y) in
  of_trees ~k ~n:(Graph.n g) ~pivot
    (Array.fold_right
       (fun c acc -> (c.Cluster.owner, c.Cluster.tree) :: acc)
       clusters [])

let assemble ~k ~tables ~labels = { k; tables; labels }

let build ~rng ~k g =
  let hierarchy = Hierarchy.build ~rng ~k g in
  let clusters = Cluster.all g hierarchy in
  of_parts ~k g hierarchy clusters

let k t = t.k
let n t = Array.length t.tables
let label t y = t.labels.(y)

let fold_tables t v f init = Hashtbl.fold f t.tables.(v) init

let table_words t v = 5 * Hashtbl.length t.tables.(v)

let label_words t y =
  List.fold_left
    (fun acc e -> acc + 1 + Tree_routing.label_words e.tree_label)
    0 t.labels.(y)

let max_table_words t =
  Array.fold_left max 0 (Array.init (Array.length t.tables) (table_words t))

let max_label_words t =
  Array.fold_left max 0 (Array.init (Array.length t.labels) (label_words t))

let route t ~src ~dst =
  let n = Array.length t.tables in
  if src < 0 || src >= n then Error (Routing_error.Bad_vertex src)
  else if dst < 0 || dst >= n then Error (Routing_error.Bad_vertex dst)
  else if src = dst then Ok [ src ]
  else begin
    (* pick the first label entry whose cluster also contains the source *)
    let rec pick = function
      | [] -> Error Routing_error.Unreachable
      | e :: rest ->
        if Hashtbl.mem t.tables.(src) e.owner then Ok e else pick rest
    in
    match pick t.labels.(dst) with
    | Error _ as e -> e
    | Ok { owner; tree_label } ->
      let limit = 4 * n in
      let rec go v acc steps =
        if steps > limit then Error (Routing_error.Ttl_exceeded limit)
        else
          match Hashtbl.find_opt t.tables.(v) owner with
          | None -> Error (Routing_error.No_table { vertex = v; owner })
          | Some tab -> (
            match Tree_routing.step ~me:v tab tree_label with
            | Tree_routing.Arrived -> Ok (List.rev (v :: acc))
            | Tree_routing.Forward next ->
              if next < 0 || next >= n then Error (Routing_error.Bad_port next)
              else go next (v :: acc) (steps + 1))
      in
      go src [] 0
  end

let route_weight g t ~src ~dst =
  match route t ~src ~dst with
  | Error _ as e -> e
  | Ok path -> Ok (Sssp.path_weight g path)
