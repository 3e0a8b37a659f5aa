open Dgraph

type t = {
  k : int;
  n : int;
  level : int array;
  built : built option;
}

and built = {
  dist : float array array; (* dist.(i).(v) = d(v, A_i), 0 <= i < k *)
  pivots : int array array; (* -1 = undefined *)
}

let sample_levels ~rng ~k ~n =
  if k < 1 then invalid_arg "Hierarchy: k >= 1 required";
  if n < 1 then invalid_arg "Hierarchy: n >= 1 required";
  let p = float_of_int n ** (-1.0 /. float_of_int k) in
  Array.init n (fun _ ->
      let rec climb lvl =
        if lvl >= k - 1 then lvl
        else if Random.State.float rng 1.0 < p then climb (lvl + 1)
        else lvl
      in
      climb 0)

let sample ~rng ~k ~n = { k; n; level = sample_levels ~rng ~k ~n; built = None }

let of_levels ~k levels =
  if k < 1 then invalid_arg "Hierarchy.of_levels: k >= 1 required";
  let n = Array.length levels in
  if n < 1 then invalid_arg "Hierarchy.of_levels: n >= 1 required";
  Array.iter
    (fun l ->
      if l < 0 || l >= k then
        invalid_arg "Hierarchy.of_levels: levels must lie in [0, k-1]")
    levels;
  { k; n; level = Array.copy levels; built = None }

(* Source attribution for a multi-source Dijkstra forest. *)
let attribute_sources parent srcs =
  let n = Array.length parent in
  let src = Array.make n (-1) in
  List.iter (fun s -> src.(s) <- s) srcs;
  let rec resolve v =
    if src.(v) >= 0 then src.(v)
    else if parent.(v) < 0 then -1
    else begin
      let s = resolve parent.(v) in
      src.(v) <- s;
      s
    end
  in
  for v = 0 to n - 1 do
    ignore (resolve v)
  done;
  src

let rec strict_pivot ~dist ~pivots i v =
  if i = Array.length pivots - 1 then pivots.(i).(v)
  else
    let up = strict_pivot ~dist ~pivots (i + 1) v in
    if up >= 0 && dist.(i).(v) >= dist.(i + 1).(v) then up else pivots.(i).(v)

let build ~rng ~k g =
  let n = Graph.n g in
  let level = sample_levels ~rng ~k ~n in
  let dist = Array.make k [||] and raw = Array.make k [||] in
  for i = 0 to k - 1 do
    let srcs = ref [] in
    for v = n - 1 downto 0 do
      if level.(v) >= i then srcs := v :: !srcs
    done;
    let res = Sssp.dijkstra_multi g ~srcs:!srcs in
    dist.(i) <- res.Sssp.dist;
    raw.(i) <- attribute_sources res.Sssp.parent !srcs
  done;
  let pivots =
    Array.init k (fun i -> Array.init n (strict_pivot ~dist ~pivots:raw i))
  in
  { k; n; level; built = Some { dist; pivots } }

let k t = t.k
let level t v = t.level.(v)
let mem t i v = i <= t.level.(v) && i < t.k

let members t i =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if mem t i v then acc := v :: !acc
  done;
  !acc

let get_built t fn =
  match t.built with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Hierarchy.%s: hierarchy was not built on a graph" fn)

let dist_to_level t i v =
  if i >= t.k then infinity
  else if i = 0 then 0.0
  else (get_built t "dist_to_level").dist.(i).(v)

let pivot t i v =
  if i >= t.k then None
  else
    let b = get_built t "pivot" in
    let p = b.pivots.(i).(v) in
    if p < 0 then None else Some p

let pp ppf t =
  Format.fprintf ppf "hierarchy(k=%d:" t.k;
  for i = 0 to t.k - 1 do
    let c = Array.fold_left (fun acc l -> if l >= i then acc + 1 else acc) 0 t.level in
    Format.fprintf ppf " |A_%d|=%d" i c
  done;
  Format.fprintf ppf ")"
