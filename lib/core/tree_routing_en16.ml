open Dgraph

type outcome = {
  rounds : int;
  peak_memory : int;
  avg_memory : float;
  max_table_words : int;
  max_label_words : int;
  u_count : int;
  local_height : int;
}

let run ~rng ?q g ~tree =
  let n = Graph.n g in
  let qprob = match q with Some q -> q | None -> 1.0 /. sqrt (float_of_int n) in
  let root = Tree.root tree in
  let in_u =
    Array.init n (fun v ->
        Tree.mem tree v && v <> root && Random.State.float rng 1.0 < qprob)
  in
  let is_local_root v = v = root || in_u.(v) in
  (* local root of every tree vertex, memoized upward walk *)
  let local_root = Array.make n (-1) in
  let rec find_root v =
    if local_root.(v) >= 0 then local_root.(v)
    else begin
      let r = if is_local_root v then v else find_root (Tree.parent tree v) in
      local_root.(v) <- r;
      r
    end
  in
  List.iter (fun v -> ignore (find_root v)) (Tree.vertices tree);
  let roots = List.filter is_local_root (Tree.vertices tree) in
  let u_count = List.length roots in
  (* local trees, each from its own members *)
  let local_members = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let w = local_root.(v) in
      let m =
        if v = w then (v, -1, 0.0) else (v, Tree.parent tree v, Tree.weight_to_parent tree v)
      in
      Hashtbl.replace local_members w
        (m :: Option.value ~default:[] (Hashtbl.find_opt local_members w)))
    (Tree.vertices tree);
  let locals =
    List.map (fun w -> (w, Tree.of_members ~root:w (Hashtbl.find local_members w))) roots
  in
  let local_height =
    List.fold_left (fun acc (_, t) -> max acc (Tree.height t)) 0 locals
  in
  let local_schemes = List.map (fun (w, t) -> (w, Tz.Tree_routing.build t)) locals in
  let local_scheme_of = Hashtbl.create 16 in
  List.iter (fun (w, s) -> Hashtbl.replace local_scheme_of w s) local_schemes;
  (* virtual tree T' over the local roots *)
  let vtree =
    Tree.of_members ~root
      (List.map
         (fun w -> if w = root then (w, -1, 0.0) else (w, local_root.(Tree.parent tree w), 1.0))
         roots)
  in
  let vscheme = Tz.Tree_routing.build vtree in
  let local_label_words w v =
    match (Hashtbl.find_opt local_scheme_of w : Tz.Tree_routing.scheme option) with
    | Some s -> (
      match Tz.Tree_routing.label s v with
      | Some l -> Tz.Tree_routing.label_words l
      | None -> 0)
    | None -> 0
  in
  (* composed label: local root id + local label + per virtual light edge the
     local label of the edge's attachment point in the tail's local tree *)
  let label_words y =
    let x = local_root.(y) in
    let vlights =
      match Tz.Tree_routing.label vscheme x with
      | Some l -> l.Tz.Tree_routing.lights
      | None -> []
    in
    let attach_cost =
      List.fold_left
        (fun acc (a, b) ->
          (* crossing virtual edge (a, b): route in T_a to p_T(b) *)
          let attach = Tree.parent tree b in
          acc + 2 + local_label_words a attach)
        0 vlights
    in
    1 + local_label_words x y + attach_cost
  in
  (* tables: local table; virtual vertices add the virtual table; vertices on
     paths realizing virtual edges store a forwarding entry per edge *)
  let forwarding = Array.make n 0 in
  List.iter
    (fun w ->
      if w <> root then begin
        let a = local_root.(Tree.parent tree w) in
        List.iter (fun v -> forwarding.(v) <- forwarding.(v) + 1) (Tree.path tree a w)
      end)
    roots;
  let table_words y =
    4 + (if is_local_root y then 4 else 0) + (2 * forwarding.(y))
  in
  (* memory: the EN16b bottleneck — every virtual vertex stores all of T' *)
  let memory v =
    (if Tree.mem tree v then table_words v + label_words v else 0)
    + (if Tree.mem tree v && is_local_root v then 2 * u_count else 0)
  in
  let peak = ref 0 and total = ref 0 in
  for v = 0 to n - 1 do
    let w = memory v in
    peak := max !peak w;
    total := !total + w
  done;
  let max_table = ref 0 and max_label = ref 0 in
  List.iter
    (fun v ->
      max_table := max !max_table (table_words v);
      max_label := max !max_label (label_words v))
    (Tree.vertices tree);
  (* rounds: local waves + Lemma 1 broadcast of T' (2|U| words) + pipelined
     label distribution *)
  let dz = Bfs.eccentricity g ~src:root in
  let rounds =
    (4 * local_height) + (2 * ((2 * u_count) + dz)) + local_height + !max_label + 8
  in
  {
    rounds;
    peak_memory = !peak;
    avg_memory = float_of_int !total /. float_of_int n;
    max_table_words = !max_table;
    max_label_words = !max_label;
    u_count;
    local_height;
  }
