open Dgraph

type op =
  | Insert of { u : int; v : int; w : float }
  | Delete of { u : int; v : int }
  | Reweight of { u : int; v : int; w : float }
  | Join of { v : int; edges : (int * float) list }
  | Leave of { v : int }

type event = { gen : int; op : op; flap : bool }

type rates = {
  insert : float;
  delete : float;
  reweight : float;
  join : float;
  leave : float;
  flap : float;
}

let default_rates =
  {
    insert = 0.22;
    delete = 0.18;
    reweight = 0.3;
    join = 0.1;
    leave = 0.1;
    flap = 0.1;
  }

type spec = {
  seed : int;
  events : int;
  rates : rates;
  wmin : float;
  wmax : float;
  flap_down : int;
}

let default_spec =
  {
    seed = 1;
    events = 100;
    rates = default_rates;
    wmin = 1.0;
    wmax = 8.0;
    flap_down = 3;
  }

let add_spare ~spare g =
  if spare < 0 then invalid_arg "Churn.add_spare: negative spare";
  Graph.of_edges ~n:(Graph.n g + spare) (Graph.edges g)

let class_name (e : event) =
  if e.flap then "flap"
  else
    match e.op with
    | Insert _ -> "insert"
    | Delete _ -> "delete"
    | Reweight _ -> "reweight"
    | Join _ -> "join"
    | Leave _ -> "leave"

let note (m : Metrics.t) (e : event) =
  if e.flap then m.Metrics.churn_flaps <- m.Metrics.churn_flaps + 1
  else
    match e.op with
    | Insert _ -> m.Metrics.churn_inserts <- m.Metrics.churn_inserts + 1
    | Delete _ -> m.Metrics.churn_deletes <- m.Metrics.churn_deletes + 1
    | Reweight _ -> m.Metrics.churn_reweights <- m.Metrics.churn_reweights + 1
    | Join _ -> m.Metrics.churn_joins <- m.Metrics.churn_joins + 1
    | Leave _ -> m.Metrics.churn_leaves <- m.Metrics.churn_leaves + 1

(* ---- applying mutations ---- *)

let same_pair (e : Graph.edge) u v =
  (e.Graph.u = u && e.Graph.v = v) || (e.Graph.u = v && e.Graph.v = u)

let apply g op =
  let n = Graph.n g in
  let check_v what x =
    if x < 0 || x >= n then
      invalid_arg (Printf.sprintf "Churn.apply: %s vertex %d out of range" what x)
  in
  let check_w w =
    if w <= 0.0 then invalid_arg "Churn.apply: non-positive weight"
  in
  match op with
  | Insert { u; v; w } ->
    check_v "insert" u;
    check_v "insert" v;
    check_w w;
    if u = v then invalid_arg "Churn.apply: insert self-loop";
    if Graph.has_edge g u v then
      invalid_arg (Printf.sprintf "Churn.apply: edge %d-%d already present" u v);
    Graph.of_edges ~n ({ Graph.u; v; w } :: Graph.edges g)
  | Delete { u; v } ->
    check_v "delete" u;
    check_v "delete" v;
    if not (Graph.has_edge g u v) then
      invalid_arg (Printf.sprintf "Churn.apply: edge %d-%d not present" u v);
    Graph.of_edges ~n
      (List.filter (fun e -> not (same_pair e u v)) (Graph.edges g))
  | Reweight { u; v; w } ->
    check_v "reweight" u;
    check_v "reweight" v;
    check_w w;
    if not (Graph.has_edge g u v) then
      invalid_arg (Printf.sprintf "Churn.apply: edge %d-%d not present" u v);
    Graph.map_weights g (fun a b ow ->
        if (a = u && b = v) || (a = v && b = u) then w else ow)
  | Join { v; edges } ->
    check_v "join" v;
    if edges = [] then invalid_arg "Churn.apply: join with no edges";
    let seen = Hashtbl.create 4 in
    let extra =
      List.map
        (fun (nbr, w) ->
          check_v "join-neighbour" nbr;
          check_w w;
          if nbr = v then invalid_arg "Churn.apply: join self-loop";
          if Graph.has_edge g v nbr || Hashtbl.mem seen nbr then
            invalid_arg
              (Printf.sprintf "Churn.apply: join edge %d-%d duplicated" v nbr);
          Hashtbl.add seen nbr ();
          { Graph.u = v; v = nbr; w })
        edges
    in
    Graph.of_edges ~n (extra @ Graph.edges g)
  | Leave { v } ->
    check_v "leave" v;
    if Graph.degree g v = 0 then
      invalid_arg (Printf.sprintf "Churn.apply: vertex %d already isolated" v);
    Graph.of_edges ~n
      (List.filter
         (fun e -> e.Graph.u <> v && e.Graph.v <> v)
         (Graph.edges g))

let apply_all g events = List.fold_left (fun g e -> apply g e.op) g events

(* ---- generation ---- *)

(* The core of a graph is its set of non-isolated vertices; a valid stream
   keeps the core connected at every generation. *)
let core_connected g =
  let comp = Graph.components g in
  let label = ref (-1) and ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if Graph.degree g v > 0 then
      if !label < 0 then label := comp.(v)
      else if comp.(v) <> !label then ok := false
  done;
  !ok

let pair_key u v = (min u v lsl 31) lor max u v

let generate spec g0 =
  if spec.events < 0 then invalid_arg "Churn.generate: negative event count";
  if spec.wmin <= 0.0 || spec.wmax < spec.wmin then
    invalid_arg "Churn.generate: need 0 < wmin <= wmax";
  if spec.flap_down < 1 then invalid_arg "Churn.generate: flap_down >= 1 required";
  let rng = Random.State.make [| 0xc4a2; spec.seed |] in
  let n = Graph.n g0 in
  let g = ref g0 in
  (* endpoints and weights of currently-down flaps, keyed by vertex pair;
     those pairs (and their endpoints, for Leave) are off-limits to every
     other class until restored *)
  let reserved : (int, int * int * float) Hashtbl.t = Hashtbl.create 8 in
  let reserved_vertex v =
    Hashtbl.fold (fun _ (a, b, _) acc -> acc || a = v || b = v) reserved false
  in
  let pending = ref [] (* (due_gen, u, v, w), sorted by due_gen *) in
  let events = ref [] in
  let emit gen op flap =
    events := { gen; op; flap } :: !events;
    g := apply !g op
  in
  let rand_weight () =
    if spec.wmax = spec.wmin then spec.wmin
    else spec.wmin +. Random.State.float rng (spec.wmax -. spec.wmin)
  in
  let without_edge u v =
    Graph.of_edges ~n
      (List.filter (fun e -> not (same_pair e u v)) (Graph.edges !g))
  in
  let attempts = 30 in
  (* each try_* returns the op to emit, or None if the class cannot apply *)
  let try_insert () =
    let rec go i =
      if i >= attempts then None
      else begin
        let u = Random.State.int rng n and v = Random.State.int rng n in
        if
          u <> v
          && Graph.degree !g u > 0
          && Graph.degree !g v > 0
          && (not (Graph.has_edge !g u v))
          && not (Hashtbl.mem reserved (pair_key u v))
        then Some (Insert { u; v; w = rand_weight () })
        else go (i + 1)
      end
    in
    go 0
  in
  let removable_edge () =
    (* an edge whose removal neither isolates an endpoint nor splits the
       core *)
    let edges = Array.of_list (Graph.edges !g) in
    let rec go i =
      if i >= attempts || Array.length edges = 0 then None
      else begin
        let e = edges.(Random.State.int rng (Array.length edges)) in
        if
          Graph.degree !g e.Graph.u > 1
          && Graph.degree !g e.Graph.v > 1
          && core_connected (without_edge e.Graph.u e.Graph.v)
        then Some e
        else go (i + 1)
      end
    in
    go 0
  in
  let try_delete () =
    match removable_edge () with
    | Some e -> Some (Delete { u = e.Graph.u; v = e.Graph.v })
    | None -> None
  in
  let try_reweight () =
    let edges = Array.of_list (Graph.edges !g) in
    if Array.length edges = 0 then None
    else begin
      let e = edges.(Random.State.int rng (Array.length edges)) in
      Some (Reweight { u = e.Graph.u; v = e.Graph.v; w = rand_weight () })
    end
  in
  let try_join () =
    let slots = ref [] in
    for v = n - 1 downto 0 do
      if Graph.degree !g v = 0 then slots := v :: !slots
    done;
    match !slots with
    | [] -> None
    | slots ->
      let v = List.nth slots (Random.State.int rng (List.length slots)) in
      let core = ref [] in
      for u = n - 1 downto 0 do
        if Graph.degree !g u > 0 then core := u :: !core
      done;
      let core = Array.of_list !core in
      if Array.length core = 0 then None
      else begin
        let deg = 1 + Random.State.int rng (min 3 (Array.length core)) in
        let chosen = Hashtbl.create 4 in
        let edges = ref [] in
        let tries = ref 0 in
        while Hashtbl.length chosen < deg && !tries < attempts do
          incr tries;
          let u = core.(Random.State.int rng (Array.length core)) in
          if not (Hashtbl.mem chosen u) then begin
            Hashtbl.add chosen u ();
            edges := (u, rand_weight ()) :: !edges
          end
        done;
        if !edges = [] then None else Some (Join { v; edges = List.rev !edges })
      end
  in
  let try_leave () =
    let active = ref 0 in
    for v = 0 to n - 1 do
      if Graph.degree !g v > 0 then incr active
    done;
    if !active <= 4 then None
    else begin
      let rec go i =
        if i >= attempts then None
        else begin
          let v = Random.State.int rng n in
          if Graph.degree !g v > 0 && not (reserved_vertex v) then begin
            let candidate =
              Graph.of_edges ~n
                (List.filter
                   (fun e -> e.Graph.u <> v && e.Graph.v <> v)
                   (Graph.edges !g))
            in
            if core_connected candidate then Some (Leave { v }) else go (i + 1)
          end
          else go (i + 1)
        end
      in
      go 0
    end
  in
  let try_flap gen =
    if gen + spec.flap_down > spec.events then None
    else
      match removable_edge () with
      | None -> None
      | Some e ->
        let u = e.Graph.u and v = e.Graph.v and w = e.Graph.w in
        Hashtbl.replace reserved (pair_key u v) (u, v, w);
        let rec ins = function
          | [] -> [ (gen + spec.flap_down, u, v, w) ]
          | (d, _, _, _) :: _ as l when gen + spec.flap_down < d ->
            (gen + spec.flap_down, u, v, w) :: l
          | x :: rest -> x :: ins rest
        in
        pending := ins !pending;
        Some (Delete { u; v })
  in
  let classes =
    [
      (spec.rates.insert, `Insert);
      (spec.rates.delete, `Delete);
      (spec.rates.reweight, `Reweight);
      (spec.rates.join, `Join);
      (spec.rates.leave, `Leave);
      (spec.rates.flap, `Flap);
    ]
  in
  List.iter
    (fun (r, _) -> if r < 0.0 then invalid_arg "Churn.generate: negative rate")
    classes;
  let total = List.fold_left (fun a (r, _) -> a +. r) 0.0 classes in
  if total <= 0.0 then invalid_arg "Churn.generate: all rates zero";
  let roulette () =
    let x = Random.State.float rng total in
    let rec pick acc = function
      | [ (_, c) ] -> c
      | (r, c) :: rest -> if x < acc +. r then c else pick (acc +. r) rest
      | [] -> assert false
    in
    pick 0.0 classes
  in
  let synth gen cls =
    match cls with
    | `Insert -> Option.map (fun o -> (o, false)) (try_insert ())
    | `Delete -> Option.map (fun o -> (o, false)) (try_delete ())
    | `Reweight -> Option.map (fun o -> (o, false)) (try_reweight ())
    | `Join -> Option.map (fun o -> (o, false)) (try_join ())
    | `Leave -> Option.map (fun o -> (o, false)) (try_leave ())
    | `Flap -> Option.map (fun o -> (o, true)) (try_flap gen)
  in
  for gen = 1 to spec.events do
    match !pending with
    | (due, u, v, w) :: rest when due <= gen ->
      (* restore leg of a flap *)
      pending := rest;
      Hashtbl.remove reserved (pair_key u v);
      emit gen (Insert { u; v; w }) true
    | _ ->
      (* chosen class first, then a fixed fallback order ending in reweight,
         which always applies (the core always has an edge) *)
      let order =
        roulette () :: [ `Insert; `Delete; `Join; `Leave; `Reweight ]
      in
      let rec first = function
        | [] -> failwith "Churn.generate: no applicable mutation class"
        | c :: rest -> (
          match synth gen c with Some x -> x | None -> first rest)
      in
      let op, flap = first order in
      emit gen op flap
  done;
  List.rev !events

(* ---- compilation onto a fault plan ---- *)

let to_fault_spec events ~gen_round ~base =
  let fails = ref [] and flaps = ref [] and crashes = ref [] in
  let open_flaps : (int, int * int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.op with
      | Delete { u; v } when e.flap ->
        Hashtbl.replace open_flaps (pair_key u v) (u, v, e.gen)
      | Insert { u; v; _ } when e.flap -> (
        match Hashtbl.find_opt open_flaps (pair_key u v) with
        | Some (_, _, g1) ->
          Hashtbl.remove open_flaps (pair_key u v);
          let from = gen_round g1 in
          let until = max (from + 1) (gen_round e.gen) in
          flaps := (u, v, from, until) :: !flaps
        | None -> ())
      | Delete { u; v } -> fails := (u, v, gen_round e.gen) :: !fails
      | Leave { v } -> crashes := (v, gen_round e.gen) :: !crashes
      | Insert _ | Reweight _ | Join _ -> ())
    events;
  (* a flap still down when the stream ends is a permanent failure *)
  Hashtbl.iter
    (fun _ (u, v, g1) -> fails := (u, v, gen_round g1) :: !fails)
    open_flaps;
  {
    base with
    Fault.link_failures = base.Fault.link_failures @ List.rev !fails;
    link_flaps = base.Fault.link_flaps @ List.rev !flaps;
    crashes = base.Fault.crashes @ List.rev !crashes;
  }
