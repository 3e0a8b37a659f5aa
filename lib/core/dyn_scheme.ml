open Dgraph

type params = { rebuild_trigger : float }

let default_params = { rebuild_trigger = 1.0 }

type source = Fresh | Stale of int | Recomputed

type reply = { path : int list; source : source; stretch : float option }

type repair = {
  gen : int;
  cls : string;
  touched : int;
  clusters_rebuilt : int;
  rounds : int;
  full_rebuild : bool;
}

type stats = {
  generation : int;
  events : int;
  pending : int;
  build_rounds : int;
  repair_rounds : int;
  full_rebuilds : int;
}

type t = {
  k : int;
  n : int;
  levels : int array;
  params : params;
  mutable g : Graph.t;  (* graph the structures currently describe *)
  mutable cur : Graph.t;  (* graph with every accepted mutation applied *)
  dist : float array array;  (* k+1 rows; row k is all-infinity *)
  srcs : int array array;  (* k rows; lex-min source attribution *)
  par : int array array;  (* k rows; support forests (tie-break dependent,
                             excluded from the differential gate) *)
  clusters : Tz.Cluster.t array;
  scratch : Tz.Cluster.scratch;  (* shared by every cluster regrowth *)
  schemes : Tz.Tree_routing.scheme array;
  tables : (int, Tz.Tree_routing.table) Hashtbl.t array;
      (* v -> the owners w with v ∈ C(w), each with v's table in T(w) *)
  mutable labels : Tz.Graph_routing.entry list array;
  mutable generation : int;
  mutable pending : Congest.Churn.event list;  (* newest first *)
  mutable build_rounds : int;
  mutable repair_rounds : int;
  mutable full_rebuilds : int;
  mutable events_applied : int;
}

(* ------------------------------------------------------------------ *)
(* Lex relaxation waves.

   A candidate (v, d, s, p, h) offers vertex v the label (d, s) with support
   parent p at message hop h. The wave runs the offers to the unique
   (dist, src) lex fixpoint: a label wins if it is strictly shorter, or
   equally short with a smaller source id — exactly the tie-break of
   Sssp.dijkstra_sources, so repaired rows stay bit-identical to a fresh
   centralized recompute. [admit] restricts which vertices may relabel
   (the orphaned region during deletion repair). *)

let wave g ~admit ~dist ~src ~par cands =
  let q = Pqueue.create () in
  let touched : (int, float * int) Hashtbl.t = Hashtbl.create 16 in
  let hop : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let better d s v =
    d < dist.(v) || (d = dist.(v) && s >= 0 && (src.(v) < 0 || s < src.(v)))
  in
  let accept v d s p h =
    if not (Hashtbl.mem touched v) then Hashtbl.add touched v (dist.(v), src.(v));
    dist.(v) <- d;
    src.(v) <- s;
    par.(v) <- p;
    Hashtbl.replace hop v h;
    Pqueue.push q ~key:d v
  in
  List.iter
    (fun (v, d, s, p, h) -> if admit v && better d s v then accept v d s p h)
    cands;
  let maxhop = ref 0 in
  let running = ref true in
  while !running do
    match Pqueue.pop q with
    | None -> running := false
    | Some (d, u) ->
      if d <= dist.(u) then begin
        let h = try Hashtbl.find hop u with Not_found -> 0 in
        if h > !maxhop then maxhop := h;
        Graph.iter_neighbors g u (fun y w ->
            let nd = dist.(u) +. w and ns = src.(u) in
            if admit y && better nd ns y then accept y nd ns u (h + 1))
      end
  done;
  (touched, !maxhop)

(* Vertices whose support parent chain crosses a removed (or lengthened)
   edge: the subtree below each severed tree edge, found by the same flood
   the distributed protocol would run. Returns the set and its BFS depth
   (the notification cost in rounds). *)
let orphan_set pre par removed =
  let o : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let q = Queue.create () in
  let add v d =
    if not (Hashtbl.mem o v) then begin
      Hashtbl.add o v ();
      Queue.add (v, d) q
    end
  in
  List.iter
    (fun (u, v) ->
      if par.(v) = u then add v 0;
      if par.(u) = v then add u 0)
    removed;
  let depth = ref 0 in
  while not (Queue.is_empty q) do
    let x, d = Queue.pop q in
    if d > !depth then depth := d;
    Graph.iter_neighbors pre x (fun y _ -> if par.(y) = x then add y (d + 1))
  done;
  (o, !depth)

(* Repair one hierarchy row i after an edge mutation. Non-orphaned labels
   are provably unchanged under removals (their support chains avoid the
   removed edge, and removals cannot improve anyone), so the orphan region
   is reset and re-seeded from its boundary; insertions and weight
   decreases run an unrestricted improvement wave from the endpoints.
   Returns the sets of vertices whose distance value (vals) or whose
   (dist, src) label (labs ⊇ vals) changed, the disturbed-vertex count and
   the charged rounds. *)
let repair_level t i ~pre ~post ~removed ~added =
  let dist = t.dist.(i) and src = t.srcs.(i) and par = t.par.(i) in
  let vals : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let labs : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let note v od os =
    if dist.(v) <> od then begin
      Hashtbl.replace vals v ();
      Hashtbl.replace labs v ()
    end
    else if src.(v) <> os then Hashtbl.replace labs v ()
  in
  let touched_count = ref 0 in
  let rounds = ref 0 in
  (if removed <> [] then begin
     let o, odepth = orphan_set pre par removed in
     if Hashtbl.length o > 0 then begin
       let old = Hashtbl.fold (fun v () acc -> (v, dist.(v), src.(v)) :: acc) o [] in
       Hashtbl.iter
         (fun v () ->
           dist.(v) <- infinity;
           src.(v) <- -1;
           par.(v) <- -1)
         o;
       let cands = ref [] in
       Hashtbl.iter
         (fun x () ->
           if t.levels.(x) >= i then cands := (x, 0.0, x, -1, 0) :: !cands;
           Graph.iter_neighbors post x (fun y w ->
               if (not (Hashtbl.mem o y)) && dist.(y) < infinity then
                 cands := (x, dist.(y) +. w, src.(y), y, 1) :: !cands))
         o;
       let _, whop = wave post ~admit:(Hashtbl.mem o) ~dist ~src ~par !cands in
       rounds := !rounds + odepth + whop + 2;
       touched_count := !touched_count + Hashtbl.length o;
       List.iter (fun (v, od, os) -> note v od os) old
     end
   end);
  (if added <> [] then begin
     let cands = ref [] in
     List.iter
       (fun (u, v, w) ->
         if dist.(u) < infinity then cands := (v, dist.(u) +. w, src.(u), u, 1) :: !cands;
         if dist.(v) < infinity then cands := (u, dist.(v) +. w, src.(v), v, 1) :: !cands)
       added;
     let touched, whop = wave post ~admit:(fun _ -> true) ~dist ~src ~par !cands in
     if Hashtbl.length touched > 0 then begin
       rounds := !rounds + whop + 1;
       touched_count := !touched_count + Hashtbl.length touched;
       Hashtbl.iter (fun v (od, os) -> note v od os) touched
     end
   end);
  (vals, labs, !touched_count, !rounds)

(* ------------------------------------------------------------------ *)
(* Cluster maintenance. *)

(* The round charge for growing clusters one owner level at a time, the
   owners of a level concurrently: per non-empty level, the deepest tree,
   plus the worst per-vertex overlap among the level's clusters (the
   congestion of concurrent tree broadcasts), plus one round of kick-off.
   [cluster w] returns owner w's cluster, growing it if the caller
   regrows. A rebuild, a regrow and the damage estimate all charge this
   way. *)
let level_charges cluster by_level =
  Array.fold_left
    (fun rounds owners ->
      if owners = [] then rounds
      else begin
        let depth = ref 0 in
        let overlap : (int, int) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun w ->
            let c : Tz.Cluster.t = cluster w in
            depth := max !depth (Tree.height c.Tz.Cluster.tree);
            List.iter
              (fun (v, _) ->
                Hashtbl.replace overlap v
                  (1 + Option.value ~default:0 (Hashtbl.find_opt overlap v)))
              c.Tz.Cluster.dist)
          owners;
        rounds + !depth + Hashtbl.fold (fun _ c acc -> max acc c) overlap 0 + 1
      end)
    0 by_level

(* Owners whose cluster (membership, distances or tree tie-breaks) may have
   changed. The truncated Dijkstra growing C(w) at owner level j only sees a
   mutation if its settled region C_old(w) ∪ N(C_old(w)) touches a mutated
   endpoint or a vertex whose level-(j+1) bound changed — so it suffices to
   flag every owner clustering a touched vertex or one of its (pre or post)
   neighbours. Returns the per-level owner lists and the damage estimate
   (total old membership of the flagged clusters). *)
let affected_owners t ~pre ~post ~endpoints ~vals =
  let k = t.k in
  let affected = Array.make k [] in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let damage = ref 0 in
  let note_owner w =
    if not (Hashtbl.mem seen w) then begin
      Hashtbl.add seen w ();
      affected.(t.levels.(w)) <- w :: affected.(t.levels.(w));
      (* level-(k-1) clusters span the whole component and are disturbed by
         every mutation; counting them would make any edit look
         catastrophic, so the damage estimate covers the local levels *)
      if t.levels.(w) < k - 1 then
        damage := !damage + List.length t.clusters.(w).Tz.Cluster.dist
    end
  in
  for j = 0 to k - 1 do
    let touch : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun x -> Hashtbl.replace touch x ()) endpoints;
    Hashtbl.iter (fun x () -> Hashtbl.replace touch x ()) vals.(j + 1);
    let consider y =
      Hashtbl.iter (fun w _ -> if t.levels.(w) = j then note_owner w) t.tables.(y)
    in
    Hashtbl.iter
      (fun x () ->
        consider x;
        Graph.iter_neighbors pre x (fun y _ -> consider y);
        Graph.iter_neighbors post x (fun y _ -> consider y))
      touch
  done;
  (affected, !damage)

(* Grow C(w) on the current rows and install it: each member stores w's
   tree table. Returns the cluster. *)
let install t w =
  let j = t.levels.(w) in
  let c =
    Tz.Cluster.of_owner_bound ~scratch:t.scratch t.g ~owner:w ~owner_level:j
      ~bound:(fun v -> t.dist.(j + 1).(v))
  in
  let scheme = Tz.Tree_routing.build c.Tz.Cluster.tree in
  List.iter
    (fun (v, _) ->
      match Tz.Tree_routing.table scheme v with
      | Some tab -> Hashtbl.replace t.tables.(v) w tab
      | None -> ())
    c.Tz.Cluster.dist;
  t.clusters.(w) <- c;
  t.schemes.(w) <- scheme;
  c

(* Regrow the flagged clusters on the repaired rows, charged per owner level.
   Returns the vertices whose labels may have changed (old and new
   members) and the rounds. *)
let recompute_clusters t affected =
  let relabel : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let regrow w =
    List.iter
      (fun (v, _) ->
        Hashtbl.replace relabel v ();
        Hashtbl.remove t.tables.(v) w)
      t.clusters.(w).Tz.Cluster.dist;
    let c = install t w in
    List.iter (fun (v, _) -> Hashtbl.replace relabel v ()) c.Tz.Cluster.dist;
    c
  in
  let rounds = level_charges regrow affected in
  (relabel, rounds)

(* ------------------------------------------------------------------ *)
(* Labels: the label rule of Tz.Graph_routing over the maintained lex rows,
   with strict pivots promoted over all k levels. *)

let label_of t y =
  Tz.Graph_routing.label_of ~k:t.k
    ~pivot:(Tz.Hierarchy.strict_pivot ~dist:t.dist ~pivots:t.srcs)
    ~tree_label:(fun w v -> Tz.Tree_routing.label t.schemes.(w) v)
    y

(* ------------------------------------------------------------------ *)
(* Full (re)build from scratch on t.g, with the same round accounting the
   incremental path uses: one BF wave per row, then per owner level the
   deepest cluster tree plus the worst overlap. *)

let rebuild t =
  let g = t.g and n = t.n and k = t.k in
  let rounds = ref 0 in
  for i = 0 to k - 1 do
    let dist = t.dist.(i) and src = t.srcs.(i) and par = t.par.(i) in
    Array.fill dist 0 n infinity;
    Array.fill src 0 n (-1);
    Array.fill par 0 n (-1);
    let cands = ref [] in
    for v = n - 1 downto 0 do
      if t.levels.(v) >= i then cands := (v, 0.0, v, -1, 0) :: !cands
    done;
    let _, whop = wave g ~admit:(fun _ -> true) ~dist ~src ~par !cands in
    rounds := !rounds + whop + 1
  done;
  Array.fill t.dist.(k) 0 n infinity;
  Array.iter Hashtbl.reset t.tables;
  let by_level = Array.make k [] in
  for w = n - 1 downto 0 do
    by_level.(t.levels.(w)) <- w :: by_level.(t.levels.(w))
  done;
  rounds := !rounds + level_charges (install t) by_level;
  for y = 0 to n - 1 do
    t.labels.(y) <- label_of t y
  done;
  !rounds

(* ------------------------------------------------------------------ *)

let create_with_levels ?(params = default_params) ~k levels g =
  if k < 1 then invalid_arg "Dyn_scheme.create_with_levels: k < 1";
  let n = Graph.n g in
  if Array.length levels <> n then
    invalid_arg "Dyn_scheme.create_with_levels: levels length";
  Array.iter
    (fun l ->
      if l < 0 || l >= k then invalid_arg "Dyn_scheme.create_with_levels: level range")
    levels;
  let scratch = Tz.Cluster.scratch n in
  let dummy =
    Tz.Cluster.of_owner_bound ~scratch g ~owner:0 ~owner_level:0 ~bound:(fun v ->
        if v = 0 then infinity else 0.0)
  in
  let dummy_scheme = Tz.Tree_routing.build dummy.Tz.Cluster.tree in
  let t =
    {
      k;
      n;
      levels = Array.copy levels;
      params;
      g;
      cur = g;
      dist = Array.init (k + 1) (fun _ -> Array.make n infinity);
      srcs = Array.init k (fun _ -> Array.make n (-1));
      par = Array.init k (fun _ -> Array.make n (-1));
      clusters = Array.make n dummy;
      scratch;
      schemes = Array.make n dummy_scheme;
      tables = Array.init n (fun _ -> Hashtbl.create 8);
      labels = Array.make n [];
      generation = 0;
      pending = [];
      build_rounds = 0;
      repair_rounds = 0;
      full_rebuilds = 0;
      events_applied = 0;
    }
  in
  t.build_rounds <- rebuild t;
  t

let create ?params ~rng ~k g =
  let n = Graph.n g in
  let h = Tz.Hierarchy.sample ~rng ~k ~n in
  create_with_levels ?params ~k (Array.init n (Tz.Hierarchy.level h)) g

(* ------------------------------------------------------------------ *)
(* One mutation, end to end. *)

let deltas pre (op : Congest.Churn.op) =
  match op with
  | Insert { u; v; w } -> ([], [ (u, v, w) ], [ u; v ])
  | Delete { u; v } -> ([ (u, v) ], [], [ u; v ])
  | Reweight { u; v; w } ->
    let ow =
      match Graph.weight pre u v with
      | Some x -> x
      | None -> invalid_arg "Dyn_scheme: reweight of a missing edge"
    in
    if w < ow then ([], [ (u, v, w) ], [ u; v ])
    else if w > ow then ([ (u, v) ], [], [ u; v ])
    else ([], [], [ u; v ])
  | Join { v; edges } ->
    ([], List.map (fun (nbr, w) -> (v, nbr, w)) edges, v :: List.map fst edges)
  | Leave { v } ->
    let rem = Graph.fold_neighbors pre v (fun acc y _ -> (v, y) :: acc) [] in
    (rem, [], v :: List.map snd rem)

let repair_one t (ev : Congest.Churn.event) =
  let pre = t.g in
  let post = Congest.Churn.apply pre ev.op in
  let removed, added, endpoints = deltas pre ev.op in
  let k = t.k in
  let vals = Array.init (k + 1) (fun _ -> Hashtbl.create 4) in
  let labs = Array.init (k + 1) (fun _ -> Hashtbl.create 4) in
  let touched = ref 0 in
  let rounds = ref 0 in
  for i = 0 to k - 1 do
    let vc, lc, tc, r = repair_level t i ~pre ~post ~removed ~added in
    vals.(i) <- vc;
    labs.(i) <- lc;
    touched := !touched + tc;
    rounds := !rounds + r
  done;
  t.g <- post;
  let affected, cdamage = affected_owners t ~pre ~post ~endpoints ~vals in
  let damage = !touched + cdamage in
  (* the row waves in [!rounds] are already paid whichever branch we take;
     only the predicted cluster-regrow cost weighs against a rebuild: the
     level charges of the flagged clusters' pre-mutation trees and old
     memberships. Depth, not size, is the honest proxy for repair rounds:
     on small-diameter graphs even a span-everything cluster regrows in a
     handful of rounds, which is exactly where the old membership-count
     trigger over-escalated. *)
  let estimate = level_charges (fun w -> t.clusters.(w)) affected in
  let flagged =
    Array.fold_left (fun n owners -> n + List.length owners) 0 affected
  in
  let baseline = max 1 t.build_rounds in
  let result =
    if float_of_int estimate > t.params.rebuild_trigger *. float_of_int baseline
    then begin
      (* Damage trigger: regrowing the flagged clusters is predicted to
         cost at least the trigger fraction of a from-scratch rebuild —
         escalate to the bounded rebuild, which is no dearer and also
         resets accumulated staleness. *)
      let r = rebuild t in
      t.full_rebuilds <- t.full_rebuilds + 1;
      {
        gen = ev.gen;
        cls = Congest.Churn.class_name ev;
        touched = damage;
        clusters_rebuilt = flagged;
        rounds = r;
        full_rebuild = true;
      }
    end
    else begin
      let relabel, crounds = recompute_clusters t affected in
      rounds := !rounds + crounds;
      for i = 0 to k - 1 do
        Hashtbl.iter (fun v () -> Hashtbl.replace relabel v ()) labs.(i)
      done;
      Hashtbl.iter (fun y () -> t.labels.(y) <- label_of t y) relabel;
      {
        gen = ev.gen;
        cls = Congest.Churn.class_name ev;
        touched = !touched;
        clusters_rebuilt = flagged;
        rounds = !rounds;
        full_rebuild = false;
      }
    end
  in
  t.repair_rounds <- t.repair_rounds + result.rounds;
  t.events_applied <- t.events_applied + 1;
  result

let quiesce t =
  let evs =
    List.sort
      (fun (a : Congest.Churn.event) (b : Congest.Churn.event) -> compare a.gen b.gen)
      (List.rev t.pending)
  in
  t.pending <- [];
  List.map (fun ev -> repair_one t ev) evs

let apply ?(defer = false) ?metrics t (ev : Congest.Churn.event) =
  (match metrics with Some m -> Congest.Churn.note m ev | None -> ());
  t.cur <- Congest.Churn.apply t.cur ev.op;
  if ev.gen > t.generation then t.generation <- ev.gen;
  t.pending <- ev :: t.pending;
  if defer then [] else quiesce t

(* ------------------------------------------------------------------ *)
(* Routing under (possibly deferred) churn. *)

let router t = Tz.Graph_routing.assemble ~k:t.k ~tables:t.tables ~labels:t.labels

let walkable g path =
  let rec ok = function
    | a :: (b :: _ as rest) -> Graph.has_edge g a b && ok rest
    | _ -> true
  in
  ok path

let route t ~src ~dst =
  let cur = t.cur in
  let pend = List.length t.pending in
  let sp = lazy (Sssp.dijkstra cur ~src) in
  let finish path source =
    let w = Sssp.path_weight cur path in
    let exact = (Lazy.force sp).Sssp.dist.(dst) in
    let stretch = if exact > 0.0 && exact < infinity then Some (w /. exact) else None in
    Ok { path; source; stretch }
  in
  let fallback () =
    match Sssp.path_to (Lazy.force sp) dst with
    | Some path -> finish path Recomputed
    | None -> Error Tz.Routing_error.Unreachable
  in
  match Tz.Graph_routing.route (router t) ~src ~dst with
  | Ok path when pend = 0 -> finish path Fresh
  | Ok path when walkable cur path -> finish path (Stale pend)
  | Ok _ -> fallback ()
  | Error e -> if pend = 0 then Error e else fallback ()

(* ------------------------------------------------------------------ *)
(* Shadow oracle: recompute every structure from scratch with the
   independent centralized reference (Sssp.dijkstra_sources rows, bound
   clusters, and a router assembled by Tz.Graph_routing.of_trees) and demand
   bit-exact agreement. Support forests are excluded — they are tie-break
   dependent and carry no routed output. *)

let check_against_shadow t =
  if t.pending <> [] then
    invalid_arg "Dyn_scheme.check_against_shadow: pending mutations (quiesce first)";
  let g = t.g and n = t.n and k = t.k in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let sd = Array.make (k + 1) [||] in
  let ss = Array.make k [||] in
  sd.(k) <- Array.make n infinity;
  for i = 0 to k - 1 do
    let srcs = ref [] in
    for v = n - 1 downto 0 do
      if t.levels.(v) >= i then srcs := v :: !srcs
    done;
    let d, s = Sssp.dijkstra_sources g ~srcs:!srcs in
    sd.(i) <- d;
    ss.(i) <- s;
    for v = 0 to n - 1 do
      if d.(v) <> t.dist.(i).(v) then
        err "level %d: d(v%d) maintained %g, shadow %g" i v t.dist.(i).(v) d.(v);
      if s.(v) <> t.srcs.(i).(v) then
        err "level %d: src(v%d) maintained %d, shadow %d" i v t.srcs.(i).(v) s.(v)
    done
  done;
  let shadow_clusters =
    let scratch = Tz.Cluster.scratch n in
    Array.init n (fun w ->
        let j = t.levels.(w) in
        Tz.Cluster.of_owner_bound ~scratch g ~owner:w ~owner_level:j ~bound:(fun v ->
            sd.(j + 1).(v)))
  in
  Array.iteri
    (fun w (c : Tz.Cluster.t) ->
      if c.Tz.Cluster.dist <> t.clusters.(w).Tz.Cluster.dist then
        err "cluster %d: member/distance list differs" w;
      if t.clusters.(w).Tz.Cluster.owner <> w then err "cluster %d: owner corrupt" w)
    shadow_clusters;
  let shadow =
    Tz.Graph_routing.of_trees ~k ~n
      ~pivot:(Tz.Hierarchy.strict_pivot ~dist:sd ~pivots:ss)
      (List.map
         (fun c -> (c.Tz.Cluster.owner, c.Tz.Cluster.tree))
         (Array.to_list shadow_clusters))
  in
  for v = 0 to n - 1 do
    let count =
      Tz.Graph_routing.fold_tables shadow v
        (fun w st count ->
          (match Hashtbl.find_opt t.tables.(v) w with
          | Some tab -> if tab <> st then err "table at v%d for owner %d differs" v w
          | None -> err "missing table at v%d for owner %d" v w);
          count + 1)
        0
    in
    if Hashtbl.length t.tables.(v) <> count then
      err "v%d holds %d cluster tables, shadow %d" v (Hashtbl.length t.tables.(v)) count
  done;
  for y = 0 to n - 1 do
    if Tz.Graph_routing.label shadow y <> t.labels.(y) then err "label of v%d differs" y
  done;
  List.rev !errs

(* ------------------------------------------------------------------ *)

let rebuild_charge t =
  let scratch = create_with_levels ~params:t.params ~k:t.k t.levels t.g in
  scratch.build_rounds

let stats t =
  {
    generation = t.generation;
    events = t.events_applied;
    pending = List.length t.pending;
    build_rounds = t.build_rounds;
    repair_rounds = t.repair_rounds;
    full_rebuilds = t.full_rebuilds;
  }

let graph t = t.g
let current t = t.cur
let k t = t.k
let levels t = Array.copy t.levels
