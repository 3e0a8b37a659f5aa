open Dgraph

(* Appendix B's exact stage, message-by-message: one [Superstep] run. The
   phase plan is the pivot phases, the cluster phases and the virtual wave,
   one segment each. Entries that improved are offered to every neighbour
   except the one they were learned from. Pivot waves are continuous
   segments: each wake-up offers what its data changed, and the engine
   closes the phase by termination detection. The virtual wave keeps the
   barrier, where a superstep performs exactly one (delta-encoded)
   Bellman-Ford iteration, and is cut at exactly [B] supersteps - its hop
   bound is definitional, not a convergence aid. Cluster waves are
   continuous when the deposit ignores the parent; otherwise they keep the
   barrier and end on quiescence, since the parent is decided by arrival.
   The same waves build the hopset hierarchy's fields in [Dist_hopset]'s
   run A. *)

let failure_to_string = Protocol.failure_to_string

type wave = Setup | Pivot of int | Cluster of int | Virtual

(* Per-source wave entry held by one vertex: current best distance, the port
   it was learned from (-1 for seeds) and whether it changed since it was
   last offered. *)
type entry = { mutable d : float; mutable port : int; mutable dirty : bool }

let waves ~levels ~pivots ~clusters ?virtual_b ~cluster_parents ~name ~detail
    ~words ~deposit ?faults ?reliable ?config ?trace ?max_rounds ?domains g =
  let n = Graph.n g in
  (* phases 0..pivots-1 are pivot levels 1..pivots, then cluster levels
     0..clusters-1, then the virtual wave if any; every phase one segment *)
  let n_phases = pivots + clusters + (if Option.is_some virtual_b then 1 else 0) in
  let wave p =
    if p < 0 then Setup
    else if p < pivots then Pivot (p + 1)
    else if p < pivots + clusters then Cluster (p - pivots)
    else Virtual
  in
  let kind = function
    | Virtual -> Superstep.Barrier (Option.get virtual_b)
    | Cluster _ when cluster_parents -> Superstep.Barrier ((2 * n) + 4)
    | Pivot _ | Cluster _ | Setup -> Superstep.Continuous
  in
  let plan =
    {
      Superstep.phases = n_phases;
      segments = (fun p -> [| kind (wave p) |]);
      kind = Fun.id;
      name = (fun p -> name (wave p));
      detail = (fun p -> detail (wave p));
    }
  in
  let vertex ctx =
    let me = Superstep.me ctx
    and neighbors = Superstep.neighbors ctx
    and weights = Superstep.weights ctx in
    let my_level = levels.(me) in
    (* ---- wave state ---- *)
    let p_dist = ref infinity and p_src = ref (-1) and p_port = ref (-1) in
    let p_dirty = ref false in
    let table : (int, entry) Hashtbl.t = Hashtbl.create 8 in
    (* the open phase, and whether it is continuous *)
    let cur = ref Setup and cont = ref false in
    (* a continuous cluster phase's dirty keys, so a wake-up offers what it
       changed without scanning the table; a barrier phase scans instead,
       in the table's order *)
    let dirty = ref [||] and n_dirty = ref 0 in
    let push key =
      if !cont then begin
        if !n_dirty = Array.length !dirty then begin
          let a = Array.make (max 8 (2 * !n_dirty)) 0 in
          Array.blit !dirty 0 a 0 !n_dirty;
          dirty := a
        end;
        !dirty.(!n_dirty) <- key;
        incr n_dirty
      end
    in
    let add key e =
      Hashtbl.add table key e;
      push key
    in
    let touch key e =
      if not e.dirty then begin
        e.dirty <- true;
        push key
      end
    in
    (* d(me, A_j) once pivot phase j closed; infinity above [pivots], so
       the top cluster levels are unbounded *)
    let my_level_dist = Array.make (max pivots clusters + 1) infinity in
    let offer ~except key dist = Superstep.enqueue_all ctx ~except (Offer { key; dist }) in
    let via port = if port < 0 then -1 else neighbors.(port) in
    (* dirty entries become offers: at a barrier snapshot, or after a
       wake-up of a continuous phase *)
    let snapshot () =
      match !cur with
      | Pivot _ ->
        if !p_dirty then begin
          p_dirty := false;
          offer ~except:!p_port !p_src !p_dist
        end
      | Cluster i when !cont ->
        for j = 0 to !n_dirty - 1 do
          let w = !dirty.(j) in
          let e = Hashtbl.find table w in
          if e.dirty then begin
            e.dirty <- false;
            if w = me || e.d < my_level_dist.(i + 1) then offer ~except:e.port w e.d
          end
        done;
        n_dirty := 0
      | Cluster i ->
        Hashtbl.iter
          (fun w e ->
            if e.dirty then begin
              e.dirty <- false;
              if w = me || e.d < my_level_dist.(i + 1) then offer ~except:e.port w e.d
            end)
          table
      | Virtual ->
        Hashtbl.iter
          (fun w e ->
            if e.dirty then begin
              e.dirty <- false;
              offer ~except:e.port w e.d
            end)
          table
      | Setup -> ()
    in
    let finalize_phase () =
      let wv = !cur in
      match wv with
      | Pivot j ->
        deposit ~me wv ~key:!p_src !p_dist ~via:(via !p_port);
        my_level_dist.(j) <- !p_dist;
        p_dist := infinity;
        p_src := -1;
        p_port := -1;
        p_dirty := false
      | Cluster _ | Virtual ->
        Hashtbl.iter (fun w e -> deposit ~me wv ~key:w e.d ~via:(via e.port)) table;
        Hashtbl.reset table
      | Setup -> ()
    in
    let seed_self () = add me { d = 0.0; port = -1; dirty = true } in
    let seed () =
      cur := wave (Superstep.phase ctx);
      cont := kind !cur = Superstep.Continuous;
      match !cur with
      | Pivot j ->
        if my_level >= j then begin
          p_dist := 0.0;
          p_src := me;
          p_port := -1;
          p_dirty := true
        end
      | Cluster i -> if my_level = i then seed_self ()
      | Virtual -> if my_level >= pivots then seed_self ()
      | Setup -> ()
    in
    let on_data port = function
      | Superstep.Offer { key; dist } -> (
        let nd = dist +. weights.(port) in
        match !cur with
        | Pivot _ ->
          (* lexicographic (dist, src): the unique order-independent
             fixpoint equals Sssp.dijkstra_sources bit-for-bit *)
          if nd < !p_dist || (nd = !p_dist && key < !p_src) then begin
            p_dist := nd;
            p_src := key;
            p_port := port;
            p_dirty := true
          end
        | Cluster _ | Virtual -> (
          match Hashtbl.find_opt table key with
          | Some e ->
            if nd < e.d then begin
              e.d <- nd;
              e.port <- port;
              touch key e
            end
          | None -> add key { d = nd; port; dirty = true })
        | Setup -> ())
      | _ -> () (* these waves send Offer only *)
    in
    let words () = words (Hashtbl.length table) in
    { Superstep.seed; seg_start = ignore; snapshot; on_data;
      finalize_seg = ignore; finalize_phase; words }
  in
  Superstep.run ~plan ~vertex ?faults ?reliable ?config ?trace ?max_rounds
    ?domains g

type outcome = {
  exact : Scheme.Exact_stage.t;
  virtual_rows : (int * (int * float) list) list;
  b : int;
  members : int list;
  report : Congest.Metrics.t;
  phase_rounds : (string * int) list;
  phase_traffic : (string * Superstep.traffic) list;
  failures : Protocol.failure list;
}

let run ~rng ~k ?b ?faults ?reliable ?config ?trace ?max_rounds ?domains g =
  if k < 2 then invalid_arg "Dist_scheme.run: k >= 2 required";
  let n = Graph.n g in
  let ih = max 1 (k / 2) in
  let b =
    match b with
    | Some b ->
      if b < 1 then invalid_arg "Dist_scheme.run: b >= 1 required";
      b
    | None -> Scheme.Exact_stage.default_b ~n ~k
  in
  (* Local sampling, pre-drawn with the exact stream Hierarchy.build uses so
     levels are bit-identical on the same seed; each vertex program closes
     over its own level only. *)
  let sampled = Tz.Hierarchy.sample ~rng ~k ~n in
  let levels = Array.init n (fun v -> Tz.Hierarchy.level sampled v) in
  let count f = Array.fold_left (fun a l -> if f l then a + 1 else a) 0 levels in
  let name = function
    | Setup -> "hierarchy sampling + BFS setup"
    | Pivot j -> Printf.sprintf "exact pivots level %d" j
    | Cluster i -> Printf.sprintf "exact clusters level %d" i
    | Virtual -> "virtual edges (B-bounded wave)"
  in
  let detail = function
    | Setup -> ""
    | Pivot j -> Printf.sprintf "|A_%d|=%d" j (count (fun l -> l >= j))
    | Cluster i -> Printf.sprintf "|owners|=%d" (count (fun l -> l = i))
    | Virtual -> Printf.sprintf "|V'|=%d b=%d" (count (fun l -> l >= ih)) b
  in
  (* ---- harvest arrays, written by vertex programs at phase ends ---- *)
  let pivot_dist =
    Array.init (ih + 1) (fun i ->
        Array.make n (if i = 0 then 0.0 else infinity))
  in
  let pivot_src =
    Array.init (ih + 1) (fun i ->
        if i = 0 then Array.init n (fun v -> v) else Array.make n (-1))
  in
  (* Cluster membership is deposited by the *member* vertex (about some
     owner w), so the accumulator is indexed by the writing vertex — each
     cell has a single writer, race-free under the domain-sharded scheduler
     — and regrouped by owner after the run. Entries: (owner, d, via). *)
  let cluster_local : (int * float * int) list array = Array.make n [] in
  let virtual_acc : (int * float) list array = Array.make n [] in
  let deposit ~me wave ~key d ~via =
    match wave with
    | Pivot j ->
      pivot_dist.(j).(me) <- d;
      pivot_src.(j).(me) <- key
    | Cluster i ->
      (* Claim 8: me is in C(key) iff d(key, me) < d(me, A_{i+1}) *)
      if d < pivot_dist.(i + 1).(me) then
        cluster_local.(me) <- (key, d, via) :: cluster_local.(me)
    | Virtual ->
      if levels.(me) >= ih && key <> me then
        virtual_acc.(me) <- (key, d) :: virtual_acc.(me)
    | Setup -> ()
  in
  let r =
    waves ~levels ~pivots:ih ~clusters:ih ~virtual_b:b ~cluster_parents:true
      ~name ~detail
      ~words:(fun entries -> 14 + (ih + 2) + 3 + (4 * entries))
      ~deposit ?faults ?reliable ?config ?trace ?max_rounds ?domains g
  in
  let post = ref [] in
  let fail v s = post := Protocol.Harvest { vertex = v; reason = s } :: !post in
  (* ---- harvest: per-vertex state -> the Exact_stage interchange record ---- *)
  (* regroup the members' cluster deposits by owner *)
  let cluster_by_owner : (int * float * int) list array = Array.make n [] in
  Array.iteri
    (fun v entries ->
      List.iter
        (fun (w, d, via) -> cluster_by_owner.(w) <- (v, d, via) :: cluster_by_owner.(w))
        entries)
    cluster_local;
  let clusters = ref [] in
  if r.Superstep.failures = [] then
    for i = ih - 1 downto 0 do
      for w = n - 1 downto 0 do
        if levels.(w) = i then begin
          let entries =
            List.sort
              (fun (a, _, _) (b, _, _) -> compare a b)
              cluster_by_owner.(w)
          in
          (* the owner roots the tree; every other member hangs off the
             neighbour it learned the owner from *)
          let tree_members =
            List.filter_map
              (fun (v, _, p) ->
                if v = w then None
                else
                  match Graph.weight g v p with
                  | Some wt -> Some (v, p, wt)
                  | None ->
                    fail w (Printf.sprintf "cluster parent %d not adjacent to %d" p v);
                    None)
              entries
          in
          match Tree.of_members ~root:w ((w, -1, 0.0) :: tree_members) with
          | tree ->
            clusters :=
              {
                Tz.Cluster.owner = w;
                owner_level = i;
                tree;
                dist = List.map (fun (v, d, _) -> (v, d)) entries;
              }
              :: !clusters
          | exception Invalid_argument m ->
            fail w (Printf.sprintf "cluster tree rejected: %s" m)
        end
      done
    done;
  let exact =
    {
      Scheme.Exact_stage.k;
      ih;
      levels;
      dist = pivot_dist;
      pivots = pivot_src;
      clusters = !clusters;
      phases = { Cost.phases = List.rev r.Superstep.phases };
    }
  in
  let members = ref [] in
  for v = n - 1 downto 0 do
    if levels.(v) >= ih then members := v :: !members
  done;
  let virtual_rows =
    List.map
      (fun v ->
        (v, List.sort (fun (a, _) (b, _) -> compare a b) virtual_acc.(v)))
      !members
  in
  {
    exact;
    virtual_rows;
    b;
    members = !members;
    report = r.Superstep.metrics;
    phase_rounds = List.map (fun (p : Cost.phase) -> (p.Cost.name, p.Cost.rounds)) r.Superstep.phases;
    phase_traffic = r.Superstep.traffic;
    failures = r.Superstep.failures @ List.rev !post;
  }

type gate_mode = Exact | Sampled of { sample : int; seed : int }

let gate_threshold = 20_000

let auto_gate_mode n =
  if n <= gate_threshold then Exact else Sampled { sample = 256; seed = 0x5eed }

let gate_mode_name = function
  | Exact -> "exact"
  | Sampled { sample; seed } ->
    Printf.sprintf "sampled(sample=%d,seed=%d)" sample seed

let gate_indices mode ~salt total =
  match mode with
  | Sampled { sample; seed } when sample < total ->
    (* the first [sample] slots of a seeded Fisher–Yates shuffle *)
    let srng = Random.State.make (salt seed) in
    let idx = Array.init total Fun.id in
    for i = total - 1 downto 1 do
      let j = Random.State.int srng (i + 1) in
      let t = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- t
    done;
    Array.sub idx 0 sample |> Array.to_list |> List.sort compare
  | Exact | Sampled _ -> List.init total Fun.id

let check_against_centralized ~rng ?(mode = Exact) g (o : outcome) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n = Graph.n g in
  let ex = o.exact in
  let k = ex.Scheme.Exact_stage.k and ih = ex.Scheme.Exact_stage.ih in
  let levels = ex.Scheme.Exact_stage.levels in
  (* levels: always exact — one pass over the pre-drawn sampling stream *)
  let h = Tz.Hierarchy.sample ~rng ~k ~n in
  for v = 0 to n - 1 do
    if Tz.Hierarchy.level h v <> levels.(v) then
      err "level of v%d: distributed %d, centralized %d" v levels.(v)
        (Tz.Hierarchy.level h v)
  done;
  (* per-level distances and raw pivot attributions: always exact — one lex
     multi-source Dijkstra per level is cheap even where recomputing all n
     bounded cluster waves is not *)
  let cdist, cpivots = Scheme.Exact_stage.distances g ~k ~levels in
  for i = 0 to ih do
    for v = 0 to n - 1 do
      if cdist.(i).(v) <> ex.Scheme.Exact_stage.dist.(i).(v) then
        err "d(v%d, A_%d): distributed %h, centralized %h" v i
          ex.Scheme.Exact_stage.dist.(i).(v) cdist.(i).(v);
      if cpivots.(i).(v) <> ex.Scheme.Exact_stage.pivots.(i).(v) then
        err "pivot_%d(v%d): distributed %d, centralized %d" i v
          ex.Scheme.Exact_stage.pivots.(i).(v) cpivots.(i).(v)
    done
  done;
  (* registration order (level ascending, owner ascending) follows from
     levels alone, so the full owner sequence is always checked exactly;
     the bounded wave behind each member/distance list is the per-cluster
     blocker worth sampling *)
  let expected_owners = ref [] in
  for i = ih - 1 downto 0 do
    for w = n - 1 downto 0 do
      if levels.(w) = i then expected_owners := (i, w) :: !expected_owners
    done
  done;
  let dd = Array.of_list ex.Scheme.Exact_stage.clusters in
  let expected = Array.of_list !expected_owners in
  if Array.length dd <> Array.length expected then
    err "cluster count: distributed %d, centralized %d" (Array.length dd)
      (Array.length expected)
  else begin
    Array.iteri
      (fun ci (_, w) ->
        if dd.(ci).Tz.Cluster.owner <> w then
          err "cluster order: distributed owner %d, centralized %d"
            dd.(ci).Tz.Cluster.owner w)
      expected;
    let scratch = Tz.Cluster.scratch n in
    List.iter
      (fun ci ->
        let i, w = expected.(ci) in
        if dd.(ci).Tz.Cluster.owner = w then begin
          let cc =
            Tz.Cluster.of_owner_bound ~scratch g ~owner:w ~owner_level:i
              ~bound:(fun v -> cdist.(i + 1).(v))
          in
          let sorted =
            List.sort (fun (a, _) (b, _) -> compare a b) cc.Tz.Cluster.dist
          in
          if dd.(ci).Tz.Cluster.dist <> sorted then
            err "cluster of %d: member/distance lists differ" w
        end)
      (gate_indices mode
         ~salt:(fun seed -> [| seed; n; k |])
         (Array.length expected))
  end;
  (* member set A_ih follows from levels — always checked exactly *)
  let expected_members = ref [] in
  for v = n - 1 downto 0 do
    if levels.(v) >= ih then expected_members := v :: !expected_members
  done;
  if o.members <> !expected_members then
    err "virtual member set: distributed %d members, centralized %d"
      (List.length o.members)
      (List.length !expected_members);
  let vg = Hopsets.Virtual_graph.make g ~members:o.members ~b:o.b in
  let row v' = List.assoc v' o.virtual_rows in
  (* each [edges_from] is a B-hop Bellman–Ford over the host graph — the
     other per-member blocker worth sampling *)
  let check_virtual_row u' =
    let ef = Hopsets.Virtual_graph.edges_from vg u' in
    let col =
      List.filter_map
        (fun v' ->
          if v' = u' then None
          else
            match List.assoc_opt u' (row v') with
            | Some d -> Some (v', d)
            | None -> None)
        o.members
    in
    if col <> ef then
      err "virtual row of %d: wave deposits differ from edges_from" u'
  in
  let ms = Array.of_list o.members in
  List.iter
    (fun i -> check_virtual_row ms.(i))
    (gate_indices mode
       ~salt:(fun seed -> [| seed + 1; n; k |])
       (Array.length ms));
  List.rev !errs

let build_scheme ~rng g (o : outcome) =
  (match o.failures with
  | [] -> ()
  | f :: _ ->
    invalid_arg ("Dist_scheme.build_scheme: exact stage failed: " ^ failure_to_string f));
  let params = { Scheme.Params.default with b = Some o.b } in
  let upper = Scheme.Upper_stage.compute ~rng ~params ~exact:o.exact g in
  Scheme.build_from_exact ~exact:o.exact ~upper g
