open Dgraph
open Hopsets

module Params = struct
  type t = {
    epsilon : float;
    lambda : int;
    beta : int option;
    b : int option;
  }

  let default = { epsilon = 0.05; lambda = 3; beta = None; b = None }

  let pp ppf p =
    let pp_opt ppf = function
      | None -> Format.pp_print_string ppf "auto"
      | Some v -> Format.pp_print_int ppf v
    in
    Format.fprintf ppf "epsilon=%g lambda=%d beta=%a b=%a" p.epsilon p.lambda
      pp_opt p.beta pp_opt p.b
end

(* The exact stage of Appendix B (everything below level ⌈k/2⌉ plus the raw
   pivot attributions), as a standalone value. [compute] is the centralized
   reference; [Dist_scheme] produces the same record by running the stage
   message-by-message on the simulator, with *measured* phases in [phases].
   [build_from_exact] consumes either one identically. *)
module Exact_stage = struct
  type t = {
    k : int;
    ih : int;  (** [max 1 (k/2)] — first level handled by the upper half *)
    levels : int array;
    dist : float array array;  (** [dist.(i).(v) = d(v, A_i)], [0 ≤ i ≤ ih] *)
    pivots : int array array;
        (** raw lex attributions per level [0..ih] (no strict promotion;
            [-1] = unreachable): the smallest-id member of [A_i] among those
            nearest to [v] *)
    clusters : Tz.Cluster.t list;
        (** exact clusters of levels [0..ih-1], in registration order (level
            ascending, owner ascending); member lists sorted by vertex id *)
    phases : Cost.t;  (** charged (centralized) or measured (distributed) *)
  }

  let claim8_depth ~n ~k i =
    let nf = float_of_int n in
    min n
      (int_of_float
         (ceil (4.0 *. (nf ** (float_of_int (i + 1) /. float_of_int k)) *. log nf)))

  let default_b ~n ~k =
    let nf = float_of_int n and ih = max 1 (k / 2) in
    min (max 1 (n - 1))
      (int_of_float
         (ceil (4.0 *. (nf ** (float_of_int ih /. float_of_int k)) *. log nf)))

  (* The cheap half of [compute]: one lex multi-source Dijkstra per level.
     Exposed separately so the sampled differential gate can verify every
     per-level distance/pivot exactly while only spot-checking the clusters
     (whose bounded waves are the O(n · Dijkstra) part). *)
  let distances g ~k ~levels =
    if k < 2 then invalid_arg "Scheme.Exact_stage.distances: k >= 2 required";
    let n = Graph.n g in
    if Array.length levels <> n then
      invalid_arg "Scheme.Exact_stage.distances: levels length <> n";
    let ih = max 1 (k / 2) in
    let dist = Array.make (ih + 1) [||] and pivots = Array.make (ih + 1) [||] in
    for i = 0 to ih do
      let srcs = ref [] in
      for v = n - 1 downto 0 do
        if levels.(v) >= i then srcs := v :: !srcs
      done;
      let d, s = Sssp.dijkstra_sources g ~srcs:!srcs in
      dist.(i) <- d;
      pivots.(i) <- s
    done;
    (dist, pivots)

  let compute g ~k ~levels =
    if k < 2 then invalid_arg "Scheme.Exact_stage.compute: k >= 2 required";
    let n = Graph.n g in
    if Array.length levels <> n then
      invalid_arg "Scheme.Exact_stage.compute: levels length <> n";
    let ih = max 1 (k / 2) in
    let dist, pivots = distances g ~k ~levels in
    let clusters = ref [] and phases = ref Cost.empty in
    let scratch = Tz.Cluster.scratch n in
    for i = 0 to ih - 1 do
      let owners = ref [] in
      for w = n - 1 downto 0 do
        if levels.(w) = i then owners := w :: !owners
      done;
      let level_membership = Array.make n 0 in
      List.iter
        (fun w ->
          let c =
            Tz.Cluster.of_owner_bound ~scratch g ~owner:w ~owner_level:i
              ~bound:(fun v -> dist.(i + 1).(v))
          in
          let c =
            {
              c with
              Tz.Cluster.dist =
                List.sort (fun (a, _) (b, _) -> compare a b) c.Tz.Cluster.dist;
            }
          in
          List.iter
            (fun (v, _) -> level_membership.(v) <- level_membership.(v) + 1)
            c.Tz.Cluster.dist;
          clusters := c :: !clusters)
        !owners;
      let congestion = Array.fold_left max 0 level_membership in
      let depth = claim8_depth ~n ~k i in
      phases :=
        Cost.add !phases
          ~detail:(Printf.sprintf "|owners|=%d" (List.length !owners))
          ~name:(Printf.sprintf "exact clusters level %d" i)
          ~rounds:(depth + congestion) ~peak_memory:(2 * congestion)
    done;
    {
      k;
      ih;
      levels = Array.copy levels;
      dist;
      pivots;
      clusters = List.rev !clusters;
      phases = !phases;
    }
end

(* The upper half of Appendix B as data: the hopset, approximate pivot
   estimates and per-owner cluster waves with their pruned trees, plus the
   phases of whatever computed them. [compute] is the centralized reference,
   charging the paper's formulas; [Dist_hopset] harvests the same record
   from its protocol runs, with measured spans. [build_from_exact] reads
   either one the same way. *)
module Upper_stage = struct
  type cluster_wave = {
    owner : int;
    level : int;
    cdist : float array;
    cparent : int array;
    joined : bool array;
    tree : Tree.t;
  }

  type t = {
    hopset : Hopset.t;
    epsilon : float;
    beta : int;
    pivot_estimates : (int * (float array * int array)) list;
    cluster_waves : cluster_wave list;
    phases : Cost.t;
  }

  let pivot_estimate hopset ~beta ~levels j =
    let n = Array.length levels in
    let srcs = ref [] in
    for v = n - 1 downto 0 do
      if levels.(v) >= j then srcs := (v, 0.0) :: !srcs
    done;
    let dist, _, origin = Hopset.run hopset ~sources:!srcs ~beta in
    (dist, origin)

  let limits ~n pivot_estimates i =
    match List.assoc_opt (i + 1) pivot_estimates with
    | Some (d, _) -> d
    | None -> Array.make n infinity

  (* The members are the owner, the vertices path recovery joined and those
     whose candidate lies under the host limit. A member keeps its
     candidate parent if that is a member too; candidates follow strictly
     decreasing distances toward the owner, so the parent map is acyclic,
     and a member whose parent chain breaks (numeric corner cases) is
     dropped. *)
  let of_candidates ~epsilon ~limits g ~level ~owner ~cdist ~cparent ~joined =
    let n = Graph.n g in
    let one_eps = 1.0 +. epsilon in
    let member v =
      v = owner
      || (cdist.(v) < infinity && (joined.(v) || cdist.(v) *. one_eps < limits.(v)))
    in
    let par = Array.make n (-2) and wpar = Array.make n 0.0 in
    par.(owner) <- -1;
    for v = 0 to n - 1 do
      let p = cparent.(v) in
      if v <> owner && member v && p >= 0 && member p then
        match Graph.weight g v p with
        | Some wt ->
          par.(v) <- p;
          wpar.(v) <- wt
        | None -> () (* should not happen: parents are graph neighbours *)
    done;
    let ok = Array.make n false in
    ok.(owner) <- true;
    let rec check v =
      if ok.(v) then true
      else if par.(v) < 0 then v = owner
      else if check par.(v) then begin
        ok.(v) <- true;
        true
      end
      else false
    in
    for v = 0 to n - 1 do
      if par.(v) <> -2 && not (check v) then par.(v) <- -2
    done;
    let tree = Tree.of_parents ~root:owner ~parent:par ~wparent:wpar in
    { owner; level; cdist; cparent; joined; tree }

  (* One high-level owner's approximate cluster candidates: the limited
     exploration in G' ∪ H, path recovery along used hopset edges, and the
     final B-bounded wave. Path recovery is order-free: every walk reads the
     same pre-recovery snapshot and proposals commit per vertex by lex-min
     (acc, prev) — so concurrent walk messages in the distributed build
     reproduce it bit-for-bit. *)
  let wave ~hopset ~epsilon ~beta ~limits g ~level ~owner:w =
    let n = Graph.n g in
    let one_eps = 1.0 +. epsilon in
    let keep_host u d = d *. one_eps < limits.(u) in
    let keep_virtual u d = d *. one_eps *. one_eps < limits.(u) in
    let dist, prov, _ =
      Hopset.run ~keep_host ~keep_virtual hopset ~sources:[ (w, 0.0) ] ~beta
    in
    (* candidate (dist, parent) per vertex *)
    let cdist = Array.copy dist in
    let cparent = Array.make n (-1) in
    let joined_by_path = Array.make n false in
    Array.iteri
      (fun v p ->
        match p with
        | Hopset.Via_host parent -> cparent.(v) <- parent
        | Hopset.Via_hopset _ | Hopset.Source | Hopset.Unreached -> ())
      prov;
    (* path recovery on used hopset edges, reading the estimates [dist]
       from before it *)
    let prop_acc = Array.make n infinity and prop_prev = Array.make n max_int in
    let edges = Hopset.edges hopset in
    Array.iteri
      (fun v p ->
        match p with
        (* Path recovery applies only to hopset edges of the *tree*: the
           fed endpoint must itself satisfy the virtual limit (the
           premise of Claim 9's second case). *)
        | Hopset.Via_hopset ei
          when dist.(v) < infinity && dist.(v) *. one_eps *. one_eps < limits.(v)
          ->
          let e = edges.(ei) in
          let path = e.Hopset.path in
          let len = Array.length path in
          (* direction: which endpoint fed v *)
          (* the feeder is the other endpoint; orient the path feeder->v *)
          let ordered =
            if v = e.Hopset.y then path
            else Array.init len (fun idx -> path.(len - 1 - idx))
          in
          let acc = ref dist.(ordered.(0)) in
          for idx = 1 to len - 1 do
            let u = ordered.(idx) and prev = ordered.(idx - 1) in
            (match Graph.weight g prev u with
            | Some wt -> acc := !acc +. wt
            | None -> ());
            (* <=: the endpoint's candidate ties its recorded estimate
               and must still acquire a parent on the path *)
            (* tolerance: the per-edge sum can differ from the stored
               edge weight in the last floating-point bits *)
            if !acc <= dist.(u) +. (1e-9 *. (1.0 +. abs_float dist.(u)))
               && (!acc, prev) < (prop_acc.(u), prop_prev.(u))
            then begin
              prop_acc.(u) <- !acc;
              prop_prev.(u) <- prev
            end
          done
        | _ -> ())
      prov;
    for u = 0 to n - 1 do
      if prop_acc.(u) < infinity then begin
        cdist.(u) <- Float.min prop_acc.(u) dist.(u);
        cparent.(u) <- prop_prev.(u);
        joined_by_path.(u) <- true
      end
    done;
    (* final B-bounded limited wave from all current candidates *)
    let wparent = Array.make n (-1) in
    Virtual_graph.bf_iteration (Hopset.virtual_graph hopset)
      ~keep_going:(fun u d -> u = w || keep_host u d)
      ~dist:cdist ~parent:wparent ();
    for v = 0 to n - 1 do
      if wparent.(v) >= 0 then begin
        cparent.(v) <- wparent.(v);
        joined_by_path.(v) <- false
      end
    done;
    of_candidates ~epsilon ~limits g ~level ~owner:w ~cdist ~cparent
      ~joined:joined_by_path

  let compute ~rng ?(params = Params.default) ~(exact : Exact_stage.t) g =
    let k = exact.Exact_stage.k and ih = exact.Exact_stage.ih in
    let levels = exact.Exact_stage.levels in
    let n = Graph.n g in
    let epsilon = params.Params.epsilon and lambda = params.Params.lambda in
    let beta =
      match params.Params.beta with Some b -> b | None -> max 8 (2 * lambda)
    in
    let b =
      match params.Params.b with
      | Some b ->
        if b < 1 then invalid_arg "Scheme.build: b >= 1 required";
        b
      | None -> Exact_stage.default_b ~n ~k
    in
    let d_est = Diameter.hop_diameter_estimate g in
    let phases = ref Cost.empty in
    let charge ?(detail = "") name rounds mem =
      phases := Cost.add !phases ~detail ~name ~rounds ~peak_memory:mem
    in
    (* ---- virtual graph and hopset ---- *)
    let members = ref [] in
    for v = n - 1 downto 0 do
      if levels.(v) >= ih then members := v :: !members
    done;
    let vg = Virtual_graph.make g ~members:!members ~b in
    let m = Virtual_graph.size vg in
    let hopset = Construct.tz_hopset ~rng ~lambda vg in
    let alpha = Hopset.max_out_degree hopset in
    charge
      ~detail:(Printf.sprintf "m=%d |H|=%d alpha=%d" m (Hopset.size hopset) alpha)
      "hopset"
      (lambda * ((m * alpha) + b + d_est))
      (3 * alpha);
    (* ---- approximate pivot distances for high levels ---- *)
    let pivot_estimates = ref [] in
    for j = ih + 1 to k - 1 do
      if Array.exists (fun l -> l >= j) levels then
        charge
          (Printf.sprintf "approx pivots level %d" j)
          (beta * ((m * alpha) + b + d_est))
          (3 + alpha);
      pivot_estimates := (j, pivot_estimate hopset ~beta ~levels j) :: !pivot_estimates
    done;
    (* ---- approximate clusters for high levels ---- *)
    let waves = ref [] in
    for i = ih to k - 1 do
      let limits = limits ~n !pivot_estimates i in
      let owners = ref 0 and level_membership = Array.make n 0 in
      for w = 0 to n - 1 do
        if levels.(w) = i then begin
          let cw = wave ~hopset ~epsilon ~beta ~limits g ~level:i ~owner:w in
          List.iter
            (fun v -> level_membership.(v) <- level_membership.(v) + 1)
            (Tree.vertices cw.tree);
          incr owners;
          waves := cw :: !waves
        end
      done;
      let congestion = max 1 (Array.fold_left max 0 level_membership) in
      charge
        ~detail:(Printf.sprintf "|owners|=%d" !owners)
        (Printf.sprintf "approx clusters level %d" i)
        (beta * ((((m * alpha) + b) * congestion / max 1 m) + b + d_est))
        (2 * congestion)
    done;
    {
      hopset;
      epsilon;
      beta;
      pivot_estimates = !pivot_estimates;
      cluster_waves = List.rev !waves;
      phases = !phases;
    }
end

type t = {
  k : int;
  router : Tz.Graph_routing.t;
  cost : Cost.t;
  hierarchy : Tz.Hierarchy.t;
  upper : Upper_stage.t;
  cluster_trees_high : (int * Tree.t) list;
  peak_memory : int;
  avg_memory : float;
  per_vertex_memory : int array;
}

let k t = t.k
let router t = t.router
let cost t = t.cost
let hierarchy t = t.hierarchy
let virtual_graph t = Hopset.virtual_graph t.upper.Upper_stage.hopset
let virtual_size t = Virtual_graph.size (virtual_graph t)
let b_bound t = Virtual_graph.b (virtual_graph t)
let beta t = t.upper.Upper_stage.beta
let epsilon t = t.upper.Upper_stage.epsilon
let hopset_size t = Hopset.size t.upper.Upper_stage.hopset
let hopset_max_store t = Hopset.max_out_degree t.upper.Upper_stage.hopset
let approx_cluster_trees t = t.cluster_trees_high
let pivot_estimate t ~level = List.assoc_opt level t.upper.Upper_stage.pivot_estimates
let route t ~src ~dst = Tz.Graph_routing.route t.router ~src ~dst
let route_weight g t ~src ~dst = Tz.Graph_routing.route_weight g t.router ~src ~dst
let max_table_words t = Tz.Graph_routing.max_table_words t.router
let max_label_words t = Tz.Graph_routing.max_label_words t.router
let peak_memory_words t = t.peak_memory
let avg_memory_words t = t.avg_memory
let per_vertex_memory t = Array.copy t.per_vertex_memory

let build_from_exact ?trace ?hierarchy ~(exact : Exact_stage.t)
    ~(upper : Upper_stage.t) g =
  let k = exact.Exact_stage.k in
  if k < 2 then invalid_arg "Scheme.build_from_exact: k >= 2 required";
  let n = Graph.n g in
  let levels = exact.Exact_stage.levels in
  if Array.length levels <> n then
    invalid_arg "Scheme.build_from_exact: exact stage is for a different graph";
  let nf = float_of_int n in
  let d_est = Diameter.hop_diameter_estimate g in
  let hierarchy =
    match hierarchy with
    | Some h -> h
    | None -> Tz.Hierarchy.of_levels ~k levels
  in
  let ih = exact.Exact_stage.ih in
  let hopset = upper.Upper_stage.hopset in
  let cost = ref Cost.empty in
  (* cumulative charged rounds — the trace clock for this construction, so
     the closed spans it emits partition [0, Cost.total_rounds) exactly like
     the cost phases do *)
  let cum = ref 0 in
  (match trace with
  | None -> ()
  | Some tr ->
    Congest.Trace.bind tr ~clock:(fun () -> !cum) ~counters:(fun () -> (0, 0)));
  let charge ?(detail = "") name rounds mem =
    cost := Cost.add !cost ~detail ~name ~rounds ~peak_memory:mem;
    (match trace with
    | None -> ()
    | Some tr ->
      Congest.Trace.add_closed_span tr ~detail ~phase:true ~peak_memory:mem
        ~name ~start_round:!cum ~end_round:(!cum + rounds) ());
    cum := !cum + rounds
  in
  (* ---- both stages' phases, charged or measured, in time order ---- *)
  List.iter
    (fun (ph : Cost.phase) ->
      charge ~detail:ph.Cost.detail ph.Cost.name ph.Cost.rounds ph.Cost.peak_memory)
    (Cost.phases exact.Exact_stage.phases @ Cost.phases upper.Upper_stage.phases);
  (* ---- the upper stage's approximate pivots and cluster trees ---- *)
  let approx_pivots =
    Array.init k (fun j ->
        if j <= ih then [||]
        else
          match List.assoc_opt j upper.Upper_stage.pivot_estimates with
          | Some (_, origin) -> origin
          | None ->
            invalid_arg
              (Printf.sprintf
                 "Scheme.build_from_exact: upper stage lacks pivot estimates \
                  for level %d" j))
  in
  let cluster_trees_high = ref [] in
  for i = ih to k - 1 do
    for w = 0 to n - 1 do
      if levels.(w) = i then
        match
          List.find_opt
            (fun (cw : Upper_stage.cluster_wave) ->
              cw.Upper_stage.owner = w && cw.Upper_stage.level = i)
            upper.Upper_stage.cluster_waves
        with
        | Some cw -> cluster_trees_high := (w, cw.Upper_stage.tree) :: !cluster_trees_high
        | None ->
          invalid_arg
            (Printf.sprintf
               "Scheme.build_from_exact: upper stage lacks the cluster wave of \
                owner %d (level %d)" w i)
    done
  done;
  (* ---- router: the exact clusters, then the approximate ones ---- *)
  (* Strict promotion runs over the exact levels only: the distributed stage
     has no exact distances above ih, and a tie at the boundary only drops a
     label entry whose next-level twin is equally good. Above ih the
     approximate pivot is taken as is. *)
  let pivot j y =
    if j <= ih then
      Tz.Hierarchy.strict_pivot ~dist:exact.Exact_stage.dist
        ~pivots:exact.Exact_stage.pivots j y
    else approx_pivots.(j).(y)
  in
  let router =
    Tz.Graph_routing.of_trees ~k ~n ~pivot
      (List.map
         (fun c -> (c.Tz.Cluster.owner, c.Tz.Cluster.tree))
         exact.Exact_stage.clusters
      @ List.rev !cluster_trees_high)
  in
  let membership =
    Array.init n (fun v ->
        Tz.Graph_routing.fold_tables router v (fun _ _ c -> c + 1) 0)
  in
  (* tree-routing construction charge: Theorem 2 multi-tree form *)
  let s_max = max 1 (Array.fold_left max 0 membership) in
  charge
    ~detail:(Printf.sprintf "s=%d" s_max)
    "tree routing schemes"
    (int_of_float (ceil (sqrt (float_of_int (s_max * n)) *. log nf)) + d_est)
    (s_max * 2);
  (* ---- final memory audit ---- *)
  let words = Array.make n 0 in
  for v = 0 to n - 1 do
    words.(v) <-
      Tz.Graph_routing.table_words router v
      + Tz.Graph_routing.label_words router v
      + (3 * List.length (Hopset.out_edges hopset v))
      + k
      + (2 * membership.(v))
  done;
  let peak_final = Array.fold_left max 0 words in
  let avg = float_of_int (Array.fold_left ( + ) 0 words) /. nf in
  let peak = max peak_final (Cost.peak_memory !cost) in
  charge "final state (tables+labels+hopset)" 0 peak_final;
  {
    k;
    router;
    cost = !cost;
    hierarchy;
    upper;
    cluster_trees_high = !cluster_trees_high;
    peak_memory = peak;
    avg_memory = avg;
    per_vertex_memory = words;
  }

let build ~rng ~k ?(params = Params.default) ?trace g =
  if k < 2 then invalid_arg "Scheme.build: k >= 2 required";
  (* [Hierarchy.build] consumes exactly the sampling draws, so [rng] reaches
     the hopset construction in the same state as before the refactor; the
     exact stage recomputes the low-half distances deterministically. *)
  let hierarchy = Tz.Hierarchy.build ~rng ~k g in
  let levels =
    Array.init (Graph.n g) (fun v -> Tz.Hierarchy.level hierarchy v)
  in
  let exact = Exact_stage.compute g ~k ~levels in
  let upper = Upper_stage.compute ~rng ~params ~exact g in
  build_from_exact ?trace ~hierarchy ~exact ~upper g
