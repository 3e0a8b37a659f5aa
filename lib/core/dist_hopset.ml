open Dgraph
open Hopsets

(* Appendix B's upper stage, message-by-message: run A (the hopset
   construction waves, which are the exact stage's own pivot and cluster
   waves run on the hopset hierarchy) and run B (approximate Bellman-Ford
   over G' ∪ H, a phase plan plus per-vertex hooks here) are two
   [Superstep] runs. The protocol and its exactness argument are in
   dist_hopset.mli and DESIGN.md §15. *)

(* shared fault-flag table with the exact-stage protocol *)
type failure = Dist_scheme.failure =
  | Setup_timeout of { vertex : int; round : int }
  | Stalled of { vertex : int; round : int; phase : string; superstep : int }
  | Link_lost of { vertex : int; neighbor : int; reason : string }
  | Harvest of { vertex : int; reason : string }
  | Transport of string

let failure_to_string = Dist_scheme.failure_to_string
let pp_failure = Dist_scheme.pp_failure

type outcome = {
  upper : Scheme.Upper_stage.t option;
  fields : Construct.fields;
  hopset : Hopset.t option;
  lambda : int;
  b : int;
  members : int list;
  xlevels : int array;
  k : int;
  ih : int;
  report : Congest.Metrics.t;
  phase_rounds : (string * int) list;
  failures : failure list;
}

(* One wave entry of run B's keyed table: current best value, the port it
   was learned from (-1 for seeds and relay commits), the attributed
   origin, the superstep id of the last commit (for the stamped
   tie-break), which hopset edge fed the value (-1 = host wave), and the
   recovery-join flag. *)
type entry = {
  mutable d : float;
  mutable port : int;
  mutable origin : int;
  mutable stamp : int;
  mutable via_edge : int;
  mutable via_dir : int;
  mutable joined : bool;
  mutable dirty : bool;
}

(* a fresh entry, dirty so the next snapshot offers it *)
let fresh_entry d ~port ~origin ~stamp =
  { d; port; origin; stamp; via_edge = -1; via_dir = 0; joined = false; dirty = true }

type seg_kind = KWave | KRelay | KRecover | KFinal

type env = {
  ak : int;
  aih : int;
  abeta : int;
  one_eps : float;
  xlv : int array;  (* exact hierarchy level per host vertex *)
  inc : (int * int * float) list array;  (* vertex -> (edge, dir, weight) *)
  succ : (int, int) Hashtbl.t array;  (* vertex -> (2*edge + dir) -> next *)
}

type phase_kind = APivot of int | ACluster of int

let phase_kind a p =
  let np = a.ak - 1 - a.aih in
  if p < np then APivot (a.aih + 1 + p) else ACluster (a.aih + (p - np))

(* Run B's phases are [beta] pairs of a [B]-budget wave and a relay
   segment, cluster phases then a recovery segment and a final [B]-budget
   wave. *)
let plan a ~cap ~b =
  let count f = Array.fold_left (fun acc x -> if f x then acc + 1 else acc) 0 a.xlv in
  let pairs () = Array.init (2 * a.abeta) (fun s -> if s land 1 = 0 then KWave else KRelay) in
  {
    Superstep.phases = (a.ak - 1 - a.aih) + (a.ak - a.aih);
    segments =
      (fun p ->
        match phase_kind a p with
        | APivot _ -> pairs ()
        | ACluster _ -> Array.append (pairs ()) [| KRecover; KFinal |]);
    budget = (function KRelay | KRecover -> cap | KWave | KFinal -> b);
    name =
      (fun p ->
        if p < 0 then "approx setup (BFS)"
        else
          match phase_kind a p with
          | APivot j -> Printf.sprintf "approx pivots level %d" j
          | ACluster i -> Printf.sprintf "approx clusters level %d" i);
    detail =
      (fun p ->
        if p < 0 then ""
        else
          match phase_kind a p with
          | APivot j -> Printf.sprintf "|A_%d|=%d" j (count (fun l -> l >= j))
          | ACluster i -> Printf.sprintf "|owners|=%d" (count (fun l -> l = i)));
  }

let run ~rng ?(params = Scheme.Params.default) ?faults ?reliable ?max_rounds
    ?domains g (ds : Dist_scheme.outcome) =
  let n = Graph.n g in
  let exact = ds.Dist_scheme.exact in
  let k = exact.Scheme.Exact_stage.k in
  let ih = exact.Scheme.Exact_stage.ih in
  let xlevels = exact.Scheme.Exact_stage.levels in
  let lambda = params.Scheme.Params.lambda in
  if lambda < 2 then invalid_arg "Dist_hopset.run: lambda >= 2 required";
  let beta =
    match params.Scheme.Params.beta with Some b -> b | None -> max 8 (2 * lambda)
  in
  let epsilon = params.Scheme.Params.epsilon in
  let b = ds.Dist_scheme.b in
  let members = ds.Dist_scheme.members in
  let vg = Virtual_graph.make g ~members ~b in
  let mv = Virtual_graph.members vg in
  let m = Array.length mv in
  (* level pre-draw: the exact stream Construct.tz_hopset consumes, so the
     hopset hierarchy is bit-identical on an identically positioned state *)
  let hlevels = Construct.sample_levels ~rng ~lambda ~m in
  let hlv = Array.make n (-1) in
  Array.iteri (fun j v -> hlv.(v) <- hlevels.(j)) mv;
  let cap = (2 * n) + 4 in
  (* every failure of both runs and their harvests, newest first *)
  let post : failure list ref = ref [] in
  let gathered_failures () = List.rev !post in
  let all_phases : Cost.phase list ref = ref [] in
  let record (r : Superstep.result) =
    post := List.rev_append r.Superstep.failures !post;
    all_phases := !all_phases @ r.Superstep.phases;
    r.Superstep.metrics
  in

  (* ---- run A: the exact stage's pivot and cluster waves on the hopset
     hierarchy (hopset levels 1..lambda-1, then bunches 0..lambda-1, the
     top one unbounded), then the shared field-to-edge step ---- *)
  let dist_to_level =
    Array.init (lambda + 1) (fun j -> if j = 0 then [||] else Array.make n infinity)
  in
  let pivot_of_level =
    Array.init (lambda + 1) (fun j -> if j = 0 then [||] else Array.make n (-1))
  in
  let bunch_local : (int * float) list array = Array.make n [] in
  let count f = Array.fold_left (fun acc l -> if f l then acc + 1 else acc) 0 hlv in
  let report_a =
    record
      (Dist_scheme.waves ~levels:hlv ~pivots:(lambda - 1) ~clusters:lambda
         ~name:(function
           | Dist_scheme.Setup -> "hopset setup (BFS)"
           | Pivot j -> Printf.sprintf "hopset levels %d" j
           | Cluster l -> Printf.sprintf "hopset bunches level %d" l
           | Virtual -> assert false (* run A has no virtual wave *))
         ~detail:(function
           | Dist_scheme.Pivot j -> Printf.sprintf "|A^H_%d|=%d" j (count (fun l -> l >= j))
           | Cluster l -> Printf.sprintf "|owners|=%d" (count (fun x -> x = l))
           | Setup | Virtual -> "")
         (* run A declares run B's base and entry width, plus its level
            row *)
         ~words:(fun entries -> 16 + (lambda + 1) + (8 * entries))
         ~deposit:(fun ~me wave ~key d ~via:_ ->
           match wave with
           | Dist_scheme.Pivot j ->
             dist_to_level.(j).(me) <- d;
             pivot_of_level.(j).(me) <- key
           | Cluster _ ->
             (* Construct.bunch_field's truncated field: every reached
                vertex, pruned or not *)
             bunch_local.(me) <- (key, d) :: bunch_local.(me)
           | Setup | Virtual -> ())
         ?faults ?reliable ?max_rounds ?domains g)
  in
  let fields =
    {
      Construct.levels = hlevels;
      dist_to_level;
      pivot_of_level;
      bunch_dist =
        (let rows = Array.init m (fun _ -> Array.make n infinity) in
         Array.iteri
           (fun v entries ->
             List.iter
               (fun (w, d) ->
                 match Virtual_graph.to_virtual vg w with
                 | Some jw -> rows.(jw).(v) <- d
                 | None ->
                   post := Harvest { vertex = v; reason = Printf.sprintf "bunch owner %d not virtual" w } :: !post)
               entries)
           bunch_local;
         rows);
    }
  in
  let pe_dist = Array.init k (fun _ -> Array.make n infinity) in
  let pe_org = Array.init k (fun _ -> Array.make n (-1)) in
  let cl_local : (int * float * int * bool) list array = Array.make n [] in

  (* ---- run B's per-vertex hooks, driven by the superstep engine ---- *)
  let run_b a =
    let vertex ctx =
      let me = Superstep.me ctx
      and neighbors = Superstep.neighbors ctx
      and weights = Superstep.weights ctx in
      let port_of : (int, int) Hashtbl.t = Hashtbl.create (max 1 (Array.length neighbors)) in
      Array.iteri (fun p u -> Hashtbl.replace port_of u p) neighbors;
      let one_eps = a.one_eps and succ = a.succ.(me) in
      (* ---- wave state ---- *)
      let q_dist = ref infinity
      and q_org = ref (-1)
      and q_port = ref (-1)
      and q_stamp = ref (-1)
      and q_dirty = ref false in
      let table : (int, entry) Hashtbl.t = Hashtbl.create 8 in
      let my_dhat = Array.make (a.ak + 1) infinity in
      let relay_prop : (int, float * int * int * int) Hashtbl.t = Hashtbl.create 4 in
      let rec_prop : (int, float * int) Hashtbl.t = Hashtbl.create 4 in
      let rec0 : (int, float) Hashtbl.t = Hashtbl.create 4 in
      (* one-hop forwards waiting for the next barrier, newest first, and
         their count: the engine reads [words] on every wake-up *)
      let pending : (int * Superstep.msg) list ref = ref [] in
      let n_pending = ref 0 in
      let clear_pending () =
        pending := [];
        n_pending := 0
      in
      let relay_words = (3 * List.length a.inc.(me)) + (2 * Hashtbl.length succ) in
      let words () =
        16 + Array.length my_dhat + relay_words
        + (8 * Hashtbl.length table)
        + (4 * Hashtbl.length relay_prop)
        + (2 * Hashtbl.length rec_prop)
        + (2 * Hashtbl.length rec0)
        + (5 * !n_pending)
      in
      let enqueue_all = Superstep.enqueue_all ctx in
      (* barrier snapshot: wave segments offer dirty entries (subject to the
         forwarding predicate), relay/recovery segments flush the one-hop
         forwards accumulated since the previous barrier *)
      let snapshot () =
        match Superstep.segment ctx with
        | KWave | KFinal -> (
          match phase_kind a (Superstep.phase ctx) with
          | APivot _ ->
            if !q_dirty then begin
              q_dirty := false;
              enqueue_all ~except:!q_port
                (Offer2 { key = 0; dist = !q_dist; origin = !q_org })
            end
          | ACluster i ->
            Hashtbl.iter
              (fun w e ->
                if e.dirty then begin
                  e.dirty <- false;
                  if w = me || e.d *. one_eps < my_dhat.(i + 1) then
                    enqueue_all ~except:e.port
                      (Offer2 { key = w; dist = e.d; origin = e.origin })
                end)
              table)
        | KRelay | KRecover ->
          let ps = !pending in
          clear_pending ();
          List.iter (fun (p, msg) -> Superstep.enqueue ctx p msg) ps
      in
      let fwd_pending ei dir m =
        match Hashtbl.find_opt succ ((2 * ei) + dir) with
        | Some nxt -> (
          match Hashtbl.find_opt port_of nxt with
          | Some p ->
            pending := (p, m) :: !pending;
            incr n_pending
          | None ->
            Superstep.fail ctx
              (Harvest { vertex = me; reason = Printf.sprintf "relay next hop %d not adjacent" nxt }))
        | None -> ()
      in
      let has_succ ei dir = Hashtbl.mem succ ((2 * ei) + dir) in
      let seg_start () =
        match Superstep.segment ctx with
        | KWave | KFinal -> (
          (* a fresh Bellman-Ford iteration relaxes every current estimate *)
          match phase_kind a (Superstep.phase ctx) with
          | APivot _ -> if !q_dist < infinity then q_dirty := true
          | ACluster _ -> Hashtbl.iter (fun _ e -> e.dirty <- true) table)
        | KRelay -> (
          (* Jacobi step: every admissible endpoint launches its post-wave
             snapshot value along each incident hopset edge *)
          match phase_kind a (Superstep.phase ctx) with
          | APivot _ ->
            if !q_dist < infinity then
              List.iter
                (fun (ei, dir, w) ->
                  fwd_pending ei dir
                    (Relay { key = 0; edge = ei; dir; value = !q_dist +. w; origin = !q_org }))
                a.inc.(me)
          | ACluster i ->
            Hashtbl.iter
              (fun w e ->
                if
                  e.d < infinity
                  && (w = me || e.d *. a.one_eps *. a.one_eps < my_dhat.(i + 1))
                then
                  List.iter
                    (fun (ei, dir, ew) ->
                      fwd_pending ei dir
                        (Relay { key = w; edge = ei; dir; value = e.d +. ew; origin = -1 }))
                    a.inc.(me))
              table)
        | KRecover -> (
          (* snapshot candidates, then trigger a walk for every entry the
             hopset fed within the virtual limit (Claim 9's premise) *)
          Hashtbl.reset rec0;
          Hashtbl.iter (fun w e -> Hashtbl.replace rec0 w e.d) table;
          match phase_kind a (Superstep.phase ctx) with
          | ACluster i ->
            Hashtbl.iter
              (fun w e ->
                if
                  e.via_edge >= 0 && e.d < infinity
                  && e.d *. a.one_eps *. a.one_eps < my_dhat.(i + 1)
                then
                  fwd_pending e.via_edge (1 - e.via_dir)
                    (Rec_req { key = w; edge = e.via_edge; dir = e.via_dir }))
              table
          | APivot _ -> ())
      in
      (* proposals buffered during a relay/recovery segment commit at the
         barrier that closes it — all derived from the same snapshot, so the
         result is independent of arrival order *)
      let finalize_seg () =
        match Superstep.segment ctx with
        | KWave | KFinal -> ()
        | KRelay ->
          (match phase_kind a (Superstep.phase ctx) with
          | APivot _ ->
            Hashtbl.iter
              (fun _ (v, _, _, o) ->
                if v < !q_dist then begin
                  q_dist := v;
                  q_org := o;
                  q_port := -1;
                  q_dirty := true
                end)
              relay_prop
          | ACluster _ ->
            Hashtbl.iter
              (fun w (v, ei, dir, _) ->
                match Hashtbl.find_opt table w with
                | Some e ->
                  if v < e.d then begin
                    e.d <- v;
                    e.port <- -1;
                    e.via_edge <- ei;
                    e.via_dir <- dir;
                    e.joined <- false;
                    e.dirty <- true
                  end
                | None ->
                  let e = fresh_entry v ~port:(-1) ~origin:(-1) ~stamp:(-1) in
                  e.via_edge <- ei;
                  e.via_dir <- dir;
                  Hashtbl.add table w e)
              relay_prop);
          Hashtbl.reset relay_prop;
          clear_pending ()
        | KRecover ->
          Hashtbl.iter
            (fun w (acc, prev) ->
              if acc < infinity then begin
                let e =
                  match Hashtbl.find_opt table w with
                  | Some e -> e
                  | None ->
                    let e = fresh_entry infinity ~port:(-1) ~origin:(-1) ~stamp:(-1) in
                    Hashtbl.add table w e;
                    e
                in
                e.d <- Float.min acc e.d;
                (match Hashtbl.find_opt port_of prev with
                | Some p -> e.port <- p
                | None ->
                  Superstep.fail ctx
                    (Harvest { vertex = me; reason = Printf.sprintf "recovery parent %d not adjacent" prev }));
                e.via_edge <- -1;
                e.joined <- true;
                e.dirty <- true
              end)
            rec_prop;
          Hashtbl.reset rec_prop;
          Hashtbl.reset rec0;
          clear_pending ()
      in
      let finalize_phase () =
        match phase_kind a (Superstep.phase ctx) with
        | APivot j ->
          pe_dist.(j).(me) <- !q_dist;
          pe_org.(j).(me) <- !q_org;
          my_dhat.(j) <- !q_dist;
          q_dist := infinity;
          q_org := -1;
          q_port := -1;
          q_stamp := -1;
          q_dirty := false
        | ACluster _ ->
          Hashtbl.iter
            (fun w e ->
              cl_local.(me) <-
                (w, e.d, (if e.port >= 0 then neighbors.(e.port) else -1), e.joined)
                :: cl_local.(me))
            table;
          Hashtbl.reset table
      in
      let seed_phase () =
        match phase_kind a (Superstep.phase ctx) with
        | APivot j ->
          if a.xlv.(me) >= j then begin
            q_dist := 0.0;
            q_org := me;
            q_port := -1;
            q_stamp := -1;
            q_dirty := true
          end
        | ACluster i ->
          if a.xlv.(me) = i then
            Hashtbl.add table me (fresh_entry 0.0 ~port:(-1) ~origin:me ~stamp:(-1))
      in
      let on_data port = function
        | Superstep.Offer2 { key; dist; origin } -> (
          let nd = dist +. weights.(port) in
          let sender = neighbors.(port) in
          (* stamped commit: within one superstep an equal value from a
             smaller sender displaces; across supersteps only strict < *)
          match phase_kind a (Superstep.phase ctx) with
          | APivot _ ->
            if
              nd < !q_dist
              || (nd = !q_dist && !q_stamp = Superstep.superstep_id ctx && !q_port >= 0
                 && sender < neighbors.(!q_port))
            then begin
              q_dist := nd;
              q_org := origin;
              q_port := port;
              q_stamp := Superstep.superstep_id ctx;
              q_dirty := true
            end
          | ACluster _ -> (
            match Hashtbl.find_opt table key with
            | Some e ->
              if
                nd < e.d
                || (nd = e.d && e.stamp = Superstep.superstep_id ctx && e.port >= 0
                   && sender < neighbors.(e.port))
              then begin
                e.d <- nd;
                e.port <- port;
                e.origin <- origin;
                e.stamp <- Superstep.superstep_id ctx;
                e.via_edge <- -1;
                e.joined <- false;
                e.dirty <- true
              end
            | None ->
              Hashtbl.add table key
                (fresh_entry nd ~port ~origin ~stamp:(Superstep.superstep_id ctx))))
        | Relay { key; edge; dir; value; origin } ->
          if has_succ edge dir then
            fwd_pending edge dir (Relay { key; edge; dir; value; origin })
          else begin
            (* destination endpoint: buffer, committed at the segment
               barrier by lex-min (value, edge) — the Jacobi tie-break *)
            match Hashtbl.find_opt relay_prop key with
            | Some (v0, e0, _, _) when (v0, e0) <= (value, edge) -> ()
            | _ -> Hashtbl.replace relay_prop key (value, edge, dir, origin)
          end
        | Rec_req { key; edge; dir } ->
          if has_succ edge (1 - dir) then
            fwd_pending edge (1 - dir) (Rec_req { key; edge; dir })
          else begin
            (* feeding endpoint: start the accumulating walk from my own
               pre-recovery candidate *)
            let acc =
              match Hashtbl.find_opt rec0 key with Some d -> d | None -> infinity
            in
            fwd_pending edge dir (Rec { key; edge; dir; acc })
          end
        | Rec { key; edge; dir; acc } ->
          let acc' = acc +. weights.(port) in
          let prev = neighbors.(port) in
          let cd0 =
            match Hashtbl.find_opt rec0 key with Some d -> d | None -> infinity
          in
          (* <= with tolerance: the endpoint's candidate ties its recorded
             estimate and must still acquire a parent on the path *)
          if acc' <= cd0 +. (1e-9 *. (1.0 +. abs_float cd0)) then begin
            match Hashtbl.find_opt rec_prop key with
            | Some (a0, p0) when (a0, p0) <= (acc', prev) -> ()
            | _ -> Hashtbl.replace rec_prop key (acc', prev)
          end;
          if has_succ edge dir then fwd_pending edge dir (Rec { key; edge; dir; acc = acc' })
        | _ -> () (* run B sends no Offer; control messages are the engine's *)
      in
      { Superstep.seed = seed_phase; seg_start; snapshot; on_data;
        finalize_seg; finalize_phase; words }
    in
    record
      (Superstep.run ~plan:(plan a ~cap ~b) ~vertex ?faults ?reliable ?max_rounds
         ?domains g)
  in
  let mk_outcome ~upper ~hopset report =
    {
      upper;
      fields;
      hopset;
      lambda;
      b;
      members;
      xlevels;
      k;
      ih;
      report;
      phase_rounds =
        List.map (fun (p : Cost.phase) -> (p.Cost.name, p.Cost.rounds)) !all_phases;
      failures = gathered_failures ();
    }
  in
  if gathered_failures () <> [] then mk_outcome ~upper:None ~hopset:None report_a
  else
    let hopset =
      match Construct.assemble vg fields with
      | hs -> Some hs
      | exception Invalid_argument msg ->
        post := Harvest { vertex = -1; reason = "assemble rejected fields: " ^ msg } :: !post;
        None
    in
    match hopset with
    | None -> mk_outcome ~upper:None ~hopset:None report_a
    | Some hopset ->
      (* ---- relay tables: per-vertex next hops along the stored paths ---- *)
      let edges = Hopset.edges hopset in
      let inc = Array.make n [] in
      let succ = Array.init n (fun _ -> Hashtbl.create 2) in
      Array.iteri
        (fun i (e : Hopset.edge) ->
          inc.(e.x) <- (i, 0, e.w) :: inc.(e.x);
          inc.(e.y) <- (i, 1, e.w) :: inc.(e.y);
          let p = e.path in
          let l = Array.length p in
          for j = 0 to l - 1 do
            if j < l - 1 then Hashtbl.replace succ.(p.(j)) ((2 * i) + 0) p.(j + 1);
            if j > 0 then Hashtbl.replace succ.(p.(j)) ((2 * i) + 1) p.(j - 1)
          done)
        edges;
      (* ---- run B: approximate pivots and cluster waves over G' ∪ H ---- *)
      let report_b =
        run_b
          {
            ak = k;
            aih = ih;
            abeta = beta;
            one_eps = 1.0 +. epsilon;
            xlv = xlevels;
            inc;
            succ;
          }
      in
      let report = Congest.Metrics.merge report_a report_b in
      if gathered_failures () <> [] then mk_outcome ~upper:None ~hopset:(Some hopset) report
      else begin
        let pivot_estimates = ref [] in
        for j = k - 1 downto ih + 1 do
          pivot_estimates := (j, (pe_dist.(j), pe_org.(j))) :: !pivot_estimates
        done;
        (* regroup the members' cluster deposits by owner *)
        let candidates = Hashtbl.create 64 in
        for w = 0 to n - 1 do
          if xlevels.(w) >= ih then
            Hashtbl.replace candidates w
              (Array.make n infinity, Array.make n (-1), Array.make n false)
        done;
        Array.iteri
          (fun v entries ->
            List.iter
              (fun (w, d, par, joined) ->
                match Hashtbl.find_opt candidates w with
                | Some (cdist, cparent, cjoined) ->
                  cdist.(v) <- d;
                  cparent.(v) <- par;
                  cjoined.(v) <- joined
                | None ->
                  post := Harvest { vertex = v; reason = Printf.sprintf "cluster deposit for non-owner %d" w } :: !post)
              entries)
          cl_local;
        let cluster_waves = ref [] in
        for i = ih to k - 1 do
          let limits = Scheme.Upper_stage.limits ~n !pivot_estimates i in
          for w = 0 to n - 1 do
            if xlevels.(w) = i then begin
              let cdist, cparent, joined = Hashtbl.find candidates w in
              cluster_waves :=
                Scheme.Upper_stage.of_candidates ~epsilon ~limits g ~level:i
                  ~owner:w ~cdist ~cparent ~joined
                :: !cluster_waves
            end
          done
        done;
        let upper =
          {
            Scheme.Upper_stage.hopset;
            epsilon;
            beta;
            pivot_estimates = !pivot_estimates;
            cluster_waves = List.rev !cluster_waves;
            phases = { Cost.phases = List.rev !all_phases };
          }
        in
        if gathered_failures () <> [] then
          mk_outcome ~upper:None ~hopset:(Some hopset) report
        else mk_outcome ~upper:(Some upper) ~hopset:(Some hopset) report
      end

(* ---- differential gate ---- *)

let check_against_centralized ~rng ?(mode = Dist_scheme.Exact) g (o : outcome) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n = Graph.n g in
  let vg = Virtual_graph.make g ~members:o.members ~b:o.b in
  let mv = Virtual_graph.members vg in
  let m = Array.length mv in
  (* hopset levels: always exact — one pass over the pre-drawn stream *)
  let hlevels = Construct.sample_levels ~rng ~lambda:o.lambda ~m in
  Array.iteri
    (fun j l ->
      if o.fields.Construct.levels.(j) <> l then
        err "hopset level of w'=%d: distributed %d, centralized %d" mv.(j)
          o.fields.Construct.levels.(j) l)
    hlevels;
  (* level fields: always exact — one lex multi-source Dijkstra per level *)
  let cdl, cpl = Construct.level_fields g mv ~lambda:o.lambda ~levels:hlevels in
  for i = 1 to o.lambda do
    for v = 0 to n - 1 do
      if cdl.(i).(v) <> o.fields.Construct.dist_to_level.(i).(v) then
        err "d(v%d, A^H_%d): distributed %h, centralized %h" v i
          o.fields.Construct.dist_to_level.(i).(v)
          cdl.(i).(v);
      if cpl.(i).(v) <> o.fields.Construct.pivot_of_level.(i).(v) then
        err "hopset pivot_%d(v%d): distributed %d, centralized %d" i v
          o.fields.Construct.pivot_of_level.(i).(v)
          cpl.(i).(v)
    done
  done;
  (* bunch fields: each is a truncated Dijkstra — the per-member blocker
     worth sampling at large n *)
  let check_bunch jw =
    let bound v = cdl.(hlevels.(jw) + 1).(v) in
    let f = Construct.bunch_field g ~src:mv.(jw) ~bound in
    if f <> o.fields.Construct.bunch_dist.(jw) then
      err "bunch field of w'=%d: distributed wave differs from truncated Dijkstra"
        mv.(jw)
  in
  List.iter check_bunch
    (Dist_scheme.gate_indices mode ~salt:(fun seed -> [| seed; n; 17 |]) m);
  (match o.upper with
  | None -> ()
  | Some ({ Scheme.Upper_stage.epsilon; beta; _ } as u) ->
    (* hopset edge list: in exact mode re-assembled from the centralized
       fields and compared edge-for-edge; in sampled mode the distributed
       hopset (whose fields were spot-checked above) seeds the run-B
       reference directly *)
    let hopset =
      match mode with
      | Dist_scheme.Exact ->
        let cf = Construct.compute_fields g mv ~lambda:o.lambda ~levels:hlevels in
        let ch = Construct.assemble vg cf in
        let ce = Hopset.edges ch in
        let de = Hopset.edges u.Scheme.Upper_stage.hopset in
        if Array.length ce <> Array.length de then
          err "hopset size: distributed %d, centralized %d" (Array.length de)
            (Array.length ce)
        else
          Array.iteri
            (fun i (c : Hopset.edge) ->
              let d = de.(i) in
              if c <> d then
                err "hopset edge %d differs ({%d,%d} vs {%d,%d})" i d.Hopset.x d.Hopset.y c.Hopset.x c.Hopset.y)
            ce;
        ch
      | Dist_scheme.Sampled _ -> u.Scheme.Upper_stage.hopset
    in
    (* approximate pivots: always exact — one run per high level is cheap *)
    let estimates =
      List.init (o.k - 1 - o.ih) (fun p ->
          let j = o.ih + 1 + p in
          (j, Scheme.Upper_stage.pivot_estimate hopset ~beta ~levels:o.xlevels j))
    in
    List.iter
      (fun (j, (dist, origin)) ->
        match List.assoc_opt j u.Scheme.Upper_stage.pivot_estimates with
        | None -> err "missing pivot estimates for level %d" j
        | Some (dd, dorg) ->
          for v = 0 to n - 1 do
            if dist.(v) <> dd.(v) then
              err "dhat(v%d, A_%d): distributed %h, centralized %h" v j dd.(v) dist.(v);
            if origin.(v) <> dorg.(v) then
              err "approx pivot_%d(v%d): distributed %d, centralized %d" j v
                dorg.(v) origin.(v)
          done)
      estimates;
    (* cluster waves: one limited exploration + recovery + final wave per
       owner — the run-B blocker worth sampling *)
    let owners = ref [] in
    for i = o.k - 1 downto o.ih do
      for w = n - 1 downto 0 do
        if o.xlevels.(w) = i then owners := (i, w) :: !owners
      done
    done;
    let owners = Array.of_list !owners in
    let check_owner (i, w) =
      let { Scheme.Upper_stage.cdist; cparent; joined; tree; _ } =
        Scheme.Upper_stage.wave ~hopset ~epsilon ~beta
          ~limits:(Scheme.Upper_stage.limits ~n estimates i)
          g ~level:i ~owner:w
      in
      match
        List.find_opt
          (fun (cw : Scheme.Upper_stage.cluster_wave) ->
            cw.Scheme.Upper_stage.owner = w && cw.Scheme.Upper_stage.level = i)
          u.Scheme.Upper_stage.cluster_waves
      with
      | None -> err "missing cluster wave of owner %d (level %d)" w i
      | Some cw ->
        for v = 0 to n - 1 do
          if cw.Scheme.Upper_stage.cdist.(v) <> cdist.(v) then
            err "cluster %d: cdist(v%d) distributed %h, centralized %h" w v
              cw.Scheme.Upper_stage.cdist.(v) cdist.(v);
          if cw.Scheme.Upper_stage.cparent.(v) <> cparent.(v) then
            err "cluster %d: cparent(v%d) distributed %d, centralized %d" w v
              cw.Scheme.Upper_stage.cparent.(v) cparent.(v);
          if cw.Scheme.Upper_stage.joined.(v) <> joined.(v) then
            err "cluster %d: joined(v%d) differs" w v
        done;
        if cw.Scheme.Upper_stage.tree <> tree then
          err "cluster %d: pruned tree differs" w
    in
    List.iter
      (fun i -> check_owner owners.(i))
      (Dist_scheme.gate_indices mode
         ~salt:(fun seed -> [| seed; n; 19 |])
         (Array.length owners)));
  List.rev !errs

let build_scheme ~rng:_ g (ds : Dist_scheme.outcome) (o : outcome) =
  match (ds.Dist_scheme.failures, o.failures, o.upper) with
  | [], [], Some upper -> Scheme.build_from_exact ~exact:ds.Dist_scheme.exact ~upper g
  | f :: _, _, _ ->
    invalid_arg ("Dist_hopset.build_scheme: exact stage failed: " ^ failure_to_string f)
  | [], f :: _, _ ->
    invalid_arg ("Dist_hopset.build_scheme: upper stage failed: " ^ failure_to_string f)
  | [], [], None -> invalid_arg "Dist_hopset.build_scheme: no upper stage"
