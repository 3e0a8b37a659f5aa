open Dgraph

type t = {
  owner : int;
  owner_level : int;
  tree : Tree.t;
  dist : (int * float) list;
}

type scratch = {
  dist : float array;
  parent : int array;
  wparent : float array;
  settled : bool array;
  mutable touched : int list;
}

let scratch n =
  {
    dist = Array.make n infinity;
    parent = Array.make n (-2);
    wparent = Array.make n 0.0;
    settled = Array.make n false;
    touched = [];
  }

(* Undo what the previous search wrote; running this first instead of last
   keeps the scratch usable after a search that raised. *)
let reset sc =
  List.iter
    (fun v ->
      sc.dist.(v) <- infinity;
      sc.parent.(v) <- -2;
      sc.wparent.(v) <- 0.0;
      sc.settled.(v) <- false)
    sc.touched;
  sc.touched <- []

let of_owner_bound ~scratch:sc g ~owner:w ~owner_level:i ~bound =
  if Array.length sc.dist <> Graph.n g then
    invalid_arg "Cluster.of_owner_bound: scratch sized for another graph";
  reset sc;
  let { dist; parent; wparent; settled; _ } = sc in
  let q = Pqueue.create () in
  dist.(w) <- 0.0;
  parent.(w) <- -1;
  sc.touched <- [ w ];
  Pqueue.push q ~key:0.0 w;
  let members = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (d, v) ->
      if (not settled.(v)) && d <= dist.(v) then begin
        settled.(v) <- true;
        if d < bound v then begin
          members := (v, d) :: !members;
          Graph.iter_neighbors g v (fun u ew ->
              let nd = d +. ew in
              if nd < dist.(u) then begin
                if dist.(u) = infinity then sc.touched <- u :: sc.touched;
                dist.(u) <- nd;
                parent.(u) <- v;
                wparent.(u) <- ew;
                Pqueue.push q ~key:nd u
              end)
        end
        else begin
          (* v is outside the cluster: forget the tentative parent edge *)
          parent.(v) <- -2
        end
      end;
      drain ()
  in
  drain ();
  (* Cluster prefix-closedness (TZ01a, Lemma) guarantees that every settled
     inside-vertex has an inside parent, so [parent] restricted to members is
     already a tree rooted at [w]. *)
  let members = List.rev !members in
  let tree =
    Tree.of_members ~root:w (List.map (fun (v, _) -> (v, parent.(v), wparent.(v))) members)
  in
  { owner = w; owner_level = i; tree; dist = members }

let of_owner ~scratch g h w =
  let i = Hierarchy.level h w in
  of_owner_bound ~scratch g ~owner:w ~owner_level:i ~bound:(fun v ->
      Hierarchy.dist_to_level h (i + 1) v)

let all g h =
  let scratch = scratch (Graph.n g) in
  Array.init (Graph.n g) (fun w -> of_owner ~scratch g h w)

let mem c v = Tree.mem c.tree v

let bunches g h =
  let n = Graph.n g in
  let b = Array.make n [] in
  Array.iter
    (fun c -> List.iter (fun (v, d) -> b.(v) <- (c.owner, d) :: b.(v)) c.dist)
    (all g h);
  b

let max_membership clusters =
  let bound =
    Array.fold_left
      (fun acc (c : t) -> List.fold_left (fun acc (v, _) -> max acc (v + 1)) acc c.dist)
      0 clusters
  in
  let count = Array.make bound 0 in
  Array.iter
    (fun (c : t) -> List.iter (fun (v, _) -> count.(v) <- count.(v) + 1) c.dist)
    clusters;
  Array.fold_left max 0 count
