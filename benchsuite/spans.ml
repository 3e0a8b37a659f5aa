(* Bench-side spans: recorded around the benchmark's own calls into each
   layer, kept in memory, written out once at the end of a traced run.

   A span has a name, start and end on the monotonic clock (ns), the span
   that was open when it started (its parent) and a request id: the id of
   the root span it descends from, so every span of one set-up or one
   serving pass shares it. Counters (allocated bytes, rounds, messages, ...)
   are attached when the span closes. A disabled recorder records nothing. *)

module J = Congest.Export.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  request : int;
  start_ns : int;
  end_ns : int;
  counters : (string * float) list;
}

type opened = { o_id : int; o_name : string; o_request : int; o_start : int }

type t = {
  on : bool;
  now : unit -> int;
  mutable closed : span list;  (** newest first *)
  mutable stack : opened list;  (** innermost first *)
  mutable next : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(now = now_ns) on =
  { on; now; closed = []; stack = []; next = 0 }

let enter t name =
  if t.on then begin
    let id = t.next in
    t.next <- id + 1;
    let request = match t.stack with [] -> id | o :: _ -> o.o_request in
    t.stack <- { o_id = id; o_name = name; o_request = request; o_start = t.now () } :: t.stack
  end

let leave t counters =
  if t.on then
    match t.stack with
    | [] -> invalid_arg "Spans.leave: no open span"
    | o :: rest ->
      t.stack <- rest;
      let parent = match rest with [] -> -1 | p :: _ -> p.o_id in
      t.closed <-
        {
          id = o.o_id;
          name = o.o_name;
          parent;
          request = o.o_request;
          start_ns = o.o_start;
          end_ns = t.now ();
          counters;
        }
        :: t.closed

let spans t = List.rev t.closed

(* Duration minus the part of [s]'s interval covered by its direct
   children (overlaps counted once, children clipped to the parent). *)
let self_ns all s =
  let kids =
    List.filter_map
      (fun c ->
        let a = max c.start_ns s.start_ns and b = min c.end_ns s.end_ns in
        if c.parent = s.id && b > a then Some (a, b) else None)
      all
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) kids
  in
  s.end_ns - s.start_ns - covered

let to_json t =
  let all = spans t in
  J.Arr
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.Str s.name);
             ("parent", if s.parent < 0 then J.Null else J.Int s.parent);
             ("request", J.Int s.request);
             ("start_ns", J.Int s.start_ns);
             ("end_ns", J.Int s.end_ns);
             ("self_ns", J.Int (self_ns all s));
             ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) s.counters));
           ])
       all)
