type spec = {
  seed : int;
  drop : float;
  duplicate : float;
  delay : float;
  max_delay : int;
  link_failures : (int * int * int) list;
  link_flaps : (int * int * int * int) list;
  crashes : (int * int) list;
}

let none =
  {
    seed = 0;
    drop = 0.0;
    duplicate = 0.0;
    delay = 0.0;
    max_delay = 0;
    link_failures = [];
    link_flaps = [];
    crashes = [];
  }

let is_none s =
  s.drop = 0.0 && s.duplicate = 0.0 && s.delay = 0.0 && s.link_failures = []
  && s.link_flaps = [] && s.crashes = []

type verdict = Deliver | Drop | Duplicate | Delay of int

type t = {
  spec : spec;
  delays : verdict array;
      (* delays.(i) = Delay (i + 1): [classify] hands out these shared
         values, so a delayed verdict allocates nothing *)
  (* (u lsl 31) lor v -> outage windows [from, until) of the directed edge
     u->v, permanent failures encoded as [(r, max_int)]; both directions of
     an undirected failure or flap are registered. The packed int key keeps
     the per-message [link_down] lookup free of tuple allocation (vertex ids
     are array indices, far below 2^31); window lists are tiny (one entry
     per registered failure/flap of that edge). *)
  down : (int, (int * int) list) Hashtbl.t;
  crash : (int, int) Hashtbl.t;
}

let edge_key u v = (u lsl 31) lor v

let check_prob name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Fault.make: %s probability %g not in [0,1]" name p)

let make spec =
  check_prob "drop" spec.drop;
  check_prob "duplicate" spec.duplicate;
  check_prob "delay" spec.delay;
  if spec.max_delay < 0 then invalid_arg "Fault.make: negative max_delay";
  let down = Hashtbl.create 16 in
  let note_window u v from until =
    let note a b =
      let prev =
        match Hashtbl.find_opt down (edge_key a b) with
        | Some ws -> ws
        | None -> []
      in
      Hashtbl.replace down (edge_key a b) ((from, until) :: prev)
    in
    note u v;
    note v u
  in
  List.iter
    (fun (u, v, r) ->
      if r < 0 then invalid_arg "Fault.make: negative link-failure round";
      note_window u v r max_int)
    spec.link_failures;
  List.iter
    (fun (u, v, from, until) ->
      if from < 0 then invalid_arg "Fault.make: negative link-flap round";
      if until <= from then
        invalid_arg "Fault.make: link-flap window must end after it starts";
      note_window u v from until)
    spec.link_flaps;
  let crash = Hashtbl.create 16 in
  List.iter
    (fun (v, r) ->
      if r < 0 then invalid_arg "Fault.make: negative crash round";
      match Hashtbl.find_opt crash v with
      | Some r' when r' <= r -> ()
      | _ -> Hashtbl.replace crash v r)
    spec.crashes;
  { spec; delays = Array.init spec.max_delay (fun i -> Delay (i + 1)); down; crash }

let spec t = t.spec

(* a closed recursion: [List.exists] would allocate a closure over [round]
   on every message *)
let rec in_window round = function
  | [] -> false
  | (from, until) :: rest -> (round >= from && round < until) || in_window round rest

let link_down t ~round u v =
  Hashtbl.length t.down > 0
  && match Hashtbl.find t.down (edge_key u v) with
     | windows -> in_window round windows
     | exception Not_found -> false

let crash_round t v = Hashtbl.find_opt t.crash v

(* Per-message verdicts are a pure hash of the message's coordinate
   (seed, round, src, dst, k) — no sequential random stream. The stream
   version consumed one draw per enabled feature in simulator send order,
   which made every verdict depend on the global interleaving of sends;
   under the domain-sharded scheduler that order is not defined, so
   verdicts must be (and now are) a function of the message alone.
   splitmix64's finalizer scrambles each field into the accumulator; a
   distinct salt per decision keeps the drop/duplicate/delay/amount draws
   independent of one another.

   Every helper below is [@inline]: once inlined into [classify], each
   intermediate [int64] is a let-bound local the native compiler keeps
   unboxed, so a verdict costs no allocation. A call that is not inlined
   would box its [int64] argument and result. *)
let golden = 0x9e3779b97f4a7c15L

let[@inline] mix64 (z : int64) =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] step acc x = mix64 (Int64.add (Int64.logxor acc (Int64.of_int x)) golden)

let[@inline] hash_coord ~seed ~round ~src ~dst ~k ~salt =
  let acc = mix64 (Int64.add (Int64.of_int seed) golden) in
  let acc = step acc round in
  let acc = step acc src in
  let acc = step acc dst in
  let acc = step acc k in
  step acc salt

(* the decision with probability [p]: the top 53 bits of the hash, as a
   uniform draw in [0,1), fall below [p] *)
let[@inline] hit ~seed ~round ~src ~dst ~k ~salt p =
  p > 0.0
  && Int64.to_float
       (Int64.shift_right_logical (hash_coord ~seed ~round ~src ~dst ~k ~salt) 11)
     *. 0x1.0p-53
     < p

let classify t ~round ~src ~dst ~k =
  if link_down t ~round src dst then Drop
  else begin
    let s = t.spec in
    let seed = s.seed in
    if hit ~seed ~round ~src ~dst ~k ~salt:1 s.drop then Drop
    else if hit ~seed ~round ~src ~dst ~k ~salt:2 s.duplicate then Duplicate
    else if hit ~seed ~round ~src ~dst ~k ~salt:3 s.delay && s.max_delay > 0 then begin
      let h = hash_coord ~seed ~round ~src ~dst ~k ~salt:4 in
      t.delays.(Int64.to_int
                  (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int s.max_delay)))
    end
    else Deliver
  end
