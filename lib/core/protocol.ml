type failure =
  | Setup_timeout of { vertex : int; round : int }
  | Stalled of {
      vertex : int;
      round : int;
      phase : string;
      superstep : int;
      continuous : bool;
    }
  | Link_lost of { vertex : int; neighbor : int; reason : string }
  | Queue_overflow of { vertex : int; port : int; length : int; limit : int }
  | Harvest of { vertex : int; reason : string }
  | Transport of string

let failure_to_string = function
  | Setup_timeout { vertex; round } ->
    Printf.sprintf "v%d: setup timed out: no phase start by round %d" vertex round
  | Stalled { vertex; round; phase; superstep; continuous } ->
    Printf.sprintf "v%d: watchdog: no traffic or progress by round %d (phase %s, %s %d)"
      vertex round phase
      (if continuous then "detection wave" else "superstep")
      superstep
  | Link_lost { vertex; neighbor; reason } ->
    Printf.sprintf "v%d: link to v%d lost: %s" vertex neighbor reason
  | Queue_overflow { vertex; port; length; limit } ->
    Printf.sprintf
      "v%d: port %d would queue %d messages, more than the watchdog interval covers (%d)"
      vertex port length limit
  | Harvest { vertex; reason } -> Printf.sprintf "v%d: %s" vertex reason
  | Transport s -> s

let pp_failure ppf f = Format.pp_print_string ppf (failure_to_string f)

let uses_reliable ~faults ~reliable =
  match reliable with Some b -> b | None -> Option.is_some faults

type vertex = {
  me : int;
  neighbors : int array;
  weights : float array;
  fail : failure -> unit;
  mutable lost : int list;
}

module Make (M : Congest.Sim.MESSAGE) = struct
  module S = Congest.Sim.Make (M)
  module R = Congest.Reliable.Make (M)

  type transport = (module Congest.Sim.TRANSPORT with type msg = M.t)

  let run ?faults ?reliable ?config ?trace ?max_rounds ?scheduler ?domains g
      ~node =
    (* one failure slot per vertex: a single writer each, and a canonical
       order (vertex id, then report order) under any scheduler *)
    let slots = Array.make (Dgraph.Graph.n g) [] in
    let start (t : transport) me neighbors weights =
      node t
        {
          me;
          neighbors;
          weights;
          fail = (fun f -> slots.(me) <- f :: slots.(me));
          lost = [];
        }
    in
    let report =
      if uses_reliable ~faults ~reliable then
        R.run ~edge_capacity:2 ?faults ?trace ?max_rounds ?scheduler ?domains
          ?config g
          ~node:(fun t (c : R.ctx) -> start t c.me c.neighbors c.weights)
      else
        S.run ~edge_capacity:2 ?faults ?trace ?max_rounds ?scheduler ?domains g
          ~node:(fun (c : S.ctx) ->
            start (module S.Transport) c.me c.neighbors c.weights)
    in
    let transport =
      match report.Congest.Sim.outcome with
      | Congest.Sim.Completed -> []
      | Congest.Sim.Deadlocked _ as oc ->
        [ Transport (Format.asprintf "%a" Congest.Sim.pp_outcome oc) ]
      | Congest.Sim.Round_limit -> [ Transport "round limit exceeded" ]
    in
    ( report.Congest.Sim.metrics,
      transport @ Array.fold_right (fun fs acc -> List.rev_append fs acc) slots [] )
end

type 'a agenda = (int * 'a) list ref

let agenda () = ref []

let schedule (agenda : _ agenda) r a =
  let rec ins = function
    | [] -> [ (r, a) ]
    | (r', _) :: _ as l when r < r' -> (r, a) :: l
    | x :: rest -> x :: ins rest
  in
  agenda := ins !agenda

let deadline (agenda : _ agenda) = match !agenda with [] -> max_int | (r, _) :: _ -> r

let rec run_due (agenda : _ agenda) now f =
  match !agenda with
  | (r, a) :: rest when r <= now ->
    agenda := rest;
    f a;
    run_due agenda now f
  | _ -> ()

let check_dead v dead lost =
  List.iter
    (fun (p, why) ->
      if not (List.mem p v.lost) then begin
        v.lost <- p :: v.lost;
        v.fail (Link_lost { vertex = v.me; neighbor = v.neighbors.(p); reason = why });
        lost p
      end)
    dead
