(* BENCHMARK.json, read back: the one place metric names, units, directions
   and bounds are written down. The runner prints exactly these metrics,
   and suite-compare judges with these bounds. *)

open Bench_suite

module J = Congest.Export.Json

type metric = {
  name : string;
  unit_ : string;
  better : Verdict.direction;
  bound : float;  (** 0 for per-layer metrics, which have none *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let load () =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let doc =
    match Trend.read_json path with
    | Some d -> d
    | None -> fail "missing or not valid JSON (run from the repository root)"
  in
  let field k o =
    match J.member k o with Some v -> v | None -> fail ("no field " ^ k)
  in
  let str k o = match field k o with J.Str s -> s | _ -> fail (k ^ ": not a string") in
  let num k o =
    match field k o with
    | J.Int i -> float_of_int i
    | J.Float f -> f
    | _ -> fail (k ^ ": not a number")
  in
  let arr k o = match field k o with J.Arr xs -> xs | _ -> fail (k ^ ": not an array") in
  let metric o =
    {
      name = str "name" o;
      unit_ = str "unit" o;
      better =
        (match Verdict.direction_of_string (str "better" o) with
        | Some d -> d
        | None -> fail "better: expected lower or higher");
      bound = (match J.member "bound" o with Some _ -> num "bound" o | None -> 0.0);
    }
  in
  {
    run_seconds = int_of_float (num "run_seconds" doc);
    workloads = List.map (str "name") (arr "workloads" doc);
    end_to_end = List.map metric (arr "end_to_end" doc);
    per_layer = List.map metric (arr "per_layer" doc);
  }
