(* [emit name fields] writes BENCH_<name>.json and the BENCH_<name>-latest.json
   pointer copy, first printing [trend] lines for the numeric leaves that
   moved most since the previous pointer.

   Leaves are matched by path. An array of objects is keyed by each row's
   identity fields (workload, topology, model, config, seed, n), so adding
   or reordering rows never shifts a trend line onto another row; an array
   whose rows carry no identity, or carry duplicate identities, falls back
   to positions. *)

module J = Congest.Export.Json

let identity_fields = [ "workload"; "topology"; "model"; "config"; "seed"; "n" ]

let identity = function
  | J.Obj fields ->
    let parts =
      List.filter_map
        (fun f ->
          match List.assoc_opt f fields with
          | Some (J.Str s) -> Some (f ^ "=" ^ s)
          | Some (J.Int i) -> Some (f ^ "=" ^ string_of_int i)
          | _ -> None)
        identity_fields
    in
    if parts = [] then None else Some ("[" ^ String.concat "," parts ^ "]")
  | _ -> None

let row_keys xs =
  let ids = List.filter_map identity xs in
  let n = List.length xs in
  if List.length ids = n && List.length (List.sort_uniq compare ids) = n then ids
  else List.mapi (fun i _ -> string_of_int i) xs

let leaves doc =
  let join p k = if p = "" then k else p ^ "." ^ k in
  let rec go p acc = function
    | J.Int i -> (p, float_of_int i) :: acc
    | J.Float f -> (p, f) :: acc
    | J.Obj fields -> List.fold_left (fun acc (k, v) -> go (join p k) acc v) acc fields
    | J.Arr xs -> List.fold_left2 (fun acc k v -> go (join p k) acc v) acc (row_keys xs) xs
    | J.Null | J.Bool _ | J.Str _ -> acc
  in
  List.rev (go "" [] doc)

(* (path, old, new, relative change) for every leaf present in both
   documents whose value moved, largest relative move first. *)
let deltas prev cur =
  let before = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace before p v) (leaves prev);
  List.filter_map
    (fun (p, v) ->
      match Hashtbl.find_opt before p with
      | Some v0 when v <> v0 ->
        let rel = if v0 = 0.0 then infinity else (v -. v0) /. Float.abs v0 in
        Some (p, v0, v, rel)
      | _ -> None)
    (leaves cur)
  |> List.stable_sort (fun (_, _, _, a) (_, _, _, b) ->
         Float.compare (Float.abs b) (Float.abs a))

let max_trend_lines = 8

let print_trend name prev cur =
  match deltas prev cur with
  | [] -> Printf.printf "[trend] %s: no numeric change vs previous run\n" name
  | ds ->
    List.iteri
      (fun i (p, v0, v, rel) ->
        if i < max_trend_lines then
          Printf.printf "[trend] %s %s: %g -> %g (%s)\n" name p v0 v
            (if Float.is_finite rel then Printf.sprintf "%+.1f%%" (rel *. 100.0)
             else "new-from-zero"))
      ds;
    let rest = List.length ds - max_trend_lines in
    if rest > 0 then Printf.printf "[trend] %s: ... and %d more\n" name rest

let read_json path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Result.to_option (J.parse s)

let emit name fields =
  let doc = J.Obj (("experiment", J.Str name) :: fields) in
  let path = Printf.sprintf "BENCH_%s.json" name in
  let latest = Printf.sprintf "BENCH_%s-latest.json" name in
  Option.iter (fun prev -> print_trend name prev doc) (read_json latest);
  Congest.Export.to_file path doc;
  Congest.Export.to_file latest doc;
  Printf.printf "[json] wrote %s (+ %s)\n" path latest
