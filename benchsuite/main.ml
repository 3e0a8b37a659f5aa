(* The benchmark's one executable.

     main.exe --workload W --seed S --seconds R --trace 0|1
         one run of one workload; prints every metric with its unit, then,
         as the last line, {"correct", "attempted", "failed", "metrics"}.
         --trace 0 reports the end-to-end metrics of BENCHMARK.json,
         --trace 1 the per-layer ones and prints the run's spans on a
         "[spans] " line before the result.

     main.exe suite [--seed S] [--workload W]
         [reps] untraced reps of every workload, rep i of all workloads
         before rep i+1, each in a fresh child process running
         BENCHMARK.json's run_seconds, then one traced rep per workload;
         writes BENCH_suite.json and BENCH_suite-trace.json.

     main.exe suite-compare OLD.json NEW.json
         a verdict per workload x end-to-end metric between two
         BENCH_suite.json files, with the bounds of BENCHMARK.json; exits 1
         on any "worse".

   Run from the repository root, where BENCHMARK.json lives. *)

open Bench_suite

module J = Congest.Export.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchsuite: " ^ s); exit 2) fmt

(* --name value pairs *)
let parse_args args =
  let rec go acc = function
    | [] -> List.rev acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | a :: _ -> die "unexpected argument %S" a
  in
  go [] args

let opt args name = List.assoc_opt name args

let int_opt args name ~default =
  match opt args name with
  | None -> default
  | Some v -> ( try int_of_string v with _ -> die "--%s: not an integer: %S" name v)

let workload_of_name name =
  match Run.find name with
  | Some w -> w
  | None ->
    die "unknown workload %S (known: %s)" name
      (String.concat ", " (List.map (fun w -> w.Run.name) Run.workloads))

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* The reported metrics, in BENCHMARK.json order: every listed metric must
   have been produced (per-layer metrics of a layer the workload does not
   execute read 0), and nothing unlisted may have been. *)
let select (spec : Spec.metric list) w produced ~per_layer =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Spec.metric) -> m.Spec.name = name) spec) then
        die "metric %s is produced but not listed in BENCHMARK.json" name)
    produced;
  List.map
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.Spec.name produced with
      | Some v -> (m, v)
      | None when per_layer && not (List.mem (layer_of m.Spec.name) (Run.layers w)) -> (m, 0.0)
      | None -> die "metric %s was not produced on %s" m.Spec.name w.Run.name)
    spec

let result_line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun ((m : Spec.metric), v) ->
                  (m.Spec.name, J.Obj [ ("value", J.Float v); ("unit", J.Str m.Spec.unit_) ]))
                metrics) );
       ])

let single args =
  let spec = Spec.load () in
  let w =
    workload_of_name
      (match opt args "workload" with Some w -> w | None -> die "--workload is required")
  in
  let seed = int_opt args "seed" ~default:1 in
  let seconds = float_of_int (int_opt args "seconds" ~default:spec.Spec.run_seconds) in
  let trace =
    match opt args "trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die "--trace: expected 0 or 1, got %S" v
  in
  let tr = Spans.create trace in
  match Run.run w ~seed ~seconds ~trace tr with
  | exception Run.Incorrect reason ->
    Printf.eprintf "benchsuite: %s seed %d: INCORRECT: %s\n" w.Run.name seed reason;
    print_endline (result_line ~correct:false ~attempted:1 ~failed:1 []);
    exit 1
  | r ->
    let metrics =
      if trace then select spec.Spec.per_layer w r.Run.per_layer ~per_layer:true
      else select spec.Spec.end_to_end w r.Run.end_to_end ~per_layer:false
    in
    List.iter
      (fun ((m : Spec.metric), v) ->
        Printf.printf "%-16s %-32s %16.6g %s\n" w.Run.name m.Spec.name v m.Spec.unit_)
      metrics;
    if trace then
      Printf.printf "[spans] %s\n" (J.to_string (Spans.to_json tr));
    print_endline (result_line ~correct:true ~attempted:r.Run.attempted ~failed:0 metrics)

(* ---- suite ---- *)

type child = { ok : bool; values : (string * float) list; spans : J.t }

let run_child ~workload ~seed ~seconds ~trace =
  let argv =
    [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0") ]
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list argv) in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc in
  let out = lines [] in
  let status = Unix.close_process_in ic in
  let spans =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"[spans] " l then
          Result.to_option (J.parse (String.sub l 8 (String.length l - 8)))
        else None)
      out
  in
  let parsed = match out with last :: _ -> Result.to_option (J.parse last) | [] -> None in
  let values =
    match Option.bind parsed (J.member "metrics") with
    | Some (J.Obj ms) ->
      List.filter_map
        (fun (k, v) ->
          match J.member "value" v with
          | Some (J.Float f) -> Some (k, f)
          | Some (J.Int i) -> Some (k, float_of_int i)
          | _ -> None)
        ms
    | _ -> []
  in
  {
    ok = status = Unix.WEXITED 0 && Option.bind parsed (J.member "correct") = Some (J.Bool true);
    values;
    spans = Option.value spans ~default:J.Null;
  }

let summary_json unit_ values =
  let s = Stats.summarize (Array.of_list values) in
  J.Obj
    [
      ("unit", J.Str unit_);
      ("median", J.Float s.Stats.median);
      ("q1", J.Float s.Stats.q1);
      ("q3", J.Float s.Stats.q3);
      ("min", J.Float s.Stats.min);
      ("max", J.Float s.Stats.max);
      ("n", J.Int s.Stats.n);
      ("values", J.Arr (List.map (fun v -> J.Float v) values));
    ]

(* untraced reps per workload in [suite] *)
let reps = 7

let suite args =
  let spec = Spec.load () in
  let seed = int_opt args "seed" ~default:1 in
  let seconds = spec.Spec.run_seconds in
  let names =
    match opt args "workload" with
    | Some w -> [ (workload_of_name w).Run.name ]
    | None -> spec.Spec.workloads
  in
  let failures = ref [] in
  let child ~workload ~trace label =
    let t0 = Unix.gettimeofday () in
    let c = run_child ~workload ~seed ~seconds ~trace in
    Printf.printf "[suite] %-16s %-8s %s (%.0fs)\n%!" workload label
      (if c.ok then "ok" else "FAILED") (Unix.gettimeofday () -. t0);
    if not c.ok then failures := (workload ^ " " ^ label) :: !failures;
    c
  in
  (* rep i of every workload before rep i+1: a co-tenant burst then lands
     on one rep of several workloads rather than on every rep of one *)
  let untraced =
    List.concat_map
      (fun rep ->
        List.map
          (fun w -> (w, child ~workload:w ~trace:false (Printf.sprintf "rep %d" rep)))
          names)
      (List.init reps (fun i -> i + 1))
  in
  let traced = List.map (fun w -> (w, child ~workload:w ~trace:true "traced")) names in
  Printf.printf "\n%-16s %-32s %-6s %12s %12s %12s %12s %12s %3s\n" "workload" "metric" "unit"
    "median" "q1" "q3" "min" "max" "n";
  let rows =
    List.map
      (fun w ->
        let runs = List.filter_map (fun (w', c) -> if w' = w then Some c else None) untraced in
        let e2e =
          List.filter_map
            (fun (m : Spec.metric) ->
              match List.filter_map (fun c -> List.assoc_opt m.Spec.name c.values) runs with
              | [] -> None
              | vs ->
                let s = Stats.summarize (Array.of_list vs) in
                Printf.printf "%-16s %-32s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %3d\n" w
                  m.Spec.name m.Spec.unit_ s.Stats.median s.Stats.q1 s.Stats.q3 s.Stats.min
                  s.Stats.max s.Stats.n;
                Some (m.Spec.name, summary_json m.Spec.unit_ vs))
            spec.Spec.end_to_end
        in
        let tc = List.assoc w traced in
        let layer =
          List.filter_map
            (fun (m : Spec.metric) ->
              Option.map
                (fun v ->
                  Printf.printf "%-16s %-32s %-6s %12.6g  (traced rep)\n" w m.Spec.name
                    m.Spec.unit_ v;
                  (m.Spec.name, J.Obj [ ("unit", J.Str m.Spec.unit_); ("value", J.Float v) ]))
                (List.assoc_opt m.Spec.name tc.values))
            spec.Spec.per_layer
        in
        (* tracing overhead: the traced rep's set-up against the untraced median *)
        let overhead =
          match
            ( List.assoc_opt "setup.wall_s" tc.values,
              List.filter_map (fun c -> List.assoc_opt "setup_s" c.values) runs )
          with
          | Some t, (_ :: _ as vs) ->
            let m = Stats.median (Array.of_list vs) in
            let pct = ((t /. m) -. 1.0) *. 100.0 in
            Printf.printf "%-16s %-32s %-6s %12.6g  (traced setup vs untraced median)\n" w
              "trace.overhead_pct" "%" pct;
            J.Float pct
          | _ -> J.Null
        in
        J.Obj
          [
            ("workload", J.Str w);
            ("end_to_end", J.Obj e2e);
            ("per_layer", J.Obj layer);
            ("trace_overhead_pct", overhead);
          ])
      names
  in
  Trend.emit "suite"
    [
      ("seed", J.Int seed);
      ("reps", J.Int reps);
      ("seconds", J.Int seconds);
      ("rows", J.Arr rows);
    ];
  Congest.Export.to_file "BENCH_suite-trace.json"
    (J.Obj
       [
         ("experiment", J.Str "suite-trace");
         ("seed", J.Int seed);
         ( "rows",
           J.Arr
             (List.map
                (fun (w, c) -> J.Obj [ ("workload", J.Str w); ("spans", c.spans) ])
                traced) );
       ]);
  print_endline "[json] wrote BENCH_suite-trace.json";
  if !failures <> [] then begin
    Printf.eprintf "benchsuite: failed runs: %s\n" (String.concat ", " (List.rev !failures));
    exit 1
  end

(* ---- suite-compare ---- *)

let suite_values path =
  let doc = match Trend.read_json path with Some d -> d | None -> die "cannot read %s" path in
  match J.member "rows" doc with
  | Some (J.Arr rows) ->
    List.filter_map
      (fun row ->
        match (J.member "workload" row, J.member "end_to_end" row) with
        | Some (J.Str w), Some (J.Obj ms) ->
          Some
            ( w,
              List.filter_map
                (fun (name, s) ->
                  match J.member "values" s with
                  | Some (J.Arr vs) ->
                    Some
                      ( name,
                        Array.of_list
                          (List.filter_map
                             (function
                               | J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None)
                             vs) )
                  | _ -> None)
                ms )
        | _ -> None)
      rows
  | _ -> die "%s: no rows" path

let suite_compare old_path new_path =
  let spec = Spec.load () in
  let olds = suite_values old_path and news = suite_values new_path in
  Printf.printf "%-16s %-16s %12s %12s %9s %8s %7s  %s\n" "workload" "metric" "old median"
    "new median" "change" "spread" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (w, nm) ->
      match List.assoc_opt w olds with
      | None -> Printf.printf "%-16s (not in %s)\n" w old_path
      | Some om ->
        List.iter
          (fun (m : Spec.metric) ->
            match (List.assoc_opt m.Spec.name om, List.assoc_opt m.Spec.name nm) with
            | Some o, Some n when Array.length o > 0 && Array.length n > 0 ->
              let v = Verdict.judge m.Spec.better ~bound:m.Spec.bound ~old_:o ~new_:n in
              if v = Verdict.Worse then incr worse;
              let so = Stats.summarize o and sn = Stats.summarize n in
              Printf.printf "%-16s %-16s %12.6g %12.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n" w
                m.Spec.name so.Stats.median sn.Stats.median
                (100.0 *. (sn.Stats.median -. so.Stats.median) /. Float.abs so.Stats.median)
                (100.0 *. Float.max (Stats.spread so) (Stats.spread sn))
                (100.0 *. m.Spec.bound) (Verdict.to_string v)
            | _ -> Printf.printf "%-16s %-16s (missing)\n" w m.Spec.name)
          spec.Spec.end_to_end)
    news;
  if !worse > 0 then begin
    Printf.printf "%d metric(s) worse\n" !worse;
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "suite" :: rest -> suite (parse_args rest)
  | [ "suite-compare"; o; n ] -> suite_compare o n
  | "suite-compare" :: _ -> die "usage: suite-compare OLD.json NEW.json"
  | args -> single (parse_args args)
