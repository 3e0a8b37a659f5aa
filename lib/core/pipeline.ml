type verdict = Identical | Diverged of string list | Skipped

let verdict_name = function
  | Identical -> "identical"
  | Diverged _ -> "diverged"
  | Skipped -> "skipped"

type t = {
  exact : Dist_scheme.outcome;
  upper : Dist_hopset.outcome option;
  scheme : Scheme.t option;
  exact_gate : verdict;
  upper_gate : verdict;
  gate_mode : Dist_scheme.gate_mode;
  failures : Protocol.failure list;
  metrics : Congest.Metrics.t;
  phases : (string * int) list;
  traffic : (string * Superstep.traffic) list;
}

let gate check failures f =
  if check && failures = [] then match f () with [] -> Identical | ds -> Diverged ds
  else Skipped

let run ~rng ~k ?(params = Scheme.Params.default) ?faults ?reliable ?max_rounds
    ?domains ?(check = true) ?(full = true) g =
  let gate_mode = Dist_scheme.auto_gate_mode (Dgraph.Graph.n g) in
  (* each gate re-draws its stage's randomness from a twin of the state the
     stage starts from *)
  let exact_rng = Random.State.copy rng in
  let ds =
    Dist_scheme.run ~rng ~k ?b:params.Scheme.Params.b ?faults ?reliable
      ?max_rounds ?domains g
  in
  let exact_gate =
    gate check ds.Dist_scheme.failures (fun () ->
        Dist_scheme.check_against_centralized ~rng:exact_rng ~mode:gate_mode g ds)
  in
  let exact_only =
    {
      exact = ds;
      upper = None;
      scheme = None;
      exact_gate;
      upper_gate = Skipped;
      gate_mode;
      failures = ds.Dist_scheme.failures;
      metrics = ds.Dist_scheme.report;
      phases = ds.Dist_scheme.phase_rounds;
      traffic = ds.Dist_scheme.phase_traffic;
    }
  in
  if (not full) || ds.Dist_scheme.failures <> [] then exact_only
  else
    let upper_rng = Random.State.copy rng in
    let o =
      Dist_hopset.run ~rng ~params ?faults ?reliable ?max_rounds ?domains g ds
    in
    let upper_gate =
      gate check o.Dist_hopset.failures (fun () ->
          Dist_hopset.check_against_centralized ~rng:upper_rng ~mode:gate_mode g o)
    in
    let scheme =
      Option.map (fun _ -> Dist_hopset.build_scheme ~rng g ds o) o.Dist_hopset.upper
    in
    {
      exact_only with
      upper = Some o;
      scheme;
      upper_gate;
      failures = o.Dist_hopset.failures;
      metrics = Congest.Metrics.merge ds.Dist_scheme.report o.Dist_hopset.report;
      phases = ds.Dist_scheme.phase_rounds @ o.Dist_hopset.phase_rounds;
      traffic = ds.Dist_scheme.phase_traffic @ o.Dist_hopset.phase_traffic;
    }
