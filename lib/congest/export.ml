(* JSON / CSV export of run reports — no external dependencies.

   The Json submodule is a tiny value type with a serializer and a
   recursive-descent parser. The parser exists so round-trip tests and the
   [drr json-check] CI validator need no third-party library; it accepts
   exactly the JSON this module emits (plus ordinary whitespace), which is a
   strict subset of RFC 8259. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 || Char.code c = 0x7f ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* Floats print with enough digits to round-trip exactly; integral floats
     get a ".0" so the parser keeps the Int/Float distinction. *)
  let float_to buf f =
    if not (Float.is_finite f) then
      (* nan and +-inf have no JSON spelling *)
      Buffer.add_string buf "null"
    else begin
      let s = Printf.sprintf "%.17g" f in
      Buffer.add_string buf s;
      if
        String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s
      then Buffer.add_string buf ".0"
    end

  let rec to_buf buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> float_to buf f
    | Str s -> escape_to buf s
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buf buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buf buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    to_buf buf j;
    Buffer.contents buf

  exception Fail of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let next () =
      if !pos >= n then fail "unexpected end of input";
      let c = s.[!pos] in
      incr pos;
      c
    in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      let g = next () in
      if g <> c then fail (Printf.sprintf "expected %c, got %c" c g)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents buf
        | '\\' -> (
          (match next () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let hex = ref 0 in
            for _ = 1 to 4 do
              let c = next () in
              let d =
                match c with
                | '0' .. '9' -> Char.code c - Char.code '0'
                | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                | _ -> fail "bad \\u escape"
              in
              hex := (!hex * 16) + d
            done;
            let cp = !hex in
            if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
            else if cp < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
            end
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ())
        | c when Char.code c < 0x20 -> fail "raw control character in string"
        | c ->
          Buffer.add_char buf c;
          go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      if peek () = Some '-' then incr pos;
      let digits () =
        let d0 = !pos in
        while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
          incr pos
        done;
        if !pos = d0 then fail "digit expected"
      in
      digits ();
      if peek () = Some '.' then begin
        is_float := true;
        incr pos;
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        is_float := true;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
      | _ -> ());
      let lit = String.sub s start (!pos - start) in
      if !is_float then Float (float_of_string lit)
      else
        match int_of_string_opt lit with
        | Some i -> Int i
        | None -> Float (float_of_string lit)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | c -> fail (Printf.sprintf "expected , or } in object, got %c" c)
          in
          members []
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elements (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | c -> fail (Printf.sprintf "expected , or ] in array, got %c" c)
          in
          elements []
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %c" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage after value";
      v
    with
    | v -> Ok v
    | exception Fail (at, msg) ->
      Error (Printf.sprintf "json parse error at byte %d: %s" at msg)

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

open Json

(* {1 Converters} *)

let histogram h =
  Obj
    [
      ("count", Int (Histogram.count h));
      ("mean", Float (Histogram.mean h));
      ("p50", Int (Histogram.percentile h 50));
      ("p95", Int (Histogram.percentile h 95));
      ("max", Int (Histogram.max_value h));
      ( "buckets",
        Arr
          (List.map
             (fun (v, c) -> Arr [ Int v; Int c ])
             (Histogram.buckets h)) );
    ]

let metrics (m : Metrics.t) =
  Obj
    [
      ("rounds", Int m.Metrics.rounds);
      ("wakeups", Int m.Metrics.wakeups);
      ("messages", Int m.Metrics.messages);
      ("message_words", Int m.Metrics.message_words);
      ("max_edge_load", Int m.Metrics.max_edge_load);
      ("peak_memory_max", Int (Metrics.peak_memory_max m));
      ("peak_memory_avg", Float (Metrics.peak_memory_avg m));
      ("dropped", Int m.Metrics.dropped);
      ("duplicated", Int m.Metrics.duplicated);
      ("delayed", Int m.Metrics.delayed);
      ("retransmitted", Int m.Metrics.retransmitted);
      ( "churn",
        Obj
          [
            ("inserts", Int m.Metrics.churn_inserts);
            ("deletes", Int m.Metrics.churn_deletes);
            ("reweights", Int m.Metrics.churn_reweights);
            ("joins", Int m.Metrics.churn_joins);
            ("leaves", Int m.Metrics.churn_leaves);
            ("flaps", Int m.Metrics.churn_flaps);
          ] );
      ("message_size", histogram m.Metrics.message_size);
      ("edge_load", histogram m.Metrics.edge_load);
      ("memory", histogram (Metrics.memory_hist m));
    ]

let span s =
  let base =
    [
      ("name", Str (Trace.span_name s));
      ("depth", Int (Trace.span_depth s));
      ("phase", Bool (Trace.span_is_phase s));
      ("start_round", Int (Trace.span_start s));
      ("end_round", Int (Trace.span_end s));
      ("rounds", Int (Trace.span_rounds s));
      ("messages", Int (Trace.span_messages s));
      ("words", Int (Trace.span_words s));
    ]
  in
  let base =
    if Trace.span_detail s = "" then base
    else base @ [ ("detail", Str (Trace.span_detail s)) ]
  in
  let base =
    if Trace.span_peak_memory s = 0 then base
    else base @ [ ("peak_memory", Int (Trace.span_peak_memory s)) ]
  in
  Obj base

let round_sample (r : Trace.round_sample) =
  Obj
    [
      ("round", Int r.Trace.r_round);
      ("messages", Int r.Trace.r_messages);
      ("words", Int r.Trace.r_words);
      ("wakeups", Int r.Trace.r_wakeups);
      ("max_edge_load", Int r.Trace.r_max_edge_load);
      ("faults", Int r.Trace.r_faults);
    ]

let trace t =
  Obj
    [
      ("spans", Arr (List.map span (Trace.spans t)));
      ("rounds_recorded", Int (Trace.rounds_recorded t));
      ( "rounds",
        Arr (Array.to_list (Array.map round_sample (Trace.rounds t))) );
      ("events_recorded", Int (Trace.events_recorded t));
      ( "events",
        Arr
          (List.map
             (fun (r, label) -> Obj [ ("round", Int r); ("label", Str label) ])
             (Trace.events t)) );
    ]

let outcome (o : Sim.outcome) =
  match o with
  | Sim.Completed -> Str "completed"
  | Sim.Round_limit -> Str "round_limit"
  | Sim.Deadlocked d ->
    Obj
      [
        ("deadlocked", Int d.Sim.total);
        ( "stuck",
          Arr
            (List.map
               (fun (v, w) ->
                 Obj
                   [
                     ("vertex", Int v);
                     ("wake", Str (Format.asprintf "%a" Sim.pp_wake w));
                   ])
               d.Sim.stuck) );
      ]

let report (r : Sim.report) =
  Obj [ ("outcome", outcome r.Sim.outcome); ("metrics", metrics r.Sim.metrics) ]

let to_channel oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n'

let to_file path j =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc j)
