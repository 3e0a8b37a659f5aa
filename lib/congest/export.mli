(** JSON export of run reports, with no external dependencies.

    Everything the observability layer collects — {!Metrics} (including its
    histograms), {!Trace} spans/rings, {!Sim.report} — serializes through
    the converters below. {!Json.parse} reads the emitted JSON back, so
    round-trip tests and the [drr json-check] CI validator need no
    third-party library. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact serialization. Strings are escaped per RFC 8259: the two
      mandatory characters, the usual short escapes, and [\uXXXX] for the
      remaining C0 controls plus DEL (0x7f). All other bytes — in
      particular bytes ≥ 0x80 — pass through verbatim, so a [Str] holding
      valid UTF-8 serializes as that same valid UTF-8 (and a [Str] holding
      arbitrary non-UTF-8 bytes emits those bytes raw; the output is then
      only byte-clean, not charset-clean). Integral floats print with a
      trailing [".0"] so [parse] preserves the [Int]/[Float] distinction;
      non-finite floats print as [null]. *)

  val parse : string -> (t, string) result
  (** Recursive-descent parser for the JSON this module emits (a strict
      subset of RFC 8259 — no duplicate-key policy, [\u] escapes decode to
      UTF-8, raw bytes ≥ 0x80 are accepted verbatim).
      [parse (to_string j) = Ok j] for every [j] free of non-finite floats,
      including [Str] values carrying arbitrary bytes. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] on anything else. *)
end

(** {1 JSON converters} *)

val histogram : Histogram.t -> Json.t
(** [{count; mean; p50; p95; max; buckets}]. *)

val metrics : Metrics.t -> Json.t
val span : Trace.span -> Json.t
val round_sample : Trace.round_sample -> Json.t
val trace : Trace.t -> Json.t
val outcome : Sim.outcome -> Json.t
val report : Sim.report -> Json.t

(** {1 IO helpers} *)

val to_channel : out_channel -> Json.t -> unit
(** Serialized value plus a trailing newline. *)

val to_file : string -> Json.t -> unit
