(** The live ops console behind [proxion top]: digests a daemon's
    [metrics] JSON snapshot (plus [health] and [flight] responses) into
    a terminal dashboard — request throughput and per-method latency
    quantiles with their max-latency trace exemplars, shed/drain state,
    dirty-set and retraction counters, per-endpoint transport health,
    and the flight-recorder tail.

    Pure (no sockets): the CLI polls over a {!Client} connection and
    feeds the JSON here, which keeps every piece testable offline. *)

type histo = {
  h_labels : (string * string) list;
  h_buckets : (float * float) list;
      (** Upper bound ([infinity] for +Inf), cumulative count. *)
  h_sum : float;
  h_count : float;
  h_exemplar : (string * float) option;  (** (trace_id, seconds). *)
}

type view = {
  v_scalars : (string * ((string * string) list * float) list) list;
      (** Family name -> (labels, value) series; counters and gauges. *)
  v_histos : (string * histo list) list;
  v_draining : bool;  (** From [health]; defaults false. *)
  v_flight : (string * int) list;  (** Event-kind counts in the ring. *)
  v_flight_tail : string list;  (** Newest events, one line each. *)
}

val of_metrics_json : Report.Json.t -> (view, string) result
(** Read a [metrics {"format": "json"}] response body through the
    {!Report.Json} readers.  A snapshot they reject — a family, series,
    bucket or exemplar missing a field or holding the wrong type — is an
    [Error] naming the field.  Families without series are left out. *)

val with_health : view -> Report.Json.t -> view
(** Fold a [health] response's [draining] flag into the view; a
    response without a boolean [draining] leaves it unchanged. *)

val with_flight : ?tail:int -> view -> Report.Json.t -> view
(** Fold a [flight] response into the view: per-kind counts plus the
    newest [tail] (default 8) events rendered one per line.  A response
    the readers reject leaves the view unchanged. *)

val scalar_total : view -> string -> float
(** Sum of a family's series across all label sets (0 when absent). *)

val rate : prev:view option -> dt:float -> view -> string -> float
(** Per-second increase of a counter family between two polls; 0 when
    no previous poll (or [dt] <= 0). *)

val render : ?prev:view -> ?dt:float -> view -> string
(** The dashboard text.  [prev]/[dt] (seconds between polls) enable the
    req/s rate line. *)
