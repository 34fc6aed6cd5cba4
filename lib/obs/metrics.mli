(** A metrics registry: counters, gauges and fixed-bucket histograms with
    labels, exposed as Prometheus text exposition or as a JSON snapshot.

    The registry is the machine-readable substrate behind the engine's
    per-stage cost accounting (the paper's §6 evaluation numbers): API
    calls per method, emulation steps per contract, retry volume, breaker
    flaps, dead-letter classes, stage latency distributions.

    {b Determinism.}  Exposition output is fully sorted (families by
    name, series by label set), values are formatted canonically, and
    counter/histogram updates are pure additions — so two runs that make
    the same observations produce byte-identical output regardless of
    registration or observation interleaving, {e except} for
    wall-clock-derived values.  Families carry a [volatile] flag for
    those; writers can suppress volatile families (and the snapshot
    timestamp), which is how the CI diff job asserts a [DOMAINS=4] scan
    snapshots byte-identically to a [DOMAINS=1] one.

    {b One registry, many writers.}  Worker domains record straight into
    the one registry.  A series whose observations are all
    integer-valued (counts, steps) sums exactly in any order, so its
    value does not depend on which worker recorded first; a series with
    float observations (backoff seconds) is recorded from one thread in
    a fixed order — the engine's input-order merge — so its rounding is
    the same at every worker count. *)

type t
(** A registry.  All operations are thread-safe. *)

type family
(** A handle to one metric family (name, kind, buckets, volatility). *)

val create : unit -> t

val counter : t -> ?help:string -> ?volatile:bool -> string -> family
(** Register (or look up) a monotonically increasing counter.  Raises
    [Invalid_argument] if [name] is already registered with a different
    kind, or is not a valid Prometheus metric name. *)

val gauge : t -> ?help:string -> ?volatile:bool -> string -> family
(** Register a gauge (a settable value). *)

val histogram :
  t -> ?help:string -> ?volatile:bool -> buckets:float list -> string -> family
(** Register a fixed-bucket histogram.  [buckets] are the finite upper
    bounds, strictly increasing; a [+Inf] bucket is implicit.  Raises
    [Invalid_argument] on an empty or non-monotonic bucket list, or on a
    kind/bucket mismatch with an existing registration. *)

val inc : ?labels:(string * string) list -> ?by:float -> t -> family -> unit
(** Add [by] (default 1, must be >= 0) to a counter series. *)

val set : ?labels:(string * string) list -> t -> family -> float -> unit
(** Set a gauge series. *)

val observe :
  ?labels:(string * string) list ->
  ?exemplar:string ->
  t ->
  family ->
  float ->
  unit
(** Record one observation into a histogram series.  [exemplar]
    attaches an identity (a trace_id) to the observation: the series
    keeps the exemplar of its maximum-valued observation — first
    observation wins an empty slot, later ones only on a strictly
    greater value, so ties keep the earliest id and the result is
    deterministic for a given observation order. *)

val find : t -> string -> family option
(** Look up an already-registered family by name — for reading metrics
    recorded by another component without knowing its bucket layout. *)

(** {1 Pre-resolved handles}

    A {!handle} pins one (family, label set) series so hot paths pay a
    mutex and an array update per observation instead of label
    canonicalization plus a hash lookup.  A handle stays valid for the
    registry's lifetime and may be used from any domain. *)

type handle

val handle : ?labels:(string * string) list -> t -> family -> handle
(** Resolve (and create if absent) the series for [labels]. *)

val hinc : ?by:float -> handle -> unit
(** {!inc} through a pre-resolved counter handle. *)

val hset : handle -> float -> unit
(** {!set} through a pre-resolved gauge handle. *)

val hobserve : ?exemplar:string -> handle -> float -> unit
(** {!observe} through a pre-resolved histogram handle. *)

(** {1 Reading} *)

val value : ?labels:(string * string) list -> t -> family -> float option
(** Current value of a counter/gauge series ([None] if never touched).
    For histograms, returns the observation count. *)

val exemplar :
  ?labels:(string * string) list -> t -> family -> (string * float) option
(** The (trace_id, value) exemplar of a histogram series's max-valued
    observation, when one was recorded. *)

val quantile : (float * float) list -> float -> float
(** [quantile buckets q]: the [q]-quantile of a histogram given as its
    cumulative [(upper bound, count)] buckets, [+Inf] last (as {!to_json}
    writes them), linearly interpolated within the bucket the rank falls
    in the way Prometheus' [histogram_quantile] does.  A rank in the
    [+Inf] bucket clamps to the largest finite bound; an empty histogram
    reads 0. *)

type summary = { s_count : int; s_p50 : float; s_p90 : float; s_p99 : float }

val summarize : ?labels:(string * string) list -> t -> family -> summary option
(** Percentile estimates of a histogram series through {!quantile}.
    [None] when the series has no observations. *)

(** {1 Writers} *)

val to_prometheus : ?suppress_volatile:bool -> t -> string
(** Prometheus text exposition (format version 0.0.4): [# HELP]/[# TYPE]
    headers, histogram [_bucket]/[_sum]/[_count] expansion, families and
    series in sorted order.  [suppress_volatile] (default false) omits
    families registered as volatile.  Histogram series carrying an
    exemplar additionally emit a
    [# EXEMPLAR name{labels} trace_id value] comment line after their
    [_count] — 0.0.4 scrapers ignore it, {!lint} validates it. *)

val to_json : ?suppress_volatile:bool -> ?timestamp:float -> t -> Report.Json.t
(** JSON snapshot: [{"timestamp": ...?, "metrics": [...]}].  The
    timestamp field is present only when [timestamp] is given — omit it
    (and suppress volatile families) for byte-comparable snapshots.
    Histogram bucket counts are cumulative (Prometheus semantics, same
    as the text exposition).  Histogram series with an exemplar carry
    an [{"exemplar": {"trace_id", "value"}}] field. *)

(** {1 Exposition linting} *)

val lint : string -> (unit, string list) result
(** Validate a Prometheus text exposition: metric/label name syntax,
    float-parsable values, every sample covered by a [# TYPE] header,
    no duplicate series, histogram buckets monotonic with a [+Inf]
    bucket matching [_count], and [_sum]/[_count] present.
    [# EXEMPLAR] comment lines must name a declared histogram family
    with a 16-hex-char trace_id and a float value.  Returns all
    violations found. *)
