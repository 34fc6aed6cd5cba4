(** Versioned envelopes for machine-readable documents.

    Every JSON document that crosses a process boundary — the pipeline
    report written by the CLI, the payload of a checkpoint journal, a
    daemon query response — carries an explicit [schema_version] (and
    optionally a [kind] tag) so that readers can reject documents they
    do not understand instead of mis-parsing them.  One module owns the
    current version number; producers stamp with {!stamp} and consumers
    gate with {!check}. *)

val version : int
(** The current report schema version.  Bump when the shape of any
    enveloped document changes incompatibly. *)

val version_key : string
(** The field name, ["schema_version"]. *)

val stamp : ?kind:string -> ?landscape:string -> Json.t -> Json.t
(** Prefix an object with [schema_version] (and [kind] and [landscape],
    the fingerprint of the landscape a journaled document was computed
    over, when given).  Existing [schema_version]/[kind]/[landscape]
    fields are replaced.  Non-object payloads are wrapped as
    [{schema_version; kind?; landscape?; payload}]. *)

val version_of : Json.t -> int option
(** The document's [schema_version] as {!Json.int} reads it: [None] when
    it is absent, [null] or not an integer. *)

val kind_of : Json.t -> string option
(** The document's [kind] as {!Json.string} reads it. *)

val check :
  ?kind:string -> ?landscape:string -> Json.t -> (Json.t, string) result
(** Validate that the document carries the current {!version} (and the
    expected [kind] and [landscape] when given); returns the document
    unchanged.  A missing, non-integer, or mismatched version is an
    [Error] naming what was found; a landscape mismatch names both
    fingerprints. *)
