(** A durable, append-only checkpoint journal.

    The store behind crash-tolerant scans: checkpoints are appended as
    CRC32-framed, length-prefixed records and made visible by an explicit
    {e commit} marker written at batch boundaries.  A process killed at
    any instant — mid-frame, mid-commit, mid-compaction — loses at most
    the work since the last commit: {!open_journal} scans the file,
    truncates the torn or uncommitted tail, and hands back every record
    payload a commit covered since the last compaction.  A caller whose
    records each hold its whole state reads only the newest; one that
    journals a base followed by deltas folds them all, in order.

    On-disk layout: an 8-byte magic (["PXJRNL02"]) followed by one
    durability byte — ['S'] when commits are [fsync]ed to stable
    storage, ['U'] when they are not, so an operator inspecting a
    recovered file knows what crash-safety the writer promised — then
    frames.  A v1 file (["PXJRNL01"], no durability byte) is refused
    with an [Error] naming the format.  Each frame is a
    1-byte kind (['R'] record, ['C'] commit), a 4-byte big-endian payload
    length, a 4-byte big-endian CRC32 (IEEE 802.3 polynomial) of the
    payload, and the payload bytes; commit frames have an empty payload.
    Recovery accepts a frame only if its header is complete, its payload
    fits inside the file and its CRC matches — the first violation ends
    the trusted region, and the file is truncated back to the end of the
    last {e committed} frame inside it.

    Appends go through a single [write] on an open descriptor and are
    optionally [fsync]ed at commit; {!compact} rewrites the journal as
    one caller-supplied record + commit under a temporary name and
    atomically [Sys.rename]s it into place, so the journal never grows
    without bound and is never observable in a half-rewritten state.

    All failures (I/O errors, foreign files, corrupt magic) are returned
    as [Error message]; nothing in this module raises on bad input. *)

type t

(** What {!open_journal} found in an existing file. *)
type recovery = {
  rec_state : string option;
      (** The newest committed payload, [None] for a fresh/empty journal. *)
  rec_records : string list;
      (** Every committed payload since the last compaction, oldest
          first; {!rec_state} is its last element. *)
  rec_committed : int;  (** Committed record frames retained. *)
  rec_dropped_bytes : int;
      (** Torn or uncommitted tail bytes truncated away — the work the
          crash cost, bounded by one batch when commits follow batches. *)
  rec_durable : bool;
      (** The durability mode recorded in the file's header: [true]
          when the writer [fsync]ed commits, [false] when it did not.
          Informational — the [fsync] argument of {!open_journal}
          governs this handle regardless. *)
}

val open_journal :
  ?fsync:bool -> ?compact_bytes:int -> string -> (t * recovery, string) result
(** Open (creating if absent) the journal at a path, running recovery
    first.  [fsync] (default [true]) forces commits to stable storage —
    turn it off only for tests.  [compact_bytes] (default 64 MiB) is the
    size past which {!compaction_due} holds. *)

val append : t -> string -> (unit, string) result
(** Append one record frame.  Invisible to recovery until {!commit}. *)

val commit : t -> (unit, string) result
(** Write a commit marker ([fsync]ing when enabled): every record
    appended so far becomes part of the recovery state.  Never compacts;
    a caller that journals deltas checks {!compaction_due} after it. *)

val checkpoint : t -> string -> (unit, string) result
(** [append] + [commit], for journals whose every record is the whole
    state: past [compact_bytes] it then compacts to this same payload. *)

val compaction_due : t -> bool
(** The file has grown past [compact_bytes]. *)

val compact : t -> string -> (unit, string) result
(** Rewrite the journal as magic + one record holding the given payload
    (+ commit) via a temporary file and an atomic rename; the payload
    must hold the whole committed state.  A crash during compaction
    leaves either the old or the new journal intact, never a mix. *)

val last_committed : t -> string option
(** The payload {!open_journal} would currently return as [rec_state]. *)

val path : t -> string
val close : t -> unit
