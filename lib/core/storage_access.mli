(** Storage-access profiling of EVM bytecode — the program-slicing and
    type-inference stage of the CRUSH approach ProxioN embeds (§5.2).

    A lightweight abstract interpreter runs over each basic block with a
    symbolic stack.  SLOAD/SSTORE sites whose slot operand is a known
    constant (or a keccak-derived mapping slot with a known base) become
    {!access} records; the shift/mask idioms solc emits for packed
    variables ([SHR k; AND (2^8w - 1)] on reads, [AND mask; SHL k; ...; OR]
    read-modify-writes) refine each access to a byte offset and width —
    recovering the variable's "type" in the sense CRUSH compares.
    Reads that flow into an [EQ] against [CALLER] and then a [JUMPI] are
    flagged as access-control guards; CRUSH calls these sensitive slots. *)

type slot_id =
  | Fixed of U256.t
  | Mapping of U256.t  (** keccak-derived element of the base slot. *)

val slot_id_compare : slot_id -> slot_id -> int
val slot_id_to_string : slot_id -> string

type kind = Read | Write

type access = {
  a_slot : slot_id;
  a_offset : int;  (** Byte offset from the least-significant end. *)
  a_width : int;  (** Bytes; 32 when unrefined. *)
  a_kind : kind;
  a_guards_caller : bool;
      (** This read takes part in a caller-identity comparison. *)
}

val profile : string -> access list
(** All storage accesses recoverable from the bytecode, deduplicated. *)

val reads : access list -> access list
val writes : access list -> access list

val slots : access list -> slot_id list
(** Distinct slots touched, in first-touch order. *)
