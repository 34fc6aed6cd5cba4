module Opcode = Evm.Opcode
module Disasm = Evm.Disasm

type slot_id = Fixed of U256.t | Mapping of U256.t

let slot_id_compare a b =
  match (a, b) with
  | Fixed x, Fixed y | Mapping x, Mapping y -> U256.compare x y
  | Fixed _, Mapping _ -> -1
  | Mapping _, Fixed _ -> 1

let slot_id_to_string = function
  | Fixed s -> "slot " ^ U256.to_hex s
  | Mapping s -> "mapping@" ^ U256.to_hex s

type kind = Read | Write

type access = {
  a_slot : slot_id;
  a_offset : int;
  a_width : int;
  a_kind : kind;
  a_guards_caller : bool;
}

(* Mutable read records let later shifts/masks refine earlier SLOADs. *)
type read_rec = {
  r_slot : slot_id;
  mutable r_offset : int;
  mutable r_width : int;
  mutable r_guards : bool;
}

type sv =
  | Known of U256.t
  | Caller_v
  | Sload_v of read_rec
  | Masked of sv * int  (* low-byte mask of this width applied *)
  | Shifted_left of sv * int  (* byte shift *)
  | Or_v of sv * sv
  | Hash_v of U256.t option  (* mapping slot; base when known *)
  | Unknown

(* Is [m] the canonical low mask of some byte width? *)
let low_mask_width m =
  let rec check w =
    if w > 32 then None
    else if U256.equal m (U256.pred (U256.shift_left U256.one (8 * w))) then
      Some w
    else check (w + 1)
  in
  check 1

let profile code =
  let reads : read_rec list ref = ref [] in
  let writes : access list ref = ref [] in
  let record_read slot =
    let r = { r_slot = slot; r_offset = 0; r_width = 32; r_guards = false } in
    reads := r :: !reads;
    r
  in
  let record_write slot ~offset ~width =
    writes :=
      {
        a_slot = slot;
        a_offset = offset;
        a_width = width;
        a_kind = Write;
        a_guards_caller = false;
      }
      :: !writes
  in
  (* Width of a stored value, CRUSH's type inference at the write site. *)
  let rec write_shape = function
    | Or_v (a, b) -> (
        (* A read-modify-write merge: take the inserted component. *)
        match (write_shape_opt a, write_shape_opt b) with
        | Some s, None | None, Some s -> Some s
        | Some s, Some _ -> Some s
        | None, None -> None)
    | Shifted_left (v, k) -> (
        match write_shape v with
        | Some (off, w) -> Some (off + k, w)
        | None -> Some (k, 32 - k))
    | Masked (_, w) -> Some (0, w)
    | Caller_v -> Some (0, 20)
    | Sload_v r -> Some (r.r_offset, r.r_width)
    | _ -> None
  and write_shape_opt v =
    match v with
    | Or_v _ | Shifted_left _ | Masked _ | Caller_v -> write_shape v
    | _ -> None
  in
  let involves_caller v =
    let rec go = function
      | Caller_v -> true
      | Masked (v, _) | Shifted_left (v, _) -> go v
      | Or_v (a, b) -> go a || go b
      | _ -> false
    in
    go v
  in
  let mark_guard v =
    let rec go = function
      | Sload_v r -> r.r_guards <- true
      | Masked (v, _) | Shifted_left (v, _) -> go v
      | Or_v (a, b) ->
          go a;
          go b
      | _ -> ()
    in
    go v
  in
  let run_block ~entry_stack instrs =
    let stack = ref entry_stack in
    let memory : (int, sv) Hashtbl.t = Hashtbl.create 8 in
    let push v = stack := v :: !stack in
    let pop () =
      match !stack with
      | [] -> Unknown
      | v :: rest ->
          stack := rest;
          v
    in
    let step (i : Disasm.instr) =
      match i.Disasm.opcode with
      | Opcode.PUSH _ -> push (Known (Disasm.operand_value i))
      | Opcode.PUSH0 -> push (Known U256.zero)
      | Opcode.CALLER -> push Caller_v
      | Opcode.DUP n ->
          let v = try List.nth !stack (n - 1) with _ -> Unknown in
          push v
      | Opcode.SWAP n ->
          let arr = Array.of_list !stack in
          if Array.length arr > n then begin
            let tmp = arr.(0) in
            arr.(0) <- arr.(n);
            arr.(n) <- tmp;
            stack := Array.to_list arr
          end
      | Opcode.POP -> ignore (pop ())
      | Opcode.AND -> (
          let a = pop () in
          let b = pop () in
          match (a, b) with
          | Known m, v | v, Known m -> (
              match low_mask_width m with
              | Some w -> (
                  (* Low mask: refines a read's width or types a value. *)
                  (match v with
                  | Sload_v r -> r.r_width <- min r.r_width w
                  | _ -> ());
                  push (Masked (v, w)))
              | None -> (
                  match v with
                  | Sload_v _ ->
                      (* Clearing mask of a read-modify-write; the paired
                         OR supplies the inserted value. *)
                      push v
                  | _ -> push Unknown))
          | _ -> push Unknown)
      | Opcode.OR ->
          let a = pop () in
          let b = pop () in
          push (Or_v (a, b))
      | Opcode.SHR -> (
          let shift = pop () in
          let v = pop () in
          match (shift, v) with
          | Known k, Sload_v r when U256.to_int k <> None ->
              let bytes = Option.get (U256.to_int k) / 8 in
              r.r_offset <- r.r_offset + bytes;
              if r.r_width = 32 then r.r_width <- 32 - bytes;
              push v
          | _ -> push Unknown)
      | Opcode.SHL -> (
          let shift = pop () in
          let v = pop () in
          match shift with
          | Known k when U256.to_int k <> None ->
              push (Shifted_left (v, Option.get (U256.to_int k) / 8))
          | _ -> push Unknown)
      | Opcode.EQ ->
          let a = pop () in
          let b = pop () in
          if involves_caller a then mark_guard b;
          if involves_caller b then mark_guard a;
          push Unknown
      | Opcode.SLOAD -> (
          let slot = pop () in
          match slot with
          | Known s -> push (Sload_v (record_read (Fixed s)))
          | Hash_v (Some base) -> push (Sload_v (record_read (Mapping base)))
          | _ -> push Unknown)
      | Opcode.SSTORE -> (
          let slot = pop () in
          let value = pop () in
          let slot_id =
            match slot with
            | Known s -> Some (Fixed s)
            | Hash_v (Some base) -> Some (Mapping base)
            | _ -> None
          in
          match slot_id with
          | None -> ()
          | Some sid ->
              let offset, width =
                match write_shape value with
                | Some (off, w) -> (off, w)
                | None -> (0, 32)
              in
              record_write sid ~offset ~width)
      | Opcode.MSTORE -> (
          let off = pop () in
          let v = pop () in
          match off with
          | Known o when U256.to_int o <> None ->
              Hashtbl.replace memory (Option.get (U256.to_int o)) v
          | _ -> ())
      | Opcode.KECCAK256 -> (
          let off = pop () in
          let len = pop () in
          match (off, len) with
          | Known o, Known l
            when U256.to_int o <> None && U256.equal l (U256.of_int 0x40) -> (
              (* Solidity mapping-slot derivation: the base slot word sits
                 32 bytes above the key. *)
              let base_off = Option.get (U256.to_int o) + 32 in
              match Hashtbl.find_opt memory base_off with
              | Some (Known base) -> push (Hash_v (Some base))
              | _ -> push (Hash_v None))
          | _ -> push (Hash_v None))
      | op ->
          let consumed, produced = Opcode.stack_arity op in
          for _ = 1 to consumed do
            ignore (pop ())
          done;
          for _ = 1 to produced do
            push Unknown
          done
    in
    List.iter step instrs;
    !stack
  in
  (* Propagate symbolic stacks along statically resolved CFG edges
     (first-predecessor-wins; unknown edges contribute an empty stack, so
     unreached or dynamically-reached blocks degrade to the conservative
     per-block behaviour rather than being skipped). *)
  let cfg = Evm.Cfg.build code in
  let entry_stacks : (int, sv list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Evm.Cfg.block) ->
      let entry_stack =
        Option.value ~default:[] (Hashtbl.find_opt entry_stacks b.Evm.Cfg.b_entry)
      in
      let exit_stack = run_block ~entry_stack b.Evm.Cfg.b_instrs in
      List.iter
        (function
          | Evm.Cfg.Jump_to d | Evm.Cfg.Fallthrough d ->
              if not (Hashtbl.mem entry_stacks d) then
                Hashtbl.replace entry_stacks d exit_stack
          | Evm.Cfg.Unknown -> ())
        b.Evm.Cfg.b_succs)
    (Evm.Cfg.blocks cfg);
  let read_accesses =
    List.rev_map
      (fun r ->
        {
          a_slot = r.r_slot;
          a_offset = r.r_offset;
          a_width = r.r_width;
          a_kind = Read;
          a_guards_caller = r.r_guards;
        })
      !reads
  in
  let all = read_accesses @ List.rev !writes in
  (* Deduplicate identical records. *)
  List.sort_uniq compare all

let reads accesses = List.filter (fun a -> a.a_kind = Read) accesses
let writes accesses = List.filter (fun a -> a.a_kind = Write) accesses

let slots accesses =
  let seen = ref [] in
  List.iter
    (fun a ->
      if not (List.exists (fun s -> slot_id_compare s a.a_slot = 0) !seen) then
        seen := a.a_slot :: !seen)
    accesses;
  List.rev !seen
