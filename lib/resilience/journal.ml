(* See journal.mli for the format.  Invariants maintained here:
   - bytes <= [j_size] are always a valid committed prefix: magic, then
     whole frames, ending on a commit marker (or the bare magic);
   - every mutation of the file is either a single append [write] past
     [j_size] or an atomic whole-file replacement (compaction), so a kill
     at any instant leaves a file recovery can truncate back to a commit. *)

let magic = "PXJRNL02"
let magic_len = String.length magic

(* The v2 header records the durability mode the journal was written
   under: magic, then one byte — 'S' when commits fsync to stable
   storage, 'U' when they do not. *)
let header_len = magic_len + 1
let durability_byte fsync = if fsync then 'S' else 'U'
let header fsync = magic ^ String.make 1 (durability_byte fsync)
let frame_header_len = 9 (* kind byte + 4-byte length + 4-byte CRC32 *)

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected, table-driven)                         *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let frame kind payload =
  let len = String.length payload in
  let b = Bytes.create (frame_header_len + len) in
  Bytes.set b 0 kind;
  Bytes.set_int32_be b 1 (Int32.of_int len);
  Bytes.set_int32_be b 5 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b frame_header_len len;
  b

let u32 s off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF

(* Walk the frames of [data], stopping at the first sign of damage: a
   truncated header, an unknown kind, a payload running past EOF, a CRC
   mismatch, or a non-empty commit.  Returns the record payloads commits
   cover, newest first, and the offset just past the last commit. *)
let scan ~start data =
  let file_len = String.length data in
  let rec go pos pending committed end_ok =
    if pos + frame_header_len > file_len then (committed, end_ok)
    else
      let kind = data.[pos] in
      if kind <> 'R' && kind <> 'C' then (committed, end_ok)
      else
        let len = u32 data (pos + 1) in
        let crc = u32 data (pos + 5) in
        if len > file_len - pos - frame_header_len then (committed, end_ok)
        else
          let payload = String.sub data (pos + frame_header_len) len in
          let next = pos + frame_header_len + len in
          if crc32 payload <> crc then (committed, end_ok)
          else if kind = 'C' then
            if len <> 0 then (committed, end_ok)
            else go next [] (pending @ committed) next
          else go next (payload :: pending) committed end_ok
  in
  go start [] [] start

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  j_path : string;
  j_fsync : bool;
  j_compact : int;
  mutable j_fd : Unix.file_descr;
  mutable j_size : int;
  mutable j_last : string option; (* most recently appended record *)
  mutable j_committed : string option;
}

type recovery = {
  rec_state : string option;
  rec_records : string list;
  rec_committed : int;
  rec_dropped_bytes : int;
  rec_durable : bool;
}

let path t = t.j_path
let last_committed t = t.j_committed
let fail msg = raise (Sys_error msg)

let guard f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "journal: %s: %s" fn (Unix.error_message e))
  | exception Sys_error m -> Error ("journal: " ^ m)

let write_all fd b =
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let sync t = if t.j_fsync then Unix.fsync t.j_fd

let open_journal ?(fsync = true) ?(compact_bytes = 64 * 1024 * 1024) path =
  if compact_bytes <= 0 then
    invalid_arg "Journal.open_journal: compact_bytes must be > 0";
  guard (fun () ->
      if not (Sys.file_exists path) then begin
        let fd =
          Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        write_all fd (Bytes.of_string (header fsync));
        let t =
          {
            j_path = path;
            j_fsync = fsync;
            j_compact = compact_bytes;
            j_fd = fd;
            j_size = header_len;
            j_last = None;
            j_committed = None;
          }
        in
        sync t;
        ( t,
          {
            rec_state = None;
            rec_records = [];
            rec_committed = 0;
            rec_dropped_bytes = 0;
            rec_durable = fsync;
          } )
      end
      else begin
        let data = In_channel.with_open_bin path In_channel.input_all in
        let file_len = String.length data in
        let start, durable =
          if file_len >= header_len && String.sub data 0 magic_len = magic then
            match data.[magic_len] with
            | 'S' -> (header_len, true)
            | 'U' -> (header_len, false)
            | _ -> fail (path ^ ": not a journal (bad durability byte)")
          else if String.starts_with ~prefix:"PXJRNL01" data then
            fail (path ^ ": unsupported journal format v1 (PXJRNL01)")
          else fail (path ^ ": not a journal (bad magic)")
        in
        let newest_first, valid_end = scan ~start data in
        let state = match newest_first with [] -> None | r :: _ -> Some r in
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        if valid_end < file_len then Unix.ftruncate fd valid_end;
        ignore (Unix.lseek fd valid_end Unix.SEEK_SET);
        let t =
          {
            j_path = path;
            j_fsync = fsync;
            j_compact = compact_bytes;
            j_fd = fd;
            j_size = valid_end;
            j_last = state;
            j_committed = state;
          }
        in
        if valid_end < file_len then sync t;
        ( t,
          {
            rec_state = state;
            rec_records = List.rev newest_first;
            rec_committed = List.length newest_first;
            rec_dropped_bytes = file_len - valid_end;
            rec_durable = durable;
          } )
      end)

let append t payload =
  guard (fun () ->
      let b = frame 'R' payload in
      write_all t.j_fd b;
      t.j_size <- t.j_size + Bytes.length b;
      t.j_last <- Some payload)

(* Compaction: the caller's payload holds the whole committed state, so
   rewrite the journal as magic + record + commit in a temporary file and
   rename it over the original — readers and crashes see either the old
   journal or the new one, never a torn middle. *)
let compact t payload =
  guard (fun () ->
      let tmp = t.j_path ^ ".tmp" in
      let fd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      (* Compaction rewrites the header too, refreshing the recorded
         durability in place. *)
      let body =
        Bytes.concat Bytes.empty
          [
            Bytes.of_string (header t.j_fsync); frame 'R' payload; frame 'C' "";
          ]
      in
      write_all fd body;
      if t.j_fsync then Unix.fsync fd;
      Unix.close fd;
      Unix.close t.j_fd;
      Sys.rename tmp t.j_path;
      let fd = Unix.openfile t.j_path [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      t.j_fd <- fd;
      t.j_size <- Bytes.length body;
      t.j_last <- Some payload;
      t.j_committed <- Some payload)

let commit t =
  guard (fun () ->
      let b = frame 'C' "" in
      write_all t.j_fd b;
      t.j_size <- t.j_size + Bytes.length b;
      sync t;
      t.j_committed <- t.j_last)

let compaction_due t = t.j_size > t.j_compact

let checkpoint t payload =
  Result.bind (append t payload) (fun () -> commit t)
  |> Result.map (fun () ->
         if compaction_due t then
           (* Best-effort: a failed auto-compaction leaves a valid (if
              large) journal behind, so it does not fail the commit. *)
           ignore (compact t payload))

let close t = try Unix.close t.j_fd with Unix.Unix_error _ -> ()
