type transient_kind = Rate_limited | Timeout | Node_error

let transient_kind_name = function
  | Rate_limited -> "rate-limited"
  | Timeout -> "timeout"
  | Node_error -> "node-error"

type error =
  | Unknown_method of string
  | Invalid_params of string
  | Unsupported_height of string
  | Transient of transient_kind * string

let error_to_string = function
  | Unknown_method m -> "unknown method " ^ m
  | Invalid_params m -> "invalid params: " ^ m
  | Unsupported_height meth ->
      Printf.sprintf
        "unsupported height: %s only serves the latest state on this node" meth
  | Transient (kind, detail) ->
      Printf.sprintf "transient %s: %s" (transient_kind_name kind) detail

let is_transient = function
  | Transient _ -> true
  | Unknown_method _ | Invalid_params _ | Unsupported_height _ -> false

let ( let* ) = Result.bind

let quantity n =
  (* Ethereum quantity encoding: 0x-prefixed, no leading zeros, 0x0 for 0. *)
  U256.to_hex (U256.of_int n)

let parse_address s =
  match Hexutil.of_hex_opt s with
  | Some b when String.length b = 20 -> Ok b
  | _ -> Error (Invalid_params ("bad address " ^ s))

let parse_word s =
  match U256.of_hex s with
  | w -> Ok w
  | exception _ -> Error (Invalid_params ("bad word " ^ s))

let parse_block chain s =
  match s with
  | "latest" | "pending" | "safe" | "finalized" -> Ok (Chain.height chain)
  | _ -> (
      match U256.of_hex s with
      | w -> (
          match U256.to_int w with
          | Some h when h <= Chain.height chain -> Ok h
          | Some _ -> Error (Invalid_params ("block beyond head: " ^ s))
          | None -> Error (Invalid_params ("bad block " ^ s)))
      | exception _ -> Error (Invalid_params ("bad block " ^ s)))

(* A well-formed historical height on a latest-only method is a
   capability gap of the node, not a malformed request: report it as
   [Unsupported_height] (never retryable, names the method) so resilience
   layers can tell it apart from both transport faults and caller bugs. *)
let latest_only chain ~meth s =
  let* h = parse_block chain s in
  if h = Chain.height chain then Ok () else Error (Unsupported_height meth)

type 'a codec = { encode : 'a -> string; decode : string -> 'a }

type 'a request = {
  meth : string;
  answer : Chain.t -> ('a, error) result;
  codec : 'a codec;
}

let serve chain r =
  Chain.record_method_call chain r.meth;
  r.answer chain

let word_codec = { encode = U256.to_hex_padded; decode = U256.of_hex }
let string_codec = { encode = Fun.id; decode = Fun.id }

(* The one function that serves [eth_getStorageAt]. *)
let storage_word chain address slot ~height =
  if height > Chain.height chain then
    Error (Invalid_params ("block beyond head: " ^ quantity height))
  else Ok (Chain.get_storage_at chain address slot ~height)

let storage_at address slot ~height =
  {
    meth = "eth_getStorageAt";
    answer = (fun chain -> storage_word chain address slot ~height);
    codec = word_codec;
  }

let answer_wire ~meth ~params chain =
  match (meth, params) with
  | "eth_blockNumber", [] -> Ok (quantity (Chain.height chain))
  | "eth_chainId", [] ->
      let host = Chain.host_at_head chain in
      Ok (U256.to_hex host.Evm.Host.block.Evm.Host.chain_id)
  | "eth_getCode", [ addr; block ] ->
      let* a = parse_address addr in
      let* () = latest_only chain ~meth block in
      Ok (Hexutil.to_hex (Chain.code_at chain a))
  | "eth_getStorageAt", [ addr; slot; block ] ->
      let* a = parse_address addr in
      let* s = parse_word slot in
      let* height = parse_block chain block in
      Result.map word_codec.encode (storage_word chain a s ~height)
  | "eth_getBalance", [ addr; block ] ->
      let* a = parse_address addr in
      let* () = latest_only chain ~meth block in
      let host = Chain.host_at_head chain in
      Ok (U256.to_hex (host.Evm.Host.get_balance a))
  | "eth_call", [ to_; data; block ] ->
      let* target = parse_address to_ in
      let* input =
        match Hexutil.of_hex_opt data with
        | Some d -> Ok d
        | None -> Error (Invalid_params "bad call data")
      in
      let* () = latest_only chain ~meth block in
      let host = Chain.host_at_head chain in
      let caller = Evm.Address.of_hex "0x000000000000000000000000000000000000ca11" in
      let snapshot = host.Evm.Host.snapshot () in
      let result =
        Evm.Interp.execute host
          (Evm.Interp.make_call ~caller ~target ~input ())
      in
      host.Evm.Host.revert_to snapshot;
      (match result.Evm.Interp.status with
      | Evm.Interp.Returned -> Ok (Hexutil.to_hex result.Evm.Interp.return_data)
      | Evm.Interp.Reverted -> Error (Invalid_params "execution reverted")
      | Evm.Interp.Failed e ->
          Error (Invalid_params (Evm.Interp.error_to_string e)))
  | "eth_getTransactionCount", [ addr; block ] ->
      let* a = parse_address addr in
      let* () = latest_only chain ~meth block in
      let host = Chain.host_at_head chain in
      Ok (quantity (host.Evm.Host.get_nonce a))
  | ( ("eth_blockNumber" | "eth_chainId" | "eth_getCode" | "eth_getStorageAt"
      | "eth_getBalance" | "eth_getTransactionCount" | "eth_call"),
      _ ) ->
      Error (Invalid_params (Printf.sprintf "wrong arity for %s" meth))
  | _ -> Error (Unknown_method meth)

let request ~meth ~params =
  { meth; answer = answer_wire ~meth ~params; codec = string_codec }

let call chain ~meth ~params = serve chain (request ~meth ~params)
