(** An Ethereum JSON-RPC-flavoured facade over the simulated chain.

    This is the exact method surface ProxioN consumes from a real archive
    node (§7.1): [eth_getStorageAt] with historical block tags (what
    Algorithm 1 binary-searches), [eth_getCode], and the block-metadata
    calls.

    {b Requests.}  A {!request} carries its method name, how the node
    serves it, and the wire codec of its answer.  In-process callers
    build typed requests ({!storage_at} answers a [U256.t]) and never
    touch hex.  Hex lives at the edges only: the string facade {!call}
    decodes its 0x-hex params into the same typed functions and encodes
    their answers with Ethereum's conventions ("latest" tag, quantity
    encoding without leading zeros), so code written against it would
    port to a real node unchanged; and a Byzantine endpoint of the
    resilient transport garbles an answer in its wire form (through the
    request's codec). *)

(** The retryable failure modes of a real provider.  The simulated node
    never produces them on its own; the resilient transport
    ({!Resilience.Transport}) injects them from a seeded fault plan and
    real deployments map provider responses (HTTP 429, deadline
    exceeded, -32000 family) onto them. *)
type transient_kind =
  | Rate_limited  (** Provider throttling (HTTP 429 / -32005). *)
  | Timeout  (** The response never arrived. *)
  | Node_error  (** Internal node failure or dropped connection. *)

val transient_kind_name : transient_kind -> string

type error =
  | Unknown_method of string
  | Invalid_params of string  (** Malformed request: a caller bug. *)
  | Unsupported_height of string
      (** A well-formed historical block tag on a method this node only
          serves at the latest state; carries the method name.  Never
          retryable — the node will answer the same way forever. *)
  | Transient of transient_kind * string
      (** Retryable provider failure with a human-readable detail. *)

val error_to_string : error -> string

val is_transient : error -> bool
(** Whether a retry could ever change the answer.  [Transient] only:
    [Unsupported_height] in particular looks like a provider hiccup but
    is a permanent capability statement, which is exactly why it is a
    distinct constructor. *)

(** {1 Requests} *)

(** An answer's JSON-RPC result string: [decode (encode v) = v]. *)
type 'a codec = { encode : 'a -> string; decode : string -> 'a }

type 'a request = {
  meth : string;  (** The JSON-RPC method name. *)
  answer : Chain.t -> ('a, error) result;
      (** How the node answers it, without accounting: call it through
          {!serve}. *)
  codec : 'a codec;  (** The answer's wire form. *)
}

val serve : Chain.t -> 'a request -> ('a, error) result
(** Answer one request: count the method against [chain]
    ({!Chain.record_method_call}), then run [answer].  Every request,
    typed or string, is served here. *)

val storage_at : Evm.Address.t -> U256.t -> height:int -> U256.t request
(** [eth_getStorageAt] at a block height, answering the word itself
    through {!Chain.get_storage_at} (one §6.1 archive call).  A height
    beyond the head is [Invalid_params], with the message the string
    facade gives for the same height as a hex quantity. *)

val request : meth:string -> params:string list -> string request
(** The string facade's request: [params] are decoded when it is served
    and the answer is encoded, both as {!call} describes. *)

val call :
  Chain.t -> meth:string -> params:string list -> (string, error) result
(** [serve chain (request ~meth ~params)].  Supported methods:
    - [eth_blockNumber] () -> hex height
    - [eth_chainId] () -> hex chain id
    - [eth_getCode] (address, block) -> hex bytecode
    - [eth_getStorageAt] (address, slot, block) -> 32-byte hex word,
      served by {!storage_at}
    - [eth_getBalance] (address, block) -> hex quantity
    - [eth_getTransactionCount] (address, block) -> hex nonce
    - [eth_call] (to, data, block) -> hex return data (read-only execution
      in a snapshot; reverts and failures surface as [Invalid_params])

    The block tag is ["latest"] or a hex quantity.  [eth_getCode],
    [eth_getBalance] and [eth_getTransactionCount] only serve the latest
    state (the simulated chain snapshots storage history only, like the
    paper's use of the node); a valid historical block tag on them
    returns [Unsupported_height] with the method name, while a malformed
    or beyond-head tag stays [Invalid_params]. *)
