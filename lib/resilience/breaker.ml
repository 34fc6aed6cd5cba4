type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = { failure_threshold : int; cooldown : float }

let default_config = { failure_threshold = 5; cooldown = 5.0 }

let config ?(failure_threshold = default_config.failure_threshold)
    ?(cooldown = default_config.cooldown) () =
  if failure_threshold < 1 then
    invalid_arg "Breaker.config: failure_threshold must be >= 1";
  { failure_threshold; cooldown }

type transition = Opened of { failures : int } | Probing | Recovered

type t = {
  cfg : config;
  clock : Obs.Clock.t;
  endpoint : string;
  mutable st : state;
  mutable consecutive_failures : int;
  mutable open_until : float;
  mutable opens : int;
  mutable subscribers : (transition -> unit) list;
}

let create ?(config = default_config) ~clock ~endpoint () =
  {
    cfg = config;
    clock;
    endpoint;
    st = Closed;
    consecutive_failures = 0;
    open_until = 0.0;
    opens = 0;
    subscribers = [];
  }

let state t = t.st
let endpoint t = t.endpoint
let open_count t = t.opens
let on_transition t f = t.subscribers <- t.subscribers @ [ f ]
let notify t tr = List.iter (fun f -> f tr) t.subscribers

let trip t =
  t.st <- Open;
  t.opens <- t.opens + 1;
  t.open_until <- Obs.Clock.now t.clock +. t.cfg.cooldown;
  notify t (Opened { failures = t.consecutive_failures })

let await_ready t =
  match t.st with
  | Closed | Half_open -> ()
  | Open ->
      (* The cooldown is virtual time: fail-fast windows cost nothing on
         the wall clock, they only space out probe attempts. *)
      Obs.Clock.advance_to t.clock t.open_until;
      t.st <- Half_open;
      notify t Probing

let record_success t =
  let was = t.st in
  t.consecutive_failures <- 0;
  t.st <- Closed;
  if was = Half_open then notify t Recovered

let record_failure t =
  t.consecutive_failures <- t.consecutive_failures + 1;
  match t.st with
  | Half_open -> trip t
  | Closed when t.consecutive_failures >= t.cfg.failure_threshold -> trip t
  | Closed | Open -> ()

let quarantine t =
  (* A quorum disagreement is stronger evidence than any failure streak:
     trip immediately regardless of state so the endpoint sits out a full
     cooldown before its next probe. *)
  t.consecutive_failures <- max t.consecutive_failures t.cfg.failure_threshold;
  match t.st with Open -> () | Closed | Half_open -> trip t
