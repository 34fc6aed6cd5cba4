type endpoint_spec = {
  ep_name : string;
  ep_plan : Fault_plan.spec option;
  ep_lag : int;
  ep_byzantine : float;
  ep_byz_seed : int;
}

let endpoint ?plan ?(lag = 0) ?(byzantine = 0.0) ?(byz_seed = 0) name =
  {
    ep_name = name;
    ep_plan = plan;
    ep_lag = lag;
    ep_byzantine = byzantine;
    ep_byz_seed = byz_seed;
  }

type config = {
  plan : Fault_plan.spec option;
  policy : Retry.policy;
  breaker : Breaker.config;
  call_budget : int option;
  step_budget : int option;
  endpoints : endpoint_spec list;
  quorum : int;
  hedge_after : float option;
}

let default_config =
  {
    plan = None;
    policy = Retry.default;
    breaker = Breaker.default_config;
    call_budget = None;
    step_budget = None;
    endpoints = [];
    quorum = 1;
    hedge_after = None;
  }

let config ?plan ?(policy = Retry.default) ?(breaker = Breaker.default_config)
    ?call_budget ?step_budget ?(endpoints = []) ?(quorum = 1) ?hedge_after () =
  { plan; policy; breaker; call_budget; step_budget; endpoints; quorum;
    hedge_after }

let validate_config cfg =
  let module V = Report.Validate in
  let budget field = function
    | None -> Ok ()
    | Some b -> V.positive ~field b
  in
  let pool_size = max 1 (List.length cfg.endpoints) in
  let distinct_names () =
    let names = List.map (fun e -> e.ep_name) cfg.endpoints in
    if List.length (List.sort_uniq compare names) = List.length names then
      Ok ()
    else
      Error
        (V.error ~field:"endpoints" ~value:(String.concat "," names)
           ~reason:"endpoint names must be distinct")
  in
  let per_endpoint e =
    V.all
      [
        V.non_empty ~field:"endpoint.name" e.ep_name;
        V.non_negative ~field:(e.ep_name ^ ".lag") e.ep_lag;
        V.unit_interval ~field:(e.ep_name ^ ".byzantine") e.ep_byzantine;
      ]
  in
  let quorum_fits =
    if cfg.quorum >= 1 && cfg.quorum <= pool_size then Ok ()
    else
      Error
        (V.error ~field:"quorum" ~value:(string_of_int cfg.quorum)
           ~reason:
             (Printf.sprintf "must be between 1 and the pool size (%d)"
                pool_size))
  in
  match
    V.all
      ([
         V.positive ~field:"policy.max_attempts" cfg.policy.Retry.max_attempts;
         V.positive ~field:"breaker.failure_threshold"
           cfg.breaker.Breaker.failure_threshold;
         budget "call_budget" cfg.call_budget;
         budget "step_budget" cfg.step_budget;
         quorum_fits;
         distinct_names ();
       ]
      @ List.map per_endpoint cfg.endpoints)
  with
  | Ok () -> Ok cfg
  | Error e -> Error e

type event =
  | Retry of { attempt : int; reason : string; delay : float }
  | Circuit_opened of { endpoint : string; failures : int }
  | Circuit_closed of { endpoint : string }
  | Dispatched of {
      endpoint : string;
      meth : string;
      fault : string option;
      latency : float;
    }
  | Hedged of { meth : string; primary : string; secondary : string }
  | Quorum_disagreement of { meth : string; endpoint : string }

type stats = {
  dispatched : int;
  faults_seen : int;
  retries : int;
  gave_up : int;
  breaker_opens : int;
  virtual_elapsed : float;
  disagreements : int;
  hedges : int;
  quorum_failures : int;
}

type endpoint_stats = {
  eps_name : string;
  eps_served : int;
  eps_faulted : int;
  eps_disagreed : int;
  eps_opens : int;
  eps_health : float;
}

exception Rpc_error of Chain_rpc.error
exception Budget_exhausted of { scope : string; budget : int; spent : int }

let () =
  Printexc.register_printer (function
    | Rpc_error e -> Some ("rpc error: " ^ Chain_rpc.error_to_string e)
    | Budget_exhausted { scope; budget; spent } ->
        Some
          (Printf.sprintf "budget exhausted: %d %s spent (budget %d)" spent
             scope budget)
    | _ -> None)

(* Live state of one pool member: its breaker, its fail-stop fault
   stream, its (optional) Byzantine corruption stream, and an EWMA
   health score that ranks endpoints for failover order. *)
type endpoint_state = {
  e_spec : endpoint_spec;
  e_index : int;  (* position in the pool: the rank tie-break *)
  e_breaker : Breaker.t;
  e_plan : Fault_plan.t option;
  e_byz : Fault_plan.t option;
  mutable e_health : float;
  mutable e_served : int;
  mutable e_faulted : int;
  mutable e_disagreed : int;
}

type t = {
  chain : Chain.t;
  cfg : config;
  clock : Obs.Clock.t;
  pool : endpoint_state array;
  order : endpoint_state array;  (* the pool in rank order; see [rerank] *)
  quorum : int;
  seed : int;
  on_event : event -> unit;
  mutable dispatched : int;
  mutable faults_seen : int;
  mutable retries : int;
  mutable gave_up : int;
  mutable last_attempts : int;
  mutable disagreements : int;
  mutable hedges : int;
  mutable quorum_failures : int;
  mutable confirmed_head : int;
}

let default_endpoint_name = "archive"

let create ?(config = default_config) ?(salt = 0) ?(on_event = fun _ -> ())
    ~chain () =
  let clock = Obs.Clock.virtual_ () in
  let specs =
    match config.endpoints with
    | [] ->
        (* The classic single-provider setup: one archive node carrying
           the connection-level fault plan. *)
        [
          {
            ep_name = default_endpoint_name;
            ep_plan = config.plan;
            ep_lag = 0;
            ep_byzantine = 0.0;
            ep_byz_seed = 0;
          };
        ]
    | eps -> eps
  in
  let make_endpoint index spec =
    let breaker =
      Breaker.create ~config:config.breaker ~clock ~endpoint:spec.ep_name ()
    in
    Breaker.on_transition breaker (function
      | Breaker.Opened { failures } ->
          on_event (Circuit_opened { endpoint = spec.ep_name; failures })
      | Breaker.Recovered ->
          on_event (Circuit_closed { endpoint = spec.ep_name })
      | Breaker.Probing -> ());
    let byz =
      if spec.ep_byzantine > 0.0 then
        Some
          (Fault_plan.instantiate ~salt
             (Fault_plan.spec ~seed:spec.ep_byz_seed
                ~fault_rate:spec.ep_byzantine ()))
      else None
    in
    {
      e_spec = spec;
      e_index = index;
      e_breaker = breaker;
      e_plan = Option.map (Fault_plan.instantiate ~salt) spec.ep_plan;
      e_byz = byz;
      e_health = 1.0;
      e_served = 0;
      e_faulted = 0;
      e_disagreed = 0;
    }
  in
  let seed =
    match config.plan with Some s -> s.Fault_plan.seed lxor salt | None -> salt
  in
  let pool = Array.of_list (List.mapi make_endpoint specs) in
  {
    chain;
    cfg = config;
    clock;
    pool;
    order = Array.copy pool;
    quorum = max 1 (min config.quorum (List.length specs));
    seed;
    on_event;
    dispatched = 0;
    faults_seen = 0;
    retries = 0;
    gave_up = 0;
    last_attempts = 0;
    disagreements = 0;
    hedges = 0;
    quorum_failures = 0;
    confirmed_head = 0;
  }

let direct chain = create ~chain ()

let retries t = t.retries
let last_attempts t = t.last_attempts
let pool_size t = Array.length t.pool
let quorum t = t.quorum

let stats t =
  {
    dispatched = t.dispatched;
    faults_seen = t.faults_seen;
    retries = t.retries;
    gave_up = t.gave_up;
    breaker_opens =
      Array.fold_left (fun n es -> n + Breaker.open_count es.e_breaker) 0 t.pool;
    virtual_elapsed = Obs.Clock.now t.clock;
    disagreements = t.disagreements;
    hedges = t.hedges;
    quorum_failures = t.quorum_failures;
  }

let endpoint_stats t =
  Array.to_list t.pool
  |> List.map (fun es ->
         {
           eps_name = es.e_spec.ep_name;
           eps_served = es.e_served;
           eps_faulted = es.e_faulted;
           eps_disagreed = es.e_disagreed;
           eps_opens = Breaker.open_count es.e_breaker;
           eps_health = es.e_health;
         })

let no_fault = { Fault_plan.d_latency = 0.0; d_fault = None }

let ep_decide es =
  match es.e_plan with Some p -> Fault_plan.next p | None -> no_fault

let ep_corrupts es =
  match es.e_byz with
  | Some p -> (Fault_plan.next p).Fault_plan.d_fault <> None
  | None -> false

(* EWMA health: successes pull toward 1, faults decay, a quorum
   disagreement halves the score outright.  Rank order (health desc,
   then pool index) decides failover preference deterministically. *)
let health_ok es = es.e_health <- (es.e_health *. 0.9) +. 0.1
let health_fault es = es.e_health <- es.e_health *. 0.9
let health_disagree es = es.e_health <- es.e_health *. 0.5

let ranks_before a b =
  a.e_health > b.e_health || (a.e_health = b.e_health && a.e_index < b.e_index)

(* Restore rank order in place.  Health moves a little per attempt, so
   the order is nearly sorted already and an insertion sort takes about
   one comparison per endpoint, allocating nothing. *)
let rerank t =
  let o = t.order in
  for i = 1 to Array.length o - 1 do
    let es = o.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && ranks_before es o.(!j) do
      o.(!j + 1) <- o.(!j);
      decr j
    done;
    o.(!j + 1) <- es
  done

(* Admit at least [quorum] endpoints: already-admitted (closed or
   half-open) breakers are free; when too few, advance the virtual
   clock past blocked cooldowns in rank order — the pool analogue of
   the single breaker's [await_ready] before every attempt. *)
let ensure_ready t =
  rerank t;
  let ready, blocked =
    Array.fold_right
      (fun es (ready, blocked) ->
        if Breaker.state es.e_breaker <> Breaker.Open then (es :: ready, blocked)
        else (ready, es :: blocked))
      t.order ([], [])
  in
  if List.length ready >= t.quorum then ready
  else
    let rec admit ready blocked =
      if List.length ready >= t.quorum then ready
      else
        match blocked with
        | [] -> ready
        | es :: rest ->
            Breaker.await_ready es.e_breaker;
            admit (ready @ [ es ]) rest
    in
    admit ready blocked

let check_call_budget t =
  match t.cfg.call_budget with
  | Some budget when t.dispatched >= budget ->
      raise
        (Budget_exhausted { scope = "api-calls"; budget; spent = t.dispatched })
  | _ -> ()

let check_step_budget t ~steps =
  match t.cfg.step_budget with
  | Some budget when steps > budget ->
      raise (Budget_exhausted { scope = "evm-steps"; budget; spent = steps })
  | _ -> ()

(* The node is dispatched once per logical request, no matter how many
   endpoints answer it: every honest endpoint relays the same canonical
   chain state, so per-call accounting (the §6.1 counter identity) is
   one API call per served request even under quorum fan-out. *)
let canonical t req cache =
  match !cache with
  | Some r -> r
  | None ->
      check_call_budget t;
      let r = Chain_rpc.serve t.chain req in
      t.dispatched <- t.dispatched + 1;
      cache := Some r;
      r

(* A Byzantine endpoint's wrong answer: a deterministic function of the
   canonical answer's wire string, the endpoint identity and its seed —
   two lying endpoints therefore lie {e differently}, so fabricated
   answers can never assemble a quorum of their own.  The one place the
   transport touches a wire codec. *)
let corrupt es (codec : _ Chain_rpc.codec) v =
  codec.decode
    (Printf.sprintf "0xbad%07x"
       (Hashtbl.hash (es.e_spec.ep_byz_seed, es.e_spec.ep_name, codec.encode v)
       land 0xfffffff))

let ep_answer t es (req : _ Chain_rpc.request) cache =
  let r = canonical t req cache in
  match r with
  | Ok v when ep_corrupts es -> Ok (corrupt es req.codec v)
  | r -> r

let record_fault t es ~meth (f : Fault_plan.fault) ~latency =
  t.faults_seen <- t.faults_seen + 1;
  es.e_faulted <- es.e_faulted + 1;
  health_fault es;
  Breaker.record_failure es.e_breaker;
  t.on_event
    (Dispatched
       {
         endpoint = es.e_spec.ep_name;
         meth;
         fault = Some (Chain_rpc.transient_kind_name f.Fault_plan.f_kind);
         latency;
       })

let record_served t es ~meth ~latency =
  es.e_served <- es.e_served + 1;
  health_ok es;
  Breaker.record_success es.e_breaker;
  t.on_event
    (Dispatched { endpoint = es.e_spec.ep_name; meth; fault = None; latency })

let fault_error (f : Fault_plan.fault) =
  Error (Chain_rpc.Transient (f.Fault_plan.f_kind, f.Fault_plan.f_detail))

(* Quorum 1: deterministic sequential failover.  Walk admitted
   endpoints in rank order; the first non-faulting answer wins, each
   faulting endpoint is charged on its own breaker, and a slow primary
   is hedged to the next endpoint when the pool has one. *)
let attempt_failover t ready (req : _ Chain_rpc.request) cache =
  let meth = req.meth in
  let serve es ~latency =
    let r = ep_answer t es req cache in
    record_served t es ~meth ~latency;
    r
  in
  let rec walk last_fault = function
    | [] -> (
        match last_fault with
        | Some f -> fault_error f
        | None ->
            Error (Chain_rpc.Transient (Chain_rpc.Node_error, "no endpoint")))
    | es :: rest -> (
        let d = ep_decide es in
        let lat = d.Fault_plan.d_latency in
        match (t.cfg.hedge_after, rest) with
        | Some h, alt :: remaining when lat > h ->
            (* Slowest-percentile request: race a second endpoint
               started [h] virtual seconds in. *)
            t.hedges <- t.hedges + 1;
            t.on_event
              (Hedged
                 {
                   meth;
                   primary = es.e_spec.ep_name;
                   secondary = alt.e_spec.ep_name;
                 });
            let d2 = ep_decide alt in
            let c1 = lat and c2 = h +. d2.Fault_plan.d_latency in
            (match (d.Fault_plan.d_fault, d2.Fault_plan.d_fault) with
            | None, None ->
                (* Both legs would answer: take the earlier completion,
                   the other leg is cancelled unobserved. *)
                if c1 <= c2 then (
                  Obs.Clock.sleep t.clock c1;
                  serve es ~latency:lat)
                else (
                  Obs.Clock.sleep t.clock c2;
                  serve alt ~latency:d2.Fault_plan.d_latency)
            | None, Some f2 ->
                Obs.Clock.sleep t.clock c1;
                if c2 <= c1 then record_fault t alt ~meth f2
                    ~latency:d2.Fault_plan.d_latency;
                serve es ~latency:lat
            | Some f1, None ->
                Obs.Clock.sleep t.clock c2;
                if c1 <= c2 then record_fault t es ~meth f1 ~latency:lat;
                serve alt ~latency:d2.Fault_plan.d_latency
            | Some f1, Some f2 ->
                Obs.Clock.sleep t.clock (Float.max c1 c2);
                record_fault t es ~meth f1 ~latency:lat;
                record_fault t alt ~meth f2 ~latency:d2.Fault_plan.d_latency;
                walk (Some f2) remaining)
        | _ -> (
            Obs.Clock.sleep t.clock lat;
            match d.Fault_plan.d_fault with
            | Some f ->
                record_fault t es ~meth f ~latency:lat;
                walk (Some f) rest
            | None -> serve es ~latency:lat))
  in
  walk None ready

(* Quorum >= 2: consult every admitted endpoint in parallel (virtual
   latency is the slowest consulted leg), then require [quorum]
   identical answers.  An endpoint whose answer loses the vote is
   quarantined on the spot — disagreement is stronger evidence than any
   transient-failure streak. *)
let attempt_quorum t ready (req : _ Chain_rpc.request) cache =
  let meth = req.meth in
  let consults = List.map (fun es -> (es, ep_decide es)) ready in
  let lat =
    List.fold_left
      (fun a (_, d) -> Float.max a d.Fault_plan.d_latency)
      0.0 consults
  in
  Obs.Clock.sleep t.clock lat;
  let answers, last_fault =
    List.fold_left
      (fun (answers, last_fault) (es, d) ->
        match d.Fault_plan.d_fault with
        | Some f ->
            record_fault t es ~meth f ~latency:d.Fault_plan.d_latency;
            (answers, Some f)
        | None ->
            let r = ep_answer t es req cache in
            record_served t es ~meth ~latency:d.Fault_plan.d_latency;
            (answers @ [ (es, r) ], last_fault))
      ([], None) consults
  in
  (* First-seen-order tally; the winner needs >= quorum identical
     votes, so a single fabricated answer can never be consumed. *)
  let tally =
    List.fold_left
      (fun tally (_, r) ->
        if List.mem_assoc r tally then
          List.map (fun (v, c) -> if v = r then (v, c + 1) else (v, c)) tally
        else tally @ [ (r, 1) ])
      [] answers
  in
  let winner =
    List.fold_left
      (fun best (v, c) ->
        match best with Some (_, bc) when bc >= c -> best | _ -> Some (v, c))
      None tally
  in
  match winner with
  | Some (value, votes) when votes >= t.quorum ->
      List.iter
        (fun (es, r) ->
          if r <> value then begin
            t.disagreements <- t.disagreements + 1;
            es.e_disagreed <- es.e_disagreed + 1;
            health_disagree es;
            t.on_event
              (Quorum_disagreement { meth; endpoint = es.e_spec.ep_name });
            Breaker.quarantine es.e_breaker
          end)
        answers;
      value
  | _ ->
      t.quorum_failures <- t.quorum_failures + 1;
      (match last_fault with
      | Some f -> fault_error f
      | None ->
          Error
            (Chain_rpc.Transient
               ( Chain_rpc.Node_error,
                 Printf.sprintf "quorum not reached (%d/%d identical answers)"
                   (match winner with Some (_, c) -> c | None -> 0)
                   t.quorum )))

(* One attempt at [req] over the admitted endpoints [ready]. *)
let one_attempt t ready req =
  if t.quorum <= 1 then attempt_failover t ready req (ref None)
  else attempt_quorum t ready req (ref None)

let backoff t ~attempt ~reason =
  let delay = Retry.delay t.cfg.policy ~seed:t.seed ~attempt in
  t.retries <- t.retries + 1;
  t.on_event (Retry { attempt; reason; delay });
  Obs.Clock.sleep t.clock delay

let call t req =
  let rec go attempt =
    match one_attempt t (ensure_ready t) req with
    | Error (Chain_rpc.Transient _ as e)
      when attempt < t.cfg.policy.Retry.max_attempts ->
        backoff t ~attempt ~reason:(Chain_rpc.error_to_string e);
        go (attempt + 1)
    | Error (Chain_rpc.Transient _) as r ->
        t.gave_up <- t.gave_up + 1;
        t.last_attempts <- attempt;
        r
    | r ->
        t.last_attempts <- attempt;
        r
  in
  go 1

let call_batch t requests =
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let responses = Array.make n (Error (Chain_rpc.Invalid_params "unserved")) in
  (* Retry only the failed subset of each round, preserving response
     order by index — the JSON-RPC partial-batch-failure contract. *)
  let rec round attempt pending =
    let ready = ensure_ready t in
    let failed =
      List.filter
        (fun i ->
          match one_attempt t ready reqs.(i) with
          | Error (Chain_rpc.Transient _ as e) ->
              responses.(i) <- Error e;
              true
          | r ->
              responses.(i) <- r;
              false)
        pending
    in
    t.last_attempts <- attempt;
    if failed <> [] then
      if attempt < t.cfg.policy.Retry.max_attempts then begin
        backoff t ~attempt
          ~reason:
            (Printf.sprintf "%d/%d batch entries failed" (List.length failed) n);
        round (attempt + 1) failed
      end
      else t.gave_up <- t.gave_up + List.length failed
  in
  if n > 0 then round 1 (List.init n Fun.id);
  Array.to_list responses

(* The pool's confirmed head: the [quorum]-th largest height reported
   by admitted endpoints (a lagging endpoint reports the canonical head
   minus its lag).  Monotonic by construction — once a height is quorum
   confirmed the pool never reports below it, so analysis waits out a
   lagging majority instead of regressing. *)
let head_height t =
  let h = Chain.height t.chain in
  let reported =
    Array.to_list t.pool
    |> List.filter (fun es -> Breaker.state es.e_breaker <> Breaker.Open)
    |> List.map (fun es -> max 0 (h - es.e_spec.ep_lag))
  in
  let reported =
    match reported with
    | [] ->
        Array.to_list t.pool |> List.map (fun es -> max 0 (h - es.e_spec.ep_lag))
    | r -> r
  in
  let sorted = List.sort (fun a b -> compare b a) reported in
  let k = min t.quorum (List.length sorted) in
  let kth = List.nth sorted (k - 1) in
  if kth > t.confirmed_head then t.confirmed_head <- kth;
  t.confirmed_head
