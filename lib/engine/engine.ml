module Json = Report.Json

type stage =
  | Dedup_check
  | Proxy_probe
  | Logic_resolve
  | Classify
  | Func_collision
  | Storage_collision

let all_stages =
  [
    Dedup_check;
    Proxy_probe;
    Logic_resolve;
    Classify;
    Func_collision;
    Storage_collision;
  ]

let stage_name = function
  | Dedup_check -> "dedup-check"
  | Proxy_probe -> "proxy-probe"
  | Logic_resolve -> "logic-resolve"
  | Classify -> "classify"
  | Func_collision -> "func-collision"
  | Storage_collision -> "storage-collision"

let stage_of_name s =
  List.find_opt (fun st -> stage_name st = s) all_stages

type timing = {
  t_elapsed : float;
  t_api_calls : int;
  t_steps : int;
  t_retries : int;
}

(* ------------------------------------------------------------------ *)
(* Skip classification and dead-letter records                         *)
(* ------------------------------------------------------------------ *)

type skip_class = Transient | Permanent | Budget_exhausted | Worker_crashed

let skip_class_name = function
  | Transient -> "transient"
  | Permanent -> "permanent"
  | Budget_exhausted -> "budget-exhausted"
  | Worker_crashed -> "worker-crashed"

let skip_class_of_name = function
  | "transient" -> Some Transient
  | "permanent" -> Some Permanent
  | "budget-exhausted" -> Some Budget_exhausted
  | "worker-crashed" -> Some Worker_crashed
  | _ -> None

type skip_reason = {
  sr_message : string;
  sr_stage : stage option;
  sr_attempts : int;
  sr_class : skip_class;
}

let skip_reason ?stage ?(attempts = 1) cls message =
  { sr_message = message; sr_stage = stage; sr_attempts = attempts;
    sr_class = cls }

let permanent ?stage ?attempts message =
  skip_reason ?stage ?attempts Permanent message

let transient ?stage ?attempts message =
  skip_reason ?stage ?attempts Transient message

let budget_exhausted ?stage ?attempts message =
  skip_reason ?stage ?attempts Budget_exhausted message

(* ------------------------------------------------------------------ *)
(* Crash injection and fatal-exception classification                  *)
(* ------------------------------------------------------------------ *)

exception Crash_injected of string

(* A seeded kill plan: decides, per subject, whether the worker holding
   that item dies the instant it picks the item up.  Decisions are a pure
   function of (seed, subject) — independent of scheduling, worker count
   and batch boundaries — and each subject is killed at most once, so a
   [requeue] after the run converges to the fault-free figures.  The
   killed-set is shared across domains behind a mutex. *)
type crash_plan = {
  cp_seed : int;
  cp_rate : float;
  cp_subjects : string list;
  cp_killed : (string, unit) Hashtbl.t;
  cp_lock : Mutex.t;
}

let crash_plan ?(seed = 1) ?(rate = 0.0) ?(subjects = []) () =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Engine.crash_plan: rate must be within [0, 1]";
  {
    cp_seed = seed;
    cp_rate = rate;
    cp_subjects = subjects;
    cp_killed = Hashtbl.create 16;
    cp_lock = Mutex.create ();
  }

let crash_decision plan subject =
  List.mem subject plan.cp_subjects
  || plan.cp_rate > 0.0
     && float_of_int (Hashtbl.hash (plan.cp_seed, subject) land 0xFFFFFF)
        /. 16777216.0
        < plan.cp_rate

(* True exactly once per doomed subject. *)
let crash_armed plan subject =
  crash_decision plan subject
  && begin
       Mutex.lock plan.cp_lock;
       let fresh = not (Hashtbl.mem plan.cp_killed subject) in
       if fresh then Hashtbl.replace plan.cp_killed subject ();
       Mutex.unlock plan.cp_lock;
       fresh
     end

(* Exceptions a worker cannot be expected to survive: the supervisor
   treats these as the death of the worker itself, not a failure [process]
   chose to report.  [Crash_injected] is the test harness's stand-in. *)
let is_fatal = function
  | Crash_injected _ | Stack_overflow | Out_of_memory -> true
  | _ -> false

type 'item skip_record = {
  sk_item : 'item;
  sk_subject : string;
  sk_message : string;
  sk_stage : stage option;
  sk_attempts : int;
  sk_class : skip_class;
}

type event =
  | Run_started of { pending : int; batch_size : int; domains : int }
  | Batch_started of { index : int; size : int }
  | Batch_finished of {
      index : int;
      size : int;
      start : float;
      elapsed : float;
    }
  | Stage_finished of {
      stage : stage;
      subject : string;
      start : float;
      timing : timing;
      worker : int;
    }
  | Stage_errored of {
      stage : stage;
      subject : string;
      message : string;
      start : float;
      elapsed : float;
      worker : int;
    }
  | Retry_attempted of {
      subject : string;
      attempt : int;
      reason : string;
      delay : float;
      worker : int;
    }
  | Circuit_opened of {
      endpoint : string;
      subject : string;
      failures : int;
      worker : int;
    }
  | Circuit_closed of { endpoint : string; subject : string; worker : int }
  | Item_skipped of {
      subject : string;
      message : string;
      fault_class : skip_class;
      attempts : int;
      worker : int;
    }
  | Item_finished of {
      subject : string;
      start : float;
      elapsed : float;
      worker : int;
    }
  | Run_finished of {
      processed : int;
      skipped : int;
      start : float;
      elapsed : float;
    }

(* Mutable per-stage aggregate. *)
type agg = {
  mutable a_count : int;
  mutable a_elapsed : float;
  mutable a_api_calls : int;
  mutable a_steps : int;
  mutable a_retries : int;
}

(* One item's result slot.  The worker that picks the item up fills it
   while processing, off the coordinator thread: stage events, aggregate
   contributions and the outcome all land here.  Nothing is shared while
   the batch runs — the coordinator reads the slots in input order after
   the batch barrier (the pool's acknowledgements provide the
   happens-before edge) and replays them, so subscribers and totals
   observe the input-order interleaving at every worker count. *)
type 'res slot = {
  mutable s_worker : int;
  mutable s_events : event list; (* reverse order *)
  mutable s_aggs : (stage * timing) list; (* reverse order *)
  mutable s_outcome : ('res, skip_reason) result option;
}

type ('item, 'res) state = {
  st_queue : 'item list;
  st_results : 'res list;
  st_skipped : 'item skip_record list;
  st_batches : int;
}

type ('item, 'res) t = {
  queue : 'item Queue.t;
  mutable results_rev : 'res list;
  mutable processed : int;
  mutable skipped_rev : 'item skip_record list;
  mutable subscribers : (event -> unit) list;
  mutable batches : int;
  bsize : int;
  n_domains : int;
  group_key : ('item -> string) option;
  subject_of : 'item -> string;
  process : ('item, 'res) ctx -> 'item -> ('res, skip_reason) result;
  totals : (stage, agg) Hashtbl.t;
  plan : crash_plan option;
  mutable crashes : int;
  mutable clk : Obs.Clock.t;
}

(* What [process] sees: the engine, the id of the worker running the item
   (0 = the coordinator), the slot buffering the item's events and
   aggregates for the input-order merge, and the last stage entered — the
   attribution default for exceptions that escape [process]. *)
and ('item, 'res) ctx = {
  eng : ('item, 'res) t;
  worker : int;
  sink : 'res slot;
  mutable last_stage : stage option;
}

let empty = { st_queue = []; st_results = []; st_skipped = []; st_batches = 0 }

let create ?(batch_size = 32) ?(domains = 1) ?key ?crash_plan ?(state = empty)
    ~subject ~process () =
  if batch_size <= 0 then invalid_arg "Engine.create: batch_size must be > 0";
  if domains <= 0 then invalid_arg "Engine.create: domains must be > 0";
  {
    queue = Queue.of_seq (List.to_seq state.st_queue);
    results_rev = List.rev state.st_results;
    processed = List.length state.st_results;
    skipped_rev = List.rev state.st_skipped;
    subscribers = [];
    batches = state.st_batches;
    bsize = batch_size;
    n_domains = domains;
    group_key = key;
    subject_of = subject;
    process;
    totals = Hashtbl.create 8;
    plan = crash_plan;
    crashes = 0;
    clk = Obs.Clock.real;
  }

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]
let emit t ev = List.iter (fun f -> f ev) t.subscribers
let worker_id ctx = ctx.worker
let current_stage ctx = ctx.last_stage
let set_clock t clock = t.clk <- clock

(* Events are buffered only while someone listens: with no subscriber
   the merge would replay them to nobody. *)
let listening ctx = ctx.eng.subscribers <> []

let emit_from ctx ev =
  if listening ctx then ctx.sink.s_events <- ev :: ctx.sink.s_events

let agg_of t stage =
  match Hashtbl.find_opt t.totals stage with
  | Some a -> a
  | None ->
      let a =
        {
          a_count = 0;
          a_elapsed = 0.0;
          a_api_calls = 0;
          a_steps = 0;
          a_retries = 0;
        }
      in
      Hashtbl.replace t.totals stage a;
      a

let apply_agg t stage timing =
  let a = agg_of t stage in
  a.a_count <- a.a_count + 1;
  a.a_elapsed <- a.a_elapsed +. timing.t_elapsed;
  a.a_api_calls <- a.a_api_calls + timing.t_api_calls;
  a.a_steps <- a.a_steps + timing.t_steps;
  a.a_retries <- a.a_retries + timing.t_retries

let timed_stage ctx ~stage ~subject ?api_calls ?steps ?retries f =
  let sample = function Some reader -> reader () | None -> 0 in
  let worker = ctx.worker in
  ctx.last_stage <- Some stage;
  let api0 = sample api_calls
  and steps0 = sample steps
  and retries0 = sample retries in
  let start = Obs.Clock.now ctx.eng.clk in
  match f () with
  | v ->
      let timing =
        {
          t_elapsed = Obs.Clock.now ctx.eng.clk -. start;
          t_api_calls = sample api_calls - api0;
          t_steps = sample steps - steps0;
          t_retries = sample retries - retries0;
        }
      in
      ctx.sink.s_aggs <- (stage, timing) :: ctx.sink.s_aggs;
      if listening ctx then
        emit_from ctx
          (Stage_finished { stage; subject; start; timing; worker });
      ctx.last_stage <- None;
      v
  | exception e ->
      let elapsed = Obs.Clock.now ctx.eng.clk -. start in
      let message = Printexc.to_string e in
      emit_from ctx
        (Stage_errored { stage; subject; message; start; elapsed; worker });
      raise e

let submit t items = List.iter (fun i -> Queue.add i t.queue) items
let pending t = Queue.length t.queue
let batch_size t = t.bsize
let domains t = t.n_domains
let batches_done t = t.batches
let results t = List.rev t.results_rev

let drain_results t =
  let r = List.rev t.results_rev in
  t.results_rev <- [];
  r

let skipped t = List.rev t.skipped_rev

let skipped_pairs t =
  List.rev_map (fun r -> (r.sk_subject, r.sk_message)) t.skipped_rev
  |> List.rev

let crashes t = t.crashes

let state t =
  {
    st_queue = List.of_seq (Queue.to_seq t.queue);
    st_results = results t;
    st_skipped = skipped t;
    st_batches = t.batches;
  }

(* ------------------------------------------------------------------ *)
(* Dead-letter requeue                                                 *)
(* ------------------------------------------------------------------ *)

let requeue ?(classes = [ Transient; Budget_exhausted; Worker_crashed ]) t =
  let take, keep =
    List.partition
      (fun r -> List.mem r.sk_class classes)
      (List.rev t.skipped_rev)
  in
  t.skipped_rev <- List.rev keep;
  List.iter (fun r -> Queue.add r.sk_item t.queue) take;
  List.length take

(* An exception that escapes [process] without its own classification is a
   permanent failure of whatever stage the item last entered. *)
let reason_of_exn ctx e =
  {
    sr_message = Printexc.to_string e;
    sr_stage = ctx.last_stage;
    sr_attempts = 1;
    sr_class = Permanent;
  }

(* A fatal exception is attributed to the worker, not the item's logic:
   the in-flight item becomes a [Worker_crashed] dead letter pinned to the
   stage it last entered. *)
let crash_reason ctx e =
  {
    sr_message = "worker crashed: " ^ Printexc.to_string e;
    sr_stage = ctx.last_stage;
    sr_attempts = 1;
    sr_class = Worker_crashed;
  }

let maybe_kill t subject =
  match t.plan with
  | Some plan when crash_armed plan subject -> raise (Crash_injected subject)
  | _ -> ()

let record_of ~subject reason item =
  {
    sk_item = item;
    sk_subject = subject;
    sk_message = reason.sr_message;
    sk_stage = reason.sr_stage;
    sk_attempts = reason.sr_attempts;
    sk_class = reason.sr_class;
  }

(* ------------------------------------------------------------------ *)
(* The closeable task channel (service work queues, e.g. the daemon)    *)
(* ------------------------------------------------------------------ *)

(* A multi-producer/multi-consumer closeable channel.  [pop] blocks until
   an element is available or the channel is closed and drained.  The
   batch scheduler's pool parks its helper domains on one between
   batches (within a batch, chains are handed out through an atomic
   cursor), and the serve daemon's connection workers consume one.

   Waking strategy: [push] wakes exactly one sleeper ([Condition.signal]
   — one new element can satisfy at most one consumer, and a broadcast
   would stampede every idle worker through the mutex for a single
   element); [push_many] wakes one sleeper per element, coalesced into a
   broadcast when several arrive at once; only [close] broadcasts, since
   every blocked consumer must observe the close and give up. *)
module Chan = struct
  type 'a t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    q : 'a Queue.t;
    mutable closed : bool;
  }

  let create () =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      q = Queue.create ();
      closed = false;
    }

  let push t x =
    Mutex.lock t.mutex;
    Queue.add x t.q;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let push_many t xs =
    match xs with
    | [] -> ()
    | [ x ] -> push t x
    | _ ->
        Mutex.lock t.mutex;
        List.iter (fun x -> Queue.add x t.q) xs;
        Condition.broadcast t.nonempty;
        Mutex.unlock t.mutex

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex

  let pop t =
    Mutex.lock t.mutex;
    let rec await () =
      if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
      else if t.closed then None
      else begin
        Condition.wait t.nonempty t.mutex;
        await ()
      end
    in
    let r = await () in
    Mutex.unlock t.mutex;
    r

  let pop_opt t =
    Mutex.lock t.mutex;
    let r = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Mutex.unlock t.mutex;
    r

  let length t =
    Mutex.lock t.mutex;
    let n = Queue.length t.q in
    Mutex.unlock t.mutex;
    n
end

module Task_channel = Chan

(* Partition the batch's item indices into ordered chains.  Items sharing a
   group key form one chain, processed by a single worker in input order;
   distinct chains may run on different workers.  The analyzer keys on the
   bytecode hash, which is exactly the granularity of its dedup and pair
   caches — so every cache key sees its hits and misses in input order,
   and the merged output is the same at every worker count. *)
let group_indices t items n =
  match t.group_key with
  | None -> Array.init n (fun i -> [ i ])
  | Some key ->
      (* Number the chains in order of first appearance, then fill them
         back to front so each list comes out in input order. *)
      let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let chain_of = Array.make n 0 in
      for i = 0 to n - 1 do
        let k = key items.(i) in
        match Hashtbl.find_opt ids k with
        | Some c -> chain_of.(i) <- c
        | None ->
            let c = Hashtbl.length ids in
            Hashtbl.replace ids k c;
            chain_of.(i) <- c
      done;
      let chains = Array.make (Hashtbl.length ids) [] in
      for i = n - 1 downto 0 do
        let c = chain_of.(i) in
        chains.(c) <- i :: chains.(c)
      done;
      chains

let finish_item ctx ~subject ~start outcome =
  ctx.sink.s_outcome <- Some outcome;
  if listening ctx then
    emit_from ctx
      (Item_finished
         {
           subject;
           start;
           elapsed = Obs.Clock.now ctx.eng.clk -. start;
           worker = ctx.worker;
         })

let run_item t slot item =
  let ctx =
    { eng = t; worker = slot.s_worker; sink = slot; last_stage = None }
  in
  let subject = t.subject_of item in
  let start = Obs.Clock.now t.clk in
  match
    maybe_kill t subject;
    t.process ctx item
  with
  | r -> finish_item ctx ~subject ~start r
  | exception e when is_fatal e ->
      (* The dying worker files its own death certificate: outcome and
         stage attribution land in the slot before the exception unwinds
         to the worker's supervisor, which only has to resume the rest of
         the chain. *)
      finish_item ctx ~subject ~start (Error (crash_reason ctx e));
      raise e
  | exception e -> finish_item ctx ~subject ~start (Error (reason_of_exn ctx e))

(* ------------------------------------------------------------------ *)
(* The batch scheduler: a worker pool claiming chains off one cursor    *)
(* ------------------------------------------------------------------ *)

(* Per-run worker pool: the coordinator is worker 0, and [domains - 1]
   helper domains park on a channel of batch thunks between barriers.
   Spawning a domain costs on the order of a millisecond — per batch that
   dwarfs the work at small batch sizes — so [run] spawns the helpers
   once.  At one domain the pool has no helpers and spawns nothing.
   Thunks are self-supervising (a fatal exception never reaches the pool
   loop: the "crashed" worker resumes its chain suffix in place), so pool
   domains live for the whole run. *)
type pool = {
  pl_work : (unit -> unit) Chan.t;
  pl_done : unit Chan.t;
  pl_domains : unit Domain.t list;
}

let create_pool k =
  let pl_work = Chan.create () in
  let pl_done = Chan.create () in
  let rec worker () =
    match Chan.pop pl_work with
    | None -> ()
    | Some thunk ->
        thunk ();
        Chan.push pl_done ();
        worker ()
  in
  { pl_work; pl_done; pl_domains = List.init k (fun _ -> Domain.spawn worker) }

let destroy_pool pool =
  Chan.close pool.pl_work;
  List.iter Domain.join pool.pl_domains

(* [List.iter f (List.rev l)] without the copy; slot lists are short. *)
let rec iter_rev f = function
  | [] -> ()
  | x :: rest ->
      iter_rev f rest;
      f x

let run_items t pool n =
  let items = Array.init n (fun _ -> Queue.pop t.queue) in
  let chains = group_indices t items n in
  let nchains = Array.length chains in
  (* Self-scheduling: a worker takes the next unclaimed chain with one
     atomic add, so no worker idles while a chain is left and the tail
     balances itself.  A claim costs less than the smallest item. *)
  let cursor = Atomic.make 0 in
  (* One result slot per input position, each written only by the worker
     that runs its item and read by the coordinator after the barrier.
     [inflight.(w)] is the suffix of the chain worker [w] is running,
     current (or crashed) item at the head. *)
  let slots =
    Array.init n (fun _ ->
        { s_worker = 0; s_events = []; s_aggs = []; s_outcome = None })
  in
  let inflight = Array.make t.n_domains [] in
  let rec run_chain wid = function
    | [] -> inflight.(wid) <- []
    | i :: rest as suffix ->
        inflight.(wid) <- suffix;
        let slot = slots.(i) in
        slot.s_worker <- wid;
        run_item t slot items.(i);
        run_chain wid rest
  in
  let rec worker_loop wid =
    let c = Atomic.fetch_and_add cursor 1 in
    if c < nchains then begin
      run_chain wid chains.(c);
      worker_loop wid
    end
  in
  (* The coordinator works alongside the helpers, so a batch of [nchains]
     chains dispatches at most [nchains - 1] thunks to the parked pool.
     Every worker supervises itself: a fatal exception has already been
     recorded in the crashed item's slot by [run_item], so resume with the
     rest of the chain, then fall back into the loop.  Crash counts are
     worker-local while the batch runs and folded in at the barrier so no
     two workers ever race on [t.crashes]. *)
  let helper_count = min (t.n_domains - 1) (max 0 (nchains - 1)) in
  let crash_counts = Array.make t.n_domains 0 in
  let self_supervised wid =
    let rec attempt suffix =
      match
        (match suffix with [] -> () | s -> run_chain wid s);
        worker_loop wid
      with
      | () -> ()
      | exception e when is_fatal e ->
          crash_counts.(wid) <- crash_counts.(wid) + 1;
          let rest =
            match inflight.(wid) with [] -> [] | _crashed :: s -> s
          in
          inflight.(wid) <- [];
          attempt rest
    in
    attempt []
  in
  Chan.push_many pool.pl_work
    (List.init helper_count (fun k () -> self_supervised (k + 1)));
  self_supervised 0;
  (* Batch barrier: every dispatched thunk acknowledges completion, so
     once the loop exits no worker can still be touching the slots. *)
  for _ = 1 to helper_count do
    ignore (Chan.pop pool.pl_done)
  done;
  t.crashes <- t.crashes + Array.fold_left ( + ) 0 crash_counts;
  (* The one deterministic merge: replay every item's buffered events and
     aggregate contributions, and apply its outcome, in input order.
     Stage aggregates are applied here rather than summed worker-side
     because float accumulation is order-sensitive; replaying in input
     order keeps totals bit-equal at every worker count. *)
  Array.iteri
    (fun i slot ->
      iter_rev (emit t) slot.s_events;
      iter_rev (fun (stage, tm) -> apply_agg t stage tm) slot.s_aggs;
      match slot.s_outcome with
      | Some (Ok res) ->
          t.results_rev <- res :: t.results_rev;
          t.processed <- t.processed + 1
      | Some (Error reason) ->
          let subject = t.subject_of items.(i) in
          t.skipped_rev <- record_of ~subject reason items.(i) :: t.skipped_rev;
          emit t
            (Item_skipped
               {
                 subject;
                 message = reason.sr_message;
                 fault_class = reason.sr_class;
                 attempts = reason.sr_attempts;
                 worker = slot.s_worker;
               })
      | None ->
          (* Unreachable: every chain is claimed exactly once and every
             item of a claimed chain fills its slot before the barrier. *)
          assert false)
    slots

(* One batch from the queue head; [false] when the queue was empty. *)
let run_batch pool t =
  if Queue.is_empty t.queue then false
  else begin
    let n = min t.bsize (Queue.length t.queue) in
    let index = t.batches in
    emit t (Batch_started { index; size = n });
    let start = Obs.Clock.now t.clk in
    run_items t pool n;
    t.batches <- t.batches + 1;
    let elapsed = Obs.Clock.now t.clk -. start in
    emit t (Batch_finished { index; size = n; start; elapsed });
    true
  end

let run ?max_batches t =
  emit t
    (Run_started
       { pending = pending t; batch_size = t.bsize; domains = t.n_domains });
  let start = Obs.Clock.now t.clk in
  let continue = function None -> true | Some n -> n > 0 in
  let pool = create_pool (t.n_domains - 1) in
  Fun.protect
    ~finally:(fun () -> destroy_pool pool)
    (fun () ->
      let rec loop budget =
        if continue budget && run_batch pool t then
          loop (Option.map (fun n -> n - 1) budget)
      in
      loop max_batches);
  emit t
    (Run_finished
       {
         processed = t.processed;
         skipped = List.length t.skipped_rev;
         start;
         elapsed = Obs.Clock.now t.clk -. start;
       })

let stage_totals t =
  List.filter_map
    (fun stage ->
      match Hashtbl.find_opt t.totals stage with
      | None -> None
      | Some a ->
          Some
            ( stage,
              a.a_count,
              {
                t_elapsed = a.a_elapsed;
                t_api_calls = a.a_api_calls;
                t_steps = a.a_steps;
                t_retries = a.a_retries;
              } ))
    all_stages

let stage_totals_table t =
  Report.table ~title:"Engine: per-stage totals"
    ~header:[ "stage"; "runs"; "wall-clock"; "API calls"; "EVM steps"; "retries" ]
    (List.map
       (fun (stage, count, tm) ->
         [
           stage_name stage;
           string_of_int count;
           Printf.sprintf "%.3f s" tm.t_elapsed;
           string_of_int tm.t_api_calls;
           string_of_int tm.t_steps;
           string_of_int tm.t_retries;
         ])
       (stage_totals t))

(* ------------------------------------------------------------------ *)
(* Telemetry: event-stream adapters for the obs layer                   *)
(* ------------------------------------------------------------------ *)

module Telemetry = struct
  (* Since every event is delivered from the coordinator in input order
     (the deterministic merge replays worker-side buffers), these
     subscribers can record straight into the root registry: counter
     and float additions happen in input order at every worker
     count. *)

  let seconds_buckets =
    [ 1e-6; 1e-5; 1e-4; 1e-3; 0.01; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 ]

  let api_buckets = [ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. ]
  let step_buckets = [ 10.; 100.; 1000.; 1e4; 1e5; 1e6; 1e7 ]

  let instrument registry t =
    let m = registry in
    let stage_runs =
      Obs.Metrics.counter m ~help:"Stage executions" "proxion_stage_runs_total"
    and stage_seconds =
      Obs.Metrics.histogram m ~volatile:true ~buckets:seconds_buckets
        ~help:"Wall-clock seconds per stage execution" "proxion_stage_seconds"
    and stage_api_calls =
      Obs.Metrics.histogram m ~buckets:api_buckets
        ~help:"Chain API calls per stage execution" "proxion_stage_api_calls"
    and stage_steps =
      Obs.Metrics.histogram m ~buckets:step_buckets
        ~help:"EVM steps interpreted per stage execution" "proxion_stage_steps"
    and stage_errors =
      Obs.Metrics.counter m ~help:"Stages that raised"
        "proxion_stage_errors_total"
    and retries =
      Obs.Metrics.counter m ~help:"Transport retry attempts"
        "proxion_retries_total"
    and backoff =
      Obs.Metrics.counter m ~help:"Summed virtual backoff seconds"
        "proxion_backoff_seconds_total"
    and circuit =
      Obs.Metrics.counter m ~help:"Circuit breaker state transitions"
        "proxion_circuit_transitions_total"
    and skipped =
      Obs.Metrics.counter m ~help:"Items moved to the dead-letter list"
        "proxion_items_skipped_total"
    and processed =
      Obs.Metrics.gauge m ~help:"Items completed successfully"
        "proxion_items_processed"
    and crashes_g =
      Obs.Metrics.gauge m ~help:"Worker deaths absorbed by the supervisor"
        "proxion_worker_crashes"
    and batches =
      Obs.Metrics.counter m ~help:"Batches completed" "proxion_batches_total"
    and batch_seconds =
      Obs.Metrics.histogram m ~volatile:true ~buckets:seconds_buckets
        ~help:"Wall-clock seconds per batch" "proxion_batch_seconds"
    and run_seconds =
      Obs.Metrics.gauge m ~volatile:true ~help:"Wall-clock seconds of the run"
        "proxion_run_seconds"
    in
    (* Stage_finished fires once per stage execution — the hottest event
       stream — so its four series are resolved once per stage through
       pre-bound handles instead of a label lookup per observation. *)
    let h ?labels fam = Obs.Metrics.handle ?labels m fam in
    let batches_h = h batches
    and batch_seconds_h = h batch_seconds
    and retries_h = h retries
    and backoff_h = h backoff
    and circuit_open_h = h ~labels:[ ("state", "open") ] circuit
    and circuit_closed_h = h ~labels:[ ("state", "closed") ] circuit
    and processed_h = h processed
    and crashes_h = h crashes_g
    and run_seconds_h = h run_seconds in
    let stage_handles = Hashtbl.create 8 in
    let handles_for stage =
      match Hashtbl.find_opt stage_handles stage with
      | Some hs -> hs
      | None ->
          let labels = [ ("stage", stage_name stage) ] in
          let hs =
            ( h ~labels stage_runs,
              h ~labels stage_seconds,
              h ~labels stage_api_calls,
              h ~labels stage_steps )
          in
          Hashtbl.replace stage_handles stage hs;
          hs
    in
    subscribe t (function
      | Run_started _ -> ()
      | Batch_started _ -> ()
      | Batch_finished { elapsed; _ } ->
          Obs.Metrics.hinc batches_h;
          Obs.Metrics.hobserve batch_seconds_h elapsed;
          Obs.Metrics.hset crashes_h (float_of_int (crashes t));
          Obs.Metrics.hset processed_h (float_of_int t.processed)
      | Stage_finished { stage; timing; _ } ->
          let runs_h, seconds_h, api_h, steps_h = handles_for stage in
          Obs.Metrics.hinc runs_h;
          Obs.Metrics.hobserve seconds_h timing.t_elapsed;
          Obs.Metrics.hobserve api_h (float_of_int timing.t_api_calls);
          Obs.Metrics.hobserve steps_h (float_of_int timing.t_steps)
      | Stage_errored { stage; _ } ->
          Obs.Metrics.inc ~labels:[ ("stage", stage_name stage) ] m stage_errors
      | Retry_attempted { delay; _ } ->
          Obs.Metrics.hinc retries_h;
          Obs.Metrics.hinc ~by:delay backoff_h
      | Circuit_opened _ -> Obs.Metrics.hinc circuit_open_h
      | Circuit_closed _ -> Obs.Metrics.hinc circuit_closed_h
      | Item_skipped { fault_class; _ } ->
          Obs.Metrics.inc
            ~labels:[ ("class", skip_class_name fault_class) ]
            m skipped
      | Item_finished _ -> ()
      | Run_finished { elapsed; processed = p; _ } ->
          Obs.Metrics.hset run_seconds_h elapsed;
          Obs.Metrics.hset crashes_h (float_of_int (crashes t));
          Obs.Metrics.hset processed_h (float_of_int p))

  (* Structured progress backend.  Retry and breaker events are counted
     and summarized once per batch — one stderr line per attempt floods
     the output under a high fault rate — with the per-attempt detail
     still available at [Debug]. *)
  let attach_log log t =
    let retries = ref 0 in
    let backoff = ref 0.0 in
    let opened = ref 0 in
    let closed = ref 0 in
    let lg ?subject ?fields level msg =
      Obs.Log.log log ~component:"engine" ?subject ?fields level msg
    in
    subscribe t (function
      | Run_started { pending; batch_size; domains } ->
          lg Obs.Log.Info "run started"
            ~fields:
              [
                ("pending", Json.Int pending);
                ("batch_size", Json.Int batch_size);
                ("domains", Json.Int domains);
              ]
      | Batch_started { index; size } ->
          lg Obs.Log.Debug "batch started"
            ~fields:[ ("index", Json.Int index); ("size", Json.Int size) ]
      | Batch_finished { index; size; elapsed; _ } ->
          let fields =
            [
              ("index", Json.Int index);
              ("size", Json.Int size);
              ("elapsed_s", Json.Float elapsed);
            ]
            @ (if !retries > 0 then
                 [
                   ("retries", Json.Int !retries);
                   ("backoff_s", Json.Float !backoff);
                 ]
               else [])
            @
            if !opened > 0 || !closed > 0 then
              [
                ("circuit_opened", Json.Int !opened);
                ("circuit_closed", Json.Int !closed);
              ]
            else []
          in
          retries := 0;
          backoff := 0.0;
          opened := 0;
          closed := 0;
          lg Obs.Log.Info "batch finished" ~fields
      | Stage_finished { stage; subject; timing; worker; _ } ->
          if Obs.Log.enabled log Obs.Log.Debug then
            lg Obs.Log.Debug "stage finished" ~subject
              ~fields:
                [
                  ("stage", Json.String (stage_name stage));
                  ("worker", Json.Int worker);
                  ("elapsed_s", Json.Float timing.t_elapsed);
                  ("api_calls", Json.Int timing.t_api_calls);
                  ("steps", Json.Int timing.t_steps);
                ]
          else Obs.Log.note_suppressed log
      | Stage_errored { stage; subject; message; _ } ->
          lg Obs.Log.Warn "stage errored" ~subject
            ~fields:
              [
                ("stage", Json.String (stage_name stage));
                ("message", Json.String message);
              ]
      | Retry_attempted { subject; attempt; reason; delay; _ } ->
          incr retries;
          backoff := !backoff +. delay;
          if Obs.Log.enabled log Obs.Log.Debug then
            lg Obs.Log.Debug "retry" ~subject
              ~fields:
                [
                  ("attempt", Json.Int attempt);
                  ("reason", Json.String reason);
                  ("delay_s", Json.Float delay);
                ]
          else Obs.Log.note_suppressed log
      | Circuit_opened { endpoint; subject; failures; _ } ->
          incr opened;
          if Obs.Log.enabled log Obs.Log.Debug then
            lg Obs.Log.Debug "circuit opened" ~subject
              ~fields:
                [
                  ("endpoint", Json.String endpoint);
                  ("failures", Json.Int failures);
                ]
          else Obs.Log.note_suppressed log
      | Circuit_closed { endpoint; subject; _ } ->
          incr closed;
          if Obs.Log.enabled log Obs.Log.Debug then
            lg Obs.Log.Debug "circuit closed" ~subject
              ~fields:[ ("endpoint", Json.String endpoint) ]
          else Obs.Log.note_suppressed log
      | Item_skipped { subject; message; fault_class; attempts; _ } ->
          lg Obs.Log.Warn "item skipped" ~subject
            ~fields:
              [
                ("class", Json.String (skip_class_name fault_class));
                ("attempts", Json.Int attempts);
                ("message", Json.String message);
              ]
      | Item_finished _ -> ()
      | Run_finished { processed; skipped; elapsed; _ } ->
          lg Obs.Log.Info "run finished"
            ~fields:
              [
                ("processed", Json.Int processed);
                ("skipped", Json.Int skipped);
                ("elapsed_s", Json.Float elapsed);
              ])
end
