(* A virtual clock's time lives in one atomic cell, so reads and waits
   need no lock: a transport builds one per connection.  The time is
   boxed in a record so the compare-and-set compares the cell read, never
   a float the compiler may have re-boxed. *)
type cell = { at : float }
type t = Real | Virtual of { v_now : cell Atomic.t; v_step : float }

let real = Real

let virtual_ ?(start = 0.0) ?(auto_step = 0.0) () =
  Virtual { v_now = Atomic.make { at = start }; v_step = auto_step }

(* Replace the virtual time by [f] of it; returns the time replaced. *)
let rec update a f =
  let c = Atomic.get a in
  let t = f c.at in
  if t = c.at || Atomic.compare_and_set a c { at = t } then c.at
  else update a f

let now = function
  | Real -> Unix.gettimeofday ()
  | Virtual v -> update v.v_now (fun t -> t +. v.v_step)

let sleep t dt =
  if dt > 0.0 then
    match t with
    | Real -> Unix.sleepf dt
    | Virtual v -> ignore (update v.v_now (fun t -> t +. dt))

let advance_to t deadline =
  match t with
  | Real ->
      let dt = deadline -. Unix.gettimeofday () in
      if dt > 0.0 then Unix.sleepf dt
  | Virtual v -> ignore (update v.v_now (fun t -> Float.max t deadline))
