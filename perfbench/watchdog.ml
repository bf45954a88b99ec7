(* Per-call deadline.  The client marks each call (or pipelined burst)
   in flight; a system thread of the client's own process wakes every
   [period] and, once a call has been in flight longer than the
   deadline, runs [on_hang] with the number of calls still outstanding.
   [on_hang] reports the stuck calls as failed and ends the process: the
   client itself is parked in the kernel and cannot be relied on to
   return.  Both semaphore waits (Rsem's Condition.wait, Fsem's
   FUTEX_WAIT) release the runtime lock, so the thread gets to run. *)

type t = {
  mutable since : int; (* Clock.now_ns at call start, 0 when idle *)
  mutable outstanding : int;
}

let deadline_ns = 2_000_000_000
let period = 0.1

let start on_hang =
  let t = { since = 0; outstanding = 0 } in
  let rec watch () =
    Thread.delay period;
    let s = t.since in
    if s <> 0 && Ulipc_observe.Clock.now_ns () - s > deadline_ns then
      on_hang t.outstanding
    else watch ()
  in
  ignore (Thread.create watch () : Thread.t);
  t

let enter t ~now ~calls =
  t.outstanding <- calls;
  t.since <- now

let leave t = t.since <- 0
