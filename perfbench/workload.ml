(* The three closed-loop workloads: one client, one server, driven
   through the library's public RPC entry points.

   - echo-block-inproc: [Rpc.send] from the main domain, [Rpc.serve] on
     one server domain, BSW ([Block]) waiting, [int_codec] both ways.
   - echo-block-proc: the same exchange over [Proc_rpc]; the server is a
     fork'd child, the client the parent.  This process spawns no domain
     (OCaml 5 forbids fork after [Domain.spawn]).
   - pipelined8-inproc: [Rpc.call_pipelined ~depth:8] bursts against a
     server looping on [receive_batch ~max:8] / [reply_batch].

   Each payload carries its call id in the high bits, a window mark bit
   and seed-drawn noise in the low 16, so the client can check every echo
   exactly and client and server spans link by id.  Untraced sessions
   measure the end-to-end metrics; the traced session (trace sink on,
   spans recorded into preallocated arrays) measures the per-layer ones. *)

module Rpc = Ulipc_real.Rpc
module Proc_rpc = Ulipc_procipc.Proc_rpc
module Trace_ring = Ulipc_real.Trace_ring
module Clock = Ulipc_observe.Clock
module Event = Ulipc_observe.Event
module Ta = Ulipc_observe.Trace_analysis
module C = Ulipc.Counters
module Parena = Ulipc_procipc.Parena

type kind = Echo_inproc | Echo_proc | Pipelined8

let kind_of_name = function
  | "echo-block-inproc" -> Some Echo_inproc
  | "echo-block-proc" -> Some Echo_proc
  | "pipelined8-inproc" -> Some Pipelined8
  | _ -> None

let burst_size = function Pipelined8 -> 8 | Echo_inproc | Echo_proc -> 1

let stop = -1 (* id -1: tells the server to leave its loop *)
let warmup_calls = 5_000
let setups_per_session = 4
let trace_calls = 30_000
let trace_capacity = 1 lsl 18 (* events per recording domain *)

(* Stated tolerance of the leg reconciliation: a server handler span
   lies inside its client span, each end within 1 us (clock reads on
   different CPUs), so no leg runs backwards by more than that. *)
let leg_tolerance_ns = 1_000

let make_masks seed =
  let st = Random.State.make [| seed |] in
  Array.init 4096 (fun _ -> Random.State.bits st land 0xffff)

let payload masks id = (id lsl 17) lor Array.unsafe_get masks (id land 4095)
let id_of p = p asr 17

(* Set on the first call of each measurement window: the server samples
   its CPU clock when it sees it, so a fork'd server's CPU splits into
   the client's windows. *)
let mark = 1 lsl 16

let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* Spans in preallocated arrays, written out when the run ends. *)
module Spans = struct
  type t = { id : int array; t0 : int array; t1 : int array; mutable n : int }

  let create cap =
    { id = Array.make cap 0; t0 = Array.make cap 0; t1 = Array.make cap 0; n = 0 }

  let none = create 0

  let add s id a b =
    let n = s.n in
    if n < Array.length s.id then begin
      s.id.(n) <- id;
      s.t0.(n) <- a;
      s.t1.(n) <- b;
      s.n <- n + 1
    end

  let trim s =
    let n = s.n in
    { id = Array.sub s.id 0 n; t0 = Array.sub s.t0 0 n; t1 = Array.sub s.t1 0 n; n }
end

(* What the server side hands back when a session closes. *)
type server_report = {
  counters : C.t; (* proc: the server process's own; in-process: empty *)
  spans : Spans.t; (* one [server.handler] span per traced call *)
  events : Event.t list; (* proc: the child's trace events *)
  dropped : int;
}

type session = {
  create_ns : int;
  spawn_ns : int;
  send : int -> int;
  burst : int list -> int list;
  close : unit -> server_report; (* after the stop call was answered *)
  counters : unit -> C.t; (* client side, semaphores harvested; after close *)
  wake_residue : unit -> int;
  slab_hwm : unit -> int;
  trace : Trace_ring.t option;
  cpu_marks : unit -> int array;
      (* proc: the server's CPU clock at each window mark and at the stop *)
  kill : unit -> int;
      (* hang path: end the server side now; proc: its total CPU in ns *)
}

let empty_report =
  { counters = C.create (); spans = Spans.none; events = []; dropped = 0 }

(* Server handler: echo, recording a span for traced calls at or past
   [first_id]; [on_mark] runs on window marks and on the stop. *)
let handler ~spans ~first_id ~on_mark fin x =
  if x = stop then begin
    on_mark ();
    fin := true
  end
  else begin
    if x land mark <> 0 then on_mark ();
    if spans != Spans.none && id_of x >= first_id then begin
      let a = Clock.now_ns () in
      Spans.add spans (id_of x) a (Clock.now_ns ())
    end
  end;
  x

let nop () = ()

let open_inproc ~pipelined ~traced ~first_id =
  let trace = if traced then Some (Trace_ring.create ~capacity:trace_capacity ()) else None in
  let t0 = Clock.now_ns () in
  let rpc =
    Rpc.create ?trace ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec ~nclients:1
      Rpc.Block
  in
  let t1 = Clock.now_ns () in
  let spans = if traced then Spans.create (trace_calls + 8) else Spans.none in
  let server () =
    let fin = ref false in
    let h = handler ~spans ~first_id ~on_mark:nop fin in
    if pipelined then begin
      let one (c, x) = (c, h x) in
      while not !fin do
        Rpc.reply_batch rpc (List.map one (Rpc.receive_batch rpc ~max:8))
      done
    end
    else begin
      let f ~client:_ x = h x in
      while not !fin do
        Rpc.serve rpc f
      done
    end
  in
  let dom = Domain.spawn server in
  let t2 = Clock.now_ns () in
  {
    create_ns = t1 - t0;
    spawn_ns = t2 - t1;
    send = (fun x -> Rpc.send rpc ~client:0 x);
    burst = (fun l -> Rpc.call_pipelined rpc ~client:0 ~depth:8 l);
    close =
      (fun () ->
        Domain.join dom;
        Rpc.harvest_sem_counters rpc;
        { empty_report with spans = Spans.trim spans });
    counters = (fun () -> Rpc.counters rpc);
    wake_residue = (fun () -> Rpc.wake_residue rpc);
    slab_hwm = (fun () -> Ulipc_real.Slab.high_water (Rpc.slab rpc));
    trace;
    cpu_marks = (fun () -> [||]);
    kill = (fun () -> 0);
  }

let harvest_events trace =
  match trace with
  | None -> ([], 0)
  | Some sink ->
    let pid = Unix.getpid () in
    (List.map (Event.namespace_actor ~pid) (Trace_ring.events sink), Trace_ring.dropped sink)

(* The server's CPU marks live in a shared arena (word 0: count), so
   the client can read them even after killing a stuck server. *)
let max_marks = 1024

let proc_server rpc ~traced ~first_id ~marks wr =
  let spans = if traced then Spans.create (trace_calls + 8) else Spans.none in
  let fin = ref false in
  let on_mark () =
    let n = Parena.get marks 0 in
    if n < max_marks then begin
      Parena.set marks (1 + n) (cpu_ns ());
      Parena.at_store marks 0 (n + 1)
    end
  in
  let h = handler ~spans ~first_id ~on_mark fin in
  let f ~client:_ x = h x in
  while not !fin do
    Proc_rpc.serve rpc f
  done;
  Proc_rpc.harvest_sem_counters rpc;
  let events, dropped = harvest_events (Proc_rpc.trace rpc) in
  let report =
    {
      counters = C.snapshot (Proc_rpc.counters rpc);
      spans = Spans.trim spans;
      events;
      dropped;
    }
  in
  let oc = Unix.out_channel_of_descr wr in
  Marshal.to_channel oc report [];
  flush oc

let open_proc ~traced ~first_id =
  let marks = Parena.create ~size_words:(1 + max_marks) () in
  let trace = if traced then Some (Trace_ring.create ~capacity:trace_capacity ()) else None in
  let t0 = Clock.now_ns () in
  let rpc = Proc_rpc.create ?trace ~nclients:1 Proc_rpc.Block in
  let t1 = Clock.now_ns () in
  let rd, wr = Unix.pipe ~cloexec:false () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        proc_server rpc ~traced ~first_id ~marks wr;
        0
      with e ->
        Printf.eprintf "server: %s\n%!" (Printexc.to_string e);
        2
    in
    Unix._exit code
  | pid ->
    let t2 = Clock.now_ns () in
    Unix.close wr;
    let reaped = ref false in
    let reap () =
      if not !reaped then begin
        reaped := true;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "server process failed"
      end
    in
    {
      create_ns = t1 - t0;
      spawn_ns = t2 - t1;
      send = (fun x -> Proc_rpc.send rpc ~client:0 x);
      burst = (fun _ -> invalid_arg "echo-block-proc has no pipelined burst");
      close =
        (fun () ->
          let ic = Unix.in_channel_of_descr rd in
          let r = (Marshal.from_channel ic : server_report) in
          close_in ic;
          reap ();
          Proc_rpc.harvest_sem_counters rpc;
          r);
      counters = (fun () -> Proc_rpc.counters rpc);
      wake_residue = (fun () -> Proc_rpc.wake_residue rpc);
      slab_hwm = (fun () -> Ulipc_procipc.Pslab.high_water (Proc_rpc.slab rpc));
      trace;
      cpu_marks =
        (fun () -> Array.init (Parena.at_load marks 0) (fun k -> Parena.get marks (1 + k)));
      kill =
        (fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          let children () =
            let t = Unix.times () in
            int_of_float ((t.Unix.tms_cutime +. t.Unix.tms_cstime) *. 1e9)
          in
          let before = children () in
          if not !reaped then begin
            reaped := true;
            ignore (Unix.waitpid [] pid : int * Unix.process_status)
          end;
          children () - before);
    }

let open_session kind ~traced ~first_id =
  match kind with
  | Echo_inproc -> open_inproc ~pipelined:false ~traced ~first_id
  | Pipelined8 -> open_inproc ~pipelined:true ~traced ~first_id
  | Echo_proc -> open_proc ~traced ~first_id

(* ---- the client side ---------------------------------------------- *)

(* Call tally over the whole process, read by the hang path too. *)
let attempted = ref 0
let failed = ref 0
let bad = ref 0
let next_id = ref 0

(* Measurement windows.  A timed phase is cut into windows of equal
   length; each window yields its own throughput, round-trip percentiles
   and CPU per call, and run.py reports the median over every window of
   the run, so a burst of host noise moves one window, not the run. *)
type wstat = {
  calls : int; (* completed in the window *)
  ns : int; (* window length: first call start to last call end *)
  p50 : int;
  p99 : int;
  samples : int; (* round-trip samples (bursts for pipelined8) *)
  cpu : int; (* client-process CPU; the proc server's is added later *)
}

type window = {
  rts : int array; (* round trips of the current window *)
  mutable nrt : int;
  spans : Spans.t; (* [client.call] spans: one per call or burst *)
  mutable calls : int; (* in the current window *)
  mutable total : int; (* over all windows *)
  mutable t_start : int;
  mutable t_last : int;
  mutable cpu0 : int;
  mutable marked : bool; (* the next call carries the mark *)
  mutable done_ : wstat list; (* finished windows, newest first *)
}

let new_window ~traced =
  {
    rts = Array.make (1 lsl 20) 0;
    nrt = 0;
    spans = (if traced then Spans.create (trace_calls + 8) else Spans.none);
    calls = 0;
    total = 0;
    t_start = 0;
    t_last = 0;
    cpu0 = 0;
    marked = false;
    done_ = [];
  }

let wd : Watchdog.t option ref = ref None

let enter calls =
  attempted := !attempted + calls;
  let now = Clock.now_ns () in
  (match !wd with Some w -> Watchdog.enter w ~now ~calls | None -> ());
  now

let leave () = match !wd with Some w -> Watchdog.leave w | None -> ()

let call_checked sess p =
  ignore (enter 1 : int);
  let r = sess.send p in
  leave ();
  if r <> p then incr bad

let record w a b n =
  if w.nrt < Array.length w.rts then begin
    w.rts.(w.nrt) <- b - a;
    w.nrt <- w.nrt + 1
  end;
  w.calls <- w.calls + n;
  w.total <- w.total + n;
  w.t_last <- b

(* One synchronous call or one pipelined burst, checked and timed into
   [w]. *)
let step kind sess masks w =
  let id = !next_id in
  let m = if w.marked then mark else 0 in
  w.marked <- false;
  match kind with
  | Echo_inproc | Echo_proc ->
    let p = payload masks id lor m in
    let a = enter 1 in
    let r = sess.send p in
    let b = Clock.now_ns () in
    leave ();
    if r <> p then incr bad;
    Spans.add w.spans id a b;
    record w a b 1;
    next_id := id + 1
  | Pipelined8 ->
    let reqs = List.init 8 (fun k -> payload masks (id + k) lor if k = 0 then m else 0) in
    let a = enter 8 in
    let reps = sess.burst reqs in
    let b = Clock.now_ns () in
    leave ();
    (try List.iter2 (fun r q -> if r <> q then incr bad) reps reqs
     with Invalid_argument _ -> bad := !bad + 8);
    Spans.add w.spans id a b;
    record w a b 8;
    next_id := id + 8

let scratch = lazy (new_window ~traced:false)

let warm_up kind sess masks =
  let w = Lazy.force scratch in
  w.total <- 0;
  w.nrt <- 0;
  while w.total < warmup_calls do
    step kind sess masks w
  done

let close_window w =
  let cpu = cpu_ns () - w.cpu0 in
  let a = Array.sub w.rts 0 w.nrt in
  w.done_ <-
    {
      calls = w.calls;
      ns = w.t_last - w.t_start;
      p50 = Hist.pct_of_array a 0.5;
      p99 = Hist.pct_of_array a 0.99;
      samples = w.nrt;
      cpu;
    }
    :: w.done_

(* [windows] windows of [window_s] each, or until [max_calls]. *)
let timed kind sess masks w ~windows ~window_s ~max_calls =
  let k = ref 0 in
  while !k < windows && w.total < max_calls do
    w.cpu0 <- cpu_ns ();
    w.calls <- 0;
    w.nrt <- 0;
    w.marked <- true;
    w.t_start <- Clock.now_ns ();
    w.t_last <- w.t_start;
    let until = w.t_start + int_of_float (window_s *. 1e9) in
    while w.t_last < until && w.total < max_calls do
      step kind sess masks w
    done;
    close_window w;
    incr k
  done

(* ---- set-up --------------------------------------------------------- *)

(* One set-up: session creation to first reply, split into [create]
   (Rpc.create / Proc_rpc.create), [spawn] (Domain.spawn / fork) and
   the first call. *)
type setup = { create : int; spawn : int; first : int; total : int }

(* Every set-up of the run, newest first. *)
let setups : setup list ref = ref []

(* The open session's server, for the hang path. *)
let kill_server : (unit -> int) ref = ref (fun () -> 0)
let server_marks : (unit -> int array) ref = ref (fun () -> [||])

(* Counter algebra of a closed session that served [calls] calls. *)
let check_counters kind name (c : C.t) ~calls ~residue =
  Out.check (c.sends = calls) "%s: sends %d <> calls %d" name c.sends calls;
  Out.check (c.receives = calls) "%s: receives %d <> calls %d" name c.receives calls;
  Out.check (c.replies = calls) "%s: replies %d <> calls %d" name c.replies calls;
  Out.check (residue = 0) "%s: wake_residue %d" name residue;
  match kind with
  | Echo_inproc | Pipelined8 ->
    Out.check (c.sem_parks = c.sem_grants) "%s: sem_parks %d <> sem_grants %d" name
      c.sem_parks c.sem_grants
  | Echo_proc -> ()

(* Stop and close [sess], opened when [attempted] read [a0], and check
   the counter algebra of every call issued on it.  Returns the server's
   report, the merged counters of both peers and the call count. *)
let close_checked kind name sess ~a0 =
  call_checked sess stop;
  let server = sess.close () in
  kill_server := (fun () -> 0);
  let counters = C.snapshot (sess.counters ()) in
  C.add counters server.counters;
  let calls = !attempted - a0 in
  check_counters kind name counters ~calls ~residue:(sess.wake_residue ());
  (server, counters, calls)

let open_first kind masks ~traced ~first_id =
  let t0 = Clock.now_ns () in
  let sess = open_session kind ~traced ~first_id in
  let t1 = Clock.now_ns () in
  kill_server := sess.kill;
  server_marks := sess.cpu_marks;
  call_checked sess (payload masks !next_id);
  incr next_id;
  let t2 = Clock.now_ns () in
  setups := { create = sess.create_ns; spawn = sess.spawn_ns; first = t2 - t1; total = t2 - t0 } :: !setups;
  sess

(* [setups_per_session] set-ups of their own, each session closed again
   before the next opens; run before every timed session, so set-up
   samples spread over the whole run like the windows do. *)
let measure_setups kind masks =
  for _ = 1 to setups_per_session do
    let a0 = !attempted in
    let sess = open_first kind masks ~traced:false ~first_id:max_int in
    ignore (close_checked kind "set-up session" sess ~a0 : server_report * C.t * int)
  done

(* ---- checks and sessions -------------------------------------------- *)

type run = {
  windows : wstat list; (* oldest first, server CPU included *)
  spans : Spans.t;
  first_id : int; (* id of the first timed call *)
  counters : C.t;
  session_calls : int;
  server : server_report;
  client_events : Event.t list;
  client_dropped : int;
  hwm : int;
}

(* The timed phase in progress and the windows of the sessions already
   closed, for the hang path's partial report. *)
let current : window option ref = ref None
let finished : wstat list ref = ref []

(* Add the fork'd server's CPU, split at the window marks, to each
   window ([marks] holds one sample per window start plus the end). *)
let with_server_cpu kind marks windows =
  match kind with
  | Echo_inproc | Pipelined8 -> windows (* one process: its CPU clock covers both *)
  | Echo_proc ->
    Out.check
      (Array.length marks = List.length windows + 1)
      "server saw %d window marks for %d windows" (Array.length marks) (List.length windows);
    if Array.length marks <> List.length windows + 1 then windows
    else List.mapi (fun k (s : wstat) -> { s with cpu = s.cpu + marks.(k + 1) - marks.(k) }) windows

(* One session: first call, warm-up, timed windows, stop, close. *)
let run_session kind masks ~traced ~windows ~window_s ~max_calls =
  measure_setups kind masks;
  let a0 = !attempted in
  let first_id = !next_id + 1 + warmup_calls + 8 in
  let sess = open_first kind masks ~traced ~first_id in
  warm_up kind sess masks;
  next_id := first_id;
  let w = new_window ~traced in
  current := Some w;
  timed kind sess masks w ~windows ~window_s ~max_calls;
  current := None;
  let server, counters, session_calls =
    close_checked kind (if traced then "traced session" else "session") sess ~a0
  in
  let client_events, client_dropped =
    match kind with
    | Echo_proc -> harvest_events sess.trace
    | Echo_inproc | Pipelined8 -> (
      match sess.trace with
      | None -> ([], 0)
      | Some s -> (Trace_ring.events s, Trace_ring.dropped s))
  in
  let windows = with_server_cpu kind (sess.cpu_marks ()) (List.rev w.done_) in
  finished := !finished @ windows;
  {
    windows;
    spans = Spans.trim w.spans;
    first_id;
    counters;
    session_calls;
    server;
    client_events;
    client_dropped;
    hwm = sess.slab_hwm ();
  }
