(* Layer-alone loops: one layer's public functions, two peers (the
   workloads' peer count), nothing else on the path.  [Dom] loops pair
   two domains of this process; [Proc] loops pair this process with a
   fork'd child over a [Parena], so they run in a process that has
   spawned no domain. *)

module Clock = Ulipc_observe.Clock
module Rsem = Ulipc_real.Rsem
module Spsc = Ulipc_real.Spsc_ring
module Mpsc = Ulipc_real.Mpsc_ring
module Slab = Ulipc_real.Slab
module Parena = Ulipc_procipc.Parena
module Fsem = Ulipc_procipc.Fsem
module Pring = Ulipc_procipc.Pring
module Pslab = Ulipc_procipc.Pslab

let capacity = 64 (* the sessions' ring capacity *)
let slots = 130 (* the sessions' default slab: (nclients + 1) * (capacity + 1) *)

(* How a peer waits for the other: a pause on a multiprocessor.  On a
   uniprocessor (the process pinned to one CPU) a pause never lets the
   peer run, so it yields, as the library's own busy-waits do there. *)
let relax =
  if Domain.recommended_domain_count () > 1 then Domain.cpu_relax else Parena.sched_yield

(* Fork [child], run [parent], reap the child. *)
let with_child child parent =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code = try child (); 0 with _ -> 2 in
    Unix._exit code
  | pid ->
    let r = parent () in
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "layer loop: child failed");
    r

(* V/P ping-pong: the main peer times each round trip; one hand-off is
   half of it.  Returns the median hand-off in ns and the sample count. *)
let handoff ~seconds ~v_ping ~p_pong =
  let h = Hist.create () in
  let until = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let last = ref 0 in
  while !last < until do
    let a = Clock.now_ns () in
    v_ping ();
    p_pong ();
    last := Clock.now_ns ();
    Hist.record h (!last - a)
  done;
  (float (Hist.pct_ns h 0.5) /. 2.0, Hist.count h)

let rsem_handoff ~seconds =
  let ping = Rsem.create 0 and pong = Rsem.create 0 in
  let quit = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let go = ref true in
        while !go do
          Rsem.p ping;
          if Atomic.get quit then go := false else Rsem.v pong
        done)
  in
  let r = handoff ~seconds ~v_ping:(fun () -> Rsem.v ping) ~p_pong:(fun () -> Rsem.p pong) in
  Atomic.set quit true;
  Rsem.v ping;
  Domain.join d;
  r

let fsem_handoff ~seconds =
  let a = Parena.create ~size_words:4096 () in
  let ping = Fsem.create a and pong = Fsem.create a in
  let quit = Parena.alloc_line a ~words:Parena.cache_line_words in
  with_child
    (fun () ->
      let go = ref true in
      while !go do
        Fsem.p ping;
        if Parena.at_load a quit <> 0 then go := false else Fsem.v pong
      done)
    (fun () ->
      let r = handoff ~seconds ~v_ping:(fun () -> Fsem.v ping) ~p_pong:(fun () -> Fsem.p pong) in
      Parena.at_store a quit 1;
      Fsem.v ping;
      r)

(* One-way transfer of [n] values 0..n-1 from a producer peer to the
   timing consumer; ns per message, and whether every value arrived in
   order. *)
let transfer ~n ~spawn_producer ~dequeue ~join =
  let go = Atomic.make false in
  let joiner = spawn_producer go in
  let t0 = Clock.now_ns () in
  Atomic.set go true;
  let next = ref 0 and in_order = ref true in
  while !next < n do
    let v = dequeue () in
    if v >= 0 then begin
      if v <> !next then in_order := false;
      incr next
    end
    else relax ()
  done;
  let t1 = Clock.now_ns () in
  join joiner;
  (float (t1 - t0) /. float n, !in_order)

let on_domain produce go =
  Domain.spawn (fun () ->
      while not (Atomic.get go) do
        relax ()
      done;
      produce ())

let push_all enqueue n =
  for v = 0 to n - 1 do
    while not (enqueue v) do
      relax ()
    done
  done

let spsc_xfer ~n =
  let q = Spsc.create ~capacity () in
  transfer ~n
    ~spawn_producer:(on_domain (fun () -> push_all (Spsc.enqueue q) n))
    ~dequeue:(fun () -> Spsc.dequeue q)
    ~join:Domain.join

let mpsc_xfer ~n =
  let q = Mpsc.create ~capacity () in
  transfer ~n
    ~spawn_producer:(on_domain (fun () -> push_all (Mpsc.enqueue q) n))
    ~dequeue:(fun () -> Mpsc.dequeue q)
    ~join:Domain.join

(* Batches of 8: one span claim per [enqueue_batch], drained by
   [dequeue_batch] into a buffer the consumer walks. *)
let mpsc_batch8_xfer ~n =
  let q = Mpsc.create ~capacity () in
  let produce () =
    let buf = Array.make 8 0 in
    let v = ref 0 in
    while !v < n do
      let len = min 8 (n - !v) in
      for k = 0 to len - 1 do
        buf.(k) <- !v + k
      done;
      let pos = ref 0 in
      while !pos < len do
        let k = Mpsc.enqueue_batch q buf ~pos:!pos ~len:(len - !pos) in
        if k = 0 then relax ();
        pos := !pos + k
      done;
      v := !v + len
    done
  in
  let buf = Array.make 8 0 and have = ref 0 and pos = ref 0 in
  let dequeue () =
    if !pos = !have then begin
      have := Mpsc.dequeue_batch q buf ~pos:0 ~max:8;
      pos := 0
    end;
    if !pos < !have then begin
      let v = buf.(!pos) in
      incr pos;
      v
    end
    else -1
  in
  transfer ~n ~spawn_producer:(on_domain produce) ~dequeue ~join:Domain.join

let pring_xfer ~n =
  let a = Parena.create ~size_words:(4096 + (4 * capacity)) () in
  let q = Pring.Spsc.create a ~capacity in
  let go = Parena.alloc_line a ~words:Parena.cache_line_words in
  with_child
    (fun () ->
      while Parena.at_load a go = 0 do
        relax ()
      done;
      push_all (Pring.Spsc.enqueue q) n)
    (fun () ->
      transfer ~n
        ~spawn_producer:(fun _ -> Parena.at_store a go 1)
        ~dequeue:(fun () -> Pring.Spsc.dequeue q)
        ~join:ignore)

(* Both peers alloc+release [n] times on one shared slab; ns per pair
   as the timing peer sees it, and whether every slot came back. *)
let pairs ~n ~alloc ~release =
  for _ = 1 to n do
    let i = alloc () in
    if i >= 0 then release i
  done

let slab_pairs ~n =
  let s = Slab.create ~slots () in
  let go = Atomic.make false in
  let d =
    on_domain (fun () -> pairs ~n ~alloc:(fun () -> Slab.try_alloc s) ~release:(Slab.release s)) go
  in
  Atomic.set go true;
  let t0 = Clock.now_ns () in
  pairs ~n ~alloc:(fun () -> Slab.try_alloc s) ~release:(Slab.release s);
  let t1 = Clock.now_ns () in
  Domain.join d;
  (float (t1 - t0) /. float n, Slab.in_use_count s = 0)

let pslab_pairs ~n =
  let a = Parena.create ~size_words:(4096 + (4 * slots)) () in
  let s = Pslab.create a ~slots in
  let go = Parena.alloc_line a ~words:Parena.cache_line_words in
  let alloc () = Pslab.try_alloc s and release = Pslab.release s in
  let ns =
    with_child
      (fun () ->
        while Parena.at_load a go = 0 do
          relax ()
        done;
        pairs ~n ~alloc ~release)
      (fun () ->
        Parena.at_store a go 1;
        let t0 = Clock.now_ns () in
        pairs ~n ~alloc ~release;
        float (Clock.now_ns () - t0) /. float n)
  in
  (ns, Pslab.in_use_count s = 0)

let xfer_n = 2_000_000
let pair_n = 2_000_000

let report_ns name (ns, ok) ~n =
  Out.check ok "%s: values lost, reordered or slots leaked" name;
  Out.add name "ns" ~samples:n ns

let run_dom ~seconds =
  let ns, n = rsem_handoff ~seconds in
  Out.add "rsem.handoff_p50_us" "us" ~samples:n (ns /. 1000.0);
  report_ns "spsc.xfer_ns" (spsc_xfer ~n:xfer_n) ~n:xfer_n;
  report_ns "mpsc.xfer_ns" (mpsc_xfer ~n:xfer_n) ~n:xfer_n;
  report_ns "mpsc.batch8_xfer_ns" (mpsc_batch8_xfer ~n:xfer_n) ~n:xfer_n;
  report_ns "slab.alloc_release_ns" (slab_pairs ~n:pair_n) ~n:pair_n

let run_proc ~seconds =
  let ns, n = fsem_handoff ~seconds in
  Out.add "fsem.handoff_p50_us" "us" ~samples:n (ns /. 1000.0);
  report_ns "pring.xfer_ns" (pring_xfer ~n:xfer_n) ~n:xfer_n;
  report_ns "pslab.alloc_release_ns" (pslab_pairs ~n:pair_n) ~n:pair_n
