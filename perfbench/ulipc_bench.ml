(* ulipc_bench: one run of one workload, or one set of layer-alone loops,
   reported as a single JSON line on stdout (see out.ml).

     ulipc_bench.exe workload NAME SEED SECONDS TRACE
     ulipc_bench.exe layers-dom SECONDS
     ulipc_bench.exe layers-proc SECONDS

   TRACE = 0 measures the end-to-end metrics with tracing off; TRACE = 1
   measures the per-layer ones: an untraced session (counters and the
   tracing-overhead baseline), then a traced one (spans, trace sink).
   Exit status 1 on a wrong reply or a failed check. *)

open Workload

let us_of_ns ns = float ns /. 1000.0
let calls_per_s calls elapsed_ns = float calls /. (float elapsed_ns /. 1e9)

let median l = List.nth (List.sort Float.compare l) (List.length l / 2)
let median_of f (ws : wstat list) = median (List.map f ws)

(* Raw windows and set-up times: run.py pools them over the run's
   processes and reports the medians. *)
let report_windows (ws : wstat list) =
  Out.add_raw "windows" (List.map (fun (w : wstat) -> [ w.calls; w.ns; w.p50; w.p99; w.cpu; w.samples ]) ws)

let report_setup () = Out.add_raw "setup_ns" (List.map (fun s -> [ s.total ]) !setups)

let setup_median f = Hist.pct_of_array (Array.of_list (List.map f !setups)) 0.5

let report_setup_layers () =
  let n = List.length !setups in
  Out.add "setup.create_us" "us" ~samples:n (us_of_ns (setup_median (fun s -> s.create)));
  Out.add "setup.spawn_us" "us" ~samples:n (us_of_ns (setup_median (fun s -> s.spawn)));
  Out.add "setup.first_call_us" "us" ~samples:n (us_of_ns (setup_median (fun s -> s.first)))

(* A call stuck past the deadline: count it failed, kill the server,
   report the windows completed so far, the interrupted one included,
   and end the process (the client thread is parked in the kernel for
   good). *)
let on_hang ~kind ~trace outstanding =
  let server_cpu = !kill_server () in
  failed := !failed + outstanding;
  Printf.eprintf "%d call(s) without a reply after %d s: counted as failed, server killed\n%!"
    outstanding (Watchdog.deadline_ns / 1_000_000_000);
  if trace = 0 then begin
    let interrupted =
      match !current with
      | Some w ->
        if w.calls > 0 then close_window w;
        let marks = Array.append (!server_marks ()) [| server_cpu |] in
        with_server_cpu kind marks (List.rev w.done_)
      | None -> []
    in
    let ws = !finished @ interrupted in
    report_windows ws;
    report_setup ()
  end
  else report_setup_layers ();
  Out.emit ~attempted:!attempted ~failed:!failed ~bad:!bad;
  Unix._exit 0

(* ---- per-layer metrics from the traced session ---------------------- *)

(* Link every [server.handler] span to the [client.call] span (one call,
   or one burst of [b]) that caused it, by call id, and split the round
   trip into request, service and reply legs. *)
let report_legs ~b ~first_id (cs : Spans.t) (ss : Spans.t) =
  let calls = cs.n * b in
  let req = Array.make ss.n 0 and svc = Array.make ss.n 0 and rep = Array.make ss.n 0 in
  let covered = Array.make cs.n 0 in
  let linked = ref 0 and backwards = ref 0 in
  for k = 0 to ss.n - 1 do
    let j = (ss.id.(k) - first_id) / b in
    if ss.id.(k) >= first_id && j < cs.n then begin
      let l = !linked in
      req.(l) <- ss.t0.(k) - cs.t0.(j);
      svc.(l) <- ss.t1.(k) - ss.t0.(k);
      rep.(l) <- cs.t1.(j) - ss.t1.(k);
      if req.(l) < -leg_tolerance_ns || rep.(l) < -leg_tolerance_ns then incr backwards;
      covered.(j) <- covered.(j) + svc.(l);
      incr linked
    end
  done;
  let n = !linked in
  let req = Array.sub req 0 n and svc = Array.sub svc 0 n and rep = Array.sub rep 0 n in
  let span = Array.init cs.n (fun j -> cs.t1.(j) - cs.t0.(j)) in
  let self = Array.init cs.n (fun j -> span.(j) - covered.(j)) in
  let turn = Array.init (max 0 (ss.n - 1)) (fun k -> ss.t0.(k + 1) - ss.t1.(k)) in
  (* The three legs of a linked call add up to its client span by
     construction.  What can fail is the linking: a server span missing
     or mislinked, or one lying outside its client span by more than the
     tolerance (clock reads on different CPUs). *)
  Out.check (n = calls) "legs: %d server spans linked to %d traced calls" n calls;
  Out.check (!backwards = 0) "legs: %d handler spans outside their client span by more than %d ns"
    !backwards leg_tolerance_ns;
  let pct name a q = Out.add name "us" ~samples:(Array.length a) (us_of_ns (Hist.pct_of_array a q)) in
  pct "leg.request_p50_us" req 0.5;
  pct "leg.request_p99_us" req 0.99;
  pct "leg.service_p50_us" svc 0.5;
  pct "leg.reply_p50_us" rep 0.5;
  pct "leg.reply_p99_us" rep 0.99;
  pct "server.turn_p50_us" turn 0.5;
  pct "client.call_p50_us" span 0.5;
  pct "client.self_p50_us" self 0.5

let report_counters (u : run) =
  let c = u.counters and n = float u.session_calls in
  let per_call name v = Out.add name "count" ~samples:u.session_calls (float v /. n) in
  let blocks = c.client_blocks + c.server_blocks in
  per_call "sem.parks_per_call" c.sem_parks;
  per_call "sem.grants_per_call" c.sem_grants;
  Out.add "sem.park_share" "share" ~samples:blocks (float c.sem_parks /. float (max 1 blocks));
  per_call "core.blocks_per_call" blocks;
  per_call "core.wakeups_per_call" (c.client_wakeups + c.server_wakeups);
  per_call "core.race_fixes_per_call" c.race_fix_p;
  per_call "ring.full_sleeps_per_call" c.queue_full_sleeps;
  per_call "substrate.backoff_sleeps_per_call" c.backoff_sleeps;
  Out.add "slab.hwm" "count" ~samples:1 (float u.hwm)

let report_trace (u : run) (t : run) =
  let events = t.client_events @ t.server.events in
  let dropped = t.client_dropped + t.server.dropped in
  let a = Ta.analyse ~complete:(dropped = 0) events in
  let dist name (d : Ta.dist) v = Out.add name "us" ~samples:d.n v in
  dist "wake.latency_p50_us" a.wake_latency a.wake_latency.p50_us;
  dist "wake.latency_p99_us" a.wake_latency a.wake_latency.p99_us;
  dist "block.duration_p50_us" a.block_duration a.block_duration.p50_us;
  let violations = List.length a.violations in
  Out.add "trace.violations" "count" ~samples:a.events (float violations);
  Out.add "trace.dropped" "count" ~samples:a.events (float dropped);
  Out.check (violations = 0) "trace: %d invariant violations" violations;
  let cps (r : run) = median_of (fun w -> calls_per_s w.calls w.ns) r.windows in
  Out.add "trace.overhead_share" "share"
    ~samples:(List.fold_left (fun n (w : wstat) -> n + w.calls) 0 t.windows)
    (1.0 -. (cps t /. cps u))

(* ---- entry points ---------------------------------------------------- *)

let workload kind ~seed ~seconds ~trace =
  let masks = make_masks seed in
  wd := Some (Watchdog.start (on_hang ~kind ~trace));
  if trace = 0 then begin
    (* One fresh session per window: how a session's two peers settle
       (placement, wake-up order) varies from session to session, and the
       median over many sessions is steadier than any one of them. *)
    let sessions = max 1 (int_of_float (Float.round seconds)) in
    let window_s = seconds /. float sessions in
    for _ = 1 to sessions do
      ignore (run_session kind masks ~traced:false ~windows:1 ~window_s ~max_calls:max_int : run)
    done;
    report_windows !finished;
    report_setup ()
  end
  else begin
    let u =
      run_session kind masks ~traced:false ~windows:4 ~window_s:(0.1 *. seconds) ~max_calls:max_int
    in
    let t =
      run_session kind masks ~traced:true ~windows:1 ~window_s:(0.3 *. seconds)
        ~max_calls:trace_calls
    in
    report_legs ~b:(burst_size kind) ~first_id:t.first_id t.spans t.server.spans;
    report_counters u;
    report_trace u t;
    report_setup_layers ()
  end

let () =
  let status =
    match Array.to_list Sys.argv |> List.tl with
    | [ "workload"; name; seed; seconds; trace ] -> (
      match kind_of_name name with
      | Some kind ->
        workload kind ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
          ~trace:(int_of_string trace);
        `Ok
      | None -> `Usage)
    | [ "layers-dom"; seconds ] ->
      Layers.run_dom ~seconds:(float_of_string seconds);
      `Ok
    | [ "layers-proc"; seconds ] ->
      Layers.run_proc ~seconds:(float_of_string seconds);
      `Ok
    | _ -> `Usage
  in
  match status with
  | `Usage ->
    prerr_endline
      "usage: ulipc_bench.exe (workload NAME SEED SECONDS TRACE | layers-dom SECONDS | \
       layers-proc SECONDS)";
    exit 2
  | `Ok ->
    Out.emit ~attempted:(max 1 !attempted) ~failed:!failed ~bad:!bad;
    exit (if !bad = 0 && !Out.checks = [] then 0 else 1)
