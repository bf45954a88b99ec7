#!/usr/bin/env python3
"""Build the ulipc benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  With --trace 0 it prints the
end-to-end metrics of BENCHMARK.json (tracing off); with --trace 1 the
per-layer ones (a traced run plus the layer-alone loops).  Every metric
is printed on its own line with its unit and sample count, then the host
record, then one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 on a correct run (failed calls are counted, not fatal),
1 on a wrong reply or a failed check, 2 when the program cannot be built
or run.  Each workload and each layer-alone loop runs in its own process,
one after another, never overlapping.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
TARGET = "./perfbench/ulipc_bench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "ulipc_bench.exe")
RUN_BUDGET_S = 165  # every process of one run, build excluded
SECONDS_PER_PROCESS = 2

# Workload name -> (the program's workload, pinned to one CPU).  Pinned
# runs measure the library's uniprocessor configuration; NOTES.md,
# "Placement", says why the listed workloads are pinned and why
# echo-block-proc, which is not listed, keeps both CPUs.
WORKLOADS = {
    "echo-block-inproc": ("echo-block-inproc", True),
    "pipelined8-inproc": ("pipelined8-inproc", True),
    "echo-block-proc-1cpu": ("echo-block-proc", True),
    "echo-block-proc": ("echo-block-proc", False),
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project here: run from the root of the source tree")
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet", TARGET]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def run_program(args, deadline, one_cpu=False):
    """Run the benchmark program once, in its own process group, and
    return its report (the last line of its stdout)."""
    pin = None
    if one_cpu:
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, preexec_fn=pin, start_new_session=True)
    try:
        out, err = p.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        out = None
    # The program reaps the servers it forks; this also stops any left
    # behind by a crash or a timeout.
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if out is None:
        p.communicate()
        fail(f"{' '.join(args)}: no report in time")
    sys.stderr.write(err)
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"{' '.join(args)}: exit {p.returncode} without a report")


def host_record(start):
    with open("/proc/loadavg") as f:
        loadavg = f.read().strip()
    return {
        "nproc": os.cpu_count(),
        "loadavg": loadavg,
        "start": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(start)),
    }


def e2e_metrics(windows, setup_ns):
    """Medians over every window (one per session) of every process."""
    med = statistics.median
    calls = sum(w[0] for w in windows)
    samples = sum(w[5] for w in windows)
    return {
        "calls_per_s": {"value": med(w[0] / w[1] * 1e9 for w in windows), "unit": "1/s",
                        "samples": calls},
        "rt_p50_us": {"value": med(w[2] for w in windows) / 1e3, "unit": "us", "samples": samples},
        "rt_p99_us": {"value": med(w[3] for w in windows) / 1e3, "unit": "us", "samples": samples},
        "cpu_us_per_call": {"value": med(w[4] / w[0] for w in windows) / 1e3, "unit": "us",
                            "samples": calls},
        "setup_s": {"value": med(s[0] for s in setup_ns) / 1e9, "unit": "s",
                    "samples": len(setup_ns)},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    spec = load_spec()
    if a.workload not in WORKLOADS:
        fail(f"unknown workload {a.workload}; known: {', '.join(WORKLOADS)}")
    if a.seconds <= 0:
        fail("--seconds must be positive")
    workload, one_cpu = WORKLOADS[a.workload]
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    build()
    start = time.time()
    deadline = start + RUN_BUDGET_S
    host = host_record(start)
    reports = []
    if a.trace:
        reports.append(run_program(
            ["workload", workload, str(a.seed), str(a.seconds), "1"], deadline, one_cpu))
        # Layer-alone loops, each set in its own process (the proc loops
        # fork, which OCaml 5 forbids once a process has spawned a
        # domain), placed like the workload.
        loop_s = str(max(0.05, 0.05 * a.seconds))
        layers = [run_program([mode, loop_s], deadline, one_cpu)
                  for mode in ("layers-dom", "layers-proc")]
    else:
        # Several processes of a few sessions each: the memory layout a
        # process draws moves pipelined8-inproc by up to 20 %, so the run
        # pools windows over several layouts.  The run stops at the first
        # failed call.
        nproc = max(1, round(a.seconds / SECONDS_PER_PROCESS))
        for k in range(nproc):
            reports.append(run_program(
                ["workload", workload, str(a.seed * 100 + k), str(a.seconds / nproc), "0"],
                deadline, one_cpu))
            if reports[-1]["failed"]:
                break
        layers = []

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    wrong = sum(r["wrong_replies"] for r in reports)
    checks = [c for r in reports + layers for c in r["checks"]]
    metrics = {}
    for r in reports + layers:
        metrics.update(r["metrics"])
    windows = [w for r in reports for w in r["raw"].get("windows", [])]
    setup_ns = [s for r in reports for s in r["raw"].get("setup_ns", [])]
    if windows and setup_ns:
        metrics.update(e2e_metrics(windows, setup_ns))
    metrics["failed_share"] = {"value": failed / max(1, attempted), "unit": "share",
                               "samples": attempted}

    print(f"workload {a.workload} seed {a.seed} seconds {a.seconds:g} trace {a.trace} "
          f"processes {len(reports)} windows {len(windows)}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']:6s} samples={m['samples']}")
    print(f"  calls attempted={attempted} failed={failed} wrong_replies={wrong}")
    for c in checks:
        print(f"  CHECK FAILED: {c}")
    print("host " + json.dumps(host))

    correct = wrong == 0 and not checks
    out = {m["name"]: metrics[m["name"]] for m in wanted if m["name"] in metrics}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in out.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
