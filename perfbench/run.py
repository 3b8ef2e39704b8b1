#!/usr/bin/env python3
"""End-to-end benchmark of the sublayered stack (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark from the checkout's sources into .bench_build, then
runs one-rep processes of the workload for S seconds (each rep sets the
network up afresh, runs every flow to completion and checks every byte).
--trace 0 reports the end-to-end metrics as medians over the reps (app_MBps
as their lower quartile);
--trace 1 alternates untraced and traced reps and reports the per-layer
metrics.  The last line of stdout is the result as one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
# Every invocation ends within this many seconds after the build.
RUN_LIMIT_S = 170

# Workloads, metric names and units come from BENCHMARK.json alone.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
    SPEC = json.load(spec)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(jobs):
    """Configures once, then builds; a no-op when nothing changed.  The
    compiler's temporary files stay inside the build tree too."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "selftime_test",
         "-j", str(jobs)],
        check=True, stdout=sys.stderr, env=env)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_rep(args, traced, spans_out, deadline, cpu):
    """Runs one rep pinned to `cpu`."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if traced:
        cmd.append("--trace")
        if spans_out:
            cmd += ["--spans-out", spans_out]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, check=False,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        raise RuntimeError(f"rep failed ({proc.returncode}): "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact(rep):
    """What two reps of one seed must repeat: counts and virtual results."""
    return (rep["counts"], rep["virt_goodput_Mbps"], rep["fct_virt_ms_p50"],
            rep["fct_virt_ms_p99"])


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def lower_quartile_of(reps, key):
    """The value a quarter of the way up the reps' values (README.md, "Noise
    on a shared host": on a shared host rep speeds skew fast, and this
    quartile of the rate moves less from run to run than the median)."""
    values = [r[key] for r in reps]
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


# How a run reports each end-to-end metric over its untraced reps.
AGGREGATE = {"app_MBps": lower_quartile_of}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    cpus = sorted(os.sched_getaffinity(0))
    nproc = len(cpus)
    try:
        build(min(4, nproc))
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if args.trace:
        test = subprocess.run([os.path.join(BUILD, "selftime_test")],
                              capture_output=True, text=True, check=False)
        if test.returncode != 0:
            log(f"perfbench: self-time test failed: {test.stderr.strip()}")
            return 1

    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    spans_out = os.path.join(results_dir, f"{args.workload}.spans")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced, traced = [], []
    error = None
    # Every workload runs on one thread.  Cores of a shared host run at
    # visibly different speeds, so reps go round-robin over all of them:
    # every run then samples the same mix instead of wherever the scheduler
    # put it.
    try:
        while True:
            untraced.append(run_rep(args, False, None, deadline,
                                    cpus[len(untraced) % nproc]))
            if args.trace:
                traced.append(run_rep(args, True,
                                      None if traced else spans_out,
                                      deadline, cpus[len(traced) % nproc]))
            if time.monotonic() - start >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        error = str(e)
        log(f"perfbench: {error}")
    if not untraced or (args.trace and not traced):
        return 1

    reps = untraced + traced
    # A rep that crashed or timed out lost all of its flows.
    lost = reps[0]["flows"] if error else 0
    attempted = sum(r["flows"] for r in reps) + lost
    failed = sum(r["flows"] - r["ok_flows"] for r in reps) + lost
    # Same seed, same inputs: every rep, traced or not, must repeat the
    # first rep's exact counts, or tracing (or something else) changed the
    # simulated behaviour.
    repeatable = all(exact(r) == exact(reps[0]) for r in reps)
    unlisted = sorted({k for r in reps for k in r["layers"]} - set(PER_LAYER))
    if unlisted and error is None:
        error = f"layers missing from BENCHMARK.json: {unlisted}"
        log(f"perfbench: {error}")
    correct = error is None and failed == 0 and repeatable

    if args.trace:
        # A layer a workload does not run reads 0 (see README.md).
        metrics = {name: statistics.median(r["layers"].get(name, 0.0)
                                           for r in traced)
                   for name in PER_LAYER}
        untraced_rate = median_of(untraced, "app_MBps")
        traced_rate = median_of(traced, "app_MBps")
        metrics["trace.overhead_pct"] = (
            (untraced_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0)
        units = PER_LAYER
    else:
        metrics = {name: AGGREGATE.get(name, median_of)(untraced, name)
                   for name in END_TO_END}
        units = END_TO_END

    host = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "compiler": reps[0]["compiler"],
        "build_type": reps[0]["build_type"],
        "worker_threads": max(r["threads"] for r in reps),
    }
    print("HOST " + json.dumps(host, sort_keys=True))
    print("COUNTS " + json.dumps(reps[0]["counts"], sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "repeatable": repeatable, "error": error, "metrics": metrics,
              "untraced": untraced, "traced": traced}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
