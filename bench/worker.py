"""One measuring process: set up a workload, time its operations, judge them.

    python bench/worker.py --workload W --seed N --seconds S --trace 0|1
                           [--size full|tiny] [--setup-only]

Prints ``READY`` once halfcyl is imported and the inputs are built, which
ends set-up; with --setup-only it exits there.  Otherwise it runs
operations one at a time (closed loop) until ``--seconds`` have passed and
at least the workload's minimum number of operations is done, judges each
operation outside the timed region, and prints one JSON line.  On a
calibrated workload each operation's wall time is scaled by the host's
speed measured around it (hostspeed.py).  An untraced run also times
fresh set-up-only copies of itself, spread over the run between
operations (set-up probes).  With --trace 1 the operations alternate
between untraced and traced, so the run measures its own tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import workloads

MAX_PROBLEMS = 20
# Set-up probes per untraced run.  The host's speed changes in phases of
# seconds to minutes, so the probes are spread over the whole run rather
# than taken at its ends.
SETUP_PROBES = {"full": 8, "tiny": 2}


def tail_percentile(samples):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99.9, 99.0, 90.0):
        if n * (1 - q / 100) >= 10:
            ordered = sorted(samples)
            return q, ordered[min(n - 1, int(q / 100 * n))]
    return None


def setup_probe(args):
    """Seconds from spawning a fresh set-up-only worker to its READY line."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=workloads.ROOT,
                            env=workloads.child_env())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate()
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if line.strip() != b"READY" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def measure(wl, args):
    from spans import Tracer, layer_metrics

    seconds, trace = args.seconds, args.trace
    tracer = Tracer() if trace and wl.in_process else None
    clock = hostspeed.Clock(wl.calibrated)
    stats = {}
    plain, plain_wall, plain_rates, traced_times = [], [], [], []
    units = failed = unexpected = plain_units = 0
    problems = []
    crashed = None
    min_ops = max(wl.min_ops, 2) if trace else wl.min_ops
    n_probes = 0 if trace else SETUP_PROBES[args.size]
    setup = []
    probing = 0.0   # time spent in set-up probes, not counted in the run
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - probing

    i = 0
    while i < min_ops or elapsed() < seconds:
        if len(setup) < n_probes and elapsed() >= len(setup) * seconds / n_probes:
            t0 = time.perf_counter()
            setup.append(setup_probe(args))
            probing += time.perf_counter() - t0
        traced = bool(trace) and i % 2 == 1
        if tracer and traced:
            tracer.install()
        try:
            raw, wall, factor = clock.time(lambda: wl.op(traced))
        except Exception:  # a crash of the program ends the run as incorrect
            crashed = traceback.format_exc(limit=4)
            break
        finally:
            if tracer and traced:
                tracer.uninstall()
        dt = wall * factor
        u, f, probs, unexp = wl.check(raw)
        units, failed, unexpected = units + u, failed + f, unexpected + unexp
        problems.extend(probs[:MAX_PROBLEMS - len(problems)])
        if traced:
            traced_times.append(dt)
            if not tracer:
                wl.trace_stats(raw, stats)
        else:
            plain.append(dt)
            plain_wall.append(wall)
            plain_rates.append(u / dt)
            plain_units += u
        i += 1

    if crashed:
        problems.append(crashed)
    while len(setup) < n_probes:
        setup.append(setup_probe(args))
    result = {"correct": crashed is None and unexpected == 0,
              "attempted": max(units, 1), "failed": failed,
              "problems": problems, "info": {"ops": len(plain) + len(traced_times)}}
    if not plain:
        return result
    op_s = statistics.median(plain)
    info = result["info"]
    info.update(op_samples=len(plain),
                units_per_op=plain_units / len(plain),
                op_times_s=[round(t, 6) for t in plain[:200]],
                op_wall_s=statistics.median(plain_wall),
                calibrated=wl.calibrated)
    if clock.kernel_samples:
        info["kernel_s"] = statistics.median(clock.kernel_samples)
    tail = tail_percentile(plain)
    if tail:
        info[f"op_p{tail[0]:g}_s"] = tail[1]
    if trace:
        metrics = layer_metrics(tracer.stats if tracer else stats, len(traced_times))
        traced_s = statistics.median(traced_times) if traced_times else op_s
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / op_s - 1.0),
                                         "unit": "%"}
        info.update(traced_op_s=traced_s, traced_samples=len(traced_times))
    else:
        info["setup_samples"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "items_per_s": {"value": statistics.median(plain_rates), "unit": "1/s"},
            "peak_rss_mb": {"value": wl.peak_rss(), "unit": "MB"},
        }
    result["metrics"] = metrics
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, workloads.SRC)
    import halfcyl

    if not os.path.abspath(halfcyl.__file__).startswith(workloads.SRC + os.sep):
        print(f"error: halfcyl imported from {halfcyl.__file__}, not from "
              f"{workloads.SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(workloads.HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
