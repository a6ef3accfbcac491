"""halfcyl benchmark: three workloads, each checked against independent oracles.

    python3 bench/run.py --workload {cli-cold,suite-large-n,algebra-batch}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics (setup_s, op_s,
items_per_s, peak_rss_mb); with --trace 1 it holds the per-layer metrics
of a traced run.  The lines before it repeat every metric with its unit.
A copy of the result is written under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads
from spans import parse_importtime

WORKER = os.path.join(workloads.HERE, "worker.py")
OUT = os.path.join(workloads.HERE, "out")
IMPORT_PROBES = {"full": 3, "tiny": 1}
DEADLINE_S = 170.0


class BenchError(Exception):
    """A run that cannot produce a result."""


def _call(argv, env, timeout):
    """Run argv in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=workloads.ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"{argv[1:3]} did not finish in {timeout:.0f} s")
    except BaseException:
        _stop(proc)
        raise
    return proc.returncode, out.decode(), err.decode()


def _stop(proc):
    """Kill a child's whole process group and wait for the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def import_probe(env):
    """-X importtime of a fresh ``import halfcyl``."""
    code, _, err = _call([sys.executable, "-X", "importtime", "-c", "import halfcyl"],
                         env, 60)
    if code != 0:
        raise BenchError(f"import halfcyl failed: {err.strip()[-300:]}")
    return parse_importtime(err)


def run(args):
    if not os.path.isfile(os.path.join(workloads.SRC, "halfcyl", "__init__.py")):
        raise BenchError(f"no halfcyl package under {workloads.SRC}")
    env = workloads.child_env()
    start = time.perf_counter()
    metrics = {}
    if args.trace:
        probes = [import_probe(env) for _ in range(IMPORT_PROBES[args.size])]
        for name in probes[0]:
            metrics[name] = {"value": statistics.median(p[name] for p in probes),
                             "unit": "s"}
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size]
    code, out, err = _call(argv, env, DEADLINE_S - (time.perf_counter() - start))
    lines = out.strip().splitlines()
    if code != 0 or not lines or lines[-1].startswith("READY"):
        raise BenchError(f"worker exited with {code}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if "metrics" not in result:
        raise BenchError(f"worker measured nothing: {result.get('problems')}")
    metrics.update(result["metrics"])
    info = dict(result["info"], blas_threads=workloads.BLAS_THREADS,
                nproc=os.cpu_count(), python=platform.python_version())
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}, info, result["problems"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the benchmark's self-tests")
    args = ap.parse_args(argv)
    # a terminated run still stops its children (see _stop)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        summary, info, problems = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"halfcyl benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    for name, m in summary["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for key, value in info.items():
        print(f"  info {key} = {value}")
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}, "
          f"correct {summary['correct']}")
    for p in problems:
        print(f"  problem: {p}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(summary, info=info, problems=problems), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
