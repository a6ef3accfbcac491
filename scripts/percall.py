#!/usr/bin/env python3
"""Untraced cost per call of the library calls that ``algebra-batch`` times.

Builds the seeded inputs of one ``algebra-batch`` round (``bench/workloads.py``
``AlgebraBatch``), then times each function over all of its calls in the
round, untraced, and prints the minimum over repeats in nanoseconds per call
(loop overhead included, the same for every build of the package).
``witt_closure`` is split by the workload's families.  A span tracer adds
about a microsecond to every call it wraps, more than the sub-microsecond
differences that this script is for:

    PYTHONPATH=src python scripts/percall.py [--seed S] [--repeats R] [--size full|tiny]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile
import time

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _cases(workload):
    """(name, function, argument tuples) for each row, from one round's items."""
    cl, lie = workload.cl, workload.lie
    by_family = {}
    for fam, payload, _ in workload.items:
        by_family.setdefault(fam, []).append(payload)
    law = by_family["group_law"]
    rows = [
        ("act_lifted", cl.act_lifted, [(g2, x) for _, g2, x in law]),
        ("compose", cl.compose, [(g1, g2) for g1, g2, _ in law]),
        ("transport", cl.transport, by_family["transport"]),
        ("check_symplectic", cl.check_symplectic, by_family["symplectic"]),
        ("poisson_bracket", cl.poisson_bracket,
         [(cl.lift_hamiltonian(f), cl.lift_hamiltonian(g)) for f, g in by_family["poisson"]]),
    ]
    rows += [(f"witt_closure[{fam}]", lie.witt_closure, [(gens,) for gens in calls])
             for fam, calls in by_family.items() if fam not in
             ("group_law", "transport", "symplectic", "poisson")]
    return rows


def _ns_per_call(fn, calls, repeats):
    best = float("inf")
    clock = time.perf_counter_ns
    for _ in range(repeats):
        start = clock()
        for args in calls:
            fn(*args)
        best = min(best, clock() - start)
    return best / len(calls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    sys.path.insert(0, str(BENCH))
    from workloads import AlgebraBatch

    with tempfile.TemporaryDirectory() as workdir:
        workload = AlgebraBatch(args.seed, args.size, workdir)
    print(f"{'call':<32} {'calls':>6} {'ns/call':>10}")
    for name, fn, calls in _cases(workload):
        ns = _ns_per_call(fn, calls, args.repeats)
        print(f"{name:<32} {len(calls):>6} {ns:>10.0f}")


if __name__ == "__main__":
    main()
