#!/usr/bin/env python3
"""Untraced cost per call of the library calls that ``algebra-batch`` times.

Builds the seeded inputs of one ``algebra-batch`` round (``bench/workloads.py``
``AlgebraBatch``), then times each function over all of its calls in the
round, untraced, and prints the minimum over repeats in nanoseconds per call
(loop overhead included, the same for every build of the package), the
milliseconds that the row's calls take in one round (calls x ns per call),
and that time's share of the sum over all rows.
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
    law, moves = by_family["group_law"], by_family["transport"]
    # the four actions of a round: g2, then g1, and g1 g2 on x; a transport on a
    acts = [(g2, x) for _, g2, x in law]
    acts += [(g1, cl.act_lifted(g2, x)) for g1, g2, x in law]
    acts += [(cl.compose(g1, g2), x) for g1, g2, x in law]
    acts += [(cl.transport(a, b, l), a) for a, b, l in moves]
    rows = [
        ("act_lifted", cl.act_lifted, acts),
        ("compose", cl.compose, [(g1, g2) for g1, g2, _ in law]),
        ("transport", cl.transport, moves),
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
    rows = [(name, len(calls), _ns_per_call(fn, calls, args.repeats))
            for name, fn, calls in _cases(workload)]
    total_ms = sum(n * ns for _, n, ns in rows) / 1e6
    print(f"{'call':<32} {'calls':>6} {'ns/call':>10} {'ms/round':>9} {'share':>7}")
    for name, n, ns in rows:
        ms = n * ns / 1e6
        print(f"{name:<32} {n:>6} {ns:>10.0f} {ms:>9.3f} {100 * ms / total_ms:>6.1f}%")


if __name__ == "__main__":
    main()
