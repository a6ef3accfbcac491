"""The three workloads: inputs made from a seed, one operation, its checks.

Each workload builds its inputs once (``__init__``), then the worker times
``op`` repeatedly and judges each operation's outputs with ``check``
outside the timed region.  ``check`` returns (units, failed units,
problems, unexpected): a unit is one CLI command, one judged check record
or one checked library call, and ``unexpected`` counts the failed units
that the named ``_ExactSpan`` fault does not account for.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

import oracles
from spans import merge_stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def child_env():
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _maxrss_mb(ru_maxrss_kib):
    return ru_maxrss_kib / 1024.0


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

class CliCold:
    """One operation = one session of fresh ``python -m halfcyl.cli`` processes."""

    name = "cli-cold"
    min_ops = 2  # the determinism check compares two sessions
    in_process = False
    # The host-speed kernel runs in the worker, between child processes,
    # and does not track them: scaled session times spread more than the
    # wall times (see bench/README.md).
    calibrated = False

    def __init__(self, seed, size, workdir):
        rng = random.Random(seed)
        self.workdir = workdir
        self.verify_seed = rng.randrange(1_000_000)
        self.k = round(rng.uniform(0.05, 3.0), 3)
        self.n = 64
        self.l_closure = rng.randint(1, 8)
        modes = [f"L{-self.l_closure}", "L0", f"L{self.l_closure}"]
        rng.shuffle(modes)
        self.l_orbit = rng.randint(1, 3)
        self.src = (rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(-2, 2)))
        self.dst = (rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(-2, 2)))
        self.theta = round(rng.uniform(0.05, 1.0), 3)
        self.mmin = rng.randint(0, 3)
        extra = []
        if size == "tiny":
            cfg = os.path.join(workdir, "tiny-config.json")
            with open(cfg, "w") as fh:
                json.dump({"N": 16, "M": 16}, fh)
            extra = ["--config", cfg]
        self.commands = [
            ("verify", ["verify", "--seed", str(self.verify_seed), *extra]),
            ("verify-full", ["verify", "--profile", "full",
                             "--seed", str(self.verify_seed), *extra]),
            ("spectrum", ["spectrum", "--k", repr(self.k), "--n", str(self.n),
                          "--format", "json"]),
            ("closure", ["closure", "--generators", ",".join(modes)]),
            ("orbit", ["orbit", "--l", str(self.l_orbit),
                       "--from", f"{self.src[0]!r},{self.src[1]!r}",
                       "--to", f"{self.dst[0]!r},{self.dst[1]!r}"]),
            ("equiv", ["equiv", "--theta", repr(self.theta),
                       "--mmin", str(self.mmin)]),
        ]
        self.env = child_env()
        self.reference = {}   # command -> stdout of the first session
        self.peak_rss_mb = 0.0
        self._count = 0

    def _run(self, argv, tag):
        out = os.path.join(self.workdir, f"{tag}.out")
        err = os.path.join(self.workdir, f"{tag}.err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                    env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr, _maxrss_mb(usage.ru_maxrss)

    def op(self, traced=False):
        self._count += 1
        results = []
        for name, args in self.commands:
            tag = f"s{self._count}-{name}"
            if traced:
                stats_path = os.path.join(self.workdir, f"{tag}.trace.json")
                argv = [sys.executable, os.path.join(HERE, "tracecli.py"),
                        stats_path, *args]
            else:
                stats_path = None
                argv = [sys.executable, "-m", "halfcyl.cli", *args]
            code, stdout, stderr, rss = self._run(argv, tag)
            if not traced:
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
            results.append((name, code, stdout, stderr, stats_path))
        return results

    def trace_stats(self, raw, into):
        """Add the span statistics the traced children wrote into ``into``."""
        for *_, path in raw:
            if path and os.path.exists(path):
                with open(path) as fh:
                    merge_stats(into, json.load(fh))

    def check(self, raw):
        failed, problems = 0, []
        for name, code, stdout, stderr, _ in raw:
            probs = self._check_command(name, code, stdout, stderr)
            if probs:
                failed += 1
                problems.extend(f"{name}: {p}" for p in probs)
        return len(raw), failed, problems, failed

    def _check_command(self, name, code, stdout, stderr):
        if code != 0:
            return [f"exit code {code}: {stderr.strip().splitlines()[-1:]!r}"]
        doc, probs = oracles.parse_strict(stdout)
        if probs:
            return probs
        probs = oracles.nonfinite_problems(doc)
        if name in ("verify", "verify-full", "equiv"):
            probs += oracles.judge_report(doc)
        if name in ("verify", "verify-full"):
            ref = self.reference.setdefault(name, stdout)
            probs += oracles.same_body_problems(stdout, ref)
        elif name == "spectrum":
            probs += oracles.spectrum_problems(doc, self.k, self.n)
        elif name == "closure":
            probs += self._check_closure(doc)
        elif name == "orbit":
            probs += oracles.orbit_problems(doc, self.l_orbit, self.src, self.dst)
        return probs

    def _check_closure(self, doc):
        l = self.l_closure
        gens = [{-l: 1}, {0: 1}, {l: 1}]
        try:
            basis = [oracles.parse_basis_element(b) for b in doc.get("basis") or []]
        except ValueError as exc:
            return [str(exc)]
        result = (doc.get("closed"), doc.get("dimension"), basis,
                  doc.get("witness_mode"))
        return oracles.closure_problems(result, gens, True, 3)

    def peak_rss(self):
        return self.peak_rss_mb


# ---------------------------------------------------------------------------
# suite-large-n
# ---------------------------------------------------------------------------

class SuiteLargeN:
    """One operation = one warm in-process ``run_suite`` (full profile)."""

    name = "suite-large-n"
    min_ops = 3
    in_process = True
    # Dense BLAS work slows less than the pure-Python kernel in a slow
    # phase, so scaled times would spread more than the wall times.
    calibrated = False

    def __init__(self, seed, size, workdir):
        from halfcyl import suite

        self.suite = suite  # run_suite is looked up per call, so spans see it
        self.N = 256 if size == "full" else 16
        rng = random.Random(seed)
        self.config = suite.SuiteConfig(N=self.N, M=self.N, profile="full",
                                        seed=rng.randrange(2 ** 31))
        self._fock_checked = None

    def op(self, traced=False):
        return self.suite.run_suite(self.config)

    def check(self, report):
        doc = report.to_dict(config_echo=self.config.echo())
        units = len(doc["checks"])
        problems = oracles.judge_report(doc) + oracles.strict_dumps_problems(doc)
        problems += self._fock()
        failed = units if problems else 0
        return units, failed, problems, failed

    def _fock(self):
        """Closed-form ladder entries at the workload's N (computed once)."""
        if self._fock_checked is None:
            from halfcyl.rep import RepConfig, build_generators

            problems = []
            for k in self.config.active_k_values:
                gs = build_generators("fock", RepConfig(k=k, N=self.N))
                problems += oracles.fock_problems(gs.H.matrix, gs.Tplus.matrix,
                                                  gs.Tminus.matrix, k, self.N)
            self._fock_checked = problems
        return self._fock_checked

    def peak_rss(self):
        return _maxrss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ---------------------------------------------------------------------------
# algebra-batch
# ---------------------------------------------------------------------------

# The exact rational recombinations do not depend on --seed: the
# _ExactSpan fault makes their verdicts depend on the draw, and the share
# of failed calls must be the same for every seed.  The first entry is the
# fault's documented reproduction.
PANEL_SEED = 1999
PANEL_REPRO = [{0: Fraction(2, 3), 4: Fraction(2)},
               {-4: Fraction(-4), 0: Fraction(-1), 4: Fraction(3)},
               {-4: Fraction(2), 0: Fraction(-1), 4: Fraction(-1)}]

# Calls per round for each family: (full size, tiny size).  A round is
# made of four paths of about equal cost on the reference machine, so
# that a 2x change in the per-call cost of any one of them moves op_s by
# about a quarter: exact witt_closure (_ExactSpan), float witt_closure
# (_FloatSpan), the covering-group calls of classical, and Poisson brackets
# of lifted trigonometric polynomials (exact mode arithmetic in classical).
# The counts come from the per-call costs measured family by family (see
# bench/README.md).  Within the covering-group path, transport round
# trips, group-law draws and symplectic audits come 1:1:1, with four
# act_lifted calls per triple, as in each draw of run_suite's classical
# cell.
MAKEUP = {
    "exact_tower": (8, 1), "exact_pair": (8, 1), "exact_divergent": (4, 1),
    "panel_tower": (60, 4), "panel_pair": (60, 4),
    "float_tower": (150, 1), "float_pair": (150, 1), "float_divergent": (12, 1),
    "transport": (2000, 2), "group_law": (2000, 2), "symplectic": (2000, 2),
    "poisson": (36, 2),
}


def _rational(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def _recombination(rng, modes):
    """Full-rank rational recombination of the pure modes, as dictionaries."""
    while True:
        rows = [[_rational(rng) for _ in modes] for _ in modes]
        vecs = [{m: c for m, c in zip(modes, row) if c} for row in rows]
        if all(vecs) and oracles.rank(vecs) == len(modes):
            return vecs


def _well_conditioned(rng, n):
    """n x n float matrix with singular values in [1, 2] (QR of a Gaussian)."""
    import numpy as np

    q, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(n)]
                                  for _ in range(n)]))
    scale = np.diag([1.0 + rng.random() for _ in range(n)])
    return q @ scale


class AlgebraBatch:
    """One operation = one round of seeded library calls, no matrices."""

    name = "algebra-batch"
    min_ops = 3
    in_process = True
    # Pure-Python work, which the host-speed kernel tracks (hostspeed.py).
    calibrated = True

    def __init__(self, seed, size, workdir):
        from halfcyl import classical as cl
        from halfcyl import lie
        from halfcyl.exact import QC

        self.cl, self.lie, self.QC = cl, lie, QC
        idx = 0 if size == "full" else 1
        count = {fam: n[idx] for fam, n in MAKEUP.items()}
        rng = random.Random(seed)
        panel = random.Random(PANEL_SEED)
        items = []   # (family, payload, expectation)

        def witt(vecs, exact=True):
            conv = (lambda c: c) if exact else float
            return [lie.WittElement({m: conv(c) for m, c in v.items()}) for v in vecs]

        for _ in range(count["exact_tower"]):
            l = rng.randint(1, 12)
            vecs = [{-l: 1}, {0: 1}, {l: 1}]
            rng.shuffle(vecs)
            items.append(("exact_tower", witt(vecs), (vecs, True, 3, None)))
        for _ in range(count["exact_pair"]):
            l = rng.choice([-1, 1]) * rng.randint(1, 12)
            vecs = [{0: 1}, {l: 1}]
            rng.shuffle(vecs)
            items.append(("exact_pair", witt(vecs), (vecs, True, 2, None)))
        for _ in range(count["exact_divergent"]):
            a, b = sorted(rng.sample(range(1, 7), 2))
            vecs = [{a: 1}, {b: 1}]
            items.append(("exact_divergent", witt(vecs), (vecs, False, None, a + b)))
        towers = [PANEL_REPRO] + [_recombination(panel, (-l, 0, l)) for l in
                                  [panel.randint(1, 8) for _ in range(59)]]
        for vecs in towers[:count["panel_tower"]]:
            items.append(("panel_tower", witt(vecs), (vecs, True, 3, None)))
        pairs = [_recombination(panel, (0, panel.choice([-1, 1]) * panel.randint(1, 8)))
                 for _ in range(60)]
        for vecs in pairs[:count["panel_pair"]]:
            items.append(("panel_pair", witt(vecs), (vecs, True, 2, None)))
        for fam, dim, n in (("float_tower", 3, count["float_tower"]),
                            ("float_pair", 2, count["float_pair"])):
            for _ in range(n):
                l = rng.randint(1, 12)
                modes = (-l, 0, l) if dim == 3 else (0, l)
                mat = _well_conditioned(rng, dim)
                vecs = [{m: float(c) for m, c in zip(modes, row)} for row in mat]
                items.append((fam, witt(vecs, exact=False), (None, True, dim, None)))
        for _ in range(count["float_divergent"]):
            a, b = sorted(rng.sample(range(1, 7), 2))
            vecs = [{a: rng.uniform(0.5, 2.0)}, {b: rng.uniform(0.5, 2.0)}]
            items.append(("float_divergent", witt(vecs, exact=False),
                          (None, False, None, a + b)))

        def point():
            return cl.PhasePoint(rng.uniform(0, 2 * math.pi),
                                 math.exp(rng.uniform(-2, 2)))

        def element(l):
            r = 0.7 * math.sqrt(rng.random())
            return cl.CoveringElement(r * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                                      rng.uniform(0, l * math.pi), l)

        for _ in range(count["transport"]):
            items.append(("transport", (point(), point(), rng.randint(1, 3)), None))
        for _ in range(count["group_law"]):
            l = rng.randint(1, 3)
            items.append(("group_law", (element(l), element(l), point()), None))
        for _ in range(count["symplectic"]):
            # a step where truncation, not rounding, sets the residual, so
            # that the benchmark's own central differences must agree
            items.append(("symplectic", (element(rng.randint(1, 3)), point(),
                                         10 ** rng.uniform(-3, -2)), None))
        for _ in range(count["poisson"]):
            f_ab, g_ab = self._trig(rng), self._trig(rng)
            pts = [(rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(-1, 1)))
                   for _ in range(4)]
            items.append(("poisson", (self._trigpoly(f_ab), self._trigpoly(g_ab)),
                          (f_ab, g_ab, pts)))
        self.items = items
        self.units = len(items)

    @staticmethod
    def _trig(rng):
        """Random rational a_j cos(j phi) + b_j sin(j phi), j = 0..3."""
        out = {}
        for j in range(4):
            a, b = _rational(rng), (_rational(rng) if j else Fraction(0))
            if a or b:
                out[j] = (a, b)
        return out or {0: (Fraction(1), Fraction(0))}

    def _trigpoly(self, ab):
        modes = {}
        for j, (a, b) in ab.items():
            if j == 0:
                modes[0] = a
            else:
                # a cos + b sin = (a - ib)/2 e^{ij phi} + (a + ib)/2 e^{-ij phi}
                modes[j] = self.QC(a / 2, -b / 2)
                modes[-j] = self.QC(a / 2, b / 2)
        return self.cl.TrigPoly(modes)

    def op(self, traced=False):
        cl, lie = self.cl, self.lie
        out = []
        for fam, payload, _ in self.items:
            if fam == "transport":
                a, b, l = payload
                g = cl.transport(a, b, l)
                out.append((g, cl.act_lifted(g, a)))
            elif fam == "group_law":
                g1, g2, x = payload
                g12 = cl.compose(g1, g2)
                out.append((g12, cl.act_lifted(g12, x),
                            cl.act_lifted(g1, cl.act_lifted(g2, x))))
            elif fam == "symplectic":
                out.append(cl.check_symplectic(*payload))
            elif fam == "poisson":
                f, g = payload
                out.append(cl.poisson_bracket(cl.lift_hamiltonian(f),
                                              cl.lift_hamiltonian(g)))
            else:
                out.append(lie.witt_closure(payload))
        return out

    def check(self, outputs):
        failed, expected_failed, problems = 0, 0, []
        for (fam, payload, want), got in zip(self.items, outputs):
            probs = self._check_item(fam, payload, want, got)
            if probs:
                failed += 1
                if fam.startswith("panel_") and _fault_signature(want, got):
                    expected_failed += 1
                problems.append(f"{fam}: {probs[0]}")
        return self.units, failed, problems, failed - expected_failed

    def _check_item(self, fam, payload, want, got):
        if fam == "transport":
            (a, b, l), (g, y) = payload, got
            z, p = oracles.moebius_image(g.gamma, g.omega, l, a.phi, a.p)
            target = cmath.exp(1j * l * b.phi)
            return (oracles.point_problems(b.phi, b.p, z, p, l, what="own image")
                    + oracles.point_problems(y.phi, y.p, target, b.p, l,
                                             what="act_lifted image")
                    + ([] if oracles.angle_gap(y.phi, b.phi) <= 1e-9 else
                       [f"round trip lands at phi={y.phi!r}, want {b.phi!r}"]))
        if fam == "group_law":
            (g1, g2, x), (g12, y12, y1_2) = payload, got
            l = g1.l
            z2, p2 = oracles.moebius_image(g2.gamma, g2.omega, l, x.phi, x.p)
            z, p = oracles.moebius_on_circle(g1.gamma, g1.omega, z2, p2)
            probs = (oracles.point_problems(y12.phi, y12.p, z, p, l, what="act(g1 g2)")
                     + oracles.point_problems(y1_2.phi, y1_2.p, z, p, l,
                                              what="act(g1) act(g2)"))
            if oracles.angle_gap(y12.phi, y1_2.phi) > 1e-9:
                probs.append("lifted angles of act(g1 g2) and act(g1)act(g2) differ")
            return probs
        if fam == "symplectic":
            g, x, h = payload
            own = oracles.symplectic_residual(g.gamma, g.omega, g.l, x.phi, x.p, h)
            return [] if abs(got - own) <= 1e-10 + 1e-6 * own else [
                f"symplectic residual {got!r} at h={h!r}, own differences give {own!r}"]
        if fam == "poisson":
            f_ab, g_ab, pts = want
            return oracles.poisson_problems(got.base.modes, f_ab, g_ab, pts)
        vecs, closed, dim, witness = want
        basis = None
        if got.basis is not None and vecs is not None:
            try:
                basis = [{j: _exact(c) for j, c in b.coeffs.items()} for b in got.basis]
            except ValueError as exc:
                return [str(exc)]
        probs = oracles.closure_problems((got.closed, got.dimension, basis,
                                          got.witness_mode),
                                         vecs or [], closed, dim, exact=vecs is not None)
        if not probs and witness is not None and got.witness_mode != witness:
            probs.append(f"witness mode {got.witness_mode}, want {witness}")
        return probs

    def peak_rss(self):
        return _maxrss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _fault_signature(want, got):
    """Whether a failed closure looks like the _ExactSpan fault, and only it.

    The fault reports the span closed with spurious extra basis elements,
    while the returned basis still has the true exact rank and spans the
    generators.  Any other wrong answer is a failure of its own.
    """
    vecs, _, dim, _ = want
    if not (got.closed is True and got.dimension is not None and got.dimension > dim):
        return False
    try:
        basis = [{j: _exact(c) for j, c in b.coeffs.items()} for b in got.basis]
    except ValueError:
        return False
    return oracles.rank(basis) == dim and oracles.rank(basis + list(vecs)) == dim


def _exact(c):
    """Fraction of a real exact (QC) or float coefficient."""
    re, im = (c.re, c.im) if hasattr(c, "re") else (complex(c).real, complex(c).imag)
    if im != 0 or not math.isfinite(re):
        raise ValueError(f"coefficient {c!r} is not a finite real")
    return Fraction(re)


WORKLOADS = {w.name: w for w in (CliCold, SuiteLargeN, AlgebraBatch)}
