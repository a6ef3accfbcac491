"""Independent checks of the program's outputs.

Nothing here calls into ``halfcyl``: brackets, ranks, the Moebius action
and Poisson brackets are recomputed from their defining formulas, and
reports are judged again from their own records.  Each function returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# strict JSON
# ---------------------------------------------------------------------------


class NonFinite:
    """A NaN or Infinity token met while parsing."""

    def __init__(self, token):
        self.token = token

    def __repr__(self):
        return self.token


def parse_strict(text):
    """Parse ``text`` as one JSON document; non-finite tokens become NonFinite.

    Anything printed before or after the document makes it unparseable.
    """
    try:
        return json.loads(text, parse_constant=NonFinite), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not one JSON document: {exc}"]


def nonfinite_problems(doc):
    """Every non-finite number in ``doc``, except the one the schema allows.

    Reported-only records carry ``"tol": Infinity`` (no tolerance applies);
    that token alone is tolerated.  Any NaN, and any other infinity, is a
    problem.
    """
    problems = []

    def walk(node, path):
        if isinstance(node, NonFinite) or (isinstance(node, float)
                                           and not math.isfinite(node)):
            problems.append(f"non-finite {node!r} at {path}")
        elif isinstance(node, dict):
            for key, value in node.items():
                if (key == "tol" and node.get("reported_only") is True
                        and _is_pos_inf(value)):
                    continue
                walk(value, f"{path}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")

    walk(doc, "$")
    return problems


def _is_pos_inf(value):
    if isinstance(value, NonFinite):
        return value.token == "Infinity"
    return value == math.inf


def strict_dumps_problems(doc):
    """Serialise ``doc`` with allow_nan=False, the allowed tolerance aside."""

    def scrub(node):
        if isinstance(node, dict):
            return {k: (None if k == "tol" and node.get("reported_only") is True
                        and _is_pos_inf(v) else scrub(v)) for k, v in node.items()}
        if isinstance(node, list):
            return [scrub(v) for v in node]
        return node

    try:
        json.dumps(scrub(doc), allow_nan=False)
    except ValueError as exc:
        return [f"body does not serialise as strict JSON: {exc}"]
    return []


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------

def judge_report(doc, expect_pass=True):
    """Judge every asserted record again and recompute the verdict."""
    problems = []
    checks = doc.get("checks") if isinstance(doc, dict) else None
    if not isinstance(checks, list) or not checks:
        return ["report has no check records"]
    all_pass = True
    for rec in checks:
        name = rec.get("name", "?")
        if rec.get("reported_only"):
            if rec.get("pass") is not True:
                problems.append(f"{name}: reported-only record marked failed")
            continue
        res, tol, passed = rec.get("residual"), rec.get("tol"), rec.get("pass")
        if not (_finite_number(res) and _finite_number(tol)):
            problems.append(f"{name}: residual {res!r} or tol {tol!r} not finite")
            all_pass = False
            continue
        judged = res <= tol
        if passed is not judged:
            problems.append(f"{name}: pass={passed!r} but residual {res!r} "
                            f"vs tol {tol!r}")
        all_pass = all_pass and judged
    verdict = doc.get("verdict")
    if verdict != ("pass" if all_pass else "fail"):
        problems.append(f"verdict {verdict!r} is not the conjunction of the records")
    if expect_pass and not all_pass:
        failed = [r.get("name") for r in checks
                  if not r.get("reported_only") and r.get("pass") is not True]
        problems.append(f"asserted records fail: {failed[:5]}")
    return problems


def _finite_number(x):
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


_HEADER_RE = re.compile(r'\n  "header": \{[^{}]*\},?')


def report_body(text):
    """The report text with its header block removed (timestamp lives there)."""
    return _HEADER_RE.sub("", text)


def same_body_problems(text, reference):
    if report_body(text) != report_body(reference):
        return ["report body differs from the first process given the same "
                "config and seed"]
    return []


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def spectrum_problems(doc, k, n, hbar=1.0):
    """spectrum must equal hbar (k + j), j = 0..n, as computed here."""
    if not isinstance(doc, dict):
        return ["spectrum output is not an object"]
    got = doc.get("spectrum")
    want = [hbar * (k + j) for j in range(n + 1)]
    if not isinstance(got, list) or len(got) != len(want):
        return [f"spectrum has {len(got) if isinstance(got, list) else '?'} "
                f"levels, want {len(want)}"]
    bad = [j for j, (g, w) in enumerate(zip(got, want))
           if not (_finite_number(g) and abs(g - w) <= 1e-12 * max(1.0, abs(w)))]
    if bad:
        j = bad[0]
        return [f"spectrum level {j} is {got[j]!r}, want {want[j]!r}"]
    return []


# ---------------------------------------------------------------------------
# Witt algebra, exact
# ---------------------------------------------------------------------------

def bracket(a, b):
    """[a, b] of mode dictionaries with [L_j, L_k] = (k - j) L_{j+k}."""
    out = {}
    for j, x in a.items():
        for k, y in b.items():
            if j != k:
                out[j + k] = out.get(j + k, 0) + (k - j) * x * y
    return {m: c for m, c in out.items() if c != 0}


def _echelon(vectors):
    """Reduced rows {pivot: row} of exact mode dictionaries."""
    rows = {}
    for v in vectors:
        v = {m: Fraction(c) for m, c in v.items() if c != 0}
        for pivot, row in rows.items():
            c = v.get(pivot)
            if c:
                for m, r in row.items():
                    v[m] = v.get(m, 0) - c * r
                v = {m: x for m, x in v.items() if x != 0}
        if v:
            pivot = max(v)
            inv = 1 / v[pivot]
            new = {m: x * inv for m, x in v.items()}
            for p, row in rows.items():
                c = row.get(pivot)
                if c:
                    for m, x in new.items():
                        row[m] = row.get(m, 0) - c * x
                    rows[p] = {m: x for m, x in row.items() if x != 0}
            rows[pivot] = new
    return rows


def rank(vectors):
    """Exact rank over the rationals."""
    return len(_echelon(vectors))


def closure_problems(result, gens, want_closed, want_dim, exact=True):
    """Verdict and dimension known by construction, confirmed exactly here.

    ``result`` is (closed, dimension, basis or None, witness_mode) with the
    basis as mode dictionaries.  For a closed verdict the returned basis
    must have exactly rank ``want_dim``, span the generators and be closed
    under this module's own bracket; for a divergent pair the own bracket
    of the two generators must leave their span.
    """
    closed, dim, basis, witness = result
    problems = []
    if closed != want_closed:
        problems.append(f"closed={closed}, want {want_closed}")
    if want_closed and dim != want_dim:
        problems.append(f"dimension {dim}, want {want_dim}")
    if problems or not exact:
        return problems
    if not want_closed:
        if rank(list(gens) + [bracket(gens[0], gens[1])]) == rank(gens):
            return ["own bracket of the generators stays in their span"]
        return []
    rb = rank(basis)
    if rb != want_dim or len(basis) != want_dim:
        return [f"basis of {len(basis)} elements has exact rank {rb}, want {want_dim}"]
    if rank(basis + list(gens)) != want_dim:
        return ["basis does not span the generators"]
    for i in range(len(basis)):
        for j in range(i):
            if rank(basis + [bracket(basis[j], basis[i])]) != want_dim:
                return [f"bracket of basis elements {j},{i} leaves the span"]
    return []


_BASIS_TERM = re.compile(r"\((?P<coef>[^()]*|\([^()]*\))\)\*L\((?P<mode>-?\d+)\)")


def parse_basis_element(text):
    """Mode dictionary of a printed ``WittElement[(c)*L(j) + ...]``."""
    body = text.strip()
    if not (body.startswith("WittElement[") and body.endswith("]")):
        raise ValueError(f"not a printed Witt element: {text!r}")
    out = {}
    for m in _BASIS_TERM.finditer(body):
        out[int(m.group("mode"))] = _parse_scalar(m.group("coef"))
    if not out:
        raise ValueError(f"no terms in {text!r}")
    return out


def _parse_scalar(text):
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:
        value = complex(text)
    if value.imag != 0:
        raise ValueError(f"complex coefficient {text!r} in a real span")
    return Fraction(value.real)


# ---------------------------------------------------------------------------
# covering-group action
# ---------------------------------------------------------------------------

def moebius_image(gamma, omega, l, phi, p):
    """Image (e^{il phi'}, p') of (phi, p) under the element (gamma, omega).

    z -> e^{2i omega} (gamma + z) / (conj(gamma) z + 1) on z = e^{il phi};
    the momentum is the cotangent lift, p' = p / |dz'/dz|.
    """
    return moebius_on_circle(gamma, omega, cmath.exp(1j * l * phi), p)


def moebius_on_circle(gamma, omega, z, p):
    gamma = complex(gamma)
    den = gamma.conjugate() * z + 1
    z2 = cmath.exp(2j * omega) * (gamma + z) / den
    dz = (1 - abs(gamma) ** 2) / abs(den) ** 2
    return z2, p / dz


def symplectic_residual(gamma, omega, l, phi, p, h):
    """max |J^T Omega J - Omega| of the lifted map at (phi, p), step h.

    The Jacobian comes from central differences of the angle of the own
    Moebius image, with the cotangent-lift multiplier as the p-column.  For
    a 2x2 Jacobian J^T Omega J = det(J) Omega, so the residual is
    |det J - 1|; what is left is the truncation and rounding of the
    differences, the same as in any central-difference audit at step h.
    """
    def angle(x):
        z2, _ = moebius_on_circle(gamma, omega, cmath.exp(1j * l * x), 1.0)
        return cmath.phase(z2)

    step = (phi + h) - (phi - h)
    turn = (angle(phi + h) - angle(phi - h) + math.pi) % (2 * math.pi) - math.pi
    _, p2 = moebius_on_circle(gamma, omega, cmath.exp(1j * l * phi), p)
    return abs(turn / (l * step) * (p2 / p) - 1.0)


def point_problems(got_phi, got_p, want_z, want_p, l, tol=1e-9, what="image"):
    """(phi, p) against a target given on the circle as e^{il phi}."""
    problems = []
    if not (math.isfinite(got_phi) and math.isfinite(got_p)):
        return [f"{what}: non-finite point ({got_phi}, {got_p})"]
    if abs(cmath.exp(1j * l * got_phi) - want_z) > tol:
        problems.append(f"{what}: angle off by {abs(cmath.exp(1j * l * got_phi) - want_z):.3e}")
    if abs(got_p - want_p) > tol * max(1.0, abs(want_p)):
        problems.append(f"{what}: momentum {got_p!r}, want {want_p!r}")
    return problems


def angle_gap(a, b):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def orbit_problems(doc, l, src, dst, tol=1e-9):
    """The printed element must map ``src`` to ``dst`` (own Moebius formula)."""
    try:
        gamma = complex(doc["gamma"][0], doc["gamma"][1])
        omega = float(doc["omega"])
    except (KeyError, TypeError, IndexError) as exc:
        return [f"orbit output lacks gamma/omega: {exc}"]
    if doc.get("l") != l:
        return [f"orbit output has l={doc.get('l')!r}, want {l}"]
    if not abs(gamma) < 1:
        return [f"|gamma| = {abs(gamma)} is not < 1"]
    z2, p2 = moebius_image(gamma, omega, l, *src)
    return point_problems(dst[0], dst[1], z2, p2, l, tol, what="orbit")


# ---------------------------------------------------------------------------
# Poisson brackets of p f(phi)
# ---------------------------------------------------------------------------

def trig_eval(ab, phi):
    """f(phi) and f'(phi) of f = sum_j a_j cos(j phi) + b_j sin(j phi)."""
    f = df = 0.0
    for j, (a, b) in ab.items():
        c, s = math.cos(j * phi), math.sin(j * phi)
        f += float(a) * c + float(b) * s
        df += j * (-float(a) * s + float(b) * c)
    return f, df


def modes_eval(modes, phi):
    """sum_j c_j e^{ij phi} from a mode dictionary (complex values)."""
    return sum(complex(c) * cmath.exp(1j * j * phi) for j, c in modes.items())


def poisson_problems(result_modes, f_ab, g_ab, points, tol=1e-9):
    """{p f, p g} = dF/dphi dG/dp - dF/dp dG/dphi = p (f' g - f g').

    ``result_modes`` are the mode coefficients of the program's bracket
    (a function p h(phi)); it is evaluated here at the sample points.
    """
    for phi, p in points:
        f, df = trig_eval(f_ab, phi)
        g, dg = trig_eval(g_ab, phi)
        want = (p * df) * g - f * (p * dg)
        got = p * modes_eval(result_modes, phi)
        scale = max(1.0, abs(want), p * (abs(f) + abs(df)) * (abs(g) + abs(dg)))
        if abs(got.imag) > tol * scale or abs(got.real - want) > tol * scale:
            return [f"Poisson bracket at ({phi:.3f}, {p:.3f}) is {got!r}, want {want!r}"]
    return []


# ---------------------------------------------------------------------------
# fock generators
# ---------------------------------------------------------------------------

def fock_problems(H, Tplus, Tminus, k, N, tol=1e-12):
    """Closed-form ladder: H = diag(k + n), T+ e_n = sqrt((2k+n)(n+1)) e_{n+1}."""
    import numpy as np

    n = np.arange(N + 1, dtype=float)
    want_h = np.diag(k + n).astype(complex)
    want_up = np.zeros((N + 1, N + 1), dtype=complex)
    lo = n[:-1]
    want_up[np.arange(1, N + 1), np.arange(N)] = np.sqrt((2 * k + lo) * (lo + 1))
    scale = max(1.0, float(np.abs(want_up).max()))
    problems = []
    for name, got, want in (("H", H, want_h), ("T+", Tplus, want_up),
                            ("T-", Tminus, want_up.T)):
        err = float(np.abs(np.asarray(got) - want).max())
        if not err <= tol * scale:
            problems.append(f"fock {name} at k={k:g}, N={N} off by {err:.3e}")
    return problems
