"""Witt-algebra and so(1,2) arithmetic, plus a bounded subalgebra-closure search.

The Witt modes ``L_j`` obey ``[L_j, L_k] = (k - j) L_{j+k}``.  The real
vector fields on the circle sit inside the complexification as

    T   = i L_0,   S_l = (L_l - L_{-l}) / 2,   C_l = i (L_l + L_{-l}) / 2,

and for every l the span of T/l, S_l/l, C_l/l is an so(1,2) copy.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exact import QC, QC_I, ModeSeries, _lift

__all__ = [
    "WittElement", "L", "witt_T", "witt_S", "witt_C",
    "witt_bracket", "witt_closure", "ClosureResult",
    "So12Element", "so12_bracket", "algebra_isomorphism", "killing_form",
    "vector_field_to_so12",
    "DEFAULT_MODE_BOUND", "DEFAULT_DIM_BOUND",
]

DEFAULT_MODE_BOUND = 64
DEFAULT_DIM_BOUND = 12


class WittElement(ModeSeries):
    """Finite complex combination of Witt modes ``L_j``, with exact coefficients.

    All arithmetic is ``ModeSeries``'; this class adds the printed form
    ``WittElement[(c)*L(j) + ...]`` that the CLI reports.
    """

    __slots__ = ()

    def __repr__(self):
        if self.is_zero:
            return "WittElement(0)"
        terms = " + ".join(f"({c!r})*L({j})" for j, c in sorted(self.coeffs.items()))
        return f"WittElement[{terms}]"


def L(j: int) -> WittElement:
    """The single Witt mode L_j."""
    return WittElement({j: 1})


def witt_T() -> WittElement:
    """Rotation field d/dphi as a Witt element (= i L_0)."""
    return WittElement({0: QC_I})


def witt_S(l: int) -> WittElement:
    """sin(l phi) d/dphi as a Witt element."""
    h = Fraction(1, 2)
    return WittElement({l: QC(h), -l: QC(-h)})


def witt_C(l: int) -> WittElement:
    """cos(l phi) d/dphi as a Witt element."""
    h = QC(0, Fraction(1, 2))
    return WittElement({l: h, -l: h})


def witt_bracket(a: WittElement, b: WittElement) -> WittElement:
    """[a, b] with [L_j, L_k] = (k - j) L_{j+k}; bilinear and antisymmetric."""
    return a.bracket(b)


# ---------------------------------------------------------------------------
# closure search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureResult:
    """Outcome of the bounded bracket-closure search.

    ``closed`` with a basis means every pairwise bracket of basis elements
    lies in the span, decided by exact elimination (a float input counts
    as the dyadic rational it stores, so no rank threshold is involved).
    Otherwise ``witness_mode`` names a mode index produced by bracketing
    that escaped the running span before the search bounds were hit.
    """

    closed: bool
    basis: tuple | None = None
    witness_mode: int | None = None

    @property
    def dimension(self):
        return len(self.basis) if self.basis is not None else None


def _sort_key(elem: WittElement):
    """Total order on exact values: the support, then each coefficient's
    canonical integer triple."""
    items = sorted(elem.coeffs.items())
    return (tuple(j for j, _ in items), tuple((c._x, c._y, c._d) for _, c in items))


def _top_mode(modes) -> int:
    """Mode of largest |index| (ties resolved positive)."""
    return max(modes, key=lambda j: (abs(j), j))


def _primitive(r):
    """Row ``{mode: (x, y)}`` divided by the gcd of its integers."""
    g = gcd(*itertools.chain.from_iterable(r.values()))
    return {j: (x // g, y // g) for j, (x, y) in r.items()} if g > 1 else r


class _ExactSpan:
    """Row-echelon span by fraction-free elimination (Bareiss 1968).

    A row is a primitive Gaussian-integer multiple of an element, held as
    ``{mode: (x, y)}`` for x + iy, and keyed by its pivot, its top mode.
    The rows are kept in descending pivot order, so one pass reduces.
    While there are as many rows as modes they touch, the span is the
    coordinate span of those modes and membership is read off the support;
    a bracket whose mode sums all lie in those modes is then not computed.
    """

    def __init__(self):
        self.rows = []  # (pivot mode, row), pivots descending by (|j|, j)
        self.modes = set()  # the modes the rows touch

    def holds_bracket(self, a, b):
        """True if the span is a coordinate span holding every mode j + k
        (j != k) that [a, b] can reach, so that [a, b] lies in it."""
        modes = self.modes
        if len(self.rows) != len(modes):
            return False
        for j in a.coeffs:
            for k in b.coeffs:
                if j != k and j + k not in modes:
                    return False
        return True

    def insert(self, elem):
        """Reduce elem; if a remainder is left, add it as a row and return True.
        In a coordinate span the remainder is elem without the span's modes,
        so its pivot lies outside every row's.  Otherwise a step
        r <- a r - c row (a the row's pivot entry, c r's) is a nonzero
        multiple of the rational one, so zero tests and top modes agree.
        When the coefficients share one denominator their numerators are
        the row as they stand."""
        coeffs = elem.coeffs
        coordinate = len(self.rows) == len(self.modes)
        if coordinate:
            coeffs = {j: q for j, q in coeffs.items() if j not in self.modes}
        if not coeffs:
            return False
        dens = {q._d for q in coeffs.values()}
        if len(dens) == 1:
            r = {j: (q._x, q._y) for j, q in coeffs.items()}
        else:
            den = lcm(*dens)
            r = {j: (q._x * (den // q._d), q._y * (den // q._d)) for j, q in coeffs.items()}
        r = _primitive(r)
        if not coordinate:
            for pivot, row in self.rows:
                if pivot not in r:
                    continue
                (a, b), (u, v) = row[pivot], r[pivot]
                out = {j: (a * x - b * y, a * y + b * x) for j, (x, y) in r.items()}
                for j, (x, y) in row.items():
                    s, t = out.get(j, (0, 0))
                    out[j] = (s - u * x + v * y, t - u * y - v * x)
                r = _primitive({j: xy for j, xy in out.items() if xy != (0, 0)})
            if not r:
                return False
        self.modes.update(r)
        insort(self.rows, (_top_mode(r), r), key=lambda e: (-abs(e[0]), -e[0]))
        return True


def witt_closure(generators, mode_bound=DEFAULT_MODE_BOUND,
                 dim_bound=DEFAULT_DIM_BOUND) -> ClosureResult:
    """Close the span of ``generators`` under the Witt bracket, within bounds.

    While the span is a coordinate span, a pair whose mode sums j + k all
    lie in its modes is skipped: its bracket is never computed.

    Parameters
    ----------
    generators : iterable of WittElement
        Nonempty; the search is independent of their ordering.
    mode_bound : int
        A bracket producing a mode of larger |index| ends the search with a
        not-closed verdict (never an exception).
    dim_bound : int
        Same for the running span dimension.

    Returns
    -------
    ClosureResult
        Closed basis if the span stabilized, else a witness mode.
    """
    gens = sorted((g for g in generators if not g.is_zero),
                  key=_sort_key)
    if not gens:
        raise ValueError("generators must contain a nonzero element")
    top = max(abs(j) for g in gens for j in g.coeffs)
    if mode_bound < top:
        raise ValueError(f"mode_bound {mode_bound} below generator mode {top}")
    if dim_bound < len(gens):
        raise ValueError(f"dim_bound {dim_bound} below generator count {len(gens)}")

    span = _ExactSpan()
    basis = []
    for g in gens:
        if span.insert(g):
            basis.append(g)

    witness = None
    # pairs in the order they arise; the loop reads the pairs that it
    # appends itself, as a list iterator does
    frontier = list(itertools.combinations(range(len(basis)), 2))
    for i, j in frontier:
        if span.holds_bracket(basis[i], basis[j]):
            continue
        c = witt_bracket(basis[i], basis[j])
        if c.is_zero:
            continue
        if max(abs(m) for m in c.coeffs) > mode_bound:
            return ClosureResult(False, None, witness if witness is not None
                                 else _top_mode(c.coeffs))
        if span.insert(c):
            if witness is None:
                witness = _top_mode(c.coeffs)
            basis.append(c)
            n = len(basis) - 1
            if n + 1 > dim_bound:
                return ClosureResult(False, None, witness)
            frontier.extend((m, n) for m in range(n))
    return ClosureResult(True, tuple(basis), None)


# ---------------------------------------------------------------------------
# so(1,2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class So12Element:
    """Real combination t0*T0 + t1*T1 + t2*T2 of the so(1,2) basis, exact.

    Each coefficient is a ``QC``, lifted as ``ModeSeries`` lifts its own (a
    float to the value it stores); one that is not a finite real number
    raises ``ValueError``.
    """

    t0: QC
    t1: QC
    t2: QC

    def __init__(self, t0, t1, t2):
        for name, t in (("t0", t0), ("t1", t1), ("t2", t2)):
            q = _lift(t)
            if q is NotImplemented or q._y:
                raise ValueError(f"{name} must be a real number, got {t!r}")
            object.__setattr__(self, name, q)

    def __add__(self, other):
        return So12Element(self.t0 + other.t0, self.t1 + other.t1, self.t2 + other.t2)

    def __rmul__(self, s):
        return So12Element(s * self.t0, s * self.t1, s * self.t2)

    __mul__ = __rmul__


def so12_bracket(a: So12Element, b: So12Element) -> So12Element:
    """Bracket with [T0,T1] = T2, [T0,T2] = -T1, [T1,T2] = -T0."""
    return So12Element(
        -(a.t1 * b.t2 - a.t2 * b.t1),
        a.t2 * b.t0 - a.t0 * b.t2,
        a.t0 * b.t1 - a.t1 * b.t0,
    )


_SO12_BASIS = (So12Element(1, 0, 0), So12Element(0, 1, 0), So12Element(0, 0, 1))
_HALF, _HALF_I = QC(Fraction(1, 2)), QC(0, Fraction(1, 2))


def algebra_isomorphism(target: str, a: So12Element):
    """2x2 image ``((m00, m01), (m10, m11))`` of ``a``, entries ``QC``, under
    the so(1,2) -> sl(2,R)/su(1,1) dictionary, written entry by entry.

    Linear, and a bracket homomorphism: the image of so12_bracket(a, b)
    is the matrix commutator of the images.
    """
    t0, t1, t2 = a.t0, a.t1, a.t2
    if target == "sl2r":
        return ((_HALF * t2, _HALF * (t0 + t1)), (_HALF * (t1 - t0), -_HALF * t2))
    if target == "su11":
        return ((-_HALF_I * t0, _HALF * t1 - _HALF_I * t2),
                (_HALF * t1 + _HALF_I * t2, _HALF_I * t0))
    raise ValueError(f"unknown target algebra {target!r}; use 'sl2r' or 'su11'")


def killing_form(a: So12Element, b: So12Element) -> QC:
    """tr(ad_a ad_b) = sum_i ([a, [b, T_i]])_i, exact; on the T basis it is
    2*diag(-1, 1, 1)."""
    c0, c1, c2 = (so12_bracket(a, so12_bracket(b, e)) for e in _SO12_BASIS)
    return c0.t0 + c1.t1 + c2.t2


def vector_field_to_so12(l: int, v: WittElement) -> So12Element:
    """Map a real field in span{T, S_l, C_l} to so(1,2) via T/l -> T0 etc.

    Rejects elements outside the admissible span with a diagnostic naming
    the offending mode, and combinations that are not exactly real.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    allowed = {-l, 0, l}
    for j in sorted(v.support, key=lambda m: (abs(m), -m)):
        if j not in allowed:
            raise ValueError(f"mode {j} not in l={l} span")
    a0, ap, am = v.get(0), v.get(l), v.get(-l)
    coeffs = {"T": -QC_I * a0, "S": ap - am, "C": -QC_I * (ap + am)}
    for name, b in coeffs.items():
        if b.im:
            raise ValueError(f"coefficient of {name}_{l} is not real: {b}")
    return So12Element(*(l * b for b in coeffs.values()))
