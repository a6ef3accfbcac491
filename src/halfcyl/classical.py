"""Covering-group actions on the half-cylinder and their audits.

The phase space is S^1 x R+ with form dphi ^ dp.  The l-fold covering of
SO^(1,2) acts through the unit-disc Moebius map applied to exp(i l phi),

    exp(il phi) -> exp(2i omega) (gamma + exp(il phi)) / (conj(gamma) exp(il phi) + 1),

with the continuous l-th root fixed by phi -> phi + 2 omega / l at gamma = 0,
and the lifted momentum p -> p |alpha exp(il phi) + beta|^2.  Everything here
is closed-form; finite differences only audit, never integrate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .exact import QC, ModeSeries

__all__ = [
    "PhasePoint", "CoveringElement", "TrigPoly", "MomentumFunction",
    "AdmissibilityReport",
    "act_lifted", "compose", "inverse", "rotation_element",
    "angle_gap",
    "lift_hamiltonian", "poisson_bracket", "hamiltonian_vector_field",
    "check_symplectic", "admissibility_audit", "transport",
    "lightcone_map", "lightcone_equivariance_residual",
    "act_auxiliary", "compose_auxiliary", "auxiliary_symplectic_residual",
    "poisson_bracket_poly",
    "MOMENTUM_MAP_SIGN", "TWO_PI",
]

TWO_PI = 2.0 * math.pi
_UNIT_ROUNDOFF = 2.0 ** -53
_AUXILIARY_STEP = 1e-5  # central-difference step of auxiliary_symplectic_residual

# Global sign relating {F_v, F_w} to F_[v,w] for the lifted fields, measured
# once from {p, p sin phi} = -p cos phi and asserted stable by the suite.
MOMENTUM_MAP_SIGN = -1

_MINUS_I = QC(0, -1)


# ---------------------------------------------------------------------------
# points and group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePoint:
    """Point (phi, p) on the half-cylinder; p > 0, phi reduced mod 2 pi."""

    phi: float
    p: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if not 0 < self.p < math.inf:
            raise ValueError(f"p must be positive and finite, got {self.p}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class CoveringElement:
    """Element (gamma, omega, l) of the l-fold covering of SO^(1,2).

    |gamma| < 1 and omega is reduced mod l*pi; the underlying SU(1,1)
    matrix has alpha = exp(i omega) / sqrt(1 - |gamma|^2), beta = alpha*gamma.
    """

    gamma: complex
    omega: float
    l: int = 1

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("covering index l must be a positive integer")
        g = complex(self.gamma)
        if not abs(g) < 1:
            raise ValueError(f"|gamma| must be < 1, got {abs(g)}")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "omega", float(self.omega) % (self.l * math.pi))

    def su11_matrix(self) -> np.ndarray:
        """Projected SU(1,1) matrix [[alpha, beta], [conj beta, conj alpha]]."""
        aa = cmath.exp(1j * self.omega) / math.sqrt(1.0 - abs(self.gamma) ** 2)
        bb = aa * self.gamma
        return np.array([[aa, bb], [bb.conjugate(), aa.conjugate()]])


def rotation_element(l: int, dphi: float) -> CoveringElement:
    """Pure rotation moving every base angle by dphi."""
    return CoveringElement(0.0, 0.5 * l * dphi, l)


def compose(g1: CoveringElement, g2: CoveringElement) -> CoveringElement:
    """Group product; act_lifted(g1 * g2, x) = act_lifted(g1, act_lifted(g2, x)).

    The angle parameter composes through the standard disc cocycle
    omega3 = omega1 + omega2 + arg(1 + gamma1 conj(gamma2) e^{-2i omega2}),
    whose argument has positive real part, so the principal branch is smooth.
    """
    if g1.l != g2.l:
        raise ValueError("cannot compose elements of different coverings")
    w2 = cmath.exp(-2j * g2.omega)
    z = 1.0 + g1.gamma * g2.gamma.conjugate() * w2
    gamma3 = (g2.gamma + g1.gamma * w2) / z
    omega3 = g1.omega + g2.omega + cmath.phase(z)
    return CoveringElement(gamma3, omega3, g1.l)


def inverse(g: CoveringElement) -> CoveringElement:
    return CoveringElement(-g.gamma * cmath.exp(2j * g.omega), -g.omega, g.l)


def _mobius_step(g: CoveringElement, phi: float) -> tuple[float, float]:
    """(phi' - phi, p'/p) at phi, both from one Moebius factor
    u = 1 + conj(gamma) e^{il phi}.

    The displacement is continuous in phi (the Moebius part stays below
    pi/l); the momentum factor |alpha e^{il phi} + beta|^2 is always positive.
    """
    u = 1.0 + g.gamma.conjugate() * cmath.exp(1j * g.l * phi)
    return ((2.0 * g.omega - 2.0 * math.atan2(u.imag, u.real)) / g.l,
            (u.real * u.real + u.imag * u.imag) / (1.0 - abs(g.gamma) ** 2))


def act_lifted(g: CoveringElement, x: PhasePoint) -> PhasePoint:
    """Lifted covering-group action on the half-cylinder."""
    disp, factor = _mobius_step(g, x.phi)
    return PhasePoint(x.phi + disp, x.p * factor)


def angle_gap(a: float, b: float) -> float:
    """Distance of two angles on the circle, in [0, pi]."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def check_symplectic(g: CoveringElement, x: PhasePoint, h: float | None = None) -> float:
    """Finite-difference audit of form invariance: || J^T Omega J - Omega ||.

    The Jacobian J = [[1 + d disp/dphi, 0], [p d mult/dphi, mult]] has the
    exact p-column (the map is linear in p by construction) and a central
    difference for the angle derivative.  For any 2x2 J, J^T Omega J =
    det(J) Omega, so the max-norm residual is |det(J) - 1|, in which the
    p d mult/dphi entry drops out.  The displacement is globally smooth,
    so no branch seam is ever near.  The displacement oscillates as
    e^{il phi}, so the difference has truncation error ~ (l h)^2 and
    rounding error ~ u / h (u the unit roundoff); the default step
    h = (u l)^{1/3} / l balances the two, times min(1, |1 + conj(gamma)
    e^{il phi}|), the scale (times l) on which the displacement varies near
    the Moebius pole.  The rounding part grows as (u l)^{2/3} (1 + |gamma|)
    / (1 - |gamma|), so a correct map audits below 1e-6 up to l = 10^6
    only near gamma = 0.  An explicit h is used as given.
    A step below the float spacing at phi, where phi + h == phi - h, raises
    ValueError.
    """
    if h is None:
        w = abs(1.0 + g.gamma.conjugate() * cmath.exp(1j * g.l * x.phi))
        h = (_UNIT_ROUNDOFF * g.l) ** (1 / 3) / g.l * min(1.0, w)
    if not h > 0:
        raise ValueError("step h must be positive")
    phi = x.phi
    dphi = (phi + h) - (phi - h)
    if not dphi:
        raise ValueError(f"step h = {h:.3g} is below the float spacing at phi = {phi:.17g}")
    d_disp = (_mobius_step(g, phi + h)[0] - _mobius_step(g, phi - h)[0]) / dphi
    m = _mobius_step(g, phi)[1]
    return abs((1.0 + d_disp) * m - 1.0)


def transport(a: PhasePoint, b: PhasePoint, l: int = 1) -> CoveringElement:
    """Covering element mapping a to b: the rotation taking a.phi to 0, the
    boost along that fiber (base flow tan(l phi/2) -> e^t tan(l phi/2)) by
    tanh(s), then the rotation taking 0 to b.phi.  The three compose in
    closed form to gamma = tanh(s) e^{il a.phi}, omega = l (b.phi - a.phi) / 2.

    Raises ValueError when the momentum ratio b.p / a.p is so far from 1
    (beyond about 3.5e16 either way) that the boost parameter tanh(s)
    rounds to +-1 and no covering element represents it.
    """
    s = 0.5 * (math.log(b.p) - math.log(a.p))
    t = math.tanh(s)
    if not abs(t) < 1.0:
        raise ValueError(f"momentum ratio {b.p:.3g}/{a.p:.3g} is beyond the range of a "
                         f"representable boost (tanh of {s:.3g} rounds to +-1)")
    return CoveringElement(t * cmath.exp(1j * l * a.phi), 0.5 * l * (b.phi - a.phi), l)


# ---------------------------------------------------------------------------
# trigonometric polynomials and momentum functions
# ---------------------------------------------------------------------------

class TrigPoly(ModeSeries):
    """Real trigonometric polynomial sum_j c_j e^{ij phi}, c_{-j} = conj(c_j).

    A ``ModeSeries`` whose constructor checks reality exactly: c_{-j} must
    equal conj(c_j), with float inputs taken at the value they store.  The
    coefficients are complex rationals, so the bracket engine runs with no
    floating error at all.  Scalars must be real to keep the result real.
    """

    __slots__ = ()

    def __init__(self, modes=None):
        super().__init__(modes)
        for j, c in self.coeffs.items():
            d = self.coeffs.get(-j)
            if d is None or c.conjugate() != d:
                raise ValueError(f"not a real polynomial: modes {j}/{-j}")

    @property
    def modes(self):
        return self.coeffs

    @staticmethod
    def const(c=1):
        return TrigPoly({0: c})

    @staticmethod
    def sin(l: int):
        h = Fraction(1, 2)
        return TrigPoly({l: QC(0, -h), -l: QC(0, h)})

    @staticmethod
    def cos(l: int):
        h = QC(Fraction(1, 2))
        return TrigPoly({l: h, -l: h})

    def __call__(self, phi: float) -> float:
        return super().__call__(phi).real


@dataclass(frozen=True)
class MomentumFunction:
    """Phase-space function p * f(phi) with f a real trig polynomial."""

    base: TrigPoly

    @property
    def is_zero(self):
        return self.base.is_zero

    def __add__(self, other):
        return MomentumFunction(self.base + other.base)

    def __sub__(self, other):
        return MomentumFunction(self.base - other.base)

    def __rmul__(self, s):
        return MomentumFunction(s * self.base)

    __mul__ = __rmul__

    def __call__(self, x: PhasePoint) -> float:
        return x.p * self.base(x.phi)


def lift_hamiltonian(v: TrigPoly) -> MomentumFunction:
    """Momentum-map Hamiltonian p * f(phi) of the base field f(phi) d/dphi."""
    return MomentumFunction(v)


def poisson_bracket(F: MomentumFunction, G: MomentumFunction) -> MomentumFunction:
    """{p f, p g} = p (f' g - f g') = -i p sum_{j,k} (k - j) f_j g_k e^{i(j+k) phi}:
    -i times the Witt bracket of the mode coefficients, exact."""
    return MomentumFunction(_MINUS_I * F.base.bracket(G.base))


def hamiltonian_vector_field(F: MomentumFunction, x: PhasePoint):
    """(dphi/dt, dp/dt) = (f(phi), -p f'(phi)) of the flow generated by F."""
    return (F.base(x.phi), -x.p * F.base.derivative()(x.phi))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the generating-set audit.

    sgp_pass iff the gcd of occurring nonzero modes is 1 (a coarser set can
    only generate 2 pi / divisor - periodic functions); a common zero of the
    base fields is a fiber fixed by the whole set, killing transitivity.
    fixed_fiber is the smallest such angle in [0, 2 pi), decided from the
    exact gcd of the fields (0.0 when every field vanishes identically).
    """

    period_divisor: int
    fixed_fiber: float | None
    transitive: bool
    sgp_pass: bool


# a root w of the square-free gcd s lies on |z| = 1 when ||w| - 1| is within
# this times sum |s_k| / |s'(w)|, the first-order rounding error of a simple
# root: the audit's one float decision, never whether the fields share a zero
_ROOT_ROUNDING = 64 * _UNIT_ROUNDOFF


def _monic(p):
    """p (QC coefficients, highest degree first) stripped and made monic; [] is 0."""
    while p and not p[0]:
        p = p[1:]
    return [c / p[0] for c in p] if p else []


def _divmod(a, b):
    """Exact quotient and remainder (leading zeros kept) of a by the monic b."""
    q, r = [], a
    while len(r) >= len(b):
        q.append(r[0])
        r = [x - r[0] * y for x, y in zip(r[1:], b[1:])] + r[len(b):]
    return q, r


def _gcd(a, b):
    """Monic gcd by Euclid's algorithm."""
    while b:
        a, b = b, _monic(_divmod(a, b)[1])
    return a


def _circle_poly(f: TrigPoly):
    """Monic z^m f(z), m = max |mode|, zero at z = e^{i phi} where f(phi) = 0."""
    m = max(abs(j) for j in f.support)
    return _monic([f.get(j) for j in range(m, -m - 1, -1)])


def _first_circle_zero(g):
    """Smallest phi in [0, 2 pi) with g(e^{i phi}) = 0, or None: a root of the
    square-free part s = g / gcd(g, g'), all of whose roots are simple, tested
    exactly at z = 1 and placed by ``np.roots`` elsewhere."""
    n = len(g) - 1
    s = _divmod(g, _gcd(g, _monic([c * (n - i) for i, c in enumerate(g[:-1])])))[0]
    if not sum(s, QC(0)):
        return 0.0
    p = np.array([complex(c) for c in s])
    ds, err = np.polyder(p), _ROOT_ROUNDING * np.abs(p).sum()
    return min((cmath.phase(w) % TWO_PI for w in np.roots(p)
                if abs(abs(w) - 1.0) * abs(np.polyval(ds, w)) <= err), default=None)


def admissibility_audit(generators) -> AdmissibilityReport:
    """Audit a generating set of momentum functions p * f_i(phi).

    period_divisor is the gcd of all nonzero mode indices (0-modes ignored).
    The base fields share a zero exactly when the gcd of their circle
    polynomials z^m f_i(z), taken by Euclid's algorithm over the exact
    coefficients, has a root on |z| = 1; the fixed fiber is the smallest
    angle of such a root.  Transitivity additionally needs a rotation part
    (some generator with a nonzero 0-mode).
    """
    gens = list(generators)
    if not gens:
        raise ValueError("generators must be nonempty")
    modes = sorted({abs(j) for F in gens for j in F.base.support if j != 0})
    divisor = reduce(math.gcd, modes, 0)
    bases = [F.base for F in gens if not F.base.is_zero]
    # when every generator vanishes, every fiber is fixed
    fixed = _first_circle_zero(reduce(_gcd, map(_circle_poly, bases))) if bases else 0.0
    has_rotation = any(0 in F.base.support for F in gens)
    transitive = fixed is None and has_rotation
    return AdmissibilityReport(period_divisor=divisor, fixed_fiber=fixed,
                               transitive=transitive, sgp_pass=(divisor == 1))


# ---------------------------------------------------------------------------
# light-cone identification
# ---------------------------------------------------------------------------

def lightcone_map(x: PhasePoint, l: int = 1):
    """(x0, x1, x2) = (p, Re p e^{-il phi}, Im p e^{-il phi}); null with x0 > 0."""
    w = x.p * cmath.exp(-1j * l * x.phi)
    return np.array([x.p, w.real, w.imag])


def lightcone_equivariance_residual(g: CoveringElement, x: PhasePoint) -> float:
    """Compare the lifted action with X -> A X A^dagger on the cone."""
    x0, x1, x2 = lightcone_map(x, g.l)
    X = np.array([[x0, x1 - 1j * x2], [x1 + 1j * x2, x0]])
    A = g.su11_matrix()
    Y = A @ X @ A.conj().T
    y = lightcone_map(act_lifted(g, x), g.l)
    target = np.array([Y[0, 0].real, Y[1, 0].real, Y[1, 0].imag])
    return float(np.abs(y - target).max())


# ---------------------------------------------------------------------------
# auxiliary classical models
# ---------------------------------------------------------------------------

def act_auxiliary(model: str, g, x):
    """Auxiliary group actions, both of the form (q, p) -> (lam q, p / lam + a).

    affine_halfline : g = (a, lam), lam > 0, acting on (q, p), q > 0.
    plane_punctured : g = (alpha, beta), beta != 0 complex, acting on (z, p),
                      z != 0; the complex momentum is p = p_x - i p_y so the
                      map is symplectic on (x, y, p_x, p_y).
    """
    if model == "affine_halfline":
        (a, lam), (q, p) = g, x
        if not lam > 0:
            raise ValueError("affine dilation factor must be positive")
        if not q > 0:
            raise ValueError("affine_halfline needs q > 0")
    elif model == "plane_punctured":
        (a, lam), (q, p) = map(complex, g), map(complex, x)
        if lam == 0:
            raise ValueError("beta must be nonzero")
        if q == 0:
            raise ValueError("plane_punctured needs z != 0")
    else:
        raise ValueError(f"unknown auxiliary model {model!r}")
    return (lam * q, p / lam + a)


def compose_auxiliary(model: str, g1, g2):
    """Product compatible with act_auxiliary as a left action."""
    if model not in ("affine_halfline", "plane_punctured"):
        raise ValueError(f"unknown auxiliary model {model!r}")
    (a1, l1), (a2, l2) = g1, g2
    return (a1 + a2 / l1, l1 * l2)


def auxiliary_symplectic_residual(model: str, g, x) -> float:
    """Central-difference || J^T Omega J - Omega || for an auxiliary action."""
    if model == "affine_halfline":
        def flat(v):
            return np.array(act_auxiliary(model, g, (v[0], v[1])))
        x0 = np.array(x, dtype=float)
        n = 2
    elif model == "plane_punctured":
        def flat(v):
            z, p = act_auxiliary(model, g, (v[0] + 1j * v[1], v[2] - 1j * v[3]))
            return np.array([z.real, z.imag, p.real, -p.imag])
        z, p = complex(x[0]), complex(x[1])
        x0 = np.array([z.real, z.imag, p.real, -p.imag])
        n = 4
    else:
        raise ValueError(f"unknown auxiliary model {model!r}")
    jac = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = _AUXILIARY_STEP
        jac[:, i] = (flat(x0 + e) - flat(x0 - e)) / (2 * _AUXILIARY_STEP)
    half = n // 2
    omega = np.block([[np.zeros((half, half)), np.eye(half)],
                      [-np.eye(half), np.zeros((half, half))]])
    return float(np.abs(jac.T @ omega @ jac - omega).max())


def poisson_bracket_poly(F: dict, G: dict) -> dict:
    """Exact bracket of polynomials in one (q, p) pair.

    Polynomials are {(i, j): coeff} for q^i p^j; the bracket is
    {q^a p^b, q^c p^d} = (a d - b c) q^{a+c-1} p^{b+d-1}.
    Used for the auxiliary models, e.g. {q, q p} = q.
    """
    out = {}
    for (a, b), cf in F.items():
        for (c, d), cg in G.items():
            w = (a * d - b * c)
            if w == 0:
                continue
            key = (a + c - 1, b + d - 1)
            term = w * cf * cg
            out[key] = out.get(key, 0) + term
    return {k: v for k, v in out.items() if v != 0}
