"""Truncated matrix realizations of the lowest-weight unitary series.

For weight k > 0 the ladder set on basis e_0..e_N is

    H e_n  = (k + n) e_n
    T+ e_n = s * sqrt((2k + n)(n + 1)) e_{n+1}
    T- e_n = s * sqrt(n (2k + n - 1)) e_{n-1}

with s = +1 (creation_plus) or s = -1 (disc_minus); the two gauges are
exchanged by the diagonal (-1)^n similarity.  T0 = iH, T1 = (T+ - T-)/2,
T2 = i(T+ + T-)/2, and the Casimir T0^2 - T1^2 - T2^2 is the scalar k(1-k).

Truncation contract: every operator carries a reach (its band displacement);
identities are asserted only on the interior columns n <= N - total reach,
where the finite shadow agrees with the infinite operator exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "RepConfig", "TruncatedOperator", "GeneratorSet",
    "build_generators", "casimir", "spectrum_p", "rotation_rep",
    "exp_generator", "gram_weights", "toeplitz_measure_test",
    "interior_residual", "commutator", "parity_similarity", "tol",
    "REALIZATIONS", "PHASE_CONVENTIONS",
]

REALIZATIONS = ("fock", "disc", "boundary", "hardy")
PHASE_CONVENTIONS = ("creation_plus", "disc_minus")


def tol(N: int) -> float:
    """Default interior tolerance 1e-9 * max(1, N) in double precision."""
    return 1e-9 * max(1, N)


@dataclass(frozen=True)
class RepConfig:
    """Weight k > 0, cutoff N (basis 0..N), hbar, and the ladder sign gauge."""

    k: float
    N: int
    hbar: float = 1.0
    phase_convention: str = "creation_plus"

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"k must be positive (unitarity), got {self.k}")
        if self.N < 4:
            raise ValueError(f"N must be at least 4, got {self.N}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.phase_convention not in PHASE_CONVENTIONS:
            raise ValueError(f"unknown phase convention {self.phase_convention!r}")


@dataclass(frozen=True)
class TruncatedOperator:
    """Finite operator shadow: matrix plus its band reach.

    Composites add reaches, sums take the max; the interior span where
    identities are exact consists of the columns 0..dim-1-reach.
    """

    matrix: np.ndarray
    reach: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def interior(self):
        """Number of interior columns for this reach."""
        return max(self.dim - self.reach, 0)

    def __matmul__(self, other):
        return TruncatedOperator(self.matrix @ other.matrix,
                                 self.reach + other.reach)

    def __add__(self, other):
        return TruncatedOperator(self.matrix + other.matrix,
                                 max(self.reach, other.reach))

    def __sub__(self, other):
        return TruncatedOperator(self.matrix - other.matrix,
                                 max(self.reach, other.reach))

    def __rmul__(self, scalar):
        return TruncatedOperator(scalar * self.matrix, self.reach)

    __mul__ = __rmul__

    def adjoint(self):
        return TruncatedOperator(self.matrix.conj().T, self.reach)


def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    return a @ b - b @ a


def interior_residual(expr: TruncatedOperator, target=None,
                      trim_bottom: int = 0) -> float:
    """Max-abs deviation of ``expr`` from ``target`` on interior columns.

    ``target`` may be a TruncatedOperator, an ndarray, or None (zero).
    ``trim_bottom`` additionally drops low columns, for windows truncated
    at both ends.  An empty interior raises: a check that compares no
    column must not pass.
    """
    mat = expr.matrix
    if isinstance(target, TruncatedOperator):
        mat = mat - target.matrix
    elif target is not None:
        mat = mat - np.asarray(target)
    hi = expr.interior
    if hi <= trim_bottom:
        raise ValueError(f"no interior columns to compare (interior {hi}, "
                         f"trim_bottom {trim_bottom})")
    return float(np.abs(mat[:, trim_bottom:hi]).max())


def parity_similarity(N: int) -> np.ndarray:
    """diag((-1)^n); conjugation maps creation_plus to disc_minus and back."""
    return np.diag((-1.0) ** np.arange(N + 1))


@dataclass(frozen=True)
class GeneratorSet:
    """The truncated generators of one realization at one config."""

    H: TruncatedOperator
    Tplus: TruncatedOperator
    Tminus: TruncatedOperator
    T0: TruncatedOperator
    T1: TruncatedOperator
    T2: TruncatedOperator
    C: TruncatedOperator
    realization: str
    config: RepConfig


def _log_norm_ratio(k: float, n: np.ndarray) -> np.ndarray:
    """c_n / c_{n+1} = sqrt((n + 1) / (2k + n)) of the disc normalizations."""
    return np.sqrt((n + 1.0) / (2.0 * k + n))


def _ladder_matrices(realization: str, config: RepConfig):
    """Raw H, T+, T- matrices of one realization, in its native sign gauge."""
    k, N = config.k, config.N
    n = np.arange(N + 1, dtype=float)
    h = np.diag(k + n)
    up = np.zeros((N + 1, N + 1))
    dn = np.zeros((N + 1, N + 1))
    lo = np.arange(N, dtype=float)  # source index of the raising shift

    if realization == "fock":
        # abstract ladder: sqrt(q + lambda(lambda +- 1)) at lambda = k + n
        up[np.arange(1, N + 1), np.arange(N)] = np.sqrt((2 * k + lo) * (lo + 1))
        dn[np.arange(N), np.arange(1, N + 1)] = np.sqrt((lo + 1) * (2 * k + lo))
        sign = 1.0
    elif realization == "disc":
        # differential action -2k zbar - zbar^2 d/dzbar on the normalized basis
        up[np.arange(1, N + 1), np.arange(N)] = (2 * k + lo) * _log_norm_ratio(k, lo)
        dn[np.arange(N), np.arange(1, N + 1)] = (lo + 1) / _log_norm_ratio(k, lo)
        sign = -1.0
    elif realization == "boundary":
        # exp(i phi)(-2k + i d/dphi) on the unnormalized Fourier basis
        up[np.arange(1, N + 1), np.arange(N)] = 2 * k + lo
        dn[np.arange(N), np.arange(1, N + 1)] = lo + 1
        sign = -1.0
    elif realization == "hardy":
        # shift composed with the entrywise root of the positive diagonal
        # (2k - i d/dphi)(1 - i d/dphi) on the orthonormal Fourier basis
        root = np.sqrt((2 * k + lo) * (1 + lo))
        up[np.arange(1, N + 1), np.arange(N)] = root
        dn[np.arange(N), np.arange(1, N + 1)] = root
        sign = -1.0
    else:
        raise ValueError(f"unknown realization {realization!r}")
    return h, sign * up, sign * dn


def build_generators(realization: str, config: RepConfig) -> GeneratorSet:
    """Truncated generator matrices of one realization.

    fock, disc and hardy live on orthonormal bases and come out
    entry-identical; boundary uses the unnormalized Fourier basis and is
    related to hardy by the diagonal normalization similarity (see the
    equivalence module).  The requested phase convention is applied as the
    (-1)^n gauge on top of the construction.
    """
    h, up, dn = _ladder_matrices(realization, config)
    native_sign = 1.0 if realization == "fock" else -1.0
    wanted_sign = 1.0 if config.phase_convention == "creation_plus" else -1.0
    if native_sign != wanted_sign:
        up, dn = -up, -dn

    H = TruncatedOperator(h, 0)
    Tp = TruncatedOperator(up, 1)
    Tm = TruncatedOperator(dn, 1)
    T0 = 1j * H
    T1 = 0.5 * (Tp - Tm)
    T2 = 0.5j * (Tp + Tm)
    C = T0 @ T0 - T1 @ T1 - T2 @ T2
    return GeneratorSet(H, Tp, Tm, T0, T1, T2, C,
                        realization=realization, config=config)


def casimir(gs: GeneratorSet) -> TruncatedOperator:
    """T0^2 - T1^2 - T2^2; equals k(1-k) * identity on the interior."""
    return gs.T0 @ gs.T0 - gs.T1 @ gs.T1 - gs.T2 @ gs.T2


def spectrum_p(config: RepConfig) -> np.ndarray:
    """Momentum spectrum hbar (k + n), n = 0..N: positive, spacing hbar."""
    return config.hbar * (config.k + np.arange(config.N + 1))


def rotation_rep(omega: float, config: RepConfig) -> TruncatedOperator:
    """Rotation-subgroup representative diag(exp(-2i (k+n) omega)).

    Coincides with the matrix exponential exp(-2 omega T0) and is unitary;
    at omega = pi it is the identity exactly when 2k is an even integer,
    which is what decides whether the representation projects down from
    the covering group.
    """
    n = np.arange(config.N + 1)
    return TruncatedOperator(np.diag(np.exp(-2j * (config.k + n) * omega)), 0)


_BOOST_T_MAX = 2.0


def exp_generator(direction: str, t: float, config: RepConfig) -> TruncatedOperator:
    """Truncated matrix exponential exp(t * T_direction).

    T0 exponentials are exactly unitary (diagonal phases).  For the boost
    directions T1/T2 the parameter is capped at |t| <= 2 to keep truncation
    leakage confined to the top rows; the interior unitarity defect decays
    rapidly with N and is reported by the suite, not asserted.
    """
    if direction not in ("T0", "T1", "T2"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction != "T0" and abs(t) > _BOOST_T_MAX:
        raise ValueError(f"|t| <= {_BOOST_T_MAX} required for boost directions")
    gs = build_generators("fock", config)
    gen = {"T0": gs.T0, "T1": gs.T1, "T2": gs.T2}[direction]
    if direction == "T0":
        mat = np.diag(np.exp(t * np.diag(gen.matrix)))
    else:
        mat = expm(t * gen.matrix)
    return TruncatedOperator(mat, config.N)


def gram_weights(config: RepConfig) -> np.ndarray:
    """Diagonal w_n = Gamma(2k) Gamma(n+1) / Gamma(2k+n) of the metric that
    turns the flat circle pairing into the weighted one.

    w_0 = 1; strictly increasing for k < 1/2, constant at k = 1/2,
    strictly decreasing for k > 1/2 (the finite shadow of the function-space
    inclusions between the weighted spaces and the flat Hardy space).
    """
    k, n = config.k, np.arange(config.N + 1)
    lg = math.lgamma
    return np.exp([lg(2 * k) + lg(m + 1) - lg(2 * k + m) for m in n])


def toeplitz_measure_test(config: RepConfig) -> bool:
    """True iff the weighted pairing of the Fourier modes is Toeplitz,
    i.e. comes from a density on the circle.  Happens exactly at k = 1/2
    (constant weight 1/(2 pi)); any other weight profile admits no density.
    """
    w = gram_weights(config)
    return bool(np.all(np.abs(w - w[0]) <= 1e-12))
