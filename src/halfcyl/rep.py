"""Truncated matrix realizations of the lowest-weight unitary series.

For weight k > 0 the ladder set on basis e_0..e_N is

    H e_n  = (k + n) e_n
    T+ e_n = s * sqrt((2k + n)(n + 1)) e_{n+1}
    T- e_n = s * sqrt(n (2k + n - 1)) e_{n-1}

with s = +1 (creation_plus) or s = -1 (disc_minus); the two gauges are
exchanged by the diagonal (-1)^n similarity.  T0 = iH, T1 = (T+ - T-)/2,
T2 = i(T+ + T-)/2, and the Casimir T0^2 - T1^2 - T2^2 is the scalar k(1-k).

Three ``REALIZATIONS`` compute the ladder: fock, the abstract ladder on the
orthonormal (Hardy) basis, which is also the Hardy root form; disc, the
differential action on the disc; boundary, on the unnormalized Fourier basis.

Operators are stored as their diagonals: float64 for the real H, T+, T-
and T1, complex for T0, T2 and the rotation.  Truncation contract: every
operator carries a reach (its band displacement); identities are asserted
only on the interior columns n <= N - total reach, where the finite shadow
agrees with the infinite operator exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .report import worst_of

__all__ = [
    "RepConfig", "TruncatedOperator", "GeneratorSet",
    "build_generators", "casimir", "spectrum_p", "rotation_rep",
    "exp_generator", "boost_norm", "boost_columns", "boost_cutoff",
    "gram_weights", "toeplitz_measure_test",
    "interior_residual", "commutator", "sin_cos", "tol",
    "REALIZATIONS", "PHASE_CONVENTIONS",
]

REALIZATIONS = ("fock", "disc", "boundary")
PHASE_CONVENTIONS = ("creation_plus", "disc_minus")


def tol(N: int) -> float:
    """Default interior tolerance 1e-9 * max(1, N) in double precision."""
    return 1e-9 * max(1, N)


@dataclass(frozen=True)
class RepConfig:
    """Weight k > 0, cutoff N (basis 0..N) and the ladder sign gauge."""

    k: float
    N: int
    phase_convention: str = "creation_plus"

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"k must be positive (unitarity), got {self.k}")
        if self.N < 4:
            raise ValueError(f"N must be at least 4, got {self.N}")
        if self.phase_convention not in PHASE_CONVENTIONS:
            raise ValueError(f"unknown phase convention {self.phase_convention!r}")


class TruncatedOperator:
    """Finite operator shadow: its diagonals plus its band reach.

    ``bands`` maps an offset d to the diagonal M[i, i + d] in numpy's
    ``diagonal(d)`` order, so a tridiagonal ladder is three vectors and a
    product of banded operators costs O(dim * bands * bands).  Composites
    add reaches, sums take the max; the interior span where identities are
    exact consists of the columns 0..dim-1-reach.  Bands are the only
    storage, each of shape (dim - |d|,); ``matrix`` is a read-only complex
    dense view built from them on every read, for tests and benchmarks.
    Only this class picks band dtypes: real stays real, complex complex.
    """

    __slots__ = ("bands", "dim", "reach")

    def __init__(self, bands: dict, dim: int, reach: int):
        """Operator with a copy of the given diagonals; the arrays are frozen, not copied."""
        bands = dict(bands)
        for d, b in bands.items():
            if b.shape != (dim - abs(d),):
                raise ValueError(f"band {d} of a dim-{dim} operator has shape "
                                 f"{b.shape}, expected ({dim - abs(d)},)")
            b.setflags(write=False)
        self.bands, self.dim, self.reach = bands, dim, reach

    @classmethod
    def diag(cls, values) -> "TruncatedOperator":
        """Diagonal operator diag(values), float64 unless the values are complex."""
        values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
        return cls({0: values}, values.size, 0)

    @property
    def interior(self):
        """Number of interior columns for this reach."""
        return max(self.dim - self.reach, 0)

    @property
    def matrix(self) -> np.ndarray:
        n = self.dim
        m = np.zeros((n, n), dtype=complex)
        flat = m.reshape(-1)
        for d, b in self.bands.items():
            start = d if d >= 0 else -d * n
            flat[start:start + b.size * (n + 1):n + 1] = b
        m.setflags(write=False)
        return m

    def max_abs(self) -> float:
        """Largest entry modulus; NaN if any entry is NaN."""
        return worst_of(np.abs(b).max() for b in self.bands.values())

    def block(self, lo: int, hi: int) -> "TruncatedOperator":
        """Principal submatrix on the indices lo..hi-1, same reach."""
        return TruncatedOperator(
            {d: b[lo:hi - abs(d)] for d, b in self.bands.items() if abs(d) < hi - lo},
            hi - lo, self.reach)

    def _check_dim(self, other):
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return self.dim

    def __matmul__(self, other):
        # (A @ B)[i, i + p + q] += A[i, i + p] * B[i + p, i + p + q] over the
        # rows i where all three indices lie in 0..n-1, in one dtype: a band
        # that a real pair allocated could not take a later complex term
        n = self._check_dim(other)
        dtype = np.result_type(float, *self.bands.values(), *other.bands.values())
        out = {}
        for p, a in self.bands.items():
            for q, b in other.bands.items():
                r = p + q
                lo, hi = max(0, -p, -r), min(n, n - p, n - r)
                if lo >= hi:
                    continue
                if r not in out:
                    out[r] = np.zeros(n - abs(r), dtype)
                ra, rb, rr = max(0, -p), max(0, -q) - p, max(0, -r)
                out[r][lo - rr:hi - rr] += a[lo - ra:hi - ra] * b[lo - rb:hi - rb]
        return TruncatedOperator(out, n, self.reach + other.reach)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Product with the dense columns ``x`` of shape (dim, m), in
        O(dim * bands * m)."""
        if x.ndim != 2 or x.shape[0] != self.dim:
            raise ValueError(f"dot expects columns of shape ({self.dim}, m), got {x.shape}")
        dtype = np.result_type(x, *self.bands.values())
        out, prod = np.zeros(x.shape, dtype), np.empty(x.shape, dtype)
        for d, b in self.bands.items():
            lo = max(0, -d)  # first row of diagonal d; row i reads x[i + d]
            out[lo:lo + b.size] += np.multiply(b[:, None], x[lo + d:lo + d + b.size],
                                               out=prod[:b.size])
        return out

    def __add__(self, other):
        self._check_dim(other)
        out = dict(self.bands)
        for d, b in other.bands.items():
            out[d] = out[d] + b if d in out else b
        return TruncatedOperator(out, self.dim, max(self.reach, other.reach))

    def __sub__(self, other):
        return self + -1 * other

    def __rmul__(self, scalar):
        return TruncatedOperator(
            {d: scalar * b for d, b in self.bands.items()}, self.dim, self.reach)

    __mul__ = __rmul__

    def adjoint(self):
        return TruncatedOperator(
            {-d: b.conj() for d, b in self.bands.items()}, self.dim, self.reach)


def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    return a @ b - b @ a


def sin_cos(u: TruncatedOperator):
    """Hermitean (sin, cos) = (-i (U - U*) / 2, (U + U*) / 2) of a unit shift U."""
    return -0.5j * (u - u.adjoint()), 0.5 * (u + u.adjoint())


def interior_residual(expr: TruncatedOperator, trim_bottom: int = 0) -> float:
    """Max-abs entry of ``expr`` on its interior columns.

    ``trim_bottom`` additionally drops low columns, for windows truncated
    at both ends.  Only the interior columns of each diagonal are read.
    An empty interior raises: a check that compares no column must not
    pass.
    """
    hi = expr.interior
    if hi <= trim_bottom:
        raise ValueError(f"no interior columns to compare (interior {hi}, "
                         f"trim_bottom {trim_bottom})")
    parts = []
    for d, b in expr.bands.items():
        col = max(d, 0)  # column of the first entry of the diagonal
        seg = b[max(trim_bottom - col, 0):max(hi - col, 0)]
        if seg.size:
            parts.append(np.abs(seg).max())
    return worst_of(parts)


@dataclass(frozen=True)
class GeneratorSet:
    """The truncated generators of one realization at one config."""

    H: TruncatedOperator
    Tplus: TruncatedOperator
    Tminus: TruncatedOperator
    T0: TruncatedOperator
    T1: TruncatedOperator
    T2: TruncatedOperator
    config: RepConfig


def _ladder_bands(realization: str, config: RepConfig):
    """H diagonal and the T+ / T- off-diagonals: moduli, negated in disc_minus.

    T+ e_n has its coefficient on the subdiagonal (offset -1), T- e_{n+1}
    on the superdiagonal (offset +1); entry n of each belongs to e_n.
    """
    k, N = config.k, config.N
    h = k + np.arange(N + 1, dtype=float)
    lo = np.arange(N, dtype=float)  # source index of the raising shift

    if realization == "fock":
        # abstract ladder sqrt(q + lambda(lambda +- 1)) at lambda = k + n
        up = dn = np.sqrt((2 * k + lo) * (lo + 1))
    elif realization == "disc":
        # differential action -2k zbar - zbar^2 d/dzbar on the normalized
        # basis, through the ratio c_n / c_{n+1} of the disc normalizations
        ratio = np.sqrt((lo + 1.0) / (2.0 * k + lo))
        up = (2 * k + lo) * ratio
        dn = (lo + 1) / ratio
    elif realization == "boundary":
        # exp(i phi)(-2k + i d/dphi) on the unnormalized Fourier basis
        up = 2 * k + lo
        dn = lo + 1
    else:
        raise ValueError(f"unknown realization {realization!r}")
    if config.phase_convention == "disc_minus":
        up, dn = -up, -dn
    return h, up, dn


def build_generators(realization: str, config: RepConfig) -> GeneratorSet:
    """Truncated generators of one realization, stored as their bands.

    fock and disc live on orthonormal bases and agree entrywise up to
    rounding; boundary uses the unnormalized Fourier basis and is related
    to fock by the diagonal normalization similarity (see the equivalence
    module).  Every realization is built with positive ladder bands; the
    disc_minus convention negates both, the (-1)^n gauge.
    """
    h, up, dn = _ladder_bands(realization, config)
    dim = config.N + 1
    H = TruncatedOperator.diag(h)
    Tp, Tm = TruncatedOperator({-1: up}, dim, 1), TruncatedOperator({1: dn}, dim, 1)
    T0 = 1j * H
    T1 = 0.5 * (Tp - Tm)
    T2 = 0.5j * (Tp + Tm)
    return GeneratorSet(H, Tp, Tm, T0, T1, T2, config)


def casimir(gs: GeneratorSet) -> TruncatedOperator:
    """T0^2 - T1^2 - T2^2; equals k(1-k) * identity on the interior."""
    return gs.T0 @ gs.T0 - gs.T1 @ gs.T1 - gs.T2 @ gs.T2


def spectrum_p(config: RepConfig, hbar: float) -> np.ndarray:
    """Momentum spectrum hbar (k + n), n = 0..N: positive, spacing hbar."""
    if not hbar > 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    return hbar * (config.k + np.arange(config.N + 1))


def rotation_rep(omega: float, config: RepConfig) -> TruncatedOperator:
    """Rotation-subgroup representative diag(exp(-2i (k+n) omega)).

    Coincides with the matrix exponential exp(-2 omega T0) and is unitary;
    at omega = pi it is the identity exactly when 2k is an even integer,
    which is what decides whether the representation projects down from
    the covering group.
    """
    n = np.arange(config.N + 1)
    return TruncatedOperator.diag(np.exp(-2j * (config.k + n) * omega))


_BOOST_T_MAX = 2.0

# Probe block of the boosts: columns 0..b-1 of the exponential of a leading
# block of L rows, with L the smallest block whose margin rule (below)
# certifies all b columns at |t| = _BOOST_T_PROBE.
_BOOST_PROBE_COLUMNS = 64
_BOOST_T_PROBE = 0.7


def _boost_reach(t: float, k: float, n):
    """Rows that column n of the truncated exp(t T1) or exp(t T2) needs.

    The margin rule: the boost carries the level k + n as far as
    (k + n) e^|t| (row (k + n) e^|t| - k); beyond it the column decays
    geometrically at the rate tanh(|t|/2) of column 0, whose tail reaches
    1e-13 after l(t) = ln(1e-13) / ln(tanh(|t|/2)) rows, and the tail
    widens as sqrt(k + n).  A column is certified in a block of L rows when
    its reach is at most L.  The constants were calibrated on the
    adjoint-action residual (see ``boost_columns``) of truncated
    exponentials, for |t| <= 0.7, 0.05 <= k <= 100 and 5 <= L <= 320:
    certified columns stay below 7e-13.
    """
    t = abs(t)
    tail = np.log(1e-13) / np.log(np.tanh(t / 2)) if t else 0.0
    with np.errstate(over="ignore"):  # e^|t| (k + n) is inf for k near the float range
        return np.exp(t) * (k + n) - k + tail * (1 + np.sqrt(k + n) / 6)


def _boost_rows(config: RepConfig) -> int:
    """L = min(N + 1, rows the margin rule needs for b columns at t_probe)."""
    need = _boost_reach(_BOOST_T_PROBE, config.k, _BOOST_PROBE_COLUMNS - 1)
    return int(min(config.N + 1, np.ceil(need)))  # need is inf from k ~ 8.9e307 on


def boost_columns(t: float, config: RepConfig) -> int:
    """Leading columns of ``exp_generator(., t, config)`` that the margin
    rule of ``_boost_reach`` certifies free of truncation effects."""
    rows = _boost_rows(config)
    reach = _boost_reach(t, config.k, np.arange(rows))
    return int(np.count_nonzero(reach <= rows))


def boost_cutoff(t: float, k: float) -> float:
    """Smallest N at which ``boost_columns`` certifies a column at weight k,
    |t| <= 0.7: N + 1 rows reach column 0 (inf once its reach overflows)."""
    return float(np.ceil(_boost_reach(t, k, 0))) - 1


@functools.lru_cache(maxsize=1)
def _boost_svd(config: RepConfig):
    """SVD B = U diag(s) V^T of the chiral block of the real Jacobi matrix
    J = (T+ + T-)/2 of the fock ladder, on its leading L x L block,
    L = ``_boost_rows(config)``; returns (U, s, V).

    J has a zero diagonal, so in even/odd order it is [[0, B], [B^T, 0]]
    with B = J[0::2, 1::2], the ceil(L/2) x floor(L/2) bidiagonal block.  U
    is square (``full_matrices``), so for odd L it also spans the null
    vector of B^T, on which J vanishes.  Both boost generators are unitarily
    equivalent to J: i T2 = -J and i T1 = D J D*, D = diag(i^n), block by
    block.  One SVD per config therefore serves every boost exponential, in
    either direction, at any t; B is about L/2 on a side, whatever N.
    A non-finite J (a weight k near the float range) gives NaN factors,
    which fail the boost records, where the SVD itself would raise.  The
    cached factors are read-only, so no caller can change a later boost.
    """
    rows = _boost_rows(config)
    off = 0.5 * _ladder_bands("fock", config)[1][:rows - 1]  # J[n, n+1] = J[n+1, n]
    b = np.zeros(((rows + 1) // 2, rows // 2))
    np.fill_diagonal(b, off[0::2])      # B[r, r] = J[2r, 2r+1]
    np.fill_diagonal(b[1:], off[1::2])  # B[r, r-1] = J[2r, 2r-1]
    m, n = b.shape
    u, s, vt = (np.linalg.svd(b) if np.isfinite(b).all() else
                (np.full((m, m), np.nan), np.full(n, np.nan), np.full((n, n), np.nan)))
    for a in (u, s, vt):
        a.setflags(write=False)
    return u, s, vt.T


def boost_norm(config: RepConfig) -> float:
    """Largest singular value of the chiral block B of the leading L x L
    block of J (see ``_boost_svd``), which is its largest |eigenvalue|: the
    spectral norm of the truncated T1 (and T2) when N + 1 <= L, and of their
    leading block otherwise.  It sets the finite-difference step of the
    boosts."""
    return float(_boost_svd(config)[1].max())


def exp_generator(direction: str, t: float, config: RepConfig) -> np.ndarray:
    """Boost exponential exp(t * T1) or exp(t * T2) as a read-only array.

    When N + 1 <= L (``_boost_rows``) it is the whole truncated
    (N+1) x (N+1) exponential.  Otherwise it is the probe block: columns
    0..b-1 (b = 64) of the exponential of the leading L x L block of the
    generator, an L x b array; the margin rule certifies all b of them at
    least for |t| <= 0.7, and a t at which it certifies fewer raises.
    ``boost_columns`` says how many leading columns are free of truncation
    effects.

    Both come from the cached chiral SVD B = U diag(s) V^T of the Jacobi
    matrix J (see ``_boost_svd``): cos(tJ) is U cos(ts) U^T on the even
    rows and columns (1 on the null vector of an odd L) and V cos(ts) V^T
    on the odd ones; sin(tJ) is U sin(ts) V^T from odd columns to even
    rows and its transpose back, so each is four quarter-size products and
    the blocks of the other parity are exactly zero.  Then
    exp(t T2) = cos(tJ) + i sin(tJ) and
    exp(t T1) = D (cos(tJ) - i sin(tJ)) D*, D = diag(i^n), unitary up to
    rounding; cos(tJ) and sin(tJ) are separate real products, so they stay
    exactly even and odd in t.  exp(t T1) is real (T1 is real and
    antisymmetric) and is returned as a real array: D's phases are signs
    on the real blocks.  The parameter is capped at |t| <= 2 to keep
    truncation leakage confined to the top rows.  The rotation direction is
    diagonal: exp(t T0) is ``rotation_rep(-t / 2, config)``.
    """
    if direction == "T0":
        raise ValueError("exp(t T0) is rotation_rep(-t / 2, config)")
    if direction not in ("T1", "T2"):
        raise ValueError(f"unknown direction {direction!r}")
    if abs(t) > _BOOST_T_MAX:
        raise ValueError(f"|t| <= {_BOOST_T_MAX} required for boost directions")
    u, s, v = _boost_svd(config)
    rows = cols = u.shape[0] + v.shape[0]
    if rows <= config.N:  # the probe block
        cols = _BOOST_PROBE_COLUMNS
        if boost_columns(t, config) < cols:
            raise ValueError(f"the {rows}-row probe block certifies its {cols} "
                             f"columns only for |t| <= {_BOOST_T_PROBE}, got t = {t}")
    ue, vo = u[:(cols + 1) // 2], v[:cols // 2]  # rows of the even, odd columns
    tau = t if direction == "T2" else -t  # exp(t T1) = D exp(-i t J) D*
    c, sn = np.cos(tau * s), np.sin(tau * s)
    if direction == "T2":  # cos(tau J) + i sin(tau J)
        mat = np.zeros((rows, cols), complex)
        re, im = mat.real, mat.imag
    else:  # D (cos(tau J) + i sin(tau J)) D*, real: see below
        re = im = mat = np.empty((rows, cols))
    re[0::2, 0::2] = (u * np.append(c, np.ones(u.shape[0] - s.size))) @ ue.T
    re[1::2, 1::2] = (v * c) @ vo.T
    im[0::2, 1::2] = (u[:, :s.size] * sn) @ vo.T
    im[1::2, 0::2] = (v * sn) @ ue[:, :s.size].T
    if direction == "T1":
        # entry (r, c) times i^(r - c), with the i of the sin blocks: the
        # sign s_r s_c, s_n = (-1)^(n // 2), and once more -1 on the sin
        # block of odd rows, so each entry is a cos or sin entry up to sign
        np.negative(mat[1::2, 0::2], out=mat[1::2, 0::2])
        sign = 1.0 - 2.0 * (np.arange(rows) // 2 % 2)
        mat *= sign[:, None]
        mat *= sign[:cols]
        mat += 0.0  # a sign-flipped exact zero reads +0, as the phases give it
    mat.setflags(write=False)
    return mat


def gram_weights(config: RepConfig) -> np.ndarray:
    """Diagonal w_n = Gamma(2k) Gamma(n+1) / Gamma(2k+n) of the metric that
    turns the flat circle pairing into the weighted one.

    w_0 = 1; strictly increasing for k < 1/2, constant at k = 1/2,
    strictly decreasing for k > 1/2 (the finite shadow of the function-space
    inclusions between the weighted spaces and the flat Hardy space).
    Built as the running product of the ratios w_{n+1} / w_n =
    (n + 1) / (2k + n): n rounded factors and no cancellation.
    """
    k, n = config.k, np.arange(config.N, dtype=float)
    return np.concatenate(([1.0], np.cumprod((n + 1) / (2 * k + n))))


def toeplitz_measure_test(config: RepConfig) -> bool:
    """True iff the weighted pairing of the Fourier modes is Toeplitz,
    i.e. comes from a density on the circle.  Happens exactly at k = 1/2
    (constant weight 1/(2 pi)); any other weight profile admits no density.
    """
    w = gram_weights(config)
    return bool(np.all(np.abs(w - w[0]) <= 1e-12))
