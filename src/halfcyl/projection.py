"""Projection quantization of the cylinder and a half-line desk demo.

The theta-family quantization of T*S^1 lives on the quasi-periodic modes
f_{theta,m} = exp(i (m + theta) phi), m in Z, on which the momentum is
diagonal with eigenvalues hbar (m + theta).  Restricting to the maximal
subspace with positive momentum (m >= 0 for theta in (0,1]) transports an
operator as pi o O o iota for the inclusion iota and its adjoint pi; on the
stored diagonals that is index slicing of the trailing block, the one route
into the subspace.  A projected unitary is only isometric: the shift
acquires a rank-one defect on the lowest state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import judge
from .rep import TruncatedOperator, commutator, interior_residual, sin_cos

__all__ = [
    "ThetaSpace", "ProjectedSpace", "isometry_report",
    "halfline_demo", "halfline_commutator_residual",
]


@dataclass(frozen=True)
class ThetaSpace:
    """Finite window of the theta-quantized cylinder: the modes of ``window``."""

    theta: float
    window: range
    hbar: float = 1.0

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not (isinstance(self.window, range) and self.window and self.window.step == 1):
            raise ValueError(f"window must be a nonempty step-1 range, got {self.window!r}")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")

    @property
    def dim(self):
        return len(self.window)

    @property
    def modes(self):
        return np.arange(self.window.start, self.window.stop)

    # -- operators on the window ---------------------------------------
    def momentum(self) -> TruncatedOperator:
        """p f_{theta,m} = hbar (m + theta) f_{theta,m}."""
        return TruncatedOperator.diag(self.hbar * (self.modes + self.theta))

    def shift(self) -> TruncatedOperator:
        """U f_{theta,m} = f_{theta,m+1} (multiplication by exp(i phi))."""
        return TruncatedOperator({-1: np.ones(self.dim - 1)}, self.dim, 1)


@dataclass(frozen=True)
class ProjectedSpace:
    """Positive-momentum subspace spanned by f_{theta,m}, m >= m_min.

    For theta in (0, 1] the set {m : hbar (m + theta) > 0} is exactly
    {m >= 0}, so m_min = 0 is the maximal positive subspace, the range of
    the spectral projector of the positive-momentum inequality; m_min is
    any nonnegative mode of the window.  Basis vector e_j is the mode
    m_min + j (``modes``), at window index m_min - window.start + j;
    ``project`` slices an operator's diagonals to that trailing block, and
    ``momentum`` and ``shift`` are its images of the window's own.  The
    subspace is the weight k = theta + m_min series, e_j <-> f_{theta, m_min + j}.
    """

    parent: ThetaSpace
    m_min: int

    def __post_init__(self):
        if not (self.m_min >= 0 and self.m_min in self.parent.window):
            raise ValueError(f"m_min must be a nonnegative mode of the window, got {self.m_min}")

    @property
    def dim(self):
        return self.parent.window.stop - self.m_min

    @property
    def k(self):
        """Lowest weight theta + m_min of the identified series."""
        return self.parent.theta + self.m_min

    @property
    def modes(self):
        """Cylinder modes m_min.. of the window, paired with e_0, e_1, ... in order."""
        return np.arange(self.m_min, self.parent.window.stop)

    def project(self, op: TruncatedOperator) -> TruncatedOperator:
        """Transported operator pi o O o iota: the trailing principal block."""
        if op.dim != self.parent.dim:
            raise ValueError(f"operator of dim {op.dim} does not act on the "
                             f"window of dim {self.parent.dim}")
        return op.block(self.m_min - self.parent.window.start, self.parent.dim)

    # -- the transported elementary operators ---------------------------
    def momentum(self) -> TruncatedOperator:
        """Projected momentum pi o p o iota."""
        return self.project(self.parent.momentum())

    def shift(self) -> TruncatedOperator:
        """Projected shift pi o U o iota."""
        return self.project(self.parent.shift())


def isometry_report(ps: ProjectedSpace, label=None) -> list:
    """Records of the partial-isometry identities of the projected shift."""
    u = ps.shift()
    eye = TruncatedOperator.diag(np.ones(ps.dim))
    p0 = TruncatedOperator.diag(np.eye(1, ps.dim)[0])
    defect = eye - u @ u.adjoint()
    # every nonzero entry (row or column t + |d| of diagonal d) lies in the
    # leading top x top block, which therefore carries the rank and column 0
    top = 1 + max((int(np.flatnonzero(b).max()) + abs(d)
                   for d, b in defect.bands.items() if b.any()), default=0)
    head = defect.block(0, top).dot(np.eye(top))

    def hermitean_gap(op):
        m = ps.project(op)
        return (m - m.adjoint()).max_abs()

    pu = ps.parent.shift()
    s, c = sin_cos(pu)
    return judge([
        ("projected_shift_isometry", "U*U = 1", 1e-12,
         lambda: interior_residual(u.adjoint() @ u - eye)),
        ("projected_shift_defect", "UU* = 1 - P_min", 1e-12,
         lambda: (u @ u.adjoint() - (eye - p0)).max_abs()),
        ("defect_rank_one", "rank(1 - UU*) = 1", 0.0,
         lambda: abs(int(np.linalg.matrix_rank(head, tol=1e-9)) - 1)),
        ("defect_on_lowest", "(1 - UU*) e_0 = e_0", 1e-12,
         lambda: np.abs(head[:, 0] - np.eye(top)[:, 0]).max()),
        # hermiticity survives the projection for the sin/cos multiplications
        ("projected_sin_hermitean", "sin = sin*", 1e-12, lambda: hermitean_gap(s)),
        ("projected_cos_hermitean", "cos = cos*", 1e-12, lambda: hermitean_gap(c)),
        # before projection the shift is unitary on the window interior
        ("parent_shift_unitary", "UU* = 1 (parent interior)", 1e-12,
         lambda: interior_residual(pu @ pu.adjoint()
                                   - TruncatedOperator.diag(np.ones(ps.parent.dim)),
                                   trim_bottom=2)),
    ], label)


# ---------------------------------------------------------------------------
# half-line demo on a periodic log grid
# ---------------------------------------------------------------------------

HALFLINE_POINTS, HALFLINE_BOX = 64, 4.0  # the demo's grid in x = ln q


def _log_grid_operators(n_points: int, hbar: float):
    """Grid in x = ln q of width HALFLINE_BOX (measure dq/q = counting), q = e^x > 0.

    The dilation by one grid step is the exact cyclic shift: the subdiagonal
    and the corner band n - 1 that closes the period, reach 0 (a periodic
    grid truncates nothing).  The scaling generator -i hbar d/dx is the
    central difference, -hbar/h times the sine of the shift, hermitean
    including the wrap, which contaminates exactly the two seam rows of the
    commutator with q; the residual drops them.
    """
    h = HALFLINE_BOX / n_points
    x = -0.5 * HALFLINE_BOX + h * np.arange(n_points)
    q = TruncatedOperator.diag(np.exp(x))
    dil = TruncatedOperator({-1: np.ones(n_points - 1),  # psi(x) -> psi(x - h)
                             n_points - 1: np.ones(1)}, n_points, 0)
    qp = (-hbar / h) * sin_cos(dil)[0]             # -i hbar d/dx, central
    mom = TruncatedOperator.diag(np.exp(-x)) @ qp  # -i hbar d/dq, the symptom
    return x, q, dil, qp, mom


def halfline_commutator_residual(n_points: int, *, hbar: float) -> float:
    """Interior residual of [q, qp] - i hbar q on a smooth test function."""
    x, q, _, qp, _ = _log_grid_operators(n_points, hbar)
    psi = np.exp(np.cos(2 * np.pi * x / HALFLINE_BOX))[:, None]
    resid = commutator(q, qp).dot(psi) - 1j * hbar * q.dot(psi)
    inner = slice(1, n_points - 1)  # drop the two seam rows
    return float(np.abs(resid[inner]).max() / np.abs(psi).max())


def halfline_demo(hbar: float = 1.0, label=None) -> list:
    """Records of the positive-operator restriction of the line, on the
    periodic log grid of ``HALFLINE_POINTS`` points and width ``HALFLINE_BOX``.

    The position operator q = e^x is positive by construction.  Exhibits:
    dilations as exact unitaries (their flow respects the half-line, unlike
    translations), a hermitean scaling generator and the canonical
    commutator at measured second order.  The plain momentum -i hbar d/dq
    is not hermitean on the half-line; its defect is carried in the note of
    ``scaling_hermitean``.
    """
    _, _, dil, qp, mom = _log_grid_operators(HALFLINE_POINTS, hbar)
    # r1, r2 and the defect fill notes, so they are computed before the rows run
    r1, r2 = (halfline_commutator_residual(n * HALFLINE_POINTS, hbar=hbar) for n in (1, 2))
    order = math.log2(r1 / r2)
    defect = (mom - mom.adjoint()).max_abs()
    return judge([
        ("dilation_unitary", "U*U = 1 exactly", 0.0,
         lambda: (dil.adjoint() @ dil - TruncatedOperator.diag(np.ones(HALFLINE_POINTS)))
         .max_abs()),
        ("scaling_hermitean", "(qp)* = qp exactly", 0.0,
         lambda: (qp - qp.adjoint()).max_abs(),
         f"plain momentum -i hbar d/dq: |p* - p| = {defect:.3e} (boundary symptom)"),
        ("commutator_order", "[q, qp] = i hbar q at order 2", 0.2,
         lambda: abs(order - 2.0), f"residuals {r1:.3e} -> {r2:.3e}, order {order:.3f}"),
    ], label)
