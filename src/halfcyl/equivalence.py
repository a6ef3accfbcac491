"""Bridge between the projected cylinder picture and the lowest-weight series.

The identification is k = theta + m_min with basis map
f_{theta, n + m_min} <-> e_n (``ProjectedSpace.k`` and ``.modes``): the
projected momentum becomes hbar H, the projected shift becomes the phase
operator U = T+ (T- T+)^{-1/2}, and T+ is recovered from (p, U) as
-(1/hbar) sqrt((p + (k-1) hbar)(p - k hbar)) U.  The identification is
asserted in the creation_plus gauge, where U is the plain nonnegative
shift; the (-1)^n similarity carries everything to the disc_minus gauge.
The diagonal normalization similarity carries the boundary realization to
fock, its matrices on the orthonormal Hardy basis.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .projection import ProjectedSpace, ThetaSpace
from .report import judge, worst_of
from .rep import (GeneratorSet, RepConfig, TruncatedOperator, build_generators,
                  commutator, gram_weights, interior_residual, sin_cos, tol)

__all__ = [
    "identification_report", "phase_operator", "tplus_from_phase", "sincos_operators",
    "conjugate_realizations", "normalization_diagonal",
]


def phase_operator(gs: GeneratorSet) -> TruncatedOperator:
    """U = T+ (T- T+)^{-1/2}, with the entrywise root of the diagonal.

    T- T+ is diagonal with entries (2k + n)(n + 1), bounded below by 2k > 0
    on the interior, so the inverse root is well defined; the zero diagonal
    entry produced by the cutoff at n = N is nulled rather than inverted.
    In the creation_plus gauge U is the unit shift e_n -> e_{n+1}; in either
    gauge U*U = 1 and UU* = 1 - P_0 hold on the interior.
    """
    prod = gs.Tminus @ gs.Tplus
    d = prod.bands[0]
    off = worst_of(np.abs(b).max() for k, b in prod.bands.items() if k != 0)
    if off > tol(gs.config.N):
        raise ValueError(f"T- T+ is not diagonal (off-diagonal {off:.2e})")
    if d[:-1].min() <= 0:
        raise ValueError("T- T+ must be positive on the interior (needs k > 0)")
    inv_root = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return gs.Tplus @ TruncatedOperator.diag(inv_root)


def tplus_from_phase(gs: GeneratorSet, uhat: TruncatedOperator) -> TruncatedOperator:
    """Reconstruct T+ = -(1/hbar) sqrt((p + (k-1) hbar)(p - k hbar)) U.

    ``uhat`` is the nonnegative unit shift (the projected cylinder shift or
    the creation_plus phase operator).  The written minus sign reproduces
    the disc_minus T+; for a creation_plus generator set the sign is
    absorbed into the gauge.
    """
    cfg = gs.config
    # the product under the root scales as hbar^2 and underflows for small
    # hbar, so form (1/hbar) sqrt(...) from p/hbar = k + n, the diagonal of H
    q = gs.H.bands[0]
    root = np.sqrt(np.maximum((q + (cfg.k - 1.0)) * (q - cfg.k), 0.0))
    sign = -1.0 if cfg.phase_convention == "disc_minus" else 1.0
    return sign * (TruncatedOperator.diag(root) @ uhat)


def sincos_operators(gs: GeneratorSet, label=None) -> list:
    """Records of the hermitean sin/cos pair ``sin_cos(phase_operator(gs))``.

    The checked identities: both operators are hermitean tridiagonals;
    sin^2 + cos^2 = 1 - P_0/2 and [sin, cos] = (i/2) P_0 (anomalies
    confined to the ground state); the commutators [H, sin] = -i cos and
    [H, cos] = i sin hold identically.
    """
    s, c = sin_cos(phase_operator(gs))
    eye = TruncatedOperator.diag(np.ones(gs.config.N + 1))
    p0 = TruncatedOperator.diag(np.eye(1, gs.config.N + 1)[0])
    return judge([
        ("sin_hermitean", "s = s*", 1e-14, lambda: (s - s.adjoint()).max_abs()),
        ("cos_hermitean", "c = c*", 1e-14, lambda: (c - c.adjoint()).max_abs()),
        ("sincos_square_anomaly", "s^2 + c^2 = 1 - P_0/2", 1e-10,
         lambda: interior_residual(s @ s + c @ c - (eye - 0.5 * p0))),
        ("sincos_commutator_anomaly", "[s, c] = (i/2) P_0", 1e-10,
         lambda: interior_residual(commutator(s, c) - 0.5j * p0)),
        ("rotation_flow_sin", "[H, s] = -i c", 1e-10,
         lambda: interior_residual(commutator(gs.H, s) + 1j * c)),
        ("rotation_flow_cos", "[H, c] = i s", 1e-10,
         lambda: interior_residual(commutator(gs.H, c) - 1j * s)),
    ], label)


def normalization_diagonal(config: RepConfig) -> np.ndarray:
    """c_n = sqrt(Gamma(2k+n) / (Gamma(2k) Gamma(n+1))) = 1/sqrt(w_n)."""
    return 1.0 / np.sqrt(gram_weights(config))


def conjugate_realizations(config: RepConfig, label=None) -> list:
    """Records of the similarity D^{-1} (boundary) D = fock, D = diag(c_n).

    Passing from the unnormalized Fourier basis to the orthonormal (Hardy)
    one rescales column n by c_n and row m by 1/c_m.  H and T0 are the same
    diagonal in both and commute with D, so only T+ and T- are compared; at
    k = 1/2 all the weights are 1 and the realizations coincide outright.
    """
    boundary = build_generators("boundary", config)
    fock = build_generators("fock", config)

    def conjugation(b_op, f_op):
        c = normalization_diagonal(config)
        d, d_inv = TruncatedOperator.diag(c), TruncatedOperator.diag(1.0 / c)
        return interior_residual(d_inv @ b_op @ d - f_op)

    budget = min(tol(config.N), 1e-7)
    rows = [(f"conjugation_{name}", f"D^-1 {name}_boundary D = {name}_fock", budget,
             partial(conjugation, b_op, f_op))
            for name, b_op, f_op in (("T+", boundary.Tplus, fock.Tplus),
                                     ("T-", boundary.Tminus, fock.Tminus))]
    if config.k == 0.5:
        rows.append(("identity_similarity_at_half", "D = 1 at k = 1/2", 0.0,
                     lambda: np.abs(normalization_diagonal(config) - 1.0).max()))
    return judge(rows, label)


def theta_resolution_problem(theta: float, m_min: int, N: int) -> str | None:
    """Why floats near the top compared mode m_min + N + 4 of the
    identification cannot resolve theta, or None.

    From 2**52 on the float spacing is >= 1, and float() overflows far above.
    """
    top = m_min + N + 4
    if top >= 2 ** 52 or math.ulp(float(top)) > theta / 1024:
        return (f"floats near the top compared mode m_min + N + 4 cannot resolve "
                f"theta = {theta}: their spacing there exceeds theta / 1024")
    return None


def identification_report(theta: float, m_min: int, N: int = 32, hbar: float = 1.0,
                          label=None) -> list:
    """Records of the full-diagram commutativity under the k = theta + m_min
    identification, at the weight-basis cutoff N >= 4.

    Checks that the projected momentum matches hbar H on rows 0..N and the
    projected shift the phase operator on rows 0..N-1 (both in the
    creation_plus gauge), projected from the modes m_min - 4 .. m_min + N + 4
    alone; the 4 below m_min set the leading block's spectrum apart.  A top
    mode at which floats cannot resolve theta raises ValueError.
    """
    if N < 4:
        raise ValueError(f"weight-basis cutoff N must be >= 4, got {N}")
    ps = ProjectedSpace(ThetaSpace(theta, range(m_min - 4, m_min + N + 5), hbar), m_min)
    if problem := theta_resolution_problem(theta, m_min, N):
        raise ValueError(problem)
    gs = build_generators("fock", RepConfig(k=ps.k, N=N, phase_convention="creation_plus"))
    return judge([
        ("spectra_match", "projected p = hbar H entrywise", 1e-12,
         lambda: (ps.momentum().block(0, N + 1) - (hbar * gs.H)).max_abs()),
        ("diagram_commutes", "projected U = T+ (T- T+)^{-1/2}", 1e-12,
         lambda: (ps.shift().block(0, N) - phase_operator(gs).block(0, N)).max_abs()),
    ], label)
