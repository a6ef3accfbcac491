"""Bridge between the projected cylinder picture and the lowest-weight series.

The identification is k = theta + m_min with basis map
f_{theta, n + m_min} <-> e_n (``ProjectedSpace.k`` and ``.modes``): the
projected momentum becomes hbar H, the projected shift becomes the phase
operator U = T+ (T- T+)^{-1/2}, and T+ is recovered from (p, U) as
-(1/hbar) sqrt((p + (k-1) hbar)(p - k hbar)) U.  The identification is
asserted in the creation_plus gauge, where U is the plain nonnegative
shift; the (-1)^n similarity carries everything to the disc_minus gauge.
"""

from __future__ import annotations

import numpy as np

from .projection import ProjectedSpace
from .report import CheckReport, check, worst_of
from .rep import (GeneratorSet, RepConfig, TruncatedOperator, build_generators,
                  gram_weights, interior_residual, sin_cos, tol)

__all__ = [
    "identification_report",
    "phase_operator", "tplus_from_phase", "sincos_operators",
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
    d = prod.bands[0].real
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
    # hbar, so form (1/hbar) sqrt(...) from p/hbar = k + n instead
    q = cfg.k + np.arange(cfg.N + 1, dtype=float)
    root = np.sqrt(np.maximum((q + (cfg.k - 1.0)) * (q - cfg.k), 0.0))
    sign = -1.0 if cfg.phase_convention == "disc_minus" else 1.0
    return sign * (TruncatedOperator.diag(root) @ uhat)


def sincos_operators(gs: GeneratorSet):
    """Hermitean sin/cos built from the phase operator, with their anomalies.

    Returns (sin, cos, report).  The checked identities: both operators are
    hermitean tridiagonals; sin^2 + cos^2 = 1 - P_0/2 and
    [sin, cos] = (i/2) P_0 (anomalies confined to the ground state); the
    commutators [H, sin] = -i cos and [H, cos] = i sin hold identically.
    """
    cfg = gs.config
    s, c = sin_cos(phase_operator(gs))
    eye = TruncatedOperator.diag(np.ones(cfg.N + 1))
    p0 = TruncatedOperator.diag(np.eye(1, cfg.N + 1)[0])

    rep = CheckReport(meta={"k": cfg.k, "N": cfg.N,
                            "phase_convention": cfg.phase_convention})
    rep.add(check("sin_hermitean", "s = s*", (s - s.adjoint()).max_abs(), 1e-14))
    rep.add(check("cos_hermitean", "c = c*", (c - c.adjoint()).max_abs(), 1e-14))
    rep.add(check("sincos_square_anomaly", "s^2 + c^2 = 1 - P_0/2",
                  interior_residual(s @ s + c @ c, eye - 0.5 * p0), 1e-10))
    rep.add(check("sincos_commutator_anomaly", "[s, c] = (i/2) P_0",
                  interior_residual(s @ c - c @ s, 0.5j * p0), 1e-10))
    rep.add(check("rotation_flow_sin", "[H, s] = -i c",
                  interior_residual((gs.H @ s - s @ gs.H) + 1j * c), 1e-10))
    rep.add(check("rotation_flow_cos", "[H, c] = i s",
                  interior_residual((gs.H @ c - c @ gs.H) - 1j * s), 1e-10))
    return s, c, rep


def normalization_diagonal(config: RepConfig) -> np.ndarray:
    """c_n = sqrt(Gamma(2k+n) / (Gamma(2k) Gamma(n+1))) = 1/sqrt(w_n)."""
    return 1.0 / np.sqrt(gram_weights(config))


def conjugate_realizations(config: RepConfig) -> CheckReport:
    """Diagonal similarity between the boundary and Hardy realizations.

    With D = diag(c_n) the orthonormal-basis (Hardy) matrices are
    D^{-1} (boundary) D: passing from the unnormalized Fourier basis to the
    normalized one rescales column n by c_n and row m by 1/c_m.  T0 is
    diagonal and hence identical in both realizations; at k = 1/2 all the
    weights are 1 and the realizations coincide outright.
    """
    boundary = build_generators("boundary", config)
    hardy = build_generators("hardy", config)
    c = normalization_diagonal(config)
    d, d_inv = TruncatedOperator.diag(c), TruncatedOperator.diag(1.0 / c)

    rep = CheckReport(meta={"k": config.k, "N": config.N})
    budget = min(tol(config.N), 1e-7)
    for name, b_op, h_op in (("H", boundary.H, hardy.H),
                             ("T+", boundary.Tplus, hardy.Tplus),
                             ("T-", boundary.Tminus, hardy.Tminus)):
        rep.add(check(f"conjugation_{name}", f"D^-1 {name}_boundary D = {name}_hardy",
                      interior_residual(d_inv @ b_op @ d - h_op), budget))
    rep.add(check("T0_invariant", "T0 identical in both realizations",
                  (boundary.T0 - hardy.T0).max_abs(), 0.0))
    if config.k == 0.5:
        rep.add(check("identity_similarity_at_half", "D = 1 at k = 1/2",
                      float(np.abs(c - 1.0).max()), 0.0))
    return rep


def identification_report(ps: ProjectedSpace, N: int = 32) -> CheckReport:
    """Full-diagram commutativity under the k = theta + m_min identification.

    Checks that the projected momentum matches hbar H entrywise, and that
    the projected shift matches the phase operator entrywise, over the
    common index window (both in the creation_plus gauge).  The cutoff N
    is clamped to the projected window, ``ps.dim - 3``, and the comparison
    stays at least 4 indices clear of the window's truncation edge.
    """
    theta, M, hbar = ps.parent.theta, ps.parent.M, ps.parent.hbar
    N = min(N, ps.dim - 3)
    if N < 4:
        raise ValueError(f"weight-basis cutoff min(N, M - m_min - 2) = {N} is below 4")
    gs = build_generators("fock", RepConfig(k=ps.k, N=N, hbar=hbar,
                                            phase_convention="creation_plus"))
    n = min(ps.dim - 4, N + 1)
    p_res = (ps.momentum().block(0, n) - (hbar * gs.H).block(0, n)).max_abs()
    u_res = (ps.shift().block(0, n - 1) - phase_operator(gs).block(0, n - 1)).max_abs()

    rep = CheckReport(meta={"theta": theta, "m_min": ps.m_min,
                            "k": ps.k, "M": M, "N": N})
    rep.add(check("spectra_match", "projected p = hbar H entrywise", p_res, 1e-12))
    rep.add(check("diagram_commutes", "projected U = T+ (T- T+)^{-1/2}", u_res, 1e-12))
    return rep
