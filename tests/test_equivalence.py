import tracemalloc

import numpy as np
import pytest

from halfcyl.equivalence import (
    conjugate_realizations, identification_report,
    normalization_diagonal, phase_operator, sincos_operators, tplus_from_phase,
)
from halfcyl.projection import ProjectedSpace, ThetaSpace
from halfcyl.report import CheckReport
from halfcyl.rep import (RepConfig, TruncatedOperator, build_generators, gram_weights,
                         interior_residual, sin_cos)
from halfcyl.suite import SuiteConfig, run_suite


def fock(k, N=32, convention="creation_plus"):
    return build_generators("fock", RepConfig(k=k, N=N, phase_convention=convention))


def unit_shift(n):
    m = np.zeros((n + 1, n + 1))
    m[np.arange(1, n + 1), np.arange(n)] = 1.0
    return m


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------

def test_identify_examples():
    assert ProjectedSpace(ThetaSpace(0.25, range(-16, 17)), 0).k == 0.25
    assert ProjectedSpace(ThetaSpace(1.0, range(-16, 17)), 2).k == 3.0


def test_identify_validation():
    with pytest.raises(ValueError):
        ProjectedSpace(ThetaSpace(0.0, range(-16, 17)), 0)
    with pytest.raises(ValueError):
        ProjectedSpace(ThetaSpace(1.5, range(-16, 17)), 0)
    with pytest.raises(ValueError):
        ProjectedSpace(ThetaSpace(0.5, range(-16, 17)), -1)


def test_identify_basis_map():
    ps = ProjectedSpace(ThetaSpace(0.5, range(-16, 17)), 2)
    assert ps.modes[0] == 2
    assert list(ps.modes[:4]) == [2, 3, 4, 5]


@pytest.mark.parametrize("theta,m_min", [(0.25, 0), (1.0, 0), (0.5, 1), (1.0, 3),
                                         (0.25, 10 ** 7), (0.5, 10 ** 7), (1.0, 10 ** 7)])
def test_identification_diagram_commutes(theta, m_min):
    rep = CheckReport(identification_report(theta, m_min))
    assert rep.verdict, [(r.name, r.residual) for r in rep.failures()]
    for r in rep.checks:
        assert r.residual < 1e-12


def test_identification_at_a_far_m_min_builds_only_the_compared_block():
    # the report projects from the modes m_min - 4 .. m_min + N + 4 alone, so
    # nothing of size m_min is built
    tracemalloc.start()
    try:
        rep = CheckReport(identification_report(0.5, 10 ** 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict, [(r.name, r.residual, r.note) for r in rep.failures()]
    assert peak < 2 ** 20


def test_identification_needs_cutoff_four():
    assert CheckReport(identification_report(0.5, 0, N=4)).verdict
    with pytest.raises(ValueError, match="N must be >= 4, got 3"):
        identification_report(0.5, 0, N=3)


def _entry_off(method, offset, mode):
    """``ThetaSpace`` method whose diagonal ``offset`` is off by 1e-6 at the
    entry of column ``mode``."""
    def off(space):
        op = method(space)
        band = op.bands[offset].copy()
        band[mode - space.window.start] += 1e-6
        return TruncatedOperator({**op.bands, offset: band}, op.dim, op.reach)
    return off


@pytest.mark.parametrize("mode,failed", [(2 + 8, {"spectra_match"}), (2 + 9, set())])
def test_identification_compares_spectra_on_rows_zero_to_n(monkeypatch, mode, failed):
    monkeypatch.setattr(ThetaSpace, "momentum", _entry_off(ThetaSpace.momentum, 0, mode))
    rep = CheckReport(identification_report(0.5, 2, N=8))
    assert {r.name.split("[")[0] for r in rep.failures()} == failed


# the shift's subdiagonal entry at column m maps mode m to m + 1: row 7 of
# the weight basis for m = m_min + 6, row 8 for m = m_min + 7
@pytest.mark.parametrize("mode,failed", [(2 + 6, {"diagram_commutes"}), (2 + 7, set())])
def test_identification_compares_shifts_on_rows_zero_to_n_minus_one(monkeypatch, mode,
                                                                     failed):
    monkeypatch.setattr(ThetaSpace, "shift", _entry_off(ThetaSpace.shift, -1, mode))
    rep = CheckReport(identification_report(0.5, 2, N=8))
    assert {r.name.split("[")[0] for r in rep.failures()} == failed


def test_identified_spectra_entrywise():
    ps = ProjectedSpace(ThetaSpace(0.25, range(-24, 25)), 0)
    proj = np.diag(ps.momentum().matrix).real
    rep = 0.25 + np.arange(25)
    assert np.array_equal(proj, rep)


# ---------------------------------------------------------------------------
# phase operator
# ---------------------------------------------------------------------------

def test_phase_operator_is_unit_shift_in_plus_gauge():
    gs = fock(0.7)
    u = phase_operator(gs)
    assert np.abs(u.matrix - unit_shift(32)).max() < 1e-12


def test_phase_operator_minus_gauge_is_negative_shift():
    gs = fock(0.7, convention="disc_minus")
    u = phase_operator(gs)
    assert np.abs(u.matrix + unit_shift(32)).max() < 1e-12


@pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("convention", ["creation_plus", "disc_minus"])
def test_phase_operator_isometry(k, convention):
    gs = fock(k, convention=convention)
    u = phase_operator(gs)
    eye = np.eye(33)
    p0 = np.zeros_like(eye)
    p0[0, 0] = 1.0
    assert interior_residual(u.adjoint() @ u - TruncatedOperator.diag(np.ones(33))) < 1e-12
    assert np.abs((u @ u.adjoint()).matrix - (eye - p0)).max() < 1e-12


def test_phase_operator_input_diagonal_values():
    # T- T+ is diagonal with entries (2k+n)(n+1); the lowest one is 2k
    k = 0.4
    gs = fock(k, N=16)
    d = np.diag((gs.Tminus @ gs.Tplus).matrix).real
    n = np.arange(16)
    assert np.allclose(d[:16], (2 * k + n) * (n + 1))
    assert abs(d[0] - 2 * k) < 1e-12


def test_phase_operator_matches_projected_shift():
    for theta, m_min in ((0.25, 0), (1.0, 0), (0.5, 2)):
        ps = ProjectedSpace(ThetaSpace(theta, range(-40, 41)), m_min)
        gs = fock(ps.k, N=24)
        u_rep = phase_operator(gs).matrix
        u_proj = ps.shift().matrix
        n = 20
        assert np.abs(u_rep[:n, :n] - u_proj[:n, :n]).max() < 1e-12


# ---------------------------------------------------------------------------
# ladder reconstruction from the phase operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 3.0])
def test_tplus_reconstruction(k):
    N = 64
    shift = phase_operator(fock(k, N=N))
    for convention in ("creation_plus", "disc_minus"):
        gs = fock(k, N=N, convention=convention)
        rec = tplus_from_phase(gs, shift)
        assert interior_residual(rec - gs.Tplus) < 1e-8


def test_tplus_reconstruction_ground_factor():
    # k = 1, n = 0: applied factor sqrt((p + 0)(p - hbar))/hbar after the
    # shift gives |coefficient| sqrt(2)
    gs = fock(1.0, N=8, convention="disc_minus")
    rec = tplus_from_phase(gs, phase_operator(fock(1.0, N=8)))
    assert abs(abs(rec.matrix[1, 0]) - np.sqrt(2)) < 1e-12


def test_tplus_reconstruction_vanishes_at_ground():
    # the (p - k hbar) factor is zero on the ground state, matching T- e0 = 0
    gs = fock(0.6, N=8, convention="disc_minus")
    rec = tplus_from_phase(gs, phase_operator(fock(0.6, N=8)))
    assert rec.matrix[0, 0] == 0.0
    assert np.abs(gs.Tminus.matrix[:, 0]).max() == 0.0


@pytest.mark.parametrize("hbar", [1e-170, 1e-300, 1e-3, 567.8, 3456.7, 12345.678])
def test_full_suite_passes_at_small_hbar(hbar):
    # no identity depends on hbar, but (p + (k-1) hbar)(p - k hbar) scales as
    # hbar^2 and underflows if it is formed from p, and the spectrum, the
    # cylinder commutator and the identification all scale with hbar; the
    # rounding of [U, p] + hbar U is of size hbar M, so cylinder_commutator
    # is judged relative to hbar (absolute, it read 2.96e-12 at 567.8)
    rep = run_suite(SuiteConfig(hbar=hbar, profile="full"))
    assert rep.verdict, [(r.name, r.residual) for r in rep.failures()]


# ---------------------------------------------------------------------------
# sin / cos operators
# ---------------------------------------------------------------------------

def test_sincos_report_passes():
    for k in (0.25, 0.5, 1.0, 2.0):
        for convention in ("creation_plus", "disc_minus"):
            rep = CheckReport(sincos_operators(fock(k, convention=convention)))
            assert rep.verdict, [(r.name, r.residual) for r in rep.failures()]


def test_sincos_ground_state_anomaly():
    s, c = sin_cos(phase_operator(fock(0.8)))
    sq = (s @ s + c @ c).matrix
    e0 = np.zeros(33)
    e0[0] = 1.0
    assert np.abs(sq @ e0 - 0.5 * e0).max() < 1e-14
    e5 = np.zeros(33)
    e5[5] = 1.0
    assert np.abs(sq @ e5 - e5).max() < 1e-14


def test_sincos_commutator_supported_on_ground():
    s, c = sin_cos(phase_operator(fock(0.8)))
    comm = (s @ c - c @ s).matrix
    for n in range(1, 20):
        assert np.abs(comm[:, n]).max() < 1e-14
    assert abs(comm[0, 0] - 0.5j) < 1e-14


def test_isometry_ceiling():
    # c + i s is the phase operator: isometric with a rank-one unitarity
    # defect of size 1 on the ground state; no unitary quantization exists
    s, c = sin_cos(phase_operator(fock(0.5)))
    u = c.matrix + 1j * s.matrix
    defect = u @ u.conj().T - np.eye(33)
    assert abs(np.abs(defect).max() - 1.0) < 1e-12
    assert np.linalg.matrix_rank(defect, tol=1e-9) == 1
    assert abs(defect[0, 0] + 1.0) < 1e-12


def test_sincos_convention_independent_residuals():
    recs_p = sincos_operators(fock(0.9))
    recs_m = sincos_operators(fock(0.9, convention="disc_minus"))
    for a, b in zip(recs_p, recs_m):
        assert a.name == b.name
        assert abs(a.residual - b.residual) < 1e-14


# ---------------------------------------------------------------------------
# boundary <-> Hardy conjugation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0.3, 0.5, 1.0, 2.0])
def test_conjugate_realizations(k):
    rep = CheckReport(conjugate_realizations(RepConfig(k=k, N=64)))
    assert rep.verdict, [(r.name, r.residual) for r in rep.failures()]
    worst = max(r.residual for r in rep.checks if r.name.startswith("conjugation"))
    assert worst < 1e-7


@pytest.mark.parametrize("N,budget", [(64, 6.4e-8), (256, 1e-7)])
def test_conjugation_budget_is_capped_at_1e_minus_7(N, budget):
    recs = conjugate_realizations(RepConfig(k=0.5, N=N))
    assert [r.tol for r in recs if r.name.startswith("conjugation")] == [budget] * 2


def test_identity_similarity_at_half():
    cfg = RepConfig(k=0.5, N=32)
    assert np.abs(normalization_diagonal(cfg) - 1.0).max() == 0.0
    b = build_generators("boundary", cfg)
    f = build_generators("fock", cfg)
    for name in ("H", "Tplus", "Tminus"):
        assert np.abs(getattr(b, name).matrix - getattr(f, name).matrix).max() == 0.0


def test_t0_realization_invariant():
    for k in (0.3, 1.0, 2.5):
        cfg = RepConfig(k=k, N=24)
        b = build_generators("boundary", cfg)
        f = build_generators("fock", cfg)
        assert np.abs(b.T0.matrix - f.T0.matrix).max() == 0.0


def test_normalization_is_inverse_root_of_weights():
    cfg = RepConfig(k=1.3, N=24)
    c = normalization_diagonal(cfg)
    w = gram_weights(cfg)
    assert np.abs(c * c * w - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# convention covariance
# ---------------------------------------------------------------------------

def test_parity_bridge_covers_equivalence_objects():
    # the diag((-1)^n) similarity scales band d by (-1)^d, exactly
    N = 24
    gp = fock(0.8, N=N)
    gm = fock(0.8, N=N, convention="disc_minus")
    up, um = phase_operator(gp), phase_operator(gm)
    for op_p, op_m in zip((up, *sin_cos(up)), (um, *sin_cos(um))):
        assert set(op_p.bands) == set(op_m.bands)
        for d, b in op_p.bands.items():
            assert np.array_equal(op_m.bands[d], (-1) ** d * b)


def test_weight_monotonicity_tracks_inclusion_direction():
    # increasing weights (k < 1/2): the weighted space sits inside the flat
    # one; decreasing (k > 1/2): the flat space sits inside the weighted one
    w_small = gram_weights(RepConfig(k=0.2, N=16))
    w_large = gram_weights(RepConfig(k=2.0, N=16))
    assert np.all(np.diff(w_small) > 0)
    assert np.all(np.diff(w_large) < 0)
