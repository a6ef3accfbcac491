import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcyl.projection import (
    ProjectedSpace, ThetaSpace, _log_grid_operators, halfline_commutator_residual,
    halfline_demo, isometry_report,
)
from halfcyl.report import CheckReport
from halfcyl.rep import TruncatedOperator, interior_residual, sin_cos


# ---------------------------------------------------------------------------
# theta window
# ---------------------------------------------------------------------------

def test_theta_validation():
    with pytest.raises(ValueError):
        ThetaSpace(0.0, range(-16, 17))
    with pytest.raises(ValueError):
        ThetaSpace(1.2, range(-16, 17))
    # a window is a nonempty range of consecutive modes, not a half-width
    for window in (16, [0, 1, 2], range(5, 5), range(9, 0), range(-8, 9, 2)):
        with pytest.raises(ValueError, match="window"):
            ThetaSpace(0.5, window)
    ThetaSpace(1.0, range(-8, 9))  # theta = 1 is the canonical endpoint
    assert ThetaSpace(0.5, range(3, 4)).dim == 1
    ts = ThetaSpace(0.5, range(-2, 5))
    assert ts.dim == 7 and list(ts.modes) == [-2, -1, 0, 1, 2, 3, 4]


def test_momentum_eigenvalues():
    ts = ThetaSpace(0.25, range(-12, 13), hbar=2.0)
    assert np.allclose(np.diag(ts.momentum().matrix).real,
                       2.0 * (ts.modes + 0.25))


def test_shift_moves_modes_up():
    ts = ThetaSpace(0.5, range(-10, 11))
    u = ts.shift().matrix
    e = np.zeros(ts.dim)
    e[3] = 1.0
    out = u @ e
    assert out[4] == 1.0 and np.abs(np.delete(out, 4)).max() == 0.0


def test_shift_momentum_commutator():
    ts = ThetaSpace(0.7, range(-16, 17), hbar=1.5)
    u, p = ts.shift(), ts.momentum()
    assert interior_residual((u @ p - p @ u) + 1.5 * u, trim_bottom=1) < 1e-12
    # exact for dyadic parameters
    ts = ThetaSpace(0.25, range(-16, 17))
    u, p = ts.shift(), ts.momentum()
    assert interior_residual((u @ p - p @ u) + 1.0 * u, trim_bottom=1) == 0.0


def test_sincos_are_hermitean_tridiagonal():
    ts = ThetaSpace(0.3, range(-12, 13))
    for op in sin_cos(ts.shift()):
        m = op.matrix
        assert np.abs(m - m.conj().T).max() == 0.0
        assert np.abs(np.triu(m, 2)).max() == 0.0
        assert np.abs(np.tril(m, -2)).max() == 0.0


# ---------------------------------------------------------------------------
# positive projection
# ---------------------------------------------------------------------------

@given(st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=40)
def test_maximality_of_mmin_zero(theta):
    # {m : hbar(m + theta) > 0} is exactly {m >= 0} for theta in (0, 1]
    ts = ThetaSpace(theta, range(-12, 13))
    positive = set(int(m) for m in ts.modes if (m + theta) > 0)
    assert positive == set(range(0, 13))


def test_projected_spectrum_positive():
    ps = ProjectedSpace(ThetaSpace(0.25, range(-16, 17)), 0)
    diag = np.diag(ps.momentum().matrix).real
    assert np.allclose(diag, 0.25 + np.arange(17))
    assert diag.min() > 0


def test_partial_isometry_identities():
    # iota maps projected basis vector j to the parent mode m_min + j
    rng = np.random.default_rng(7)
    for window, m_mins in ((range(-16, 17), (0, 2)), (range(-3, 11), (0, 2, 10)),
                           (range(4, 12), (4, 7))):
        ts = ThetaSpace(0.6, window)
        op = TruncatedOperator({d: rng.normal(size=ts.dim - abs(d))
                                + 1j * rng.normal(size=ts.dim - abs(d))
                                for d in (-5, -2, -1, 0, 1, 3, 7)}, ts.dim, 7)
        for m_min in m_mins:
            ps = ProjectedSpace(ts, m_min)
            iota = np.zeros((ts.dim, ps.dim))
            iota[np.flatnonzero(ts.modes >= m_min), np.arange(ps.dim)] = 1.0
            assert np.array_equal(iota.T @ iota, np.eye(ps.dim))
            assert np.array_equal(iota @ iota.T, np.diag((ts.modes >= m_min).astype(float)))
            assert np.array_equal(ps.project(op).matrix, iota.T @ op.matrix @ iota)


def test_mmin_bounds():
    ts = ThetaSpace(0.5, range(-16, 17))
    for m_min in (-1, 17, 10 ** 20):
        with pytest.raises(ValueError, match="m_min"):
            ProjectedSpace(ts, m_min)
    assert ProjectedSpace(ts, 16).dim == 1  # any nonnegative mode of the window
    with pytest.raises(ValueError, match="m_min"):
        ProjectedSpace(ThetaSpace(0.5, range(5, 20)), 4)  # below the window
    with pytest.raises(ValueError, match="m_min"):
        ProjectedSpace(ThetaSpace(0.5, range(-20, -3)), -5)  # a mode, but negative
    ps = ProjectedSpace(ThetaSpace(0.5, range(5, 20)), 5)
    assert ps.dim == 15 and ps.modes[0] == 5


def test_projected_space_carries_the_identification():
    ps = ProjectedSpace(ThetaSpace(0.5, range(-8, 9)), 2)
    assert ps.k == 2.5
    assert list(ps.modes[:4]) == [2, 3, 4, 5]
    assert ps.modes.size == ps.dim and ps.modes[-1] == ps.parent.window[-1]


def test_project_rejects_operator_of_another_window():
    ps = ProjectedSpace(ThetaSpace(0.5, range(-16, 17)), 0)
    with pytest.raises(ValueError, match="window"):
        ps.project(ThetaSpace(0.5, range(-8, 9)).shift())


def test_projected_shift_isometry_report():
    for theta, m_min in ((0.25, 0), (1.0, 0), (0.5, 3)):
        rep = CheckReport(isometry_report(ProjectedSpace(ThetaSpace(theta, range(-24, 25)), m_min)))
        assert rep.verdict, [r.name for r in rep.failures()]


def test_projected_shift_rank_one_defect():
    ps = ProjectedSpace(ThetaSpace(0.25, range(-16, 17)), 0)
    u = ps.shift()
    defect = np.eye(ps.dim) - (u @ u.adjoint()).matrix
    assert np.linalg.matrix_rank(defect, tol=1e-9) == 1
    e0 = np.zeros(ps.dim)
    e0[0] = 1.0
    assert np.abs(defect @ e0 - e0).max() == 0.0


def test_projection_of_unitary_is_isometric_not_unitary():
    ps = ProjectedSpace(ThetaSpace(0.5, range(-20, 21)), 0)
    u = ps.shift()
    assert interior_residual(u.adjoint() @ u - TruncatedOperator.diag(np.ones(ps.dim))) == 0.0
    assert np.abs((u @ u.adjoint()).matrix - np.eye(ps.dim)).max() == 1.0


def test_projected_spectra_classify_by_sum():
    def spec(theta, m_min):
        ps = ProjectedSpace(ThetaSpace(theta, range(-20, 21)), m_min)
        return np.diag(ps.momentum().matrix).real[:10]

    assert np.array_equal(spec(1.0, 1), spec(1.0, 1))
    # same theta + m_min -> same spectrum
    a = spec(1.0, 0)
    assert np.allclose(a, 1.0 + np.arange(10))
    # different sums -> different spectra
    assert not np.allclose(spec(0.25, 1), spec(0.5, 1))
    assert not np.allclose(spec(0.25, 0), spec(0.25, 1))


def test_transported_operator_shape():
    ps = ProjectedSpace(ThetaSpace(0.5, range(-16, 17)), 1)
    op = ps.project(sin_cos(ps.parent.shift())[1])
    assert op.matrix.shape == (ps.dim, ps.dim)
    assert np.abs(op.matrix - op.matrix.conj().T).max() == 0.0


# ---------------------------------------------------------------------------
# half-line demo
# ---------------------------------------------------------------------------

def test_halfline_demo_verdict():
    rep = CheckReport(halfline_demo())
    assert rep.verdict, [r.name for r in rep.failures()]


def test_halfline_position_positive():
    rec = {r.name: r for r in halfline_demo()}["position_positive"]
    assert rec.passed and rec.residual == 0.0


def test_halfline_dilation_exactly_unitary():
    rec = {r.name: r for r in halfline_demo()}["dilation_unitary"]
    assert rec.residual == 0.0


def test_halfline_scaling_generator_hermitean():
    rec = {r.name: r for r in halfline_demo()}["scaling_hermitean"]
    assert rec.residual == 0.0


def test_halfline_commutator_second_order():
    r64 = halfline_commutator_residual(64, hbar=1.0)
    r128 = halfline_commutator_residual(128, hbar=1.0)
    r256 = halfline_commutator_residual(256, hbar=1.0)
    assert abs(math.log2(r64 / r128) - 2.0) < 0.2
    assert abs(math.log2(r128 / r256) - 2.0) < 0.2


def test_halfline_residual_takes_hbar_by_keyword():
    # the grid width is HALFLINE_BOX, so a call that still passes one raises
    # instead of running at hbar = 4
    with pytest.raises(TypeError):
        halfline_commutator_residual(64, 4.0)


def test_halfline_residual_runs_on_bands():
    # the log grid is banded: a dense 1024 x 1024 grid held about 88 MB
    halfline_commutator_residual(64, hbar=1.0)
    tracemalloc.start()
    try:
        halfline_commutator_residual(1024, hbar=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_halfline_symptoms_live_in_notes():
    # the plain-momentum defect and the commutator residual are carried in
    # the notes of judged records, not as records of their own
    rep = CheckReport(halfline_demo())
    recs = {r.name: r for r in rep.checks}
    assert set(recs) == {"position_positive", "dilation_unitary",
                         "scaling_hermitean", "commutator_order"}
    mom = _log_grid_operators(64, 1.0)[4]
    defect = (mom - mom.adjoint()).max_abs()
    assert defect > 1.0  # the symptom is large, and that is fine
    assert recs["scaling_hermitean"].note == (
        f"plain momentum -i hbar d/dq: |p* - p| = {defect:.3e} (boundary symptom)")
    r1 = halfline_commutator_residual(64, hbar=1.0)
    assert recs["commutator_order"].note.startswith(f"residuals {r1:.3e} -> ")
    assert rep.verdict
