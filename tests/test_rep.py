import dataclasses
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfcyl.equivalence import phase_operator
from halfcyl.projection import ProjectedSpace, ThetaSpace
from halfcyl.rep import (
    PHASE_CONVENTIONS, REALIZATIONS, RepConfig, TruncatedOperator, _boost_svd, boost_columns,
    boost_cutoff, boost_norm, build_generators, casimir, commutator, exp_generator,
    gram_weights, interior_residual, rotation_rep, sin_cos, spectrum_p,
    toeplitz_measure_test, tol,
)

K_GRID = (0.25, 0.5, 1.0, 1.5, 3.0)


def fock(k, N=64, convention="creation_plus"):
    return build_generators("fock", RepConfig(k=k, N=N, phase_convention=convention))


def so12_basis(gs):
    """The complex so(1,2) basis T0 = iH, T1, T2 = iJ, which is not stored."""
    return {"T0": 1j * gs.H, "T1": gs.T1, "T2": 1j * gs.J}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_nonunitary_k():
    with pytest.raises(ValueError):
        RepConfig(k=0.0, N=8)
    with pytest.raises(ValueError):
        RepConfig(k=-1.0, N=8)


def test_config_rejects_small_cutoff():
    with pytest.raises(ValueError):
        RepConfig(k=1.0, N=3)


def test_config_rejects_unknown_convention():
    with pytest.raises(ValueError):
        RepConfig(k=1.0, N=8, phase_convention="random_signs")


def test_config_takes_no_hbar():
    # hbar enters only the momentum spectrum, which takes it as an argument
    with pytest.raises(TypeError):
        RepConfig(k=1.0, N=8, hbar=2.0)


def test_unknown_realization_rejected():
    with pytest.raises(ValueError):
        build_generators("bargmann", RepConfig(k=1.0, N=8))


# ---------------------------------------------------------------------------
# pinned matrix elements
# ---------------------------------------------------------------------------

def test_number_operator_eigenvalue():
    gs = fock(1.0, N=8)
    e3 = np.zeros(9)
    e3[3] = 1.0
    assert np.allclose(gs.H.matrix @ e3, 4.0 * e3)


def test_ground_state_annihilated():
    for k in K_GRID:
        gs = fock(k, N=8)
        assert np.abs(gs.Tminus.matrix[:, 0]).max() == 0.0


def test_raising_ground_state_disc_minus():
    k = 0.7
    gs = fock(k, N=8, convention="disc_minus")
    col = gs.Tplus.matrix[:, 0]
    assert col[1] == pytest.approx(-np.sqrt(2 * k))
    assert np.abs(np.delete(col, 1)).max() == 0.0


def test_raising_creation_plus_nonnegative():
    gs = fock(0.4, N=16)
    assert gs.Tplus.matrix.real.min() >= 0.0


# ---------------------------------------------------------------------------
# algebra on the interior
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("realization", REALIZATIONS)
def test_ladder_relations(k, realization):
    gs = build_generators(realization, RepConfig(k=k, N=64))
    budget = tol(64)
    assert interior_residual(commutator(gs.H, gs.Tplus) - gs.Tplus) < budget
    assert interior_residual(commutator(gs.H, gs.Tminus) + gs.Tminus) < budget
    assert interior_residual(commutator(gs.Tplus, gs.Tminus) + 2 * gs.H) < budget


@pytest.mark.parametrize("k", K_GRID)
def test_so12_relations(k):
    gs = fock(k)
    t0, t1, t2 = so12_basis(gs).values()
    real = [interior_residual(commutator(gs.H, gs.T1) - gs.J),
            interior_residual(commutator(gs.H, gs.J) - gs.T1),
            interior_residual(commutator(gs.T1, gs.J) + gs.H)]
    # each real identity is i^-1 times a complex one, to the last bit
    assert real == [interior_residual(commutator(t0, t1) - t2),
                    interior_residual(commutator(t0, t2) + t1),
                    interior_residual(commutator(t1, t2) + t0)]
    assert max(real) < tol(64)


def test_interior_residual_rejects_empty_interior():
    # a check that compares no column must not pass with residual 0
    ones = {d: np.ones(4 - abs(d), complex) for d in range(-3, 4)}  # the 4x4 all-ones
    op = TruncatedOperator(ones, 4, reach=4)
    with pytest.raises(ValueError, match="no interior columns"):
        interior_residual(op)
    with pytest.raises(ValueError, match="no interior columns"):
        interior_residual(TruncatedOperator(ones, 4, reach=2), trim_bottom=2)
    assert interior_residual(TruncatedOperator(ones, 4, reach=3)) == 1.0


def test_t012_built_from_ladder():
    # T0 = iH and T2 = iJ are formed where they are needed (so12_basis)
    gs = fock(0.6, N=16)
    assert np.abs(gs.T1.matrix - 0.5 * (gs.Tplus.matrix - gs.Tminus.matrix)).max() == 0.0
    assert np.abs(gs.J.matrix - 0.5 * (gs.Tplus.matrix + gs.Tminus.matrix)).max() == 0.0


@pytest.mark.parametrize("convention", ["creation_plus", "disc_minus"])
def test_adjointness_exact(convention):
    for k in K_GRID:
        gs = fock(k, N=32, convention=convention)
        assert np.abs(gs.Tminus.matrix - gs.Tplus.matrix.conj().T).max() == 0.0


def test_realization_coherence():
    for k in K_GRID:
        cfg = RepConfig(k=k, N=64)
        f = build_generators("fock", cfg)
        d = build_generators("disc", cfg)
        for name in ("H", "Tplus", "Tminus"):
            assert np.abs(getattr(f, name).matrix - getattr(d, name).matrix).max() < 1e-12


@pytest.mark.parametrize("pair", list(itertools.combinations(REALIZATIONS, 2)),
                         ids="-".join)
def test_realizations_are_distinct_computations(pair):
    # two realizations whose bands agree bit for bit are one computation under
    # two names, and a record comparing them could never fail
    a, b = (build_generators(r, RepConfig(k=1.5, N=64)) for r in pair)
    assert any(not np.array_equal(getattr(a, name).bands[d], getattr(b, name).bands[d])
               for name, d in (("Tplus", -1), ("Tminus", 1)))


def test_unknown_realization_raises():
    with pytest.raises(ValueError, match="unknown realization 'hardy'"):
        build_generators("hardy", RepConfig(k=1.5, N=8))


def test_boundary_differs_but_is_weighted_adjoint():
    cfg = RepConfig(k=1.5, N=48)
    b = build_generators("boundary", cfg)
    f = build_generators("fock", cfg)
    assert np.abs(b.Tplus.matrix - f.Tplus.matrix).max() > 0.1
    # T- is the adjoint of T+ with respect to the weighted pairing:
    # G T- = T+^dag G with G = diag(w)
    w = gram_weights(cfg)
    lhs = b.Tminus.matrix * w[:, None]
    rhs = b.Tplus.matrix.conj().T * w[None, :]
    assert np.abs(lhs - rhs)[:45, :45].max() < 1e-9


def test_parity_similarity_swaps_conventions():
    # the diag((-1)^n) similarity scales band d by (-1)^d, exactly
    cfg_p = RepConfig(k=0.8, N=24)
    cfg_m = RepConfig(k=0.8, N=24, phase_convention="disc_minus")
    for realization in REALIZATIONS:
        gp = build_generators(realization, cfg_p)
        gm = build_generators(realization, cfg_m)
        for name in ("H", "Tplus", "Tminus", "T1", "J"):
            bp, bm = getattr(gp, name).bands, getattr(gm, name).bands
            assert set(bp) == set(bm)
            for d, b in bp.items():
                assert np.array_equal(bm[d], (-1) ** d * b)


# ---------------------------------------------------------------------------
# Casimir
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,value", [(1.0, 0.0), (0.5, 0.25), (0.25, 0.1875)])
def test_casimir_values(k, value):
    gs = fock(k)
    c = casimir(gs)
    diag = np.diag(c.matrix)[:c.interior].real
    assert np.abs(diag - value).max() < 1e-9


@pytest.mark.parametrize("k", K_GRID)
def test_casimir_flat(k):
    c = casimir(fock(k))
    diag = np.diag(c.matrix)[:c.interior].real
    assert diag.std() < 1e-10


def test_casimir_ground_state_direct():
    # (-H^2 + (T+T- + T-T+)/2) e_0 = k(1-k) e_0 from the ladder algebra
    k = 0.35
    gs = fock(k, N=12)
    e0 = np.zeros(13)
    e0[0] = 1.0
    op = (-gs.H.matrix @ gs.H.matrix
          + 0.5 * (gs.Tplus.matrix @ gs.Tminus.matrix
                   + gs.Tminus.matrix @ gs.Tplus.matrix))
    assert np.abs(op @ e0 - k * (1 - k) * e0).max() < 1e-12


def test_casimir_realization_independent():
    cfg = RepConfig(k=2.0, N=32)
    for realization in REALIZATIONS:
        c = casimir(build_generators(realization, cfg))
        diag = np.diag(c.matrix)[:c.interior].real
        assert np.abs(diag - 2.0 * (1 - 2.0)).max() < 1e-9


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_spectrum_integer_weight():
    assert spectrum_p(RepConfig(k=1, N=5), 1.0).tolist() == [1, 2, 3, 4, 5, 6]


def test_spectrum_fractional_weight():
    s = spectrum_p(RepConfig(k=0.25, N=5), 1.0)
    assert s[0] == 0.25
    assert np.allclose(np.diff(s), 1.0)


@given(st.floats(min_value=1e-3, max_value=50.0),
       st.floats(min_value=1e-3, max_value=10.0))
def test_spectrum_positive_and_equispaced(k, hbar):
    s = spectrum_p(RepConfig(k=k, N=16), hbar)
    assert s.min() > 0
    assert np.abs(np.diff(s) - hbar).max() < 1e-12 * max(1.0, hbar)


@pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan")])
def test_spectrum_rejects_hbar_that_is_not_positive(hbar):
    with pytest.raises(ValueError, match="hbar must be positive"):
        spectrum_p(RepConfig(k=1.0, N=8), hbar)


# ---------------------------------------------------------------------------
# rotation subgroup and exponentials
# ---------------------------------------------------------------------------

def test_rotation_identity_at_zero():
    u = rotation_rep(0.0, RepConfig(k=0.3, N=8))
    assert np.abs(u.matrix - np.eye(9)).max() == 0.0


def test_rotation_projects_for_integer_weight():
    u = rotation_rep(np.pi, RepConfig(k=1.0, N=16))
    assert np.abs(u.matrix - np.eye(17)).max() < 1e-12


def test_rotation_needs_covering_for_quarter_weight():
    u = rotation_rep(np.pi, RepConfig(k=0.25, N=16))
    assert np.abs(u.matrix - np.eye(17)).max() > 1.0
    assert abs(u.matrix[0, 0] - (-1j)) < 1e-12


def test_rotation_unitary_and_exponential():
    cfg = RepConfig(k=0.7, N=24)
    t0 = so12_basis(build_generators("fock", cfg))["T0"].bands[0]
    for w in (0.1, 1.3, 2.9):
        u = rotation_rep(w, cfg)
        assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(25)).max() < 1e-12
        assert np.abs(u.bands[0] - np.exp(-2 * w * t0)).max() < 1e-12


def test_exp_identity_at_zero():
    cfg = RepConfig(k=0.5, N=16)
    assert np.abs(rotation_rep(0.0, cfg).matrix - np.eye(17)).max() < 1e-14
    for d in ("T1", "T2"):
        assert np.abs(exp_generator(d, 0.0, cfg) - np.eye(17)).max() < 1e-14


def test_exp_t0_unitary_any_t():
    cfg = RepConfig(k=0.9, N=16)
    for t in (-1.7, 0.4, 1.9):
        u = rotation_rep(-t / 2, cfg).matrix
        assert np.abs(u.conj().T @ u - np.eye(17)).max() < 1e-12


def test_exp_boost_interior_unitarity_defect():
    cfg = RepConfig(k=0.5, N=64)
    u = exp_generator("T1", 0.1, cfg)
    half = 33
    defect = np.abs((u.conj().T @ u - np.eye(65))[:half, :half]).max()
    assert defect < 1e-8


@pytest.mark.parametrize("direction", ["T0", "T1", "T2"])
def test_exp_derivative_matches_generator(direction):
    cfg = RepConfig(k=0.5, N=64)
    gs = build_generators("fock", cfg)
    gen = so12_basis(gs)[direction].matrix
    h = 1e-3 / max(1.0, np.linalg.norm(gen, 2))
    if direction == "T0":
        def exp(t):
            return rotation_rep(-t / 2, cfg).matrix
    else:
        def exp(t):
            return exp_generator(direction, t, cfg)
    fd = (-exp(2 * h) + 8 * exp(h) - 8 * exp(-h) + exp(-2 * h)) / (12 * h)
    assert np.abs(fd - gen).max() < 1e-8


@pytest.mark.parametrize("direction", ["T1", "T2"])
def test_exp_generator_returns_read_only_array(direction):
    u = exp_generator(direction, 0.3, RepConfig(k=0.5, N=16))
    assert type(u) is np.ndarray and u.shape == (17, 17)
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


def test_exp_boost_parameter_cap():
    cfg = RepConfig(k=0.5, N=16)
    with pytest.raises(ValueError):
        exp_generator("T1", 2.5, cfg)
    with pytest.raises(ValueError, match="rotation_rep"):
        exp_generator("T0", 2.5, cfg)  # the rotation direction is rotation_rep


# ---------------------------------------------------------------------------
# gram weights and the measure obstruction
# ---------------------------------------------------------------------------

def test_weights_constant_at_half():
    assert np.abs(gram_weights(RepConfig(k=0.5, N=16)) - 1.0).max() == 0.0


def test_weights_harmonic_at_one():
    w = gram_weights(RepConfig(k=1.0, N=6))
    assert np.allclose(w, 1.0 / np.arange(1, 8))


@pytest.mark.parametrize("k", [0.25, 1.5, 3.0])
def test_weights_match_exact_rational_product(k):
    # w_n = prod_{m < n} (m + 1) / (2k + m); with 2k = p/q every factor is
    # q (m + 1) / (p + q m), so numerator and denominator are exact integers
    n_max = 10 ** 4
    w = gram_weights(RepConfig(k=k, N=n_max))
    p, q = Fraction(2 * k).as_integer_ratio()
    num = den = 1
    for m in range(n_max):
        num *= q * (m + 1)
        den *= p + q * m
        if m + 1 in (10, 100, 1000, n_max):
            rel = abs(Fraction(w[m + 1]) * den / num - 1)
            assert rel < 1e-13, (m + 1, float(rel))


@given(st.floats(min_value=0.01, max_value=20.0))
def test_weight_zero_is_one(k):
    assert gram_weights(RepConfig(k=k, N=8))[0] == 1.0


@pytest.mark.parametrize("k,trend", [(0.1, "up"), (0.49, "up"), (0.5, "flat"),
                                     (0.51, "down"), (3.0, "down")])
def test_weight_monotonicity(k, trend):
    w = gram_weights(RepConfig(k=k, N=24))
    ratios = w[1:] / w[:-1]
    if trend == "up":
        assert np.all(ratios > 1)
    elif trend == "flat":
        assert np.all(ratios == 1)
    else:
        assert np.all(ratios < 1)


def test_toeplitz_measure_only_at_half():
    assert toeplitz_measure_test(RepConfig(k=0.5, N=32))
    for k in (0.3, 0.499, 1.0, 2.5):
        assert not toeplitz_measure_test(RepConfig(k=k, N=32))


# ---------------------------------------------------------------------------
# truncation bookkeeping
# ---------------------------------------------------------------------------

def test_reach_arithmetic():
    a = TruncatedOperator({0: np.ones(5)}, 5, 1)
    b = TruncatedOperator({0: np.ones(5)}, 5, 2)
    assert (a @ b).reach == 3
    assert (a + b).reach == 2
    assert (a - b).reach == 2
    assert (2.0 * a).reach == 1
    assert a.adjoint().reach == 1
    assert (a @ b).interior == 2


@pytest.mark.parametrize("convention", PHASE_CONVENTIONS)
@pytest.mark.parametrize("realization", REALIZATIONS)
def test_real_operators_keep_real_bands(realization, convention):
    gs = build_generators(realization, RepConfig(k=1.5, N=16, phase_convention=convention))
    u = phase_operator(gs)
    space = ThetaSpace(0.5, range(-8, 9))
    ps = ProjectedSpace(space, 0)
    names = [f.name for f in dataclasses.fields(gs)]
    assert names == ["H", "Tplus", "Tminus", "T1", "J", "config"]
    real = [*(getattr(gs, name) for name in names[:-1]), casimir(gs), gs.Tminus @ gs.Tplus, u,
            space.momentum(), space.shift(), ps.momentum(), ps.shift(),
            *map(TruncatedOperator.diag, ([True, False], np.arange(3), np.ones(3, np.float32)))]
    cplx = [1j * gs.H, 1j * gs.J, rotation_rep(0.3, gs.config), sin_cos(u)[0],
            TruncatedOperator.diag([1j, 2])]
    for ops, dtype in ((real, np.float64), (cplx, np.complex128)):
        for op in ops:
            assert {b.dtype for b in op.bands.values()} == {np.dtype(dtype)}
            assert op.matrix.dtype == np.complex128


@pytest.mark.parametrize("bands", [{0: np.ones(3)}, {1: np.ones(5)}, {-2: np.ones((3, 1))}])
def test_constructor_rejects_wrong_band_length(bands):
    with pytest.raises(ValueError, match="shape"):
        TruncatedOperator(bands, 5, 0)


def test_constructor_keeps_its_own_band_dict():
    # a band added to the caller's dict later was never shape-checked
    bands = {0: np.ones(5)}
    op = TruncatedOperator(bands, 5, 0)
    bands[1] = np.ones(7)
    assert list(op.bands) == [0] and op.bands[0] is bands[0]  # the arrays are not copied


@pytest.mark.parametrize("k", [1.5, 1.7e308], ids=["finite", "nan-factors"])
def test_cached_boost_factors_are_read_only(k):
    cfg = RepConfig(k=k, N=8)
    factors = _boost_svd(cfg)
    for a in factors:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    assert all(a is b for a, b in zip(factors, _boost_svd(cfg)))


def test_interior_residual_ignores_truncation_edge():
    gs = fock(0.5, N=8)
    expr = commutator(gs.Tplus, gs.Tminus) + 2 * gs.H
    # full-matrix residual sees the cutoff defect, the interior does not
    assert np.abs(expr.matrix).max() > 1.0
    assert interior_residual(expr) < 1e-12


# ---------------------------------------------------------------------------
# banded storage against the dense reference
# ---------------------------------------------------------------------------

@st.composite
def banded_operators(draw, dim):
    """A TruncatedOperator with random diagonals and reach, plus its dense
    matrix; its bands are all complex, all real, or a real diagonal with
    complex off-diagonals."""
    offsets = draw(st.sets(st.integers(-(dim - 1), dim - 1), max_size=5))
    kind = draw(st.sampled_from(("complex", "real", "mixed")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bands = {d: rng.normal(size=dim - abs(d)) for d in offsets}
    for d in offsets:
        if kind == "complex" or (kind == "mixed" and d != 0):
            bands[d] = bands[d] + 1j * rng.normal(size=dim - abs(d))
    dense = np.zeros((dim, dim), complex)
    for d, b in bands.items():
        dense += np.diag(b, d)
    return TruncatedOperator(bands, dim, draw(st.integers(0, dim))), dense


@st.composite
def operator_pairs(draw):
    dim = draw(st.integers(1, 9))
    return draw(banded_operators(dim)), draw(banded_operators(dim))


@given(operator_pairs(),
       st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
       st.integers(0, 3))
def test_banded_arithmetic_matches_dense(pair, scalar, trim):
    (a, ma), (b, mb) = pair
    assert np.array_equal(a.matrix, ma)
    assert not a.matrix.flags.writeable
    prod = a @ b
    # one dtype per product: real only when every band of both operands is
    real = not any(np.iscomplexobj(x) for x in (*a.bands.values(), *b.bands.values()))
    assert {x.dtype for x in prod.bands.values()} <= {np.dtype(float if real else complex)}
    assert prod.matrix.dtype == (a + b).matrix.dtype == np.complex128
    assert np.allclose(prod.matrix, ma @ mb, rtol=0, atol=1e-12 * (1 + np.abs(ma @ mb).max()))
    assert np.array_equal((a + b).matrix, ma + mb)
    assert np.array_equal((a - b).matrix, ma - mb)
    assert np.array_equal((scalar * a).matrix, scalar * ma)
    assert np.array_equal((a * scalar).matrix, scalar * ma)
    assert np.array_equal(a.adjoint().matrix, ma.conj().T)
    assert prod.reach == a.reach + b.reach
    assert (a + b).reach == (a - b).reach == max(a.reach, b.reach)
    assert (scalar * a).reach == a.adjoint().reach == a.reach

    # the interior of a difference is that of a - b, whose reach is the larger
    for op, m in ((a, ma), (a - b, ma - mb)):
        hi = op.interior
        if hi <= trim:
            with pytest.raises(ValueError, match="no interior columns"):
                interior_residual(op, trim_bottom=trim)
        else:
            assert interior_residual(op, trim_bottom=trim) == np.abs(m[:, trim:hi]).max()


def test_dot_takes_columns_and_matches_the_dense_product():
    # a 1-D vector would broadcast each band into a square block
    for x in (np.ones(4), np.ones((3, 2)), np.ones((4, 2, 1))):
        with pytest.raises(ValueError, match=re.escape(f"shape (4, m), got {x.shape}")):
            TruncatedOperator.diag(np.arange(4.0)).dot(x)
    rng = np.random.default_rng(4)
    op = TruncatedOperator({d: rng.normal(size=9 - abs(d)) + 1j * rng.normal(size=9 - abs(d))
                            for d in (-3, -1, 0, 2)}, 9, 1)
    x = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
    assert np.allclose(op.dot(x), op.matrix @ x, rtol=0, atol=1e-13)


def test_max_abs_and_interior_residual_propagate_nan():
    op = TruncatedOperator({0: np.array([0.0, np.nan, 5.0]), 1: np.ones(2)}, 3, 0)
    assert np.isnan(op.max_abs())
    assert np.isnan(interior_residual(op))


# ---------------------------------------------------------------------------
# boost exponentials against a numpy-only reference
# ---------------------------------------------------------------------------

def _expm_reference(a):
    """Scaling and squaring with a 20-term Taylor series (numpy only)."""
    norm = np.abs(a).sum(axis=0).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    b = a / 2.0 ** squarings
    out = term = np.eye(len(a), dtype=complex)
    for j in range(1, 21):
        term = term @ b / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@pytest.mark.parametrize("convention", ["creation_plus", "disc_minus"])
@pytest.mark.parametrize("direction", ["T1", "T2"])
def test_boost_exponential_matches_taylor_reference(direction, convention):
    cfg = RepConfig(k=0.7, N=32, phase_convention=convention)
    gen = so12_basis(build_generators("fock", cfg))[direction].matrix
    for t in (-2.0, -0.3, 0.05, 1.1, 2.0):
        u = exp_generator(direction, t, cfg)
        assert np.abs(u - _expm_reference(t * gen)).max() < 1e-13
        assert np.abs(u.conj().T @ u - np.eye(33)).max() < 1e-13


def test_boost_norm_is_spectral_norm():
    cfg = RepConfig(k=1.5, N=40)
    gs = build_generators("fock", cfg)
    for gen in (gs.T1, so12_basis(gs)["T2"]):
        assert abs(boost_norm(cfg) - np.linalg.norm(gen.matrix, 2)) < 1e-12 * boost_norm(cfg)


# smallest N that certifies a boost column at t = 0.1, for each weight k
@pytest.mark.parametrize("k, cutoff", [(0.25, 10), (0.5, 11), (1.0, 11), (1.5, 12),
                                       (3.0, 13), (100.0, 37), (1000.0, 167)])
@pytest.mark.parametrize("t", [0.1, -0.7])
def test_boost_cutoff_is_the_smallest_certifying_n(k, cutoff, t):
    n = int(boost_cutoff(t, k))
    if t == 0.1:
        assert n == cutoff
    assert boost_columns(t, RepConfig(k=k, N=n)) > 0
    assert boost_columns(t, RepConfig(k=k, N=n - 1)) == 0


def test_boost_cutoff_agrees_with_boost_columns():
    # SuiteConfig rejects a grid by N < boost_cutoff alone; for |t| <= 0.7
    # that is boost_columns(t, .) == 0, at any weight and at any N near the
    # cutoff (seeded: k log-uniform in [0.01, 1e4])
    rng = np.random.default_rng(23)
    for k in np.exp(rng.uniform(np.log(0.01), np.log(1e4), size=1500)).tolist():
        for t in (0.1, 0.7):
            cutoff = boost_cutoff(t, k)
            for n in range(max(4, int(cutoff) - 3), int(cutoff) + 4):
                assert (boost_columns(t, RepConfig(k=k, N=n)) > 0) == (n >= cutoff), (k, t, n)


def _eigh_reference(direction, t, cfg):
    """exp(t T) = V exp(-i t w) V* from numpy's eigh of the Hermitian i T."""
    w, v = np.linalg.eigh(1j * so12_basis(build_generators("fock", cfg))[direction].matrix)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


# the whole exponential (N + 1 <= L) with odd and even L: L = N + 1
@pytest.mark.parametrize("k, N", [(0.25, 40), (0.25, 41), (3.0, 189), (3.0, 190)])
@pytest.mark.parametrize("direction", ["T1", "T2"])
def test_boost_exponential_matches_dense_eigh_reference(direction, k, N):
    # 1e-13, or two machine epsilons of the largest phase t * |J| where
    # that is more: at t = 2, N = 190 the phases reach 366, whose own
    # rounding is 5.7e-14 (1.6e-13 there; the kernel is at 1.2e-13 against
    # an extended-precision exponential, this reference at 2.5e-14)
    cfg = RepConfig(k=k, N=N)
    for t in (-0.1, 0.1, 0.7, 2.0):
        u = exp_generator(direction, t, cfg)
        assert u.shape == (N + 1, N + 1)
        tol = max(1e-13, 2 * np.finfo(float).eps * abs(t) * boost_norm(cfg))
        assert np.abs(u - _eigh_reference(direction, t, cfg)).max() < tol


# whole exponentials at N = 16 and 64, probe blocks at N = 256; k = 0.05
# has entries that underflow to exact zeros, whose sign is compared too
@pytest.mark.parametrize("N", [16, 64, 256])
@pytest.mark.parametrize("k", [0.05, 0.5, 3.0])
def test_real_t1_boost_equals_the_phase_formula_bit_for_bit(k, N):
    # exp(t T1) = D exp(-i t J) D*, D = diag(i^n), and exp(-i t J) is the T2
    # exponential at -t: the phases applied as complex products give a zero
    # imaginary part and the very floats of the real array
    cfg = RepConfig(k=k, N=N)
    for t in (0.1, 0.7, -0.3, 1e-4, -2e-4):
        u = exp_generator("T1", t, cfg)
        m = exp_generator("T2", -t, cfg)
        d = np.array([1, 1j, -1, -1j])[np.arange(m.shape[0]) % 4]
        want = d[:, None] * m * d[:m.shape[1]].conj()
        assert u.dtype == np.float64 and not want.imag.any()
        assert u.tobytes() == want.real.copy().tobytes()


# whole exponentials of odd and even L, and a probe block
@pytest.mark.parametrize("N", [40, 41, 1024])
def test_boost_parity_blocks_vanish_exactly(N):
    # cos(tJ) has no entry between rows and columns of opposite parity and
    # sin(tJ) none between those of equal parity, so exp(t T2) = cos + i sin
    # is real on (r + c) even and imaginary on (r + c) odd, and
    # exp(t T1) = D (cos - i sin) D*, D = diag(i^n), is real
    cfg = RepConfig(k=0.5, N=N)
    for t in (-0.7, 0.1, 0.7):
        u = exp_generator("T2", t, cfg)
        rows, cols = np.indices(u.shape)
        odd = (rows + cols) % 2 == 1
        assert not u.real[odd].any() and not u.imag[~odd].any()
        assert not exp_generator("T1", t, cfg).imag.any()
