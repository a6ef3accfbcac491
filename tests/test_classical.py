import cmath
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcyl.classical import (
    MOMENTUM_MAP_SIGN, CoveringElement, PhasePoint, TrigPoly,
    act_auxiliary, act_lifted, admissibility_audit, angle_gap,
    auxiliary_symplectic_residual, check_symplectic, compose, compose_auxiliary,
    hamiltonian_vector_field, inverse, lift_hamiltonian, lightcone_map,
    lightcone_equivariance_residual, poisson_bracket,
    poisson_bracket_poly, rotation_element, transport,
)
from halfcyl.exact import QC

RNG = np.random.default_rng(20260808)


def random_element(l, radius=0.7):
    r = radius * math.sqrt(RNG.uniform())
    th = RNG.uniform(0, 2 * math.pi)
    return CoveringElement(r * cmath.exp(1j * th), RNG.uniform(0, l * math.pi), l)


def random_point():
    return PhasePoint(RNG.uniform(0, 2 * math.pi), math.exp(RNG.uniform(-2, 2)))


def angle_distance(a, b):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint(0.0, 0.0)
    with pytest.raises(ValueError):
        PhasePoint(0.0, -1.0)
    x = PhasePoint(2 * math.pi + 0.5, 1.0)
    assert abs(x.phi - 0.5) < 1e-15


@pytest.mark.parametrize("phi,p", [(math.nan, 1.0), (math.inf, 1.0),
                                   (0.0, math.nan), (0.0, math.inf)])
def test_phase_point_rejects_non_finite(phi, p):
    with pytest.raises(ValueError, match="finite"):
        PhasePoint(phi, p)


def test_covering_element_validation():
    with pytest.raises(ValueError):
        CoveringElement(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        CoveringElement(0.0, 0.0, 0)
    g = CoveringElement(0.0, 2.5 * math.pi, 2)
    assert abs(g.omega - 0.5 * math.pi) < 1e-12


def test_values_are_frozen_and_slotted():
    x, g = PhasePoint(0.5, 2.0), CoveringElement(0.25j, 1.0, 2)
    F = lift_hamiltonian(TrigPoly.sin(1))
    for value, name in ((x, "phi"), (x, "p"), (g, "gamma"), (g, "omega"), (g, "l"),
                        (F, "base")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1.0)
        assert not hasattr(value, "__dict__")
    assert [f.name for f in dataclasses.fields(PhasePoint)] == ["phi", "p"]
    assert [f.name for f in dataclasses.fields(CoveringElement)] == ["gamma", "omega", "l"]


def test_values_compare_hash_and_print_by_their_fields():
    x = PhasePoint(0.5, 2)
    assert repr(x) == "PhasePoint(phi=0.5, p=2.0)" and type(x.p) is float
    assert x == PhasePoint(0.5, 2.0) != PhasePoint(0.5, 3.0)
    assert hash(x) == hash((0.5, 2.0)) and x != (0.5, 2.0)
    g = CoveringElement(0.25j, 1, 2)
    assert repr(g) == "CoveringElement(gamma=0.25j, omega=1.0, l=2)"
    assert g == CoveringElement(complex(0, 0.25), 1.0, 2) != CoveringElement(0.25j, 1.0, 3)
    assert hash(g) == hash((0.25j, 1.0, 2))


def test_values_take_keywords_and_default_l():
    assert PhasePoint(p=2.0, phi=0.5) == PhasePoint(0.5, 2.0)
    assert CoveringElement(omega=1.0, gamma=0.5, l=3) == CoveringElement(0.5, 1.0, 3)
    g = CoveringElement(0.5, 4.0)
    assert g.l == 1 and g.gamma == 0.5 + 0j and g.omega == 4.0 % math.pi


@pytest.mark.parametrize("make, message", [
    (lambda: PhasePoint(math.nan, 1.0), "phi must be finite, got nan"),
    (lambda: PhasePoint(math.inf, 1.0), "phi must be finite, got inf"),
    (lambda: PhasePoint(0.0, 0.0), "p must be positive and finite, got 0.0"),
    (lambda: PhasePoint(0.0, -1), "p must be positive and finite, got -1"),
    (lambda: PhasePoint(0.0, math.inf), "p must be positive and finite, got inf"),
    (lambda: CoveringElement(0.0, 0.0, 0), "covering index l must be a positive integer"),
    (lambda: CoveringElement(1.0, 0.0), "|gamma| must be < 1, got 1.0"),
    (lambda: CoveringElement(0.6 + 0.8j, 0.0, 2), "|gamma| must be < 1, got 1.0"),
    pytest.param(lambda: CoveringElement(0.5, math.inf), "omega must be finite, got inf",
                 id="omega-inf"),
    pytest.param(lambda: CoveringElement(0.5, math.nan, 2), "omega must be finite, got nan",
                 id="omega-nan"),
    # the checks that values computed from valid ones keep: l is the caller's,
    # and a momentum factor above 1 overflows a momentum near the largest float
    pytest.param(lambda: transport(PhasePoint(0.3, 1.0), PhasePoint(1.0, 2.0), 0),
                 "covering index l must be a positive integer", id="transport-l-0"),
    pytest.param(lambda: act_lifted(CoveringElement(0.5, 0.0),
                                    PhasePoint(0.0, sys.float_info.max / 1.5)),
                 "p must be positive and finite, got inf", id="act_lifted-overflow"),
])
def test_value_errors_keep_their_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("make", [
    lambda l: CoveringElement(0.1, 0.0, l),
    lambda l: rotation_element(l, 0.3),
    lambda l: transport(PhasePoint(0.3, 1.0), PhasePoint(1.0, 2.0), l),
], ids=["element", "rotation", "transport"])
@pytest.mark.parametrize("l", [1.5, 2.5, 2.0, pytest.param(np.float64(2.0), id="float64"),
                               True, 0, -1])
def test_covering_index_must_be_an_integer(make, l):
    with pytest.raises(ValueError, match="^covering index l must be a positive integer$"):
        make(l)


@pytest.mark.parametrize("l", ["2", None])
def test_covering_index_that_is_no_number_is_refused(l):
    with pytest.raises(ValueError, match="^covering index l must be a positive integer$"):
        CoveringElement(0.1, 0.0, l)
    with pytest.raises(ValueError, match="^covering index l must be a positive integer$"):
        transport(PhasePoint(0.3, 1.0), PhasePoint(1.0, 2.0), l)


@pytest.mark.parametrize("l", [2, np.int64(2), np.int32(2), np.uint8(2)],
                         ids=["int", "int64", "int32", "uint8"])
def test_covering_index_takes_python_and_numpy_integers(l):
    g = transport(PhasePoint(0.3, 1.0), PhasePoint(1.0, 2.0), l)
    assert g.l == 2 and CoveringElement(0.1, 0.0, l).l == 2
    assert rotation_element(l, 0.3) == rotation_element(2, 0.3)


# ---------------------------------------------------------------------------
# lifted action
# ---------------------------------------------------------------------------

def test_identity_action():
    g = CoveringElement(0.0, 0.0, 1)
    x = PhasePoint(1.234, 2.5)
    y = act_lifted(g, x)
    assert y.phi == x.phi and y.p == x.p


@pytest.mark.parametrize("l", [1, 2, 3])
def test_pure_rotation_action(l):
    g = CoveringElement(0.0, 0.8, l)
    x = PhasePoint(0.3, 4.0)
    y = act_lifted(g, x)
    assert angle_distance(y.phi, 0.3 + 1.6 / l) < 1e-14
    assert y.p == x.p


def test_boost_example_alpha_sqrt2():
    # alpha = sqrt 2, beta = 1: gamma = 1/sqrt 2, omega = 0; (0, 1) -> (0, 3 + 2 sqrt 2)
    g = CoveringElement(1 / math.sqrt(2), 0.0, 1)
    y = act_lifted(g, PhasePoint(0.0, 1.0))
    assert angle_distance(y.phi, 0.0) < 1e-14
    assert abs(y.p - (3 + 2 * math.sqrt(2))) < 1e-12


def test_output_momentum_positive():
    for _ in range(200):
        l = int(RNG.integers(1, 4))
        assert act_lifted(random_element(l, radius=0.95), random_point()).p > 0


def test_group_law_random():
    worst = 0.0
    for _ in range(100):
        l = int(RNG.integers(1, 4))
        g1, g2, x = random_element(l), random_element(l), random_point()
        a = act_lifted(g1, act_lifted(g2, x))
        b = act_lifted(compose(g1, g2), x)
        worst = max(worst, angle_distance(a.phi, b.phi), abs(a.p - b.p) / max(1.0, b.p))
    assert worst < 1e-9


def test_angle_gap_is_distance_on_the_circle():
    assert angle_gap(0.3, 0.3) == 0.0
    assert abs(angle_gap(0.1, 2 * math.pi - 0.1) - 0.2) < 1e-15
    assert abs(angle_gap(2 * math.pi - 0.1, 0.1) - 0.2) < 1e-15
    assert abs(angle_gap(0.0, math.pi) - math.pi) < 1e-15
    assert angle_gap(1.0, 1.0 + 4 * math.pi) < 1e-14


def test_compose_rejects_mixed_coverings():
    with pytest.raises(ValueError):
        compose(CoveringElement(0, 0.1, 1), CoveringElement(0, 0.1, 2))


def test_inverse():
    for _ in range(50):
        l = int(RNG.integers(1, 4))
        g = random_element(l)
        e = compose(g, inverse(g))
        assert abs(e.gamma) < 1e-12
        assert min(e.omega, l * math.pi - e.omega) < 1e-9


@pytest.mark.parametrize("l", [2, 3, 4])
def test_covering_effectiveness(l):
    # 2 pi j (j < l) moves points; 2 pi l is the identity
    x = PhasePoint(0.3, 1.0)
    for j in range(1, l):
        g = rotation_element(l, 2 * math.pi * j / l)
        assert angle_distance(act_lifted(g, x).phi, x.phi) > 0.5
    g = rotation_element(l, 2 * math.pi)
    assert angle_distance(act_lifted(g, x).phi, x.phi) < 1e-9


# ---------------------------------------------------------------------------
# symplectic audit
# ---------------------------------------------------------------------------

def test_symplectic_identity_exact():
    assert check_symplectic(CoveringElement(0, 0, 1), PhasePoint(1.0, 2.0)) == 0.0


def test_symplectic_rotation():
    g = rotation_element(2, 1.1)
    assert check_symplectic(g, PhasePoint(5.9, 7.0)) < 1e-10


def test_symplectic_random():
    worst = 0.0
    for _ in range(100):
        l = int(RNG.integers(1, 4))
        worst = max(worst, check_symplectic(random_element(l), random_point()))
    assert worst < 1e-6


def test_symplectic_closed_form_matches_full_matrix_residual():
    # the audit returns |det J - 1|; rebuild J with both difference
    # columns and take || J^T Omega J - Omega || in full
    def step(g, phi):  # (phi' - phi, p'/p), both from the Moebius factor u
        u = 1.0 + g.gamma.conjugate() * cmath.exp(1j * g.l * phi)
        return (2 * g.omega - 2 * cmath.phase(u)) / g.l, abs(u) ** 2 / (1 - abs(g.gamma) ** 2)

    rng = np.random.default_rng(7)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for _ in range(200):
        l = int(rng.integers(1, 4))
        g = CoveringElement(0.99 * math.sqrt(rng.uniform())
                            * cmath.exp(2j * math.pi * rng.uniform()),
                            rng.uniform(0, l * math.pi), l)
        x = PhasePoint(rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(-2, 2)))
        h = 10 ** rng.uniform(-7, -1)
        (dp, mp), (dm, mm) = step(g, x.phi + h), step(g, x.phi - h)
        step_width = (x.phi + h) - (x.phi - h)
        jac = np.array([[1.0 + (dp - dm) / step_width, 0.0],
                        [x.p * (mp - mm) / step_width, step(g, x.phi)[1]]])
        full = np.abs(jac.T @ omega @ jac - omega).max()
        assert abs(check_symplectic(g, x, h) - full) < 1e-13


def _closed_form_action(g, x):
    """(phi', p') of the lifted action, written out from the closed-form map:
    u = 1 + conj(gamma) e^{il phi}, phi' = phi + (2 omega - 2 arg u) / l,
    p' = p |u|^2 / (1 - |gamma|^2)."""
    u = 1.0 + g.gamma.conjugate() * cmath.exp(1j * g.l * x.phi)
    phi = x.phi + (2.0 * g.omega - 2.0 * math.atan2(u.imag, u.real)) / g.l
    return phi % (2 * math.pi), x.p * ((u.real * u.real + u.imag * u.imag)
                                       / (1.0 - abs(g.gamma) ** 2))


def _closed_form_audit(g, x, h=None):
    """|det J - 1| with the displacements at phi +- h and the momentum
    factor at phi, each from the closed-form map, and the default step
    (eps l)^(1/3) / l min(1, |u|) when h is None."""
    def u_at(phi):
        return 1.0 + g.gamma.conjugate() * cmath.exp(1j * g.l * phi)

    def displacement(phi):
        u = u_at(phi)
        return (2.0 * g.omega - 2.0 * math.atan2(u.imag, u.real)) / g.l

    u = u_at(x.phi)
    if h is None:
        h = (2.0 ** -53 * g.l) ** (1 / 3) / g.l * min(1.0, abs(u))
    d_disp = (displacement(x.phi + h) - displacement(x.phi - h)) / ((x.phi + h) - (x.phi - h))
    factor = (u.real * u.real + u.imag * u.imag) / (1.0 - abs(g.gamma) ** 2)
    return abs((1.0 + d_disp) * factor - 1.0)


def test_action_and_audit_equal_the_closed_form_bit_for_bit():
    # the same operations in the same order as the closed-form map, so
    # every output is the same float, not merely close to it
    rng = np.random.default_rng(2029)
    for _ in range(2000):
        l = int(rng.integers(1, 4))
        g = CoveringElement(0.95 * math.sqrt(rng.uniform())
                            * cmath.exp(2j * math.pi * rng.uniform()),
                            rng.uniform(0, l * math.pi), l)
        x = PhasePoint(rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(-2, 2)))
        y = act_lifted(g, x)
        assert (y.phi, y.p) == _closed_form_action(g, x)
        h = float(rng.uniform(1e-3, 1e-2))
        assert check_symplectic(g, x, h) == _closed_form_audit(g, x, h)
        assert check_symplectic(g, x) == _closed_form_audit(g, x)


def test_symplectic_rejects_bad_step():
    with pytest.raises(ValueError):
        check_symplectic(CoveringElement(0, 0, 1), PhasePoint(1, 1), h=0.0)


def test_symplectic_rejects_step_below_float_spacing():
    # phi + h == phi - h: the central difference would divide by zero
    with pytest.raises(ValueError, match="step h = 1e-20 is below the float spacing"):
        check_symplectic(CoveringElement(0, 0, 1), PhasePoint(1, 1), h=1e-20)


# ---------------------------------------------------------------------------
# momentum functions and Poisson brackets
# ---------------------------------------------------------------------------

P = lift_hamiltonian(TrigPoly.const(1))
PSIN = lift_hamiltonian(TrigPoly.sin(1))
PCOS = lift_hamiltonian(TrigPoly.cos(1))


def test_lift_examples():
    assert P.base == TrigPoly.const(1)
    assert lift_hamiltonian(TrigPoly.sin(3)).base == TrigPoly.sin(3)
    assert lift_hamiltonian(TrigPoly({})).is_zero


def test_poisson_examples():
    assert poisson_bracket(PSIN, PCOS) == P
    assert poisson_bracket(P, PSIN) == -1 * PCOS
    assert poisson_bracket(PSIN, PSIN).is_zero


small_trig = st.lists(
    st.tuples(st.integers(1, 4),
              st.fractions(min_value=-3, max_value=3, max_denominator=4),
              st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    max_size=3,
).map(lambda terms: sum(
    (a * TrigPoly.cos(l) + b * TrigPoly.sin(l) for l, a, b in terms),
    TrigPoly.const(1)))

rational = st.fractions(min_value=-3, max_value=3, max_denominator=7)
rational_trig = st.builds(lambda a0, terms: sum(
    (a * TrigPoly.cos(l) + b * TrigPoly.sin(l) for l, a, b in terms), TrigPoly.const(a0)),
    rational, st.lists(st.tuples(st.integers(1, 3), rational, rational), max_size=3))


@settings(max_examples=40)
@given(small_trig, small_trig, small_trig)
def test_poisson_jacobi_exact(f, g, h):
    F, G, H = (lift_hamiltonian(x) for x in (f, g, h))
    total = (poisson_bracket(F, poisson_bracket(G, H))
             + poisson_bracket(G, poisson_bracket(H, F))
             + poisson_bracket(H, poisson_bracket(F, G)))
    assert total.is_zero


@given(small_trig, small_trig)
def test_poisson_antisymmetric_and_real(f, g):
    F, G = lift_hamiltonian(f), lift_hamiltonian(g)
    assert (poisson_bracket(F, G) + poisson_bracket(G, F)).is_zero
    # reality survives: conjugate-symmetric coefficients by construction
    br = poisson_bracket(F, G).base
    for j, c in br.modes.items():
        assert complex(br.modes[-j]).conjugate() == complex(c)


@settings(max_examples=60)
@given(rational_trig, rational_trig)
def test_poisson_bracket_is_minus_i_times_the_witt_bracket(f, g):
    # -i is folded into the canonical triples: (x, y, d) -> (y, -x, d)
    got = poisson_bracket(lift_hamiltonian(f), lift_hamiltonian(g)).base
    want = QC(0, -1) * f.bracket(g)
    assert type(got) is type(want) is TrigPoly
    assert ([(j, c._x, c._y, c._d) for j, c in got.coeffs.items()]
            == [(j, c._x, c._y, c._d) for j, c in want.coeffs.items()])


@settings(max_examples=60)
@given(small_trig, small_trig)
def test_poisson_matches_derivative_product_form(f, g):
    # the bracket kernel against {p f, p g} = p (f' g - f g') built directly
    got = poisson_bracket(lift_hamiltonian(f), lift_hamiltonian(g)).base
    want = f.derivative().product(g) - f.product(g.derivative())
    assert got == want
    assert got.coeffs == want.coeffs
    assert all(type(c) is QC for c in got.coeffs.values())


def test_momentum_map_sign_stable():
    fields = [TrigPoly.const(1), TrigPoly.sin(1), TrigPoly.cos(1)]
    for f in fields:
        for g in fields:
            vf = f.product(g.derivative()) - g.product(f.derivative())
            got = poisson_bracket(lift_hamiltonian(f), lift_hamiltonian(g))
            assert got == MOMENTUM_MAP_SIGN * lift_hamiltonian(vf)


def test_trigpoly_reality_enforced():
    with pytest.raises(ValueError):
        TrigPoly({1: 1.0})


def test_trigpoly_reality_check_is_exact():
    # a 1e-13 imaginary part is a real mismatch, however small
    with pytest.raises(ValueError, match="not a real polynomial"):
        TrigPoly({1: 0.5 + 1e-13j, -1: 0.5})
    ok = TrigPoly({0: 0.25, 1: 0.5 + 1e-13j, -1: 0.5 - 1e-13j})
    assert ok.modes[-1] == ok.modes[1].conjugate() == QC(0.5, -1e-13)


@settings(max_examples=60, deadline=None)
@given(small_trig, st.floats(0, 2 * math.pi), st.floats(0.01, 100))
def test_vector_field_matches_the_built_derivative_bit_for_bit(f, phi, p):
    x = PhasePoint(phi, p)
    got = hamiltonian_vector_field(lift_hamiltonian(f), x)
    assert got == (f(x.phi), -x.p * f.derivative()(x.phi))


def test_evaluation_rereads_changed_coefficients():
    f = TrigPoly.cos(1)
    before = (f(0.3), hamiltonian_vector_field(lift_hamiltonian(f), PhasePoint(0.3, 2.0)))
    f.coeffs[1] = f.coeffs[-1] = QC(2)  # in place: 4 cos
    g = TrigPoly({1: 2, -1: 2})
    assert f(0.3) == g(0.3) == 4 * math.cos(0.3) != before[0]
    lifted = PhasePoint(0.3, 2.0)
    assert (hamiltonian_vector_field(lift_hamiltonian(f), lifted)
            == hamiltonian_vector_field(lift_hamiltonian(g), lifted) != before[1])
    f.coeffs = {0: QC(1)}  # replaced: the constant 1
    assert f(0.3) == 1.0 and hamiltonian_vector_field(lift_hamiltonian(f), lifted) == (1.0, -0.0)


def test_stabilizer_vanishes_on_fiber():
    stab = lift_hamiltonian(TrigPoly.cos(2) - TrigPoly.const(1))
    for p in (0.25, 1.0, 17.5):
        v = hamiltonian_vector_field(stab, PhasePoint(0.0, p))
        assert v == (0.0, 0.0) or (v[0] == 0.0 and v[1] == 0.0)
    # but not off the fiber
    v = hamiltonian_vector_field(stab, PhasePoint(1.0, 1.0))
    assert abs(v[0]) > 0.1


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_audit_so12_generators():
    rep = admissibility_audit([P, PSIN, PCOS])
    assert rep.period_divisor == 1
    assert rep.fixed_fiber is None
    assert rep.transitive
    assert rep.sgp_pass


@pytest.mark.parametrize("l", [2, 3, 5])
def test_audit_covering_generators_fail_sgp(l):
    gens = [P, lift_hamiltonian(TrigPoly.sin(l)), lift_hamiltonian(TrigPoly.cos(l))]
    rep = admissibility_audit(gens)
    assert rep.period_divisor == l
    assert not rep.sgp_pass
    assert rep.transitive  # transitive but inadmissible


def test_audit_fixed_fiber():
    gens = [lift_hamiltonian(TrigPoly.cos(1)),
            lift_hamiltonian(TrigPoly.const(1) + TrigPoly.sin(1))]
    rep = admissibility_audit(gens)
    assert rep.fixed_fiber is not None
    assert abs(rep.fixed_fiber - 1.5 * math.pi) < 1e-12
    assert not rep.transitive


def test_audit_two_dim_other_class():
    # cos(2 phi) and 1 - sin(2 phi) share the zero at phi = pi/4, a double
    # zero of the second field
    gens = [lift_hamiltonian(TrigPoly.cos(2)),
            lift_hamiltonian(TrigPoly.const(1) - TrigPoly.sin(2))]
    rep = admissibility_audit(gens)
    assert rep.fixed_fiber is not None
    assert abs(rep.fixed_fiber - math.pi / 4) < 1e-12


def test_audit_stabilizer_fixes_phi_zero_exactly():
    # cos 2 phi - 1 = -2 sin^2 phi: double zeros at 0 and pi
    rep = admissibility_audit([lift_hamiltonian(TrigPoly.cos(2) - TrigPoly.const(1))])
    assert rep.fixed_fiber == 0.0


def test_audit_nearby_distinct_zeros_fix_no_fiber():
    # sin phi vanishes at 0 and pi, g = sin(phi - 1e-11) at 1e-11 and
    # pi + 1e-11: no common zero, though each field is below 1e-10 at the
    # other's zeros
    g = math.cos(1e-11) * TrigPoly.sin(1) - math.sin(1e-11) * TrigPoly.cos(1)
    rep = admissibility_audit([lift_hamiltonian(TrigPoly.sin(1)), lift_hamiltonian(g)])
    assert rep.fixed_fiber is None


@settings(max_examples=60, deadline=None)
@given(rational_trig, rational_trig,
       st.fractions(min_value=-1, max_value=1, max_denominator=1000).filter(
           lambda r: abs(r) < 1))
def test_audit_finds_a_planted_common_zero(a, b, r):
    # c = cos phi - r vanishes at +-acos(r), so a c and b c share that zero
    # (and perhaps others, when a and b share one)
    c = TrigPoly.cos(1) - TrigPoly.const(r)
    fields = [a.product(c), b.product(c)]
    rep = admissibility_audit([lift_hamiltonian(f) for f in fields])
    assert rep.fixed_fiber is not None
    assert rep.fixed_fiber <= math.acos(r) + 1e-12
    for f in fields:
        scale = sum(abs(complex(x)) for x in f.coeffs.values())
        assert abs(f(rep.fixed_fiber)) <= 1e-12 * scale


def test_audit_requires_generators():
    with pytest.raises(ValueError):
        admissibility_audit([])


def test_audit_report_invariants():
    rep = admissibility_audit([P, PSIN, PCOS])
    assert rep.sgp_pass == (rep.period_divisor == 1)
    assert not (rep.transitive and rep.fixed_fiber is not None)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def test_transport_identity():
    a = PhasePoint(1.0, 2.0)
    g = transport(a, a, 1)
    y = act_lifted(g, a)
    assert angle_distance(y.phi, a.phi) < 1e-12 and abs(y.p - a.p) < 1e-12


def test_transport_pure_rotation():
    g = transport(PhasePoint(0, 1), PhasePoint(math.pi, 1), 1)
    assert abs(g.gamma) < 1e-15
    assert abs(g.omega - math.pi / 2) < 1e-12


def test_transport_pure_boost():
    g = transport(PhasePoint(0, 1), PhasePoint(0, 2), 1)
    y = act_lifted(g, PhasePoint(0, 1))
    assert angle_distance(y.phi, 0.0) < 1e-12 and abs(y.p - 2.0) < 1e-12
    assert abs(g.gamma.imag) < 1e-15 and g.gamma.real > 0


@pytest.mark.parametrize("l", [1, 2, 3])
def test_transport_roundtrip_random(l):
    worst = 0.0
    for _ in range(100):
        a, b = random_point(), random_point()
        y = act_lifted(transport(a, b, l), a)
        worst = max(worst, angle_distance(y.phi, b.phi), abs(y.p - b.p) / b.p)
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# light-cone identification
# ---------------------------------------------------------------------------

def test_lightcone_basepoint():
    assert lightcone_map(PhasePoint(0.0, 1.0), 1) == (1.0, 1.0, 0.0)


def test_lightcone_null_and_positive():
    for _ in range(100):
        l = int(RNG.integers(1, 4))
        v = lightcone_map(random_point(), l)
        assert abs(v[0] ** 2 - v[1] ** 2 - v[2] ** 2) < 1e-12
        assert v[0] > 0


def test_lightcone_map_matches_closed_form():
    # (x0, x1, x2) = (p, p cos l phi, -p sin l phi); the null check alone
    # is blind to a common scale, this comparison is not
    rng = np.random.default_rng(1999)
    for _ in range(100):
        l = int(rng.integers(1, 4))
        x = PhasePoint(rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(-2, 2)))
        want = (x.p, x.p * math.cos(l * x.phi), -x.p * math.sin(l * x.phi))
        v = lightcone_map(x, l)
        assert len(v) == 3 and max(abs(a - b) for a, b in zip(v, want)) <= 1e-12 * x.p


def test_lightcone_equivariance():
    worst = 0.0
    for _ in range(100):
        l = int(RNG.integers(1, 4))
        worst = max(worst, lightcone_equivariance_residual(random_element(l),
                                                           random_point()))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# auxiliary models
# ---------------------------------------------------------------------------

def test_plane_dilation_example():
    assert act_auxiliary("plane_punctured", (0, 2), (1 + 1j, 3 - 1j)) == (2 + 2j, 1.5 - 0.5j)


def test_affine_identity():
    assert act_auxiliary("affine_halfline", (0.0, 1.0), (2.0, -1.0)) == (2.0, -1.0)


def test_affine_preserves_halfline():
    for _ in range(50):
        g = (RNG.normal(), math.exp(RNG.normal()))
        q, p = act_auxiliary("affine_halfline", g, (math.exp(RNG.normal()), RNG.normal()))
        assert q > 0


def test_auxiliary_group_laws():
    for _ in range(50):
        g1 = (RNG.normal(), math.exp(RNG.normal()))
        g2 = (RNG.normal(), math.exp(RNG.normal()))
        x = (math.exp(RNG.normal()), RNG.normal())
        lhs = act_auxiliary("affine_halfline", g1, act_auxiliary("affine_halfline", g2, x))
        rhs = act_auxiliary("affine_halfline",
                            compose_auxiliary("affine_halfline", g1, g2), x)
        assert abs(lhs[0] - rhs[0]) < 1e-12 and abs(lhs[1] - rhs[1]) < 1e-12

        c1 = (RNG.normal() + 1j * RNG.normal(), cmath.exp(RNG.normal() + 1j * RNG.normal()))
        c2 = (RNG.normal() + 1j * RNG.normal(), cmath.exp(RNG.normal() + 1j * RNG.normal()))
        z = (RNG.normal() + 1j * RNG.normal() + 3.0, RNG.normal() + 1j * RNG.normal())
        lhs = act_auxiliary("plane_punctured", c1, act_auxiliary("plane_punctured", c2, z))
        rhs = act_auxiliary("plane_punctured",
                            compose_auxiliary("plane_punctured", c1, c2), z)
        assert abs(lhs[0] - rhs[0]) < 1e-9 and abs(lhs[1] - rhs[1]) < 1e-9


def test_auxiliary_symplectic():
    assert auxiliary_symplectic_residual("affine_halfline", (0.4, 2.5), (1.7, -0.3)) < 1e-6
    assert auxiliary_symplectic_residual(
        "plane_punctured", (0.2 - 0.1j, 1.5 + 0.5j), (1 + 1j, 0.3 - 0.2j)) < 1e-6


def test_auxiliary_rejects_invalid():
    with pytest.raises(ValueError):
        act_auxiliary("affine_halfline", (0.0, 1.0), (-1.0, 0.0))
    with pytest.raises(ValueError):
        act_auxiliary("affine_halfline", (0.0, -1.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        act_auxiliary("plane_punctured", (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        act_auxiliary("plane_punctured", (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        act_auxiliary("torus", (0.0, 1.0), (1.0, 1.0))


def test_affine_generator_bracket():
    # {q, qp} = q through the polynomial bracket engine
    assert poisson_bracket_poly({(1, 0): 1}, {(1, 1): 1}) == {(1, 0): 1}
    # and {q, p} = 1, {qp, p} = p
    assert poisson_bracket_poly({(1, 0): 1}, {(0, 1): 1}) == {(0, 0): 1}
    assert poisson_bracket_poly({(1, 1): 1}, {(0, 1): 1}) == {(0, 1): 1}


@pytest.mark.parametrize("p_to", [1e17, 1e-17, 1e300])
def test_transport_rejects_unrepresentable_momentum_ratio(p_to):
    with pytest.raises(ValueError, match="momentum ratio"):
        transport(PhasePoint(0.0, 1.0), PhasePoint(0.0, p_to), 1)
