"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines; each criterion is also an ordinary assertion.
Everything runs at N = 64, double precision, single core.
"""

import cmath
import math

import numpy as np

from halfcyl.classical import (
    CoveringElement, PhasePoint, TrigPoly, act_lifted, admissibility_audit,
    check_symplectic, compose, hamiltonian_vector_field, lift_hamiltonian,
    lightcone_equivariance_residual, lightcone_map, transport,
)
from halfcyl.equivalence import (phase_operator, tplus_from_phase,
                                 normalization_diagonal)
from halfcyl.lie import L, witt_closure
from halfcyl.projection import (ProjectedSpace, ThetaSpace, _log_grid_operators,
                                halfline_commutator_residual, halfline_demo)
from halfcyl.rep import (RepConfig, TruncatedOperator, build_generators,
                         casimir, interior_residual, sin_cos,
                         toeplitz_measure_test)

N = 64


def _criterion(num, name, ok, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def fock(k, convention="creation_plus"):
    return build_generators("fock", RepConfig(k=k, N=N, phase_convention=convention))


def test_criterion_01_spectra_exact():
    spec = fock(1.0).H.bands[0]
    want = np.arange(1, N + 2, dtype=float)
    ps = ProjectedSpace(ThetaSpace(1.0, range(-N, N + 1)), 0)
    proj = np.diag(ps.momentum().matrix).real
    ok = np.array_equal(spec, want) and np.array_equal(proj[:N + 1], want)
    _criterion(1, "momentum spectra (group picture = projected picture)", ok,
               "exact equality")


def test_criterion_02_ladder_algebra():
    worst = 0.0
    for k in (0.25, 0.5, 1.0, 1.5, 3.0):
        gs = fock(k)
        worst = max(worst,
                    interior_residual(gs.H @ gs.Tplus - gs.Tplus @ gs.H - gs.Tplus),
                    interior_residual(gs.H @ gs.Tminus - gs.Tminus @ gs.H + gs.Tminus),
                    interior_residual(gs.Tplus @ gs.Tminus - gs.Tminus @ gs.Tplus + 2 * gs.H))
    _criterion(2, "ladder commutators on the interior", worst < 1e-7,
               f"worst residual {worst:.2e} < 1e-7")


def test_criterion_03_casimir():
    worst = 0.0
    for k in (0.25, 0.5, 1.0, 1.5, 3.0):
        c = casimir(fock(k))
        diag = np.diag(c.matrix)[:c.interior].real
        worst = max(worst, float(np.abs(diag - k * (1 - k)).max()))
    c1 = casimir(fock(1.0))
    flat0 = float(np.abs(np.diag(c1.matrix)[:c1.interior]).max())
    ok = worst < 1e-9 and flat0 < 1e-9
    _criterion(3, "Casimir equals k(1-k), zero at k=1", ok,
               f"worst deviation {worst:.2e} < 1e-9")


def test_criterion_04_phase_operator_both_pictures():
    worst = 0.0
    agree = 0.0
    for theta, m_min in ((0.25, 0), (1.0, 0), (0.5, 2)):
        k = ProjectedSpace(ThetaSpace(theta, range(-N, N + 1)), m_min).k
        gs = fock(k)
        u_rep = phase_operator(gs)
        eye = np.eye(N + 1)
        p0 = np.zeros_like(eye)
        p0[0, 0] = 1.0
        worst = max(worst,
                    interior_residual(u_rep.adjoint() @ u_rep
                                      - TruncatedOperator.diag(np.ones(N + 1))),
                    float(np.abs((u_rep @ u_rep.adjoint()).matrix - (eye - p0)).max()))
        ps = ProjectedSpace(ThetaSpace(theta, range(-N, N + m_min + 5)), m_min)
        u_proj = ps.shift()
        eye_p = np.eye(ps.dim)
        p0p = np.zeros_like(eye_p)
        p0p[0, 0] = 1.0
        worst = max(worst,
                    interior_residual(u_proj.adjoint() @ u_proj
                                      - TruncatedOperator.diag(np.ones(ps.dim))),
                    float(np.abs((u_proj @ u_proj.adjoint()).matrix - (eye_p - p0p)).max()))
        n = min(ps.dim, N + 1) - 1
        agree = max(agree, float(np.abs(u_rep.matrix[:n, :n]
                                        - u_proj.matrix[:n, :n]).max()))
    ok = worst < 1e-12 and agree < 1e-12
    _criterion(4, "phase-operator isometry in both pictures", ok,
               f"identities {worst:.2e} < 1e-12, pictures agree {agree:.2e}")


def test_criterion_05_ladder_from_phase():
    worst = 0.0
    for k in (0.25, 0.5, 1.0, 3.0):
        gs = fock(k, convention="disc_minus")
        shift = phase_operator(fock(k))
        rec = tplus_from_phase(gs, shift)  # -(1/hbar) sqrt((p+(k-1)h)(p-kh)) U
        worst = max(worst, interior_residual(gs.Tplus - rec))
    _criterion(5, "T+ reconstructed from (p, U)", worst < 1e-8,
               f"worst residual {worst:.2e} < 1e-8")


def test_criterion_06_sincos_anomalies():
    worst = 0.0
    for k in (0.25, 0.5, 1.0, 1.5, 3.0):
        gs = fock(k)
        s, c = sin_cos(phase_operator(gs))
        eye = TruncatedOperator.diag(np.ones(N + 1))
        p0 = TruncatedOperator.diag(np.eye(1, N + 1)[0])
        worst = max(worst,
                    interior_residual(s @ s + c @ c - (eye - 0.5 * p0)),
                    interior_residual(s @ c - c @ s - 0.5j * p0),
                    interior_residual((gs.H @ s - s @ gs.H) + 1j * c),
                    interior_residual((gs.H @ c - c @ gs.H) - 1j * s))
    _criterion(6, "sin/cos anomalies confined to the ground state",
               worst < 1e-10, f"worst residual {worst:.2e} < 1e-10")


def test_criterion_07_realization_conjugation():
    worst = 0.0
    for k in (0.3, 0.5, 1.0, 2.0):
        cfg = RepConfig(k=k, N=N)
        b = build_generators("boundary", cfg)
        f = build_generators("fock", cfg)
        c = normalization_diagonal(cfg)
        for name in ("H", "Tplus", "Tminus"):
            bm = getattr(b, name)
            m = (bm.matrix.T / c).T * c
            conj = TruncatedOperator({d: m.diagonal(d) for d in bm.bands}, N + 1, bm.reach)
            worst = max(worst, interior_residual(conj - getattr(f, name)))
    c_half = normalization_diagonal(RepConfig(k=0.5, N=N))
    exact_half = float(np.abs(c_half - 1.0).max())
    ok = worst < 1e-7 and exact_half == 0.0
    _criterion(7, "boundary -> orthonormal Hardy basis by the normalization diagonal", ok,
               f"worst residual {worst:.2e} < 1e-7, identity at k=1/2")


def test_criterion_08_toeplitz_measure():
    grid = [0.5] + list(np.linspace(0.06, 3.0, 49))
    ok = all(toeplitz_measure_test(RepConfig(k=k, N=N)) == (k == 0.5)
             for k in grid)
    _criterion(8, "circle density exists iff k = 1/2 (50-point grid)", ok,
               "grid in (0, 3] including 1/2")


def test_criterion_09_classical_action():
    rng = np.random.default_rng(9)

    def rand_g(l):
        r = 0.7 * math.sqrt(rng.uniform())
        th = rng.uniform(0, 2 * math.pi)
        return CoveringElement(r * cmath.exp(1j * th),
                               rng.uniform(0, l * math.pi), l)

    def rand_x():
        return PhasePoint(rng.uniform(0, 2 * math.pi), math.exp(rng.uniform(-2, 2)))

    law = symp = trans = cone = null = 0.0
    for _ in range(100):
        l = int(rng.integers(1, 4))
        g1, g2, x, y = rand_g(l), rand_g(l), rand_x(), rand_x()
        a = act_lifted(g1, act_lifted(g2, x))
        b = act_lifted(compose(g1, g2), x)
        law = max(law, abs((a.phi - b.phi + math.pi) % (2 * math.pi) - math.pi),
                  abs(a.p - b.p) / max(1.0, b.p))
        symp = max(symp, check_symplectic(g1, x))
        z = act_lifted(transport(x, y, l), x)
        trans = max(trans, abs((z.phi - y.phi + math.pi) % (2 * math.pi) - math.pi),
                    abs(z.p - y.p) / y.p)
        cone = max(cone, lightcone_equivariance_residual(g1, x))
        v = lightcone_map(x, l)
        null = max(null, abs(v[0] ** 2 - v[1] ** 2 - v[2] ** 2))

    stab = lift_hamiltonian(TrigPoly.cos(2) - TrigPoly.const(1))
    stab_worst = max(max(abs(c) for c in hamiltonian_vector_field(stab, PhasePoint(0.0, p)))
                     for p in (0.5, 1.0, 7.25))

    ok = (law < 1e-6 and symp < 1e-6 and trans < 1e-9 and stab_worst == 0.0
          and null < 1e-12 and cone < 1e-9)
    _criterion(9, "covering action: group law, symplectic, transport, cone", ok,
               f"law {law:.1e}, symplectic {symp:.1e}, transport {trans:.1e}, "
               f"stabilizer {stab_worst}, null {null:.1e}, equivariance {cone:.1e}")


def test_criterion_10_admissibility():
    sgp_ok = True
    for l in (1, 2, 3, 4, 5):
        gens = [lift_hamiltonian(f) for f in
                (TrigPoly.const(1), TrigPoly.sin(l), TrigPoly.cos(l))]
        rep = admissibility_audit(gens)
        sgp_ok = sgp_ok and (rep.sgp_pass == (l == 1))
    fiber = admissibility_audit([
        lift_hamiltonian(TrigPoly.cos(1)),
        lift_hamiltonian(TrigPoly.const(1) + TrigPoly.sin(1))])
    fiber_ok = (fiber.fixed_fiber is not None
                and abs(fiber.fixed_fiber - 1.5 * math.pi) < 1e-10)
    ok = sgp_ok and fiber_ok
    _criterion(10, "admissibility audit (SGP iff l=1, fixed fiber at 3pi/2)", ok)


def test_criterion_11_witt_closure():
    towers = all(witt_closure([L(-l), L(0), L(l)]).closed
                 and witt_closure([L(-l), L(0), L(l)]).dimension == 3
                 for l in range(1, 9))
    bad = witt_closure([L(1), L(2)])
    two = witt_closure([L(0), L(2)])
    ok = (towers and not bad.closed and bad.witness_mode == 3
          and two.closed and two.dimension == 2)
    _criterion(11, "Witt closure verdicts (exact arithmetic)", ok)


def test_criterion_12_halfline_demo():
    recs = {r.name: r for r in halfline_demo()}
    q = _log_grid_operators(64)[1].bands[0]
    positive = bool((q.real > 0).all() and (q.imag == 0).all())
    unitary = recs["dilation_unitary"].residual == 0.0
    r64 = halfline_commutator_residual(64)
    r128 = halfline_commutator_residual(128)
    r256 = halfline_commutator_residual(256)
    o1, o2 = math.log2(r64 / r128), math.log2(r128 / r256)
    orders_ok = abs(o1 - 2.0) < 0.2 and abs(o2 - 2.0) < 0.2
    ok = positive and unitary and orders_ok
    _criterion(12, "half-line demo (positivity, exact dilation, order 2)", ok,
               f"orders {o1:.3f}, {o2:.3f} in 2.0 +- 0.2")
