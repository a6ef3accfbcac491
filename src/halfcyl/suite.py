"""Batch verification: run every module's check suite over a config grid.

Each grid cell (one k or one theta) is a pure function of the config and
the seed, and returns ``report.judge`` of its rows: each row names a record,
its anchor, its pinned tolerance and the residual that ``judge`` computes
and judges once (``interior_residual`` of its terms for an operator
identity); the config sets only the grid.  The module checkers
(``sincos_operators``, ``conjugate_realizations``, ``isometry_report``,
``identification_report``, ``halfline_demo``) return ``judge`` of their
own rows under the cell's label, so ``sin_hermitean[k=0.5]`` is made like
every other record, and a cell concatenates these lists in order.  Identical
config and seed give a byte-identical JSON report up to the timestamp header.

The checks work in units hbar = 1, and hbar is left only as the output unit
of the ``spectrum`` command.  Every identity they check is homogeneous in
hbar, so ``SuiteConfig`` refuses an ``hbar`` key as unknown; anchors such as
"[U, p] = -hbar U" still state the physics in units of hbar.  Positive
momentum is checked by ``spectra_match``: H against the projected m + theta.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from . import classical as cl
from . import lie
from .equivalence import (conjugate_realizations, identification_report,
                          phase_operator, sincos_operators, theta_resolution_problem,
                          tplus_from_phase)
from .projection import ProjectedSpace, ThetaSpace, halfline_demo, isometry_report
from .report import CheckReport, ConfigError, _finite, judge, worst_of
from .rep import (RepConfig, TruncatedOperator, boost_columns, boost_cutoff,
                  boost_norm, build_generators, casimir, exp_generator,
                  gram_weights, interior_residual, rotation_rep, toeplitz_measure_test, tol)

__all__ = ["SuiteConfig", "ConfigError", "run_suite", "PROFILES"]

PROFILES = ("physical", "full")


# m_min values of the identification check in each profile's theta cell
THETA_M_MINS = {"physical": (0,), "full": (0, 1, 3)}
BOOST_TIMES = (0.1, 0.7)  # t of the rep cell's boosts exp(t T1), exp(t T2)
CELL_LABEL = "{}={:g}"  # label of the grid cell at k or theta = value, as "k=0.5"


@dataclass(frozen=True)
class SuiteConfig:
    """Grid of one verification run.

    ``seed`` seeds the Python ``random.Random`` from which the lie and
    classical cells draw their sample points (no ``numpy.random``).  The
    ``physical`` profile keeps only weights k in (0, 1] and projects
    with m_min = 0 (the maximal positive subspace); ``full`` runs every
    configured weight and also exercises m_min > 0 identifications.
    """

    k_values: tuple = (0.25, 0.5, 1.0, 1.5, 3.0)
    theta_values: tuple = (0.25, 0.5, 1.0)
    N: int = 64
    M: int = 48
    seed: int = 0
    profile: str = "physical"

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        k_values = tuple(_finite("k", k) for k in self.k_values)
        if not all(k > 0 for k in k_values):
            raise ConfigError("k must be positive")
        theta_values = tuple(_finite("theta", t) for t in self.theta_values)
        if not (theta_values and all(0 < t <= 1 for t in theta_values)):
            raise ConfigError(f"theta_values must be nonempty in (0, 1], got {theta_values}")
        for name, values in (("k", k_values), ("theta", theta_values)):
            labels = [CELL_LABEL.format(name, v) for v in values]
            for i, lab in enumerate(labels):
                if lab in labels[:i]:  # the cells' records would share names too
                    raise ConfigError(f"{name} values {values[labels.index(lab)]!r} and "
                                      f"{values[i]!r} share the cell label {lab}")
        if not (isinstance(self.N, int) and self.N >= 4):
            raise ConfigError(f"N must be an integer >= 4, got {self.N!r}")
        if not (isinstance(self.M, int) and self.M >= 8):
            raise ConfigError(f"M must be an integer >= 8, got {self.M!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "k_values", k_values)
        object.__setattr__(self, "theta_values", theta_values)
        if not self.active_k_values:
            raise ConfigError(f"no k_values to check (physical keeps k <= 1), got {k_values}")
        t = min(BOOST_TIMES)  # a grid that certifies no boost column cannot pass
        for k in self.active_k_values:
            if self.N < (cutoff := boost_cutoff(t, k)):
                raise ConfigError(f"N = {self.N} certifies no boost column at k = {k:g} "
                                  f"(t = {t:g}); the smallest N that does is {cutoff:.6g}")
        # the theta cells' identifications, refused before any cell runs; the
        # largest m_min has the coarsest floats
        m_min = max(THETA_M_MINS[self.profile])
        for theta in theta_values:
            if problem := theta_resolution_problem(theta, m_min, self.N):
                raise ConfigError(problem)

    @property
    def active_k_values(self):
        if self.profile == "physical":
            return tuple(k for k in self.k_values if k <= 1.0)
        return self.k_values

    @staticmethod
    def from_dict(raw: dict) -> "SuiteConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(SuiteConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:  # k_values or theta_values that is not a list
            return SuiteConfig(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# grid cells
# ---------------------------------------------------------------------------

def _max_coefficient(*series) -> float:
    """Largest coefficient modulus of the mode series (0.0 if all vanish)."""
    return worst_of(abs(complex(c)) for s in series for c in s.coeffs.values())


def _witt_sample(rng) -> lie.WittElement:
    """Modes j, k in -5..5, then coefficients a, b in -4..4, as a two-term
    element: a repeated k moves up one (5 wraps to -5), a zero reads 5."""
    j, k, a, b = (rng.randint(*r) for r in ((-5, 5), (-5, 5), (-4, 4), (-4, 4)))
    return lie.WittElement({j: a or 5, (j + 6) % 11 - 5 if k == j else k: b or 5})


def _lie_cell(rng) -> list:
    def towers():
        for l in range(1, 9):
            res = lie.witt_closure([lie.L(-l), lie.L(0), lie.L(l)])
            yield abs(res.dimension - 3) if res.closed else math.inf

    def two_dim():
        # the Borel <L_1 + 3 L_0 + 2 L_-1, -L_1 - L_0> = exp(ad L_-1) <L_0, L_1>,
        # recombined, is no coordinate span, so its closure runs the elimination
        for gens in ([lie.L(0), lie.L(2)],
                     [lie.L(1) + 3 * lie.L(0) + 2 * lie.L(-1), -lie.L(1) - lie.L(0)]):
            res = lie.witt_closure(gens)
            yield abs(res.dimension - 2) if res.closed else math.inf

    def divergent():
        res = lie.witt_closure([lie.L(1), lie.L(2)])
        return math.inf if res.closed else abs(res.witness_mode - 3)

    def jacobi():
        for _ in range(200):
            a, b, c = (_witt_sample(rng) for _ in range(3))
            jac = (lie.witt_bracket(a, lie.witt_bracket(b, c))
                   + lie.witt_bracket(b, lie.witt_bracket(c, a))
                   + lie.witt_bracket(c, lie.witt_bracket(a, b)))
            yield _max_coefficient(jac, lie.witt_bracket(a, b) + lie.witt_bracket(b, a))

    def structure_constants():
        for j, k in itertools.product(range(-4, 5), repeat=2):
            yield _max_coefficient(lie.witt_bracket(lie.L(j), lie.L(k)) - (k - j) * lie.L(j + k))

    def killing():
        for i, a in enumerate(lie._SO12_BASIS):
            for j, b in enumerate(lie._SO12_BASIS):
                yield abs(complex(lie.killing_form(a, b) - ((-2, 2, 2)[i] if i == j else 0)))

    def homomorphism():
        # integer draws: the identity is bilinear, so integers test it exactly
        for target in ("sl2r", "su11"):
            for _ in range(50):
                a, b = (lie.So12Element(*(round(8 * rng.gauss(0.0, 1.0)) for _ in range(3)))
                        for _ in range(2))
                lhs = lie.algebra_isomorphism(target, lie.so12_bracket(a, b))
                ma, mb = (lie.algebra_isomorphism(target, x) for x in (a, b))
                for i, j in itertools.product(range(2), repeat=2):
                    comm = (ma[i][0] * mb[0][j] + ma[i][1] * mb[1][j]
                            - mb[i][0] * ma[0][j] - mb[i][1] * ma[1][j])
                    yield abs(complex(lhs[i][j] - comm))

    def dictionary():
        for l in (1, 2, 3):
            for i, v in enumerate((lie.witt_T(), lie.witt_S(l), lie.witt_C(l))):
                m = lie.vector_field_to_so12(l, Fraction(1, l) * v)
                yield from (abs(complex(t - (i == j))) for j, t in enumerate((m.t0, m.t1, m.t2)))

    return judge([
        ("witt_sl2_towers", "<L_-l, L_0, L_l> closed, dim 3, l <= 8", 0.0, towers),
        ("witt_two_dim", "{L_0, L_2} and <L_1 + 3 L_0 + 2 L_-1, -L_1 - L_0> closed, dim 2", 0.0,
         two_dim),
        ("witt_divergent", "{L_1, L_2} escapes at mode 3", 0.0, divergent),
        ("witt_jacobi_exact", "Jacobi and antisymmetry, 200 triples", 0.0, jacobi),
        ("witt_structure_constants", "[L_j, L_k] = (k - j) L_{j+k}, |j|, |k| <= 4", 0.0,
         structure_constants),
        ("killing_signature", "tr(ad ad) = 2 diag(-1, 1, 1)", 0.0, killing),
        ("isomorphism_homomorphism", "2x2 images respect brackets", 0.0, homomorphism),
        ("so12_dictionary", "T/l, S_l/l, C_l/l -> T0, T1, T2", 0.0, dictionary),
    ])


def _classical_cell(rng) -> list:
    def rand_element(l):
        r = 0.7 * math.sqrt(rng.random())
        th = rng.uniform(0, 2 * math.pi)
        return cl.CoveringElement(r * cmath.exp(1j * th),
                                  rng.uniform(0, l * math.pi), l)

    def rand_point():
        return cl.PhasePoint(rng.uniform(0, 2 * math.pi),
                             math.exp(rng.uniform(-2, 2)))

    # one draw feeds five records, so the draws come before any row runs
    law, symp, trans, cone, null = [], [], [], [], []
    for _ in range(100):
        l = rng.randint(1, 3)
        g1, g2, x = rand_element(l), rand_element(l), rand_point()
        a = cl.act_lifted(g1, cl.act_lifted(g2, x))
        b = cl.act_lifted(cl.compose(g1, g2), x)
        law += [cl.angle_gap(a.phi, b.phi), abs(a.p - b.p) / max(1.0, b.p)]
        symp.append(cl.check_symplectic(g1, x))
        y = rand_point()
        g = cl.transport(x, y, l)
        z = cl.act_lifted(g, x)
        trans += [cl.angle_gap(z.phi, y.phi), abs(z.p - y.p) / y.p]
        cone.append(cl.lightcone_equivariance_residual(g1, x))
        v = cl.lightcone_map(x, l)
        null += [abs(v[0] ** 2 - v[1] ** 2 - v[2] ** 2), abs(v[0] - x.p),
                 abs(complex(v[1], v[2]) - x.p * cmath.exp(-1j * l * x.phi))]

    def effectiveness():
        for l in (2, 3):
            for j in range(1, l):
                g = cl.rotation_element(l, 2 * math.pi * j / l)
                moved = cl.angle_gap(cl.act_lifted(g, cl.PhasePoint(0.3, 1.0)).phi, 0.3)
                yield 0.0 if moved >= 1e-6 else 1.0
            g = cl.rotation_element(l, 2 * math.pi)
            yield cl.angle_gap(cl.act_lifted(g, cl.PhasePoint(0.3, 1.0)).phi, 0.3)

    def sign_gap():
        for f, g in itertools.permutations(
                [cl.TrigPoly.const(1), cl.TrigPoly.sin(1), cl.TrigPoly.cos(1)], 2):
            vf = f.product(g.derivative()) - g.product(f.derivative())
            got = cl.poisson_bracket(cl.lift_hamiltonian(f), cl.lift_hamiltonian(g))
            want = cl.MOMENTUM_MAP_SIGN * cl.lift_hamiltonian(vf)
            yield _max_coefficient((got - want).base)

    def sgp():
        for l in (1, 2, 3, 4):
            rep = cl.admissibility_audit([cl.lift_hamiltonian(f) for f in (
                cl.TrigPoly.const(1), cl.TrigPoly.sin(l), cl.TrigPoly.cos(l))])
            ok = rep.sgp_pass == (l == 1) and rep.transitive and rep.fixed_fiber is None
            yield abs(rep.period_divisor - l) if ok else math.inf

    def fixed_fiber():
        fiber = cl.admissibility_audit([
            cl.lift_hamiltonian(cl.TrigPoly.cos(1)),
            cl.lift_hamiltonian(cl.TrigPoly.const(1) + cl.TrigPoly.sin(1))]).fixed_fiber
        return math.inf if fiber is None else abs(fiber - 1.5 * math.pi)

    def auxiliary_law():
        def normal():
            return rng.gauss(0.0, 1.0)

        # (model, a draw of a group element, a draw of a point)
        models = (("affine_halfline", lambda: (normal(), math.exp(normal())),
                   lambda: (math.exp(normal()), normal())),
                  ("plane_punctured",
                   lambda: (normal() + 1j * normal(), cmath.exp(normal() + 1j * normal())),
                   lambda: (normal() + 1j * normal() + 2.0, normal() + 1j * normal())))
        for _ in range(25):
            for model, element, point in models:
                g1, g2, x = element(), element(), point()
                lhs = cl.act_auxiliary(model, g1, cl.act_auxiliary(model, g2, x))
                rhs = cl.act_auxiliary(model, cl.compose_auxiliary(model, g1, g2), x)
                yield from (abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1]))

    def affine_gap():
        got, want = cl.poisson_bracket_poly({(1, 0): 1}, {(1, 1): 1}), {(1, 0): 1}
        return (abs(got.get(m, 0) - want.get(m, 0)) for m in got.keys() | want.keys())

    stab = cl.lift_hamiltonian(cl.TrigPoly.cos(2) - cl.TrigPoly.const(1))

    def flow(h=1e-5):
        # the field against (dF/dp, -dF/dphi) from central differences of F;
        # the last row, so its points come after every other draw of the cell
        funcs = (stab, cl.lift_hamiltonian(cl.TrigPoly.const(1) + cl.TrigPoly.sin(1)),
                 cl.lift_hamiltonian(cl.TrigPoly.cos(3)))
        for x in [rand_point() for _ in range(25)]:
            for F in funcs:
                dp = F(cl.PhasePoint(x.phi, x.p + h)) - F(cl.PhasePoint(x.phi, x.p - h))
                dphi = F(cl.PhasePoint(x.phi + h, x.p)) - F(cl.PhasePoint(x.phi - h, x.p))
                for got, want in zip(cl.hamiltonian_vector_field(F, x),
                                     (dp / (2 * h), -dphi / (2 * h))):
                    yield abs(got - want) / max(1.0, abs(want))

    return judge([
        ("group_law", "act(g1 g2) = act(g1) act(g2), 100 draws", 1e-9, lambda: law),
        ("symplectic_random", "finite-difference J^T Omega J = Omega", 1e-6, lambda: symp),
        ("symplectic_rotation", "rigid shifts audit to < 1e-10", 1e-10,
         lambda: (cl.check_symplectic(cl.rotation_element(l, 1.234 + l), rand_point())
                  for l in (1, 2, 3))),
        ("transport_roundtrip", "transport(a, b) maps a to b", 1e-9, lambda: trans),
        ("lightcone_equivariance", "cone map intertwines A X A^dag", 1e-9, lambda: cone),
        ("lightcone_null", "x0^2 - x1^2 - x2^2 = 0, (x0, x1 + i x2) = (p, p e^{-il phi})", 1e-12,
         lambda: null),
        ("covering_effectiveness", "2 pi j moves points, 2 pi l does not", 1e-9,
         effectiveness),
        ("stabilizer_fixes_fiber", "p(cos 2 phi - 1) flow vanishes at phi = 0", 0.0,
         lambda: (abs(v) for p in (0.5, 1.0, 7.25)
                  for v in cl.hamiltonian_vector_field(stab, cl.PhasePoint(0.0, p)))),
        ("momentum_map_sign", "{F_v, F_w} = sigma F_[v,w], sigma = -1", 0.0, sign_gap),
        ("sgp_audit", "SGP passes iff the mode gcd is 1", 0.0, sgp),
        ("fixed_fiber_detection", "cos phi, 1 + sin phi fix phi = 3 pi/2", 1e-10,
         fixed_fiber),
        ("auxiliary_group_law", "affine and punctured-plane actions compose", 1e-9,
         auxiliary_law),
        ("auxiliary_symplectic", "auxiliary actions preserve the form", 1e-6,
         lambda: (cl.auxiliary_symplectic_residual("affine_halfline", (0.4, 2.5), (1.7, -0.3)),
                  cl.auxiliary_symplectic_residual("plane_punctured", (0.2 - 0.1j, 1.5 + 0.5j),
                                                   (1 + 1j, 0.3 - 0.2j)))),
        ("affine_bracket", "{q, qp} = q exactly", 0.0, affine_gap),
        ("hamiltonian_flow", "X_F = (dF/dp, -dF/dphi) for F = p f(phi), 25 draws", 1e-7, flow),
    ])


def _rep_cell(k: float, cfg: SuiteConfig) -> list:
    N = cfg.N
    rc = RepConfig(k=k, N=N)
    gs = build_generators("fock", rc)
    eye = TruncatedOperator.diag(np.ones(N + 1))
    cas = casimir(gs)
    cas_diag = cas.bands[0][:cas.interior]
    u_rot = rotation_rep(0.777, rc)
    # each boost exponential below is a probe block, columns of the
    # exponential of a leading block of rows; all share one cached SVD of the
    # chiral block of J (see rep._boost_svd)
    boosts = {(d, t): exp_generator(d, t, rc) for d in ("T1", "T2") for t in BOOST_TIMES}
    rows, cols = boosts["T1", BOOST_TIMES[0]].shape
    certified = {t: n for t in BOOST_TIMES if (n := min(boost_columns(t, rc), cols))}
    seen = ", ".join(f"0..{n - 1} at t={t:g}" for t, n in certified.items())
    u = phase_operator(gs)

    def boost_derivative():
        h = 1e-3 / max(1.0, boost_norm(rc))
        fd = (-exp_generator("T1", 2 * h, rc) + 8 * exp_generator("T1", h, rc)
              - 8 * exp_generator("T1", -h, rc) + exp_generator("T1", -2 * h, rc)) / (12 * h)
        return np.abs(fd - gs.T1.block(0, rows).dot(np.eye(rows, cols))).max()

    # exp(t T) H exp(-t T) = cosh t H + sinh t [T, H] is tridiagonal, so each
    # column n of exp(t T) is its eigenvector with eigenvalue k + n
    def adjoint_action():
        h, j, t1 = (op.block(0, rows) for op in (gs.H, gs.J, gs.T1))
        for t, n_cols in certified.items():
            for direction, turn in (("T1", -1 * j), ("T2", -1j * t1)):
                v = boosts[direction, t][:, :n_cols]
                a = math.cosh(t) * h + math.sinh(t) * turn
                yield np.abs(a.dot(v) - v * h.bands[0][:n_cols]).max()

    def gram_order():
        w = gram_weights(rc)  # ratios above 1 for k < 1/2, 1 at k = 1/2, below 1 above
        ordered = np.all(np.sign(w[1:] / w[:-1] - 1) == np.sign(0.5 - k))
        return 0.0 if (ordered and w[0] == 1.0) else 1.0

    def ladder_from_phase():
        gm = build_generators("fock", RepConfig(k=k, N=N, phase_convention="disc_minus"))
        return interior_residual(tplus_from_phase(gm, u), (-1, gm.Tplus))

    lab = CELL_LABEL.format("k", k)
    return judge([
        ("ladder_algebra", "[H,T+]=T+, [H,T-]=-T-, [T+,T-]=-2H", 1e-7,
         lambda: (interior_residual((1, gs.H, gs.Tplus), (-1, gs.Tplus, gs.H), (-1, gs.Tplus)),
                  interior_residual((1, gs.H, gs.Tminus), (-1, gs.Tminus, gs.H), gs.Tminus),
                  interior_residual((1, gs.Tplus, gs.Tminus), (-1, gs.Tminus, gs.Tplus),
                                    (2, gs.H)))),
        ("so12_relations", "[T0,T1]=T2, [T0,T2]=-T1, [T1,T2]=-T0", tol(N),
         lambda: (interior_residual((1, gs.H, gs.T1), (-1, gs.T1, gs.H), (-1, gs.J)),
                  interior_residual((1, gs.H, gs.J), (-1, gs.J, gs.H), (-1, gs.T1)),
                  interior_residual((1, gs.T1, gs.J), (-1, gs.J, gs.T1), gs.H))),
        ("realization_coherence", "fock = disc entrywise", 1e-12,
         lambda: ((getattr(g, band) - getattr(gs, band)).max_abs()
                  for g in [build_generators("disc", rc)] for band in ("H", "Tplus", "Tminus"))),
        ("casimir_value", "C = k(1-k) on the interior", 1e-9,
         lambda: np.abs(cas_diag - k * (1 - k)).max()),
        ("casimir_flat", "interior Casimir diagonal is constant", 1e-10,
         lambda: cas_diag.std()),
        ("rotation_unitary", "rotation representative unitary", 1e-12,
         lambda: (u_rot.adjoint() @ u_rot - eye).max_abs()),
        ("rotation_adjoint_action", "R T+ R* = e^{-2iw} T+, w = 0.777", tol(N),
         lambda: interior_residual((1, u_rot @ gs.Tplus, u_rot.adjoint()),
                                   (-1, cmath.exp(-1.554j) * gs.Tplus))),
        ("boost_derivative", "d/dt exp(t T1) at 0 = T1", 1e-8, boost_derivative),
        ("boost_adjoint_action",
         "(cosh t H + sinh t [T, H]) exp(tT) e_n = (k + n) exp(tT) e_n", 1e-11,
         adjoint_action,
         "columns " + seen if seen else "no column certified at this N"),
        ("gram_monotonicity", "weights order by k vs 1/2", 0.0, gram_order),
        ("toeplitz_measure", "density exists iff k = 1/2", 0.0,
         lambda: 0.0 if toeplitz_measure_test(rc) == (k == 0.5) else 1.0),
        ("phase_isometry", "U*U = 1", 1e-12,
         lambda: interior_residual((1, u.adjoint(), u), (-1, eye))),
        ("phase_defect", "UU* = 1 - P_0", 1e-12,
         lambda: (u @ u.adjoint() - (eye - TruncatedOperator.diag(np.eye(1, N + 1)[0])))
         .max_abs()),
        ("ladder_from_phase", "T+ = -(1/hbar) sqrt((p+(k-1)hbar)(p-k hbar)) U", 1e-8,
         ladder_from_phase),
    ], lab) + sincos_operators(gs, lab) + conjugate_realizations(rc, lab)


def _theta_cell(theta: float, cfg: SuiteConfig) -> list:
    lab = CELL_LABEL.format("theta", theta)
    space = ThetaSpace(theta, range(-cfg.M, cfg.M + 1))
    u, p = space.shift(), space.momentum()
    out = judge([
        ("cylinder_commutator", "[U, p] = -hbar U", 1e-12,
         lambda: interior_residual((1, u, p), (-1, p, u), u, trim_bottom=1)),
    ], lab) + isometry_report(ProjectedSpace(space, 0), lab)
    for m_min in THETA_M_MINS[cfg.profile]:
        out += identification_report(theta, m_min, cfg.N, label=f"{lab},m_min={m_min}")
    return out


def run_suite(config: SuiteConfig) -> CheckReport:
    """Execute every check suite over the configuration grid.

    Deterministic for a given seed, which seeds the one ``random.Random``
    that the lie and classical cells draw from in turn (no ``numpy.random``);
    the verdict is the conjunction of all records, each judged at its pinned
    tolerance.
    """
    rng = random.Random(config.seed)
    checks = _lie_cell(rng) + _classical_cell(rng)
    for k in config.active_k_values:
        checks += _rep_cell(k, config)
    for theta in config.theta_values:
        checks += _theta_cell(theta, config)
    checks += halfline_demo()
    return CheckReport(checks, meta={
        "profile": config.profile,
        "seed": config.seed,
        "momentum_map_sign": cl.MOMENTUM_MAP_SIGN,
    })
