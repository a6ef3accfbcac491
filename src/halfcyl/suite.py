"""Batch verification: run every module's check suite over a config grid.

Each grid cell (one k or one theta) is a pure function of the config and
the seed.  Every record is judged once, where it is made, at the pinned
tolerance it carries; the config sets only the grid.  A module's
sub-report joins the suite record by record through ``report.splice``:
``sin_hermitean`` becomes ``sin_hermitean[k=0.5]`` and keeps its residual,
tolerance and verdict.  Identical config and seed give a byte-identical
JSON report up to the timestamp header.
"""

from __future__ import annotations

import cmath
import datetime
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import classical as cl
from . import lie
from .equivalence import (conjugate_realizations, identification_report,
                          phase_operator, sincos_operators, tplus_from_phase)
from .projection import ProjectedSpace, ThetaSpace, halfline_demo, isometry_report
from .report import CheckReport, check, metric, splice, worst_of
from .rep import (RepConfig, TruncatedOperator, boost_norm, build_generators,
                  casimir, commutator, exp_generator, gram_weights,
                  interior_residual, rotation_rep, spectrum_p,
                  toeplitz_measure_test, tol)

__all__ = ["SuiteConfig", "ConfigError", "run_suite", "emit_spectrum", "PROFILES"]

PROFILES = ("physical", "full")


# m_min values of the identification check in each profile's theta cell
THETA_M_MINS = {"physical": (0,), "full": (0, 1, 3)}


class ConfigError(ValueError):
    """Raised for schema violations in a suite config (CLI exit code 2)."""


def _finite(name, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


@dataclass(frozen=True)
class SuiteConfig:
    """Grid of one verification run.

    The ``physical`` profile keeps only weights k in (0, 1] and projects
    with m_min = 0 (the maximal positive subspace); ``full`` runs every
    configured weight and also exercises m_min > 0 identifications.
    """

    k_values: tuple = (0.25, 0.5, 1.0, 1.5, 3.0)
    theta_values: tuple = (0.25, 0.5, 1.0)
    N: int = 64
    M: int = 48
    hbar: float = 1.0
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
        if not (isinstance(self.N, int) and self.N >= 4):
            raise ConfigError(f"N must be an integer >= 4, got {self.N!r}")
        if not (isinstance(self.M, int) and self.M >= 8):
            raise ConfigError(f"M must be an integer >= 8, got {self.M!r}")
        m_min = max(THETA_M_MINS[self.profile])
        if self.M - m_min - 2 < 4:
            raise ConfigError(f"M must be >= {m_min + 6} for the identification at "
                              f"m_min = {m_min} ({self.profile} profile), got {self.M}")
        hbar = _finite("hbar", self.hbar)
        if not hbar > 0:
            raise ConfigError("hbar must be positive")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "k_values", k_values)
        object.__setattr__(self, "theta_values", theta_values)
        if not self.active_k_values:
            raise ConfigError(f"no k_values to check (physical keeps k <= 1), got {k_values}")

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

def _lie_cell(rng) -> list:
    out = []
    worst_dim = 0
    for l in range(1, 9):
        res = lie.witt_closure([lie.L(-l), lie.L(0), lie.L(l)])
        if not (res.closed and res.dimension == 3):
            worst_dim = -1
            break
        worst_dim = max(worst_dim, res.dimension)
    out.append(check("witt_sl2_towers", "<L_-l, L_0, L_l> closed, dim 3, l <= 8",
                     0.0 if worst_dim == 3 else 1.0, 0.0))
    two = lie.witt_closure([lie.L(0), lie.L(2)])
    out.append(check("witt_two_dim", "{L_0, L_2} closed, dim 2",
                     0.0 if (two.closed and two.dimension == 2) else 1.0, 0.0))
    bad = lie.witt_closure([lie.L(1), lie.L(2)])
    out.append(check("witt_divergent", "{L_1, L_2} escapes at mode 3",
                     0.0 if (not bad.closed and bad.witness_mode == 3) else 1.0, 0.0))

    worst = 0.0
    for _ in range(200):
        elems = []
        for _ in range(3):
            modes = rng.integers(-5, 6, size=2)
            coeffs = rng.integers(-4, 5, size=2)
            elems.append(lie.WittElement({int(m): int(c) for m, c in zip(modes, coeffs)}))
        a, b, c = elems
        jac = (lie.witt_bracket(a, lie.witt_bracket(b, c))
               + lie.witt_bracket(b, lie.witt_bracket(c, a))
               + lie.witt_bracket(c, lie.witt_bracket(a, b)))
        anti = lie.witt_bracket(a, b) + lie.witt_bracket(b, a)
        if not (jac.is_zero and anti.is_zero):
            worst = 1.0
    out.append(check("witt_jacobi_exact", "Jacobi and antisymmetry, 200 triples",
                     worst, 0.0))

    basis = (lie.So12Element(1, 0, 0), lie.So12Element(0, 1, 0), lie.So12Element(0, 0, 1))
    kform = np.array([[lie.killing_form(a, b) for b in basis] for a in basis])
    out.append(check("killing_signature", "tr(ad ad) = 2 diag(-1, 1, 1)",
                     float(np.abs(kform - 2 * np.diag([-1.0, 1, 1])).max()), 1e-12))
    hom = []
    for target in ("sl2r", "su11"):
        for _ in range(50):
            a = lie.So12Element(*rng.normal(size=3))
            b = lie.So12Element(*rng.normal(size=3))
            lhs = lie.algebra_isomorphism(target, lie.so12_bracket(a, b))
            ma, mb = (lie.algebra_isomorphism(target, x) for x in (a, b))
            hom.append(np.abs(lhs - (ma @ mb - mb @ ma)).max())
    out.append(check("isomorphism_homomorphism", "2x2 images respect brackets",
                     worst_of(hom), 1e-12))
    dict_res = []
    for l in (1, 2, 3):
        maps = [lie.vector_field_to_so12(l, v)
                for v in ((1 / l) * lie.witt_T(), (1 / l) * lie.witt_S(l),
                          (1 / l) * lie.witt_C(l))]
        got = np.array([m.as_array() for m in maps])
        dict_res.append(np.abs(got - np.eye(3)).max())
    out.append(check("so12_dictionary", "T/l, S_l/l, C_l/l -> T0, T1, T2",
                     worst_of(dict_res), 1e-15))
    return out


def _classical_cell(rng) -> list:
    out = []

    def rand_element(l):
        r = 0.7 * math.sqrt(rng.uniform())
        th = rng.uniform(0, 2 * math.pi)
        return cl.CoveringElement(r * cmath.exp(1j * th),
                                  rng.uniform(0, l * math.pi), l)

    def rand_point():
        return cl.PhasePoint(rng.uniform(0, 2 * math.pi),
                             math.exp(rng.uniform(-2, 2)))

    law, symp, trans, cone, null = [], [], [], [], []
    for _ in range(100):
        l = int(rng.integers(1, 4))
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
        null.append(abs(v[0] ** 2 - v[1] ** 2 - v[2] ** 2))
    out.append(check("group_law", "act(g1 g2) = act(g1) act(g2), 100 draws",
                     worst_of(law), 1e-9))
    out.append(check("symplectic_random", "finite-difference J^T Omega J = Omega",
                     worst_of(symp), 1e-6))
    rot_res = worst_of(cl.check_symplectic(cl.rotation_element(l, 1.234 + l), rand_point())
                       for l in (1, 2, 3))
    out.append(check("symplectic_rotation", "rigid shifts audit to < 1e-10",
                     rot_res, 1e-10))
    out.append(check("transport_roundtrip", "transport(a, b) maps a to b",
                     worst_of(trans), 1e-9))
    out.append(check("lightcone_equivariance", "cone map intertwines A X A^dag",
                     worst_of(cone), 1e-9))
    out.append(check("lightcone_null", "x0^2 - x1^2 - x2^2 = 0",
                     worst_of(null), 1e-12))

    eff = 0.0
    for l in (2, 3):
        for j in range(1, l):
            g = cl.rotation_element(l, 2 * math.pi * j / l)
            moved = cl.angle_gap(cl.act_lifted(g, cl.PhasePoint(0.3, 1.0)).phi, 0.3)
            if not moved >= 1e-6:
                eff = 1.0
        g = cl.rotation_element(l, 2 * math.pi)
        moved = cl.angle_gap(cl.act_lifted(g, cl.PhasePoint(0.3, 1.0)).phi, 0.3)
        eff = worst_of((eff, moved))
    out.append(check("covering_effectiveness", "2 pi j moves points, 2 pi l does not",
                     eff, 1e-9))

    stab = cl.lift_hamiltonian(cl.TrigPoly.cos(2) - cl.TrigPoly.const(1))
    flow = worst_of(abs(v) for p in (0.5, 1.0, 7.25)
                    for v in cl.hamiltonian_vector_field(stab, cl.PhasePoint(0.0, p)))
    out.append(check("stabilizer_fixes_fiber", "p(cos 2 phi - 1) flow vanishes at phi = 0",
                     flow, 0.0))

    sign_stable = 0.0
    fields = [cl.TrigPoly.const(1), cl.TrigPoly.sin(1), cl.TrigPoly.cos(1)]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            f, g = fields[i], fields[j]
            vf = f.product(g.derivative()) - g.product(f.derivative())
            got = cl.poisson_bracket(cl.lift_hamiltonian(f), cl.lift_hamiltonian(g))
            want = cl.MOMENTUM_MAP_SIGN * cl.lift_hamiltonian(vf)
            if got != want:
                sign_stable = 1.0
    out.append(check("momentum_map_sign", "{F_v, F_w} = sigma F_[v,w], sigma = -1",
                     sign_stable, 0.0))

    sgp = 0.0
    for l in (1, 2, 3, 4):
        gens = [cl.lift_hamiltonian(f) for f in
                (cl.TrigPoly.const(1), cl.TrigPoly.sin(l), cl.TrigPoly.cos(l))]
        rep = cl.admissibility_audit(gens)
        if rep.sgp_pass != (l == 1) or not rep.transitive or rep.fixed_fiber is not None:
            sgp = 1.0
    out.append(check("sgp_audit", "SGP passes iff the mode gcd is 1",
                     sgp, 0.0))
    fiber = cl.admissibility_audit([
        cl.lift_hamiltonian(cl.TrigPoly.cos(1)),
        cl.lift_hamiltonian(cl.TrigPoly.const(1) + cl.TrigPoly.sin(1))])
    fiber_err = (abs(fiber.fixed_fiber - 1.5 * math.pi)
                 if fiber.fixed_fiber is not None else math.inf)
    out.append(check("fixed_fiber_detection", "cos phi, 1 + sin phi fix phi = 3 pi/2",
                     fiber_err, 1e-10))

    aux = []
    for _ in range(25):
        g1 = (rng.normal(), math.exp(rng.normal()))
        g2 = (rng.normal(), math.exp(rng.normal()))
        x = (math.exp(rng.normal()), rng.normal())
        lhs = cl.act_auxiliary("affine_halfline", g1,
                               cl.act_auxiliary("affine_halfline", g2, x))
        rhs = cl.act_auxiliary("affine_halfline",
                               cl.compose_auxiliary("affine_halfline", g1, g2), x)
        aux += [abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1])]
        c1 = (rng.normal() + 1j * rng.normal(), cmath.exp(rng.normal() + 1j * rng.normal()))
        c2 = (rng.normal() + 1j * rng.normal(), cmath.exp(rng.normal() + 1j * rng.normal()))
        z = (rng.normal() + 1j * rng.normal() + 2.0, rng.normal() + 1j * rng.normal())
        lhs = cl.act_auxiliary("plane_punctured", c1,
                               cl.act_auxiliary("plane_punctured", c2, z))
        rhs = cl.act_auxiliary("plane_punctured",
                               cl.compose_auxiliary("plane_punctured", c1, c2), z)
        aux += [abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1])]
    out.append(check("auxiliary_group_law", "affine and punctured-plane actions compose",
                     worst_of(aux), 1e-9))
    symp = worst_of((
        cl.auxiliary_symplectic_residual("affine_halfline", (0.4, 2.5), (1.7, -0.3)),
        cl.auxiliary_symplectic_residual("plane_punctured",
                                         (0.2 - 0.1j, 1.5 + 0.5j), (1 + 1j, 0.3 - 0.2j))))
    out.append(check("auxiliary_symplectic", "auxiliary actions preserve the form",
                     symp, 1e-6))
    br = cl.poisson_bracket_poly({(1, 0): 1}, {(1, 1): 1})
    out.append(check("affine_bracket", "{q, qp} = q exactly",
                     0.0 if br == {(1, 0): 1} else 1.0, 0.0))
    return out


def _rep_cell(k: float, cfg: SuiteConfig) -> list:
    N = cfg.N
    out = []
    rc = RepConfig(k=k, N=N, hbar=cfg.hbar)
    gs = build_generators("fock", rc)
    lab = f"k={k:g}"
    eye = TruncatedOperator.diag(np.ones(N + 1))

    ladder = worst_of((
        interior_residual(commutator(gs.H, gs.Tplus) - gs.Tplus),
        interior_residual(commutator(gs.H, gs.Tminus) + gs.Tminus),
        interior_residual(commutator(gs.Tplus, gs.Tminus) + 2 * gs.H)))
    out.append(check(f"ladder_algebra[{lab}]", "[H,T+]=T+, [H,T-]=-T-, [T+,T-]=-2H",
                     ladder, 1e-7))
    so12 = worst_of((
        interior_residual(commutator(gs.T0, gs.T1) - gs.T2),
        interior_residual(commutator(gs.T0, gs.T2) + gs.T1),
        interior_residual(commutator(gs.T1, gs.T2) + gs.T0)))
    out.append(check(f"so12_relations[{lab}]", "[T0,T1]=T2, [T0,T2]=-T1, [T1,T2]=-T0",
                     so12, tol(N)))
    out.append(check(f"adjointness[{lab}]", "T- = T+ adjoint (orthonormal basis)",
                     (gs.Tminus - gs.Tplus.adjoint()).max_abs(), 0.0))
    coh = worst_of((build_generators(r, rc).Tplus - gs.Tplus).max_abs()
                   for r in ("disc", "hardy"))
    out.append(check(f"realization_coherence[{lab}]", "fock = disc = hardy entrywise",
                     coh, 1e-12))
    cas = casimir(gs)
    diag = cas.bands[0][:cas.interior].real
    out.append(check(f"casimir_value[{lab}]", "C = k(1-k) on the interior",
                     float(np.abs(diag - k * (1 - k)).max()), 1e-9))
    out.append(check(f"casimir_flat[{lab}]", "interior Casimir diagonal is constant",
                     float(diag.std()), 1e-10))
    spec = spectrum_p(rc)
    spec_bad = 0.0 if (spec.min() > 0 and np.abs(np.diff(spec) - cfg.hbar).max() < 1e-12) else 1.0
    out.append(check(f"spectrum_positive[{lab}]", "spec p = hbar(k + n), spacing hbar",
                     spec_bad, 0.0))
    u_rot = rotation_rep(0.777, rc)
    out.append(check(f"rotation_unitary[{lab}]", "rotation representative unitary",
                     (u_rot.adjoint() @ u_rot - eye).max_abs(), 1e-12))
    gexp = np.exp(-1.554 * gs.T0.bands[0])
    out.append(check(f"rotation_exponential[{lab}]", "exp(-2 omega T0) = rotation matrix",
                     float(np.abs(gexp - u_rot.bands[0]).max()), 1e-12))
    # the boost exponentials are dense; the five below share one eigendecomposition
    h = 1e-3 / max(1.0, boost_norm(rc))
    fd = (-exp_generator("T1", 2 * h, rc) + 8 * exp_generator("T1", h, rc)
          - 8 * exp_generator("T1", -h, rc) + exp_generator("T1", -2 * h, rc)) / (12 * h)
    out.append(check(f"boost_derivative[{lab}]", "d/dt exp(t T1) at 0 = T1",
                     float(np.abs(fd - gs.T1.matrix).max()), 1e-8))
    half = N // 2 + 1
    e1 = exp_generator("T1", 0.1, rc)[:, :half]
    leak = float(np.abs(e1.conj().T @ e1 - np.eye(half)).max())
    out.append(metric(f"boost_truncation_leakage[{lab}]",
                      "interior unitarity defect of exp(0.1 T1)", leak,
                      note="truncation leakage: reported, never asserted"))
    w = gram_weights(rc)
    ratios = w[1:] / w[:-1]
    if k < 0.5:
        mono_ok = bool(np.all(ratios > 1))
    elif k == 0.5:
        mono_ok = bool(np.all(ratios == 1))
    else:
        mono_ok = bool(np.all(ratios < 1))
    out.append(check(f"gram_monotonicity[{lab}]", "weights order by k vs 1/2",
                     0.0 if (mono_ok and w[0] == 1.0) else 1.0, 0.0))
    out.append(check(f"toeplitz_measure[{lab}]", "density exists iff k = 1/2",
                     0.0 if toeplitz_measure_test(rc) == (k == 0.5) else 1.0, 0.0))

    u = phase_operator(gs)
    p0 = TruncatedOperator.diag(np.eye(1, N + 1)[0])
    out.append(check(f"phase_isometry[{lab}]", "U*U = 1",
                     interior_residual(u.adjoint() @ u, eye), 1e-12))
    out.append(check(f"phase_defect[{lab}]", "UU* = 1 - P_0",
                     (u @ u.adjoint() - (eye - p0)).max_abs(), 1e-12))
    gm = build_generators("fock", RepConfig(k=k, N=N, hbar=cfg.hbar,
                                            phase_convention="disc_minus"))
    rec = tplus_from_phase(gm, u)
    out.append(check(f"ladder_from_phase[{lab}]",
                     "T+ = -(1/hbar) sqrt((p+(k-1)hbar)(p-k hbar)) U",
                     interior_residual(rec - gm.Tplus), 1e-8))
    _, _, screp = sincos_operators(gs)
    out += splice(screp, lab)
    out += splice(conjugate_realizations(rc), lab)
    return out


def _theta_cell(theta: float, cfg: SuiteConfig) -> list:
    out = []
    lab = f"theta={theta:g}"
    space = ThetaSpace(theta, cfg.M, cfg.hbar)
    u, p = space.shift(), space.momentum()
    out.append(check(f"cylinder_commutator[{lab}]", "[U, p] = -hbar U",
                     interior_residual((u @ p - p @ u) + cfg.hbar * u, trim_bottom=1),
                     1e-12))
    out += splice(isometry_report(ProjectedSpace(space, 0)), lab)
    for m_min in THETA_M_MINS[cfg.profile]:
        rep = identification_report(ProjectedSpace(space, m_min), N=cfg.N)
        out += splice(rep, f"{lab},m_min={m_min}")
    return out


def run_suite(config: SuiteConfig) -> CheckReport:
    """Execute every check suite over the configuration grid.

    Deterministic for a given seed; the verdict is the conjunction of all
    asserted checks (reported-only metrics never count).
    """
    rng = np.random.default_rng(config.seed)
    report = CheckReport(meta={
        "profile": config.profile,
        "seed": config.seed,
        "momentum_map_sign": cl.MOMENTUM_MAP_SIGN,
        "svd_rank_threshold": lie.FLOAT_RANK_THRESHOLD,
    })
    report.extend(_lie_cell(rng))
    report.extend(_classical_cell(rng))
    for k in config.active_k_values:
        report.extend(_rep_cell(k, config))
    for theta in config.theta_values:
        report.extend(_theta_cell(theta, config))
    report.extend(halfline_demo(64, 4.0, config.hbar).checks)
    return report


def emit_spectrum(k: float, N: int, hbar: float = 1.0, fmt: str = "table"):
    """Render the momentum spectrum hbar (k + n), n = 0..N."""
    if not _finite("k", k) > 0:
        raise ConfigError("k must be positive")
    if not _finite("hbar", hbar) > 0:
        raise ConfigError("hbar must be positive")
    if N < 0:
        raise ConfigError("N must be nonnegative")
    values = [hbar * (k + n) for n in range(N + 1)]
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"the levels hbar (k + n) overflow at k = {k}, hbar = {hbar}")
    if fmt == "table":
        return "\n".join(f"{n:4d}  {v:.12g}" for n, v in enumerate(values))
    if fmt == "json":
        import json
        return json.dumps({"k": k, "N": N, "hbar": hbar, "spectrum": values}, allow_nan=False)
    raise ConfigError(f"unknown format {fmt!r}")


def report_header() -> dict:
    return {"generated_at": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")}
