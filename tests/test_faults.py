"""Fault table: each row injects one plausible fault into the program and
names the records that must fail on it, so that no check passes a wrong
program unseen."""

import dataclasses
import json
import math

import numpy as np
import pytest

from halfcyl import classical, equivalence, lie, projection, suite
from halfcyl.cli import main
from halfcyl.rep import TruncatedOperator
from halfcyl.suite import SuiteConfig, run_suite


_admissibility_audit = classical.admissibility_audit
_exp_generator = suite.exp_generator
_build_generators = suite.build_generators
_log_grid_operators = projection._log_grid_operators
_witt_bracket = lie.witt_bracket
_so12_bracket = lie.so12_bracket
_algebra_isomorphism = lie.algebra_isomorphism
_normalization_diagonal = equivalence.normalization_diagonal
_phase_operator = equivalence.phase_operator
_theta_shift = projection.ThetaSpace.shift
_theta_momentum = projection.ThetaSpace.momentum
_transport = classical.transport
_lightcone_map = classical.lightcone_map
_hamiltonian_vector_field = classical.hamiltonian_vector_field


def _reversed_boost(direction):
    """exp_generator with exp(t T) replaced by exp(-t T) in one direction."""
    def fault(d, t, config):
        return _exp_generator(d, -t if d == direction else t, config)

    return fault


def _shifted_spectrum(config, hbar):
    """spectrum_p one level up: hbar (k + 1 + n), still positive with spacing hbar."""
    return hbar * (config.k + 1 + np.arange(config.N + 1))


def _scaled_entry(op, offset, index, factor):
    """``op`` with entry ``index`` of its diagonal ``offset`` times ``factor``."""
    band = op.bands[offset].copy()
    band[index] *= factor
    return TruncatedOperator({**op.bands, offset: band}, op.dim, op.reach)


def _perturbed_normalization(config):
    """normalization_diagonal with c_3 off by a relative 1e-6."""
    c = _normalization_diagonal(config).copy()
    c[3] *= 1 + 1e-6
    return c


def _forward_log_grid(n_points, hbar):
    """_log_grid_operators with the forward difference (-i hbar / h)(dil* - 1)
    for the scaling generator."""
    x, q, dil, _, _ = _log_grid_operators(n_points, hbar)
    h, eye = projection.HALFLINE_BOX / n_points, TruncatedOperator.diag(np.ones(n_points))
    qp = (-1j * hbar / h) * (dil.adjoint() - eye)
    return x, q, dil, qp, TruncatedOperator.diag(np.exp(-x)) @ qp


def _entry_off(target, band, offset):
    """build_generators with entry 5 of the ``target`` realization's ``band``
    (its diagonal ``offset``) off by a relative 1e-6."""
    def fault(realization, config):
        gs = _build_generators(realization, config)
        if realization != target:
            return gs
        op = _scaled_entry(getattr(gs, band), offset, 5, 1 + 1e-6)
        return dataclasses.replace(gs, **{band: op})

    return fault


def _symmetric_bracket(a, b):
    """witt_bracket with (k + j) L_{j+k} for (k - j) L_{j+k}: not antisymmetric."""
    out = lie.WittElement()
    for j, c in a.coeffs.items():
        for k, d in b.coeffs.items():
            out = out + lie.WittElement({j + k: (k + j) * c * d})
    return out


class _AllButLast(list):
    """A list whose iteration leaves out its last entry."""

    def __iter__(self):
        return iter(self[:-1])


class _SpanSkippingLowestPivot(lie._ExactSpan):
    """_ExactSpan that never reduces against its lowest pivot."""

    def __init__(self):
        super().__init__()
        self.rows = _AllButLast()


class _AllButLowest(set):
    """A set that does not report holding its lowest member."""

    def __contains__(self, j):
        return set.__contains__(self, j) and j != min(self)


class _SpanMissingLowestMode(lie._ExactSpan):
    """_ExactSpan whose coordinate test leaves out its lowest mode."""

    def __init__(self):
        super().__init__()
        self.modes = _AllButLowest()


def _lightcone_map_doubled(x, l=1):
    """lightcone_map scaled by 2: still null, positive and equivariant."""
    return tuple(2 * c for c in _lightcone_map(x, l))


def _su11_t2_off(target, a):
    """algebra_isomorphism with the su(1,1) image of T2 off by a relative 1e-13."""
    m = _algebra_isomorphism(target, a)
    if target != "su11":
        return m
    d = _algebra_isomorphism(target, lie.So12Element(0, 0, 1e-13 * a.t2))
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(m, d))


def _so12_bracket_t0_off(a, b):
    """so12_bracket with its T0 component off by a relative 1e-13."""
    c = _so12_bracket(a, b)
    return lie.So12Element((1 + 1e-13) * c.t0, c.t1, c.t2)


def _transport_without_final_rotation(a, b, l=1):
    """transport with the rotation taking phi = 0 to b.phi left out."""
    g = _transport(a, b, l)
    return classical.CoveringElement(g.gamma, g.omega - 0.5 * l * b.phi, l)


# (fault id, dotted name of the replaced attribute, its replacement, base
# names of the records that must fail: every record of that base name, the
# unlabeled ones of the lie and classical cells and the labeled ones of
# every grid cell)
FAULTS = [
    ("exp(-t T1) for exp(t T1)", "halfcyl.suite.exp_generator", _reversed_boost("T1"),
     {"boost_adjoint_action", "boost_derivative"}),
    ("exp(-t T2) for exp(t T2)", "halfcyl.suite.exp_generator", _reversed_boost("T2"),
     {"boost_adjoint_action"}),
    ("spec p = hbar(k + 1 + n)", "halfcyl.suite.spectrum_p", _shifted_spectrum,
     {"spectrum_positive"}),
    ("MOMENTUM_MAP_SIGN = +1", "halfcyl.classical.MOMENTUM_MAP_SIGN", 1,
     {"momentum_map_sign"}),
    ("[L_j, L_k] = (k + j) L_{j+k}", "halfcyl.lie.witt_bracket", _symmetric_bracket,
     {"witt_jacobi_exact"}),
    # Jacobi, antisymmetry and the closure dimensions are blind to a rescaled
    # bracket; only the structure constants see its sign and size
    ("-[a, b] for [a, b]", "halfcyl.lie.witt_bracket",
     lambda a, b: -_witt_bracket(a, b), {"witt_structure_constants"}),
    ("2[a, b] for [a, b]", "halfcyl.lie.witt_bracket",
     lambda a, b: 2 * _witt_bracket(a, b), {"witt_structure_constants"}),
    # the sl(2) towers are coordinate spans, decided from the support alone;
    # only a span that is no coordinate span runs the elimination
    ("span never reduces against its lowest pivot", "halfcyl.lie._ExactSpan",
     _SpanSkippingLowestPivot, {"witt_two_dim"}),
    ("coordinate span misses its lowest mode", "halfcyl.lie._ExactSpan",
     _SpanMissingLowestMode, {"witt_sl2_towers"}),
    # {L_1, L_2} is a coordinate span whose bracket escapes it; every other
    # closure record closes, so a skipped bracket changes no other verdict
    ("coordinate span claims every bracket", "halfcyl.lie._ExactSpan.holds_bracket",
     lambda span, a, b: len(span.rows) == len(span.modes), {"witt_divergent"}),
    # the so(1,2) identities are exact, so a relative 1e-13 shows at tol 0
    ("su(1,1) image of T2 x (1 + 1e-13)", "halfcyl.lie.algebra_isomorphism", _su11_t2_off,
     {"isomorphism_homomorphism"}),
    ("so12_bracket T0 part x (1 + 1e-13)", "halfcyl.lie.so12_bracket", _so12_bracket_t0_off,
     {"killing_signature", "isomorphism_homomorphism"}),
    ("transport omits the final rotation", "halfcyl.classical.transport",
     _transport_without_final_rotation, {"transport_roundtrip"}),
    ("lightcone_map x 2", "halfcyl.classical.lightcone_map", _lightcone_map_doubled,
     {"lightcone_null"}),
    # the field still vanishes where F's base field does, so only its
    # comparison with the derivatives of F sees the scale
    ("hamiltonian_vector_field x 2", "halfcyl.classical.hamiltonian_vector_field",
     lambda F, x: tuple(2 * v for v in _hamiltonian_vector_field(F, x)), {"hamiltonian_flow"}),
    ("audit reads only the first generator", "halfcyl.classical.admissibility_audit",
     lambda gens: _admissibility_audit(list(gens)[:1]), {"fixed_fiber_detection", "sgp_audit"}),
    # the module checkers' records
    ("c_3 x (1 + 1e-6)", "halfcyl.equivalence.normalization_diagonal",
     _perturbed_normalization, {"conjugation_T+", "conjugation_T-"}),
    ("phase operator subdiagonal entry 2 x 1.001", "halfcyl.equivalence.phase_operator",
     lambda gs: _scaled_entry(_phase_operator(gs), -1, 2, 1.001),
     {"sincos_square_anomaly", "diagram_commutes"}),
    # entry -window.start maps m = 0 to m = 1 in every window of the suite,
    # the first entry of the projected shift at m_min = 0, which the
    # identification compares too
    ("cylinder shift middle entry x 1.001", "halfcyl.projection.ThetaSpace.shift",
     lambda space: _scaled_entry(_theta_shift(space), -1, -space.window.start, 1.001),
     {"projected_shift_isometry", "projected_shift_defect", "defect_rank_one",
      "parent_shift_unitary", "diagram_commutes"}),
    # mode 3 lies in every window of the suite and in the rows that each
    # identification compares, at m_min = 0, 1 and 3
    ("theta momentum entry m = 3 x (1 + 1e-9)", "halfcyl.projection.ThetaSpace.momentum",
     lambda space: _scaled_entry(_theta_momentum(space), 0, 3 - space.window.start, 1 + 1e-9),
     {"cylinder_commutator", "spectra_match"}),
    # the leading block is a shift too, so only the spectrum sees which block
    # the projection took
    ("project returns the leading block", "halfcyl.projection.ProjectedSpace.project",
     lambda ps, op: op.block(0, ps.dim), {"spectra_match"}),
    ("forward-difference scaling generator", "halfcyl.projection._log_grid_operators",
     _forward_log_grid, {"scaling_hermitean", "commutator_order"}),
    # realization_coherence compares every band of disc with fock
    ("disc H entry 5 x (1 + 1e-6)", "halfcyl.suite.build_generators",
     _entry_off("disc", "H", 0), {"realization_coherence"}),
    ("disc T- entry 5 x (1 + 1e-6)", "halfcyl.suite.build_generators",
     _entry_off("disc", "Tminus", 1), {"realization_coherence"}),
    # the conjugation compares boundary, carried to the orthonormal basis, with fock
    ("boundary T+ entry 5 x (1 + 1e-6)", "halfcyl.equivalence.build_generators",
     _entry_off("boundary", "Tplus", -1), {"conjugation_T+"}),
]


@pytest.mark.parametrize("config", [SuiteConfig(), SuiteConfig(N=256, M=256)],
                         ids=["default", "N=M=256"])
@pytest.mark.parametrize("target, fault, must_fail", [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_fault_fails_its_records(monkeypatch, config, target, fault, must_fail):
    monkeypatch.setattr(target, fault)
    checks = run_suite(config).checks
    for base in must_fail:
        records = [r for r in checks if r.name.split("[")[0] == base]
        assert records and not any(r.passed for r in records)
        # a residual that raised reads NaN (judge's mark): the record must
        # fail through the fault, not through a call the fault broke
        assert not any(math.isnan(r.residual) for r in records)


@pytest.mark.parametrize("hbar", [567.8, 1e-3])
def test_theta_momentum_fault_fails_at_any_hbar(monkeypatch, hbar):
    # cylinder_commutator is judged relative to hbar, which must still see
    # a relative 1e-9 in one momentum entry far from hbar = 1
    row = next(row for row in FAULTS if row[0] == "theta momentum entry m = 3 x (1 + 1e-9)")
    test_fault_fails_its_records(monkeypatch, SuiteConfig(hbar=hbar, profile="full"), *row[1:])


def test_momentum_map_sign_fault_reports_the_coefficient_gap(monkeypatch):
    # with sigma = +1 each {F_v, F_w} - sigma F_[v,w] is -2 F_[v,w]; the
    # largest coefficient, 2, is that of {F_sin, F_cos} = -(-1) p
    monkeypatch.setattr("halfcyl.classical.MOMENTUM_MAP_SIGN", 1)
    rec = next(r for r in run_suite(SuiteConfig()).checks if r.name == "momentum_map_sign")
    assert rec.residual == 2.0 and not rec.passed


def test_raising_residual_fails_only_its_record(monkeypatch, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k_values": [0.5], "theta_values": [1.0],
                                "N": 16, "M": 16}))
    assert main(["verify", "--config", str(path)]) == 0
    clean = json.loads(capsys.readouterr().out)

    def broken(config):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(suite, "toeplitz_measure_test", broken)
    assert main(["verify", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    # the FAIL line names the exception, not only the NaN it left behind
    assert err.splitlines() == ["FAIL toeplitz_measure[k=0.5]: residual nan > tol 0.0e+00"
                                " -- ZeroDivisionError: injected"]
    doc = json.loads(out)
    assert [c for c in doc["checks"] if not c["pass"]] == [{
        "name": "toeplitz_measure[k=0.5]", "anchor": "density exists iff k = 1/2",
        "residual": None, "tol": 0.0, "pass": False,
        "note": "ZeroDivisionError: injected"}]
    assert [c["name"] for c in doc["checks"]] == [c["name"] for c in clean["checks"]]


def test_raising_module_residuals_fail_only_their_records(monkeypatch, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k_values": [0.5], "theta_values": [1.0],
                                "N": 16, "M": 16}))
    assert main(["verify", "--config", str(path)]) == 0
    clean = json.loads(capsys.readouterr().out)

    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr("halfcyl.equivalence.interior_residual", broken)
    monkeypatch.setattr("halfcyl.projection.interior_residual", broken)
    monkeypatch.setattr("halfcyl.projection.np.linalg.matrix_rank", broken)
    monkeypatch.setattr("halfcyl.equivalence.normalization_diagonal", broken)
    assert main(["verify", "--config", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [c for c in doc["checks"] if not c["pass"]]
    assert {c["name"] for c in failed} == {
        *(f"{name}[k=0.5]" for name in (
            "sincos_square_anomaly", "sincos_commutator_anomaly", "rotation_flow_sin",
            "rotation_flow_cos", "conjugation_T+", "conjugation_T-",
            "identity_similarity_at_half")),
        *(f"{name}[theta=1]" for name in (
            "projected_shift_isometry", "defect_rank_one", "parent_shift_unitary"))}
    assert all(c["residual"] is None and c["note"] == "ZeroDivisionError: injected"
               for c in failed)
    assert [c["name"] for c in doc["checks"]] == [c["name"] for c in clean["checks"]]
