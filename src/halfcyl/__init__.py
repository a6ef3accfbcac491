"""Quantizations of the half-cylinder phase space S^1 x R+, as finite,
machine-checkable structures: exact Witt/so(1,2) bracket engines, the
covering-group action with its symplectic audits, truncated lowest-weight
operator matrices, the positive-momentum projection, and the phase-operator
bridge between the two quantizations.

``import halfcyl`` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a caller of the exact scalar
code (``lie``, ``classical``) never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("AdmissibilityReport", "CoveringElement", "MomentumFunction", "PhasePoint",
         "TrigPoly", "act_auxiliary", "act_lifted", "admissibility_audit",
         "check_symplectic", "compose", "lift_hamiltonian", "lightcone_map",
         "poisson_bracket", "transport"), "classical"),
    **dict.fromkeys(
        ("conjugate_realizations", "identification_report", "phase_operator",
         "sincos_operators", "tplus_from_phase"), "equivalence"),
    **dict.fromkeys(
        ("ClosureResult", "L", "So12Element", "WittElement", "algebra_isomorphism",
         "so12_bracket", "vector_field_to_so12", "witt_bracket", "witt_closure"), "lie"),
    **dict.fromkeys(
        ("ProjectedSpace", "ThetaSpace", "halfline_demo", "isometry_report"), "projection"),
    **dict.fromkeys(
        ("GeneratorSet", "RepConfig", "TruncatedOperator", "build_generators", "casimir",
         "exp_generator", "gram_weights", "rotation_rep", "spectrum_p",
         "toeplitz_measure_test"), "rep"),
    **dict.fromkeys(("CheckRecord", "CheckReport", "ConfigError"), "report"),
    **dict.fromkeys(("SuiteConfig", "run_suite"), "suite"),
    "emit_spectrum": "cli",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # not cached in the namespace: a name always resolves to what its module
    # holds now, so patching the module attribute (as a tracer or a test
    # does) is seen here too
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
