"""Quantizations of the half-cylinder phase space S^1 x R+, as finite,
machine-checkable structures: exact Witt/so(1,2) bracket engines, the
covering-group action with its symplectic audits, truncated lowest-weight
operator matrices, the positive-momentum projection, and the phase-operator
bridge between the two quantizations."""

from .classical import (AdmissibilityReport, CoveringElement, MomentumFunction,
                        PhasePoint, TrigPoly, act_auxiliary, act_lifted,
                        admissibility_audit, check_symplectic, compose,
                        lift_hamiltonian, lightcone_map, poisson_bracket,
                        transport)
from .equivalence import (conjugate_realizations, identification_report,
                          phase_operator, sincos_operators, tplus_from_phase)
from .lie import (ClosureResult, L, So12Element, WittElement,
                  algebra_isomorphism, so12_bracket, vector_field_to_so12,
                  witt_bracket, witt_closure)
from .projection import (ProjectedSpace, ThetaSpace, halfline_demo,
                         isometry_report)
from .rep import (GeneratorSet, RepConfig, TruncatedOperator, build_generators,
                  casimir, exp_generator, gram_weights, rotation_rep,
                  spectrum_p, toeplitz_measure_test)
from .report import CheckRecord, CheckReport
from .suite import SuiteConfig, emit_spectrum, run_suite

__version__ = "0.1.0"
