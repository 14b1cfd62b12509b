"""Numerical toolkit for operator fields with vanishing torsion.

Builds the explicit operator families whose characteristic-polynomial
coefficients are prescribed coordinate functions, verifies their defining
identities numerically (vanishing torsion, the conjugation identity,
invariant recovery), and diagnoses the singular locus of the determinant
coefficient (smoothness fractions, the remainder PDE system, parametric
Morse reduction).
"""

from .jet import (Jet2, SingularPointError, DenominatorVanishes, DomainError,
                  constant_jet, coordinate_jet, chain)
from .expr import (ExpressionError, parse_expression, evaluate,
                   format_expression)
from .field import (ScalarField, OperatorField, OperatorEval, SingularEntry,
                    operator_eval)
from .construct import (DegeneratePointError, companion_matrix,
                        build_diff_nondegenerate, build_2d,
                        build_regular_family, build_morse_canonical,
                        conjugation_residual)
from .torsion import (TorsionValue, torsion_coordinate, torsion_bracket_fd,
                      verify_zero_torsion)
from .invariants import charpoly, verify_sigma_coords, verify_sigma_fields
from .singularity import (FractionDiagnostic, PdeResiduals, MorseData,
                          NonMorseError, NewtonDivergenceError,
                          smoothness_numerators, remainder_from_expression,
                          pde_residuals, morse_reduce,
                          morse_coordinate, quadratic_factor,
                          verify_morse_normal_form, morse_remainder_field,
                          verify_pde)
from .report import (VerificationReport, CheckResult, DomainEntirelySingular,
                     normalize_box, sample_box)

__version__ = "0.1.0"

__all__ = [
    "Jet2", "SingularPointError", "DenominatorVanishes", "DomainError",
    "constant_jet", "coordinate_jet", "chain",
    "ExpressionError", "parse_expression", "evaluate", "format_expression",
    "ScalarField", "OperatorField", "OperatorEval", "SingularEntry",
    "operator_eval",
    "DegeneratePointError", "companion_matrix",
    "build_diff_nondegenerate", "build_2d", "build_regular_family",
    "build_morse_canonical", "conjugation_residual",
    "TorsionValue", "torsion_coordinate", "torsion_bracket_fd",
    "verify_zero_torsion",
    "charpoly", "verify_sigma_coords", "verify_sigma_fields",
    "FractionDiagnostic", "PdeResiduals", "MorseData", "NonMorseError",
    "NewtonDivergenceError", "smoothness_numerators",
    "remainder_from_expression", "pde_residuals",
    "morse_reduce", "morse_coordinate", "quadratic_factor",
    "verify_morse_normal_form", "morse_remainder_field", "verify_pde",
    "VerificationReport", "CheckResult", "DomainEntirelySingular",
    "normalize_box", "sample_box",
    "__version__",
]
