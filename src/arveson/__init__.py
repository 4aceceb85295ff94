"""Functional models and similarity certificates for commuting matrix tuples.

The package works at desk scale: tuples of modest size, exact rational
bookkeeping where the combinatorics allow it, and floating point linear
algebra with explicit tolerances everywhere else.
"""

from .errors import ArvesonError, InputError, NumericalError, ValidationError
from .fockspace import kernel, kernel_gram
from .interp import (
    PickResult,
    SeparationReport,
    StrongSeparationReport,
    ThetaJetCertificate,
    pick_min_norm,
    separation_constants,
    strong_separation,
    theta_jets,
)
from .models import (
    LocalizationReport,
    ModelTuple,
    gauge_unitary,
    jet_model,
    monomial_model,
    verify_localizations,
)
from .nilsim import (
    NecessityReport,
    NilsimHypotheses,
    SimilarityCertificate,
    build_similarity,
    check_hypotheses,
    correspondence_similarity,
    lemma_checks,
    necessity_check,
)
from .polyideal import (
    LocalJetIdeal,
    PolyIdeal,
    localize,
    polynomial_order,
    vanishing_ideal_slice,
)
from .polynomials import Polynomial
from .spectral import JointSpectrum, JordanDecomposition, joint_eigenvalues, jordan_decompose, riesz_idempotent
from .tuples import CommutingTuple, KrylovData, annihilator_slice, apply_poly, krylov, moebius

__version__ = "0.1.0"

__all__ = [
    "ArvesonError",
    "CommutingTuple",
    "InputError",
    "JointSpectrum",
    "JordanDecomposition",
    "KrylovData",
    "LocalJetIdeal",
    "LocalizationReport",
    "ModelTuple",
    "NecessityReport",
    "NilsimHypotheses",
    "NumericalError",
    "PickResult",
    "PolyIdeal",
    "Polynomial",
    "SeparationReport",
    "SimilarityCertificate",
    "StrongSeparationReport",
    "ThetaJetCertificate",
    "ValidationError",
    "annihilator_slice",
    "apply_poly",
    "build_similarity",
    "check_hypotheses",
    "correspondence_similarity",
    "gauge_unitary",
    "jet_model",
    "joint_eigenvalues",
    "jordan_decompose",
    "kernel",
    "kernel_gram",
    "krylov",
    "lemma_checks",
    "localize",
    "moebius",
    "monomial_model",
    "necessity_check",
    "pick_min_norm",
    "polynomial_order",
    "riesz_idempotent",
    "separation_constants",
    "strong_separation",
    "theta_jets",
    "vanishing_ideal_slice",
    "verify_localizations",
    "__version__",
]
