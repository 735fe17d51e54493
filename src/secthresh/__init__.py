"""Sectional thresholds for l1 recovery: theory curves and failure certification.

The package has two halves.  The analytic half (:mod:`secthresh.curves`,
:mod:`secthresh.special`) evaluates three phase-transition curves in the
``(alpha, beta) = (m/n, k/n)`` plane: the exact weak threshold, a sectional
lower bound, and a sectional upper bound.  The empirical half
(:mod:`secthresh.instances`, :mod:`secthresh.tau`, :mod:`secthresh.harness`)
draws seeded Gaussian measurement matrices and searches for sign patterns
whose optimal null-space witness certifies that some k-sparse vector is not
recovered by l1 minimization.  A CertifiedFailure verdict is backed by an
explicit, independently re-checkable witness; NotCertified is one-sided and
proves nothing.
"""

from .curves import (XI_SK_DEFAULT, CurveKind, CurveSet, SectionalLowerSolve,
                     ThresholdPoint, emit_curves, sec_lower_solve,
                     sec_upper_beta, sec_upper_residual, weak_beta,
                     weak_residual)
from .errors import (CertificateError, DomainError, NumericalError,
                     SecthreshError)
from .harness import (CellResult, CellSpec, RepRecord, builtin_suite,
                      builtin_tables, paper_rate, run_suite)
from .instances import (GaussianInstance, NullProjector, ProblemShape,
                        derive_rep_seed, null_projector, sample_gaussian_matrix)
from .special import erfinv
from .tau import (Certificate, ConstructionReport, DualSolve, TauOutcome,
                  Verdict, bit_flip_search, dual_distance, estimate_failure,
                  extract_certificate, verify_theorem2_construction)

__version__ = "0.1.0"

__all__ = [
    "XI_SK_DEFAULT", "CurveKind", "CurveSet", "SectionalLowerSolve",
    "ThresholdPoint", "emit_curves", "sec_lower_solve", "sec_upper_beta",
    "sec_upper_residual", "weak_beta", "weak_residual",
    "CertificateError", "DomainError", "NumericalError", "SecthreshError",
    "CellResult", "CellSpec", "RepRecord", "builtin_suite", "builtin_tables",
    "paper_rate", "run_suite",
    "GaussianInstance", "NullProjector", "ProblemShape", "derive_rep_seed",
    "null_projector", "sample_gaussian_matrix", "erfinv",
    "Certificate", "ConstructionReport", "DualSolve",
    "TauOutcome", "Verdict", "bit_flip_search",
    "dual_distance", "estimate_failure", "extract_certificate",
    "verify_theorem2_construction",
    "__version__",
]
