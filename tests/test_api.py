import dataclasses

import secthresh
from secthresh import SolveOptions

PUBLIC_API = {
    "XI_SK_DEFAULT", "CurveKind", "CurveSet", "SectionalLowerSolve",
    "ThresholdPoint", "emit_curves", "sec_lower_solve", "sec_upper_beta",
    "sec_upper_residual", "weak_beta", "weak_residual",
    "CertificateError", "ConsistencyError", "DomainError", "NumericalError",
    "SecthreshError", "UsageError",
    "CellResult", "CellSpec", "RepRecord", "builtin_suite", "builtin_tables",
    "paper_rate", "run_cell", "run_suite",
    "GaussianInstance", "NullProjector", "ProblemShape", "derive_rep_seed",
    "null_projector", "null_projector_from_matrix", "sample_gaussian_matrix",
    "erf", "erfc", "erfinv",
    "DEFAULT_OPTIONS", "Certificate", "ConstructionReport", "DualSolve",
    "SolveOptions", "TauOutcome", "Verdict", "bit_flip_search",
    "dual_distance", "estimate_failure", "extract_certificate",
    "verify_theorem2_construction",
    "__version__",
}


def test_public_names_are_pinned():
    assert sorted(secthresh.__all__) == sorted(PUBLIC_API)
    for name in secthresh.__all__:
        assert getattr(secthresh, name) is not None


def test_solve_options_fields():
    assert [f.name for f in dataclasses.fields(SolveOptions)] == [
        "fixed_point_tol", "max_iterations", "accept_tol", "positivity_coeff",
        "max_passes", "check_every",
    ]
