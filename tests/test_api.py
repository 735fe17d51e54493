import enum
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import secthresh
import secthresh.curves as curves
import secthresh.tau as tau
from secthresh import (DomainError, GaussianInstance, Verdict, dual_distance,
                       estimate_failure, null_projector)

PUBLIC_API = {
    "XI_SK_DEFAULT", "CurveKind", "CurveSet", "SectionalLowerSolve",
    "ThresholdPoint", "emit_curves", "sec_lower_solve", "sec_upper_beta",
    "sec_upper_residual", "weak_beta", "weak_residual",
    "CertificateError", "DomainError", "NumericalError", "SecthreshError",
    "CellResult", "CellSpec", "RepRecord", "builtin_suite", "builtin_tables",
    "paper_rate", "run_suite",
    "GaussianInstance", "NullProjector", "ProblemShape", "derive_rep_seed",
    "null_projector", "sample_gaussian_matrix", "erfinv",
    "Certificate", "DualSolve", "TauOutcome", "Verdict", "bit_flip_search",
    "dual_distance", "estimate_failure", "extract_certificate",
    "verify_theorem2_construction",
    "__version__",
}

# Parameter names of every public function and class, so that a new or renamed
# parameter shows up here.  Enums and exceptions that keep Exception's
# constructor have no signature of their own and are left out.
SIGNATURES = {
    "CellResult": ("spec", "per_rep"),
    "CellSpec": ("n", "m", "k", "reps", "base_seed"),
    "Certificate": ("w", "head_l1", "tail_l1", "nullspace_residual"),
    "CurveSet": ("points",),
    "DualSolve": ("z_star", "distance", "iterations", "converged", "stopped_below"),
    "GaussianInstance": ("seed", "A"),
    "NullProjector": ("Dperp", "rowspace", "A"),
    "ProblemShape": ("n", "m", "k"),
    "RepRecord": ("seed", "verdict", "flips", "seconds", "unconverged_solves", "error"),
    "SectionalLowerSolve": ("beta", "theta_hat", "alpha_bound"),
    "TauOutcome": ("best_b", "best_distance", "certificate", "flips_evaluated",
                   "unconverged_solves"),
    "ThresholdPoint": ("alpha", "beta", "kind"),
    "bit_flip_search": ("P", "k"),
    "builtin_suite": ("name", "reps", "base_seed"),
    "builtin_tables": (),
    "derive_rep_seed": ("base_seed", "rep_index"),
    "dual_distance": ("P", "k", "b", "x0", "stop_below"),
    "emit_curves": ("alphas", "xi_sk"),
    "erfinv": ("p",),
    "estimate_failure": ("instance", "k"),
    "extract_certificate": ("P", "k", "solve"),
    "null_projector": ("A",),
    "paper_rate": ("n", "m", "k"),
    "run_suite": ("cells", "workers"),
    "sample_gaussian_matrix": ("shape", "seed"),
    "sec_lower_solve": ("beta",),
    "sec_upper_beta": ("alpha", "xi_sk"),
    "sec_upper_residual": ("alpha", "beta", "xi_sk"),
    "verify_theorem2_construction": ("A", "k", "cert"),
    "weak_beta": ("alpha",),
    "weak_residual": ("alpha", "beta"),
}

# The module attributes that bench/worker.py's Tracer replaces to count and
# time each layer.  The package must keep these names and call them through
# its module namespace, or the benchmark's per-layer numbers silently read 0.
TRACED_TAU = ("null_projector", "dual_distance", "bit_flip_search",
              "extract_certificate", "verify_theorem2_construction")
TRACED_CURVES = ("sec_lower_solve", "weak_beta", "sec_upper_beta", "erfinv")


def test_public_names_are_pinned():
    assert len(secthresh.__all__) == 39
    assert sorted(secthresh.__all__) == sorted(PUBLIC_API)
    for name in secthresh.__all__:
        assert getattr(secthresh, name) is not None


def test_public_signatures_are_pinned():
    def has_signature(obj):
        if isinstance(obj, enum.EnumMeta):
            return False
        if isinstance(obj, type) and issubclass(obj, Exception):
            return "__init__" in vars(obj)
        return callable(obj)

    public = {name for name in secthresh.__all__ if has_signature(getattr(secthresh, name))}
    assert public == set(SIGNATURES)
    for name, params in SIGNATURES.items():
        assert tuple(inspect.signature(getattr(secthresh, name)).parameters) == params, name


def test_traced_names_are_looked_up_in_their_modules(count_calls):
    for name in TRACED_TAU:
        assert callable(getattr(tau, name))
    for name in TRACED_CURVES:
        assert callable(getattr(curves, name))

    calls = count_calls(tau, *TRACED_TAU)
    A = np.array([[2.0, 1.0]])  # fails at the first pattern: every layer runs once
    instance = GaussianInstance(seed=0, A=A)
    assert tau.estimate_failure(instance, 1).verdict is Verdict.CertifiedFailure
    assert all(count >= 1 for count in calls.values()), calls

    curves._xi_free_point.cache_clear()  # a warm point would skip its weak root
    calls = count_calls(curves, "weak_beta", "sec_upper_beta", "erfinv")
    curves.emit_curves([0.5])
    assert all(count >= 1 for count in calls.values()), calls


# A wrong value or type of a data argument, a number or an array, raises
# DomainError (README, "Library").
DATA_PROBES = {
    "sign-pattern-str": lambda P: dual_distance(P, 1, "x"),
    "stop-below-str": lambda P: dual_distance(P, 1, [1.0], stop_below="x"),
    "stop-below-inf": lambda P: dual_distance(P, 1, [1.0], stop_below=np.inf),
    "x0-past-float-range": lambda P: dual_distance(P, 1, [1.0], x0=10**400),
    "matrix-str": lambda P: null_projector("x"),
    "ragged-matrix": lambda P: null_projector([[1.0, 2.0], [3.0]]),
    "instance-matrix-scalar": lambda P: estimate_failure(GaussianInstance(seed=0, A=0), 1),
    "construction-matrix-str": lambda P: tau.verify_theorem2_construction("x", 1, None),
}


@pytest.mark.parametrize("probe", DATA_PROBES.values(), ids=DATA_PROBES.keys())
def test_data_arguments_raise_domain_error(probe):
    P = null_projector(np.array([[2.0, 1.0]]))
    with pytest.raises(DomainError):
        probe(P)


def test_readme_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
