import enum
import inspect

import numpy as np

import secthresh
import secthresh.curves as curves
import secthresh.tau as tau
from secthresh import GaussianInstance, Verdict

PUBLIC_API = {
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
}

# Parameter names of every public function and class, so that a new or renamed
# parameter shows up here.  Enums and exceptions that keep Exception's
# constructor have no signature of their own and are left out.
SIGNATURES = {
    "CellResult": ("spec", "per_rep"),
    "CellSpec": ("n", "m", "k", "reps", "base_seed"),
    "Certificate": ("w", "head_l1", "tail_l1", "gap", "nullspace_residual"),
    "ConstructionReport": ("passed", "l1_original", "l1_competitor",
                           "measurement_residual"),
    "CurveSet": ("points",),
    "DualSolve": ("z_star", "distance", "iterations", "converged", "stopped_below"),
    "GaussianInstance": ("seed", "A"),
    "NullProjector": ("Dperp", "rowspace", "A"),
    "ProblemShape": ("n", "m", "k"),
    "RepRecord": ("seed", "verdict", "flips", "seconds", "diagnostic", "errored"),
    "SectionalLowerSolve": ("beta", "theta_hat", "alpha_bound"),
    "TauOutcome": ("best_b", "best_distance", "certificate", "flips_evaluated",
                   "diagnostic"),
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
    assert len(secthresh.__all__) == 40
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


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_traced_names_are_looked_up_in_their_modules(monkeypatch):
    for name in TRACED_TAU:
        assert callable(getattr(tau, name))
    for name in TRACED_CURVES:
        assert callable(getattr(curves, name))

    calls = _count_calls(monkeypatch, tau, TRACED_TAU)
    A = np.array([[2.0, 1.0]])  # fails at the first pattern: every layer runs once
    instance = GaussianInstance(seed=0, A=A)
    assert tau.estimate_failure(instance, 1).verdict is Verdict.CertifiedFailure
    assert all(count >= 1 for count in calls.values()), calls

    curves._xi_free_point.cache_clear()  # a warm point would skip its weak root
    calls = _count_calls(monkeypatch, curves, ("weak_beta", "sec_upper_beta", "erfinv"))
    curves.emit_curves([0.5])
    assert all(count >= 1 for count in calls.values()), calls
