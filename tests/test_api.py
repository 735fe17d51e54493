import dataclasses
import enum
import inspect
import math
import os
import re
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import secthresh
import secthresh.curves as curves
import secthresh.harness as harness
import secthresh.instances as instances
import secthresh.tau as tau
from conftest import projector
from secthresh import (CellSpec, DomainError, DualSolve, GaussianInstance,
                       ProblemShape, Verdict, bit_flip_search, builtin_suite, derive_rep_seed,
                       dual_distance, emit_curves, erfinv, estimate_failure, extract_certificate,
                       null_projector, run_suite, sample_gaussian_matrix, sec_lower_solve,
                       sec_upper_beta, sec_upper_residual, verify_theorem2_construction,
                       weak_beta, weak_residual)
from secthresh.harness import MAX_REPS, MAX_WORKERS
from secthresh.instances import MAX_N

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
    assert all(calls[name] >= 1 for name in calls.names), calls

    curves._xi_free_point.cache_clear()  # a warm point would skip its weak root
    calls = count_calls(curves, "weak_beta", "sec_upper_beta", "erfinv")
    curves.emit_curves([0.5])
    assert all(calls[name] >= 1 for name in calls.names), calls


# The library refusal table (README, "Library"): every refusal of a data
# argument, a number or an array.  A key is a test id, relative to tests/, and
# its value the rows that test checks.  A row is (call, exception class,
# message): ``call(x)``, on the inputs ``refusal_inputs`` returns, raises that
# class with that message word for word, or with its start where the message
# ends in "..." because numpy wrote the tail.  A test module takes the tests of
# its ids with ``add_refusal_tests(globals())``, so a folded test kept its id.


def k_line(k, n):
    """The refusal of a block length k outside 1 <= k < n."""
    if type(k) is int:
        return f"need 1 <= k < n={n}, got k={k}"
    return f"k must be an integer, got {k!r}"


def seed_line(name, seed):
    """The refusal of a seed outside 0 <= seed < 2**64."""
    if type(seed) is int:
        return f"{name} must be a 64-bit unsigned integer, got {seed}"
    return f"{name} must be an integer, got {seed!r}"


DATA = "test_api.py::test_data_arguments_raise_domain_error"
CHECKS = "test_curves.py::TestDomainChecksBeforeResiduals::"
DUAL, CERTS = "test_tau.py::TestDualDistance::", "test_tau.py::TestCertificates::"
FAILURE = "test_tau.py::TestEstimateFailure::"
ALPHA = "alpha must be a real number in (0.0, 1.0), got "
BETA = "beta must be a real number in (0.0, 0.5), got "
GRID = "grid alpha must be a real number in (0.02, 0.98), got "
P_LINE = "erfinv's p must be a real number in (-1.0, 1.0), got "
XI = "xi_sk must be finite and >= 0, got "
STOP = "stop_below must be finite and >= 0, got "
ARRAY = " must be an array of real numbers: ..."
ENTRIES = {  # test_input_not_a_number's entries: (a call of one value, its refusal's start)
    "weak_beta": (weak_beta, ALPHA), "sec_upper_beta": (sec_upper_beta, ALPHA),
    "sec_lower_solve": (sec_lower_solve, BETA), "erfinv": (erfinv, P_LINE),
    "emit_curves": (lambda v: emit_curves([v]), GRID),
    "weak_residual-alpha": (lambda v: weak_residual(v, 0.2), ALPHA),
    "weak_residual-beta": (lambda v: weak_residual(0.5, v), BETA),
    "sec_upper_residual-alpha": (lambda v: sec_upper_residual(v, 0.2), ALPHA),
    "sec_upper_residual-beta": (lambda v: sec_upper_residual(0.5, v), BETA)}
XI_ENTRIES = {"emit_curves": lambda xi: emit_curves([0.5], xi_sk=xi),
              "sec_upper_beta": lambda xi: sec_upper_beta(0.5, xi),
              "sec_upper_residual": lambda xi: sec_upper_residual(0.5, 0.2, xi)}
CERTIFY = {"extract_certificate": lambda x, k: extract_certificate(x.P, k, x.solve),
           "verify_theorem2_construction":
               lambda x, k: verify_theorem2_construction(x.P.A, k, x.cert)}

REFUSALS = {
    f"{DATA}[sign-pattern-str]": [(lambda x: dual_distance(x.P, 1, "x"), DomainError,
                                   "sign pattern" + ARRAY)],
    f"{DATA}[sign-pattern-2-d]": [(lambda x: dual_distance(x.P12, 3, [[1, 1, 1]]), DomainError,
                                   "sign pattern must have shape (3,), got (1, 3)")],
    **{f"{DATA}[stop-below-{name}]": [(lambda x, v=v: dual_distance(x.P, 1, [1.0], stop_below=v),
                                       DomainError, STOP + repr(v))]
       for name, v in [("str", "x"), ("inf", np.inf)]},
    f"{DATA}[x0-past-float-range]": [
        (lambda x: dual_distance(x.P, 1, [1.0], x0=10**400), DomainError, "x0" + ARRAY)],
    f"{DATA}[matrix-str]": [(lambda x: null_projector("x"), DomainError, "matrix" + ARRAY)],
    f"{DATA}[ragged-matrix]": [
        (lambda x: null_projector([[1.0, 2.0], [3.0]]), DomainError, "matrix" + ARRAY)],
    f"{DATA}[instance-matrix-scalar]": [(lambda x: estimate_failure(GaussianInstance(0, 0), 1),
                                         DomainError, "matrix must be 2-D, got ndim=0")],
    f"{DATA}[construction-matrix-str]": [
        (lambda x: verify_theorem2_construction("x", 1, None), DomainError, "A" + ARRAY)],

    "test_curves.py::TestWeakResidual::test_domain": [
        (lambda x: weak_residual(0.3, 0.5), DomainError,
         "beta must be a real number in (0.0, 0.3), got 0.5"),
        (lambda x: weak_residual(1.0, 0.5), DomainError, ALPHA + "1.0")],
    "test_curves.py::TestSecLower::test_domain": [
        (lambda x, b=b: sec_lower_solve(b), DomainError, BETA + repr(b)) for b in [0.0, 0.6]],
    "test_curves.py::TestEmitCurves::test_grid_domain": [
        (lambda x, a=a: emit_curves([a]), DomainError, GRID + repr(a)) for a in [0.0, 0.99]],
    **{f"{CHECKS}test_alpha_outside_unit_interval[{a}]": [
        (lambda x, a=a: weak_beta(a), DomainError, ALPHA + repr(a)),
        (lambda x, a=a: sec_upper_beta(a), DomainError, ALPHA + repr(a)),
        (lambda x, a=a: emit_curves([a]), DomainError, GRID + repr(a))]
       for a in [0.0, 1.0, -0.1, 1.5, math.nan, math.inf]},
    f"{CHECKS}test_alpha_too_small_for_a_bracket": [
        (lambda x, f=f: f(1e-6), DomainError, "alpha=1e-06 leaves no beta bracket")
        for f in [weak_beta, sec_upper_beta]],
    **{f"{CHECKS}test_alpha_not_a_number[{a}]": [
        (lambda x, a=a: emit_curves([a]), DomainError, GRID + repr(a))]
       for a in ["x", None, 10**400]},
    **{f"{CHECKS}test_input_not_a_number[{entry}-{name}]": [
        (lambda x, f=f, v=v: f(v), DomainError, start + repr(v))]
       for entry, (f, start) in ENTRIES.items()
       for name, v in {"str": "x", "None": None, "numeric-str": "0.5", "complex": 1j}.items()},
    **{f"{CHECKS}test_bad_xi_sk[{xi}]": [  # the empty grid too: xi_sk is checked first
        (lambda x, f=f, xi=xi: f(xi), DomainError, XI + repr(xi))
        for f in [XI_ENTRIES["sec_upper_beta"], XI_ENTRIES["emit_curves"],
                  lambda xi: emit_curves([], xi_sk=xi)]]
       for xi in [math.nan, math.inf, -1.0]},
    **{f"{CHECKS}test_xi_sk_not_a_number[{entry}-{name}]": [
        (lambda x, f=f, xi=xi: f(xi), DomainError, XI + repr(xi))]
       for entry, f in XI_ENTRIES.items()
       for name, xi in {"str": "x", "None": None, "huge-int": 10**400, "complex": 1j}.items()},
    **{f"{CHECKS}test_beta_not_below_alpha[0.3-{b}]": [
        (lambda x, f=f, b=b: f(0.3, b), DomainError,
         f"beta must be a real number in (0.0, 0.3), got {b}")
        for f in [weak_residual, sec_upper_residual]] for b in [0.3, 0.5]},

    **{f"{DUAL}test_k_outside_block_range_rejected[{k}]": [
        (lambda x, k=k: dual_distance(x.P12, k, np.ones(max(int(k), 0))), DomainError,
         k_line(k, 12))]
       for k in [-1, 0, 12, 2.5, True]},
    f"{DUAL}test_bad_sign_pattern": [
        (lambda x: dual_distance(x.P, 1, [2.0]), DomainError,
         "sign pattern entries must be exactly +-1"),
        (lambda x: dual_distance(x.P, 1, [1.0, 1.0]), DomainError,
         "sign pattern must have shape (1,), got (2,)")],
    **{f"{DUAL}test_bad_warm_start_rejected[{name}]": [
        (lambda x, x0=x0: dual_distance(x.P6, 2, np.ones(2), x0=x0), DomainError, line)]
       for name, x0, line in [
           ("short", np.zeros(3), "x0 must have shape (4,), got (3,)"),
           ("long", np.zeros(5), "x0 must have shape (4,), got (5,)"),
           ("2-d", np.zeros((1, 4)), "x0 must have shape (4,), got (1, 4)"),
           ("scalar", 0.5, "x0 must have shape (4,), got ()"),
           ("nan", [0.0, math.nan, 0.0, 0.0], "x0 must have finite entries"),
           ("inf", [0.0, 0.0, math.inf, 0.0], "x0 must have finite entries")]},
    **{f"{CERTS}test_k_outside_block_range_rejected[{name}-{k}]": [
        (lambda x, f=f, k=k: f(x, k), DomainError, k_line(k, 2))]
       for name, f in CERTIFY.items() for k in [-1, 0, 2, 7, 2.5, True]},
    f"{CERTS}test_below_threshold_rejected": [
        (lambda x: extract_certificate(x.P, 1, DualSolve(x.solve.z_star, 1e-6, 1, True)),
         DomainError, "distance 1.000e-06 not above positivity threshold 1.414e-06")],
    f"{CERTS}test_z_star_of_wrong_shape_refused": [
        (lambda x: extract_certificate(x.P, 1, DualSolve(np.ones(3), 1.0, 1, True)), DomainError,
         "z_star must have shape (2,), got (3,)")],
    **{f"{CERTS}test_construction_inputs_of_wrong_shape_refused[{name}]": [
        (lambda x, A=A, w=w: verify_theorem2_construction(A, 1, dataclasses.replace(x.cert, w=w)),
         DomainError, line)]
       for name, A, w, line in [
           ("short-w", np.ones((1, 3)), [-0.2, 0.4], "w must have shape (3,), got (2,)"),
           ("column-w", [[2.0, 1.0]], [[-0.2], [0.4]], "w must have shape (2,), got (2, 1)"),
           ("1-d-A", [2.0, 1.0], [-0.2, 0.4], "A must be a 2-D matrix, got shape (2,)")]},
    "test_tau.py::TestBitFlipSearch::test_k_zero_rejected": [
        (lambda x: bit_flip_search(x.P, 0), DomainError, k_line(0, 2))],
    **{f"{FAILURE}test_k_outside_block_range_rejected_before_factoring[{k}]": [
        (lambda x, k=k: estimate_failure(x.instance, k), DomainError, k_line(k, 12))]
       for k in [-1, 0, 12, 2.5, True]},
    **{f"test_inner_solve.py::TestEarlyStop::test_bad_bound_rejected[{v}]": [
        (lambda x, v=v: dual_distance(x.P, 1, [1.0], stop_below=v), DomainError,
         STOP + repr(v))] for v in [-1e-6, math.nan]},
    "test_inner_solve.py::TestEarlyStop::test_extraction_refuses_stopped_solve": [
        (lambda x: extract_certificate(x.P, 1, DualSolve(x.solve.z_star, 0.4, 10, True, True)),
         DomainError, "certificate extraction requires a solve run to its fixed point")],

    "test_instances.py::TestProblemShape::test_validation": [
        (lambda x, m=m: ProblemShape(n=10, m=m, k=2), DomainError,
         f"need 0 < m < n, got m={m} n=10")
        for m in [10, 0]],
    "test_instances.py::TestProblemShape::test_dimension_cap": [
        (lambda x: ProblemShape(MAX_N + 1, 1, 0), DomainError,
         f"need n <= {MAX_N}, got n={MAX_N + 1}")],
    "test_instances.py::TestSampleGaussianMatrix::test_negative_seed_rejected": [
        (lambda x, seed=seed: sample_gaussian_matrix(ProblemShape(n=8, m=3, k=1), seed),
         DomainError, seed_line("seed", seed)) for seed in [-1, 5.0, 1.5, True, "5", None]],
    **{f"test_instances.py::TestNullProjector::test_shape_rejected[{name}]": [
        (lambda x, A=A: null_projector(A), DomainError, line)]
       for name, A, line in [
           ("A0-must be 2-D", np.ones(5), "matrix must be 2-D, got ndim=1"),
           ("A1-must be 2-D", np.ones((1, 2, 3)), "matrix must be 2-D, got ndim=3"),
           ("A2-0 < m < n", np.eye(3), "need 0 < m < n, got m=3 n=3"),
           ("A3-0 < m < n", np.ones((4, 2)), "need 0 < m < n, got m=4 n=2"),
           ("A4-0 < m < n", np.ones((0, 5)), "need 0 < m < n, got m=0 n=5"),
           (f"A5-n <= {MAX_N}", np.ones((1, MAX_N + 1)),
            f"need n <= {MAX_N}, got n={MAX_N + 1}")]},
    "test_instances.py::TestDeriveRepSeed::test_negative_rep_rejected": [
        (lambda x: derive_rep_seed(1, -1), DomainError, seed_line("rep_index", -1))],
    **{f"test_instances.py::TestDeriveRepSeed::test_rep_index_not_integer_rejected[{r}]": [
        (lambda x, r=r: derive_rep_seed(1, r), DomainError, seed_line("rep_index", r))]
       for r in [1.5, True, "0"]},
    **{f"test_instances.py::TestDeriveRepSeed::test_base_seed_outside_64_bits_rejected[{b}]": [
        (lambda x, b=b: derive_rep_seed(b, 0), DomainError, seed_line("base_seed", b))]
       for b in [-1, 2**64, 5.0, 1.5, True]},

    "test_harness.py::TestBuiltinTables::test_suite_construction": [
        (lambda x: builtin_suite("table3"), DomainError,
         "unknown builtin suite 'table3' (expected 'table1' or 'table2')"),
        (lambda x: builtin_suite("table2", reps=1.5), DomainError,
         "reps must be an integer, got 1.5")],
    "test_harness.py::TestCellSpec::test_validation": [  # counts are ints, numpy's too, not bools
        (lambda x, cell=cell: CellSpec(*cell), DomainError, line) for cell, line in [
            ((100, 100, 5, 1), "need 0 < m < n, got m=100 n=100"),
            ((100, 50, 50, 1), "need 1 <= k < m=50, got k=50"),
            ((100, 50, 5, 0), f"need 1 <= reps <= {MAX_REPS}, got reps=0"),
            ((30.0, 20, 5, 1), "n must be an integer, got 30.0"),
            ((30, 20.0, 5, 1), "m must be an integer, got 20.0"),
            ((30, 20, True, 1), "k must be an integer, got True"),
            ((30, 20, 5.0, 1), "k must be an integer, got 5.0"),
            ((30, 20, 5, 1.5), "reps must be an integer, got 1.5"),
            ((30, 20, 5, True), "reps must be an integer, got True")]],
    "test_harness.py::TestCellSpec::test_dimension_cap": [
        (lambda x: CellSpec(2_000_000, 2, 1, 1), DomainError,
         f"need n <= {MAX_N}, got n=2000000")],
    **{f"test_harness.py::TestCellSpec::test_base_seed_outside_64_bits_rejected[{b}]": [
        (lambda x, b=b: CellSpec(30, 24, 10, 1, b), DomainError, seed_line("base_seed", b))]
       for b in ["x", -1, 2**64, 1.5, True]},
    "test_harness.py::TestCellSpec::test_reps_cap": [
        (lambda x: CellSpec(100, 50, 5, MAX_REPS + 1), DomainError,
         f"need 1 <= reps <= {MAX_REPS}, got reps={MAX_REPS + 1}")],
    **{f"test_harness.py::test_worker_count_bounded[{w}]": [
        (lambda x, w=w: run_suite([CellSpec(30, 24, 12, 5000)], workers=w), DomainError,
         f"need 1 <= workers <= {MAX_WORKERS}, got workers={w}" if type(w) is int
         else f"workers must be an integer, got {w!r}")]
       for w in [-3, 0, MAX_WORKERS + 1, 5000, 2.0, True]},

    "test_special.py::TestErfinv::test_domain": [
        (lambda x, p=p: erfinv(p), DomainError, P_LINE + repr(p))
        for p in [-1.0, 1.0, 1.5, math.nan]],
    **{f"test_special.py::TestErfinv::test_non_real_named[{name}]": [
        (lambda x, p=p: erfinv(p), DomainError, P_LINE + repr(p))]
       for name, p in [("bad0", Decimal("0.5")), ("bad1", np.array([0.5])), ("0.5", "0.5"),
                       ("None", None)]},
}

# What no refusal may reach: sampling, factoring, an inner solve, a curve
# root, a rep or a child process.
NO_WORK = [(instances, "_philox_normals"), (np.linalg, "svd"), (tau, "_box_lsq"),
           (curves, "erfinv"), (harness, "_run_instance"), (os, "fork")]


def refusal_inputs():
    """The 1 x 2 hand instance's projector, solve and certificate, and
    seeded 5 x 12 and 2 x 6 instances."""
    P = null_projector(np.array([[2.0, 1.0]]))
    solve = dual_distance(P, 1, [1.0])
    instance = sample_gaussian_matrix(ProblemShape(n=12, m=5, k=1), 1)
    return SimpleNamespace(P=P, solve=solve, cert=extract_certificate(P, 1, solve),
                           instance=instance, P12=null_projector(instance.A),
                           P6=projector(6, 2, 2, 0))


def check_refusals(rows, forbid):
    """Check ``rows``: build their inputs, forbid all work, then run each row."""
    x = refusal_inputs()
    for module, name in NO_WORK:
        forbid(module, name)
    for call, error, message in rows:
        with pytest.raises(error) as raised:
            call(x)
        text = str(raised.value)
        assert raised.type is error
        assert text.startswith(message[:-3]) if message.endswith("...") else text == message


def add_refusal_tests(namespace):
    """Add to a test module, each under its id, the tests of its REFUSALS rows."""
    tests, prefix = {}, os.path.basename(namespace["__file__"]) + "::"
    for test_id, rows in REFUSALS.items():
        if test_id.startswith(prefix):
            name, _, parameter = test_id[len(prefix):].partition("[")
            tests.setdefault(name, {})[parameter[:-1]] = rows
    for qualname, cases in tests.items():
        if list(cases) == [""]:  # an id with no parameter
            def test(forbid, rows=cases[""]):
                check_refusals(rows, forbid)
        else:
            @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
            def test(forbid, rows):
                check_refusals(rows, forbid)
        *owner, name = qualname.split("::")
        if owner:
            cls = namespace.setdefault(owner[0], type(owner[0], (), {}))
            setattr(cls, name, staticmethod(test))
        else:
            namespace[name] = test


def test_limits_themselves_accepted():
    # The accepting side of the table's rows at MAX_N and MAX_REPS.
    assert ProblemShape(n=MAX_N, m=1, k=0).n == MAX_N
    assert CellSpec(n=100, m=50, k=5, reps=MAX_REPS).reps == MAX_REPS


def test_readme_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


add_refusal_tests(globals())
