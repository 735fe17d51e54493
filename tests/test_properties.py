"""Property tests: certificate soundness, the `certify` exit-code contract and
`certify`'s scale invariance on small adversarial matrices.

Matrices are wide Gaussian draws, then bent: a duplicated column, a column
scaled by up to 1e8 either way, a last row nearly (or exactly) a copy of the
first, and a global scale of 1e-300 or 1e200, where ||A||_F underflows or
overflows.  k ranges over 1..n-1, so k >= m is common.  Examples are
derandomized, so every run checks the same matrices.
"""

import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from secthresh import (GaussianInstance, SecthreshError, Verdict,
                       estimate_failure, verify_theorem2_construction)
from secthresh.cli import main

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


@st.composite
def wide_matrices(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m + 1, 9))
    A = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, n))
    if draw(st.booleans()):
        A[:, draw(st.integers(0, n - 1))] = A[:, draw(st.integers(0, n - 1))]
    if draw(st.booleans()):
        A[:, draw(st.integers(0, n - 1))] *= draw(st.sampled_from([1e-8, 1e-3, 1e3, 1e8]))
    if m > 1 and draw(st.booleans()):
        A[-1] = A[0] + draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6])) * A[-1]
    A *= draw(st.sampled_from([1.0, 1e-300, 1e200]))
    return A


@PROPERTY_SETTINGS
@given(data=st.data())
def test_every_certified_failure_rechecks(data):
    A = data.draw(wide_matrices())
    n = A.shape[1]
    k = data.draw(st.integers(1, n - 1))
    instance = GaussianInstance(seed=0, A=A)
    try:
        outcome = estimate_failure(instance, k)
    except SecthreshError:
        return  # refused (rank deficiency, failed construction check): no claim made
    if outcome.verdict is Verdict.CertifiedFailure:
        cert = outcome.certificate
        report = verify_theorem2_construction(A, k, cert)
        assert report.passed
        assert math.isfinite(report.measurement_residual)
        assert math.isfinite(cert.nullspace_residual) and cert.nullspace_residual <= 1e-8
        assert cert.gap > 0.0


@PROPERTY_SETTINGS
@given(data=st.data())
def test_certify_keeps_exit_code_contract(data):
    A = data.draw(wide_matrices())
    k = data.draw(st.integers(1, A.shape[1] - 1))
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        matrix = os.path.join(tmp, "A.csv")
        cert = os.path.join(tmp, "cert.json")
        with open(matrix, "w") as handle:
            handle.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in A)
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["certify", "--matrix", matrix, "--k", str(k),
                         "--emit-certificate", cert])
        if code == 0 and "CertifiedFailure" in stdout.getvalue():
            with open(cert) as handle:
                assert json.load(handle)["gap"] > 0.0
    assert code in (0, 2, 3)
    if code != 0:
        assert len(stderr.getvalue().splitlines()) == 1


def run_certify(A, k):
    """`certify` on A: exit code, stdout, the certificate JSON (None unless
    it certified) and the warnings raised, which would otherwise print on
    stderr."""
    stdout = io.StringIO()
    payload = None
    with tempfile.TemporaryDirectory() as tmp:
        matrix = os.path.join(tmp, "A.csv")
        cert = os.path.join(tmp, "cert.json")
        with open(matrix, "w") as handle:
            handle.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in A)
        with (redirect_stdout(stdout), redirect_stderr(io.StringIO()),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(["certify", "--matrix", matrix, "--k", str(k),
                         "--emit-certificate", cert])
        if code == 0 and "CertifiedFailure" in stdout.getvalue():
            with open(cert) as handle:
                payload = json.load(handle)
    return code, stdout.getvalue(), payload, caught


def verdict_line(stdout):
    return next(line for line in stdout.splitlines() if line.startswith("verdict"))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_certify_verdict_is_scale_invariant(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(m + 1, 9))
    A = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((m, n))
    k = data.draw(st.integers(1, n - 1))
    j = data.draw(st.sampled_from([600, -600, 1000, -1000]))
    scaled = np.ldexp(A, j)
    assume(np.array_equal(np.ldexp(scaled, -j), A))  # no entry lost bits to underflow
    code, stdout, _, _ = run_certify(A, k)
    scaled_code, scaled_stdout, cert, caught = run_certify(scaled, k)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert scaled_code == code
    if code == 0:
        assert verdict_line(scaled_stdout) == verdict_line(stdout)
    if cert is not None:
        # The scaled matrix has A's null space, so the certificate re-checks on A.
        w = np.array(cert["w"])
        assert np.linalg.norm(A @ w) <= 1e-8 * np.linalg.norm(A) * np.linalg.norm(w)
        x = np.zeros(n)
        x[n - k:] = -w[n - k:]
        assert np.abs(w[n - k:]).sum() > np.abs(w[:n - k]).sum()
        assert np.abs(x + w).sum() < np.abs(x).sum()
