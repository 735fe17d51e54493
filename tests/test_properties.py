"""Property tests: certificate soundness, the `certify` exit-code contract,
`certify`'s scale invariance on small adversarial matrices, and the exit-code
contract of every CLI command on odd argv.

Matrices are wide Gaussian draws, then bent: a duplicated column, a column
scaled by up to 1e8 either way, a last row nearly (or exactly) a copy of the
first, and a global scale of 1e-300 or 1e200, where ||A||_F underflows or
overflows.  k ranges over 1..n-1, so k >= m is common.  Examples are
derandomized, so every run checks the same matrices and argv.
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
        verify_theorem2_construction(A, k, cert)  # needs a finite measurement residual
        assert math.isfinite(cert.nullspace_residual) and cert.nullspace_residual <= 1e-8
        assert cert.gap > 0.0


@PROPERTY_SETTINGS
@given(data=st.data())
def test_certify_keeps_exit_code_contract(data):
    A = data.draw(wide_matrices())
    k = data.draw(st.integers(1, A.shape[1] - 1))
    code, _, stderr, payload, caught = run_certify(A, k)
    if payload is not None:
        assert payload["gap"] > 0.0
    assert code in (0, 2, 3) and not caught
    if code != 0:
        assert len(stderr.splitlines()) == 1


def run_certify(A, k):
    """`certify` on A: exit code, stdout, stderr, the certificate JSON (None
    unless it certified) and the warnings raised, which would otherwise print
    on stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    payload = None
    with tempfile.TemporaryDirectory() as tmp:
        matrix = os.path.join(tmp, "A.csv")
        cert = os.path.join(tmp, "cert.json")
        with open(matrix, "w") as handle:
            handle.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in A)
        with (redirect_stdout(stdout), redirect_stderr(stderr),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(["certify", "--matrix", matrix, "--k", str(k),
                         "--emit-certificate", cert])
        if code == 0 and "CertifiedFailure" in stdout.getvalue():
            with open(cert) as handle:
                payload = json.load(handle)
    return code, stdout.getvalue(), stderr.getvalue(), payload, caught


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
    code, stdout, _, _, _ = run_certify(A, k)
    scaled_code, scaled_stdout, _, cert, caught = run_certify(scaled, k)
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


# The CLI grammar sweep.  Each option of a command is left out or given a
# value from a pool of odd strings; a file option gets a file of odd bytes or
# an odd path, and an output option an odd path, relative to a fresh working
# directory that holds a directory "sub".  A valid value in the pools keeps
# the work small: n <= 12 and at most a few dozen reps.
CLI_OPTIONS = {
    "curves": ("--grid", "--xi-sk", "--out", "--svg"),
    "tau": ("--n", "--m", "--k", "--seed", "--emit-certificate"),
    "simulate": ("--builtin", "--suite", "--cell", "--reps", "--seed", "--out", "--workers"),
    "certify": ("--matrix", "--k", "--emit-certificate"),
}
ODD_VALUES = (
    "0", "1", "2", "3", "7", "12", "-1", "-0", "100001", str(2**64 - 1), str(2**64),
    "9" * 5000, "1e400", "1e155", "1e300", "5e-324", "nan", "inf", "-inf", "1.5", "0x10",
    "1_0", "\u0663", "\uff11", "x", "", " ", "\x00", "--", "-h", "table3",
    "0.5:0.5:0.1", "0.2:0.8:0.3", "0:1:0.1", "0.1:0.9:1e-7", "0.9:0.1:-0.1", "1:2",
    "12,6,3", "12,6,7", "12,6", "12,6,x", "12,6,3,1", ",,",
)
ODD_BYTES = (
    b"", b"\x00", b"\xe9", b"\xff\xfe2,1\n", b"\xef\xbb\xbf2,1\n", b"[" * 100_000,
    b"[" * 400 + b"]" * 400, b"2,1\n", b"1,1\n", b"0,0\n", b"1,2,3\n2,4,6\n",
    b"1,2,3\n4,5\n", b"1,2,\n", b"1;2\n", b"# c\n1,2\n", b"nan,1\n", b"1e308,1e-308,1\n",
    b"1e200,1e-200,3\n", b"5e-324,1\n", b"1,2\r\n3,4,5\r\n", b"1,2,3,4,5,6,7,8,9,10,11,12\n" * 3,
    b'[{"n": 12, "m": 6, "k": 3, "reps": 1}]', b'[{"n": 12.0, "m": 6, "k": 5, "reps": 2}]',
    b'[{"n": 12, "m": 6, "k": 7}]', b'[{"n": 1e400, "m": 6, "k": 3}]', b'[{"n": NaN}]',
    b'[{"n": 12, "m": 6, "k": 3, "reps": true}]', b'[{"n": 12, "m": 6, "k": 3, "rep": 1}]',
    b"[1]", b"[null]", b"{}", b'[["n", "m", "k"]]', b'["nmk"]',
)
ODD_PATHS = ("", "out", "missing/out", ".", "..", "sub", "sub/", "-", "a\x00b", "x" * 300)
FILE_OPTIONS = {"--suite", "--matrix"}
OUTPUT_OPTIONS = {"--out", "--svg", "--emit-certificate"}


@st.composite
def cli_argv(draw):
    """argv for one command; a bytes entry stands for a file holding it."""
    command = draw(st.sampled_from(sorted(CLI_OPTIONS)))
    argv = [command]
    for option in draw(st.permutations(CLI_OPTIONS[command])):
        if draw(st.integers(0, 2)) == 0:
            continue
        if option in FILE_OPTIONS:
            value = draw(st.sampled_from(ODD_BYTES) | st.sampled_from(ODD_PATHS))
        elif option in OUTPUT_OPTIONS:
            value = draw(st.sampled_from(ODD_PATHS) | st.sampled_from(ODD_VALUES))
        else:
            value = draw(st.sampled_from(ODD_VALUES))
        argv += [option, value]
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(ODD_VALUES)))
    return argv


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(argv=cli_argv())
def test_cli_grammar_sweep(argv):
    # Any argv exits 0, 2 or 3 with at most one line on stderr: no traceback
    # and no warning.  The test suite turns a RuntimeWarning into an error.
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "sub"))
        args = []
        for i, token in enumerate(argv):
            if isinstance(token, bytes):
                path = os.path.join(tmp, f"in{i}")
                with open(path, "wb") as handle:
                    handle.write(token)
                token = path
            args.append(token)
        os.chdir(tmp)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(args)
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3)
    assert len(stderr.getvalue().splitlines()) <= 1
