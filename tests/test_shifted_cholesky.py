"""The shifted-Cholesky decision of `certify_psd`.

A Cholesky of each factor, shifted by the threshold and by a bound on its own
rounding, proves the rule lambda_min >= -tolerance * max(1, lambda_max)
without an eigensolve. Its verdicts must be those of a dense eigenvalue
decision; when it certifies, the report's `min_eigenvalue` is None and its
`max_eigenvalue` is rho <= lambda_max; and it must call no eigensolver on a
PSD Gram, and no Cholesky on a Gram the pre-test refutes. A Gram the pre-test
refutes is decided by the witness of its least 2 x 2 principal block, with
no eigensolve, unless that witness lies within rounding of the threshold.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkernel.certify import (_EPS, _certify, _least_pair, _shifted_cholesky, assemble_gram,
                             certify_psd)
from mkernel.domains import make_box_domain, make_measure
from mkernel.integral import weighted_gram
from mkernel.kernels import Gaussian, GramBlockMatrix, Lift, Term, build_kernel, kernel_zoo
from test_certify import _assert_pair_witness, _spy

ZOO = kernel_zoo()


def _dense_decision(M, tolerance):
    """The rule on the eigenvalues of one dense solve of the whole matrix:
    (verdict, distance of lambda_min from the threshold, lambda_min, lambda_max)."""
    evals = np.linalg.eigvalsh(M)
    lo, hi = float(evals[0]), float(evals[-1])
    threshold = -tolerance * max(1.0, hi)
    return lo >= threshold, lo - threshold, lo, hi


def _check(M, tolerance):
    """certify_psd of M against a dense decision and against the
    eigenvalue-solving path of the same rules; returns the report."""
    rep = certify_psd(M, tolerance)
    data = M.data if isinstance(M, GramBlockMatrix) else M
    ok, margin, lo, hi = _dense_decision(0.5 * (data + data.T), tolerance)
    exact = _certify(M, tolerance, "eigvalsh")[0]
    assert rep.certified == exact.certified
    # the two eigensolvers differ by rounding: only a Gram that close to the
    # threshold may be decided differently by the dense one
    if abs(margin) > 1e-12 * max(1.0, hi):
        assert rep.certified == ok
    if rep.min_eigenvalue is None:
        assert rep.certified and rep.max_eigenvalue <= hi * (1 + 1e-12)
    elif rep.to_json() != exact.to_json():  # a 2 x 2 block's witness decided
        _assert_pair_witness(rep, M, tolerance, lo, hi)
    return rep


@pytest.mark.parametrize("tolerance", [1e-9, 0.0])
@pytest.mark.parametrize("entry", ZOO, ids=lambda e: e.name)
def test_verdict_is_the_dense_decision_on_the_zoo(entry, tolerance):
    k = build_kernel(entry.spec)
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5, 8, 16, 33, 64, 400):
        _check(assemble_gram(k, rng.uniform(0.0, 1.0, size=(n, 1))), tolerance)


@pytest.mark.parametrize("tolerance", [1e-9, 1e-6])
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_verdict_at_the_threshold_of_a_diagonal(factor, tolerance):
    rep = _check(np.diag([1.0, -factor * tolerance]), tolerance)
    assert rep.certified == (factor < 1)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_verdict_at_a_threshold_set_by_lambda_max(factor):
    # tolerance * lambda_max = 1e-3
    rep = _check(np.diag([1e6, -factor * 1e-3]), 1e-9)
    assert rep.certified == (factor < 1)


def test_rotated_matrix_within_tolerance_is_proved():
    Q = np.linalg.qr(np.random.default_rng(4).normal(size=(6, 6)))[0]
    M = Q @ np.diag([-5e-10, 0.3, 0.5, 1.0, 2.0, 4.0]) @ Q.T
    M = 0.5 * (M + M.T)
    rep = _check(M, 1e-9)
    assert rep.min_eigenvalue is None


def test_gaussian_points_at_spacing_1e_4():
    k = build_kernel(Gaussian(1.0))
    P = 1e-4 * np.arange(200.0).reshape(-1, 1)
    for tolerance in (1e-9, 0.0):
        _check(assemble_gram(k, P), tolerance)


def _mp_extremes(M):
    with mpmath.workdps(40):
        evals = mpmath.mp.eigsy(mpmath.matrix(M.tolist()), eigvals_only=True)
        values = sorted(evals[i] for i in range(M.shape[0]))
        return values[0], values[-1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(-1.0, 3.0),
       st.floats(-0.05, 0.05), st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_a_cholesky_certificate_holds_in_high_precision(m, seed, log_max, delta, tolerance):
    """A symmetric matrix with lambda_min = -(1 + delta) * tolerance * max(1, lambda_max):
    whenever a Cholesky certifies it, its exact spectrum passes the rule with
    the reported rho, and rho is at most the exact lambda_max."""
    rng = np.random.default_rng(seed)
    top = 10.0**log_max
    evals = np.concatenate([[-(1 + delta) * tolerance * max(1.0, top), top],
                            rng.uniform(0.0, top, size=m - 2)])
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    M = (Q * evals) @ Q.T
    M = 0.5 * (M + M.T)
    rep = certify_psd(M, tolerance)
    exact = _certify(M, tolerance, "eigvalsh")[0]
    if rep.min_eigenvalue is None:
        lo, hi = _mp_extremes(M)
        assert lo >= -tolerance * max(1.0, rep.max_eigenvalue)
        assert rep.max_eigenvalue <= hi * (1 + mpmath.mpf(1e-12))
    elif rep.to_json() != exact.to_json():  # a 2 x 2 block's witness decided
        assert not exact.certified
        lo, hi = _mp_extremes(M)
        _assert_pair_witness(rep, M, tolerance, float(lo), float(hi))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_rho_is_at_most_lambda_max_of_a_symmetric_matrix(m, seed, log_scale):
    """rho of a symmetric matrix with entries of either sign is at most its
    exact lambda_max, up to the rounding of the mean of its entries (m eps
    times their absolute sum) and of a product. A tolerance of 1e6 shifts
    past every lambda_min here, so the Cholesky succeeds and returns rho."""
    B = 10.0**log_scale * np.random.default_rng(seed).normal(size=(m, m))
    M = B + B.T
    rho = _shifted_cholesky([M], [Term(None, 1)], 1e6)
    assert rho is not None
    assert rho <= _mp_extremes(M)[1] + (m + 2) * _EPS * np.abs(M).sum()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0))
def test_rho_of_a_lift_is_at_most_lambda_max(n, a, seed, log_gamma):
    """A Gaussian lifted by A = B B^T, B with entries of either sign: the
    Cholesky proves its Gram, and the reported rho = rho_F * a_max is at
    most the dense lambda_max of the (n a) x (n a) Gram."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(a, a))
    k = build_kernel(Lift(Gaussian(10.0**log_gamma), tuple(map(tuple, (B @ B.T).tolist()))))
    gram = assemble_gram(k, rng.uniform(0.0, 1.0, size=(n, 1)))
    rep = certify_psd(gram)
    assert rep.certified and rep.min_eigenvalue is None
    assert rep.max_eigenvalue <= np.linalg.eigvalsh(gram.data)[-1] * (1 + 1e-12)


@pytest.mark.parametrize("entry", [e for e in ZOO if e.is_pd], ids=lambda e: e.name)
def test_a_pd_zoo_gram_calls_no_eigensolver(entry, monkeypatch):
    """On 400 points of [0, 1], and weighted over the 257-node trapezoid
    measure of [0, 1], as the equivalence harness weights it; the reported
    rho is at most the dense lambda_max."""
    k = build_kernel(entry.spec)
    line = make_measure(make_box_domain([0.0], [1.0]), "trapezoid", 257)
    grams = [assemble_gram(k, np.linspace(0.0, 1.0, 400).reshape(-1, 1)), weighted_gram(k, line)]
    tops = [np.linalg.eigvalsh(g.data)[-1] for g in grams]
    calls = [_spy(monkeypatch, name) for name in ("eigh", "eigvalsh", "cholesky")]
    counted, ndims = np.linalg.cholesky, []

    def cholesky(A, *args, **kwargs):
        ndims.append(np.ndim(A))
        return counted(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    for gram, top in zip(grams, tops):
        rep = certify_psd(gram)
        assert rep.certified and rep.min_eigenvalue is None
        assert rep.max_eigenvalue <= top * (1 + 1e-12)
    assert [len(c) for c in calls] == [0, 0, 2 * len(k.terms)]
    # the proof factors one Gram's matrices, not stacks of them
    assert ndims == [2] * (2 * len(k.terms))


def test_a_refuted_gram_calls_no_eigensolver_and_no_cholesky(monkeypatch):
    (entry,) = [e for e in ZOO if e.name == "neg_distance"]
    gram = assemble_gram(build_kernel(entry.spec), np.linspace(0.0, 1.0, 400).reshape(-1, 1))
    calls = [_spy(monkeypatch, name) for name in ("eigh", "eigvalsh", "cholesky")]
    rep = certify_psd(gram)
    assert rep.verdict == "witness_found"
    assert [len(c) for c in calls] == [0, 0, 0]
    # the least adjacent block of -|x - y| on a uniform grid: its lower eigenvalue
    # is -h, h the spacing, and the pair's coefficients are (1, 1) / sqrt(2)
    C = rep.witness.coefficients
    assert np.count_nonzero(C) == 2
    assert rep.min_eigenvalue == pytest.approx(-1.0 / 399, rel=1e-12)


def test_a_refutation_within_rounding_of_the_threshold_falls_back_to_an_eigensolve(monkeypatch):
    """The 64 x 64 ones matrix with M[0, 0] lowered by 1e-8: its first 2 x 2
    block fails the pre-test, but that block's value, about -5e-9, is above
    -tolerance * max(1, ub) for the Frobenius bound ub = 64; the eigenvalue
    rule, whose lambda_min is about -1e-8 against a threshold of -6.4e-8,
    certifies it."""
    M = np.ones((64, 64))
    M[0, 0] -= 1e-8
    assert _least_pair(M)[1] < -1e-9 * max(1.0, M.diagonal().max())
    calls = [_spy(monkeypatch, name) for name in ("eigh", "eigvalsh", "cholesky")]
    rep = certify_psd(M)
    assert rep.verdict == "certified_psd" and rep.witness is None
    assert [len(c) for c in calls] == [0, 1, 0]
    assert rep.to_json() == _certify(M, 1e-9, "eigvalsh")[0].to_json()
