from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.certify import (
    _certify,
    _is_symmetric,
    _symmetrized,
    assemble_gram,
    certify_psd,
    direct_quadform,
    random_search_witness,
)
from mkernel.domains import make_box_domain, make_circle_domain
from mkernel.kernels import (Gaussian, Lift, NegDistance, Riesz, build_kernel,
                             kernel_from_callable, kernel_zoo)
from oracles import complex_quadform
from test_energy import _skewed_kernel


def test_ones_matrix_eigenvalues():
    n = 4
    rep = certify_psd(np.ones((n, n)))
    # a Cholesky decides: no least eigenvalue, and rho from the ones vector is n
    assert rep.verdict == "certified_psd"
    assert rep.min_eigenvalue is None
    assert rep.max_eigenvalue == pytest.approx(n, abs=1e-12)
    exact = _certify(np.ones((n, n)), 1e-9, "eigvalsh")[0]
    assert exact.verdict == "certified_psd"
    assert exact.max_eigenvalue == pytest.approx(n, abs=1e-12)
    assert abs(exact.min_eigenvalue) <= 1e-12


def test_swap_matrix_witness():
    rep = certify_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rep.verdict == "witness_found"
    assert rep.min_eigenvalue == pytest.approx(-1.0)
    c = rep.witness.coefficients.ravel()
    assert_allclose(np.abs(c), np.full(2, 1 / np.sqrt(2)), rtol=1e-12)
    assert rep.witness.value == pytest.approx(-1.0, abs=1e-12)
    assert rep.witness.points is None


def test_witness_value_matches_direct_double_sum():
    k = build_kernel(NegDistance())
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.uniform(0, 1, size=(int(rng.integers(2, 7)), 2))
        gram = assemble_gram(k, pts)
        rep = certify_psd(gram)
        assert rep.verdict == "witness_found"
        C = rep.witness.coefficients
        total = 0.0
        for i in range(len(pts)):
            for j in range(len(pts)):
                total += C[i] @ k(pts[i], pts[j]) @ C[j]
        assert abs(total - rep.witness.value) <= 1e-10
        assert rep.witness.value < 0


def test_gaussian_grams_certify():
    k = build_kernel(Lift(Gaussian(1.3), ((2.0, 1.0), (1.0, 2.0))))
    rng = np.random.default_rng(1)
    for _ in range(50):
        pts = rng.uniform(-1, 1, size=(int(rng.integers(1, 8)), 3))
        rep = certify_psd(assemble_gram(k, pts))
        assert rep.certified


def test_assemble_gram_blocks_match_single_eval():
    k = build_kernel(Lift(Gaussian(0.5), ((2.0, 1.0), (1.0, 2.0))))
    pts = np.array([[0.0], [0.4], [1.0]])
    gram = assemble_gram(k, pts)
    assert gram.block_dim == 2
    assert gram.data.shape == (6, 6)
    for i in range(3):
        for j in range(3):
            assert_allclose(gram.blocks[i, j], k(pts[i], pts[j]), rtol=0, atol=0)
    assert np.array_equal(gram.data, gram.data.T)


def test_duplicate_points_warn():
    k = build_kernel(Gaussian(1.0))
    gram = assemble_gram(k, [[0.2], [0.2], [0.7]])
    assert gram.has_duplicates
    rep = certify_psd(gram)
    assert any("duplicate" in w for w in rep.warnings)


def test_unbounded_kernel_refused():
    k = build_kernel(Riesz(1.0, 0.0), allow_unbounded=True)
    with pytest.raises(ValueError, match="unbounded"):
        assemble_gram(k, [[0.1], [0.9]])


def test_tolerance_is_relative_to_max_eigenvalue():
    assert certify_psd(np.diag([1.0, -5e-10]), tolerance=1e-9).certified
    assert not certify_psd(np.diag([1.0, -5e-9]), tolerance=1e-9).certified
    # large lambda_max relaxes the absolute threshold
    assert certify_psd(np.diag([1e6, -1e-4]), tolerance=1e-9).certified


def test_report_json_shape():
    rep = certify_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    doc = rep.to_json()
    assert set(doc) >= {"verdict", "min_eigenvalue", "witness", "tolerance"}
    assert set(doc["witness"]) == {"points", "coefficients", "value"}


def test_random_search_finds_neg_distance():
    dom = make_box_domain([0.0], [1.0])
    k = build_kernel(NegDistance())
    rep = random_search_witness(k, dom, trials=50, seed=0)
    assert rep.found and rep.verdict == "witness_found"
    assert rep.witness.value < 0
    assert rep.witness.points is not None
    # deterministic given the seed
    rep2 = random_search_witness(k, dom, trials=50, seed=0)
    assert rep.trials == rep2.trials
    assert_allclose(rep.witness.coefficients, rep2.witness.coefficients, rtol=0, atol=0)


def test_random_search_certifies_gaussian():
    dom = make_circle_domain(1.0)
    k = build_kernel(Gaussian(2.0))
    rep = random_search_witness(k, dom, trials=80, seed=3)
    assert not rep.found
    assert rep.min_margin >= -1e-9
    assert rep.trials == 80


def test_random_search_zero_trials():
    dom = make_box_domain([0.0], [1.0])
    rep = random_search_witness(build_kernel(Gaussian(1.0)), dom, trials=0, seed=0)
    assert not rep.found and rep.trials == 0
    assert np.isnan(rep.min_margin)


def test_random_search_bad_range():
    dom = make_box_domain([0.0], [1.0])
    with pytest.raises(ValueError):
        random_search_witness(build_kernel(Gaussian(1.0)), dom, n_range=(0, 4))


def test_complex_quadform_real_for_pd():
    rng = np.random.default_rng(9)
    for entry in kernel_zoo():
        if not entry.is_pd:
            continue
        k = build_kernel(entry.spec)
        pts = rng.uniform(0, 1, size=(5, 1))
        gram = assemble_gram(k, pts)
        for _ in range(20):
            Z = rng.normal(size=(5, k.output_dim)) + 1j * rng.normal(size=(5, k.output_dim))
            re, im = complex_quadform(gram, Z)
            assert re >= -1e-10
            assert im <= 1e-10


def test_complex_quadform_size_check():
    with pytest.raises(ValueError, match="length"):
        complex_quadform(np.eye(3), np.ones(2, dtype=complex))


def test_direct_quadform_blockwise():
    blocks = np.zeros((2, 2, 1, 1))
    blocks[0, 1, 0, 0] = blocks[1, 0, 0, 0] = 1.0
    C = np.array([[1.0], [-1.0]])
    assert direct_quadform(blocks, C) == pytest.approx(-2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    pts = np.array([[0.1], [0.4], [bad], [0.9]])
    with pytest.raises(ValueError, match=r"non-finite value .* in points at index \(2, 0\)"):
        assemble_gram(build_kernel(Gaussian(1.0)), pts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, 1.7e308])
def test_non_finite_matrix_rejected(bad):
    # a finite 1e308 or 1.7e308 beside a diagonal of 1e308 makes lambda_max
    # (2e308 or 2.7e308) overflow: the Cholesky proof's rho is inf for the
    # first, and the pre-test sends the second, which is indefinite, to an
    # eigensolve; neither may set a threshold of -inf, and the error is the
    # only thing said: no numpy overflow warning comes before it
    M = 1e308 * np.eye(3)
    M[1, 2] = M[2, 1] = bad
    message = ("largest eigenvalue overflows a float" if np.isfinite(bad)
               else r"non-finite value .* in matrix at index \(1, 2\)")
    with pytest.raises(ValueError, match=message):
        certify_psd(M)
    with pytest.raises(ValueError, match=message):
        _certify(M, 1e-9, "eigvalsh")


def test_non_finite_block_gram_rejected():
    k = kernel_from_callable(
        lambda x, y: np.nan if x[0] == y[0] == 0.5 else np.exp(-(x[0] - y[0]) ** 2), 1, "nan")
    gram = assemble_gram(k, [[0.1], [0.5], [0.9]])
    with pytest.raises(ValueError, match=r"non-finite value nan in matrix at index \(1, 1\)"):
        certify_psd(gram)


@pytest.mark.parametrize("tolerance", [np.nan, -0.5, np.inf])
def test_tolerance_must_be_finite_and_nonnegative(tolerance):
    k = build_kernel(NegDistance())
    gram = assemble_gram(k, [[0.1], [0.5], [0.9]])
    message = f"tolerance must be a finite number >= 0, got {tolerance!r}"
    with pytest.raises(ValueError, match=message):
        certify_psd(gram, tolerance)
    with pytest.raises(ValueError, match=message):
        random_search_witness(k, make_box_domain([0.0], [1.0]), trials=5, tolerance=tolerance)


def _reference_decision(gram, tolerance=1e-9):
    """The decision as a full eigh with eigenvectors on the symmetrized matrix."""
    M = 0.5 * (gram.data + gram.data.T)
    evals, evecs = np.linalg.eigh(M)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    return lam_min >= -tolerance * max(1.0, lam_max), evals, evecs


def _assert_pair_witness(rep, gram, tolerance, lo, hi):
    """The contract of a witness that `certify_psd` took from a 2 x 2 principal
    block without an eigensolve, against the exact extremes lo and hi of the
    Gram's spectrum: at most two adjacent points carry coefficients; an exact
    double sum over the formed Gram equals the value to rounding and is
    negative; the value is `min_eigenvalue`, at least lo, and
    `max_eigenvalue` is at least hi (up to an eigensolve's agreement bound);
    and the report satisfies its own rule."""
    bound = 1e-12 * max(1.0, hi)
    assert rep.verdict == "witness_found"
    assert rep.min_eigenvalue == rep.witness.value
    C = rep.witness.coefficients
    rows = np.flatnonzero(np.any(C != 0.0, axis=1))
    assert 1 <= rows.size <= 2 and rows[-1] - rows[0] == rows.size - 1
    data = gram.data if hasattr(gram, "data") else np.asarray(gram, dtype=float)
    N = C.shape[1]
    idx = (rows[:, None] * N + np.arange(N)).ravel()
    c = C[rows].ravel()
    terms = [Fraction(c[x]) * Fraction(data[idx[x], idx[y]]) * Fraction(c[y])
             for x in range(idx.size) for y in range(idx.size)]
    exact, magnitude = sum(terms), sum(map(abs, terms))
    assert exact < 0
    assert abs(exact - Fraction(rep.min_eigenvalue)) <= 2 * np.finfo(float).eps * magnitude
    assert rep.min_eigenvalue >= lo - bound
    assert rep.max_eigenvalue >= hi - bound
    assert rep.min_eigenvalue < -tolerance * max(1.0, rep.max_eigenvalue)


def _spy(monkeypatch, name):
    real = getattr(np.linalg, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_certified_gram_solves_without_eigenvectors(monkeypatch):
    k = build_kernel(Lift(Gaussian(0.5), ((2.0, 1.0), (1.0, 2.0))))
    gram = assemble_gram(k, np.linspace(0.0, 1.0, 12).reshape(-1, 1))
    eigh_calls, eigvalsh_calls = _spy(monkeypatch, "eigh"), _spy(monkeypatch, "eigvalsh")
    assert certify_psd(gram).certified
    assert (len(eigh_calls), len(eigvalsh_calls)) == (0, 0)
    # the eigenvalue-solving path solves the one factor once, without eigenvectors
    assert _certify(gram, 1e-9, "eigvalsh")[0].certified
    assert (len(eigh_calls), len(eigvalsh_calls)) == (0, 1)


def test_witness_gram_solves_with_eigenvectors_once(monkeypatch):
    gram = assemble_gram(build_kernel(NegDistance()), np.linspace(0.0, 1.0, 6).reshape(-1, 1))
    eigh_calls, eigvalsh_calls = _spy(monkeypatch, "eigh"), _spy(monkeypatch, "eigvalsh")
    # the zero diagonal and -|x - y| beside it fail a 2 x 2 principal block:
    # certify_psd returns that block's witness, and the eigenvalue-solving
    # path solves without eigenvectors, then once with them for the witness
    assert certify_psd(gram).verdict == "witness_found"
    assert (len(eigh_calls), len(eigvalsh_calls)) == (0, 0)
    assert _certify(gram, 1e-9, "eigvalsh")[0].verdict == "witness_found"
    assert (len(eigh_calls), len(eigvalsh_calls)) == (1, 1)


def test_verdict_matches_full_eigh_reference_on_zoo():
    rng = np.random.default_rng(17)
    for entry in kernel_zoo():
        k = build_kernel(entry.spec)
        N = k.output_dim
        for n in sorted({1, 2, 3, *rng.integers(1, 64 // N + 1, size=4).tolist(), 64 // N}):
            gram = assemble_gram(k, rng.uniform(0.0, 1.0, size=(n, 1)))
            ok, evals, evecs = _reference_decision(gram)
            rep = certify_psd(gram)
            assert rep.certified == ok, (entry.name, n)
            # two eigensolvers agree to a backward error of order eps * ||M||
            bound = 1e-12 * max(1.0, evals[-1])
            exact = _certify(gram, 1e-9, "eigvalsh")[0]
            if rep.min_eigenvalue is None:  # a Cholesky decided: rho <= lambda_max
                assert rep.certified
                assert rep.max_eigenvalue <= evals[-1] + bound
            elif rep.to_json() != exact.to_json():  # a 2 x 2 block's witness decided
                _assert_pair_witness(rep, gram, 1e-9, evals[0], evals[-1])
            else:
                assert rep.max_eigenvalue == pytest.approx(evals[-1], abs=bound)
                assert rep.min_eigenvalue == pytest.approx(evals[0], abs=bound)
            assert exact.max_eigenvalue == pytest.approx(evals[-1], abs=bound)
            assert exact.min_eigenvalue == pytest.approx(evals[0], abs=bound)
            if not ok:
                # the eigen-witness comes from the same solve as the reference,
                # with the sign that makes its largest entry positive
                v = evecs[:, 0]
                C = (v if v[np.argmax(np.abs(v))] > 0 else -v).reshape(n, N)
                assert np.array_equal(exact.witness.coefficients, C)
                assert exact.min_eigenvalue == float(evals[0])


def test_eigenvalue_disagreement_gives_consistent_report(monkeypatch):
    M = np.diag([1.0, 2.0, 1e-12])
    real = np.linalg.eigvalsh

    def pushed_below_threshold(a, *args, **kwargs):
        evals = real(a, *args, **kwargs)
        evals[..., 0] = -1.0000001e-9 * max(1.0, evals[..., -1])
        return evals

    def fails(a, *args, **kwargs):
        raise np.linalg.LinAlgError("forced: the eigensolve path decides")

    monkeypatch.setattr(np.linalg, "eigvalsh", pushed_below_threshold)
    monkeypatch.setattr(np.linalg, "cholesky", fails)
    eigh_calls = _spy(monkeypatch, "eigh")
    rep = certify_psd(M, tolerance=1e-9)
    evals = np.linalg.eigh(M)[0]
    assert len(eigh_calls) == 2  # one from certify_psd, one above
    assert rep.verdict == "certified_psd"
    assert rep.witness is None
    assert (rep.min_eigenvalue, rep.max_eigenvalue) == (float(evals[0]), float(evals[-1]))


def test_asymmetric_input_is_symmetrized():
    A = np.array([[2.0, 1.0], [1.0 + 1e-6, 2.0]])
    rep = certify_psd(A)
    expected = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert rep.certified
    assert rep.min_eigenvalue is None
    assert rep.max_eigenvalue <= float(expected[-1]) * (1 + 1e-12)
    assert any("asymmetric" in w for w in rep.warnings)
    exact = _certify(A, 1e-9, "eigvalsh")[0]
    assert (exact.min_eigenvalue, exact.max_eigenvalue) == (float(expected[0]), float(expected[-1]))
    assert exact.warnings == rep.warnings


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (128, 128), (129, 129), (300, 300),
                                   (7, 24, 24), (2, 260, 260)])
def test_the_tiled_symmetry_test_is_the_elementwise_one(shape):
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    A = rng.normal(size=shape)
    F = A + np.swapaxes(A, -1, -2)
    F[..., 0, -1], F[..., -1, 0] = 0.0, -0.0  # equal as floats
    cases = [F] + [F.copy() for _ in range(8)]
    m = shape[-1]
    for G in cases[1:]:
        i, j = rng.integers(0, m, size=2)
        G.reshape(-1, m, m)[-1, i, j] += 1.0  # in the last matrix, asymmetric off the diagonal
    for G in cases:
        symmetric = bool((G == np.swapaxes(G, -1, -2)).all())
        assert _is_symmetric(G) == symmetric
        M, gap = _symmetrized(G)
        assert (M is G) == symmetric and bool(np.all(gap == 0.0)) == symmetric


def test_asymmetric_callable_is_reported_not_mirrored():
    k = _skewed_kernel()
    P = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
    g = assemble_gram(k, P)
    for i in range(5):
        for j in range(5):
            assert g.blocks[i, j] == k(P[i], P[j])
    gap = np.max(np.abs(g.data - g.data.T))
    rep = certify_psd(g)
    assert f"asymmetric input symmetrized (max gap {gap:.3e})" in rep.warnings


def test_empty_gram_is_rejected():
    with pytest.raises(ValueError, match="^the Gram matrix is empty"):
        certify_psd(np.zeros((0, 0)))
    gram = assemble_gram(build_kernel(Gaussian(1.0)), np.zeros((0, 1)))
    with pytest.raises(ValueError, match="^the Gram matrix is empty"):
        certify_psd(gram)


def test_witness_sign_does_not_follow_the_eigensolver(monkeypatch):
    gram = assemble_gram(build_kernel(NegDistance()), [[0.1], [0.5], [0.45], [0.9], [0.2]])
    rep = certify_psd(gram)
    C = rep.witness.coefficients.ravel()
    assert C[np.argmax(np.abs(C))] > 0
    real = np.linalg.eigh

    def negated(a, *args, **kwargs):
        evals, evecs = real(a, *args, **kwargs)
        return evals, -evecs

    monkeypatch.setattr(np.linalg, "eigh", negated)
    flipped = certify_psd(gram)
    assert flipped.to_json() == rep.to_json()
    assert flipped.witness.value == rep.witness.value
