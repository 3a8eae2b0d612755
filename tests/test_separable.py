"""Separable kernels decided and decomposed on their Kronecker factors.

A `Lift` Gram is G (x) A, a `Conjugate` of a one-term scalar-factor kernel
k A is the lift G (x) B A B^T, and a `BlockDiag` Gram is the direct sum of
its blocks' terms, so `certify_psd` solves only the factors. Every case here is
checked against a dense solve of the formed block Gram `g.data`: the verdict
is equal, the extreme eigenvalues of the eigenvalue-solving path agree within
1e-12 max(1, lambda_max), a Cholesky decision's rho is at most lambda_max,
a witness taken from a 2 x 2 principal block bounds both extremes, and a
witness is negative and recomputed by a direct double sum.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mkernel.certify import DEFAULT_TOLERANCE, _certify, assemble_gram, certify_psd
from mkernel.domains import make_box_domain, make_measure
from mkernel.integral import measure_gram
from mkernel.kernels import (
    BlockDiag,
    Brownian,
    Conjugate,
    Constant,
    Gaussian,
    GramBlockMatrix,
    Lift,
    NegDistance,
    Riesz,
    Scale,
    Sum,
    bound_estimate,
    build_kernel,
    kernel_zoo,
)
from mkernel.spectral import nystrom_decompose, trace_functional
from test_certify import _assert_pair_witness, _spy

EPS = np.finfo(float).eps


def _psd(seed, order, rank):
    """A random symmetric PSD matrix of the given order and rank, as rows."""
    B = np.random.default_rng(seed).normal(size=(order, rank))
    return tuple(map(tuple, (B @ B.T).tolist()))


def _matrix(seed, rows, cols, rank=None):
    """A random rows x cols matrix of the given rank (full by default), as rows."""
    rng = np.random.default_rng(seed)
    rank = rank or min(rows, cols)
    B = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    return tuple(map(tuple, B.tolist()))


def _dense(g):
    """Extreme eigenvalues and the verdict of one dense solve of the formed Gram."""
    evals = np.linalg.eigvalsh(g.data)
    lo, hi = float(evals[0]), float(evals[-1])
    return lo, hi, lo >= -DEFAULT_TOLERANCE * max(1.0, hi)


def _double_sum(k, P, C):
    """sum_ij c_i^T K(x_i, x_j) c_j from single kernel evaluations, summed exactly,
    with the sum of the terms' magnitudes."""
    terms = [C[i, a] * v * C[j, b] for i in range(len(P)) for j in range(len(P))
             for (a, b), v in np.ndenumerate(k(P[i], P[j]))]
    return math.fsum(terms), math.fsum(abs(x) for x in terms)


def _check_against_dense(spec, P):
    """The three checks against a dense solve; returns the report."""
    k = build_kernel(spec)
    g = assemble_gram(k, P)
    rep = certify_psd(g)
    lo, hi, ok = _dense(g)
    bound = 1e-12 * max(1.0, hi)
    assert rep.certified == ok
    exact = _certify(g, DEFAULT_TOLERANCE, "eigvalsh")[0]
    assert exact.certified == ok
    assert abs(exact.min_eigenvalue - lo) <= bound
    assert abs(exact.max_eigenvalue - hi) <= bound
    if rep.min_eigenvalue is None:  # a Cholesky decided: rho <= lambda_max
        assert rep.certified and rep.max_eigenvalue <= hi + bound
        return rep
    if rep.to_json() != exact.to_json():  # a 2 x 2 block's witness decided
        _assert_pair_witness(rep, g, DEFAULT_TOLERANCE, lo, hi)
    if not rep.certified:
        for r in (rep, exact):
            C = r.witness.coefficients
            assert C.shape == (len(P), k.output_dim)
            assert np.linalg.norm(C) == pytest.approx(1.0, abs=1e-12)
            direct, magnitude = _double_sum(k, P, C)
            assert direct < 0
            assert abs(r.witness.value - direct) <= C.size**2 * EPS * magnitude
            assert not np.signbit(C[C == 0.0]).any()
        # the eigen-witness is a unit eigenvector of the least eigenvalue
        assert abs(exact.witness.value - exact.min_eigenvalue) <= bound
    return rep


POINTS = np.linspace(0.05, 0.95, 9).reshape(-1, 1) ** 1.5


@pytest.mark.parametrize("rank", [3, 1], ids=["full_rank", "rank_one"])
def test_lift_of_a_random_psd_matrix(rank):
    rep = _check_against_dense(Lift(Gaussian(2.0), _psd(5, 3, rank)), POINTS)
    assert rep.certified


def test_block_diag_with_mixed_sizes_and_a_nested_lift():
    spec = BlockDiag((Lift(Gaussian(1.0), _psd(1, 2, 2)), Brownian(),
                      BlockDiag((Constant(0.5), Lift(Riesz(1.0, 0.1), _psd(2, 3, 2))))))
    rep = _check_against_dense(spec, POINTS)
    assert rep.certified


def test_lift_of_neg_distance_has_a_kronecker_witness():
    A = np.array(_psd(3, 2, 2))
    rep = _check_against_dense(Lift(NegDistance(), tuple(map(tuple, A))), POINTS)
    assert rep.verdict == "witness_found"
    # v (x) u: every point's coefficients are a multiple of A's top eigenvector
    u = np.linalg.eigh(A)[1][:, -1]
    C = rep.witness.coefficients
    assert np.allclose(C - np.outer(C @ u, u), 0.0, atol=1e-12)


def test_block_diag_witness_sits_in_the_failing_block():
    rep = _check_against_dense(BlockDiag((Gaussian(1.0), NegDistance())), POINTS)
    assert rep.verdict == "witness_found"
    C = rep.witness.coefficients
    assert np.all(C[:, 0] == 0.0) and np.any(C[:, 1] != 0.0)
    C = C[:, 1]
    assert C[np.argmax(np.abs(C))] > 0


@pytest.mark.parametrize("spec", [
    Lift(NegDistance(), _psd(3, 2, 2)),
    BlockDiag((Gaussian(1.0), Lift(NegDistance(), _psd(3, 2, 2)), Brownian())),
], ids=["lift", "block_diag"])
def test_a_refuted_lift_witness_sits_in_its_slots_without_forming_the_gram(spec, monkeypatch):
    """A refuted Lift, alone or as a block, is decided by the witness of its
    scalar factor's least 2 x 2 block: no eigensolve, `data` never formed,
    and the coefficients are v (x) u on two adjacent points, u A's top
    eigenvector, in the lift's component slots. The largest entry of u is
    negative, so the witness is negated: its zeros must stay 0.0."""
    k = build_kernel(spec)
    (t,) = [t for t in k.terms if t.matrix.shape == (2, 2)]
    u = t.evecs[:, -1]
    assert u[np.argmax(np.abs(u))] < 0
    g = assemble_gram(k, np.linspace(0.0, 1.0, 400).reshape(-1, 1))
    calls = [_spy(monkeypatch, name) for name in ("eigh", "eigvalsh")]
    rep = certify_psd(g)
    assert rep.verdict == "witness_found"
    assert calls == [[], []]
    assert "data" not in vars(g)
    C = rep.witness.coefficients
    inside = np.zeros(C.shape[1], bool)
    inside[t.offset:t.offset + t.size] = True
    assert np.all(C[:, ~inside] == 0.0)
    rows = np.flatnonzero(np.any(C != 0.0, axis=1))
    assert rows.size == 2 and rows[1] == rows[0] + 1
    assert not np.signbit(C[C == 0.0]).any()
    lifted = C[:, inside]
    assert np.allclose(lifted - np.outer(lifted @ u, u), 0.0, atol=1e-15)
    direct, magnitude = _double_sum(k, g.points[rows], C[rows])
    assert abs(rep.witness.value - direct) <= 2 * EPS * magnitude
    assert rep.witness.value == rep.min_eigenvalue < 0


# Conjugates of a one-term scalar-factor kernel k A, each the lift k B A B^T.
CONJUGATED_LIFTS = {
    "full_column_rank": Conjugate(Lift(Gaussian(2.0), _psd(6, 3, 3)), _matrix(7, 4, 3)),
    "rank_deficient": Conjugate(Lift(Gaussian(2.0), _psd(6, 3, 3)), _matrix(8, 4, 3, rank=2)),
    "one_row": Conjugate(Lift(Gaussian(2.0), _psd(6, 3, 3)), _matrix(9, 1, 3)),
    "scalar_column": Conjugate(Gaussian(1.0), _matrix(10, 3, 1)),
    "twice": Conjugate(Conjugate(Lift(Riesz(1.0, 0.1), _psd(11, 2, 2)), _matrix(12, 3, 2)),
                       _matrix(13, 2, 3)),
    "neg_distance": Conjugate(Lift(NegDistance(), _psd(14, 2, 2)), _matrix(15, 3, 2)),
}


@pytest.mark.parametrize("name", CONJUGATED_LIFTS)
def test_conjugated_lift_agrees_with_a_dense_solve(name):
    spec = CONJUGATED_LIFTS[name]
    (t,) = build_kernel(spec).terms
    assert t.dim == 1 and t.matrix.shape == (t.size, t.size)
    rep = _check_against_dense(spec, POINTS)
    assert rep.verdict == ("witness_found" if name == "neg_distance" else "certified_psd")


@pytest.mark.parametrize("spec", [
    Conjugate(Sum((Lift(Gaussian(1.0), _psd(1, 2, 2)), Lift(Brownian(), _psd(2, 2, 1)))),
              _matrix(3, 3, 2)),
    Conjugate(BlockDiag((Gaussian(1.0), Brownian())), _matrix(4, 3, 2)),
    Conjugate(Scale(0.5, Lift(Gaussian(1.0), _psd(5, 2, 2))), _matrix(6, 1, 2)),
], ids=["sum", "two_block_block_diag", "dense_term"])
def test_conjugate_of_any_other_kernel_is_one_dense_term(spec):
    k = build_kernel(spec)
    (t,) = k.terms
    assert t.dim == k.output_dim and t.matrix.shape == (1, 1)
    _check_against_dense(spec, POINTS)


@pytest.mark.parametrize("spec", [
    Lift(Gaussian(2.0), _psd(5, 3, 1)),
    BlockDiag((Lift(Gaussian(1.0), _psd(1, 2, 2)), Brownian(), BlockDiag((NegDistance(),)))),
    *CONJUGATED_LIFTS.values(),
], ids=["lift", "nested_block_diag", *(f"conjugate_{name}" for name in CONJUGATED_LIFTS)])
def test_formed_gram_equals_the_evaluated_blocks_bit_for_bit(spec):
    k = build_kernel(spec)
    g = assemble_gram(k, POINTS)
    evaluated = GramBlockMatrix(POINTS, k.output_dim, k.eval_pairwise(POINTS, POINTS))
    assert np.array_equal(g.data, evaluated.data)


def _assert_verdict_never_forms_the_block_gram(spec):
    """Assembling the Gram over 400 points and certifying it peaks below one
    (nN)^2 matrix under tracemalloc: the factor, its shifted copy and its
    Cholesky factor are each 1/N^2 of that."""
    k = build_kernel(spec)
    P = np.linspace(0.0, 1.0, 400).reshape(-1, 1)
    certify_psd(assemble_gram(k, P[:5]))  # warm up, so lazy set-up is not counted
    tracemalloc.start()
    try:
        rep = certify_psd(assemble_gram(k, P))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.certified
    order = len(P) * k.output_dim
    assert peak < order**2 * 8


def test_lift_verdict_never_forms_the_block_gram():
    _assert_verdict_never_forms_the_block_gram(Lift(Gaussian(1.0), ((2.0, 1.0), (1.0, 2.0))))


def test_conjugated_lift_verdict_never_forms_the_block_gram():
    (entry,) = [e for e in kernel_zoo() if e.name == "gaussian_conjugated"]
    _assert_verdict_never_forms_the_block_gram(entry.spec)


@pytest.mark.parametrize("entry", [e for e in kernel_zoo() if e.is_pd], ids=lambda e: e.name)
def test_the_verdict_copies_no_factor(entry):
    """Certifying a Gram over 400 points peaks below 2.1 times its largest
    factor under tracemalloc: the only copies are one term's shifted factor
    and its Cholesky factor, both dropped before the next term, so no two
    terms' copies are held at once and no factor is stacked with another.
    (`eigvalsh` copies its input too, in a buffer tracemalloc does not see.)"""
    k = build_kernel(entry.spec)
    P = np.linspace(0.0, 1.0, 400).reshape(-1, 1)
    certify_psd(assemble_gram(k, P[:5]))  # warm up, so lazy set-up is not counted
    gram = assemble_gram(k, P)
    tracemalloc.start()
    try:
        rep = certify_psd(gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.certified
    assert peak < 2.1 * max(F.nbytes for F, _ in gram.factors)


def test_block_diag_spectrum_matches_a_dense_solve():
    k = build_kernel(BlockDiag((Lift(Gaussian(2.0), _psd(4, 2, 1)), Brownian())))
    mu = make_measure(make_box_domain([0.0], [1.0]), "trapezoid", 65)
    dec = nystrom_decompose(k, mu)
    sw = np.sqrt(np.repeat(mu.weights, k.output_dim))
    dense = np.linalg.eigvalsh(measure_gram(k, mu).data * np.multiply.outer(sw, sw))[::-1]
    smax = float(dense[0])
    assert np.all(np.diff(dec.sigmas) <= 0)
    r = min(dec.rank, int(np.sum(dense > 1e-12 * smax)))
    assert np.max(np.abs(dec.sigmas[:r] - dense[:r])) <= 1e-12 * smax
    assert float(dec.sigmas.sum()) + dec.dropped_mass == pytest.approx(
        trace_functional(k, mu), abs=1e-12 * smax * dense.size)
    # eigenfunctions are orthonormal in L^2(mu), each inside one block's slots
    Phi = dec.phis.reshape(dec.rank, -1) * sw
    assert np.max(np.abs(Phi @ Phi.T - np.eye(dec.rank))) <= 1e-9
    lift_part = np.abs(dec.phis[:, :, :2]).sum(axis=(1, 2)) > 0
    brownian_part = np.abs(dec.phis[:, :, 2]).sum(axis=1) > 0
    assert not np.any(lift_part & brownian_part)


# ---------------------------------------------------------------- generated cases

LEAVES = st.sampled_from([Gaussian(0.5), Gaussian(4.0), Brownian(), Constant(0.7),
                          NegDistance(), Riesz(1.0, 0.1)])
MATRICES = st.builds(_psd, st.integers(0, 2**16), st.integers(1, 3), st.integers(1, 3))
LIFTS = st.builds(Lift, LEAVES, MATRICES)


def _conjugations(inner):
    """Conjugate(K, B) of a generated K, with B of 1-3 rows and any rank."""
    cols = build_kernel(inner).output_dim
    return st.builds(Conjugate, st.just(inner), st.builds(
        _matrix, st.integers(0, 2**16), st.integers(1, 3), st.just(cols),
        st.none() | st.integers(1, cols)))


# Multi-block BlockDiags get their own branch: without it, nested conjugations
# crowd out the direct sums and the dense conjugates of them.
SPECS = st.recursive(
    st.one_of(LEAVES, LIFTS),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda bs: BlockDiag(tuple(bs))),
        st.lists(inner, min_size=2, max_size=3).map(lambda bs: BlockDiag(tuple(bs))),
        inner.flatmap(_conjugations)),
    max_leaves=5,
).filter(lambda s: isinstance(s, (Lift, BlockDiag, Conjugate)))
# points on a grid of 1/64: distinct distances are exact, none is borderline
POINT_SETS = st.lists(st.integers(0, 64), min_size=1, max_size=10).map(
    lambda ks: np.array(ks, dtype=float).reshape(-1, 1) / 64.0)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SPECS, POINT_SETS)
def test_generated_structured_kernels_agree_with_a_dense_solve(spec, P):
    k = build_kernel(spec)
    g = assemble_gram(k, P)
    lo, hi, _ = _dense(g)
    # a verdict within the comparison bound of the threshold is too close to call
    assume(abs(lo + DEFAULT_TOLERANCE * max(1.0, hi)) > 4e-12 * max(1.0, hi))
    _check_against_dense(spec, P)
    blocks = np.ascontiguousarray(g.blocks)
    assert bound_estimate(k, P) == float(np.linalg.norm(blocks, axis=(2, 3)).max())
