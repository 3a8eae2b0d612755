"""Separable kernels decided and decomposed on their Kronecker factors.

A `Lift` Gram is G (x) A and a `BlockDiag` Gram the direct sum of its
blocks' terms, so `certify_psd` solves only the factors. Every case here is
checked against a dense solve of the formed block Gram `g.data`: the verdict
is equal, the extreme eigenvalues agree within 1e-12 max(1, lambda_max), and
a witness is negative and recomputed by a direct double sum.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mkernel.certify import DEFAULT_TOLERANCE, assemble_gram, certify_psd
from mkernel.domains import make_box_domain, make_measure
from mkernel.integral import measure_gram
from mkernel.kernels import (
    BlockDiag,
    Brownian,
    Constant,
    Gaussian,
    GramBlockMatrix,
    Lift,
    NegDistance,
    Riesz,
    build_kernel,
)
from mkernel.spectral import nystrom_decompose, trace_functional

EPS = np.finfo(float).eps


def _psd(seed, order, rank):
    """A random symmetric PSD matrix of the given order and rank, as rows."""
    B = np.random.default_rng(seed).normal(size=(order, rank))
    return tuple(map(tuple, (B @ B.T).tolist()))


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
    assert abs(rep.min_eigenvalue - lo) <= bound
    assert abs(rep.max_eigenvalue - hi) <= bound
    if not rep.certified:
        C = rep.witness.coefficients
        assert C.shape == (len(P), k.output_dim)
        assert np.linalg.norm(C) == pytest.approx(1.0, abs=1e-12)
        direct, magnitude = _double_sum(k, P, C)
        assert direct < 0
        assert abs(rep.witness.value - direct) <= C.size**2 * EPS * magnitude
        # the witness is a unit eigenvector of the least eigenvalue
        assert abs(rep.witness.value - rep.min_eigenvalue) <= bound
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
    Lift(Gaussian(2.0), _psd(5, 3, 1)),
    BlockDiag((Lift(Gaussian(1.0), _psd(1, 2, 2)), Brownian(), BlockDiag((NegDistance(),)))),
], ids=["lift", "nested_block_diag"])
def test_formed_gram_equals_the_evaluated_blocks_bit_for_bit(spec):
    k = build_kernel(spec)
    g = assemble_gram(k, POINTS)
    evaluated = GramBlockMatrix(POINTS, k.output_dim, k.eval_pairwise(POINTS, POINTS))
    assert np.array_equal(g.data, evaluated.data)
    assert g.sup_norm == evaluated.sup_norm


def test_lift_verdict_never_forms_the_block_gram():
    k = build_kernel(Lift(Gaussian(1.0), ((2.0, 1.0), (1.0, 2.0))))
    P = np.linspace(0.0, 1.0, 400).reshape(-1, 1)
    g = assemble_gram(k, P)
    certify_psd(assemble_gram(k, P[:5]))  # warm up, so lazy set-up is not counted
    tracemalloc.start()
    try:
        rep = certify_psd(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.certified
    order = len(P) * k.output_dim
    assert peak < 0.5 * order**2 * 8


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
SPECS = st.recursive(
    st.one_of(LEAVES, LIFTS),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda bs: BlockDiag(tuple(bs))),
    max_leaves=5,
).filter(lambda s: isinstance(s, (Lift, BlockDiag)))
# points on a grid of 1/64: distinct distances are exact, none is borderline
POINT_SETS = st.lists(st.integers(0, 64), min_size=1, max_size=10).map(
    lambda ks: np.array(ks, dtype=float).reshape(-1, 1) / 64.0)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SPECS, POINT_SETS)
def test_generated_structured_kernels_agree_with_a_dense_solve(spec, P):
    lo, hi, _ = _dense(assemble_gram(build_kernel(spec), P))
    # a verdict within the comparison bound of the threshold is too close to call
    assume(abs(lo + DEFAULT_TOLERANCE * max(1.0, hi)) > 4e-12 * max(1.0, hi))
    _check_against_dense(spec, P)
