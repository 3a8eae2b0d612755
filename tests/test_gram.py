"""The block-Gram type: one contiguous matrix, with the blocks as a view of it."""

import tracemalloc

import numpy as np
import pytest

from mkernel import certify
from mkernel.applications.control import assemble_control_qp
from mkernel.certify import GramBlockMatrix, assemble_gram, certify_psd
from mkernel.domains import make_box_domain, make_measure
from mkernel.integral import discretization_gap, measure_gram
from mkernel.kernels import (BlockDiag, Brownian, Conjugate, Gaussian, Lift, NegDistance,
                             bound_estimate, build_kernel, gram_blocks, kernel_zoo)

LIFT = Lift(Gaussian(0.5), ((2.0, 1.0), (1.0, 2.0)))


def _reference_blocks(kernel, P):
    """Upper triangle through eval_pairs, scattered into a contiguous (n, n, N, N)."""
    n, N = P.shape[0], kernel.output_dim
    iu, ju = np.triu_indices(n)
    upper = kernel.eval_pairs(P[iu], P[ju])
    G = np.empty((n, n, N, N))
    G[iu, ju] = upper
    G[ju, iu] = np.transpose(upper, (0, 2, 1))
    return G


def _reference_flat(blocks):
    n, N = blocks.shape[0], blocks.shape[2]
    return blocks.transpose(0, 2, 1, 3).reshape(n * N, n * N).copy()


def _reference_sup_norm(blocks):
    n = blocks.shape[0]
    return float(np.linalg.norm(blocks, axis=(2, 3)).max()) if n else 0.0


def _reference_has_duplicates(points):
    if points.shape[0] < 2:
        return False
    srt = points[np.lexsort(points.T[::-1])]
    return bool(np.any(np.all(srt[1:] == srt[:-1], axis=1)))


@pytest.mark.parametrize("entry", kernel_zoo(), ids=lambda e: e.name)
@pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
def test_gram_bit_for_bit(entry, n):
    k = build_kernel(entry.spec)
    P = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 1))
    ref = _reference_blocks(k, P)
    g = assemble_gram(k, P)
    assert g.data.flags.c_contiguous
    assert np.array_equal(g.data, _reference_flat(ref))
    assert np.array_equal(g.blocks, ref)
    assert np.array_equal(gram_blocks(k, P), ref)


@pytest.mark.parametrize("spec", [Gaussian(1.0), LIFT], ids=["scalar", "lift"])
def test_gram_is_stored_once(spec, monkeypatch):
    k = build_kernel(spec)
    g = assemble_gram(k, np.linspace(0.0, 1.0, 5).reshape(-1, 1))
    assert np.shares_memory(g.blocks, g.data)
    mu = make_measure(make_box_domain([0.0], [1.0]), "trapezoid", 9)
    mg = measure_gram(k, mu)
    assert isinstance(mg, GramBlockMatrix)
    assert np.shares_memory(mg.blocks, mg.data)
    assert mg.flat is mg.data

    seen = []
    as_gram = certify._as_gram

    def spy(m):
        seen.append(as_gram(m))
        return seen[-1]

    monkeypatch.setattr(certify, "_as_gram", spy)
    certify_psd(g.data.copy())
    raw = seen[0]
    assert raw.points is None
    assert np.shares_memory(raw.blocks, raw.data)


def test_blocks_given_as_an_array_are_copied_once():
    blocks = _reference_blocks(build_kernel(LIFT), np.array([[0.1], [0.5], [0.9]]))
    g = GramBlockMatrix(np.array([[0.1], [0.5], [0.9]]), 2, blocks)
    assert np.array_equal(g.blocks, blocks)
    assert np.array_equal(g.data, _reference_flat(blocks))
    assert np.shares_memory(g.blocks, g.data)
    assert g.n_points == 3


@pytest.mark.parametrize("entry", kernel_zoo(), ids=lambda e: e.name)
def test_sup_norm_and_duplicates_match_old_formulas(entry):
    k = build_kernel(entry.spec)
    rng = np.random.default_rng(7)
    for P in (rng.uniform(0.0, 1.0, size=(9, 1)),
              np.array([[0.2], [0.7], [0.2], [0.4]]),
              np.array([[0.3]])):
        g = assemble_gram(k, P)
        ref = _reference_blocks(k, P)
        assert bound_estimate(k, P) == _reference_sup_norm(ref)
        assert g.has_duplicates == _reference_has_duplicates(P)
    mu = make_measure(make_box_domain([0.0], [1.0]), "gauss", 17)
    assert bound_estimate(k, mu.nodes) == _reference_sup_norm(_reference_blocks(k, mu.nodes))


@pytest.mark.parametrize("entry", kernel_zoo(), ids=lambda e: e.name)
def test_gap_sup_norm_is_the_bound_estimate_over_the_nodes(entry):
    k = build_kernel(entry.spec)
    mu = make_measure(make_box_domain([0.0], [1.0]), "trapezoid", 65)
    rep = discretization_gap(k, mu, [[0.3], [0.7]], np.ones((2, k.output_dim)), 0.05, 0.05)
    assert rep.sup_norm == bound_estimate(k, mu.nodes)
    assert rep.sup_norm == _reference_sup_norm(_reference_blocks(k, mu.nodes))


def _random_block_kernels(count):
    """Lifts of random PSD matrices and conjugates of a two-block BlockDiag,
    with blocks of 2 to 4 components."""
    rng = np.random.default_rng(31)
    specs = []
    for _ in range(count):
        N = int(rng.integers(2, 5))
        B = rng.normal(size=(N, N))
        specs.append(Lift(Gaussian(float(rng.uniform(0.3, 3.0))), tuple(map(tuple, B @ B.T))))
        specs.append(Conjugate(BlockDiag((Gaussian(1.0), Brownian())),
                               tuple(map(tuple, rng.normal(size=(N, 2))))))
    return specs


@pytest.mark.parametrize("spec", _random_block_kernels(6))
def test_gap_sup_norm_is_the_bound_estimate_for_random_blocks(spec):
    """The same bits as `bound_estimate` for any block entries, not only the
    zoo's: the gap takes the same norm of the same contiguous blocks."""
    k = build_kernel(spec)
    mu = make_measure(make_box_domain([0.0], [1.0]), "trapezoid", 65)
    rep = discretization_gap(k, mu, [[0.3], [0.7]], np.ones((2, k.output_dim)), 0.05, 0.05)
    assert rep.sup_norm == bound_estimate(k, mu.nodes)


def test_has_duplicates_in_two_dimensions():
    k = build_kernel(Gaussian(1.0))
    assert assemble_gram(k, [[0.1, 0.2], [0.1, 0.3], [0.5, 0.2]]).has_duplicates is False
    assert assemble_gram(k, [[0.1, 0.2], [0.5, 0.2], [0.1, 0.2]]).has_duplicates is True


def test_empty_gram():
    k = build_kernel(LIFT)
    g = assemble_gram(k, np.zeros((0, 1)))
    assert g.data.shape == (0, 0)
    assert g.blocks.shape == (0, 0, 2, 2)
    assert bound_estimate(k, np.zeros((0, 1))) == 0.0
    assert g.has_duplicates is False


def test_control_hessian_bit_equal_to_blockwise_product():
    k = build_kernel(LIFT)
    bp = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 1.0])
    mids, widths = 0.5 * (bp[:-1] + bp[1:]), np.diff(bp)
    blocks = _reference_blocks(k, mids.reshape(-1, 1))
    blocks = blocks * np.multiply.outer(widths, widths)[:, :, None, None]
    qp = assemble_control_qp(k, bp, np.zeros(2))
    assert np.array_equal(qp.H, _reference_flat(blocks))


def test_witness_points_of_a_raw_matrix_are_none():
    g = assemble_gram(build_kernel(NegDistance()), [[0.1], [0.6]])
    assert certify_psd(g.data).witness.points is None
    assert certify_psd(g).witness.points.tolist() == [[0.1], [0.6]]


def _assembly_peak(entry):
    """Peak traced bytes of `assemble_gram` over 300 points, and the Gram's bytes."""
    k = build_kernel(entry.spec)
    P = np.random.default_rng(3).uniform(0.0, 1.0, size=(300, 1))
    assemble_gram(k, P[:5])  # warm up, so lazy set-up is not counted
    gram_bytes = (300 * k.output_dim) ** 2 * 8
    tracemalloc.start()
    try:
        g = assemble_gram(k, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.data.nbytes == gram_bytes
    return peak, gram_bytes


@pytest.mark.parametrize("entry", [e for e in kernel_zoo()
                                   if build_kernel(e.spec).output_dim > 1],
                         ids=lambda e: e.name)
def test_assembly_peak_memory_below_two_grams(entry):
    peak, gram_bytes = _assembly_peak(entry)
    # A Gram held twice (blocks plus a flattened copy) peaks at two Gram sizes.
    assert peak <= 1.8 * gram_bytes


@pytest.mark.parametrize("entry", kernel_zoo(), ids=lambda e: e.name)
def test_assembly_holds_no_gram_sized_temporary(entry):
    peak, gram_bytes = _assembly_peak(entry)
    # The Gram plus one block of row products; a gathered triangle of pair
    # values, or the pairs themselves, would add a large share of a Gram.
    assert peak <= 1.25 * gram_bytes


@pytest.mark.parametrize("entry", kernel_zoo(), ids=lambda e: e.name)
def test_sup_norm_holds_no_gram_sized_copy(entry):
    k = build_kernel(entry.spec)
    P = np.random.default_rng(4).uniform(0.0, 1.0, size=(300, 1))
    g = assemble_gram(k, P)
    bound_estimate(k, P[:5])  # warm up, so lazy set-up is not counted
    tracemalloc.start()
    try:
        value = bound_estimate(k, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == _reference_sup_norm(np.ascontiguousarray(g.blocks))
    # A contiguous copy of the blocks, or their squares, is a whole Gram size.
    assert peak <= 0.25 * g.data.nbytes
