import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.domains import Ball, QuadratureMeasure, make_box_domain, make_measure, restrict_measure
from mkernel.integral import (
    constant_function,
    equivalence_harness,
    quadform,
    random_test_functions,
    weighted_gram,
)
from mkernel.kernels import (
    BlockDiag,
    Brownian,
    Constant,
    Gaussian,
    Lift,
    NegDistance,
    build_kernel,
    kernel_from_callable,
    kernel_zoo,
)
from mkernel.spectral import (
    nystrom_decompose,
    quadform_via_spectrum,
    spectral_coefficients,
    trace_functional,
)


@pytest.fixture
def box():
    return make_box_domain([0.0], [1.0])


def _measure(box, res=129):
    return make_measure(box, "uniform-nodes", res)


def test_brownian_eigenvalues_match_closed_form(box):
    # sigma_k = 1 / ((k - 1/2) pi)^2 for min(x, y) on [0, 1]
    mu = _measure(box, 257)
    dec = nystrom_decompose(build_kernel(Brownian()), mu)
    expected = [1.0 / ((k - 0.5) ** 2 * np.pi**2) for k in range(1, 6)]
    assert_allclose(dec.sigmas[:5], expected, rtol=3e-4)
    assert not dec.not_pd


def test_orthonormality(box):
    mu = _measure(box, 129)
    dec = nystrom_decompose(build_kernel(Gaussian(1.0)), mu)
    # the L^2(mu) inner products <phi_k, phi_l>_mu
    G = np.einsum("n,knc,lnc->kl", dec.weights, dec.phis, dec.phis)
    r = dec.rank
    assert np.max(np.abs(G - np.eye(r))) <= 1e-10


def test_trace_identity(box):
    mu = _measure(box, 65)
    k = build_kernel(Lift(Gaussian(0.5), ((2.0, 1.0), (1.0, 2.0))))
    dec = nystrom_decompose(k, mu)
    expected = trace_functional(k, mu)
    assert dec.sigmas.sum() + dec.dropped_mass == pytest.approx(expected, rel=1e-12)


def test_constant_kernel_rank_one(box):
    mu = _measure(box, 33)
    dec = nystrom_decompose(build_kernel(Constant(1.0)), mu)
    assert dec.rank == 1
    assert dec.sigmas[0] == pytest.approx(mu.total_mass, rel=1e-12)
    phi = dec.phis[0, :, 0]
    assert_allclose(phi, np.full_like(phi, phi[0]), rtol=1e-10)
    assert abs(phi[0]) == pytest.approx(1.0 / np.sqrt(mu.total_mass), rel=1e-10)


def test_reconstruction_exact_at_nodes(box):
    mu = _measure(box, 33)
    k = build_kernel(Gaussian(2.0))
    dec = nystrom_decompose(k, mu)
    for i in range(0, len(mu), 7):
        for j in range(0, len(mu), 11):
            exact = k(mu.nodes[i], mu.nodes[j])
            # sum_k sigma_k phi_k(x_i) phi_k(x_j)^T
            rebuilt = np.einsum("k,ka,kb->ab", dec.sigmas, dec.phis[:, i], dec.phis[:, j])
            assert_allclose(rebuilt, exact, atol=1e-9)


def test_a_negative_rank_is_an_error(box):
    dec = nystrom_decompose(build_kernel(Gaussian(1.0)), make_measure(box, "trapezoid", 9))
    with pytest.raises(ValueError, match="rank must be >= 0, got -1"):
        dec.to_json(max_rank=-1)
    assert dec.to_json(max_rank=0)["sigmas"] == []


@pytest.mark.parametrize("drop_tolerance", [-1.0, np.nan, np.inf])
def test_drop_tolerance_must_be_finite_and_nonnegative(box, drop_tolerance):
    mu = make_measure(box, "trapezoid", 9)
    with pytest.raises(ValueError, match="drop_tolerance must be a finite number >= 0, got"):
        nystrom_decompose(build_kernel(NegDistance()), mu, drop_tolerance=drop_tolerance)


def test_truncated_reconstruction_error_decreases(box):
    mu = _measure(box, 65)
    k = build_kernel(Gaussian(4.0))
    dec = nystrom_decompose(k, mu)
    errs = []
    for terms in (1, 3, min(8, dec.rank)):
        worst = 0.0
        for i in range(0, len(mu), 13):
            for j in range(0, len(mu), 13):
                rebuilt = np.einsum("k,ka,kb->ab", dec.sigmas[:terms], dec.phis[:terms, i],
                                    dec.phis[:terms, j])
                err = np.abs(rebuilt - k(mu.nodes[i], mu.nodes[j]))
                worst = max(worst, float(err.max()))
        errs.append(worst)
    assert errs[0] > errs[1] > errs[2]


def test_quadform_via_spectrum_matches_direct(box):
    mu = _measure(box, 65)
    k = build_kernel(Gaussian(1.0))
    dec = nystrom_decompose(k, mu)
    for f in random_test_functions(box, output_dim=1, count=6, seed=2):
        direct = quadform(k, f, mu)
        spectral, terms = quadform_via_spectrum(dec, f, return_terms=True)
        assert spectral == pytest.approx(direct, abs=1e-10)
        assert np.all(np.asarray(terms) >= 0)


def test_spectral_coefficients_parseval(box):
    mu = _measure(box, 65)
    k = build_kernel(Gaussian(1.0))
    dec = nystrom_decompose(k, mu)
    f = constant_function(np.array([1.0]))
    coeffs = spectral_coefficients(dec, f)
    # sum_k <f, phi_k>^2 <= ||f||^2 when eigenfunctions are orthonormal
    norm2 = float(np.sum(mu.weights))
    assert np.sum(coeffs**2) <= norm2 + 1e-10


def test_not_pd_flag(box):
    mu = _measure(box, 33)
    dec = nystrom_decompose(build_kernel(NegDistance()), mu)
    assert dec.not_pd
    doc = dec.to_json(max_rank=3)
    assert doc["not_pd_flag"] is True
    assert len(doc["sigmas"]) <= 3


def test_not_pd_flag_is_the_integral_verdict(box):
    mu = make_measure(box, "trapezoid", 65)
    kernels = [build_kernel(entry.spec) for entry in kernel_zoo()]
    # 1 - eps (x - 1/2)(y - 1/2): the weighted Gram has sigma_max = 1 and
    # lambda_min = -eps / 12 = -1e-10, negative but within the PSD tolerance.
    eps = 1.2e-9
    kernels.append(kernel_from_callable(
        lambda x, y: np.array([[1.0 - eps * (x[0] - 0.5) * (y[0] - 0.5)]]), 1))
    for k in kernels:
        harness = equivalence_harness(k, mu, trials=5, seed=0)
        assert nystrom_decompose(k, mu).not_pd == (not harness.integral.certified), k.name
    assert np.linalg.eigvalsh(weighted_gram(k, mu).data)[0] == pytest.approx(-1e-10, rel=1e-3)
    assert harness.integral.certified


def test_positive_weights_required(box):
    mu = make_measure(box, "uniform-nodes", 17)
    k = build_kernel(Gaussian(1.0))
    zeroed = QuadratureMeasure(
        domain=mu.domain,
        nodes=mu.nodes,
        weights=np.where(np.arange(len(mu)) == 0, 0.0, mu.weights),
        mesh=mu.mesh,
    )
    with pytest.raises(ValueError, match="positive"):
        nystrom_decompose(k, zeroed)


@pytest.mark.parametrize("spec", [
    Gaussian(1.0),
    Lift(Gaussian(1.0), ((2.0, 1.0), (1.0, 2.0))),
    BlockDiag((Gaussian(1.0), Lift(Constant(1.0), ((1.0, 0.0), (0.0, 1.0))))),
], ids=["scalar", "lift", "block_diag"])
def test_an_empty_measure_has_a_rank_zero_decomposition(box, spec):
    empty = restrict_measure(make_measure(box, "trapezoid", 9), Ball([5.0], 0.1))
    k = build_kernel(spec)
    dec = nystrom_decompose(k, empty)
    assert dec.sigmas.shape == (0,) and dec.phis.shape == (0, 0, k.output_dim)
    assert dec.to_json()["rank"] == 0 and not dec.not_pd


def test_decomposition_json_shape(box):
    mu = _measure(box, 33)
    dec = nystrom_decompose(build_kernel(Gaussian(1.0)), mu)
    doc = dec.to_json()
    assert doc["rank"] == dec.rank
    assert doc["dropped"] == dec.dropped
    assert isinstance(doc["sigmas"], list)
    assert doc["drop_tolerance"] == dec.drop_tolerance


def _reference_decompose(k, mu):
    """The decomposition of the formed block Gram, gram.flat * outer(sw, sw), by one eigh."""
    from mkernel.integral import measure_gram

    n, N = len(mu), k.output_dim
    sw = np.sqrt(np.repeat(mu.weights, N))
    evals, evecs = np.linalg.eigh(measure_gram(k, mu).flat * np.multiply.outer(sw, sw))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    keep = evals > 1e-12 * max(1.0, abs(float(evals[0])))
    return evals[keep], (evecs[:, keep] / sw[:, None]).T.reshape(-1, n, N)


def _kron_reference(mu, gamma, A):
    """Lift(Gaussian(gamma), A) decomposed from the Kronecker identity alone:
    W^{1/2} (G (x) A) W^{1/2} = (W^{1/2} G W^{1/2}) (x) A, with G evaluated
    here in plain numpy; eigenpairs sigma mu_j and v_i (x) u_j, descending."""
    X, w = mu.nodes, mu.weights
    G = np.exp(-gamma * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1))
    sw = np.sqrt(w)
    lam, V = np.linalg.eigh(np.multiply.outer(sw, sw) * G)
    mus, U = np.linalg.eigh(A)
    products = np.multiply.outer(lam, mus).ravel()
    order = np.argsort(products, kind="stable")[::-1]
    sigmas = products[order]
    kept = order[sigmas > 1e-12 * max(1.0, abs(float(sigmas[0])))]
    i, j = np.divmod(kept, mus.size)
    vecs = (V[:, None, i] * U[:, j]).reshape(-1, kept.size) / np.repeat(sw, mus.size)[:, None]
    return products[kept], vecs.T.reshape(-1, len(mu), mus.size)


@pytest.mark.parametrize("case", ["brownian_1d", "lift_21x21"])
def test_decomposition_matches_reference_bit_for_bit(case):
    if case == "brownian_1d":
        k, mu = build_kernel(Brownian()), make_measure(make_box_domain([0.0], [1.0]), "trapezoid", 257)
        sigmas, phis = _reference_decompose(k, mu)
        dec = nystrom_decompose(k, mu)
        assert np.array_equal(dec.sigmas, sigmas)
        assert np.array_equal(dec.phis, phis)
        return
    # A lift is solved on its scalar Gram: bit for bit the Kronecker
    # reference, and equal to a full solve of the block Gram within rounding.
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    k = build_kernel(Lift(Gaussian(0.5), tuple(map(tuple, A))))
    mu = make_measure(make_box_domain([0.0, 0.0], [1.0, 1.0]), "trapezoid", 21)
    dec = nystrom_decompose(k, mu)
    sigmas, phis = _kron_reference(mu, 0.5, A)
    assert np.array_equal(dec.sigmas, sigmas)
    assert np.array_equal(dec.phis, phis)

    dense_sigmas, dense_phis = _reference_decompose(k, mu)
    smax = float(dense_sigmas[0])
    r = min(dec.rank, dense_sigmas.size)
    assert np.max(np.abs(dec.sigmas[:r] - dense_sigmas[:r])) <= 1e-12 * smax
    # ranks may differ only by eigenvalues within rounding of the drop threshold
    for extra in (dec.sigmas[r:], dense_sigmas[r:]):
        assert np.all(extra <= 1e-12 * smax + 1e-12 * smax)
    total = float(dec.sigmas.sum()) + dec.dropped_mass
    assert total == pytest.approx(trace_functional(k, mu), abs=1e-12 * smax * len(mu))
    # spectral projectors agree on clusters separated by more than 1e-8 sigma_max;
    # Davis-Kahan bounds the angle by the backward error over the gap
    sw = np.sqrt(np.repeat(mu.weights, 2))
    V = dec.phis[:r].reshape(r, -1) * sw
    W = dense_phis[:r].reshape(r, -1) * sw
    gaps = np.diff(-dense_sigmas[:r])
    cuts = [0, *(np.flatnonzero(gaps > 1e-8 * smax) + 1).tolist()]
    checked = 0
    for lo, hi in zip(cuts, cuts[1:]):
        gap = min(gaps[lo - 1] if lo else np.inf, gaps[hi - 1])
        diff = V[lo:hi].T @ V[lo:hi] - W[lo:hi].T @ W[lo:hi]
        assert np.linalg.norm(diff, 2) <= 1e-12 * smax / gap
        checked += 1
    assert checked >= 10


def test_built_gram_is_freed_before_eigensolve():
    import tracemalloc

    k = build_kernel(Lift(Gaussian(0.5), ((2.0, 1.0), (1.0, 2.0))))
    mu = make_measure(make_box_domain([0.0, 0.0], [1.0, 1.0]), "trapezoid", 21)
    order = len(mu) * k.output_dim
    nystrom_decompose(k, mu)  # warm up, so lazy set-up is not counted
    tracemalloc.start()
    try:
        nystrom_decompose(k, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Holding the Gram's blocks and flat beside the scaled copy while eigh
    # makes its own copies peaks near 4.2 matrices of this order; freeing the
    # Gram first brings the peak near 3.25.
    assert peak < 3.5 * order**2 * 8
