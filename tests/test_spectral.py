import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.domains import QuadratureMeasure, make_box_domain, make_measure
from mkernel.integral import constant_function, quadform, random_test_functions
from mkernel.kernels import Brownian, Constant, Gaussian, Lift, NegDistance, build_kernel
from mkernel.spectral import (
    eigenfunction_gram,
    nystrom_decompose,
    nystrom_extension,
    quadform_via_spectrum,
    reconstruct,
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
    G = eigenfunction_gram(dec)
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
            assert_allclose(reconstruct(dec, i, j), exact, atol=1e-9)
    with pytest.raises(ValueError, match="terms"):
        reconstruct(dec, 0, 0, terms=dec.rank + 1)


def test_truncated_reconstruction_error_decreases(box):
    mu = _measure(box, 65)
    k = build_kernel(Gaussian(4.0))
    dec = nystrom_decompose(k, mu)
    errs = []
    for terms in (1, 3, min(8, dec.rank)):
        worst = 0.0
        for i in range(0, len(mu), 13):
            for j in range(0, len(mu), 13):
                err = np.abs(reconstruct(dec, i, j, terms=terms) - k(mu.nodes[i], mu.nodes[j]))
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


def test_extension_matches_eigenvectors_at_nodes(box):
    mu = _measure(box, 129)
    k = build_kernel(Gaussian(1.0))
    dec = nystrom_decompose(k, mu)
    # only the well-separated top of the spectrum: division by tiny sigmas
    # amplifies rounding error in the tail
    top = min(5, dec.rank)
    for i in (0, 5, 64):
        ext = nystrom_extension(dec, k, mu.nodes[i])
        assert_allclose(ext[:top], dec.phis[:top, i, :], atol=1e-7)
    off = nystrom_extension(dec, k, np.array([0.319]))
    assert off.shape == (dec.rank, 1)
    assert np.all(np.isfinite(off))


def test_decomposition_json_shape(box):
    mu = _measure(box, 33)
    dec = nystrom_decompose(build_kernel(Gaussian(1.0)), mu)
    doc = dec.to_json()
    assert doc["rank"] == dec.rank
    assert doc["dropped"] == dec.dropped
    assert isinstance(doc["sigmas"], list)
    assert doc["drop_tolerance"] == dec.drop_tolerance


def _reference_decompose(k, mu):
    """The decomposition as built from gram.flat * outer(sw, sw) and eigh."""
    from mkernel.integral import measure_gram

    n, N = len(mu), k.output_dim
    sw = np.sqrt(np.repeat(mu.weights, N))
    evals, evecs = np.linalg.eigh(measure_gram(k, mu).flat * np.multiply.outer(sw, sw))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    keep = evals > 1e-12 * max(1.0, abs(float(evals[0])))
    return evals[keep], (evecs[:, keep] / sw[:, None]).T.reshape(-1, n, N)


@pytest.mark.parametrize("case", ["brownian_1d", "lift_21x21"])
def test_decomposition_matches_reference_bit_for_bit(case):
    if case == "brownian_1d":
        k, mu = build_kernel(Brownian()), make_measure(make_box_domain([0.0], [1.0]), "trapezoid", 257)
    else:
        k = build_kernel(Lift(Gaussian(0.5), ((2.0, 1.0), (1.0, 2.0))))
        mu = make_measure(make_box_domain([0.0, 0.0], [1.0, 1.0]), "trapezoid", 21)
    sigmas, phis = _reference_decompose(k, mu)
    dec = nystrom_decompose(k, mu)
    assert np.array_equal(dec.sigmas, sigmas)
    assert np.array_equal(dec.phis, phis)


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
