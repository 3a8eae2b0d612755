import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.applications.energy import (
    _energy_gradient,
    discrete_energy,
    make_configuration,
    minimize_energy,
)
from mkernel.domains import Box, make_box_domain, make_circle_domain
from mkernel.kernels import (
    Gaussian,
    Lift,
    Riesz,
    build_kernel,
    kernel_from_callable,
)


def _riesz():
    return build_kernel(Riesz(1.0, 0.0), allow_unbounded=True)


def test_antipodal_energy():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert discrete_energy(_riesz(), pts) == pytest.approx(0.25)


def test_equilateral_triangle_energy():
    ang = 2 * np.pi * np.arange(3) / 3
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    # 6 ordered pairs at chord sqrt(3): (6 / sqrt(3)) / 9 = 2 / (3 sqrt(3))
    assert discrete_energy(_riesz(), pts) == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)))


def test_square_energy_closed_form():
    ang = 2 * np.pi * np.arange(4) / 4
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    assert discrete_energy(_riesz(), pts) == pytest.approx((2 * np.sqrt(2) + 1) / 8)


def test_energy_requires_scalar_kernel():
    k = build_kernel(Lift(Gaussian(1.0), ((1.0, 0.0), (0.0, 1.0))))
    with pytest.raises(ValueError, match="scalar"):
        discrete_energy(k, np.zeros((3, 1)))


def test_energy_requires_two_points():
    with pytest.raises(ValueError, match="2 points"):
        discrete_energy(_riesz(), np.array([[0.0, 0.0]]))


def test_make_configuration_caches_energy():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    conf = make_configuration(_riesz(), pts)
    assert conf.energy == pytest.approx(0.25)
    assert conf.to_json()["points"] == pts.tolist()


def test_minimizer_reaches_square_on_circle():
    dom = make_circle_domain(1.0)
    res = minimize_energy(_riesz(), dom, 4, iterations=500, seed=0)
    assert res.converged
    assert res.configuration.energy == pytest.approx((2 * np.sqrt(2) + 1) / 8, abs=1e-10)
    # trace never increases
    assert np.all(np.diff(res.trace) <= 1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_minimizer_seed_robust_n2(seed):
    dom = make_circle_domain(1.0)
    res = minimize_energy(_riesz(), dom, 2, iterations=400, seed=seed)
    assert res.configuration.energy == pytest.approx(0.25, abs=1e-8)
    d = np.linalg.norm(res.configuration.points[0] - res.configuration.points[1])
    assert d == pytest.approx(2.0, abs=1e-7)


def test_minimizer_deterministic():
    dom = make_circle_domain(1.0)
    a = minimize_energy(_riesz(), dom, 3, iterations=50, seed=7)
    b = minimize_energy(_riesz(), dom, 3, iterations=50, seed=7)
    assert_allclose(a.configuration.points, b.configuration.points, rtol=0, atol=0)
    assert a.iterations == b.iterations


def test_minimizer_points_stay_in_domain():
    dom = make_box_domain([0.0, 0.0], [1.0, 2.0])
    res = minimize_energy(_riesz(), dom, 5, iterations=60, seed=1)
    for p in res.configuration.points:
        assert dom.contains(p)


def test_minimizer_validation():
    dom = make_circle_domain(1.0)
    with pytest.raises(ValueError):
        minimize_energy(_riesz(), dom, 1)
    with pytest.raises(ValueError):
        minimize_energy(_riesz(), dom, 4, iterations=0)


def test_capacity_schedule():
    dom = make_circle_domain(1.0)
    energies = [minimize_energy(_riesz(), dom, n, iterations=400, seed=0).configuration.energy
                for n in (2, 3, 4)]
    # two antipodal points: (1/N^2) sum over the 2 ordered pairs of 1/|x - y| = (2/2) / 4
    assert energies[0] == pytest.approx(0.25, abs=1e-8)
    assert energies == sorted(energies)


def test_gaussian_energy_minimization_spreads_points():
    # bounded kernel: points repel toward the boundary, energy decreases
    dom = make_box_domain([0.0], [1.0])
    k = build_kernel(Gaussian(2.0))
    res = minimize_energy(k, dom, 4, iterations=200, seed=0)
    assert res.trace[-1] < res.trace[0]
    spread = np.ptp(res.configuration.points[:, 0])
    assert spread > 0.9


def _reference_gradient(kernel, P, h):
    """Central differences of the full energy, one coordinate at a time."""
    g = np.empty_like(P)
    for i in range(P.shape[0]):
        for k in range(P.shape[1]):
            Pp, Pm = P.copy(), P.copy()
            Pp[i, k] += h
            Pm[i, k] -= h
            g[i, k] = (discrete_energy(kernel, Pp) - discrete_energy(kernel, Pm)) / (2 * h)
    return g


def _skewed_kernel():
    # scalar and deliberately not symmetric: K(x, y) != K(y, x)
    def func(x, y):
        return np.exp(-((x - y) @ (x - y))) * (1.0 + 0.5 * x[0] - 0.2 * y[0])

    return kernel_from_callable(func, 1, name="skewed", input_dim=1)


@pytest.mark.parametrize("case", ["riesz-circle", "gaussian-box", "skewed-box"])
def test_local_gradient_matches_full_energy_differences(case):
    rng = np.random.default_rng(3)
    if case == "riesz-circle":
        kernel, dom = _riesz(), make_circle_domain(1.0)
    elif case == "gaussian-box":
        kernel, dom = build_kernel(Gaussian(2.0)), make_box_domain([0.0], [1.0])
    else:
        kernel, dom = _skewed_kernel(), make_box_domain([0.0], [1.0])
    n = 5
    P = dom.project(dom.sample(rng, n))
    h = 1e-6 * dom.diameter
    g = _energy_gradient(kernel, P, h)
    ref = _reference_gradient(kernel, P, h)
    # Rounding of the reference: each full energy sums n(n-1) terms, so the
    # difference of two carries up to about 2 n^2 eps * (mean |K|), over 2h.
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    absolute = np.abs(kernel.eval_pairs(P[i], P[j])).sum() / n**2
    bound = n**2 * np.finfo(float).eps * absolute / h
    assert g.shape == P.shape
    assert np.max(np.abs(g - ref)) <= bound
    assert np.max(np.abs(ref)) > 1e3 * bound


def _materialised_gradient(kernel, P, h):
    """The gradient with every shifted pair written out as two (m, d) point
    lists and evaluated by two `eval_pairs` calls, one per argument order."""
    n, d = P.shape
    others = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    shifted = P[None, :, None, :] + np.array([h, -h])[:, None, None, None] * np.eye(d)
    shape = (2, n, d, n - 1, d)
    X = np.broadcast_to(shifted[:, :, :, None, :], shape).reshape(-1, d)
    Y = np.broadcast_to(P[others][None, :, None, :, :], shape).reshape(-1, d)
    vals = kernel.eval_pairs(X, Y)[:, 0, 0] + kernel.eval_pairs(Y, X)[:, 0, 0]
    vals = vals.reshape(2, n, d, n - 1)
    return (vals[0] - vals[1]).sum(axis=-1) / (2 * h * n**2)


@pytest.mark.parametrize("case", ["riesz-circle", "skewed-box"])
@pytest.mark.parametrize("n", [2, 7, 24])
def test_gradient_equals_materialised_pairs_bit_for_bit(case, n):
    rng = np.random.default_rng(n)
    if case == "riesz-circle":
        kernel, dom = _riesz(), make_circle_domain(1.0)
    else:
        kernel, dom = _skewed_kernel(), make_box_domain([0.0], [1.0])
    P = dom.project(dom.sample(rng, n))
    h = 1e-6 * dom.diameter
    g = _energy_gradient(kernel, P, h)
    assert g.tobytes() == _materialised_gradient(kernel, P, h).tobytes()


def test_gradient_makes_two_kernel_calls_for_any_n():
    calls = []
    kernel = _riesz()
    original = kernel._batch

    def spy(X, Y):
        calls.append(math.prod(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1])))
        return original(X, Y)

    kernel._batch = spy
    dom = make_circle_domain(1.0)
    per_n = {}
    for n in (3, 12):
        calls.clear()
        P = dom.sample(np.random.default_rng(n), n)
        _energy_gradient(kernel, P, 1e-6)
        per_n[n] = list(calls)
    # one broadcast call per argument order, each covering all 2 N d (N - 1) pairs
    assert per_n[3] == [2 * 3 * 2 * 2] * 2
    assert per_n[12] == [2 * 12 * 2 * 11] * 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimizer_reaches_equally_spaced_optimum_n24(seed):
    n = 24
    optimum = math.fsum(1.0 / (2.0 * math.sin(math.pi * k / n)) for k in range(1, n)) / n
    res = minimize_energy(_riesz(), make_circle_domain(1.0), n, iterations=100, seed=seed)
    E = res.configuration.energy
    assert np.all(np.diff(res.trace) <= 0)
    assert res.trace[-1] == E
    assert E == discrete_energy(_riesz(), res.configuration.points)
    assert abs(E - optimum) <= 1e-5 * optimum


class _CollidingBox(Box):
    """A box whose sample is two points exactly h = 1e-6 * diameter apart, so
    that the first gradient evaluates K(x, x) and the run restarts."""

    def sample(self, rng, n):
        return np.array([[0.5], [0.5 + 1e-6 * self.diameter]])


@pytest.mark.parametrize("iterations", [1, 5])
def test_a_restart_returns_the_lowest_energy_configuration_seen(iterations):
    res = minimize_energy(_riesz(), _CollidingBox([0.0], [1.0]), 2, iterations=iterations)
    assert res.restarts == 1
    assert res.configuration.energy == res.trace[-1] == res.trace.min()
    assert np.all(np.diff(res.trace) <= 0)
    assert res.configuration.energy == discrete_energy(_riesz(), res.configuration.points)
