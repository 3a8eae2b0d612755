import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.applications.control import assemble_control_qp
from mkernel.certify import assemble_gram, random_search_witness
from mkernel.domains import (
    Ball,
    make_box_domain,
    make_circle_domain,
    make_measure,
    restrict_measure,
)
from mkernel.integral import (
    ball_mass,
    constant_function,
    discretization_gap,
    equivalence_harness,
    measure_gram,
    mercer_test_function,
    quadform,
    random_test_functions,
)
from mkernel.kernels import (
    BlockDiag,
    Constant,
    Gaussian,
    Lift,
    NegDistance,
    Riesz,
    build_kernel,
    kernel_zoo,
)


GRAM_SITES = {
    "assemble_gram": lambda k, box: assemble_gram(k, [[0.1], [0.5]]),
    "measure_gram": lambda k, box: measure_gram(k, make_measure(box, "trapezoid", 5)),
    "random_search_witness": lambda k, box: random_search_witness(k, box, trials=3),
    "assemble_control_qp": lambda k, box: assemble_control_qp(k, [0.0, 0.5, 1.0], 1.0),
}


@pytest.mark.parametrize("site", GRAM_SITES)
def test_every_gram_refuses_a_kernel_unbounded_on_the_diagonal_in_one_message(unit_box, site):
    k = build_kernel(Riesz(1.0, 0.0), allow_unbounded=True)
    with pytest.raises(ValueError) as info:
        GRAM_SITES[site](k, unit_box)
    assert str(info.value) == ("kernel 'riesz' is unbounded on the diagonal; "
                               "its Gram matrix contains infinite entries")


@pytest.fixture
def unit_box():
    return make_box_domain([0.0], [1.0])


def test_constant_kernel_constant_function(unit_box):
    mu = make_measure(unit_box, "trapezoid", 65)
    k = build_kernel(Constant(1.0))
    f = constant_function(np.array([1.0]))
    # integral of 1 against total mass 1, squared
    assert quadform(k, f, mu) == pytest.approx(1.0, abs=1e-12)


def test_quadform_scales_quadratically(unit_box):
    mu = make_measure(unit_box, "trapezoid", 33)
    k = build_kernel(Gaussian(1.0))
    f1 = constant_function(np.array([1.0]))
    f3 = constant_function(np.array([3.0]))
    assert quadform(k, f3, mu) == pytest.approx(9.0 * quadform(k, f1, mu), rel=1e-12)


def test_quadform_dim_mismatch(unit_box):
    mu = make_measure(unit_box, "trapezoid", 9)
    k = build_kernel(Lift(Gaussian(1.0), ((1.0, 0.0), (0.0, 1.0))))
    with pytest.raises(ValueError, match="components"):
        quadform(k, constant_function(np.array([1.0])), mu)


def test_bump_profile(unit_box):
    mu = make_measure(unit_box, "trapezoid", 65)
    # A coefficient equal to the inner-ball mass makes the function the bare
    # profile: 1 on the inner ball, 0 outside, linear on the ramp.
    mass = ball_mass(mu, np.array([0.5]), 0.1)
    bump = mercer_test_function(mu, [[0.5]], [[mass]], delta=0.1, epsilon=0.05)
    pts = np.array([[0.5], [0.55], [0.6], [0.125], [0.625]])
    vals = bump.values_on(pts)[:, 0]
    assert_allclose(vals[:4], [1.0, 1.0, 1.0, 0.0], rtol=0, atol=0)
    assert vals[4] == pytest.approx(0.5)
    assert bump(np.array([0.65]))[0] == pytest.approx(0.0)
    assert bump(np.array([0.61]))[0] == pytest.approx(0.8)


def test_bump_validation(unit_box):
    mu = make_measure(unit_box, "trapezoid", 65)
    with pytest.raises(ValueError, match="delta"):
        mercer_test_function(mu, [[0.5]], [[1.0]], delta=-0.1, epsilon=0.1)
    with pytest.raises(ValueError, match="epsilon"):
        mercer_test_function(mu, [[0.5]], [[1.0]], delta=0.1, epsilon=0.0)


def test_ball_mass_value(unit_box):
    mu = make_measure(unit_box, "trapezoid", 65)
    assert ball_mass(mu, np.array([0.5]), 0.1) == pytest.approx(0.203125)
    assert ball_mass(mu, np.array([0.5]), 0.1) <= ball_mass(mu, np.array([0.5]), 0.2)


def test_mercer_function_is_locally_constant(unit_box):
    f = mercer_test_function(
        make_measure(unit_box, "trapezoid", 129),
        centers=np.array([[0.2], [0.8]]),
        coefficients=np.array([[1.0], [-2.0]]),
        delta=0.04,
        epsilon=0.04,
    )
    v_in = f(np.array([0.2]))
    v_mid = f(np.array([0.22]))
    assert_allclose(v_in, v_mid, rtol=0, atol=0)
    assert f(np.array([0.5]))[0] == 0.0
    # sign tracks the coefficient
    assert f(np.array([0.2]))[0] > 0 > f(np.array([0.8]))[0]
    assert f.describe()["family"] == "mercer_bump"


def test_mercer_function_disjointness_guard(unit_box):
    mu = make_measure(unit_box, "trapezoid", 129)
    with pytest.raises(ValueError, match="disjoint"):
        mercer_test_function(
            mu,
            centers=np.array([[0.4], [0.6]]),
            coefficients=np.array([[1.0], [1.0]]),
            delta=0.06,
            epsilon=0.06,
        )


def test_mercer_function_coarse_measure_guard(unit_box):
    mu = make_measure(unit_box, "trapezoid", 5)
    with pytest.raises(ValueError, match="resolution"):
        mercer_test_function(
            mu,
            centers=np.array([[0.3]]),
            coefficients=np.array([[1.0]]),
            delta=0.01,
            epsilon=0.01,
        )


def test_gap_bounded_by_remainder_and_continuity(unit_box):
    k = build_kernel(Gaussian(1.0))
    centers = np.array([[0.2], [0.8]])
    coeffs = np.array([[1.0], [-1.0]])
    rep = discretization_gap(
        k,
        make_measure(unit_box, "trapezoid", 321),
        centers,
        coeffs,
        delta=0.05,
        epsilon=0.05,
    )
    assert rep.gap <= rep.remainder_bound + rep.continuity_term + 1e-12
    assert rep.gap >= 0
    assert np.all(rep.inner_masses > 0)
    assert np.all(rep.outer_masses >= rep.inner_masses)
    doc = rep.to_json()
    assert set(doc) >= {"quadform", "discrete", "gap", "remainder_bound", "continuity_term"}


def test_gap_shrinks_with_epsilon(unit_box):
    k = build_kernel(Gaussian(1.0))
    centers = np.array([[0.25], [0.75]])
    coeffs = np.array([[1.0], [-1.0]])
    gaps = []
    for eps in (0.05, 0.025, 0.0125):
        res = int(round(16 / eps)) + 1
        rep = discretization_gap(
            k,
            make_measure(unit_box, "trapezoid", res),
            centers,
            coeffs,
            delta=0.05,
            epsilon=eps,
        )
        gaps.append(rep.gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[2] >= 4.0


def test_random_test_functions_deterministic(unit_box):
    a = random_test_functions(unit_box, output_dim=2, count=8, seed=5)
    b = random_test_functions(unit_box, output_dim=2, count=8, seed=5)
    pts = np.random.default_rng(0).uniform(0, 1, size=(40, 1))
    assert len(a) == 8
    for fa, fb in zip(a, b):
        assert fa.describe()["family"] == fb.describe()["family"]
        assert_allclose(fa.values_on(pts), fb.values_on(pts), rtol=0, atol=0)
    families = {f.describe()["family"] for f in a}
    assert len(families) >= 3


def test_harness_agreement_on_zoo():
    dom = make_box_domain([0.0], [1.0])
    mu = make_measure(dom, "trapezoid", 33)
    for entry in kernel_zoo():
        if entry.needs_1d and dom.dimension != 1:
            continue
        k = build_kernel(entry.spec)
        rep = equivalence_harness(k, mu, trials=40, seed=0)
        assert rep.agree is True, entry.name
        assert (rep.discrete.verdict == "witness_found") == (not entry.is_pd), entry.name
        assert rep.integral.certified == entry.is_pd, entry.name


def test_harness_zero_trials_inconclusive(unit_box):
    mu = make_measure(unit_box, "trapezoid", 17)
    rep = equivalence_harness(build_kernel(Gaussian(1.0)), mu, trials=0, seed=0)
    assert rep.agree is None
    doc = rep.to_json()
    assert doc["discrete"] == {"verdict": "inconclusive"}
    assert doc["agree"] is None


def test_harness_circle():
    # -|x - y| is conditionally negative, not PD, so both sides of the harness
    # must find a witness and agree on a two-dimensional domain too.
    dom = make_circle_domain(1.0)
    mu = make_measure(dom, "uniform-nodes", 64)
    rep = equivalence_harness(build_kernel(NegDistance()), mu, trials=20, seed=1)
    assert rep.agree is True
    assert rep.discrete.verdict == "witness_found"
    assert rep.integral.verdict == "witness_found"


@pytest.mark.parametrize("spec", [
    NegDistance(),
    Lift(NegDistance(), ((2.0, 1.0), (1.0, 2.0))),
    BlockDiag((Gaussian(1.0), NegDistance())),
], ids=["neg_distance", "lift", "block_diag"])
def test_integral_witness_value_is_its_double_sum(unit_box, spec):
    # The witness is the lowest eigenfunction phi at the nodes; its value is
    # B(phi, phi) = sum_a sum_b w_a w_b phi_a^T K(x_a, x_b) phi_b, summed
    # here exactly over the kernel's own pairwise blocks.
    mu = make_measure(unit_box, "trapezoid", 257)
    k = build_kernel(spec)
    w = equivalence_harness(k, mu, trials=5, seed=0).integral.witness
    assert w.points is mu.nodes
    assert w.coefficients.shape == (len(mu), k.output_dim)
    K = k.eval_pairwise(mu.nodes, mu.nodes)
    terms = np.einsum("a,b,ai,abij,bj->abij", mu.weights, mu.weights,
                      w.coefficients, K, w.coefficients)
    exact = math.fsum(terms.ravel())
    assert w.value < 0
    assert w.value == pytest.approx(exact, rel=1e-12)


def test_integral_report_does_not_depend_on_the_seed(unit_box):
    mu = make_measure(unit_box, "trapezoid", 33)
    for spec in (Gaussian(1.0), NegDistance()):
        k = build_kernel(spec)
        docs = {json.dumps(equivalence_harness(k, mu, trials=10, seed=s).to_json()["integral"])
                for s in (0, 1, 2)}
        assert len(docs) == 1


def test_truncation_monotone(unit_box):
    mu = make_measure(unit_box, "trapezoid", 65)
    k = build_kernel(Constant(1.0))
    f = constant_function(np.array([1.0]))
    parts = [restrict_measure(mu, Ball([0.5], r)) for r in (0.26, 0.38, 0.45)]
    masses = [part.total_mass for part in parts]
    values = [quadform(k, f, part) for part in parts]
    assert_allclose(values, np.asarray(masses) ** 2, rtol=1e-12)
    full_value = quadform(k, f, mu)
    assert full_value == pytest.approx(1.0, abs=1e-12)
    assert values[0] < values[-1] < full_value
    assert masses == sorted(masses)


def test_truncation_requires_matching_components(unit_box):
    sub = restrict_measure(make_measure(unit_box, "trapezoid", 9), Ball([0.5], 0.3))
    f = constant_function(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="function has 2 components, kernel size is 1"):
        quadform(build_kernel(Gaussian(1.0)), f, sub)


def test_restrict_and_quadform_consistent(unit_box):
    mu = make_measure(unit_box, "trapezoid", 65)
    sub = restrict_measure(mu, Ball([0.5], 0.3))
    k = build_kernel(Gaussian(1.0))
    f = constant_function(np.array([1.0]))
    keep = np.abs(mu.nodes[:, 0] - 0.5) <= 0.3
    x, w = mu.nodes[keep, 0], mu.weights[keep]
    # the double sum over the retained nodes, with their unchanged weights
    direct = w @ np.exp(-np.subtract.outer(x, x) ** 2) @ w
    assert len(sub) == keep.sum() and 0 < len(sub) < len(mu)
    assert quadform(k, f, sub) == pytest.approx(direct, rel=1e-12)
