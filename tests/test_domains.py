import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.domains import (
    Ball,
    Box,
    BOUNDARY_TOL,
    Circle,
    QuadratureMeasure,
    distance,
    domain_from_json,
    load_points_csv,
    make_box_domain,
    make_circle_domain,
    make_measure,
    region_mask,
    restrict_measure,
    save_points_csv,
)


def test_trapezoid_weights_res3():
    dom = make_box_domain([0.0], [1.0])
    m = make_measure(dom, "trapezoid", 3)
    assert_allclose(m.nodes.ravel(), [0.0, 0.5, 1.0])
    assert_allclose(m.weights, [0.25, 0.5, 0.25])
    assert m.total_mass == pytest.approx(1.0, abs=1e-15)


def test_circle_uniform_nodes_4():
    dom = make_circle_domain(1.0)
    m = make_measure(dom, "uniform-nodes", 4)
    assert_allclose(m.weights, np.full(4, np.pi / 2))
    assert m.total_mass == pytest.approx(2 * np.pi, abs=1e-12)
    assert_allclose(np.linalg.norm(m.nodes, axis=1), 1.0)


@pytest.mark.parametrize("rule", ["trapezoid", "gauss", "uniform-nodes"])
def test_box_mass_equals_volume(rule):
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-2, 0, size=d)
        hi = lo + rng.uniform(0.5, 3, size=d)
        dom = make_box_domain(lo, hi)
        res = int(rng.integers(2, 7))
        m = make_measure(dom, rule, res)
        assert abs(m.total_mass - dom.volume) <= 1e-12 * max(1, dom.volume)
        assert len(m) == res**d


def test_per_dimension_resolution():
    dom = make_box_domain([0.0, 0.0], [1.0, 2.0])
    m = make_measure(dom, "trapezoid", [3, 5])
    assert len(m) == 15
    assert m.total_mass == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        make_measure(dom, "trapezoid", [3, 5, 7])


@pytest.mark.parametrize("domain,rule,resolution", [
    (make_box_domain([0.0, 0.0], [1.0, 2.0]), "trapezoid", 9.7),
    (make_box_domain([0.0, 0.0], [1.0, 2.0]), "gauss", [3, 5.5]),
    (make_box_domain([0.0], [1.0]), "trapezoid", True),
    (Circle(1.0), "uniform-nodes", 9.7),
    (Circle(1.0), "uniform-nodes", "9"),
])
def test_non_integer_resolution_is_rejected(domain, rule, resolution):
    # a truncated count would build fewer nodes than the caller asked for
    with pytest.raises(ValueError, match="resolution must be an integer"):
        make_measure(domain, rule, resolution)


def test_gauss_rule_is_exact_for_polynomials():
    dom = make_box_domain([0.0], [1.0])
    m = make_measure(dom, "gauss", 3)
    # degree 5 is within the 2*3-1 exactness guarantee
    approx = m.weights @ m.nodes.ravel() ** 5
    assert approx == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_circle_rejects_grid_rules():
    dom = make_circle_domain(2.0)
    for rule in ("trapezoid", "gauss"):
        with pytest.raises(ValueError, match="unsupported rule"):
            make_measure(dom, rule, 8)


def test_unknown_rule_rejected():
    dom = make_box_domain([0.0], [1.0])
    with pytest.raises(ValueError, match="unknown quadrature rule"):
        make_measure(dom, "simpson", 5)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        make_box_domain([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        make_circle_domain(0.0)


def test_distance_and_membership():
    dom = make_box_domain([0.0, 0.0], [1.0, 1.0])
    assert distance(dom, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(np.sqrt(2))
    with pytest.raises(ValueError, match="outside"):
        distance(dom, [0.0, 0.0], [2.0, 0.0])
    circ = make_circle_domain(1.0)
    p = circ.point_at(0.3)
    q = circ.point_at(1.1)
    assert distance(circ, p, q) == pytest.approx(2 * np.sin(0.4), abs=1e-12)
    with pytest.raises(ValueError, match="outside"):
        distance(circ, p, [0.5, 0.0])


def test_projection():
    dom = make_box_domain([0.0], [1.0])
    assert dom.project([1.7])[0] == 1.0
    circ = make_circle_domain(2.0)
    assert_allclose(np.linalg.norm(circ.project([5.0, 5.0])), 2.0)
    assert_allclose(np.linalg.norm(circ.project([0.0, 0.0])), 2.0)


def test_rowwise_projection_matches_per_point():
    rng = np.random.default_rng(4)
    box = make_box_domain([0.0, -1.0], [1.0, 2.0])
    X = rng.normal(scale=2.0, size=(20, 2))
    assert np.array_equal(box.project(X), np.stack([box.project(p) for p in X]))
    circ = make_circle_domain(2.0)
    X[5] = 0.0
    rows = circ.project(X)
    assert np.array_equal(rows, np.stack([circ.project(p) for p in X]))
    assert np.array_equal(rows[5], [2.0, 0.0])


def test_sampling_stays_inside():
    rng = np.random.default_rng(1)
    dom = make_box_domain([-1.0, 0.0], [1.0, 3.0])
    for p in dom.sample(rng, 50):
        assert dom.contains(p)
    circ = make_circle_domain(0.5)
    for p in circ.sample(rng, 50):
        assert circ.contains(p)


def test_mesh_covering_radius():
    dom = make_box_domain([0.0], [1.0])
    assert make_measure(dom, "trapezoid", 3).mesh == pytest.approx(0.25)
    assert make_measure(dom, "uniform-nodes", 4).mesh == pytest.approx(0.125)
    circ = make_circle_domain(1.0)
    m = make_measure(circ, "uniform-nodes", 8)
    assert m.mesh == pytest.approx(2 * np.sin(np.pi / 16), abs=1e-12)


def test_restrict_measure_ball_and_box():
    dom = make_box_domain([0.0], [1.0])
    m = make_measure(dom, "trapezoid", 9)
    sub = restrict_measure(m, Ball([0.5], 0.25))
    assert sub.total_mass == pytest.approx(
        m.weights[np.abs(m.nodes.ravel() - 0.5) <= 0.25 + 1e-12].sum()
    )
    assert not sub.empty
    # weights are retained unchanged
    for node, w in zip(sub.nodes.ravel(), sub.weights):
        i = np.argmin(np.abs(m.nodes.ravel() - node))
        assert w == m.weights[i]
    empty = restrict_measure(m, Ball([0.51], 0.001))
    assert empty.empty and empty.total_mass == 0.0
    boxed = restrict_measure(m, Box([0.0], [0.5]))
    assert len(boxed) == 5


def test_region_mask_boundary_tolerance():
    nodes = np.array([[0.5], [0.75]])
    # node exactly on the closed-ball boundary is kept
    mask = region_mask(nodes, Ball([0.5], 0.25))
    assert mask.tolist() == [True, True]
    mask = region_mask(nodes, Ball([0.5], 0.25 - 1e-6))
    assert mask.tolist() == [True, False]


def test_measure_validation():
    dom = make_box_domain([0.0], [1.0])
    with pytest.raises(ValueError, match="nonneg"):
        QuadratureMeasure(dom, np.array([[0.5]]), np.array([-1.0]), 0.1)
    with pytest.raises(ValueError, match="outside"):
        QuadratureMeasure(dom, np.array([[1.5]]), np.array([1.0]), 0.1)
    with pytest.raises(ValueError, match="same length"):
        QuadratureMeasure(dom, np.array([[0.5]]), np.array([1.0, 2.0]), 0.1)


def test_domain_json_roundtrip():
    dom = make_box_domain([0.0, -1.0], [2.0, 1.0])
    back = domain_from_json(dom.to_json())
    assert isinstance(back, Box)
    assert_allclose(back.lower, dom.lower)
    assert_allclose(back.upper, dom.upper)
    circ = make_circle_domain(1.5)
    back = domain_from_json(circ.to_json())
    assert isinstance(back, Circle) and back.radius == 1.5
    with pytest.raises(ValueError):
        domain_from_json({"kind": "torus"})


def test_points_csv_roundtrip(tmp_path):
    pts = np.random.default_rng(2).uniform(size=(7, 3))
    path = tmp_path / "pts.csv"
    save_points_csv(path, pts)
    back = load_points_csv(path)
    assert_allclose(back, pts, rtol=0, atol=0)
    assert path.read_text().splitlines()[0] == "x1,x2,x3"


def test_points_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,0.2\n")
    with pytest.raises(ValueError, match="header"):
        load_points_csv(path)
    path.write_text("x1,x2\n")
    with pytest.raises(ValueError, match="no points"):
        load_points_csv(path)


def test_boundary_tolerance_membership():
    dom = make_box_domain([0.0], [1.0])
    assert dom.contains([1.0 + BOUNDARY_TOL / 2])
    assert not dom.contains([1.0 + 1e-9])
