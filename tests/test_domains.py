import itertools
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.domains import (
    MEASURE_RULES,
    Ball,
    Box,
    BOUNDARY_TOL,
    Circle,
    QuadratureMeasure,
    _box_1d_rule,
    distance,
    domain_from_json,
    load_points_csv,
    make_box_domain,
    make_circle_domain,
    make_measure,
    restrict_measure,
)
from mkernel.integral import mercer_test_function


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


@pytest.mark.parametrize("lower,upper,message", [
    ([0.0], [np.inf], r"box upper must be finite, got \[inf\]"),
    ([-np.inf, 0.0], [1.0, 1.0], r"box lower must be finite, got \[-inf, 0.0\]"),
    ([np.nan], [1.0], r"box lower must be finite, got \[nan\]"),
    ([-1e308], [1e308], r"box upper - lower must be finite, got \[inf\]"),
    ([0.0, -1.7e308], [1.0, 1.7e308], r"box upper - lower must be finite, got \[1.0, inf\]"),
])
def test_non_compact_box_rejected(lower, upper, message):
    with pytest.raises(ValueError, match=message):
        Box(lower, upper)


def test_non_finite_circle_rejected():
    with pytest.raises(ValueError, match="circle radius must be positive and finite, got inf"):
        Circle(np.inf)
    with pytest.raises(ValueError, match="circle radius must be positive"):
        Circle(np.nan)
    assert Circle(6.7e153).diameter == 1.34e154


# every squared distance between two points of a domain is a finite float:
# sum((upper - lower)^2) for a box, (2 radius)^2 for a circle
@pytest.mark.parametrize("lower,upper", [([0.0], [1.4e154]), ([0.0], [1e200]),
                                         ([0.0, 0.0], [1e154, 1e154])])
def test_a_box_whose_squared_diameter_overflows_is_rejected(lower, upper):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"box upper - lower \[.*\] is too wide"):
            Box(lower, upper)


def test_a_box_whose_volume_overflows_is_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Box([0.0] * 3, [1e102] * 3).volume == pytest.approx(1e306)
        with pytest.raises(ValueError, match=r"box upper - lower \[1e\+103, 1e\+103, 1e\+103\] "
                                             "is too wide: its product \\(the volume\\) overflows"):
            Box([0.0] * 3, [1e103] * 3)


def test_a_box_at_the_edge_of_overflow_constructs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Box([0.0], [1.3e154]).diameter == 1.3e154
        assert np.isfinite(Box([0.0, 0.0], [9e153, 9e153]).diameter)


@pytest.mark.parametrize("radius", [1e154, 1e200, 1e307])
def test_a_circle_whose_squared_diameter_overflows_is_rejected(radius):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"circle radius {radius} is too large")):
            Circle(radius)


@pytest.mark.parametrize("resolution,count", [([], 0), ([16, 99], 2)])
def test_circle_resolution_is_one_count(resolution, count):
    with pytest.raises(ValueError, match=rf"need one resolution per dimension \(1\), got {count}"):
        make_measure(make_circle_domain(1.0), "uniform-nodes", resolution)
    for one in (16, [16]):
        assert len(make_measure(make_circle_domain(1.0), "uniform-nodes", one)) == 16


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


SQUARE = '{"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}'
UNIT_CIRCLE = '{"kind": "circle", "radius": 1.0}'


@pytest.mark.parametrize("call,message", [
    (lambda: distance(Box([0.0, 0.0], [1.0, 1.0]), [1.5, 0.5], [0.0, 0.0]),
     f"point x 0 [1.5, 0.5] lies outside the domain {SQUARE}"),
    (lambda: distance(Circle(1.0), [1.0, 0.0], [0.5, 0.0]),
     f"point y 0 [0.5, 0.0] lies outside the domain {UNIT_CIRCLE}"),
    (lambda: QuadratureMeasure(Box([0.0, 0.0], [1.0, 1.0]), [[0.5, 0.5], [0.5, 1.5]],
                               [1.0, 1.0], 0.1),
     f"node 1 [0.5, 1.5] lies outside the domain {SQUARE}"),
    (lambda: mercer_test_function(make_measure(Box([0.0, 0.0], [1.0, 1.0]), "trapezoid", 9),
                                  [[0.2, 0.2], [0.8, 0.2], [1.2, 0.7]],
                                  [[1.0], [-1.0], [1.0]], 0.01, 0.01),
     f"bump center 2 [1.2, 0.7] lies outside the domain {SQUARE}"),
], ids=["distance_x", "distance_y", "measure_node", "bump_center"])
def test_an_out_of_domain_point_is_named_with_its_index_and_the_domain(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("domain,x,y", [
    (Box([0.0, 0.0], [1.0, 1.0]), [0.5, 0.5], [0.5]),
    (Box([0.0], [1.0]), [0.5, 0.5], [0.5]),
    (Circle(1.0), [1.0, 0.0, 0.0], [0.0, 1.0]),
])
def test_distance_between_points_of_two_dimensions_is_outside(domain, x, y):
    with pytest.raises(ValueError, match="lies outside"):
        distance(domain, x, y)


def test_measure_nodes_of_another_dimension_lie_outside():
    with pytest.raises(ValueError, match=r"^node 0 \[0.5, 0.5\] lies outside the domain"):
        QuadratureMeasure(Box([0.0], [1.0]), [[0.5, 0.5]], [1.0], 0.1)


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
    m = QuadratureMeasure(make_box_domain([0.0], [1.0]), np.array([[0.5], [0.75]]),
                          np.array([1.0, 2.0]), 0.25)
    # node exactly on the closed-ball boundary is kept
    assert restrict_measure(m, Ball([0.5], 0.25)).weights.tolist() == [1.0, 2.0]
    assert restrict_measure(m, Ball([0.5], 0.25 - 1e-6)).weights.tolist() == [1.0]
    with pytest.raises(ValueError, match="region must be a Ball or a Box"):
        restrict_measure(m, Circle(1.0))


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
    path.write_text("x1,x2,x3\n" + "".join(",".join(map(repr, p)) + "\n" for p in pts.tolist()))
    back = load_points_csv(path)
    assert_allclose(back, pts, rtol=0, atol=0)


def test_points_csv_1d_list_is_one_point_per_row(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x1\n0.1\n0.9\n")
    assert load_points_csv(path).tolist() == [[0.1], [0.9]]


def test_points_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,0.2\n")
    with pytest.raises(ValueError, match="header"):
        load_points_csv(path)
    path.write_text("x1,x2\n")
    with pytest.raises(ValueError, match="no points"):
        load_points_csv(path)


def test_points_csv_rows_must_match_the_header(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("x1\n0.1,0.5\n0.3,0.9\n")
    with pytest.raises(ValueError, match="point 1 has 2 coordinates, not 1"):
        load_points_csv(path)
    path.write_text("x1,x2\n0.1,0.5\n\n0.3\n")
    with pytest.raises(ValueError, match="point 2 has 1 coordinates, not 2"):
        load_points_csv(path)


def test_points_csv_names_a_non_numeric_entry(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("x1,x2\n0.1,0.5\n0.3, nan\n0.4,1e-3x\n")
    with pytest.raises(ValueError, match=r"text.csv: point 3 has non-numeric x2 '1e-3x'"):
        load_points_csv(path)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lower, upper", [
    ([0.0], [1.0]), ([-3.5], [-1.25]), ([-2.0, 0.5], [-1.0, 4.0]),
    ([-1e3, -1.0, 0.0], [1e-3, 1.0, 7.0]), ([0.25, -1.0], [0.25, 2.0]),
], ids=["unit", "negative", "plane", "space", "a_flat_side"])
def test_box_sample_is_rng_uniform_bit_for_bit(seed, lower, upper):
    # Box rejects lower == upper, so the flat side is sampled through a stand-in
    box = SimpleNamespace(lower=np.array(lower), upper=np.array(upper), dimension=len(lower))
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (0, 1, 5, 64):
        got = Box.sample(box, ours, n)
        want = ref.uniform(lower, upper, size=(n, len(lower)))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert ours.random() == ref.random()  # the same stream consumed


def test_boundary_tolerance_membership():
    dom = make_box_domain([0.0], [1.0])
    assert dom.contains([1.0 + BOUNDARY_TOL / 2])
    assert not dom.contains([1.0 + 1e-9])


# Per-point reference copies of the membership rules that `contains` applies
# row-wise: the box, the circle and restrict_measure's closed ball.
def _box_rule(box, p):
    if p.size != box.dimension:
        return False
    scale = np.maximum(1.0, np.abs(box.upper - box.lower))
    return bool(np.all(p >= box.lower - BOUNDARY_TOL * scale)
                and np.all(p <= box.upper + BOUNDARY_TOL * scale))


def _circle_rule(circle, p):
    if p.size != 2:
        return False
    return bool(abs(np.linalg.norm(p) - circle.radius) <= 1e-9 * max(1.0, circle.radius))


def _ball_rule(ball, p):
    if p.size != ball.center.size:
        return False
    d = np.linalg.norm(p[None, :] - ball.center, axis=1)[0]
    return bool(d <= ball.radius + BOUNDARY_TOL * max(1.0, ball.radius))


def _offsets(r):
    """Offsets from a boundary: on it, within and beyond the slack, and at the
    circle's slack, 1e-9 max(1, r)."""
    tol = 1e-9 * max(1.0, r)
    return [0.0, BOUNDARY_TOL / 2, -BOUNDARY_TOL / 2, 2 * BOUNDARY_TOL, -2 * BOUNDARY_TOL,
            tol, -tol, 2 * tol, -2 * tol]


def _box_points(box, rng):
    """Each face of the box with every offset, plus random points around it."""
    lo, hi = box.lower, box.upper
    pts = [*rng.uniform(lo - 0.5, hi + 0.5, size=(40, box.dimension))]
    for i, off in itertools.product(range(box.dimension), _offsets(float(np.max(hi - lo)))):
        for face, sign in ((lo, -1.0), (hi, 1.0)):
            p = rng.uniform(lo, hi)
            p[i] = face[i] + sign * off
            pts.append(p)
    return np.array(pts)


def _sphere_points(center, r, rng, n=40):
    """Points at distance r + offset from the center, in random directions."""
    u = rng.normal(size=(n * len(_offsets(r)), center.size))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    dist = r + np.repeat(_offsets(r), n)
    return center + dist[:, None] * u


REGIONS = [
    (Box([0.0], [1.0]), _box_rule),
    (Box([-2.0], [3.5]), _box_rule),
    (Box([0.0, -1.0], [1.0, 2.0]), _box_rule),
    (Circle(1.5), _circle_rule),
    (Circle(0.25), _circle_rule),
    (Ball([0.3, -0.2], 0.7), _ball_rule),
    (Ball([0.5], 2.5), _ball_rule),
]


@pytest.mark.parametrize("region,rule", REGIONS, ids=["interval", "wide-interval", "rectangle",
                                                      "circle", "small-circle", "disc", "segment"])
def test_contains_rows_match_the_per_point_rule(region, rule):
    rng = np.random.default_rng(11)
    if isinstance(region, Box):
        P = _box_points(region, rng)
    elif isinstance(region, Circle):
        P = _sphere_points(np.zeros(2), region.radius, rng)
    else:
        P = _sphere_points(region.center, region.radius, rng)
    expected = [rule(region, p) for p in P]
    assert any(expected) and not all(expected)
    mask = region.contains(P)
    assert mask.shape == (len(P),) and mask.dtype == bool
    assert mask.tolist() == expected
    assert [bool(region.contains(p)) for p in P] == expected
    d = P.shape[1]
    assert region.contains(np.zeros((0, d))).shape == (0,)
    assert region.contains(np.zeros((5, d + 1))).tolist() == [False] * 5
    assert not region.contains(np.zeros(d + 1))


def _reference_measure(domain, rule, res):
    """A measure's nodes, weights and mesh built node by node, each node
    checked by the per-point rule."""
    if isinstance(domain, Circle):
        theta = 2.0 * np.pi * np.arange(res) / res
        nodes = domain.radius * np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(res, domain.circumference / res)
        mesh = float(2.0 * domain.radius * np.sin(np.pi / (2 * res)))
        assert all(_circle_rule(domain, p) for p in nodes)
        return nodes, weights, mesh
    per_dim = [_box_1d_rule(rule, lo, hi, res) for lo, hi in zip(domain.lower, domain.upper)]
    nodes, weights = [], []
    for idx in itertools.product(*[range(len(x)) for x, _, _ in per_dim]):
        nodes.append([per_dim[i][0][j] for i, j in enumerate(idx)])
        w = 1.0
        for i, j in enumerate(idx):
            w = w * per_dim[i][1][j]
        weights.append(w)
    nodes = np.array(nodes)
    assert all(_box_rule(domain, p) for p in nodes)
    return nodes, np.array(weights), float(np.sqrt(sum(c ** 2 for _, _, c in per_dim)))


@pytest.mark.parametrize("rule", MEASURE_RULES)
def test_measures_are_bit_identical_to_the_node_by_node_reference(rule):
    rng = np.random.default_rng(5)
    cases = []
    for d in (1, 2, 3):
        lo = rng.uniform(-2.0, 0.0, size=d)
        cases += [(Box(lo, lo + rng.uniform(0.5, 3.0, size=d)), res) for res in (2, 3, 5)]
    if rule == "uniform-nodes":
        cases += [(Circle(r), res) for r in (1.0, 2.5) for res in (1, 7, 64)]
    for dom, res in cases:
        m = make_measure(dom, rule, res)
        nodes, weights, mesh = _reference_measure(dom, rule, res)
        assert np.array_equal(m.nodes, nodes)
        assert np.array_equal(m.weights, weights)
        assert m.mesh == mesh
