"""Compact metric domains and finite quadrature measures.

Two domain kinds are supported: axis-aligned boxes in R^d and circles of
a given radius in the plane (with the chordal metric inherited from R^2).
Measures are finite node/weight lists; every integral in this package is a
weighted sum over such a measure. The covering radius of the node set is
recorded as ``mesh`` so callers can judge how faithfully the measure stands
in for a measure of full support.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import as_points, config_entry, json_array, json_number

# Closed-ball / membership slack at boundaries, to avoid floating-point
# flapping for points generated exactly on a boundary.
BOUNDARY_TOL = 1e-12

MEASURE_RULES = ("trapezoid", "gauss", "uniform-nodes")


def as_point(x) -> np.ndarray:
    """Coerce a point to a 1-D float array."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"a point must be a 1-D coordinate vector, got shape {p.shape}")
    return p


def _as_point_or_rows(x) -> np.ndarray:
    """One point as a 1-D array, or an (n, d) array of points kept as rows."""
    p = np.asarray(x, dtype=float)
    return p if p.ndim == 2 else as_point(p)


def require_inside(domain: Domain, points: np.ndarray, what: str) -> None:
    """Reject the first row of an (n, d) point array that lies outside the
    domain, naming `what` was checked, the row's index, the point and the domain."""
    outside = np.flatnonzero(~domain.contains(points))
    if outside.size:
        import json  # on the error path only: `import mkernel` does not load json
        i = int(outside[0])
        raise ValueError(f"{what} {i} {points[i].tolist()} lies outside the domain "
                         f"{json.dumps(domain.to_json())}")


def in_closed_ball(dist, radius: float):
    """Whether distances from a centre lie in the closed ball of that radius."""
    return dist <= radius + BOUNDARY_TOL * max(1.0, radius)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_d, upper_d]."""

    lower: np.ndarray
    upper: np.ndarray

    kind = "box"

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ValueError("lower and upper must be vectors of equal length >= 1")
        with np.errstate(over="ignore", invalid="ignore"):
            for name, v in (("lower", lo), ("upper", hi), ("upper - lower", hi - lo)):
                if not np.isfinite(v).all():
                    raise ValueError(f"box {name} must be finite, got {v.tolist()}")
            if not np.all(lo < hi):
                raise ValueError("degenerate box: require lower[i] < upper[i] in every coordinate")
            for what, v in (("the sum of its squares", np.sum((hi - lo) ** 2)),  # squared distance
                            ("its product (the volume)", np.prod(hi - lo))):  # a measure's mass
                if not np.isfinite(v):
                    raise ValueError(f"box upper - lower {(hi - lo).tolist()} is too wide: "
                                     f"{what} overflows a float")
                if v == 0.0:
                    raise ValueError(f"box upper - lower {(hi - lo).tolist()} is too narrow: "
                                     f"{what} underflows to 0")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def contains(self, x):
        """Whether one point, or each row of an (n, d) array, lies in the box."""
        p = _as_point_or_rows(x)
        if p.shape[-1] != self.dimension:
            return np.zeros(p.shape[:-1], dtype=bool)
        scale = np.maximum(1.0, np.abs(self.upper - self.lower))
        return np.all((p >= self.lower - BOUNDARY_TOL * scale)
                      & (p <= self.upper + BOUNDARY_TOL * scale), axis=-1)

    def project(self, x) -> np.ndarray:
        """Nearest point of the box to one point, or to each row of an (n, d) array."""
        return np.clip(_as_point_or_rows(x), self.lower, self.upper)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform points: bit for bit rng.uniform(lower, upper, (n, d)),
        which also takes lower + (upper - lower) * u, from the same stream."""
        return self.lower + (self.upper - self.lower) * rng.random((n, self.dimension))

    def to_json(self) -> dict:
        return {"kind": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}


@dataclass(frozen=True)
class Circle:
    """Circle of given radius centred at the origin of the plane.

    Points are 2-D coordinates lying on the circle; distances are chordal
    (plain Euclidean in the plane).
    """

    radius: float

    kind = "circle"

    def __post_init__(self):
        r = float(self.radius)
        if not 0 < r < np.inf:
            raise ValueError(f"circle radius must be positive and finite, got {r}")
        d2 = (2.0 * r) * (2.0 * r)  # the largest squared distance
        if not d2 < np.inf:
            raise ValueError(f"circle radius {r} is too large: (2 radius)^2 overflows a float")
        if d2 == 0.0:
            raise ValueError(f"circle radius {r} is too small: (2 radius)^2 underflows to 0")
        object.__setattr__(self, "radius", r)

    @property
    def dimension(self) -> int:
        return 2

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def circumference(self) -> float:
        return 2.0 * np.pi * self.radius

    def contains(self, x):
        """Whether one point, or each row of an (n, 2) array, lies on the circle."""
        p = _as_point_or_rows(x)
        if p.shape[-1] != 2:
            return np.zeros(p.shape[:-1], dtype=bool)
        # A dot product per row, as np.linalg.norm takes for one point: same verdict, bit for bit.
        norm = np.sqrt((p[..., None, :] @ p[..., :, None])[..., 0, 0])
        return np.abs(norm - self.radius) <= 1e-9 * max(1.0, self.radius)

    def project(self, x) -> np.ndarray:
        """Radial projection of one point, or of each row of an (n, 2) array.

        The origin, which has no nearest point, goes to (radius, 0).
        """
        p = _as_point_or_rows(x)
        nrm = np.linalg.norm(p, axis=-1, keepdims=True)
        zero = nrm == 0.0
        scaled = p * (self.radius / np.where(zero, 1.0, nrm))
        return np.where(zero, [self.radius, 0.0], scaled)

    def point_at(self, angle) -> np.ndarray:
        return self.radius * np.array([np.cos(angle), np.sin(angle)])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return self.radius * np.column_stack([np.cos(theta), np.sin(theta)])

    def to_json(self) -> dict:
        return {"kind": "circle", "radius": self.radius}


Domain = Box | Circle


@dataclass(frozen=True)
class Ball:
    """Closed metric ball used as a restriction region."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not float(self.radius) >= 0:
            raise ValueError("ball radius must be nonnegative")

    def contains(self, x):
        """Whether one point, or each row of an (n, d) array, lies in the ball."""
        p = _as_point_or_rows(x)
        if p.shape[-1] != self.center.size:
            return np.zeros(p.shape[:-1], dtype=bool)
        return in_closed_ball(np.linalg.norm(p - self.center, axis=-1), self.radius)


def make_box_domain(lower, upper) -> Box:
    """Construct a box domain with the Euclidean metric."""
    return Box(lower, upper)


def make_circle_domain(radius) -> Circle:
    """Construct a circle domain with the chordal metric."""
    return Circle(radius)


def distance(domain: Domain, x, y) -> float:
    """Metric distance between two points of the domain.

    Raises ValueError if either point lies outside the domain.
    """
    px, py = as_point(x), as_point(y)
    for name, p in (("x", px), ("y", py)):  # each on its own: they may differ in dimension
        require_inside(domain, p[None], f"point {name}")
    return float(np.linalg.norm(px - py))


@dataclass(frozen=True)
class QuadratureMeasure:
    """Finite node/weight list approximating a measure on a domain.

    ``mesh`` is the covering radius of the node set (max distance from any
    domain point to its nearest node), recorded as a fidelity parameter: a
    finite node set only approximates a measure of full support.
    """

    domain: Domain
    nodes: np.ndarray
    weights: np.ndarray
    mesh: float
    total_mass: float = field(init=False)

    def __post_init__(self):
        nodes = as_points(self.nodes, "nodes")
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if nodes.shape[0] != weights.size:
            raise ValueError("nodes and weights must have the same length")
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0)))
        if bad.size:
            raise ValueError(f"quadrature weights must be finite and nonnegative, "
                             f"got weight {bad[0]} = {weights[bad[0]]}")
        if not 0.0 <= self.mesh < np.inf:
            raise ValueError(f"measure mesh must be finite and nonnegative, got {self.mesh}")
        require_inside(self.domain, nodes, "node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total_mass", float(weights.sum()))

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @property
    def empty(self) -> bool:
        return len(self) == 0


def _resolutions(resolution, dim: int) -> list[int]:
    if np.isscalar(resolution):
        return [json_number(resolution, "resolution", integer=True)] * dim
    rs = [json_number(r, "resolution", integer=True) for r in resolution]
    if len(rs) != dim:
        raise ValueError(f"need one resolution per dimension ({dim}), got {len(rs)}")
    return rs


def _box_1d_rule(rule: str, lo: float, hi: float, res: int):
    """Nodes, weights and covering radius of a 1-D rule on [lo, hi]."""
    length = hi - lo
    if rule == "trapezoid":
        if res < 2:
            raise ValueError("trapezoid rule needs resolution >= 2")
        x = np.linspace(lo, hi, res)
        h = length / (res - 1)
        w = np.full(res, h)
        w[0] = w[-1] = h / 2
        return x, w, h / 2
    if rule == "gauss":
        if res < 2:
            raise ValueError("gauss rule needs resolution >= 2")
        xi, wi = np.polynomial.legendre.leggauss(res)
        x = (xi + 1.0) * (length / 2.0) + lo
        w = wi * (length / 2.0)
        gaps = np.diff(x)
        cover = max(x[0] - lo, hi - x[-1], float(gaps.max()) / 2.0)
        return x, w, cover
    if rule == "uniform-nodes":
        if res < 1:
            raise ValueError("uniform-nodes rule needs resolution >= 1")
        h = length / res
        x = lo + h * (np.arange(res) + 0.5)
        w = np.full(res, h)
        return x, w, h / 2
    raise ValueError(f"unknown quadrature rule {rule!r}")


def make_measure(domain: Domain, rule: str, resolution) -> QuadratureMeasure:
    """Build a quadrature measure whose total mass is the domain's volume
    (box) or circumference (circle)."""
    if rule not in MEASURE_RULES:
        raise ValueError(f"unknown quadrature rule {rule!r}; expected one of {MEASURE_RULES}")

    if isinstance(domain, Box):
        res = _resolutions(resolution, domain.dimension)
        per_dim = [
            _box_1d_rule(rule, domain.lower[i], domain.upper[i], res[i])
            for i in range(domain.dimension)
        ]
        grids = np.meshgrid(*[p[0] for p in per_dim], indexing="ij")
        nodes = np.column_stack([g.ravel() for g in grids])
        wgrids = np.meshgrid(*[p[1] for p in per_dim], indexing="ij")
        weights = np.ones(nodes.shape[0])
        for wg in wgrids:
            weights = weights * wg.ravel()
        mesh = float(np.sqrt(sum(p[2] ** 2 for p in per_dim)))
        return QuadratureMeasure(domain, nodes, weights, mesh)

    if isinstance(domain, Circle):
        if rule != "uniform-nodes":
            raise ValueError(f"unsupported rule/domain combination: {rule!r} on a circle")
        res = _resolutions(resolution, 1)[0]
        if res < 1:
            raise ValueError("uniform-nodes rule needs resolution >= 1")
        theta = 2.0 * np.pi * np.arange(res) / res
        nodes = domain.radius * np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(res, domain.circumference / res)
        mesh = 2.0 * domain.radius * np.sin(np.pi / (2 * res))
        return QuadratureMeasure(domain, nodes, weights, float(mesh))

    raise ValueError(f"unsupported domain kind {domain!r}")


def restrict_measure(measure: QuadratureMeasure, region) -> QuadratureMeasure:
    """Restrict a measure to a closed ball or sub-box.

    Retains exactly the nodes inside the region with unchanged weights; an
    empty restriction yields a mass-0 measure whose ``empty`` is true.
    """
    if not isinstance(region, (Ball, Box)):
        raise ValueError("region must be a Ball or a Box")
    keep = region.contains(measure.nodes)
    return replace(measure, nodes=measure.nodes[keep], weights=measure.weights[keep])


def domain_from_json(doc: dict) -> Domain:
    kind = doc.get("kind")
    if kind == "box":
        return Box(json_array(config_entry(doc, "lower"), "domain lower"),
                   json_array(config_entry(doc, "upper"), "domain upper"))
    if kind == "circle":
        return Circle(json_number(config_entry(doc, "radius"), "domain radius"))
    raise ValueError(f"unknown domain kind {kind!r}")


def load_points_csv(path) -> np.ndarray:
    """Read a point set from CSV with header row x1..xd, one point per row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        expected = [f"x{i + 1}" for i in range(len(header))]
        if [h.strip() for h in header] != expected:
            raise ValueError(f"{path}: header row must be {','.join(expected)}")
        rows = [row for row in reader if row]
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ValueError(f"{path}: point {i} has {len(row)} coordinates, not {len(header)}")
        for j, v in enumerate(row):
            try:
                row[j] = float(v)
            except ValueError:
                raise ValueError(f"{path}: point {i} has non-numeric x{j + 1} {v!r}") from None
    if not rows:
        raise ValueError(f"{path}: no points")
    return np.asarray(rows, dtype=float)
