"""Integral positive definiteness: kernel quadratic forms against measures.

The integral quadratic form of a kernel K, a vector-valued function f and a
measure mu is

    B(f, f) = integral integral f(x)^T K(x, y) f(y) dmu(x) dmu(y),

here evaluated over quadrature measures as a doubly weighted sum: u^T G u,
with G the block Gram matrix of the kernel over the measure nodes (the same
`GramBlockMatrix` as on point sets) and u the weighted function values. With
W the node weights, B(f, f) = v^T (W^{1/2} G W^{1/2}) v for v = W^{1/2} f,
so the kernel is integrally PD on the measure exactly when that weighted
Gram is PSD: one decision, `certify_psd(weighted_gram(kernel, measure))`.
The module provides that decision beside the discrete one in a harness,
test functions, and the Urysohn bump construction that converts a discrete
witness into an integral one with a quantified gap to its discrete
counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certify import (DEFAULT_TOLERANCE, PDReport, Report, SearchReport, Witness,
                      _check_tolerance, certify_psd, direct_quadform, json_value,
                      random_search_witness)
from .domains import Ball, QuadratureMeasure, in_closed_ball, require_inside
from .kernels import (GramBlockMatrix, MatrixKernel, _check_bounded, _largest_block_norm,
                      _row_slices, as_points, gram_blocks, gram_matrix)


def measure_gram(kernel: MatrixKernel, measure: QuadratureMeasure) -> GramBlockMatrix:
    """Block Gram matrix over the measure nodes, built once per (kernel,
    measure) so every quadratic form is then one matrix-vector product. Like
    every Gram, it refuses a kernel unbounded on the diagonal (`_check_bounded`)."""
    _check_bounded(kernel)
    return gram_matrix(kernel, measure.nodes)


def weighted_gram(kernel: MatrixKernel, measure: QuadratureMeasure) -> GramBlockMatrix:
    """W^{1/2} G W^{1/2} for the measure Gram G, W repeating each node
    weight once per output component.

    The weighting acts on each Kronecker term alone, W^{1/2} (F (x) A) W^{1/2}
    = (W_F^{1/2} F W_F^{1/2}) (x) A, so each factor F is scaled in place, a
    block of rows at a time, and no second copy of the measure Gram is held.
    """
    gram = measure_gram(kernel, measure)
    sw = np.sqrt(measure.weights)
    for F, t in gram.factors:
        s = np.repeat(sw, t.dim)
        for rows in _row_slices(s.size, s.size):
            F[rows] *= np.multiply.outer(s[rows], s)
    return GramBlockMatrix.from_factors(measure.nodes, kernel.output_dim, gram.factors)


def _weighted_form(G: np.ndarray, weights: np.ndarray, F: np.ndarray) -> float:
    """u^T G u for u = weights * F flattened node-major: the quadrature
    form of the function with values F against the Gram G of its nodes."""
    u = (weights[:, None] * F).ravel()
    return float(u @ (G @ u))


@dataclass
class TestFunction:
    """Vector-valued function with a batch evaluator and a JSON-able label."""

    family: str
    params: dict
    output_dim: int
    batch: callable

    def values_on(self, nodes) -> np.ndarray:
        X = as_points(nodes, "nodes")
        V = np.asarray(self.batch(X), dtype=float)
        return V.reshape(X.shape[0], self.output_dim)

    def __call__(self, x) -> np.ndarray:
        return self.values_on(np.reshape(x, (1, -1)))[0]

    def describe(self) -> dict:
        return {"family": self.family, "params": self.params}


def constant_function(vector) -> TestFunction:
    v = np.atleast_1d(np.asarray(vector, dtype=float))
    return TestFunction(
        "constant", {"vector": v.tolist()}, v.size,
        lambda X, v=v: np.broadcast_to(v, (X.shape[0], v.size)),
    )


def _require_components(n_components: int, kernel: MatrixKernel) -> None:
    if n_components != kernel.output_dim:
        raise ValueError(
            f"function has {n_components} components, kernel size is {kernel.output_dim}"
        )


def quadform(kernel: MatrixKernel, fn: TestFunction, measure: QuadratureMeasure) -> float:
    """Integral quadratic form B(f, f) of a kernel against a measure."""
    _require_components(fn.output_dim, kernel)
    val = _weighted_form(measure_gram(kernel, measure).data, measure.weights,
                         fn.values_on(measure.nodes))
    if not np.isfinite(val):
        raise ValueError("quadratic form is not finite on this measure")
    return val


def _ramp(dist: np.ndarray, delta: float, epsilon: float) -> np.ndarray:
    """Urysohn bump profile: 1 within distance delta, 0 beyond delta +
    epsilon, linear in the distance between."""
    return np.clip((delta + epsilon - dist) / epsilon, 0.0, 1.0)


def ball_mass(measure: QuadratureMeasure, center, radius: float) -> float:
    """Measure of the closed ball around a center."""
    return float(measure.weights[Ball(center, radius).contains(measure.nodes)].sum())


def _closest_pair(P: np.ndarray) -> float:
    """Smallest distance between two rows of P; infinite for fewer than two rows."""
    dists = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
    return float(dists[np.triu_indices(P.shape[0], 1)].min(initial=np.inf))


def _prepare_bumps(measure: QuadratureMeasure, centers, coefficients,
                   delta: float, epsilon: float):
    C = np.atleast_2d(np.asarray(coefficients, dtype=float))
    X0 = as_points(centers, "bump centers")
    if X0.shape[0] != C.shape[0]:
        raise ValueError("need one coefficient vector per center")
    require_inside(measure.domain, X0, "bump center")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    dmin = _closest_pair(X0)
    if dmin <= 2.0 * (delta + epsilon):
        raise ValueError(
            f"balls not disjoint: closest centers are {dmin:.6g} apart, "
            f"need more than {2 * (delta + epsilon):.6g}"
        )
    masses = np.array([ball_mass(measure, c, delta) for c in X0])
    if np.any(masses <= 0):
        raise ValueError(
            "measure resolution too coarse: some inner ball carries no mass"
        )
    return X0, C, masses


def mercer_test_function(measure: QuadratureMeasure, centers, coefficients,
                         delta: float, epsilon: float) -> TestFunction:
    """Bump-based test function carrying discrete coefficients into the
    integral form.

    f(x) = sum_i bump_i(x) c_i / mu(closed delta-ball around x_i), with the
    bumps required to have pairwise disjoint supports.
    """
    X0, C, masses = _prepare_bumps(measure, centers, coefficients, delta, epsilon)
    Cn = C / masses[:, None]

    def batch(X, X0=X0, Cn=Cn, delta=delta, epsilon=epsilon):
        d = np.linalg.norm(X[:, None, :] - X0[None, :, :], axis=2)
        return _ramp(d, delta, epsilon) @ Cn

    return TestFunction(
        "mercer_bump",
        {
            "centers": X0.tolist(),
            "coefficients": C.tolist(),
            "delta": delta,
            "epsilon": epsilon,
            "masses": masses.tolist(),
        },
        C.shape[1],
        batch,
    )


@dataclass(frozen=True)
class GapReport(Report):
    """Comparison of the bump quadratic form against its discrete target.

    ``gap`` is |quadform - discrete - correction|, the contribution of the
    ramp annuli; ``correction`` replaces each K(x_i, x_j) by its average
    over the product of inner balls; ``remainder_bound`` dominates the gap
    by annulus masses times the sup of |K|; ``continuity_term`` dominates
    the correction by the worst deviation of K over the inner balls.
    """

    quadform: float
    discrete: float
    correction: float
    gap: float
    remainder_bound: float
    continuity_term: float
    inner_masses: np.ndarray
    outer_masses: np.ndarray
    delta: float
    epsilon: float
    sup_norm: float


def discretization_gap(kernel: MatrixKernel, measure: QuadratureMeasure,
                       centers, coefficients, delta: float, epsilon: float) -> GapReport:
    """Quantify how far the bump function's integral form sits from the
    discrete quadratic form it mimics."""
    X0, C, masses = _prepare_bumps(measure, centers, coefficients, delta, epsilon)
    _require_components(C.shape[1], kernel)
    gram = measure_gram(kernel, measure)
    dists = np.linalg.norm(measure.nodes[:, None, :] - X0[None, :, :], axis=2)
    F = _ramp(dists, delta, epsilon) @ (C / masses[:, None])  # mercer_test_function's values
    q = _weighted_form(gram.data, measure.weights, F)
    if not np.isfinite(q):
        raise ValueError("quadratic form is not finite on this measure")

    Kc = gram_blocks(kernel, X0)
    discrete = direct_quadform(Kc, C)

    k = X0.shape[0]
    inner = in_closed_ball(dists, delta)
    outer = in_closed_ball(dists, delta + epsilon)
    outer_masses = measure.weights @ outer

    # Average of K over products of inner balls, one block per center pair.
    wi = measure.weights[:, None] * inner
    half = np.einsum("ai,abMN->ibMN", wi, gram.blocks)
    avg = np.einsum("ibMN,bj->ijMN", half, wi) / np.multiply.outer(masses, masses)[:, :, None, None]
    correction = direct_quadform(avg - Kc, C)

    gap = abs(q - discrete - correction)

    cnorms = np.linalg.norm(C, axis=1)
    annulus = np.multiply.outer(outer_masses, outer_masses) - np.multiply.outer(masses, masses)
    rel = annulus / np.multiply.outer(masses, masses)
    # bound_estimate over the nodes, read from the Gram held here
    n = len(measure)
    sup_norm = _largest_block_norm(gram.blocks[rows] for rows in _row_slices(n, n))
    remainder = float(np.einsum("ij,i,j->", rel, cnorms, cnorms) * sup_norm)

    continuity = 0.0
    for i in range(k):
        idx_i = np.flatnonzero(inner[:, i])
        for j in range(k):
            idx_j = np.flatnonzero(inner[:, j])
            dev = gram.blocks[np.ix_(idx_i, idx_j)] - Kc[i, j]
            worst = float(np.linalg.norm(dev, axis=(2, 3)).max())
            continuity += cnorms[i] * cnorms[j] * worst

    return GapReport(
        quadform=q, discrete=discrete, correction=correction, gap=gap,
        remainder_bound=remainder, continuity_term=continuity,
        inner_masses=masses, outer_masses=np.asarray(outer_masses, dtype=float),
        delta=delta, epsilon=epsilon, sup_norm=sup_norm,
    )


def random_test_functions(domain, output_dim: int, count: int, seed: int) -> list:
    """Deterministic list of random test functions, cycling through the
    constant, trigonometric, piecewise and bump families."""
    rng = np.random.default_rng([seed, 1])
    d = domain.dimension
    diam = domain.diameter
    fns = []
    for t in range(count):
        fam = ("constant", "trig", "piecewise", "bump")[t % 4]
        if fam == "constant":
            fns.append(constant_function(rng.normal(size=output_dim)))
        elif fam == "trig":
            om = rng.normal(size=d) * 3.0
            ph = rng.uniform(0.0, 2.0 * np.pi, size=output_dim)
            am = rng.normal(size=output_dim)

            def batch(X, om=om, ph=ph, am=am):
                return am * np.cos(X @ om[:, None] + ph)

            fns.append(TestFunction(
                "trig",
                {"frequency": om.tolist(), "phase": ph.tolist(), "amplitude": am.tolist()},
                output_dim, batch,
            ))
        elif fam == "piecewise":
            v = rng.normal(size=d)
            v /= max(np.linalg.norm(v), 1e-12)
            thr = float(domain.sample(rng, 1)[0] @ v)
            left, right = rng.normal(size=output_dim), rng.normal(size=output_dim)

            def batch(X, v=v, thr=thr, left=left, right=right):
                return np.where((X @ v <= thr)[:, None], left, right)

            fns.append(TestFunction(
                "piecewise",
                {"normal": v.tolist(), "threshold": thr,
                 "left": left.tolist(), "right": right.tolist()},
                output_dim, batch,
            ))
        else:
            center = domain.sample(rng, 1)[0]
            delta = float(rng.uniform(0.02, 0.15) * diam)
            eps = float(rng.uniform(0.02, 0.15) * diam)
            vec = rng.normal(size=output_dim)

            def batch(X, center=center, delta=delta, eps=eps, vec=vec):
                dist = np.linalg.norm(X - center, axis=1)
                return _ramp(dist, delta, eps)[:, None] * vec

            fns.append(TestFunction(
                "bump",
                {"center": center.tolist(), "delta": delta, "epsilon": eps,
                 "vector": vec.tolist()},
                output_dim, batch,
            ))
    return fns


@dataclass(frozen=True)
class HarnessReport:
    """Joint discrete/integral PD report with an agreement flag; a side that
    did not run (None) is written as {"verdict": "inconclusive"}."""

    discrete: SearchReport | None
    integral: PDReport | None
    agree: bool | None

    def to_json(self) -> dict:
        none = {"verdict": "inconclusive"}
        return {"discrete": json_value(self.discrete) or none,
                "integral": json_value(self.integral) or none, "agree": self.agree}


def equivalence_harness(kernel: MatrixKernel, measure: QuadratureMeasure,
                        trials: int = 200, seed: int = 0,
                        tolerance: float = DEFAULT_TOLERANCE) -> HarnessReport:
    """Check that discrete and integral positive definiteness agree.

    The discrete side hunts for a Gram eigen-witness over random point
    sets. The integral side decides the weighted measure Gram PSD at the
    same tolerance with `certify_psd`, and reports its fields as
    `certify_psd` defines them: when a Cholesky proves it, `min_eigenvalue`
    is None and `max_eigenvalue` a lower bound on lambda_max; when a 2 x 2
    block refutes it, they are that witness's value and an upper bound on
    every |lambda|. Its witness is phi = v / sqrt(w) at the measure nodes for
    `certify_psd`'s witness v (a pair of adjacent nodes, or the lowest
    eigenvector), with value B(phi, phi) (phi is 0 at a node of zero weight,
    which adds nothing to the form). With trials = 0 both sides are
    inconclusive.
    """
    _check_tolerance(tolerance)
    if trials == 0:
        return HarnessReport(None, None, None)

    discrete = random_search_witness(kernel, measure.domain, trials=trials,
                                     seed=seed, tolerance=tolerance)
    integral = certify_psd(weighted_gram(kernel, measure), tolerance)
    if integral.witness is not None:
        v, sw = integral.witness.coefficients, np.sqrt(measure.weights)[:, None]
        phi = np.divide(v, sw, out=np.zeros_like(v), where=sw > 0)
        integral = replace(integral, witness=Witness(measure.nodes, phi, integral.witness.value))
    return HarnessReport(discrete, integral, discrete.found == (not integral.certified))
