"""Quadratic control functionals discretized over partitions.

A piecewise-constant control on a partition of [0, T] turns the quadratic
cost into a finite-dimensional QP: the Hessian block (i, j) is the kernel
at the cell midpoints scaled by both cell widths, and the linear term
collects cell integrals of a fixed function. Convexity of the discretized
problem is literally a PSD check on that Hessian; a kernel that is not PD
yields a descent direction along which scaled controls drive the cost to
minus infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..certify import DEFAULT_TOLERANCE, PDReport, _certify, _require_finite
from ..kernels import MatrixKernel, gram_matrix

_GAUSS5_X, _GAUSS5_W = np.polynomial.legendre.leggauss(5)
# measured |r| / bound: 0.9-2.7 on PD Gaussian Hessians, >= 4e3 on exact null spaces
_NULL_SPACE_MARGIN = 64.0


@dataclass(frozen=True)
class ControlQP:
    """Discretized quadratic control problem min_v v^T H v + b^T v."""

    breakpoints: np.ndarray
    midpoints: np.ndarray
    widths: np.ndarray
    H: np.ndarray
    b: np.ndarray
    block_dim: int

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.size < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing, at least two")
        H = np.asarray(self.H, dtype=float)
        if np.max(np.abs(H - H.T)) > 1e-12 * max(1.0, np.max(np.abs(H))):
            raise ValueError("control Hessian must be symmetric")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "midpoints", np.asarray(self.midpoints, dtype=float))
        object.__setattr__(self, "widths", np.asarray(self.widths, dtype=float))
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(-1))

    @property
    def n_cells(self) -> int:
        return self.widths.size


def _cell_integrals(linear_term, breakpoints: np.ndarray, n_cells: int,
                    block_dim: int) -> np.ndarray:
    """Resolve the linear term to one vector of cell integrals per cell."""
    mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    widths = np.diff(breakpoints)
    if callable(linear_term):
        b = np.zeros((n_cells, block_dim))
        for i in range(n_cells):
            t = mids[i] + 0.5 * widths[i] * _GAUSS5_X
            vals = np.asarray([np.atleast_1d(linear_term(ti)) for ti in t], dtype=float)
            b[i] = 0.5 * widths[i] * (_GAUSS5_W @ vals)
        return b.reshape(-1)
    arr = np.asarray(linear_term, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape == (n_cells * block_dim,):
        return arr.copy()
    if arr.shape == (n_cells, block_dim):
        return arr.reshape(-1)
    if arr.shape == (block_dim,):
        # constant integrand: integral over each cell is value * width
        return (widths[:, None] * arr).reshape(-1)
    raise ValueError(
        f"linear term shape {arr.shape} fits neither the full vector "
        f"({n_cells * block_dim},), per-cell ({n_cells}, {block_dim}), "
        f"nor a constant ({block_dim},)"
    )


def assemble_control_qp(kernel: MatrixKernel, breakpoints, linear_term) -> ControlQP:
    """Build the QP for a partition: H_(i,j) = K(mid_i, mid_j) w_i w_j.

    The linear term may be a precomputed vector, a constant vector, or a
    callable t -> R^N integrated over each cell by 5-point quadrature.
    """
    bp = np.asarray(breakpoints, dtype=float).reshape(-1)
    mids = 0.5 * (bp[:-1] + bp[1:])
    widths = np.diff(bp)
    M, N = mids.size, kernel.output_dim
    P = mids.reshape(-1, 1)
    sw = np.repeat(widths, N)
    H = gram_matrix(kernel, P).data * np.multiply.outer(sw, sw)
    b = _cell_integrals(linear_term, bp, M, N)
    return ControlQP(bp, mids, widths, H, b, N)


@dataclass(frozen=True)
class QPSolution:
    """Minimizer or certified unboundedness of v^T H v + b^T v, with H's PSD report."""

    status: str
    value: float
    v: np.ndarray | None
    direction: np.ndarray | None
    residual: float
    hessian: PDReport

    @property
    def unbounded(self) -> bool:
        return self.status == "unbounded"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "value": self.value if np.isfinite(self.value) else None,
            "v": None if self.v is None else self.v.tolist(),
            "direction": None if self.direction is None else self.direction.tolist(),
            "residual": self.residual if np.isfinite(self.residual) else None,
            "eig_min": self.hessian.min_eigenvalue,
            "eig_max": self.hessian.max_eigenvalue,
            "tolerance": self.hessian.tolerance,
        }


def _split(a: np.ndarray):
    """a = hi + lo exactly, each half with at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray):
    """(p, e) with p + e = a * b exactly (Dekker's TwoProduct)."""
    p = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def qp_objective(H: np.ndarray, b: np.ndarray, v: np.ndarray) -> float:
    """v^T H v + b^T v, to within about one rounding of the value even on an
    ill-conditioned H, where the terms cancel many digits. TwoProduct
    (Ogita, Rump and Oishi, "Accurate sum and dot product", 2005) splits
    each product into its rounded value and its exact error; `math.fsum`
    adds the rounded values exactly, and the errors, each below eps times
    its term, are added in floating point, which costs only eps^2 of the
    sum of the terms' magnitudes."""
    H, b, v = (np.asarray(a, dtype=float) for a in (H, b, v))
    p, e = _two_product(v[:, None], H)  # v_i H_ij = p + e
    q, f = _two_product(p, v)  # p v_j = q + f
    s, g = _two_product(b, v)
    errors = float((f + e * v).sum() + g.sum())
    return math.fsum([*q.ravel().tolist(), *s.tolist(), errors])


def solve_qp(H, b, tolerance: float = DEFAULT_TOLERANCE) -> QPSolution:
    """Minimize v^T H v + b^T v from the one eigensolve that also decides H PSD.

    Unboundedness is a result, not an error: an H not certified PSD yields its
    lowest eigenvector (sign fixed so b^T d <= 0), and b's component r in the
    eigenvectors with eigenvalue <= c = n eps lambda_max a linear descent
    direction, but only if |r| > _NULL_SPACE_MARGIN * c * |H^+ b|, which no
    backward error of size c reaches to first order (Davis-Kahan). Otherwise
    the minimum-norm v = -H^+ b / 2 is returned with the residual |2Hv + b|/|b|.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    _require_finite(b, "b")
    hessian, ((H, evals, evecs),) = _certify(H, tolerance, "eigh")
    if not hessian.certified:
        d = evecs[:, 0]
        if b @ d > 0:
            d = -d
        return QPSolution("unbounded", -np.inf, None, d, np.nan, hessian)

    rank_cutoff = H.shape[0] * np.finfo(float).eps * max(hessian.max_eigenvalue, 0.0)
    null = evals <= rank_cutoff
    inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=~null)

    def half_pinv(r):
        return 0.5 * (evecs @ (inv * (evecs.T @ r)))

    v = -half_pinv(b)
    if null.any():
        r = evecs[:, null].T @ b
        rnorm = float(np.linalg.norm(r))
        if rnorm > _NULL_SPACE_MARGIN * rank_cutoff * 2.0 * float(np.linalg.norm(v)):
            d = -(evecs[:, null] @ r) / rnorm
            return QPSolution("unbounded", -np.inf, None, d, np.nan, hessian)
    # Two steps of residual refinement on the same factors shrink the
    # normal-equation residual 2Hv + b that the one-shot solve leaves on an
    # ill-conditioned H.
    for _ in range(2):
        v = v - half_pinv(2.0 * (H @ v) + b)
    value = qp_objective(H, b, v)
    residual = float(np.linalg.norm(2.0 * H @ v + b)) / max(1.0, float(np.linalg.norm(b)))
    return QPSolution("minimum", value, v, None, residual, hessian)


def solve_control_qp(qp: ControlQP, tolerance: float = DEFAULT_TOLERANCE) -> QPSolution:
    return solve_qp(qp.H, qp.b, tolerance)


@dataclass(frozen=True)
class RefinementReport:
    """QP values along a nested sequence of partitions."""

    values: list
    solutions: list
    non_increasing: bool

    def to_json(self) -> dict:
        return {
            "values": [v if np.isfinite(v) else None for v in self.values],
            "statuses": [s.status for s in self.solutions],
            "non_increasing": self.non_increasing,
        }


def refine_partition_study(kernel: MatrixKernel, partitions, linear_term,
                           tolerance: float = DEFAULT_TOLERANCE) -> RefinementReport:
    """Solve the control QP along nested partitions with a consistent
    linear term (cell integrals of one fixed function).

    Every coarse piecewise-constant control stays feasible on a finer
    partition, so the values are non-increasing; the report records whether
    that held numerically.
    """
    parts = [np.asarray(p, dtype=float).reshape(-1) for p in partitions]
    for coarse, fine in zip(parts, parts[1:]):
        for t in coarse:
            if np.min(np.abs(fine - t)) > 1e-12 * max(1.0, abs(t)):
                raise ValueError(
                    f"partitions are not nested: breakpoint {t} missing from refinement"
                )
    if not callable(linear_term):
        const = np.atleast_1d(np.asarray(linear_term, dtype=float))
        if const.ndim != 1 or const.size != kernel.output_dim:
            raise ValueError(
                "across refinements the linear term must be a fixed function: "
                "pass a callable or one constant vector"
            )
        linear_term = lambda t, c=const: c
    solutions = [solve_control_qp(assemble_control_qp(kernel, p, linear_term), tolerance)
                 for p in parts]
    values = [s.value for s in solutions]
    non_increasing = all(b <= a + 1e-10 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))
    return RefinementReport(values, solutions, non_increasing)
