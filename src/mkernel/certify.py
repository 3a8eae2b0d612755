"""Discrete positive definiteness certification.

A kernel is PD in the discrete sense when every block Gram matrix
[K(x_i, x_j)]_{ij} is positive semidefinite as an (n N) x (n N) matrix. We
decide that from the eigenvalues alone. Only a matrix that fails is solved
again with eigenvectors; the verdict is then re-decided on that solve and,
on failure, a witness is returned: the points and coefficient vectors whose
quadratic form is negative, reproducible by a direct double sum. Every
Gram matrix here is a `GramBlockMatrix`, the one block-Gram type that the
integral and spectral sides also use for the Gram over measure nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GramBlockMatrix, MatrixKernel, gram_blocks

DEFAULT_TOLERANCE = 1e-9


def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN or infinite input here, before an eigensolver meets it."""
    bad = ~np.isfinite(a)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"non-finite value {float(a[idx])} in {what} at index {idx}")


def assemble_gram(kernel: MatrixKernel, points) -> GramBlockMatrix:
    """Evaluate the block Gram matrix of a kernel over a point list."""
    if kernel.unbounded_diagonal:
        raise ValueError(
            f"kernel {kernel.name!r} is unbounded on the diagonal; "
            "its Gram matrix contains infinite entries"
        )
    P = kernel._check_points(points)
    _require_finite(P, "points")
    return GramBlockMatrix(P, kernel.output_dim, gram_blocks(kernel, P))


@dataclass(frozen=True)
class Witness:
    """Points and coefficients with a negative kernel quadratic form."""

    points: np.ndarray | None
    coefficients: np.ndarray
    value: float

    def to_json(self) -> dict:
        return {
            "points": None if self.points is None else self.points.tolist(),
            "coefficients": self.coefficients.tolist(),
            "value": self.value,
        }


@dataclass(frozen=True)
class PDReport:
    """Outcome of a PSD certification."""

    verdict: str
    min_eigenvalue: float
    max_eigenvalue: float
    tolerance: float
    witness: Witness | None = None
    warnings: tuple = ()

    @property
    def certified(self) -> bool:
        return self.verdict == "certified_psd"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "min_eigenvalue": self.min_eigenvalue,
            "max_eigenvalue": self.max_eigenvalue,
            "witness": None if self.witness is None else self.witness.to_json(),
            "tolerance": self.tolerance,
            "warnings": list(self.warnings),
        }


def direct_quadform(blocks: np.ndarray, coefficients: np.ndarray) -> float:
    """Sum_{i,j} c_i^T K(x_i, x_j) c_j, evaluated blockwise."""
    return float(np.einsum("ia,ijab,jb->", coefficients, blocks, coefficients))


def _as_gram(gram) -> GramBlockMatrix:
    if isinstance(gram, GramBlockMatrix):
        return gram
    M = np.asarray(gram, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a GramBlockMatrix or a square matrix")
    _require_finite(M, "matrix")
    return GramBlockMatrix(None, 1, M.reshape(M.shape[0], M.shape[0], 1, 1))


def _decide(evals: np.ndarray, tolerance: float) -> bool:
    return bool(evals[0] >= -tolerance * max(1.0, evals[-1]))


def certify_psd(gram, tolerance: float = DEFAULT_TOLERANCE) -> PDReport:
    """Certify a (block) Gram matrix PSD, or produce an eigen-witness.

    The matrix passes when its minimum eigenvalue is at least
    -tolerance * max(1, lambda_max), decided from an eigenvalues-only solve.
    Only when that fails is the matrix solved again with eigenvectors, and
    the verdict, both reported eigenvalues and the witness all come from
    that second solve, so a report never contradicts itself. The witness
    coefficients are the most negative eigenvector, signed so that its largest
    entry is positive and reshaped to one coefficient vector per point; the
    witness value is recomputed by a direct double sum. An empty matrix is an error.
    """
    return _certify(gram, tolerance, vectors=False)[0]


def _certify(gram, tolerance: float, vectors: bool):
    """`certify_psd`'s body; also returns the matrix it solved and the last solve's eigenpairs."""
    g = _as_gram(gram)
    if g.n_points == 0:
        raise ValueError("the Gram matrix is empty: there are no points to certify")
    d = g.data - g.data.T
    np.abs(d, out=d)
    sym_gap = np.max(d)
    del d
    warnings = []
    if g.has_duplicates:
        warnings.append("duplicate points: Gram matrix is singular by construction")
    M = g.data  # an exactly symmetric matrix is its own symmetrization, bit for bit
    if sym_gap > 0:
        M = 0.5 * (g.data + g.data.T)
        if sym_gap > 1e-12 * max(1.0, np.max(np.abs(g.data))):
            warnings.append(f"asymmetric input symmetrized (max gap {sym_gap:.3e})")
    evals, evecs = np.linalg.eigh(M) if vectors else (np.linalg.eigvalsh(M), None)
    if evecs is None and not _decide(evals, tolerance):
        evals, evecs = np.linalg.eigh(M)
    ok = _decide(evals, tolerance)
    witness = None
    if not ok:
        C = evecs[:, 0].reshape(g.n_points, g.block_dim)
        C *= np.sign(C.flat[np.argmax(np.abs(C))])  # largest entry positive, whatever LAPACK gave
        witness = Witness(g.points, C, direct_quadform(g.blocks, C))
    report = PDReport("certified_psd" if ok else "witness_found", float(evals[0]),
                      float(evals[-1]), tolerance, witness, tuple(warnings))
    return report, M, evals, evecs


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a randomized hunt for a discrete PD violation."""

    found: bool
    trials: int
    min_margin: float
    tolerance: float
    witness: Witness | None = None

    @property
    def verdict(self) -> str:
        return "witness_found" if self.found else "no_witness_found"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "trials": self.trials,
            "min_margin": self.min_margin,
            "witness": None if self.witness is None else self.witness.to_json(),
            "tolerance": self.tolerance,
        }


def random_search_witness(
    kernel: MatrixKernel,
    domain,
    trials: int = 200,
    seed: int = 0,
    n_range: tuple = (1, 8),
    tolerance: float = DEFAULT_TOLERANCE,
) -> SearchReport:
    """Search random point sets for a Gram matrix with a negative eigenvalue.

    Deterministic for a fixed seed. Stops at the first witness; otherwise
    reports the smallest relative eigenvalue margin seen (nonnegative means
    every trial certified).
    """
    rng = np.random.default_rng(seed)
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("n_range must satisfy 1 <= n_lo <= n_hi")
    min_margin = np.inf
    for t in range(trials):
        n = int(rng.integers(n_lo, n_hi + 1))
        points = domain.sample(rng, n)
        report = certify_psd(assemble_gram(kernel, points), tolerance)
        margin = report.min_eigenvalue / max(1.0, report.max_eigenvalue)
        min_margin = min(min_margin, margin)
        if not report.certified:
            return SearchReport(True, t + 1, float(min_margin), tolerance, report.witness)
    if trials == 0:
        min_margin = np.nan
    return SearchReport(False, trials, float(min_margin), tolerance, None)


def complex_quadform(gram, Z) -> tuple[float, float]:
    """Quadratic form sum conj(z_i)^T K(x_i, x_j) z_j for complex coefficients.

    Returns (real part, |imaginary part|). For a transpose-symmetric kernel
    the imaginary part cancels, so a PD kernel gives a nonnegative real part
    and an imaginary residual at rounding level.
    """
    g = _as_gram(gram)
    z = np.asarray(Z, dtype=complex).reshape(-1)
    if z.size != g.data.shape[0]:
        raise ValueError(
            f"coefficient vector has length {z.size}, Gram matrix has size {g.data.shape[0]}"
        )
    val = complex(np.conj(z) @ (g.data @ z))
    return val.real, abs(val.imag)
