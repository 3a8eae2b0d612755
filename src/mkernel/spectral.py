"""Spectral decomposition of kernel integral operators over quadrature
measures.

The integral operator (T f)(x) = integral K(x, y) f(y) dmu(y) is discretized
on the measure nodes. Symmetrizing by the square-root weights turns the
weighted eigenproblem into an ordinary symmetric one:

    A = W^{1/2} G W^{1/2},   A v_k = sigma_k v_k,   phi_k = v_k / sqrt(w),

where G is the block Gram matrix over the nodes (a `GramBlockMatrix`, as
on point sets, solved term by term) and W repeats each node weight once per
output component. The eigenfunctions phi_k are orthonormal in L^2(mu) by
construction, and sum_k sigma_k equals the weighted trace of K on the
diagonal. For a PD kernel the quadratic form of any f is the sum of the
nonnegative terms sigma_k <phi_k, f>_mu^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import DEFAULT_TOLERANCE, _decide
from .domains import QuadratureMeasure
from .integral import TestFunction, weighted_gram
from .kernels import MatrixKernel

DROP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Retained eigenpairs of the discretized kernel operator.

    sigmas are descending and strictly positive; phis[k] holds eigenfunction
    values at the measure nodes, shape (n, N). ``dropped`` counts discarded
    eigenvalues and ``dropped_mass`` is their sum; ``not_pd`` flags a
    spectrum that fails `certify_psd`'s rule at its default tolerance.
    """

    sigmas: np.ndarray
    phis: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    block_dim: int
    dropped: int
    dropped_mass: float
    not_pd: bool
    drop_tolerance: float

    @property
    def rank(self) -> int:
        return self.sigmas.size

    def to_json(self, max_rank: int | None = None) -> dict:
        check_rank(max_rank)
        r = self.rank if max_rank is None else min(self.rank, int(max_rank))
        return {
            "sigmas": self.sigmas[:r].tolist(),
            "phis": self.phis[:r].tolist(),
            "dropped": self.dropped,
            "dropped_mass": self.dropped_mass,
            "not_pd_flag": self.not_pd,
            "rank": self.rank,
            "drop_tolerance": self.drop_tolerance,
        }


def check_rank(max_rank: int | None) -> None:
    """Reject a negative `max_rank` of `SpectralDecomposition.to_json`."""
    if max_rank is not None and max_rank < 0:
        raise ValueError(f"rank must be >= 0, got {max_rank!r}")


def nystrom_decompose(kernel: MatrixKernel, measure: QuadratureMeasure,
                      drop_tolerance: float = DROP_TOLERANCE) -> SpectralDecomposition:
    """Eigendecompose the kernel operator discretized on a measure.

    Keeps eigenvalues above drop_tolerance (a finite number >= 0) times the
    largest one; requires strictly positive quadrature weights (the
    square-root rescaling divides by them). Each scaled factor of
    `weighted_gram` is solved and its eigenpairs are the products sigma mu
    with eigenvectors v (x) u in the term's component slots. Each factor is
    freed once it is solved, so the measure Gram is not held beside the
    eigensolver's copies.
    """
    if not 0.0 <= drop_tolerance < np.inf:
        raise ValueError(f"drop_tolerance must be a finite number >= 0, got {drop_tolerance!r}")
    if np.any(measure.weights <= 0):
        raise ValueError("spectral decomposition needs strictly positive weights")
    n, N = len(measure), kernel.output_dim
    sw = np.sqrt(measure.weights)
    scaled = list(weighted_gram(kernel, measure).factors)
    solves = []
    while scaled:
        S, t = scaled.pop(0)
        solves.append((*np.linalg.eigh(S), t))
        del S
    products = [np.multiply.outer(lam, t.evals).ravel() for lam, _, t in solves]
    values = np.concatenate(products)
    order = np.argsort(values, kind="stable")[::-1]
    evals = values[order]
    sig_max = float(evals[0]) if evals.size else 0.0
    keep = evals > drop_tolerance * max(1.0, abs(sig_max))
    not_pd = bool(evals.size) and not _decide(evals[::-1], DEFAULT_TOLERANCE)
    kept = order[keep]
    phis = np.zeros((kept.size, n, N))
    start = 0
    for (_, V, t), p in zip(solves, products):
        mine = (kept >= start) & (kept < start + p.size)
        i, j = np.divmod(kept[mine] - start, t.evals.size)
        # v (x) u, node-major; a 1 x 1 A has u = [1]
        vecs = V[:, i] if t.evals.size == 1 else (V[:, None, i] * t.evecs[:, j]).reshape(-1, i.size)
        vecs /= np.repeat(sw, t.size)[:, None]
        phis[mine, :, t.offset:t.offset + t.size] = vecs.T.reshape(-1, n, t.size)
        start += p.size
    return SpectralDecomposition(
        sigmas=evals[keep].copy(),
        phis=phis,
        nodes=measure.nodes,
        weights=measure.weights,
        block_dim=N,
        dropped=int((~keep).sum()),
        dropped_mass=float(evals[~keep].sum()),
        not_pd=not_pd,
        drop_tolerance=drop_tolerance,
    )


def trace_functional(kernel: MatrixKernel, measure: QuadratureMeasure) -> float:
    """Weighted diagonal trace sum_a w_a Tr K(x_a, x_a).

    Equals the sum of all eigenvalues of the discretized operator.
    """
    diag = kernel.eval_pairs(measure.nodes, measure.nodes)
    return float(measure.weights @ np.trace(diag, axis1=1, axis2=2))


def spectral_coefficients(decomp: SpectralDecomposition, fn: TestFunction) -> np.ndarray:
    """Projections <phi_k, f>_mu of a function onto the eigenfunctions."""
    F = fn.values_on(decomp.nodes)
    if F.shape[1] != decomp.block_dim:
        raise ValueError(
            f"function has {F.shape[1]} components, decomposition block size is {decomp.block_dim}"
        )
    return np.einsum("knc,nc->k", decomp.phis, decomp.weights[:, None] * F)


def quadform_via_spectrum(decomp: SpectralDecomposition, fn: TestFunction,
                          return_terms: bool = False):
    """B(f, f) through the eigenexpansion: sum_k sigma_k <phi_k, f>_mu^2.

    Every summand is nonnegative (retained sigmas are positive), which is
    the spectral shape of positive definiteness.
    """
    coeffs = spectral_coefficients(decomp, fn)
    terms = decomp.sigmas * coeffs**2
    total = float(terms.sum())
    if return_terms:
        return total, terms
    return total
