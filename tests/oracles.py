"""Slow, simple reference solvers that the tests compare the library against."""

import mpmath
import numpy as np

from mkernel.applications.estimation import EstimationDataset
from mkernel.certify import DEFAULT_TOLERANCE, SearchReport, _as_gram, _certify, assemble_gram


def gradient_descent_oracle(dataset: EstimationDataset, lam: float, causal: bool = False,
                            max_iters: int = 5000, tol: float = 1e-13) -> np.ndarray:
    """Minimize the ridge objective by exact-line-search gradient descent.

    Slow-but-simple cross-check for the closed form: the causal constraint
    is handled by masking the gradient to the lower triangle, which is an
    exact projection for this coordinate-subspace constraint.
    """
    if not lam > 0:
        raise ValueError("ridge parameter lambda must be positive")
    U, Y = dataset.inputs, dataset.outputs
    M = dataset.series_length
    S = U.T @ U
    C = Y.T @ U
    mask = np.tril(np.ones((M, M))) if causal else np.ones((M, M))
    K = np.zeros((M, M))
    scale = max(1.0, float(np.linalg.norm(C)))
    for _ in range(max_iters):
        G = (2.0 * (K @ S - C) + 2.0 * lam * K) * mask
        gnorm2 = float((G**2).sum())
        if np.sqrt(gnorm2) <= tol * scale:
            break
        GS = G @ S
        denom = 2.0 * float((GS * G).sum() + lam * gnorm2)
        K = K - (gnorm2 / denom) * G
    return K


def random_search_oracle(kernel, domain, trials: int = 200, seed: int = 0,
                         n_range: tuple = (1, 8),
                         tolerance: float = DEFAULT_TOLERANCE) -> SearchReport:
    """The witness search one trial at a time: one decision of one assembled
    Gram per trial, by `certify_psd`'s rules on its eigenvalue-solving path
    (the search's margin needs the exact extreme eigenvalues), stopping at
    the first witness. The sizes of all trials are drawn in one call, then
    all their points in one `domain.sample` call; trial t reads its sizes[t]
    rows starting at sizes[:t].sum(). The library's search decides its
    trials in stacks and must report exactly this."""
    rng = np.random.default_rng(seed)
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("n_range must satisfy 1 <= n_lo <= n_hi")
    sizes = rng.integers(n_lo, n_hi + 1, trials)
    drawn = domain.sample(rng, int(sizes.sum()))
    min_margin = np.inf
    for t in range(trials):
        start = int(sizes[:t].sum())
        points = drawn[start:start + int(sizes[t])]
        report = _certify(assemble_gram(kernel, points), tolerance, "eigvalsh")[0]
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


def circulant_spectrum(row, n: int, dps: int = 50) -> list:
    """The exact eigenvalues, ascending, of the Gram of a rotation-invariant
    kernel over n equally spaced points of a circle, at dps digits.

    row(theta) gives K(x_0, x_j) in mpmath at the angle theta = 2 pi j / n
    between the points. The Gram is circulant, so its spectrum is the DFT of
    its first row (Gray, "Toeplitz and circulant matrices: a review", 2006);
    the row is symmetric, c_j = c_{n - j}, so each eigenvalue is the real sum
    lambda_k = sum_j c_j cos(2 pi j k / n).
    """
    with mpmath.workdps(dps):
        c = [row(2 * mpmath.pi * j / n) for j in range(n)]
        lam = [mpmath.fsum(c[j] * mpmath.cospi(mpmath.mpf(2 * j * k) / n) for j in range(n))
               for k in range(n)]
        return sorted(lam)
