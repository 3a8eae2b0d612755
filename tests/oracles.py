"""Slow, simple reference solvers that the tests compare the library against."""

import numpy as np

from mkernel.applications.estimation import EstimationDataset


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
