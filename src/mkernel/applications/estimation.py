"""Ridge estimation of a discrete Volterra kernel from input/output pairs.

The model is y = K* u + noise with K* an M x M matrix acting on input
series of length M; causality means K* is lower triangular (outputs do not
depend on future inputs). The Frobenius-regularized least squares problem

    min_K sum_n |y_n - K u_n|^2 + lambda |K|_F^2

has the closed form K = (sum y u^T)(sum u u^T + lambda I)^{-1}; under the
causal constraint each row decouples into a ridge regression over its own
past coordinates.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from ..certify import Report


@dataclass(frozen=True)
class EstimationDataset:
    """Paired input/output series, optionally with the generating kernel."""

    inputs: np.ndarray
    outputs: np.ndarray
    ground_truth: np.ndarray | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        Y = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if U.shape != Y.shape:
            raise ValueError("inputs and outputs must be equally many series of equal length")
        object.__setattr__(self, "inputs", U)
        object.__setattr__(self, "outputs", Y)
        if self.ground_truth is not None:
            K = np.asarray(self.ground_truth, dtype=float)
            if K.shape != (U.shape[1], U.shape[1]):
                raise ValueError("ground truth must be M x M for series length M")
            object.__setattr__(self, "ground_truth", K)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def series_length(self) -> int:
        return self.inputs.shape[1]


def simulate_volterra_dataset(k_true, n_samples: int, noise_sigma: float = 0.0,
                              seed: int = 0) -> EstimationDataset:
    """Draw standard-normal inputs and outputs y = K* u + N(0, sigma^2) noise."""
    K = np.asarray(k_true, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("ground truth kernel must be a square matrix")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if noise_sigma < 0:
        raise ValueError("noise level must be nonnegative")
    rng = np.random.default_rng(seed)
    M = K.shape[0]
    U = rng.normal(size=(n_samples, M))
    Y = U @ K.T
    if noise_sigma > 0:
        Y = Y + noise_sigma * rng.normal(size=Y.shape)
    return EstimationDataset(U, Y, K, noise_sigma)


def objective(dataset: EstimationDataset, K, lam: float) -> float:
    """sum_n |y_n - K u_n|^2 + lambda |K|_F^2."""
    K = np.asarray(K, dtype=float)
    R = dataset.outputs - dataset.inputs @ K.T
    return float((R**2).sum() + lam * (K**2).sum())


@dataclass(frozen=True)
class RidgeResult(Report):
    """Estimated kernel with its objective and normal-equation residual."""

    matrix: np.ndarray
    objective: float
    residual: float
    lam: float
    causal: bool

    def to_json(self) -> dict:
        """The fields' JSON, with `lam` under its name `lambda`, a Python keyword."""
        return {"lambda" if k == "lam" else k: v for k, v in super().to_json().items()}


def ridge_estimate(dataset: EstimationDataset, lam: float, causal: bool = False) -> RidgeResult:
    """Closed-form ridge estimate of the kernel matrix.

    Unconstrained: K = (Y^T U)(U^T U + lambda I)^{-1}. Causal: row i is an
    independent ridge regression over coordinates 1..i, so every strictly
    upper entry is exactly zero. The reported residual is the largest
    normal-equation defect relative to the data scale.
    """
    if not lam > 0:
        raise ValueError("ridge parameter lambda must be positive")
    U, Y = dataset.inputs, dataset.outputs
    M = dataset.series_length
    S = U.T @ U
    C = Y.T @ U
    scale = max(1.0, float(np.linalg.norm(C)))
    if not causal:
        K = np.linalg.solve(S + lam * np.eye(M), C.T).T
        residual = float(np.linalg.norm(K @ (S + lam * np.eye(M)) - C)) / scale
    else:
        K = np.zeros((M, M))
        residual = 0.0
        for i in range(M):
            m = i + 1
            Ssub = S[:m, :m] + lam * np.eye(m)
            K[i, :m] = np.linalg.solve(Ssub, C[i, :m])
            defect = float(np.linalg.norm(K[i, :m] @ Ssub - C[i, :m]))
            residual = max(residual, defect / scale)
    return RidgeResult(K, objective(dataset, K, lam), residual, lam, causal)


def save_dataset_csv(path, dataset: EstimationDataset) -> None:
    """Write samples as row pairs: the u-row, then its y-row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for u, y in zip(dataset.inputs, dataset.outputs):
            writer.writerow([repr(float(v)) for v in u])
            writer.writerow([repr(float(v)) for v in y])


def load_dataset_csv(path) -> EstimationDataset:
    """Read samples written as alternating u-row / y-row pairs."""
    with warnings.catch_warnings():
        # an empty file is reported below, as an odd number of rows is
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if not len(rows) or len(rows) % 2:
        raise ValueError(f"{path}: expected an even number of rows (u-row then y-row pairs)")
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: row {i + 1} has a non-finite entry {float(rows[i, j])!r}")
    return EstimationDataset(rows[0::2], rows[1::2])
