"""Discrete energy minimization.

The discrete energy of an N-point configuration under a scalar kernel is
the mean of K over ordered distinct pairs, (1/N^2) sum_{i != j} K(x_i, x_j).
The diagonal is excluded: for Riesz kernels it is infinite, so the literal
all-pairs sum is never finite. Minimizing over configurations approximates
the continuous equilibrium energy, whose reciprocal is the capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..kernels import MatrixKernel, as_points


@lru_cache
def _off_diagonal(n: int) -> tuple:
    """The ordered pairs i != j of n points, row by row, as read-only index arrays."""
    iu, ju = np.nonzero(~np.eye(n, dtype=bool))
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def discrete_energy(kernel: MatrixKernel, points) -> float:
    """(1/N^2) sum over i != j of K(x_i, x_j) for a scalar kernel."""
    if kernel.output_dim != 1:
        raise ValueError("discrete energy is defined for scalar kernels")
    P = as_points(points, "configuration points")
    n = P.shape[0]
    if n < 2:
        raise ValueError("a configuration needs at least 2 points")
    iu, ju = _off_diagonal(n)
    vals = kernel.eval_pairs(P[iu], P[ju])[:, 0, 0]
    return float(vals.sum() / n**2)


@dataclass(frozen=True)
class Configuration:
    """Point configuration with its energy cached."""

    points: np.ndarray
    energy: float

    def to_json(self) -> dict:
        return {"points": self.points.tolist(), "energy": self.energy}


def make_configuration(kernel: MatrixKernel, points) -> Configuration:
    P = as_points(points, "configuration points")
    return Configuration(P, discrete_energy(kernel, P))


def _energy_gradient(kernel: MatrixKernel, P: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of `discrete_energy` with step h.

    Moving x_i changes only row i and column i of the energy, so

        E(P + h e_ik) - E(P - h e_ik)
            = (1/N^2) sum_{j != i} [K(x_i+, x_j) + K(x_j, x_i+)
                                    - K(x_i-, x_j) - K(x_j, x_i-)]

    with x_i+- = x_i +- h e_k. The shifted points (2, N, d, 1, d) and their
    partners (1, N, 1, N - 1, d) go to the kernel's evaluator, which
    broadcasts them to all 2 N d (N - 1) pairs, once per argument order: a
    callable runs as given and need not be symmetric.
    """
    P = kernel._check_points(P)
    n, d = P.shape
    # X[s, i, k, 0] = x_i + (h, -h)[s] e_k; Y[0, i, 0, j'] = the j'-th x_j with j != i
    X = P[None, :, None, None, :] + np.multiply.outer([h, -h], np.eye(d)[None, :, None])
    Y = P[_off_diagonal(n)[1].reshape(n, n - 1)][None, :, None, :, :]
    vals = kernel._batch(X, Y)[..., 0, 0] + kernel._batch(Y, X)[..., 0, 0]
    return (vals[0] - vals[1]).sum(axis=-1) / (2 * h * n**2)


@dataclass(frozen=True)
class EnergyResult:
    """Outcome of a projected-gradient energy minimization."""

    configuration: Configuration
    trace: np.ndarray
    iterations: int
    restarts: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "points": self.configuration.points.tolist(),
            "energy": self.configuration.energy,
            "trace": self.trace.tolist(),
            "iterations": self.iterations,
            "restarts": self.restarts,
            "converged": self.converged,
        }


def minimize_energy(kernel: MatrixKernel, domain, n_points: int,
                    iterations: int = 500, seed: int = 0) -> EnergyResult:
    """Projected gradient descent on the discrete energy.

    The gradient is the central difference of `discrete_energy` with step
    h = 1e-6 * diameter, taken locally (see `_energy_gradient`): moving one
    point changes only its own row and column of the energy, so one
    iteration costs O(N^2 d) kernel evaluations, not O(N^3 d).

    A step (0.1 * diameter / N at first) is accepted only if it strictly
    decreases the full energy, with the step halved up to a cap otherwise.
    Collisions (non-finite energy or gradient) trigger a small jitter
    restart, counted in the result, which may raise the energy: the trace is
    the lowest energy seen so far, and the result the configuration with the
    lowest. Deterministic per seed.
    """
    if n_points < 2:
        raise ValueError("a configuration needs at least 2 points")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    rng = np.random.default_rng(seed)
    diam = domain.diameter
    h = 1e-6 * diam
    jitter = 1e-6 * diam

    P = domain.project(domain.sample(rng, n_points))
    restarts = 0
    E = discrete_energy(kernel, P)
    while not np.isfinite(E):
        P = domain.project(P + jitter * rng.normal(size=P.shape))
        E = discrete_energy(kernel, P)
        restarts += 1
        if restarts > 50:
            raise ValueError("could not find a finite-energy starting configuration")

    best = Configuration(P, E)
    trace = [E]
    step = 0.1 * diam / n_points
    converged = False
    it = 0
    while it < iterations:
        it += 1
        g = _energy_gradient(kernel, P, h)
        if not np.all(np.isfinite(g)):
            P = domain.project(P + jitter * rng.normal(size=P.shape))
            E = discrete_energy(kernel, P)
            restarts += 1
        else:
            gnorm = float(np.linalg.norm(g))
            if gnorm * diam < 1e-15 * max(1.0, abs(E)):
                converged = True
                break
            s = step
            for _ in range(60):
                Pn = domain.project(P - s * g)
                En = discrete_energy(kernel, Pn)
                if np.isfinite(En) and En < E:
                    P, E = Pn, En
                    # grow the step back after an accept so progress never stalls
                    step = min(s * 2.0, diam)
                    break
                s *= 0.5
            else:  # no step accepted
                converged = True
        if E < best.energy:
            best = Configuration(P, E)
        trace.append(best.energy)
        if converged:
            break
    return EnergyResult(best, np.asarray(trace), it, restarts, converged)
