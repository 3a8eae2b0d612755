"""Verdicts on 64 equally spaced points of the unit circle, against the exact spectrum.

A rotation-invariant kernel's Gram over equally spaced points of a circle is
circulant, so its exact eigenvalues are the DFT of its first row
(`oracles.circulant_spectrum`, 50 digits). The float Gram differs from the
exact one by Delta K (the rounding of the points and of the kernel), and by
Weyl's inequality each of its eigenvalues lies within ||Delta K||_2 <=
n max |Delta K_ij| of the exact one. That is the bound quoted with each
exact lambda_min below (numpy 2.4.6, OpenBLAS 0.3.31):

| kernel                  | exact lambda_min | exact lambda_max | Weyl bound | verdict        |
|-------------------------|------------------|------------------|------------|----------------|
| geodesic exp(-0.2 t^2)  | -0.4531          | 38.47            | 2.2e-14    | witness_found  |
| geodesic exp(-0.5 t^2)  | -0.01090         | 25.49            | 3.8e-14    | witness_found  |
| geodesic exp(-t^2)      | -6.919e-5        | 18.05            | 5.3e-14    | witness_found  |
| geodesic exp(-2 t^2)    | -2.282e-9        | 12.77            | 6.0e-14    | certified_psd  |
| geodesic exp(-4 t^2)    | -6.133e-18       | 9.027            | 8.0e-14    | certified_psd  |
| chordal gaussian(1)     | 6.786e-35        | 19.74            | 5.2e-14    | certified_psd  |
| riesz(1, 0.1)           | 3.815            | 76.75            | 9.4e-13    | certified_psd  |
| neg_distance            | -81.47           | 27.18            | 6.3e-14    | witness_found  |

The geodesic kernel exp(-gamma t^2), t the arc between the points, is not PD
on the circle for these gamma: its exact lambda_min is negative at every
rung. At gamma = 2 that is -2.3e-9, far beyond the rounding bound, yet above
the threshold -tolerance * max(1, lambda_max) = -1.28e-8, so the rule
certifies it. The tests assert what the rule promises: a witness's value
lies between the exact lambda_min (less the bound) and the threshold, and a
certified Gram's exact lambda_min is not below minus the threshold (and the
bound).
"""

from functools import lru_cache

import mpmath
import numpy as np
import pytest
from oracles import circulant_spectrum

from mkernel.certify import DEFAULT_TOLERANCE, assemble_gram, certify_psd
from mkernel.domains import Circle, make_measure
from mkernel.kernels import Gaussian, NegDistance, Riesz, build_kernel, kernel_from_callable

N = 64
POINTS = make_measure(Circle(1.0), "uniform-nodes", N).nodes


def _chord(t):
    return 2 * mpmath.sin(t / 2)


def _geodesic(gamma):
    """exp(-gamma t^2) of the arc t between two points of the unit circle, as a
    callable kernel and as its exact first row."""
    def k(x, y):
        return np.exp(-gamma * np.arctan2(abs(x[0] * y[1] - x[1] * y[0]), x @ y) ** 2)

    def row(t):
        return mpmath.exp(-gamma * min(t, 2 * mpmath.pi - t) ** 2)

    return kernel_from_callable(k, 1, f"geodesic_{gamma}"), row


LADDER = {
    **{f"geodesic_{g}": _geodesic(g) for g in (0.2, 0.5, 1, 2, 4)},
    "chordal_gaussian": (build_kernel(Gaussian(1.0)), lambda t: mpmath.exp(-_chord(t) ** 2)),
    "riesz": (build_kernel(Riesz(1.0, 0.1)), lambda t: 1 / (_chord(t) + mpmath.mpf("0.1"))),
    "neg_distance": (build_kernel(NegDistance()), lambda t: -_chord(t)),
}


@lru_cache
def _exact_and_bound(name):
    """The exact spectrum, ascending, the float Gram, and the Weyl bound n max |Delta K_ij|."""
    kernel, row = LADDER[name]
    gram = assemble_gram(kernel, POINTS)
    lam = circulant_spectrum(row, N, 50)
    with mpmath.workdps(50):
        first = [row(2 * mpmath.pi * j / N) for j in range(N)]
        gap = max(abs(mpmath.mpf(float(v)) - first[(j - i) % N])
                  for i, r in enumerate(gram.data) for j, v in enumerate(r))
    return [float(x) for x in lam], gram, N * float(gap)


@pytest.mark.parametrize("name", LADDER)
def test_circulant_spectrum_is_the_float_grams_within_weyls_bound(name):
    lam, gram, bound = _exact_and_bound(name)
    assert bound < 1e-12
    got = np.linalg.eigvalsh(gram.data)
    rounding = N * np.finfo(float).eps * max(abs(lam[0]), abs(lam[-1]))
    assert np.all(np.abs(got - lam) <= bound + rounding)


@pytest.mark.parametrize("name", LADDER)
def test_a_verdict_agrees_with_the_exact_spectrum(name):
    lam, gram, bound = _exact_and_bound(name)
    report = certify_psd(gram)
    threshold = DEFAULT_TOLERANCE * max(1.0, report.max_eigenvalue)
    if report.witness is not None:
        assert lam[0] - bound <= report.witness.value <= -threshold
    else:
        assert lam[0] >= -(threshold + bound)
