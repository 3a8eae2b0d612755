"""Verdicts on n = 64 (or 256) equally spaced points of the unit circle, against the exact spectrum.

A rotation-invariant kernel's Gram over equally spaced points of a circle is
circulant, so its exact eigenvalues are the DFT of its first row
(`oracles.circulant_spectrum`, 50 digits). The float Gram differs from the
exact one by Delta K (the rounding of the points and of the kernel), and by
Weyl's inequality each of its eigenvalues lies within ||Delta K||_2 <=
n max |Delta K_ij| of the exact one. That is the bound quoted with each
exact lambda_min below (numpy 2.4.6, OpenBLAS 0.3.31):

| kernel                        | exact lambda_min | exact lambda_max | Weyl bound | verdict        |
|-------------------------------|------------------|------------------|------------|----------------|
| geodesic exp(-0.2 t^2)        | -0.4531          | 38.47            | 2.2e-14    | witness_found  |
| geodesic exp(-0.5 t^2)        | -0.01090         | 25.49            | 3.8e-14    | witness_found  |
| geodesic exp(-t^2)            | -6.919e-5        | 18.05            | 5.3e-14    | witness_found  |
| geodesic exp(-2 t^2)          | -2.282e-9        | 12.77            | 6.0e-14    | certified_psd  |
| geodesic exp(-2 t^2), n = 256 | -6.850e-9        | 51.06            | 2.7e-13    | certified_psd  |
| geodesic exp(-4 t^2)          | -6.133e-18       | 9.027            | 8.0e-14    | certified_psd  |
| geodesic exp(-4 t^2), n = 256 | -1.115e-17       | 36.11            | 3.5e-13    | certified_psd  |
| geodesic exp(-t)              | 4.693e-2         | 19.51            | 3.9e-14    | certified_psd  |
| geodesic exp(-t), n = 256     | 1.174e-2         | 77.97            | 2.1e-13    | certified_psd  |
| chordal gaussian(1)           | 6.786e-35        | 19.74            | 5.2e-14    | certified_psd  |
| riesz(1, 0.1)                 | 3.815            | 76.75            | 9.4e-13    | certified_psd  |
| neg_distance                  | -81.47           | 27.18            | 6.3e-14    | witness_found  |

The geodesic kernel exp(-gamma t^2), t the arc between the points, is not PD
on the circle for these gamma (Feragen, Lauze and Hauberg, CVPR 2015): its
exact lambda_min is negative at every rung. At gamma = 2 that is -2.3e-9,
far beyond the rounding bound, yet above the threshold -tolerance * max(1,
lambda_max) = -1.28e-8, so the rule certifies it; at n = 256 it is -6.9e-9
against a threshold of -5.1e-8. The geodesic exp(-t) is PD (Gneiting,
Bernoulli 19 (2013)), and its exact lambda_min is positive. The tests assert
what the rule promises: a witness's value lies between the exact lambda_min
(less the bound) and the threshold, and a certified Gram's exact lambda_min
is not below minus the threshold (and the bound).
"""

from functools import lru_cache

import mpmath
import numpy as np
import pytest
from oracles import circulant_spectrum

from mkernel.certify import DEFAULT_TOLERANCE, assemble_gram, certify_psd
from mkernel.domains import Circle, make_measure
from mkernel.kernels import Gaussian, NegDistance, Riesz, build_kernel, kernel_from_callable

def _chord(t):
    return 2 * mpmath.sin(t / 2)


def _geodesic(gamma, power=2):
    """exp(-gamma t^power) of the arc t between two points of the unit circle,
    as a callable kernel and as its exact first row."""
    def k(x, y):
        return np.exp(-gamma * np.arctan2(abs(x[0] * y[1] - x[1] * y[0]), x @ y) ** power)

    def row(t):
        return mpmath.exp(-gamma * min(t, 2 * mpmath.pi - t) ** power)

    return kernel_from_callable(k, 1, f"geodesic_{gamma}_{power}"), row


# name: (kernel, exact first row, number of points)
LADDER = {
    **{f"geodesic_{g}": (*_geodesic(g), 64) for g in (0.2, 0.5, 1, 2, 4)},
    **{f"geodesic_{g}_n256": (*_geodesic(g), 256) for g in (2, 4)},
    "geodesic_exp": (*_geodesic(1, 1), 64),
    "geodesic_exp_n256": (*_geodesic(1, 1), 256),
    "chordal_gaussian": (build_kernel(Gaussian(1.0)), lambda t: mpmath.exp(-_chord(t) ** 2), 64),
    "riesz": (build_kernel(Riesz(1.0, 0.1)), lambda t: 1 / (_chord(t) + mpmath.mpf("0.1")), 64),
    "neg_distance": (build_kernel(NegDistance()), lambda t: -_chord(t), 64),
}


@lru_cache
def _exact_and_bound(name):
    """The exact spectrum, ascending, the float Gram, and the Weyl bound n max |Delta K_ij|."""
    kernel, row, n = LADDER[name]
    gram = assemble_gram(kernel, make_measure(Circle(1.0), "uniform-nodes", n).nodes)
    lam = circulant_spectrum(row, n, 50)
    with mpmath.workdps(50):
        first = [row(2 * mpmath.pi * j / n) for j in range(n)]
        gap = max(abs(mpmath.mpf(float(v)) - first[(j - i) % n])
                  for i, r in enumerate(gram.data) for j, v in enumerate(r))
    return [float(x) for x in lam], gram, n * float(gap)


@pytest.mark.parametrize("name", LADDER)
def test_circulant_spectrum_is_the_float_grams_within_weyls_bound(name):
    lam, gram, bound = _exact_and_bound(name)
    assert bound < 1e-12
    got = np.linalg.eigvalsh(gram.data)
    rounding = len(lam) * np.finfo(float).eps * max(abs(lam[0]), abs(lam[-1]))
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
