"""Independent checks of mkernel's outputs.

Every check recomputes what it needs in this file's own code (plain numpy,
`math.fsum`, mpmath) or tests a property the method must have. None compares
against a stored copy of an earlier output. A check raises `CheckFailed` when
an output is wrong; `KnownFault` marks the one wrong output the benchmark
counts as a failed operation instead (see `check_control_pd`).
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps
# Entries of a Gram matrix may differ from the reference by this many units
# in the last place of the sum of the absolute values of their terms.
GRAM_ULPS = 8


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


class KnownFault(CheckFailed):
    """A control report contradicts itself: a certified PSD Hessian of a PD
    kernel on distinct midpoints, reported unbounded."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- kernels

def _pair_diffs(X, Y):
    return X[:, None, :] - Y[None, :, :]


def reference_blocks(spec, X, Y):
    """Kernel blocks K(x_i, y_j) of a kernel spec, evaluated in plain numpy.

    Returns (values, magnitude), both of shape (len(X), len(Y), N, N), where
    magnitude bounds the sum of absolute values of the terms of each entry,
    the scale of its rounding error.
    """
    kind = type(spec).__name__
    m, k = X.shape[0], Y.shape[0]
    if kind == "Gaussian":
        v = np.exp(-spec.gamma * (_pair_diffs(X, Y) ** 2).sum(axis=2))
    elif kind == "Riesz":
        r = np.sqrt((_pair_diffs(X, Y) ** 2).sum(axis=2))
        v = (r + spec.eta) ** (-spec.s)
    elif kind == "Brownian":
        v = np.minimum(X[:, None, 0], Y[None, :, 0])
    elif kind == "NegDistance":
        v = -np.sqrt((_pair_diffs(X, Y) ** 2).sum(axis=2))
    elif kind == "Constant":
        v = np.full((m, k), float(spec.c))
    elif kind == "Lift":
        s, smag = reference_blocks(spec.scalar, X, Y)
        A = np.asarray(spec.matrix, dtype=float)
        return s * A, smag * np.abs(A)
    elif kind == "Conjugate":
        inner, imag = reference_blocks(spec.inner, X, Y)
        B = np.asarray(spec.matrix, dtype=float)
        val = np.einsum("pi,mkij,qj->mkpq", B, inner, B)
        mag = np.einsum("pi,mkij,qj->mkpq", np.abs(B), imag, np.abs(B))
        return val, mag
    elif kind == "Sum":
        parts = [reference_blocks(t, X, Y) for t in spec.terms]
        return sum(p[0] for p in parts), sum(p[1] for p in parts)
    elif kind == "Scale":
        val, mag = reference_blocks(spec.inner, X, Y)
        return spec.factor * val, abs(spec.factor) * mag
    elif kind == "BlockDiag":
        parts = [reference_blocks(b, X, Y) for b in spec.blocks]
        total = sum(p[0].shape[2] for p in parts)
        val = np.zeros((m, k, total, total))
        mag = np.zeros((m, k, total, total))
        lo = 0
        for pv, pm in parts:
            hi = lo + pv.shape[2]
            val[:, :, lo:hi, lo:hi] = pv
            mag[:, :, lo:hi, lo:hi] = pm
            lo = hi
        return val, mag
    else:
        raise ValueError(f"no reference evaluation for kernel node {kind}")
    v = v[:, :, None, None]
    return v, np.abs(v)


def check_gram(spec, points, gram, chunk=256):
    """Gram entries match the reference within a few ulps; `data` is exactly
    symmetric and holds the same numbers as `blocks`."""
    P = np.asarray(points, dtype=float).reshape(len(points), -1)
    require(np.array_equal(gram.points, P), "Gram points differ from the input points")
    n = P.shape[0]
    N = gram.block_dim
    require(gram.data.shape == (n * N, n * N), f"Gram data has shape {gram.data.shape}")
    require(np.array_equal(gram.data, gram.data.T), "Gram data is not bitwise symmetric")
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        ref, mag = reference_blocks(spec, P[lo:hi], P)
        got = gram.blocks[lo:hi]
        err = np.abs(got - ref)
        bound = GRAM_ULPS * EPS * mag + np.finfo(float).tiny
        if not np.all(err <= bound):
            i = np.unravel_index(int(np.argmax(err - bound)), err.shape)
            raise CheckFailed(
                f"Gram entry {tuple(int(t) for t in i)} is {got[i]!r}, reference {ref[i]!r}"
            )
        flat = got.transpose(0, 2, 1, 3).reshape((hi - lo) * N, n * N)
        require(np.array_equal(gram.data[lo * N:hi * N], flat),
                 "Gram data and blocks hold different numbers")


def witness_value(spec, points, coefficients, chunk=256):
    """c^T G c on the benchmark's own Gram, each chunk summed exactly by
    `math.fsum`; also the sum of the absolute values of the terms."""
    P = np.asarray(points, dtype=float).reshape(len(points), -1)
    C = np.asarray(coefficients, dtype=float).reshape(P.shape[0], -1)
    partials, magnitude = [], 0.0
    for lo in range(0, P.shape[0], chunk):
        hi = min(P.shape[0], lo + chunk)
        ref, _ = reference_blocks(spec, P[lo:hi], P)
        terms = np.einsum("ia,ijab,jb->ijab", C[lo:hi], ref, C)
        partials.append(math.fsum(terms.ravel()))
        magnitude += float(np.abs(terms).sum())
    return math.fsum(partials), magnitude


def check_certify(spec, is_pd, points, report):
    """PD kernels are certified; a non-PD kernel gets a witness whose value,
    recomputed exactly on the benchmark's own Gram, is negative and matches."""
    if is_pd:
        require(report.verdict == "certified_psd",
                 f"PD kernel got verdict {report.verdict!r} (min eigenvalue {report.min_eigenvalue})")
        require(report.witness is None, "certified report carries a witness")
        return
    require(report.verdict == "witness_found",
             f"non-PD kernel got verdict {report.verdict!r}")
    w = report.witness
    require(w is not None and w.points is not None, "witness lacks points")
    require(np.array_equal(w.points, np.asarray(points, dtype=float).reshape(w.points.shape)),
             "witness points differ from the input points")
    value, magnitude = witness_value(spec, w.points, w.coefficients)
    # the terms carry a few roundings each, the chunk sums one each
    own_error = 8 * EPS * magnitude
    require(value + own_error < 0, f"witness quadratic form {value!r} is not negative")
    # the program sums the terms in floating point: worst-case bound
    terms = w.coefficients.size ** 2
    require(abs(value - w.value) <= own_error + terms * EPS * magnitude,
             f"witness reports value {w.value!r}, recomputed {value!r}")


# ---------------------------------------------------------------- spectral

def check_brownian_spectrum(decomp, trace, h, count=5):
    """Nystrom eigenvalues of min(x, y) on [0, 1] are within the grid's error
    of 1 / ((k - 1/2)^2 pi^2); the trace identity holds and equals 1/2."""
    require(not decomp.not_pd, "Brownian covariance flagged not PD")
    require(decomp.rank >= count, f"only {decomp.rank} eigenvalues retained")
    for k in range(1, count + 1):
        exact = 1.0 / ((k - 0.5) ** 2 * math.pi**2)
        # trapezoid discretisation error of the k-th eigenvalue, with a 3x margin
        tol = exact * ((k - 0.5) * math.pi * h) ** 2 / 4.0
        got = float(decomp.sigmas[k - 1])
        require(abs(got - exact) <= tol,
                 f"eigenvalue {k} is {got!r}, closed form {exact!r} (tolerance {tol:.2e})")
    _check_trace(decomp, trace, 0.5)


def _check_trace(decomp, trace, exact):
    total = math.fsum(decomp.sigmas.tolist()) + decomp.dropped_mass
    scale = max(1.0, abs(exact))
    tol = 1e-12 * scale * max(1, decomp.sigmas.size + decomp.dropped)
    require(abs(total - trace) <= tol,
             f"eigenvalue sum plus dropped mass {total!r} differs from the trace {trace!r}")
    require(abs(trace - exact) <= tol, f"trace {trace!r} differs from {exact!r}")


def check_lift_spectrum(decomp, trace, lift_matrix, area):
    """Lift-kernel trace identity: sum of sigma + dropped mass = tr(A) * area;
    eigenfunctions are orthonormal in L2(mu)."""
    require(not decomp.not_pd, "PD lift kernel flagged not PD")
    require(np.all(decomp.sigmas > 0) and np.all(np.diff(decomp.sigmas) <= 0),
             "sigmas are not positive and descending")
    _check_trace(decomp, trace, float(np.trace(np.asarray(lift_matrix, dtype=float))) * area)
    N = decomp.block_dim
    Phi = decomp.phis.reshape(decomp.rank, -1)
    w = np.repeat(decomp.weights, N)
    gram = (Phi * w) @ Phi.T
    dev = float(np.max(np.abs(gram - np.eye(decomp.rank))))
    require(dev <= 1e-9, f"eigenfunctions are not orthonormal (max deviation {dev:.2e})")


# ---------------------------------------------------------------- integral

def check_harness(report, is_pd):
    """Discrete and integral verdicts agree, and the discrete verdict is the
    zoo's known PD status."""
    require(report.agree is True, f"harness verdicts disagree (agree={report.agree})")
    require(report.discrete.found == (not is_pd),
             f"discrete verdict {report.discrete.verdict!r} contradicts is_pd={is_pd}")


def check_gap(report, spec, centers, coefficients):
    """gap <= remainder_bound + continuity_term, and the discrete form matches
    the benchmark's own double sum."""
    bound = report.remainder_bound + report.continuity_term
    require(report.gap <= bound + 1e-12 * max(1.0, bound),
             f"gap {report.gap!r} exceeds its bound {bound!r}")
    X0 = np.asarray(centers, dtype=float).reshape(len(centers), -1)
    ref, mag = reference_blocks(spec, X0, X0)
    C = np.asarray(coefficients, dtype=float)
    discrete = math.fsum(np.einsum("ia,ijab,jb->ijab", C, ref, C).ravel())
    scale = float(np.einsum("ia,ijab,jb->", np.abs(C), mag, np.abs(C)))
    require(abs(report.discrete - discrete) <= 16 * EPS * scale,
             f"discrete form {report.discrete!r}, recomputed {discrete!r}")


# ---------------------------------------------------------------- energy

def riesz_circle_optimum(n):
    """s = 1 Riesz energy (1/N^2) sum_{i != j} 1/|x_i - x_j| of N equally
    spaced points on the unit circle: (1/N) sum_{k=1}^{N-1} 1/(2 sin(pi k/N))."""
    return math.fsum(1.0 / (2.0 * math.sin(math.pi * k / n)) for k in range(1, n)) / n


ENERGY_TOLERANCE = 1e-5  # relative distance above the optimum after the run


def check_energy(result, n):
    """The energy trace never increases; the final energy is not below the
    closed-form optimum and lies within ENERGY_TOLERANCE above it; it is the
    energy of the returned points, which lie on the unit circle."""
    trace = np.asarray(result.trace, dtype=float)
    require(np.all(np.diff(trace) <= 0), "energy trace increases")
    E = result.configuration.energy
    require(trace[-1] == E, "final trace entry differs from the final energy")
    opt = riesz_circle_optimum(n)
    # summation of n^2 terms can round the energy below its exact value
    require(E >= opt * (1.0 - 4 * n * n * EPS),
             f"energy {E!r} is below the optimum {opt!r} for N={n}")
    require(E <= opt * (1.0 + ENERGY_TOLERANCE),
             f"energy {E!r} is more than {ENERGY_TOLERANCE} above the optimum {opt!r}")
    P = np.asarray(result.configuration.points, dtype=float)
    require(P.shape == (n, 2), f"configuration has shape {P.shape}")
    radii = np.sqrt((P**2).sum(axis=1))
    require(np.all(np.abs(radii - 1.0) <= 1e-12), "points lie off the unit circle")
    d = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2))
    own = math.fsum((1.0 / d[~np.eye(n, dtype=bool)]).tolist()) / (n * n)
    require(abs(own - E) <= 1e-12 * own, f"energy {E!r}, recomputed {own!r}")


# ---------------------------------------------------------------- control

def control_qp(spec, breakpoints, beta):
    """H_(ij) = K(m_i, m_j) w_i w_j and b = cell integrals of the constant beta."""
    bp = np.asarray(breakpoints, dtype=float)
    mids = 0.5 * (bp[:-1] + bp[1:])
    widths = np.diff(bp)
    blocks, _ = reference_blocks(spec, mids[:, None], mids[:, None])
    M, N = mids.size, blocks.shape[2]
    blocks = blocks * np.multiply.outer(widths, widths)[:, :, None, None]
    H = blocks.transpose(0, 2, 1, 3).reshape(M * N, M * N)
    beta = np.broadcast_to(np.atleast_1d(np.asarray(beta, dtype=float)), (N,))
    b = (widths[:, None] * beta).reshape(-1)
    return H, b


def mp_qp_value(H, b, digits=50):
    """min v^T H v + b^T v = -b^T H^{-1} b / 4, solved with mpmath."""
    import mpmath

    with mpmath.workdps(digits):
        Hm = mpmath.matrix(H.tolist())
        bm = mpmath.matrix(b.tolist())
        x = mpmath.lu_solve(Hm, bm)
        return float(-sum(bm[i] * x[i] for i in range(len(b))) / 4)


def qp_error_bound(H, value):
    """Rounding bound of a computed QP value, from the condition of H."""
    return 16 * H.shape[0] * EPS * float(np.linalg.cond(H)) * max(1.0, abs(value))


def check_control_pd(code, doc, H, reference=None):
    """A PD kernel's control report: certified Hessian, a finite minimum,
    matching the 50-digit value when one is given.

    A report that certifies the Hessian PSD yet calls the problem unbounded
    raises KnownFault: the kernel is PD and the midpoints are distinct.
    """
    res = doc["result"]
    require(res["hessian_verdict"] == "certified_psd",
             f"PD kernel Hessian got verdict {res['hessian_verdict']!r}")
    status = res["solution"]["status"]
    if status == "unbounded":
        raise KnownFault("certified PSD Hessian of a PD kernel reported unbounded")
    require(status == "minimum" and code == 0, f"status {status!r} with exit code {code}")
    value = res["solution"]["value"]
    require(value is not None and math.isfinite(value), f"value {value!r} is not finite")
    if reference is not None:
        tol = qp_error_bound(H, reference)
        require(abs(value - reference) <= tol,
                 f"value {value!r}, 50-digit value {reference!r} (bound {tol:.2e})")
    return value


def check_refinement(value, H, coarser, H_coarser):
    """A finer nested partition never has a larger optimal value."""
    slack = qp_error_bound(H, value) + qp_error_bound(H_coarser, coarser)
    require(value <= coarser + slack,
             f"value {value!r} exceeds the coarser partition's {coarser!r}")


def check_control_unbounded(code, doc, H, b):
    """A non-PD kernel's control report: a witness, status unbounded, and a
    direction along which the benchmark's own objective keeps falling."""
    res = doc["result"]
    require(res["hessian_verdict"] == "witness_found",
             f"non-PD Hessian got verdict {res['hessian_verdict']!r}")
    require(res["solution"]["status"] == "unbounded" and code == 2,
             f"status {res['solution']['status']!r} with exit code {code}")
    d = np.asarray(res["solution"]["direction"], dtype=float)
    vals = [t * t * float(d @ H @ d) + t * float(b @ d) for t in (1.0, 2.0, 4.0, 8.0)]
    require(all(b2 < a for a, b2 in zip(vals, vals[1:])),
             f"objective along t*d does not decrease: {vals}")


# ---------------------------------------------------------------- estimation

def ridge_reference(U, Y, lam, causal):
    """Ridge estimate by least squares on the augmented system [U; sqrt(lam) I]."""
    n, M = U.shape
    root = math.sqrt(lam)
    if not causal:
        A = np.vstack([U, root * np.eye(M)])
        B = np.vstack([Y, np.zeros((M, M))])
        return np.linalg.lstsq(A, B, rcond=None)[0].T
    K = np.zeros((M, M))
    for i in range(M):
        m = i + 1
        A = np.vstack([U[:, :m], root * np.eye(m)])
        rhs = np.concatenate([Y[:, i], np.zeros(m)])
        K[i, :m] = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return K


def check_ridge(K, reference, causal):
    """The estimate matches the least-squares reference; a causal estimate
    has exactly zero strictly-upper entries."""
    K = np.asarray(K, dtype=float)
    require(K.shape == reference.shape, f"estimate has shape {K.shape}")
    if causal:
        require(not np.any(np.triu(K, 1)), "causal estimate has a non-zero entry above the diagonal")
    dev = float(np.max(np.abs(K - reference)))
    require(dev <= 1e-9 * max(1.0, float(np.max(np.abs(reference)))),
             f"estimate differs from least squares by {dev:.3e}")
