"""Discrete positive definiteness certification.

A kernel is PD in the discrete sense when every block Gram matrix
[K(x_i, x_j)]_{ij} is positive semidefinite as an (n N) x (n N) matrix. The
rule is lambda_min >= -tolerance * max(1, lambda_max), decided on the Gram's
Kronecker terms F (x) A, whose spectrum is the products of the eigenvalues of
F and of A: a `Lift` is decided on its scalar Gram and a `BlockDiag` on its
blocks, without forming the (n N) x (n N) matrix.

`certify_psd` first scans each factor's adjacent 2 x 2 principal blocks once
(see `_least_pair`). If none shows a factor indefinite, it tries to prove the
rule with one shifted Cholesky per factor (Rump's test, see
`_shifted_cholesky`), with its threshold set by a lower bound on lambda_max
read off each factor in one pass; if one does, it tries to refute the rule
with the witness of the least such block (see `_pair_witness`). Neither needs
the spectrum. Only when neither settles it is the eigenvalue rule applied:
the factors are solved for their eigenvalues and, if the Gram fails, solved
once more with eigenvectors, the verdict is re-decided on that solve and, on
failure, a witness is returned: the points and coefficient vectors whose
quadratic form is negative, reproducible by a direct double sum. Every Gram
matrix here is a `GramBlockMatrix`, the one block-Gram type that the
integral and spectral sides also use for the Gram over measure nodes.

The eigenvalue rule is written once, in `_decide_stack`, for a stack of Grams
of the same terms: `certify_psd`'s as a stack of one, or the random witness
search's point sets of one size, with each term evaluated once on the
stacked points. Only the first Gram of a stack that fails is solved again
with eigenvectors. The search draws the points of all its trials in one
call, keeps each decided trial's margin in one array, and stops evaluating
its trials past the first that ends it. It applies that rule alone, with no
2 x 2 scan, since it reports the least margin it saw, and builds the witness
of the trial that ends it from its stack's factors: it reports what one
eigenvalue-rule decision per trial would.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .kernels import _BLOCK_PAIRS, GramBlockMatrix, MatrixKernel, Term, _term_gram, gram_matrix

DEFAULT_TOLERANCE = 1e-9

_EPS = np.finfo(float).eps
_UNIT_ROUNDOFF = _EPS / 2

# Order of the tiles that the exact-symmetry test compares (see `_is_symmetric`).
_TILE = 128

def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN or infinite input here, before an eigensolver meets it."""
    finite = np.isfinite(a)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"non-finite value {float(a[idx])} in {what} at index {idx}")


def _check_tolerance(tolerance: float) -> None:
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")


def _check_bounded(kernel: MatrixKernel) -> None:
    if kernel.unbounded_diagonal:
        raise ValueError(
            f"kernel {kernel.name!r} is unbounded on the diagonal; "
            "its Gram matrix contains infinite entries"
        )


def assemble_gram(kernel: MatrixKernel, points) -> GramBlockMatrix:
    """Evaluate the block Gram matrix of a kernel over a point list."""
    _check_bounded(kernel)
    P = kernel._check_points(points)
    _require_finite(P, "points")
    return gram_matrix(kernel, P)


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
    """Outcome of a PSD certification.

    `min_eigenvalue` and `max_eigenvalue` are the exact extreme eigenvalues
    when an eigensolve decided. When a Cholesky proved the rule without one,
    `min_eigenvalue` is None and `max_eigenvalue` the lower bound rho on
    lambda_max, read off the factors, that the threshold was set by (see
    `_shifted_cholesky`). When a 2 x 2 principal block's witness refuted it
    without one, `min_eigenvalue` is the witness value, an upper bound on
    lambda_min, and `max_eigenvalue` an upper bound on every |lambda| (see
    `_pair_witness`), so that min_eigenvalue < -tolerance * max(1,
    max_eigenvalue) holds of the reported numbers. A `witness_found`
    report does not say whether its numbers are exact or bounds.
    """

    verdict: str
    min_eigenvalue: float | None
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
    if not isinstance(gram, GramBlockMatrix):
        M = np.asarray(gram, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("expected a GramBlockMatrix or a square matrix")
        gram = GramBlockMatrix.from_factors(None, 1, [(M, Term(None, 1))])
    for F, _ in gram.factors:
        _require_finite(F, "matrix")
    return gram


def _decide(evals, tolerance: float):
    """Whether evals[0] >= -tolerance * max(1, evals[-1]), elementwise."""
    return evals[0] >= -tolerance * np.fmax(1.0, evals[-1])


def certify_psd(gram, tolerance: float = DEFAULT_TOLERANCE) -> PDReport:
    """Certify a (block) Gram matrix PSD, or produce a witness.

    The matrix passes when its minimum eigenvalue is at least
    -tolerance * max(1, lambda_max). The spectrum is that of the Gram's
    terms F (x) A: the products of the eigenvalues of F and of A, over every
    term, so only the factors are decided. Unless a factor's least adjacent
    2 x 2 principal block (or diagonal entry) has its lower eigenvalue below
    -tolerance * max(1, largest diagonal entry), each F is first factored by
    Cholesky, shifted so that success proves the rule (see
    `_shifted_cholesky`); then no eigensolve runs, the report's
    `min_eigenvalue` is None and its `max_eigenvalue` is rho <= lambda_max.
    If that scan refutes a factor, the least such block gives a witness on
    at most two adjacent points (see `_pair_witness`); when its value is below
    the threshold set by a bound ub >= |lambda| by more than an eigensolve's
    rounding, no eigensolve runs, `min_eigenvalue` is that value (>=
    lambda_min, by interlacing) and `max_eigenvalue` is ub. Otherwise each F
    is solved for its eigenvalues and, if the verdict fails, once more with
    eigenvectors: the verdict, both reported eigenvalues and the eigen-witness
    all come from that solve. Either way a report satisfies its own rule, and
    a failed factorisation or a witness too close to call costs time, never a
    verdict. A witness's coefficients are v (x) u, v a unit eigenvector of F
    or of its 2 x 2 block and u one of A, in the term's component slots,
    signed so that the largest entry is positive, with no -0.0, and reshaped
    to one coefficient vector per point; its value is recomputed by a direct
    double sum. An empty matrix, one with a non-finite entry, or one whose
    lambda_max (or rho) overflows a float, is an error.
    """
    return _certify(gram, tolerance, "cholesky")[0]


def _certify(gram, tolerance: float, first: str):
    """`certify_psd`'s body, with its first stage named: "cholesky" (the
    Cholesky proof if the 2 x 2 scan refutes no factor, the least block's
    witness if it does), "eigvalsh" (the eigenvalue rule alone, eigenvectors
    only for a Gram that fails it) or "eigh" (eigenvectors for every factor).
    Also returns, per term, the symmetrized factor with the eigenvalues and
    eigenvectors (None if not needed) of its last solve, or None when no
    eigensolve decided."""
    _check_tolerance(tolerance)
    g = _as_gram(gram)
    if g.n_points == 0:
        raise ValueError("the Gram matrix is empty: there are no points to certify")
    warnings = []
    if g.has_duplicates:
        warnings.append("duplicate points: Gram matrix is singular by construction")
    terms = [t for _, t in g.factors]
    Ms, gaps = zip(*(_symmetrized(F) for F, _ in g.factors))
    sym_gap = max((gap * np.max(np.abs(t.matrix)) for gap, t in zip(gaps, terms) if gap),
                  default=0.0)
    if sym_gap > 0:
        scale = max(np.max(np.abs(F)) * np.max(np.abs(t.matrix)) for F, t in g.factors)
        if sym_gap > 1e-12 * max(1.0, scale):
            warnings.append(f"asymmetric input symmetrized (max gap {sym_gap:.3e})")
    if first == "cholesky":
        pairs = [_least_pair(M) for M in Ms]
        pairs = [p if p[1] < -tolerance * max(1.0, M.diagonal().max()) else None
                 for M, p in zip(Ms, pairs)]
        if not any(pairs):
            rho = _shifted_cholesky(Ms, terms, tolerance)
            if rho is not None:
                return PDReport("certified_psd", None, rho, tolerance, None, tuple(warnings)), None
        elif (found := _pair_witness(g, Ms, pairs, tolerance)) is not None:
            value, ub, witness = found
            return PDReport("witness_found", value, ub, tolerance, witness, tuple(warnings)), None
    d = _decide_stack([M[None] for M in Ms], terms, tolerance, first == "eigh")
    witness = None if d.ok[0] else _witness(d, 0, g)
    report = PDReport("certified_psd" if witness is None else "witness_found",
                      float(d.lo[0]), float(d.hi[0]), tolerance, witness, tuple(warnings))
    return report, [(M, lam[0], V.get(0)) for M, lam, V in zip(Ms, d.lams, d.vecs)]


def _symmetrized(F: np.ndarray):
    """(M, gap) for a matrix F, or per matrix of a stack (..., m, m): M is F
    where F is exactly symmetric, its own symmetrization, and (F + F^T) / 2
    elsewhere; gap is the largest |F - F^T| (0 where symmetric)."""
    if _is_symmetric(F):
        return F, 0.0
    Ft = np.swapaxes(F, -1, -2)
    exact = (F == Ft).all(axis=(-2, -1))
    d = F - Ft
    np.abs(d, out=d)
    gap = d.max(axis=(-2, -1))
    del d
    M = 0.5 * (F + Ft)
    M[exact] = F[exact]
    return M, gap


def _is_symmetric(F: np.ndarray) -> bool:
    """Whether F, or every matrix of a stack (..., m, m), equals its transpose:
    _TILE x _TILE tiles of the upper triangle against their mirrors, so that
    each transposed read stays within one tile."""
    m = F.shape[-1]
    return all((F[..., i:i + _TILE, j:j + _TILE]
                == np.swapaxes(F[..., j:j + _TILE, i:i + _TILE], -1, -2)).all()
               for i in range(0, m, _TILE) for j in range(i, m, _TILE))


def _pair_witness(g: GramBlockMatrix, Ms: list, pairs: list, tolerance: float):
    """(value, ub, witness) from the least of the blocks pairs[k] =
    `_least_pair(Ms[k])` of g's refuted symmetric factors Ms[k] (None for the
    others), or None if it does not refute the rule beyond an eigensolve's
    rounding; it does not scan the factors again.

    A block's lower eigenvalue times its term's a_max > 0 scores it. The
    witness is v (x) u in that term's component slots (see `_coefficients`),
    v the block's unit lower eigenvector, zero off the block, and u A's top
    eigenvector. Its value is summed with math.fsum over its support, from
    g's own factor, so no (n N)^2 matrix is formed; by interlacing it is at
    least lambda_min. ub bounds every |lambda|: each is a product lambda(F) *
    a, and |lambda(F)| <= ||F||_F, widened here by the rounding of its sum of
    squares. The witness is returned only if value < -tolerance * max(1, ub)
    by more than an eigensolve's backward error, (n N) eps ub, so that the
    eigenvalue rule refutes the Gram too."""
    best = None
    for k, pair in enumerate(pairs):
        a_max = g.factors[k][1].evals[-1]
        if pair is not None and a_max > 0:
            i, mu, v = pair
            if best is None or mu * a_max < best[0]:
                best = (mu * a_max, k, i, v)
    if best is None:
        return None
    with np.errstate(over="ignore"):  # an overflowing ub declines the witness below
        ub = float(max(np.linalg.norm(M) * (1 + (M.size + 4) * _EPS)
                       * np.abs(t.evals[[0, -1]]).max() for M, (_, t) in zip(Ms, g.factors)))
    if not np.isfinite(4 * ub):  # the witness's terms sum to at most about ub
        return None
    _, k, i, v = best
    F, t = g.factors[k]
    s = slice(i, i + v.size)
    v_full = np.zeros(F.shape[0])
    v_full[s] = v
    C = _coefficients(g, t, v_full, t.evecs[:, -1])
    c = C[:, t.offset:t.offset + t.size].reshape(F.shape[0], -1)[s]
    G = np.multiply.outer(F[s, s], t.matrix)
    value = math.fsum((c[:, None, :, None] * G * c[None, :, None, :]).ravel().tolist())
    if value >= -tolerance * max(1.0, ub) - g.n_points * g.block_dim * _EPS * ub:
        return None
    return value, ub, Witness(g.points, C, value)


def _least_pair(M: np.ndarray):
    """(i, mu, v): the adjacent 2 x 2 principal block of M (m, m) at rows i,
    i + 1 with the least lower eigenvalue mu, and its unit lower eigenvector
    v; for m = 1 the diagonal entry, with v = [1]. A block's lower eigenvalue
    is at most both of its diagonal entries, so no entry scores below the
    least block."""
    if M.shape[0] == 1:
        return 0, float(M[0, 0]), np.ones(1)
    d, e = M.diagonal(), M.diagonal(1)
    mid, half = 0.5 * d[:-1] + 0.5 * d[1:], 0.5 * d[:-1] - 0.5 * d[1:]
    i = int(np.argmin(mid - np.hypot(half, e)))
    h, f = half[i], e[i]
    # (cos t, sin t), 2 t = atan2(f, h), is the upper eigenvector of the block
    # and the lower one of its negative; each angle is taken where |2 t| <=
    # pi / 2, so that a diagonal block gives an exact unit vector
    if h < 0:
        t = 0.5 * math.atan2(-f, -h)
        v = [math.cos(t), math.sin(t)]
    else:
        t = 0.5 * math.atan2(f, h)
        v = [-math.sin(t), math.cos(t)]
    return i, float(mid[i] - math.hypot(h, f)), np.array(v)


_Decided = namedtuple("_Decided", "lams vecs lo hi arg ok")


def _decide_stack(Ms: list, terms: list, tolerance: float, vectors: bool) -> _Decided:
    """`certify_psd`'s rule on the eigenvalues of a stack of b Grams of the
    same terms, given as term k's symmetric finite factors Ms[k] (b, m, m).
    Each term is solved in one call over the stack, with eigenvectors if
    `vectors`; if not, the first Gram that fails is solved again with
    eigenvectors, term by term, and the stack re-decided, until no Gram fails
    or the first that fails has eigenvectors; a search reads no later one.
    Returns, per term, the ascending eigenvalues lams (b, m) of each last
    solve and vecs, {Gram: eigenvectors} of the solves that kept them; per
    Gram, the least product lo, ranked as (value, term, i, j), and its column
    arg (4 per term), the greatest product hi and the verdict ok. A greatest
    product that overflows sets no threshold, so it is an error."""
    lams, vecs = [], []
    for M in Ms:
        lam, V = np.linalg.eigh(M) if vectors else (np.linalg.eigvalsh(M), ())
        lams.append(lam)
        vecs.append(dict(enumerate(V)))
    ends, rows = [t.evals[[0, -1]] for t in terms], np.arange(len(Ms[0]))
    while True:
        P = np.concatenate([np.multiply.outer(lam[:, [0, -1]], m).reshape(-1, 4)
                            for lam, m in zip(lams, ends)], axis=1)
        arg = P.argmin(1)
        lo, hi = P[rows, arg], P.max(1)
        if not np.isfinite(hi).all():
            raise ValueError("the Gram's largest eigenvalue overflows a float")
        ok = _decide((lo, hi), tolerance)
        e = _first_false(ok)
        if e == len(ok) or e in vecs[0]:
            return _Decided(lams, vecs, lo, hi, arg, ok)
        for M, lam, V in zip(Ms, lams, vecs):
            lam[e], V[e] = np.linalg.eigh(M[e])


def _shifted_cholesky(Ms, terms, tolerance: float):
    """rho if one Cholesky per symmetric factor Ms[k] (m, m) proves that the
    Gram passes the rule, else None.

    rho = max over terms of rho_F * a_max, a_max the largest eigenvalue of A
    and rho_F the larger of two Rayleigh quotients of F (m, m), each one
    pass over it: its largest diagonal entry, at a unit vector, and the mean
    of its entries, 1^T F 1 / m at the ones vector. So rho <= lambda_max (up
    to the rounding of that mean), and s = tolerance * max(1, rho) is at most
    the rule's threshold. Each term must show every product lambda(F) * a >=
    -s (see `_proves_term`); then lambda_min >= -s >= -tolerance * max(1,
    lambda_max)."""
    if any(t.evals[-1] <= 0 for t in terms):
        return None
    with np.errstate(over="ignore"):  # an overflowing rho is rejected below
        rho = float(max(max(M.diagonal().max(), M.sum() / len(M)) * t.evals[-1]
                        for M, t in zip(Ms, terms))) + 0.0  # a report prints no -0.0
    if not np.isfinite(rho):
        raise ValueError(f"the Gram's largest eigenvalue overflows a float (rho = {rho})")
    s = tolerance * max(1.0, rho)
    ok = (_proves_term(M, s, float(t.evals[0]), float(t.evals[-1])) for M, t in zip(Ms, terms))
    return rho if all(ok) else None


def _proves_term(F: np.ndarray, s: float, a_min: float, a_max: float) -> bool:
    """Whether lambda * a >= -s is proved for every eigenvalue lambda of F
    (m x m, symmetric) and a in [a_min, a_max], a_max > 0.

    With shift = s / a_max, the Cholesky of F + (shift - c) I succeeds only
    if lambda_min(F) > -shift, where c bounds the rounding of forming and
    factoring that matrix: the computed factor is exact for a perturbation of
    2-norm at most gamma_{m+1} / (1 - gamma_{m+1}) times its trace (Higham,
    Thm 10.3 with Cauchy-Schwarz; Rump, BIT 46 (2006)). With T a bound on
    that trace, c = 2 (m + 4) u T also covers the rounding of the shift and
    of the diagonal add, and m * tiny underflow. An a_min < 0 (a PSD A's
    rounding) needs lambda_max(F) <= s / |a_min|: once lambda_min(F) >
    -shift, lambda_max(F) <= trace + (m - 1) shift <= T. The shifted copy
    and the factor live only inside this call."""
    m = F.shape[0]
    shift = s / a_max
    T = float(np.abs(F.diagonal()).sum()) + m * shift
    if 2.0 * T * max(-a_min, 0.0) > s:
        return False
    A = F.copy()
    A.flat[::m + 1] += shift - (2 * (m + 4) * _UNIT_ROUNDOFF * T + m * np.finfo(float).tiny)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _witness(d: _Decided, e: int, g: GramBlockMatrix) -> Witness:
    """The witness of the failed Gram e of a decided stack, g that Gram:
    v (x) u for its least product, in the term's component slots."""
    k, c = divmod(int(d.arg[e]), 4)
    t = g.factors[k][1]
    v = d.vecs[k][e][:, (c >> 1) * (d.lams[k].shape[1] - 1)]
    u = t.evecs[:, (c & 1) * (t.evals.size - 1)]
    C = _coefficients(g, t, v, u)
    return Witness(g.points, C, direct_quadform(g.blocks, C))


def _coefficients(g: GramBlockMatrix, t, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The (n, N) witness coefficients of v (x) u, v of the order of term t's
    factor and u of its A's: in t's component slots, zero elsewhere, signed
    so that the largest entry is positive, whatever LAPACK gave, and with no
    -0.0 (x + 0.0 is 0.0 for x = -0.0), so that a report's zeros do not
    depend on that sign either."""
    c = np.multiply.outer(v, u)
    c *= np.sign(c.flat[np.argmax(np.abs(c))])
    C = np.zeros((g.n_points, g.block_dim))
    C[:, t.offset:t.offset + t.size] = c.reshape(g.n_points, t.size) + 0.0
    return C


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
    every trial certified). All trials are drawn at once: their sizes in one
    call, then their points in one `domain.sample` call, trial t taking the
    rows that follow those of trials 0, ..., t - 1. They are decided in
    stacks by `certify_psd`'s eigenvalue rule (see `_decide_stack`), so the
    report, or the error of a point set or Gram with a non-finite entry, is
    the one that a `certify_psd` per trial gives.

    Point sets of one size are stacked, at most _BLOCK_PAIRS pairs per stack
    (a larger set is a stack of one), each gathered in one index, and the
    stacks are taken in the order their sizes first occur. A stack is
    evaluated up to its first set with a non-finite point or Gram entry.
    Once a stack's Gram fails or is not finite at a trial, the later stacks
    are evaluated only on the trials before it. Each decided trial's margin
    lambda_min / max(1, lambda_max) is kept by position; only the trial that
    ends the search keeps its points, stack and factors, for its witness.
    """
    rng = np.random.default_rng(seed)
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("n_range must satisfy 1 <= n_lo <= n_hi")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials!r}")
    _check_tolerance(tolerance)
    if trials == 0:
        return SearchReport(False, 0, np.nan, tolerance, None)
    _check_bounded(kernel)
    sizes = rng.integers(n_lo, n_hi + 1, trials)
    P = kernel._check_points(domain.sample(rng, int(sizes.sum())))
    starts, margins, end, last = np.cumsum(sizes) - sizes, np.full(trials, np.inf), trials - 1, None
    for n in dict.fromkeys(sizes.tolist()):
        positions = np.flatnonzero(sizes == n)
        step = max(1, _BLOCK_PAIRS // (n * n))
        for s in range(0, len(positions), step):
            part = positions[s:s + step]
            part = part[part <= end]
            if not part.size:
                break
            X = P[starts[part][:, None] + np.arange(n)]
            b = _first_false(np.isfinite(X).all(axis=(1, 2)))
            factors = [_term_gram(t.fn, X[:b], t.dim) for t in kernel.terms]
            cut = _first_false(np.logical_and.reduce(
                [np.isfinite(F).all(axis=(1, 2)) for F in factors]))
            d = _decide_stack([_symmetrized(F[:cut])[0] for F in factors],
                              kernel.terms, tolerance, False)
            margins[part[:cut]] = d.lo / np.fmax(1.0, d.hi)
            stop = _first_false(d.ok)
            if stop < len(part):
                end, last = part[stop], (X[stop], d, factors, stop)
    # the least margin first seen, as a trial-by-trial min keeps it: of 0.0
    # and -0.0, a reduction over the margins may return either
    seen = margins[:end + 1]
    min_margin = float(seen[seen.argmin()])
    if last is None:
        return SearchReport(False, trials, min_margin, tolerance, None)
    # a failed Gram, or the first of its stack with a non-finite point
    # (_require_finite raises) or entry (_as_gram raises)
    X, d, factors, e = last
    _require_finite(X, "points")
    g = _as_gram(GramBlockMatrix.from_factors(
        X, kernel.output_dim, [(F[e], t) for F, t in zip(factors, kernel.terms)]))
    return SearchReport(True, int(end) + 1, min_margin, tolerance, _witness(d, e, g))


def _first_false(mask: np.ndarray) -> int:
    """The index of the first False of a 1-D mask, its length if none is."""
    return len(mask) if mask.all() else int(mask.argmin())

