"""Discrete positive definiteness certification.

A kernel is PD in the discrete sense when every block Gram matrix
[K(x_i, x_j)]_{ij} is positive semidefinite as an (n N) x (n N) matrix. We
decide that from the eigenvalues alone, taken from the Gram's Kronecker
terms F (x) A: a `Lift` is decided on its scalar Gram and a `BlockDiag` on
its blocks, without forming the (n N) x (n N) matrix. Only a term that
fails is solved again with eigenvectors; the verdict is then re-decided on
that solve and, on failure, a witness is returned: the points and
coefficient vectors whose quadratic form is negative, reproducible by a
direct double sum. Every Gram matrix here is a `GramBlockMatrix`, the one
block-Gram type that the integral and spectral sides also use for the Gram
over measure nodes.

The random witness search decides its many small Grams in stacks by the same
rules: the point sets of a chunk of trials are grouped by size, each term is
evaluated once on the stacked points and each stack of factors is solved by
one eigenvalue call. A trial that the stack does not certify is decided again
by `certify_psd` on its own, in trial order, so the search reports what one
`certify_psd` per trial would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _BLOCK_PAIRS, GramBlockMatrix, MatrixKernel, gram_matrix

DEFAULT_TOLERANCE = 1e-9

# Trials in the witness search's first chunk; each later chunk is four times
# as large, so a kernel refuted early is decided on few Grams and one that is
# not on few stacks.
_FIRST_CHUNK = 4


def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN or infinite input here, before an eigensolver meets it."""
    bad = ~np.isfinite(a)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"non-finite value {float(a[idx])} in {what} at index {idx}")


def _check_tolerance(tolerance: float) -> None:
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")


def _gram_points(kernel: MatrixKernel, points) -> np.ndarray:
    """A point list as the (n, d) array a Gram of the kernel is taken over."""
    if kernel.unbounded_diagonal:
        raise ValueError(
            f"kernel {kernel.name!r} is unbounded on the diagonal; "
            "its Gram matrix contains infinite entries"
        )
    P = kernel._check_points(points)
    _require_finite(P, "points")
    return P


def assemble_gram(kernel: MatrixKernel, points) -> GramBlockMatrix:
    """Evaluate the block Gram matrix of a kernel over a point list."""
    return gram_matrix(kernel, _gram_points(kernel, points))


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
    -tolerance * max(1, lambda_max). The spectrum comes from the Gram's
    terms F (x) A: the products of the eigenvalues of F and of A, over every
    term, so only the factors are solved. Each F is solved for eigenvalues
    only, unless a diagonal entry or an adjacent 2 x 2 principal block
    already shows it indefinite. Only
    when the verdict fails on a term solved without eigenvectors is that
    term solved again with them, and the verdict, both reported eigenvalues
    and the witness all come from that solve, so a report never contradicts
    itself. The witness coefficients are v (x) u for the most negative
    product, in the term's component slots, signed so that the largest entry
    is positive and reshaped to one coefficient vector per point; the
    witness value is recomputed by a direct double sum. An empty matrix is
    an error.
    """
    return _certify(gram, tolerance, vectors=False)[0]


def _certify(gram, tolerance: float, vectors: bool):
    """`certify_psd`'s body; also returns, per term, the symmetrized factor
    it solved with the eigenvalues and eigenvectors (None if not asked for
    and not needed) of its last solve."""
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
    solves = _eig(Ms, [vectors or bool(_evidently_indefinite(M, tolerance)) for M in Ms])
    while True:
        lo, hi = _extreme_products([lam for lam, _ in solves], terms)
        ok = _decide((lo[0], hi[0]), tolerance)
        k = lo[1]
        if ok or solves[k][1] is not None:
            break
        solves[k] = np.linalg.eigh(Ms[k])
    witness = None
    if not ok:
        _, k, i, j = lo
        t = terms[k]
        C = np.zeros((g.n_points, g.block_dim))
        C[:, t.offset:t.offset + t.size] = np.multiply.outer(
            solves[k][1][:, i], t.evecs[:, j]).reshape(g.n_points, t.size)
        C *= np.sign(C.flat[np.argmax(np.abs(C))])  # largest entry positive, whatever LAPACK gave
        witness = Witness(g.points, C, direct_quadform(g.blocks, C))
    report = PDReport("certified_psd" if ok else "witness_found", float(lo[0]),
                      float(hi[0]), tolerance, witness, tuple(warnings))
    return report, [(M, lam, V) for M, (lam, V) in zip(Ms, solves)]


def _symmetrized(F: np.ndarray):
    """(M, gap) for a matrix F, or per matrix of a stack (..., m, m): M is F
    where F is exactly symmetric, its own symmetrization, and (F + F^T) / 2
    elsewhere; gap is the largest |F - F^T| (0 where symmetric)."""
    Ft = np.swapaxes(F, -1, -2)
    if (F == Ft).all():
        return F, 0.0
    exact = (F == Ft).all(axis=(-2, -1))
    d = F - Ft
    np.abs(d, out=d)
    gap = d.max(axis=(-2, -1))
    del d
    M = 0.5 * (F + Ft)
    M[exact] = F[exact]
    return M, gap


def _evidently_indefinite(M: np.ndarray, tolerance: float):
    """Whether a diagonal entry, or the lower eigenvalue of an adjacent 2 x 2
    principal block, lies below -s, s = tolerance * max(1, largest diagonal
    entry); per matrix for a stack (..., m, m). By interlacing, lambda_min
    lies below each of them. O(m) per matrix."""
    d = M.diagonal(0, -2, -1)
    a = d + tolerance * np.fmax(1.0, d.max(-1))[..., None]
    # [[d_i, e], [e, d_j]] + s I is PSD unless d_i + s < 0 or (d_i + s)(d_j + s) < e^2
    return (a < 0).any(-1) | (a[..., :-1] * a[..., 1:] < M.diagonal(1, -2, -1) ** 2).any(-1)


def _eig(Ms: list, vectors: list) -> list:
    """(ascending eigenvalues, eigenvectors or None) of each symmetric M,
    with eigenvectors where `vectors` says; matrices of one order and kind
    go to LAPACK as one stacked call."""
    groups = {}
    for k, key in enumerate(zip(map(len, Ms), vectors)):
        groups.setdefault(key, []).append(k)
    out = [None] * len(Ms)
    for (_, v), ks in groups.items():
        stack = np.stack([Ms[k] for k in ks]) if len(ks) > 1 else Ms[ks[0]]
        solved = np.linalg.eigh(stack) if v else (np.linalg.eigvalsh(stack), None)
        if len(ks) == 1:
            out[ks[0]] = solved
            continue
        for pos, k in enumerate(ks):
            out[k] = (solved[0][pos], None if solved[1] is None else solved[1][pos])
    return out


def _extreme_products(lams: list, terms: list):
    """The least and the greatest eigenvalue of the direct sum of the terms
    F (x) A, given the ascending eigenvalues `lams[k]` of each term's F, each
    as (value, term, i, j): the product of F's i-th and A's j-th ascending
    eigenvalue. Both are products of extreme eigenvalues."""
    products = []
    for k, (lam, t) in enumerate(zip(lams, terms)):
        n, a = lam.size - 1, t.evals.size - 1
        l0, l1, m0, m1 = lam.item(0), lam.item(n), t.evals.item(0), t.evals.item(a)
        products += [(l0 * m0, k, 0, 0), (l0 * m1, k, 0, a), (l1 * m0, k, n, 0), (l1 * m1, k, n, a)]
    return min(products), max(products)


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
    every trial certified). The trials run in chunks of growing size: a
    chunk draws its point sets in trial order and decides them in stacks
    (see `_chunk_margins`); a trial left undecided there is decided by
    `certify_psd`, in trial order, so the report is the one that a
    `certify_psd` per trial gives.
    """
    rng = np.random.default_rng(seed)
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("n_range must satisfy 1 <= n_lo <= n_hi")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials!r}")
    _check_tolerance(tolerance)
    min_margin, done, size = np.inf, 0, _FIRST_CHUNK
    while done < trials:
        chunk = []
        for _ in range(min(size, trials - done)):
            n = int(rng.integers(n_lo, n_hi + 1))
            chunk.append(_gram_points(kernel, domain.sample(rng, n)))
        for P, margin in zip(chunk, _chunk_margins(kernel, chunk, tolerance)):
            done += 1
            if margin is None:
                report = certify_psd(assemble_gram(kernel, P), tolerance)
                margin = report.min_eigenvalue / max(1.0, report.max_eigenvalue)
                if not report.certified:
                    return SearchReport(True, done, float(min(min_margin, margin)), tolerance,
                                        report.witness)
            min_margin = min(min_margin, margin)
        size *= 4
    if trials == 0:
        min_margin = np.nan
    return SearchReport(False, trials, float(min_margin), tolerance, None)


def _chunk_margins(kernel: MatrixKernel, chunk: list, tolerance: float) -> list:
    """The margin lambda_min / max(1, lambda_max) of each point set's Gram
    that `_stack_margins` certifies, None for every other. Point sets of one
    size are stacked, at most _BLOCK_PAIRS pairs at a time; a set of more
    than sqrt(_BLOCK_PAIRS) = 64 points gains nothing from a stack and is
    left to `certify_psd`."""
    margins = [None] * len(chunk)
    by_size = {}
    for pos, P in enumerate(chunk):
        by_size.setdefault(len(P), []).append(pos)
    for n, positions in by_size.items():
        if n * n > _BLOCK_PAIRS:
            continue
        step = _BLOCK_PAIRS // (n * n)
        for s in range(0, len(positions), step):
            part = positions[s:s + step]
            P = np.stack([chunk[pos] for pos in part])
            for pos, margin in zip(part, _stack_margins(kernel.terms, P, tolerance)):
                margins[pos] = margin
    return margins


def _stack_margins(terms: list, P: np.ndarray, tolerance: float) -> list:
    """Per point set of a stack P (b, n, d), the margin of its Gram where
    `_certify`'s rules certify it from eigenvalues alone, else None (an
    evidently indefinite or a non-finite factor, or a failed verdict). Each
    term is evaluated once on the stacked points and its factors are solved
    by one stacked `eigvalsh`; every value is the one `_certify` computes."""
    b, n = P.shape[:2]
    Ms = [_symmetrized(t.fn(P[:, :, None], P[:, None]).transpose(0, 1, 3, 2, 4)
                       .reshape(b, n * t.dim, n * t.dim))[0] for t in terms]
    sure = np.logical_and.reduce([np.isfinite(M).all(axis=(1, 2))
                                  & ~_evidently_indefinite(M, tolerance) for M in Ms])
    margins = [None] * b
    keep = np.flatnonzero(sure)
    if keep.size:
        lams = [np.linalg.eigvalsh(M[keep]) for M in Ms]
        for pos, i in enumerate(keep):
            lo, hi = _extreme_products([lam[pos] for lam in lams], terms)
            if _decide((lo[0], hi[0]), tolerance):
                margins[i] = lo[0] / max(1.0, hi[0])
    return margins


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
