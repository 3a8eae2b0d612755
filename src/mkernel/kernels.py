"""Matrix-valued kernel expressions and their evaluators.

A kernel here is a map K(x, y) into real N x N matrices with the transpose
symmetry K(x, y) = K(y, x)^T. Kernels are described by small expression
trees (`KernelSpec` nodes); each node compiles to a `MatrixKernel`, and
`build_kernel` compiles the root and names it. Evaluators broadcast,
(..., d) x (..., d) -> (..., N, N). The transpose symmetry holds bit for bit
by construction: every leaf is symmetric in its arguments and every
combinator keeps that, so evaluation runs each pair in the order given and a
Gram evaluates every block, with no mirrored half.

Scalar kernels are the N = 1 case; `Lift` tensors a scalar kernel with a
fixed PSD matrix, `Conjugate` maps K to B K B^T, and `Sum` / `Scale` /
`BlockDiag` combine kernels in the PD-preserving ways.

A block Gram is kept as what the expression says it is: a direct sum of
Kronecker products F_b (x) A_b (`Term`s). `Lift(k, A)` is one term, the
scalar Gram of k times A, and so is a `Conjugate` of such a term (k times
B A B^T); `BlockDiag` is the direct sum of its blocks' terms; every other
node is one dense term, its own Gram (x) [1]. The (nN) x (nN) matrix is
formed from the factors only when it is read.

A new kernel family is one `KernelSpec` dataclass with a JSON `key` and a
`compile` method; its name and its JSON form follow from its fields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

PSD_LIFT_TOL = 1e-10

# Pairs per broadcast product over two point lists: its temporaries stay small.
_BLOCK_PAIRS = 4096

# Field annotations beside float and KernelSpec; the JSON codec reads them
# (as strings, under the annotations future import) to pick each field's form.
Matrix = tuple  # rows of floats
Specs = tuple  # kernel expressions

_ONE = np.ones((1, 1))
_ONE.flags.writeable = False


class Term(NamedTuple):
    """One summand F (x) A of a block Gram's direct sum.

    F is the Gram of the evaluator `fn` (block size `dim`) over the points
    and A = `matrix` a fixed symmetric matrix, with ascending eigenvalues
    `evals` and eigenvectors `evecs`. The term fills the `size` component
    slots from `offset` on: entry (i, r a + s), (j, r' a + s') of those
    slots is F[(i, r), (j, r')] * A[s, s'] for A of order a.
    """

    fn: callable
    dim: int
    matrix: np.ndarray = _ONE
    evals: np.ndarray = _ONE[0]
    evecs: np.ndarray = _ONE
    offset: int = 0

    @property
    def size(self) -> int:
        return self.dim * self.matrix.shape[0]


class KernelSpec:
    """A node of a kernel expression.

    Each node is a frozen dataclass that declares its JSON `key` and owns
    `compile()`, which validates the node and returns it as an unnamed
    `MatrixKernel`; combinators compile their children and read the fields
    of theirs, `unbounded_diagonal` included, which `build_kernel` checks.
    Its `name` is the key followed by the names of its sub-expressions in
    parentheses. Its JSON form is {key: value}: the bare value of a node with
    one field, otherwise an object of its fields ({} for none); matrices are
    lists of rows.
    """

    key: ClassVar[str]

    def compile(self) -> MatrixKernel:
        raise NotImplementedError

    @property
    def name(self) -> str:
        subs = [getattr(self, f.name) for f in fields(self) if f.type == "KernelSpec"]
        subs += [s for f in fields(self) if f.type == "Specs" for s in getattr(self, f.name)]
        return f"{self.key}({','.join(s.name for s in subs)})" if subs else self.key

    def _param(self, field: str):
        """A scalar or matrix parameter as float(s); NaN and infinities are rejected."""
        a = np.asarray(getattr(self, field), dtype=float)
        if not np.isfinite(a).all():
            raise ValueError(f"{self.key} {field} must be finite")
        return float(a) if a.ndim == 0 else a


@dataclass(frozen=True)
class Gaussian(KernelSpec):
    """exp(-gamma * |x - y|^2), scalar, positive definite for gamma > 0."""

    key = "gaussian"
    gamma: float = 1.0

    def compile(self):
        g = self._param("gamma")
        if not g > 0:
            raise ValueError("gaussian rate gamma must be positive")

        def f(X, Y, g=g):
            d2 = ((X - Y) ** 2).sum(axis=-1)
            return np.exp(-g * d2)[..., None, None]

        return MatrixKernel(1, f)


@dataclass(frozen=True)
class Riesz(KernelSpec):
    """1 / (|x - y| + eta)^s, scalar.

    Positive definite for every s > 0, eta > 0. With eta = 0 its compiled
    kernel is unbounded on the diagonal, which `build_kernel` accepts only
    with allow_unbounded=True, for uses that exclude the diagonal.
    """

    key = "riesz"
    s: float
    eta: float = 0.0

    def compile(self):
        s, eta = self._param("s"), self._param("eta")
        if not s > 0:
            raise ValueError("riesz exponent s must be positive")
        if eta < 0:
            raise ValueError("riesz regularizer eta must be nonnegative")

        def f(X, Y, s=s, eta=eta):
            r = np.linalg.norm(X - Y, axis=-1)
            with np.errstate(divide="ignore"):
                v = (r + eta) ** (-s)
            return v[..., None, None]

        return MatrixKernel(1, f, None, eta == 0)


@dataclass(frozen=True)
class Brownian(KernelSpec):
    """min(x, y) on the half-line, scalar, one-dimensional inputs only."""

    key = "brownian"

    def compile(self):
        def f(X, Y):
            return np.minimum(X[..., 0], Y[..., 0])[..., None, None]

        return MatrixKernel(1, f, 1)


@dataclass(frozen=True)
class NegDistance(KernelSpec):
    """-|x - y|, scalar. The canonical non-PD example."""

    key = "neg_distance"

    def compile(self):
        def f(X, Y):
            return -np.linalg.norm(X - Y, axis=-1)[..., None, None]

        return MatrixKernel(1, f)


@dataclass(frozen=True)
class Constant(KernelSpec):
    """Constant scalar kernel K(x, y) = c."""

    key = "constant"
    c: float = 1.0

    def compile(self):
        c = self._param("c")

        def f(X, Y, c=c):
            return np.full(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]) + (1, 1), c)

        return MatrixKernel(1, f)


@dataclass(frozen=True)
class Lift(KernelSpec):
    """scalar_kernel(x, y) * A for a fixed symmetric PSD matrix A; its Gram
    is one term, the scalar kernel's Gram (x) A."""

    key = "lift"
    scalar: KernelSpec
    matrix: Matrix

    def compile(self):
        inner = self.scalar.compile()
        if inner.output_dim != 1:
            raise ValueError("lift expects a scalar kernel")
        A = _as_matrix(self._param("matrix"))
        if A.shape[0] != A.shape[1]:
            raise ValueError("lift matrix must be square")
        if np.max(np.abs(A - A.T)) > PSD_LIFT_TOL * max(1.0, np.max(np.abs(A))):
            raise ValueError("lift matrix must be symmetric")
        lifted = _lift(inner, inner._batch, 0.5 * (A + A.T))
        evals = lifted.terms[0].evals
        if evals.min() < -PSD_LIFT_TOL * max(1.0, abs(evals.max())):
            raise ValueError(
                f"lift matrix must be positive semidefinite (min eigenvalue {evals.min():.3e})"
            )
        return lifted


@dataclass(frozen=True)
class Conjugate(KernelSpec):
    """B K(x, y) B^T for a fixed matrix B with as many columns as K's size.

    When K's Gram is one term with a scalar factor, K = k A (a `Lift`, or a
    scalar kernel with A = [1]), the conjugate is the lift k B A B^T, with
    B A B^T symmetrised: one term, decided and decomposed on k's Gram. Any
    other K is evaluated as the mean of (B K) B^T and B (K B^T): K -> K^T
    swaps the two products, so K(y, x) = K(x, y)^T and a symmetric K(x, x)
    stay exact.
    """

    key = "conjugate"
    inner: KernelSpec
    matrix: Matrix

    def compile(self):
        inner = self.inner.compile()
        B = _as_matrix(self._param("matrix"))
        if B.shape[1] != inner.output_dim:
            raise ValueError(f"conjugation matrix has {B.shape[1]} columns, "
                             f"inner kernel size is {inner.output_dim}")
        terms = inner.terms
        if len(terms) == 1 and terms[0].dim == 1:
            M = B @ terms[0].matrix @ B.T
            return _lift(inner, terms[0].fn, 0.5 * (M + M.T))

        def f(X, Y, inner_f=inner._batch, B=B):
            K = inner_f(X, Y)
            out = (B @ K) @ B.T
            out += B @ (K @ B.T)
            out *= 0.5
            return out

        return MatrixKernel(B.shape[0], f, inner.input_dim, inner.unbounded_diagonal)


def _lift(inner: MatrixKernel, k, A: np.ndarray) -> MatrixKernel:
    """k(x, y) * A for a scalar evaluator k of `inner` and a symmetric A: one
    broadcast product per evaluation, and one term, k's Gram (x) A."""
    evals, evecs = np.linalg.eigh(A)

    def f(X, Y, k=k, A=A):
        return k(X, Y) * A

    return MatrixKernel(A.shape[0], f, inner.input_dim, inner.unbounded_diagonal,
                        (Term(k, 1, A, evals, evecs),))


@dataclass(frozen=True)
class Sum(KernelSpec):
    """Pointwise sum of kernels of equal output size."""

    key = "sum"
    terms: Specs

    def compile(self):
        terms = [t.compile() for t in self.terms]
        if not terms:
            raise ValueError("sum needs at least one term")
        dims = {t.output_dim for t in terms}
        if len(dims) != 1:
            raise ValueError(f"sum terms must share one output size, got {sorted(dims)}")
        in_dims = {t.input_dim for t in terms if t.input_dim is not None}
        if len(in_dims) > 1:
            raise ValueError("sum terms disagree on input dimension")

        def f(X, Y, fns=[t._batch for t in terms]):
            out = fns[0](X, Y).copy()
            for fn in fns[1:]:
                out += fn(X, Y)
            return out

        return MatrixKernel(terms[0].output_dim, f, in_dims.pop() if in_dims else None,
                            any(t.unbounded_diagonal for t in terms))


@dataclass(frozen=True)
class Scale(KernelSpec):
    """alpha * K for alpha >= 0 (negative scales break positive definiteness)."""

    key = "scale"
    factor: float
    inner: KernelSpec

    def compile(self):
        a = self._param("factor")
        if a < 0:
            raise ValueError("scale factor must be nonnegative")
        inner = self.inner.compile()

        def f(X, Y, inner_f=inner._batch, a=a):
            return a * inner_f(X, Y)

        return MatrixKernel(inner.output_dim, f, inner.input_dim, inner.unbounded_diagonal)


@dataclass(frozen=True)
class BlockDiag(KernelSpec):
    """Block-diagonal combination; output size is the sum of block sizes. Its
    Gram is the direct sum of its blocks' terms."""

    key = "block_diag"
    blocks: Specs

    def compile(self):
        blocks = [b.compile() for b in self.blocks]
        if not blocks:
            raise ValueError("block_diag needs at least one block")
        in_dims = {b.input_dim for b in blocks if b.input_dim is not None}
        if len(in_dims) > 1:
            raise ValueError("block_diag blocks disagree on input dimension")
        sizes = [b.output_dim for b in blocks]
        total = sum(sizes)
        offsets = [0, *np.cumsum(sizes).tolist()]

        def f(X, Y, fns=[b._batch for b in blocks], offsets=offsets, total=total):
            out = np.zeros(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]) + (total, total))
            for fn, lo, hi in zip(fns, offsets[:-1], offsets[1:]):
                out[..., lo:hi, lo:hi] = fn(X, Y)
            return out

        terms = tuple(t._replace(offset=t.offset + lo)
                      for b, lo in zip(blocks, offsets) for t in b.terms)
        return MatrixKernel(total, f, in_dims.pop() if in_dims else None,
                            any(b.unbounded_diagonal for b in blocks), terms)


_FAMILIES = {cls.key: cls for cls in KernelSpec.__subclasses__()}


def as_points(x, what: str) -> np.ndarray:
    """A point list as an (n, d) float array, one point per row: a 1-D list is n
    one-dimensional points; any other shape but (n, d) is an error naming `what`."""
    P = np.asarray(x, dtype=float)
    if P.ndim == 1:
        return P.reshape(-1, 1)
    if P.ndim != 2:
        raise ValueError(f"{what} must list points, one per row; got shape {P.shape}")
    return P


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return a


@dataclass
class MatrixKernel:
    """A kernel with vectorized evaluation: what `KernelSpec.compile` returns
    (unnamed; `build_kernel` names it) and what `kernel_from_callable` wraps.

    `_batch` maps point arrays X, Y of shapes that broadcast, (..., d), to
    values (..., N, N). Public evaluation (`eval_pairs`, `eval_pairwise`)
    checks the points (of dimension `input_dim`, None for any) and runs
    `_batch` on each pair in the order given; a Gram runs each of `terms`
    instead (by default one dense term, `_batch` itself). A compiled kernel
    is transpose symmetric by construction; a callable is trusted to be.
    """

    output_dim: int
    _batch: callable
    input_dim: int | None = None
    unbounded_diagonal: bool = False
    terms: tuple = ()
    name: str = "kernel"

    def __post_init__(self):
        self.terms = self.terms or (Term(self._batch, self.output_dim),)

    def _check_points(self, X: np.ndarray) -> np.ndarray:
        X = as_points(X, "points")
        if self.input_dim is not None and X.shape[1] != self.input_dim:
            raise ValueError(
                f"kernel {self.name!r} expects {self.input_dim}-dimensional points,"
                f" got dimension {X.shape[1]}"
            )
        return X

    def eval_pairs(self, X, Y) -> np.ndarray:
        """Evaluate on paired points: (m, d), (m, d) -> (m, N, N)."""
        X, Y = self._check_points(X), self._check_points(Y)
        if X.shape != Y.shape:
            raise ValueError("paired evaluation needs equally many points on both sides")
        return self._batch(X, Y)

    def eval_pairwise(self, X, Y) -> np.ndarray:
        """Cross evaluation: (m, d), (k, d) -> (m, k, N, N)."""
        X, Y = self._check_points(X), self._check_points(Y)
        if X.shape[1] != Y.shape[1]:
            raise ValueError("cross evaluation needs points of one dimension on both sides")
        out = np.empty((X.shape[0], Y.shape[0], self.output_dim, self.output_dim))
        for start, values in _row_blocks(self._batch, X, Y):
            out[start:start + len(values)] = values
        return out

    def __call__(self, x, y) -> np.ndarray:
        """Single evaluation K(x, y) as an (N, N) array."""
        return self.eval_pairs(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)))[0]


def build_kernel(spec: KernelSpec, allow_unbounded: bool = False) -> MatrixKernel:
    """Validate a kernel expression and compile it to a MatrixKernel.

    Validation rejects non-finite parameters, non-PSD lift matrices,
    negative scale factors, mismatched sizes, and (unless allow_unbounded
    is set) kernels that are unbounded on the diagonal.
    """
    kernel = spec.compile()
    kernel.name = spec.name
    if kernel.unbounded_diagonal and not allow_unbounded:
        raise ValueError(f"kernel {kernel.name!r} is unbounded on the diagonal; "
                         "build with allow_unbounded=True and exclude the diagonal")
    return kernel


def kernel_from_callable(
    func, output_dim: int, name: str = "custom", input_dim: int | None = None,
) -> MatrixKernel:
    """Wrap a user callable K(x, y) -> (N, N) array as a MatrixKernel.

    Like a compiled kernel, it runs once per pair in the order given (n^2
    calls for a Gram over n points); it is trusted to be transpose symmetric,
    and `symmetry_check` measures the residual.
    """

    def batch(X, Y):
        X, Y = np.broadcast_arrays(X, Y)
        out = [np.asarray(func(x, y), dtype=float).reshape(output_dim, output_dim)
               for x, y in zip(X.reshape(-1, X.shape[-1]), Y.reshape(-1, Y.shape[-1]))]
        return np.array(out).reshape(X.shape[:-1] + (output_dim, output_dim))

    return MatrixKernel(output_dim=output_dim, _batch=batch, name=name, input_dim=input_dim)


def _blocks_view(data: np.ndarray, block_dim: int) -> np.ndarray:
    """The (..., m, n, N, N) block view of (...,) (m N) x (n N) matrices; block
    (i, j) holds rows i N .. i N + N - 1 and columns j N .. j N + N - 1."""
    m, n = data.shape[-2] // block_dim, data.shape[-1] // block_dim
    return data.reshape(data.shape[:-2] + (m, block_dim, n, block_dim)).swapaxes(-3, -2)


class GramBlockMatrix:
    """Block Gram matrix [K(x_i, x_j)] of a kernel over n points, stored once.

    `factors` holds the Gram as its kernel's terms: pairs (F, term), F the
    term's Gram over the points (see `Term`). `data` is the contiguous
    (n N) x (n N) matrix with N x N blocks in point order, formed from the
    factors when first read (a lone dense term is its own `data`);
    `blocks[i, j]` is K(x_i, x_j), read through a strided view of `data`.
    The same type serves point sets (unweighted) and measure nodes (weighted
    by the caller). `points` is None for a matrix given without points.
    """

    def __init__(self, points, block_dim: int, blocks: np.ndarray):
        """A Gram given by its (n, n, N, N) blocks, as one dense term."""
        n, N = blocks.shape[0], block_dim
        self.points, self.block_dim = points, N
        # A view when `blocks` is already a block view, a single copy otherwise.
        self.factors = ((blocks.transpose(0, 2, 1, 3).reshape(n * N, n * N), Term(None, N)),)

    @classmethod
    def from_factors(cls, points, block_dim: int, factors) -> GramBlockMatrix:
        """A Gram given by its terms' (F, term) pairs."""
        g = cls.__new__(cls)
        g.points, g.block_dim, g.factors = points, block_dim, tuple(factors)
        return g

    @cached_property
    def data(self) -> np.ndarray:
        (F, t), *rest = self.factors
        if not rest:  # one term over every slot
            return _kron(F, t.matrix)
        n, N = self.n_points, self.block_dim
        out = np.zeros((n * N, n * N))
        slots = out.reshape(n, N, n, N)
        for F, t in self.factors:
            s = slice(t.offset, t.offset + t.size)
            slots[:, s, :, s] = _kron(F, t.matrix).reshape(n, t.size, n, t.size)
        return out

    @property
    def blocks(self) -> np.ndarray:
        return _blocks_view(self.data, self.block_dim)

    @property
    def flat(self) -> np.ndarray:
        """Alias of `data`."""
        return self.data

    @property
    def n_points(self) -> int:
        F, t = self.factors[0]
        return F.shape[0] // t.dim

    @cached_property
    def has_duplicates(self) -> bool:
        """Whether two points are equal (as floats compare: 0.0 equals -0.0)."""
        P = self.points
        return P is not None and len(set(map(tuple, P.tolist()))) < P.shape[0]


def _kron(F: np.ndarray, A: np.ndarray) -> np.ndarray:
    """np.kron(F, A) for a small A, bit for bit: F itself for A = [1],
    otherwise one strided product of F per entry of A, so that each inner
    loop runs over a row of F."""
    if A is _ONE:
        return F
    a = A.shape[0]
    out = np.empty((F.shape[0] * a, F.shape[1] * a))
    blocks = out.reshape(F.shape[0], a, F.shape[1], a)
    for p in range(a):
        for q in range(a):
            np.multiply(F, A[p, q], out=blocks[:, p, :, q])
    return out


def _row_slices(m: int, k: int) -> list:
    """Slices of m rows, each holding about _BLOCK_PAIRS pairs against k columns."""
    step = max(1, _BLOCK_PAIRS // max(1, k))
    return [slice(start, start + step) for start in range(0, m, step)]


def _row_blocks(fn, X: np.ndarray, Y: np.ndarray):
    """Yields (start, values), values[a, b] = fn(x_{start + a}, y_b): all pairs,
    one broadcast product of a block of rows of X against all of Y at a time."""
    for rows in _row_slices(X.shape[0], Y.shape[0]):
        yield rows.start, fn(X[rows, None, :], Y[None, :, :])


def gram_matrix(kernel: MatrixKernel, points) -> GramBlockMatrix:
    """The block Gram of a kernel over a point list, as its terms' factors.

    Each factor is the Gram of its term's evaluator: every block evaluated
    and written straight into one (n dim) x (n dim) matrix. A compiled
    kernel's factors are exactly symmetric by construction, a callable's
    hold the callable's values.
    """
    P = kernel._check_points(points)
    factors = [(_term_gram(t.fn, P, t.dim), t) for t in kernel.terms]
    return GramBlockMatrix.from_factors(P, kernel.output_dim, factors)


def _term_gram(fn, X: np.ndarray, dim: int) -> np.ndarray:
    """The Gram of a term's evaluator `fn` over each point set in X: points
    (..., n, d) give (..., n dim, n dim). Each block is evaluated and written
    straight into it, about _BLOCK_PAIRS pairs at a time."""
    n = X.shape[-2]
    F = np.empty(X.shape[:-2] + (n * dim, n * dim))
    blocks = _blocks_view(F, dim)
    for rows in _row_slices(n, math.prod(X.shape[:-1])):  # all the points of all sets
        blocks[..., rows, :, :, :] = fn(X[..., rows, None, :], X[..., None, :, :])
    return F


def gram_blocks(kernel: MatrixKernel, points) -> np.ndarray:
    """All kernel blocks over a point list: (n, d) -> (n, n, N, N), the block
    view of `gram_matrix(kernel, points).data`."""
    return gram_matrix(kernel, points).blocks


def symmetry_check(kernel: MatrixKernel, X, Y) -> float:
    """Max Frobenius norm of K(x, y) - K(y, x)^T over the given pairs."""
    KXY = kernel.eval_pairs(X, Y)
    KYX = kernel.eval_pairs(Y, X)
    return float(np.linalg.norm(KXY - np.transpose(KYX, (0, 2, 1)), axis=(1, 2)).max())


def bound_estimate(kernel: MatrixKernel, points) -> float:
    """Largest Frobenius norm of K over all pairs from a point list.

    Used as a stand-in for the sup of |K| on the support of a measure; for
    diagonally unbounded kernels this is infinite; 0 for no points. The
    blocks are evaluated a few rows at a time, never as a whole Gram.
    """
    P = kernel._check_points(points)
    return _largest_block_norm(values for _, values in _row_blocks(kernel._batch, P, P))


def _largest_block_norm(row_blocks) -> float:
    """Largest Frobenius norm of the N x N blocks of contiguous (rows, k, N,
    N) arrays, 0 for none: the same bits for the same blocks, however the
    rows are split."""
    return max((float(np.linalg.norm(b, axis=(2, 3)).max()) for b in row_blocks), default=0.0)


def spec_to_json(spec: KernelSpec) -> dict:
    """Serialize a kernel expression to its JSON form (see `KernelSpec`)."""
    fs = fields(spec)
    values = {f.name: _field_to_json(f.type, getattr(spec, f.name)) for f in fs}
    return {spec.key: values[fs[0].name] if len(fs) == 1 else values}


def _field_to_json(kind: str, value):
    if kind == "KernelSpec":
        return spec_to_json(value)
    if kind == "Specs":
        return [spec_to_json(v) for v in value]
    return _as_matrix(value).tolist() if kind == "Matrix" else value


def spec_from_json(doc: dict) -> KernelSpec:
    """Parse the JSON form of a kernel expression."""
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValueError("a kernel expression must be an object with exactly one key")
    (key, val), = doc.items()
    if key not in _FAMILIES:
        raise ValueError(f"unknown kernel family {key!r}")
    cls = _FAMILIES[key]
    fs = {f.name: f for f in fields(cls)}
    if len(fs) == 1:
        val = {next(iter(fs)): val}
    elif not isinstance(val, dict):
        form = f"fields {', '.join(fs)}" if fs else "no fields"
        raise ValueError(f"{key} expects an object with {form}")
    for name in val:
        if name not in fs:
            raise ValueError(f"{key} has no field {name!r}")
    for name, f in fs.items():
        if name not in val and f.default is MISSING:
            raise ValueError(f"{key} is missing the field {name!r}")
    return cls(**{name: _field_from_json(key, fs[name], v) for name, v in val.items()})


def _field_from_json(key: str, f, value):
    if f.type == "KernelSpec":
        return spec_from_json(value)
    if f.type == "Specs":
        if not isinstance(value, list):
            raise ValueError(f"{key} expects a list of kernel expressions")
        return tuple(spec_from_json(v) for v in value)
    try:
        if f.type == "Matrix":
            return tuple(map(tuple, _as_matrix(json_array(value, f.name)).tolist()))
        return json_number(value, f.name)
    except (TypeError, ValueError) as exc:
        if "must be finite" in str(exc):  # a number, but NaN or infinite
            raise ValueError(f"{key} {f.name} must be finite") from None
        form = "a matrix (a list of rows)" if f.type == "Matrix" else "a number"
        raise ValueError(f"{key} expects {form} for {f.name}") from None


def config_entry(doc: dict, name: str, default=...):
    """doc[name]; without a default (which may be None) the entry is required."""
    if name not in doc and default is ...:
        raise ValueError(f"config is missing the {name!r} entry")
    return doc.get(name, default)


def json_number(value, name: str, integer: bool = False):
    """A finite config number, as an int for a count; rejects bools, strings and non-integers."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not abs(value) <= float(np.finfo(float).max):  # NaN, an infinity or an int past floats
        raise ValueError(f"{name} must be finite, got {value!r}")
    return int(value) if integer else float(value)


def json_array(value, name: str) -> np.ndarray:
    """A config number or (nested) list of numbers as a float array; every
    entry is read by `json_number`."""

    def read(v):
        return [read(e) for e in v] if isinstance(v, list) else json_number(v, name)

    return np.asarray(read(value), dtype=float)


@dataclass(frozen=True)
class ZooEntry:
    name: str
    spec: KernelSpec
    is_pd: bool
    needs_1d: bool = False


def kernel_zoo() -> list[ZooEntry]:
    """Reference kernels with known positive-definiteness status.

    All are defined on one-dimensional inputs so a single interval domain
    exercises every entry (Brownian motion's covariance needs that anyway).
    """
    return [
        ZooEntry("gaussian", Gaussian(1.0), True),
        ZooEntry(
            "gaussian_lift",
            Lift(Gaussian(0.5), ((2.0, 1.0), (1.0, 2.0))),
            True,
        ),
        ZooEntry(
            "gaussian_conjugated",
            Conjugate(
                Lift(Gaussian(1.5), ((1.0, 0.0), (0.0, 1.0))),
                ((1.0, 2.0), (0.0, 1.0), (1.0, -1.0)),
            ),
            True,
        ),
        ZooEntry("brownian", Brownian(), True, needs_1d=True),
        ZooEntry("constant", Constant(1.0), True),
        ZooEntry(
            "block_diag_mix",
            BlockDiag((Gaussian(1.0), Brownian(), Constant(0.5))),
            True,
            needs_1d=True,
        ),
        ZooEntry("riesz_regularized", Riesz(1.0, 0.1), True),
        ZooEntry("sum_gaussian_constant", Sum((Gaussian(1.0), Constant(1.0))), True),
        ZooEntry("neg_distance", NegDistance(), False),
    ]
