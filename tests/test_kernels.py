import json
import re
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.kernels import (
    BlockDiag,
    Brownian,
    Conjugate,
    Constant,
    Gaussian,
    Lift,
    NegDistance,
    Riesz,
    Scale,
    Sum,
    _sq_dist,
    as_points,
    bound_estimate,
    build_kernel,
    gram_blocks,
    kernel_from_callable,
    kernel_zoo,
    spec_from_json,
    spec_to_json,
    symmetry_check,
)

A_PSD = ((2.0, 1.0), (1.0, 2.0))
A_CONJ = ((1.0, 2.0), (0.0, 1.0), (1.0, -1.0))
I3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def test_gaussian_value():
    k = build_kernel(Gaussian(1.0))
    assert k(0.0, 1.0)[0, 0] == pytest.approx(np.exp(-1.0))
    assert k(0.3, 0.3)[0, 0] == 1.0


def test_riesz_values():
    k = build_kernel(Riesz(1.0, 0.0), allow_unbounded=True)
    assert k(0.0, 0.5)[0, 0] == pytest.approx(2.0)
    assert np.isinf(k(0.5, 0.5)[0, 0])
    kr = build_kernel(Riesz(2.0, 0.5))
    assert kr(0.0, 0.5)[0, 0] == pytest.approx(1.0)
    assert kr(0.5, 0.5)[0, 0] == pytest.approx(4.0)


def test_riesz_unbounded_needs_opt_in():
    with pytest.raises(ValueError, match="unbounded"):
        build_kernel(Riesz(1.0, 0.0))
    with pytest.raises(ValueError):
        build_kernel(Riesz(-1.0, 0.1))
    with pytest.raises(ValueError):
        build_kernel(Riesz(1.0, -0.1))


def test_brownian_min_and_dimension_guard():
    k = build_kernel(Brownian())
    assert k(0.3, 0.7)[0, 0] == 0.3
    assert k(0.7, 0.3)[0, 0] == 0.3
    with pytest.raises(ValueError, match="1-dimensional"):
        k(np.array([0.1, 0.2]), np.array([0.3, 0.4]))


def test_sum_example():
    k = build_kernel(Sum((Gaussian(1.0), Constant(1.0))))
    assert k(0.0, 1.0)[0, 0] == pytest.approx(1.0 + np.exp(-1.0))


def test_neg_distance_and_constant():
    k = build_kernel(NegDistance())
    assert k(np.array([0.0, 0.0]), np.array([3.0, 4.0]))[0, 0] == pytest.approx(-5.0)
    kc = build_kernel(Constant(2.5))
    assert kc(0.1, 0.9)[0, 0] == 2.5


def test_lift_value_and_validation():
    k = build_kernel(Lift(Gaussian(1.0), A_PSD))
    assert k.output_dim == 2
    assert_allclose(k(0.0, 1.0), np.exp(-1.0) * np.array(A_PSD))
    with pytest.raises(ValueError, match="positive semidefinite"):
        build_kernel(Lift(Gaussian(1.0), ((0.0, 1.0), (1.0, 0.0))))
    with pytest.raises(ValueError, match="square"):
        build_kernel(Lift(Gaussian(1.0), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))))
    with pytest.raises(ValueError, match="symmetric"):
        build_kernel(Lift(Gaussian(1.0), ((1.0, 0.5), (0.0, 1.0))))
    with pytest.raises(ValueError, match="scalar"):
        build_kernel(Lift(Lift(Gaussian(1.0), A_PSD), A_PSD))


def test_conjugate_matches_manual():
    B = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, -1.0]])
    k = build_kernel(Conjugate(Lift(Gaussian(0.7), A_PSD), tuple(map(tuple, B))))
    assert k.output_dim == 3
    inner = np.exp(-0.7 * 0.25) * np.array(A_PSD)
    assert_allclose(k(0.0, 0.5), B @ inner @ B.T, rtol=1e-15)
    with pytest.raises(ValueError, match="columns"):
        build_kernel(Conjugate(Gaussian(1.0), tuple(map(tuple, B))))


def test_scale_and_blockdiag():
    k = build_kernel(Scale(2.0, Gaussian(1.0)))
    assert k(0.0, 1.0)[0, 0] == pytest.approx(2 * np.exp(-1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        build_kernel(Scale(-1.0, Gaussian(1.0)))
    kb = build_kernel(BlockDiag((Gaussian(1.0), Constant(3.0))))
    v = kb(0.0, 1.0)
    assert v.shape == (2, 2)
    assert v[0, 0] == pytest.approx(np.exp(-1.0))
    assert v[1, 1] == 3.0
    assert v[0, 1] == v[1, 0] == 0.0


def test_sum_dimension_mismatch():
    with pytest.raises(ValueError, match="share one output size"):
        build_kernel(Sum((Gaussian(1.0), Lift(Gaussian(1.0), A_PSD))))


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        build_kernel(Gaussian(0.0))


CONJ = Conjugate(Lift(Gaussian(1.5), A_PSD), A_CONJ)
EIGHT_BLOCKS = BlockDiag((Gaussian(1.0), Riesz(1.0, 0.1), NegDistance(), Constant(0.5),
                          Gaussian(3.0), Riesz(0.5, 0.3), Lift(Gaussian(0.2), ((1.0,),)),
                          Scale(2.0, Gaussian(0.7))))
B_9x8 = tuple(map(tuple, np.random.default_rng(1).uniform(-1.0, 1.0, size=(9, 8))))

# The zoo plus conjugations nested in every combinator, down to N = 1.
SYMMETRY_CASES = [(e.name, e.spec, e.needs_1d) for e in kernel_zoo()] + [
    ("conjugate_to_scalar", Conjugate(Lift(Gaussian(1.0), A_PSD), ((1.0, 1.0),)), False),
    ("conjugate_of_conjugate", Conjugate(CONJ, ((1.0, -2.0, 0.5), (0.3, 1.0, 1.0))), False),
    ("sum_around_conjugate", Sum((CONJ, Lift(Constant(1.0), I3), CONJ)), False),
    ("scale_around_conjugate", Scale(0.3, CONJ), False),
    ("block_diag_around_conjugate", BlockDiag((CONJ, Brownian(), CONJ)), True),
    ("conjugate_9x8_of_block_diag", Conjugate(EIGHT_BLOCKS, B_9x8), False),
]
SYMMETRY_INPUTS = [pytest.param(spec, d, id=name if d == 1 else f"{name}-2d")
                   for name, spec, needs_1d in SYMMETRY_CASES
                   for d in (1, 2) if d == 1 or not needs_1d]


@pytest.mark.parametrize("spec,d", SYMMETRY_INPUTS)
def test_transpose_symmetry_bitwise(spec, d):
    k = build_kernel(spec, allow_unbounded=True)
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, size=(40, d))
    Y = rng.uniform(0, 1, size=(40, d))
    Y[::10] = X[::10]
    KXY = k.eval_pairs(X, Y)
    KYX = k.eval_pairs(Y, X)
    # bit-exact, not just close: every node is transpose symmetric by construction
    assert np.array_equal(KXY, np.transpose(KYX, (0, 2, 1)))
    assert symmetry_check(k, X, Y) == 0.0
    KXX = KXY[::10]
    assert np.array_equal(KXX, np.transpose(KXX, (0, 2, 1)))


@pytest.mark.parametrize("spec,d", SYMMETRY_INPUTS)
def test_gram_blocks_exactly_symmetric(spec, d):
    k = build_kernel(spec, allow_unbounded=True)
    rng = np.random.default_rng(3)
    n = 10
    P = rng.uniform(0, 1, size=(n, d))
    P[7] = P[2]
    G = gram_blocks(k, P)
    N = k.output_dim
    flat = G.transpose(0, 2, 1, 3).reshape(n * N, n * N)
    assert np.array_equal(flat, flat.T)


def _conjugates(spec):
    """Every Conjugate node of a kernel expression."""
    subs = [getattr(spec, f.name) for f in fields(spec) if f.type == "KernelSpec"]
    subs += [s for f in fields(spec) if f.type == "Specs" for s in getattr(spec, f.name)]
    own = [spec] if isinstance(spec, Conjugate) else []
    return own + [c for s in subs for c in _conjugates(s)]


def _mean_of_products(spec, X, Y):
    """A kernel's values with every Conjugate evaluated as the mean of (B K) B^T
    and B (K B^T), and a bound on the sum of the absolute values of the terms."""
    if not isinstance(spec, Conjugate):
        K = build_kernel(spec, allow_unbounded=True).eval_pairs(X, Y)
        return K, np.abs(K)
    K, mag = _mean_of_products(spec.inner, X, Y)
    B = np.array(spec.matrix)
    return 0.5 * ((B @ K) @ B.T + B @ (K @ B.T)), np.abs(B) @ mag @ np.abs(B).T


# Each distinct Conjugate node of SYMMETRY_CASES, named after the first case
# that holds it (with its depth-first index there when it is not the root).
CONJUGATE_CASES = {}
for case, spec, _ in SYMMETRY_CASES:
    for i, c in enumerate(_conjugates(spec)):
        if c not in CONJUGATE_CASES.values():
            CONJUGATE_CASES[f"{case}-{i}" if i else case] = c


@pytest.mark.parametrize("name", CONJUGATE_CASES)
def test_conjugate_agrees_with_the_mean_of_two_products(name):
    spec = CONJUGATE_CASES[name]
    rng = np.random.default_rng(13)
    X = rng.uniform(0, 1, size=(200, 1))
    Y = rng.uniform(0, 1, size=(200, 1))
    got = build_kernel(spec).eval_pairs(X, Y)
    ref, mag = _mean_of_products(spec, X, Y)
    assert np.all(np.abs(got - ref) <= 8 * np.finfo(float).eps * mag)


def test_eval_pairwise_matches_single_calls():
    k = build_kernel(Lift(Gaussian(0.5), A_PSD))
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(4, 2))
    Y = rng.uniform(size=(3, 2))
    full = k.eval_pairwise(X, Y)
    for i in range(4):
        for j in range(3):
            assert_allclose(full[i, j], k(X[i], Y[j]), rtol=0, atol=0)
    with pytest.raises(ValueError, match="points of one dimension"):
        k.eval_pairwise(X, Y[:, :1])


def test_lipschitz_spot_check():
    # gaussian and brownian leaves are 1-Lipschitz-ish on [0,1]
    for spec, L in ((Gaussian(1.0), 2.0), (Brownian(), 1.0)):
        k = build_kernel(spec)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = rng.uniform(0, 1, size=2)
            h = rng.uniform(0, 1e-3)
            dev = abs(k(x + h, y)[0, 0] - k(x, y)[0, 0])
            assert dev <= L * h + 1e-15


def test_bound_estimate_examples():
    grid = np.linspace(0, 1, 9).reshape(-1, 1)
    assert bound_estimate(build_kernel(Gaussian(1.0)), grid) == pytest.approx(1.0)
    assert bound_estimate(build_kernel(Constant(-2.0)), grid) == pytest.approx(2.0)
    ones2 = ((1.0, 1.0), (1.0, 1.0))
    assert bound_estimate(build_kernel(Lift(Constant(1.0), ones2)), grid) == pytest.approx(2.0)


def test_json_roundtrip_all_zoo():
    for entry in kernel_zoo():
        doc = spec_to_json(entry.spec)
        assert spec_from_json(doc) == entry.spec


def test_json_lift_schema():
    doc = {"lift": {"scalar": {"gaussian": 1.0}, "matrix": [[2, 1], [1, 2]]}}
    spec = spec_from_json(doc)
    assert spec == Lift(Gaussian(1.0), ((2.0, 1.0), (1.0, 2.0)))
    assert spec_to_json(spec) == {
        "lift": {"scalar": {"gaussian": 1.0}, "matrix": [[2.0, 1.0], [1.0, 2.0]]}
    }


def test_json_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel family"):
        spec_from_json({"laplace": 1.0})
    with pytest.raises(ValueError, match="exactly one key"):
        spec_from_json({"gaussian": 1.0, "constant": 2.0})


@pytest.mark.parametrize("doc,message", [
    ({"riesz": 1.0}, "riesz expects an object with fields s, eta"),
    ({"lift": [1]}, "lift expects an object with fields scalar, matrix"),
    ({"brownian": 1}, "brownian expects an object with no fields"),
    ({"riesz": {"s": 1, "eat": 0.1}}, "riesz has no field 'eat'"),
    ({"riesz": {"eta": 0.1}}, "riesz is missing the field 's'"),
    ({"gaussian": [1.0]}, "gaussian expects a number for gamma"),
    ({"lift": {"scalar": {"gaussian": 1}, "matrix": [1, 2]}}, "lift expects a matrix"),
    ({"sum": {"gaussian": 1}}, "sum expects a list of kernel expressions"),
    ({"gaussian": True}, "gaussian expects a number for gamma"),
    ({"gaussian": "0.5"}, "gaussian expects a number for gamma"),
    ({"lift": {"scalar": {"gaussian": 1}, "matrix": [[1, False], [False, 1]]}},
     "lift expects a matrix"),
])
def test_json_rejects_malformed_node(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_json(doc)


@pytest.mark.parametrize("spec,message", [
    (Constant(float("nan")), "constant c must be finite"),
    (Gaussian(float("inf")), "gaussian gamma must be finite"),
    (Riesz(float("inf"), 0.1), "riesz s must be finite"),
    (Riesz(1.0, float("nan")), "riesz eta must be finite"),
    (Scale(float("inf"), Gaussian(1.0)), "scale factor must be finite"),
    (Lift(Gaussian(1.0), ((1.0, float("nan")), (float("nan"), 1.0))), "lift matrix must be finite"),
    (Conjugate(Gaussian(1.0), ((float("inf"),),)), "conjugate matrix must be finite"),
    (Sum((Gaussian(1.0), Constant(float("-inf")))), "constant c must be finite"),
])
def test_non_finite_parameters_rejected(spec, message):
    with pytest.raises(ValueError, match=message):
        build_kernel(spec, allow_unbounded=True)
    with pytest.raises(ValueError, match=message):
        build_kernel(spec_from_json(json.loads(json.dumps(spec_to_json(spec)))),
                     allow_unbounded=True)


def test_kernel_from_callable():
    k = kernel_from_callable(
        lambda x, y: np.array([[float(x[0] * y[0])]]), output_dim=1, name="xy"
    )
    assert k(2.0, 3.0)[0, 0] == 6.0
    # an asymmetric callable is reported, not silently fixed
    ka = kernel_from_callable(lambda x, y: np.array([[float(x[0] - y[0])]]), 1)
    X = np.array([[0.0]])
    Y = np.array([[1.0]])
    assert symmetry_check(ka, X, Y) == pytest.approx(2.0)


def test_zoo_contents():
    zoo = kernel_zoo()
    assert len(zoo) >= 8
    names = [e.name for e in zoo]
    assert len(set(names)) == len(names)
    assert sum(not e.is_pd for e in zoo) == 1


PINNED = [
    (Gaussian(1), "gaussian", '{"gaussian": 1}'),
    (Gaussian(0.5), "gaussian", '{"gaussian": 0.5}'),
    (Riesz(1.0, 0.1), "riesz", '{"riesz": {"s": 1.0, "eta": 0.1}}'),
    (spec_from_json({"riesz": {"s": 1.5}}), "riesz", '{"riesz": {"s": 1.5, "eta": 0.0}}'),
    (Brownian(), "brownian", '{"brownian": {}}'),
    (NegDistance(), "neg_distance", '{"neg_distance": {}}'),
    (Constant(2.5), "constant", '{"constant": 2.5}'),
    (Lift(Gaussian(1.0), ((2, 1), (1, 2))), "lift(gaussian)",
     '{"lift": {"scalar": {"gaussian": 1.0}, "matrix": [[2.0, 1.0], [1.0, 2.0]]}}'),
    (Conjugate(Lift(Gaussian(1.5), A_PSD), A_CONJ), "conjugate(lift(gaussian))",
     '{"conjugate": {"inner": {"lift": {"scalar": {"gaussian": 1.5}, "matrix": [[2.0, 1.0], '
     '[1.0, 2.0]]}}, "matrix": [[1.0, 2.0], [0.0, 1.0], [1.0, -1.0]]}}'),
    (Sum((Gaussian(1.0), Constant(1.0))), "sum(gaussian,constant)",
     '{"sum": [{"gaussian": 1.0}, {"constant": 1.0}]}'),
    (Scale(2.0, Gaussian(1.0)), "scale(gaussian)",
     '{"scale": {"factor": 2.0, "inner": {"gaussian": 1.0}}}'),
    (BlockDiag((Gaussian(1.0), Brownian(), Constant(0.5))),
     "block_diag(gaussian,brownian,constant)",
     '{"block_diag": [{"gaussian": 1.0}, {"brownian": {}}, {"constant": 0.5}]}'),
    (Sum((Scale(0.5, BlockDiag((Riesz(1.0, 0.2), Constant(1.0)))), Lift(Gaussian(2.0), A_PSD))),
     "sum(scale(block_diag(riesz,constant)),lift(gaussian))",
     '{"sum": [{"scale": {"factor": 0.5, "inner": {"block_diag": '
     '[{"riesz": {"s": 1.0, "eta": 0.2}}, {"constant": 1.0}]}}}, '
     '{"lift": {"scalar": {"gaussian": 2.0}, "matrix": [[2.0, 1.0], [1.0, 2.0]]}}]}'),
]


@pytest.mark.parametrize("spec,name,text", PINNED,
                         ids=[f"{i}-{row[1]}" for i, row in enumerate(PINNED)])
def test_spec_name_and_json_text_pinned(spec, name, text):
    assert build_kernel(spec, allow_unbounded=True).name == name
    assert json.dumps(spec_to_json(spec)) == text
    assert spec_from_json(json.loads(text)) == spec


def test_as_points_reads_rows_and_rejects_other_shapes():
    assert as_points([0.1, 0.9], "x").tolist() == [[0.1], [0.9]]
    assert as_points([[0.1, 0.9]], "x").tolist() == [[0.1, 0.9]]
    assert as_points([], "x").shape == (0, 1)
    with pytest.raises(ValueError, match=r"^the centers must list points, one per row; "
                                         r"got shape \(\)$"):
        as_points(0.5, "the centers")
    with pytest.raises(ValueError, match=r"^x must list points.*got shape \(1, 1, 1\)$"):
        as_points([[[0.5]]], "x")
    with pytest.raises(ValueError, match=r"^the centers must have at least one coordinate; "
                                         r"got shape \(2, 0\)$"):
        as_points(np.zeros((2, 0)), "the centers")
    k = build_kernel(Gaussian(1.0))
    with pytest.raises(ValueError, match="points must list points"):
        k.eval_pairs(0.5, 0.5)
    for k in (k, build_kernel(NegDistance())):
        with pytest.raises(ValueError, match="^points must have at least one coordinate"):
            k.eval_pairs(np.zeros((3, 0)), np.zeros((3, 0)))


def _sq_dist_cases(d):
    """Paired points and the broadcast Gram shapes (n, 1, d) against (1, n, d)."""
    rng = np.random.default_rng(d)
    X = rng.normal(size=(200, d)) * 10.0 ** rng.integers(-3, 4, size=(200, d))
    Y = rng.normal(size=(200, d))
    return [(X, Y), (X[:40, None, :], X[None, :40, :]), (X[:30, None, :], Y[None, :25, :])]


@pytest.mark.parametrize("d", range(1, 8))
def test_sq_dist_is_numpys_sum_and_norm_bit_for_bit(d):
    for X, Y in _sq_dist_cases(d):
        s = _sq_dist(X, Y)
        assert s.tobytes() == ((X - Y) ** 2).sum(-1).tobytes()
        assert np.sqrt(s).tobytes() == np.linalg.norm(X - Y, axis=-1).tobytes()


def test_sq_dist_is_transpose_symmetric_past_numpys_pairwise_sum():
    X, _ = _sq_dist_cases(9)[0]
    S = _sq_dist(X[:, None, :], X[None, :, :])
    assert S.tobytes() == S.T.copy().tobytes()
    assert_allclose(S, ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1), rtol=1e-14)
