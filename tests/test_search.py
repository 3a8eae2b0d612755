"""The random witness search, decided in stacks, against its one-trial-at-a-time oracle.

`random_search_witness` draws the sizes of all its trials in one call and
their points in one `domain.sample` call, and decides the Grams of each size
as one stack, by the rules `certify_psd` applies to a stack of one; once a
stack ends the search at some trial, the later stacks are evaluated only on
the trials before it. Only the first Gram of a stack that fails is solved
again with eigenvectors. It takes the witness of the trial that ends it from
the factors its stack holds. Its `SearchReport`, and the harness report built on
it, must equal byte for byte what `oracles.random_search_oracle` (one
`certify_psd` of one assembled Gram per trial) gives, and each trial's kernel
is evaluated at most once.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import random_search_oracle
from test_separable import SPECS

import mkernel.certify as certify
import mkernel.integral as integral
from mkernel.certify import random_search_witness
from mkernel.domains import Box, Circle, make_measure
from mkernel.integral import equivalence_harness
from mkernel.kernels import (
    BlockDiag,
    Brownian,
    Conjugate,
    Gaussian,
    Lift,
    NegDistance,
    Riesz,
    Scale,
    Sum,
    build_kernel,
    kernel_from_callable,
    kernel_zoo,
)

LINE = Box([0.0], [1.0])
MEASURE = make_measure(LINE, "trapezoid", 257)
ZOO = {e.name: build_kernel(e.spec) for e in kernel_zoo()}


def _json(report) -> str:
    return json.dumps(report.to_json())


def _assert_matches_oracle(kernel, domain, **kw):
    got = random_search_witness(kernel, domain, **kw)
    assert _json(got) == _json(random_search_oracle(kernel, domain, **kw))
    return got


@pytest.mark.parametrize("name", ZOO)
def test_zoo_search_and_harness_match_the_oracle(name, monkeypatch):
    kernel = ZOO[name]
    harness = [_json(equivalence_harness(kernel, MEASURE, seed=s)) for s in range(10)]
    for seed in range(10):
        _assert_matches_oracle(kernel, LINE, seed=seed)
    monkeypatch.setattr(integral, "random_search_witness", random_search_oracle)
    assert harness == [_json(equivalence_harness(kernel, MEASURE, seed=s)) for s in range(10)]


@pytest.mark.parametrize("domain", [Box([-1.0, 0.0], [1.0, 2.0]), Circle(1.5)],
                         ids=["box2", "circle"])
@pytest.mark.parametrize("n_range", [(1, 1), (3, 12)])
@pytest.mark.parametrize("trials", [1, 7, 200])
def test_plane_domains_sizes_and_trial_counts_match_the_oracle(domain, n_range, trials):
    for spec in (Gaussian(2.0), NegDistance()):
        _assert_matches_oracle(build_kernel(spec), domain, trials=trials, n_range=n_range)


# a dense Conjugate (its inner kernel is a Sum), an asymmetric callable that
# takes the symmetrization path, a kernel refuted late (trials 20, 151, 74,
# 38, 14, 84, 112, 103, 40, 158 for seeds 0-9), and a two-term kernel whose
# first failing trial of a stack is solved again with eigenvectors on both terms
SPECIAL = {
    "dense_conjugate": build_kernel(Conjugate(
        Sum((Lift(Gaussian(1.0), ((2.0, 1.0), (1.0, 2.0))),
             Lift(Brownian(), ((1.0, 0.0), (0.0, 0.5))))),
        ((1.0, 2.0), (0.5, -1.0), (0.0, 1.0)))),
    "asymmetric_callable": kernel_from_callable(
        lambda x, y: np.exp(-np.sum((x - y) ** 2)) + 0.01 * (x[0] - y[0]), 1, "asym"),
    "refuted_late": build_kernel(Sum((Scale(0.5, Gaussian(0.1)), NegDistance()))),
    "block_diag_neg": build_kernel(BlockDiag((Gaussian(1.0), NegDistance()))),
}


@pytest.mark.parametrize("name", SPECIAL)
def test_special_kernels_match_the_oracle(name):
    found = [_assert_matches_oracle(SPECIAL[name], LINE, seed=s).trials for s in range(10)]
    if name == "refuted_late":
        assert found == [20, 151, 74, 38, 14, 84, 112, 103, 40, 158]


def test_large_point_sets_are_left_to_certify_psd():
    for spec in (Gaussian(1.0), Riesz(1.0, 0.1), NegDistance()):
        _assert_matches_oracle(build_kernel(spec), LINE, trials=5, n_range=(60, 70))


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(SPECS, st.integers(0, 9))
def test_generated_structured_kernels_match_the_oracle(spec, seed):
    _assert_matches_oracle(build_kernel(spec), LINE, seed=seed)


def test_a_trial_the_stack_fails_is_solved_again_with_eigenvectors(monkeypatch):
    kernel = ZOO["gaussian"]
    expected = _json(random_search_oracle(kernel, LINE, seed=4))
    real_eigvalsh, real_eigh = np.linalg.eigvalsh, np.linalg.eigh
    real_certify = certify.certify_psd
    pushed, resolved, exact_calls = [], [], []

    def eigvalsh(a, *args, **kwargs):
        lam = real_eigvalsh(a, *args, **kwargs)
        if len(lam) > 1 and not pushed:  # the first stack of several: its first Grams fail
            lam[:k, 0] = -1.0
            pushed.extend(np.array(a[:k]))
        return lam

    def eigh(a, *args, **kwargs):
        resolved.append(np.array(a))
        return real_eigh(a, *args, **kwargs)

    def certify_psd(*args, **kwargs):
        exact_calls.append(1)
        return real_certify(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(certify, "certify_psd", certify_psd)
    # one Gram pushed: one eigh, of that Gram's factor as the stack holds it,
    # and no second decision; two: the first passes on its eigh, so the
    # second, now the first that fails, is solved on the loop's second turn
    for k in (1, 2):
        pushed.clear()
        resolved.clear()
        assert _json(random_search_witness(kernel, LINE, seed=4)) == expected
        assert len(pushed) == k and len(resolved) == k and not exact_calls
        for got, want in zip(resolved, pushed):
            assert np.array_equal(got.reshape(want.shape), want)


def test_a_refuted_search_solves_only_the_gram_that_ends_it(monkeypatch):
    # neg_distance fails almost every Gram of two or more points, yet only the
    # first that fails, the one whose witness is reported, gets eigenvectors
    kernel, real_eigh, shapes = ZOO["neg_distance"], np.linalg.eigh, []
    expected = [_json(random_search_oracle(kernel, LINE, seed=s)) for s in range(10)]

    def eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for seed in range(10):
        shapes.clear()
        report = random_search_witness(kernel, LINE, trials=200, seed=seed)
        assert _json(report) == expected[seed]
        n = len(report.witness.points)
        assert report.found and n > 1 and shapes == [(n, n)]


def test_signed_zero_margins_report_the_first_seen():
    # a zero kernel whose sign bit follows the first point: every margin is
    # 0.0 or -0.0, and the least is the first seen, as a trial-by-trial min
    # keeps it; a reduction over the margins may take either
    kernel = kernel_from_callable(lambda x, y: np.copysign(0.0, x[0] - 0.5), 1, "signed_zero")
    margins = [_assert_matches_oracle(kernel, LINE, seed=s).min_margin for s in range(10)]
    assert all(m == 0.0 for m in margins)
    assert {np.copysign(1.0, m) for m in margins} == {1.0, -1.0}


def test_a_pd_search_solves_few_stacks_and_no_single_gram(monkeypatch):
    real_eigvalsh, real_certify = np.linalg.eigvalsh, certify.certify_psd
    real_cholesky, real_least_pair = np.linalg.cholesky, certify._least_pair
    solves, exact_calls, factorisations, pre_tests = [], [], [], []

    def eigvalsh(*args, **kwargs):
        solves.append(1)
        return real_eigvalsh(*args, **kwargs)

    def certify_psd(*args, **kwargs):
        exact_calls.append(1)
        return real_certify(*args, **kwargs)

    def cholesky(*args, **kwargs):
        factorisations.append(1)
        return real_cholesky(*args, **kwargs)

    def least_pair(*args, **kwargs):
        pre_tests.append(1)
        return real_least_pair(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(certify, "certify_psd", certify_psd)
    monkeypatch.setattr(certify, "_least_pair", least_pair)
    report = random_search_witness(ZOO["gaussian"], LINE, trials=200, seed=0)
    assert not report.found and report.trials == 200
    # at most one stack per point-set size (8 of them), not one per trial
    assert len(solves) <= 8 and not exact_calls
    # the search reports margins, so it decides by eigenvalues: it never
    # factors, and runs no 2 x 2 pre-test
    assert not factorisations and not pre_tests


def test_negative_trials_rejected():
    with pytest.raises(ValueError, match="trials must be >= 0, got -2"):
        random_search_witness(ZOO["gaussian"], LINE, trials=-2)
    with pytest.raises(ValueError, match="trials must be >= 0, got -2"):
        equivalence_harness(ZOO["gaussian"], MEASURE, trials=-2)


@pytest.mark.parametrize("tolerance", [np.nan, -0.5, np.inf])
def test_tolerance_checked_without_trials(tolerance):
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        random_search_witness(ZOO["gaussian"], LINE, trials=0, tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        equivalence_harness(ZOO["gaussian"], MEASURE, trials=0, tolerance=tolerance)


def _counted_refuted_late():
    """SPECIAL["refuted_late"] as a Python callable, and the list that each of
    its calls appends to."""
    calls = []

    def counted(x, y):
        calls.append(1)
        return SPECIAL["refuted_late"](x, y)

    return kernel_from_callable(counted, 1, "counted"), calls


def test_the_search_evaluates_each_trial_once():
    # at these seeds and trial counts the oracle's search ends at its last
    # trial, so every trial is evaluated: each Gram once, and no more
    kernel, calls = _counted_refuted_late()
    for seed, trials in ((1, 37), (6, 3)):
        calls.clear()
        report = random_search_witness(kernel, LINE, trials=trials, seed=seed)
        assert report.found and report.trials == trials
        sizes = np.random.default_rng(seed).integers(1, 9, trials)
        assert len(calls) == int((sizes**2).sum())
        assert _json(report) == _json(random_search_oracle(kernel, LINE, trials=trials, seed=seed))


def test_the_search_samples_its_points_in_one_call():
    class Spy:
        def __init__(self):
            self.calls = []

        def sample(self, rng, n):
            self.calls.append(n)
            return LINE.sample(rng, n)

    for seed, trials, n_range in ((0, 200, (1, 8)), (3, 7, (3, 12)), (5, 1, (2, 2))):
        spy = Spy()
        random_search_witness(ZOO["gaussian"], spy, trials=trials, seed=seed, n_range=n_range)
        sizes = np.random.default_rng(seed).integers(n_range[0], n_range[1] + 1, trials)
        assert spy.calls == [int(sizes.sum())]
    spy = Spy()
    random_search_witness(ZOO["gaussian"], spy, trials=0)
    assert spy.calls == []


def test_a_late_refuted_callable_is_evaluated_only_up_to_the_cut():
    # the stacks decided before the one that ends the search evaluate all their
    # trials; the stacks after it, only the trials before the one it ends at
    kernel, calls = _counted_refuted_late()
    counts = []
    for seed in range(10):
        calls.clear()
        got = _json(random_search_witness(kernel, LINE, trials=200, seed=seed))
        counts.append(len(calls))
        assert got == _json(random_search_oracle(kernel, LINE, trials=200, seed=seed))
    assert counts == [5232, 5055, 3975, 1817, 4446, 3408, 3636, 4040, 1582, 5100]


def test_a_non_finite_gram_fails_where_the_oracle_fails():
    # NaN where both points lie within 0.002 of 0.3: some seeds reach such a
    # trial before the first witness, the others find the witness first
    def nan_region(x, y):
        if abs(x[0] - 0.3) < 0.002 and abs(y[0] - 0.3) < 0.002:
            return np.nan
        return SPECIAL["refuted_late"](x, y)

    kernel = kernel_from_callable(nan_region, 1, "nan_region")
    outcomes = []
    for seed in range(10):
        results = []
        for search in (random_search_witness, random_search_oracle):
            try:
                results.append(_json(search(kernel, LINE, seed=seed)))
            except ValueError as err:
                assert str(err).startswith("non-finite value nan in matrix at index")
                results.append(str(err))
        assert results[0] == results[1]
        outcomes.append(results[0].startswith("non-finite"))
    assert any(outcomes) and not all(outcomes)


class _NanNear:
    """LINE, with every sampled point within `radius` of `centre` made NaN."""

    def __init__(self, centre, radius):
        self.centre, self.radius = centre, radius

    def sample(self, rng, n):
        P = LINE.sample(rng, n)
        P[np.abs(P - self.centre) < self.radius] = np.nan
        return P


def _outcome(search, kernel, domain, **kw):
    try:
        return _json(search(kernel, domain, **kw))
    except ValueError as err:
        return str(err)


def test_point_errors_are_the_oracles():
    # some seeds reach a non-finite point before the first witness, the others
    # find the witness first; the error names the index within the trial's set
    kernel, domain, outcomes = SPECIAL["refuted_late"], _NanNear(0.3, 0.002), []
    for seed in range(10):
        got = _outcome(random_search_witness, kernel, domain, seed=seed)
        assert got == _outcome(random_search_oracle, kernel, domain, seed=seed)
        outcomes.append(got.startswith("non-finite value nan in points at index ("))
    assert any(outcomes) and not all(outcomes)
    plane = Box([0.0, 0.0], [1.0, 1.0])
    on_line = kernel_from_callable(lambda x, y: np.exp(-(x - y) ** 2), 1, "on_line", 1)
    got = _outcome(random_search_witness, on_line, plane)
    assert got == _outcome(random_search_oracle, on_line, plane)
    assert got == "kernel 'on_line' expects 1-dimensional points, got dimension 2"
    riesz = build_kernel(Riesz(1.0, 0.0), allow_unbounded=True)
    assert "unbounded on the diagonal" in _outcome(random_search_witness, riesz, LINE, trials=1)
    assert not random_search_witness(riesz, LINE, trials=0).found
