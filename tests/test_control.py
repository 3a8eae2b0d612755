import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.applications.control import (
    assemble_control_qp,
    qp_objective,
    refine_partition_study,
    solve_control_qp,
    solve_qp,
)
from mkernel.kernels import Constant, Gaussian, Lift, NegDistance, build_kernel


def test_two_cell_constant_hessian():
    qp = assemble_control_qp(build_kernel(Constant(1.0)), [0.0, 0.5, 1.0], np.zeros(2))
    assert_allclose(qp.H, np.full((2, 2), 0.25), rtol=0, atol=0)
    assert_allclose(qp.midpoints, [0.25, 0.75])
    assert_allclose(qp.widths, [0.5, 0.5])
    assert qp.block_dim == 1


def test_hessian_symmetric_and_scaled():
    k = build_kernel(Lift(Gaussian(1.0), ((2.0, 1.0), (1.0, 2.0))))
    qp = assemble_control_qp(k, [0.0, 0.3, 1.0], np.zeros(2))
    assert qp.H.shape == (4, 4)
    assert np.array_equal(qp.H, qp.H.T)
    # block (0, 1) is K(m0, m1) * w0 * w1
    expect = k(np.array([0.15]), np.array([0.65])) * 0.3 * 0.7
    assert_allclose(qp.H[0:2, 2:4], expect, rtol=1e-14)


def test_linear_term_forms_agree():
    k = build_kernel(Gaussian(1.0))
    bp = [0.0, 0.25, 1.0]
    const = assemble_control_qp(k, bp, np.array([2.0])).b
    func = assemble_control_qp(k, bp, lambda t: np.array([2.0])).b
    full = assemble_control_qp(k, bp, np.array([0.5, 1.5])).b
    assert_allclose(const, [0.5, 1.5], rtol=1e-14)
    assert_allclose(func, const, rtol=1e-12)
    assert_allclose(full, [0.5, 1.5], rtol=0, atol=0)


def test_gauss_quadrature_integrates_polynomials():
    k = build_kernel(Gaussian(1.0))
    qp = assemble_control_qp(k, [0.0, 1.0], lambda t: np.array([t**3]))
    assert qp.b[0] == pytest.approx(0.25, rel=1e-13)


def test_bad_breakpoints():
    k = build_kernel(Gaussian(1.0))
    with pytest.raises(ValueError, match="increasing"):
        assemble_control_qp(k, [0.0, 0.5, 0.5], np.array([1.0]))
    with pytest.raises(ValueError, match="increasing"):
        assemble_control_qp(k, [0.0], np.array([1.0]))


def test_bad_linear_shape():
    k = build_kernel(Gaussian(1.0))
    with pytest.raises(ValueError, match="linear term"):
        assemble_control_qp(k, [0.0, 0.5, 1.0], np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_b_rejected(bad):
    with pytest.raises(ValueError, match=r"non-finite value .* in b at index \(1,\)"):
        solve_qp(np.eye(2), np.array([1.0, bad]))
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0, got -0.5"):
        solve_qp(np.eye(2), np.ones(2), tolerance=-0.5)


def test_identity_qp_closed_form():
    sol = solve_qp(np.eye(2), np.array([-2.0, -2.0]))
    assert sol.status == "minimum"
    assert_allclose(sol.v, [1.0, 1.0], rtol=1e-12)
    assert sol.value == pytest.approx(-2.0)
    assert sol.residual <= 1e-12
    assert not sol.unbounded


def test_negative_eigenvalue_certifies_unbounded():
    H = np.diag([1.0, -0.5])
    b = np.array([0.0, 1.0])
    sol = solve_qp(H, b)
    assert sol.unbounded and sol.value == -np.inf
    d = sol.direction
    assert b @ d <= 0
    # marching along d drives the objective down
    vals = [qp_objective(H, b, c * d) for c in (1.0, 2.0, 4.0)]
    assert vals[0] > vals[1] > vals[2]
    assert sol.to_json()["value"] is None


def test_b_outside_range_certifies_unbounded():
    H = np.diag([1.0, 0.0])
    b = np.array([0.0, 1.0])
    sol = solve_qp(H, b)
    assert sol.unbounded
    d = sol.direction
    # linear descent: H d = 0 and b^T d < 0
    assert_allclose(H @ d, np.zeros(2), atol=1e-14)
    assert b @ d < 0


def test_singular_but_consistent_qp():
    H = np.diag([1.0, 0.0])
    b = np.array([-2.0, 0.0])
    sol = solve_qp(H, b)
    assert sol.status == "minimum"
    assert_allclose(sol.v, [1.0, 0.0], atol=1e-12)
    assert sol.value == pytest.approx(-1.0)


def test_zero_hessian_zero_b():
    sol = solve_qp(np.zeros((2, 2)), np.zeros(2))
    assert sol.status == "minimum"
    assert sol.value == pytest.approx(0.0)
    assert_allclose(sol.v, np.zeros(2), atol=0)


def test_gaussian_control_refinement_non_increasing():
    k = build_kernel(Gaussian(1.0))
    parts = [np.linspace(0, 1, m + 1) for m in (2, 4, 8)]
    rep = refine_partition_study(k, parts, np.array([-2.0]))
    assert rep.non_increasing
    assert all(s.status == "minimum" for s in rep.solutions)
    vals = rep.values
    assert vals == sorted(vals, reverse=True)
    expected = [-1.1243530017715961, -1.5785115599926998, -2.2389940122266014]
    assert_allclose(vals, expected, rtol=1e-9)


def _mp_objective(H, b, v, digits=50):
    """v^T H v + b^T v at the given floats, summed with mpmath."""
    import mpmath

    with mpmath.workdps(digits):
        mpf = mpmath.mpf
        hv = [mpmath.fsum(mpf(h) * mpf(x) for h, x in zip(row, v)) for row in H.tolist()]
        return mpmath.fsum(mpf(x) * (y + mpf(c)) for x, y, c in zip(v.tolist(), hv, b.tolist()))


def test_gaussian_control_value_is_the_objective_at_v():
    pytest.importorskip("mpmath")
    # cond(H) is about 1.7e11 and |v| about 4.5e4: a floating-point sum of
    # v^T H v + b^T v cancels nine digits
    qp = assemble_control_qp(build_kernel(Gaussian(1.0)), np.linspace(0, 1, 9), np.array([-2.0]))
    H, b = qp.H, qp.b
    evals, evecs = np.linalg.eigh(H)

    def half_solve(r):
        return 0.5 * (evecs @ ((evecs.T @ r) / evals))

    v = -half_solve(b)
    for _ in range(4):  # the value at v after 1, 2, 3 and 4 refinement steps
        v = v - half_solve(2.0 * (H @ v) + b)
        exact = float(_mp_objective(H, b, v))
        assert abs(qp_objective(H, b, v) - exact) <= 1e-14 * abs(exact)
    sol = solve_qp(H, b)
    exact = float(_mp_objective(H, b, sol.v))
    assert abs(sol.value - exact) <= 1e-14 * abs(exact)


def test_lift_control_refinement():
    k = build_kernel(Lift(Gaussian(2.0), ((2.0, 1.0), (1.0, 2.0))))
    parts = [np.linspace(0, 1, m + 1) for m in (2, 4, 8)]
    rep = refine_partition_study(k, parts, np.array([1.0, -1.0]))
    assert rep.non_increasing
    assert all(np.isfinite(v) for v in rep.values)


def test_neg_distance_control_unbounded():
    k = build_kernel(NegDistance())
    qp = assemble_control_qp(k, np.linspace(0, 1, 5), np.array([1.0]))
    sol = solve_control_qp(qp)
    assert sol.unbounded
    d = sol.direction
    vals = [qp_objective(qp.H, qp.b, c * d) for c in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


GAUSS_LIFT = Lift(Gaussian(2.0), ((2.0, 1.0), (1.0, 2.0)))
EXACT_NULL_LIFT = Lift(Gaussian(1.0), ((1.0, 1.0), (1.0, 1.0)))
DYADIC = [np.linspace(0, 1, m + 1) for m in (2, 4, 8, 16, 32, 64, 128)]


@pytest.mark.parametrize("spec,beta", [
    (Gaussian(1.0), [-2.0]),
    (Gaussian(1.0), [1.0]),
    (GAUSS_LIFT, [1.0, -1.0]),
])
def test_pd_control_refinement_has_finite_minima(spec, beta):
    # Past 8 cells these Hessians are singular to working precision; b's
    # component in their numerical null space is rounding noise, not a
    # certificate of unboundedness.
    rep = refine_partition_study(build_kernel(spec), DYADIC, np.array(beta))
    assert [s.status for s in rep.solutions] == ["minimum"] * len(DYADIC)
    assert all(s.hessian.certified for s in rep.solutions)
    assert rep.non_increasing


@pytest.mark.parametrize("cells", [2, 4, 8, 16, 32, 64])
def test_exact_null_space_stays_unbounded(cells):
    # K = g (x) 11^T annihilates (1, -1) in every cell, and b is made of those vectors
    qp = assemble_control_qp(build_kernel(EXACT_NULL_LIFT), np.linspace(0, 1, cells + 1),
                             np.array([1.0, -1.0]))
    sol = solve_control_qp(qp)
    assert sol.unbounded and sol.hessian.certified
    assert np.linalg.norm(qp.H @ sol.direction) <= 1e-15
    assert qp.b @ sol.direction < 0


def test_refinement_requires_nesting():
    k = build_kernel(Gaussian(1.0))
    with pytest.raises(ValueError, match="nested"):
        refine_partition_study(k, [[0.0, 0.5, 1.0], [0.0, 0.4, 1.0]], np.array([1.0]))


def test_refinement_rejects_precomputed_vector():
    k = build_kernel(Gaussian(1.0))
    parts = [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]]
    with pytest.raises(ValueError, match="fixed function"):
        refine_partition_study(k, parts, np.array([1.0, 2.0]))


def test_report_json_none_for_unbounded():
    k = build_kernel(NegDistance())
    parts = [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]]
    rep = refine_partition_study(k, parts, np.array([1.0]))
    doc = rep.to_json()
    assert doc["values"] == [None, None]
    assert doc["statuses"] == ["unbounded", "unbounded"]


def test_singular_psd_solve_emits_no_warning():
    # H = 1 1^T is singular and b lies in its range: min (s^2 + s) = -1/4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_qp(np.ones((2, 2)), np.ones(2))
    assert sol.status == "minimum"
    assert sol.value == pytest.approx(-0.25, abs=1e-14)
    assert_allclose(sol.v, [-0.25, -0.25], atol=1e-14)
