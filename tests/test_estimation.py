import numpy as np
import pytest
from numpy.testing import assert_allclose

from mkernel.applications.estimation import (
    EstimationDataset,
    load_dataset_csv,
    objective,
    ridge_estimate,
    save_dataset_csv,
    simulate_volterra_dataset,
)

from oracles import gradient_descent_oracle


def _lower_tri_kernel(m, seed=0):
    rng = np.random.default_rng(seed)
    return np.tril(rng.normal(size=(m, m)))


def test_simulation_shapes_and_determinism():
    K = _lower_tri_kernel(6)
    a = simulate_volterra_dataset(K, 40, noise_sigma=0.1, seed=3)
    b = simulate_volterra_dataset(K, 40, noise_sigma=0.1, seed=3)
    assert a.inputs.shape == (40, 6)
    assert a.outputs.shape == (40, 6)
    assert_allclose(a.inputs, b.inputs, rtol=0, atol=0)
    assert_allclose(a.outputs, b.outputs, rtol=0, atol=0)
    assert a.noise_sigma == 0.1
    assert_allclose(a.ground_truth, K, rtol=0, atol=0)


def test_noiseless_outputs_exact():
    K = _lower_tri_kernel(4)
    ds = simulate_volterra_dataset(K, 10, noise_sigma=0.0, seed=1)
    assert_allclose(ds.outputs, ds.inputs @ K.T, rtol=0, atol=1e-15)


def test_dataset_validation():
    with pytest.raises(ValueError):
        EstimationDataset(np.zeros((3, 2)), np.zeros((4, 2)))


def test_ridge_recovers_noiseless_kernel():
    K = _lower_tri_kernel(5, seed=2)
    ds = simulate_volterra_dataset(K, 60, noise_sigma=0.0, seed=2)
    res = ridge_estimate(ds, lam=1e-10)
    rel = np.linalg.norm(res.matrix - K) / np.linalg.norm(K)
    assert rel <= 1e-6
    assert res.residual <= 1e-9
    assert res.causal is False


def test_causal_recovery_and_exact_zeros():
    K = _lower_tri_kernel(6, seed=4)
    ds = simulate_volterra_dataset(K, 80, noise_sigma=0.0, seed=4)
    res = ridge_estimate(ds, lam=1e-8, causal=True)
    rel = np.linalg.norm(res.matrix - K) / np.linalg.norm(K)
    assert rel <= 1e-6
    upper = np.triu(res.matrix, k=1)
    assert np.array_equal(upper, np.zeros_like(upper))
    assert res.causal is True


def test_causal_beats_unconstrained_never():
    # the causal feasible set is a subset, so its optimum cannot be lower
    K = _lower_tri_kernel(4, seed=5)
    ds = simulate_volterra_dataset(K, 30, noise_sigma=0.3, seed=5)
    lam = 1e-3
    free = ridge_estimate(ds, lam)
    constrained = ridge_estimate(ds, lam, causal=True)
    assert constrained.objective >= free.objective - 1e-12


def test_objective_matches_definition():
    K = _lower_tri_kernel(3, seed=6)
    ds = simulate_volterra_dataset(K, 12, noise_sigma=0.2, seed=6)
    G = np.random.default_rng(0).normal(size=(3, 3))
    lam = 0.7
    manual = 0.0
    for u, y in zip(ds.inputs, ds.outputs):
        manual += float(np.sum((y - G @ u) ** 2))
    manual += lam * float(np.sum(G**2))
    assert objective(ds, G, lam) == pytest.approx(manual, rel=1e-12)


def test_ridge_matches_gradient_descent():
    K = _lower_tri_kernel(4, seed=7)
    ds = simulate_volterra_dataset(K, 25, noise_sigma=0.1, seed=7)
    lam = 1e-2
    for causal in (False, True):
        closed = ridge_estimate(ds, lam, causal=causal)
        gd = gradient_descent_oracle(ds, lam, causal=causal)
        assert np.max(np.abs(closed.matrix - gd)) <= 1e-9
        assert objective(ds, closed.matrix, lam) <= objective(ds, gd, lam) + 1e-10


def test_lambda_must_be_positive():
    ds = simulate_volterra_dataset(np.eye(2), 5, seed=0)
    with pytest.raises(ValueError):
        ridge_estimate(ds, 0.0)
    with pytest.raises(ValueError):
        ridge_estimate(ds, -1.0)


def test_one_sample_ridge_shrinks():
    # single sample u = e1: S = e1 e1^T, C = y e1^T, K = y e1^T / (1 + lam)
    ds = EstimationDataset(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    res = ridge_estimate(ds, lam=1.0)
    assert res.matrix[0, 0] == pytest.approx(0.5)
    assert np.max(np.abs(res.matrix - np.array([[0.5, 0.0], [0.0, 0.0]]))) <= 1e-12


def test_regularization_monotone_in_lambda():
    K = _lower_tri_kernel(4, seed=8)
    ds = simulate_volterra_dataset(K, 30, noise_sigma=0.2, seed=8)
    norms = [
        np.linalg.norm(ridge_estimate(ds, lam).matrix) for lam in (1e-6, 1e-2, 1.0, 100.0)
    ]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_csv_roundtrip(tmp_path):
    K = _lower_tri_kernel(5, seed=9)
    ds = simulate_volterra_dataset(K, 14, noise_sigma=0.05, seed=9)
    path = tmp_path / "dataset.csv"
    save_dataset_csv(path, ds)
    back = load_dataset_csv(path)
    assert_allclose(back.inputs, ds.inputs, rtol=0, atol=0)
    assert_allclose(back.outputs, ds.outputs, rtol=0, atol=0)


def test_csv_odd_rows_rejected(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    with pytest.raises(ValueError, match="pairs"):
        load_dataset_csv(path)


@pytest.mark.parametrize("text", ["", "\n\n\n"])
def test_csv_empty_rejected(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="pairs"):
        load_dataset_csv(path)


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_csv_non_finite_entry_rejected(tmp_path, entry):
    path = tmp_path / "bad.csv"
    path.write_text(f"1.0,2.0\n0.5,1.0\n2.0,1.0\n1.0,{entry}\n")
    with pytest.raises(ValueError, match=f"bad.csv: row 4 has a non-finite entry {entry}$"):
        load_dataset_csv(path)


def test_result_json_uses_lambda_key():
    ds = simulate_volterra_dataset(np.eye(3), 10, seed=1)
    doc = ridge_estimate(ds, 0.1).to_json()
    assert "lambda" in doc
    assert doc["causal"] is False
