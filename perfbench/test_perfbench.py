"""Tests of the benchmark itself: each check rejects a corrupted output, and
every workload runs end to end.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mkernel as mk  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _neg_distance_certify(n=40):
    spec = mk.NegDistance()
    P = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, 1))
    gram = mk.assemble_gram(mk.build_kernel(spec), P)
    return spec, P, gram, mk.certify_psd(gram)


def test_gram_check_accepts_and_rejects_a_perturbed_entry():
    spec, P, gram, _ = _neg_distance_certify()
    checks.check_gram(spec, P, gram)
    blocks = gram.blocks.copy()
    blocks[3, 5] *= 1.0 + 1e-12
    blocks[5, 3] = blocks[3, 5]
    bad = mk.GramBlockMatrix(P, 1, blocks)
    with pytest.raises(checks.CheckFailed, match="Gram entry"):
        checks.check_gram(spec, P, bad)


def test_gram_check_covers_every_zoo_kernel():
    P = np.random.default_rng(1).uniform(0.0, 1.0, size=(30, 1))
    for entry in mk.kernel_zoo():
        gram = mk.assemble_gram(mk.build_kernel(entry.spec), P)
        checks.check_gram(entry.spec, P, gram)


def test_witness_check_rejects_sign_flipped_witness():
    spec, P, _, report = _neg_distance_certify()
    checks.check_certify(spec, False, P, report)
    w = report.witness
    flipped_value = dataclasses.replace(report, witness=dataclasses.replace(w, value=-w.value))
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_certify(spec, False, P, flipped_value)
    # flip the signs of half the coefficients: no longer a witness
    C = w.coefficients.copy()
    C[: len(C) // 2] *= -1.0
    flipped = dataclasses.replace(report, witness=dataclasses.replace(w, coefficients=C))
    with pytest.raises(checks.CheckFailed, match="not negative"):
        checks.check_certify(spec, False, P, flipped)


def test_pd_kernel_witness_is_rejected():
    spec, P, _, report = _neg_distance_certify()
    with pytest.raises(checks.CheckFailed, match="PD kernel got verdict"):
        checks.check_certify(spec, True, P, report)


def test_brownian_check_rejects_perturbed_eigenvalue():
    nodes = 257
    measure = mk.make_measure(mk.make_box_domain([0.0], [1.0]), "trapezoid", nodes)
    kernel = mk.build_kernel(mk.Brownian())
    decomp = mk.nystrom_decompose(kernel, measure)
    trace = mk.trace_functional(kernel, measure)
    h = 1.0 / (nodes - 1)
    checks.check_brownian_spectrum(decomp, trace, h)
    sigmas = decomp.sigmas.copy()
    sigmas[1] *= 1.0 + 1e-3
    bad = dataclasses.replace(decomp, sigmas=sigmas)
    with pytest.raises(checks.CheckFailed, match="eigenvalue 2"):
        checks.check_brownian_spectrum(bad, trace, h)


def test_lift_spectrum_check_rejects_broken_trace_and_orthonormality():
    measure = mk.make_measure(mk.make_box_domain([0.0, 0.0], [1.0, 1.0]), "trapezoid", 9)
    A = ((2.0, 1.0), (1.0, 2.0))
    kernel = mk.build_kernel(mk.Lift(mk.Gaussian(0.5), A))
    decomp = mk.nystrom_decompose(kernel, measure)
    trace = mk.trace_functional(kernel, measure)
    checks.check_lift_spectrum(decomp, trace, A, area=1.0)
    with pytest.raises(checks.CheckFailed, match="trace"):
        checks.check_lift_spectrum(decomp, trace * (1 + 1e-9), A, area=1.0)
    phis = decomp.phis.copy()
    phis[0] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match="orthonormal"):
        checks.check_lift_spectrum(dataclasses.replace(decomp, phis=phis), trace, A, area=1.0)


def test_harness_and_gap_checks_reject_contradictions():
    measure = mk.make_measure(mk.make_box_domain([0.0], [1.0]), "trapezoid", 65)
    kernel = mk.build_kernel(mk.Gaussian(1.0))
    report = mk.equivalence_harness(kernel, measure, trials=20, seed=0)
    checks.check_harness(report, True)
    with pytest.raises(checks.CheckFailed, match="disagree"):
        checks.check_harness(dataclasses.replace(report, agree=False), True)
    with pytest.raises(checks.CheckFailed, match="contradicts"):
        checks.check_harness(report, False)

    centers, coeffs = np.array([[0.2], [0.5], [0.8]]), np.array([[1.0], [-2.0], [1.0]])
    gap = mk.discretization_gap(kernel, measure, centers, coeffs, 0.05, 0.05)
    checks.check_gap(gap, mk.Gaussian(1.0), centers, coeffs)
    too_big = gap.remainder_bound + gap.continuity_term + 1e-6
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_gap(dataclasses.replace(gap, gap=too_big), mk.Gaussian(1.0), centers, coeffs)


def _equally_spaced(n):
    theta = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


def test_energy_check_accepts_optimum_and_rejects_energy_below_it():
    n = 12
    kernel = mk.build_kernel(mk.Riesz(1.0, 0.0), allow_unbounded=True)
    config = mk.make_configuration(kernel, _equally_spaced(n))
    good = mk.EnergyResult(config, np.array([2.0 * config.energy, config.energy]), 1, 0, True)
    checks.check_energy(good, n)

    below = checks.riesz_circle_optimum(n) * (1.0 - 1e-9)
    bad = dataclasses.replace(good, configuration=mk.Configuration(config.points, below),
                              trace=np.array([1.0, below]))
    with pytest.raises(checks.CheckFailed, match="below the optimum"):
        checks.check_energy(bad, n)

    rising = dataclasses.replace(good, trace=np.array([config.energy, 2.0, config.energy]))
    with pytest.raises(checks.CheckFailed, match="increases"):
        checks.check_energy(rising, n)


def test_ridge_check_rejects_nonzero_causal_upper_entry():
    rng = np.random.default_rng(0)
    M = 8
    U = rng.normal(size=(200, M))
    Y = U @ np.tril(rng.normal(size=(M, M))).T
    dataset = mk.EstimationDataset(U, Y)
    for causal in (False, True):
        ref = checks.ridge_reference(U, Y, 1e-2, causal)
        checks.check_ridge(mk.ridge_estimate(dataset, 1e-2, causal=causal).matrix, ref, causal)
    K = mk.ridge_estimate(dataset, 1e-2, causal=True).matrix.copy()
    K[0, 3] = 1e-300
    with pytest.raises(checks.CheckFailed, match="above the diagonal"):
        checks.check_ridge(K, checks.ridge_reference(U, Y, 1e-2, True), True)


def test_control_checks():
    # a 4-cell Gaussian report agrees with the 50-digit value
    spec, beta = mk.Gaussian(1.0), -2.0
    bp = np.linspace(0.0, 1.0, 5)
    H, b = checks.control_qp(spec, bp, beta)
    qp = mk.assemble_control_qp(mk.build_kernel(spec), bp, np.array([beta]))
    assert np.allclose(qp.H, H, rtol=1e-14, atol=0.0)
    sol = mk.solve_control_qp(qp)
    doc = {"result": {"hessian_verdict": "certified_psd", "solution": sol.to_json()}}
    value = checks.check_control_pd(0, doc, H, checks.mp_qp_value(H, b))
    with pytest.raises(checks.CheckFailed, match="50-digit"):
        checks.check_control_pd(0, doc, H, value + 1.0)
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_refinement(value + 1.0, H, value, H)

    # an unbounded status on a certified PD Hessian is the known fault
    unbounded = {"result": {"hessian_verdict": "certified_psd",
                            "solution": {"status": "unbounded", "value": None}}}
    with pytest.raises(checks.KnownFault):
        checks.check_control_pd(2, unbounded, H)

    # neg_distance: the direction must be a descent direction
    spec = mk.NegDistance()
    H, b = checks.control_qp(spec, bp, 1.0)
    sol = mk.solve_control_qp(mk.assemble_control_qp(mk.build_kernel(spec), bp, np.array([1.0])))
    doc = {"result": {"hessian_verdict": "witness_found", "solution": sol.to_json()}}
    checks.check_control_unbounded(2, doc, H, b)
    doc["result"]["solution"]["direction"] = np.zeros_like(sol.direction).tolist()
    with pytest.raises(checks.CheckFailed, match="does not decrease"):
        checks.check_control_unbounded(2, doc, H, b)


def _run(cwd, workload, trace, seconds="0.1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def _declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == _declared("end_to_end")
    # the only ops allowed to fail: two of the 25 applications ops per round,
    # the Gaussian control reports that call a certified PD problem unbounded
    allowed = 2 * doc["attempted"] // 25 if workload == "applications" else 0
    assert doc["failed"] <= allowed


def test_smoke_run_traced():
    proc = _run(ROOT, "applications", 1)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    metrics = doc["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert metrics["energy.discrete_energy.calls"]["value"] > 0
    assert metrics["trace.self_sum_s"]["value"] <= metrics["trace.op_wall_s"]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _run(tmp_path, "applications", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
