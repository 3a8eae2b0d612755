"""Every report's JSON is valid RFC 8259 JSON, and a report whose JSON is
its fields writes exactly those fields, in order (see `certify.Report`)."""

import json
from dataclasses import fields

import numpy as np
import pytest

from mkernel.applications.control import (assemble_control_qp, refine_partition_study,
                                          solve_control_qp)
from mkernel.applications.energy import make_configuration, minimize_energy
from mkernel.applications.estimation import ridge_estimate, simulate_volterra_dataset
from mkernel.certify import (PDReport, SearchReport, Witness, assemble_gram, certify_psd,
                             json_value, random_search_witness)
from mkernel.domains import Box, Circle, make_measure
from mkernel.integral import GapReport, discretization_gap, equivalence_harness
from mkernel.kernels import Gaussian, NegDistance, Riesz, build_kernel
from mkernel.spectral import nystrom_decompose

LINE = Box([0.0], [1.0])
GAUSS = build_kernel(Gaussian(1.0))
NEG = build_kernel(NegDistance())


def _reports():
    measure = make_measure(LINE, "trapezoid", 9)
    riesz = build_kernel(Riesz(1.0, 0.0), allow_unbounded=True)
    data = simulate_volterra_dataset(np.tril(np.ones((4, 4))), 6, 0.1, seed=1)
    return {
        "certified": certify_psd(assemble_gram(GAUSS, [[0.1], [0.5], [0.9]])),
        "witness_found": certify_psd(assemble_gram(NEG, [[0.1], [0.5], [0.9]])),
        "search_found": random_search_witness(NEG, LINE, trials=20),
        "search_none": random_search_witness(GAUSS, LINE, trials=20),
        "search_no_trials": random_search_witness(GAUSS, LINE, trials=0),
        "harness": equivalence_harness(NEG, measure, trials=10),
        "harness_no_trials": equivalence_harness(GAUSS, measure, trials=0),
        "gap": discretization_gap(GAUSS, measure, [[0.25], [0.75]], [[1.0], [-1.0]], 0.1, 0.1),
        "spectrum": nystrom_decompose(GAUSS, measure),
        "configuration": make_configuration(riesz, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        "energy": minimize_energy(riesz, Circle(1.0), 3, iterations=5),
        "qp_minimum": solve_control_qp(assemble_control_qp(GAUSS, [0.0, 0.5, 1.0], -1.0)),
        "qp_unbounded": solve_control_qp(assemble_control_qp(NEG, [0.0, 0.5, 1.0], 1.0)),
        "refinement": refine_partition_study(NEG, [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0]],
                                             1.0),
        "ridge": ridge_estimate(data, 0.1, causal=True),
        "box": LINE,
        "circle": Circle(1.0),
    }


REPORTS = _reports()


@pytest.mark.parametrize("name", list(REPORTS))
def test_every_report_writes_valid_json(name):
    doc = REPORTS[name].to_json()
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


def test_a_search_with_no_trials_writes_a_null_margin():
    report = REPORTS["search_no_trials"]
    assert np.isnan(report.min_margin) and not report.found
    assert report.to_json() == {"verdict": "no_witness_found", "trials": 0, "min_margin": None,
                                "tolerance": 1e-9, "witness": None}


def test_an_unbounded_qp_writes_null_value_and_residual():
    doc = REPORTS["qp_unbounded"].to_json()
    assert doc["status"] == "unbounded" and doc["value"] is None and doc["residual"] is None
    assert REPORTS["refinement"].to_json()["values"] == [None, None]


@pytest.mark.parametrize("name,cls,keys", [
    ("witness_found", PDReport,
     ["verdict", "min_eigenvalue", "max_eigenvalue", "tolerance", "witness", "warnings"]),
    ("search_found", SearchReport, ["verdict", "trials", "min_margin", "tolerance", "witness"]),
    ("gap", GapReport, ["quadform", "discrete", "correction", "gap", "remainder_bound",
                        "continuity_term", "inner_masses", "outer_masses", "delta", "epsilon",
                        "sup_norm"]),
    ("configuration", None, ["points", "energy"]),
])
def test_a_field_report_writes_its_fields_in_order(name, cls, keys):
    report = REPORTS[name]
    assert cls is None or isinstance(report, cls)
    doc = report.to_json()
    assert list(doc) == keys == [f.name for f in fields(report)]
    if name == "configuration":
        assert doc == {"points": report.points.tolist(), "energy": report.energy}


def test_a_witness_writes_its_fields():
    witness = REPORTS["witness_found"].witness
    assert isinstance(witness, Witness)
    doc = witness.to_json()
    assert list(doc) == ["points", "coefficients", "value"] == [f.name for f in fields(witness)]
    assert doc == {"points": witness.points.tolist(),
                   "coefficients": witness.coefficients.tolist(), "value": witness.value}
    assert REPORTS["witness_found"].to_json()["witness"] == doc


def test_a_search_report_names_its_verdict():
    assert REPORTS["search_found"].found and REPORTS["search_found"].verdict == "witness_found"
    assert not REPORTS["search_none"].found
    assert REPORTS["search_none"].verdict == "no_witness_found"


def test_an_energy_result_is_flat():
    result = REPORTS["energy"]
    doc = result.to_json()
    assert list(doc) == ["points", "energy", "trace", "iterations", "restarts", "converged"]
    assert {k: doc[k] for k in ("points", "energy")} == result.configuration.to_json()


def test_a_ridge_result_writes_lambda_in_place():
    assert list(REPORTS["ridge"].to_json()) == ["matrix", "objective", "residual", "lambda",
                                                "causal"]


def test_json_value():
    assert json_value(np.array([[1.0, np.nan], [-np.inf, 2.0]])) == [[1.0, None], [None, 2.0]]
    assert json_value((1, "a", (np.float64(np.inf), None))) == [1, "a", [None, None]]
    assert json_value([np.nan, 0.5]) == [None, 0.5]
    assert json_value(np.float64(-0.5)) == -0.5 and json_value(True) is True
    assert json_value(LINE) == {"kind": "box", "lower": [0.0], "upper": [1.0]}
    witness = REPORTS["witness_found"].witness
    assert json_value(witness) == witness.to_json()
