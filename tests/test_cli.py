import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mkernel
from mkernel.applications.estimation import save_dataset_csv, simulate_volterra_dataset
from mkernel.cli import main

BOX = {"kind": "box", "lower": [0.0], "upper": [1.0]}


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_certify_gaussian_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"kernel": {"gaussian": 1.0}, "domain": BOX})
    code, rep = _run(capsys, ["certify", "--config", cfg])
    assert code == 0
    assert rep["command"] == "certify"
    assert rep["schema_version"] == "4"
    assert rep["result"]["verdict"] == "certified_psd"
    assert rep["config"]["tolerance"] == 1e-9
    assert len(rep["config"]["points"]) == 8


def test_certify_witness_exits_two(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "c.json",
        {"kernel": {"neg_distance": {}}, "domain": BOX, "n_points": 6},
    )
    code, rep = _run(capsys, ["certify", "--config", cfg])
    assert code == 2
    assert rep["result"]["verdict"] == "witness_found"
    assert rep["result"]["witness"]["value"] < 0


def test_certify_explicit_points(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "c.json",
        {"kernel": {"gaussian": 0.5}, "domain": BOX, "points": [[0.1], [0.9]]},
    )
    code, rep = _run(capsys, ["certify", "--config", cfg])
    assert code == 0
    assert rep["config"]["points"] == [[0.1], [0.9]]


@pytest.mark.parametrize("command,cfg", [
    ("certify", {"kernel": {"gaussian": 0.5}, "domain": BOX, "points": [0.1, 0.9]}),
    ("gap", {"kernel": {"gaussian": 1.0}, "domain": BOX,
             "measure": {"rule": "trapezoid", "resolution": 161},
             "centers": [0.2, 0.5, 0.8], "coefficients": [[1.0], [-2.0], [1.0]],
             "delta": 0.05, "epsilon": 0.05}),
])
def test_echoed_config_reproduces_the_run(tmp_path, capsys, command, cfg):
    code, rep = _run(capsys, [command, "--config", _write(tmp_path, "a.json", cfg)])
    assert code in (0, 2)
    key = "points" if command == "certify" else "centers"
    assert rep["config"][key] == [[v] for v in cfg[key]]
    code2, rep2 = _run(capsys, [command, "--config", _write(tmp_path, "b.json", rep["config"])])
    assert code2 == code
    assert json.dumps(rep2["result"], sort_keys=True) == json.dumps(rep["result"], sort_keys=True)


def test_certify_points_csv_flag(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"kernel": {"gaussian": 1.0}, "domain": BOX})
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x1\n0.2\n0.8\n")
    code, rep = _run(capsys, ["certify", "--config", cfg, "--points", str(csv_path)])
    assert code == 0
    assert rep["config"]["points"] == [[0.2], [0.8]]


def test_certify_rejects_config_point_outside_domain(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "c.json",
        {"kernel": {"gaussian": 1.0}, "domain": BOX, "points": [[0.1], [1.5], [-2.0]]},
    )
    assert main(["certify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "point 1 [1.5] lies outside the domain" in captured.err
    assert '"upper": [1.0]' in captured.err


def test_certify_rejects_csv_point_outside_domain(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"kernel": {"gaussian": 1.0}, "domain": BOX})
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x1\n0.2\n0.8\n-0.5\n")
    assert main(["certify", "--config", cfg, "--points", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "point 2 [-0.5] lies outside the domain" in captured.err


def test_certify_rejects_non_numeric_csv_entry(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"kernel": {"gaussian": 1.0}, "domain": BOX})
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x1\n0.2\nabc\n")
    assert main(["certify", "--config", cfg, "--points", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{csv_path}: point 2 has non-numeric x1 'abc'" in captured.err


def test_equivalence_rejects_negative_trials(tmp_path, capsys):
    cfg = _write(tmp_path, "g.json", {"kernel": {"gaussian": 1.0}, "domain": BOX})
    assert main(["equivalence", "--config", cfg, "--trials", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials must be >= 0, got -2" in captured.err


def test_equivalence_pd_and_not(tmp_path, capsys):
    good = _write(tmp_path, "g.json", {"kernel": {"gaussian": 1.0}, "domain": BOX})
    code, rep = _run(capsys, ["equivalence", "--config", good, "--trials", "20"])
    assert code == 0
    assert rep["result"]["agree"] is True
    bad = _write(tmp_path, "b.json", {"kernel": {"neg_distance": {}}, "domain": BOX})
    code, rep = _run(capsys, ["equivalence", "--config", bad, "--trials", "20"])
    assert code == 2
    assert rep["result"]["discrete"]["verdict"] == "witness_found"


def test_gap_report(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "gap.json",
        {
            "kernel": {"gaussian": 1.0},
            "domain": BOX,
            "measure": {"rule": "trapezoid", "resolution": 321},
            "centers": [[0.25], [0.75]],
            "coefficients": [[1.0], [-1.0]],
            "delta": 0.05,
            "epsilon": 0.05,
        },
    )
    code, rep = _run(capsys, ["gap", "--config", cfg])
    assert code == 0
    res = rep["result"]
    assert res["gap"] <= res["remainder_bound"] + res["continuity_term"] + 1e-12
    # flag overrides the config value and is echoed
    code, rep = _run(capsys, ["gap", "--config", cfg, "--epsilon", "0.025"])
    assert code == 0
    assert rep["config"]["epsilon"] == 0.025


def test_spectrum_exit_codes(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "s.json",
        {
            "kernel": {"brownian": {}},
            "domain": BOX,
            "measure": {"rule": "trapezoid", "resolution": 257},
        },
    )
    code, rep = _run(capsys, ["spectrum", "--config", cfg, "--rank", "5"])
    assert code == 0
    sig = rep["result"]["sigmas"]
    assert len(sig) == 5
    assert sig[0] == pytest.approx(1 / (0.25 * np.pi**2), rel=5e-4)
    assert rep["result"]["trace"] == pytest.approx(0.5, rel=1e-3)
    bad = _write(
        tmp_path,
        "sb.json",
        {
            "kernel": {"neg_distance": {}},
            "domain": BOX,
            "measure": {"rule": "uniform-nodes", "resolution": 33},
        },
    )
    code, rep = _run(capsys, ["spectrum", "--config", bad])
    assert code == 2
    assert rep["result"]["not_pd_flag"] is True


def test_energy_command(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "e.json",
        {
            "kernel": {"riesz": {"s": 1.0, "eta": 0.0}},
            "domain": {"kind": "circle", "radius": 1.0},
        },
    )
    code, rep = _run(capsys, ["energy", "--config", cfg, "--n", "4", "--iters", "400"])
    assert code == 0
    assert rep["result"]["energy"] == pytest.approx((2 * np.sqrt(2) + 1) / 8, abs=1e-8)
    assert rep["result"]["capacity"] == pytest.approx(8 / (2 * np.sqrt(2) + 1), abs=1e-6)
    assert rep["config"]["n"] == 4


def test_control_command(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "q.json",
        {"kernel": {"gaussian": 1.0}, "partition": [0.0, 0.5, 1.0], "beta": -2.0},
    )
    code, rep = _run(capsys, ["control", "--config", cfg])
    assert code == 0
    assert rep["result"]["hessian_verdict"] == "certified_psd"
    assert rep["result"]["solution"]["status"] == "minimum"
    # finer dyadic partition by flag
    code, rep = _run(
        capsys, ["control", "--config", cfg, "--partition", "0,0.25,0.5,0.75,1"]
    )
    assert code == 0
    assert rep["result"]["solution"]["value"] == pytest.approx(-1.5785115599926998)


def test_control_unbounded_exits_two(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "qn.json",
        {
            "kernel": {"neg_distance": {}},
            "partition": [0.0, 0.25, 0.5, 0.75, 1.0],
            "beta": 1.0,
        },
    )
    code, rep = _run(capsys, ["control", "--config", cfg])
    assert code == 2
    assert rep["result"]["solution"]["status"] == "unbounded"
    assert rep["result"]["solution"]["value"] is None


def _dyadic(cells):
    return np.linspace(0.0, 1.0, cells + 1).tolist()


NULL_LIFT = {"lift": {"scalar": {"gaussian": 1.0}, "matrix": [[1.0, 1.0], [1.0, 1.0]]}}
# (kernel, cells, beta, hessian verdict, status)
CONTROL_CASES = [
    ({"gaussian": 1.0}, 2, -2.0, "certified_psd", "minimum"),
    ({"gaussian": 1.0}, 8, -2.0, "certified_psd", "minimum"),
    ({"gaussian": 1.0}, 16, -2.0, "certified_psd", "minimum"),
    ({"gaussian": 1.0}, 32, 1.0, "certified_psd", "minimum"),
    ({"lift": {"scalar": {"gaussian": 2.0}, "matrix": [[2.0, 1.0], [1.0, 2.0]]}}, 16, [1.0, -1.0],
     "certified_psd", "minimum"),
    ({"neg_distance": {}}, 4, 1.0, "witness_found", "unbounded"),
    (NULL_LIFT, 8, [1.0, -1.0], "certified_psd", "unbounded"),
]


@pytest.mark.parametrize("kernel,cells,beta,verdict,status", CONTROL_CASES)
def test_control_report_comes_from_one_solve(tmp_path, capsys, kernel, cells, beta, verdict,
                                             status):
    cfg = _write(tmp_path, "q.json", {"kernel": kernel, "partition": _dyadic(cells), "beta": beta})
    code, rep = _run(capsys, ["control", "--config", cfg])
    res = rep["result"]
    assert (res["hessian_verdict"], res["solution"]["status"]) == (verdict, status)
    assert code == (0 if status == "minimum" else 2)
    # bit for bit: the verdict's eigenvalues are the solution's
    assert res["hessian_eig_min"] == res["solution"]["eig_min"]
    assert res["hessian_eig_max"] == res["solution"]["eig_max"]


@pytest.mark.parametrize("kernel", [{"gaussian": 1.0}, {"neg_distance": {}}])
def test_control_makes_one_eigensolve(tmp_path, capsys, monkeypatch, kernel):
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    cfg = _write(tmp_path, "q.json", {"kernel": kernel, "partition": _dyadic(4), "beta": 1.0})
    assert main(["control", "--config", cfg]) in (0, 2)
    assert calls == ["eigh"]


def test_estimate_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    K = np.tril(rng.normal(size=(4, 4)))
    ds = simulate_volterra_dataset(K, 40, noise_sigma=0.0, seed=0)
    data = tmp_path / "d.csv"
    save_dataset_csv(data, ds)
    cfg = _write(tmp_path, "est.json", {})
    code, rep = _run(
        capsys,
        [
            "estimate",
            "--config",
            cfg,
            "--data",
            str(data),
            "--lambda",
            "1e-8",
            "--causal",
        ],
    )
    assert code == 0
    est = np.asarray(rep["result"]["matrix"])
    assert np.linalg.norm(est - K) / np.linalg.norm(K) <= 1e-6
    assert rep["config"]["causal"] is True
    assert rep["config"]["lambda"] == 1e-8


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_estimate_rejects_non_finite_data(tmp_path, capsys, entry):
    data = tmp_path / "d.csv"
    data.write_text(f"1.0,2.0\n0.5,{entry}\n2.0,1.0\n1.0,0.5\n")
    cfg = _write(tmp_path, "est.json", {"data": str(data), "lambda": 0.1})
    assert main(["estimate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"mkernel estimate: error: {data}: "
                            f"row 2 has a non-finite entry {entry}\n")


def test_estimate_requires_data(tmp_path, capsys):
    cfg = _write(tmp_path, "est.json", {})
    code = main(["estimate", "--config", cfg, "--lambda", "0.1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "data" in err


def test_malformed_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["certify", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error" in captured.err


def test_missing_kernel_entry_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "nok.json", {"domain": BOX})
    code = main(["certify", "--config", cfg])
    assert code == 1
    assert "kernel" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg,entry", [
    ("certify", {"kernel": {"gaussian": 1.0}, "domain": [0, 1]}, "domain"),
    ("equivalence", {"kernel": {"gaussian": 1.0}, "domain": [0, 1]}, "domain"),
    ("equivalence", {"kernel": {"gaussian": 1.0}, "domain": BOX, "measure": [1]}, "measure"),
    ("control", {"kernel": 1.0, "partition": [0, 1]}, "kernel"),
])
def test_non_object_entry_exits_one(tmp_path, capsys, command, cfg, entry):
    assert main([command, "--config", _write(tmp_path, "n.json", cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"mkernel {command}: error: config entry '{entry}' "
                                   "must be a JSON object")


@pytest.mark.parametrize("command,entries,message", [
    ("certify", {"kernel": {"gaussian": True}}, "gaussian expects a number for gamma"),
    ("certify", {"kernel": {"gaussian": "0.5"}}, "gaussian expects a number for gamma"),
    ("certify", {"kernel": {"lift": {"scalar": {"gaussian": 1}, "matrix": [[True, 0], [0, 1]]}}},
     "lift expects a matrix (a list of rows) for matrix"),
    ("certify", {"tolerance": "1e-3"}, "config entry 'tolerance' must be a number, got '1e-3'"),
    ("certify", {"seed": 1.7}, "config entry 'seed' must be an integer, got 1.7"),
    ("certify", {"n_points": True}, "config entry 'n_points' must be an integer, got True"),
    ("equivalence", {"measure": {"resolution": 9.7}}, "resolution must be an integer, got 9.7"),
    ("equivalence", {"measure": {"resolution": [9, True]}},
     "resolution must be an integer, got True"),
    ("equivalence", {"trials": 2.5}, "config entry 'trials' must be an integer, got 2.5"),
    ("gap", {"delta": True, "epsilon": 0.1}, "config entry 'delta' must be a number, got True"),
    ("spectrum", {"rank": 1.5}, "config entry 'rank' must be an integer, got 1.5"),
    ("spectrum", {"drop_tolerance": "0"}, "config entry 'drop_tolerance' must be a number"),
    ("energy", {"n": "4"}, "config entry 'n' must be an integer, got '4'"),
    ("energy", {"iterations": 2.5}, "config entry 'iterations' must be an integer, got 2.5"),
    ("estimate", {"lambda": "0.1", "data": "d.csv"}, "config entry 'lambda' must be a number"),
    ("estimate", {"lambda": 0.1, "data": "d.csv", "causal": "false"},
     "config entry 'causal' must be true or false, got 'false'"),
    ("certify", {"points": [[0.5], ["0.7"]]}, "config entry 'points' must be a number, got '0.7'"),
    ("gap", {"delta": 0.1, "epsilon": 0.05, "centers": [True]},
     "config entry 'centers' must be a number, got True"),
    ("gap", {"delta": 0.1, "epsilon": 0.05, "centers": [0.5], "coefficients": [["1"]]},
     "config entry 'coefficients' must be a number, got '1'"),
    ("control", {"partition": ["0", True]}, "config entry 'partition' must be a number, got '0'"),
    ("control", {"partition": [0, 1], "beta": True},
     "config entry 'beta' must be a number, got True"),
    ("control", {"partition": [0, 1], "linear_term": ["1"]},
     "config entry 'linear_term' must be a number, got '1'"),
    ("certify", {"domain": {"kind": "box", "lower": [False], "upper": [1]}},
     "domain lower must be a number, got False"),
    ("certify", {"domain": {"kind": "box", "lower": [0], "upper": ["1"]}},
     "domain upper must be a number, got '1'"),
    ("certify", {"domain": {"kind": "circle", "radius": "1"}},
     "domain radius must be a number, got '1'"),
    ("certify", {"points": 0.5}, "config entry 'points' must list points, one per row; got shape ()"),
    ("certify", {"points": [[[0.5]]]},
     "config entry 'points' must list points, one per row; got shape (1, 1, 1)"),
    ("gap", {"delta": 0.1, "epsilon": 0.05, "centers": 0.5},
     "config entry 'centers' must list points, one per row; got shape ()"),
    ("certify", {"points": []}, "the Gram matrix is empty"),
    ("certify", {"tolerance": -0.5}, "tolerance must be a finite number >= 0, got -0.5"),
    ("certify", {"tolerance": float("nan")}, "config entry 'tolerance' must be finite, got nan"),
    ("spectrum", {"drop_tolerance": float("nan")},
     "config entry 'drop_tolerance' must be finite, got nan"),
    ("spectrum", {"drop_tolerance": float("inf")},
     "config entry 'drop_tolerance' must be finite, got inf"),
    ("control", {"partition": [0, float("nan"), 1]},
     "config entry 'partition' must be finite, got nan"),
    ("control", {"partition": [0, float("inf")]},
     "config entry 'partition' must be finite, got inf"),
    ("control", {"partition": [0, 1], "beta": float("nan")},
     "config entry 'beta' must be finite, got nan"),
    ("control", {"partition": [0, 1], "beta": [1.0, float("-inf")]},
     "config entry 'beta' must be finite, got -inf"),
    ("control", {"partition": [0, 1], "beta": 10**400}, "config entry 'beta' must be finite"),
    ("spectrum", {"drop_tolerance": -1}, "drop_tolerance must be a finite number >= 0, got -1.0"),
    ("spectrum", {"rank": -1}, "rank must be >= 0, got -1"),
    ("control", {"partition": 5}, "config entry 'partition' must be a list of breakpoints, got 5"),
    ("estimate", {"lambda": 0.1, "data": 5}, "config entry 'data' must be a file path, got 5"),
    ("control", {}, "config is missing the 'partition' entry"),
    ("gap", {"epsilon": 0.05}, "config is missing the 'delta' entry"),
    ("gap", {"delta": 0.1}, "config is missing the 'epsilon' entry"),
    ("gap", {"delta": 0.1, "epsilon": 0.05}, "config is missing the 'centers' entry"),
    ("gap", {"delta": 0.1, "epsilon": 0.05, "centers": [0.5]},
     "config is missing the 'coefficients' entry"),
    ("certify", {"domain": {"kind": "box", "upper": [1]}}, "config is missing the 'lower' entry"),
    ("certify", {"domain": {"kind": "box", "lower": [0]}}, "config is missing the 'upper' entry"),
    ("certify", {"domain": {"kind": "circle"}}, "config is missing the 'radius' entry"),
    ("equivalence", {"domain": {"kind": "circle", "radius": 1.0},
                     "measure": {"rule": "uniform-nodes", "resolution": []}},
     "need one resolution per dimension (1), got 0"),
    ("equivalence", {"domain": {"kind": "circle", "radius": 1.0},
                     "measure": {"rule": "uniform-nodes", "resolution": [16, 99]}},
     "need one resolution per dimension (1), got 2"),
    ("equivalence", {"domain": {"kind": "box", "lower": [-1e308], "upper": [1e308]}},
     "box upper - lower must be finite, got [inf]"),
])
def test_wrongly_typed_entry_exits_one(tmp_path, capsys, command, entries, message):
    cfg = {"kernel": {"gaussian": 1.0}, "domain": BOX}
    assert main([command, "--config", _write(tmp_path, "t.json", {**cfg, **entries})]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"mkernel {command}: error: {message}")
    assert captured.err.count("\n") == 1


def test_a_box_whose_squared_width_overflows_exits_one_without_a_warning(tmp_path, capsys):
    cfg = {"kernel": {"gaussian": 1.0}, "domain": {"kind": "box", "lower": [0], "upper": [1e200]}}
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["certify", "--config", _write(tmp_path, "w.json", cfg)]) == 1
    assert seen == []
    err = capsys.readouterr().err
    assert err.startswith("mkernel certify: error: box upper - lower [1e+200] is too wide")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,entries", [([], {"rank": -1}), (["--rank", "-1"], {})])
def test_negative_rank_exits_one_before_the_eigensolve(tmp_path, capsys, monkeypatch,
                                                       argv, entries):
    calls = []
    monkeypatch.setattr("mkernel.cli.nystrom_decompose", lambda *a, **k: calls.append(a))
    cfg = _write(tmp_path, "r.json", {"kernel": {"gaussian": 1.0}, "domain": BOX, **entries})
    assert main(["spectrum", "--config", cfg, *argv]) == 1
    assert capsys.readouterr().err.startswith("mkernel spectrum: error: rank must be >= 0, got -1")
    assert calls == []


@pytest.mark.parametrize("flag", ["0,nan,1", "0,inf"])
def test_non_finite_partition_flag_exits_one(tmp_path, capsys, flag):
    cfg = _write(tmp_path, "p.json", {"kernel": {"gaussian": 1.0}, "partition": [0, 1]})
    assert main(["control", "--config", cfg, "--partition", flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mkernel control: error: --partition must be finite")


def test_malformed_kernel_node_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "k.json", {"kernel": {"riesz": 1.0}, "domain": BOX})
    assert main(["certify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mkernel certify: error: riesz expects an object with fields s, eta\n"


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_parser_is_built_once(tmp_path, capsys):
    from mkernel.cli import _build_parser

    cfg = _write(tmp_path, "c.json", {"kernel": {"gaussian": 1.0}, "domain": BOX})
    assert main(["certify", "--config", cfg]) == 0
    before = _build_parser.cache_info()
    assert main(["certify", "--frobnicate"]) == 1
    assert main(["certify", "--config", cfg]) == 0
    after = _build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 2)


def test_out_file_and_determinism(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "c.json",
        {"kernel": {"gaussian": 1.0}, "domain": BOX, "n_points": 5, "seed": 11},
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["certify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["certify", "--config", cfg, "--out", str(out2)]) == 0
    assert capsys.readouterr().out == ""
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    ta, tb = a.pop("timestamp"), b.pop("timestamp")
    assert a == b
    assert ta and tb
    # the serialization is stable too: identical bytes after masking timestamps
    ra = out1.read_text().replace(ta, "T")
    rb = out2.read_text().replace(tb, "T")
    assert ra == rb


def test_module_entrypoint_runs(tmp_path):
    cfg = _write(tmp_path, "c.json", {"kernel": {"gaussian": 1.0}, "domain": BOX})
    # The child imports the package these tests import, installed or not.
    path = [str(Path(mkernel.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "mkernel", "certify", "--config", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["result"]["verdict"] == "certified_psd"


def test_import_loads_no_heavy_or_test_only_module():
    """`import mkernel` (and its CLI) pulls in numpy and the standard library
    it needs, nothing that would lengthen every command's start-up."""
    path = [str(Path(mkernel.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    banned = ("scipy", "mpmath", "sympy", "hypothesis", "fractions", "decimal")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mkernel, mkernel.cli; "
         f"print(sorted(m for m in {banned!r} if m in sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_example_runs():
    """The README's library example runs against this tree's package and
    prints what its comments say."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["certified_psd None", "True"]


LIFT = {"lift": {"scalar": {"gaussian": 0.5}, "matrix": [[2, 1], [1, 2]]}}
BOX_ECHO = {"kind": "box", "lower": [0.0], "upper": [1.0]}


@pytest.mark.parametrize("command,cfg,flags,echo", [
    ("certify", {"kernel": LIFT, "domain": BOX, "points": [0.1, 0.9], "tolerance": 1e-8, "seed": 3},
     [], {"kernel": LIFT, "domain": BOX_ECHO, "points": [[0.1], [0.9]], "tolerance": 1e-8,
          "seed": 3}),
    ("equivalence", {"kernel": {"gaussian": 1}, "domain": BOX, "measure": {"resolution": 9},
                     "trials": 7, "seed": 1},
     ["--seed", "5"], {"kernel": {"gaussian": 1}, "domain": BOX_ECHO,
                       "measure": {"rule": "trapezoid", "resolution": 9}, "trials": 7,
                       "tolerance": 1e-9, "seed": 5}),
    ("gap", {"kernel": {"gaussian": 1.0}, "domain": BOX,
             "measure": {"rule": "trapezoid", "resolution": 41}, "centers": [0.25, 0.75],
             "coefficients": [[1.0], [-1.0]], "delta": 0.05, "epsilon": 0.05},
     ["--epsilon", "0.025"], {"kernel": {"gaussian": 1.0}, "domain": BOX_ECHO,
                              "measure": {"rule": "trapezoid", "resolution": 41},
                              "centers": [[0.25], [0.75]], "coefficients": [[1.0], [-1.0]],
                              "delta": 0.05, "epsilon": 0.025, "tolerance": 1e-9, "seed": 0}),
    ("spectrum", {"kernel": {"brownian": {}}, "domain": BOX,
                  "measure": {"rule": "trapezoid", "resolution": 17}, "drop_tolerance": 1e-10},
     ["--rank", "3"], {"kernel": {"brownian": {}}, "domain": BOX_ECHO,
                       "measure": {"rule": "trapezoid", "resolution": 17}, "rank": 3,
                       "drop_tolerance": 1e-10, "tolerance": 1e-9, "seed": 0}),
    ("energy", {"kernel": {"riesz": {"s": 1.0}}, "domain": {"kind": "circle", "radius": 1.0},
                "n": 3, "iterations": 20},
     ["--seed", "2"], {"kernel": {"riesz": {"s": 1.0}}, "domain": {"kind": "circle", "radius": 1.0},
                       "n": 3, "iterations": 20, "tolerance": 1e-9, "seed": 2}),
    ("control", {"kernel": LIFT, "partition": [0, 0.5, 1], "beta": 1.5, "seed": 7},
     [], {"kernel": LIFT, "partition": [0.0, 0.5, 1.0], "beta": [1.5, 1.5], "tolerance": 1e-9,
          "seed": 7}),
    ("estimate", {"lambda": 0.01, "seed": 4},
     ["--causal"], {"lambda": 0.01, "causal": True, "n_samples": 40, "series_length": 4,
                    "tolerance": 1e-9, "seed": 4}),
])
def test_echoed_config_pinned(tmp_path, capsys, command, cfg, flags, echo):
    if command == "estimate":
        data = tmp_path / "d.csv"
        K = np.tril(np.random.default_rng(0).normal(size=(4, 4)))
        save_dataset_csv(data, simulate_volterra_dataset(K, 40, noise_sigma=0.0, seed=0))
        flags = [*flags, "--data", str(data)]
        echo = {**echo, "data": str(data)}
    code, rep = _run(capsys, [command, "--config", _write(tmp_path, "p.json", cfg), *flags])
    assert code in (0, 2)
    assert json.dumps(rep["config"], sort_keys=True) == json.dumps(echo, sort_keys=True)
