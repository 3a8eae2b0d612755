"""The benchmark's workloads: set-up, inputs and operations.

A workload builds its kernels and measures (`build_kernels`,
`build_measures`: the set-up a user pays), makes its inputs from the seed
(`make_inputs`: the benchmark's own work, never timed) and lists its
operations (`ops`). One op is one library or CLI pipeline call that yields a
verdict or an estimate; its `check` tests the output independently.

Each round runs every op of the workload once, in order, on the same inputs,
so every round does the same work and the share of failed ops is the same in
every run. Library functions are looked up on the module at call time, so
that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# dense-large
GRAM_ORDER = 1536  # n * N for every certify op
BROWNIAN_NODES = 1537  # trapezoid grid on [0, 1], h = 1/1536
LIFT_GRID = 31  # trapezoid grid per axis on [0, 1]^2

# harness-zoo
HARNESS_NODES = 257
HARNESS_TRIALS = 200
HARNESS_SEEDS = 3  # harness runs per zoo kernel and round
GAP_CENTERS = ((0.2,), (0.5,), (0.8,))
GAP_DELTA = 0.05
GAP_EPSILON = 0.05

# applications
ENERGY_SIZES = (8, 16, 24)
ENERGY_ITERATIONS = 100
CONTROL_CASES = (
    # (family, kernel JSON, beta, cell counts, kernel is PD)
    ("gaussian-neg-beta", {"gaussian": 1.0}, -2.0, (2, 4, 8, 16), True),
    ("gaussian-pos-beta", {"gaussian": 1.0}, 1.0, (2, 4, 8, 16, 32), True),
    ("lift", {"lift": {"scalar": {"gaussian": 2.0}, "matrix": [[2.0, 1.0], [1.0, 2.0]]}},
     [1.0, -1.0], (2, 4, 8, 16, 32), True),
    ("neg-distance", {"neg_distance": {}}, 1.0, (2, 4, 8, 16, 32), False),
)
MP_CELLS = 8  # control ops up to this many cells are checked against mpmath
SERIES_LENGTH = 64
SAMPLES = 2000
NOISE = 0.01
RIDGE_LAMBDA = 1e-2


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class CliOutput:
    code: int
    text: str


def run_cli(mk, argv):
    """`mkernel <argv>` in-process, with the report captured from stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mk.cli.main(argv)
    return CliOutput(code, buf.getvalue())


def _cli_doc(out):
    checks.require(out.text.endswith("\n"), f"CLI exited {out.code} without a report")
    return json.loads(out.text)


def _zoo_kernels(mk):
    return {"zoo": [(e, mk.build_kernel(e.spec)) for e in mk.kernel_zoo()]}


# ---------------------------------------------------------------- dense-large

class DenseLarge:
    name = "dense-large"
    build_kernels = staticmethod(_zoo_kernels)

    @staticmethod
    def build_measures(mk):
        return {
            "line": mk.make_measure(mk.make_box_domain([0.0], [1.0]), "trapezoid", BROWNIAN_NODES),
            "square": mk.make_measure(mk.make_box_domain([0.0, 0.0], [1.0, 1.0]),
                                      "trapezoid", LIFT_GRID),
        }

    @staticmethod
    def make_inputs(mk, rng, kernels, measures, workdir):
        return {e.name: rng.uniform(0.0, 1.0, size=(GRAM_ORDER // k.output_dim, 1))
                for e, k in kernels["zoo"]}

    @staticmethod
    def ops(mk, kernels, measures, inputs):
        ops = []
        zoo = kernels["zoo"]
        for entry, kernel in zoo:
            P = inputs[entry.name]

            def call(kernel=kernel, P=P):
                gram = mk.assemble_gram(kernel, P)
                return gram, mk.certify_psd(gram)

            def check(out, entry=entry, P=P):
                gram, report = out
                checks.check_gram(entry.spec, P, gram)
                checks.check_certify(entry.spec, entry.is_pd, P, report)

            ops.append(Op(f"certify:{entry.name}", call, check))

        by_name = {e.name: (e, k) for e, k in zoo}
        line, square = measures["line"], measures["square"]
        brownian = by_name["brownian"][1]
        lift_entry, lift = by_name["gaussian_lift"]

        def spectrum(kernel, measure):
            return mk.nystrom_decompose(kernel, measure), mk.trace_functional(kernel, measure)

        ops.append(Op(
            "spectrum:brownian",
            lambda: spectrum(brownian, line),
            lambda out: checks.check_brownian_spectrum(*out, h=1.0 / (BROWNIAN_NODES - 1)),
        ))
        ops.append(Op(
            "spectrum:gaussian_lift",
            lambda: spectrum(lift, square),
            lambda out: checks.check_lift_spectrum(*out, lift_entry.spec.matrix, area=1.0),
        ))
        return ops


# ---------------------------------------------------------------- harness-zoo

class HarnessZoo:
    name = "harness-zoo"
    build_kernels = staticmethod(_zoo_kernels)

    @staticmethod
    def build_measures(mk):
        return {"line": mk.make_measure(mk.make_box_domain([0.0], [1.0]), "trapezoid",
                                        HARNESS_NODES)}

    @staticmethod
    def make_inputs(mk, rng, kernels, measures, workdir):
        return {
            "seeds": [int(s) for s in rng.integers(0, 2**31, size=HARNESS_SEEDS)],
            "gap_coefficients": rng.normal(size=(len(GAP_CENTERS), 2)),
        }

    @staticmethod
    def ops(mk, kernels, measures, inputs):
        ops = []
        line = measures["line"]
        for seed in inputs["seeds"]:
            for entry, kernel in kernels["zoo"]:
                ops.append(Op(
                    f"harness:{entry.name}",
                    lambda kernel=kernel, seed=seed: mk.equivalence_harness(
                        kernel, line, trials=HARNESS_TRIALS, seed=seed),
                    lambda out, entry=entry: checks.check_harness(out, entry.is_pd),
                ))
        lift_entry, lift = next((e, k) for e, k in kernels["zoo"] if e.name == "gaussian_lift")
        centers = np.asarray(GAP_CENTERS)
        coeffs = inputs["gap_coefficients"]
        ops.append(Op(
            "gap:gaussian_lift",
            lambda: mk.discretization_gap(lift, line, centers, coeffs, GAP_DELTA, GAP_EPSILON),
            lambda out: checks.check_gap(out, lift_entry.spec, centers, coeffs),
        ))
        return ops


# ---------------------------------------------------------------- applications

class Applications:
    name = "applications"

    @staticmethod
    def build_kernels(mk):
        return {"riesz": mk.build_kernel(mk.Riesz(1.0, 0.0), allow_unbounded=True)}

    @staticmethod
    def build_measures(mk):
        return {"circle": mk.make_circle_domain(1.0)}

    @staticmethod
    def make_inputs(mk, rng, kernels, measures, workdir):
        energy_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(ENERGY_SIZES))]

        # Volterra data: a causal kernel decaying away from the diagonal
        i, j = np.indices((SERIES_LENGTH, SERIES_LENGTH))
        k_true = np.tril(rng.normal(size=(SERIES_LENGTH, SERIES_LENGTH)) * np.exp(-(i - j) / 8.0))
        U = rng.normal(size=(SAMPLES, SERIES_LENGTH))
        Y = U @ k_true.T + NOISE * rng.normal(size=U.shape)
        data_csv = os.path.join(workdir, "volterra.csv")
        with open(data_csv, "w") as fh:
            for u, y in zip(U, Y):
                fh.write(",".join(repr(float(v)) for v in u) + "\n")
                fh.write(",".join(repr(float(v)) for v in y) + "\n")
        estimate_cfg = os.path.join(workdir, "estimate.json")
        with open(estimate_cfg, "w") as fh:
            json.dump({"data": data_csv, "lambda": RIDGE_LAMBDA, "causal": True}, fh)

        control = []
        for family, kernel_json, beta, cells_list, is_pd in CONTROL_CASES:
            spec = mk.spec_from_json(kernel_json)
            for cells in cells_list:
                bp = np.linspace(0.0, 1.0, cells + 1)
                path = os.path.join(workdir, f"control-{family}-{cells}.json")
                with open(path, "w") as fh:
                    json.dump({"kernel": kernel_json, "partition": bp.tolist(), "beta": beta}, fh)
                H, b = checks.control_qp(spec, bp, beta)
                reference = checks.mp_qp_value(H, b) if is_pd and cells <= MP_CELLS else None
                control.append((family, cells, cells == cells_list[0], is_pd, path, H, b,
                                reference))

        return {
            "energy_seeds": energy_seeds,
            "dataset": mk.EstimationDataset(U, Y),
            "ridge_reference": {c: checks.ridge_reference(U, Y, RIDGE_LAMBDA, c)
                                for c in (False, True)},
            "estimate_config": estimate_cfg,
            "control": control,
        }

    @staticmethod
    def ops(mk, kernels, measures, inputs):
        ops = []
        riesz, circle = kernels["riesz"], measures["circle"]
        for n, seed in zip(ENERGY_SIZES, inputs["energy_seeds"]):
            ops.append(Op(
                f"energy:N={n}",
                lambda n=n, seed=seed: mk.minimize_energy(
                    riesz, circle, n, iterations=ENERGY_ITERATIONS, seed=seed),
                lambda out, n=n: checks.check_energy(out, n),
            ))

        coarser = {}  # family -> (value, H) of this round's last coarser partition

        for family, cells, coarsest, is_pd, path, H, b, reference in inputs["control"]:
            if is_pd:
                def check(out, family=family, coarsest=coarsest, H=H, reference=reference):
                    value = checks.check_control_pd(out.code, _cli_doc(out), H, reference)
                    if not coarsest:
                        checks.check_refinement(value, H, *coarser[family])
                    coarser[family] = (value, H)
            else:
                def check(out, H=H, b=b):
                    checks.check_control_unbounded(out.code, _cli_doc(out), H, b)
            ops.append(Op(f"control:{family}:{cells}",
                          lambda path=path: run_cli(mk, ["control", "--config", path]), check))

        dataset = inputs["dataset"]
        for causal in (False, True):
            ref = inputs["ridge_reference"][causal]
            ops.append(Op(
                f"ridge:{'causal' if causal else 'full'}",
                lambda causal=causal: mk.ridge_estimate(dataset, RIDGE_LAMBDA, causal=causal),
                lambda out, ref=ref, causal=causal: checks.check_ridge(out.matrix, ref, causal),
            ))

        def check_estimate(out):
            checks.require(out.code == 0, f"estimate exited {out.code}")
            doc = _cli_doc(out)
            checks.check_ridge(doc["result"]["matrix"], inputs["ridge_reference"][True], True)

        ops.append(Op("estimate:cli",
                      lambda: run_cli(mk, ["estimate", "--config", inputs["estimate_config"]]),
                      check_estimate))
        return ops


WORKLOADS = {w.name: w for w in (DenseLarge, HarnessZoo, Applications)}
