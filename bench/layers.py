"""Time each layer of mkernel at fixed sizes and write the timings as JSON.

Usage (from the root of a checkout):

    python3 bench/layers.py --out BENCH_<n>.json [--repeats 5]

The layers are: leaf kernel evaluation (a Gaussian cross evaluation, and
Riesz on the 2,208 paired 2-D points of one 24-point energy gradient), Gram
assembly, the PSD decision (the dense PD zoo Grams of order 1,536, the zoo's
weighted Grams over a 257-node measure, and one `neg_distance` witness at
order 1,536), the witness search (on each zoo kernel, and on a Python
callable refuted late and a two-term kernel refuted early, over ten seeds
each), the equivalence harness, `nystrom_decompose`, the energy minimiser,
the control solve and `mkernel certify` wall time, import included. Each
entry is the best and the median of `--repeats` timed calls after one untimed
call, with the size it was taken at. The Riesz leaf and the small verdicts
(`decide.small`: `certify_psd` of a 4 x 4 SPD matrix and of a 24-point
Gaussian Gram, a 16-cell control solve, and, in `decide.fallback`, a 64 x 64
Gram that the eigenvalue rule decides) take tens of microseconds, so
each of their repeats times 1,000 calls and reports the time per call. The
file also records the numpy version, the BLAS build and the BLAS thread
count, pinned and read back as the benchmark in `perfbench/run.py` does.
Only the public API is used, so the script runs on any checkout that has
it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import blas_report, pin_blas_threads  # noqa: E402  (stdlib only at import)

GRAM_ORDER = 1536
DENSE_PD = ("gaussian", "brownian", "constant", "riesz_regularized", "sum_gaussian_constant")
HARNESS_NODES = 257
SEARCH_TRIALS = 200
LATE_SEEDS = 10
BROWNIAN_NODES = 1537
LIFT_GRID = 31
CONTROL_CELLS = 512
ENERGY_POINTS = 24
ENERGY_ITERATIONS = 100
RIESZ_PAIRS = 2 * ENERGY_POINTS * 2 * (ENERGY_POINTS - 1)  # the pairs of one gradient
SMALL_CALLS = 1000
SMALL_POINTS = 24
SMALL_CELLS = 16
FALLBACK_ORDER = 64


def _timed(fn, repeats: int, calls: int = 1) -> dict:
    """Best and median time per call of `repeats` runs of `calls` calls each."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return {"best_s": min(times), "median_s": statistics.median(times)}


def layers(mk, np, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    zoo = {e.name: (e, mk.build_kernel(e.spec)) for e in mk.kernel_zoo()}
    points = {name: rng.uniform(0.0, 1.0, size=(GRAM_ORDER // k.output_dim, 1))
              for name, (_, k) in zoo.items()}
    line = mk.make_measure(mk.make_box_domain([0.0], [1.0]), "trapezoid", HARNESS_NODES)
    out = {}
    per_call = f"per call, {SMALL_CALLS} calls per repeat"

    def add(name, size, fn, calls=1):
        out[name] = {"size": size, **_timed(fn, repeats, calls)}
        print(f"  {name:44s} {out[name]['best_s'] * 1e3:10.3f} ms  ({size})", flush=True)

    gaussian = zoo["gaussian"][1]
    P = points["gaussian"]
    add("leaf.gaussian_eval_pairwise", f"{len(P)} x {len(P)} pairs",
        lambda: gaussian.eval_pairwise(P, P))
    riesz = mk.build_kernel(mk.Riesz(1.0, 0.0), allow_unbounded=True)
    # drawn from a generator of its own, so the later rows' inputs stay as they were
    X, Y = np.random.default_rng(1).normal(size=(2, RIESZ_PAIRS, 2))
    add("leaf.riesz_eval_pairs_2d", f"{RIESZ_PAIRS} pairs of 2-D points, {per_call}",
        lambda: riesz.eval_pairs(X, Y), SMALL_CALLS)
    for name, (_, k) in zoo.items():
        add(f"assemble.{name}", f"order {GRAM_ORDER}",
            lambda k=k, P=points[name]: mk.assemble_gram(k, P))

    grams = {name: mk.assemble_gram(zoo[name][1], points[name]) for name in DENSE_PD}
    for name, g in grams.items():
        add(f"decide.dense_pd.{name}", f"order {GRAM_ORDER}", lambda g=g: mk.certify_psd(g))
    del grams
    for name, (_, k) in zoo.items():
        g = mk.weighted_gram(k, line)
        add(f"decide.weighted_{HARNESS_NODES}.{name}", f"{HARNESS_NODES} nodes",
            lambda g=g: mk.certify_psd(g))
    g = mk.assemble_gram(zoo["neg_distance"][1], points["neg_distance"])
    add("decide.witness.neg_distance", f"order {GRAM_ORDER}", lambda: mk.certify_psd(g))
    del g
    A = rng.normal(size=(4, 4))
    spd = A @ A.T + 4.0 * np.eye(4)
    add("decide.small.spd_4x4", f"4 x 4, {per_call}", lambda: mk.certify_psd(spd), SMALL_CALLS)
    small = mk.assemble_gram(gaussian, rng.uniform(0.0, 1.0, size=(SMALL_POINTS, 1)))
    add(f"decide.small.gaussian_{SMALL_POINTS}", f"{SMALL_POINTS} points, {per_call}",
        lambda: mk.certify_psd(small), SMALL_CALLS)
    qp = mk.assemble_control_qp(gaussian, np.linspace(0.0, 1.0, SMALL_CELLS + 1), 1.0)
    add(f"decide.small.solve_qp_{SMALL_CELLS}", f"{SMALL_CELLS} cells, {per_call}",
        lambda: mk.solve_control_qp(qp), SMALL_CALLS)
    # the 2 x 2 scan refutes its first block, but that witness is within rounding
    # of the threshold: the eigenvalue rule decides, and certifies it
    ones = np.ones((FALLBACK_ORDER, FALLBACK_ORDER))
    ones[0, 0] -= 1e-8
    add(f"decide.fallback.ones_{FALLBACK_ORDER}", f"order {FALLBACK_ORDER}, {per_call}",
        lambda: mk.certify_psd(ones), SMALL_CALLS)

    for name, (_, k) in zoo.items():
        add(f"search.{name}", f"{SEARCH_TRIALS} trials",
            lambda k=k: mk.random_search_witness(k, line.domain, trials=SEARCH_TRIALS))
    # refuted at trials 36, 164, 75, 38, 30, 62, 3, none, 20, 133 of seeds 0-9: a
    # Python callable pays per pair evaluated, also for trials past the refuting one
    late = mk.kernel_from_callable(
        mk.build_kernel(mk.Sum((mk.Scale(0.5, mk.Gaussian(0.1)), mk.NegDistance()))), 1,
        "refuted_late")
    add("search.refuted_late_callable", f"seeds 0-{LATE_SEEDS - 1}, {SEARCH_TRIALS} trials each",
        lambda: [mk.random_search_witness(late, line.domain, trials=SEARCH_TRIALS, seed=s)
                 for s in range(LATE_SEEDS)])
    # a two-term kernel refuted on its first trials: a failing trial is solved
    # again with eigenvectors on both terms
    block_neg = mk.build_kernel(mk.BlockDiag((mk.Gaussian(1.0), mk.NegDistance())))
    add("search.block_diag_neg", f"seeds 0-{LATE_SEEDS - 1}, {SEARCH_TRIALS} trials each",
        lambda: [mk.random_search_witness(block_neg, line.domain, trials=SEARCH_TRIALS, seed=s)
                 for s in range(LATE_SEEDS)])
    for name, (_, k) in zoo.items():
        add(f"harness.{name}", f"{HARNESS_NODES} nodes, {SEARCH_TRIALS} trials",
            lambda k=k: mk.equivalence_harness(k, line, trials=SEARCH_TRIALS))

    brownian_line = mk.make_measure(mk.make_box_domain([0.0], [1.0]), "trapezoid",
                                    BROWNIAN_NODES)
    square = mk.make_measure(mk.make_box_domain([0.0, 0.0], [1.0, 1.0]), "trapezoid", LIFT_GRID)
    add("nystrom.brownian", f"{BROWNIAN_NODES} nodes",
        lambda: mk.nystrom_decompose(zoo["brownian"][1], brownian_line))
    add("nystrom.gaussian_lift", f"{LIFT_GRID} x {LIFT_GRID} nodes",
        lambda: mk.nystrom_decompose(zoo["gaussian_lift"][1], square))

    bp = np.linspace(0.0, 1.0, CONTROL_CELLS + 1)
    for name in ("gaussian", "neg_distance"):
        qp = mk.assemble_control_qp(zoo[name][1], bp, 1.0)
        add(f"control.solve.{name}", f"{CONTROL_CELLS} cells",
            lambda qp=qp: mk.solve_control_qp(qp))

    add("energy.riesz_circle", f"{ENERGY_POINTS} points, {ENERGY_ITERATIONS} iterations",
        lambda: mk.minimize_energy(riesz, mk.make_circle_domain(1.0), ENERGY_POINTS,
                                   iterations=ENERGY_ITERATIONS))

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "certify.json"
        cfg.write_text(json.dumps({"kernel": {"gaussian": 1.0}, "n_points": 64,
                                   "domain": {"kind": "box", "lower": [0.0], "upper": [1.0]}}))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

        def cli():
            subprocess.run([sys.executable, "-m", "mkernel", "certify", "--config", str(cfg)],
                           check=True, capture_output=True, env=env)

        add("cli.certify_wall", "64 points, import included", cli)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import mkernel as mk

    env = blas_report()
    print(f"numpy {env['numpy']}, BLAS {env['blas']} ({env['blas_config']}), "
          f"threads pinned {threads}, in effect {env['blas_threads']}, cores {env['cores']}")
    doc = {"environment": {**env, "blas_threads_pinned": threads}, "repeats": args.repeats,
           "layers": layers(mk, np, args.repeats)}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
