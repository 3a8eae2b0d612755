"""Run one workload of the mkernel benchmark and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one closed-loop caller: the workload's ops run one after the
other, in whole rounds, until S seconds have passed. Every op's output is
checked. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dense-large", "harness-zoo", "applications")
SETUP_REPEATS = 9  # fresh processes per run; setup_s is their median
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics: span self time per round
SELF_SPANS = (
    "kernels.eval_pairs", "kernels.gram_blocks", "certify.assemble_gram",
    "certify.certify_psd", "certify.random_search_witness", "integral.measure_gram",
    "integral.equivalence_harness", "integral.discretization_gap",
    "spectral.nystrom_decompose", "energy.minimize_energy", "cli.main",
)
# span total time (self and children) per round
TOTAL_SPANS = (
    "spectral.trace_functional", "control.assemble_control_qp", "control.solve_qp",
    "estimation.ridge_estimate", "estimation.load_dataset_csv",
)
# span calls per round
CALL_SPANS = ("kernels.eval_pairs", "certify.certify_psd", "energy.discrete_energy")
# work counts per round
COUNTS = ("kernels.pairs", "integral.test_functions", "energy.iterations", "cli.report_bytes")


def pin_blas_threads() -> int:
    """Fix the BLAS thread count in this process's environment, before numpy
    loads, so that it and every process it starts use the same count."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ.pop("MKERNEL_THREADS", None)
    return threads


def blas_report() -> dict:
    """numpy version, BLAS build, and the thread count read back from the
    loaded OpenBLAS (None where the library does not say)."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "cores": len(os.sched_getaffinity(0)),
            "blas": None, "blas_config": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        paths = [line.split()[-1] for line in fh if "openblas" in line.lower()]
    if not paths:
        return info
    lib = ctypes.CDLL(paths[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            info["blas_threads"] = get_threads()
            info["blas_config"] = get_config().decode()
            return info
    return info


def measure_setup(workload: str) -> list[dict]:
    """Set-up times of SETUP_REPEATS fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def warm_up(mk):
    """One small Gram and one eigh: the first eigh of a process runs slower."""
    import numpy as np

    kernel = mk.build_kernel(mk.Gaussian(1.0))
    mk.certify_psd(mk.assemble_gram(kernel, np.linspace(0.0, 1.0, 64)))
    A = np.random.default_rng(0).normal(size=(512, 512))
    np.linalg.eigh(A + A.T)


class Tally:
    """Op times and outcomes of the timed phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.op_seconds = 0.0  # all attempted ops
        self.ok_times = []  # ops that did not fail
        self.round_seconds = {False: [], True: []}  # op time per round, by traced


def run_op(op, tally, checks):
    """Time one op, then check its output outside the timed region."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception:  # a crashing op counts as failed; the run goes on
        dt = time.perf_counter() - t0
        tally.failed += 1
        print(f"op {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return dt, None
    dt = time.perf_counter() - t0
    try:
        op.check(out)
    except checks.KnownFault:
        tally.failed += 1
        return dt, out
    except Exception:  # a wrong output, or one the checks cannot read
        tally.correct = False
        print(f"op {op.name} output is wrong:\n{traceback.format_exc()}", file=sys.stderr)
        return dt, out
    tally.ok_times.append(dt)
    return dt, out


def timed_phase(ops, seconds, tracer, checks, CliOutput):
    """Whole rounds for about `seconds`: no round starts when less than half
    the last round's time is left. With a tracer, rounds alternate untraced
    and traced, at least one of each."""
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        try:
            round_s = 0.0
            for op in ops:
                dt, out = run_op(op, tally, checks)
                round_s += dt
                if traced and isinstance(out, CliOutput):
                    tracer.counts["cli.report_bytes"] += len(out.text.encode())
        finally:
            if traced:
                tracer.uninstall()
        tally.op_seconds += round_s
        tally.round_seconds[traced].append(round_s)
        r += 1
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds and (tracer is None or r >= 2):
            return tally


def end_to_end(tally, setup):
    setup_s = statistics.median(s["import_s"] + s["kernels_s"] + s["measures_s"] for s in setup)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(tally.ok_times), "s"),
        "ops_per_s": (len(tally.ok_times) / tally.op_seconds, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(tally, setup, tracer):
    rounds = len(tally.round_seconds[True])
    traced_wall = sum(tally.round_seconds[True]) / rounds
    untraced_wall = statistics.mean(tally.round_seconds[False])
    m = {
        "setup.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
        "domains.make_measure_s": (statistics.median(s["measures_s"] for s in setup), "s"),
        "domains.nodes": (setup[0]["nodes"], "count"),
    }
    for name in SELF_SPANS:
        m[f"{name}.self_s"] = (tracer.self_time[name] / rounds, "s")
    for name in TOTAL_SPANS:
        m[f"{name}_s"] = (tracer.total[name] / rounds, "s")
    for name in CALL_SPANS:
        m[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
    for name in COUNTS:
        m[name] = (tracer.counts[name] / rounds, "B" if name.endswith("bytes") else "count")
    for name in ("certify.gram_bytes_max", "integral.measure_gram_bytes_max"):
        m[name] = (tracer.counts[name], "B")
    m["trace.op_wall_s"] = (traced_wall, "s")
    m["trace.self_sum_s"] = (tracer.span_self_sum() / rounds, "s")
    m["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "mkernel" / "__init__.py").is_file():
        print(f"run.py: no mkernel sources under {SRC}", file=sys.stderr)
        return 2

    threads = pin_blas_threads()
    setup = measure_setup(args.workload)

    sys.path.insert(0, str(SRC))
    import numpy as np

    import mkernel as mk
    import mkernel.cli  # noqa: F401  (CLI ops call mk.cli.main)

    import checks
    import workloads
    from tracing import Tracer

    env = blas_report()
    print(f"environment: numpy {env['numpy']}, BLAS {env['blas']} ({env['blas_config']}), "
          f"BLAS threads pinned {threads}, in effect {env['blas_threads']}, cores {env['cores']}")

    w = workloads.WORKLOADS[args.workload]
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        kernels = w.build_kernels(mk)
        measures = w.build_measures(mk)
        inputs = w.make_inputs(mk, np.random.default_rng(args.seed), kernels, measures,
                               str(workdir))
        ops = w.ops(mk, kernels, measures, inputs)
        warm_up(mk)
        tracer = Tracer() if args.trace else None
        tally = timed_phase(ops, args.seconds, tracer, checks, workloads.CliOutput)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = per_layer(tally, setup, tracer) if args.trace else end_to_end(tally, setup)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per round, "
          f"{tally.attempted // len(ops)} rounds, {tally.attempted} ops attempted, "
          f"{tally.failed} failed, correct {tally.correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
