"""Config-driven command-line frontend.

Every subcommand reads a JSON config, runs one library pipeline, and emits
a JSON report containing the echoed effective config (so each number in
the report is reproducible from the report alone), the results, a schema
version and a timestamp. Reports are deterministic for a fixed config and
seed, byte for byte, except for the timestamp field.

Exit codes: 0 = completed with a PD/feasible outcome, 2 = completed but a
violation witness or unbounded direction was found, 1 = usage, config or
runtime error (diagnostic on stderr, no report written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .applications.control import assemble_control_qp, solve_control_qp
from .applications.energy import minimize_energy
from .applications.estimation import load_dataset_csv, ridge_estimate
from .certify import assemble_gram, certify_psd
from .domains import domain_from_json, load_points_csv, make_measure
from .integral import discretization_gap, equivalence_harness
from .kernels import build_kernel, spec_from_json
from .spectral import nystrom_decompose, trace_functional

SCHEMA_VERSION = "1"


def _apply_thread_cap() -> None:
    cap = os.environ.get("MKERNEL_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        return
    try:
        import threadpoolctl
    except ImportError:
        # numpy has already loaded its BLAS, so setting OPENBLAS_NUM_THREADS
        # and friends now would change nothing; say so instead.
        print(f"mkernel: MKERNEL_THREADS={cap} ignored: threadpoolctl is not "
              "installed, no BLAS thread cap applied", file=sys.stderr)
        return
    threadpoolctl.threadpool_limits(n)


def _load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _build_kernel(cfg: dict, allow_unbounded: bool = False):
    if "kernel" not in cfg:
        raise ValueError("config is missing the 'kernel' entry")
    return build_kernel(spec_from_json(cfg["kernel"]), allow_unbounded=allow_unbounded)


def _build_domain(cfg: dict):
    if "domain" not in cfg:
        raise ValueError("config is missing the 'domain' entry")
    return domain_from_json(cfg["domain"])


def _build_measure(cfg: dict, domain):
    mcfg = cfg.get("measure", {})
    rule = mcfg.get("rule", "trapezoid")
    resolution = mcfg.get("resolution", 65)
    measure = make_measure(domain, rule, resolution)
    return measure, {"rule": rule, "resolution": resolution}


def _point_rows(points: np.ndarray) -> np.ndarray:
    """One point per row, as the library reads it: a 1-D list is n 1-D points."""
    return points.reshape(-1, 1) if points.ndim == 1 else points


def _require_in_domain(points: np.ndarray, domain) -> None:
    """Reject the first given point outside the domain."""
    for i, p in enumerate(_point_rows(points)):
        if not domain.contains(p):
            raise ValueError(f"point {i} {p.tolist()} lies outside the domain "
                             f"{json.dumps(domain.to_json())}")


def _common(cfg: dict) -> tuple[float, int]:
    return float(cfg.get("tolerance", 1e-9)), int(cfg.get("seed", 0))


def cmd_certify(args) -> tuple[dict, dict, int]:
    cfg = _load_config(args.config)
    tolerance, seed = _common(cfg)
    kernel = _build_kernel(cfg)
    domain = _build_domain(cfg)
    if args.points or "points" in cfg:
        points = (load_points_csv(args.points) if args.points
                  else np.asarray(cfg["points"], dtype=float))
        _require_in_domain(points, domain)
    else:
        points = domain.sample(np.random.default_rng(seed), int(cfg.get("n_points", 8)))
    report = certify_psd(assemble_gram(kernel, points), tolerance)
    echo = {
        "kernel": cfg["kernel"],
        "domain": domain.to_json(),
        "points": _point_rows(points).tolist(),
        "tolerance": tolerance,
        "seed": seed,
    }
    return echo, report.to_json(), 0 if report.certified else 2


def cmd_equivalence(args) -> tuple[dict, dict, int]:
    cfg = _load_config(args.config)
    tolerance, seed = _common(cfg)
    if args.seed is not None:
        seed = args.seed
    trials = args.trials if args.trials is not None else int(cfg.get("trials", 200))
    kernel = _build_kernel(cfg)
    domain = _build_domain(cfg)
    measure, mecho = _build_measure(cfg, domain)
    harness = equivalence_harness(kernel, measure, trials=trials, seed=seed,
                                  tolerance=tolerance)
    echo = {
        "kernel": cfg["kernel"],
        "domain": domain.to_json(),
        "measure": mecho,
        "trials": trials,
        "tolerance": tolerance,
        "seed": seed,
    }
    found = ((harness.discrete is not None and harness.discrete.found)
             or (harness.integral is not None and harness.integral.violations > 0))
    return echo, harness.to_json(), 2 if found else 0


def cmd_gap(args) -> tuple[dict, dict, int]:
    cfg = _load_config(args.config)
    tolerance, seed = _common(cfg)
    delta = args.delta if args.delta is not None else float(cfg["delta"])
    epsilon = args.epsilon if args.epsilon is not None else float(cfg["epsilon"])
    kernel = _build_kernel(cfg)
    domain = _build_domain(cfg)
    measure, mecho = _build_measure(cfg, domain)
    centers = np.asarray(cfg["centers"], dtype=float)
    coefficients = np.asarray(cfg["coefficients"], dtype=float)
    report = discretization_gap(kernel, measure, centers, coefficients, delta, epsilon)
    echo = {
        "kernel": cfg["kernel"],
        "domain": domain.to_json(),
        "measure": mecho,
        "centers": _point_rows(centers).tolist(),
        "coefficients": np.atleast_2d(coefficients).tolist(),
        "delta": delta,
        "epsilon": epsilon,
        "tolerance": tolerance,
        "seed": seed,
    }
    return echo, report.to_json(), 0


def cmd_spectrum(args) -> tuple[dict, dict, int]:
    cfg = _load_config(args.config)
    tolerance, seed = _common(cfg)
    rank = args.rank if args.rank is not None else cfg.get("rank")
    drop = float(cfg.get("drop_tolerance", 1e-12))
    kernel = _build_kernel(cfg)
    domain = _build_domain(cfg)
    measure, mecho = _build_measure(cfg, domain)
    decomp = nystrom_decompose(kernel, measure, drop_tolerance=drop)
    result = decomp.to_json(max_rank=rank)
    result["trace"] = trace_functional(kernel, measure)
    echo = {
        "kernel": cfg["kernel"],
        "domain": domain.to_json(),
        "measure": mecho,
        "rank": rank,
        "drop_tolerance": drop,
        "tolerance": tolerance,
        "seed": seed,
    }
    return echo, result, 2 if decomp.not_pd else 0


def cmd_energy(args) -> tuple[dict, dict, int]:
    cfg = _load_config(args.config)
    tolerance, seed = _common(cfg)
    if args.seed is not None:
        seed = args.seed
    n = args.n if args.n is not None else int(cfg.get("n", 4))
    iters = args.iters if args.iters is not None else int(cfg.get("iterations", 500))
    kernel = _build_kernel(cfg, allow_unbounded=True)
    domain = _build_domain(cfg)
    res = minimize_energy(kernel, domain, n, iterations=iters, seed=seed)
    result = res.to_json()
    e = res.configuration.energy
    result["capacity"] = 1.0 / e if e > 0 else None
    echo = {
        "kernel": cfg["kernel"],
        "domain": domain.to_json(),
        "n": n,
        "iterations": iters,
        "tolerance": tolerance,
        "seed": seed,
    }
    return echo, result, 0


def cmd_control(args) -> tuple[dict, dict, int]:
    cfg = _load_config(args.config)
    tolerance, seed = _common(cfg)
    if args.partition:
        partition = [float(t) for t in args.partition.split(",")]
    else:
        partition = [float(t) for t in cfg["partition"]]
    kernel = _build_kernel(cfg)
    if "linear_term" in cfg:
        linear = np.asarray(cfg["linear_term"], dtype=float)
        linear_echo = {"linear_term": linear.tolist()}
    else:
        beta = cfg.get("beta", 0.0)
        const = np.atleast_1d(np.asarray(beta, dtype=float))
        if const.size == 1 and kernel.output_dim > 1:
            const = np.full(kernel.output_dim, float(const[0]))
        linear = const
        linear_echo = {"beta": const.tolist()}
    qp = assemble_control_qp(kernel, partition, linear)
    hessian = certify_psd(qp.H, tolerance)
    sol = solve_control_qp(qp, tolerance)
    result = {
        "breakpoints": qp.breakpoints.tolist(),
        "midpoints": qp.midpoints.tolist(),
        "widths": qp.widths.tolist(),
        "hessian_verdict": hessian.verdict,
        "hessian_eig_min": hessian.min_eigenvalue,
        "hessian_eig_max": hessian.max_eigenvalue,
        "solution": sol.to_json(),
    }
    echo = {
        "kernel": cfg["kernel"],
        "partition": partition,
        **linear_echo,
        "tolerance": tolerance,
        "seed": seed,
    }
    return echo, result, 2 if sol.unbounded else 0


def cmd_estimate(args) -> tuple[dict, dict, int]:
    cfg = _load_config(args.config)
    tolerance, seed = _common(cfg)
    data_path = args.data if args.data is not None else cfg.get("data")
    if not data_path:
        raise ValueError("estimate needs --data or a 'data' config entry")
    lam = args.lam if args.lam is not None else cfg.get("lambda")
    if lam is None:
        raise ValueError("estimate needs --lambda or a 'lambda' config entry")
    causal = bool(args.causal or cfg.get("causal", False))
    dataset = load_dataset_csv(data_path)
    res = ridge_estimate(dataset, float(lam), causal=causal)
    echo = {
        "data": str(data_path),
        "lambda": float(lam),
        "causal": causal,
        "n_samples": dataset.n_samples,
        "series_length": dataset.series_length,
        "tolerance": tolerance,
        "seed": seed,
    }
    return echo, res.to_json(), 0


_HANDLERS = {
    "certify": cmd_certify,
    "equivalence": cmd_equivalence,
    "gap": cmd_gap,
    "spectrum": cmd_spectrum,
    "energy": cmd_energy,
    "control": cmd_control,
    "estimate": cmd_estimate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkernel",
        description="Positive definiteness certification and applications "
                    "for matrix-valued kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        return p

    p = add("certify", "certify a Gram matrix PSD or find a witness")
    p.add_argument("--points", help="CSV point list (header x1..xd)")

    p = add("equivalence", "compare discrete and integral PD verdicts")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = add("gap", "bump-function discretization gap analysis")
    p.add_argument("--delta", type=float)
    p.add_argument("--epsilon", type=float)

    p = add("spectrum", "eigendecompose the kernel operator on a measure")
    p.add_argument("--rank", type=int)

    p = add("energy", "minimize the discrete energy of a configuration")
    p.add_argument("--n", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--seed", type=int)

    p = add("control", "assemble and solve the control QP on a partition")
    p.add_argument("--partition", help="comma-separated breakpoints, e.g. 0,0.5,1")

    p = add("estimate", "ridge-estimate a Volterra kernel from data")
    p.add_argument("--data", help="CSV of u-row/y-row sample pairs")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--causal", action="store_true")

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the error code
        return 0 if exc.code == 0 else 1
    try:
        echo, result, code = _HANDLERS[args.command](args)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"mkernel {args.command}: error: {exc}", file=sys.stderr)
        return 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": echo,
        "result": result,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
