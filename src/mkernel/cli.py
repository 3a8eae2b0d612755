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
import functools
import json
import sys
from datetime import datetime, timezone

import numpy as np

from .applications.control import assemble_control_qp, solve_control_qp
from .applications.energy import minimize_energy
from .applications.estimation import load_dataset_csv, ridge_estimate
from .certify import assemble_gram, certify_psd
from .domains import domain_from_json, load_points_csv, make_measure, require_inside
from .integral import discretization_gap, equivalence_harness
from .kernels import as_points, build_kernel, config_entry, json_array, json_number, spec_from_json
from .spectral import check_rank, nystrom_decompose, trace_functional

SCHEMA_VERSION = "4"


def _load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def cmd_certify(args, cfg) -> tuple[dict, dict, int]:
    if args.points or "points" in cfg:
        points = (load_points_csv(args.points) if args.points
                  else as_points(_array(cfg, "points"), "config entry 'points'"))
        require_inside(args.domain, points, "point")
    else:
        n_points = _number(cfg, "n_points", 8, True)
        points = args.domain.sample(np.random.default_rng(args.seed), n_points)
    report = certify_psd(assemble_gram(args.kernel, points), args.tolerance)
    return {"points": points.tolist()}, report.to_json(), 0 if report.certified else 2


def cmd_equivalence(args, cfg) -> tuple[dict, dict, int]:
    trials = args.trials if args.trials is not None else _number(cfg, "trials", 200, True)
    harness = equivalence_harness(args.kernel, args.measure, trials=trials, seed=args.seed,
                                  tolerance=args.tolerance)
    found = ((harness.discrete is not None and harness.discrete.found)
             or (harness.integral is not None and not harness.integral.certified))
    return {"trials": trials}, harness.to_json(), 2 if found else 0


def cmd_gap(args, cfg) -> tuple[dict, dict, int]:
    delta = args.delta if args.delta is not None else _number(cfg, "delta")
    epsilon = args.epsilon if args.epsilon is not None else _number(cfg, "epsilon")
    centers = as_points(_array(cfg, "centers"), "config entry 'centers'")
    coefficients = _array(cfg, "coefficients")
    report = discretization_gap(args.kernel, args.measure, centers, coefficients, delta, epsilon)
    echo = {
        "centers": centers.tolist(),
        "coefficients": np.atleast_2d(coefficients).tolist(),
        "delta": delta,
        "epsilon": epsilon,
    }
    return echo, report.to_json(), 0


def cmd_spectrum(args, cfg) -> tuple[dict, dict, int]:
    rank = args.rank if args.rank is not None else _number(cfg, "rank", None, True)
    drop = _number(cfg, "drop_tolerance", 1e-12)
    check_rank(rank)  # before the eigensolve, not after it
    decomp = nystrom_decompose(args.kernel, args.measure, drop_tolerance=drop)
    result = decomp.to_json(max_rank=rank)
    result["trace"] = trace_functional(args.kernel, args.measure)
    return {"rank": rank, "drop_tolerance": drop}, result, 2 if decomp.not_pd else 0


def cmd_energy(args, cfg) -> tuple[dict, dict, int]:
    n = args.n if args.n is not None else _number(cfg, "n", 4, True)
    iters = args.iters if args.iters is not None else _number(cfg, "iterations", 500, True)
    res = minimize_energy(args.kernel, args.domain, n, iterations=iters, seed=args.seed)
    result = res.to_json()
    e = res.configuration.energy
    result["capacity"] = 1.0 / e if e > 0 else None
    return {"n": n, "iterations": iters}, result, 0


def cmd_control(args, cfg) -> tuple[dict, dict, int]:
    if args.partition:
        partition = []
        for t in args.partition.split(","):
            try:
                t = float(t)
            except ValueError:  # left as text, which json_number names with the flag
                pass
            partition.append(json_number(t, "--partition"))
    else:
        partition = config_entry(cfg, "partition")
        if not isinstance(partition, list):
            raise ValueError(f"config entry 'partition' must be a list of breakpoints, "
                             f"got {json.dumps(partition)}")
        partition = [json_number(t, "config entry 'partition'") for t in partition]
    if "linear_term" in cfg:
        linear = _array(cfg, "linear_term")
        linear_echo = {"linear_term": linear.tolist()}
    else:
        linear = np.atleast_1d(_array(cfg, "beta", 0.0))
        if linear.size == 1 and args.kernel.output_dim > 1:
            linear = np.full(args.kernel.output_dim, float(linear[0]))
        linear_echo = {"beta": linear.tolist()}
    qp = assemble_control_qp(args.kernel, partition, linear)
    sol = solve_control_qp(qp, args.tolerance)
    result = {
        "breakpoints": qp.breakpoints.tolist(),
        "midpoints": qp.midpoints.tolist(),
        "widths": qp.widths.tolist(),
        "hessian_verdict": sol.hessian.verdict,
        "hessian_eig_min": sol.hessian.min_eigenvalue,
        "hessian_eig_max": sol.hessian.max_eigenvalue,
        "solution": sol.to_json(),
    }
    return {"partition": partition, **linear_echo}, result, 2 if sol.unbounded else 0


def cmd_estimate(args, cfg) -> tuple[dict, dict, int]:
    data_path = args.data if args.data is not None else cfg.get("data")
    if not data_path:
        raise ValueError("estimate needs --data or a 'data' config entry")
    if not isinstance(data_path, str):
        raise ValueError(f"config entry 'data' must be a file path, got {json.dumps(data_path)}")
    lam = args.lam if args.lam is not None else _number(cfg, "lambda", None)
    if lam is None:
        raise ValueError("estimate needs --lambda or a 'lambda' config entry")
    causal = cfg.get("causal", False)
    if not isinstance(causal, bool):
        raise ValueError(f"config entry 'causal' must be true or false, got {causal!r}")
    causal = args.causal or causal
    dataset = load_dataset_csv(data_path)
    res = ridge_estimate(dataset, lam, causal=causal)
    echo = {
        "data": str(data_path),
        "lambda": lam,
        "causal": causal,
        "n_samples": dataset.n_samples,
        "series_length": dataset.series_length,
    }
    return echo, res.to_json(), 0


# Each subcommand: its handler, the config entries main builds for it (onto
# args, in this order), its help text and its own flags. A handler returns
# (its echo entries, result, exit code).
_COMMANDS = {
    "certify": (cmd_certify, ("kernel", "domain"),
                "certify a Gram matrix PSD or find a witness",
                {"--points": {"help": "CSV point list (header x1..xd)"}}),
    "equivalence": (cmd_equivalence, ("kernel", "domain", "measure"),
                    "compare discrete and integral PD verdicts",
                    {"--trials": {"type": int}, "--seed": {"type": int}}),
    "gap": (cmd_gap, ("kernel", "domain", "measure"),
            "bump-function discretization gap analysis",
            {"--delta": {"type": float}, "--epsilon": {"type": float}}),
    "spectrum": (cmd_spectrum, ("kernel", "domain", "measure"),
                 "eigendecompose the kernel operator on a measure",
                 {"--rank": {"type": int}}),
    "energy": (cmd_energy, ("kernel", "domain"),
               "minimize the discrete energy of a configuration",
               {"--n": {"type": int}, "--iters": {"type": int}, "--seed": {"type": int}}),
    "control": (cmd_control, ("kernel",),
                "assemble and solve the control QP on a partition",
                {"--partition": {"help": "comma-separated breakpoints, e.g. 0,0.5,1"}}),
    "estimate": (cmd_estimate, (),
                 "ridge-estimate a Volterra kernel from data",
                 {"--data": {"help": "CSV of u-row/y-row sample pairs"},
                  "--lambda": {"dest": "lam", "type": float},
                  "--causal": {"action": "store_true"}}),
}


def _number(cfg: dict, name: str, default=..., integer: bool = False):
    """A numeric config entry; without a default (which may be None) it is required."""
    value = config_entry(cfg, name, default)
    return None if value is None else json_number(value, f"config entry {name!r}", integer)


def _array(cfg: dict, name: str, default=...) -> np.ndarray:
    """A config entry of numbers (a number or nested lists); required without a default."""
    return json_array(config_entry(cfg, name, default), f"config entry {name!r}")


def _object_entry(cfg: dict, name: str, default=...) -> dict:
    """A config entry that must be a JSON object; required unless a default is given."""
    value = config_entry(cfg, name, default)
    if not isinstance(value, dict):
        raise ValueError(f"config entry {name!r} must be a JSON object, got {json.dumps(value)}")
    return value


def _set_up(args, cfg: dict, needs: tuple) -> dict:
    """Resolve tolerance and seed (a --seed flag wins) and build the entries a
    command needs onto args; return their echo."""
    args.tolerance = _number(cfg, "tolerance", 1e-9)
    seed = _number(cfg, "seed", 0, True)
    args.seed = seed if getattr(args, "seed", None) is None else args.seed
    echo = {"tolerance": args.tolerance, "seed": args.seed}
    if "kernel" in needs:
        # The energy sums over distinct points only, so it takes kernels
        # that are unbounded on the diagonal.
        spec = spec_from_json(_object_entry(cfg, "kernel"))
        args.kernel = build_kernel(spec, allow_unbounded=args.command == "energy")
        echo["kernel"] = cfg["kernel"]
    if "domain" in needs:
        args.domain = domain_from_json(_object_entry(cfg, "domain"))
        echo["domain"] = args.domain.to_json()
    if "measure" in needs:
        mcfg = _object_entry(cfg, "measure", {})
        rule = mcfg.get("rule", "trapezoid")
        resolution = mcfg.get("resolution", 65)
        args.measure = make_measure(args.domain, rule, resolution)
        echo["measure"] = {"rule": rule, "resolution": resolution}
    return echo


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkernel",
        description="Positive definiteness certification and applications "
                    "for matrix-valued kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        for flag, options in flags.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the error code
        return 0 if exc.code == 0 else 1
    handler, needs, _, _ = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.config)
        echo = _set_up(args, cfg, needs)
        own_echo, result, code = handler(args, cfg)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"mkernel {args.command}: error: {exc}", file=sys.stderr)
        return 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": {**echo, **own_echo},
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
