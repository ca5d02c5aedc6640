"""Batch command-line front end.

Subcommands map one-to-one onto library operations:

* ``solve``     integrate the coupon ODE system, write ode.csv
* ``simulate``  run the coupon process, write trajectory CSVs
* ``compare``   one run vs the ODE, write trajectory/ode/deviation CSVs
* ``scaling``   mean sup-deviation across several n, write scaling.csv
* ``gumbel``    cover-time tail probabilities, write gumbel.csv
* ``check``     empirical hypothesis verification, write check.json

Every invocation also writes ``manifest.json`` (config echo, seeds,
package versions, output list) next to its data files.  Output is
byte-stable: floats are printed with 17 significant digits, lines end in
``\\n``, and the manifest carries no timestamps, so identical flags give
byte-identical files.

Exit codes: 0 success (including domain exit, which is an outcome, not a
failure), 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import gumbel_experiment, scaling_study, sup_deviation
from .coupon import make_coupon_spec
from .errors import ContractError, NumericalError
from .montecarlo import RunPlan, check_hypotheses, simulate
from .ode import IntegratorConfig, integrate
from .process import Trajectory
from .rng import derive_seed

#: Environment variable naming the default output directory.
OUT_DIR_ENV = "WORMALD_OUT"

# Per-subcommand defaults; None marks required-or-derived values.  A flag
# the user does not pass falls back to the config file, then to this table.
_DEFAULTS = {
    "solve": {"l": 10, "s_max": 4.0, "h": 1e-3, "grid_stride": 10},
    "simulate": {"runs": 1, "seed": 0, "l": 10, "s_max": None,
                 "h": 1e-3, "grid_stride": 10},
    "compare": {"seed": 0, "l": 10, "s_max": 4.0, "h": 1e-3, "grid_stride": 10},
    "scaling": {"ns": (1000, 10000, 100000), "runs": 20, "seed": 0, "l": 10,
                "s_max": 4.0, "h": 1e-3, "grid_stride": 10},
    "gumbel": {"trials": 1000, "cs": (-1.0, 0.0, 1.0, 2.0), "seed": 0},
    "check": {"runs": 10, "seed": 0, "l": 10, "s_max": None,
              "state_samples": 50, "drift_samples": 10000},
}

_REQUIRED = {
    "solve": (),
    "simulate": ("n",),
    "compare": ("n",),
    "scaling": (),
    "gumbel": ("n",),
    "check": ("n",),
}


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals: {text!r}") from exc


def _normalize_list_flags(argv: list[str]) -> list[str]:
    """Join list flags with their value so negative entries parse.

    argparse treats ``-1,0,1,2`` as an option string; rewriting the pair
    ``--cs -1,0,1,2`` as the single token ``--cs=-1,0,1,2`` sidesteps that.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--cs", "--ns") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wormald",
        description="Simulate discrete stochastic processes and compare them "
                    "with their limiting ODE systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *names):
        # Every default is None so explicit flags are distinguishable from
        # config-file and built-in defaults during resolution.
        if "n" in names:
            p.add_argument("--n", type=int, default=None, help="number of coupon types")
        if "runs" in names:
            p.add_argument("--runs", type=int, default=None, help="number of runs")
        if "seed" in names:
            p.add_argument("--seed", type=int, default=None, help="master seed")
        if "l" in names:
            p.add_argument("--l", type=int, default=None, help="truncation level")
        if "s_max" in names:
            p.add_argument("--s-max", dest="s_max", type=float, default=None,
                           help="scaled-time horizon")
        if "h" in names:
            p.add_argument("--h", type=float, default=None, help="RK4 step size")
        if "grid_stride" in names:
            p.add_argument("--grid-stride", dest="grid_stride", type=int, default=None,
                           help="emit every k-th step")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--out", type=str, default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or '.')")

    p = sub.add_parser("solve", help="integrate the coupon ODE system")
    add_common(p, "l", "s_max", "h", "grid_stride")

    p = sub.add_parser("simulate", help="run the coupon process")
    add_common(p, "n", "runs", "seed", "l", "s_max", "h", "grid_stride")

    p = sub.add_parser("compare", help="one simulation against the ODE")
    add_common(p, "n", "seed", "l", "s_max", "h", "grid_stride")

    p = sub.add_parser("scaling", help="sup-deviation decay across n")
    p.add_argument("--ns", type=_parse_int_list, default=None,
                   help="comma-separated n values")
    add_common(p, "runs", "seed", "l", "s_max", "h", "grid_stride")

    p = sub.add_parser("gumbel", help="cover-time tail probabilities")
    p.add_argument("--cs", type=_parse_float_list, default=None,
                   help="comma-separated c values")
    p.add_argument("--trials", type=int, default=None, help="cover times to sample")
    add_common(p, "n", "seed")

    p = sub.add_parser("check", help="verify the method's hypotheses empirically")
    p.add_argument("--state-samples", dest="state_samples", type=int, default=None,
                   help="pilot states for the drift check")
    p.add_argument("--drift-samples", dest="drift_samples", type=int, default=None,
                   help="single-step samples per pilot state")
    add_common(p, "n", "runs", "seed", "l", "s_max")

    return parser


def _load_config_file(path: str, allowed: Sequence[str]) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ContractError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ContractError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ContractError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ContractError(f"unknown config keys: {', '.join(unknown)}")
    return data


_INT_KEYS = {"n", "runs", "seed", "l", "grid_stride", "trials",
             "state_samples", "drift_samples"}
_FLOAT_KEYS = {"s_max", "h"}


def _coerce(key: str, value):
    """Give config-file values the same types the flag parsers produce."""
    if key == "ns":
        if isinstance(value, str):
            return _parse_int_list(value)
        return tuple(int(v) for v in value)
    if key == "cs":
        if isinstance(value, str):
            return _parse_float_list(value)
        return tuple(float(v) for v in value)
    if key in _INT_KEYS:
        try:
            numeric = float(value)
        except (TypeError, ValueError):
            raise ContractError(f"config key {key!r} must be an integer") from None
        if numeric != int(numeric):
            raise ContractError(f"config key {key!r} must be an integer")
        return int(numeric)
    if key in _FLOAT_KEYS:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ContractError(f"config key {key!r} must be a real number") from None
    return value


def _resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and explicit flags, in that order."""
    defaults = _DEFAULTS[args.command]
    allowed = list(defaults) + list(_REQUIRED[args.command]) + ["out"]
    file_values = {}
    if args.config is not None:
        file_values = _load_config_file(args.config, allowed)

    config = {}
    for key in set(defaults) | set(_REQUIRED[args.command]):
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            config[key] = flag_value
        elif key in file_values:
            config[key] = _coerce(key, file_values[key])
        else:
            config[key] = defaults.get(key)
    for key in _REQUIRED[args.command]:
        if config.get(key) is None:
            raise ContractError(f"--{key} is required for '{args.command}'")

    if args.out is not None:
        out_dir = args.out
    elif "out" in file_values:
        out_dir = str(file_values["out"])
    else:
        out_dir = os.environ.get(OUT_DIR_ENV, ".")
    config["out"] = out_dir
    return config


def _write_lines(path: str, lines: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def _trajectory_lines(traj: Trajectory) -> list[str]:
    header = "s," + ",".join(f"z{i}" for i in range(traj.coord_count))
    lines = [header]
    for k in range(len(traj)):
        lines.append(_fmt(traj.s[k]) + "," + ",".join(_fmt(v) for v in traj.z[k]))
    return lines


def _deviation_lines(reports) -> list[str]:
    a = len(reports[0].per_coordinate)
    header = "run,sup_dev,argmax_s," + ",".join(f"z{i}_dev" for i in range(a))
    lines = [header]
    for rep in reports:
        lines.append(
            f"{rep.run_index},{_fmt(rep.sup_deviation)},{_fmt(rep.argmax_s)},"
            + ",".join(_fmt(v) for v in rep.per_coordinate)
        )
    return lines


def _write_manifest(out_dir: str, command: str, config: dict, seeds: dict,
                    outputs: Sequence[str], extra: Optional[dict] = None) -> str:
    manifest = {
        "command": command,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in config.items() if k != "out"},
        "outputs": sorted(outputs),
        "seeds": seeds,
        "versions": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "wormald": __version__,
        },
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _exit_fields(traj: Trajectory) -> dict:
    return {
        "domain_exited": traj.sigma_exit is not None,
        "sigma_exit": traj.sigma_exit,
    }


def _cmd_solve(config: dict, out_dir: str) -> int:
    spec = make_coupon_spec(config["l"], config["s_max"])
    z0 = np.zeros(spec.coord_count)
    z0[0] = 1.0
    traj = integrate(spec, z0, config["s_max"],
                     IntegratorConfig(h=config["h"], grid_stride=config["grid_stride"]))
    _write_lines(os.path.join(out_dir, "ode.csv"), _trajectory_lines(traj))
    _write_manifest(out_dir, "solve", config, {}, ["ode.csv"], _exit_fields(traj))
    return 0


def _make_plan(config: dict) -> RunPlan:
    n = config["n"]
    s_max = config.get("s_max")
    horizon = None if s_max is None else math.ceil(n * s_max)
    return RunPlan(
        n=n, run_count=config.get("runs", 1), master_seed=config["seed"],
        horizon_steps=horizon, truncation=config["l"],
        h=config.get("h", 1e-3), grid_stride=config.get("grid_stride", 10),
        s_max=s_max,
    )


def _cmd_simulate(config: dict, out_dir: str) -> int:
    plan = _make_plan(config)
    runs = plan.run_count
    outputs = []
    exits = []
    for i in range(runs):
        traj = simulate(plan, i)
        name = "trajectory.csv" if runs == 1 else f"trajectory_{i:03d}.csv"
        _write_lines(os.path.join(out_dir, name), _trajectory_lines(traj))
        outputs.append(name)
        exits.append(_exit_fields(traj))
    seeds = {"master": plan.master_seed,
             "runs": [plan.run_seed(i) for i in range(runs)]}
    extra = exits[0] if runs == 1 else {"runs_exit": exits}
    _write_manifest(out_dir, "simulate", config, seeds, outputs, extra)
    return 0


def _cmd_compare(config: dict, out_dir: str) -> int:
    plan = _make_plan(dict(config, runs=1))
    sim = simulate(plan, 0)
    spec = make_coupon_spec(config["l"], plan.resolved_s_max())
    z0 = np.zeros(spec.coord_count)
    z0[0] = 1.0
    ode = integrate(spec, z0, plan.resolved_s_max(),
                    IntegratorConfig(h=config["h"], grid_stride=config["grid_stride"]))
    report = sup_deviation(sim, ode)
    _write_lines(os.path.join(out_dir, "trajectory.csv"), _trajectory_lines(sim))
    _write_lines(os.path.join(out_dir, "ode.csv"), _trajectory_lines(ode))
    _write_lines(os.path.join(out_dir, "deviation.csv"), _deviation_lines([report]))
    seeds = {"master": plan.master_seed, "runs": [plan.run_seed(0)]}
    # Deviation is measured at emitted grid points only.  Between two
    # consecutive points the chain takes (steps) draws, each moving a scaled
    # coordinate by at most 1/n, so the true sup over every step can exceed
    # the reported one by at most max(steps between points)/n.
    steps = np.rint(sim.s * plan.n).astype(np.int64)
    gap_bound = float(np.diff(steps).max()) / plan.n if steps.size > 1 else 0.0
    extra = {
        "domain_exited": sim.sigma_exit is not None or ode.sigma_exit is not None,
        "grid_gap_bound": gap_bound,
        "sigma_exit_ode": ode.sigma_exit,
        "sigma_exit_sim": sim.sigma_exit,
        "sup_deviation": report.sup_deviation,
    }
    _write_manifest(out_dir, "compare", config, seeds,
                    ["trajectory.csv", "ode.csv", "deviation.csv"], extra)
    return 0


def _cmd_scaling(config: dict, out_dir: str) -> int:
    report = scaling_study(
        config["ns"], config["runs"], config["seed"],
        l=config["l"], s_max=config["s_max"],
        h=config["h"], grid_stride=config["grid_stride"],
    )
    lines = ["n,runs,mean_sup_dev,stderr"]
    for row in report.rows:
        lines.append(f"{row.n},{row.run_count},"
                     f"{_fmt(row.mean_sup_deviation)},{_fmt(row.stderr)}")
    _write_lines(os.path.join(out_dir, "scaling.csv"), lines)
    seeds = {"master": config["seed"],
             "per_n": {str(row.n): derive_seed(config["seed"], row.n) for row in report.rows}}
    extra = {"alpha": report.alpha, "intercept": report.intercept}
    _write_manifest(out_dir, "scaling", config, seeds, ["scaling.csv"], extra)
    return 0


def _cmd_gumbel(config: dict, out_dir: str) -> int:
    report = gumbel_experiment(config["n"], config["trials"], config["cs"], config["seed"])
    lines = ["c,empirical,stderr,ref_paper,ref_classical,exact"]
    for row in report.rows:
        exact = "" if row.exact is None else _fmt(row.exact)
        lines.append(f"{_fmt(row.c)},{_fmt(row.empirical)},{_fmt(row.stderr)},"
                     f"{_fmt(row.ref_paper)},{_fmt(row.ref_classical)},{exact}")
    _write_lines(os.path.join(out_dir, "gumbel.csv"), lines)
    seeds = {"master": config["seed"]}
    unavailable = [{"c": row.c, "reason": row.exact_error}
                   for row in report.rows if row.exact_error is not None]
    _write_manifest(out_dir, "gumbel", config, seeds, ["gumbel.csv"],
                    {"exact_unavailable": unavailable})
    return 0


def _cmd_check(config: dict, out_dir: str) -> int:
    plan = _make_plan(config)
    spec = make_coupon_spec(config["l"], plan.resolved_s_max())
    report = check_hypotheses(spec, plan, config["state_samples"],
                              drift_samples=config["drift_samples"])
    payload = {
        "passed": report.passed,
        "checks": [
            {"name": chk.name, "passed": chk.passed, "observed": chk.observed,
             "bound": chk.bound, "detail": chk.detail}
            for chk in report.checks
        ],
    }
    path = os.path.join(out_dir, "check.json")
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    seeds = {"master": plan.master_seed,
             "runs": [plan.run_seed(i) for i in range(plan.run_count)]}
    _write_manifest(out_dir, "check", config, seeds, ["check.json"],
                    {"hypotheses_passed": report.passed})
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "scaling": _cmd_scaling,
    "gumbel": _cmd_gumbel,
    "check": _cmd_check,
}


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, run one subcommand, return the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalize_list_flags(list(argv)))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        config = _resolve_config(args)
        out_dir = config["out"]
        os.makedirs(out_dir, exist_ok=True)
        return _DISPATCH[args.command](config, out_dir)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
