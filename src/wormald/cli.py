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
import os
import platform
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import compare_run, gumbel_experiment, scaling_study
from .coupon import coupon_reference, make_coupon_spec
from .errors import ContractError, NumericalError
from .montecarlo import RunPlan, check_hypotheses, simulate
from .ode import IntegratorConfig
from .process import Trajectory
from .rng import derive_seed

#: Environment variable naming the default output directory.
OUT_DIR_ENV = "WORMALD_OUT"


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _list_of(kind, what: str):
    """argparse type for a comma-separated list of ``kind`` values (empty entries skipped)."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok.strip() != "")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}: {text!r}") from exc
    return parse


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

    def add_common(p, *names, runs=None, s_max=None):
        # --n has no default: it is required, but may come from --config.
        if "n" in names:
            p.add_argument("--n", type=int, default=None, help="number of coupon types")
        if "runs" in names:
            p.add_argument("--runs", type=int, default=runs, help="number of runs")
        if "seed" in names:
            p.add_argument("--seed", type=int, default=RunPlan.master_seed,
                           help="master seed")
        if "l" in names:
            p.add_argument("--l", type=int, default=RunPlan.truncation,
                           help="truncation level")
        if "s_max" in names:
            p.add_argument("--s-max", dest="s_max", type=float, default=s_max,
                           help="scaled-time horizon")
        if "h" in names:
            p.add_argument("--h", type=float, default=IntegratorConfig.h,
                           help="RK4 step size")
        if "grid_stride" in names:
            p.add_argument("--grid-stride", dest="grid_stride", type=int,
                           default=IntegratorConfig.grid_stride, help="emit every k-th step")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--out", type=str, default=os.environ.get(OUT_DIR_ENV, "."),
                       help=f"output directory (default ${OUT_DIR_ENV} or '.')")

    p = sub.add_parser("solve", help="integrate the coupon ODE system")
    add_common(p, "l", "s_max", "h", "grid_stride", s_max=4.0)

    p = sub.add_parser("simulate", help="run the coupon process")
    add_common(p, "n", "runs", "seed", "l", "s_max", "h", "grid_stride", runs=1)

    p = sub.add_parser("compare", help="one simulation against the ODE")
    add_common(p, "n", "seed", "l", "s_max", "h", "grid_stride", s_max=4.0)

    p = sub.add_parser("scaling", help="sup-deviation decay across n")
    p.add_argument("--ns", type=_list_of(int, "integers"), default=(1000, 10000, 100000),
                   help="comma-separated n values")
    add_common(p, "runs", "seed", "l", "s_max", "h", "grid_stride", runs=20, s_max=4.0)

    p = sub.add_parser("gumbel", help="cover-time tail probabilities")
    p.add_argument("--cs", type=_list_of(float, "reals"), default=(-1.0, 0.0, 1.0, 2.0),
                   help="comma-separated c values")
    p.add_argument("--trials", type=int, default=1000, help="cover times to sample")
    add_common(p, "n", "seed")

    p = sub.add_parser("check", help="verify the method's hypotheses empirically")
    p.add_argument("--state-samples", dest="state_samples", type=int, default=50,
                   help="pilot states for the drift check")
    p.add_argument("--drift-samples", dest="drift_samples", type=int, default=10000,
                   help="single-step samples per pilot state")
    add_common(p, "n", "runs", "seed", "l", "s_max", runs=10)

    return parser


def _load_config_file(path: str, allowed: set[str]) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ContractError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ContractError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ContractError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ContractError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _flag_text(value) -> str:
    """A config-file value as flag text: lists joined by commas, whole floats
    as ints (so ``1e3`` is accepted for an integer flag)."""
    items = value if isinstance(value, list) else [value]
    return ",".join(format(v, ".0f") if isinstance(v, float) and v.is_integer() else str(v)
                    for v in items)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv, reading a --config file's values as flags placed before argv's own.

    The file's values go through the same argparse types as flags, and
    argparse keeps the last occurrence of a flag, so explicit flags win.
    """
    parser = _build_parser()
    argv = _normalize_list_flags(argv)
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    values = _load_config_file(args.config, set(vars(args)) - {"command", "config"})
    at = argv.index(args.command) + 1
    flags = [f"--{key.replace('_', '-')}={_flag_text(value)}" for key, value in values.items()]
    return parser.parse_args(argv[:at] + flags + argv[at:])


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


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: str, command: str, config: dict, seeds: dict,
                    outputs: Sequence[str], extra: Optional[dict] = None) -> None:
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
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _exit_fields(traj: Trajectory) -> dict:
    return {
        "domain_exited": traj.sigma_exit is not None,
        "sigma_exit": traj.sigma_exit,
    }


def _cmd_solve(config: dict, out_dir: str) -> int:
    traj = coupon_reference(config["l"], config["s_max"], config["h"], config["grid_stride"])
    _write_lines(os.path.join(out_dir, "ode.csv"), _trajectory_lines(traj))
    _write_manifest(out_dir, "solve", config, {}, ["ode.csv"], _exit_fields(traj))
    return 0


def _cmd_simulate(config: dict, out_dir: str) -> int:
    plan = RunPlan(n=config["n"], run_count=config["runs"], master_seed=config["seed"],
                   truncation=config["l"], h=config["h"], grid_stride=config["grid_stride"],
                   s_max=config["s_max"])
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
    sim, ode, report = compare_run(
        n=config["n"], l=config["l"], s_max=config["s_max"], seed=config["seed"],
        h=config["h"], grid_stride=config["grid_stride"],
    )
    _write_lines(os.path.join(out_dir, "trajectory.csv"), _trajectory_lines(sim))
    _write_lines(os.path.join(out_dir, "ode.csv"), _trajectory_lines(ode))
    _write_lines(os.path.join(out_dir, "deviation.csv"), _deviation_lines([report]))
    seeds = {"master": config["seed"], "runs": [derive_seed(config["seed"], 0)]}
    # Deviation is measured at emitted grid points only.  Between two
    # consecutive points the chain takes (steps) draws, each moving a scaled
    # coordinate by at most 1/n, so the true sup over every step can exceed
    # the reported one by at most max(steps between points)/n.
    n = config["n"]
    steps = np.rint(sim.s * n).astype(np.int64)
    gap_bound = float(np.diff(steps).max()) / n if steps.size > 1 else 0.0
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
    plan = RunPlan(n=config["n"], run_count=config["runs"], master_seed=config["seed"],
                   truncation=config["l"], s_max=config["s_max"])
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
    _write_json(os.path.join(out_dir, "check.json"), payload)
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
    try:
        args = _parse_args(list(argv))
        config = {k: v for k, v in vars(args).items() if k not in ("command", "config", "out")}
        if "n" in config and config["n"] is None:
            raise ContractError(f"--n is required for '{args.command}'")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ContractError(f"cannot create output directory {args.out}: {exc}") from exc
        return _DISPATCH[args.command](config, args.out)
    except SystemExit as exc:  # argparse: --help, --version or a bad flag
        return int(exc.code) if exc.code is not None else 0
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
