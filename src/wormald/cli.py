"""Batch command-line front end.

Subcommands map one-to-one onto library operations:

* ``solve``     integrate the coupon ODE system, write ode.csv
* ``simulate``  run the coupon process, write trajectory CSVs
* ``compare``   one run vs the ODE, write trajectory/ode/deviation CSVs
* ``scaling``   mean sup-deviation across several n, write scaling.csv
* ``gumbel``    cover-time tail probabilities, write gumbel.csv
* ``check``     empirical hypothesis verification, write check.json

Each command only computes: it returns its files as text, keyed by name,
with its seeds and its own manifest fields.  :func:`run_cli` then writes
those files and ``manifest.json`` (config echo, seeds, package versions,
output list) into ``--out``, all of them or, if one cannot be written,
none; a command that fails writes nothing.  ``--out`` is created only
then, so an uncreatable ``--out`` is reported after the computation.
Output is byte-stable: floats are printed with 17 significant digits,
lines end in ``\\n``, and the manifest carries no timestamps, so identical
flags give byte-identical files.

Exit codes: 0 success (including domain exit, which is an outcome, not a
failure), 2 invalid configuration or an output file that cannot be
written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import compare_run, gumbel_experiment, scaling_study
from .coupon import DEFAULT_S_MAX, coupon_reference, make_coupon_spec
from .errors import ContractError, NumericalError
from .montecarlo import RunPlan, check_hypotheses, simulate
from .process import Trajectory
from .rng import derive_seed

#: Environment variable naming the default output directory.
OUT_DIR_ENV = "WORMALD_OUT"


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
            p.add_argument("--h", type=float, default=RunPlan.h,
                           help="RK4 step size")
        if "grid_stride" in names:
            p.add_argument("--grid-stride", dest="grid_stride", type=int,
                           default=RunPlan.grid_stride, help="emit every k-th step")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--out", type=str, default=os.environ.get(OUT_DIR_ENV, "."),
                       help=f"output directory (default ${OUT_DIR_ENV} or '.')")

    p = sub.add_parser("solve", help="integrate the coupon ODE system")
    add_common(p, "l", "s_max", "h", "grid_stride", s_max=DEFAULT_S_MAX)

    p = sub.add_parser("simulate", help="run the coupon process")
    add_common(p, "n", "runs", "seed", "l", "s_max", "h", "grid_stride", runs=1)

    p = sub.add_parser("compare", help="one simulation against the ODE")
    add_common(p, "n", "seed", "l", "s_max", "h", "grid_stride", s_max=DEFAULT_S_MAX)

    p = sub.add_parser("scaling", help="sup-deviation decay across n")
    p.add_argument("--ns", type=_list_of(int, "integers"), default=(1000, 10000, 100000),
                   help="comma-separated n values")
    add_common(p, "runs", "seed", "l", "s_max", "h", "grid_stride", runs=20, s_max=DEFAULT_S_MAX)

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


def _csv(header: str, rows) -> str:
    """A CSV table: float cells as %.17g, ints as decimals."""
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % x if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _trajectory_csv(traj: Trajectory) -> str:
    header = "s," + ",".join(f"z{i}" for i in range(traj.coord_count))
    return _csv(header, np.column_stack((traj.s, traj.z)).tolist())


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _exit_fields(traj: Trajectory) -> dict:
    return {
        "domain_exited": traj.sigma_exit is not None,
        "sigma_exit": traj.sigma_exit,
    }


def _cmd_solve(config: dict) -> tuple[dict, dict, dict]:
    traj = coupon_reference(config["l"], config["s_max"], config["h"], config["grid_stride"])
    return {"ode.csv": _trajectory_csv(traj)}, {}, _exit_fields(traj)


def _cmd_simulate(config: dict) -> tuple[dict, dict, dict]:
    plan = RunPlan(n=config["n"], run_count=config["runs"], master_seed=config["seed"],
                   truncation=config["l"], h=config["h"], grid_stride=config["grid_stride"],
                   s_max=config["s_max"])
    runs = plan.run_count
    files = {}
    exits = []
    for i in range(runs):
        traj = simulate(plan, i)
        name = "trajectory.csv" if runs == 1 else f"trajectory_{i:03d}.csv"
        files[name] = _trajectory_csv(traj)
        exits.append(_exit_fields(traj))
    seeds = {"master": plan.master_seed,
             "runs": [plan.run_seed(i) for i in range(runs)]}
    return files, seeds, exits[0] if runs == 1 else {"runs_exit": exits}


def _cmd_compare(config: dict) -> tuple[dict, dict, dict]:
    sim, ode, report = compare_run(
        n=config["n"], l=config["l"], s_max=config["s_max"], seed=config["seed"],
        h=config["h"], grid_stride=config["grid_stride"],
    )
    a = len(report.per_coordinate)
    deviation = _csv("run,sup_dev,argmax_s," + ",".join(f"z{i}_dev" for i in range(a)),
                     [[report.run_index, report.sup_deviation, report.argmax_s,
                       *report.per_coordinate.tolist()]])
    files = {"trajectory.csv": _trajectory_csv(sim), "ode.csv": _trajectory_csv(ode),
             "deviation.csv": deviation}
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
    return files, seeds, extra


def _cmd_scaling(config: dict) -> tuple[dict, dict, dict]:
    report = scaling_study(
        config["ns"], config["runs"], config["seed"],
        l=config["l"], s_max=config["s_max"],
        h=config["h"], grid_stride=config["grid_stride"],
    )
    table = _csv("n,runs,mean_sup_dev,stderr",
                 [[row.n, row.run_count, row.mean_sup_deviation, row.stderr]
                  for row in report.rows])
    seeds = {"master": config["seed"],
             "per_n": {str(row.n): derive_seed(config["seed"], row.n) for row in report.rows}}
    return {"scaling.csv": table}, seeds, {"alpha": report.alpha, "intercept": report.intercept}


def _cmd_gumbel(config: dict) -> tuple[dict, dict, dict]:
    report = gumbel_experiment(config["n"], config["trials"], config["cs"], config["seed"])
    table = _csv("c,empirical,stderr,ref_paper,ref_classical,exact",
                 [[row.c, row.empirical, row.stderr, row.ref_paper, row.ref_classical, row.exact]
                  for row in report.rows])
    return {"gumbel.csv": table}, {"master": config["seed"]}, {}


def _cmd_check(config: dict) -> tuple[dict, dict, dict]:
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
    seeds = {"master": plan.master_seed,
             "runs": [plan.run_seed(i) for i in range(plan.run_count)]}
    return {"check.json": _json_text(payload)}, seeds, {"hypotheses_passed": report.passed}


_DISPATCH = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "scaling": _cmd_scaling,
    "gumbel": _cmd_gumbel,
    "check": _cmd_check,
}


def _write_all(out: str, files: dict) -> None:
    """Write every one of ``files`` into ``out``, or leave ``out`` as it was.

    ``out`` is created first.  A target that exists but is not a regular
    file is refused before the first write.  Each file is then written to a
    temporary sibling, and the temporaries replace their targets only once
    every write has succeeded; after a failed write they are removed.
    """
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ContractError(f"cannot create output directory {out}: {exc}") from exc
    paths = {name: os.path.join(out, name) for name in files}
    for path in paths.values():
        if os.path.lexists(path) and not os.path.isfile(path):
            raise ContractError(f"cannot write {path}: it exists and is not a regular file")
    temps = {}
    try:
        for name, text in files.items():
            path = paths[name]
            temp = os.path.join(out, f".{name}.{os.getpid()}.tmp")
            with open(temp, "x", newline="") as fh:
                temps[path] = temp
                fh.write(text)
        for path, temp in temps.items():
            os.replace(temp, path)
    except OSError as exc:
        for temp in temps.values():
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise ContractError(f"cannot write {path}: {exc}") from exc


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, run one subcommand, return the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(list(argv))
        config = {k: v for k, v in vars(args).items() if k not in ("command", "config", "out")}
        if "n" in config and config["n"] is None:
            raise ContractError(f"--n is required for '{args.command}'")
        files, seeds, extra = _DISPATCH[args.command](config)
        manifest = {
            "command": args.command,
            "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in config.items()},
            "outputs": sorted(files),
            "seeds": seeds,
            "versions": {
                "numpy": np.__version__,
                "python": platform.python_version(),
                "wormald": __version__,
            },
            **extra,
        }
        files["manifest.json"] = _json_text(manifest)
        _write_all(args.out, files)
        return 0
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
