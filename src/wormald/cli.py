"""Batch command-line front end.

Subcommands map one-to-one onto library operations:

* ``solve``     integrate the coupon ODE system, write ode.csv
* ``simulate``  run the coupon process, write trajectory CSVs
* ``compare``   one run vs the ODE, write trajectory/ode/deviation CSVs
* ``scaling``   mean sup-deviation across several n, write scaling.csv
* ``gumbel``    cover-time tail probabilities, write gumbel.csv
* ``check``     empirical hypothesis verification, write check.json

A flag is declared once, in ``_FLAGS``, with its type, default and help
text; a subcommand offers it by listing it in its ``_COMMANDS`` row, which
also names the subcommand's handler and any default it overrides.  A
flag's name is the name of the library parameter it feeds, so each
handler passes its flags to its library call as they are, and a refusal
names the flag that was typed.

Each command only computes: it returns its files as text, keyed by name,
with its seeds and its own manifest fields.  :func:`run_cli` then writes
those files and ``manifest.json`` (config echo, seeds, package versions,
output list) into ``--out``, all of them or, if one cannot be written,
none; a command that fails writes nothing.  ``--out`` is created only
then, so an uncreatable ``--out`` is reported after the computation.
Output is byte-stable: every CSV cell is printed with ``%.17g``,
lines end in ``\\n``, and the manifest carries no timestamps, so identical
flags give byte-identical files.

Exit codes: 0 success (including domain exit, which is an outcome, not a
failure), 2 invalid configuration, an input too large for memory or an
output file that cannot be written, 3 numerical failure.
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
from .montecarlo import DEFAULT_DRIFT_SAMPLES, RunPlan, check_hypotheses, simulate
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


#: Every flag, declared once: its type, default and help text.  A flag whose
#: default is a tuple takes a comma-separated list.
_FLAGS = {
    # --n has no default: it is required, but may come from --config.
    "n": (int, None, "number of coupon types"),
    "ns": (_list_of(int, "integers"), (1000, 10000, 100000), "comma-separated n values"),
    "cs": (_list_of(float, "reals"), (-1.0, 0.0, 1.0, 2.0), "comma-separated c values"),
    "trials": (int, 1000, "cover times to sample"),
    "state_samples": (int, 50, "pilot states for the drift check"),
    "drift_samples": (int, DEFAULT_DRIFT_SAMPLES, "single-step samples per pilot state"),
    "runs": (int, RunPlan.runs, "number of runs"),
    "seed": (int, RunPlan.seed, "master seed"),
    "l": (int, RunPlan.l, "truncation level"),
    "s_max": (float, None, "scaled-time horizon"),
    "h": (float, RunPlan.h, "RK4 step size"),
    "grid_stride": (int, RunPlan.grid_stride, "emit every k-th step"),
    "config": (str, None, "JSON config file; explicit flags override it"),
    # None stands for $WORMALD_OUT or '.', read when the command runs.
    "out": (str, None, f"output directory (default ${OUT_DIR_ENV} or '.')"),
}


def _normalize_list_flags(argv: list[str]) -> list[str]:
    """Join list flags with their value so negative entries parse.

    argparse treats ``-1,0,1,2`` as an option string; rewriting the pair
    ``--cs -1,0,1,2`` as the single token ``--cs=-1,0,1,2`` sidesteps that.
    """
    lists = {f"--{name}" for name, (_, default, _) in _FLAGS.items() if isinstance(default, tuple)}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in lists and i + 1 < len(argv):
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
    for command, (_, command_help, names, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for name in (*names, "config", "out"):
            kind, default, flag_help = _FLAGS[name]
            p.add_argument(f"--{name.replace('_', '-')}", type=kind,
                           default=defaults.get(name, default), help=flag_help)
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


def _csv(header: str, table) -> str:
    """A CSV table of floats, every cell as %.17g, one row format for every row.

    %.17g prints an integral cell below 2**53 (``n``, ``runs``, ``run``) as
    its digits, so integer columns need no rule of their own.
    """
    table = np.asarray(table, dtype=float)
    row_format = ",".join(["%.17g"] * table.shape[1])
    return "\n".join([header, *(row_format % tuple(row.tolist()) for row in table)]) + "\n"


def _trajectory_csv(traj: Trajectory) -> str:
    header = "s," + ",".join(f"z{i}" for i in range(traj.coord_count))
    return _csv(header, np.column_stack((traj.s, traj.z)))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _exit_fields(traj: Trajectory) -> dict:
    return {
        "domain_exited": traj.sigma_exit is not None,
        "sigma_exit": traj.sigma_exit,
    }


def _cmd_solve(config: dict) -> tuple[dict, dict, dict]:
    traj = coupon_reference(**config)
    return {"ode.csv": _trajectory_csv(traj)}, {}, _exit_fields(traj)


def _cmd_simulate(config: dict) -> tuple[dict, dict, dict]:
    plan = RunPlan(**config)
    runs = plan.runs
    files = {}
    exits = []
    for i in range(runs):
        traj = simulate(plan, i)
        name = "trajectory.csv" if runs == 1 else f"trajectory_{i:03d}.csv"
        files[name] = _trajectory_csv(traj)
        exits.append(_exit_fields(traj))
    seeds = {"master": plan.seed, "runs": [plan.run_seed(i) for i in range(runs)]}
    return files, seeds, exits[0] if runs == 1 else {"runs_exit": exits}


def _cmd_compare(config: dict) -> tuple[dict, dict, dict]:
    sim, ode, report = compare_run(**config)
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
    gap_bound = float(np.diff(steps).max()) / n
    extra = {
        "domain_exited": sim.sigma_exit is not None or ode.sigma_exit is not None,
        "grid_gap_bound": gap_bound,
        "sigma_exit_ode": ode.sigma_exit,
        "sigma_exit_sim": sim.sigma_exit,
        "sup_deviation": report.sup_deviation,
    }
    return files, seeds, extra


def _cmd_scaling(config: dict) -> tuple[dict, dict, dict]:
    report = scaling_study(**config)
    table = _csv("n,runs,mean_sup_dev,stderr",
                 [[row.n, row.runs, row.mean_sup_deviation, row.stderr]
                  for row in report.rows])
    seeds = {"master": config["seed"],
             "per_n": {str(row.n): derive_seed(config["seed"], row.n) for row in report.rows}}
    return {"scaling.csv": table}, seeds, {"alpha": report.alpha, "intercept": report.intercept}


def _cmd_gumbel(config: dict) -> tuple[dict, dict, dict]:
    report = gumbel_experiment(**config)
    table = _csv("c,empirical,stderr,ref_paper,ref_classical,exact",
                 [[row.c, row.empirical, row.stderr, row.ref_paper, row.ref_classical, row.exact]
                  for row in report.rows])
    return {"gumbel.csv": table}, {"master": config["seed"]}, {}


def _cmd_check(config: dict) -> tuple[dict, dict, dict]:
    plan = RunPlan(**{k: v for k, v in config.items()
                      if k not in ("state_samples", "drift_samples")})
    spec = make_coupon_spec(plan.l, plan.resolved_s_max())
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
    seeds = {"master": plan.seed, "runs": [plan.run_seed(i) for i in range(plan.runs)]}
    return {"check.json": _json_text(payload)}, seeds, {"hypotheses_passed": report.passed}


#: Every subcommand: its handler, its help text, the flags it offers in
#: --help order (--config and --out follow them) and the defaults it overrides.
_COMMANDS = {
    "solve": (_cmd_solve, "integrate the coupon ODE system",
              ("l", "s_max", "h", "grid_stride"), {"s_max": DEFAULT_S_MAX}),
    "simulate": (_cmd_simulate, "run the coupon process",
                 ("n", "runs", "seed", "l", "s_max", "h", "grid_stride"), {}),
    "compare": (_cmd_compare, "one simulation against the ODE",
                ("n", "seed", "l", "s_max", "h", "grid_stride"), {"s_max": DEFAULT_S_MAX}),
    "scaling": (_cmd_scaling, "sup-deviation decay across n",
                ("ns", "runs", "seed", "l", "s_max", "h", "grid_stride"),
                {"runs": 20, "s_max": DEFAULT_S_MAX}),
    "gumbel": (_cmd_gumbel, "cover-time tail probabilities", ("cs", "trials", "n", "seed"), {}),
    "check": (_cmd_check, "verify the method's hypotheses empirically",
              ("state_samples", "drift_samples", "n", "runs", "seed", "l", "s_max"),
              {"runs": 10}),
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
        files, seeds, extra = _COMMANDS[args.command][0](config)
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
        _write_all(os.environ.get(OUT_DIR_ENV, ".") if args.out is None else args.out, files)
        return 0
    except SystemExit as exc:  # argparse: --help, --version or a bad flag
        return int(exc.code) if exc.code is not None else 0
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # one allocation past what the host can give
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
