"""Tests for the command-line front end: schemas, exit codes, byte stability."""

import argparse
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wormald import (DeviationReport, RunPlan, Trajectory, analysis, check_hypotheses, cli,
                     compare_run, coupon_reference, gumbel_experiment, make_generator, montecarlo,
                     scaling_study, simulate, sup_deviation)
from wormald.cli import _build_parser, _normalize_list_flags, run_cli
from wormald.montecarlo import _chain_states
from wormald.ode import grid_times


def read_bytes(path):
    return path.read_bytes()


def run_in(tmp_path, args):
    return run_cli(args + ["--out", str(tmp_path)])


def test_solve_writes_ode_csv(tmp_path):
    assert run_in(tmp_path, ["solve", "--l", "4", "--s-max", "2"]) == 0
    lines = (tmp_path / "ode.csv").read_text().splitlines()
    assert lines[0] == "s,z0,z1,z2,z3,z4,z5"
    assert lines[1] == "0,1,0,0,0,0,0"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["domain_exited"] is False
    assert manifest["outputs"] == ["ode.csv"]
    assert set(manifest["versions"]) == {"numpy", "python", "wormald"}


def test_simulate_single_and_multi_run_naming(tmp_path):
    one = tmp_path / "one"
    assert run_cli(["simulate", "--n", "50", "--seed", "3", "--out", str(one)]) == 0
    assert (one / "trajectory.csv").exists()

    many = tmp_path / "many"
    assert run_cli(["simulate", "--n", "50", "--runs", "3", "--seed", "3",
                    "--out", str(many)]) == 0
    names = sorted(p.name for p in many.glob("trajectory*.csv"))
    assert names == ["trajectory_000.csv", "trajectory_001.csv", "trajectory_002.csv"]
    manifest = json.loads((many / "manifest.json").read_text())
    assert len(manifest["seeds"]["runs"]) == 3


def _replayed_trajectory_csv(seed, n, l, s_max, h=1e-3, grid_stride=10):
    """The trajectory CSV of a run whose stream is ``make_generator(seed)``."""
    grid = grid_times(h, grid_stride, s_max)
    states = np.empty((grid.size, l + 2))
    stops = np.rint(grid * n).astype(np.int64)
    for i, j, rows in _chain_states(make_generator(seed), n, l, stops):
        states[i:j] = rows / n
    return cli._trajectory_csv(Trajectory(grid, states, None))


def _seeds(out):
    return json.loads((out / "manifest.json").read_text())["seeds"]


def test_simulate_and_compare_seeds_reproduce_their_trajectories(tmp_path):
    # Each seed the manifest records, taken as a stream key, draws the
    # trajectory that was written, byte for byte.
    assert run_in(tmp_path, ["simulate", "--n", "300", "--runs", "3", "--seed", "8",
                             "--l", "3", "--s-max", "2"]) == 0
    runs = _seeds(tmp_path)["runs"]
    assert len(runs) == 3
    for i, seed in enumerate(runs):
        assert (tmp_path / f"trajectory_{i:03d}.csv").read_text() == \
            _replayed_trajectory_csv(seed, 300, 3, 2.0)
    compared = tmp_path / "compare"
    assert run_cli(["compare", "--n", "500", "--seed", "9", "--l", "4", "--s-max", "1.5",
                    "--grid-stride", "7", "--out", str(compared)]) == 0
    [seed] = _seeds(compared)["runs"]
    assert (compared / "trajectory.csv").read_text() == \
        _replayed_trajectory_csv(seed, 500, 4, 1.5, grid_stride=7)


def test_check_seeds_are_the_streams_of_its_first_steps(tmp_path, monkeypatch):
    # check replays the first step of every run (max_increment), each from
    # the stream its manifest seed keys, in run order, before anything else.
    keys = []

    def recording(seed):
        keys.append(seed)
        return make_generator(seed)

    monkeypatch.setattr(montecarlo, "make_generator", recording)
    assert run_in(tmp_path, ["check", "--n", "200", "--runs", "4", "--seed", "6",
                             "--state-samples", "3", "--drift-samples", "100"]) == 0
    runs = _seeds(tmp_path)["runs"]
    assert len(runs) == 4
    assert keys[:4] == runs


def test_scaling_seeds_reproduce_each_rows_mean(tmp_path):
    # The seed recorded for each n, as a plan's seed, gives that row's mean.
    assert run_in(tmp_path, ["scaling", "--ns", "60,200", "--runs", "3", "--seed", "4",
                             "--l", "3", "--s-max", "2"]) == 0
    per_n = _seeds(tmp_path)["per_n"]
    rows = (tmp_path / "scaling.csv").read_text().splitlines()[1:]
    assert sorted(per_n, key=int) == [row.split(",")[0] for row in rows] == ["60", "200"]
    ode = coupon_reference(l=3, s_max=2.0)
    for row in rows:
        n = int(row.split(",")[0])
        plan = RunPlan(n=n, runs=3, seed=per_n[str(n)], l=3, s_max=2.0)
        mean = np.mean([sup_deviation(simulate(plan, i), ode).sup_deviation for i in range(3)])
        assert row.split(",")[2] == "%.17g" % mean


def test_compare_outputs_and_deviation_schema(tmp_path):
    assert run_in(tmp_path, ["compare", "--n", "500", "--l", "3", "--s-max", "2",
                             "--seed", "42"]) == 0
    for name in ("trajectory.csv", "ode.csv", "deviation.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    dev_lines = (tmp_path / "deviation.csv").read_text().splitlines()
    assert dev_lines[0] == "run,sup_dev,argmax_s,z0_dev,z1_dev,z2_dev,z3_dev,z4_dev"
    assert len(dev_lines) == 2
    assert dev_lines[1].startswith("0,")
    traj_header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    ode_header = (tmp_path / "ode.csv").read_text().splitlines()[0]
    assert traj_header == ode_header == "s,z0,z1,z2,z3,z4"


def test_byte_identical_reruns(tmp_path):
    args = ["compare", "--n", "400", "--l", "4", "--s-max", "2", "--seed", "11"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    for name in ("trajectory.csv", "ode.csv", "deviation.csv", "manifest.json"):
        assert read_bytes(a / name) == read_bytes(b / name)


def test_csv_uses_unix_line_endings(tmp_path):
    assert run_in(tmp_path, ["solve", "--l", "2", "--s-max", "1"]) == 0
    raw = read_bytes(tmp_path / "ode.csv")
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def _per_cell_csv(header, rows):
    """The writer ``_csv`` replaced: a float cell as %.17g, an int cell by ``str``."""
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % x if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


_cells = st.one_of(
    st.floats(),
    st.integers(-2**53, 2**53).map(float),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072004e-308, 1e-300, 1e300, 2.0**53]),
    st.integers(0, 2**53),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 6).flatmap(
    lambda columns: st.lists(st.lists(_cells, min_size=columns, max_size=columns),
                             min_size=1, max_size=6)))
@example(rows=[[0, -0.0, 2**53, 5e-324, 1e-300, 1e300, 7.0]])
@example(rows=[[1.0], [2**53], [-0.0], [3], [1e300], [2.2250738585072004e-308]])
def test_one_row_format_writes_what_the_per_cell_rules_wrote(rows):
    # %.17g prints an integer below 2**53 as its digits, so one float rule
    # writes the integer cells (n, runs, run) as str did.
    assert cli._csv("h", rows) == _per_cell_csv("h", rows)


def test_scaling_csv_schema(tmp_path):
    assert run_in(tmp_path, ["scaling", "--ns", "50,100", "--runs", "3",
                             "--seed", "5", "--s-max", "2", "--l", "3"]) == 0
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert lines[0] == "n,runs,mean_sup_dev,stderr"
    assert len(lines) == 3
    assert lines[1].startswith("50,3,")
    assert lines[2].startswith("100,3,")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "alpha" in manifest


def test_gumbel_csv_schema_and_negative_cs(tmp_path):
    assert run_in(tmp_path, ["gumbel", "--n", "40", "--trials", "120",
                             "--cs", "-1,0,1,2", "--seed", "7"]) == 0
    lines = (tmp_path / "gumbel.csv").read_text().splitlines()
    assert lines[0] == "c,empirical,stderr,ref_paper,ref_classical,exact"
    assert len(lines) == 5
    assert lines[1].startswith("-1,")


def test_gumbel_fills_exact_one_on_the_left_tail(tmp_path):
    assert run_in(tmp_path, ["gumbel", "--n", "1000", "--trials", "100",
                             "--cs", "-4,0", "--seed", "1"]) == 0
    left, middle = (tmp_path / "gumbel.csv").read_text().splitlines()[1:]
    assert left.startswith("-4,") and left.endswith(",1")
    assert middle.startswith("0,") and not middle.endswith(",")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "exact_unavailable" not in manifest


def test_gumbel_saturates_reference_curves_at_large_abs_c(tmp_path):
    # exp(710) overflows a double; the reference curves take it as inf
    assert run_in(tmp_path, ["gumbel", "--n", "10", "--trials", "100",
                             "--cs=-710,710"]) == 0
    assert (tmp_path / "gumbel.csv").read_text().splitlines()[1:] == [
        "-710,1,0,0.63212055882855767,1,1",
        "710,0,0,0,0,0",
    ]


def test_gumbel_fills_exact_zero_at_a_huge_threshold(tmp_path):
    # k is about 1e301 here: the tail is 0, not a cancelled sum.
    assert run_in(tmp_path, ["gumbel", "--n", "10", "--trials", "100",
                             "--cs=1e300"]) == 0
    assert (tmp_path / "gumbel.csv").read_text().splitlines()[1:] == [
        "1.0000000000000001e+300,0,0,0,0,0",
    ]


def test_check_writes_verdict(tmp_path):
    assert run_in(tmp_path, ["check", "--n", "300", "--runs", "2", "--seed", "5",
                             "--state-samples", "4", "--drift-samples", "500"]) == 0
    payload = json.loads((tmp_path / "check.json").read_text())
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "bounded_increments", "drift_matches_one_step_means", "lipschitz_drift"]


def test_check_reports_distinct_pilot_states_examined(tmp_path):
    # a horizon of ceil(5 ln 5) = 9 steps has only 10 distinct states
    assert run_in(tmp_path, ["check", "--n", "5", "--runs", "1",
                             "--state-samples", "100", "--drift-samples", "100"]) == 0
    drift = json.loads((tmp_path / "check.json").read_text())["checks"][1]
    assert drift["detail"].startswith("worst |z| over 10 pilot states x 100 samples")


@pytest.mark.parametrize("args", [
    ["--n", "1", "--runs", "1"],
    ["--n", "3", "--runs", "1", "--state-samples", "1"],
], ids=["n1", "one_state"])
def test_check_names_the_first_state_when_every_z_is_zero(tmp_path, args):
    # Every pilot state here moves deterministically, so every |z| is 0 and
    # the tie goes to the first examined state, the fresh one at t=0.
    assert run_in(tmp_path, ["check"] + args) == 0
    drift = json.loads((tmp_path / "check.json").read_text())["checks"][1]
    assert drift["observed"] == 0.0
    n = args[1]
    assert drift["detail"].endswith(f"at state [n={n} t=0 counts_of_counts=({n}, "
                                    + "0, " * 10 + "0)]")


def test_out_that_is_a_regular_file_exits_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    assert run_cli(["solve", "--l", "2", "--s-max", "1", "--out", str(target)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err
    assert target.read_text() == "not a directory\n"


def test_unwritable_data_file_exits_2(tmp_path, capsys):
    blocked = tmp_path / "ode.csv"
    blocked.mkdir()
    assert run_in(tmp_path, ["solve", "--l", "2", "--s-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocked}:")
    assert err.count("\n") == 1


def test_unwritable_manifest_exits_2(tmp_path, capsys):
    (tmp_path / "manifest.json").mkdir()
    assert run_in(tmp_path, ["gumbel", "--n", "20", "--trials", "100"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {tmp_path / 'manifest.json'}:")


def _no_gap(sim, ode, run_index=0):
    """A ``sup_deviation`` stand-in that finds every run on the ODE."""
    return DeviationReport(run_index, 0.0, 0.0, np.zeros(sim.coord_count))


def test_failing_command_writes_no_file(tmp_path, monkeypatch):
    # scaling computes every row, then cannot fit a zero mean deviation
    monkeypatch.setattr(analysis, "sup_deviation", _no_gap)
    out = tmp_path / "out"
    assert run_cli(["scaling", "--ns", "50,60", "--runs", "2", "--out", str(out)]) == 3
    assert not out.exists()


def test_invalid_command_creates_no_out_directory(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["gumbel", "--n", "5", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_check_refuses_zero_state_samples_before_it_runs(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["check", "--n", "100", "--state-samples", "0", "--out", str(out)]) == 2
    assert "state_samples" in capsys.readouterr().err
    assert not out.exists()


def test_check_refuses_too_few_drift_samples_before_it_runs(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["check", "--n", "100", "--drift-samples", "50", "--out", str(out)]) == 2
    assert "drift_samples" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_configurations_exit_2(tmp_path, capsys):
    assert run_in(tmp_path, ["simulate", "--n", "0"]) == 2
    assert "error" in capsys.readouterr().err
    assert run_in(tmp_path, ["simulate"]) == 2  # --n missing
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["simulate", "--n", "abc"]) == 2
    assert run_in(tmp_path, ["scaling", "--ns", "100"]) == 2  # single n


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a zero mean deviation leaves the log-log fit nothing to fit, which is
    # a numerical failure (FitError), not a config error
    monkeypatch.setattr(analysis, "sup_deviation", _no_gap)
    code = run_in(tmp_path, ["scaling", "--ns", "50,60", "--runs", "2", "--seed", "2"])
    assert code == 3
    assert "numerical failure: zero mean deviation" in capsys.readouterr().err


def test_repeated_ns_exit_2(tmp_path, capsys):
    # A repeated n would only repeat its row (its seed derives from n), so
    # it is invalid input even with two distinct n left to fit.
    out = tmp_path / "out"
    assert run_cli(["scaling", "--ns", "10,10,100", "--runs", "2", "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: ns must be distinct, got [10] more than once"
    assert not out.exists()


def _size_refusals():
    for command, (_, _, names, _) in cli._COMMANDS.items():
        for flag in ("n", "runs", "l"):
            if flag in names:
                args = [command, f"--{flag}", "0"]
                if flag != "n" and "n" in names:
                    args += ["--n", "10"]
                at_least = 10 if command == "gumbel" else 1
                yield pytest.param(args, f"error: {flag} must be an integer >= {at_least}, got 0",
                                   id=f"{command}-{flag}")


@pytest.mark.parametrize("args, line", _size_refusals())
def test_every_size_refusal_names_the_flag_typed(tmp_path, capsys, args, line):
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


#: The library call each subcommand hands its flags to.
_FED = {"solve": coupon_reference, "simulate": RunPlan, "compare": compare_run,
        "scaling": scaling_study, "gumbel": gumbel_experiment, "check": RunPlan}


def test_every_flag_is_a_parameter_of_the_call_it_feeds():
    # Handlers pass their flags through by name, so each flag a subcommand
    # offers must be a parameter of that call; check's sample counts feed
    # check_hypotheses instead.
    assert set(_FED) == set(cli._COMMANDS)
    for command, (_, _, names, _) in cli._COMMANDS.items():
        flags = set(names)
        if command == "check":
            samples = {"state_samples", "drift_samples"}
            assert samples <= set(inspect.signature(check_hypotheses).parameters)
            flags -= samples
        assert flags <= set(inspect.signature(_FED[command]).parameters), command


@pytest.mark.parametrize("args", [
    ["compare", "--n", str(2**63), "--s-max", "1e-15"],
    ["simulate", "--n", str(2**63), "--s-max", "1e-15"],
    ["check", "--n", str(2**63), "--s-max", "1e-15"],
    # n below 2**63, but 2,001 stops in one block take 11 bits of interval
    # index, and n << 11 would wrap the pass's int64 keys
    ["compare", "--n", str(2**53), "--h", "1e-18", "--grid-stride", "1", "--s-max", "2e-15"],
])
def test_n_past_the_kernels_int64_exits_2(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: n ") and "2**63" in line
    assert not out.exists()


@pytest.mark.parametrize("n", [2**63, 2**62, 2**60 + 1])
def test_gumbel_n_past_one_array_of_waits_exits_2(tmp_path, capsys, n):
    out = tmp_path / "out"
    assert run_cli(["gumbel", "--n", str(n), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: n ") and line.endswith(f"got {n}")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--n", "4000000000000000000", "--s-max", "4"],
    ["compare", "--n", "4000000000000000000"],
    ["check", "--n", "4000000000000000000", "--s-max", "4", "--runs", "1"],
    ["simulate", "--n", "100000000000000"],
    ["check", "--n", "9000000000000000000"],
    ["scaling", "--ns", "10,100000000000000000", "--runs", "2"],
])
def test_horizon_of_2_51_steps_exits_2(tmp_path, capsys, args):
    # Refused when the plan is made, before any draw: 2**51 draws take years.
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: the horizon must be < 2**51 steps, got ")
    assert not out.exists()


@pytest.mark.parametrize("args, size", [
    (["gumbel", "--n", str(2**59)], "4.00 EiB"),  # n - 1 float64 waits
    (["solve", "--l", "100000000"], "71.1 PiB"),  # the (l + 2)^2 move rule
])
def test_an_allocation_past_memory_exits_2(tmp_path, capsys, args, size):
    # Each is one array far past a 47-bit address space, so it fails at
    # once, with nothing allocated in part.
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: out of memory: Unable to allocate {size} ")
    assert not out.exists()


def test_help_and_version_exit_0():
    assert run_cli(["--help"]) == 0
    assert run_cli(["--version"]) == 0
    assert run_cli(["simulate", "--help"]) == 0


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 80, "runs": 2, "seed": 9}))
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", str(cfg), "--runs", "1",
                    "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n"] == 80
    assert manifest["config"]["seed"] == 9
    assert manifest["config"]["runs"] == 1  # explicit flag wins


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 80, "bogus": 1}))
    assert run_cli(["simulate", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file"),
    ("{\"n\": 80,", "is not valid JSON"),
    ("[80, 2]", "must hold a JSON object"),
], ids=["unreadable", "not_json", "not_an_object"])
def test_unusable_config_file_exits_2_and_names_it(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(cfg) in line and message in line
    assert not out.exists()


def test_config_file_lists_and_type_checks(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 40, "trials": 110, "cs": [-1, 0.5]}))
    out = tmp_path / "out"
    assert run_cli(["gumbel", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "gumbel.csv").read_text().splitlines()
    assert len(lines) == 3

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 40.5, "trials": 110}))
    assert run_cli(["gumbel", "--config", str(bad), "--out", str(out)]) == 2


@pytest.mark.parametrize("command, values, expected", [
    # rejected with exit 2, as the same text given as a flag would be
    ("gumbel", {"n": 40, "trials": 110, "cs": ["a"]}, None),
    ("gumbel", {"n": 40, "trials": 110, "cs": {"x": 1}}, None),
    ("scaling", {"ns": "abc"}, None),
    ("scaling", {"ns": [1000.5, 2000.7], "runs": 2}, None),
    ("simulate", {"n": True}, None),
    # accepted, with the values the manifest recorded before
    ("simulate", {"n": 1e3, "s_max": 0.5}, ("n", 1000)),
    ("simulate", {"n": "80"}, ("n", 80)),
    ("gumbel", {"n": 40, "trials": 110, "cs": "-2,1"}, ("cs", [-2.0, 1.0])),
    ("gumbel", {"n": 40, "trials": 110, "cs": [-1, 0.5]}, ("cs", [-1.0, 0.5])),
])
def test_config_file_values_read_as_flag_text(tmp_path, capsys, command, values, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    code = run_cli([command, "--config", str(cfg), "--out", str(out)])
    if expected is None:
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        return
    assert code == 0
    key, value = expected
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config[key] == value
    assert type(config[key]) is type(value)


@pytest.mark.parametrize("args", [
    ["compare", "--n", "10", "--s-max", "inf"],
    ["compare", "--n", "10", "--s-max", "nan"],
    ["solve", "--s-max", "inf"],
    ["simulate", "--n", "10", "--h", "inf"],
    ["gumbel", "--n", "10", "--cs", "nan", "--trials", "100"],
    ["check", "--n", "100", "--s-max", "nan"],
    ["gumbel", "--n", "10", "--cs", "1e308", "--trials", "100"],
])
def test_non_finite_values_exit_2(tmp_path, capsys, args):
    assert run_in(tmp_path, args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["solve"], ["simulate", "--n", "10"], ["check", "--n", "10"],
])
def test_horizon_past_2_53_micro_steps_exits_2(tmp_path, capsys, args):
    # Refused before the grid is built, which would ask for ~1e302 points.
    assert run_in(tmp_path, args + ["--s-max", "1e300"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "2**53" in line


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("wormald ")]
    assert len(commands) == 6
    parser = _build_parser()
    for argv in commands:
        assert parser.parse_args(_normalize_list_flags(argv[1:])).command == argv[1]


def _documented_default(clause: str, command: str):
    """The default that README's clause on one flag gives ``command``.

    A clause reads ``flag` VALUE``, then optionally ``VALUE for `cmd`, ...``
    per overriding subcommand; a flag with no default reads ``has none``, and
    ``... otherwise`` names what the subcommands not listed do instead.
    """
    for value, commands in re.findall(r"([-\w.,]+) for ((?:`\w+`(?:, | and )?)+)", clause):
        if f"`{command}`" in commands:
            return value
    if "has none" in clause or "otherwise" in clause:
        return None
    return clause.split()[1].rstrip(",;")


def test_readme_defaults_are_the_parsers():
    # --help prints no defaults, so README's paragraph is where a user reads
    # them: every subcommand's default of every flag, overrides included,
    # must be the one written there.  --config has none, and --out is
    # described in the paragraph after.
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    start = readme.index("The defaults are ")
    paragraph = readme[start:readme.index("has none.", start) + len("has none")]
    clauses = {clause.split("`")[0]: clause for clause in paragraph.split("`--")[1:]}
    parser = _build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    checked = 0
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            flag = action.option_strings[-1][2:]
            if flag in ("help", "config", "out"):
                continue
            assert flag in clauses, f"README gives no default for --{flag}"
            text = _documented_default(clauses[flag], command)
            default = action.default
            if default is None or text is None:
                assert default is None and text is None, (command, flag, text, default)
            elif isinstance(default, tuple):
                assert tuple(map(float, text.split(","))) == tuple(map(float, default))
            else:
                assert float(text) == default, (command, flag, text, default)
            checked += 1
    assert checked == sum(len(names) for _, _, names, _ in cli._COMMANDS.values())


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_output_dir_env_var(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("WORMALD_OUT", str(env_dir))
    assert run_cli(["solve", "--l", "2", "--s-max", "1"]) == 0
    assert (env_dir / "ode.csv").exists()

    flag_dir = tmp_path / "from_flag"
    assert run_cli(["solve", "--l", "2", "--s-max", "1", "--out", str(flag_dir)]) == 0
    assert (flag_dir / "ode.csv").exists()


def test_manifest_has_no_timestamps(tmp_path):
    assert run_in(tmp_path, ["solve", "--l", "2", "--s-max", "1"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())

    def walk(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                assert "time" not in key.lower() or key == "cover_time"
                assert "date" not in key.lower()
                walk(value)
        elif isinstance(obj, list):
            for value in obj:
                walk(value)

    walk(manifest)


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "wormald.cli", "solve", "--l", "2", "--s-max", "1",
         "--out", str(tmp_path / "sub")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "sub" / "ode.csv").exists()


def test_a_refused_target_leaves_out_as_it_was(tmp_path, capsys):
    (tmp_path / "manifest.json").mkdir()
    assert run_in(tmp_path, ["gumbel", "--n", "20", "--trials", "100"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {tmp_path / 'manifest.json'}:")
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    assert list((tmp_path / "manifest.json").iterdir()) == []


def test_a_failed_write_removes_every_temporary(tmp_path, capsys, monkeypatch):
    def open_failing_on_manifest(path, *args, **kwargs):
        if "manifest" in os.path.basename(path):
            raise OSError("disk full")
        return open(path, *args, **kwargs)

    (tmp_path / "gumbel.csv").write_text("old\n")
    monkeypatch.setattr(cli, "open", open_failing_on_manifest, raising=False)
    assert run_in(tmp_path, ["gumbel", "--n", "20", "--trials", "100"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'manifest.json'}: disk full\n")
    assert [p.name for p in tmp_path.iterdir()] == ["gumbel.csv"]
    assert (tmp_path / "gumbel.csv").read_text() == "old\n"
