"""Tests for the command-line front end: schemas, exit codes, byte stability."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wormald.cli import _build_parser, _normalize_list_flags, run_cli


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


def test_gumbel_exact_column_empty_on_precision_loss(tmp_path):
    assert run_in(tmp_path, ["gumbel", "--n", "1000", "--trials", "100",
                             "--cs", "-4,0", "--seed", "1"]) == 0
    lost, kept = (tmp_path / "gumbel.csv").read_text().splitlines()[1:]
    assert lost.startswith("-4,") and lost.endswith(",")
    assert kept.startswith("0,") and not kept.endswith(",")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    [entry] = manifest["exact_unavailable"]
    assert entry["c"] == -4.0
    assert "cancelled catastrophically" in entry["reason"]


def test_check_writes_verdict(tmp_path):
    assert run_in(tmp_path, ["check", "--n", "300", "--runs", "2", "--seed", "5",
                             "--state-samples", "4", "--drift-samples", "500"]) == 0
    payload = json.loads((tmp_path / "check.json").read_text())
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "bounded_increments", "drift_matches_one_step_means", "lipschitz_drift"]


def test_invalid_configurations_exit_2(tmp_path, capsys):
    assert run_in(tmp_path, ["simulate", "--n", "0"]) == 2
    assert "error" in capsys.readouterr().err
    assert run_in(tmp_path, ["simulate"]) == 2  # --n missing
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["simulate", "--n", "abc"]) == 2
    assert run_in(tmp_path, ["scaling", "--ns", "100"]) == 2  # single n


def test_numerical_failure_exits_3(tmp_path, capsys):
    # a repeated n leaves the log-log fit no spread, which is a numerical
    # failure (FitError), not a config error
    code = run_in(tmp_path, ["scaling", "--ns", "50,50", "--runs", "2", "--seed", "2"])
    assert code == 3
    assert "numerical" in capsys.readouterr().err


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
])
def test_non_finite_values_exit_2(tmp_path, capsys, args):
    assert run_in(tmp_path, args) == 2
    assert "error:" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("wormald ")]
    assert len(commands) == 6
    parser = _build_parser()
    for argv in commands:
        assert parser.parse_args(_normalize_list_flags(argv[1:])).command == argv[1]


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
