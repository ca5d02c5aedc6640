"""Benchmark of the wormald CLI: end-to-end time and memory, or a traced per-layer breakdown.

Usage (from the repository root)::

    python3 bench/run.py --workload concentration [--seed 1] [--seconds 20] [--trace 0]

Load is a closed loop from one process: each repetition of the workload
runs in a fresh child process (``child.py``) that calls
``wormald.cli.run_cli`` once per op, each op starting when the previous
one returns.  Repetitions start until ``--seconds`` is used up, at least
``MIN_REPS`` of them.  Every op's output is checked against the
benchmark's own references (``checks.py``) and its files' sha256 recorded.

With ``--trace 0`` the metrics are end to end: the median ``wall_s`` of a
repetition, ``chain_steps_per_s`` (chain steps computed from the flags,
over that wall time), the median child ``peak_rss_mb`` and the median
``setup_s``, the time from starting a child until wormald is imported.
With ``--trace 1`` one repetition runs under the wrappers in
``tracer.py`` and the rest untraced; the metrics are per layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a full
report (per-op timings, checks and digests) are written under
``bench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Verdict, check_op, digests
from tracer import PER_LAYER, layer_metrics
from workloads import WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

END_TO_END = (("wall_s", "s"), ("chain_steps_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
#: Set-up-only children per run, after one unmeasured child that fills caches.
SETUP_SAMPLES = 7
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


def _child(spec: dict, rep_dir: Path) -> dict:
    """Run child.py on ``spec`` in ``rep_dir``; return its result plus ``setup_s``."""
    rep_dir.mkdir(parents=True)
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads((rep_dir / "result.json").read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def _repetition(ops: list[Op], rep_dir: Path, trace: bool) -> dict:
    outs = [str(rep_dir / f"op{i}") for i in range(len(ops))]
    result = _child({"ops": [list(op.argv) for op in ops], "outs": outs, "trace": trace}, rep_dir)
    records = []
    for i, op in enumerate(ops):
        out = Path(outs[i])
        files = digests(out) if out.is_dir() else {}
        if result["exit"][i] == 0:
            verdict = check_op(op, out)
        else:
            reason = result["error"][i] or f"exit code {result['exit'][i]}"
            verdict = Verdict(False, reason.strip().splitlines()[-1])
        records.append({"argv": list(op.argv), "s": result["op_s"][i], "exit": result["exit"][i],
                        "ok": verdict.ok, "detail": verdict.detail,
                        "known_defect": verdict.known_defect,
                        "sha256": {name: h for name, (h, _size) in files.items()},
                        "bytes": sum(size for _h, size in files.values())})
    result["ops"] = records
    return result


def _environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


def _spread(values: list[float]) -> str:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return (f"median {statistics.median(values):.6g}, quartiles {q[0]:.6g}..{q[2]:.6g}, "
            f"range {min(values):.6g}..{max(values):.6g}, {len(values)} samples")


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ops = WORKLOADS[workload].ops(seed)
    deadline = time.monotonic() + seconds
    _child({"setup_only": True}, work / "warmup")
    setups = [_child({"setup_only": True}, work / f"setup{i}")["setup_s"]
              for i in range(SETUP_SAMPLES)]

    traced = None
    if trace:
        traced = _repetition(ops, work / "traced", trace=True)
        if not traced["restored"]:
            raise RuntimeError("a wrapped wormald attribute was not restored")
    reps = []
    longest = 0.0
    while len(reps) < MIN_REPS or time.monotonic() + longest <= deadline:
        began = time.monotonic()
        rep_dir = work / f"rep{len(reps)}"
        reps.append(_repetition(ops, rep_dir, trace=False))
        shutil.rmtree(rep_dir)
        longest = max(longest, time.monotonic() - began)

    walls = [r["wall_s"] for r in reps]
    rss = [r["peak_rss_kb"] * 1024 / 1e6 for r in reps]
    setups += [r["setup_s"] for r in reps]
    steps = sum(op.chain_steps for op in ops)
    wall = statistics.median(walls)
    samples = {"wall_s": walls, "chain_steps_per_s": [steps / w for w in walls],
               "peak_rss_mb": rss, "setup_s": setups, "cpu_s": [r["cpu_s"] for r in reps]}
    values = {"wall_s": wall, "chain_steps_per_s": steps / wall,
              "peak_rss_mb": statistics.median(rss), "setup_s": statistics.median(setups)}
    units = dict(END_TO_END)
    if trace:
        spans = json.loads((work / "traced" / "spans.json").read_text())
        values = layer_metrics(spans["spans"], spans["counts"], spans["wall_s"], wall,
                               files_written=sum(len(o["sha256"]) for o in traced["ops"]),
                               bytes_written=sum(o["bytes"] for o in traced["ops"]))
        units = dict(PER_LAYER)
        WORK.mkdir(exist_ok=True)
        shutil.copyfile(work / "traced" / "spans.json", WORK / f"spans-{workload}.json")
    all_reps = reps + ([traced] if traced else [])
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "chain_steps": steps, "numpy": reps[0]["numpy"], "env": _environment(),
            "values": values, "units": units, "samples": samples,
            "ops": [r["ops"] for r in all_reps]}


def report(res: dict) -> dict:
    """Print the human-readable report and return the final result object."""
    env = res["env"]
    print(f"workload {res['workload']} seed {res['seed']} seconds {res['seconds']} "
          f"trace {int(res['trace'])} chain_steps {res['chain_steps']:.6g}")
    print(f"env python {env['python']} numpy {res['numpy']} nproc {env['nproc']} "
          f"cpu {env['cpu']!r} commit {env['commit']}")
    first = res["ops"][0]
    for i, op in enumerate(first):
        times = [rep[i]["s"] for rep in res["ops"]]
        stable = all(rep[i]["sha256"] == op["sha256"] for rep in res["ops"])
        print(f"op {i} {' '.join(op['argv'])}: median {statistics.median(times):.4f} s "
              f"exit {op['exit']} check {'ok' if op['ok'] else 'FAILED'}: {op['detail']}")
        for name, digest in op["sha256"].items():
            print(f"  sha256 {name} {digest}")
        if not stable:
            print("  note: output bytes differ between repetitions")
    for name, samples in res["samples"].items():
        print(f"sample {name}: {_spread(samples)}")
    for name, value in res["values"].items():
        print(f"metric {name} = {value:.6g} {res['units'][name]}")
    records = [op for rep in res["ops"] for op in rep]
    failed = [op for op in records if not op["ok"]]
    for argv, detail in dict.fromkeys((" ".join(op["argv"]), op["detail"]) for op in failed):
        print(f"failed op {argv}: {detail}")
    print(f"ops attempted {len(records)} failed {len(failed)}")
    return {
        # An op that fails only through the named known defect is counted
        # in `failed` but does not make the outputs incorrect; any other
        # failure does.
        "correct": all(op["ok"] or op["known_defect"] for op in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": res["units"][name]}
                    for name, value in res["values"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed S")
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps
    # the running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "wormald" / "__init__.py").is_file():
        print(f"error: no wormald sources at {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(res)
    (WORK / f"report-{args.workload}.json").write_text(json.dumps(res, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
