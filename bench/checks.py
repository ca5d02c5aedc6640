"""Correctness check of every op against references the benchmark computes.

Each check reads the files an op wrote and compares them with values the
benchmark derives itself (the Poisson profile, an inclusion-exclusion
cover-time tail, the known constants of the coupon process), never with
the op's own verdicts.  :func:`digests` records what each op wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path
from typing import NamedTuple

from workloads import Op

SOLVE_TOL = 1e-8
ROW_SUM_TOL = 1e-12
# 0.02 is the bound at large n.  Below n = 22500 it lies inside the normal
# n^-1/2 fluctuation (sup deviations of 0.025-0.043 at n = 1000), so the
# bound follows that rate: sqrt(n) * sup_dev averages about 1.1 with a
# standard deviation of about 0.2, and 3 leaves ten of them.
SUP_DEV_BOUND = 0.02
SUP_DEV_SQRT_N = 3.0
ALPHA_RANGE = (0.35, 0.65)
GUMBEL_SE = 4.0
Z_THRESHOLD = 5.0
# A drift coordinate is a candidate for the known z = inf defect when the
# chance that none of the samples moves it is at least this.
NO_MOVE_PROB = 0.01


class Verdict(NamedTuple):
    ok: bool
    detail: str
    known_defect: bool = False


def digests(out_dir: Path) -> dict[str, tuple[str, int]]:
    """sha256 and size of every file an op wrote, by file name."""
    return {p.name: (hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_size)
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def _floats(rows) -> list[list[float]]:
    return [[float(x) for x in row] for row in rows]


def poisson(s: float, i: int) -> float:
    """s^i e^-s / i!, the coupon ODE solution for coordinate i."""
    if s == 0.0:
        return 1.0 if i == 0 else 0.0
    return math.exp(i * math.log(s) - s - math.lgamma(i + 1))


def cover_tail(n: int, k: int) -> float:
    """P(cover time > k) = sum_j (-1)^(j+1) C(n,j) (1-j/n)^k, summed exactly by fsum."""
    if k == 0:
        return 1.0
    terms = []
    log_max = -math.inf
    prev = math.inf
    for j in range(1, n):
        log_t = (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                 + k * math.log1p(-j / n))
        if log_t > 700:
            raise OverflowError(f"tail terms overflow at n={n}, k={k}")
        terms.append((1.0 if j % 2 else -1.0) * math.exp(log_t))
        log_max = max(log_max, log_t)
        if log_t < prev and log_t < log_max - 80:
            break
        prev = log_t
    return math.fsum(terms)


def _solve(op: Op, out: Path) -> Verdict:
    _, rows = _csv(out / "ode.csv")
    l = op.params["l"]
    err = max(abs(row[1 + i] - poisson(row[0], i))
              for row in _floats(rows) for i in range(l + 1))
    return Verdict(err <= SOLVE_TOL, f"max |z - Poisson| {err:.3g} (<= {SOLVE_TOL:g})")


def _compare(op: Op, out: Path) -> Verdict:
    n = op.params["n"]
    _, sim_rows = _csv(out / "trajectory.csv")
    _, ode_rows = _csv(out / "ode.csv")
    sim, ode = _floats(sim_rows), _floats(ode_rows)
    if len(sim) != len(ode):
        return Verdict(False, f"grids differ in length: {len(sim)} vs {len(ode)}")
    if any(a[0].hex() != b[0].hex() for a, b in zip(sim, ode)):
        return Verdict(False, "simulation and ODE s columns are not bitwise equal")
    row_err = max(abs(math.fsum(row[1:]) - 1.0) for row in sim + ode)
    sup = max(abs(x - y) for a, b in zip(sim, ode) for x, y in zip(a[1:], b[1:]))
    bound = max(SUP_DEV_BOUND, SUP_DEV_SQRT_N / math.sqrt(n))
    ok = row_err <= ROW_SUM_TOL and sup <= bound
    return Verdict(ok, f"row sums within {row_err:.3g} (<= {ROW_SUM_TOL:g}), "
                       f"sup_dev {sup:.4g} (<= {bound:.4g})")


def _scaling(op: Op, out: Path) -> Verdict:
    _, rows = _csv(out / "scaling.csv")
    points = sorted((float(r[0]), float(r[2])) for r in rows)
    means = [m for _, m in points]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(m) for m in means]
    x_bar, y_bar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    slope = (math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
             / math.fsum((x - x_bar) ** 2 for x in xs))
    alpha = -slope
    lo, hi = ALPHA_RANGE
    ok = decreasing and lo <= alpha <= hi
    return Verdict(ok, f"alpha {alpha:.4f} (in [{lo}, {hi}]), means "
                       + ("strictly decrease" if decreasing else "do not strictly decrease"))


def _gumbel(op: Op, out: Path) -> Verdict:
    n, trials = op.params["n"], op.params["trials"]
    _, rows = _csv(out / "gumbel.csv")
    worst = 0.0
    for row in rows:
        c, empirical = float(row[0]), float(row[1])
        threshold = max(math.ceil(n * math.log(n) + c * n), 0)
        p = cover_tail(n, max(threshold - 1, 0))
        se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        gap = abs(empirical - p)
        score = gap / se if se > 0 else (0.0 if gap == 0 else math.inf)
        worst = max(worst, score)
    return Verdict(worst <= GUMBEL_SE,
                   f"worst row {worst:.2f} standard errors from the exact tail (<= {GUMBEL_SE:g})")


def _drift_defect(detail: str) -> str | None:
    """Explain a z = inf drift result as the known empirical_drift defect, if it is one.

    ``empirical_drift`` gives z = inf to a coordinate that no sample moved
    while its predicted mean is nonzero.  That is the known defect when the
    worst state has such a coordinate whose chance of seeing no move is not
    negligible.
    """
    state = re.search(r"n=(\d+) t=(\d+) counts_of_counts=\(([\d, ]+)\)", detail)
    samples = re.search(r"x (\d+) samples", detail)
    if state is None or samples is None:
        return None
    n = int(state.group(1))
    y = [int(v) for v in state.group(3).split(",")]
    m = int(samples.group(1))
    l = len(y) - 2
    found = []
    for i in range(l + 2):
        below = y[i - 1] if i > 0 else 0
        here = y[i] if i <= l else 0
        predicted = (below - here) / n
        p_none = (1.0 - (below + here) / n) ** m
        if predicted != 0 and p_none >= NO_MOVE_PROB:
            found.append(f"z{i} (predicted mean {predicted:.3g}, "
                         f"P(no sampled move) {p_none:.2f})")
    if not found:
        return None
    return (f"known defect: empirical_drift gives z=inf to a coordinate with no sampled "
            f"moves but a nonzero predicted mean; at state [n={n} t={state.group(2)} "
            f"counts_of_counts=({state.group(3)})] candidates are " + ", ".join(found))


def _check(op: Op, out: Path) -> Verdict:
    checks = {c["name"]: c for c in json.loads((out / "check.json").read_text())["checks"]}
    increment = checks["bounded_increments"]["observed"]
    lipschitz = checks["lipschitz_drift"]["observed"]
    drift = checks["drift_matches_one_step_means"]
    notes = [f"increment {increment:g} (== 1)", f"lipschitz {lipschitz:.4g} (<= 1)",
             f"drift worst |z| {drift['observed']:g} (<= {Z_THRESHOLD:g})"]
    others_ok = increment == 1.0 and lipschitz <= 1.0 + 1e-9
    if others_ok and drift["observed"] <= Z_THRESHOLD:
        return Verdict(True, ", ".join(notes))
    cause = None
    if others_ok and drift["observed"] == math.inf:
        cause = _drift_defect(drift["detail"])
    if cause is not None:
        notes.append(cause)
    return Verdict(False, ", ".join(notes), known_defect=cause is not None)


_CHECKS = {"solve": _solve, "compare": _compare, "scaling": _scaling,
           "gumbel": _gumbel, "check": _check}


def check_op(op: Op, out: Path) -> Verdict:
    """Check the files ``op`` wrote to ``out``; a missing or malformed file fails."""
    try:
        return _CHECKS[op.command](op, out)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return Verdict(False, f"unreadable output: {exc!r}")
