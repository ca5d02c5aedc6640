"""Concentration, scaling, and cover-time analyses.

Three experiments quantify how tightly simulated trajectories hug the ODE
solution: :func:`sup_deviation` measures the sup-norm gap of a single run,
:func:`scaling_study` fits how the mean gap shrinks with n (a slope near
0.5 is the central-limit rate), and :func:`gumbel_experiment` compares
empirical cover-time tails against the exact inclusion-exclusion oracle.
The Gumbel report also carries two closed-form limit curves -- a classical
double-exponential and a triple-exponential variant -- purely for visual
comparison; the exact oracle, not either curve, is the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coupon import DEFAULT_L, DEFAULT_S_MAX, coupon_reference, cover_time, exact_cover_tail
from .errors import ContractError, FitError
from .montecarlo import RunPlan, simulate
from .ode import DEFAULT_GRID_STRIDE, DEFAULT_H
from .process import Trajectory
from .rng import derive_seed


@dataclass(frozen=True)
class DeviationReport:
    """Sup-norm distance between two trajectories on their shared grid."""

    run_index: int
    sup_deviation: float
    argmax_s: float
    per_coordinate: np.ndarray


def sup_deviation(sim_traj: Trajectory, ode_traj: Trajectory,
                  run_index: int = 0) -> DeviationReport:
    """Exact max-abs difference over the common grid prefix.

    Both trajectories must sample the same grid; the comparison covers the
    prefix both contain, which ends at the earlier domain exit when one
    stopped early.
    """
    if sim_traj.coord_count != ode_traj.coord_count:
        raise ContractError(
            f"coordinate counts differ: {sim_traj.coord_count} vs {ode_traj.coord_count}"
        )
    k = min(len(sim_traj), len(ode_traj))
    if not np.array_equal(sim_traj.s[:k], ode_traj.s[:k]):
        raise ContractError("trajectories share no common grid prefix")
    diff = np.abs(sim_traj.z[:k] - ode_traj.z[:k])
    per_coordinate = diff.max(axis=0)
    row, col = np.unravel_index(np.argmax(diff), diff.shape)
    return DeviationReport(
        run_index=run_index,
        sup_deviation=float(diff[row, col]),
        argmax_s=float(sim_traj.s[row]),
        per_coordinate=per_coordinate,
    )


def compare_run(n: int, l: int = DEFAULT_L, s_max: float = DEFAULT_S_MAX, seed: int = 0,
                h: float = DEFAULT_H, grid_stride: int = DEFAULT_GRID_STRIDE,
                ) -> tuple[Trajectory, Trajectory, DeviationReport]:
    """One simulation, one integration, one deviation report, shared grid."""
    plan = RunPlan(n=n, master_seed=seed, truncation=l, h=h,
                   grid_stride=grid_stride, s_max=s_max)
    sim = simulate(plan, 0)
    ode = coupon_reference(l, s_max, h, grid_stride)
    return sim, ode, sup_deviation(sim, ode)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    run_count: int
    mean_sup_deviation: float
    stderr: float


@dataclass(frozen=True)
class ScalingReport:
    """Mean sup-deviation per n with the fitted log-log decay rate.

    ``alpha`` is the least-squares slope of -ln(mean deviation) against
    ln(n); ``intercept`` belongs to the fitted line for ln(mean deviation)
    itself.  Central-limit fluctuations give alpha near one half.
    """

    rows: tuple[ScalingRow, ...]
    alpha: float
    intercept: float


def scaling_study(ns: Sequence[int], runs_per_n: int, master_seed: int,
                  l: int = DEFAULT_L, s_max: float = DEFAULT_S_MAX, h: float = DEFAULT_H,
                  grid_stride: int = DEFAULT_GRID_STRIDE) -> ScalingReport:
    """Measure how the mean sup-deviation decays as n grows.

    For each n the plan's runs are compared against a single ODE reference
    on the shared grid.  Per-n seeds derive from the n value itself, so the
    report does not depend on the order ``ns`` is given in.
    """
    ns = [int(n) for n in ns]
    if len(ns) < 2:
        raise ContractError(f"need at least two n values, got {len(ns)}")
    if any(n < 10 for n in ns):
        raise ContractError("every n must be >= 10")
    if len(set(ns)) != len(ns):
        raise FitError("duplicate n values leave no spread to fit")

    ode = coupon_reference(l, s_max, h, grid_stride)

    rows = []
    for n in sorted(ns):
        plan = RunPlan(n=n, run_count=runs_per_n, master_seed=derive_seed(master_seed, n),
                       truncation=l, h=h, grid_stride=grid_stride, s_max=s_max)
        sups = np.array([
            sup_deviation(simulate(plan, i), ode, i).sup_deviation
            for i in range(runs_per_n)
        ])
        stderr = float(sups.std(ddof=1) / math.sqrt(runs_per_n)) if runs_per_n > 1 else 0.0
        rows.append(ScalingRow(
            n=n, run_count=runs_per_n,
            mean_sup_deviation=float(sups.mean()), stderr=stderr,
        ))

    means = np.array([row.mean_sup_deviation for row in rows])
    if np.any(means <= 0):
        raise FitError("zero mean deviation; nothing to fit on a log scale")
    slope, intercept = np.polyfit(np.log([row.n for row in rows]), np.log(means), 1)
    return ScalingReport(rows=tuple(rows), alpha=float(-slope), intercept=float(intercept))


@dataclass(frozen=True)
class GumbelRow:
    """Empirical cover-time tail at threshold ceil(n ln n + c n).

    ``ref_paper`` is the triple-exponential curve 1 - exp(-exp(-exp(c)));
    ``ref_classical`` the double-exponential 1 - exp(-exp(-c)).  Both are
    reference curves only.  ``exact`` is the inclusion-exclusion value of
    the same tail probability.
    """

    c: float
    threshold: int
    empirical: float
    stderr: float
    ref_paper: float
    ref_classical: float
    exact: float


@dataclass(frozen=True)
class GumbelReport:
    n: int
    trials: int
    rows: tuple[GumbelRow, ...]


def _exp_or_inf(x: float) -> float:
    """``math.exp(x)``, saturated to ``inf`` where it overflows (x > ~709.78)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ref_paper(c: float) -> float:
    """The paper's triple-exponential curve 1 - exp(-exp(-exp(c))).

    It is :func:`ref_classical` at e^c, bit for bit, which is why its gap
    to the exact tail does not shrink with n.
    """
    return 1.0 - math.exp(-math.exp(-_exp_or_inf(c)))


def ref_classical(c: float) -> float:
    """The classical double-exponential limit 1 - exp(-exp(-c)) (Erdős–Rényi)."""
    return 1.0 - math.exp(-_exp_or_inf(-c))


def gumbel_experiment(n: int, trials: int, cs: Sequence[float],
                      master_seed: int) -> GumbelReport:
    """Empirical P(T >= n ln n + c n) against the exact oracle.

    Runs ``trials`` independent cover times (one derived stream each), then
    evaluates the tail at threshold K = ceil(n ln n + c n) for every c.
    The exact column is P(T >= K) = exact_cover_tail(n, K - 1).
    """
    if trials < 100:
        raise ContractError(f"trials must be >= 100, got {trials}")
    if n < 10:
        raise ContractError(f"n must be >= 10, got {n}")
    if len(cs) == 0:
        raise ContractError("need at least one c value")
    unbounded = [c for c in cs if not math.isfinite(n * math.log(n) + c * n)]
    if unbounded:
        raise ContractError(f"n ln n + c n must be finite at n={n}, got c in {unbounded}")

    times = np.array([cover_time(n, derive_seed(master_seed, i)) for i in range(trials)])

    rows = []
    for c in sorted(float(c) for c in cs):
        threshold = max(math.ceil(n * math.log(n) + c * n), 0)
        empirical = float(np.mean(times >= threshold))
        stderr = math.sqrt(empirical * (1.0 - empirical) / trials)
        rows.append(GumbelRow(
            c=c,
            threshold=threshold,
            empirical=empirical,
            stderr=stderr,
            ref_paper=ref_paper(c),
            ref_classical=ref_classical(c),
            exact=exact_cover_tail(n, max(threshold - 1, 0)),
        ))
    return GumbelReport(n=n, trials=trials, rows=tuple(rows))
