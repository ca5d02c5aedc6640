"""Seeded Monte Carlo execution of the coupon process, plus hypothesis checks.

Runs are embarrassingly parallel: run ``i`` draws from its own Philox stream
keyed by ``derive_seed(master_seed, i)``, so any subset of runs can execute
concurrently and aggregation is a deterministic fold over run indices.
States are sampled on the same scaled-time grid the ODE engine emits
(:func:`wormald.ode.grid_times`), which makes trajectories directly
comparable without interpolation: grid entry ``s_k`` carries the state after
``round(s_k * n)`` steps.

``simulate``, ``pilot_states`` and ``max_increment`` all advance the chain
through one kernel, :func:`_chain_states`.  It generates each run's draws
interval by interval and applies each interval as one counts-of-counts
update, so a run costs O(n + interval) memory instead of O(horizon), and
an interval of d draws costs O(min(n + d, d log d)) time instead of O(n).
Bounded Philox draws are prefix-stable however the stream is split into
calls, so the chunking leaves every seed's trajectory bitwise unchanged.

The hypothesis checker (:func:`check_hypotheses`) verifies empirically what
the limit theorem assumes: bounded increments, one-step means matching the
drift, and a Lipschitz drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coupon import CouponState
from .errors import ContractError
from .ode import grid_times
from .process import ProcessSpec, Trajectory, estimate_lipschitz
from .rng import derive_seed, make_generator, spawn

#: Stream indices reserved for auxiliary draws (pilot trajectory, Lipschitz
#: sampling, per-state drift sampling); run indices must stay below this.
_AUX_STREAM_BASE = 2**48

#: Draws generated per refill of a chain's block buffer; longer intervals
#: are drawn in one call.
_DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class RunPlan:
    """A reproducible batch of simulation runs at one system size.

    Each run replays ``horizon_steps`` steps.  Left out, it is
    ceil(n * s_max) when the scaled horizon ``s_max`` is given, and
    ceil(n ln n), the natural horizon for the coupon process, otherwise;
    ``s_max`` left out is ``horizon_steps / n``.  ``h`` and ``grid_stride``
    define the shared sampling grid (see :func:`wormald.ode.grid_times`).
    """

    n: int
    run_count: int = 1
    master_seed: int = 0
    horizon_steps: Optional[int] = None
    truncation: int = 10
    h: float = 1e-3
    grid_stride: int = 10
    s_max: Optional[float] = None

    def __post_init__(self):
        if self.n < 1:
            raise ContractError(f"n must be positive, got {self.n}")
        if self.run_count < 1:
            raise ContractError(f"run_count must be positive, got {self.run_count}")
        if self.run_count > _AUX_STREAM_BASE:
            raise ContractError(f"run_count must be <= {_AUX_STREAM_BASE}")
        if self.truncation < 1:
            raise ContractError(f"truncation must be >= 1, got {self.truncation}")
        if self.horizon_steps is not None and self.horizon_steps < 1:
            raise ContractError(f"horizon_steps must be >= 1, got {self.horizon_steps}")
        if not 0 < self.h < math.inf:
            raise ContractError(f"h must be positive and finite, got {self.h}")
        if self.grid_stride < 1:
            raise ContractError(f"grid_stride must be >= 1, got {self.grid_stride}")
        if self.s_max is not None:
            if not 0 < self.s_max < math.inf:
                raise ContractError(f"s_max must be positive and finite, got {self.s_max}")
            if self.s_max * self.n > self.resolved_horizon() * (1.0 + 1e-9):
                raise ContractError(
                    f"s_max={self.s_max} reaches past the horizon of "
                    f"{self.resolved_horizon()} steps at n={self.n}"
                )

    def resolved_horizon(self) -> int:
        if self.horizon_steps is not None:
            return self.horizon_steps
        if self.s_max is not None:
            return math.ceil(self.n * self.s_max)
        return max(1, math.ceil(self.n * math.log(self.n)))

    def resolved_s_max(self) -> float:
        if self.s_max is not None:
            return self.s_max
        return self.resolved_horizon() / self.n

    def run_seed(self, run_index: int) -> int:
        if not 0 <= run_index < self.run_count:
            raise ContractError(
                f"run_index {run_index} out of range [0, {self.run_count})"
            )
        return derive_seed(self.master_seed, run_index)


def _dense_update(n: int, draws: int) -> bool:
    """Whether ``draws`` steps are cheaper to apply by bincounts over all ``n`` types.

    Measured per interval with numpy 2.4 on x86-64: the ``np.unique`` delta
    update costs about 25 us plus 40 ns per draw, the two bincounts over all
    types about 7 us plus 5 ns per type.
    """
    return n < 4096 + 8 * draws


def _chain_states(gen: np.random.Generator, n: int, l: int, stops):
    """Advance a fresh coupon chain through the step counts ``stops``.

    ``stops`` is a non-empty, non-decreasing sequence of step counts.
    After each one the generator yields ``(t, counts, counts_of_counts)``:
    the per-type copies and the bucket sizes (overflow at index ``l + 1``)
    after ``t`` uniform draws from ``gen``.  Both arrays are updated in
    place by the next interval, so callers copy what they keep.

    Each interval's draws are taken from a block buffer of at most
    ``_DRAW_BLOCK`` values (or drawn in one call if the interval is longer).
    A short interval of d draws is reduced to distinct types and
    multiplicities with ``np.unique`` and applied as one counts-of-counts
    update: the touched types leave their old buckets and enter their new
    ones, in O(d log d) rather than O(n) work.  An interval long next to
    ``n`` (see :func:`_dense_update`) is applied with one bincount over all
    types instead; both give the same integers.  Memory is O(n + interval)
    rather than O(horizon).  Bounded Philox draws are prefix-stable however
    a stream is split into calls, so the chain sees exactly the first
    ``stops[-1]`` values of the stream, as if they had been drawn at once.
    """
    total = int(stops[-1])
    counts = np.zeros(n, dtype=np.int64)
    counts_of_counts = np.zeros(l + 2, dtype=np.int64)
    counts_of_counts[0] = n
    buf = np.empty(0, dtype=np.int64)
    pos = t_prev = 0
    for t in stops:
        t = int(t)
        need = t - t_prev
        if need > 0:
            left = buf.size - pos
            if left < need:
                # Refill to a whole block or the whole interval, never past
                # the last stop: t_prev + left values are drawn already.
                size = min(max(need, _DRAW_BLOCK), total - t_prev) - left
                fresh = gen.integers(0, n, size=size, dtype=np.int64)
                buf = np.concatenate((buf[pos:], fresh)) if left else fresh
                pos = 0
            chunk = buf[pos : pos + need]
            pos += need
            if _dense_update(n, need):
                counts += np.bincount(chunk, minlength=n)
                counts_of_counts[:] = np.bincount(np.minimum(counts, l + 1), minlength=l + 2)
            else:
                types, mult = np.unique(chunk, return_counts=True)
                old = counts[types]
                new = old + mult
                counts_of_counts -= np.bincount(np.minimum(old, l + 1), minlength=l + 2)
                counts_of_counts += np.bincount(np.minimum(new, l + 1), minlength=l + 2)
                counts[types] = new
            t_prev = t
        yield t, counts, counts_of_counts


def _grid_step_counts(plan: RunPlan) -> tuple[np.ndarray, np.ndarray]:
    """Shared grid of scaled times and the step count sampled at each."""
    grid = grid_times(plan.h, plan.grid_stride, plan.resolved_s_max())
    t_grid = np.minimum(
        np.rint(grid * plan.n).astype(np.int64), plan.resolved_horizon()
    )
    return grid, t_grid


def simulate(plan: RunPlan, run_index: int) -> Trajectory:
    """Execute run ``run_index`` of the plan and sample it on the shared grid.

    The emitted grid times are bitwise-identical to the ODE engine's; each
    carries the scaled bucket counts after the nearest whole step.  Draws
    are generated interval by interval from the run's stream (see
    :func:`_chain_states`), so memory is O(n + interval) and the trajectory
    does not depend on how the stream is split.  States are scaled counts
    in [0, 1] at times in [0, s_max], strictly inside the coupon domain
    box, so ``sigma_exit`` is always ``None``.
    """
    plan.run_seed(run_index)  # range check
    n, l = plan.n, plan.truncation
    grid, t_grid = _grid_step_counts(plan)
    states = np.empty((grid.size, l + 2))
    chain = _chain_states(spawn(plan.master_seed, run_index), n, l, t_grid)
    for k, (_t, _counts, counts_of_counts) in enumerate(chain):
        states[k] = counts_of_counts / n
    return Trajectory(grid, states, None)


def max_increment(plan: RunPlan, run_index: int) -> int:
    """Largest one-step coordinate change over a replayed run.

    Replays the run's whole horizon in intervals of ``n`` steps, with draws
    generated per interval (memory O(n), not O(horizon)).  A step moves one
    unit between adjacent buckets exactly when the drawn type held at most
    ``l`` copies.  Every such move raises the bucket-index sum
    ``sum_i i * counts_of_counts[i]`` by one and no step lowers it, so the
    answer is 1 if the sum ends positive and 0 otherwise.  For the coupon
    process it is 1 for any run with at least one step.
    """
    plan.run_seed(run_index)  # range check
    n, l, m = plan.n, plan.truncation, plan.resolved_horizon()
    stops = np.append(np.arange(n, m, n, dtype=np.int64), m)
    for _t, _counts, counts_of_counts in _chain_states(
            spawn(plan.master_seed, run_index), n, l, stops):
        pass
    return int(np.arange(l + 2) @ counts_of_counts > 0)


@dataclass(frozen=True)
class DriftCheckReport:
    """One-step mean changes at a frozen state versus the drift prediction."""

    description: str
    sample_count: int
    empirical: np.ndarray
    predicted: np.ndarray
    stderr: np.ndarray
    z_scores: np.ndarray

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z_scores)))


def empirical_drift(state: CouponState, sample_count: int, seed: int,
                    drift=None) -> DriftCheckReport:
    """Sample independent single steps from a frozen state and test the drift.

    Draws ``sample_count`` fresh uniform types from a Philox stream keyed by
    ``seed`` (each sample restarts from the same state, so the steps are
    independent), averages the per-coordinate change, and compares it with
    the predicted one-step mean -- by default the exact coupon formula
    (y_{i-1} - y_i)/n, or ``drift(s, z)`` if a drift function is supplied.
    Where the sampled change has zero variance (no sample moved the
    coordinate, or every sample moved it alike), the standard error falls
    back to the smallest one the prediction ``mu`` allows for an
    integer-valued increment, sqrt((|mu| - mu^2) / sample_count).  Only where
    that floor is zero too is the change deterministic; it then gets a
    z-score of zero when it matches the prediction and infinity when not.
    """
    if sample_count < 100:
        raise ContractError(f"sample_count must be >= 100, got {sample_count}")
    n = state.n
    l = state.truncation
    gen = make_generator(seed)
    draws = gen.integers(0, n, size=sample_count, dtype=np.int64)
    source = np.minimum(state.per_type_counts[draws], l + 1)
    cnt = np.bincount(source, minlength=l + 2).astype(float)

    # A draw from bucket b <= l moves one unit b -> min(b+1, l+1); a draw
    # from the overflow bucket changes nothing.
    dec = cnt.copy()
    dec[l + 1] = 0.0
    inc = np.zeros(l + 2)
    inc[1 : l + 2] = cnt[0 : l + 1]
    empirical = (inc - dec) / sample_count
    mean_sq = (inc + dec) / sample_count  # each move contributes (+-1)^2

    if drift is None:
        y = state.counts_of_counts.astype(float)
        predicted = np.empty(l + 2)
        predicted[0] = -y[0] / n
        predicted[1 : l + 1] = (y[0:l] - y[1 : l + 1]) / n
        predicted[l + 1] = y[l] / n
    else:
        predicted = np.asarray(
            drift(state.t / n, state.counts_of_counts / n), dtype=float
        )

    var = np.maximum(mean_sq - empirical**2, 0.0) * sample_count / (sample_count - 1)
    # Increments are integers, so E[X^2] >= |E[X]| and under the null the
    # variance is at least |mu| - mu^2.  A coordinate that no sample moved
    # has empirical variance 0; it is tested against that floor instead.
    floor = np.maximum(np.abs(predicted) - predicted**2, 0.0)
    var = np.where(var > 0, var, floor)
    stderr = np.sqrt(var / sample_count)
    z = np.zeros(l + 2)
    live = stderr > 0
    z[live] = (empirical[live] - predicted[live]) / stderr[live]
    frozen_mismatch = ~live & (np.abs(empirical - predicted) > 1e-9)
    z[frozen_mismatch] = np.inf
    return DriftCheckReport(
        description=state.describe(),
        sample_count=sample_count,
        empirical=empirical,
        predicted=predicted,
        stderr=stderr,
        z_scores=z,
    )


def pilot_states(plan: RunPlan, count: int) -> list[CouponState]:
    """Snapshot ``count`` states, evenly spaced in steps, from a pilot run.

    The pilot draws from its own reserved stream so it never shares
    randomness with the plan's numbered runs.  Draws are generated per
    interval between snapshots (see :func:`_chain_states`); only the
    snapshots themselves hold O(n) copies.
    """
    if count < 1:
        raise ContractError(f"count must be positive, got {count}")
    n, l, m = plan.n, plan.truncation, plan.resolved_horizon()
    times = np.unique(np.linspace(0, m, count).round().astype(np.int64))
    chain = _chain_states(spawn(plan.master_seed, _AUX_STREAM_BASE), n, l, times)
    return [
        CouponState(n=n, t=t, per_type_counts=counts.copy(),
                    counts_of_counts=counts_of_counts.copy())
        for t, counts, counts_of_counts in chain
    ]


@dataclass(frozen=True)
class HypothesisCheck:
    """Outcome of one empirical hypothesis check."""

    name: str
    passed: bool
    observed: float
    bound: Optional[float]
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    """Evidence for the three hypotheses the limit theorem rests on."""

    increment: HypothesisCheck
    drift: HypothesisCheck
    lipschitz: HypothesisCheck

    @property
    def passed(self) -> bool:
        return self.increment.passed and self.drift.passed and self.lipschitz.passed

    @property
    def checks(self) -> Sequence[HypothesisCheck]:
        return (self.increment, self.drift, self.lipschitz)


def check_hypotheses(spec: ProcessSpec, plan: RunPlan, state_samples: int,
                     drift_samples: int = 10_000, lipschitz_samples: int = 20_000,
                     z_threshold: float = 5.0) -> HypothesisReport:
    """Empirically verify the bounded-increment, drift, and Lipschitz hypotheses.

    (1) replays every run in the plan and checks the largest one-step change
    against ``spec.increment_bound``; (2) samples one-step means at
    ``state_samples`` pilot states and fails if any z-score against
    ``spec.drift`` exceeds ``z_threshold`` in magnitude; (3) estimates the
    drift's Lipschitz constant and, when ``spec.lipschitz_hint`` is set,
    checks the estimate does not exceed it.  Thresholds are engineering
    choices and are echoed in the report details.
    """
    worst_inc = 0
    for i in range(plan.run_count):
        worst_inc = max(worst_inc, max_increment(plan, i))
    increment = HypothesisCheck(
        name="bounded_increments",
        passed=worst_inc <= spec.increment_bound,
        observed=float(worst_inc),
        bound=float(spec.increment_bound),
        detail=f"max one-step change over {plan.run_count} runs of "
               f"{plan.resolved_horizon()} steps at n={plan.n}",
    )

    worst_z = 0.0
    worst_state = ""
    for k, state in enumerate(pilot_states(plan, state_samples)):
        report = empirical_drift(
            state, drift_samples,
            seed=derive_seed(plan.master_seed, _AUX_STREAM_BASE + 1 + k),
            drift=spec.drift,
        )
        if report.max_abs_z > worst_z:
            worst_z = report.max_abs_z
            worst_state = report.description
    drift_check = HypothesisCheck(
        name="drift_matches_one_step_means",
        passed=worst_z <= z_threshold,
        observed=worst_z,
        bound=z_threshold,
        detail=f"worst |z| over {state_samples} pilot states x {drift_samples} "
               f"samples, at state [{worst_state}]",
    )

    estimate = estimate_lipschitz(
        spec, lipschitz_samples,
        seed=derive_seed(plan.master_seed, _AUX_STREAM_BASE + 2**32),
    )
    hint = spec.lipschitz_hint
    lippass = True if hint is None else estimate <= hint * (1.0 + 1e-9) + 1e-12
    lipschitz = HypothesisCheck(
        name="lipschitz_drift",
        passed=lippass,
        observed=estimate,
        bound=hint,
        detail=f"largest drift-difference ratio over {lipschitz_samples} point pairs"
               + ("" if hint is not None else " (no reference constant supplied)"),
    )

    return HypothesisReport(increment=increment, drift=drift_check, lipschitz=lipschitz)
