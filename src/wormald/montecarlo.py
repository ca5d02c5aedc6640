"""Seeded Monte Carlo execution of the coupon process, plus hypothesis checks.

Runs are embarrassingly parallel: run ``i`` draws from its own Philox stream
keyed by ``derive_seed(master_seed, i)``, so any subset of runs can execute
concurrently and aggregation is a deterministic fold over run indices.
States are sampled on the same scaled-time grid the ODE engine emits
(:func:`wormald.ode.grid_times`), which makes trajectories directly
comparable without interpolation: grid entry ``s_k`` carries the state after
``round(s_k * n)`` steps.

``simulate``, the pilot run (:func:`_pilot_chain`, whose states
:func:`check_hypotheses` examines) and ``max_increment`` all advance the
chain through one kernel, :func:`_chain_states`, grouped by one rule.  A
run of consecutive short grid intervals is drawn in one call and applied
in one sorted pass that gives the bucket counts after each of its stops;
an interval too long to share a pass is applied alone as one
counts-of-counts update.  A run costs O(n + interval) memory instead of
O(horizon), and no grid point costs more than one sweep over the ``n``
types.  Each type's count stays inside the kernel, saturated at ``l + 1``
in one byte per type up to l = 254; only bucket rows leave it.  Bounded
Philox draws are prefix-stable however the stream is split into calls, and
every update is integer arithmetic, so neither the grouping nor the
saturation changes any seed's rows by a bit.  Draws are uniform, so a pilot
state labels its types canonically from its row alone.  ``max_increment``
replays only a run's first step, the one that settles its answer.

The hypothesis checker (:func:`check_hypotheses`) verifies empirically what
the limit theorem assumes: bounded increments, one-step means matching the
drift, and a Lipschitz drift.  Each drift z-score's variance is floored at
the least an integer increment with the predicted mean allows.  It takes
the pilot states one at a time and the Lipschitz pairs in fixed blocks, so
its memory is O(n + block) whatever the sample counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coupon import DEFAULT_L, CouponState
from .errors import ContractError
from .ode import DEFAULT_GRID_STRIDE, DEFAULT_H, check_grid, grid_times
from .process import ProcessSpec, Trajectory, estimate_lipschitz, evaluate_drift
from .rng import derive_seed, make_generator, spawn

#: Stream indices reserved for auxiliary draws (pilot trajectory, Lipschitz
#: sampling, per-state drift sampling); run indices must stay below this.
_AUX_STREAM_BASE = 2**48

#: Largest |z| a one-step mean may reach in the drift check.
Z_THRESHOLD = 5.0

#: Most draws applied in one sorted pass (see :func:`_chain_states`).
_GROUP_DRAWS = 1 << 14


@dataclass(frozen=True)
class RunPlan:
    """A reproducible batch of simulation runs at one system size.

    Each run replays ceil(n * s_max) steps when the scaled horizon ``s_max``
    is given, and max(1, ceil(n ln n)), the natural horizon for the coupon
    process, otherwise; ``s_max`` left out is that horizon over ``n``.
    ``h`` and ``grid_stride`` define the shared sampling grid (see
    :func:`wormald.ode.grid_times`) and are checked with ``s_max`` by
    :func:`wormald.ode.check_grid`.
    """

    n: int
    run_count: int = 1
    master_seed: int = 0
    truncation: int = DEFAULT_L
    h: float = DEFAULT_H
    grid_stride: int = DEFAULT_GRID_STRIDE
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
        check_grid(self.h, self.grid_stride, self.resolved_s_max())

    def resolved_horizon(self) -> int:
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
    """Whether a lone interval of ``draws`` steps is cheaper to apply over all ``n`` types.

    Measured per interval with numpy 2.4 on x86-64 and one-byte counts: the
    ``np.unique`` delta update costs about 20 us plus 30 ns per draw, the
    dense update (one bincount over all types, summed, capped and stored
    back) about 10 us plus 4-5 ns per type, so the two meet near
    ``n = 4096 + 8 * draws`` as they did with int64 counts.  A sorted pass
    (:func:`_sorted_pass`) costs about 35-70 ns per draw including the draw
    itself, against about 20 us per interval plus 35-40 ns per draw for a
    lone one, so grouping pays only for intervals shorter than about 2,000
    draws.
    """
    return n < 4096 + 8 * draws


def _lone_update(draws: np.ndarray, counts: np.ndarray, counts_of_counts: np.ndarray,
                 l: int) -> None:
    """Apply one interval's ``draws`` to ``counts`` and ``counts_of_counts`` in place.

    The draws are reduced to distinct types and multiplicities with
    ``np.unique`` and applied as one counts-of-counts update: the touched
    types leave their old buckets and enter their new ones, in O(d log d)
    work for d draws.  An interval long next to ``n`` (see
    :func:`_dense_update`) is applied with one bincount over all types
    instead, whose int64 array is the only n-entry temporary; both give the
    same integers.  New counts are summed in int64 and stored as
    ``min(count, l + 1)`` (see :func:`_chain_states`).
    """
    n = counts.size
    if _dense_update(n, draws.size):
        new = np.bincount(draws, minlength=n)
        new += counts
        np.minimum(new, l + 1, out=new)
        counts[:] = new
        counts_of_counts[:] = np.bincount(new, minlength=l + 2)
    else:
        types, mult = np.unique(draws, return_counts=True)
        old = counts[types]
        new = mult + old  # int64: a narrow old + 1 could wrap
        bucket = np.minimum(new, l + 1)
        counts_of_counts -= np.bincount(old, minlength=l + 2)  # already capped
        counts_of_counts += np.bincount(bucket, minlength=l + 2)
        counts[types] = bucket


def _sorted_pass(draws: np.ndarray, ends: np.ndarray, counts: np.ndarray,
                 counts_of_counts: np.ndarray, l: int) -> np.ndarray:
    """Bucket counts after each of several consecutive intervals, from one sort.

    ``draws`` are the group's draws in stream order (at least one) and
    ``ends[r]`` how many of them are taken by the end of interval ``r``.
    Each draw is packed as ``(type << b) | interval`` and the keys sorted,
    which puts every type's draws together in interval order.  A draw's
    prior count is then its type's count before the group plus its rank
    among that type's earlier draws; within one interval the ranks of a
    type's draws may come in any order, as the interval's moves depend only
    on their set.  A draw moves one unit from bucket ``min(old, l + 1)`` to
    ``min(old + 1, l + 1)``, which is no move in the overflow bucket, so one
    bincount of the source buckets keyed by interval gives every interval's
    change, and a cumulative sum over intervals gives every stop's row.
    ``counts`` is updated in place from each type's last draw, saturated at
    ``l + 1`` (see :func:`_chain_states`).
    """
    k = ends.size
    b = (k - 1).bit_length()
    # int32 keys sort about twice as fast as int64 ones
    key_type = np.int32 if counts.size << b < 2**31 else np.int64
    interval = np.repeat(np.arange(k, dtype=key_type), np.diff(ends, prepend=0))
    keys = np.sort((draws.astype(key_type, copy=False) << b) | interval)
    types = keys >> b
    d = keys.size
    first = np.empty(d, dtype=bool)
    first[0] = True
    np.not_equal(types[1:], types[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    rank = np.arange(d) - np.repeat(starts, np.diff(starts, append=d))
    old = counts[types] + rank  # int64 (rank's dtype) whatever the counts' dtype
    source = np.multiply(keys & ((1 << b) - 1), l + 2, dtype=np.int64)
    source += np.minimum(old, l + 1)
    moves = np.bincount(source, minlength=k * (l + 2)).reshape(k, l + 2)
    moves[:, l + 1] = 0  # a draw in the overflow bucket moves nothing
    change = -moves
    change[:, 1:] += moves[:, :-1]
    last = np.append(starts[1:], d) - 1
    new = old[last] + 1
    counts[types[last]] = np.minimum(new, l + 1)
    return counts_of_counts + np.cumsum(change, axis=0)


def _chain_states(gen: np.random.Generator, n: int, l: int, stops):
    """Advance a fresh coupon chain through the step counts ``stops``.

    ``stops`` is a non-empty, non-decreasing sequence of step counts, taken
    in groups.  A group is the longest run of consecutive stops whose draws
    number at most :data:`_GROUP_DRAWS` in all and at most an eighth of that
    per stop on average, or else a lone stop.  After the group
    ``stops[i:j]`` the generator yields ``(i, j, rows)``: ``rows[r]`` holds
    the bucket sizes (overflow at index ``l + 1``) after ``stops[i + r]``
    uniform draws from ``gen``.  ``rows`` may be overwritten by the next
    group, so callers copy what they keep.

    Each type's count stays inside the kernel as ``min(copies, l + 1)``, in
    the smallest unsigned dtype that holds it (one byte per type up to l =
    254), summed in int64 before the cap so that it never wraps; ``rows``
    are the integers exact counts would give.

    Each group draws its steps in one call.  A group of several stops is
    applied by :func:`_sorted_pass` and a lone stop by
    :func:`_lone_update`; the average bound keeps intervals longer than
    about 2,000 draws out of sorted passes, where the lone update is
    cheaper (see :func:`_dense_update`).  Memory is O(n + group + interval)
    rather than O(horizon).  Bounded Philox draws are prefix-stable however
    a stream is split into calls, so the chain sees exactly the first
    ``stops[-1]`` values of the stream whatever the grouping.
    """
    stops = np.asarray(stops, dtype=np.int64)
    counts = np.zeros(n, dtype=np.min_scalar_type(l + 1))
    counts_of_counts = np.zeros(l + 2, dtype=np.int64)
    counts_of_counts[0] = n
    i = t_prev = 0
    while i < stops.size:
        j = max(i + 1, int(np.searchsorted(stops, t_prev + _GROUP_DRAWS, side="right")))
        if stops[j - 1] - t_prev > (j - i) * (_GROUP_DRAWS >> 3):
            j = i + 1  # intervals this long are cheaper one at a time
        draws = gen.integers(0, n, size=int(stops[j - 1]) - t_prev, dtype=np.int64)
        if j - i > 1 and draws.size:
            rows = _sorted_pass(draws, stops[i:j] - t_prev, counts, counts_of_counts, l)
            counts_of_counts[:] = rows[-1]
        else:  # a lone stop, or repeated stops with no draw between them
            _lone_update(draws, counts, counts_of_counts, l)
            rows = np.broadcast_to(counts_of_counts, (j - i, l + 2))
        yield i, j, rows
        t_prev = int(stops[j - 1])
        i = j


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
    carries the scaled bucket counts after the nearest whole step.  Short
    grid intervals are drawn and applied a run at a time, long ones one at
    a time (see :func:`_chain_states`), so memory is O(n + interval) and
    the trajectory does not depend on how the stream is split.  States are
    scaled counts in [0, 1] at times in [0, s_max], strictly inside the
    coupon domain box, so ``sigma_exit`` is always ``None``.
    """
    n, l = plan.n, plan.truncation
    grid, t_grid = _grid_step_counts(plan)
    states = np.empty((grid.size, l + 2))
    gen = make_generator(plan.run_seed(run_index))
    for i, j, rows in _chain_states(gen, n, l, t_grid):
        states[i:j] = rows / n
    return Trajectory(grid, states, None)


def max_increment(plan: RunPlan, run_index: int) -> int:
    """Largest one-step coordinate change of a replayed run, measured on its first step.

    A step moves one unit between adjacent buckets exactly when the drawn
    type held at most ``l`` copies, and no step moves more, so the run's
    largest change is settled by its first moving step.  A coupon chain's
    first step always moves (a type leaves bucket 0 for bucket 1, l >= 1),
    and a plan has n >= 1 and a horizon of at least one step, so the replay
    draws that one step through :func:`_chain_states` and returns the
    largest change between the fresh row ``(n, 0, ...)`` and its row.
    """
    n, l = plan.n, plan.truncation
    gen = make_generator(plan.run_seed(run_index))
    _i, _j, rows = next(_chain_states(gen, n, l, [1]))
    fresh = np.zeros(l + 2, dtype=np.int64)
    fresh[0] = n
    return int(np.abs(rows[0] - fresh).max())


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
                    spec: ProcessSpec) -> DriftCheckReport:
    """Sample independent single steps from a frozen state and test the drift.

    Draws ``sample_count`` fresh uniform types from a Philox stream keyed by
    ``seed`` (each sample restarts from the same state, so the steps are
    independent), averages the per-coordinate change, and compares it with
    the predicted one-step mean, ``spec``'s drift at the state's scaled time
    and counts (:func:`wormald.process.evaluate_drift`, so a spec not of the
    state's ``truncation + 2`` coordinates raises :class:`ContractError`).
    The variance of each coordinate's change is the sampled one, floored
    at the smallest the prediction ``mu`` allows for an integer-valued
    increment, |mu| - mu^2, so a coordinate that few samples moved is not
    judged by a standard error below what the null allows.  Only where both
    are zero is the change deterministic; it then gets a z-score of zero
    when it matches the prediction and infinity when not.
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

    predicted = evaluate_drift(spec, state.t / n, state.counts_of_counts / n)

    var = np.maximum(mean_sq - empirical**2, 0.0) * sample_count / (sample_count - 1)
    # Increments are integers, so E[X^2] >= |E[X]| and under the null the
    # variance is at least |mu| - mu^2; a low-count coordinate's sampled
    # variance may fall below it.
    floor = np.maximum(np.abs(predicted) - predicted**2, 0.0)
    var = np.maximum(var, floor)
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


def _pilot_chain(plan: RunPlan, count: int):
    """Yield ``count >= 1`` states, evenly spaced in steps, of a pilot run, one at a time.

    The pilot draws from its own reserved stream so it never shares
    randomness with the plan's numbered runs.  A state's
    ``per_type_counts`` is its row's canonical labelling: bucket ``b``
    holds the types ``[C[b-1], C[b])``, ``C`` the row's cumulative sum, in
    one byte per type up to l = 254.  Draws are uniform, so the one-step law
    the drift check samples is the same under any labelling.  Each state is
    built as it is yielded, so a caller that drops each before taking the
    next holds O(n) memory however many it examines.  A horizon of m steps
    has m + 1 distinct states, so ``count`` is clamped to m + 1 before the
    times are spaced: above that, the rounded times are exactly 0..m.
    """
    n, l, m = plan.n, plan.truncation, plan.resolved_horizon()
    times = np.linspace(0, m, min(count, m + 1)).round().astype(np.int64)
    # Already sorted, so dropping repeats needs no np.unique (which imports numpy.ma).
    times = times[np.diff(times, prepend=-1) > 0]
    buckets = np.arange(l + 2, dtype=np.min_scalar_type(l + 1))
    for i, _j, rows in _chain_states(spawn(plan.master_seed, _AUX_STREAM_BASE), n, l, times):
        for t, row in zip(times[i:], rows):
            yield CouponState(n=n, t=int(t), per_type_counts=np.repeat(buckets, row),
                              counts_of_counts=row.copy())


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
                     drift_samples: int = 10_000,
                     lipschitz_samples: int = 20_000) -> HypothesisReport:
    """Empirically verify the bounded-increment, drift, and Lipschitz hypotheses.

    (1) replays the first step of every run in the plan, the step that
    settles its largest one-step change (see :func:`max_increment`), and
    checks that change against ``spec.increment_bound``; (2) samples one-step
    means at up to ``state_samples`` distinct pilot states (a horizon of m
    steps has m + 1), taken one at a time from :func:`_pilot_chain` so that
    they cost O(n) memory however many, and fails if any z-score against
    ``spec.drift`` exceeds :data:`Z_THRESHOLD` in magnitude; (3) estimates
    the drift's Lipschitz constant and, when ``spec.lipschitz_hint`` is set,
    checks the estimate does not exceed it.  Thresholds are engineering
    choices and are echoed in the report details.  ``state_samples`` below 1,
    ``drift_samples`` below 100 or ``lipschitz_samples`` below 2 raises
    :class:`ContractError` before anything runs; a non-finite drift at any
    examined point raises :class:`DriftEvaluationError`.
    """
    if state_samples < 1:
        raise ContractError(f"state_samples must be positive, got {state_samples}")
    if drift_samples < 100:
        raise ContractError(f"drift_samples must be >= 100, got {drift_samples}")
    if lipschitz_samples < 2:
        raise ContractError(f"lipschitz_samples must be >= 2, got {lipschitz_samples}")
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
    for examined, state in enumerate(_pilot_chain(plan, state_samples), start=1):
        report = empirical_drift(
            state, drift_samples,
            seed=derive_seed(plan.master_seed, _AUX_STREAM_BASE + examined),
            spec=spec,
        )
        # ties go to the earliest state, so one is named even if every |z| is 0
        if examined == 1 or report.max_abs_z > worst_z:
            worst_z = report.max_abs_z
            worst_state = report.description
    drift_check = HypothesisCheck(
        name="drift_matches_one_step_means",
        passed=worst_z <= Z_THRESHOLD,
        observed=worst_z,
        bound=Z_THRESHOLD,
        detail=f"worst |z| over {examined} pilot states x {drift_samples} "
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
