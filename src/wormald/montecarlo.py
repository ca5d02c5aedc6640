"""Seeded Monte Carlo execution of the coupon process, plus hypothesis checks.

Runs are embarrassingly parallel: run ``i`` draws from its own Philox stream
keyed by ``derive_seed(seed, i)``, so any subset of runs can execute
concurrently and aggregation is a deterministic fold over run indices.
States are sampled on the same scaled-time grid the ODE engine emits
(:func:`wormald.ode.grid_times`), which makes trajectories directly
comparable without interpolation: grid entry ``s_k`` carries the state after
``round(s_k * n)`` steps.

``simulate``, the pilot run (:func:`_pilot_chain`, whose states
:func:`check_hypotheses` examines) and ``max_increment`` all advance the
chain through one kernel, :func:`_chain_states`, whose only state is the
bucket row, as the paper follows it.  The move rule, where one draw from
each bucket sends its type, is the matrix
:func:`wormald.coupon._bucket_steps`, whose mean is the ODE drift: the
kernel applies it, and the drift check takes its one-step means through
it, so the checks examine the chain that ``simulate`` runs.  Both count
draws per bucket by one lookup, :func:`_bucket_sizes`, which labels the
types canonically from the row.  The kernel reads the stream in blocks of
a fixed number of draws at fixed positions, and applies each in one
sorted pass that gives the bucket counts after each stop inside it.
Draws are uniform, so relabelling at the start of every block keeps the
rows' exact law.  A run costs O(block) memory whatever ``n``, and a row
depends only on the stream and the block size, not on the grid.
``max_increment`` replays only a run's first step, the one that settles
its answer.

The hypothesis checker (:func:`check_hypotheses`) verifies empirically what
the limit theorem assumes: bounded increments, one-step means matching the
drift, and a Lipschitz drift.  A pilot state is a bucket row and its step
count, as the method tracks the chain: draws are uniform, so the one-step
law at a state depends on its row alone.  Each drift z-score's variance is
floored at the least an integer increment with the predicted mean allows.
The check takes the pilot rows one at a time and the Lipschitz pairs in
fixed blocks, so its memory grows with neither ``n`` nor the state and
pair counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coupon import DEFAULT_L, _bucket_steps
from .errors import ContractError, _size
from .ode import DEFAULT_GRID_STRIDE, DEFAULT_H, check_grid, grid_times
from .process import ProcessSpec, Trajectory, estimate_lipschitz, evaluate_drift
from .rng import _key, derive_seed, make_generator, spawn

#: Stream indices reserved for auxiliary draws (pilot trajectory, Lipschitz
#: sampling, per-state drift sampling); run indices must stay below this.
_AUX_STREAM_BASE = 2**48

#: Largest |z| a one-step mean may reach in the drift check.
Z_THRESHOLD = 5.0

#: Single-step samples the drift check draws per pilot state by default.
DEFAULT_DRIFT_SAMPLES = 10_000

#: Draws in one block of the stream, applied in one sorted pass (see
#: :func:`_chain_states`).
_GROUP_DRAWS = 1 << 14


@dataclass(frozen=True)
class RunPlan:
    """A reproducible batch of simulation runs at one system size.

    The horizon is ceil(n * s_max) steps when the scaled horizon ``s_max``
    is given, and max(1, ceil(n ln n)), the natural horizon for the coupon
    process, otherwise; ``s_max`` left out is that horizon over ``n``.
    ``h`` and ``grid_stride`` define the shared sampling grid (see
    :func:`wormald.ode.grid_times`) and are checked with ``s_max`` by
    :func:`wormald.ode.check_grid`.  :func:`simulate` stops each run at the
    grid's last point, ``round(n * s_max)`` steps (halves to even), and the
    pilot run of :func:`check_hypotheses` walks the whole horizon.

    A horizon of 2**51 steps or more raises :class:`ContractError`.  Below
    it every stop ``round(s * n)`` of the grid lies within the horizon; from
    it on the float product ``s_max * n`` of a natural horizon may round
    past it.  2**51 draws take years, so no run that could finish is refused.
    """

    n: int
    runs: int = 1
    seed: int = 0
    l: int = DEFAULT_L
    h: float = DEFAULT_H
    grid_stride: int = DEFAULT_GRID_STRIDE
    s_max: Optional[float] = None

    def __post_init__(self):
        for name in ("n", "runs", "l"):
            object.__setattr__(self, name, _size(name, getattr(self, name), 1))
        _key(self.seed)
        if self.runs > _AUX_STREAM_BASE:
            raise ContractError(f"runs must be <= {_AUX_STREAM_BASE}")
        if self.n >= 2**63:
            raise ContractError(f"n must be < 2**63 (the chain's rows are int64), got {self.n}")
        check_grid(self.h, self.grid_stride, self.resolved_s_max())
        # n * s_max overflows only for an explicit s_max near the float range's top
        horizon = self.resolved_horizon() if self.n * self.resolved_s_max() < math.inf else math.inf
        if horizon >= 2**51:
            raise ContractError(f"the horizon must be < 2**51 steps, got {horizon} at n = {self.n}")

    def resolved_horizon(self) -> int:
        if self.s_max is not None:
            return math.ceil(self.n * self.s_max)
        return max(1, math.ceil(self.n * math.log(self.n)))

    def resolved_s_max(self) -> float:
        if self.s_max is not None:
            return self.s_max
        return self.resolved_horizon() / self.n

    def run_seed(self, run_index: int) -> int:
        if _size("run_index", run_index, 0) >= self.runs:
            raise ContractError(f"run_index {run_index} out of range [0, {self.runs})")
        return derive_seed(self.seed, run_index)


def _bucket_sizes(types: np.ndarray, row: np.ndarray) -> np.ndarray:
    """How many of the sorted ``types`` fall in each bucket of ``row``.

    The row labels the types canonically: with ``C`` its cumulative sum,
    bucket ``b`` holds the types ``[C[b-1], C[b])``, so its entries lie
    between the binary searches of ``C[b-1]`` and ``C[b]`` (``C[l+1] = n``).
    Draws are uniform, so any labelling fixed by the row gives the same law.
    """
    sizes = types.searchsorted(np.cumsum(row).astype(types.dtype))
    sizes[1:] -= sizes[:-1]
    return sizes


def _sorted_pass(draws: np.ndarray, ends: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Bucket rows after each of ``k`` consecutive intervals, from one sort.

    ``row`` holds the bucket sizes before the pass, overflow last (so ``l =
    row.size - 2``), and labels the types canonically (see
    :func:`_bucket_sizes`).  ``draws`` are the intervals' draws in stream
    order, none or more, and ``ends[r]`` how many are taken by the end of
    interval ``r``.  Each draw is packed as ``(type << b) | interval``,
    ``b`` the interval index's bit width (0 for one interval), and the
    keys sorted, which puts every type's draws together in interval order;
    keys are int64 at widest, so ``n << b >= 2**63`` raises
    :class:`ContractError` rather than wrap.
    A draw's prior count is its bucket before the pass, by
    :func:`_bucket_sizes` on the sorted types, plus its rank among its
    type's earlier draws, the distance to its run's first key, read off a
    running maximum of the run starts; within one interval the ranks of a
    type's draws may come in any order, as its moves depend only on their
    set.  A draw leaves bucket ``min(old, l + 1)``, so one bincount of
    ``interval * (l + 2) + source`` counts every interval's draws per
    bucket; the move rule :func:`wormald.coupon._bucket_steps` turns them
    into every interval's change, and a cumulative sum into every stop's row.
    The rule is float64, so the product is one BLAS call; its entries are
    integers of magnitude at most the block's draw count, far below 2**53,
    so it is exact whatever the BLAS kernel, and the rows stay int64.
    """
    l = row.size - 2
    k, d = ends.size, draws.size
    b = (k - 1).bit_length()
    # Keys, counts and source buckets all fit the key type; int32 keys sort
    # about twice as fast as int64 ones.
    n = int(row.sum())
    if n << b >= 2**63:
        raise ContractError(f"n << {b} must be < 2**63 to pack int64 keys, got n = {n}")
    wide = max(n << b, k * (l + 2), d + l + 2) >= 2**31
    key_type = np.int64 if wide else np.int32
    keys = draws.astype(key_type)  # a copy even at int32: ``draws`` is left as given
    keys <<= b
    per_interval = ends.copy()
    per_interval[1:] -= ends[:-1]
    keys |= np.repeat(np.arange(k, dtype=key_type), per_interval)
    keys.sort()
    types = keys >> b
    first = np.empty(d, dtype=bool)
    first[:1] = True
    np.not_equal(types[1:], types[:-1], out=first[1:])
    old = np.arange(d, dtype=key_type)
    start = old * first
    np.maximum.accumulate(start, out=start)
    old -= start  # the rank
    old += np.arange(l + 2, dtype=key_type).repeat(_bucket_sizes(types, row))
    keys &= (1 << b) - 1
    keys *= l + 2
    keys += np.minimum(old, l + 1, out=start)  # the source bucket
    moves = np.bincount(keys, minlength=k * (l + 2)).reshape(k, l + 2)
    return row + np.cumsum(moves @ _bucket_steps(l), axis=0, dtype=np.int64)


def _chain_states(gen: np.random.Generator, n: int, l: int, stops):
    """Advance a fresh coupon chain through the step counts ``stops``.

    ``stops`` is a non-empty, non-decreasing sequence of step counts; a
    stop may be 0, whose row is the fresh row ``(n, 0, ...)``.  The
    chain reads the stream in blocks of :data:`_GROUP_DRAWS` draws, at the
    fixed stream positions 0, B, 2B, ... and the last stop, each drawn in
    one call and applied by one :func:`_sorted_pass`, whose intervals end
    at the stops inside the block and, when no stop ends it, at its end.
    After a block holding the stops ``stops[i:j]`` the generator
    yields ``(i, j, rows)``: ``rows[r]`` holds the bucket sizes (overflow at
    index ``l + 1``) after ``stops[i + r]`` uniform draws from ``gen``.  A
    block holding no stop yields nothing.

    The chain's only state is its bucket row.  At the start of each block
    the types are labelled canonically from it (see :func:`_sorted_pass`):
    draws are uniform, so any labelling fixed by the row gives the same
    future, and the rows keep the chain's exact law.  A row after ``t``
    steps depends only on the stream's first ``t`` values and on the block
    size, not on the stops, and memory is O(block + stops in a block),
    whatever ``n``.  Bounded Philox draws are prefix-stable however a
    stream is split into calls, and for ``n <= 2**31`` numpy draws the
    same values as int32 as it does as int64.  So a block is drawn as int32
    there: 64 KiB, below glibc's default 128 KiB mmap threshold, which the
    128 KiB of a block of int64 draws passed, so that some processes
    trimmed the heap and faulted it in again after every block.
    """
    stops = np.asarray(stops, dtype=np.int64)
    row = np.zeros(l + 2, dtype=np.int64)
    row[0] = n
    draw_type = np.int32 if n <= 2**31 else np.int64
    i = begin = 0
    while i < stops.size:
        end = min(begin + _GROUP_DRAWS, int(stops[-1]))
        j = int(np.searchsorted(stops, end, side="right"))
        # the block's stops, then its trailing part up to the next stop
        ends = np.minimum(stops[i:j + 1], end) - begin
        draws = gen.integers(0, n, size=end - begin, dtype=draw_type)
        rows = _sorted_pass(draws, ends, row)
        row = rows[-1]
        if j > i:
            yield i, j, rows[:j - i]
        i, begin = j, end


def simulate(plan: RunPlan, run_index: int) -> Trajectory:
    """Execute run ``run_index`` of the plan and sample it on the shared grid.

    The emitted grid times are bitwise-identical to the ODE engine's; each
    carries the scaled bucket counts after the nearest whole step.  The
    stream is read in fixed blocks (see :func:`_chain_states`), so memory
    does not grow with ``n`` and the rows do not depend on the grid.  States are
    scaled counts in [0, 1] at times in [0, s_max], strictly inside the
    coupon domain box, so ``sigma_exit`` is always ``None``.
    """
    n, l = plan.n, plan.l
    grid = grid_times(plan.h, plan.grid_stride, plan.resolved_s_max())
    states = np.empty((grid.size, l + 2))
    gen = make_generator(plan.run_seed(run_index))
    for i, j, rows in _chain_states(gen, n, l, np.rint(grid * n).astype(np.int64)):
        states[i:j] = rows / n
    return Trajectory(grid, states, None)


def max_increment(plan: RunPlan, run_index: int) -> int:
    """Largest one-step coordinate change of a replayed run, measured on its first step.

    A step moves one unit between adjacent buckets exactly when the drawn
    type held at most ``l`` copies, and no step moves more, so the run's
    largest change is settled by its first moving step.  A coupon chain's
    first step always moves (a type leaves bucket 0 for bucket 1, l >= 1),
    and a plan has n >= 1 and a horizon of at least one step, so the replay
    asks :func:`_chain_states` for the rows at steps 0 and 1, which draws
    that one step, and returns the largest change between them.
    """
    n, l = plan.n, plan.l
    gen = make_generator(plan.run_seed(run_index))
    _i, _j, rows = next(_chain_states(gen, n, l, [0, 1]))
    return int(np.abs(rows[1] - rows[0]).max())


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


def empirical_drift(row: np.ndarray, t: int, sample_count: int, seed: int,
                    spec: ProcessSpec) -> DriftCheckReport:
    """Sample independent single steps from a frozen bucket row and test the drift.

    ``row`` holds the bucket sizes of a state ``t`` steps into a run, the
    overflow bucket last, so ``n = row.sum()`` and ``l = row.size - 2``.
    Draws ``sample_count`` fresh uniform types from a Philox stream keyed by
    ``seed`` (each sample restarts from the same state, so the steps are
    independent), averages the per-coordinate change, and compares it with
    the predicted one-step mean, ``spec``'s drift at the scaled time and
    counts (:func:`wormald.process.evaluate_drift`, so a spec not of
    ``l + 2`` coordinates raises :class:`ContractError`).  Each bucket's
    draws are counted by the kernel's own lookup, :func:`_bucket_sizes`, and
    the change is those counts times its own move rule,
    :func:`wormald.coupon._bucket_steps`, so the check examines the chain
    that :func:`simulate` runs.  The rule is float64 and the counts integers
    below 2**53, so the float64 sums of moves are exact.  The variance of
    each coordinate's change is the sampled one, floored at the smallest the
    prediction ``mu`` allows for an integer-valued increment, |mu| - mu^2,
    so a coordinate that few samples moved is not judged by a standard error
    below what the null allows.  Only where both are zero is the change deterministic; it
    then gets a z-score of zero when it matches the prediction and infinity
    when not.  A row that is not a 1-d integer array of at least three
    non-negative entries with a positive sum, a negative ``t`` or
    ``sample_count`` below 100 raises :class:`ContractError`.
    """
    sample_count = _size("sample_count", sample_count, 100)
    row = np.asarray(row)
    if row.ndim != 1 or row.size < 3 or not np.issubdtype(row.dtype, np.integer):
        raise ContractError("row must be a 1-d integer array of at least 3 buckets "
                            f"(l >= 1), got {row.dtype} of shape {row.shape}")
    if row.min() < 0:
        raise ContractError(f"row entries must be non-negative, got {row}")
    n = int(row.sum())
    if n < 1:
        raise ContractError("row must hold at least one type")
    t = _size("t", t, 0)
    l = row.size - 2
    gen = make_generator(seed)
    draws = gen.integers(0, n, size=sample_count, dtype=np.int64)
    cnt = _bucket_sizes(np.sort(draws), row)
    step = _bucket_steps(l)
    empirical = cnt @ step / sample_count
    mean_sq = cnt @ np.abs(step) / sample_count  # each move contributes (+-1)^2

    predicted = evaluate_drift(spec, t / n, row / n)

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
        description=f"n={n} t={t} counts_of_counts={tuple(int(c) for c in row)}",
        sample_count=sample_count,
        empirical=empirical,
        predicted=predicted,
        stderr=stderr,
        z_scores=z,
    )


def _pilot_chain(plan: RunPlan, count: int):
    """Yield ``count >= 1`` states, evenly spaced in steps, of a pilot run, one at a time.

    A state is ``(t, row)``: the step count and a copy of the kernel's int64
    bucket row after ``t`` steps, the overflow bucket last.  The pilot draws
    from its own reserved stream so it never shares randomness with the
    plan's numbered runs.  A row holds ``l + 2`` entries, so the walk costs
    the kernel's O(block) memory however many states a caller keeps.  A horizon
    of m steps has m + 1 distinct states, so ``count`` is clamped to m + 1
    before the times are spaced: above that, the rounded times are exactly
    0..m.
    """
    n, l, m = plan.n, plan.l, plan.resolved_horizon()
    times = np.linspace(0, m, min(count, m + 1)).round().astype(np.int64)
    # Already sorted, so dropping repeats needs no np.unique (which imports numpy.ma).
    times = times[np.diff(times, prepend=-1) > 0]
    for i, _j, rows in _chain_states(spawn(plan.seed, _AUX_STREAM_BASE), n, l, times):
        for t, row in zip(times[i:], rows):
            yield int(t), row.copy()


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
                     drift_samples: int = DEFAULT_DRIFT_SAMPLES,
                     lipschitz_samples: int = 20_000) -> HypothesisReport:
    """Empirically verify the bounded-increment, drift, and Lipschitz hypotheses.

    (1) replays the first step of every run in the plan, the step that
    settles its largest one-step change (see :func:`max_increment`), and
    checks that change against ``spec.increment_bound``; (2) samples one-step
    means at up to ``state_samples`` distinct pilot states (a horizon of m
    steps has m + 1), bucket rows taken one at a time from
    :func:`_pilot_chain` and passed to :func:`empirical_drift` with their
    step counts, so that they cost the kernel's memory however many, and fails if
    any z-score against ``spec.drift`` exceeds :data:`Z_THRESHOLD` in
    magnitude; (3) estimates
    the drift's Lipschitz constant and, when ``spec.lipschitz_hint`` is set,
    checks the estimate does not exceed it.  Thresholds are engineering
    choices and are echoed in the report details.  ``state_samples`` below 1,
    ``drift_samples`` below 100 or ``lipschitz_samples`` below 2 raises
    :class:`ContractError` before anything runs; a non-finite drift at any
    examined point raises :class:`DriftEvaluationError`.
    """
    state_samples = _size("state_samples", state_samples, 1)
    drift_samples = _size("drift_samples", drift_samples, 100)
    lipschitz_samples = _size("lipschitz_samples", lipschitz_samples, 2)
    worst_inc = 0
    for i in range(plan.runs):
        worst_inc = max(worst_inc, max_increment(plan, i))
    increment = HypothesisCheck(
        name="bounded_increments",
        passed=worst_inc <= spec.increment_bound,
        observed=float(worst_inc),
        bound=float(spec.increment_bound),
        detail=f"max one-step change over {plan.runs} runs of "
               f"{plan.resolved_horizon()} steps at n={plan.n}",
    )

    worst_z = 0.0
    worst_state = ""
    for examined, (t, row) in enumerate(_pilot_chain(plan, state_samples), start=1):
        report = empirical_drift(
            row, t, drift_samples,
            seed=derive_seed(plan.seed, _AUX_STREAM_BASE + examined),
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
        seed=derive_seed(plan.seed, _AUX_STREAM_BASE + 2**32),
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
