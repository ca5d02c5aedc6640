"""The streaming coupon-chain kernel against a draw-by-draw replay.

``coupon_step`` applied to every draw of a run's stream, drawn in one call,
is the brute-force oracle for the chain.  ``simulate``, the pilot walk
(``_pilot_chain``) and ``max_increment`` advance the chain group by group:
a run of short grid intervals is drawn at once and applied in one sorted
pass, and a lone interval either as a sparse ``np.unique`` delta or as a
dense bincount over all types.  These tests vary the group size, which splits and merges
intervals in every way, and force either lone update.  Beyond the replay's
reach, grouped runs at large ``n`` are checked against lone-stop runs, the
kernel's rows against one bincount of draws made in one call, and the
memory of ``simulate``, ``max_increment`` and the pilot walk against
bounds linear in ``n``.  ``max_increment`` stops at its first move, so its
own tests cover the stop walk: the answer at plans whose horizon is
shorter than, equal to and longer than ``n``, how few values a coupon run
draws, and the stops of a run that never moves.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wormald import (
    CouponState,
    RunPlan,
    coupon_step,
    max_increment,
    simulate,
    spawn,
)
from wormald import montecarlo
from wormald.montecarlo import _AUX_STREAM_BASE, _chain_states, _pilot_chain


def _replay(plan, stream_index):
    """Bucket rows after every step 0..horizon of one stream, by ``coupon_step``."""
    gen = spawn(plan.master_seed, stream_index)
    draws = gen.integers(0, plan.n, size=plan.resolved_horizon(), dtype=np.int64)
    state = CouponState.fresh(plan.n, plan.truncation)
    buckets = [state.counts_of_counts.copy()]
    for draw in draws:
        coupon_step(state, int(draw))
        buckets.append(state.counts_of_counts.copy())
    return np.array(buckets)


@st.composite
def plans(draw):
    n = draw(st.integers(1, 60))
    return RunPlan(
        n=n,
        run_count=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        truncation=draw(st.integers(1, 6)),
        h=draw(st.sampled_from([0.01, 0.05, 0.1])),
        grid_stride=draw(st.integers(1, 20)),
        s_max=draw(st.none() | st.floats(0.01, min(400, 8 * n) / n)),
    )


_UPDATES = {
    "chosen": montecarlo._dense_update,
    "dense": lambda n, draws: True,
    "sparse": lambda n, draws: False,
}


@settings(max_examples=80, deadline=None)
@given(plan=plans(), group=st.integers(0, 70), update=st.sampled_from(sorted(_UPDATES)),
       data=st.data())
def test_kernel_matches_step_by_step_replay(plan, group, update, data):
    run = data.draw(st.integers(0, plan.run_count - 1))
    count = data.draw(st.integers(1, 12))
    with mock.patch.object(montecarlo, "_GROUP_DRAWS", group), \
            mock.patch.object(montecarlo, "_dense_update", _UPDATES[update]):
        traj = simulate(plan, run)
        snapshots = list(_pilot_chain(plan, count))
        increment = max_increment(plan, run)

    buckets = _replay(plan, run)
    t_grid = np.minimum(np.rint(traj.s * plan.n).astype(np.int64),
                        plan.resolved_horizon())
    assert np.array_equal(traj.z, buckets[t_grid] / plan.n)
    assert traj.sigma_exit is None
    assert increment == int(np.abs(np.diff(buckets, axis=0)).max())

    buckets = _replay(plan, _AUX_STREAM_BASE)
    m = plan.resolved_horizon()
    times = np.unique(np.linspace(0, m, count).round().astype(np.int64))
    assert [s.t for s in snapshots] == times.tolist()
    l = plan.truncation
    for state in snapshots:
        assert state.n == plan.n
        assert np.array_equal(state.counts_of_counts, buckets[state.t])
        # the row's canonical labelling: bucket b holds types [C[b-1], C[b])
        labels = state.per_type_counts
        assert labels.dtype == np.min_scalar_type(l + 1)
        assert np.all(labels[1:] >= labels[:-1])
        assert np.array_equal(np.bincount(labels, minlength=l + 2), state.counts_of_counts)


@pytest.mark.parametrize("sizes", [(12345, 54321), (1, 2, 3, 65536, 7), (65536, 65536)])
def test_bounded_philox_draws_are_prefix_stable_across_splits(sizes):
    whole = spawn(3, 0).integers(0, 77_777, size=sum(sizes), dtype=np.int64)
    gen = spawn(3, 0)
    parts = [gen.integers(0, 77_777, size=k, dtype=np.int64) for k in sizes]
    assert np.array_equal(np.concatenate(parts), whole)


def test_simulate_spanning_several_blocks_matches_one_shot_counts():
    # 4 * 30000 steps span several groups, each drawn in its own call; the
    # reference counts every prefix with one bincount over draws made in a
    # single call.
    plan = RunPlan(n=30_000, master_seed=3, s_max=4.0, grid_stride=50)
    traj = simulate(plan, 0)
    draws = spawn(3, 0).integers(0, plan.n, size=plan.resolved_horizon(), dtype=np.int64)
    l = plan.truncation
    for s, z in zip(traj.s, traj.z):
        counts = np.bincount(draws[: int(np.rint(s * plan.n))], minlength=plan.n)
        expected = np.bincount(np.minimum(counts, l + 1), minlength=l + 2) / plan.n
        assert np.array_equal(z, expected)


def test_kernel_yields_once_per_stop_including_repeated_stops():
    stops = [0, 0, 4, 4, 9]
    draws = spawn(1, 0).integers(0, 5, size=stops[-1], dtype=np.int64)
    # buckets after each stop, from per-type copies saturated at l + 1 = 3
    expected = [np.bincount(np.minimum(np.bincount(draws[:stop], minlength=5), 3),
                            minlength=4).tolist() for stop in stops]
    for group in (0, 4, 16, montecarlo._GROUP_DRAWS):
        spans, seen = [], []
        with mock.patch.object(montecarlo, "_GROUP_DRAWS", group):
            for i, j, rows in _chain_states(spawn(1, 0), 5, 2, stops):
                spans.append((i, j))
                seen += [row.tolist() for row in rows]
        assert [i for i, _ in spans] == [0] + [j for _, j in spans[:-1]]
        assert spans[-1][1] == len(stops)
        assert seen == expected


@pytest.mark.parametrize("n", [30_000, 100_000])
def test_grouped_passes_match_lone_stops_at_large_n(n):
    # Groups here span 16 to 54 intervals and types repeat inside them, far
    # beyond what the coupon_step replay can reach.
    for seed in (1, 2, 3):
        plan = RunPlan(n=n, master_seed=seed, s_max=4.0)
        _, t_grid = montecarlo._grid_step_counts(plan)
        groups = list(_chain_states(spawn(seed, 0), n, plan.truncation, t_grid))
        assert len(groups) < t_grid.size // 10
        grouped = simulate(plan, 0)
        with mock.patch.object(montecarlo, "_GROUP_DRAWS", 0):
            lone = simulate(plan, 0)
        assert grouped.z.tobytes() == lone.z.tobytes()


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 12) | st.integers(4000, 5000) | st.integers(1, 5000),
       l=st.sampled_from([1, 2, 10, 253, 254, 255, 256]),
       group=st.sampled_from([0, 4, 16, montecarlo._GROUP_DRAWS]),
       update=st.sampled_from(sorted(_UPDATES)),
       gaps=st.lists(st.integers(0, 600), min_size=1, max_size=30))
@example(n=1, l=254, group=0, update="sparse", gaps=[255, 1, 300])
@example(n=1, l=254, group=0, update="dense", gaps=[255, 1, 300])
@example(n=2, l=254, group=montecarlo._GROUP_DRAWS, update="chosen", gaps=[200] * 10)
@example(n=3, l=255, group=16, update="chosen", gaps=[300, 2, 2, 2, 2, 2, 700, 2, 2])
@example(n=5000, l=254, group=0, update="chosen", gaps=[600, 100, 5])
def test_kernel_matches_one_call_bincount(n, l, group, update, gaps):
    # The chosen update applies lone intervals densely at n <= 4096 and
    # sparsely above 4096 + 8d; forcing either covers both at every n.  At
    # small n types take hundreds of draws, past every count's byte
    # (l = 254: saturated at 255, the largest uint8) and past 2**8 (l = 255
    # and 256, two bytes).
    stops = np.cumsum(gaps)
    draws = spawn(7, 0).integers(0, n, size=stops[-1], dtype=np.int64)
    rows = []
    with mock.patch.object(montecarlo, "_dense_update", _UPDATES[update]), \
            mock.patch.object(montecarlo, "_GROUP_DRAWS", group):
        for _i, _j, r in _chain_states(spawn(7, 0), n, l, stops):
            rows.extend(np.array(r))
    assert len(rows) == stops.size
    for stop, row in zip(stops, rows):
        per_type = np.bincount(draws[:stop], minlength=n)
        assert np.array_equal(row, np.bincount(np.minimum(per_type, l + 1),
                                               minlength=l + 2))


def test_saturated_counts_take_one_byte_per_type(traced_peak_mb):
    # Eight-byte counts alone would take 8 MB at this n.  max_increment
    # stops after the coupon chain's first step, one draw, so its peak is
    # the 1 MB of one-byte counts.
    n = 1_000_000
    assert traced_peak_mb(simulate, RunPlan(n=n, master_seed=1, s_max=4.0), 0) < 4
    assert traced_peak_mb(max_increment, RunPlan(n=n, master_seed=1, s_max=2.0), 0) < 2


@pytest.mark.parametrize("n, s_max, horizon", [
    (1, 1.0, "m = n"), (1, 5.0, "m > n"),
    (2, 0.5, "m < n"), (2, 1.0, "m = n"), (2, 3.5, "m > n"),
    (3, 0.5, "m < n"), (3, 1.0, "m = n"), (3, None, "m > n"),
    (1000, 0.3, "m < n"), (1000, 1.0, "m = n"), (1000, 1.5, "m > n"),
])
def test_max_increment_matches_full_replay_at_edge_plans(n, s_max, horizon):
    plan = RunPlan(n=n, master_seed=11, s_max=s_max)
    m = plan.resolved_horizon()
    assert horizon == {-1: "m < n", 0: "m = n", 1: "m > n"}[np.sign(m - n)]
    buckets = _replay(plan, 0)
    assert max_increment(plan, 0) == int(np.abs(np.diff(buckets, axis=0)).max())


def test_max_increment_stops_after_the_first_step():
    # A full replay draws n ln n values (1,151,293 here); the first step of
    # the coupon chain always moves, which settles the answer.
    drawn = []

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def integers(self, low, high, size, dtype):
            drawn.append(size)
            return self.gen.integers(low, high, size=size, dtype=dtype)

    real = montecarlo.make_generator
    with mock.patch.object(montecarlo, "make_generator",
                           lambda seed: Counting(real(seed))):
        assert max_increment(RunPlan(n=100_000, master_seed=3), 0) == 1
    assert drawn == [1]


@pytest.mark.parametrize("moved", [0, 2])
def test_max_increment_measures_the_first_row(moved):
    # The answer is read off the kernel's first row, not assumed: a kernel
    # whose first step moves nothing, or moves two units, must show it.
    seen = []

    def kernel(gen, n, l, stops):
        seen.append(list(stops))
        rows = np.zeros((1, l + 2), dtype=np.int64)
        rows[0, 0] = n - moved
        rows[0, 1] = moved
        yield 0, 1, rows

    with mock.patch.object(montecarlo, "_chain_states", kernel):
        assert max_increment(RunPlan(n=1000, master_seed=5), 0) == moved
    assert seen == [[1]]


def test_golden_check_pilot_runs_through_a_sorted_pass():
    # The golden `check` case: 50 pilot states over ceil(n ln n) = 15,202
    # steps at n = 2000, about 310 draws per interval, short enough to share
    # one sorted pass instead of 49 lone updates.
    passes = []
    real = montecarlo._sorted_pass

    def counting(draws, ends, *args):
        passes.append(ends.size)
        return real(draws, ends, *args)

    with mock.patch.object(montecarlo, "_sorted_pass", counting):
        states = list(_pilot_chain(RunPlan(n=2000, run_count=2, master_seed=5), 50))
    assert len(states) == 50
    assert passes and max(passes) > 1


def test_pilot_walk_keeps_one_byte_per_type(traced_peak_mb):
    # The walk labels each of its 50 states' 1e6 types as it reaches it;
    # eight-byte counts alone would take 8 MB running and 8 MB per state.
    def walk(plan, count):
        for _state in _pilot_chain(plan, count):
            pass

    assert traced_peak_mb(walk, RunPlan(n=1_000_000, master_seed=1, s_max=1.0), 50) < 8


@pytest.mark.parametrize("n, limit_mb", [(100_000, 4), (1_000_000, 12)])
def test_simulate_memory_is_linear_in_n(n, limit_mb, traced_peak_mb):
    plan = RunPlan(n=n, master_seed=1, s_max=4.0)
    assert traced_peak_mb(simulate, plan, 0) < limit_mb
