"""The streaming coupon-chain kernel against a draw-by-draw replay.

``coupon_step`` applied to every draw of a run's stream, drawn in one call,
is the brute-force oracle for the chain.  ``simulate``, the pilot walk
(``_pilot_chain``) and ``max_increment`` advance the chain group by group:
a run of short grid intervals is drawn at once and applied in one sorted
pass, and a lone interval either as a sparse ``np.unique`` delta or as a
dense bincount over all types.  These tests vary the group size, which splits and merges
intervals in every way, and force either lone update.  Beyond the replay's
reach, grouped runs at large ``n`` are checked against lone-stop runs, the
kernel's saturated counts against one bincount of draws made in one call,
and the memory of ``simulate``, ``max_increment`` and the pilot walk against
bounds linear in ``n``.
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
    """States after every step 0..horizon of one stream, by ``coupon_step``."""
    gen = spawn(plan.master_seed, stream_index)
    draws = gen.integers(0, plan.n, size=plan.resolved_horizon(), dtype=np.int64)
    state = CouponState.fresh(plan.n, plan.truncation)
    per_type = [state.per_type_counts.copy()]
    buckets = [state.counts_of_counts.copy()]
    for draw in draws:
        coupon_step(state, int(draw))
        per_type.append(state.per_type_counts.copy())
        buckets.append(state.counts_of_counts.copy())
    return np.array(per_type), np.array(buckets)


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

    _, buckets = _replay(plan, run)
    t_grid = np.minimum(np.rint(traj.s * plan.n).astype(np.int64),
                        plan.resolved_horizon())
    assert np.array_equal(traj.z, buckets[t_grid] / plan.n)
    assert traj.sigma_exit is None
    assert increment == int(np.abs(np.diff(buckets, axis=0)).max())

    per_type, buckets = _replay(plan, _AUX_STREAM_BASE)
    m = plan.resolved_horizon()
    times = np.unique(np.linspace(0, m, count).round().astype(np.int64))
    assert [s.t for s in snapshots] == times.tolist()
    l = plan.truncation
    for state in snapshots:
        assert state.n == plan.n
        assert state.per_type_counts.dtype == np.min_scalar_type(l + 1)
        assert np.array_equal(state.per_type_counts, np.minimum(per_type[state.t], l + 1))
        assert np.array_equal(state.counts_of_counts, buckets[state.t])


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
    for group in (0, 4, 16, montecarlo._GROUP_DRAWS):
        spans, row_sums = [], []
        for i, j, rows, counts in _chain_states(spawn(1, 0), 5, 2, stops, group):
            spans.append((i, j))
            row_sums += [int(row.sum()) for row in rows]
            # per-type copies after stops[j - 1] draws, saturated at l + 1 = 3
            expected = np.minimum(np.bincount(draws[: stops[j - 1]], minlength=5), 3)
            assert np.array_equal(counts, expected)
        assert [i for i, _ in spans] == [0] + [j for _, j in spans[:-1]]
        assert spans[-1][1] == len(stops)
        assert row_sums == [5] * len(stops)
        assert np.array_equal(counts, np.minimum(np.bincount(draws, minlength=5), 3))


@pytest.mark.parametrize("n", [30_000, 100_000])
def test_grouped_passes_match_lone_stops_at_large_n(n):
    # Groups here span 16 to 54 intervals and types repeat inside them, far
    # beyond what the coupon_step replay can reach.
    for seed in (1, 2, 3):
        plan = RunPlan(n=n, master_seed=seed, s_max=4.0)
        _, t_grid = montecarlo._grid_step_counts(plan)
        groups = list(_chain_states(spawn(seed, 0), n, plan.truncation, t_grid,
                                    montecarlo._GROUP_DRAWS))
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
    with mock.patch.object(montecarlo, "_dense_update", _UPDATES[update]):
        for _i, j, r, counts in _chain_states(spawn(7, 0), n, l, stops, group):
            rows.extend(np.array(r))
            assert counts.dtype == np.min_scalar_type(l + 1)
            per_type = np.bincount(draws[: stops[j - 1]], minlength=n)
            assert np.array_equal(counts, np.minimum(per_type, l + 1))
    assert len(rows) == stops.size
    for stop, row in zip(stops, rows):
        per_type = np.bincount(draws[:stop], minlength=n)
        assert np.array_equal(row, np.bincount(np.minimum(per_type, l + 1),
                                               minlength=l + 2))


def test_saturated_counts_take_one_byte_per_type(traced_peak_mb):
    # Eight-byte counts alone would take 8 MB at this n.  max_increment's
    # intervals hold n draws each, so its peak is the int64 draws, the dense
    # update's one int64 bincount over the types and the one-byte counts.
    n = 1_000_000
    assert traced_peak_mb(simulate, RunPlan(n=n, master_seed=1, s_max=4.0), 0) < 4
    assert traced_peak_mb(max_increment, RunPlan(n=n, master_seed=1, s_max=2.0), 0) < 20


def test_pilot_walk_keeps_one_byte_per_type(traced_peak_mb):
    # The walk copies each of its 50 snapshots of 1e6 types as it reaches
    # it; eight-byte counts alone would take 8 MB running and 8 MB per copy.
    def walk(plan, count):
        for _state in _pilot_chain(plan, count):
            pass

    assert traced_peak_mb(walk, RunPlan(n=1_000_000, master_seed=1, s_max=1.0), 50) < 8


@pytest.mark.parametrize("n, limit_mb", [(100_000, 4), (1_000_000, 12)])
def test_simulate_memory_is_linear_in_n(n, limit_mb, traced_peak_mb):
    plan = RunPlan(n=n, master_seed=1, s_max=4.0)
    assert traced_peak_mb(simulate, plan, 0) < limit_mb
