"""The streaming coupon-chain kernel against a draw-by-draw replay.

``coupon_step`` applied to every draw of a run's stream, drawn in one call,
is the brute-force oracle for the chain.  ``simulate``, ``pilot_states`` and
``max_increment`` advance the chain group by group: a run of short grid
intervals is drawn at once and applied in one sorted pass, and a lone
interval either as a sparse ``np.unique`` delta or as a dense bincount over
all types.  These tests vary the group size, which splits and merges
intervals in every way, and force either lone update.  Beyond the replay's
reach, grouped runs at large ``n`` are checked against lone-stop runs, and
the memory of ``simulate`` against a bound linear in ``n``.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormald import (
    CouponState,
    RunPlan,
    coupon_step,
    max_increment,
    pilot_states,
    simulate,
    spawn,
)
from wormald import montecarlo
from wormald.montecarlo import _AUX_STREAM_BASE, _chain_states


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
        snapshots = pilot_states(plan, count)
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
    for state in snapshots:
        assert state.n == plan.n
        assert np.array_equal(state.per_type_counts, per_type[state.t])
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
    for group in (0, 4, 16, montecarlo._GROUP_DRAWS):
        spans, row_sums = [], []
        for i, j, rows, counts in _chain_states(spawn(1, 0), 5, 2, stops, group):
            spans.append((i, j))
            row_sums += [int(row.sum()) for row in rows]
            assert int(counts.sum()) == stops[j - 1]
        assert [i for i, _ in spans] == [0] + [j for _, j in spans[:-1]]
        assert spans[-1][1] == len(stops)
        assert row_sums == [5] * len(stops)
        assert int(counts.sum()) == 9


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


@pytest.mark.parametrize("n, limit_mb", [(100_000, 4), (1_000_000, 12)])
def test_simulate_memory_is_linear_in_n(n, limit_mb):
    plan = RunPlan(n=n, master_seed=1, s_max=4.0)
    tracemalloc.start()
    try:
        simulate(plan, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6
