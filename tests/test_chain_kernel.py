"""The streaming coupon-chain kernel against a draw-by-draw replay.

``coupon_step`` applied to every draw of a run's stream, drawn in one call,
is the brute-force oracle for the chain.  ``simulate``, ``pilot_states`` and
``max_increment`` advance the chain interval by interval with draws taken
from a block buffer, applying each interval either as a sparse
``np.unique`` delta or as a dense bincount over all types.  These tests
also vary the block size and force either update, to exercise every way
the stream can be split and both ways an interval can be applied.
"""

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
    horizon = draw(st.none() | st.integers(1, min(400, 8 * n)))
    plan = RunPlan(n=n, horizon_steps=horizon)
    s_max = draw(st.none() | st.floats(0.05, 1.0).map(
        lambda f: f * plan.resolved_horizon() / n))
    return RunPlan(
        n=n,
        run_count=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        horizon_steps=horizon,
        truncation=draw(st.integers(1, 6)),
        h=draw(st.sampled_from([0.01, 0.05, 0.1])),
        grid_stride=draw(st.integers(1, 20)),
        s_max=s_max,
    )


_UPDATES = {
    "chosen": montecarlo._dense_update,
    "dense": lambda n, draws: True,
    "sparse": lambda n, draws: False,
}


@settings(max_examples=80, deadline=None)
@given(plan=plans(), block=st.integers(1, 70), update=st.sampled_from(sorted(_UPDATES)),
       data=st.data())
def test_kernel_matches_step_by_step_replay(plan, block, update, data):
    run = data.draw(st.integers(0, plan.run_count - 1))
    count = data.draw(st.integers(1, 12))
    with mock.patch.object(montecarlo, "_DRAW_BLOCK", block), \
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
    # 4 * 30000 steps span two draw blocks; the reference counts every prefix
    # with one bincount over draws made in a single call.
    plan = RunPlan(n=30_000, master_seed=3, s_max=4.0, grid_stride=50)
    traj = simulate(plan, 0)
    draws = spawn(3, 0).integers(0, plan.n, size=plan.resolved_horizon(), dtype=np.int64)
    l = plan.truncation
    for s, z in zip(traj.s, traj.z):
        counts = np.bincount(draws[: int(np.rint(s * plan.n))], minlength=plan.n)
        expected = np.bincount(np.minimum(counts, l + 1), minlength=l + 2) / plan.n
        assert np.array_equal(z, expected)


def test_kernel_yields_once_per_stop_including_repeated_stops():
    chain = _chain_states(spawn(1, 0), 5, 2, [0, 0, 4, 4, 9])
    seen = [(t, int(coc.sum()), int(counts.sum())) for t, counts, coc in chain]
    assert seen == [(0, 5, 0), (0, 5, 0), (4, 5, 4), (4, 5, 4), (9, 5, 9)]
