"""The streaming coupon-chain kernel against a draw-by-draw replay.

``coupon_step`` applied to every draw of a run's stream, drawn in one call,
is the brute-force oracle for the chain.  ``simulate``, the pilot walk
(``_pilot_chain``) and ``max_increment`` advance the chain group by group:
a run of short grid intervals is drawn at once and applied in one sorted
pass, and a lone interval either by a sorted pass of its own or by a
dense bincount over all types.  These tests vary the group size, which
splits and merges intervals in every way, and force either lone update.
The sorted pass is also held on its own against ``coupon_step``, draw by
draw, from saturated and narrow-dtype counts.  Beyond the replay's
reach, grouped runs at large ``n`` are checked against lone-stop runs, the
kernel's rows against one bincount of draws made in one call (also where
a pass needs int64 keys), and the memory of ``simulate``,
``max_increment`` and the pilot walk against bounds linear in ``n``.
``max_increment`` draws one step, the coupon chain's first, which always
moves, so its own tests cover that step: the answer at plans whose horizon
is shorter than, equal to and longer than ``n``, that a run draws one
value, and that the answer is read off the kernel's first row, whatever
that row moved.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import CouponState, coupon_step
from wormald import RunPlan, max_increment, simulate, spawn
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
    assert [t for t, _row in snapshots] == times.tolist()
    for t, row in snapshots:
        assert row.dtype == np.int64
        assert np.array_equal(row, buckets[t])


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
@given(n=st.integers(1, 12) | st.integers(8000, 10_000) | st.integers(1, 10_000),
       l=st.sampled_from([1, 2, 10, 253, 254, 255, 256]),
       group=st.sampled_from([0, 4, 16, montecarlo._GROUP_DRAWS]),
       update=st.sampled_from(sorted(_UPDATES)),
       gaps=st.lists(st.integers(0, 600), min_size=1, max_size=30))
@example(n=1, l=254, group=0, update="sparse", gaps=[255, 1, 300])
@example(n=1, l=254, group=0, update="dense", gaps=[255, 1, 300])
@example(n=2, l=254, group=montecarlo._GROUP_DRAWS, update="chosen", gaps=[200] * 10)
@example(n=3, l=255, group=16, update="chosen", gaps=[300, 2, 2, 2, 2, 2, 700, 2, 2])
@example(n=5000, l=254, group=0, update="chosen", gaps=[600, 100, 5])
@example(n=10_000, l=254, group=0, update="chosen", gaps=[600, 100, 5])
def test_kernel_matches_one_call_bincount(n, l, group, update, gaps):
    # The chosen update applies lone intervals densely below n = 8192 + 4d
    # and by a sorted pass from there; forcing either covers both at every
    # n.  At small n types take hundreds of draws, past every count's byte
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


@st.composite
def pass_inputs(draw):
    """``(l, start, sizes, types)``: initial counts, interval sizes and draws."""
    l = draw(st.sampled_from([1, 254, 255]))
    n = draw(st.integers(1, 8))
    start = draw(st.lists(st.sampled_from([0, 1, l - 1, l, l + 1]) | st.integers(0, l + 1),
                          min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=20))
    types = draw(st.lists(st.integers(0, n - 1), min_size=sum(sizes), max_size=sum(sizes)))
    return l, start, sizes, types


@settings(max_examples=150, deadline=None)
@given(inputs=pass_inputs())
@example(inputs=(254, [255, 255, 255], [4], [0, 1, 2, 0]))
@example(inputs=(255, [254, 0], [0, 3, 0], [0, 0, 0]))
def test_sorted_pass_matches_draw_by_draw_steps(inputs):
    # l = 1 and 254 keep one-byte counts, l = 255 two-byte ones.  Types start
    # anywhere in 0..l + 1, often at the edge: saturated at l + 1, or a few
    # draws short of it.  Intervals may hold no draw, and k = 1 takes the
    # pass's unkeyed branch.
    l, start, sizes, types = inputs
    n = len(start)
    counts = np.array(start, dtype=np.min_scalar_type(l + 1))
    counts_of_counts = np.bincount(counts, minlength=l + 2)
    draws = np.array(types, dtype=np.int64)
    ends = np.cumsum(sizes)

    state = CouponState(n, 0, counts.astype(np.int64), counts_of_counts.copy())
    expected = []
    for begin, end in zip(np.concatenate([[0], ends[:-1]]), ends):
        for draw in draws[begin:end]:
            coupon_step(state, int(draw))
        expected.append(state.counts_of_counts.copy())

    rows = montecarlo._sorted_pass(draws, ends, counts, counts_of_counts, l)
    assert np.array_equal(rows, expected)
    assert counts.dtype == np.min_scalar_type(l + 1)
    assert np.array_equal(counts, np.minimum(state.per_type_counts, l + 1))


def test_int64_key_pass_matches_one_call_bincount():
    # 4,096 stops of 1-3 draws share one pass, whose keys hold a 12-bit
    # interval index above types below 600,000: 600,000 << 12 >= 2**31, so
    # they need int64.  A long dense interval before it gives the pass
    # counts to read, and a lone sorted pass after it reads what it wrote.
    n, l, before, after = 600_000, 10, 300_000, 20_000
    gaps = spawn(5, 1).integers(1, 4, size=4096)
    stops = np.concatenate([[before], before + np.cumsum(gaps)])
    stops = np.append(stops, stops[-1] + after)
    passes = []
    real = montecarlo._sorted_pass

    def recording(draws, ends, counts, *args):
        passes.append(counts.size << (ends.size - 1).bit_length())
        return real(draws, ends, counts, *args)

    with mock.patch.object(montecarlo, "_sorted_pass", recording):
        groups = list(_chain_states(spawn(5, 0), n, l, stops))
    assert [(i, j) for i, j, _rows in groups] == [(0, 1), (1, 4097), (4097, 4098)]
    assert [p >= 2**31 for p in passes] == [True, False]
    rows = np.concatenate([r for _i, _j, r in groups])

    # Rows from one bincount of draws made in one call, over the types
    # drawn after the first stop and the base counts of the rest.
    draws = spawn(5, 0).integers(0, n, size=stops[-1], dtype=np.int64)
    base = np.bincount(draws[:before], minlength=n)
    touched, label = np.unique(draws[before:], return_inverse=True)
    untouched = (np.bincount(np.minimum(base, l + 1), minlength=l + 2)
                 - np.bincount(np.minimum(base[touched], l + 1), minlength=l + 2))
    for stop, row in zip(stops, rows):
        per_type = base[touched] + np.bincount(label[:stop - before],
                                               minlength=touched.size)
        expected = untouched + np.bincount(np.minimum(per_type, l + 1), minlength=l + 2)
        assert np.array_equal(row, expected)


def test_saturated_counts_take_one_byte_per_type(traced_peak_mb):
    # Eight-byte counts alone would take 8 MB at this n.  max_increment
    # draws the coupon chain's first step, one value, so its peak is the
    # 1 MB of one-byte counts.
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


def test_pilot_walk_holds_no_per_type_array(traced_peak_mb):
    # The kernel's 1e6 one-byte counts and one interval's draws; a state is
    # its row of l + 2 buckets.  A 1e6-entry labelling per state would peak
    # near 3.9 MB.
    def walk(plan, count):
        for _state in _pilot_chain(plan, count):
            pass

    assert traced_peak_mb(walk, RunPlan(n=1_000_000, master_seed=1, s_max=1.0), 50) < 3


@pytest.mark.parametrize("n, limit_mb", [(100_000, 4), (1_000_000, 12)])
def test_simulate_memory_is_linear_in_n(n, limit_mb, traced_peak_mb):
    plan = RunPlan(n=n, master_seed=1, s_max=4.0)
    assert traced_peak_mb(simulate, plan, 0) < limit_mb
