"""The streaming coupon-chain kernel against a relabelled draw-by-draw replay.

The kernel's only state is the bucket row.  It reads the stream in blocks
of ``_GROUP_DRAWS`` draws at fixed positions and, at the start of each,
labels the types canonically from the row.  ``relabelled_replay``, which
applies ``coupon_step`` to every draw and rebuilds the state from its row
at the same block boundaries, is the brute-force oracle: ``simulate``, the
pilot walk (``_pilot_chain``) and ``max_increment`` must give its bytes
at every block size from 1 to 70.  The sorted pass is also held on its
own against ``coupon_step``, draw by draw, from canonical rows.  The law
of the rows is checked exactly: every draw sequence of a few steps at
n = 3 and 4, fed through the kernel, must give the bucket chain's law.
Beyond the replay's reach, rows at large ``n`` are checked not to depend
on the grid, and against one bincount per block of draws made in one call
(also where a pass needs int64 keys); the memory of ``simulate``,
``max_increment`` and the pilot walk must not grow with ``n``.
``max_increment`` draws one step, the coupon chain's first, which always
moves, so its own tests cover that step: the answer at plans whose horizon
is shorter than, equal to and longer than ``n``, that a run draws one
value, and that the answer is read off the kernel's first row, whatever
that row moved.
"""

import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import CouponState, bucket_chain_law, coupon_step, relabelled_replay
from wormald import RunPlan, max_increment, simulate, spawn
from wormald import montecarlo
from wormald.montecarlo import _AUX_STREAM_BASE, _chain_states, _pilot_chain

_BLOCK = montecarlo._GROUP_DRAWS


def _replay(plan, stream_index, block=_BLOCK):
    """Bucket rows after every step 0..horizon of one stream, by the relabelled replay."""
    gen = spawn(plan.master_seed, stream_index)
    draws = gen.integers(0, plan.n, size=plan.resolved_horizon(), dtype=np.int64)
    return relabelled_replay(draws, plan.n, plan.truncation, block)


def _blockwise_rows(draws, n, l, block, stops):
    """Rows after each stop, from one bincount per block over its canonical labelling."""
    def counted(row, block_draws):
        per_type = np.repeat(np.arange(l + 2), row) + np.bincount(block_draws, minlength=n)
        return np.bincount(np.minimum(per_type, l + 1), minlength=l + 2)

    row = np.zeros(l + 2, dtype=np.int64)
    row[0] = n
    begin, rows = 0, []
    for stop in stops:
        while stop > begin + block:
            row = counted(row, draws[begin:begin + block])
            begin += block
        rows.append(counted(row, draws[begin:stop]))
    return rows


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


@settings(max_examples=80, deadline=None)
@given(plan=plans(), group=st.integers(1, 70), data=st.data())
def test_kernel_matches_step_by_step_replay(plan, group, data):
    run = data.draw(st.integers(0, plan.run_count - 1))
    count = data.draw(st.integers(1, 12))
    with mock.patch.object(montecarlo, "_GROUP_DRAWS", group):
        traj = simulate(plan, run)
        snapshots = list(_pilot_chain(plan, count))
        increment = max_increment(plan, run)

    buckets = _replay(plan, run, group)
    t_grid = np.minimum(np.rint(traj.s * plan.n).astype(np.int64),
                        plan.resolved_horizon())
    assert np.array_equal(traj.z, buckets[t_grid] / plan.n)
    assert traj.sigma_exit is None
    assert increment == int(np.abs(np.diff(buckets, axis=0)).max())

    buckets = _replay(plan, _AUX_STREAM_BASE, group)
    m = plan.resolved_horizon()
    times = np.unique(np.linspace(0, m, count).round().astype(np.int64))
    assert [t for t, _row in snapshots] == times.tolist()
    for t, row in snapshots:
        assert row.dtype == np.int64
        assert np.array_equal(row, buckets[t])


class _Sequence:
    """A generator stand-in that hands out one fixed draw sequence in order."""

    def __init__(self, draws):
        self.draws, self.taken = draws, 0

    def integers(self, low, high, size, dtype):
        self.taken += size
        return self.draws[self.taken - size:self.taken]


@pytest.mark.parametrize("group", [1, 2, 3])
@pytest.mark.parametrize("n, t", [(3, 8), (4, 6)])
def test_kernel_law_is_the_bucket_chain_law(n, t, group):
    # Every one of the n**t equally likely draw sequences goes through the
    # kernel; the share of them that reach each row at each stop must be
    # the exact law of the bucket chain.  Blocks of 1-3 draws relabel the
    # types often, and their boundaries fall between and on the stops.
    sequences = np.array(list(itertools.product(range(n), repeat=t)), dtype=np.int64)
    stops = np.arange(t + 1)
    for l in (1, 2):
        seen = [Counter() for _ in stops]
        with mock.patch.object(montecarlo, "_GROUP_DRAWS", group):
            for draws in sequences:
                for i, _j, rows in _chain_states(_Sequence(draws), n, l, stops):
                    for stop, row in zip(stops[i:], rows):
                        seen[stop][tuple(row.tolist())] += 1
        for stop in stops:
            rows, p = bucket_chain_law(n, l, int(stop))
            law = {tuple(row): q for row, q in zip(rows.tolist(), p) if q > 0}
            assert set(seen[stop]) <= set(law)
            for row, q in law.items():
                assert abs(seen[stop][row] / len(sequences) - q) <= 1e-12


@pytest.mark.parametrize("sizes", [(12345, 54321), (1, 2, 3, 65536, 7), (65536, 65536)])
def test_bounded_philox_draws_are_prefix_stable_across_splits(sizes):
    whole = spawn(3, 0).integers(0, 77_777, size=sum(sizes), dtype=np.int64)
    gen = spawn(3, 0)
    parts = [gen.integers(0, 77_777, size=k, dtype=np.int64) for k in sizes]
    assert np.array_equal(np.concatenate(parts), whole)


def test_simulate_spanning_several_blocks_matches_one_shot_counts():
    # 4 * 30000 steps span several blocks, each drawn in its own call; the
    # reference counts every prefix with one bincount per block over draws
    # made in a single call.
    plan = RunPlan(n=30_000, master_seed=3, s_max=4.0, grid_stride=50)
    traj = simulate(plan, 0)
    draws = spawn(3, 0).integers(0, plan.n, size=plan.resolved_horizon(), dtype=np.int64)
    stops = np.rint(traj.s * plan.n).astype(np.int64)
    expected = _blockwise_rows(draws, plan.n, plan.truncation, _BLOCK, stops)
    assert np.array_equal(traj.z, np.array(expected) / plan.n)


def test_kernel_yields_once_per_stop_including_repeated_stops():
    stops = [0, 0, 4, 4, 9]
    draws = spawn(1, 0).integers(0, 5, size=stops[-1], dtype=np.int64)
    for group in (1, 4, 16, _BLOCK):
        # buckets after each stop, relabelled every `group` draws (l = 2)
        expected = relabelled_replay(draws, 5, 2, group)[stops].tolist()
        spans, seen = [], []
        with mock.patch.object(montecarlo, "_GROUP_DRAWS", group):
            for i, j, rows in _chain_states(spawn(1, 0), 5, 2, stops):
                spans.append((i, j))
                seen += [row.tolist() for row in rows]
        assert [i for i, _ in spans] == [0] + [j for _, j in spans[:-1]]
        assert spans[-1][1] == len(stops)
        assert seen == expected


@pytest.mark.parametrize("n", [30_000, 200_000])
def test_rows_do_not_depend_on_the_grid(n):
    # Blocks sit at fixed stream positions, so the stops only cut the
    # blocks' passes into intervals: runs on different grids must agree,
    # bit for bit, wherever the grids share a time.
    runs = []
    for stride in (7, 10, 20):
        traj = simulate(RunPlan(n=n, master_seed=4, grid_stride=stride), 0)
        runs.append((np.rint(traj.s * n).astype(np.int64), traj.z))
    for (t_a, z_a), (t_b, z_b) in itertools.combinations(runs, 2):
        shared, at_a, at_b = np.intersect1d(t_a, t_b, return_indices=True)
        assert shared.size >= 10
        assert z_a[at_a].tobytes() == z_b[at_b].tobytes()


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 12) | st.integers(1, 10_000),
       l=st.sampled_from([1, 2, 10, 253, 254, 255, 256]),
       group=st.sampled_from([16, 256, 1000, _BLOCK]),
       gaps=st.lists(st.integers(0, 600), min_size=1, max_size=30))
@example(n=1, l=254, group=16, gaps=[255, 1, 300])
@example(n=2, l=254, group=_BLOCK, gaps=[200] * 10)
@example(n=3, l=255, group=16, gaps=[300, 2, 2, 2, 2, 2, 700, 2, 2])
@example(n=10_000, l=254, group=256, gaps=[600, 100, 5])
def test_kernel_matches_one_call_bincount(n, l, group, gaps):
    # Stops fall before, on and across block boundaries, and at small n
    # types take hundreds of draws, into the overflow bucket even at
    # l = 256, so ranks within a block pass l + 1.
    stops = np.cumsum(gaps)
    draws = spawn(7, 0).integers(0, n, size=stops[-1], dtype=np.int64)
    rows = []
    with mock.patch.object(montecarlo, "_GROUP_DRAWS", group):
        for _i, _j, r in _chain_states(spawn(7, 0), n, l, stops):
            rows.extend(np.array(r))
    assert len(rows) == stops.size
    for row, expected in zip(rows, _blockwise_rows(draws, n, l, group, stops)):
        assert np.array_equal(row, expected)


@st.composite
def pass_inputs(draw):
    """``(l, start, sizes, types)``: per-type counts before, interval sizes and draws."""
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
    # The pass reads a row and labels its types canonically; the replay
    # starts from that labelling.  Types start anywhere in 0..l + 1, often
    # at the edge: saturated at l + 1, or a few draws short of it.
    # Intervals may hold no draw, and k = 1 takes the pass's unkeyed branch.
    l, start, sizes, types = inputs
    n = len(start)
    row = np.bincount(start, minlength=l + 2)
    draws = np.array(types, dtype=np.int64)
    ends = np.cumsum(sizes)

    state = CouponState(n, 0, np.repeat(np.arange(l + 2), row), row.copy())
    expected = []
    for begin, end in zip(np.concatenate([[0], ends[:-1]]), ends):
        for draw in draws[begin:end]:
            coupon_step(state, int(draw))
        expected.append(state.counts_of_counts.copy())

    rows = montecarlo._sorted_pass(draws, ends, row, l)
    assert np.array_equal(rows, expected)
    assert np.array_equal(row, np.bincount(start, minlength=l + 2))


def test_int64_key_pass_matches_one_call_bincount():
    # 4,096 stops of 1-3 draws share the second block's pass, whose keys
    # hold a 13-bit interval index above types below 600,000: 600,000 << 13
    # >= 2**31, so they need int64.  The blocks before and after it take
    # int32 keys.  Rows are held against the relabelled replay of the same
    # draws, made in one call.
    n, l, block = 600_000, 10, _BLOCK
    gaps = spawn(5, 1).integers(1, 4, size=4096)
    stops = np.concatenate([[block + 100], block + 100 + np.cumsum(gaps)])
    stops = np.append(stops, 3 * block + 5)
    passes = []
    real = montecarlo._sorted_pass

    def recording(draws, ends, row, l):
        passes.append(n << (ends.size - 1).bit_length())
        return real(draws, ends, row, l)

    with mock.patch.object(montecarlo, "_sorted_pass", recording):
        groups = list(_chain_states(spawn(5, 0), n, l, stops))
    assert [(i, j) for i, j, _rows in groups] == [(0, 4097), (4097, 4098)]
    assert [p >= 2**31 for p in passes] == [False, True, False, False]
    rows = np.concatenate([r for _i, _j, r in groups])

    draws = spawn(5, 0).integers(0, n, size=stops[-1], dtype=np.int64)
    assert np.array_equal(rows, relabelled_replay(draws, n, l, block)[stops])


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
    # steps at n = 2000, one block, so one sorted pass cut at every state.
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
    # One block's draws and its pass's temporaries, 0.55 MB (1.3 MB as the
    # first call in a process); a state is its row of l + 2 buckets.  A
    # 1e6-entry labelling per state would peak near 3.9 MB.
    def walk(plan, count):
        for _state in _pilot_chain(plan, count):
            pass

    assert traced_peak_mb(walk, RunPlan(n=1_000_000, master_seed=1, s_max=1.0), 50) < 2


@pytest.mark.parametrize("n", [1_000_000, 10_000_000])
def test_simulate_memory_does_not_grow_with_n(n, traced_peak_mb):
    # The chain holds its bucket row and one block's draws and temporaries,
    # 0.56 MB at either n (1.3 MB as the first call in a process); one byte
    # per type alone would take 10 MB at n = 1e7.
    plan = RunPlan(n=n, master_seed=1, s_max=1.0)
    assert traced_peak_mb(simulate, plan, 0) < 2
    assert traced_peak_mb(max_increment, plan, 0) < 2
