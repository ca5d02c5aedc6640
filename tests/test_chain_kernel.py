"""The streaming coupon-chain kernel against a relabelled draw-by-draw replay.

The kernel's only state is the bucket row.  It reads the stream in blocks
of ``_GROUP_DRAWS`` draws at fixed positions and, at the start of each,
labels the types canonically from the row.  ``relabelled_replay``, which
applies ``coupon_step`` to every draw and rebuilds the state from its row
at the same block boundaries, is the brute-force oracle: ``simulate``, the
pilot walk (``_pilot_chain``) and ``max_increment`` must give its bytes
at every block size from 1 to 70.  The sorted pass is also held on its
own against ``coupon_step``, draw by draw, from canonical rows, and the
move rule ``_bucket_steps`` against ``coupon_step`` one draw per bucket; a
doubled rule must double every change ``simulate`` makes.  The law
of the rows is checked exactly where it is decided, in the pass: from
every row at n = 3 and 4 (l = 1 and 2), every sequence of four draws,
cut into one interval, into one per draw, into an empty interval and a
repeated stop, and unevenly, must give at each interval's end the bucket
chain's law from that row.  One case across blocks, every six-draw
sequence at n = 4 in blocks of three, holds what only the kernel carries
from block to block, the row and the stops, to the same law.
At n = 1,000, where compositions cannot be enumerated, the largest
number of draws any type got in 4,000 draws, across seven relabellings,
is held to its exact law (``max_load_law``, itself held to exact
fractions and to the bucket chain's law).  At n = 200, buckets 0, 1 and 4
after 800 draws, across twelve relabellings, are held by chi-square to
their exact marginals (``bucket_marginal``, held to the bucket chain's law).  Beyond the replay's reach,
rows at large ``n`` are checked not to depend
on the grid, and against one bincount per block of draws made in one call
(also where a pass needs int64 keys); the memory of ``simulate``,
``max_increment`` and the pilot walk must not grow with ``n``.  The kernel
draws int32 blocks for ``n <= 2**31``; that numpy gives them the values of
int64 draws, split calls included, is pinned on numpy 2.4.
``max_increment`` draws one step, the coupon chain's first, which always
moves, so its own tests cover that step: the answer at plans whose horizon
is shorter than, equal to and longer than ``n``, that a run draws one
value, and that the answer is read off the kernel's rows at steps 0 and
1, whatever the step moved.
"""

import itertools
import math
import os
import platform
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (CouponState, bucket_chain_law, bucket_marginal, compositions,
                     coupon_step, max_load_law, relabelled_replay)
from wormald import ContractError, RunPlan, make_generator, max_increment, simulate, spawn
from wormald import montecarlo
from wormald.montecarlo import _AUX_STREAM_BASE, _chain_states, _pilot_chain

_BLOCK = montecarlo._GROUP_DRAWS


def _replay(plan, stream_index, block=_BLOCK):
    """Bucket rows after every step 0..horizon of one stream, by the relabelled replay."""
    gen = spawn(plan.seed, stream_index)
    draws = gen.integers(0, plan.n, size=plan.resolved_horizon(), dtype=np.int64)
    return relabelled_replay(draws, plan.n, plan.l, block)


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
        runs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**64 - 1)),
        # l = 254 applies a 256-bucket move rule through the BLAS product.
        l=draw(st.integers(1, 6) | st.just(254)),
        h=draw(st.sampled_from([0.01, 0.05, 0.1])),
        grid_stride=draw(st.integers(1, 20)),
        s_max=draw(st.none() | st.floats(0.01, min(400, 8 * n) / n)),
    )


@settings(max_examples=80, deadline=None)
@given(plan=plans(), group=st.integers(1, 70), data=st.data())
def test_kernel_matches_step_by_step_replay(plan, group, data):
    run = data.draw(st.integers(0, plan.runs - 1))
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


def _assert_law(seen, total, law_rows, p):
    """Check that the shares ``seen[row] / total`` are the law ``(law_rows, p)``."""
    law = {tuple(row): q for row, q in zip(law_rows.tolist(), p) if q > 0}
    assert set(seen) <= set(law)
    for row, q in law.items():
        assert abs(seen[row] / total - q) <= 1e-12


@pytest.mark.parametrize("ends", [[4], [1, 2, 3, 4], [0, 2, 2, 4], [1, 4]],
                         ids=["one-interval", "every-draw-a-stop",
                              "empty-then-repeated-stops", "uneven"])
@pytest.mark.parametrize("n, l", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_sorted_pass_law_is_the_bucket_chain_law(n, l, ends):
    # The pass is a pure function of its draws, ends and row.  From every
    # row, each of the n**4 equally likely draw sequences goes through one
    # pass; the share of them that reach each row at each interval's end
    # must be the exact law of the bucket chain started from that row.
    sequences = np.array(list(itertools.product(range(n), repeat=4)), dtype=np.int64)
    ends = np.array(ends)
    for start in compositions(n, l + 2):
        seen = [Counter() for _ in ends]
        for draws in sequences:
            for at, row in zip(seen, montecarlo._sorted_pass(draws, ends, start).tolist()):
                at[tuple(row)] += 1
        for at, end in zip(seen, ends):
            _assert_law(at, len(sequences), *bucket_chain_law(n, l, int(end), start))


@pytest.mark.parametrize("group", [3])
@pytest.mark.parametrize("n, t", [(4, 6)])
def test_kernel_law_is_the_bucket_chain_law(n, t, group):
    # What only a run across blocks shows: the row each block is labelled
    # from, and the stop bookkeeping.  Every one of the n**t equally likely
    # draw sequences goes through the kernel in blocks of `group` draws;
    # the share of them that reach each row at each stop must be the exact
    # law of the bucket chain.
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
            _assert_law(seen[stop], len(sequences), *bucket_chain_law(n, l, int(stop)))


def _max_load_fraction(n, k, l):
    """``k! n^-k [x^k] (sum_{j<=l} x^j/j!)^n`` in exact rational arithmetic."""
    poly = [Fraction(1)]
    for _ in range(n):
        grown = [Fraction(0)] * min(len(poly) + l, k + 1)
        for i, a in enumerate(poly):
            for j in range(min(l, len(grown) - 1 - i) + 1):
                grown[i + j] += a / math.factorial(j)
        poly = grown
    return poly[k] * math.factorial(k) / Fraction(n) ** k if k < len(poly) else Fraction(0)


@pytest.mark.parametrize("n, k, l", [(6, 9, 2), (8, 7, 1), (5, 3, 1), (10, 30, 4)])
def test_max_load_law_is_exact(n, k, l):
    assert max_load_law(n, k, l) == pytest.approx(float(_max_load_fraction(n, k, l)), rel=1e-13)


@pytest.mark.parametrize("n, l, k", [(5, 2, 7), (6, 1, 4), (4, 3, 10), (6, 2, 9), (3, 1, 7)])
def test_max_load_law_is_the_bucket_chain_laws_empty_overflow(n, l, k):
    # No type drawn more than l times is the row's overflow bucket empty.
    rows, p = bucket_chain_law(n, l, k)
    assert max_load_law(n, k, l) == pytest.approx(p[rows[:, l + 1] == 0].sum(),
                                                  rel=1e-12, abs=1e-15)


def test_kernel_max_load_is_the_exact_law_across_relabelling():
    # At l = 254 no type of n = 1,000 reaches the overflow in 4,000 draws,
    # so a row's highest nonempty bucket is the most draws any type got.
    # Blocks of 512 draws relabel the types seven times in a run, and a
    # draw's move within a block needs its rank among its type's draws
    # there, so the maximum load tests both.  For each l its share of
    # 1,000 runs (seeds fixed in advance) must lie within 4 SE of the law,
    # which reads 0.000201 / 0.0558 / 0.400 / 0.762 / 0.927 / 0.981.
    n, k, runs = 1000, 4000, 1000
    with mock.patch.object(montecarlo, "_GROUP_DRAWS", 512):
        loads = np.array([np.flatnonzero(rows[0]).max()
                          for seed in range(30_000, 30_000 + runs)
                          for _, _, rows in _chain_states(make_generator(seed), n, 254, [k])])
    for l in range(9, 15):
        p = max_load_law(n, k, l)
        assert abs(np.mean(loads <= l) - p) <= 4 * math.sqrt(p * (1 - p) / runs), l


@pytest.mark.parametrize("n, k, l", [(6, 9, 4), (10, 12, 4), (8, 20, 5)])
def test_bucket_marginal_is_the_bucket_chain_laws_marginal(n, k, l):
    rows, p = bucket_chain_law(n, l, k)
    for j in range(l + 1):
        law = bucket_marginal(n, k, j)
        assert np.abs(law - np.bincount(rows[:, j], weights=p, minlength=n + 1)).max() <= 1e-13
        assert law.sum() == pytest.approx(1.0, abs=1e-13)


def _chi2_sf(x, df):
    """P(chi-square with ``df`` degrees of freedom >= x), in closed form."""
    half = x / 2
    if df % 2 == 0:
        return math.exp(-half) * math.fsum(half**i / math.factorial(i) for i in range(df // 2))
    return math.erfc(math.sqrt(half)) + math.exp(-half) * math.fsum(
        half**(i - 0.5) / math.gamma(i + 0.5) for i in range(1, (df + 1) // 2))


def test_kernel_bucket_marginals_are_the_exact_laws_across_relabelling():
    # Blocks of 64 draws relabel the types twelve times in 800 draws, and
    # about ten pairs of draws in a block fall on one type, so a bucket's
    # law tests the rank, the lookup and the relabelling.  Every row must be
    # a composition of n, and each bucket's counts over 1,000 runs (seeds
    # fixed in advance) are pooled, from m = 0 up, into cells expecting at
    # least 5 (the rest joins the last) and must pass a chi-square test at
    # level 1e-4.
    n, k, l, runs = 200, 800, 10, 1000
    with mock.patch.object(montecarlo, "_GROUP_DRAWS", 64):
        rows = np.array([rows[0] for seed in range(43_000, 43_000 + runs)
                         for _, _, rows in _chain_states(make_generator(seed), n, l, [k])])
    assert rows.min() >= 0 and (rows.sum(axis=1) == n).all()
    for j in (0, 1, 4):
        expected = runs * bucket_marginal(n, k, j)
        edges, pending = [], 0.0
        for m, e in enumerate(expected):
            pending += e
            if pending >= 5:
                edges.append(m + 1)
                pending = 0.0
        edges[-1] = n + 1
        cell = np.searchsorted(edges, np.arange(n + 1), side="right")
        seen = np.bincount(cell, weights=np.bincount(rows[:, j], minlength=n + 1))
        want = np.bincount(cell, weights=expected)
        stat = float(((seen - want) ** 2 / want).sum())
        assert _chi2_sf(stat, len(edges) - 1) >= 1e-4, (j, stat, len(edges) - 1)


@pytest.mark.parametrize("sizes", [(12345, 54321), (1, 2, 3, 65536, 7), (65536, 65536)])
def test_bounded_philox_draws_are_prefix_stable_across_splits(sizes):
    whole = spawn(3, 0).integers(0, 77_777, size=sum(sizes), dtype=np.int64)
    gen = spawn(3, 0)
    parts = [gen.integers(0, 77_777, size=k, dtype=np.int64) for k in sizes]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.skipif(not np.__version__.startswith("2.4."),
                    reason="int32 and int64 bounded draws are pinned equal on numpy 2.4 only; "
                           "numpy does not promise it across versions")
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       n=st.integers(1, 2**31) | st.sampled_from([1, 2, 3, 2**16, 2**31 - 1, 2**31]),
       sizes=st.lists(st.integers(0, 2 * _BLOCK), min_size=1, max_size=4))
def test_int32_bounded_draws_are_the_int64_draws(seed, n, sizes):
    # The kernel draws its blocks as int32 for n <= 2**31, and its rows are
    # those of int64 draws only because numpy gives the same values, however
    # the stream is split into calls.
    whole = make_generator(seed).integers(0, n, size=sum(sizes), dtype=np.int64)
    gen = make_generator(seed)
    parts = [gen.integers(0, n, size=k, dtype=np.int32) for k in sizes]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("n, dtype", [(2**31, np.int32), (2**31 + 1, np.int64)])
def test_kernel_draws_int32_blocks_up_to_2_31(n, dtype):
    drawn = []

    class Recording:
        def __init__(self, gen):
            self.gen = gen

        def integers(self, low, high, size, dtype):
            drawn.append(dtype)
            return self.gen.integers(low, high, size=size, dtype=dtype)

    [(_i, _j, rows)] = _chain_states(Recording(make_generator(1)), n, 2, [0, 1])
    assert drawn == [dtype]
    assert np.array_equal(rows, [[n, 0, 0, 0], [n - 1, 1, 0, 0]])


def test_simulate_spanning_several_blocks_matches_one_shot_counts():
    # 4 * 30000 steps span several blocks, each drawn in its own call; the
    # reference counts every prefix with one bincount per block over draws
    # made in a single call.
    plan = RunPlan(n=30_000, seed=3, s_max=4.0, grid_stride=50)
    traj = simulate(plan, 0)
    draws = spawn(3, 0).integers(0, plan.n, size=plan.resolved_horizon(), dtype=np.int64)
    stops = np.rint(traj.s * plan.n).astype(np.int64)
    expected = _blockwise_rows(draws, plan.n, plan.l, _BLOCK, stops)
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
        traj = simulate(RunPlan(n=n, seed=4, grid_stride=stride), 0)
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
    # Intervals may hold no draw, and one interval packs no index bits.
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

    rows = montecarlo._sorted_pass(draws, ends, row)
    assert np.array_equal(rows, expected)
    assert np.array_equal(row, np.bincount(start, minlength=l + 2))


@pytest.mark.parametrize("l", [1, 2, 10, 254, 255])
def test_bucket_steps_is_the_draw_by_draw_rule(l):
    # One type per bucket: type b holds b copies (the overflow type l + 1),
    # so drawing type b is one draw from bucket b.  The rule is float64, so
    # its products go through BLAS, and its entries are integers, so counts
    # times it are exact.
    steps = montecarlo._bucket_steps(l)
    assert steps.shape == (l + 2, l + 2) and steps.dtype == np.float64
    assert np.array_equal(steps, np.rint(steps))
    row = np.ones(l + 2, dtype=np.int64)
    for b in range(l + 2):
        state = CouponState(l + 2, 0, np.arange(l + 2), row.copy())
        coupon_step(state, b)
        assert np.array_equal(steps[b], state.counts_of_counts - row)


def _openblas_picks_its_kernel_at_run_time() -> bool:
    """Whether numpy's BLAS is OpenBLAS built with ``DYNAMIC_ARCH``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 reports no build dictionary
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Sandybridge names an x86-64 kernel")
@pytest.mark.skipif(not _openblas_picks_its_kernel_at_run_time(),
                    reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH, "
                           "so OPENBLAS_CORETYPE selects no kernel")
def test_large_l_rows_do_not_depend_on_the_blas_kernel(tmp_path):
    # At l = 254 each block's move rule is one BLAS product of up to 401
    # intervals by 256 buckets.  Its terms are integers far below 2**53, so
    # the kernel OpenBLAS picks for this CPU and Sandybridge's (no FMA),
    # set in one child's environment only, must write the same bytes.
    # check also takes its predicted drift through the coupon drift's BLAS
    # product, each entry of which has two nonzero terms and so is rounded
    # once under any kernel.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    for args, files in (
        (["simulate", "--n", "2000", "--l", "254", "--runs", "2", "--s-max", "4"],
         ["manifest.json", "trajectory_000.csv", "trajectory_001.csv"]),
        (["check", "--n", "1000", "--l", "254", "--s-max", "4", "--state-samples", "10"],
         ["check.json", "manifest.json"]),
    ):
        outputs = []
        for name, extra in (("picked", {}), ("sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"})):
            out = tmp_path / args[0] / name
            run = subprocess.run([sys.executable, "-m", "wormald.cli", *args, "--out", str(out)],
                                 env={**env, **extra}, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert sorted(outputs[0]) == files
        assert outputs[0] == outputs[1]


def test_bucket_steps_is_read_only():
    # The matrix is cached and shared by every caller; none may change it.
    steps = montecarlo._bucket_steps(10)
    assert montecarlo._bucket_steps(10) is steps
    with pytest.raises(ValueError, match="read-only"):
        steps[0, 0] = 0


def test_simulate_moves_by_the_bucket_steps_rule():
    # The kernel reads where a draw goes from _bucket_steps alone.  The
    # 1,000 steps of this plan fit one block, whose source buckets are read
    # off the fresh row, so a doubled rule doubles every row's change.
    plan = RunPlan(n=1000, seed=5, s_max=1.0)
    fresh = np.zeros(plan.l + 2, dtype=np.int64)
    fresh[0] = plan.n

    def changes():
        return np.rint(simulate(plan, 0).z * plan.n).astype(np.int64) - fresh

    true = changes()
    real = montecarlo._bucket_steps
    with mock.patch.object(montecarlo, "_bucket_steps", lambda l: 2 * real(l)):
        doubled = changes()
    assert np.abs(true).max() > 0
    assert np.array_equal(doubled, 2 * true)


@pytest.mark.parametrize("n, last, refused", [
    (2**61, 5 + 2**60, True), (2**58, 5 + 2**57, True), (2**58 - 1, 5 + 2**57, False),
], ids=["n=2**61", "n=2**58", "n=2**58-1"])
def test_sorted_pass_refuses_keys_past_int64(n, last, refused):
    # 17 one-draw intervals take b = 5 bits of interval index, so a key holds
    # types below 2**58 only.  At n = 2**61 the types 5 and 5 + 2**60 would
    # pack to one type, and the row move by [-16, 15, 1, 0], not by the
    # [-17, 17, 0, 0] of 17 distinct types.
    row = np.array([n, 0, 0, 0], dtype=np.int64)
    draws = np.array([*range(16), last], dtype=np.int64)
    ends = np.arange(1, 18)
    if refused:
        with pytest.raises(ContractError, match=rf"^n << 5 must be < 2\*\*63 .* got n = {n}$"):
            montecarlo._sorted_pass(draws, ends, row)
    else:
        assert np.array_equal(montecarlo._sorted_pass(draws, ends, row)[-1] - row,
                              [-17, 17, 0, 0])


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

    def recording(draws, ends, row):
        passes.append(n << (ends.size - 1).bit_length())
        return real(draws, ends, row)

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
    plan = RunPlan(n=n, seed=11, s_max=s_max)
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
        assert max_increment(RunPlan(n=100_000, seed=3), 0) == 1
    assert drawn == [1]


@pytest.mark.parametrize("moved", [0, 2])
def test_max_increment_measures_the_first_row(moved):
    # The answer is read off the kernel's rows at steps 0 and 1, not
    # assumed: a kernel whose first step moves nothing, or moves two units,
    # must show it.
    seen = []

    def kernel(gen, n, l, stops):
        seen.append(list(stops))
        rows = np.zeros((2, l + 2), dtype=np.int64)
        rows[:, 0] = n
        rows[1, 0] -= moved
        rows[1, 1] = moved
        yield 0, 2, rows

    with mock.patch.object(montecarlo, "_chain_states", kernel):
        assert max_increment(RunPlan(n=1000, seed=5), 0) == moved
    assert seen == [[0, 1]]


def test_golden_check_pilot_runs_through_a_sorted_pass():
    # The golden `check` case: 50 pilot states over ceil(n ln n) = 15,202
    # steps at n = 2000, one block, so one sorted pass cut at every state.
    passes = []
    real = montecarlo._sorted_pass

    def counting(draws, ends, *args):
        passes.append(ends.size)
        return real(draws, ends, *args)

    with mock.patch.object(montecarlo, "_sorted_pass", counting):
        states = list(_pilot_chain(RunPlan(n=2000, runs=2, seed=5), 50))
    assert len(states) == 50
    assert passes and max(passes) > 1


def test_pilot_walk_holds_no_per_type_array(traced_peak_mb):
    # One block's draws and its pass's temporaries, 0.55 MB (1.3 MB as the
    # first call in a process); a state is its row of l + 2 buckets.  A
    # 1e6-entry labelling per state would peak near 3.9 MB.
    def walk(plan, count):
        for _state in _pilot_chain(plan, count):
            pass

    assert traced_peak_mb(walk, RunPlan(n=1_000_000, seed=1, s_max=1.0), 50) < 2


@pytest.mark.parametrize("n", [1_000_000, 10_000_000])
def test_simulate_memory_does_not_grow_with_n(n, traced_peak_mb):
    # The chain holds its bucket row and one block's draws and temporaries,
    # 0.56 MB at either n (1.3 MB as the first call in a process); one byte
    # per type alone would take 10 MB at n = 1e7.
    plan = RunPlan(n=n, seed=1, s_max=1.0)
    assert traced_peak_mb(simulate, plan, 0) < 2
    assert traced_peak_mb(max_increment, plan, 0) < 2
