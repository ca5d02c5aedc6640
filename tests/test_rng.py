"""Tests for the re-keyed per-thread stream."""

import sys
import threading

import numpy as np
import pytest

import wormald.coupon
from wormald import cover_time, derive_seed, make_generator
from wormald.rng import KeyedStream


def draws(gen):
    """A mix of every kind of draw, each reading the bit generator differently."""
    return [gen.integers(0, 1000, size=7, dtype=np.int32),
            gen.integers(0, 2**40, size=5, dtype=np.int64),
            gen.random(3),
            gen.standard_exponential(9),
            gen.geometric([0.9, 0.5, 0.2, 0.01]),
            gen.integers(0, 10, size=3, dtype=np.int32)]


def assert_same_draws(a, b):
    for x, y in zip(draws(a), draws(b), strict=True):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1, -3])
def test_keyed_stream_starts_where_a_new_generator_starts(seed):
    stream = KeyedStream()
    first = stream.keyed(7)
    # An odd number of int32 draws leaves a spare half-word (has_uint32 set)
    # and a partly used output buffer behind.
    first.integers(0, 5, size=3, dtype=np.int32)
    first.random(1)
    state = first.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] != 4
    again = stream.keyed(seed)
    assert again is first
    assert_same_draws(again, make_generator(seed))


def test_keyed_stream_builds_nothing_until_used():
    stream = KeyedStream()
    assert stream._gen is None
    seen = []
    thread = threading.Thread(target=lambda: seen.append(wormald.coupon._STREAM._gen))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert seen == [None]


def test_threads_keep_their_own_streams():
    stream = KeyedStream()
    ours = stream.keyed(11)
    ours.random(2)
    theirs = []

    def other():
        gen = stream.keyed(12)
        theirs.append((gen, gen.random(4)))

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    gen, values = theirs[0]
    assert gen is not ours
    np.testing.assert_array_equal(values, make_generator(12).random(4))
    np.testing.assert_array_equal(ours.random(3), make_generator(11).random(5)[2:])


def test_interleaved_threads_sample_the_sequential_cover_times():
    calls = [(n, derive_seed(n, i)) for i in range(60) for n in (2, 3, 50, 1000)]
    expected = [cover_time(n, seed) for n, seed in calls]
    workers = 4  # more threads than the cores of a small CI runner
    turn = threading.Barrier(workers, timeout=60)
    results = [[] for _ in range(workers)]

    def worker(slot):
        for n, seed in calls:
            turn.wait()
            results[slot].append(cover_time(n, seed))

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside calls, not only between them
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * workers
