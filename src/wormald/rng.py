"""Deterministic random streams.

All randomness in the package flows through counter-based Philox generators
keyed by 64-bit seeds.  Independent streams (per run, per trial) derive their
keys from a master seed with a splitmix64-style mixing function:

    seed_i = mix64(master XOR ((i + 1) * 0x9E3779B97F4A7C15 mod 2^64))

``mix64`` is the splitmix64 finalizer.  Both the multiply-by-odd-constant
steps and the xor-shift steps are bijections on 64-bit words, so distinct
indices always yield distinct derived seeds for a fixed master seed.  The
scheme is fixed: identical (master, index) pairs give identical streams on
every platform.

A seed's stream comes in two forms with the same draws.
:func:`make_generator` builds a new generator, which the caller owns for as
long as it likes; the chain kernel needs that, since it yields between
draws.  Building one costs about seven times as much as re-keying one
(15 us against 2 us on a 2-core x86-64 VM), more than a short stream spends
drawing.  So :class:`KeyedStream` re-keys one generator per thread instead,
for callers that take all of a seed's draws inside one call
(``cover_time``).
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import _size

_MASK64 = (1 << 64) - 1

#: Odd constant used by the splitmix64 sequence (2^64 / golden ratio).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: a fixed bijective mixing of a 64-bit word."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _key(seed: int, name: str = "seed") -> int:
    """``seed`` reduced mod 2^64, once :func:`wormald.errors._size` takes it
    as an integer; anything else raises :class:`ContractError` naming ``name``."""
    return _size(name, seed, None) & _MASK64


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the seed for independent stream ``index`` from ``master_seed``.

    Bijective in ``index`` for fixed master seed, so distinct indices never
    collide.  Negative master seeds are reduced mod 2^64, as :func:`_key`
    reduces every seed.  A negative ``index`` raises :class:`ContractError`.
    """
    index = _size("index", index, 0)
    return mix64(_key(master_seed, "master_seed") ^ (index + 1) * GOLDEN_GAMMA)


def make_generator(seed: int) -> np.random.Generator:
    """A Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=_key(seed)))


def spawn(master_seed: int, index: int) -> np.random.Generator:
    """Generator for independent stream ``index`` under ``master_seed``."""
    return make_generator(derive_seed(master_seed, index))


class KeyedStream(threading.local):
    """One Philox generator per thread, re-keyed in place for each seed.

    ``keyed(seed)`` returns this thread's generator in the state
    ``make_generator(seed)`` starts in, so the draws are the same: the
    starting state of a fresh ``make_generator(0)``, read once, with the
    first word of its key set to ``seed``.  It is the same object on every
    call, so a caller must take all its draws before the next ``keyed``
    call in its thread.  Nothing is built until a thread first calls
    ``keyed``.
    """

    _gen: np.random.Generator | None = None

    def keyed(self, seed: int) -> np.random.Generator:
        key = _key(seed)
        if self._gen is None:
            self._gen = make_generator(0)
            self._state = self._gen.bit_generator.state
            self._key = self._state["state"]["key"]
        self._key[0] = key
        self._gen.bit_generator.state = self._state
        return self._gen
