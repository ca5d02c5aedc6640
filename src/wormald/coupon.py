"""The coupon-collecting process and its oracles.

Each step draws one of ``n`` coupon types uniformly.  Coordinate ``i`` of the
tracked state counts the types holding exactly ``i`` copies, for ``i`` up to
a truncation level ``l``; an extra overflow coordinate counts types with more
than ``l`` copies, which closes the system so the coordinates always sum to
``n``.  The scaled process converges to the ODE system

    dz_0/ds = -z_0,   dz_i/ds = z_{i-1} - z_i  (1 <= i <= l),
    dz_{l+1}/ds = z_l,

whose solution from z_0(0)=1 is the Poisson profile z_i(s) = s^i e^-s / i!
(:func:`closed_form`), the overflow coordinate being the matching Poisson
tail.  :func:`coupon_reference` integrates the system from that start on
the grid the simulator shares.  :func:`cover_time` samples the cover time,
and :func:`exact_cover_tail` gives its exact distribution by
inclusion-exclusion, independent of any simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import CapExceededError, ContractError
from .ode import DEFAULT_GRID_STRIDE, DEFAULT_H, integrate
from .process import DomainBox, ProcessSpec, Trajectory
from .rng import KeyedStream, make_generator

#: Largest cover time :func:`cover_time` returns; a larger sample raises.
COVER_TIME_CAP = 10**9

#: Log of a tail bound below which the tail rounds to 0.0 (2**-1075 is about
#: exp(-745.13)).
_ZERO_TAIL_LOG = -746.0

#: Log of a bound on P(cover time <= k) below which the tail rounds to 1.0.
_ONE_TAIL_LOG = -40.0

#: Bound on the unsummed terms, relative to the sum, where summation stops.
_TAIL_STOP = Decimal("1e-40")

#: numpy's ``geometric`` draws p >= this by search, smaller p by inversion
#: (the double nearest 1/3, as numpy's C literal rounds).
_SEARCH_MIN_P = 0.333333333333333333333333

#: Partial sums cached per search wait (W).  A wait passes all of them with
#: probability q^W <= (2/3)^W.
_SEARCH_COLUMNS = 6

#: Below this many waits beyond the cached sums, continue them one by one.
_SCALAR_WAITS = 16

#: Per-thread stream that :func:`cover_time` re-keys for each seed.
_STREAM = KeyedStream()


def coupon_drift(l: int):
    """Drift function of the truncated coupon process with overflow coordinate.

    Coordinates are indexed 0..l+1.  Mass flows down the chain: coordinate 0
    only loses (a type with 0 copies can only gain its first copy), interior
    coordinates gain from the left neighbor and lose to the right, and the
    overflow coordinate only gains.  The entries sum to zero identically.
    """
    if l < 1:
        raise ContractError(f"truncation level must be >= 1, got {l}")

    def drift(s: float, z: np.ndarray) -> np.ndarray:
        out = np.empty(z.shape)
        out[0] = -z[0]
        out[1 : l + 1] = z[0:l] - z[1 : l + 1]
        out[l + 1] = z[l]
        return out

    return drift


def make_coupon_spec(l: int = 10, s_max: float = 4.0) -> ProcessSpec:
    """ProcessSpec for the coupon process truncated at level ``l``.

    One step moves a single type between adjacent buckets, so each
    coordinate changes by at most 1 (increment bound 1) and counts never
    exceed n (magnitude bound 1).  The domain is the open box
    s in (-0.1, s_max + 0.1), each z_l in (-0.1, 1.1), on which the drift
    is 1-Lipschitz in the L1 metric.  The drift is linear, and the spec
    declares its matrix ``A`` (``drift(s, z) == A @ z``): -1 on the diagonal
    of rows 0..l, +1 on the subdiagonal, and a zero last column.
    """
    if l < 1:
        raise ContractError(f"truncation level must be >= 1, got {l}")
    if not 0 < s_max < math.inf:
        raise ContractError(f"s_max must be positive and finite, got {s_max}")
    a = l + 2
    levels = np.arange(l + 1)
    linear = np.zeros((a, a))
    linear[levels, levels] = -1.0
    linear[levels + 1, levels] = 1.0
    domain = DomainBox(
        s_low=-0.1,
        s_high=s_max + 0.1,
        z_low=np.full(a, -0.1),
        z_high=np.full(a, 1.1),
    )
    return ProcessSpec(
        coord_count=a,
        drift=coupon_drift(l),
        increment_bound=1.0,
        magnitude_bound=1.0,
        domain=domain,
        lipschitz_hint=1.0,
        linear=linear,
    )


def coupon_reference(l: int = 10, s_max: float = 4.0, h: float = DEFAULT_H,
                     grid_stride: int = DEFAULT_GRID_STRIDE) -> Trajectory:
    """The coupon ODE solution from z_0(0) = 1, integrated to ``s_max``.

    This is the reference every simulated coupon run is compared with; its
    grid is :func:`wormald.ode.grid_times` ``(h, grid_stride, s_max)``, the
    one :func:`wormald.montecarlo.simulate` samples on.
    """
    spec = make_coupon_spec(l, s_max)
    z0 = np.zeros(spec.coord_count)
    z0[0] = 1.0
    return integrate(spec, z0, s_max, h, grid_stride)


def closed_form(s: float, i: int) -> float:
    """Poisson profile s^i e^-s / i!, the exact ODE solution for coordinate i.

    Evaluated in the log domain so large ``i`` neither overflows nor
    underflows prematurely.
    """
    if s < 0:
        raise ContractError(f"s must be non-negative, got {s}")
    if i < 0:
        raise ContractError(f"coordinate index must be non-negative, got {i}")
    if s == 0.0:
        return 1.0 if i == 0 else 0.0
    if i == 0:
        return math.exp(-s)
    return math.exp(i * math.log(s) - s - math.lgamma(i + 1))


def closed_form_system(s: float, l: int) -> np.ndarray:
    """Exact solution vector of the truncated system, overflow included.

    Entries 0..l are :func:`closed_form`; the overflow entry is the Poisson
    tail 1 - sum of the others, so the vector sums to exactly one.
    """
    if l < 1:
        raise ContractError(f"truncation level must be >= 1, got {l}")
    head = [closed_form(s, i) for i in range(l + 1)]
    return np.array(head + [1.0 - math.fsum(head)])


@dataclass
class CouponState:
    """Mutable state of one coupon-collecting run.

    ``per_type_counts`` holds the copies of each of the ``n`` types;
    ``counts_of_counts[i]`` is the number of types with exactly ``i`` copies
    for ``i <= l``, with index ``l+1`` counting types past the truncation
    level.  ``cover_time`` is set the first time no type is missing.  A
    state belongs to one execution context at a time; :func:`coupon_step`
    updates it in place.
    """

    n: int
    t: int
    per_type_counts: np.ndarray
    counts_of_counts: np.ndarray
    cover_time: Optional[int] = None

    @classmethod
    def fresh(cls, n: int, l: int = 10) -> "CouponState":
        if n < 1:
            raise ContractError(f"n must be positive, got {n}")
        if l < 1:
            raise ContractError(f"truncation level must be >= 1, got {l}")
        counts_of_counts = np.zeros(l + 2, dtype=np.int64)
        counts_of_counts[0] = n
        return cls(
            n=n,
            t=0,
            per_type_counts=np.zeros(n, dtype=np.int64),
            counts_of_counts=counts_of_counts,
        )

    @property
    def truncation(self) -> int:
        return self.counts_of_counts.shape[0] - 2

    def describe(self) -> str:
        return (f"n={self.n} t={self.t} "
                f"counts_of_counts={tuple(int(c) for c in self.counts_of_counts)}")


def coupon_step(state: CouponState, draw: int) -> CouponState:
    """Apply one draw to ``state`` in place (constant time) and return it.

    Moves the drawn type from bucket min(copies, l+1) to
    min(copies + 1, l+1), advances ``t``, and records the cover time when
    the zero-copy bucket first empties.
    """
    if not 0 <= draw < state.n:
        raise ContractError(f"draw {draw} out of range [0, {state.n})")
    l_over = state.counts_of_counts.shape[0] - 1
    copies = int(state.per_type_counts[draw])
    state.per_type_counts[draw] = copies + 1
    b_old = min(copies, l_over)
    b_new = min(copies + 1, l_over)
    if b_new != b_old:
        state.counts_of_counts[b_old] -= 1
        state.counts_of_counts[b_new] += 1
    state.t += 1
    if state.cover_time is None and state.counts_of_counts[0] == 0:
        state.cover_time = state.t
    return state


def cover_time(n: int, seed: int) -> int:
    """Steps until every type has been drawn at least once.

    Once ``k`` types are held, the wait for a new one is geometric with
    success probability p_k = (n - k)/n, independent of the past, so the
    cover time is the sum of n independent waits, T = sum_{k<n} Geom(p_k).
    The waits are drawn from a Philox stream keyed by ``seed``, so the result
    is reproducible and costs O(n) time and memory whatever T turns out to
    be.  Raises :class:`CapExceededError` when T exceeds
    :data:`COVER_TIME_CAP`.

    T is the value :func:`cover_time_reference` gets from numpy 2.4's
    ``Generator.geometric``, computed in array passes instead of one wait at
    a time.  It reads the stream only through ``random`` and
    ``standard_exponential``, so it does not depend on how other numpy
    versions draw geometric waits.  numpy 2.4 draws a wait with p >= 1/3 by
    search: one uniform U, and the wait is 1 plus the number of partial sums
    S_x = p (1 + q + ... + q^x), q = 1 - p, that U exceeds.  A wait with
    p < 1/3 is inverted from one standard exponential E as
    ceil(-E / log1p(-p)).  p falls with k, so the search waits come first,
    and the stream is read in numpy's order by one ``random`` call and one
    ``standard_exponential`` call.  The partial sums are cached per n
    (:func:`_wait_tables`) with numpy's own recurrence, so each comparison
    is the one numpy's loop makes; the rare U beyond the cached sums
    continue that recurrence (:func:`_search_beyond`).  Only where numpy's
    loop would never end does T differ: see :func:`_search_wait`.
    """
    if n < 1:
        raise ContractError(f"n must be positive, got {n}")
    sums, log_q = _wait_tables(n)
    m = sums.shape[1]
    gen = _STREAM.keyed(seed)
    u = gen.random(m)
    passed = u > sums
    total = m + int(np.count_nonzero(passed))
    beyond = passed[-1].nonzero()[0]
    if beyond.size:
        total += _search_beyond(n, beyond, u[beyond])
    if n > m:
        waits = np.ceil(-gen.standard_exponential(n - m) / log_q)
        total += int(waits.astype(np.int64).sum())
    if total > COVER_TIME_CAP:
        raise CapExceededError(f"cover time {total} exceeded {COVER_TIME_CAP} steps (n={n})")
    return total


def cover_time_reference(n: int, seed: int) -> int:
    """:func:`cover_time` by numpy's ``Generator.geometric``, one wait at a time.

    The slow path that :func:`cover_time` reproduces exactly; it has no cap.
    """
    return int(make_generator(seed).geometric((n - np.arange(n)) / n).sum())


@lru_cache(maxsize=2)
def _wait_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-n constants of :func:`cover_time`.

    ``sums`` has shape (W, m), one column per search wait, with numpy's
    partial sums S_0..S_{W-1}; ``log_q`` holds log1p(-p) for the n - m
    inverted waits.
    """
    p = (n - np.arange(n)) / n
    m = int(np.count_nonzero(p >= _SEARCH_MIN_P))
    sums = _partial_sums(p[:m])[0]
    # numpy's C code calls libm's log1p, as math.log1p does; np.log1p is a
    # SIMD routine that differs from it in the last bit for some p.
    log_q = np.fromiter(map(math.log1p, -p[m:]), dtype=np.float64, count=n - m)
    sums.flags.writeable = False
    log_q.flags.writeable = False
    return sums, log_q


def _partial_sums(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's search recurrence run for W terms: (S, last term, q).

    S_0 = term = p; then term *= q and S_x = S_{x-1} + term, each rounded
    as numpy's scalar loop rounds it.
    """
    q = 1.0 - p
    term = p.copy()
    sums = np.empty((_SEARCH_COLUMNS, p.size))
    sums[0] = term
    for x in range(1, _SEARCH_COLUMNS):
        term *= q
        np.add(sums[x - 1], term, out=sums[x])
    return sums, term, q


def _search_beyond(n: int, k: np.ndarray, u: np.ndarray) -> int:
    """Steps numpy's search takes past S_{W-1} for the waits ``k``, whose U exceed it.

    Many such waits go on in array passes from S_{W-1}, as numpy's loop
    does: term *= q, S += term, one more step while U > S (and the term is
    not 0, as in :func:`_search_wait`).  The last few
    run numpy's loop again from the start (:func:`_search_wait`), less the
    sums they have already passed.
    """
    passed = _SEARCH_COLUMNS
    extra = 0
    if u.size > _SCALAR_WAITS:
        sums, term, q = _partial_sums((n - k) / n)
        s = sums[-1]
        while u.size > _SCALAR_WAITS:
            term = term * q
            s = s + term
            keep = (u > s) & (term > 0)
            passed += 1
            k, u, s, term, q = k[keep], u[keep], s[keep], term[keep], q[keep]
            extra += u.size
    # (n - k) / n of Python ints rounds the exact quotient once, as numpy does.
    return extra + sum(_search_wait((n - ki) / n, ui) - 1 - passed
                       for ki, ui in zip(k.tolist(), u.tolist()))


def _search_wait(p: float, u: float) -> int:
    """One wait of numpy's ``random_geometric_search`` for the uniform ``u``.

    numpy's loop never ends when its partial sums stop growing below ``u``:
    at p = 2/3 they stop at 1 - 3 * 2**-53, and u = 1 - 2**-53 lies above.
    This loop also stops once the term has underflowed to 0, which changes
    no wait that numpy returns.
    """
    wait = 1
    total = term = p
    q = 1.0 - p
    while u > total and term > 0:
        term *= q
        total += term
        wait += 1
    return wait


def exact_cover_tail(n: int, k: int) -> float:
    """P(cover time > k) by inclusion-exclusion, rounded once to a double.

    A tail whose union bound n (1 - 1/n)^k is below 2**-1075 rounds to 0.0.
    The empty-bin indicators are negatively associated, so
    P(T <= k) <= (1 - (1 - 1/n)^k)^n, and where that is below e^-40 < 2**-54
    the tail rounds to 1.0 (so does every k < n once n >= 87).  Elsewhere
    mu = n (1 - 1/n)^k is at most 40 and each term C(n,j) (1 - j/n)^k is at
    most mu^j / j!, so the terms sum in absolute value to at most e^40 and
    the alternating sum, taken in one 50-digit decimal context with exact
    binomials and exact integer bases, keeps more than 30 digits before
    ``float`` rounds it.  The terms are log-concave in j; once they fall by
    a ratio q, the rest is at most term * q / (1 - q), and summation stops
    when that is below 1e-40 of the partial sum.
    """
    if n < 1:
        raise ContractError(f"n must be positive, got {n}")
    if k < 0:
        raise ContractError(f"k must be non-negative, got {k}")
    if k == 0:
        return 1.0
    if n == 1:
        return 0.0
    log_miss = k * math.log1p(-1 / n)  # log (1 - 1/n)^k
    if math.log(n) + log_miss < _ZERO_TAIL_LOG:
        return 0.0
    if n * math.log1p(-math.exp(log_miss)) < _ONE_TAIL_LOG:
        return 1.0

    # Operators and unary minus on Decimal round in the thread's 28-digit
    # context, so every step goes through ctx.
    ctx = Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)
    scale = ctx.power(Decimal(n), k)
    total = prev = Decimal(0)
    binom = 1
    for j in range(1, n):  # the j = n term vanishes for k >= 1
        binom = binom * (n - j + 1) // j
        term = ctx.divide(ctx.multiply(Decimal(binom), ctx.power(Decimal(n - j), k)), scale)
        total = ctx.add(total, term) if j % 2 else ctx.subtract(total, term)
        if term < prev:
            q = ctx.divide(term, prev)
            rest = ctx.multiply(term, q)
            if rest < ctx.multiply(ctx.multiply(_TAIL_STOP, total.copy_abs()), ctx.subtract(1, q)):
                break
        prev = term
    return float(total)
