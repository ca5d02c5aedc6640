"""The coupon-collecting process and its oracles.

Each step draws one of ``n`` coupon types uniformly.  Coordinate ``i`` of the
tracked state counts the types holding exactly ``i`` copies, for ``i`` up to
a truncation level ``l``; an extra overflow coordinate counts types with more
than ``l`` copies, which closes the system so the coordinates always sum to
``n``.  The scaled process converges to the ODE system

    dz_0/ds = -z_0,   dz_i/ds = z_{i-1} - z_i  (1 <= i <= l),
    dz_{l+1}/ds = z_l,

whose right-hand side is the chain's expected one-step change, the
product ``A @ z`` with ``A`` the transpose of the move rule
:func:`_bucket_steps` (:func:`make_coupon_spec` declares the drift
``linear``, and the integrator reads ``A`` off it), and whose
solution from z_0(0)=1 is the Poisson profile z_i(s) = s^i e^-s / i!
(:func:`closed_form`), the overflow coordinate being the matching Poisson
tail.  :func:`coupon_reference` integrates the system from that start on
the grid the simulator shares.  :func:`cover_time` samples the cover time,
and :func:`exact_cover_tail` gives its exact distribution by
inclusion-exclusion, independent of any simulation.
``l`` and ``s_max`` default to :data:`DEFAULT_L` and :data:`DEFAULT_S_MAX`
wherever they are taken.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from functools import lru_cache

import numpy as np

from .errors import ContractError, _size
from .ode import DEFAULT_GRID_STRIDE, DEFAULT_H, integrate
from .process import DomainBox, ProcessSpec, Trajectory
# Nothing here calls make_generator; the benchmark's tracer test requires
# this module to bind it.
from .rng import KeyedStream, make_generator  # noqa: F401

#: Default truncation level and scaled horizon of the coupon engines and the
#: CLI (``RunPlan`` and ``simulate``/``check`` leave s_max out by default).
DEFAULT_L = 10
DEFAULT_S_MAX = 4.0

#: Log of a tail bound below which the tail rounds to 0.0 (2**-1075 is about
#: exp(-745.13)).
_ZERO_TAIL_LOG = -746.0

#: Log of a bound on P(cover time <= k) below which the tail rounds to 1.0.
_ONE_TAIL_LOG = -40.0

#: Bound on the unsummed terms, relative to the sum, where summation stops.
_TAIL_STOP = Decimal("1e-40")

#: Per-thread stream that :func:`cover_time` re-keys for each seed.
_STREAM = KeyedStream()


@lru_cache(maxsize=8)
def _bucket_steps(l: int) -> np.ndarray:
    """The chain's move rule, as a read-only ``(l + 2, l + 2)`` float64 matrix.

    Row ``b`` is the change one draw from bucket ``b`` makes to the bucket
    row: the drawn type leaves bucket ``b`` for ``b + 1`` when ``b <= l``,
    and a draw from the overflow bucket ``l + 1`` changes nothing.  With
    ``moves[r, b]`` draws from bucket ``b``, ``moves @ _bucket_steps(l)`` is
    the change they make; the chain kernel and the drift check both take it
    so, and :func:`coupon_drift` is its mean.  It is float64 so that every
    consumer's product goes through BLAS as it is.  Integer counts times it
    are exact: the entries are 0 or +-1, and every partial sum is an integer
    far below 2**53, so no summation order, threading or FMA moves a bit.
    """
    steps = np.eye(l + 2, k=1) - np.eye(l + 2)
    steps[l + 1, l + 1] = 0
    steps.flags.writeable = False
    return steps


def coupon_drift(l: int):
    """Drift function of the truncated coupon process with overflow coordinate.

    Coordinates are indexed 0..l+1.  The drift is the chain's expected
    one-step change, ``sum_b z_b S[b]`` with ``S = _bucket_steps(l)`` the
    move rule: the product ``A @ z`` with ``A = S.T``, a float64 view, for
    one point ``(l+2,)`` and for a batch ``(l+2, B)`` alike.  Each entry is
    ``z_{i-1} - z_i`` (``-z_0`` and ``z_l`` at the ends) rounded once, the
    other terms being exact zeros, so the BLAS kernel does not move it.
    Mass flows down the chain, and the entries sum to zero identically.
    """
    l = _size("l", l, 1)
    matrix = _bucket_steps(l).T

    def drift(s, z: np.ndarray) -> np.ndarray:
        return matrix @ z

    return drift


def make_coupon_spec(l: int = DEFAULT_L, s_max: float = DEFAULT_S_MAX) -> ProcessSpec:
    """ProcessSpec for the coupon process truncated at level ``l``.

    One step moves a single type between adjacent buckets, so each
    coordinate changes by at most 1 (increment bound 1).  The domain is the
    open box s in (-0.1, s_max + 0.1), each z_l in (-0.1, 1.1), which bounds
    every scaled count, and on which the drift is 1-Lipschitz in the L1
    metric.  The drift is linear, and the spec declares it ``linear``.
    """
    drift = coupon_drift(l)
    if not 0 < s_max < math.inf:
        raise ContractError(f"s_max must be positive and finite, got {s_max}")
    a = l + 2
    domain = DomainBox(
        s_low=-0.1,
        s_high=s_max + 0.1,
        z_low=np.full(a, -0.1),
        z_high=np.full(a, 1.1),
    )
    return ProcessSpec(
        drift=drift,
        increment_bound=1.0,
        domain=domain,
        lipschitz_hint=1.0,
        linear=True,
    )


def coupon_reference(l: int = DEFAULT_L, s_max: float = DEFAULT_S_MAX, h: float = DEFAULT_H,
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
    i = _size("i", i, 0)
    if s == 0.0:
        return 1.0 if i == 0 else 0.0
    if i == 0:
        return math.exp(-s)
    return math.exp(i * math.log(s) - s - math.lgamma(i + 1))


#: The largest n whose n - 1 float64 waits form one numpy array.
_MOST_COVER_N = np.iinfo(np.intp).max // 8 + 1


def cover_time(n: int, seed: int) -> int:
    """Steps until every type has been drawn at least once.

    Once ``k`` types are held, the wait for a new one is geometric with
    success probability p_k = (n - k)/n, independent of the past, so the
    cover time is the sum of n independent waits.  The first wait is 1; for
    k = 1..n-1 the wait is ceil(E_k / r_k), with E_k a standard exponential
    and r_k = -log(1 - p_k) (:func:`_wait_rates`).  That is exactly
    geometric: P(ceil(E/r) > w) = P(E > r w) = e^(-r w) = (1 - p)^w for
    every integer w >= 0.  The E_k are one ``standard_exponential`` call on
    a Philox stream keyed by ``seed``, so the result is reproducible and
    costs O(n) time and memory whatever T turns out to be.  The waits are
    integers summed as doubles, which is exact while T < 2**53, far beyond
    any n whose n - 1 draws fit in memory.  An ``n`` whose n - 1 float64
    waits cannot form one numpy array raises :class:`ContractError`.
    """
    n = _size("n", n, 1)
    if n > _MOST_COVER_N:
        raise ContractError(f"n must be at most {_MOST_COVER_N}, where its n - 1 float64 "
                            f"waits form one array, got {n}")
    waits = _STREAM.keyed(seed).standard_exponential(n - 1)
    np.divide(waits, _wait_rates(n), out=waits)
    np.ceil(waits, out=waits)
    return 1 + int(waits.sum())


@lru_cache(maxsize=2)
def _wait_rates(n: int) -> np.ndarray:
    """Read-only per-n rates r_k = -log1p(-p_k), k = 1..n-1, of :func:`cover_time`.

    ``math.log1p`` is libm's, as the one-wait-at-a-time reference that
    :func:`cover_time` is tested against (in ``tests/oracles.py``) uses;
    np.log1p is a SIMD routine that differs from it in the last bit for
    some p.
    """
    minus_p = np.arange(1 - n, 0) / n
    rates = np.fromiter(map(math.log1p, minus_p), dtype=np.float64, count=n - 1)
    np.negative(rates, out=rates)
    rates.flags.writeable = False
    return rates


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
    n, k = _size("n", n, 1), _size("k", k, 0)
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
