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
the grid the simulator shares.  :func:`exact_cover_tail` gives the exact
distribution of the cover time by inclusion-exclusion, independent of any
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from typing import Optional

import numpy as np

from .errors import CapExceededError, ContractError
from .ode import IntegratorConfig, integrate
from .process import DomainBox, ProcessSpec, Trajectory
from .rng import make_generator

#: Largest cover time :func:`cover_time` returns; a larger sample raises.
COVER_TIME_CAP = 10**9

#: Log of a tail bound below which the tail rounds to 0.0 (2**-1075 is about
#: exp(-745.13)).
_ZERO_TAIL_LOG = -746.0

#: Log of a bound on P(cover time <= k) below which the tail rounds to 1.0.
_ONE_TAIL_LOG = -40.0

#: Bound on the unsummed terms, relative to the sum, where summation stops.
_TAIL_STOP = Decimal("1e-40")


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
    is 1-Lipschitz in the L1 metric.
    """
    if l < 1:
        raise ContractError(f"truncation level must be >= 1, got {l}")
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
        coord_count=a,
        drift=coupon_drift(l),
        increment_bound=1.0,
        magnitude_bound=1.0,
        domain=domain,
        lipschitz_hint=1.0,
    )


def coupon_reference(l: int = 10, s_max: float = 4.0, h: float = 1e-3,
                     grid_stride: int = 10) -> Trajectory:
    """The coupon ODE solution from z_0(0) = 1, integrated to ``s_max``.

    This is the reference every simulated coupon run is compared with; its
    grid is :func:`wormald.ode.grid_times` ``(h, grid_stride, s_max)``, the
    one :func:`wormald.montecarlo.simulate` samples on.
    """
    spec = make_coupon_spec(l, s_max)
    z0 = np.zeros(spec.coord_count)
    z0[0] = 1.0
    return integrate(spec, z0, s_max, IntegratorConfig(h=h, grid_stride=grid_stride))


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
    success probability (n - k)/n, independent of the past, so the cover time
    is the sum of n independent waits, T = sum_{k<n} Geom((n - k)/n).  The
    waits are drawn in one call from a Philox stream keyed by ``seed``, so
    the result is reproducible and costs O(n) time and memory whatever T
    turns out to be.  Raises :class:`CapExceededError` when T exceeds
    :data:`COVER_TIME_CAP`.
    """
    if n < 1:
        raise ContractError(f"n must be positive, got {n}")
    total = int(make_generator(seed).geometric((n - np.arange(n)) / n).sum())
    if total > COVER_TIME_CAP:
        raise CapExceededError(f"cover time {total} exceeded {COVER_TIME_CAP} steps (n={n})")
    return total


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
