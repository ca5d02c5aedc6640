"""Slow reference paths the tests hold the library's fast paths against.

Nothing in ``src/`` imports this module; the tests import it as
``oracles`` (``tests/`` has no ``__init__.py``, so pytest puts it on
``sys.path``).

- :class:`CouponState` and :func:`coupon_step`: the chain replayed draw by
  draw with one count per type.
- :func:`relabelled_replay`: that replay with the types relabelled
  canonically from the row every ``block`` draws, the brute-force oracle
  for the kernel.
- :func:`cover_time_reference`: ``cover_time`` one wait at a time.
- :func:`closed_form_system` and :func:`convergence_order`: the exact ODE
  solution vector and the integrator's observed order against it.
- :func:`empirical_drift_reference`: the drift check counting each draw's
  bucket by a gather through the row's canonical labelling.
- :func:`bucket_chain_law`: the exact law of the bucket row after ``k``
  draws from a given row, by the chain's forward equation on the
  compositions of ``n``.
- :func:`max_load_law`: the exact probability that no type is drawn more
  than ``l`` times in ``k`` draws, by a generating function, at sizes
  where compositions cannot be enumerated.
- :func:`cover_law`: the exact probability that every type is drawn in
  ``k`` draws by the same route, a cross-check of the library's
  inclusion-exclusion ``exact_cover_tail``.
- :func:`bucket_marginal`: the exact law of one bucket after ``k`` draws,
  the number of types drawn exactly ``j`` times, by the same route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from wormald import (
    ContractError,
    ProcessSpec,
    closed_form,
    evaluate_drift,
    integrate,
    make_generator,
)
from wormald.coupon import DEFAULT_L


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
    def fresh(cls, n: int, l: int = DEFAULT_L) -> "CouponState":
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


def relabelled_replay(draws, n: int, l: int, block: int) -> np.ndarray:
    """Bucket rows after every step 0..len(draws), relabelled every ``block`` draws.

    Applies :func:`coupon_step` draw by draw.  Before draw ``t`` whenever
    ``t`` is a multiple of ``block``, the state is rebuilt canonically from
    its row: with ``C`` the row's cumulative sum, the types ``[C[b-1],
    C[b])`` get ``b`` copies (``l + 1`` for the overflow bucket).  Written
    apart from the library's kernel: it shares no code with it.
    """
    state = CouponState.fresh(n, l)
    rows = [state.counts_of_counts.copy()]
    for t, draw in enumerate(draws):
        if t % block == 0:
            state.per_type_counts = np.repeat(np.arange(l + 2), state.counts_of_counts)
        coupon_step(state, int(draw))
        rows.append(state.counts_of_counts.copy())
    return np.array(rows)


def cover_time_reference(n: int, seed: int) -> int:
    """:func:`cover_time` one wait at a time, the slow path it is tested against.

    One ``standard_exponential`` draw and one ``math.ceil`` per wait, from a
    new generator for ``seed``.
    """
    gen = make_generator(seed)
    return 1 + sum(math.ceil(gen.standard_exponential() / -math.log1p(-(n - k) / n))
                   for k in range(1, n))


def closed_form_system(s: float, l: int) -> np.ndarray:
    """Exact solution vector of the truncated system, overflow included.

    Entries 0..l are :func:`closed_form`; the overflow entry is the Poisson
    tail 1 - sum of the others, so the vector sums to exactly one.
    """
    if l < 1:
        raise ContractError(f"truncation level must be >= 1, got {l}")
    head = [closed_form(s, i) for i in range(l + 1)]
    return np.array(head + [1.0 - math.fsum(head)])


@dataclass(frozen=True)
class OrderEstimate:
    """Observed convergence order; ``degenerate`` flags a zero fine-grid error."""

    order: float
    err_coarse: float
    err_fine: float
    degenerate: bool = False


def convergence_order(spec: ProcessSpec, z0: np.ndarray, s_max: float, h: float,
                      oracle: Callable[[float, int], float]) -> OrderEstimate:
    """Measure the integrator's order against an exact solution.

    Integrates with steps ``h`` and ``h/2`` (emitting every step), takes the
    max-over-grid, max-over-coordinate absolute error against
    ``oracle(s, l)``, and returns ``log2(err(h) / err(h/2))``.  A zero
    fine-grid error yields an infinite order with ``degenerate=True``.
    """
    errs = []
    for step in (h, h / 2.0):
        traj = integrate(spec, z0, s_max, h=step, grid_stride=1)
        exact = np.array([[oracle(float(s), l) for l in range(spec.coord_count)]
                          for s in traj.s])
        errs.append(float(np.max(np.abs(traj.z - exact))))
    err_coarse, err_fine = errs
    if err_fine == 0.0:
        return OrderEstimate(math.inf, err_coarse, err_fine, degenerate=True)
    return OrderEstimate(math.log2(err_coarse / err_fine), err_coarse, err_fine)


def empirical_drift_reference(row, t: int, sample_count: int, seed: int,
                              spec: ProcessSpec):
    """``(empirical, stderr, z_scores)`` of ``empirical_drift``, counted by a gather.

    The row's types are labelled canonically, ``labels = repeat(arange(l +
    2), row)`` (bucket ``b`` holds the types ``[C[b-1], C[b])``), and each
    bucket's draws are ``bincount(min(labels[draws], l + 1))``.  The
    statistics that follow are a transcription of the library's.
    """
    row = np.asarray(row, dtype=np.int64)
    n, l = int(row.sum()), row.size - 2
    labels = np.repeat(np.arange(l + 2), row)
    draws = make_generator(seed).integers(0, n, size=sample_count, dtype=np.int64)
    cnt = np.bincount(np.minimum(labels[draws], l + 1), minlength=l + 2).astype(float)

    dec = cnt.copy()
    dec[l + 1] = 0.0
    inc = np.zeros(l + 2)
    inc[1 : l + 2] = cnt[0 : l + 1]
    empirical = (inc - dec) / sample_count
    mean_sq = (inc + dec) / sample_count
    predicted = evaluate_drift(spec, t / n, row / n)
    var = np.maximum(mean_sq - empirical**2, 0.0) * sample_count / (sample_count - 1)
    var = np.maximum(var, np.maximum(np.abs(predicted) - predicted**2, 0.0))
    stderr = np.sqrt(var / sample_count)
    z = np.zeros(l + 2)
    live = stderr > 0
    z[live] = (empirical[live] - predicted[live]) / stderr[live]
    z[~live & (np.abs(empirical - predicted) > 1e-9)] = np.inf
    return empirical, stderr, z


def compositions(n: int, parts: int) -> np.ndarray:
    """Every row of ``n`` types in ``parts`` buckets, one per line.

    Stars and bars: each choice of ``parts - 1`` bar positions among ``n +
    parts - 1`` slots gives one row, so there are ``C(n + parts - 1, parts
    - 1)`` of them.
    """
    slots = n + parts - 1
    rows = [np.diff((-1, *bars, slots)) - 1
            for bars in itertools.combinations(range(slots), parts - 1)]
    return np.array(rows, dtype=np.int64)


def bucket_chain_law(n: int, l: int, k: int,
                     start=None) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, p)``: the exact law of the bucket row after ``k`` uniform draws.

    The bucket row is a Markov chain on the compositions of ``n`` into
    ``l + 2`` parts.  From row ``Y`` a draw moves one type from bucket ``b
    <= l`` to ``b + 1`` with probability ``Y_b / n`` and leaves the row as it
    is with probability ``Y_{l+1} / n``.  Each bucket's target index is
    built once, and the forward equation then moves the distribution one
    draw at a time, one weighted bincount per bucket, from the row
    ``start``, by default the fresh row ``(n, 0, ..., 0)``.  Written apart
    from the library's kernel: it shares no code with it and never draws.
    """
    rows = compositions(n, l + 2)
    index = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
    targets = []
    for b in range(l + 1):
        moved = rows.copy()
        moved[:, b] -= 1
        moved[:, b + 1] += 1
        # a row with Y_b = 0 has no such move; its weight below is zero
        targets.append(np.array([index.get(row, i)
                                 for i, row in enumerate(map(tuple, moved.tolist()))]))
    p = np.zeros(len(rows))
    fresh = (n,) + (0,) * (l + 1)
    p[index[fresh if start is None else tuple(map(int, start))]] = 1.0
    for _ in range(k):
        after = p * (rows[:, l + 1] / n)
        for b, target in enumerate(targets):
            after += np.bincount(target, weights=p * (rows[:, b] / n), minlength=len(rows))
        p = after
    return rows, p


def _log_power_coefficient(base: np.ndarray, n: int, k: int) -> float:
    """``log [y^k] base^n`` for a ``base`` of non-negative terms, ``-inf`` if none is there.

    The power is taken by repeated squaring with ``np.convolve``, each
    product truncated at degree ``k`` and rescaled to a largest coefficient
    of 1, its scale kept as a logarithm.  No square is taken after the last
    bit of ``n``: it would be unused, and its lowest degree may pass ``k``,
    leaving no coefficient to rescale by.  Every term is non-negative, so
    nothing cancels.  The result is ``-inf`` past the power's degree, and
    where the coefficient underflows, far below the largest one.
    """
    def times(a, b):
        product = np.convolve(a[0], b[0])[:k + 1]
        top = product.max()
        return product / top, a[1] + b[1] + math.log(top)

    power, square = (np.ones(1), 0.0), (base, 0.0)
    while True:
        if n & 1:
            power = times(power, square)
        n >>= 1
        if not n:
            break
        square = times(square, square)
    coefficients, log_scale = power
    if coefficients.size <= k or coefficients[k] == 0:
        return -math.inf
    return log_scale + math.log(coefficients[k])


def max_load_law(n: int, k: int, l: int) -> float:
    """P(no type is drawn more than ``l`` times in ``k`` uniform draws from ``n`` types).

    The draws fall on the types as a uniform word of length ``k``, so the
    probability is ``k! n^-k [x^k] (sum_{j<=l} x^j/j!)^n``.  The base is
    tilted by ``lambda = k/n`` (``x = lambda y``), which makes it the
    Poisson(lambda) pmf truncated at ``l``, up to its sum ``S``, and centres
    its ``n``-th power near degree ``k``:  the probability is ``k! k^-k S^n
    [y^k] (base / S)^n``, the coefficient by :func:`_log_power_coefficient`.
    Written apart from the library's kernel: it shares no code with it and
    never draws.
    """
    if k == 0:
        return 1.0
    lam = k / n
    j = np.arange(min(l, k) + 1)
    base = np.exp(j * math.log(lam) - np.array([math.lgamma(i + 1) for i in j]))
    total = float(base.sum())
    # k > n l leaves no coefficient: some type must be drawn l + 1 times
    return math.exp(math.lgamma(k + 1) - k * math.log(k) + n * math.log(total)
                    + _log_power_coefficient(base / total, n, k))


def cover_law(n: int, k: int) -> float:
    """P(every one of ``n`` types is drawn in ``k`` uniform draws), with no cancellation.

    The words of length ``k`` that use every type number ``k! [x^k] (e^x -
    1)^n``, so the probability is ``k! n^-k [x^k] (e^x - 1)^n``.  Each
    factor is ``x`` times the positive series ``sum_{j>=1} x^(j-1)/j!``, so
    the probability is ``k! n^-k [x^(k-n)]`` of that series' ``n``-th power.
    The tilt ``x = lambda y``, with ``lambda / (1 - e^-lambda) = k/n``,
    makes the base the pmf of one less than a zero-truncated
    Poisson(lambda) of mean ``k/n``, up to its sum ``S``, and centres its
    power near degree ``k - n``:  the probability is ``k! n^-k lambda^-(k-n)
    S^n [y^(k-n)] (base / S)^n``, the coefficient by
    :func:`_log_power_coefficient`.  The tilt is found by bisection; any
    ``lambda > 0`` gives the same value up to rounding.  Written apart from
    ``exact_cover_tail``, an alternating sum in decimal arithmetic: the two
    share no code.
    """
    if k < n:
        return 0.0
    lo, hi = 0.0, k / n
    for _ in range(100):
        lam = 0.5 * (lo + hi)
        lo, hi = (lam, hi) if lam < -(k / n) * math.expm1(-lam) else (lo, lam)
    # lambda^i / (i + 1)!, i = 0..k-n; far terms underflow to 0 and add nothing
    base = np.cumprod(np.append(1.0, lam / np.arange(2.0, k - n + 2)))
    base = base[:np.flatnonzero(base)[-1] + 1]
    total = float(base.sum())
    return math.exp(math.lgamma(k + 1) - k * math.log(n) - (k - n) * math.log(lam)
                    + n * math.log(total) + _log_power_coefficient(base / total, n, k - n))


def bucket_marginal(n: int, k: int, j: int) -> np.ndarray:
    """``p[m] = P(Y_j(k) = m)``, m = 0..n: the law of how many types are drawn exactly ``j`` times.

    The words of length ``k`` in which ``m`` chosen types appear exactly
    ``j`` times each and no other type does number ``k! (j!)^-m [x^(k -
    jm)] (e_k(x) - x^j/j!)^(n - m)``, with ``e_k`` the exponential series
    cut at degree ``k``, so ``P(Y_j = m) = C(n, m) (j!)^-m k! n^-k [x^(k -
    jm)] (e_k(x) - x^j/j!)^(n - m)``.  Every term of the base is
    non-negative.  As in :func:`max_load_law`, it is tilted by ``lambda =
    k/n`` (``x = lambda y``) and scaled by its sum ``S``, so each ``m``
    takes one power, ``lambda^-(k - jm) S^(n - m) [y^(k - jm)] (base /
    S)^(n - m)``, by :func:`_log_power_coefficient`.  ``m`` with ``jm >
    k`` has no such word, nor, for ``j = 0``, an ``n - m`` past ``k``: the
    other types need a draw each.  Written apart from the library's kernel:
    it shares no code with it and never draws.
    """
    p = np.zeros(n + 1)
    if k == 0:
        p[n if j == 0 else 0] = 1.0
        return p
    lam = k / n
    i = np.arange(k + 1)
    terms = np.exp(i * math.log(lam) - np.array([math.lgamma(a + 1) for a in i]))
    if j <= k:
        terms[j] = 0.0
    for m in range(n + 1):
        rest, degree = n - m, k - j * m
        if degree < 0 or (j == 0 and rest > degree):
            continue
        base = terms[:degree + 1]
        total = float(base.sum())
        log_p = (math.log(math.comb(n, m)) - m * math.lgamma(j + 1) + math.lgamma(k + 1)
                 - k * math.log(n) - degree * math.log(lam) + rest * math.log(total)
                 + _log_power_coefficient(base / total, rest, degree))
        p[m] = math.exp(log_p)
    return p
