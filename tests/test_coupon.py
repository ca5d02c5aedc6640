"""Tests for the coupon process, its closed-form oracle, and cover times."""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wormald.coupon
from oracles import (
    CouponState,
    bucket_chain_law,
    closed_form_system,
    coupon_step,
    cover_law,
    cover_time_reference,
)
from wormald import (
    ContractError,
    closed_form,
    coupon_drift,
    coupon_reference,
    cover_time,
    derive_seed,
    evaluate_drift,
    exact_cover_tail,
    make_coupon_spec,
)


def test_spec_shape_and_bounds():
    spec = make_coupon_spec(10, 4.0)
    assert spec.coord_count == spec.domain.coord_count == 12
    assert spec.increment_bound == 1.0
    assert spec.lipschitz_hint == 1.0
    assert spec.domain.s_low == -0.1
    assert spec.domain.s_high == 4.1
    assert np.all(spec.domain.z_low == -0.1)
    assert np.all(spec.domain.z_high == 1.1)


def test_spec_preconditions():
    with pytest.raises(ContractError):
        make_coupon_spec(0, 4.0)
    with pytest.raises(ContractError):
        make_coupon_spec(10, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ContractError):
            make_coupon_spec(10, bad)


@pytest.mark.parametrize("build", [coupon_drift, lambda l: make_coupon_spec(l, 1.0)],
                         ids=["coupon_drift", "make_coupon_spec"])
def test_truncation_level_must_be_an_integer(build):
    # 2.5 once reached np.zeros((4.5, ...)) and raised a bare TypeError.
    for bad in (2.5, 2.0):
        with pytest.raises(ContractError, match="^l must be an integer"):
            build(bad)
    assert build(np.int64(2)) is not None


def test_coupon_reference_refuses_a_fractional_grid_stride():
    with pytest.raises(ContractError, match="^grid_stride must be an integer >= 1, got 2.5$"):
        coupon_reference(10, 1.0, 1e-3, 2.5)


def test_drift_all_mass_at_truncation_flows_to_overflow():
    spec = make_coupon_spec(2, 4.0)
    out = evaluate_drift(spec, 0.0, np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(out, [0.0, 0.0, -1.0, 1.0])


def test_drift_entries_sum_to_zero():
    rng = np.random.default_rng(0)
    for l in (1, 2, 5, 10):
        spec = make_coupon_spec(l, 4.0)
        for _ in range(20):
            z = rng.uniform(0, 1, size=l + 2)
            out = evaluate_drift(spec, rng.uniform(0, 4), z)
            assert abs(math.fsum(out)) <= 1e-12


def test_closed_form_initial_conditions():
    assert closed_form(0.0, 0) == 1.0
    assert closed_form(0.0, 3) == 0.0


def test_closed_form_at_one():
    assert abs(closed_form(1.0, 0) - math.exp(-1)) <= 1e-16
    assert abs(closed_form(1.0, 1) - 0.36787944117144233) <= 1e-16
    assert abs(closed_form(1.0, 2) - 0.18393972058572117) <= 1e-16


def test_closed_form_rejects_bad_input():
    with pytest.raises(ContractError):
        closed_form(-0.5, 0)
    with pytest.raises(ContractError):
        closed_form(1.0, -1)


def test_closed_form_large_index_is_stable():
    # log-domain evaluation: no overflow of s^i or i! on the way
    value = closed_form(2.0, 300)
    assert 0.0 <= value < 1e-300 or value == 0.0
    assert np.isfinite(closed_form(700.0, 700))


def test_closed_form_is_fixed_point_of_dynamics():
    """Central-difference derivative matches the flow field z_{i-1} - z_i."""
    delta = 1e-5
    for i in range(21):
        for s in np.linspace(delta, 10.0, 40):
            lhs = (closed_form(s + delta, i) - closed_form(s - delta, i)) / (2 * delta)
            upstream = closed_form(s, i - 1) if i > 0 else 0.0
            assert abs(lhs - (upstream - closed_form(s, i))) <= 1e-8


def test_closed_form_system_sums_to_one():
    for s in (0.0, 0.5, 1.0, 4.0, 9.0):
        vec = closed_form_system(s, 10)
        assert vec.shape == (12,)
        assert abs(math.fsum(vec) - 1.0) <= 1e-15
        assert np.all(vec >= 0.0)


def test_fresh_state():
    state = CouponState.fresh(5, l=3)
    assert state.t == 0
    assert state.cover_time is None
    assert state.truncation == 3
    assert np.array_equal(state.counts_of_counts, [5, 0, 0, 0, 0])
    assert np.array_equal(state.per_type_counts, np.zeros(5, dtype=np.int64))


def test_single_type_covers_in_one_step():
    state = CouponState.fresh(1, l=2)
    coupon_step(state, 0)
    assert np.array_equal(state.counts_of_counts, [0, 1, 0, 0])
    assert state.cover_time == 1


def test_two_draws_of_same_type():
    state = CouponState.fresh(4, l=2)
    coupon_step(state, 0)
    coupon_step(state, 0)
    assert np.array_equal(state.counts_of_counts, [3, 0, 1, 0])
    assert state.t == 2
    assert state.cover_time is None


def test_step_updates_in_place_and_validates_draw():
    state = CouponState.fresh(3, l=1)
    assert coupon_step(state, 1) is state
    with pytest.raises(ContractError):
        coupon_step(state, 3)
    with pytest.raises(ContractError):
        coupon_step(state, -1)


def test_one_step_mean_change_matches_drift_formula():
    """Averaging the step over all n draws gives exactly (y_{i-1} - y_i)/n."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        l = int(rng.integers(1, 5))
        state = CouponState.fresh(n, l=l)
        for draw in rng.integers(0, n, size=int(rng.integers(0, 30))):
            coupon_step(state, int(draw))
        y = state.counts_of_counts.astype(float)

        total = np.zeros(l + 2)
        for draw in range(n):
            clone = CouponState(
                n=n, t=state.t,
                per_type_counts=state.per_type_counts.copy(),
                counts_of_counts=state.counts_of_counts.copy(),
            )
            coupon_step(clone, draw)
            total += clone.counts_of_counts - state.counts_of_counts
        mean_change = total / n

        predicted = np.empty(l + 2)
        predicted[0] = -y[0] / n
        predicted[1:l + 1] = (y[0:l] - y[1:l + 1]) / n
        predicted[l + 1] = y[l] / n
        assert np.max(np.abs(mean_change - predicted)) <= 1e-12


def test_expected_change_worked_example():
    # n=4 with bucket counts (2, 2): coordinate 1 has zero expected change,
    # coordinate 2 gains 0.5 on average.
    state = CouponState.fresh(4, l=2)
    coupon_step(state, 0)
    coupon_step(state, 1)
    assert np.array_equal(state.counts_of_counts, [2, 2, 0, 0])
    deltas = np.zeros(4)
    for draw in range(4):
        clone = CouponState(4, state.t, state.per_type_counts.copy(),
                            state.counts_of_counts.copy())
        coupon_step(clone, draw)
        deltas += clone.counts_of_counts - state.counts_of_counts
    deltas /= 4
    assert deltas[1] == 0.0
    assert deltas[2] == 0.5


@settings(max_examples=40, deadline=None)
@given(l=st.sampled_from([1, 2, 10, 254]), data=st.data(),
       s_max=st.floats(0.01, 100.0), t=st.integers(0, 10**6))
def test_drift_is_the_move_rules_mean_exactly(l, data, s_max, t):
    # The ODE drift at a row is the chain's expected one-step change,
    # sum_b (Y_b / n) S[b] with S the move rule, so the trend error is
    # exactly 0.  Each entry is a sum of at most two exact terms, so only
    # the sign of a zero may differ, which np.array_equal ignores.
    sizes = st.integers(0, 3) | st.integers(0, 10_000) | st.just(0)
    row = np.array(data.draw(st.lists(sizes, min_size=l + 2, max_size=l + 2)), dtype=np.int64)
    assume(row.sum() > 0)
    n = int(row.sum())
    steps = wormald.coupon._bucket_steps(l)
    spec = make_coupon_spec(l, s_max)
    assert np.array_equal(evaluate_drift(spec, t / n, row / n), (row / n) @ steps)
    # the matrix integrate reads off the drift, on the identity's columns
    a = l + 2
    assert np.array_equal(evaluate_drift(spec, np.zeros(a), np.eye(a)), steps.T)


@pytest.mark.parametrize("n, t", [(7, 40), (50, 200), (1000, 3000)])
def test_linear_mean_is_the_occupancy_law(n, t):
    """The one-step mean change is exactly A y / n, so E Y(t) = n (I + A/n)^t e_0,
    and after t uniform draws a type holds Bin(t, 1/n) copies: E Y_i(t) is
    n P(Bin(t, 1/n) = i), and the overflow coordinate n P(Bin(t, 1/n) > l)."""
    l = 10
    linear = coupon_drift(l)(0.0, np.eye(l + 2))
    mean = n * np.linalg.matrix_power(np.eye(l + 2) + linear / n, t)[:, 0]
    exact = [n * Fraction(math.comb(t, i) * (n - 1) ** (t - i), n**t) for i in range(l + 1)]
    exact.append(n - sum(exact))
    assert np.max(np.abs(mean - np.array([float(x) for x in exact]))) <= 1e-12 * n


def test_conservation_along_a_long_run():
    n, l, steps = 50, 3, 10_000
    rng = np.random.default_rng(11)
    state = CouponState.fresh(n, l=l)
    draws = rng.integers(0, n, size=steps)
    for t, draw in enumerate(draws, start=1):
        coupon_step(state, int(draw))
        assert int(state.counts_of_counts.sum()) == n
        assert int(state.per_type_counts.sum()) == t
        recomputed = np.bincount(np.minimum(state.per_type_counts, l + 1),
                                 minlength=l + 2)
        assert np.array_equal(recomputed, state.counts_of_counts)
    assert state.cover_time is not None
    assert state.counts_of_counts[0] == 0


def test_max_step_change_is_one():
    state = CouponState.fresh(6, l=2)
    rng = np.random.default_rng(3)
    prev = state.counts_of_counts.copy()
    for draw in rng.integers(0, 6, size=500):
        coupon_step(state, int(draw))
        assert np.max(np.abs(state.counts_of_counts - prev)) <= 1
        prev = state.counts_of_counts.copy()


def test_cover_time_single_type():
    for seed in range(5):
        assert cover_time(1, seed) == 1


def test_cover_time_deterministic_and_at_least_n():
    for n in (2, 7, 100):
        t1 = cover_time(n, seed=12345)
        t2 = cover_time(n, seed=12345)
        assert t1 == t2 >= n


def test_cover_time_mean_matches_harmonic_formula():
    """E[T] = n * H_n; check n=5 against 2000 seeded trials."""
    n, trials = 5, 2000
    expected = n * sum(1.0 / i for i in range(1, n + 1))
    times = [cover_time(n, seed) for seed in range(trials)]
    mean = np.mean(times)
    # sd of T for n=5 is about 5.1, so 5 standard errors is about 0.57
    assert abs(mean - expected) <= 0.6


@pytest.mark.parametrize("n", [4, 15])
def test_cover_time_distribution_matches_exact_oracle(n):
    """Kolmogorov-Smirnov distance of 20,000 cover times to the exact law.

    1.95/sqrt(N) is the two-sided KS critical value at alpha = 1e-3; the
    maximum runs over the whole support, one past the largest sample.
    """
    trials = 20_000
    times = np.array([cover_time(n, derive_seed(n, i)) for i in range(trials)])
    ks = np.arange(int(times.max()) + 1)
    ecdf = np.searchsorted(np.sort(times), ks, side="right") / trials
    exact = np.array([1.0 - exact_cover_tail(n, int(k)) for k in ks])
    assert np.max(np.abs(ecdf - exact)) <= 1.95 / math.sqrt(trials)


def test_cover_time_distribution_at_n1000_matches_exact_oracle():
    """Kolmogorov-Smirnov distance of 5,000 cover times at n = 1000.

    The exact law is evaluated at the thresholds ceil(n ln n + c n) - 1 for
    c from -4 to 8 in steps of 0.05; a sup over a subset of points never
    exceeds the true distance, so 1.95/sqrt(N) (alpha = 1e-3) still holds.
    """
    n, trials = 1000, 5000
    times = np.sort([cover_time(n, derive_seed(n, i)) for i in range(trials)])
    ks = [math.ceil(n * math.log(n) + c * n) - 1 for c in np.linspace(-4.0, 8.0, 241)]
    ecdf = np.searchsorted(times, ks, side="right") / trials
    exact = np.array([1.0 - exact_cover_tail(n, k) for k in ks])
    assert np.max(np.abs(ecdf - exact)) <= 1.95 / math.sqrt(trials)


def fsum_cover_tail(n, k, terms=80):
    """P(cover > k) with each inclusion-exclusion term to 50 digits, fsum-added.

    Terms past j = 80 are below 1e-80 for the thresholds used here.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        return math.fsum((-1) ** (j + 1) * float(math.comb(n, j) * (Decimal(n - j) / n) ** k)
                         for j in range(1, terms + 1))


@pytest.mark.parametrize("n", [2500, 5000])
def test_exact_tail_at_large_n_matches_fsum_reference(n):
    for c in (-1.0, 0.0, 1.0, 2.0):
        k = math.ceil(n * math.log(n) + c * n) - 1
        expected = fsum_cover_tail(n, k)
        assert abs(exact_cover_tail(n, k) - expected) <= 1e-10 * expected


def test_cover_time_rejects_bad_n():
    with pytest.raises(ContractError):
        cover_time(0, seed=1)


def test_cover_time_refuses_n_whose_waits_cannot_form_one_array():
    # 2**60 waits of 8 bytes pass numpy's largest array size; the refusal
    # comes before anything is drawn or allocated.
    with pytest.raises(ContractError, match=r"^n must be at most .*got 1152921504606846977$"):
        cover_time(2**60 + 1, 0)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 20_000), seed=st.integers(0, 2**64 - 1))
def test_cover_time_is_numpy_geometric_sum(n, seed):
    assert cover_time(n, seed) == cover_time_reference(n, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 30, 300, 3000, 30_000])
def test_cover_time_is_numpy_geometric_sum_at_the_boundaries(n):
    # n = 1 draws nothing and n = 2 one wait; each n builds its own rates.
    for i in range(2000 if n <= 300 else 20):
        seed = derive_seed(n, i)
        assert cover_time(n, seed) == cover_time_reference(n, seed)


def test_inverted_waits_divide_by_libm_log1p():
    # The reference divides by math.log1p, libm's.  np.log1p can differ from
    # it in the last bit (it does on AVX-512 builds); a wait changes only
    # when the quotient is within an ulp of an integer, too rarely for the
    # sampling tests to see it.
    n = 100_000
    rates = wormald.coupon._wait_rates(n)
    assert rates.shape == (n - 1,) and not rates.flags.writeable
    assert rates.tolist() == [-math.log1p(-(n - k) / n) for k in range(1, n)]


def test_cover_time_keeps_eight_bytes_per_type(traced_peak_mb):
    n = 100_000
    assert wormald.coupon._wait_rates(n).nbytes == 8 * (n - 1)
    cover_time(n, seed=1)  # warm: the rates are cached, the stream built
    assert traced_peak_mb(cover_time, n, 2) <= (8 * (n - 1) + 4096) / 1e6


def test_exact_tail_trivial_cases():
    assert exact_cover_tail(1, 0) == 1.0
    assert exact_cover_tail(5, 0) == 1.0
    assert exact_cover_tail(1, 3) == 0.0
    with pytest.raises(ContractError):
        exact_cover_tail(0, 1)
    with pytest.raises(ContractError):
        exact_cover_tail(3, -1)


def _fraction_cover_tail(n, k):
    """P(cover > k) as an exact rational, by inclusion-exclusion (k >= 1)."""
    return Fraction(sum((-1) ** (j + 1) * math.comb(n, j) * (n - j) ** k for j in range(1, n)),
                    n**k)


def test_exact_tail_is_zero_where_it_rounds_to_zero():
    # A tail at k near 1e301 is 0 and must be returned as such, not refused.
    assert exact_cover_tail(10, 10**301) == 0.0
    assert exact_cover_tail(1000, 10**40) == 0.0
    # First k whose union bound n (1 - 1/n)^k falls below exp(-746): the
    # exact value there rounds to 0.0, while one step earlier it need not.
    n = 10
    k = math.ceil((-746 - math.log(n)) / math.log1p(-1 / n))
    assert math.log(n) + (k - 1) * math.log1p(-1 / n) >= -746
    assert float(_fraction_cover_tail(n, k)) == 0.0
    assert exact_cover_tail(n, k) == 0.0


def test_exact_tail_small_cases_match_enumeration():
    assert abs(exact_cover_tail(2, 2) - 0.5) <= 1e-12
    assert abs(exact_cover_tail(3, 3) - 7.0 / 9.0) <= 1e-12


def brute_force_tail(n, k):
    """P(cover > k) by enumerating all n^k draw sequences."""
    uncovered = 0
    for seq in itertools.product(range(n), repeat=k):
        if len(set(seq)) < n:
            uncovered += 1
    return uncovered / n**k


def test_exact_tail_matches_brute_force_n4():
    for k in (0, 1, 4, 6):
        assert abs(exact_cover_tail(4, k) - brute_force_tail(4, k)) <= 1e-12


def test_exact_tail_matches_brute_force_n3_all_k():
    for k in range(0, 12):
        assert abs(exact_cover_tail(3, k) - brute_force_tail(3, k)) <= 1e-12


@pytest.mark.parametrize("n", [10, 40])
@pytest.mark.parametrize("c", [-1, 0, 1, 2])
def test_exact_tail_matches_the_bucket_chain_law(n, c):
    # The cover time exceeds k exactly when bucket 0 is not yet empty; the
    # chain's exact law (66 rows at n = 10, 861 at n = 40) meets the
    # inclusion-exclusion sum.
    k = math.ceil(n * math.log(n) + c * n)
    rows, p = bucket_chain_law(n, 1, k)
    assert abs(math.fsum(p) - 1.0) <= 1e-14
    assert abs((1.0 - math.fsum(p[rows[:, 0] == 0])) - exact_cover_tail(n, k)) <= 1e-14


def _surjections(k, n):
    """Words of length ``k`` on ``n`` letters that use every letter: ``n! S(k, n)``,
    with the Stirling numbers of the second kind by their recurrence."""
    stirling = [1] + [0] * n  # S(0, j)
    for _ in range(k):
        stirling = [0] + [j * stirling[j] + stirling[j - 1] for j in range(1, n + 1)]
    return math.factorial(n) * stirling[n]


@pytest.mark.parametrize("n, k", [(3, 5), (6, 9), (10, 30), (20, 40), (8, 8), (5, 4)])
def test_cover_law_is_the_surjection_count(n, k):
    exact = Fraction(_surjections(k, n), n**k)
    assert cover_law(n, k) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n, k", [(5, 7), (6, 12), (4, 3), (7, 7)])
def test_cover_law_is_the_bucket_chain_laws_empty_bucket_0(n, k):
    rows, p = bucket_chain_law(n, 1, k)
    assert cover_law(n, k) == pytest.approx(math.fsum(p[rows[:, 0] == 0]), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n, tol", [(100, 1e-11), (1000, 1e-10)])
@pytest.mark.parametrize("c", [-1, 0, 1, 2])
def test_the_two_exact_cover_oracles_agree(n, tol, c):
    # A float power of positive terms against an alternating 50-digit
    # decimal sum: the two routes share no code.
    k = math.ceil(n * math.log(n) + c * n)
    assert cover_law(n, k) == pytest.approx(1.0 - exact_cover_tail(n, k), rel=tol, abs=0.0)


def test_exact_tail_monotone_in_k():
    values = [exact_cover_tail(20, k) for k in range(20, 300, 10)]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-15


def test_exact_tail_moderate_n_in_range():
    p = exact_cover_tail(1000, 6908)
    assert 0.0 < p < 1.0


def test_exact_tail_is_one_below_n_draws():
    # Fewer draws than types never cover; the alternating series would
    # cancel far past double precision here, the 1.0 shortcut does not.
    assert exact_cover_tail(500, 50) == 1.0


def _one_shortcut_k(n):
    """Largest k at which exact_cover_tail takes its shortcut to 1.0."""
    k = 0
    while n * math.log1p(-math.exp((k + 1) * math.log1p(-1 / n))) < -40.0:
        k += 1
    return k


def _zero_shortcut_k(n):
    """Smallest k at which exact_cover_tail takes its shortcut to 0.0."""
    return math.ceil((-746 - math.log(n)) / math.log1p(-1 / n))


@pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 40])
def test_exact_tail_is_correctly_rounded_against_fractions(n):
    """Bit-for-bit equality with the exact rational tail, rounded once.

    Covers every k from 1 to n ln n + 12 n and the k on each side of both
    shortcuts.
    """
    ks = set(range(1, math.ceil(n * math.log(n) + 12 * n) + 1))
    for edge in (_one_shortcut_k(n), _zero_shortcut_k(n)):
        ks.update(k for k in (edge - 1, edge, edge + 1) if k >= 1)
    for k in sorted(ks):
        assert exact_cover_tail(n, k) == float(_fraction_cover_tail(n, k)), (n, k)


@pytest.mark.parametrize("n", [100, 300])
def test_exact_tail_is_correctly_rounded_where_the_sum_cancels(n):
    # Just past the 1.0 shortcut the terms sum in absolute value to about
    # e^40; at n = 300 a single step rounded to 28 digits moves the result.
    edge = _one_shortcut_k(n)
    ks = [edge, edge + 1] + [math.ceil(n * math.log(n) + i / 4 * n) - 1 for i in range(-16, 25)]
    for k in ks:
        assert exact_cover_tail(n, k) == float(_fraction_cover_tail(n, k)), (n, k)


def _mpmath_cover_tail(n, k):
    """P(cover > k) summed in 100-digit mpmath, then rounded once to a double."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(100):
        scale = mpmath.mpf(n) ** k
        total, prev = mpmath.mpf(0), None
        for j in range(1, n):
            term = mpmath.binomial(n, j) * mpmath.mpf(n - j) ** k / scale
            total += term if j % 2 else -term
            if prev is not None and term < prev and term < abs(total) * mpmath.mpf(10) ** -90:
                break
            prev = term
        man, exp = total.man_exp
    return float(Fraction(man) * 2**exp if exp >= 0 else Fraction(man, 2**-exp))


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5, 10**6])
def test_exact_tail_is_correctly_rounded_against_mpmath(n):
    # 100 digits keep more than 70 after the worst cancellation here (c = -4,
    # where the terms sum in absolute value to about e^55).
    for c in (i / 4 for i in range(-16, 25)):
        k = math.ceil(n * math.log(n) + c * n) - 1
        assert exact_cover_tail(n, k) == _mpmath_cover_tail(n, k), (n, c)
