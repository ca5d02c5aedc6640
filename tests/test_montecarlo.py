"""Tests for seeded simulation runs, increment replay, and hypothesis checks."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import empirical_drift_reference, relabelled_replay
from wormald import (
    ContractError,
    DriftEvaluationError,
    ProcessSpec,
    RunPlan,
    check_hypotheses,
    coupon_drift,
    derive_seed,
    empirical_drift,
    grid_times,
    integrate,
    make_coupon_spec,
    make_generator,
    max_increment,
    simulate,
    spawn,
)
from wormald import montecarlo
from wormald.montecarlo import _chain_states, _pilot_chain


def test_plan_defaults_follow_n_log_n():
    plan = RunPlan(n=1000)
    assert plan.resolved_horizon() == math.ceil(1000 * math.log(1000))
    assert plan.resolved_s_max() == plan.resolved_horizon() / 1000
    assert RunPlan(n=1).resolved_horizon() == 1
    # a given s_max sets the horizon to ceil(n * s_max) instead
    assert RunPlan(n=10, s_max=4.0).resolved_horizon() == 40
    assert RunPlan(n=1000, s_max=2.0).resolved_horizon() == 2000
    assert RunPlan(n=7, s_max=0.5).resolved_horizon() == 4


def test_plan_validation():
    with pytest.raises(ContractError):
        RunPlan(n=0)
    with pytest.raises(ContractError):
        RunPlan(n=10, runs=0)
    with pytest.raises(ContractError):
        RunPlan(n=10, l=0)
    with pytest.raises(ContractError):
        RunPlan(n=10, grid_stride=0)
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ContractError):
            RunPlan(n=10, s_max=bad)
        with pytest.raises(ContractError):
            RunPlan(n=10, h=bad)
    # past 2**53 micro-steps grid times are no longer distinct
    with pytest.raises(ContractError, match=r"2\*\*53"):
        RunPlan(n=10, s_max=1e300)
    with pytest.raises(ContractError, match=r"2\*\*53"):
        RunPlan(n=10, s_max=1.0, h=2.0**-54)
    # Stream indices from 2**48 on belong to the pilot run and the drift
    # and Lipschitz samples, so a run may not take one.
    assert RunPlan(n=10, runs=2**48).runs == 2**48
    with pytest.raises(ContractError, match=r"^runs must be <= 281474976710656$"):
        RunPlan(n=10, runs=2**48 + 1)


def test_plan_refuses_n_past_the_chains_int64_rows():
    # The kernel's rows are int64 and start at (n, 0, ...), so the largest n
    # they hold is 2**63 - 1; one more would raise OverflowError deep in the
    # first block instead of naming n.  A short s_max keeps the accepted
    # plan's horizon below its own bound.
    assert RunPlan(n=2**63 - 1, s_max=1e-15).n == 2**63 - 1
    with pytest.raises(ContractError, match=r"^n must be < 2\*\*63 .* got 9223372036854775808$"):
        RunPlan(n=2**63)


@pytest.mark.parametrize("kwargs, horizon", [
    # the smallest n found whose natural horizon's last stop, round(s_max * n),
    # is one step past it: 2**51.17 steps
    ({"n": 79073164269205}, "2530451537568103"),
    ({"n": 4 * 10**18, "s_max": 4.0}, "16000000000000000000"),
    ({"n": 10**14}, "3223619130191664"),
    ({"n": 2**51, "s_max": 1.0}, "2251799813685248"),
    # n * s_max overflows the float range
    ({"n": 10, "s_max": 1e308, "h": 1e300}, "inf"),
])
def test_plan_refuses_horizons_of_2_51_steps(kwargs, horizon):
    with pytest.raises(ContractError, match=rf"^the horizon must be < 2\*\*51 steps, got "
                                            rf"{horizon} at n = {kwargs['n']}$"):
        RunPlan(**kwargs)


def test_the_smallest_refused_natural_horizon_would_overshoot():
    # Why the bound: at this n the natural s_max = H / n times n rounds to
    # H + 1, so simulate's last stop would pass the horizon by one step.
    n = 79073164269205
    horizon = math.ceil(n * math.log(n))
    assert horizon == 2530451537568103 >= 2**51
    assert np.rint(grid_times(RunPlan.h, RunPlan.grid_stride, horizon / n)[-1] * n) == horizon + 1
    assert RunPlan(n=2**51 - 1, s_max=1.0).resolved_horizon() == 2**51 - 1


@st.composite
def accepted_plans(draw):
    """Plans RunPlan accepts: natural horizons (n up to about 2**46, whose
    horizon is about 2**51 steps) and explicit s_max up to 1e3 with n * s_max
    up to 2**51."""
    natural = draw(st.booleans())
    bits = draw(st.integers(0, 46 if natural else 62))
    n = draw(st.integers(2**bits, 2**(bits + 1) - 1))
    s_max = None if natural else draw(st.floats(1e-16, min(1e3, 2**51 / n)))
    try:
        return RunPlan(n=n, s_max=s_max, h=draw(st.floats(1e-3, 0.5)),
                       grid_stride=draw(st.integers(1, 100)))
    except ContractError:
        assume(False)  # a horizon of 2**51 steps or more


@settings(max_examples=300, deadline=None)
@given(plan=accepted_plans())
def test_no_stop_passes_the_horizon(plan):
    # simulate stops at round(s * n) for every grid time s, with no clamp:
    # below 2**51 steps no stop passes the horizon.  Grids only, no chain.
    grid = grid_times(plan.h, plan.grid_stride, plan.resolved_s_max())
    assert np.rint(grid * plan.n).max() <= plan.resolved_horizon()


@pytest.mark.parametrize("n, s_max, stop, horizon", [(5, 0.5, 2, 3), (3, 0.1, 0, 1)])
def test_simulate_stops_at_round_n_s_max(n, s_max, stop, horizon):
    # The last grid point is s_max itself, whose state is the one after
    # round(n * s_max) steps, halves to even, not after the horizon
    # ceil(n * s_max) that the pilot walks.
    plan = RunPlan(n=n, s_max=s_max, seed=2)
    assert (round(n * s_max), plan.resolved_horizon()) == (stop, horizon)
    traj = simulate(plan, 0)
    [(_i, _j, rows)] = _chain_states(make_generator(plan.run_seed(0)), n, plan.l, [stop])
    assert np.array_equal(traj.z[-1] * n, rows[0])
    if stop == 0:
        assert np.array_equal(traj.z[0], traj.z[-1])


@pytest.mark.parametrize("field, value", [
    ("n", 100.5), ("n", 100.0),
    # ids with the names these fields had when the cases were added
    pytest.param("runs", 2.5, id="run_count-2.5"), pytest.param("l", 2.5, id="truncation-2.5"),
    ("grid_stride", 2.5), ("grid_stride", 10.0),
])
def test_plan_refuses_non_integral_sizes(field, value):
    # n = 100.5 once ran rows of 100 types scaled by 1/100.5, and a
    # grid_stride of 2.5 sampled multiples of 2.5 h.
    with pytest.raises(ContractError, match=f"^{field} must be .*integer.*{value}"):
        RunPlan(**{"n": 100, "s_max": 1.0, field: value})


def test_plan_takes_numpy_integer_sizes():
    plan = RunPlan(n=np.int64(100), runs=np.int32(2), l=np.int64(3),
                   grid_stride=np.int64(10), s_max=1.0)
    assert simulate(plan, 1).z.shape == (101, 5)


def test_run_seeds_are_distinct_and_range_checked():
    plan = RunPlan(n=10, runs=50, seed=99)
    seeds = [plan.run_seed(i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert seeds[0] == derive_seed(99, 0)
    with pytest.raises(ContractError):
        plan.run_seed(50)
    with pytest.raises(ContractError):
        plan.run_seed(-1)


def test_single_type_single_step():
    traj = simulate(RunPlan(n=1, runs=1, seed=5), 0)
    assert traj.s[0] == 0.0
    assert np.array_equal(traj.z[0], [1.0] + [0.0] * 11)
    assert traj.s[-1] == 1.0
    assert np.array_equal(traj.z[-1], [0.0, 1.0] + [0.0] * 10)


def test_first_point_is_initial_condition():
    traj = simulate(RunPlan(n=1000, seed=0), 0)
    assert traj.s[0] == 0.0
    assert traj.z[0, 0] == 1.0
    assert np.all(traj.z[0, 1:] == 0.0)


def test_simulation_is_bitwise_reproducible():
    plan = RunPlan(n=500, runs=3, seed=21)
    a = simulate(plan, 1)
    b = simulate(plan, 1)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.z, b.z)


def test_distinct_runs_differ():
    plan = RunPlan(n=500, runs=2, seed=21)
    a = simulate(plan, 0)
    b = simulate(plan, 1)
    assert not np.array_equal(a.z, b.z)


def test_simulation_grid_matches_ode_grid_bitwise():
    plan = RunPlan(n=777, seed=4)
    traj = simulate(plan, 0)
    shared = grid_times(plan.h, plan.grid_stride, plan.resolved_s_max())
    assert np.array_equal(traj.s, shared)

    spec = make_coupon_spec(plan.l, plan.resolved_s_max())
    z0 = np.zeros(spec.coord_count)
    z0[0] = 1.0
    ode = integrate(spec, z0, plan.resolved_s_max())
    assert np.array_equal(traj.s, ode.s)


def test_scaled_states_stay_in_unit_interval():
    traj = simulate(RunPlan(n=200, seed=8), 0)
    assert traj.z.min() >= 0.0
    assert traj.z.max() <= 1.0
    # rows are counts/n, so each sums to 1 up to float addition error
    assert np.max(np.abs(traj.z.sum(axis=1) - 1.0)) <= 1e-12


def test_simulation_tracks_exponential_decay():
    traj = simulate(RunPlan(n=50_000, seed=13), 0)
    s_final = traj.s[-1]
    assert abs(traj.z[-1, 0] - math.exp(-s_final)) <= 0.02


def test_max_increment_is_one_for_coupon():
    plan = RunPlan(n=1000, runs=3, seed=6)
    for i in range(3):
        assert max_increment(plan, i) == 1
    assert max_increment(RunPlan(n=2, seed=0, s_max=5.0), 0) == 1


def test_empirical_drift_fresh_state_is_deterministic_transition():
    report = empirical_drift((6, 0, 0, 0), 0, 2000, seed=14, spec=make_coupon_spec(2))
    assert report.empirical[0] == -1.0
    assert report.empirical[1] == 1.0
    assert report.predicted[0] == -1.0
    assert np.all(report.z_scores == 0.0)


def test_empirical_drift_worked_example():
    # Two of four types drawn once each, two steps in.
    report = empirical_drift((2, 2, 0, 0), 2, 20_000, seed=77, spec=make_coupon_spec(2))
    assert np.array_equal(report.predicted, [-0.5, 0.0, 0.5, 0.0])
    assert report.max_abs_z < 5.0
    assert abs(report.empirical[2] - 0.5) <= 4 * report.stderr[2]


def test_empirical_drift_validates_and_reproduces():
    row = (10, 0, 0, 0)
    spec = make_coupon_spec(2)
    with pytest.raises(ContractError):
        empirical_drift(row, 0, 99, seed=0, spec=spec)
    a = empirical_drift(row, 0, 500, seed=3, spec=spec)
    b = empirical_drift(row, 0, 500, seed=3, spec=spec)
    assert np.array_equal(a.empirical, b.empirical)


@pytest.mark.parametrize("row, t, match", [
    (np.array([[6, 0, 0, 0]]), 0, "1-d"),
    (np.array([6, 0]), 0, "at least 3"),
    (np.array([6.0, 0.0, 0.0]), 0, "integer"),
    (np.array([7, -1, 0, 0]), 1, "non-negative"),
    (np.array([0, 0, 0, 0]), 0, "at least one type"),
    (np.array([6, 0, 0, 0]), -1, "t must be"),
])
def test_empirical_drift_refuses_malformed_rows(row, t, match):
    spec = make_coupon_spec(max(row.shape[-1] - 2, 1))
    with pytest.raises(ContractError, match=match):
        empirical_drift(row, t, 500, seed=2, spec=spec)


@st.composite
def rows(draw):
    l = draw(st.integers(1, 12))
    sizes = st.integers(0, 10) | st.integers(0, 10_000 // (l + 2)) | st.just(0)
    row = draw(st.lists(sizes, min_size=l + 2, max_size=l + 2))
    assume(sum(row) > 0)
    return np.array(row, dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(row=rows(), t=st.integers(0, 10**6), samples=st.integers(100, 10_000),
       seed=st.integers(0, 2**64 - 1))
def test_empirical_drift_counts_match_the_labelled_gather(row, t, samples, seed):
    spec = make_coupon_spec(row.size - 2)
    report = empirical_drift(row, t, samples, seed=seed, spec=spec)
    empirical, stderr, z = empirical_drift_reference(row, t, samples, seed, spec)
    assert report.empirical.tobytes() == empirical.tobytes()
    assert report.stderr.tobytes() == stderr.tobytes()
    assert report.z_scores.tobytes() == z.tobytes()


def test_drift_check_reads_the_kernels_move_rule():
    # empirical_drift takes its one-step means through _bucket_steps, the
    # rule the kernel applies: a doubled rule reads far off the drift.
    row = np.array((5000, 20000, 30000, 20000, 10000, 8000, 4000, 2000, 700, 200, 80, 20))
    spec = make_coupon_spec(10)
    assert empirical_drift(row, 200_000, 10_000, seed=0, spec=spec).max_abs_z < 5
    real = montecarlo._bucket_steps
    with mock.patch.object(montecarlo, "_bucket_steps", lambda l: 2 * real(l)):
        assert empirical_drift(row, 200_000, 10_000, seed=0, spec=spec).max_abs_z > 5


def _right_side_lookup(types, row):
    """``_bucket_sizes`` with right-side searches: type ``C[b]``, the first
    of bucket ``b + 1``, is counted in bucket ``b``."""
    sizes = types.searchsorted(np.cumsum(row).astype(types.dtype), side="right")
    sizes[1:] -= sizes[:-1]
    return sizes


def test_kernel_and_drift_check_share_one_bucket_lookup():
    # simulate and empirical_drift both count a row's draws per bucket
    # through _bucket_sizes; a lookup that sends each bucket's first type
    # to the bucket below must move both off their oracles.  At n = 5 and
    # blocks of 3 draws, draws hit the bucket boundaries of relabelled rows.
    plan = RunPlan(n=5, seed=2, l=2, s_max=4.0)
    draws = spawn(2, 0).integers(0, 5, size=plan.resolved_horizon(), dtype=np.int64)
    with mock.patch.object(montecarlo, "_GROUP_DRAWS", 3):
        true = simulate(plan, 0)
        with mock.patch.object(montecarlo, "_bucket_sizes", _right_side_lookup):
            mutant = simulate(plan, 0)
    expected = relabelled_replay(draws, 5, 2, 3)[np.rint(true.s * 5).astype(np.int64)] / 5
    assert np.array_equal(true.z, expected)
    assert not np.array_equal(mutant.z, expected)

    row, spec = np.array([2, 1, 1, 1]), make_coupon_spec(2)
    reference, _stderr, _z = empirical_drift_reference(row, 10, 1000, 0, spec)
    assert np.array_equal(empirical_drift(row, 10, 1000, seed=0, spec=spec).empirical, reference)
    with mock.patch.object(montecarlo, "_bucket_sizes", _right_side_lookup):
        mutant = empirical_drift(row, 10, 1000, seed=0, spec=spec).empirical
    assert not np.array_equal(mutant, reference)


def test_check_hypotheses_fails_a_kernel_that_sends_bucket_l_to_bucket_0():
    # A kernel whose bucket-l draws land in bucket 0 instead of the
    # overflow bucket is not the chain the drift describes; the check must
    # see it (worst |z| 29.5, against 3.2 for the true rule).
    plan = RunPlan(n=1000, runs=2, seed=5)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    real = montecarlo._bucket_steps

    def to_bucket_0(l):
        steps = real(l).copy()
        steps[l, l + 1] = 0
        steps[l, 0] = 1
        return steps

    assert check_hypotheses(spec, plan, 50).drift.passed
    with mock.patch.object(montecarlo, "_bucket_steps", to_bucket_0):
        report = check_hypotheses(spec, plan, 50)
    assert not report.drift.passed, report.drift.detail


def test_pilot_states_span_the_run():
    plan = RunPlan(n=300, seed=10)
    states = list(_pilot_chain(plan, 7))
    assert len(states) == 7
    assert states[0][0] == 0
    assert states[-1][0] == plan.resolved_horizon()
    for _t, row in states:
        assert row.dtype == np.int64 and row.shape == (plan.l + 2,)
        assert int(row.sum()) == plan.n


@pytest.mark.parametrize("state_samples", [0, -3])
def test_check_hypotheses_refuses_state_samples_below_one_before_it_runs(state_samples):
    plan = RunPlan(n=300, seed=10)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    with mock.patch.object(montecarlo, "max_increment") as replay, \
            pytest.raises(ContractError, match="state_samples"):
        check_hypotheses(spec, plan, state_samples)
    replay.assert_not_called()


@pytest.mark.parametrize("samples, name", [
    ({"drift_samples": 99}, "drift_samples"),
    ({"drift_samples": 0}, "drift_samples"),
    ({"lipschitz_samples": 1}, "lipschitz_samples"),
    ({"lipschitz_samples": -5}, "lipschitz_samples"),
])
def test_check_hypotheses_refuses_too_few_samples_before_it_runs(samples, name):
    plan = RunPlan(n=300, seed=10)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    with mock.patch.object(montecarlo, "max_increment") as replay, \
            pytest.raises(ContractError, match=name):
        check_hypotheses(spec, plan, 5, **samples)
    replay.assert_not_called()


@pytest.mark.parametrize("n, s_max", [(1, 1.0), (3, 2.0), (7, 0.5), (50, 3.0)])
def test_pilot_times_past_the_horizon_are_every_step(n, s_max):
    plan = RunPlan(n=n, seed=2, s_max=s_max)
    m = plan.resolved_horizon()
    for count in (*range(1, m + 3), 3 * m + 7, 10_000):
        unclamped = np.unique(np.linspace(0, m, count).round().astype(np.int64))
        assert [t for t, _row in _pilot_chain(plan, count)] == unclamped.tolist()
    assert [t for t, _row in _pilot_chain(plan, 10_000)] == list(range(m + 1))


def test_check_memory_does_not_grow_with_state_samples(traced_peak_mb):
    # A horizon of 10 steps has 11 states; asking for five million must not
    # space five million times first (40 MB of float64).
    plan = RunPlan(n=5, seed=1)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    peak = traced_peak_mb(lambda: check_hypotheses(
        spec, plan, 5_000_000, drift_samples=100, lipschitz_samples=100))
    assert peak < 4.0


def test_check_hypotheses_examines_the_pilot_states():
    plan = RunPlan(n=200, runs=1, seed=4)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    seen = []

    def record(row, t, *args, **kwargs):
        seen.append((t, row.copy()))
        return empirical_drift(row, t, *args, **kwargs)

    with mock.patch.object(montecarlo, "empirical_drift", record):
        check_hypotheses(spec, plan, 9, drift_samples=100, lipschitz_samples=100)
    pilot = list(_pilot_chain(plan, 9))
    assert [t for t, _ in seen] == [t for t, _ in pilot]
    for (_, row), (_, expected) in zip(seen, pilot):
        assert np.array_equal(row, expected)


def test_check_hypotheses_holds_one_pilot_state_at_a_time(traced_peak_mb):
    # The kernel's block of draws and its pass; 200 states
    # held at once as per-type arrays would take 20 MB.
    plan = RunPlan(n=100_000, seed=5)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    peak = traced_peak_mb(lambda: check_hypotheses(
        spec, plan, 200, drift_samples=100, lipschitz_samples=100))
    assert peak < 16.0


def test_check_hypotheses_passes_for_coupon():
    plan = RunPlan(n=500, runs=4, seed=3)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    report = check_hypotheses(spec, plan, 8, drift_samples=2000,
                              lipschitz_samples=3000)
    assert report.passed
    assert report.increment.observed == 1.0
    assert report.drift.observed <= 5.0
    assert report.lipschitz.observed <= 1.0 + 1e-9


def test_check_hypotheses_rejects_too_small_increment_bound():
    plan = RunPlan(n=200, runs=2, seed=3)
    base = make_coupon_spec(10, plan.resolved_s_max())
    tight = ProcessSpec(
        drift=base.drift,
        increment_bound=0.5,
        domain=base.domain,
        lipschitz_hint=1.0,
    )
    report = check_hypotheses(tight, plan, 4, drift_samples=1000,
                              lipschitz_samples=1000)
    assert not report.increment.passed
    assert not report.passed


def test_check_hypotheses_rejects_sign_flipped_drift():
    plan = RunPlan(n=500, runs=2, seed=3)
    base = make_coupon_spec(10, plan.resolved_s_max())
    true_drift = coupon_drift(10)
    flipped = ProcessSpec(
        drift=lambda s, z: -true_drift(s, z),
        increment_bound=1.0,
        domain=base.domain,
        lipschitz_hint=1.0,
    )
    report = check_hypotheses(flipped, plan, 8, drift_samples=2000,
                              lipschitz_samples=1000)
    assert not report.drift.passed
    assert report.drift.observed > 5.0


def _steps_in(row):
    """The fewest steps that reach ``row``: bucket ``b`` holds types drawn ``b`` times."""
    return sum(b * count for b, count in enumerate(row))


# A state reached by a pilot run of `check --n 100000`: coordinates 6..8 hold
# three types between them, so 10^4 samples usually move none of them even
# though the drift predicts a nonzero mean there.
_SPARSE_TAIL_STATE = (49443, 34784, 12296, 2885, 509, 80, 1, 2, 0, 0, 0, 0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_empirical_drift_accepts_true_drift_with_unsampled_coordinates(seed):
    row = _SPARSE_TAIL_STATE
    report = empirical_drift(row, _steps_in(row), 10_000, seed=seed, spec=make_coupon_spec(10))
    assert np.isfinite(report.z_scores).all()
    assert report.max_abs_z <= 5.0
    # The unsampled coordinate 8 is tested against the integer-increment floor.
    mu = report.predicted[8]
    assert report.stderr[8] == math.sqrt((abs(mu) - mu**2) / 10_000)


# A state of n = 1000 types whose coordinates 6..8 hold few types: coordinate
# 8 is predicted to gain 10 in 10^4 samples.  A sampled variance from the
# few moves seen can put its standard error below what an integer increment
# of that mean allows.
_LOW_COUNT_STATE = (283, 351, 243, 79, 28, 14, 1, 1, 0, 0, 0, 0)


def test_empirical_drift_floors_a_low_count_variance():
    # Unfloored, 2 moves seen against 10 expected read z = 5.66 here.
    row = _LOW_COUNT_STATE
    report = empirical_drift(row, _steps_in(row), 10_000, seed=derive_seed(2026, 2**48 + 10),
                             spec=make_coupon_spec(10))
    assert report.max_abs_z <= 5.0
    floor = np.abs(report.predicted) - report.predicted**2
    assert np.all(report.stderr >= np.sqrt(floor / 10_000))


def test_empirical_drift_gives_no_false_alarm_over_2000_seeds():
    # Unfloored, 6 of these seeds read |z| > 5, the largest 9.0.
    row = _LOW_COUNT_STATE
    spec = make_coupon_spec(10)
    worst = max(empirical_drift(row, _steps_in(row), 10_000, seed=seed, spec=spec).max_abs_z
                for seed in range(2000))
    assert worst <= 5.0


def test_empirical_drift_rejects_doubled_drift_at_sparse_state():
    row = _SPARSE_TAIL_STATE
    true_drift = coupon_drift(10)
    doubled = dataclasses.replace(make_coupon_spec(10),
                                  drift=lambda s, z: 2 * true_drift(s, z))
    report = empirical_drift(row, _steps_in(row), 10_000, seed=1, spec=doubled)
    assert report.max_abs_z > 5.0
    assert np.isfinite(report.z_scores[:6]).all()


def test_empirical_drift_rejects_wrong_shape_drift():
    row = (6, 0, 0, 0)
    short = dataclasses.replace(make_coupon_spec(2), drift=lambda s, z: np.zeros(3))
    with pytest.raises(ContractError):
        empirical_drift(row, 0, 500, seed=2, spec=short)
    # a spec for another truncation level does not fit the row either
    with pytest.raises(ContractError):
        empirical_drift(row, 0, 500, seed=2, spec=make_coupon_spec(3))


def test_check_hypotheses_rejects_drift_nonfinite_on_the_simplex():
    # Every pilot state sums to 1 and almost no Lipschitz sample does: a NaN
    # there compares false against the z threshold and would pass silently.
    plan = RunPlan(n=2000, runs=1, seed=3)
    true_drift = coupon_drift(10)

    def simplex_nan(s, z):
        on_simplex = np.abs(np.sum(z, axis=0) - 1.0) < 1e-9
        return np.where(on_simplex, np.nan, true_drift(s, z))

    spec = dataclasses.replace(make_coupon_spec(10, plan.resolved_s_max()),
                               drift=simplex_nan)
    with pytest.raises(DriftEvaluationError):
        check_hypotheses(spec, plan, 20, drift_samples=1000, lipschitz_samples=1000)


def test_empirical_drift_deterministic_mismatch_is_infinite():
    # From the fresh state every sample moves bucket 0 -> 1; a prediction of
    # -2 for coordinate 0 allows no variance at all, so it is rejected outright.
    wrong = dataclasses.replace(make_coupon_spec(2),
                                drift=lambda s, z: np.array([-2.0, 2.0, 0.0, 0.0]))
    report = empirical_drift((6, 0, 0, 0), 0, 500, seed=2, spec=wrong)
    assert report.z_scores[0] == np.inf


def test_check_hypotheses_rejects_doubled_drift():
    plan = RunPlan(n=10_000, runs=1, seed=2)
    base = make_coupon_spec(10, plan.resolved_s_max())
    true_drift = coupon_drift(10)
    doubled = ProcessSpec(
        drift=lambda s, z: 2 * true_drift(s, z),
        increment_bound=1.0,
        domain=base.domain,
        lipschitz_hint=2.0,
    )
    report = check_hypotheses(doubled, plan, 10, lipschitz_samples=1000)
    assert report.increment.passed
    assert not report.drift.passed


def test_check_hypotheses_passes_true_drift_at_large_n():
    plan = RunPlan(n=100_000, runs=1, seed=7)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    report = check_hypotheses(spec, plan, 50, lipschitz_samples=1000)
    assert report.drift.passed, report.drift.detail
    assert report.drift.observed <= 5.0


def test_check_hypotheses_passes_true_drift_at_benchmark_size():
    # The benchmark's `check --n 100000 --runs 4` at seed 24.  Unfloored, the
    # overflow coordinate read z = -6.40: 1 move seen against 7.4 expected.
    plan = RunPlan(n=100_000, runs=4, seed=24)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    report = check_hypotheses(spec, plan, 50)
    assert report.drift.passed, report.drift.detail
