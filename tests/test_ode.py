"""Tests for the fixed-step RK4 engine and its grid construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormald import (
    ContractError,
    DivergenceError,
    DomainBox,
    IntegratorConfig,
    ProcessSpec,
    closed_form,
    closed_form_system,
    convergence_order,
    coupon_reference,
    grid_times,
    integrate,
    make_coupon_spec,
)
from wormald.ode import check_grid

E_INV = 0.36787944117144233  # e^-1 to full double precision


def coupon_z0(l):
    z0 = np.zeros(l + 2)
    z0[0] = 1.0
    return z0


def test_grid_times_basic():
    grid = grid_times(1e-3, 10, 1.0)
    assert grid[0] == 0.0
    assert grid[1] == 0.01
    assert grid[-1] == 1.0
    assert grid.size == 101
    assert np.all(np.diff(grid) > 0)


def test_grid_times_appends_s_max_when_off_grid():
    grid = grid_times(1e-3, 10, 0.123)
    assert grid[-1] == 0.123
    assert grid[-2] == 0.12
    grid2 = grid_times(1e-3, 10, 0.1234)
    assert grid2[-1] == 0.1234


def test_grid_times_rejects_nonpositive_horizon():
    with pytest.raises(ContractError):
        grid_times(1e-3, 10, 0.0)


@pytest.mark.parametrize("h, grid_stride, s_max", [
    (math.inf, 10, 1.0), (-1e-3, 10, 1.0), (0.0, 10, 1.0), (math.nan, 10, 1.0),
    (1e-3, 0, 1.0), (1e-3, 10, math.inf), (1e-3, 10, math.nan),
])
def test_grid_times_rejects_invalid_arguments(h, grid_stride, s_max):
    with pytest.raises(ContractError):
        grid_times(h, grid_stride, s_max)


def test_grid_times_refuses_more_than_2_53_micro_steps():
    # Refused before anything is allocated; the largest allowed horizon is
    # only checked, never built.
    with pytest.raises(ContractError, match=r"2\*\*53"):
        grid_times(1e-3, 10, 1e300)
    with pytest.raises(ContractError, match=r"2\*\*53"):
        check_grid(1.0, 1, 2.0**53 + 2.0)
    check_grid(1.0, 1, 2.0**53)


def test_integrator_config_validation():
    with pytest.raises(ContractError):
        IntegratorConfig(h=0.0)
    with pytest.raises(ContractError):
        IntegratorConfig(grid_stride=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ContractError):
            IntegratorConfig(h=bad)


def test_zero_drift_constant_solution():
    spec = ProcessSpec(
        coord_count=1,
        drift=lambda s, z: np.zeros(1),
        increment_bound=1.0,
        magnitude_bound=1.0,
        domain=DomainBox(-0.1, 6.0, np.array([-0.1]), np.array([1.1])),
    )
    traj = integrate(spec, np.array([0.25]), 5.0)
    assert traj.sigma_exit is None
    assert np.all(traj.z == 0.25)
    assert traj.s[-1] == 5.0


def test_coupon_matches_closed_form_at_one():
    spec = make_coupon_spec(10, 4.0)
    traj = integrate(spec, coupon_z0(10), 1.0)
    last = traj.z[-1]
    assert traj.s[-1] == 1.0
    assert abs(last[0] - E_INV) <= 1e-8
    assert abs(last[1] - E_INV) <= 1e-8
    assert abs(last[2] - E_INV / 2.0) <= 1e-8


def test_partial_final_step_lands_on_s_max():
    spec = make_coupon_spec(4, 4.0)
    traj = integrate(spec, coupon_z0(4), 0.1234)
    assert traj.s[-1] == 0.1234
    expected = closed_form_system(0.1234, 4)
    assert np.max(np.abs(traj.z[-1] - expected)) <= 1e-10


def test_conservation_and_nonnegativity_on_long_horizon():
    spec = make_coupon_spec(10, 10.0)
    traj = integrate(spec, coupon_z0(10), 10.0)
    sums = traj.z.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-10
    assert traj.z.min() >= -1e-9


def test_integration_is_deterministic():
    spec = make_coupon_spec(6, 4.0)
    a = integrate(spec, coupon_z0(6), 3.0)
    b = integrate(spec, coupon_z0(6), 3.0)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.z, b.z)


def test_domain_exit_sets_sigma_and_truncates():
    # Constant upward drift pushes the single coordinate through the box
    # ceiling at s = 0.15; exit is detected at grid resolution.
    spec = ProcessSpec(
        coord_count=1,
        drift=lambda s, z: np.ones(1),
        increment_bound=1.0,
        magnitude_bound=2.0,
        domain=DomainBox(-0.1, 2.0, np.array([-0.1]), np.array([1.1])),
    )
    traj = integrate(spec, np.array([0.95]), 1.0)
    assert traj.sigma_exit is not None
    assert abs(traj.sigma_exit - 0.15) <= 0.02
    assert traj.s[-1] == traj.sigma_exit
    # every point before the exit is inside the box
    assert np.all(traj.z[:-1, 0] < 1.1)


def test_bad_initial_state_rejected():
    spec = make_coupon_spec(3, 4.0)
    z_out = np.full(5, 2.0)
    with pytest.raises(ContractError):
        integrate(spec, z_out, 1.0)
    with pytest.raises(ContractError):
        integrate(spec, coupon_z0(3), 100.0)  # past the domain's s range
    with pytest.raises(ContractError):
        integrate(spec, np.zeros(4), 1.0)  # wrong length


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_reports_offending_time():
    # dz/ds = z^2 from z0 = 2 blows up at s = 0.5.
    spec = ProcessSpec(
        coord_count=1,
        drift=lambda s, z: z * z,
        increment_bound=1.0,
        magnitude_bound=1.0,
        domain=DomainBox(-0.1, 2.0, np.array([-1.0]), np.array([1e308])),
    )
    with pytest.raises(DivergenceError) as err:
        integrate(spec, np.array([2.0]), 1.0, IntegratorConfig(h=1e-3, grid_stride=1))
    assert 0.4 <= err.value.s <= 0.6


def test_convergence_order_coupon():
    spec = make_coupon_spec(10, 6.0)
    est = convergence_order(spec, coupon_z0(10), 5.0, 1e-2,
                            lambda s, l: closed_form_system(s, 10)[l])
    assert 3.5 <= est.order <= 4.5
    assert not est.degenerate
    assert est.err_coarse > est.err_fine > 0


def test_convergence_order_linear_drift():
    spec = ProcessSpec(
        coord_count=1,
        drift=lambda s, z: -z,
        increment_bound=1.0,
        magnitude_bound=1.0,
        domain=DomainBox(-0.1, 6.0, np.array([-0.1]), np.array([1.1])),
    )
    est = convergence_order(spec, np.array([1.0 - 1e-12]), 5.0, 1e-2,
                            lambda s, l: math.exp(-s) * (1.0 - 1e-12))
    assert 3.5 <= est.order <= 4.5


@pytest.mark.parametrize("length", [1, 4], ids=["short", "long"])
def test_integrate_rejects_wrong_length_drift(length):
    # RK4 would broadcast a length-1 drift over every coordinate silently.
    spec = ProcessSpec(
        coord_count=3,
        drift=lambda s, z: np.zeros(length),
        increment_bound=1.0,
        magnitude_bound=1.0,
        domain=DomainBox(-0.1, 6.0, np.full(3, -0.1), np.full(3, 1.1)),
    )
    with pytest.raises(ContractError):
        integrate(spec, np.full(3, 0.25), 1.0)


def test_convergence_order_degenerate_on_zero_drift():
    spec = ProcessSpec(
        coord_count=1,
        drift=lambda s, z: np.zeros(1),
        increment_bound=1.0,
        magnitude_bound=1.0,
        domain=DomainBox(-0.1, 6.0, np.array([-0.1]), np.array([1.1])),
    )
    est = convergence_order(spec, np.array([0.25]), 2.0, 1e-2, lambda s, l: 0.25)
    assert est.degenerate
    assert math.isinf(est.order)


def test_ode_grid_is_the_shared_grid():
    spec = make_coupon_spec(3, 4.0)
    traj = integrate(spec, coupon_z0(3), 2.5, IntegratorConfig(h=1e-3, grid_stride=10))
    assert np.array_equal(traj.s, grid_times(1e-3, 10, 2.5))


def test_coupon_reference_is_the_e0_integration():
    ref = coupon_reference(4, 2.0)
    direct = integrate(make_coupon_spec(4, 2.0), coupon_z0(4), 2.0,
                       IntegratorConfig(h=1e-3, grid_stride=10))
    assert ref.s.tobytes() == direct.s.tobytes()
    assert ref.z.tobytes() == direct.z.tobytes()
    assert ref.sigma_exit is None and direct.sigma_exit is None


def linear_pair(linear, box):
    """The same linear system twice: declared (matrix steps) and as a plain drift (RK4 loop)."""
    a = linear.shape[0]
    fast = ProcessSpec(a, lambda s, z: linear @ z, 1.0, 1.0, box, linear=linear)
    slow = ProcessSpec(a, lambda s, z: linear @ z, 1.0, 1.0, box)
    return fast, slow


@st.composite
def linear_runs(draw):
    a = draw(st.integers(1, 6))
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    linear = np.array(draw(st.lists(entries, min_size=a * a, max_size=a * a))).reshape(a, a)
    z0 = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=a, max_size=a)))
    h = draw(st.floats(1e-3, 0.05))
    stride = draw(st.integers(1, 20))
    # At most s_max = 2, so the state grows by at most e^(12 * 2).
    intervals = draw(st.integers(1, max(1, int(2.0 / (h * stride)))))
    s_max = intervals * stride * h
    if draw(st.booleans()):  # off the grid: the last step is shortened
        s_max -= draw(st.floats(0.05, 0.95)) * stride * h
    return linear, z0, s_max, IntegratorConfig(h=h, grid_stride=stride)


@settings(max_examples=60, deadline=None)
@given(run=linear_runs())
def test_linear_matrix_steps_match_the_rk4_loop(run):
    linear, z0, s_max, config = run
    a = linear.shape[0]
    box = DomainBox(-1.0, s_max + 1.0, np.full(a, -1e15), np.full(a, 1e15))
    fast, slow = (integrate(spec, z0, s_max, config) for spec in linear_pair(linear, box))
    assert fast.s.tobytes() == slow.s.tobytes()
    assert fast.sigma_exit is None and slow.sigma_exit is None
    # Relative to the largest state so far (a transient may exceed later
    # states), with an absolute floor where the state is subnormal.
    scale = np.maximum.accumulate(np.max(np.abs(slow.z), axis=1))
    gap = np.max(np.abs(fast.z - slow.z), axis=1)
    assert np.all(gap <= 1e-12 * scale + np.finfo(float).tiny)


def test_linear_matrix_steps_exit_the_domain_where_the_loop_does():
    # dz/ds = z from 0.5 leaves the box (-1, 1) at s = ln 2 = 0.693.
    linear = np.array([[1.0]])
    box = DomainBox(-0.1, 2.0, np.array([-1.0]), np.array([1.0]))
    fast, slow = (integrate(spec, np.array([0.5]), 1.5, IntegratorConfig(h=1e-3, grid_stride=7))
                  for spec in linear_pair(linear, box))
    assert fast.sigma_exit == slow.sigma_exit
    assert abs(fast.sigma_exit - math.log(2.0)) <= 7e-3
    assert fast.s.tobytes() == slow.s.tobytes()
    assert np.max(np.abs(fast.z - slow.z)) <= 1e-14


def test_integrate_rejects_a_linear_matrix_that_is_not_the_drift():
    spec = make_coupon_spec(3, 4.0)
    wrong = spec.linear.copy()
    wrong[1, 0] = 0.5
    bad = ProcessSpec(spec.coord_count, spec.drift, 1.0, 1.0, spec.domain, linear=wrong)
    with pytest.raises(ContractError, match="linear"):
        integrate(bad, coupon_z0(3), 1.0)


def test_linear_coupon_spec_never_steps_through_its_drift():
    # The RK4 loop would make ~16,000 drift calls here; the matrix path one.
    spec = make_coupon_spec(10, 4.0)
    calls = []

    def counted(s, z):
        calls.append(s)
        return spec.drift(s, z)

    counted_spec = ProcessSpec(spec.coord_count, counted, 1.0, 1.0, spec.domain,
                               linear=spec.linear)
    traj = integrate(counted_spec, coupon_z0(10), 4.0)
    assert traj.s[-1] == 4.0
    assert len(calls) <= 2
