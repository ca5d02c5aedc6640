"""Tests for the fixed-step RK4 engine and its grid construction."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import closed_form_system, convergence_order
from wormald import (
    ContractError,
    DivergenceError,
    DomainBox,
    ProcessSpec,
    closed_form,
    coupon_reference,
    grid_times,
    integrate,
    make_coupon_spec,
)
from wormald.ode import _grid_steps, check_grid
from wormald.process import in_domain

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


@pytest.mark.parametrize("h, grid_stride, message", [
    (0.0, 10, "step size must be positive and finite, got 0.0"),
    (math.inf, 10, "step size must be positive and finite, got inf"),
    (math.nan, 10, "step size must be positive and finite, got nan"),
    (1e-3, 0, "grid_stride must be an integer >= 1, got 0"),
    (1e-3, 2.5, "grid_stride must be an integer >= 1, got 2.5"),
], ids=["h-zero", "h-inf", "h-nan", "stride-zero", "stride-fractional"])
def test_check_grid_validates_h_and_grid_stride(h, grid_stride, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        check_grid(h, grid_stride, 1.0)
    spec = make_coupon_spec(3, 4.0)
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        integrate(spec, coupon_z0(3), 1.0, h, grid_stride)


def test_zero_drift_constant_solution():
    spec = ProcessSpec(
        drift=lambda s, z: np.zeros(1),
        increment_bound=1.0,
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
        drift=lambda s, z: np.ones(1),
        increment_bound=1.0,
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
        drift=lambda s, z: z * z,
        increment_bound=1.0,
        domain=DomainBox(-0.1, 2.0, np.array([-1.0]), np.array([1e308])),
    )
    with pytest.raises(DivergenceError) as err:
        integrate(spec, np.array([2.0]), 1.0, h=1e-3, grid_stride=1)
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
        drift=lambda s, z: -z,
        increment_bound=1.0,
        domain=DomainBox(-0.1, 6.0, np.array([-0.1]), np.array([1.1])),
    )
    est = convergence_order(spec, np.array([1.0 - 1e-12]), 5.0, 1e-2,
                            lambda s, l: math.exp(-s) * (1.0 - 1e-12))
    assert 3.5 <= est.order <= 4.5


@pytest.mark.parametrize("length", [1, 4], ids=["short", "long"])
def test_integrate_rejects_wrong_length_drift(length):
    # RK4 would broadcast a length-1 drift over every coordinate silently.
    spec = ProcessSpec(
        drift=lambda s, z: np.zeros(length),
        increment_bound=1.0,
        domain=DomainBox(-0.1, 6.0, np.full(3, -0.1), np.full(3, 1.1)),
    )
    with pytest.raises(ContractError):
        integrate(spec, np.full(3, 0.25), 1.0)


def test_convergence_order_degenerate_on_zero_drift():
    spec = ProcessSpec(
        drift=lambda s, z: np.zeros(1),
        increment_bound=1.0,
        domain=DomainBox(-0.1, 6.0, np.array([-0.1]), np.array([1.1])),
    )
    est = convergence_order(spec, np.array([0.25]), 2.0, 1e-2, lambda s, l: 0.25)
    assert est.degenerate
    assert math.isinf(est.order)


def test_ode_grid_is_the_shared_grid():
    spec = make_coupon_spec(3, 4.0)
    traj = integrate(spec, coupon_z0(3), 2.5, h=1e-3, grid_stride=10)
    assert np.array_equal(traj.s, grid_times(1e-3, 10, 2.5))


def test_coupon_reference_is_the_e0_integration():
    ref = coupon_reference(4, 2.0)
    direct = integrate(make_coupon_spec(4, 2.0), coupon_z0(4), 2.0,
                       h=1e-3, grid_stride=10)
    assert ref.s.tobytes() == direct.s.tobytes()
    assert ref.z.tobytes() == direct.z.tobytes()
    assert ref.sigma_exit is None and direct.sigma_exit is None


def linear_pair(linear, box):
    """The same linear system twice: declared (matrix steps) and as a plain drift (RK4 loop)."""
    fast = ProcessSpec(lambda s, z: linear @ z, 1.0, box, linear=True)
    slow = ProcessSpec(lambda s, z: linear @ z, 1.0, box)
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
    return linear, z0, s_max, h, stride


@settings(max_examples=60, deadline=None)
@given(run=linear_runs())
def test_linear_matrix_steps_match_the_rk4_loop(run):
    linear, z0, s_max, h, stride = run
    a = linear.shape[0]
    box = DomainBox(-1.0, s_max + 1.0, np.full(a, -1e15), np.full(a, 1e15))
    fast, slow = (integrate(spec, z0, s_max, h, stride) for spec in linear_pair(linear, box))
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
    fast, slow = (integrate(spec, np.array([0.5]), 1.5, h=1e-3, grid_stride=7)
                  for spec in linear_pair(linear, box))
    assert fast.sigma_exit == slow.sigma_exit
    assert abs(fast.sigma_exit - math.log(2.0)) <= 7e-3
    assert fast.s.tobytes() == slow.s.tobytes()
    assert np.max(np.abs(fast.z - slow.z)) <= 1e-14


def test_integrate_rejects_a_nonlinear_drift_declared_linear():
    # Read off the identity's columns, z**2 gives A = I, and A @ z0 = z0 is not z0**2.
    box = DomainBox(-0.1, 2.0, np.full(2, -1.0), np.full(2, 1.0))
    bad = ProcessSpec(lambda s, z: z**2, 1.0, box, linear=True)
    with pytest.raises(ContractError, match="linear"):
        integrate(bad, np.array([0.5, -0.25]), 1.0)


def test_linear_coupon_spec_never_steps_through_its_drift():
    # The RK4 loop would make ~16,000 drift calls here; the matrix path two:
    # one at z0 and one batched call on the identity's columns that reads A.
    spec = make_coupon_spec(10, 4.0)
    calls = []

    def counted(s, z):
        calls.append(s)
        return spec.drift(s, z)

    counted_spec = ProcessSpec(counted, 1.0, spec.domain, linear=True)
    traj = integrate(counted_spec, coupon_z0(10), 4.0)
    assert traj.s[-1] == 4.0
    assert len(calls) <= 2


def walk_reference(spec, z0, s_max, h, grid_stride):
    """The integrator as it once was, walking its grid one micro-step at a time.

    Kept as the slow reference for drift specs: the grid is rebuilt by its
    own floor-plus-fuzz rule, and each emitted point's step count is found
    by stepping until the next micro-time passes the point.
    """
    def rk4_step(s, z, step):
        k1 = spec.drift(s, z)
        k2 = spec.drift(s + 0.5 * step, z + (0.5 * step) * k1)
        k3 = spec.drift(s + 0.5 * step, z + (0.5 * step) * k2)
        k4 = spec.drift(s + step, z + step * k3)
        return z + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    count = int(math.floor(s_max / (grid_stride * h) + 1e-9))
    grid = (np.arange(count + 1, dtype=np.int64) * grid_stride) * h
    grid = grid[grid <= s_max]
    if grid[-1] < s_max:
        grid = np.append(grid, s_max)
    full_steps = int(math.floor(s_max / h + 1e-9))
    while full_steps * h > s_max:
        full_steps -= 1

    z = np.array(z0, dtype=float)
    out_s, out_z, sigma_exit = [grid[0]], [z.copy()], None
    j = 0
    for target in grid[1:]:
        last = j
        while last < full_steps and (last + 1) * h <= target * (1.0 + 1e-9):
            last += 1
        for i in range(j, last):
            z = rk4_step(i * h, z, h)
        tail = target - last * h
        if tail > 0:
            z = rk4_step(last * h, z, tail)
        j = last
        out_s.append(target)
        out_z.append(z.copy())
        if not in_domain(spec, float(target), z):
            sigma_exit = float(target)
            break
    return np.array(out_s), np.array(out_z), sigma_exit


def oscillator_spec(s_high):
    """A damped, forced nonlinear oscillator; its box is left on some runs."""
    return ProcessSpec(
        drift=lambda s, z: np.array([z[1] * (1.0 + 0.1 * s), -z[0] - 0.3 * z[1] ** 3]),
        increment_bound=1.0,
        domain=DomainBox(-0.1, s_high, np.full(2, -1.6), np.full(2, 1.6)),
    )


@st.composite
def drift_runs(draw):
    h = 10.0 ** draw(st.floats(-3.5, math.log10(0.33)))
    stride = draw(st.integers(1, 40))
    # At most 2,000 micro-steps, so the reference walk stays quick.
    intervals = draw(st.integers(1, max(1, min(int(3.0 / (h * stride)), 2000 // stride))))
    s_max = intervals * stride * h
    if draw(st.booleans()):  # off the grid: the last step is shortened
        s_max -= draw(st.floats(0.0, 0.999)) * stride * h
    z0 = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2)))
    return z0, s_max, h, stride


@settings(max_examples=150, deadline=None)
@given(run=drift_runs())
def test_integrate_matches_the_micro_step_walk(run):
    z0, s_max, h, stride = run
    spec = oscillator_spec(s_max + 1.0)
    s, z, sigma_exit = walk_reference(spec, z0, s_max, h, stride)
    traj = integrate(spec, z0, s_max, h, stride)
    assert traj.s.tobytes() == s.tobytes()
    assert traj.z.tobytes() == z.tobytes()
    assert traj.sigma_exit == sigma_exit


def grid_walk(h, grid_stride, s_max):
    """The grid by its definition: count full micro-steps up while the next
    one stays at or below ``s_max``, keep every ``grid_stride``-th, and end
    at ``s_max`` after the last full step if no kept point landed on it."""
    m, points = 0, [(0.0, 0)]
    while (m + 1) * h <= s_max:
        m += 1
        if m % grid_stride == 0:
            points.append((m * h, m))
    if points[-1][0] < s_max:
        points.append((s_max, m))
    return points


@st.composite
def walkable_grids(draw):
    """``(h, grid_stride, s_max)`` with at most ~10**4 micro-steps, ``s_max``
    a multiple of ``h`` (often of the stride's span), one of its
    neighbouring doubles, or anywhere below 10**4 h."""
    h = 10.0 ** draw(st.floats(-9.0, 0.0))
    grid_stride = draw(st.one_of(st.integers(1, 50), st.integers(1, 10**9)))
    if draw(st.booleans()):
        return h, grid_stride, draw(st.floats(1e-3 * h, 1e4 * h))
    m = draw(st.integers(1, 10**4))
    if grid_stride <= 10**4 and draw(st.booleans()):
        m = grid_stride * max(1, m // grid_stride)
    s_max = m * h
    for _ in range(draw(st.integers(0, 2))):
        s_max = float(np.nextafter(s_max, draw(st.sampled_from([0.0, math.inf]))))
    return h, grid_stride, s_max


@settings(max_examples=300, deadline=None)
@given(grid=walkable_grids())
@example(grid=(1e-3, 10, 2.3))  # 2.3 / 1e-3 rounds up to 2300, one step too many
@example(grid=(0.1, 3, 0.3))  # 3 * 0.1 rounds above 0.3
@example(grid=(0.1, 1, 1.0))  # ten steps of 0.1 land on 1.0 exactly
@example(grid=(1e-3, 10, float(np.nextafter(1.0, 0.0))))
@example(grid=(1e-3, 10, float(np.nextafter(1.0, 2.0))))
def test_grid_steps_are_the_micro_step_walk(grid):
    points = grid_walk(*grid)
    times, steps = _grid_steps(*grid)
    assert times.tolist() == [s for s, _ in points]
    assert steps == [m for _, m in points]


def test_grid_steps_stay_on_multiples_past_a_billion_micro_steps():
    grid, steps = _grid_steps(1e-9, 10**9, 4.0)
    assert steps == [0, 10**9, 2 * 10**9, 3 * 10**9, 4 * 10**9]
    assert grid.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    # The walk's test admits micro-steps past each of these points, and
    # its full-step count stopped one short of 4e9: 4.0 / 1e-9 rounds to
    # 3999999999.9999995.
    assert 4.0 / 1e-9 < 4e9 and 4e9 * 1e-9 == 4.0
    assert all((k + 1) * 1e-9 <= s * (1.0 + 1e-9) for k, s in zip(steps[1:], grid[1:]))
    # Off the grid, s_max = 1.0 still follows exactly 1e9 full steps.
    grid, steps = _grid_steps(1e-9, 3 * 10**8, 1.0)
    assert steps == [0, 3 * 10**8, 6 * 10**8, 9 * 10**8, 10**9]
    assert grid[-1] == 1.0 == 10**9 * 1e-9


def test_grid_steps_step_back_when_the_rounded_quotient_overshoots():
    # 2.3 / 1e-3 rounds to exactly 2300.0, but 2300 steps of 1e-3 pass 2.3,
    # so the off-grid end is reached after 2,299 full steps.
    assert 2.3 / 1e-3 == 2300.0 and 2300 * 1e-3 > 2.3 >= 2299 * 1e-3
    grid, steps = _grid_steps(1e-3, 10, 2.3)
    assert grid[-2:].tolist() == [2290 * 1e-3, 2.3]
    assert steps[-2:] == [2290, 2299]


def test_linear_path_at_a_small_step_matches_the_closed_form():
    # 4e7 micro-steps: one matrix power per stride, not one product per step.
    ref = coupon_reference(10, 4.0, h=1e-7, grid_stride=10**5)
    assert ref.s.tobytes() == grid_times(1e-7, 10**5, 4.0).tobytes()
    exact = np.array([closed_form_system(float(s), 10) for s in ref.s])
    assert np.max(np.abs(ref.z - exact)) <= 1e-8
