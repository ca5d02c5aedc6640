"""Fixed-step RK4 integration of dz_l/ds = f_l(s, z) with domain-exit detection.

The systems of interest are small, smooth and non-stiff, so a classical
fourth-order Runge-Kutta scheme with a fixed step is enough and keeps the
output grid exactly aligned with the Monte Carlo sampling grid (see
:func:`grid_times`, which both engines share): one map gives its times
and the micro-steps :func:`integrate` takes before each.  Domain exit is
detected at emitted grid points only; the exit time is therefore reported
at grid resolution.

A spec that declares its drift linear, ``drift(s, z) == A @ z`` through
``ProcessSpec.linear=True``, is stepped by a matrix instead of by drift
calls.  The matrix is read off the drift, one batched call on the identity's
columns, so ``A`` is written only in the drift.  On such a system one RK4
step of size h is exactly multiplication by its stability function
``R(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24``, so the matrix path
is RK4 itself, with its fourth order and its error, and the acceptance
tests of both (error against the closed form, observed order) keep their
tolerances; only the rounding differs (by about 1e-15 on the coupon
system), and that rounding grows with the steps per emitted point: 2e-14
against the closed form at h = 1e-3, 2e-8 at h = 1e-9.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ContractError, DivergenceError
from .process import ProcessSpec, Trajectory, evaluate_drift, in_domain

#: Grid values this close to s_max (relatively) are treated as landed on it.
_REL_FUZZ = 1e-9


#: Default RK4 micro-step and emission stride of every engine that takes a
#: grid.  They put the integrator's global error (~h^4) far below Monte Carlo
#: noise (~n^-1/2) while emitting on the order of a thousand points over
#: typical horizons.
DEFAULT_H = 1e-3
DEFAULT_GRID_STRIDE = 10


def check_grid(h: float, grid_stride: int, s_max: float) -> None:
    """Raise :class:`ContractError` unless the arguments define a grid of at most
    2**53 micro-steps, where step indices and so grid times stay exact."""
    if not 0 < h < math.inf:
        raise ContractError(f"step size must be positive and finite, got {h}")
    if grid_stride < 1:
        raise ContractError(f"grid_stride must be >= 1, got {grid_stride}")
    if not 0 < s_max < math.inf:
        raise ContractError(f"s_max must be positive and finite, got {s_max}")
    if s_max / h > 2**53:
        raise ContractError(f"s_max / h must be at most 2**53, got {s_max / h:.3g}")


def _grid_steps(h: float, grid_stride: int, s_max: float) -> tuple[np.ndarray, list[int]]:
    """The emitted grid and the number of full h-steps taken before each point.

    The k-th multiple of ``h * grid_stride`` is ``(k * grid_stride) * h``,
    reached after ``k * grid_stride`` full steps.  An ``s_max`` off the grid
    is appended after the last full step at or below it, the largest ``m``
    with ``m * h <= s_max``, and is reached by one shorter step.
    """
    check_grid(h, grid_stride, s_max)
    count = int(math.floor(s_max / (grid_stride * h) + _REL_FUZZ))
    steps = np.arange(count + 1, dtype=np.int64) * grid_stride
    grid = steps * h
    keep = grid <= s_max
    grid, steps = grid[keep], steps[keep]
    if grid[-1] < s_max:
        full = math.floor(s_max / h)
        while full * h > s_max:
            full -= 1
        while (full + 1) * h <= s_max:
            full += 1
        grid, steps = np.append(grid, s_max), np.append(steps, full)
    return grid, steps.tolist()


def grid_times(h: float, grid_stride: int, s_max: float) -> np.ndarray:
    """Emitted grid: multiples of h*grid_stride in [0, s_max], plus s_max.

    The k-th entry is computed as ``(k * grid_stride) * h`` -- the same
    arithmetic the integrator uses for its micro-step times -- so the ODE
    and simulation grids agree bitwise.  If s_max is not itself a grid
    multiple it is appended as the final entry.
    """
    return _grid_steps(h, grid_stride, s_max)[0]


def _rk4_step(f: Callable[[float, np.ndarray], np.ndarray],
              s: float, z: np.ndarray, h: float) -> np.ndarray:
    k1 = f(s, z)
    k2 = f(s + 0.5 * h, z + (0.5 * h) * k1)
    k3 = f(s + 0.5 * h, z + (0.5 * h) * k2)
    k4 = f(s + h, z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_matrix(matrix: np.ndarray, h: float) -> np.ndarray:
    """``R(hA)``: one RK4 step of ``dz/ds = A z``, applied to the identity's columns."""
    return _rk4_step(lambda s, z: matrix @ z, 0.0, np.eye(matrix.shape[0]), h)


def integrate(spec: ProcessSpec, z0: np.ndarray, s_max: float,
              h: float = DEFAULT_H, grid_stride: int = DEFAULT_GRID_STRIDE) -> Trajectory:
    """Integrate the drift ODE from s=0 to s_max on a fixed grid.

    Runs classical RK4 with step ``h`` and emits the points of
    :func:`grid_times` ``(h, grid_stride, s_max)``: every ``grid_stride``-th
    step, and ``s_max``, which an off-grid horizon reaches by one shortened
    step.  Integration stops early at the first emitted grid point outside
    the open domain; that point is kept as the trajectory's last entry and
    its time recorded as ``sigma_exit``.

    A spec declared ``linear`` is not stepped through its drift.  Its
    matrix ``A`` is the drift at ``s = 0`` on the columns of the identity,
    read in one batched call.  The ``m`` full steps up to each emitted
    point are one product with ``R(hA)^m`` (each power computed once), and
    a shortened last step is a product with ``R(h'A)``, so the cost does
    not grow with ``1/h``.  The steps, checks and grid are the same.

    Raises
    ------
    ContractError
        If z0 has the wrong shape or lies outside the domain at s=0,
        s_max exceeds the domain, the drift at (0, z0) has the wrong shape,
        a spec declared ``linear`` has ``A @ z0`` other than the drift at
        (0, z0), or :func:`check_grid` refuses the grid.
    DriftEvaluationError
        If the drift at (0, z0), or on the identity's columns for a linear
        spec, is non-finite.
    DivergenceError
        If the state becomes non-finite, reporting the offending s.
    """
    z = np.array(z0, dtype=float, copy=True)
    if not in_domain(spec, 0.0, z):
        raise ContractError("initial state z0 lies outside the domain at s=0")
    if s_max > spec.domain.s_high:
        raise ContractError(f"s_max={s_max} exceeds the domain bound {spec.domain.s_high}")
    f0 = evaluate_drift(spec, 0.0, z)

    grid, steps = _grid_steps(h, grid_stride, s_max)

    if not spec.linear:
        # Unchecked: four calls per micro-step; the state is checked at every emitted point.
        f = spec.drift

        def advance(z, first, last, tail):
            for j in range(first, last):
                z = _rk4_step(f, j * h, z, h)
            return _rk4_step(f, last * h, z, tail) if tail > 0 else z
    else:
        a = spec.coord_count
        matrix = evaluate_drift(spec, np.zeros(a), np.eye(a))
        # A drift wrongly declared linear would integrate another ODE without notice.
        gap = np.max(np.abs(matrix @ z - f0))
        if gap > 1e-12 * np.max(np.abs(matrix) @ np.abs(z)):
            raise ContractError(f"drift declared linear differs from A @ z0 at (0, z0) "
                                f"by {gap:.3g}")
        step = _rk4_matrix(matrix, h)
        powers = {}

        def advance(z, first, last, tail):
            m = last - first
            if m not in powers:
                powers[m] = np.linalg.matrix_power(step, m)
            z = powers[m] @ z
            return _rk4_matrix(matrix, tail) @ z if tail > 0 else z

    out_z = [z.copy()]
    sigma_exit = None
    for k in range(1, grid.size):
        target = grid[k]
        z = advance(z, steps[k - 1], steps[k], target - steps[k] * h)
        if not np.all(np.isfinite(z)):
            raise DivergenceError(f"state became non-finite at s={target!r}", float(target))
        out_z.append(z.copy())
        if not in_domain(spec, float(target), z):
            sigma_exit = float(target)
            break

    return Trajectory(grid[:len(out_z)], np.array(out_z), sigma_exit)
