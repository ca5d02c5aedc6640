"""Fixed-step RK4 integration of dz_l/ds = f_l(s, z) with domain-exit detection.

The systems of interest are small, smooth and non-stiff, so a classical
fourth-order Runge-Kutta scheme with a fixed step is enough and keeps the
output grid exactly aligned with the Monte Carlo sampling grid (see
:func:`grid_times`, which both engines share).  Domain exit is detected at
emitted grid points only; the exit time is therefore reported at grid
resolution.

A spec that declares its drift linear, ``drift(s, z) == A @ z`` through
``ProcessSpec.linear``, is stepped by a matrix instead of by drift calls.
On such a system one RK4 step of size h is exactly multiplication by its
stability function ``R(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24``,
so the matrix path is RK4 itself, with its fourth order and its error,
and the acceptance tests of both (error against the closed form, observed
order) keep their tolerances; only the rounding differs (by about 1e-15 on
the coupon system).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, DivergenceError
from .process import ProcessSpec, Trajectory, evaluate_drift, in_domain

#: Grid values this close to s_max (relatively) are treated as landed on it.
_REL_FUZZ = 1e-9


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size and emission stride for the fixed-step integrator.

    ``h`` is the RK4 micro-step; every ``grid_stride``-th step is emitted
    into the trajectory, so emitted points are spaced ``h * grid_stride``
    apart in scaled time.  The defaults put the integrator's global error
    (~h^4) far below Monte Carlo noise (~n^-1/2) while emitting on the
    order of a thousand points over typical horizons.
    """

    h: float = 1e-3
    grid_stride: int = 10

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ContractError(f"step size must be positive and finite, got {self.h}")
        if self.grid_stride < 1:
            raise ContractError(f"grid_stride must be >= 1, got {self.grid_stride}")


def check_grid(h: float, grid_stride: int, s_max: float) -> None:
    """Raise :class:`ContractError` unless the arguments define a grid of at most
    2**53 micro-steps, where step indices and so grid times stay exact."""
    IntegratorConfig(h, grid_stride)  # raises ContractError for a bad h or stride
    if not 0 < s_max < math.inf:
        raise ContractError(f"s_max must be positive and finite, got {s_max}")
    if s_max / h > 2**53:
        raise ContractError(f"s_max / h must be at most 2**53, got {s_max / h:.3g}")


def grid_times(h: float, grid_stride: int, s_max: float) -> np.ndarray:
    """Emitted grid: multiples of h*grid_stride in [0, s_max], plus s_max.

    The k-th entry is computed as ``(k * grid_stride) * h`` -- the same
    arithmetic the integrator uses for its micro-step times -- so the ODE
    and simulation grids agree bitwise.  If s_max is not itself a grid
    multiple it is appended as the final entry.
    """
    check_grid(h, grid_stride, s_max)
    macro = grid_stride * h
    count = int(math.floor(s_max / macro + _REL_FUZZ))
    grid = (np.arange(count + 1, dtype=np.int64) * grid_stride) * h
    grid = grid[grid <= s_max]
    if grid[-1] < s_max:
        grid = np.append(grid, s_max)
    return grid


def _rk4_step(f: Callable[[float, np.ndarray], np.ndarray],
              s: float, z: np.ndarray, h: float) -> np.ndarray:
    k1 = f(s, z)
    k2 = f(s + 0.5 * h, z + (0.5 * h) * k1)
    k3 = f(s + 0.5 * h, z + (0.5 * h) * k2)
    k4 = f(s + h, z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_matrix(linear: np.ndarray, h: float) -> np.ndarray:
    """``R(hA)``: one RK4 step of ``dz/ds = A z``, applied to the identity's columns."""
    return _rk4_step(lambda s, z: linear @ z, 0.0, np.eye(linear.shape[0]), h)


def integrate(spec: ProcessSpec, z0: np.ndarray, s_max: float,
              config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the drift ODE from s=0 to s_max on a fixed grid.

    Runs classical RK4 with step ``config.h``; the final step is shortened
    so the last grid point lands exactly on ``s_max``.  Integration stops
    early at the first emitted grid point outside the open domain; that
    point is kept as the trajectory's last entry and its time recorded as
    ``sigma_exit``.

    A spec with a ``linear`` matrix ``A`` is not stepped through its drift:
    the ``m`` full steps up to each emitted point are one product with
    ``R(hA)^m`` (each power computed once), and a shortened last step is a
    product with ``R(h'A)``.  The steps, checks and grid are the same.

    Raises
    ------
    ContractError
        If z0 has the wrong shape or lies outside the domain at s=0,
        s_max exceeds the domain, the drift at (0, z0) has the wrong shape,
        or ``spec.linear @ z0`` is not the drift at (0, z0).
    DriftEvaluationError
        If the drift at (0, z0) is non-finite.
    DivergenceError
        If the state becomes non-finite, reporting the offending s.
    """
    z = np.array(z0, dtype=float, copy=True)
    if not in_domain(spec, 0.0, z):
        raise ContractError("initial state z0 lies outside the domain at s=0")
    if s_max > spec.domain.s_high:
        raise ContractError(f"s_max={s_max} exceeds the domain bound {spec.domain.s_high}")
    f0 = evaluate_drift(spec, 0.0, z)

    grid = grid_times(config.h, config.grid_stride, s_max)
    h = config.h

    if spec.linear is None:
        # Unchecked: four calls per micro-step; the state is checked at every emitted point.
        f = spec.drift

        def advance(z, first, last, tail):
            for j in range(first, last):
                z = _rk4_step(f, j * h, z, h)
            return _rk4_step(f, last * h, z, tail) if tail > 0 else z
    else:
        # A wrong matrix would integrate another ODE without notice.
        gap = np.max(np.abs(spec.linear @ z - f0))
        if gap > 1e-12 * np.max(np.abs(spec.linear) @ np.abs(z)):
            raise ContractError(f"linear @ z0 differs from the drift at (0, z0) by {gap:.3g}")
        step = _rk4_matrix(spec.linear, h)
        powers = {}

        def advance(z, first, last, tail):
            m = last - first
            if m not in powers:
                powers[m] = np.linalg.matrix_power(step, m)
            z = powers[m] @ z
            return _rk4_matrix(spec.linear, tail) @ z if tail > 0 else z

    # Number of full h-steps; the remainder (if any) is one shorter step.
    full_steps = int(math.floor(s_max / h + _REL_FUZZ))
    while full_steps * h > s_max:
        full_steps -= 1

    out_s = [grid[0]]
    out_z = [z.copy()]
    sigma_exit = None
    emitted = 1

    j = 0
    while emitted < grid.size:
        target = grid[emitted]
        # Advance with full steps while the next micro-time stays at or below
        # the target; then close any gap (only at the final s_max point) with
        # a single partial step.
        last = j
        while last < full_steps and (last + 1) * h <= target * (1.0 + _REL_FUZZ):
            last += 1
        z = advance(z, j, last, target - last * h)
        j = last
        if not np.all(np.isfinite(z)):
            raise DivergenceError(f"state became non-finite at s={target!r}", float(target))
        out_s.append(target)
        out_z.append(z.copy())
        emitted += 1
        if not in_domain(spec, float(target), z):
            sigma_exit = float(target)
            break

    return Trajectory(np.array(out_s), np.array(out_z), sigma_exit)


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
        traj = integrate(spec, z0, s_max, IntegratorConfig(h=step, grid_stride=1))
        exact = np.array([[oracle(float(s), l) for l in range(spec.coord_count)]
                          for s in traj.s])
        errs.append(float(np.max(np.abs(traj.z - exact))))
    err_coarse, err_fine = errs
    if err_fine == 0.0:
        return OrderEstimate(math.inf, err_coarse, err_fine, degenerate=True)
    return OrderEstimate(math.log2(err_coarse / err_fine), err_coarse, err_fine)
