"""Fixed-step RK4 integration of dz_l/ds = f_l(s, z) with domain-exit detection.

The systems of interest are small, smooth and non-stiff, so a classical
fourth-order Runge-Kutta scheme with a fixed step is enough and keeps the
output grid exactly aligned with the Monte Carlo sampling grid (see
:func:`grid_times`, which both engines share).  Domain exit is detected at
emitted grid points only; the exit time is therefore reported at grid
resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, DivergenceError
from .process import ProcessSpec, Trajectory, in_domain

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


def grid_times(h: float, grid_stride: int, s_max: float) -> np.ndarray:
    """Emitted grid: multiples of h*grid_stride in [0, s_max], plus s_max.

    The k-th entry is computed as ``(k * grid_stride) * h`` -- the same
    arithmetic the integrator uses for its micro-step times -- so the ODE
    and simulation grids agree bitwise.  If s_max is not itself a grid
    multiple it is appended as the final entry.
    """
    if not s_max > 0:
        raise ContractError(f"s_max must be positive, got {s_max}")
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


def integrate(spec: ProcessSpec, z0: np.ndarray, s_max: float,
              config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the drift ODE from s=0 to s_max on a fixed grid.

    Runs classical RK4 with step ``config.h``; the final step is shortened
    so the last grid point lands exactly on ``s_max``.  Integration stops
    early at the first emitted grid point outside the open domain; that
    point is kept as the trajectory's last entry and its time recorded as
    ``sigma_exit``.

    Raises
    ------
    ContractError
        If z0 lies outside the domain at s=0 or s_max exceeds the domain.
    DivergenceError
        If the state becomes non-finite, reporting the offending s.
    """
    z = np.array(z0, dtype=float, copy=True)
    if z.shape != (spec.coord_count,):
        raise ContractError(f"z0 has shape {z.shape}, expected ({spec.coord_count},)")
    if not in_domain(spec, 0.0, z):
        raise ContractError("initial state z0 lies outside the domain at s=0")
    if s_max > spec.domain.s_high:
        raise ContractError(f"s_max={s_max} exceeds the domain bound {spec.domain.s_high}")

    grid = grid_times(config.h, config.grid_stride, s_max)
    h = config.h
    f = spec.drift

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
        while j < full_steps and (j + 1) * h <= target * (1.0 + _REL_FUZZ):
            z = _rk4_step(f, j * h, z, h)
            j += 1
        s_here = j * h
        if s_here < target:
            z = _rk4_step(f, s_here, z, target - s_here)
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
