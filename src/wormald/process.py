"""Process abstraction: drift functions, domains, trajectories.

A discrete process with ``a`` tracked coordinates is summarized by a
:class:`ProcessSpec`: its drift (the conditional expected one-step change as
a function of scaled time ``s = t/n`` and scaled state ``z = Y/n``), the
uniform bound on one-step increments, and the open box on which the drift
is Lipschitz, which also fixes ``a`` and bounds every scaled coordinate.
The ODE and Monte Carlo engines both speak this language.

Every engine calls a spec's drift through :func:`evaluate_drift`, which
states the point and batch contract, checks it, and hands the drift a
C-contiguous float64 array; only the RK4 inner loop of
:func:`wormald.ode.integrate` calls the drift directly.
:func:`estimate_lipschitz` evaluates its point pairs in blocks of a fixed
number of drawn values, so its memory does not grow with the coordinate
count or the number of pairs.  A spec whose
drift is linear, ``drift(s, z) == A @ z``, may say so with ``linear=True``;
:func:`wormald.ode.integrate` then reads ``A`` off the drift and steps by
the matrix instead of calling the drift.

All values here are immutable after construction and every operation is pure
given its inputs (randomness enters only through an explicit seed), so they
are safe to share across threads or processes without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ContractError, DriftEvaluationError, EstimationError, _size
from .rng import make_generator

#: Values :func:`estimate_lipschitz` draws and evaluates at a time: a block
#: holds ``max(1, _BLOCK_VALUES // (2 * (1 + a)))`` point pairs.
_BLOCK_VALUES = 1 << 14

#: ``drift(s, z)`` for one point or a batch; see :func:`evaluate_drift`.
DriftFunction = Callable[[Union[float, np.ndarray], np.ndarray], np.ndarray]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DomainBox:
    """Open axis-aligned box (s_low, s_high) x prod_l (z_low[l], z_high[l]).

    Concretizes the bounded connected open set on which the drift must be
    Lipschitz, so every bound is finite.  Membership is strict on every
    face: the box is open.  It has at least one coordinate.
    """

    s_low: float
    s_high: float
    z_low: np.ndarray
    z_high: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z_low", _frozen_array(self.z_low))
        object.__setattr__(self, "z_high", _frozen_array(self.z_high))
        if self.z_low.ndim != 1 or self.z_low.shape != self.z_high.shape:
            raise ContractError("z_low and z_high must be 1-d arrays of equal length")
        if self.z_low.size == 0:
            raise ContractError("the box needs at least one coordinate")
        if not -np.inf < self.s_low < self.s_high < np.inf:
            raise ContractError(f"need finite s_low < s_high, got [{self.s_low}, {self.s_high}]")
        finite = np.isfinite(self.z_low) & np.isfinite(self.z_high)
        if not np.all(finite & (self.z_low < self.z_high)):
            raise ContractError("need finite z_low[l] < z_high[l] for every coordinate")

    @property
    def coord_count(self) -> int:
        return self.z_low.shape[0]


@dataclass(frozen=True)
class ProcessSpec:
    """Everything the engines need to know about one process family.

    Parameters
    ----------
    drift : callable ``(s, z) -> ndarray``
        Deterministic, pure drift, taking one point or a batch of points
        and returning finite values; :func:`evaluate_drift` states the
        contract and checks it.
    increment_bound : float
        Uniform bound on per-step coordinate changes of the discrete process.
    domain : DomainBox
        Open box on which the drift is Lipschitz.  It fixes the number of
        tracked coordinates, ``coord_count``, and bounds every scaled
        coordinate, as the method's boundedness hypothesis asks.
    lipschitz_hint : float, optional
        Known Lipschitz constant (L1 metric on joint (s, z) points), if any.
    linear : bool, default False
        ``True`` declares that ``drift(s, z) == A @ z`` for one fixed
        matrix ``A`` at every point.  :func:`wormald.ode.integrate` then
        reads ``A`` off the drift, as its values at ``s = 0`` on the
        identity's columns, and applies one RK4 step as the matrix ``R(hA)
        = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24``, which is exactly the
        map an RK4 step makes on a linear system, so the integrator keeps
        its order and its error; it checks ``A @ z0`` against the drift at
        the start.
    """

    drift: DriftFunction
    increment_bound: float
    domain: DomainBox
    lipschitz_hint: Optional[float] = None
    linear: bool = False

    def __post_init__(self):
        if not 0 < self.increment_bound < np.inf:
            raise ContractError("increment_bound must be positive and finite")
        if self.lipschitz_hint is not None and not 0 <= self.lipschitz_hint < np.inf:
            raise ContractError("lipschitz_hint must be non-negative and finite")
        if not isinstance(self.linear, bool):
            raise ContractError(f"linear must be a bool, got {type(self.linear).__name__}")

    @property
    def coord_count(self) -> int:
        return self.domain.coord_count


@dataclass(frozen=True)
class Trajectory:
    """A trajectory on a fixed grid of scaled times.

    ``s`` has shape (G,) and is strictly increasing; ``z`` has shape
    (G, coord_count).  ``sigma_exit`` is the first grid time at which the
    state left the domain, or None if it never did; when set, the exiting
    point is included as the last grid point.
    """

    s: np.ndarray
    z: np.ndarray
    sigma_exit: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "s", _frozen_array(self.s))
        object.__setattr__(self, "z", _frozen_array(self.z))
        if self.s.ndim != 1 or self.s.size == 0:
            raise ContractError("trajectory needs a nonempty 1-d grid of times")
        if self.z.ndim != 2 or self.z.shape[0] != self.s.size:
            raise ContractError(f"state block {self.z.shape} does not match grid of {self.s.size}")
        if not np.all(np.isfinite(self.s)) or not np.all(np.isfinite(self.z)):
            raise ContractError("trajectory contains non-finite values")
        if np.any(np.diff(self.s) <= 0):
            raise ContractError("grid times must be strictly increasing")

    def __len__(self) -> int:
        return self.s.size

    @property
    def coord_count(self) -> int:
        return self.z.shape[1]


def evaluate_drift(spec: ProcessSpec, s: Union[float, np.ndarray],
                   z: np.ndarray) -> np.ndarray:
    """Evaluate the drift at one point or a batch, checking its contract.

    A point is ``z`` of shape ``(a,)`` with a scalar ``s``, passed to the
    drift as a Python float.  A batch is ``z`` of shape ``(a, B)``,
    coordinates first as in ``scipy.integrate.solve_ivp(vectorized=True)``,
    with ``s`` of shape ``(B,)``; the drift returns one column per point.  A
    drift that does not depend on the point may answer a batch with shape
    ``(a,)``, which is broadcast to every column.  The drift always receives
    ``z`` as a C-contiguous float64 array, copied only if it was not one.
    The result is a float array of ``z``'s shape, read-only where it was
    broadcast.

    Raises
    ------
    ContractError
        If ``z`` is neither a point nor a batch of ``coord_count``
        coordinates, ``s`` does not match the batch, or the drift returns
        the wrong shape.
    DriftEvaluationError
        If the drift returns a non-finite value.
    """
    z = np.asarray(z, dtype=float)
    a = spec.coord_count
    if z.shape == (a,):
        s = float(s)
    elif z.ndim != 2 or z.shape[0] != a or np.shape(s) != z.shape[1:]:
        raise ContractError(f"state of shape {z.shape} with s of shape {np.shape(s)}: expected "
                            f"({a},) with a scalar s, or ({a}, B) with s of shape (B,)")
    out = np.asarray(spec.drift(s, np.ascontiguousarray(z)), dtype=float)
    if z.ndim == 2 and out.shape == (a,):
        out = np.broadcast_to(out[:, None], z.shape)
    if out.shape != z.shape:
        raise ContractError(f"drift returned shape {out.shape}, expected {z.shape}")
    if not np.all(np.isfinite(out)):
        where = f"s={s!r}" if z.ndim == 1 else f"a batch of {z.shape[1]} points"
        raise DriftEvaluationError(f"drift non-finite at {where}")
    return out


def in_domain(spec: ProcessSpec, s: float, z: np.ndarray) -> bool:
    """Strict membership test for the open domain box."""
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.coord_count,):
        raise ContractError(f"state has shape {z.shape}, expected ({spec.coord_count},)")
    box = spec.domain
    if not (box.s_low < s < box.s_high):
        return False
    return bool(np.all(box.z_low < z) and np.all(z < box.z_high))


def estimate_lipschitz(spec: ProcessSpec, sample_count: int, seed: int) -> float:
    """Empirical lower bound on the drift's Lipschitz constant.

    Draws ``sample_count`` point pairs uniformly in the domain box and
    returns the largest observed ratio

        max_l |f_l(u) - f_l(v)| / (|s_u - s_v| + sum_l |z_u[l] - z_v[l]|),

    i.e. the L1 metric on the joint (s, z) point.  Deterministic given the
    seed, and non-decreasing in ``sample_count`` for a fixed seed: pairs are
    drawn as a single sequential stream, so a longer run extends a shorter
    one.

    Pairs at zero distance are skipped; if every pair degenerates an
    :class:`EstimationError` is raised.  Pairs are taken in blocks of about
    :data:`_BLOCK_VALUES` drawn values, ``max(1, _BLOCK_VALUES // (2 *
    (1 + a)))`` pairs each: each block's draw continues the same stream,
    and the drift is called once for the block's first points and once for
    its second points, as ``(a, B)`` batches, so memory is
    O(:data:`_BLOCK_VALUES`) whatever ``sample_count`` and ``a`` are.  A
    non-finite drift value at any sampled point raises
    :class:`DriftEvaluationError`.
    """
    sample_count = _size("sample_count", sample_count, 2)
    box = spec.domain
    gen = make_generator(seed)
    dim = 1 + spec.coord_count
    low = np.concatenate(([box.s_low], box.z_low))
    high = np.concatenate(([box.s_high], box.z_high))
    span = high - low
    block = max(1, _BLOCK_VALUES // (2 * dim))
    best = None
    for start in range(0, sample_count, block):
        # Uniform Philox doubles are prefix-stable across calls, so the
        # blocks read the stream exactly as one (sample_count, 2, dim) draw.
        # Mapped in place, the points equal low + raw * span bit for bit.
        points = gen.uniform(size=(min(block, sample_count - start), 2, dim))
        points *= span
        points += low
        u, v = points[:, 0], points[:, 1]
        dist = np.sum(np.abs(u - v), axis=-1)
        valid = dist != 0.0
        if not valid.all():
            if not valid.any():
                continue
            u, v, dist = u[valid], v[valid], dist[valid]
        fu = evaluate_drift(spec, u[:, 0], u[:, 1:].T)
        fv = evaluate_drift(spec, v[:, 0], v[:, 1:].T)
        ratio = float(np.max(np.max(np.abs(fu - fv), axis=0) / dist))
        best = ratio if best is None else max(best, ratio)
    if best is None:
        raise EstimationError("all sampled pairs were degenerate (zero distance)")
    return best

