"""Process abstraction: drift functions, domains, trajectories.

A discrete process with ``a`` tracked coordinates is summarized by a
:class:`ProcessSpec`: its drift (the conditional expected one-step change as
a function of scaled time ``s = t/n`` and scaled state ``z = Y/n``), the
uniform bound on one-step increments, the bound on coordinate magnitudes,
and the open box on which the drift is Lipschitz.  The ODE and Monte Carlo
engines both speak this language.

A drift accepts a batch of points, coordinates first as in
``scipy.integrate.solve_ivp(vectorized=True)``: ``z`` of shape ``(a,)`` or
``(a, B)`` with ``s`` a scalar or of shape ``(B,)``, returning the shape of
``z``.  :func:`estimate_lipschitz` evaluates all its points in one call;
:func:`evaluate_drift`, the RK4 engine and the drift check pass single
points.

All values here are immutable after construction and every operation is pure
given its inputs (randomness enters only through an explicit seed), so they
are safe to share across threads or processes without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import ContractError, DriftEvaluationError, EstimationError
from .rng import make_generator

#: ``drift(s, z)``: ``z`` of shape ``(a,)`` or a batch ``(a, B)`` with ``s`` of
#: shape ``(B,)``; returns the shape of ``z`` (or ``(a,)`` if constant).
DriftFunction = Callable[[Union[float, np.ndarray], np.ndarray], np.ndarray]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DomainBox:
    """Open axis-aligned box (s_low, s_high) x prod_l (z_low[l], z_high[l]).

    Concretizes the bounded connected open set on which the drift must be
    Lipschitz.  Membership is strict on every face: the box is open.
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
        if not self.s_low < self.s_high:
            raise ContractError(f"need s_low < s_high, got [{self.s_low}, {self.s_high}]")
        if not np.all(self.z_low < self.z_high):
            raise ContractError("need z_low[l] < z_high[l] for every coordinate")

    @property
    def coord_count(self) -> int:
        return self.z_low.shape[0]


@dataclass(frozen=True)
class ProcessSpec:
    """Everything the engines need to know about one process family.

    Parameters
    ----------
    coord_count : int
        Number of tracked coordinates.
    drift : callable ``(s, z) -> ndarray``
        Deterministic drift; must be pure and return a finite vector of
        length ``coord_count`` everywhere inside ``domain``.  It must also
        take a batch: ``z`` of shape ``(coord_count, B)`` with ``s`` of shape
        ``(B,)``, returning ``(coord_count, B)``, one column per point.  A
        drift that does not depend on the point may return
        ``(coord_count,)`` for a batch as well.
    increment_bound : float
        Uniform bound on per-step coordinate changes of the discrete process.
    magnitude_bound : float
        Bound C with |Y^(l)| < C n for every coordinate.
    domain : DomainBox
        Open box on which the drift is Lipschitz.
    lipschitz_hint : float, optional
        Known Lipschitz constant (L1 metric on joint (s, z) points), if any.
    """

    coord_count: int
    drift: DriftFunction
    increment_bound: float
    magnitude_bound: float
    domain: DomainBox
    lipschitz_hint: Optional[float] = None

    def __post_init__(self):
        if self.coord_count < 1:
            raise ContractError(f"coord_count must be positive, got {self.coord_count}")
        if not self.increment_bound > 0:
            raise ContractError("increment_bound must be positive")
        if not self.magnitude_bound > 0:
            raise ContractError("magnitude_bound must be positive")
        if self.domain.coord_count != self.coord_count:
            raise ContractError(
                f"domain has {self.domain.coord_count} coordinates, spec has {self.coord_count}"
            )
        if self.lipschitz_hint is not None and self.lipschitz_hint < 0:
            raise ContractError("lipschitz_hint must be non-negative")


class ScaledPoint(NamedTuple):
    """One trajectory sample: scaled time ``s = t/n`` and scaled state ``z = Y/n``."""

    s: float
    z: np.ndarray


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

    def point(self, k: int) -> ScaledPoint:
        return ScaledPoint(float(self.s[k]), self.z[k])


def _check_dims(spec: ProcessSpec, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.coord_count,):
        raise ContractError(f"state has shape {z.shape}, expected ({spec.coord_count},)")
    return z


def evaluate_drift(spec: ProcessSpec, s: float, z: np.ndarray) -> np.ndarray:
    """Evaluate the drift at (s, z), validating shape and finiteness.

    Raises
    ------
    ContractError
        If ``z`` does not have ``coord_count`` entries, or the drift returns
        a vector of the wrong length.
    DriftEvaluationError
        If the drift returns a non-finite value at a point inside the domain.
    """
    z = _check_dims(spec, z)
    out = np.asarray(spec.drift(float(s), z), dtype=float)
    if out.shape != (spec.coord_count,):
        raise ContractError(f"drift returned shape {out.shape}, expected ({spec.coord_count},)")
    if not np.all(np.isfinite(out)) and in_domain(spec, s, z):
        raise DriftEvaluationError(f"drift non-finite at s={s!r} inside the domain")
    return out


def in_domain(spec: ProcessSpec, s: float, z: np.ndarray) -> bool:
    """Strict membership test for the open domain box."""
    z = _check_dims(spec, z)
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
    :class:`EstimationError` is raised.  The drift is called once for all
    first points and once for all second points, as ``(a, B)`` batches, so
    memory is O(``sample_count`` * a).  A non-finite drift value at any
    sampled point raises :class:`DriftEvaluationError`.
    """
    if sample_count < 2:
        raise ContractError(f"sample_count must be >= 2, got {sample_count}")
    box = spec.domain
    gen = make_generator(seed)
    # One (sample_count, 2, dim) draw keeps the stream layout prefix-stable.
    dim = 1 + spec.coord_count
    raw = gen.uniform(size=(sample_count, 2, dim))
    low = np.concatenate(([box.s_low], box.z_low))
    high = np.concatenate(([box.s_high], box.z_high))
    points = low + raw * (high - low)

    u, v = points[:, 0], points[:, 1]
    dist = np.sum(np.abs(u - v), axis=-1)
    valid = dist != 0.0
    if not valid.any():
        raise EstimationError("all sampled pairs were degenerate (zero distance)")
    u, v, dist = u[valid], v[valid], dist[valid]
    fu = _drift_batch(spec, u)
    fv = _drift_batch(spec, v)
    return float(np.max(np.max(np.abs(fu - fv), axis=0) / dist))


def _drift_batch(spec: ProcessSpec, points: np.ndarray) -> np.ndarray:
    """Drift at each row ``(s, z...)`` of ``points``, as an ``(a, B)`` block.

    A drift that does not depend on the point may return shape ``(a,)``; it
    is taken as one column.  The points are drawn from the domain box, so any
    non-finite value raises, without the membership test of
    :func:`evaluate_drift`.
    """
    z = points[:, 1:].T
    out = np.asarray(spec.drift(points[:, 0], z), dtype=float)
    if out.shape == (spec.coord_count,):
        out = out[:, None]
    elif out.shape != z.shape:
        raise ContractError(f"drift returned shape {out.shape} for a batch of shape {z.shape}")
    if not np.all(np.isfinite(out)):
        raise DriftEvaluationError("drift non-finite at a point sampled from the domain box")
    return out
