"""Differential-equation method for discrete stochastic processes.

The package simulates discrete random processes whose scaled trajectories
concentrate around the solution of an ODE system, integrates that system
with a fixed-step fourth-order Runge-Kutta scheme on a grid the simulator
shares exactly, verifies the method's hypotheses (bounded increments,
drift formula, Lipschitz drift) empirically, and quantifies how tightly
trajectories concentrate as the system size n grows.

The fully instrumented example is the coupon-collecting process: each
step draws one of n types uniformly, coordinate i counts the types seen
exactly i times (with an overflow bucket past a truncation level), and
the limiting ODE solution is the Poisson profile z_i(s) = s^i e^(-s)/i!.
"""

from .errors import (
    ContractError,
    DivergenceError,
    DriftEvaluationError,
    EstimationError,
    FitError,
    NumericalError,
    WormaldError,
)
from .process import (
    DomainBox,
    ProcessSpec,
    Trajectory,
    estimate_lipschitz,
    evaluate_drift,
    in_domain,
)
from .ode import OrderEstimate, convergence_order, grid_times, integrate
from .coupon import (
    CouponState,
    closed_form,
    closed_form_system,
    coupon_drift,
    coupon_reference,
    coupon_step,
    cover_time,
    exact_cover_tail,
    make_coupon_spec,
)
from .montecarlo import (
    DriftCheckReport,
    HypothesisCheck,
    HypothesisReport,
    RunPlan,
    check_hypotheses,
    empirical_drift,
    max_increment,
    simulate,
)
from .analysis import (
    DeviationReport,
    GumbelReport,
    GumbelRow,
    ScalingReport,
    ScalingRow,
    compare_run,
    gumbel_experiment,
    scaling_study,
    sup_deviation,
)
from .rng import derive_seed, make_generator, mix64, spawn

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "CouponState",
    "DeviationReport",
    "DivergenceError",
    "DomainBox",
    "DriftCheckReport",
    "DriftEvaluationError",
    "EstimationError",
    "FitError",
    "GumbelReport",
    "GumbelRow",
    "HypothesisCheck",
    "HypothesisReport",
    "NumericalError",
    "OrderEstimate",
    "ProcessSpec",
    "RunPlan",
    "ScalingReport",
    "ScalingRow",
    "Trajectory",
    "WormaldError",
    "check_hypotheses",
    "closed_form",
    "closed_form_system",
    "compare_run",
    "convergence_order",
    "coupon_drift",
    "coupon_reference",
    "coupon_step",
    "cover_time",
    "derive_seed",
    "empirical_drift",
    "estimate_lipschitz",
    "evaluate_drift",
    "exact_cover_tail",
    "grid_times",
    "gumbel_experiment",
    "in_domain",
    "integrate",
    "make_coupon_spec",
    "make_generator",
    "max_increment",
    "mix64",
    "scaling_study",
    "simulate",
    "spawn",
    "sup_deviation",
]
