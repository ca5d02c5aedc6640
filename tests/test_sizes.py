"""Every size, index and seed the package takes is checked by one rule.

A size is a Python or numpy int, not a bool, of at least the entry point's
least value; a seed is any such integer.  Anything else raises
ContractError naming the parameter, before a stream is built, so before any
draw, and before an ODE reference is integrated.
"""

import re
from unittest import mock

import numpy as np
import pytest

from wormald import (
    ContractError,
    RunPlan,
    check_hypotheses,
    closed_form,
    compare_run,
    coupon_drift,
    coupon_reference,
    cover_time,
    derive_seed,
    empirical_drift,
    estimate_lipschitz,
    exact_cover_tail,
    gumbel_experiment,
    make_coupon_spec,
    make_generator,
    max_increment,
    scaling_study,
    simulate,
    spawn,
    sup_deviation,
)
from wormald import analysis, coupon
from wormald.ode import check_grid
from wormald.rng import KeyedStream

PLAN = RunPlan(n=100, runs=2, seed=1, s_max=1.0)
SPEC = make_coupon_spec(10, 1.0)
ROW = np.array([6, 0, 0, 0])
ROW_SPEC = make_coupon_spec(2)
TRAJ = coupon_reference(2, 1.0)

# (entry point, parameter named in the error, least value or None for a
# seed, the call with that parameter set to v)
ENTRIES = [
    ("RunPlan", "n", 1, lambda v: RunPlan(n=v, s_max=1.0)),
    ("RunPlan", "runs", 1, lambda v: RunPlan(n=10, runs=v, s_max=1.0)),
    ("RunPlan", "l", 1, lambda v: RunPlan(n=10, l=v, s_max=1.0)),
    ("RunPlan", "seed", None, lambda v: RunPlan(n=10, seed=v, s_max=1.0)),
    ("RunPlan", "grid_stride", 1, lambda v: RunPlan(n=10, grid_stride=v, s_max=1.0)),
    ("simulate", "run_index", 0, lambda v: simulate(PLAN, v)),
    ("max_increment", "run_index", 0, lambda v: max_increment(PLAN, v)),
    ("check_grid", "grid_stride", 1, lambda v: check_grid(1e-3, v, 1.0)),
    ("coupon_drift", "l", 1, lambda v: coupon_drift(v)),
    ("make_coupon_spec", "l", 1, lambda v: make_coupon_spec(v)),
    ("closed_form", "i", 0, lambda v: closed_form(1.0, v)),
    ("empirical_drift", "sample_count", 100, lambda v: empirical_drift(ROW, 0, v, 1, ROW_SPEC)),
    ("empirical_drift", "t", 0, lambda v: empirical_drift(ROW, v, 100, 1, ROW_SPEC)),
    ("empirical_drift", "seed", None, lambda v: empirical_drift(ROW, 0, 100, v, ROW_SPEC)),
    ("check_hypotheses", "state_samples", 1, lambda v: check_hypotheses(SPEC, PLAN, v)),
    ("check_hypotheses", "drift_samples", 100,
     lambda v: check_hypotheses(SPEC, PLAN, 2, drift_samples=v)),
    ("check_hypotheses", "lipschitz_samples", 2,
     lambda v: check_hypotheses(SPEC, PLAN, 2, lipschitz_samples=v)),
    ("estimate_lipschitz", "sample_count", 2, lambda v: estimate_lipschitz(SPEC, v, 1)),
    ("estimate_lipschitz", "seed", None, lambda v: estimate_lipschitz(SPEC, 100, v)),
    ("cover_time", "n", 1, lambda v: cover_time(v, 1)),
    ("cover_time", "seed", None, lambda v: cover_time(10, v)),
    ("exact_cover_tail", "n", 1, lambda v: exact_cover_tail(v, 30)),
    ("exact_cover_tail", "k", 0, lambda v: exact_cover_tail(10, v)),
    ("gumbel_experiment", "n", 10, lambda v: gumbel_experiment(v, 100, [0.0], 1)),
    ("gumbel_experiment", "trials", 100, lambda v: gumbel_experiment(10, v, [0.0], 1)),
    ("gumbel_experiment", "seed", None, lambda v: gumbel_experiment(10, 100, [0.0], v)),
    ("scaling_study", "ns[0]", 10, lambda v: scaling_study([v, 1000], 2, 1)),
    ("scaling_study", "seed", None, lambda v: scaling_study([100, 1000], 2, v)),
    ("scaling_study", "runs", 1, lambda v: scaling_study([100, 1000], v, 1)),
    ("compare_run", "l", 1, lambda v: compare_run(100, l=v)),
    ("compare_run", "seed", None, lambda v: compare_run(100, seed=v)),
    ("sup_deviation", "run_index", 0, lambda v: sup_deviation(TRAJ, TRAJ, v)),
    ("derive_seed", "master_seed", None, lambda v: derive_seed(v, 0)),
    ("derive_seed", "index", 0, lambda v: derive_seed(1, v)),
    ("make_generator", "seed", None, lambda v: make_generator(v)),
    ("spawn", "master_seed", None, lambda v: spawn(v, 0)),
    ("spawn", "index", 0, lambda v: spawn(1, v)),
    ("KeyedStream.keyed", "seed", None, lambda v: KeyedStream().keyed(v)),
]

BAD = [("float", 10.0), ("fraction", 10.5), ("bool", True), ("np.float64", np.float64(10))]

# Parameters that have been renamed keep their former name in the test ids,
# so that each case keeps one id across the rename.
FORMER_NAMES = {
    ("RunPlan", "runs"): "run_count",
    ("RunPlan", "l"): "truncation",
    ("RunPlan", "seed"): "master_seed",
    ("gumbel_experiment", "seed"): "master_seed",
    ("scaling_study", "seed"): "master_seed",
    ("scaling_study", "runs"): "runs_per_n",
}


def _cases():
    for entry, name, least, call in ENTRIES:
        values = BAD + ([] if least is None else [("below", least - 1)])
        id_name = FORMER_NAMES.get((entry, name), name)
        for label, value in values:
            yield pytest.param(name, call, value, id=f"{entry}-{id_name}-{label}")


@pytest.mark.parametrize("name, call, value", _cases())
def test_every_size_and_seed_is_checked_by_one_rule(name, call, value):
    # No stream may be built, so no draw made, nor an ODE integrated,
    # before the check refuses.
    built = AssertionError("a stream was built before the check")
    integrated = AssertionError("an ODE was integrated before the check")
    with mock.patch.object(np.random, "Philox", side_effect=built), \
            mock.patch.object(analysis, "coupon_reference", side_effect=integrated), \
            mock.patch.object(coupon, "_STREAM", KeyedStream()), \
            pytest.raises(ContractError, match=f"^{re.escape(name)} must be an integer"):
        call(value)


@pytest.mark.parametrize("name, call", [
    ("seed", lambda: simulate(RunPlan(n=10, seed=1.5, s_max=1.0), 0)),
    ("drift_samples", lambda: check_hypotheses(SPEC, PLAN, 2, drift_samples=1000.5)),
    ("n", lambda: cover_time(10.5, 1)),
    ("sample_count", lambda: estimate_lipschitz(SPEC, 100.5, 1)),
    ("ns[0]", lambda: scaling_study([100.7, 1000.2], 3, 1)),
    ("n", lambda: RunPlan(n=True)),
    ("n", lambda: cover_time(True, 1)),
    ("l", lambda: make_coupon_spec(True)),
    ("i", lambda: closed_form(1.0, 2.5)),
    ("t", lambda: empirical_drift(ROW, 0.5, 100, 1, ROW_SPEC)),
], ids=["simulate", "check_hypotheses", "cover_time", "estimate_lipschitz", "scaling_study",
        "RunPlan-bool", "cover_time-bool", "make_coupon_spec-bool", "closed_form",
        "empirical_drift"])
def test_sizes_once_truncated_or_let_through_are_refused(name, call):
    # Each of these once raised a bare TypeError, ran on a truncated size
    # or returned a value.
    with pytest.raises(ContractError, match=f"^{re.escape(name)} must be an integer"):
        call()


def test_numpy_ints_give_the_results_python_ints_give():
    assert exact_cover_tail(np.int64(10), np.int64(30)) == exact_cover_tail(10, 30)
    for seed in (0, 7, 2**63 + 5):
        assert cover_time(np.int64(1000), seed) == cover_time(1000, seed)
        assert cover_time(1000, np.uint64(seed)) == cover_time(1000, seed)
    assert closed_form(1.5, np.int32(3)) == closed_form(1.5, 3)
    assert derive_seed(np.uint64(2**63), np.int32(5)) == derive_seed(2**63, 5)
    plan = RunPlan(n=np.int64(100), runs=np.int32(2), seed=np.int64(-3), s_max=1.0)
    assert plan == RunPlan(n=100, runs=2, seed=-3, s_max=1.0)
    assert np.array_equal(simulate(plan, np.int64(1)).z,
                          simulate(RunPlan(n=100, runs=2, seed=-3, s_max=1.0), 1).z)
