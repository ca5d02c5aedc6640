"""Tests for deviation measurement, scaling fits, and cover-time tails."""

import math

import numpy as np
import pytest

from wormald import (
    ContractError,
    FitError,
    Trajectory,
    compare_run,
    gumbel_experiment,
    scaling_study,
    sup_deviation,
)
from wormald.analysis import ref_classical, ref_paper

REF_PAPER_C0 = 1.0 - math.exp(-math.exp(-1.0))      # about 0.3078
REF_CLASSICAL_C0 = 1.0 - math.exp(-1.0)             # about 0.6321


def test_ref_paper_is_ref_classical_at_e_to_the_c():
    # The paper's curve is the classical one with c replaced by e^c, bit for bit.
    for k in range(-100, 101):
        c = k * 0.05
        assert ref_paper(c) == ref_classical(math.exp(c))


def make_traj(s, z, sigma=None):
    return Trajectory(np.asarray(s, dtype=float), np.asarray(z, dtype=float), sigma)


def test_identical_trajectories_have_zero_deviation():
    traj = make_traj([0.0, 0.1, 0.2], [[1.0, 0.0], [0.9, 0.1], [0.8, 0.2]])
    report = sup_deviation(traj, traj)
    assert report.sup_deviation == 0.0
    assert np.all(report.per_coordinate == 0.0)


def test_constant_shift_is_recovered_exactly():
    s = [0.0, 0.1, 0.2]
    z = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2]])
    shifted = z.copy()
    shifted[:, 1] += 0.003
    report = sup_deviation(make_traj(s, z), make_traj(s, shifted))
    assert abs(report.sup_deviation - 0.003) <= 1e-15
    assert report.per_coordinate[0] == 0.0
    assert abs(report.per_coordinate[1] - 0.003) <= 1e-15
    assert report.sup_deviation == report.per_coordinate.max()


def test_deviation_is_symmetric_and_triangular():
    rng = np.random.default_rng(5)
    s = np.linspace(0, 1, 11)
    za, zb, zc = (rng.uniform(0, 1, size=(11, 3)) for _ in range(3))
    a, b, c = make_traj(s, za), make_traj(s, zb), make_traj(s, zc)
    d_ab = sup_deviation(a, b).sup_deviation
    d_ba = sup_deviation(b, a).sup_deviation
    d_ac = sup_deviation(a, c).sup_deviation
    d_cb = sup_deviation(c, b).sup_deviation
    assert d_ab == d_ba
    assert d_ab <= d_ac + d_cb + 1e-15


def test_deviation_uses_common_prefix():
    s = np.linspace(0, 1, 11)
    z = np.tile(np.linspace(1, 0, 11)[:, None], (1, 2))
    full = make_traj(s, z)
    # the shorter trajectory stopped early (domain exit); compare the overlap
    short = make_traj(s[:6], z[:6] + 0.01, sigma=float(s[5]))
    report = sup_deviation(full, short)
    assert abs(report.sup_deviation - 0.01) <= 1e-15
    assert report.argmax_s <= s[5]


def test_deviation_rejects_mismatched_grids():
    a = make_traj([0.0, 0.1], [[0.0], [0.0]])
    b = make_traj([0.05, 0.1], [[0.0], [0.0]])
    with pytest.raises(ContractError):
        sup_deviation(a, b)
    c = make_traj([0.0, 0.1], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ContractError):
        sup_deviation(a, c)


def test_deviation_argmax_points_at_the_gap():
    s = [0.0, 0.5, 1.0]
    z = np.zeros((3, 2))
    z2 = z.copy()
    z2[1, 1] = 0.25
    report = sup_deviation(make_traj(s, z), make_traj(s, z2))
    assert report.argmax_s == 0.5
    assert report.sup_deviation == 0.25


def test_compare_run_is_deterministic_and_bounded():
    sim1, ode1, rep1 = compare_run(n=10, l=4, s_max=2.0, seed=3)
    sim2, ode2, rep2 = compare_run(n=10, l=4, s_max=2.0, seed=3)
    assert np.array_equal(sim1.z, sim2.z)
    assert np.array_equal(ode1.z, ode2.z)
    assert rep1.sup_deviation == rep2.sup_deviation
    assert rep1.sup_deviation <= 0.5  # crude sanity bound at tiny n
    assert np.array_equal(sim1.s, ode1.s)


def test_compare_run_moderate_n_is_close():
    _, _, report = compare_run(n=2000, l=10, s_max=4.0, seed=9)
    assert report.sup_deviation <= 0.1


def test_compare_run_validates_inputs():
    with pytest.raises(ContractError):
        compare_run(n=0, s_max=2.0, seed=1)
    with pytest.raises(ContractError):
        compare_run(n=10, s_max=-1.0, seed=1)


def test_scaling_study_input_validation():
    with pytest.raises(ContractError):
        scaling_study([1000], 3, 0)
    with pytest.raises(ContractError):
        scaling_study([5, 1000], 3, 0)
    with pytest.raises(FitError):
        scaling_study([1000, 1000], 3, 0)


def test_scaling_study_rows_and_fit():
    report = scaling_study([100, 1000, 10000], 6, master_seed=17, l=6, s_max=3.0)
    ns = [row.n for row in report.rows]
    assert ns == sorted(ns)
    means = [row.mean_sup_deviation for row in report.rows]
    assert all(m > 0 for m in means)
    assert means[0] > means[1] > means[2]
    assert 0.2 <= report.alpha <= 0.8
    assert math.isfinite(report.intercept)
    for row in report.rows:
        assert row.run_count == 6
        assert row.stderr > 0


def test_scaling_study_is_order_independent():
    a = scaling_study([100, 2000], 3, master_seed=2, l=4, s_max=2.0)
    b = scaling_study([2000, 100], 3, master_seed=2, l=4, s_max=2.0)
    assert a == b


def test_gumbel_input_validation():
    with pytest.raises(ContractError):
        gumbel_experiment(100, 99, [0.0], 0)
    with pytest.raises(ContractError):
        gumbel_experiment(9, 100, [0.0], 0)
    with pytest.raises(ContractError):
        gumbel_experiment(100, 100, [], 0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractError):
            gumbel_experiment(100, 100, [0.0, bad], 0)


def test_gumbel_reference_curves_at_zero():
    report = gumbel_experiment(50, 200, [0.0], master_seed=1)
    row = report.rows[0]
    assert abs(row.ref_paper - REF_PAPER_C0) <= 1e-15
    assert abs(row.ref_classical - REF_CLASSICAL_C0) <= 1e-15
    assert abs(row.ref_paper - 0.3078) <= 5e-5
    assert abs(row.ref_classical - 0.6321) <= 5e-5


def test_gumbel_rows_sorted_and_monotone():
    report = gumbel_experiment(200, 400, [2.0, -1.0, 0.0, 1.0], master_seed=4)
    cs = [row.c for row in report.rows]
    assert cs == sorted(cs)
    emp = [row.empirical for row in report.rows]
    for hi, lo in zip(emp, emp[1:]):
        assert lo <= hi  # same trials, higher threshold
    for row in report.rows:
        assert 0.0 <= row.empirical <= 1.0
        expected_se = math.sqrt(row.empirical * (1 - row.empirical) / report.trials)
        assert row.stderr == expected_se
        assert row.threshold == max(math.ceil(200 * math.log(200) + row.c * 200), 0)


def test_gumbel_exact_column_presence():
    small = gumbel_experiment(100, 150, [0.0], master_seed=6)
    assert 0.0 <= small.rows[0].exact <= 1.0
    large = gumbel_experiment(2500, 100, [0.0], master_seed=6)
    assert 0.0 < large.rows[0].exact < 1.0
    # far below n ln n the tail is within 2**-54 of 1, and the cell says so
    mixed = gumbel_experiment(1000, 100, [-4.0, 0.0], master_seed=1)
    left, middle = mixed.rows
    assert left.exact == 1.0 and left.empirical == 1.0
    assert 0.0 < middle.exact < 1.0


def test_gumbel_classical_curve_is_the_limit_and_the_paper_curve_is_not():
    # At n = 1e4, c = 0 the double exponential 1 - e^-1 is within 1e-3 of
    # the exact tail; the triple exponential is more than 0.1 away.
    [row] = gumbel_experiment(10_000, 100, [0.0], master_seed=2).rows
    assert abs(row.ref_classical - row.exact) < 1e-3
    assert abs(row.ref_paper - row.exact) > 0.1


def test_gumbel_empirical_tracks_exact_oracle():
    report = gumbel_experiment(300, 2000, [-1.0, 0.0, 1.0], master_seed=8)
    for row in report.rows:
        se = max(row.stderr, 1e-12)
        assert abs(row.empirical - row.exact) <= 4 * se


def test_gumbel_is_deterministic():
    a = gumbel_experiment(60, 150, [0.0, 1.0], master_seed=3)
    b = gumbel_experiment(60, 150, [0.0, 1.0], master_seed=3)
    assert a == b
