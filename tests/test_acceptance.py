"""Acceptance suite: the package's headline guarantees, one test per criterion.

Each test emits a single PASS/FAIL line carrying the measured value, the
pinned tolerance, and the runtime where one is budgeted.  The lines are
printed and also collected in ``ACCEPTANCE_LINES``, which the conftest
replays in a terminal section after pytest's capture ends.  Seeds are
fixed, so every number here is reproducible bit for bit.
"""

import math
import time

import numpy as np

from oracles import CouponState, closed_form_system, convergence_order, coupon_step
from wormald import (
    ProcessSpec,
    RunPlan,
    check_hypotheses,
    coupon_drift,
    cover_time,
    derive_seed,
    estimate_lipschitz,
    gumbel_experiment,
    integrate,
    make_coupon_spec,
    max_increment,
    scaling_study,
    simulate,
    sup_deviation,
)
from wormald.cli import run_cli

MASTER_SEED = 2026

ACCEPTANCE_LINES = []


def report(num, name, ok, detail):
    line = f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def coupon_z0(l=10):
    z0 = np.zeros(l + 2)
    z0[0] = 1.0
    return z0


def test_01_ode_matches_closed_form():
    budget, tol = 1.0, 1e-8
    start = time.perf_counter()
    spec = make_coupon_spec(10, 10.0)
    traj = integrate(spec, coupon_z0(), 10.0, h=1e-3, grid_stride=10)
    exact = np.array([closed_form_system(float(s), 10) for s in traj.s])
    err = float(np.max(np.abs(traj.z[:, :11] - exact[:, :11])))
    elapsed = time.perf_counter() - start
    report(1, "RK4 vs Poisson closed form on [0,10], coords 0..10",
           err <= tol and elapsed < budget,
           f"max |err| {err:.3e} <= {tol:.0e}, {elapsed:.2f}s < {budget:.0f}s")


def test_02_rk4_convergence_order():
    budget = 1.0
    start = time.perf_counter()
    spec = make_coupon_spec(10, 6.0)
    est = convergence_order(spec, coupon_z0(), 5.0, 1e-2,
                            lambda s, l: closed_form_system(s, 10)[l])
    elapsed = time.perf_counter() - start
    report(2, "observed RK4 order in [3.5, 4.5]",
           3.5 <= est.order <= 4.5 and elapsed < budget,
           f"order {est.order:.3f}, {elapsed:.2f}s < {budget:.0f}s")


def test_03_conservation_exact():
    spec = make_coupon_spec(10, 10.0)
    traj = integrate(spec, coupon_z0(), 10.0)
    ode_err = float(np.max(np.abs(traj.z.sum(axis=1) - 1.0)))

    n = 1000
    m = math.ceil(n * math.log(n))
    rng = np.random.default_rng(MASTER_SEED)
    draws = rng.integers(0, n, size=m)
    state = CouponState.fresh(n, l=10)
    integer_ok = True
    for t, draw in enumerate(draws, start=1):
        coupon_step(state, int(draw))
        if int(state.counts_of_counts.sum()) != n or int(state.per_type_counts.sum()) != t:
            integer_ok = False
            break
    report(3, "mass conserved (ODE grid) and count identities (every sim step)",
           ode_err <= 1e-10 and integer_ok,
           f"ODE max |sum-1| {ode_err:.3e} <= 1e-10; "
           f"integer identities hold over {m} steps at n={n}: {integer_ok}")


def test_04_increment_bound():
    runs = 100
    plan = RunPlan(n=1000, run_count=runs, master_seed=MASTER_SEED)
    observed = {max_increment(plan, i) for i in range(runs)}
    report(4, "one-step coordinate change equals 1 on every run",
           observed == {1},
           f"max increments over {runs} full runs at n=1000: {sorted(observed)}")


def test_05_drift_check_accepts_true_and_rejects_flipped():
    budget = 10.0
    start = time.perf_counter()
    plan = RunPlan(n=1000, run_count=1, master_seed=MASTER_SEED)
    spec = make_coupon_spec(10, plan.resolved_s_max())
    good = check_hypotheses(spec, plan, 50, drift_samples=10_000,
                            lipschitz_samples=1000)
    true_drift = coupon_drift(10)
    flipped_spec = ProcessSpec(
        drift=lambda s, z: -true_drift(s, z),
        increment_bound=1.0,
        domain=spec.domain,
        lipschitz_hint=1.0,
    )
    flipped = check_hypotheses(flipped_spec, plan, 50, drift_samples=10_000,
                               lipschitz_samples=1000)
    elapsed = time.perf_counter() - start
    ok = (good.drift.passed and good.drift.observed <= 5.0
          and not flipped.drift.passed and flipped.drift.observed > 5.0
          and elapsed < budget)
    report(5, "one-step means match drift (50 states x 10^4 samples)",
           ok,
           f"true drift worst |z| {good.drift.observed:.2f} <= 5; "
           f"sign-flipped worst |z| {flipped.drift.observed:.3g} > 5; "
           f"{elapsed:.2f}s < {budget:.0f}s")


def test_06_lipschitz_estimate_within_known_constant():
    est = estimate_lipschitz(make_coupon_spec(10, 4.0), 100_000, seed=MASTER_SEED)
    report(6, "drift Lipschitz estimate below 1 (L1 metric, 10^5 pairs)",
           est <= 1.0 + 1e-9,
           f"estimate {est:.6f} <= 1 + 1e-9")


def test_07_trajectories_concentrate_at_large_n():
    budget, tol = 30.0, 0.02
    start = time.perf_counter()
    plan = RunPlan(n=100_000, run_count=20, master_seed=MASTER_SEED,
                   truncation=10, s_max=4.0)
    ode = integrate(make_coupon_spec(10, 4.0), coupon_z0(), 4.0)
    sups = [sup_deviation(simulate(plan, i), ode, i).sup_deviation
            for i in range(plan.run_count)]
    elapsed = time.perf_counter() - start
    report(7, "all 20 sup-deviations small at n=10^5, s_max=4",
           max(sups) <= tol and elapsed < budget,
           f"max sup-dev {max(sups):.5f} <= {tol}, {elapsed:.2f}s < {budget:.0f}s")


def test_08_deviation_scales_like_inverse_sqrt_n():
    budget = 60.0
    start = time.perf_counter()
    rep = scaling_study([1000, 10_000, 100_000], 20, master_seed=MASTER_SEED)
    elapsed = time.perf_counter() - start
    means = [row.mean_sup_deviation for row in rep.rows]
    decreasing = means[0] > means[1] > means[2]
    report(8, "mean sup-deviation decays with n, fitted exponent near 1/2",
           0.35 <= rep.alpha <= 0.65 and decreasing and elapsed < budget,
           f"alpha {rep.alpha:.3f} in [0.35, 0.65]; means "
           f"{[f'{m:.4f}' for m in means]} strictly decreasing: {decreasing}; "
           f"{elapsed:.1f}s < {budget:.0f}s")


def test_09_cover_time_tail_matches_exact_oracle():
    budget = 120.0
    start = time.perf_counter()
    rep = gumbel_experiment(1000, 10_000, [-1.0, 0.0, 1.0, 2.0],
                            master_seed=MASTER_SEED)
    elapsed = time.perf_counter() - start
    worst_z = 0.0
    ok = elapsed < budget
    for row in rep.rows:
        z = abs(row.empirical - row.exact) / max(row.stderr, 1e-12)
        worst_z = max(worst_z, z)
        ok = ok and z <= 4.0
        # both closed-form reference curves are emitted, neither asserted
        ok = ok and 0.0 <= row.ref_paper <= 1.0 and 0.0 <= row.ref_classical <= 1.0
    report(9, "empirical P(T >= n ln n + cn) within 4 SE of exact oracle",
           ok,
           f"n=1000, 10^4 trials, c in [-1,2]: worst |z| {worst_z:.2f} <= 4; "
           f"{elapsed:.1f}s < {budget:.0f}s")


def test_10_small_n_cover_times_match_enumeration():
    trials = 100_000
    t2 = np.array([cover_time(2, derive_seed(MASTER_SEED, i)) for i in range(trials)])
    t3 = np.array([cover_time(3, derive_seed(2 * MASTER_SEED, i)) for i in range(trials)])
    p2 = float(np.mean(t2 >= 3))
    p3 = float(np.mean(t3 > 3))
    z2 = abs(p2 - 0.5) / math.sqrt(0.5 * 0.5 / trials)
    z3 = abs(p3 - 7 / 9) / math.sqrt((7 / 9) * (2 / 9) / trials)
    report(10, "cover-time tails at n=2,3 match enumeration (1/2 and 7/9)",
           z2 <= 4.0 and z3 <= 4.0,
           f"P(T>=3|n=2) {p2:.4f} (|z| {z2:.2f}); P(T>3|n=3) {p3:.4f} (|z| {z3:.2f}); "
           f"10^5 trials each, 4 SE limit")


def test_11_cli_output_is_byte_stable(tmp_path):
    commands = {
        "solve": ["solve", "--l", "4", "--s-max", "2"],
        "simulate": ["simulate", "--n", "60", "--runs", "2", "--seed", "5"],
        "compare": ["compare", "--n", "300", "--l", "4", "--s-max", "2", "--seed", "5"],
        "scaling": ["scaling", "--ns", "50,120", "--runs", "2", "--seed", "5",
                    "--l", "3", "--s-max", "1.5"],
        "gumbel": ["gumbel", "--n", "30", "--trials", "110", "--cs", "-1,0,1",
                   "--seed", "5"],
        "check": ["check", "--n", "120", "--runs", "2", "--seed", "5",
                  "--state-samples", "3", "--drift-samples", "300"],
    }
    stable = True
    detail = []
    for name, args in commands.items():
        dirs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            code = run_cli(args + ["--out", str(out)])
            stable = stable and code == 0
            dirs.append(out)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        same = files_a == files_b and all(
            (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files_a
        )
        stable = stable and same
        detail.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    report(11, "every CLI subcommand writes byte-identical files on rerun",
           stable, ", ".join(detail))
