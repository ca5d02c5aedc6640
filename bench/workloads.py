"""The benchmark's workloads: the CLI invocations each one runs.

One op is one ``wormald.cli.run_cli`` call.  Every op carries the number
of coupon-collector steps it represents, computed from its flags alone so
that it is the same on every commit:

* simulated runs count runs x ceil(n * s_max);
* replayed runs (``check``) count runs x the horizon ceil(n ln n);
* cover-time trials count trials x n * H_n, the expected cover time.

``params`` holds the values the correctness checks need, with the CLI's
defaults filled in for flags the op leaves out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

#: CLI default horizon of ``solve``, ``compare`` and ``scaling``.
S_MAX = 4.0
#: CLI default truncation level.
L = 10
CS = "-1,0,1,2"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    chain_steps: float
    params: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    why: str
    ops: Callable[[int], list[Op]]


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


def solve() -> Op:
    return Op(("solve",), 0.0, {"l": L})


def compare(n: int, seed: int) -> Op:
    return Op(("compare", "--n", str(n), "--seed", str(seed)),
              float(math.ceil(n * S_MAX)), {"n": n})


def scaling(ns: tuple[int, ...], runs: int, seed: int) -> Op:
    argv = ("scaling", "--ns", ",".join(map(str, ns)), "--runs", str(runs), "--seed", str(seed))
    return Op(argv, float(sum(runs * math.ceil(n * S_MAX) for n in ns)))


def gumbel(n: int, trials: int, seed: int) -> Op:
    argv = ("gumbel", "--n", str(n), "--trials", str(trials), "--cs", CS, "--seed", str(seed))
    return Op(argv, trials * n * _harmonic(n), {"n": n, "trials": trials})


def check(n: int, runs: int, seed: int) -> Op:
    argv = ("check", "--n", str(n), "--runs", str(runs), "--seed", str(seed))
    return Op(argv, float(runs * math.ceil(n * math.log(n))))


# Each workload stresses different layers; the comment above each names the
# layer that dominates it and the planned optimisation it exercises.
WORKLOADS = {
    # montecarlo.simulate's per-grid-point bincount sweep is >85% of wall at
    # n=1e6; the working set runs from cache-resident (n=1e3) to 40 MB.
    "concentration": Workload(
        why="compare at n=1e6 then scaling over n=1e3..1e5: simulate's O(G*n) "
            "bincount sweep dominates, working set from cache-sized to 40 MB",
        ops=lambda s: [compare(1_000_000, s), scaling((1000, 10_000, 100_000), 20, s)],
    ),
    # coupon.cover_time is ~95% of wall; n=5000 lies above the exact-oracle
    # cap, so only this workload pays if the cap goes.
    "threshold": Workload(
        why="gumbel tails at n=1000 and n=5000: per-trial cover_time sampling "
            "dominates; n=5000 is above the exact-oracle cap",
        ops=lambda s: [gumbel(1000, 2000, s), gumbel(5000, 100, s)],
    ),
    # Replay paths only: max_increment, estimate_lipschitz, pilot_states and
    # empirical_drift.  Its drift check fails on a known defect at this n.
    "hypotheses": Workload(
        why="check at n=1e5: replay paths (max_increment argsort, Lipschitz "
            "pair loop, pilot snapshots, drift sampling); peak RSS from snapshots",
        ops=lambda s: [check(100_000, 4, s)],
    ),
    # Fixed per-call costs: RK4 loop, per-grid-point simulate overhead,
    # cover_time set-up and CLI formatting, each about a quarter of wall.
    # Not listed in BENCHMARK.json: this interpreter-bound workload follows
    # the CPU speed of a shared host most closely, and on a 2-core shared
    # VM its run-to-run spread (IQR/median 0.18-0.45 over ten seeds) went
    # past the largest regression bound allowed (0.25).  Run it by name.
    "small_n": Workload(
        why="solve, five compares and scaling at n<=1000, gumbel at n=10: fixed "
            "per-call costs (RK4 loop, per-grid-point overhead, cover_time set-up, CLI)",
        ops=lambda s: ([solve()] + [compare(1000, s + i) for i in range(5)]
                       + [scaling((100, 1000), 50, s), gumbel(10, 20_000, s)]),
    ),
}
