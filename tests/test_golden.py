"""Golden digests: CLI output bytes stay the same from one commit to the next.

Acceptance 11 checks that a rerun writes the same bytes; this test pins the
sha256 of the data files themselves, so a change to the simulation kernel,
the ODE engine or the analysis layer that moves any output byte shows up
here.  The digests were recorded with the chain advanced by one full-horizon
draw array and a per-grid-point bincount, before the streaming kernel
replaced it, with numpy 2.4 (numpy's ``Generator`` makes no cross-version
stream guarantee).  The ``*_blocks`` cases run at n = 2e4 and 3e4, where
the horizon spans many blocks of the stream, each drawn in one call.  Their
``trajectory.csv`` and ``compare_blocks``' ``deviation.csv`` were
re-recorded when the kernel dropped its per-type counts and began to label
the types canonically from the bucket row at the start of every block of
16,384 draws: the same law, but types are relabelled after the first
block, so the rows from the second block on come from new samples.  Their
manifests and ``ode.csv`` kept their bytes, as did every case whose run
fits in one block (``simulate_small``, ``compare``, ``scaling``, ``check``
and the config-file case).

The ``gumbel`` digests were recorded with the tail oracle summed in
50-digit decimal arithmetic; its c = -4 row takes the oracle's shortcut to
1, so its ``exact`` cell reads ``1``.  ``gumbel.csv`` was re-recorded when
every geometric wait of a cover time began to be inverted from one
standard exponential, ceil(E / -log1p(-p)), instead of the waits with
p >= 1/3 being searched against partial sums of one uniform as numpy 2.4's
``Generator.geometric`` does: the same law from other draws, so the
empirical tail and its standard error moved in the c = -1, 0 and 2 rows.
The exact and reference columns, and the manifest, did not move.

The ``check`` digest pins ``check.json`` (the three hypothesis verdicts); it
was recorded with the Lipschitz estimator still looping over point pairs one
drift call at a time, before it evaluated all pairs in one batched call.  It
was re-recorded when the drift check began to floor every coordinate's
sampled variance at the integer-increment minimum |mu| - mu^2, not only a
zero one: a low-count coordinate's sampled variance had been below it.  Only
the drift entry moved (worst |z| 3.0246 at t = 13961 -> 2.6003 at t =
10859); the increment and Lipschitz entries and the manifest kept their
bytes.  It was re-recorded again when the pilot run began to walk the chain
with the same grouping as every other run and to label each state's types
canonically from its bucket row (bucket ``b`` holds the types ``[C[b-1],
C[b])``, ``C`` the row's cumulative sum), where it had carried each type's
own count.  The pilot's rows, and so every state's description, kept their
values; the drift check's 10,000 draws per state land on relabelled types,
which is the same one-step law with new samples.  Only the drift entry
moved (worst |z| 2.6003 at t = 10859 -> 3.3349 at t = 6515); the manifest
kept its bytes.  When pilot states became bare bucket rows, and the drift
check began to count each bucket's draws by binary searches into the
sorted draws instead of a gather through that labelling, the digest kept
its bytes: the counts are the same integers.

The ``solve`` case, every ``manifest.json`` digest and the config-file case
were recorded before the CLI took its defaults from the flags and parsed
config files as flag text, and before ``compare`` went through
``compare_run``.  A manifest is pinned with its ``versions`` entry removed
(it records library versions), re-serialised the way the CLI writes it.

The digests of the files that hold ODE values (``solve``'s ``ode.csv``;
``compare``'s and ``compare_blocks``' ``ode.csv``, ``deviation.csv`` and
``manifest.json``; ``scaling``'s ``scaling.csv`` and ``manifest.json``) were
re-recorded when the coupon ODE began to be stepped by its RK4 matrix
``R(hA)^m`` instead of by drift calls: the ODE values moved by at most
~3e-15 (2.9e-15 on ``coupon_reference(10, 4.0)``), and no other digest moved.

The ``solve_tail`` case has its horizon off the ``h`` grid: 137 full steps
reach s = 1.37, a partial stride of 2 steps follows the last emitted
multiple of 0.03, and one 0.005 step lands on s_max, so it is the one case
that reaches the shortened RK4 step (``R(h'A)`` on the coupon system).  It
was recorded while the coupon spec still declared its matrix ``A`` beside
its drift, before ``integrate`` began to read ``A`` off the drift, to pin
that the change moved no byte.
"""

import hashlib
import json

import pytest

from wormald.cli import run_cli

GOLDEN = {
    "solve": (
        ["solve", "--l", "3", "--s-max", "1.5", "--h", "0.01", "--grid-stride", "3"],
        {
            "manifest.json": "95bc94e0351e40ca595799b9c09a13b785d0a95c32d769c17855d338d5e08043",
            "ode.csv": "86ef42b842037a8380cc1847ce6e7b8f34faa3bf22f6aa33c16245e511c5914f",
        },
    ),
    "solve_tail": (
        ["solve", "--l", "3", "--s-max", "1.375", "--h", "0.01", "--grid-stride", "3"],
        {
            "manifest.json": "cc8ec5eae87c9fdef8b3fecda4d42f5334b243cdd416306165ff76d5abff6963",
            "ode.csv": "3c5c30a6cb4ff1cbfc52e6c25f97cfeb73cd58d90e220b0888bd05d39d3d1885",
        },
    ),
    "simulate_small": (
        ["simulate", "--n", "60", "--runs", "2", "--seed", "5"],
        {
            "manifest.json": "6ee6e9810b1e0cf6532e988945e7514c8e92fd433f7ac765384f28ac38b289b0",
            "trajectory_000.csv": "136fb3a9e4a86b3d34602c80a8fb93e6b23edb384c4e452038031d2675849b57",
            "trajectory_001.csv": "a4882f4e50038400416bfa5b07062113837afa2356eb0e3dff9bbd56562790e5",
        },
    ),
    "simulate_blocks": (
        ["simulate", "--n", "20000", "--seed", "9", "--l", "6"],
        {
            "manifest.json": "14bddd7a07585820d4e821d00050c823a3cc06114ac03fba6c78780d5ee52856",
            "trajectory.csv": "1007f9787e707e60033f7368d17897a3e5d2f786db069977ea9a7ff6ac416aa5",
        },
    ),
    "check": (
        ["check", "--n", "2000", "--runs", "2", "--seed", "5"],
        {
            "check.json": "6bd8274d01a9653fd955d13830ad933376436f66dfc17b1b06bb0ac6f9b52828",
            "manifest.json": "673ac1ace59eb6c7eb3c32e9350f8a8587b319eca783d38be49d0f2b370338f6",
        },
    ),
    "compare": (
        ["compare", "--n", "300", "--l", "4", "--s-max", "2", "--seed", "5"],
        {
            "deviation.csv": "29ca76a3b806392820baae0a5fab5bb3f46f87ebcb4bc384ae876fc2be87f782",
            "manifest.json": "a0ad44ca7259d66ea8f94d28ee38dfc2243a75d48ee06660ef2d17ab1322d1e7",
            "ode.csv": "6810f0dc58e8887905ac5ecbbc80a6b189676f4caa8621abdcedf972ec5ca01b",
            "trajectory.csv": "b16876883b0b869d67fb0102c7dfc25aa29781040c71ff955ae5cb2428dadc83",
        },
    ),
    "compare_blocks": (
        ["compare", "--n", "30000", "--seed", "3"],
        {
            "deviation.csv": "8b003d390f19bf721008db71b121b971f3ce8008a06bfa130a4c10ecce18cdc9",
            "manifest.json": "4c1331fc99e759c30500e293c0991bccf4997ef058fab1e4862dbfda3bbf0fa7",
            "ode.csv": "ba53688c52465590b3e0a8b555bc10dfd4969f448154f3d4f53206e8d466d8fd",
            "trajectory.csv": "cfd84c3b965e3dd026bf9beb19f539453d627ed0520aefdf3aa2527c9e95cbe7",
        },
    ),
    "gumbel": (
        ["gumbel", "--n", "1000", "--trials", "200", "--cs", "-4,-1,0,1,2", "--seed", "5"],
        {
            "gumbel.csv": "60e827a9980f245d372e60bfac96c3d2f0358ed652804c212fb25b34389eb487",
            "manifest.json": "7baca23e01ab11e4ce57feb1c37dfff06db70d7982c9e604bfb895ee2e595ad7",
        },
    ),
    "scaling": (
        ["scaling", "--ns", "50,120,2000", "--runs", "3", "--seed", "5",
         "--l", "3", "--s-max", "1.5"],
        {
            "manifest.json": "d752280c1c60253e16b8a36b6130784fa8b24056ab6cb2cb0be6166373b26953",
            "scaling.csv": "69895154f467a06c88c0b4e8c930662740dcd607f6537d1e2a6b9e84cbe1f4e4",
        },
    ),
}


CONFIG_CASE = (
    {"n": 1e3, "runs": 2, "seed": 9, "s_max": 1, "h": 0.01},
    ["--runs", "1"],
    {
        "manifest.json": "946c187e6a52a6f48c52705ce88d38bf9fd4e32dd07e061684b6557b02d20194",
        "trajectory.csv": "72ff84097c03954b199a72b81d3877a91ccecb8d30dad55f6e2ca012d8ca2409",
    },
)


def _digests(out_dir):
    written = {}
    for p in out_dir.iterdir():
        data = p.read_bytes()
        if p.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("versions")
            data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        written[p.name] = hashlib.sha256(data).hexdigest()
    return written


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_matches_golden_digest(case, tmp_path):
    args, digests = GOLDEN[case]
    assert run_cli(args + ["--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == digests


def test_config_file_output_matches_golden_digest(tmp_path):
    values, flags, digests = CONFIG_CASE
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", str(cfg)] + flags + ["--out", str(out)]) == 0
    assert _digests(out) == digests
