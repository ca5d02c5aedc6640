"""Golden digests: CLI output bytes stay the same from one commit to the next.

Acceptance 11 checks that a rerun writes the same bytes; this test pins the
sha256 of the data files themselves, so a change to the simulation kernel,
the ODE engine or the analysis layer that moves any output byte shows up
here.  The digests were recorded with the chain advanced by one full-horizon
draw array and a per-grid-point bincount, before the streaming kernel
replaced it, with numpy 2.4 (numpy's ``Generator`` makes no cross-version
stream guarantee).  The ``*_blocks`` cases run at n = 2e4 and 3e4, where
the horizon spans many groups of grid intervals, each drawn in one call.

The ``gumbel`` digests were recorded with cover times sampled as sums of n
geometric waits and the tail oracle summed in 50-digit decimal arithmetic;
its c = -4 row takes the oracle's shortcut to 1, so its ``exact`` cell
reads ``1``.

The ``check`` digest pins ``check.json`` (the three hypothesis verdicts); it
was recorded with the Lipschitz estimator still looping over point pairs one
drift call at a time, before it evaluated all pairs in one batched call.

The ``solve`` case, every ``manifest.json`` digest and the config-file case
were recorded before the CLI took its defaults from the flags and parsed
config files as flag text, and before ``compare`` went through
``compare_run``.  A manifest is pinned with its ``versions`` entry removed
(it records library versions), re-serialised the way the CLI writes it.
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
            "ode.csv": "a175f024650d1a6abde78bfb0faabeb9822890fe8dc4816500c25dee9685ec01",
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
            "trajectory.csv": "9b877f5cb62b9bd6a4c0a175a6c1d0e18257714cd624ce5745d092057186c3ed",
        },
    ),
    "check": (
        ["check", "--n", "2000", "--runs", "2", "--seed", "5"],
        {
            "check.json": "2a4c780d3b04e525f26924ee355404d131e701ee2c4a8b6d43d8e965936bf026",
            "manifest.json": "673ac1ace59eb6c7eb3c32e9350f8a8587b319eca783d38be49d0f2b370338f6",
        },
    ),
    "compare": (
        ["compare", "--n", "300", "--l", "4", "--s-max", "2", "--seed", "5"],
        {
            "deviation.csv": "b0fbb5a0700dae47d0325c3379eea6962fd65c56a697c41db01d90b4f92fd830",
            "manifest.json": "d6ada439c9516078ccd6bcedc3523e8d1a5ff02a85aad37d12dfcc80161c98a4",
            "ode.csv": "380114960d471cc9807ed86f352c29de3f46cef0c71bcd57e1a9dce0cff80621",
            "trajectory.csv": "b16876883b0b869d67fb0102c7dfc25aa29781040c71ff955ae5cb2428dadc83",
        },
    ),
    "compare_blocks": (
        ["compare", "--n", "30000", "--seed", "3"],
        {
            "deviation.csv": "c2db6b4c94439314265c846db98400105dfcd72727979ff9c1d3f358a96e42de",
            "manifest.json": "e93ec181854b6d04f7f8084005704122551df7848884c211e82768a365046a27",
            "ode.csv": "f8beec584c415cb70da419761088fa8834ffc54891b831ddaab63dc18da7103e",
            "trajectory.csv": "2df3ed4941b53283e1690f162804b85c779cf7078a90d17696db613d07987666",
        },
    ),
    "gumbel": (
        ["gumbel", "--n", "1000", "--trials", "200", "--cs", "-4,-1,0,1,2", "--seed", "5"],
        {
            "gumbel.csv": "f1c53dcfb2f3c64b1e00a53dea9ad7fcf032e952f7bd857625cb40912a0a90dd",
            "manifest.json": "7baca23e01ab11e4ce57feb1c37dfff06db70d7982c9e604bfb895ee2e595ad7",
        },
    ),
    "scaling": (
        ["scaling", "--ns", "50,120,2000", "--runs", "3", "--seed", "5",
         "--l", "3", "--s-max", "1.5"],
        {
            "manifest.json": "158e366fb295aa884bd7b0e31b3b893bf5fe9cc6ba7c8be804208c7f3e67b0e0",
            "scaling.csv": "79ee2a4467f8157ca4164d1f8ed64f4de0d8533ef5c6ab17e04da944cfc0dcd2",
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
