"""Tests of the benchmark's own arithmetic and wrappers.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(name, start, end, parent, draws=0, attrs=None):
    return [name, start, end, parent, 0, draws, attrs or {}]


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("cli.run_cli", 0.0, 10.0, -1),
        _span("analysis.compare_run", 1.0, 9.0, 0),
        _span("montecarlo.simulate", 2.0, 5.0, 1),
        _span("ode.integrate", 6.0, 8.0, 1),
        _span("rng.draw", 2.5, 3.0, 2),
        # A child reaching past its parent only counts inside the parent.
        _span("rng.draw", 7.5, 8.5, 3),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 2.5, 1.5, 0.5, 1.0])


def test_overlapping_children_are_covered_once():
    spans = [_span("cli.run_cli", 0.0, 10.0, -1),
             _span("rng.draw", 1.0, 4.0, 0), _span("rng.draw", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_module_self_times_and_outside_time_add_up_to_wall():
    spans = [
        _span("cli.run_cli", 0.5, 4.0, -1),
        _span("montecarlo.simulate", 1.0, 3.0, 0, draws=100, attrs={"steps": 100}),
        _span("rng.draw", 1.5, 2.0, 1, draws=100),
        _span("cli.run_cli", 4.5, 6.0, -1),
    ]
    metrics = layer_metrics(spans, {}, traced_wall=6.25, untraced_wall=6.0,
                            files_written=0, bytes_written=0)
    assert list(metrics) == [name for name, _unit in PER_LAYER]
    selfs = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    assert selfs["cli"] == pytest.approx(3.0)
    assert selfs["montecarlo"] == pytest.approx(1.5)
    assert selfs["rng"] == pytest.approx(0.5)
    assert metrics["trace.outside_s"] == pytest.approx(1.25)
    assert sum(selfs.values()) + metrics["trace.outside_s"] == pytest.approx(6.25)
    assert metrics["trace.overhead_s"] == pytest.approx(0.25)
    assert metrics["montecarlo.simulate.steps_per_s"] == pytest.approx(50.0)
    assert metrics["rng.draws"] == 100


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    import wormald
    import wormald.cli

    tracer = Tracer()
    tracer.install("wormald")
    patched = tracer.patched
    try:
        assert wormald.cli.run_cli(["solve", "--s-max", "0.5", "--out", str(tmp_path / "a")]) == 0
        assert wormald.cli.run_cli(["gumbel", "--n", "10", "--trials", "100",
                                    "--out", str(tmp_path / "b")]) == 0
    finally:
        tracer.restore()
    wrapped = {(m.__name__, k) for m, k, _orig in patched}
    assert {("wormald.cli", "run_cli"), ("wormald.analysis", "cover_time"),
            ("wormald.coupon", "make_generator"), ("wormald", "simulate")} <= wrapped
    assert all(getattr(m, k) is orig for m, k, orig in patched)
    assert not tracer.patched
    names = {span[0] for span in tracer.spans}
    assert {"cli.run_cli", "ode.integrate", "coupon.cover_time", "rng.draw"} <= names
    assert tracer.counts["coupon.drift"] > 0
    json.dumps(tracer.spans)  # spans are written out as JSON


def test_cover_tail_matches_enumeration_at_small_n():
    # P(T > k) for n=2 is 2^(1-k) for k >= 1; for n=3 it is
    # 1 - P(all three seen in k draws) = 1 - (3^k - 3*2^k + 3) / 3^k.
    for k in range(1, 12):
        assert checks.cover_tail(2, k) == pytest.approx(2.0 ** (1 - k))
        assert checks.cover_tail(3, k) == pytest.approx((3 * 2**k - 3) / 3**k)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w for w in WORKLOADS if w != "small_n"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])


def test_chain_steps_come_from_the_flags():
    (op,) = WORKLOADS["hypotheses"].ops(7)
    assert op.chain_steps == 4 * math.ceil(100_000 * math.log(100_000))
    assert WORKLOADS["small_n"].ops(3)[1].argv == ("compare", "--n", "1000", "--seed", "3")
