"""Benchmark-side tracing of the wormald layers.

The program itself has no tracing.  :class:`Tracer` records spans from the
benchmark's own wrappers, which it installs around each layer's public
functions for the length of one traced run and then removes again.  A
span is ``[name, start, end, parent, op, draws, attrs]``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the index of the CLI
invocation it belongs to, ``draws`` the random values generated inside it
and ``attrs`` the work counts read from the call's arguments and result.

Functions called many thousand times per op (the coupon drift, the domain
test, seed derivation) are counted, not spanned, so their time stays in
the caller's span and tracing costs little.  Random draws are counted by a
proxy around every generator that ``make_generator`` returns.

:func:`self_times` and :func:`layer_metrics` turn the spans back into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("cli", "analysis", "montecarlo", "coupon", "ode", "process", "rng")

#: Per-layer metrics reported by a traced run, as (name, unit).
PER_LAYER = (
    ("montecarlo.simulate.calls", "count"),
    ("montecarlo.simulate.s", "s"),
    ("montecarlo.simulate.steps_per_s", "1/s"),
    ("montecarlo.simulate.grid_points", "count"),
    ("rng.streams", "count"),
    ("rng.draws", "count"),
    ("rng.draw_s", "s"),
    ("coupon.cover_time.calls", "count"),
    ("coupon.cover_time.s", "s"),
    ("coupon.cover_time.us_per_call", "us"),
    ("coupon.cover_time.draw_yield", "ratio"),
    ("coupon.exact_cover_tail.calls", "count"),
    ("coupon.exact_cover_tail.s", "s"),
    ("montecarlo.max_increment.calls", "count"),
    ("montecarlo.max_increment.s", "s"),
    ("montecarlo.max_increment.steps_per_s", "1/s"),
    ("montecarlo.pilot_states.s", "s"),
    ("montecarlo.pilot_states.snapshot_mb", "MB"),
    ("montecarlo.empirical_drift.calls", "count"),
    ("montecarlo.empirical_drift.s", "s"),
    ("process.estimate_lipschitz.s", "s"),
    ("process.estimate_lipschitz.pairs_per_s", "1/s"),
    ("coupon.drift.calls", "count"),
    ("ode.integrate.calls", "count"),
    ("ode.integrate.s", "s"),
    ("ode.rk4_steps", "count"),
    ("ode.rk4_step_us", "us"),
    ("process.in_domain.calls", "count"),
    ("cli.run_cli.calls", "count"),
    ("cli.bytes_written", "B"),
    ("cli.files_written", "count"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.wall_s", "s"),
    ("trace.outside_s", "s"),
    ("trace.overhead_s", "s"),
)


def _steps(args, result):
    return {"steps": args["plan"].resolved_horizon()}


def _simulate(args, result):
    return {"steps": args["plan"].resolved_horizon(), "grid_points": len(result)}


def _snapshots(args, result):
    # Bytes of every array each snapshot holds, whatever its fields are.
    return {"snapshot_bytes": sum(v.nbytes for state in result
                                  for v in vars(state).values() if hasattr(v, "nbytes"))}


def _pairs(args, result):
    return {"pairs": args["sample_count"]}


def _rk4(args, result):
    return {"rk4_steps": math.ceil(args["s_max"] / args["config"].h - 1e-9)}


def _cover(args, result):
    return {"result": int(result)}


#: Functions wrapped in spans, by layer, with the work counts read off each call.
SPANNED = {
    "cli": {"run_cli": None},
    "analysis": {"compare_run": None, "scaling_study": None,
                 "gumbel_experiment": None, "sup_deviation": None},
    "montecarlo": {"simulate": _simulate, "max_increment": _steps,
                   "pilot_states": _snapshots, "empirical_drift": None,
                   "check_hypotheses": None},
    "coupon": {"cover_time": _cover, "exact_cover_tail": None, "make_coupon_spec": None},
    "ode": {"integrate": _rk4, "grid_times": None},
    "process": {"estimate_lipschitz": _pairs},
    "rng": {"spawn": None},
}
#: High-frequency functions that are only counted.
COUNTED = {"process": ("in_domain",), "rng": ("derive_seed",)}


class _CountingGenerator:
    """Stands in for a numpy Generator; every sampling call is a span."""

    def __init__(self, tracer: "Tracer", gen):
        self._tracer = tracer
        self._gen = gen

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name.startswith("_") or name == "spawn" or not callable(attr):
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            tracer.draws += getattr(out, "size", 1)
            return out

        wrapped = tracer.span("rng.draw", draw)
        setattr(self, name, wrapped)
        return wrapped


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.draws = 0
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        sig = inspect.signature(fn) if attrs else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            draws = self.draws
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.op, self.draws - draws, {}]
            if attrs:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    spans[idx][6] = attrs(bound.arguments, result)
                except (AttributeError, KeyError, TypeError):
                    pass  # a changed signature leaves the counts at zero
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrappers(self, layer: str, module) -> dict:
        out = {}
        for attr, attrs in SPANNED.get(layer, {}).items():
            if hasattr(module, attr):
                out[attr] = self.span(f"{layer}.{attr}", getattr(module, attr), attrs)
        for attr in COUNTED.get(layer, ()):
            if hasattr(module, attr):
                out[attr] = self.counted(f"{layer}.{attr}", getattr(module, attr))
        if layer == "coupon" and hasattr(module, "coupon_drift"):
            factory = module.coupon_drift
            out["coupon_drift"] = functools.wraps(factory)(
                lambda *a, **k: self.counted("coupon.drift", factory(*a, **k)))
        if layer == "rng" and hasattr(module, "make_generator"):
            make = module.make_generator
            out["make_generator"] = self.span(
                "rng.make_generator",
                functools.wraps(make)(lambda *a, **k: _CountingGenerator(self, make(*a, **k))))
        return out

    def install(self, package: str = "wormald") -> None:
        """Replace each wrapped function wherever a ``package`` module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer in LAYERS:
            home = sys.modules.get(f"{package}.{layer}")
            if home is None:
                continue
            for attr, wrapper in self._wrappers(layer, home).items():
                original = getattr(home, attr)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def restore(self) -> None:
        """Put every original object back."""
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    @property
    def patched(self) -> list:
        return list(self._patched)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered = _union_length((max(k[1], start), min(k[2], end)) for k in kids)
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts, traced_wall: float, untraced_wall: float,
                  files_written: int, bytes_written: int) -> dict:
    """Per-layer metrics, as ``{name: value}`` in :data:`PER_LAYER` order."""
    calls: Counter = Counter()
    secs: Counter = Counter()
    draws: Counter = Counter()
    attrs: dict[str, Counter] = {}
    for name, start, end, _parent, _op, n_draws, extra in spans:
        calls[name] += 1
        secs[name] += end - start
        draws[name] += n_draws
        attrs.setdefault(name, Counter()).update(extra)
    selfs = Counter()
    for span, own in zip(spans, self_times(spans)):
        selfs[span[0].split(".")[0]] += own

    def attr(name, key):
        return attrs.get(name, Counter())[key]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    sim, cov, inc = "montecarlo.simulate", "coupon.cover_time", "montecarlo.max_increment"
    lip, ode = "process.estimate_lipschitz", "ode.integrate"
    rk4_steps = attr(ode, "rk4_steps")
    values = {
        "montecarlo.simulate.calls": calls[sim],
        "montecarlo.simulate.s": secs[sim],
        "montecarlo.simulate.steps_per_s": rate(attr(sim, "steps"), secs[sim]),
        "montecarlo.simulate.grid_points": attr(sim, "grid_points"),
        "rng.streams": calls["rng.make_generator"],
        "rng.draws": draws["rng.draw"],
        "rng.draw_s": secs["rng.draw"],
        "coupon.cover_time.calls": calls[cov],
        "coupon.cover_time.s": secs[cov],
        "coupon.cover_time.us_per_call": rate(secs[cov] * 1e6, calls[cov]),
        "coupon.cover_time.draw_yield": rate(attr(cov, "result"), draws[cov]),
        "coupon.exact_cover_tail.calls": calls["coupon.exact_cover_tail"],
        "coupon.exact_cover_tail.s": secs["coupon.exact_cover_tail"],
        "montecarlo.max_increment.calls": calls[inc],
        "montecarlo.max_increment.s": secs[inc],
        "montecarlo.max_increment.steps_per_s": rate(attr(inc, "steps"), secs[inc]),
        "montecarlo.pilot_states.s": secs["montecarlo.pilot_states"],
        "montecarlo.pilot_states.snapshot_mb":
            attr("montecarlo.pilot_states", "snapshot_bytes") / 1e6,
        "montecarlo.empirical_drift.calls": calls["montecarlo.empirical_drift"],
        "montecarlo.empirical_drift.s": secs["montecarlo.empirical_drift"],
        "process.estimate_lipschitz.s": secs[lip],
        "process.estimate_lipschitz.pairs_per_s": rate(attr(lip, "pairs"), secs[lip]),
        "coupon.drift.calls": counts.get("coupon.drift", 0),
        "ode.integrate.calls": calls[ode],
        "ode.integrate.s": secs[ode],
        "ode.rk4_steps": rk4_steps,
        "ode.rk4_step_us": rate(secs[ode] * 1e6, rk4_steps),
        "process.in_domain.calls": counts.get("process.in_domain", 0),
        "cli.run_cli.calls": calls["cli.run_cli"],
        "cli.bytes_written": bytes_written,
        "cli.files_written": files_written,
        **{f"{layer}.self_s": selfs[layer] for layer in LAYERS},
        "trace.wall_s": traced_wall,
        "trace.outside_s": traced_wall - sum(selfs.values()),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return {name: values[name] for name, _unit in PER_LAYER}
