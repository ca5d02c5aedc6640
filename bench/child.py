"""One measured repetition of a workload, in a fresh process.

Usage: ``python3 child.py SPEC`` where SPEC is a JSON file written by
``run.py``.  The child imports wormald from the checkout's ``src``, notes
the monotonic time at which it is ready, then runs the ops in order
through ``wormald.cli.run_cli`` in this process, one after the other.
It writes ``result.json`` next to SPEC: the ready time, the op loop's wall
time, each op's time and exit code, and the peak resident memory.  With
``trace`` set it installs the benchmark's wrappers for the op loop only,
removes them afterwards and writes the spans to ``spans.json``.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(spec_path: str) -> int:
    spec_file = Path(spec_path)
    spec = json.loads(spec_file.read_text())
    sys.path.insert(0, str(SRC))
    import numpy
    import wormald.cli
    if not Path(wormald.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported wormald from {wormald.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ready = time.monotonic()
    result = {"ready": ready, "numpy": numpy.__version__}
    if spec.get("setup_only"):
        (spec_file.parent / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("wormald")
    times, exits, errors = [], [], []
    start = time.perf_counter()
    cpu = time.process_time()
    for i, (argv, out) in enumerate(zip(spec["ops"], spec["outs"])):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            exits.append(wormald.cli.run_cli(argv + ["--out", out]))
            errors.append(None)
        except Exception:  # an op that raises is a failed op, not a failed run
            exits.append(None)
            errors.append(traceback.format_exc())
        times.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    result.update(wall_s=wall, cpu_s=cpu, op_s=times, exit=exits, error=errors,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    if tracer is not None:
        patched = tracer.patched
        tracer.restore()
        result["restored"] = all(getattr(m, k) is orig for m, k, orig in patched)
        (spec_file.parent / "spans.json").write_text(json.dumps(
            {"wall_s": wall, "spans": tracer.spans, "counts": tracer.counts}))
    (spec_file.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
