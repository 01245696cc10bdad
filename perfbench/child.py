"""Iterations of one workload in a fresh process.

Usage: python3 perfbench/child.py --workload NAME --seed N --trace 0|1
       --budget SECONDS --result PATH [--setup-only]

Set-up is importing exitdom and building the workload's inputs; the moment it
ends is reported as a CLOCK_MONOTONIC reading, so the parent can time it from
the moment it started this process.  With --setup-only the process stops
there.  Otherwise it runs the workload once, and again while one more
iteration still fits in the budget; each iteration is timed and checked.
With --trace 1 every second iteration is traced, and there are at least two.
Everything goes to PATH as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _iteration(wl, inputs, traced: bool) -> dict:
    tracer = tracing.Tracer() if traced else None
    restore = tracing.install(tracer) if traced else None
    workdir = tempfile.mkdtemp(dir=HERE / "runs")
    try:
        if tracer:
            root = tracer.open("workload", "bench")
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        outputs = wl.run(inputs, workdir)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer:
            tracer.close(root)
        checks, info = wl.check(inputs, outputs, workdir)
    finally:
        shutil.rmtree(workdir)
        if restore:
            restore()
    it = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "checks": checks, "info": info}
    if tracer:
        it["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, root)
    return it


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import exitdom
    import workloads

    if Path(exitdom.__file__).resolve().parent != ROOT / "src" / "exitdom":
        raise SystemExit(f"exitdom was imported from {exitdom.__file__}, not from this checkout")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    result = {"setup_done": time.monotonic(), "threads": wl.threads,
              "versions": {"exitdom": exitdom.__version__, "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}

    if not args.setup_only:
        # with tracing, untraced and traced iterations alternate, so that
        # both see the same changes in machine speed
        minimum = 2 if args.trace else 1
        iterations = []
        start = time.monotonic()
        longest = 0.0
        while (len(iterations) < minimum
               or time.monotonic() - start + longest <= args.budget):
            t0 = time.monotonic()
            traced = bool(args.trace) and len(iterations) % 2 == 1
            try:
                iterations.append(_iteration(wl, inputs, traced))
            except Exception:
                # a failing library call is a failed check, not a lost run
                traceback.print_exc()
                iterations.append({"traced": traced, "error": traceback.format_exc()})
                break
            longest = max(longest, time.monotonic() - t0)
        result["iterations"] = iterations
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
