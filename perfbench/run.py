"""Benchmark client for exitdom: runs one workload for a fixed time and reports.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run starts three fresh child processes (child.py) one after another: one
that only sets up, one that iterates the workload for the rest of the S
seconds, and one more that only sets up, for SETUP_SAMPLES set-up times.
Inside the iterating child the loop is closed: the next iteration starts
when the previous one ends, and only while it still fits; with --trace 1
untraced and traced iterations alternate.  All iterations of a run use the
inputs of seed N.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full run record, with
provenance and every check, goes to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_SAMPLES = 3
HARD_LIMIT_S = 170.0   # every child is killed before the run reaches this age


class ChildFailed(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Client:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.setup_samples: list[float] = []
        self._serial = 0

    def spawn(self, trace: int = 0, budget: float | None = None) -> dict:
        """Run child.py once and return its result, with setup_s filled in.

        Without a budget the child only sets up.
        """
        self._serial += 1
        result_path = RUNS / f"child-{os.getpid()}-{self._serial}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(trace),
               "--result", str(result_path)]
        cmd += ["--setup-only"] if budget is None else ["--budget", str(budget)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(HARD_LIMIT_S - self.elapsed(), 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if code is None:
            raise ChildFailed(f"timed out after {time.monotonic() - started:.0f} s")
        try:
            if code != 0:
                raise ChildFailed(f"exit status {code}")
            with open(result_path) as fh:
                result = json.load(fh)
        finally:
            result_path.unlink(missing_ok=True)
        result["setup_s"] = result["setup_done"] - started
        self.setup_samples.append(result["setup_s"])
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "exitdom" / "__init__.py").is_file():
        print(f"error: no exitdom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)

    client = Client(args.workload, args.seed)
    try:
        probe = client.spawn()
    except ChildFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    nproc = _nproc()
    if probe["threads"] > nproc:
        print(f"error: {args.workload} needs {probe['threads']} threads, "
              f"this machine has {nproc}", file=sys.stderr)
        return 2

    # each child still to start costs about one more set-up
    budget = args.seconds - client.elapsed() - (SETUP_SAMPLES - 1) * probe["setup_s"]
    try:
        res = client.spawn(args.trace, budget)
    except ChildFailed as exc:
        print(f"error: workload child failed: {exc}", file=sys.stderr)
        return 1
    iterations, checks = res["iterations"], []
    for index, it in enumerate(iterations):
        raised = {"name": "no-exception", "value": it.get("error"),
                  "threshold": "none raised", "passed": False, "gated": True}
        checks += [{"iteration": index, **c} for c in it.pop("checks", [raised])]
    while len(client.setup_samples) < SETUP_SAMPLES:
        try:
            client.spawn()
        except ChildFailed as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1

    plain = [it for it in iterations if "error" not in it and not it["traced"]]
    traced = [it for it in iterations if "error" not in it and it["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no iteration completed", file=sys.stderr)
        return 1

    if args.trace:
        wanted = spec["per_layer"]
        computed = {name: statistics.fmean(it["layers"][name] for it in traced)
                    for name in traced[0]["layers"]}
        computed["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                        - statistics.median(it["wall_s"] for it in plain))
        computed["process.cpu_s"] = statistics.median(it["cpu_s"] for it in plain)
    else:
        wanted = spec["end_to_end"]
        computed = {"wall_s": statistics.median(it["wall_s"] for it in plain),
                    "setup_s": statistics.median(client.setup_samples),
                    "peak_rss_mib": res["peak_rss_mib"]}
    names = [m["name"] for m in wanted]
    if set(names) != set(computed):
        print(f"error: metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(names) - set(computed))}, extra "
              f"{sorted(set(computed) - set(names))}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    gated = [c for c in checks if c["gated"]]
    failed = [c for c in gated if not c["passed"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "nproc": nproc, "cpu_model": _cpu_model(), "platform": platform.platform(),
            "python": platform.python_version(), **probe["versions"],
            "git_commit": _git_commit(), "seed": args.seed,
            "threads": probe["threads"]},
        "setup_samples_s": client.setup_samples,
        "peak_rss_mib": res["peak_rss_mib"],
        "iterations": iterations,
        "metrics": metrics,
        "output_digest": sorted({it["info"]["output_digest"] for it in plain + traced
                                 if "output_digest" in it["info"]}),
        "checks": checks,
    }
    record_path = RUNS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced iterations in {client.elapsed():.1f} s")
    for c in failed:
        print(f"  FAILED check {c['name']} (iteration {c['iteration']}): "
              f"{c['value']} against {c['threshold']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(gated),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
