"""End-to-end acceptance battery: one test (and one printed verdict line) per
check of ``verify.CHECKS``, each read from the desk run that criterion 11
makes through the CLI, plus the criteria below.  Run with
``pytest -v -s tests/test_acceptance.py`` to see the verdict lines alongside
the pytest status.  Each check's name, threshold, sizes and pass rule live in
``exitdom.verify`` alone.
"""

import filecmp
import json
import subprocess
import sys
import time
from unittest import mock

import pytest

from exitdom import verify
from exitdom.walk import WalkSpec, survival_at, survival_pmf

SEED = 20240817
THREADS = (1, 4)


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """The desk battery at SEED, run by the CLI at threads 1 and 4 side by side.

    Maps each thread count to (exit status, stderr, output directory).
    """
    root = tmp_path_factory.mktemp("desk")
    procs = {t: subprocess.Popen(
        [sys.executable, "-m", "exitdom.cli", "verify-all", "--profile", "desk",
         "--seed", str(SEED), "--threads", str(t), "--outdir", str(root / f"t{t}")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for t in THREADS}
    try:
        errs = {t: p.communicate(timeout=600)[1] for t, p in procs.items()}
    finally:
        for p in procs.values():
            p.kill()
            p.wait()
    return {t: (p.returncode, errs[t], root / f"t{t}") for t, p in procs.items()}


@pytest.fixture(scope="module")
def battery(desk_runs):
    """The threads-1 desk results, keyed by check name."""
    status, err, outdir = desk_runs[1]
    path = outdir / "verify_all.json"
    assert path.exists(), f"desk battery exited {status}: {err}"
    with open(path) as fh:
        return {r["name"]: r for r in json.load(fh)["results"]}


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.name)
def test_desk_check(battery, check):
    result = battery[check.name]
    assert result["threshold"] == check.threshold
    verdict(result["passed"], check.name, f"{result['value']} (require {check.threshold})")


def test_criterion_01_exact_discrete_dominance(battery):
    # the battery's check again, in process, against its 10 s budget
    desk = verify.SIZES[verify.DESK]
    start = time.perf_counter()
    result = verify.check_discrete_dominance_exact(desk["ks"], desk["horizon"])
    elapsed = time.perf_counter() - start
    assert result.value == battery[result.name]["value"]
    verdict(elapsed < 10.0, f"criterion-1 {result.name}", f"{elapsed:.2f}s (budget 10s)")


def test_criterion_06_donsker_crosscheck():
    # the battery reads the walk law from the closed form; the DP curve at
    # the desk half-width is its independent reference
    spec = WalkSpec(0.5, verify.SIZES[verify.DESK]["donsker_k"])
    steps = [int(t * spec.k * spec.k) for t in verify.DONSKER_TIMES]
    curve = survival_pmf(spec, max(steps))
    assert survival_at(spec, steps) == pytest.approx(
        [curve.values[n] for n in steps], rel=0, abs=1e-14)


# value strings of the battery's checks at SEED: a change that moves any of
# their digits shows here.  The coupled-SDE string is seeded Monte Carlo; it
# is deterministic at SEED on this platform (numpy's Philox normals and its
# float ufuncs), so it pins every bit of the coupled step's arithmetic.
DETERMINISTIC_VALUES = {
    "discrete-exact-dominance": "0 violations",
    "discrete-exit-independence": "float max dev 5.551115e-17, exact max dev 0",
    "discrete-girsanov-reweighting": "max |reweighted - direct| 2.553513e-15",
    "discrete-factorization-identity": "max deviation 2.775558e-16",
    "laplace-sech-identity": "max |cosh * integral - 1| 2.331468e-14",
    "donsker-series-crosscheck": "max |walk DP - series| 4.333627e-06",
    "continuous-analytic-dominance": "0 violations",
    "coupled-sde-ordering": "fraction 0.000000e+00 at dt=1e-3; hit law max |ECDF - law| "
                            "2.108191e-02, 1.996970e-02, 2.820449e-02 "
                            "against DKW half-width 6.164780e-02",
}


def test_criterion_11_deterministic_battery(desk_runs, battery):
    (status1, _, dir1), (status4, _, dir4) = desk_runs[1], desk_runs[4]
    same = all(filecmp.cmp(dir1 / f, dir4 / f, shallow=False)
               for f in ("verify_all.txt", "verify_all.json"))
    assert list(battery) == [check.name for check in verify.CHECKS]
    assert {name: battery[name]["value"] for name in DETERMINISTIC_VALUES} == \
        DETERMINISTIC_VALUES
    verdict(status1 == 0 and status4 == 0 and same,
            "criterion-11 deterministic-battery",
            f"desk battery exit codes {status1}/{status4} "
            f"(threads 1 vs 4), output files byte-identical: {same}")


def test_quick_battery_reaches_each_check_through_the_module(monkeypatch):
    # the benchmark's tracer times each check by rebinding verify.check_*,
    # so the battery must call the module's binding, once per record
    spies = [mock.Mock(wraps=check.function) for check in verify.CHECKS]
    for check, spy in zip(verify.CHECKS, spies):
        monkeypatch.setattr(verify, check.function.__name__, spy)
    results = verify.run_battery(verify.QUICK)
    assert [spy.call_count for spy in spies] == [1] * len(verify.CHECKS)
    assert [r.name for r in results] == [check.name for check in verify.CHECKS]
    assert all(r.passed for r in results)
    assert [r.threshold for r in results] == [check.threshold for check in verify.CHECKS]
