"""End-to-end acceptance battery: one test (and one printed verdict line) per
release criterion.  Run with ``pytest -v -s tests/test_acceptance.py`` to see
the verdict lines alongside the pytest status.

Criteria 1-10 are the ten checks of the desk battery, whose sizes,
thresholds and pass rules live in ``exitdom.verify`` alone.  Each reads its
entry from the desk run that criterion 11 makes through the CLI, so no check
is computed twice here.
"""

import filecmp
import json
import re
import subprocess
import sys
import time

import pytest

from exitdom import verify
from exitdom.walk import WalkSpec, survival_at, survival_pmf

SEED = 20240817
THREADS = (1, 4)


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def check_verdict(criterion: int, result: dict, ok: bool = True, note: str = "") -> None:
    verdict(result["passed"] and ok, f"criterion-{criterion} {result['name']}",
            f"{result['value']} (require {result['threshold']}){note}")


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


def test_criterion_01_exact_discrete_dominance(battery):
    # the battery's check again, in process, against its 10 s budget
    desk = verify.SIZES[verify.DESK]
    start = time.perf_counter()
    result = verify.check_discrete_dominance_exact(desk["ks"], desk["horizon"])
    elapsed = time.perf_counter() - start
    assert result.value == battery[result.name]["value"]
    check_verdict(1, battery[result.name], elapsed < 10.0,
                  f", {elapsed:.2f}s (budget 10s)")


def test_criterion_02_discrete_independence(battery):
    check_verdict(2, battery["discrete-exit-independence"])


def test_criterion_03_discrete_reweighting(battery):
    check_verdict(3, battery["discrete-girsanov-reweighting"])


def test_criterion_04_factorization_identity(battery):
    check_verdict(4, battery["discrete-factorization-identity"])


def test_criterion_05_sech_identity(battery):
    check_verdict(5, battery["laplace-sech-identity"])


def test_criterion_06_donsker_crosscheck(battery):
    # the battery reads the walk law from the closed form; the DP curve at
    # the desk half-width is its independent reference
    spec = WalkSpec(0.5, verify.SIZES[verify.DESK]["donsker_k"])
    steps = [int(t * spec.k * spec.k) for t in verify.DONSKER_TIMES]
    curve = survival_pmf(spec, max(steps))
    assert survival_at(spec, steps) == pytest.approx(
        [curve.values[n] for n in steps], rel=0, abs=1e-14)
    check_verdict(6, battery["donsker-series-crosscheck"])


def test_criterion_07_analytic_drift_scan(battery):
    check_verdict(7, battery["continuous-analytic-dominance"])


def test_criterion_08_mc_consistency(battery):
    check_verdict(8, battery["mc-survival-consistency"])


def test_criterion_09_continuous_independence(battery):
    check_verdict(9, battery["continuous-exit-independence"])


def test_criterion_10_coupled_sde_ordering(battery):
    check_verdict(10, battery["coupled-sde-ordering"])


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
    "coupled-sde-ordering": "fraction 5.496500e-04 at dt=1e-4; refinement "
                            "1.017500e-03 > 6.400000e-04 > 2.990625e-04",
}


def test_criterion_11_deterministic_battery(desk_runs, battery):
    (status1, _, dir1), (status4, _, dir4) = desk_runs[1], desk_runs[4]
    same = all(filecmp.cmp(dir1 / f, dir4 / f, shallow=False)
               for f in ("verify_all.txt", "verify_all.json"))
    assert {name: battery[name]["value"] for name in DETERMINISTIC_VALUES} == \
        DETERMINISTIC_VALUES
    verdict(status1 == 0 and status4 == 0 and same,
            "criterion-11 deterministic-battery",
            f"desk battery exit codes {status1}/{status4} "
            f"(threads 1 vs 4), output files byte-identical: {same}")


# the constants each check's pass rule reads
RULE_CONSTANTS = {
    "discrete-exact-dominance": ("MAX_VIOLATIONS",),
    "discrete-exit-independence": ("INDEPENDENCE_TOL",),
    "discrete-girsanov-reweighting": ("REWEIGHT_FLOOR",),
    "discrete-factorization-identity": ("FACTORIZATION_TOL",),
    "laplace-sech-identity": ("SECH_TOL",),
    "donsker-series-crosscheck": ("DONSKER_TOL",),
    "continuous-analytic-dominance": ("MAX_VIOLATIONS",),
    "mc-survival-consistency": ("CONSISTENCY_SE",),
    "continuous-exit-independence": ("INDEPENDENCE_ALPHA", "CONTROL_P_MAX"),
    "coupled-sde-ordering": ("COUPLED_TOL",),
}


def test_thresholds_state_the_constants_their_rules_read():
    # the threshold strings are literals, so a constant changed alone would
    # leave its check reporting the old value
    results = verify.run_battery(verify.QUICK)
    assert [r.name for r in results] == list(RULE_CONSTANTS)
    for r in results:
        stated = {float(x) for x in re.findall(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?",
                                               r.threshold)}
        for name in RULE_CONSTANTS[r.name]:
            assert getattr(verify, name) in stated, (r.name, name, r.threshold)
