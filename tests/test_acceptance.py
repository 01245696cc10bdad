"""End-to-end acceptance battery: one test (and one printed verdict line) per
release criterion.  Run with ``pytest -v -s tests/test_acceptance.py`` to see
the verdict lines alongside the pytest status.
"""

import filecmp
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import exitdom as ed
from exitdom import dominance, walk_girsanov
from exitdom.bm import DriftSpec
from exitdom.mc import RngStreamSpec
from exitdom.walk import MODE_FLOAT, MODE_RATIONAL, WalkSpec

SEED = 20240817


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def mc_samples0():
    return ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 1e-3, 30.0, 100_000,
                               RngStreamSpec(SEED, 1))


@pytest.fixture(scope="module")
def mc_samples1():
    return ed.simulate_exit_bm(DriftSpec(1.0, 1.0), 1e-3, 30.0, 100_000,
                               RngStreamSpec(SEED, 2))


def test_criterion_01_exact_discrete_dominance():
    # adjacent-pair survival dominance, exact arithmetic, zero tolerance
    start = time.perf_counter()
    ps = [Fraction(1, 2) + Fraction(i, 20) for i in range(10)]
    violations = 0
    for k in (1, 2, 3, 4):
        rep = ed.dominance_scan_discrete(ps, k, 200, MODE_RATIONAL)
        violations += rep.n_violations
    elapsed = time.perf_counter() - start
    verdict(violations == 0 and elapsed < 10.0,
            "criterion-1 exact-dominance",
            f"{violations} violations over k<=4, 10 biases, horizon 200, "
            f"exact arithmetic, {elapsed:.2f}s (budget 10s)")


def test_criterion_02_discrete_independence():
    worst_f = 0.0
    for k in (1, 2, 3, 4):
        for p in (0.6, 0.7, 0.8, 0.9):
            worst_f = max(worst_f, float(
                walk_girsanov.check_independence_discrete(p, k, 400, MODE_FLOAT)))
    worst_x = Fraction(0)
    for k in (1, 2, 3):
        for p in ("3/5", "7/10", "4/5", "9/10"):
            worst_x = max(worst_x, walk_girsanov.check_independence_discrete(
                p, k, 60, MODE_RATIONAL))
    verdict(worst_f <= 1e-12 and worst_x == 0,
            "criterion-2 discrete-independence",
            f"float max deviation {worst_f:.3e} (require <= 1e-12), "
            f"exact max deviation {worst_x} (require 0)")


def test_criterion_03_discrete_reweighting():
    ps = (0.5, 0.6, 0.7, 0.8, 0.9)
    worst_excess = -math.inf
    worst_diff = 0.0
    for k in (1, 2, 3, 4):
        for p1 in ps:
            for p2 in ps:
                if p1 == p2:
                    continue
                for n in (0, 10, 50, 100):
                    est, bound = ed.reweighted_survival_walk(p1, p2, k, n, 600)
                    direct = ed.survival_pmf(WalkSpec(p2, k), n).values[n]
                    diff = abs(est - direct)
                    worst_diff = max(worst_diff, diff)
                    worst_excess = max(worst_excess, diff - max(bound, 1e-10))
    verdict(worst_excess <= 0.0,
            "criterion-3 discrete-reweighting",
            f"max |reweighted - direct| {worst_diff:.3e}, within "
            f"max(tail bound, 1e-10) on the full (p1,p2,k<=4,n<=100) grid")


def test_criterion_04_factorization_identity():
    ps = (0.5, 0.6, 0.7, 0.8, 0.9)
    worst = 0.0
    for k in (1, 2, 3, 4):
        for i, p1 in enumerate(ps):
            for p2 in ps[i + 1:]:
                for n in (0, 10, 50, 100):
                    worst = max(worst, ed.factorization_check_discrete(
                        p1, p2, k, n, 600))
    verdict(worst <= 1e-10,
            "criterion-4 factorization-identity",
            f"max deviation {worst:.3e} (require <= 1e-10)")


def test_criterion_05_sech_identity():
    worst = 0.0
    for lam in (0.0, 0.5, 1.0, 2.0, 3.0):
        for b in (0.5, 1.0, 2.0):
            val, _ = ed.drifted_survival_quad(DriftSpec(lam, b), 0.0)
            worst = max(worst, abs(val - 1.0))
    verdict(worst <= 1e-6,
            "criterion-5 sech-identity",
            f"max |cosh(lam b) * E[exp(-lam^2 tau / 2)] - 1| = {worst:.3e} "
            f"(require <= 1e-6)")


def test_criterion_06_donsker_crosscheck():
    k = 400
    times = (0.25, 0.5, 1.0, 2.0)
    curve = ed.survival_pmf(WalkSpec(0.5, k), int(max(times) * k * k))
    worst = max(abs(curve.values[int(t * k * k)] - ed.driftless_survival(1.0, t))
                for t in times)
    # the battery reads these four values from the closed form; the DP is
    # its independent reference
    steps = [int(t * k * k) for t in times]
    assert ed.survival_at(WalkSpec(0.5, k), steps) == pytest.approx(
        [curve.values[n] for n in steps], rel=0, abs=1e-14)
    verdict(worst <= 2e-3,
            "criterion-6 donsker-crosscheck",
            f"max |walk DP (k=400) - eigenseries| = {worst:.3e} (require <= 2e-3)")


def test_criterion_07_analytic_drift_scan():
    lambdas = [0.25 * i for i in range(9)]
    rep = ed.dominance_scan_continuous(lambdas, 1.0, (0.25, 0.5, 1.0, 2.0),
                                       tie_tol=1e-8)
    verdict(rep.n_violations == 0,
            "criterion-7 analytic-drift-scan",
            f"{rep.n_violations} violations across lambda 0..2 step 0.25, b=1 "
            f"(tie tolerance 1e-8)")


def test_criterion_08_mc_consistency(mc_samples0, mc_samples1):
    start = time.perf_counter()
    msgs = []
    ok = True
    et = mc_samples0.exit_times()
    se = et.std(ddof=1) / math.sqrt(et.size)
    dev = abs(et.mean() - 1.0)
    ok &= dev <= 3 * se
    msgs.append(f"E[tau] dev {dev:.2e} <= 3se {3 * se:.2e}")
    for s, lam in ((mc_samples0, 0.0), (mc_samples1, 1.0)):
        for t in (0.5, 1.0):
            an = ed.drifted_survival(DriftSpec(lam, 1.0), t)
            se = math.sqrt(an * (1 - an) / s.n)
            dev = abs(s.empirical_survival(t) - an)
            ok &= dev <= 3 * se
            msgs.append(f"lam={lam} t={t} dev {dev:.2e} <= 3se {3 * se:.2e}")
    elapsed = time.perf_counter() - start
    verdict(bool(ok), "criterion-8 mc-consistency",
            "; ".join(msgs) + f" (checks {elapsed:.1f}s after shared simulation)")


def test_criterion_09_continuous_independence(mc_samples1):
    res = ed.check_independence_continuous(mc_samples1, time_bins=10)
    control = ed.ExitSamples(mc_samples1.spec, mc_samples1.dt, mc_samples1.horizon,
                             mc_samples1.times.copy(), mc_samples1.sides.copy(),
                             mc_samples1.terminal.copy())
    nc = control.sides != 0
    med = np.median(control.times[nc])
    control.sides[nc] = np.where(control.times[nc] > med, 1, -1).astype(np.int8)
    res_bad = ed.check_independence_continuous(control, time_bins=10)
    verdict(res.p_value >= 1e-3 and res_bad.p_value < 1e-6,
            "criterion-9 continuous-independence",
            f"chi-square p = {res.p_value:.4g} (require >= 1e-3); "
            f"engineered-dependence control p = {res_bad.p_value:.3g} "
            f"(require < 1e-6)")


def test_criterion_10_coupled_sde_ordering():
    lambdas = [0.0, 0.5, 1.0]
    rng = RngStreamSpec(SEED, 3)
    main = ed.simulate_y_coupled(lambdas, 0.0, 1e-4, 1.0, 1000, rng)
    fracs = [ed.simulate_y_coupled(lambdas, 0.0, dt, 1.0, 1000, rng)
             .violation_fraction for dt in (1e-3, 2.5e-4, 6.25e-5)]
    decreasing = fracs[0] > fracs[1] > fracs[2]
    verdict(main.violation_fraction <= 1e-3 and decreasing,
            "criterion-10 coupled-sde-ordering",
            f"violation fraction {main.violation_fraction:.3e} at dt=1e-4 "
            f"(require <= 1e-3); refinement "
            f"{fracs[0]:.3e} > {fracs[1]:.3e} > {fracs[2]:.3e} "
            f"({'strictly decreasing' if decreasing else 'NOT decreasing'})")


# value strings of the battery's non-Monte-Carlo checks at SEED: a change
# that moves any of their digits shows here
DETERMINISTIC_VALUES = {
    "discrete-exact-dominance": "0 violations",
    "discrete-exit-independence": "float max dev 5.551115e-17, exact max dev 0",
    "discrete-girsanov-reweighting": "max |reweighted - direct| 2.553513e-15",
    "discrete-factorization-identity": "max deviation 2.775558e-16",
    "laplace-sech-identity": "max |cosh * integral - 1| 2.331468e-14",
    "donsker-series-crosscheck": "max |walk DP - series| 4.333627e-06",
    "continuous-analytic-dominance": "0 violations",
}


def test_criterion_11_deterministic_battery(tmp_path):
    def run(threads, outdir):
        outdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "exitdom.cli", "verify-all",
             "--profile", "desk", "--seed", str(SEED),
             "--threads", str(threads), "--outdir", str(outdir)],
            capture_output=True, text=True, timeout=600)
        return proc

    p1 = run(1, tmp_path / "t1")
    p4 = run(4, tmp_path / "t4")
    same = all(filecmp.cmp(tmp_path / "t1" / f, tmp_path / "t4" / f,
                           shallow=False)
               for f in ("verify_all.txt", "verify_all.json"))
    all_pass = p1.returncode == 0 and p4.returncode == 0
    with open(tmp_path / "t1" / "verify_all.json") as fh:
        values = {r["name"]: r["value"] for r in json.load(fh)["results"]}
    assert {name: values.get(name) for name in DETERMINISTIC_VALUES} == \
        DETERMINISTIC_VALUES
    verdict(all_pass and same,
            "criterion-11 deterministic-battery",
            f"desk battery exit codes {p1.returncode}/{p4.returncode} "
            f"(threads 1 vs 4), output files byte-identical: {same}")
