"""Bundled verification battery behind the ``verify-all`` command.

Each check pins a target quantity and a tolerance; the battery returns one
result per check so callers (CLI, test suite) can render or assert them.
All Monte Carlo inside the battery is seeded from a single master seed and
reduced in fixed batch order, so the result list is a pure function of
(profile, seed), independent of worker thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bm, dominance, mc, walk, walk_girsanov
from .bm import DriftSpec
from .walk import MODE_FLOAT, MODE_RATIONAL, WalkSpec

DESK = "desk"
QUICK = "quick"


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: str
    threshold: str
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"[{status}] {self.name}: {self.value} (require {self.threshold})"
        if self.detail:
            out += f" -- {self.detail}"
        return out


def _fmt(x: float) -> str:
    return f"{float(x):.6e}"


def _p_grid():
    # 0.5, 0.55, ..., 0.95 as exact rationals
    return [Fraction(1, 2) + Fraction(i, 20) for i in range(10)]


def check_discrete_dominance_exact(ks, horizon) -> CheckResult:
    ps = _p_grid()
    total = 0
    for k in ks:
        rep = dominance.dominance_scan_discrete(ps, k, horizon, MODE_RATIONAL)
        total += rep.n_violations
    return CheckResult(
        "discrete-exact-dominance", total == 0, f"{total} violations",
        "0 violations",
        f"k in {list(ks)}, {len(ps)}-point bias grid, horizon {horizon}, exact arithmetic")


def check_discrete_independence(ks_float, trunc_float, ks_exact, trunc_exact) -> CheckResult:
    worst_f = 0.0
    for k in ks_float:
        for p in [0.6, 0.7, 0.8, 0.9]:
            worst_f = max(worst_f, walk_girsanov.check_independence_discrete(
                p, k, trunc_float, MODE_FLOAT))
    worst_x = Fraction(0)
    for k in ks_exact:
        for p in ["3/5", "7/10", "4/5", "9/10"]:
            worst_x = max(worst_x, walk_girsanov.check_independence_discrete(
                p, k, trunc_exact, MODE_RATIONAL))
    ok = worst_f <= 1e-12 and worst_x == 0
    return CheckResult(
        "discrete-exit-independence", ok,
        f"float max dev {_fmt(worst_f)}, exact max dev {worst_x}",
        "float <= 1e-12, exact == 0")


def check_discrete_reweighting(ks, ns, truncation) -> CheckResult:
    ps = [0.5, 0.6, 0.7, 0.8, 0.9]
    worst = 0.0
    worst_excess = -math.inf
    for k in ks:
        direct = {p: walk.survival_pmf(WalkSpec(p, k), max(ns), MODE_FLOAT).values
                  for p in ps}
        for p_from in ps:
            table = walk.exit_joint(WalkSpec(p_from, k), truncation, MODE_FLOAT)
            for p_to in ps:
                if p_from == p_to:
                    continue
                for n in ns:
                    est, bound = walk_girsanov.reweighted_survival_from_table(
                        table, p_to, n)
                    diff = abs(est - direct[p_to][n])
                    worst = max(worst, diff)
                    worst_excess = max(worst_excess, diff - max(bound, 1e-10))
    return CheckResult(
        "discrete-girsanov-reweighting", worst_excess <= 0.0,
        f"max |reweighted - direct| {_fmt(worst)}",
        "within max(tail bound, 1e-10) everywhere")


def check_discrete_factorization(ks, ns, truncation) -> CheckResult:
    ps = [0.5, 0.6, 0.7, 0.8, 0.9]
    worst = 0.0
    for k in ks:
        for i, p1 in enumerate(ps[:-1]):
            table = walk.exit_joint(WalkSpec(p1, k), truncation, MODE_FLOAT)
            for p2 in ps[i + 1:]:
                for n in ns:
                    worst = max(worst, walk_girsanov.factorization_from_table(
                        table, p2, n))
    return CheckResult(
        "discrete-factorization-identity", worst <= 1e-10,
        f"max deviation {_fmt(worst)}", "<= 1e-10")


def check_sech_identity() -> CheckResult:
    worst = 0.0
    for lam in [0.0, 0.5, 1.0, 2.0, 3.0]:
        for b in [0.5, 1.0, 2.0]:
            val, _ = bm.drifted_survival_quad(DriftSpec(lam, b), 0.0)
            worst = max(worst, abs(val - 1.0))
    return CheckResult(
        "laplace-sech-identity", worst <= 1e-6,
        f"max |cosh * integral - 1| {_fmt(worst)}", "<= 1e-6")


def check_donsker_series(k: int) -> CheckResult:
    """The walk at p = 1/2 against the driftless eigenseries at b = 1.

    On the diffusive scale n = t*k^2 the walk's survival tends to the
    Brownian one.  The walk law is evaluated at the four step counts only,
    by the closed-form solution of the DP recurrence (``walk.survival_at``).
    """
    times = [0.25, 0.5, 1.0, 2.0]
    walk_values = walk.survival_at(WalkSpec(0.5, k), [int(t * k * k) for t in times])
    worst = 0.0
    for t, value in zip(times, walk_values):
        worst = max(worst, abs(value - bm.driftless_survival(1.0, t)))
    return CheckResult(
        "donsker-series-crosscheck", worst <= 2e-3,
        f"max |walk DP - series| {_fmt(worst)}", "<= 2e-3",
        f"walk half-width {k}")


def check_continuous_dominance() -> CheckResult:
    lambdas = [0.25 * i for i in range(9)]
    rep = bm.dominance_scan_continuous(lambdas, 1.0, [0.25, 0.5, 1.0, 2.0],
                                       tie_tol=1e-8)
    return CheckResult(
        "continuous-analytic-dominance", rep.n_violations == 0,
        f"{rep.n_violations} violations", "0 violations",
        "lambda 0..2 step 0.25, b=1")


def _mc_samples(lam, seed_offset, n_paths, dt, threads, rng_base):
    rng = mc.RngStreamSpec(rng_base.master_seed, rng_base.substream + seed_offset)
    return mc.simulate_exit_bm(DriftSpec(lam, 1.0), dt, 30.0, n_paths, rng,
                               bridge_correction=True, threads=threads)


def check_mc_consistency(samples0, samples1) -> CheckResult:
    msgs = []
    ok = True
    et = samples0.exit_times()
    se = et.std(ddof=1) / math.sqrt(et.size)
    dev = abs(et.mean() - 1.0)
    ok &= dev <= 3 * se
    msgs.append(f"E[tau] dev {_fmt(dev)} vs 3se {_fmt(3 * se)}")
    for s, lam in ((samples0, 0.0), (samples1, 1.0)):
        for t in (0.5, 1.0):
            emp = s.empirical_survival(t)
            an = bm.drifted_survival(DriftSpec(lam, 1.0), t)
            se = math.sqrt(max(an * (1 - an), 1e-12) / s.n)
            dev = abs(emp - an)
            ok &= dev <= 3 * se
            msgs.append(f"lam={lam} t={t} dev {_fmt(dev)} vs 3se {_fmt(3 * se)}")
    return CheckResult("mc-survival-consistency", bool(ok), "; ".join(msgs),
                       "within 3 standard errors")


def check_continuous_independence(samples1) -> CheckResult:
    res = mc.check_independence_continuous(samples1, time_bins=10)
    control = mc.ExitSamples(
        samples1.spec, samples1.dt, samples1.horizon,
        samples1.times.copy(), samples1.sides.copy(), samples1.terminal.copy())
    nc = control.sides != 0
    med = np.median(control.times[nc])
    control.sides[nc] = np.where(control.times[nc] > med, 1, -1).astype(np.int8)
    res_bad = mc.check_independence_continuous(control, time_bins=10)
    ok = res.p_value >= 1e-3 and res_bad.p_value < 1e-6
    return CheckResult(
        "continuous-exit-independence", ok,
        f"p {_fmt(res.p_value)}, control p {_fmt(res_bad.p_value)}",
        "p >= 1e-3 and control p < 1e-6")


def check_coupled_ordering(rng_base, n_paths, with_refinement: bool) -> CheckResult:
    lambdas = [0.0, 0.5, 1.0]
    rng = mc.RngStreamSpec(rng_base.master_seed, rng_base.substream + 901)
    main = mc.simulate_y_coupled(lambdas, 0.0, 1e-4, 1.0, n_paths, rng)
    ok = main.violation_fraction <= 1e-3
    msg = f"fraction {_fmt(main.violation_fraction)} at dt=1e-4"
    if with_refinement:
        fracs = []
        for dt in (1e-3, 2.5e-4, 6.25e-5):
            cs = mc.simulate_y_coupled(lambdas, 0.0, dt, 1.0, n_paths, rng)
            fracs.append(cs.violation_fraction)
        dec = fracs[0] > fracs[1] > fracs[2]
        ok = ok and dec
        msg += "; refinement " + " > ".join(_fmt(f) for f in fracs)
    return CheckResult(
        "coupled-sde-ordering", bool(ok), msg,
        "<= 1e-3 and decreasing under refinement" if with_refinement else "<= 1e-3")


def run_battery(profile: str = DESK, seed: int = 20240817, threads: int = 1):
    """Run every check for the given profile; returns a list of CheckResult."""
    if profile not in (DESK, QUICK):
        raise ValueError(f"unknown profile {profile!r}")
    desk = profile == DESK
    rng_base = mc.RngStreamSpec(seed)
    results = []
    results.append(check_discrete_dominance_exact(
        range(1, 5) if desk else range(1, 3), 200 if desk else 60))
    results.append(check_discrete_independence(
        range(1, 5) if desk else range(1, 3), 400 if desk else 200,
        range(1, 4) if desk else range(1, 3), 60))
    ns = [0, 10, 50, 100] if desk else [0, 10]
    trunc = 600 if desk else 300
    results.append(check_discrete_reweighting(
        range(1, 5) if desk else range(1, 3), ns, trunc))
    results.append(check_discrete_factorization(
        range(1, 5) if desk else range(1, 3), ns, trunc))
    results.append(check_sech_identity())
    results.append(check_donsker_series(400 if desk else 100))
    results.append(check_continuous_dominance())
    n_paths = 100_000 if desk else 20_000
    dt = 1e-3
    samples0 = _mc_samples(0.0, 101, n_paths, dt, threads, rng_base)
    samples1 = _mc_samples(1.0, 202, n_paths, dt, threads, rng_base)
    results.append(check_mc_consistency(samples0, samples1))
    results.append(check_continuous_independence(samples1))
    results.append(check_coupled_ordering(rng_base, 1000 if desk else 300, desk))
    return results
