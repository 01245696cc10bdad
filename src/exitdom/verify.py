"""Bundled verification battery behind the ``verify-all`` command.

This module is the one home of each check: its record in ``CHECKS``, its
sizes per profile (``SIZES``), its threshold constants below, from which the
record's threshold string is formed and which the matching CLI subcommand,
where there is one, reads too, and its pass rule.  The one exception is the
tie tolerance of the continuous dominance scan, ``bm.DOMINANCE_TIE_TOL``,
which lives beside the scan as its default.  The battery returns one
``CheckResult`` per check for the CLI and the test suite to render or
assert.  The three float walk checks read every table from one memo,
``walk_girsanov._float_exit_table``, at the profile's ``trunc``: 20 tables
on the desk, 10 on quick.  All Monte Carlo is seeded from one master seed
and reduced in fixed batch order, so the results are a pure function of
(profile, seed), whatever the thread count.

Three checks are statistical, and their records state their rates.
``mc-survival-consistency`` makes 5 comparisons at 3 standard errors
(0.27% each), ``continuous-exit-independence`` one chi-square test at
level 1e-3, and ``coupled-sde-ordering`` one DKW band at level 1e-3 on the
hit law of each of its 3 drifts.  So a correct desk run fails by chance on
at most about 1.75% of seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import bm, dominance, mc, walk, walk_girsanov
from .bm import DriftSpec
from .walk import MODE_FLOAT, MODE_RATIONAL, WalkSpec

DESK = "desk"
QUICK = "quick"

# Per-profile sizes of every check: walk half-widths, horizons, the one float
# table truncation, reweighting step counts, the Donsker half-width, paths.
SIZES = {
    DESK: dict(ks=range(1, 5), ks_exact=range(1, 4), horizon=200,
               ns=[0, 10, 50, 100], trunc=600, donsker_k=400,
               n_paths=100_000, coupled_paths=1000),
    QUICK: dict(ks=range(1, 3), ks_exact=range(1, 3), horizon=60,
                ns=[0, 10], trunc=300, donsker_k=100,
                n_paths=20_000, coupled_paths=300),
}
# truncation of the exact-arithmetic independence tables, in both profiles
_TRUNC_EXACT = 60
# the biases of the reweighting and factorization grids
_GRID_PS = (0.5, 0.6, 0.7, 0.8, 0.9)
# the shared exit samples of the statistical checks: (drift, substream)
_EXITS = {"exits0": (0.0, 101), "exits1": (1.0, 202)}

# Thresholds, each shared by a battery check and the CLI subcommand named.
MAX_VIOLATIONS = 0            # rw-dominance, bm-dominance: dominance violations
INDEPENDENCE_TOL = 1e-12      # rw-independence: float joint-vs-product deviation
REWEIGHT_FLOOR = 1e-10        # rw-reweight: floor under the tail bound
FACTORIZATION_TOL = 1e-10     # rw-factorization: identity deviation
COUPLED_TOL = 0               # bm-couple: ordering-violation step fraction
INDEPENDENCE_ALPHA = 1e-3     # bm-independence: chi-square rejection level
# Thresholds of battery checks that no subcommand runs.
SECH_TOL = 1e-6               # |cosh * integral - 1| of the Laplace identity
DONSKER_TOL = 2e-3            # |walk - series| on the diffusive scale
CONSISTENCY_SE = 3            # MC survival deviation, in standard errors
CONTROL_P_MAX = 1e-6          # largest p the dependent control may reach
COUPLED_ALPHA = 1e-3          # DKW level of each coupled drift's hit-law band

DONSKER_TIMES = (0.25, 0.5, 1.0, 2.0)
# the step of the battery's coupled run: the largest of 1e-3, 5e-4 and
# 2.5e-4 whose band failures over desk seeds 1 to 1000 agree with its alpha
_COUPLED_DT = 1e-3


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


@dataclass(frozen=True)
class Check:
    """One battery check: its verdict line's name and threshold, the
    ``check_*`` function that runs it on the named inputs of ``_run_checks``,
    and its false-alarm rate at desk sizes: 0 for a deterministic check."""

    name: str
    threshold: str
    function: Callable
    inputs: tuple = ()
    rate: float = 0.0

    def result(self, passed, value: str, detail: str = "",
               threshold: str | None = None) -> CheckResult:
        return CheckResult(self.name, bool(passed), value, threshold or self.threshold, detail)


def _num(x) -> str:
    """A constant as the verdict lines state it: 3, 1e-6, 2e-3 (not 1e-06, 0.002)."""
    return str(x) if isinstance(x, int) else np.format_float_scientific(
        x, trim="-", exp_digits=1)


def reweight_within(diff: float, bound: float, floor: float = REWEIGHT_FLOOR) -> bool:
    """The reweighting pass rule: a finite tail bound, and
    |reweighted - direct| <= max(tail bound, floor).  An infinite bound
    would let any estimate pass."""
    return math.isfinite(bound) and diff <= max(bound, floor)


def _fmt(x: float) -> str:
    return f"{float(x):.6e}"


def check_discrete_dominance_exact(ks, horizon) -> CheckResult:
    ps = [Fraction(1, 2) + Fraction(i, 20) for i in range(10)]  # 0.5, 0.55, ..., 0.95
    total = sum(dominance.dominance_scan_discrete(ps, k, horizon, MODE_RATIONAL)
                .n_violations for k in ks)
    return _EXACT_DOMINANCE.result(
        total <= MAX_VIOLATIONS, f"{total} violations",
        f"k in {list(ks)}, {len(ps)}-point bias grid, horizon {horizon}, exact arithmetic")


def check_discrete_independence(ks_float, truncation, ks_exact, trunc_exact) -> CheckResult:
    worst_f = max(walk_girsanov.check_independence_discrete(p, k, truncation, MODE_FLOAT)
                  for k in ks_float for p in [0.6, 0.7, 0.8, 0.9])
    worst_x = max(walk_girsanov.check_independence_discrete(p, k, trunc_exact, MODE_RATIONAL)
                  for k in ks_exact for p in ["3/5", "7/10", "4/5", "9/10"])
    return _WALK_INDEPENDENCE.result(
        worst_f <= INDEPENDENCE_TOL and worst_x == 0,
        f"float max dev {_fmt(worst_f)}, exact max dev {worst_x}")


def check_discrete_reweighting(ks, ns, truncation) -> CheckResult:
    worst = 0.0
    ok = True
    for k in ks:
        for p_from in _GRID_PS:
            for p_to in (p for p in _GRID_PS if p != p_from):
                direct = walk_girsanov._float_exit_table(p_to, k, truncation).residual
                for n in ns:
                    est, bound = walk_girsanov.reweighted_survival_walk(
                        p_from, p_to, k, n, truncation)
                    diff = abs(est - direct[n])
                    worst = max(worst, diff)
                    ok &= reweight_within(diff, bound)
    return _REWEIGHTING.result(ok, f"max |reweighted - direct| {_fmt(worst)}")


def check_discrete_factorization(ks, ns, truncation) -> CheckResult:
    worst = max(walk_girsanov.factorization_check_discrete(p1, p2, k, n, truncation)
                for k in ks for i, p1 in enumerate(_GRID_PS[:-1])
                for p2 in _GRID_PS[i + 1:] for n in ns)
    return _FACTORIZATION.result(worst <= FACTORIZATION_TOL,
                                 f"max deviation {_fmt(worst)}")


def check_sech_identity() -> CheckResult:
    """cosh(lam b) times the Laplace transform of the driftless exit law at
    lam^2 / 2 is 1: the quadrature route at t = 0, read before its clamp to
    [0, 1], so that an integrand too large shows as a value above 1."""
    worst = max(abs(bm._survival_quad(DriftSpec(lam, b), 0.0)[0] - 1.0)
                for lam in [0.0, 0.5, 1.0, 2.0, 3.0] for b in [0.5, 1.0, 2.0])
    return _SECH.result(worst <= SECH_TOL, f"max |cosh * integral - 1| {_fmt(worst)}")


def check_donsker_series(k: int) -> CheckResult:
    """The walk at p = 1/2 against the driftless eigenseries at b = 1.

    On the diffusive scale n = t*k^2 the walk's survival tends to the
    Brownian one.  The walk law is evaluated at the four step counts only,
    by the closed-form solution of the DP recurrence (``walk.survival_at``).
    """
    walk_values = walk.survival_at(WalkSpec(0.5, k),
                                   [int(t * k * k) for t in DONSKER_TIMES])
    worst = max(abs(value - bm.driftless_survival(1.0, t))
                for t, value in zip(DONSKER_TIMES, walk_values))
    return _DONSKER.result(worst <= DONSKER_TOL, f"max |walk DP - series| {_fmt(worst)}",
                           f"walk half-width {k}")


def check_continuous_dominance() -> CheckResult:
    lambdas = [0.25 * i for i in range(9)]
    rep = bm.dominance_scan_continuous(lambdas, 1.0, [0.25, 0.5, 1.0, 2.0])
    return _ANALYTIC_DOMINANCE.result(
        rep.n_violations <= MAX_VIOLATIONS, f"{rep.n_violations} violations",
        "lambda 0..2 step 0.25, b=1")


def check_mc_consistency(samples0, samples1) -> CheckResult:
    se_label = f"{_num(CONSISTENCY_SE)}se"
    msgs = []
    ok = True
    et = samples0.exit_times()
    se = et.std(ddof=1) / math.sqrt(et.size)
    dev = abs(et.mean() - 1.0)
    ok &= dev <= CONSISTENCY_SE * se
    msgs.append(f"E[tau] dev {_fmt(dev)} vs {se_label} {_fmt(CONSISTENCY_SE * se)}")
    for s, lam in ((samples0, 0.0), (samples1, 1.0)):
        for t in (0.5, 1.0):
            an = bm.drifted_survival(DriftSpec(lam, 1.0), t)
            se = math.sqrt(max(an * (1 - an), 1e-12) / s.n)
            dev = abs(s.empirical_survival(t) - an)
            ok &= dev <= CONSISTENCY_SE * se
            msgs.append(f"lam={lam} t={t} dev {_fmt(dev)} vs {se_label} "
                        f"{_fmt(CONSISTENCY_SE * se)}")
    return _MC_CONSISTENCY.result(ok, "; ".join(msgs))


def check_continuous_independence(samples1) -> CheckResult:
    res = mc.check_independence_continuous(samples1, time_bins=10)
    control = replace(samples1, sides=samples1.sides.copy())
    nc = control.sides != 0
    med = np.median(control.times[nc])
    control.sides[nc] = np.where(control.times[nc] > med, 1, -1).astype(np.int8)
    res_bad = mc.check_independence_continuous(control, time_bins=10)
    return _EXIT_INDEPENDENCE.result(
        res.p_value >= INDEPENDENCE_ALPHA and res_bad.p_value < CONTROL_P_MAX,
        f"p {_fmt(res.p_value)}, control p {_fmt(res_bad.p_value)}")


def _hit_law_deviation(hit_times, lam: float, horizon: float) -> float:
    """sup over t <= horizon of |ECDF(t) - P(tau <= t)| for the first hits of
    level 1 by |B_t + lam t|, where tau is the exit time of B_t + lam t from
    (-1, 1).  A path that has not hit counts as not hit at every t.

    The ECDF steps only at the hit times and the law is continuous and
    increasing, so the sup is reached on either side of a step or at the
    horizon.
    """
    times, counts = np.unique(hit_times[~np.isnan(hit_times)], return_counts=True)
    # the ECDF just before each hit time, then at the horizon
    ecdf = np.concatenate(([0.0], np.cumsum(counts) / hit_times.size))
    law = np.array([1.0 - bm.drifted_survival(DriftSpec(lam, 1.0), t)
                    for t in (*times.tolist(), horizon)])
    return float(max(np.max(np.abs(law - ecdf)),
                     np.max(np.abs(law[:-1] - ecdf[1:]), initial=0.0)))


def check_coupled_ordering(rng_base, n_paths) -> CheckResult:
    """The coupled SDE on lam = 0, 0.5, 1 at dt = ``_COUPLED_DT``: no
    ordering violation, and each drift's first hits of level 1 within the
    DKW band sqrt(ln(2 / alpha) / 2n) of the exit law of drifted Brownian
    motion from (-1, 1), ``bm.drifted_survival``, over t <= 1.

    The step keeps the order by construction, so the band is the check's
    test of the law: an SDE with a wrong drift keeps the order but moves
    the hits.  The hits are recorded at the end of their step, late by less
    than dt, which moves the ECDF by at most about the law's density times
    dt, under 2e-3 here.
    """
    lambdas = [0.0, 0.5, 1.0]
    rng = mc.RngStreamSpec(rng_base.master_seed, rng_base.substream + 901)
    stats = mc.simulate_y_coupled(lambdas, 0.0, _COUPLED_DT, 1.0, n_paths, rng)
    half_width = math.sqrt(math.log(2.0 / COUPLED_ALPHA) / (2.0 * n_paths))
    devs = [_hit_law_deviation(hits, lam, stats.horizon)
            for lam, hits in zip(lambdas, stats.hit_times)]
    return _COUPLED.result(
        stats.violation_fraction <= COUPLED_TOL and max(devs) <= half_width,
        f"fraction {_fmt(stats.violation_fraction)} at dt={_num(_COUPLED_DT)}; "
        f"hit law max |ECDF - law| {', '.join(map(_fmt, devs))} "
        f"against DKW half-width {_fmt(half_width)}")


# The battery, in run order.  Each record is the one place that states its
# check's name and threshold; the check_* functions above report through it.
_EXACT_DOMINANCE = Check("discrete-exact-dominance", f"{_num(MAX_VIOLATIONS)} violations",
                         check_discrete_dominance_exact, ("ks", "horizon"))
_WALK_INDEPENDENCE = Check(
    "discrete-exit-independence", f"float <= {_num(INDEPENDENCE_TOL)}, exact == 0",
    check_discrete_independence, ("ks", "trunc", "ks_exact", "trunc_exact"))
_REWEIGHTING = Check("discrete-girsanov-reweighting",
                     f"within max(tail bound, {_num(REWEIGHT_FLOOR)}) everywhere",
                     check_discrete_reweighting, ("ks", "ns", "trunc"))
_FACTORIZATION = Check("discrete-factorization-identity", f"<= {_num(FACTORIZATION_TOL)}",
                       check_discrete_factorization, ("ks", "ns", "trunc"))
_SECH = Check("laplace-sech-identity", f"<= {_num(SECH_TOL)}", check_sech_identity)
_DONSKER = Check("donsker-series-crosscheck", f"<= {_num(DONSKER_TOL)}",
                 check_donsker_series, ("donsker_k",))
_ANALYTIC_DOMINANCE = Check("continuous-analytic-dominance",
                            f"{_num(MAX_VIOLATIONS)} violations", check_continuous_dominance)
# five comparisons: E[tau], and the survival at two times for each drift
_MC_CONSISTENCY = Check(
    "mc-survival-consistency", f"within {_num(CONSISTENCY_SE)} standard errors",
    check_mc_consistency, ("exits0", "exits1"),
    rate=5 * math.erfc(CONSISTENCY_SE / math.sqrt(2.0)))
_EXIT_INDEPENDENCE = Check(
    "continuous-exit-independence",
    f"p >= {_num(INDEPENDENCE_ALPHA)} and control p < {_num(CONTROL_P_MAX)}",
    check_continuous_independence, ("exits1",), rate=INDEPENDENCE_ALPHA)
# one band per drift
_COUPLED = Check(
    "coupled-sde-ordering",
    f"<= {_num(COUPLED_TOL)} and each hit law within its DKW band at alpha "
    f"{_num(COUPLED_ALPHA)}",
    check_coupled_ordering, ("rng", "coupled_paths"), rate=3 * COUPLED_ALPHA)
CHECKS = (_EXACT_DOMINANCE, _WALK_INDEPENDENCE, _REWEIGHTING, _FACTORIZATION, _SECH,
          _DONSKER, _ANALYTIC_DOMINANCE, _MC_CONSISTENCY, _EXIT_INDEPENDENCE, _COUPLED)


def _run_checks(checks, profile: str, seed: int, threads: int) -> list:
    """Run ``checks`` at the profile's sizes, each on its named inputs: a
    ``SIZES`` key, ``trunc_exact``, the master stream ``rng``, or an exit
    sample of ``_EXITS``, drawn on first use and shared.  Each ``check_*`` is
    called through the module's binding of its name, so a function that has
    replaced it there (the benchmark's tracer, a test) is the one called."""
    sizes = SIZES[profile]
    values = dict(sizes, trunc_exact=_TRUNC_EXACT, rng=mc.RngStreamSpec(seed))

    def value(name):
        if name not in values:
            lam, substream = _EXITS[name]
            values[name] = mc.simulate_exit_bm(
                DriftSpec(lam, 1.0), 1e-2, 30.0, sizes["n_paths"],
                mc.RngStreamSpec(seed, substream), threads=threads)
        return values[name]

    return [globals()[c.function.__name__](*map(value, c.inputs)) for c in checks]


def run_battery(profile: str = DESK, seed: int = 20240817, threads: int = 1):
    """Run every check of ``CHECKS`` at the profile; returns a list of CheckResult."""
    if profile not in SIZES:
        raise ValueError(f"unknown profile {profile!r}")
    return _run_checks(CHECKS, profile, seed, threads)
