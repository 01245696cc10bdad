"""The benchmark's three workloads: inputs from a seed, the timed run, the checks.

Each workload has three parts.  ``build(seed)`` makes every input from the
workload seed and is part of set-up.  ``run(inputs, workdir)`` makes the
library calls and is the timed region.  ``check(inputs, outputs, workdir)``
compares the outputs with their thresholds outside the timed region and
returns the checks plus ungated information.  A check is gated unless it says
otherwise; gated checks are counted as attempted and failed.  Why each
workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from exitdom import bm, cli, dominance, mc, walk, walk_girsanov
from exitdom.bm import DriftSpec
from exitdom.walk import MODE_FLOAT, MODE_RATIONAL, WalkSpec


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    build: Callable
    run: Callable
    check: Callable


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit master seed for one named input, independent across labels."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_check(name, value, threshold, passed, gated=True) -> dict:
    return {"name": name, "value": value, "threshold": threshold,
            "passed": bool(passed), "gated": gated}


# --- desk-verify -----------------------------------------------------------
# The command users run: the desk battery, single-threaded, fresh process.

def _desk_build(seed):
    return {"argv": ["verify-all", "--profile", "desk",
                     "--seed", str(derive_seed(seed, "desk-verify"))]}


def _desk_run(inputs, workdir):
    return cli.main(inputs["argv"] + ["--outdir", workdir])


_DESK_CHECKS = 10


def _desk_check(inputs, status, workdir):
    checks = [make_check("exit-status", status, 0, status == 0)]
    path = os.path.join(workdir, "verify_all.json")
    if not os.path.exists(path):
        checks.append(make_check("verify_all.json", "missing", "written", False))
        return checks, {}
    with open(path, "rb") as fh:
        raw = fh.read()
    results = json.loads(raw)["results"]
    for r in results:
        checks.append(make_check(r["name"], r["value"], r["threshold"], r["passed"]))
    if len(results) != _DESK_CHECKS:
        checks.append(make_check("battery-size", len(results), _DESK_CHECKS, False))
    return checks, {"output_digest": hashlib.sha256(raw).hexdigest()}


# --- exact-routes ----------------------------------------------------------
# No Monte Carlo: rational and float walk DP, the discrete reweighting
# identities and a dense analytic scan cross-checked against quadrature.

_DENOMINATOR = 61          # prime, so every grid bias j/61 is irreducible
_GRID_SIZE = 6
# Reweighting from a bias above 58/61 to one near 1/2 overflows math.exp in
# reweighted_survival_walk (a known defect, see README.md).  The grid stays
# below it; the case itself runs once as an ungated probe.
_MAX_NUMERATOR = 58
_OVERFLOW_PROBE = (Fraction(60, 61), Fraction(31, 61))
_SCAN_KS = (2, 4, 8)
_SCAN_HORIZON = 400
# fixed grid whose float round-off escalates pairs to rational arithmetic
_FLOAT_GRID = tuple(Fraction(1, 2) + Fraction(i, 20) for i in range(10))
_FLOAT_K = 8
_RW_K = 3
_RW_NS = (0, 10, 50)
_RW_TRUNCATION = 600
_INDEP_KS = (1, 2, 3)
_INDEP_TRUNCATION = 60
_BARRIERS = (0.5, 1.0, 2.0)
# drift as lam*b and time as t/b^2: every barrier covers the same regimes,
# t/b^2 < 0.05 takes the short-time quadrature branch of drifted_survival
_LAMBDA_B = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 11.0, 12.0, 13.5, 16.0, 20.0)
_T_OVER_B2 = (0.005, 0.01, 0.02, 0.03, 0.04, 0.06, 0.1, 0.25, 0.5, 1.0, 2.0)
# Above lam*b = 12 the eigenseries loses relative accuracy and misses the
# quadrature route by more than the tolerance (a known defect, see
# README.md); the gap there is recorded but not gated.
_GATED_LAMBDA_B = 12.0
# thresholds the library's own battery and tests use
_REWEIGHT_FLOOR = 1e-10
_FACTORIZATION_TOL = 1e-10
_QUAD_TOL = 1e-9


def _exact_build(seed):
    rng = random.Random(derive_seed(seed, "exact-routes/grid"))
    numerators = sorted(rng.sample(range(_DENOMINATOR // 2 + 1, _MAX_NUMERATOR + 1),
                                   _GRID_SIZE))
    return {"grid": [Fraction(j, _DENOMINATOR) for j in numerators]}


def _continuous(b, lambda_b):
    lambdas = [c / b for c in lambda_b]
    times = [f * b * b for f in _T_OVER_B2]
    return lambdas, times


def _exact_run(inputs, workdir):
    grid = inputs["grid"]
    out = {"rational": [dominance.dominance_scan_discrete(
                grid, k, _SCAN_HORIZON, MODE_RATIONAL) for k in _SCAN_KS],
           "float": dominance.dominance_scan_discrete(
                _FLOAT_GRID, _FLOAT_K, _SCAN_HORIZON, MODE_FLOAT)}

    reweight = []
    for p_from in grid:
        for p_to in grid:
            if p_from == p_to:
                continue
            for n in _RW_NS:
                est, bound = walk_girsanov.reweighted_survival_walk(
                    p_from, p_to, _RW_K, n, _RW_TRUNCATION)
                direct = walk.survival_pmf(WalkSpec(p_to, _RW_K), n,
                                           MODE_FLOAT).values[n]
                reweight.append((est, bound, direct))
    out["reweight"] = reweight
    try:
        out["overflow_probe"] = walk_girsanov.reweighted_survival_walk(
            *_OVERFLOW_PROBE, _RW_K, 0, _RW_TRUNCATION)
    except OverflowError as exc:
        out["overflow_probe"] = exc

    out["factorization"] = [
        walk_girsanov.factorization_check_discrete(p1, p2, _RW_K, n, _RW_TRUNCATION)
        for i, p1 in enumerate(grid) for p2 in grid[i + 1:] for n in _RW_NS]
    out["independence"] = [
        walk_girsanov.check_independence_discrete(p, k, _INDEP_TRUNCATION,
                                                  MODE_RATIONAL)
        for p in grid for k in _INDEP_KS]

    scans = []
    for b in _BARRIERS:
        lambdas, times = _continuous(b, _LAMBDA_B)
        report = bm.dominance_scan_continuous(lambdas, b, times)
        quad = [[bm.drifted_survival_quad(DriftSpec(lam, b), t) for t in times]
                for lam in lambdas]
        scans.append((b, report, quad))
    out["continuous"] = scans
    return out


def _exact_check(inputs, out, workdir):
    checks = []
    for k, rep in zip(_SCAN_KS, out["rational"]):
        checks.append(make_check(f"rational-scan-k{k}", rep.n_violations, 0,
                                 rep.n_violations == 0))
    rep = out["float"]
    checks.append(make_check(f"float-scan-k{_FLOAT_K}", rep.n_violations, 0,
                             rep.n_violations == 0))

    rw_gap = max(abs(est - direct) for est, _, direct in out["reweight"])
    excess = max(abs(est - direct) - max(bound, _REWEIGHT_FLOOR)
                 for est, bound, direct in out["reweight"])
    checks.append(make_check("reweighting-grid", excess,
                             f"|reweighted - direct| <= max(tail bound, {_REWEIGHT_FLOOR})",
                             excess <= 0.0))
    probe = out["overflow_probe"]
    # P(sigma > 0) = 1 is the direct value at n = 0
    ok = not isinstance(probe, OverflowError) and abs(probe[0] - 1.0) <= max(
        probe[1], _REWEIGHT_FLOOR)
    checks.append(make_check("reweight-from-" + str(_OVERFLOW_PROBE[0]).replace("/", "-"),
                             repr(probe), "finite and within the tail bound", ok,
                             gated=False))
    worst = max(out["factorization"])
    checks.append(make_check("factorization-grid", worst, _FACTORIZATION_TOL,
                             worst <= _FACTORIZATION_TOL))
    worst_x = max(out["independence"])
    checks.append(make_check("exact-independence-grid", str(worst_x), "0",
                             worst_x == 0))

    rule = f"|series - quad| <= {_QUAD_TOL} + cutoff bound"
    quad_gaps = {}
    high = []
    for b, report, quad in out["continuous"]:
        checks.append(make_check(f"continuous-scan-b{b}", report.n_violations, 0,
                                 report.n_violations == 0))
        low = []
        for c, row_a, row_q in zip(_LAMBDA_B, report.values, quad):
            points = [(abs(a - q), bound) for a, (q, bound) in zip(row_a, row_q)]
            (low if c <= _GATED_LAMBDA_B else high).extend(points)
        excess = max(gap - (_QUAD_TOL + bound) for gap, bound in low)
        checks.append(make_check(f"series-vs-quad-b{b}", excess, rule, excess <= 0.0))
        quad_gaps[str(b)] = max(gap for gap, _ in low)
    excess = max(gap - (_QUAD_TOL + bound) for gap, bound in high)
    checks.append(make_check(f"series-vs-quad-above-lambda-b{_GATED_LAMBDA_B:g}",
                             excess, rule, excess <= 0.0, gated=False))
    info = {"grid": [str(p) for p in inputs["grid"]],
            "reweight_max_gap": rw_gap, "series_vs_quad_max_gap": quad_gaps}
    return checks, info


# --- mc-drift-grid ---------------------------------------------------------
# Short exits on a narrow barrier over a drift grid, two worker threads.

_MC_THREADS = 2
_MC_LAMBDAS = tuple(float(i) for i in range(9))
_MC_B = 0.25
_MC_DT = 1e-3
_MC_HORIZON = 2.0
_MC_PATHS = 32768           # eight batches of 4096, split evenly over two threads
_Z_TOL = 4.0                # the CLI's default --z-tol
_ALPHA = 1e-3               # the CLI's default chi-square rejection level
_COUPLED = {"y0": 0.0, "dt": 1e-4, "horizon": 1.0, "n_paths": 1000}
_COUPLED_TOL = 1e-3


def _mean_exit(lam, b):
    return b * b if lam == 0.0 else (b / lam) * math.tanh(lam * b)


def _grid_time(t):
    # exit times are recorded as multiples of dt; comparing at a grid time
    # makes the empirical survival exact for the simulated law
    return round(t / _MC_DT) * _MC_DT


def _mc_build(seed):
    return {
        "exit_seeds": [derive_seed(seed, f"mc-drift-grid/exit/{lam}")
                       for lam in _MC_LAMBDAS],
        "coupled_seed": derive_seed(seed, "mc-drift-grid/coupled"),
        "survival_times": [[_grid_time(f * _mean_exit(lam, _MC_B)) for f in (0.5, 1.5)]
                           for lam in _MC_LAMBDAS],
        "reweight_times": [_grid_time(_mean_exit(lam, _MC_B)) for lam in _MC_LAMBDAS[1:]],
    }


def _mc_run(inputs, workdir):
    samples = [mc.simulate_exit_bm(DriftSpec(lam, _MC_B), _MC_DT, _MC_HORIZON,
                                   _MC_PATHS, mc.RngStreamSpec(seed),
                                   threads=_MC_THREADS)
               for lam, seed in zip(_MC_LAMBDAS, inputs["exit_seeds"])]
    survival = [[(s.empirical_survival(t), bm.drifted_survival(DriftSpec(lam, _MC_B), t))
                 for t in times]
                for lam, s, times in zip(_MC_LAMBDAS, samples, inputs["survival_times"])]
    reweight = [(mc.reweighted_survival_bm(s, lam_to, t),
                 bm.drifted_survival(DriftSpec(lam_to, _MC_B), t))
                for s, lam_to, t in zip(samples, _MC_LAMBDAS[1:], inputs["reweight_times"])]
    chi = [mc.check_independence_continuous(s) for s in samples]
    dkw = [dominance.empirical_dominance_test(a.exit_times(), b.exit_times())[0]
           for a, b in zip(samples, samples[1:])]
    coupled = mc.simulate_y_coupled(
        _MC_LAMBDAS, _COUPLED["y0"], _COUPLED["dt"], _COUPLED["horizon"],
        _COUPLED["n_paths"], mc.RngStreamSpec(inputs["coupled_seed"]))
    return {"n": [s.n for s in samples], "survival": survival, "reweight": reweight,
            "chi": chi, "dkw": dkw, "coupled": coupled}


def _mc_check(inputs, out, workdir):
    checks = []
    for lam, n, pairs in zip(_MC_LAMBDAS, out["n"], out["survival"]):
        z = max(abs(emp - an) / math.sqrt(max(an * (1.0 - an), 1e-12) / n)
                for emp, an in pairs)
        checks.append(make_check(f"exit-survival-lam{lam:g}", z, _Z_TOL, z <= _Z_TOL))
    for lam_from, lam_to, (est, an) in zip(_MC_LAMBDAS, _MC_LAMBDAS[1:], out["reweight"]):
        z = abs(est.estimate - an) / est.stderr if est.stderr > 0 else math.inf
        limit = _Z_TOL + est.censored_bound
        checks.append(make_check(f"reweight-lam{lam_from:g}-to-{lam_to:g}", z, limit,
                                 z <= limit))
    for lam_a, lam_b, verdict in zip(_MC_LAMBDAS, _MC_LAMBDAS[1:], out["dkw"]):
        checks.append(make_check(f"dkw-lam{lam_a:g}-vs-{lam_b:g}", verdict,
                                 f"not {dominance.VIOLATES}",
                                 verdict != dominance.VIOLATES))
    frac = out["coupled"].violation_fraction
    checks.append(make_check("coupled-violation-fraction", frac, _COUPLED_TOL,
                             frac <= _COUPLED_TOL))
    for lam, res in zip(_MC_LAMBDAS, out["chi"]):
        checks.append(make_check(f"chi-square-lam{lam:g}", res.p_value, _ALPHA,
                                 res.p_value >= _ALPHA, gated=False))
    return checks, {}


WORKLOADS = {w.name: w for w in (
    Workload("desk-verify", 1, _desk_build, _desk_run, _desk_check),
    Workload("exact-routes", 1, _exact_build, _exact_run, _exact_check),
    Workload("mc-drift-grid", _MC_THREADS, _mc_build, _mc_run, _mc_check),
)}
