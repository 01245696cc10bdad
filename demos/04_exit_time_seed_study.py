"""Seed study of the exit sampler: is its law exact at a coarse time step?

For each study point (barrier b, time step dt, drift lam) the script runs
``simulate_exit_bm`` on seeds 1..N and, per seed, forms z-scores against the
analytic law:

- E[tau] against b tanh(lam b) / lam (b^2 at lam = 0), with the sample
  standard error;
- P(tau > t) at three times half a step off the grid, near 0.5, 1 and 2
  mean exit times, against ``bm.drifted_survival``, with the binomial
  standard error;
- at the desk point, P(tau > t) also at the grid times t = 0.5 and 1, the
  times at which the battery's ``mc-survival-consistency`` check compares.

An exact sampler gives z-scores with mean 0 and standard deviation 1.  The
gates are |mean z| <= 3 / sqrt(N) and |sd z - 1| <= 0.15 for every column.
The last row of each drift, "E[step end]", is a control: the same exits
with their times rounded up to the end of the step, as an endpoint-timed
scheme would record them.  It should fail its gate at dt = 1e-2, which shows that the
study can see a bias of dt / 2.

With the mode ``battery`` the script instead runs the whole desk battery
(``verify.run_battery``) at master seeds 1..N and counts the seeds on which
some check fails, with a Clopper-Pearson 95% interval for the rate.

Run from the root of a checkout:

    PYTHONPATH=src python3 demos/04_exit_time_seed_study.py [N] [desk|grid|all|battery] [JSON]

N defaults to 200.  With a third argument the results are also written
there as JSON.  At N = 200 the desk point takes about 5 minutes, the grid
point about 4 and the battery about 12, on one core of a 2-core Xeon.
"""

import json
import math
import sys

import numpy as np
from scipy.stats import beta

from exitdom import bm, mc, verify
from exitdom.bm import DriftSpec

# name -> (b, dt, horizon, drifts, paths, substream base, grid times)
POINTS = {
    "desk": (1.0, 1e-2, 30.0, (0.0, 1.0), 100_000, 1000, (0.5, 1.0)),
    "grid": (0.25, 1e-3, 2.0, (0.0, 4.0), 100_000, 2000, ()),
}
FACTORS = (0.5, 1.0, 2.0)


def mean_exit(lam, b):
    return b * b if lam == 0.0 else b * math.tanh(lam * b) / lam


def survival_times(lam, b, dt, grid_times):
    off_grid = [(round(f * mean_exit(lam, b) / dt) + 0.5) * dt for f in FACTORS]
    return off_grid + list(grid_times)


def seed_z(seed, lam, b, dt, horizon, n, substream, grid_times):
    """z-scores of one seed: E[tau], survival at the off-grid and grid
    times, and E[tau] with times rounded up to the step end."""
    spec = DriftSpec(lam, b)
    s = mc.simulate_exit_bm(spec, dt, horizon, n, mc.RngStreamSpec(seed, substream))
    if s.censored_fraction > 0.0:
        raise RuntimeError(f"seed {seed}: censored paths at lam={lam}, b={b}")
    mean = mean_exit(lam, b)
    zs = []
    for tau in (s.times, np.ceil(s.times / dt - 1e-9) * dt):
        zs.append((tau.mean() - mean) / (tau.std(ddof=1) / math.sqrt(n)))
    for t in survival_times(lam, b, dt, grid_times):
        an = bm.drifted_survival(spec, t)
        zs.insert(-1, (s.empirical_survival(t) - an) / math.sqrt(an * (1 - an) / n))
    return zs


def study(name, n_seeds):
    b, dt, horizon, drifts, n, base, grid_times = POINTS[name]
    rows = []
    for i, lam in enumerate(drifts):
        z = np.array([seed_z(seed, lam, b, dt, horizon, n, base + i, grid_times)
                      for seed in range(1, n_seeds + 1)])
        times = survival_times(lam, b, dt, grid_times)
        labels = ["E[tau]"] + [f"S({t:.4g})" for t in times] + ["E[step end]"]
        for j, label in enumerate(labels):
            col = z[:, j]
            mean, sd = float(col.mean()), float(col.std(ddof=1))
            rows.append({"point": name, "b": b, "dt": dt, "lam": lam, "paths": n,
                         "seeds": n_seeds, "statistic": label,
                         "control": label == "E[step end]",
                         "mean_z": mean, "sd_z": sd,
                         "max_abs_z": float(np.abs(col).max()),
                         "passes": bool(abs(mean) <= 3.0 / math.sqrt(n_seeds)
                                        and abs(sd - 1.0) <= 0.15)})
    return rows


def battery(n_seeds):
    """Failed checks of the desk battery per master seed, and the rate."""
    failed = {}
    for seed in range(1, n_seeds + 1):
        names = [r.name for r in verify.run_battery(verify.DESK, seed) if not r.passed]
        if names:
            failed[seed] = names
    k = len(failed)
    lo = float(beta.ppf(0.025, k, n_seeds - k + 1)) if k else 0.0
    hi = float(beta.ppf(0.975, k + 1, n_seeds - k))
    print(f"desk battery, seeds 1..{n_seeds}: {k} failing seeds, rate "
          f"{k / n_seeds:.4f}, 95% interval [{lo:.4f}, {hi:.4f}] "
          "(nominal 0.014)")
    for seed, names in failed.items():
        print(f"  seed {seed}: {', '.join(names)}")
    return {"seeds": n_seeds, "failing_seeds": k, "rate": k / n_seeds,
            "ci95": [lo, hi], "failed": {str(s): n for s, n in failed.items()}}


def main():
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    which = sys.argv[2] if len(sys.argv) > 2 else "all"
    if which == "battery":
        result = battery(n_seeds)
        if len(sys.argv) > 3:
            with open(sys.argv[3], "w") as fh:
                json.dump(result, fh, indent=1)
        return
    names = list(POINTS) if which == "all" else [which]
    rows = [row for name in names for row in study(name, n_seeds)]
    print(f"{n_seeds} seeds; gate |mean z| <= {3.0 / math.sqrt(n_seeds):.3f}, "
          "|sd z - 1| <= 0.15")
    print(f"{'point':<6}{'lam':>5}  {'statistic':<14}{'mean z':>8}{'sd z':>7}"
          f"{'max|z|':>8}  gate")
    for r in rows:
        gate = "pass" if r["passes"] else "FAIL"
        if r["control"]:
            gate += " (control: should fail)"
        print(f"{r['point']:<6}{r['lam']:>5g}  {r['statistic']:<14}"
              f"{r['mean_z']:>8.3f}{r['sd_z']:>7.3f}{r['max_abs_z']:>8.2f}  {gate}")
    if len(sys.argv) > 3:
        with open(sys.argv[3], "w") as fh:
            json.dump(rows, fh, indent=1)


if __name__ == "__main__":
    main()
