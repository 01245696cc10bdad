"""Stochastic-dominance certification.

A survival curve S_a dominates S_b when S_a(t) >= S_b(t) for every t.  The
discrete side is certified exactly: with p = a/d, the walk's survival is
N_n / d^n for integers N_n that ``walk`` computes fraction-free, and the scan
compares those integers, cross-multiplied by powers of the scales when two
biases differ in d.  A Fraction is formed only at a point where the order
fails.  The scan reads every curve of one mode from one DP over the grid
(``walk._survival_entries``): the float scan makes one float call, decides
from step k on which adjacent pairs escalate, and makes one exact call for
the union of their biases.  Monte Carlo data is certified only up to
simultaneous one-sided Dvoretzky-Kiefer-Wolfowitz bands.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import walk
from .walk import MODE_RATIONAL, WalkSpec, _parse_bias

DOMINATES = "dominates"
VIOLATES = "violates"
INCONCLUSIVE = "inconclusive-within-noise"
CONSISTENT = "consistent-with-dominance"

# joint confidence of the two simultaneous DKW bands of the empirical test
_CONFIDENCE = 0.99


@dataclass
class PairVerdict:
    lo_label: str     # parameter expected to survive longer
    hi_label: str
    verdict: str
    worst_violation: float = 0.0
    worst_location: object = None


@dataclass
class DominanceReport:
    """Survival values over a parameter grid plus per-adjacent-pair verdicts."""

    axis_name: str
    grid: list
    index_name: str
    index: list
    values: list          # values[i][j]: survival of grid[i] at index[j]
    pairs: list = field(default_factory=list)

    @property
    def n_violations(self) -> int:
        return sum(1 for p in self.pairs if p.verdict == VIOLATES)

    def add_pair(self, lo_label: str, hi_label: str, worst) -> None:
        """Record one pair's verdict from its ``_worst_gap`` (None: dominates)."""
        if worst is None:
            self.pairs.append(PairVerdict(lo_label, hi_label, DOMINATES))
        else:
            self.pairs.append(PairVerdict(lo_label, hi_label, VIOLATES,
                                          float(worst[0]), worst[1]))

    def to_json_obj(self) -> dict:
        return {
            "axis": self.axis_name,
            "grid": [str(g) for g in self.grid],
            "index": self.index_name,
            "index_values": [str(v) for v in self.index],
            "survival": [[float(v) for v in row] for row in self.values],
            "pairs": [
                {
                    "dominant": p.lo_label,
                    "dominated": p.hi_label,
                    "verdict": p.verdict,
                    "worst_violation": float(p.worst_violation),
                    "worst_location": None if p.worst_location is None
                                      else str(p.worst_location),
                }
                for p in self.pairs
            ],
            "n_violations": self.n_violations,
        }

    def to_text(self) -> str:
        lines = [f"dominance scan over {self.axis_name} "
                 f"({len(self.grid)} points, index {self.index_name})"]
        for p in self.pairs:
            line = f"  {p.lo_label} >= {p.hi_label}: {p.verdict}"
            if p.verdict == VIOLATES:
                line += (f"  (worst {p.worst_violation:.3e}"
                         f" at {self.index_name}={p.worst_location})")
            lines.append(line)
        lines.append(f"violations: {self.n_violations}")
        return "\n".join(lines)


def _check_tie_tol(tie_tol) -> None:
    """Raise ValueError unless ``tie_tol`` is a nonnegative number (not NaN)."""
    if not tie_tol >= 0:
        raise ValueError(f"tie tolerance must be nonnegative, got {tie_tol!r}")


def _worst_gap(lo, hi, index, tie_tol=0):
    """(gap, location) of the largest hi - lo above ``tie_tol``, or None.

    The gaps are formed in the curves' own numbers: exact on the Fractions
    of ``_exact_worst_gap``.  The first location wins a tie.
    """
    _check_tie_tol(tie_tol)
    worst = None
    for x, a, b in zip(index, lo, hi):
        if b <= a:
            continue
        gap = b - a
        if gap > tie_tol and (worst is None or gap > worst[0]):
            worst = (gap, x)
    return worst


def _exact_worst_gap(lo, hi, index, powers):
    """``_worst_gap`` of two exact curves, decided on integers.

    Each curve is (numerators, d), with value numerators[n] / d**n, and
    ``powers`` maps each d to its powers d**n.  hi exceeds lo at n exactly
    when N_hi[n] > N_lo[n] for a shared d, and when
    N_hi[n] * d_lo**n > N_lo[n] * d_hi**n otherwise.  Only those points
    reach ``_worst_gap``, as Fractions.
    """
    (n_lo, d_lo), (n_hi, d_hi) = lo, hi
    p_lo, p_hi = powers[d_lo], powers[d_hi]
    if d_lo == d_hi:
        above = [n for n, (a, b) in enumerate(zip(n_lo, n_hi)) if b > a]
    else:
        above = [n for n, (a, b, pa, pb) in enumerate(zip(n_lo, n_hi, p_lo, p_hi))
                 if b * pa > a * pb]
    return _worst_gap([Fraction(n_lo[n], p_lo[n]) for n in above],
                      [Fraction(n_hi[n], p_hi[n]) for n in above],
                      [index[n] for n in above])


def dominance_scan_discrete(ps, k: int, horizon: int,
                            mode: str = MODE_RATIONAL) -> DominanceReport:
    """Pairwise survival comparison of adjacent biases on an ascending grid.

    All biases must lie in [1/2, 1).  In rational mode the comparisons are
    exact, on the integer numerators of ``_exact_worst_gap``, and the
    report's values are those numerators over d**n, rounded once.  In float
    mode, any apparent violation is automatically rechecked the same exact
    way before being reported (a true violation would falsify the dominance
    theorem, so a float-mode artifact must not survive).  The float
    comparison starts at step k: no path reaches +-k in fewer steps, so both
    exact survivals are 1 there (as ``walk.survival_at`` returns), and a
    float gap of an ulp or two before step k is round-off that needs no
    recheck.  The report keeps the float values at every step.  Each mode's
    curves come from one DP over the biases it needs, so a bias shared by
    two escalated pairs is computed exactly once.
    """
    ps = list(ps)
    floats = [_parse_bias(p) for p in ps]
    if any(f2 <= f1 for f1, f2 in zip(floats, floats[1:])):
        raise ValueError("bias grid must be strictly ascending")
    if any(not 0.5 <= f < 1.0 for f in floats):
        raise ValueError("all biases must lie in [1/2, 1)")
    steps = list(range(horizon + 1))
    specs = [WalkSpec(p, k) for p in ps]
    if mode == MODE_RATIONAL:
        escalated, need = range(len(ps) - 1), range(len(ps))
    else:
        values = [[float(v) for v in residual] for residual, _
                  in walk._survival_entries(specs, horizon, mode)]
        # before step k no path has exited: both exact survivals are 1
        escalated = {i for i in range(len(ps) - 1)
                     if _worst_gap(values[i][k:], values[i + 1][k:], steps[k:]) is not None}
        need = sorted({j for i in escalated for j in (i, i + 1)})
    # one exact DP for every bias that an exact comparison reads
    exact = dict(zip(need, walk._survival_entries([specs[j] for j in need], horizon,
                                                  MODE_RATIONAL))) if need else {}
    powers = {d: list(itertools.accumulate(itertools.repeat(d, horizon), operator.mul,
                                           initial=1))
              for d in {d for _, d in exact.values()}}  # d -> [d**n for n = 0..horizon]
    if mode == MODE_RATIONAL:
        # int / int is correctly rounded, as float(Fraction) is
        values = [[n / pw for n, pw in zip(numerators, powers[d])]
                  for numerators, d in exact.values()]
    report = DominanceReport("p", ps, "n", steps, values)
    for i in range(len(ps) - 1):
        worst = None
        if i in escalated:
            worst = _exact_worst_gap(exact[i], exact[i + 1], steps, powers)
        report.add_pair(str(ps[i]), str(ps[i + 1]), worst)
    return report


def _merged_counts(a: np.ndarray, b: np.ndarray):
    """(count_a, count_b) at each distinct point of two ascending samples.

    count_x[i] is the number of x <= the i-th smallest distinct point.  One
    stable argsort merges the two runs; the running count of a's entries is
    read at the last copy of each point, where it counts every tie.  NaN
    has no place in the order and raises ValueError.
    """
    merged = np.concatenate([a, b])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    if np.isnan(merged[-1]):  # NaN sorts last
        raise ValueError("samples must not contain NaN")
    count_a = np.cumsum(order < a.size)
    count_b = np.arange(1, merged.size + 1) - count_a
    last = np.empty(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    last[-1] = True
    return count_a[last], count_b[last]


def _dkw_half_width(alpha: float, n: int) -> float:
    """sqrt(ln(2 / alpha) / 2n): the DKW band around an ECDF of n points
    that holds the true distribution function with probability >= 1 - alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def empirical_dominance_test(samples_a, samples_b):
    """DKW-banded test that samples_a stochastically dominates samples_b.

    Simultaneous one-sided bands at joint confidence 0.99 (``_CONFIDENCE``;
    the risk is split evenly between the two samples).  Returns
    (verdict, band_widths) where verdict is one of CONSISTENT, VIOLATES,
    INCONCLUSIVE.  A NaN sample point raises ValueError.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    alpha = 1.0 - _CONFIDENCE
    eps_a, eps_b = _dkw_half_width(alpha, a.size), _dkw_half_width(alpha, b.size)
    # both curves step only at sample points, so comparing them at every
    # distinct sample point decides the test
    count_a, count_b = _merged_counts(np.sort(a), np.sort(b))
    surv_a = 1.0 - count_a / a.size
    surv_b = 1.0 - count_b / b.size
    if np.any(surv_b - eps_b > surv_a + eps_a):
        return VIOLATES, (eps_a, eps_b)
    if np.all(surv_a >= surv_b):
        return CONSISTENT, (eps_a, eps_b)
    return INCONCLUSIVE, (eps_a, eps_b)
