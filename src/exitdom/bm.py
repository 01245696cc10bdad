"""Analytic exit-time formulas for Brownian motion on the interval (-b, b).

The driftless survival probability P0(tau > t) has two classical forms: the
eigenfunction series (fast for t of order b^2 and beyond) and the
image-charge/reflection series (fast as t -> 0).  The drifted survival is
obtained from the driftless exit density via the change-of-measure identity

    P_lambda(tau > t) = cosh(lambda*b) * int_t^inf e^(-lambda^2 s / 2) f(s) ds,

which combines the exponential reweighting on the stopped filtration with
the independence of exit time and exit side.

The evaluators share fixed numerical settings.  Each series stops at its
first term below ``SERIES_TOL`` (1e-12) and raises ArithmeticError if that
takes more than ``_MAX_TERMS`` (2000) terms.  Quadrature runs at absolute
tolerance ``SERIES_TOL`` with at most ``_QUAD_LIMIT`` (200) subintervals.
Below t = ``_SMALL_T`` b^2 the reflection forms replace the eigenseries.

The reflection forms sum images k = -20..20, but each loops only over the k
whose terms can be nonzero; every skipped term is exactly +-0.0, so the sum
and its ascending-k order are those of the full loop.  The density's image
at distance c contributes c * exp(-c^2 / 2t), which is exactly 0.0 once
c^2 / 2t exceeds 745.14; the survival's term is an ndtr triple that is
exactly 2 - 1 - 1 or 0 - 0 - 0 once all three arguments lie above 8.30 or
below -37.68, where ndtr returns exactly 1 or 0.  The loops use the wider
cut-offs ``_EXP_ZERO`` (746), ``_NDTR_ONE`` (8.5) and ``_NDTR_ZERO`` (-38.5)
as a safety margin.  Since t < 0.05 b^2 there, at most k = -3..3 remain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from scipy import integrate
from scipy.special import ndtr

from .dominance import DominanceReport, _check_tie_tol, _worst_gap

# fraction of b^2 below which the reflection form replaces the eigenseries
_SMALL_T = 0.05

# largest lambda*b whose cosh is a finite float (about 710.48)
_MAX_LAMBDA_B = math.acosh(sys.float_info.max)

# truncation tolerance of every series and absolute tolerance of quadrature
SERIES_TOL = 1e-12
_MAX_TERMS = 2000
_QUAD_LIMIT = 200

# the reflection forms sum the images k = -_IMAGES.._IMAGES
_IMAGES = 20
# math.exp(-x) == 0.0 for x > 745.14; ndtr(x) == 1.0 for x > 8.30 and
# ndtr(x) == 0.0 for x < -37.68; each cut-off below keeps a margin
_EXP_ZERO = 746.0
_NDTR_ONE = 8.5
_NDTR_ZERO = -38.5


@dataclass(frozen=True)
class DriftSpec:
    """Drifted Brownian exit problem: drift rate lam, barrier half-width b."""

    lam: float
    b: float

    def __post_init__(self):
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"barrier b must be positive and finite, got {self.b!r}")
        if not math.isfinite(self.lam):
            raise ValueError(f"drift must be finite, got {self.lam!r}")


def _image_range(reach_down: float, reach_up: float) -> range:
    """The image indices k whose terms can be nonzero.

    Term k >= 1 is exactly zero once 4k - 3 > ``reach_up``, and term
    k <= -1 once -4k - 1 > ``reach_down``, both in units of b.  The range
    holds every k of -_IMAGES.._IMAGES that neither bound excludes.
    """
    return range(max(-_IMAGES, -math.ceil((reach_down + 1) / 4)),
                 min(_IMAGES, math.ceil((reach_up + 3) / 4)) + 1)


def _survival_reflection(b: float, t: float) -> float:
    rt = math.sqrt(t)
    acc = 0.0
    # ndtr is exactly 1 above _NDTR_ONE (images k <= -1, all arguments
    # positive) and exactly 0 below _NDTR_ZERO (k >= 1, all negative)
    for k in _image_range(_NDTR_ONE * rt / b, -_NDTR_ZERO * rt / b):
        term = (2.0 * ndtr((1 - 4 * k) * b / rt)
                - ndtr((-1 - 4 * k) * b / rt)
                - ndtr((3 - 4 * k) * b / rt))
        acc += term
    return float(acc)


def _check_time(t: float) -> None:
    """Raise ValueError for a NaN time and for t < 0.

    t = +inf passes: every public evaluator returns its limit 0 there.
    """
    if math.isnan(t):
        raise ValueError("time must be a number, got nan")
    if t < 0.0:
        raise ValueError("time must be nonnegative")


def driftless_survival(b: float, t: float) -> float:
    """P0(tau > t) for the exit of standard Brownian motion from (-b, b)."""
    if not b > 0.0:
        raise ValueError("barrier b must be positive")
    _check_time(t)
    if t == 0.0:
        return 1.0
    if t < _SMALL_T * b * b:
        val = _survival_reflection(b, t)
    else:
        val = _weighted_tail_series(b, t, 0.0)
    return min(1.0, max(0.0, val))


def _density_series(b: float, t: float) -> float:
    # loop invariants hoisted as locals: each computes the value it replaces
    pi, exp, tol = math.pi, math.exp, SERIES_TOL
    pi2, two_b2, eight_b2 = pi**2, 2.0 * b * b, 8.0 * b * b
    acc = 0.0
    for m in range(_MAX_TERMS):
        n = 2 * m + 1
        term = (pi * n / two_b2) * exp(-n * n * pi2 * t / eight_b2)
        acc += term if m % 2 == 0 else -term
        if term < tol:
            return acc
    raise ArithmeticError(
        f"density series did not converge within {_MAX_TERMS} terms at t={t}")


def _density_reflection(b: float, t: float) -> float:
    rt = math.sqrt(t)
    inv = 1.0 / (math.sqrt(2.0 * math.pi) * t ** 1.5)
    acc = 0.0
    exp = math.exp
    reach = math.sqrt(2.0 * _EXP_ZERO) * rt / b  # exp(-c^2/2t) == 0 for |c| > reach*b
    for k in _image_range(reach, reach):
        c1 = (1 - 4 * k) * b
        c2 = (-1 - 4 * k) * b
        c3 = (3 - 4 * k) * b
        acc += (c1 * exp(-c1 * c1 / (2.0 * t))
                - 0.5 * c2 * exp(-c2 * c2 / (2.0 * t))
                - 0.5 * c3 * exp(-c3 * c3 / (2.0 * t)))
    return max(0.0, acc * inv)


def _exit_density(b: float, t: float) -> float:
    """Density of tau at t (> 0) for driftless exit from (-b, b).

    It is the quadrature route's integrand, so it skips the domain checks.
    """
    if t < _SMALL_T * b * b:
        return _density_reflection(b, t)
    return max(0.0, _density_series(b, t))


def _weighted_tail_series(b: float, t: float, g: float) -> float:
    """int_t^inf e^(-g s) f(s) ds via termwise integration of the eigenseries.

    At g = 0 this is the driftless survival P0(tau > t).
    """
    pi, exp, tol = math.pi, math.exp, SERIES_TOL
    pi2, two_b2, eight_b2 = pi**2, 2.0 * b * b, 8.0 * b * b
    acc = 0.0
    for m in range(_MAX_TERMS):
        n = 2 * m + 1
        a = n * n * pi2 / eight_b2
        term = (pi * n / two_b2) * exp(-(a + g) * t) / (a + g)
        acc += term if m % 2 == 0 else -term
        if term < tol:
            return acc
    raise ArithmeticError(
        f"weighted tail series did not converge within {_MAX_TERMS} terms")


def _cosh_lambda_b(lam: float, b: float) -> float:
    """cosh(lam*b), the Girsanov factor of the drifted survival."""
    if lam * b > _MAX_LAMBDA_B:
        raise ValueError(
            f"lambda*b = {lam * b:g} exceeds {_MAX_LAMBDA_B:.2f}, above which "
            "cosh(lambda*b) overflows a float")
    return math.cosh(lam * b)


def drifted_survival(spec: DriftSpec, t: float) -> float:
    """P(tau > t) for Brownian motion with drift lam exiting (-b, b).

    The exit-time law depends on the drift only through |lam|, so negative
    drifts are served by symmetry.  Raises ValueError where cosh(lam*b)
    overflows.
    """
    _check_time(t)
    lam = abs(spec.lam)
    b = spec.b
    cosh_lb = _cosh_lambda_b(lam, b)
    g = 0.5 * lam * lam
    t_switch = _SMALL_T * b * b
    if t >= t_switch:
        val = _weighted_tail_series(b, t, g)
    else:
        head, _ = integrate.quad(
            lambda s: math.exp(-g * s) * _density_reflection(b, s),
            t, t_switch, limit=_QUAD_LIMIT,
            epsabs=SERIES_TOL, epsrel=1e-12)
        val = head + _weighted_tail_series(b, t_switch, g)
    val *= cosh_lb
    return min(1.0, max(0.0, val))


def drifted_survival_quad(spec: DriftSpec, t: float):
    """Quadrature route for P(tau > t): independent of the termwise series.

    Returns (value, cutoff_bound) where cutoff_bound dominates the mass of
    the integrand beyond the truncation time.  The value is clamped to
    [0, 1]; ValueError where cosh(lam*b) overflows.
    """
    _check_time(t)
    lam = abs(spec.lam)
    b = spec.b
    cosh_lb = _cosh_lambda_b(lam, b)
    g = 0.5 * lam * lam
    a0 = math.pi**2 / (8.0 * b * b)
    # choose T_cut so the remaining weighted mass is far below SERIES_TOL
    target = SERIES_TOL / 10.0
    T_cut = max(t + b * b, 4.0 * b * b)
    while cosh_lb * math.exp(-(g + a0) * T_cut) * (4.0 / math.pi) > target:
        T_cut *= 1.5
    pieces = sorted({t, _SMALL_T * b * b, b * b, T_cut})
    pieces = [s for s in pieces if t <= s <= T_cut]
    total = 0.0
    for lo, hi in zip(pieces, pieces[1:]):
        part, _ = integrate.quad(
            lambda s: math.exp(-g * s) * _exit_density(b, s),
            lo, hi, limit=_QUAD_LIMIT, epsabs=SERIES_TOL, epsrel=1e-11)
        total += part
    cutoff_bound = cosh_lb * math.exp(-(g + a0) * T_cut) * (4.0 / math.pi)
    return min(1.0, max(0.0, cosh_lb * total)), cutoff_bound


def dominance_scan_continuous(lambdas, b: float, times,
                              tie_tol: float = 1e-8) -> DominanceReport:
    """Check that survival is non-increasing across an ascending drift grid.

    Ties within ``tie_tol`` count as dominance (the curves coincide at t = 0
    and as t -> infinity).  A negative or NaN ``tie_tol`` raises ValueError.
    """
    _check_tie_tol(tie_tol)
    lambdas = [float(l) for l in lambdas]
    if any(l2 <= l1 for l1, l2 in zip(lambdas, lambdas[1:])):
        raise ValueError("drift grid must be strictly ascending")
    if any(l < 0.0 for l in lambdas):
        raise ValueError("drift grid must be nonnegative")
    times = [float(t) for t in times]
    values = [[drifted_survival(DriftSpec(l, b), t) for t in times]
              for l in lambdas]
    report = DominanceReport("lambda", lambdas, "t", times, values)
    for i in range(len(lambdas) - 1):
        report.add_pair(str(lambdas[i]), str(lambdas[i + 1]),
                        _worst_gap(values[i], values[i + 1], times, tie_tol))
    return report
