"""Analytic exit-time formulas for Brownian motion on the interval (-b, b).

The drifted survival P_lam(tau > t) follows from the driftless law by the
change of measure exp(lam*B_t - lam^2 t / 2).  Below t = ``_SMALL_T`` b^2 it
is the image series (Feller, Vol. II, X.5), summed in closed form:

    sum_k (-1)^k e^(2 lam k b) [Phi((b - 2kb - lam t) / sqrt(t))
                                - Phi((-b - 2kb - lam t) / sqrt(t))].

From there on it is cosh(lam*b) * int_t^inf e^(-lam^2 s / 2) f(s) ds, with
f the driftless exit density, integrated termwise along the eigenseries: it
stops at its first term below ``SERIES_TOL`` (1e-12) and raises
ArithmeticError past ``_MAX_TERMS`` (2000) terms.

``drifted_survival_quad`` integrates the same product, formed as
1/2 (e^(lam b - lam^2 s / 2) + e^(-lam b - lam^2 s / 2)) f(s), by quadrature,
independently of both series; so nothing small is multiplied by a large
cosh, and its tolerances apply to the survival itself.  Its rule is the
adaptive 21-point Gauss-Kronrod rule of QUADPACK's QAG (Piessens et al.,
1983): it bisects the panel with the largest error estimate until the
estimates sum to at most max(SERIES_TOL, ``_QUAD_EPSREL`` |value|) or
``_QUAD_LIMIT`` panels are in use, and adds the panels with ``math.fsum``.
Two ``functools.lru_cache``s of ``_PANEL_CACHE`` entries each memoize it:
``_panel`` holds the density at a panel's 21 nodes, keyed on (b, lo, hi),
and ``_gk21`` a panel's integral and error estimate, keyed on
(b, lo, hi, lam).  The rule puts its panels on the same pieces
[0.05 b^2, b^2] and [b^2, T_cut] for many (lam, t), so most panels repeat.
Both are pure functions of their keys, so a cached value is the computed
value bit for bit.
``drifted_survival_quad`` clamps the sum to [0, 1]; the battery's Laplace
check reads it before the clamp (``_survival_quad``), so that an integrand
too large shows there as a value above 1.

Phi and log Phi come from ``math.erf`` and ``math.erfc``, so the module
needs no scipy.  ``_ndtr`` takes Cephes's split: 1/2 + erf(x) / 2 for
|x| < sqrt(1/2), else erfc(|x|) / 2, reflected, with x = a / sqrt(2).
``_log_ndtr`` is log1p(-erfc(x) / 2) from a = -1 up, log(erfc(-x) / 2)
below that while erfc(-x) is a normal float, and the asymptotic series of
erfcx past that.

The image sums group the images into terms j = -20..20 and skip only terms
that are exactly +-0.0, so the sum is that of the full loop.  A survival
term j <= -1 is 0 once its three Phi are 1, as _ndtr(x) is for x > 8.30.
For j >= 1 a weight e^(2 lam k b) > 1 goes into _log_ndtr, so it cannot
overflow, and Phi(x) <= e^(-x^2 / 2) for x <= 0 bounds each weighted Phi by
e^(-((4j - 3)^2 - 1) b^2 / 2t) at any drift; math.exp is 0.0 below
e^-745.14.  The density's image at distance c contributes c e^(-c^2 / 2t),
0.0 once c^2 / 2t > 745.14.  The cut-offs ``_EXP_ZERO`` (746) and
``_NDTR_ONE`` (8.5) keep a margin.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import sys
from dataclasses import dataclass

from .dominance import DominanceReport, _check_tie_tol, _worst_gap

# fraction of b^2 below which the image series replaces the eigenseries
_SMALL_T = 0.05

# largest lambda*b whose cosh is a finite float (about 710.48)
_MAX_LAMBDA_B = math.acosh(sys.float_info.max)

# truncation tolerance of every series and absolute tolerance of quadrature
SERIES_TOL = 1e-12
_MAX_TERMS = 2000
_QUAD_EPSREL = 1e-11  # relative tolerance of quadrature
_QUAD_LIMIT = 200  # most panels the quadrature route splits its pieces into
_PANEL_CACHE = 4096  # entries of each of the quadrature route's two memos

_IMAGES = 20  # the image sums run over at most j = -_IMAGES.._IMAGES
# exp(-x) == 0.0 for x > 745.14 and _ndtr(x) == 1.0 for x > 8.30, with margins
_EXP_ZERO = 746.0
_NDTR_ONE = 8.5

DOMINANCE_TIE_TOL = 1e-8  # tie tolerance of the continuous dominance scan

_SQRT_HALF = math.sqrt(0.5)
# erfc(z) is a normal float up to z = 26.5; the asymptotic series of erfcx
# takes over from _ERFC_ASYMPTOTIC, where _ERFCX_TERMS terms reach 1e-20
_ERFC_ASYMPTOTIC = 26.0
_ERFCX_TERMS = 10
_LOG_2_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))

# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (dqk21), to the last
# bit of a double: each positive node with its Kronrod weight and its weight
# in the 10-point Gauss rule, 0 at the nodes that rule lacks
_GK_HALF = (
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
)
_GK_X = (*(x for x, _, _ in _GK_HALF), *(-x for x, _, _ in _GK_HALF), 0.0)
_GK_K = tuple(k for _, k, _ in _GK_HALF) * 2 + (0.1494455540029169,)
_GK_G = tuple(g for _, _, g in _GK_HALF) * 2 + (0.0,)


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
    """The indices j of the image terms that can be nonzero: every j of
    -_IMAGES.._IMAGES but j >= 1 with 4j - 3 > ``reach_up`` and j <= -1 with
    -4j - 1 > ``reach_down`` (in units of b), whose terms are exactly zero.
    """
    return range(max(-_IMAGES, -math.floor((reach_down + 1) / 4)),
                 min(_IMAGES, math.floor((reach_up + 3) / 4)) + 1)


def _ndtr(a: float) -> float:
    """Phi(a), the standard normal distribution function (Cephes's ndtr)."""
    x = a * _SQRT_HALF
    z = abs(x)
    if z < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(z)
    return 1.0 - y if x > 0.0 else y


def _log_ndtr(a: float) -> float:
    """log Phi(a), accurate where Phi(a) is far below the smallest float."""
    x = a * _SQRT_HALF
    if a >= -1.0:
        return math.log1p(-0.5 * math.erfc(x))
    z = -x
    if z < _ERFC_ASYMPTOTIC:
        return math.log(0.5 * math.erfc(z))
    # erfc(z) = e^(-z^2) / (z sqrt(pi)) sum_n (-1)^n (2n - 1)!! / (2 z^2)^n
    inv, term, acc = 0.5 / (z * z), 1.0, 1.0
    for n in range(1, _ERFCX_TERMS):
        term *= -(2 * n - 1) * inv
        acc += term
    return math.log(acc) - z * z - math.log(z) - _LOG_2_SQRT_PI


def _weighted_ndtr(log_w: float, x: float) -> float:
    """e^log_w * Phi(x); a weight above 1 goes through _log_ndtr."""
    return (math.exp(log_w + _log_ndtr(x)) if log_w > 0.0
            else math.exp(log_w) * _ndtr(x))


def _survival_images(b: float, t: float, lam: float) -> float:
    """The image series of P_lam(tau > t), for lam >= 0 and 0 < t < _SMALL_T b^2.

    Term j pairs the images 2j and 2j - 1, which share Phi(a).  At lam = 0
    a term j >= 0 is 2 Phi(a) - Phi(m) - Phi(c), the driftless form.
    """
    rt, lt, lb = math.sqrt(t), lam * t, lam * b
    acc = 0.0
    for j in _image_range(_NDTR_ONE * rt / b + lt / b,
                          math.sqrt(1.0 + 2.0 * _EXP_ZERO * t / (b * b))):
        a = ((1 - 4 * j) * b - lt) / rt
        m = ((-1 - 4 * j) * b - lt) / rt
        c = ((3 - 4 * j) * b - lt) / rt
        l0, l1 = 4 * j * lb, (4 * j - 2) * lb
        p, q = _weighted_ndtr(l0, a), _weighted_ndtr(l1, a)
        r, s = _weighted_ndtr(l0, m), _weighted_ndtr(l1, c)
        # below j = 0 equal weights pair first: three Phi of 1 give exactly 0
        acc += (p - r) + (q - s) if j < 0 else p + q - r - s
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
    if not 0.0 < b < math.inf:
        raise ValueError("barrier b must be positive and finite")
    return _survival(b, t, 0.0)


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


def _survival(b: float, t: float, lam: float) -> float:
    """P_lam(tau > t) for lam >= 0; ValueError where cosh(lam*b) overflows."""
    _check_time(t)
    cosh_lb = _cosh_lambda_b(lam, b)
    if t == 0.0:
        return 1.0
    if t < _SMALL_T * b * b:
        val = _survival_images(b, t, lam)
    else:
        val = cosh_lb * _weighted_tail_series(b, t, 0.5 * lam * lam)
    return min(1.0, max(0.0, val))


def drifted_survival(spec: DriftSpec, t: float) -> float:
    """P(tau > t) for Brownian motion with drift lam exiting (-b, b).

    The exit-time law depends on the drift only through |lam|, so negative
    drifts are served by symmetry.  Raises ValueError where cosh(lam*b)
    overflows.
    """
    return _survival(spec.b, t, abs(spec.lam))


@functools.lru_cache(maxsize=_PANEL_CACHE)
def _panel(b: float, lo: float, hi: float) -> tuple:
    """The 21 nodes of the panel [lo, hi] and the density there, weighted.

    Returns the nodes, the Kronrod and the Gauss weights times the density
    at each, and the Kronrod weights, every weight scaled to the panel.
    """
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = tuple(c + h * x for x in _GK_X)
    hk = tuple(h * w for w in _GK_K)
    f = [_exit_density(b, s) for s in nodes]
    return (nodes, tuple(map(operator.mul, hk, f)),
            tuple(h * w * y for w, y in zip(_GK_G, f)), hk)


@functools.lru_cache(maxsize=_PANEL_CACHE)
def _gk21(b: float, lo: float, hi: float, lam: float) -> tuple[float, float]:
    """(integral, error estimate) over [lo, hi] of cosh(lam b) e^(-lam^2 s/2) f(s).

    The weight is formed as c e^(lam b - lam^2 s / 2), c = (1 + e^(-2 lam b)) / 2,
    so nothing small is multiplied by a large cosh.  A node where the density
    is exactly 0 adds nothing, and its weight, which could overflow, is not
    formed.  The estimate is QUADPACK's (dqk21): |Kronrod - Gauss|, scaled by
    the integrand's mean absolute deviation from its mean.
    """
    nodes, kf, gf, hk = _panel(b, lo, hi)
    lb, g = lam * b, 0.5 * lam * lam
    e = [math.exp(lb - g * s) if w else 0.0 for s, w in zip(nodes, kf)]
    terms = list(map(operator.mul, e, kf))
    scale = 0.5 * (1.0 + math.exp(-2.0 * lb))
    resk = math.fsum(terms)
    mean = resk / (hi - lo)
    resasc = scale * sum(abs(x - w * mean) for x, w in zip(terms, hk))
    err = scale * abs(resk - sum(map(operator.mul, e, gf)))
    resk *= scale
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, max(50.0 * sys.float_info.epsilon * resk, err)


def _quad(b: float, pieces: list, lam: float) -> float:
    """int over the pieces of cosh(lam b) e^(-lam^2 s / 2) f(s) ds, by the
    adaptive 21-point Gauss-Kronrod rule (QUADPACK's QAG).

    The panel with the largest error estimate is bisected until the
    estimates sum to at most max(SERIES_TOL, _QUAD_EPSREL |value|) or
    ``_QUAD_LIMIT`` panels are in use; the panels are then added exactly
    rounded.  Each heap entry is (-error, lo, hi, value), and the sums read
    its fields through ``operator.itemgetter`` in heap order, without
    unpacking an entry.
    """
    heap = []
    for lo, hi in zip(pieces, pieces[1:]):
        val, err = _gk21(b, lo, hi, lam)
        heap.append((-err, lo, hi, val))
    heapq.heapify(heap)
    errors, values = operator.itemgetter(0), operator.itemgetter(3)
    while len(heap) < _QUAD_LIMIT:
        total = math.fsum(map(values, heap))
        if -sum(map(errors, heap)) <= max(SERIES_TOL, _QUAD_EPSREL * abs(total)):
            break
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for a, z in ((lo, mid), (mid, hi)):
            val, err = _gk21(b, a, z, lam)
            heapq.heappush(heap, (-err, a, z, val))
    return math.fsum(map(values, heap))


def _survival_quad(spec: DriftSpec, t: float):
    """``drifted_survival_quad`` before its clamp: the quadrature sum as it
    came, which reads above 1 where the integrand is too large."""
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
    total = _quad(b, pieces, lam)
    cutoff_bound = cosh_lb * math.exp(-(g + a0) * T_cut) * (4.0 / math.pi)
    return total, cutoff_bound


def drifted_survival_quad(spec: DriftSpec, t: float):
    """Quadrature route for P(tau > t): independent of the termwise series.

    Returns (value, cutoff_bound) where cutoff_bound dominates the mass of
    the integrand beyond the truncation time.  The value is clamped to
    [0, 1]; ValueError where cosh(lam*b) overflows.
    """
    total, cutoff_bound = _survival_quad(spec, t)
    return min(1.0, max(0.0, total)), cutoff_bound


def dominance_scan_continuous(lambdas, b: float, times,
                              tie_tol: float = DOMINANCE_TIE_TOL) -> DominanceReport:
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
