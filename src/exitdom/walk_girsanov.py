"""Change of measure between biased-walk laws, on paths and at the exit time.

The Radon-Nikodym derivative between the walk of bias p2 and the walk of
bias p1 on the first n steps is r^n * z^s with

    r = sqrt(p2*q2 / (p1*q1)),   z = sqrt(p2*q1 / (p1*q2)),

evaluated at the terminal position s.  The same expression at (sigma,
S_sigma) changes measure on the stopped filtration, which is what the
reweighting and factorization identities below exercise.

Each identity has one route, ``reweighted_survival_walk``,
``factorization_check_discrete`` or ``check_independence_discrete``, which the
CLI and the battery both call.  In float mode they read their exit tables from
``_float_exit_table``, a ``functools.lru_cache`` of ``_TABLE_CACHE`` (32)
tables keyed on (bias as a float, k, truncation), so a grid of calls that
shares a bias builds its table once: the desk battery's three float walk
checks read 20 tables.  The table is a pure function of that key and no
reader changes it, so every value is the same bit for bit, cold or warm.

``reweighted_survival_walk`` stops its sum at the first row after which no
term can change it: from the table's log exit masses, numpy caps every term
from each row on, and once the cap is below a quarter ulp of the running
sum the loop ends, with the bits of the full sum (the proof is in the
function's docstring).  Of the nonzero terms up to the truncation, the
desk's reweighting check evaluates 58% and the ``exact-routes`` grid 44%.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import walk
from .walk import (MODE_FLOAT, MODE_RATIONAL, JointExitTable, WalkSpec,
                   _parse_bias, exit_joint)


_TABLE_CACHE = 32  # float exit tables kept by _float_exit_table


class ReweightedSurvival(NamedTuple):
    estimate: float
    tail_bound: float


def _rz(p_from: float, p_to: float):
    q_from = 1.0 - p_from
    q_to = 1.0 - p_to
    r = math.sqrt(p_to * q_to / (p_from * q_from))
    z = math.sqrt(p_to * q_from / (p_from * q_to))
    return r, z


def _tail_bound(spec_from: WalkSpec, r: float, z: float, truncation: int,
                residual_at_truncation: float) -> float:
    """Rigorous bound on the reweighted mass beyond the truncation step.

    Formed in logs and exponentiated once, so it is inf only where its log
    passes the float range, and never NaN: A alone overflows at p = 0.99,
    k = 200, where the bound itself can be finite or 0.
    """
    k = spec_from.k
    log_zmax = k * abs(math.log(z))
    log_A, rho = walk.interior_decay_envelope(spec_from)
    # r * rho equals the Perron value at the target bias, hence < 1 always
    r_rho = r * rho
    log_bound = (log_zmax + log_A + math.log(r) + truncation * math.log(r_rho)
                 - math.log1p(-r_rho))
    if r <= 1.0:
        if residual_at_truncation == 0.0:
            return 0.0
        log_bound = min(log_bound, truncation * math.log(r) + log_zmax
                        + math.log(residual_at_truncation))
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=_TABLE_CACHE, typed=True)
def _float_exit_table(p: float, k: int, truncation: int) -> JointExitTable:
    """The float exit table at bias ``p`` (a float) up to ``truncation``.

    Memoized on (p, k, truncation), at most ``_TABLE_CACHE`` tables; typed,
    so that a k or truncation of another type is checked by ``exit_joint``
    rather than served a table.  Only the three identities below read it.
    """
    return exit_joint(WalkSpec(p, k), truncation, MODE_FLOAT)


def _check_truncation(spec: WalkSpec, truncation: int) -> None:
    """Raise ValueError unless the truncation reaches step k, the first exit."""
    if truncation < spec.k:
        raise ValueError(f"truncation {truncation} is below the half-width k={spec.k}")


def reweighted_survival_walk(p_from, p_to, k: int, n: int,
                             truncation: int) -> ReweightedSurvival:
    """Estimate P_{p_to}(sigma > n) from the p_from exit table by reweighting.

    Sums r^m * z^(+-k) over the exit rows m = n+1..truncation of the float
    exit table at p_from, and returns the truncation error bound alongside
    for the caller to compare with its tolerance.

    The sum stops at the first row after which no term can change it.  Every
    term is exp(m log r +- k log z + log mass), and the table's log masses
    (``_log_exits``, formed once per table) give numpy a cap for each row
    m: exp of the suffix maximum, over rows m' >= m, of
    m' log r + max(log up + k log z, log down - k log z), plus a margin of
    1e-9 + 1e-15 M, where M = truncation |log r| + k |log z| + 746 bounds
    every partial sum of either exponent.  The two routes form the exponent
    in another order, and numpy's log and exp may differ from ``math``'s in
    the last bits; each rounding is below 2^-53 M, and a few ulp of log and
    exp are far below 1e-9, so the cap is above every term from row m on.
    A term that overflows ``math.exp`` makes its cap inf.  The loop stops
    before row m once cap * 2^55 < est (the product is exact, or inf).  For
    est in [2^e, 2^(e+1)), every later term t is then below
    est * 2^-55 < 2^(e-54), a quarter of est's ulp 2^(e-52) (below the
    normal range, est * 2^-55 is below a quarter of the least ulp too).  So
    est + t rounds back to est, est stays as it is, and the same holds for
    every later term; est never falls, as no term is negative.  The result
    is the full sum's bit for bit, and an overflowing term still raises
    OverflowError.
    """
    pf = _parse_bias(p_from, "p_from")
    pt = _parse_bias(p_to, "p_to")
    if not 0 <= n < truncation:
        raise ValueError(f"need 0 <= n < truncation={truncation}, got n={n}")
    _check_truncation(WalkSpec(pf, k), truncation)
    table = _float_exit_table(pf, k, truncation)
    r, z = _rz(pf, pt)
    exp, log = math.exp, math.log
    log_r, log_z = log(r), log(z)
    up_log_z, down_log_z = k * log_z, -k * log_z
    log_up, log_down = table._log_exits
    margin = 1e-9 + 1e-15 * (truncation * abs(log_r) + abs(up_log_z) + 746.0)
    with np.errstate(over="ignore"):
        logs = np.arange(n + 1, truncation + 1) * log_r + np.maximum(
            log_up[n + 1:] + up_log_z, log_down[n + 1:] + down_log_z)
        caps = (np.exp(np.maximum.accumulate(logs[::-1])[::-1] + margin)
                * 2.0**55).tolist()
    est = 0.0
    # each term is weight * mass, formed as exp(log weight + log mass): the
    # weight alone overflows for r > 1 long before the product does
    for m, up, down, cap in zip(range(n + 1, truncation + 1), table.up[n + 1:],
                                table.down[n + 1:], caps):
        if cap < est:
            break
        if up > 0.0:
            est += exp(m * log_r + up_log_z + log(up))
        if down > 0.0:
            est += exp(m * log_r + down_log_z + log(down))
    bound = _tail_bound(table.spec, r, z, truncation, table.residual[truncation])
    return ReweightedSurvival(est, bound)


def factorization_check_discrete(p1, p2, k: int, n: int, truncation: int) -> float:
    """Discrepancy in the conditional-expectation factorization of the survival.

    Both sides of

        Q_{p2}(sigma > n) = E_{p1}[r^sigma | sigma > n] / E_{p1}[r^sigma]
                            * Q_{p1}(sigma > n)

    are computed independently: the left from the float exit table at p2,
    the right from the exit law of the table at p1 alone, truncated at
    ``truncation``.  Requires 1/2 <= p1 < p2 < 1 so that r < 1; a pair so
    close that r rounds to 1 raises ValueError, and so does a pair whose
    r^sigma underflows on every truncated exit step.

    The terms r^m P(sigma = m), m = 0..truncation, form one float array, 0
    where the walk cannot exit, and both sums, over every m and over m > n,
    add them left to right from the first (``np.cumsum``), the order of
    CPython 3.11's ``sum`` over a list.
    The order is pinned here, so a ``sum`` that compensates (CPython 3.12)
    moves no bit.
    """
    p1f = _parse_bias(p1, "p1")
    p2f = _parse_bias(p2, "p2")
    if not (0.5 <= p1f < p2f < 1.0):
        raise ValueError(f"need 1/2 <= p1 < p2 < 1, got p1={p1}, p2={p2}")
    if not 0 <= n < truncation:
        raise ValueError(f"need 0 <= n < truncation={truncation}, got n={n}")
    _check_truncation(WalkSpec(p1f, k), truncation)
    r, _ = _rz(p1f, p2f)
    if not r < 1.0:
        raise ValueError(
            f"p1={p1} and p2={p2} are so close that r rounds to {r!r}; "
            "the identity needs r < 1")
    direct = _float_exit_table(p2f, k, truncation).residual[n]
    # P(sigma = m) is 0 for m < k and for m of the other parity than k, so
    # those terms are 0 without r^m; the others take r^m by the builtin pow,
    # whose bits numpy's power does not always match
    exits = range(k, truncation + 1, 2)
    terms = np.zeros(truncation + 1)
    terms[k::2] = np.fromiter(map(pow, itertools.repeat(r), exits), float, len(exits))
    terms[k::2] *= _float_exit_table(p1f, k, truncation)._exit_pmfs[k::2]
    total = np.cumsum(terms)[-1]
    if total == 0.0:
        raise ValueError(
            f"every term r^m P(sigma = m) underflows to 0 at p1={p1}, p2={p2}, "
            f"k={k}, so E_p1[r^sigma] reads 0")
    return abs(direct - np.cumsum(terms[n + 1:])[-1] / total)


def check_independence_discrete(p, k: int, truncation: int,
                                mode: str = MODE_FLOAT):
    """Max deviation |P(sigma=n, S_sigma=+k) - P(sigma=n) P(S_sigma=+k)|.

    The side marginal P(S_sigma = +k) is the exact gambler's-ruin split
    p^k/(p^k + q^k), so in rational mode a correct table factorizes with
    deviation exactly 0 at every step up to the truncation.  There, with
    p = a/d, q = b/d and the DP's integer exits U_m = d^m P(sigma=m, +k) and
    D_m = d^m P(sigma=m, -k), the deviation at step m is
    |U_m b^k - D_m a^k| / (d^m (a^k + b^k)): it is decided on integers, and
    a Fraction is formed only when some step misses.
    """
    spec = WalkSpec(p, k)
    _check_truncation(spec, truncation)
    if mode == MODE_RATIONAL:
        up, down, _, d = walk._joint_entries(spec, truncation, mode)
        a, b = (x.numerator for x in spec.pq(mode))
        a_k, b_k = a**k, b**k
        misses = [abs(u * b_k - v * a_k) for u, v in zip(up, down)]
        if not any(misses):
            return Fraction(0)
        return max(Fraction(miss, d**m * (a_k + b_k))
                   for m, miss in enumerate(misses))
    table = _float_exit_table(spec.p_float(), k, truncation)
    h = walk.upper_exit_prob(spec, mode)
    return max(abs(table.up[m] - table.exit_pmf(m) * h)
               for m in range(truncation + 1))
