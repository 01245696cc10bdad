"""Change of measure between biased-walk laws, on paths and at the exit time.

The Radon-Nikodym derivative between the walk of bias p2 and the walk of
bias p1 on the first n steps is r^n * z^s with

    r = sqrt(p2*q2 / (p1*q1)),   z = sqrt(p2*q1 / (p1*q2)),

evaluated at the terminal position s.  The same expression at (sigma,
S_sigma) changes measure on the stopped filtration, which is what the
reweighting and factorization identities below exercise.

``reweighted_survival_walk`` and ``factorization_check_discrete`` read their
float exit table from ``_float_exit_table``, a ``functools.lru_cache`` of
``_TABLE_CACHE`` (16) tables keyed on (bias as a float, k, truncation), so a
grid of calls that shares a bias builds its table once.  The table is a pure
function of that key and only the ``*_from_table`` readers, which never
change it, see the cached one: every returned value is the same bit for bit.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from . import walk
from .walk import (MODE_FLOAT, MODE_RATIONAL, JointExitTable, WalkSpec,
                   _parse_bias, exit_joint)


_TABLE_CACHE = 16  # float exit tables kept by _float_exit_table


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
    """Rigorous bound on the reweighted mass beyond the truncation step."""
    k = spec_from.k
    zmax = max(z**k, z**-k)
    A, rho = walk.interior_decay_envelope(spec_from)
    # r * rho equals the Perron value at the target bias, hence < 1 always;
    # powering the product rather than r alone keeps r > 1 from overflowing
    geo = A * r * (r * rho) ** truncation / (1.0 - r * rho)
    bound = zmax * geo
    if r <= 1.0:
        bound = min(bound, r**truncation * zmax * residual_at_truncation)
    return bound


@functools.lru_cache(maxsize=_TABLE_CACHE, typed=True)
def _float_exit_table(p: float, k: int, truncation: int) -> JointExitTable:
    """The float exit table at bias ``p`` (a float) up to ``truncation``.

    Memoized on (p, k, truncation), at most ``_TABLE_CACHE`` tables; typed,
    so that a k or truncation of another type is checked by ``exit_joint``
    rather than served a table.  Callers hand it only to the readers.
    """
    return exit_joint(WalkSpec(p, k), truncation, MODE_FLOAT)


def reweighted_survival_walk(p_from, p_to, k: int, n: int,
                             truncation: int) -> ReweightedSurvival:
    """Estimate P_{p_to}(sigma > n) from the p_from exit table by reweighting.

    Reads the float exit table at p_from up to ``truncation``, built once
    per (p_from, k, truncation) by ``_float_exit_table``, with
    ``reweighted_survival_from_table``.
    """
    pf = _parse_bias(p_from, "p_from")
    _parse_bias(p_to, "p_to")
    if truncation <= n:
        raise ValueError(f"truncation {truncation} must exceed n={n}")
    return reweighted_survival_from_table(_float_exit_table(pf, k, truncation),
                                          p_to, n)


def reweighted_survival_from_table(table: JointExitTable, p_to,
                                   n: int) -> ReweightedSurvival:
    """P_{p_to}(sigma > n) by reweighting a float exit table built at p_from.

    Sums r^m * z^(+-k) over the exit rows m = n+1..truncation, where the
    truncation is the table's horizon, and returns the truncation error
    bound alongside for the caller to compare with its tolerance.  One table
    serves every (p_to, n) that shares its bias and half-width.
    """
    pt = _parse_bias(p_to, "p_to")
    truncation = table.horizon
    if truncation <= n:
        raise ValueError(f"truncation {truncation} must exceed n={n}")
    spec = table.spec
    k = spec.k
    r, z = _rz(spec.p_float(), pt)
    exp, log = math.exp, math.log
    log_r, log_z = log(r), log(z)
    up_log_z, down_log_z = k * log_z, -k * log_z
    est = 0.0
    # each term is weight * mass, formed as exp(log weight + log mass): the
    # weight alone overflows for r > 1 long before the product does
    for m, up, down in zip(range(n + 1, truncation + 1), table.up[n + 1:],
                           table.down[n + 1:]):
        if up > 0.0:
            est += exp(m * log_r + up_log_z + log(up))
        if down > 0.0:
            est += exp(m * log_r + down_log_z + log(down))
    bound = _tail_bound(spec, r, z, truncation, table.residual[truncation])
    return ReweightedSurvival(est, bound)


def _factorization_r(p1, p2, n: int, truncation: int):
    """(r, p2 as a float) for the factorization identity, after its preconditions."""
    p1f = _parse_bias(p1, "p1")
    p2f = _parse_bias(p2, "p2")
    if not (0.5 <= p1f < p2f < 1.0):
        raise ValueError(f"need 1/2 <= p1 < p2 < 1, got p1={p1}, p2={p2}")
    if truncation <= n:
        raise ValueError(f"truncation {truncation} must exceed n={n}")
    r, _ = _rz(p1f, p2f)
    if not r < 1.0:
        raise ValueError(
            f"p1={p1} and p2={p2} are so close that r rounds to {r!r}; "
            "the identity needs r < 1")
    return r, p2f


def factorization_check_discrete(p1, p2, k: int, n: int, truncation: int) -> float:
    """Discrepancy in the conditional-expectation factorization of the survival.

    Both sides of

        Q_{p2}(sigma > n) = E_{p1}[r^sigma | sigma > n] / E_{p1}[r^sigma]
                            * Q_{p1}(sigma > n)

    are computed independently: the left from a direct DP at p2, the right
    by ``factorization_from_table`` from the float exit table at p1 up to
    ``truncation``, built once per (p1, k, truncation) by
    ``_float_exit_table``.  Requires 1/2 <= p1 < p2 < 1 so that r < 1; a
    pair so close that r rounds to 1 raises ValueError.
    """
    _, p2f = _factorization_r(p1, p2, n, truncation)
    table = _float_exit_table(_parse_bias(p1, "p1"), k, truncation)
    direct = walk.survival_pmf(WalkSpec(p2f, k), n, MODE_FLOAT).values[n]
    return abs(direct - factorization_from_table(table, p2, n))


def factorization_from_table(table: JointExitTable, p2, n: int) -> float:
    """Right-hand side of the factorization identity at (p2, n).

    Computed entirely from a float exit table built at p1, truncated at the
    table's horizon; it estimates Q_{p2}(sigma > n), as
    ``reweighted_survival_from_table`` does.  One table serves every
    (p2, n) that shares its bias and half-width, and forms its list of
    exit masses once.
    """
    truncation = table.horizon
    r, _ = _factorization_r(table.spec.p, p2, n, truncation)
    terms = [r**m * pmf for m, pmf in enumerate(table._exit_pmfs)]
    return sum(terms[n + 1:]) / sum(terms)


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
    if mode == MODE_RATIONAL:
        up, down, _, d = walk._joint_entries(spec, truncation, mode)
        a, b = (x.numerator for x in spec.pq(mode))
        a_k, b_k = a**k, b**k
        misses = [abs(u * b_k - v * a_k) for u, v in zip(up, down)]
        if not any(misses):
            return Fraction(0)
        return max(Fraction(miss, d**m * (a_k + b_k))
                   for m, miss in enumerate(misses))
    table = exit_joint(spec, truncation, mode)
    h = walk.upper_exit_prob(spec, mode)
    return max(abs(table.up[m] - table.exit_pmf(m) * h)
               for m in range(truncation + 1))
