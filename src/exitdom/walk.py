"""Exact law of the exit time of a biased nearest-neighbour walk from (-k, k).

The walk starts at 0, steps +1 with probability p and -1 with probability
q = 1 - p, and is absorbed at +-k.  Everything here is computed by one
dynamic programme on the interior states {-k+1, ..., k-1}, run in either of
two number types: exact rationals (``fractions.Fraction``) or 64-bit floats.
The ``mode`` argument picks the type; the recurrence, the mean-exit solve and
the closed forms are shared.  In rational mode, with p = a/d, the recurrence
runs fraction-free on the integer vectors d^n * u_n (Bareiss, Math. Comp. 22,
1968) and a Fraction is formed only for a returned value.  The exact routes
of ``dominance`` and ``walk_girsanov`` read those integers themselves, through
``_survival_entries`` and ``_joint_entries``, and decide on them.  One DP
runs a whole grid of biases that share k: each bias owns a segment of one
flat row, fenced by exit cells of weight 0, so the grid costs the numpy
calls of one bias and each bias keeps the bits of a run of its own; a block
holds max(1, 64 // biases) steps, so the buffer stays the size of one
bias's.

``survival_at`` gives float survival probabilities at selected steps
without running the recurrence: the interior matrix is tridiagonal Toeplitz,
so P(sigma > n) has the eigen-expansion sum_v c_v (2 sqrt(pq) cos(pi v/2k))^n
(Feller, Vol. I, XIV.5), which costs O(k^2) once and O(k) per step count.
Away from p = 1/2 the expansion is ill-conditioned; a gate on the spread of
its similarity weights hands those inputs back to the DP, which stays the
exact reference.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MODE_RATIONAL = "rational"
MODE_FLOAT = "float"
_MODES = (MODE_RATIONAL, MODE_FLOAT)

# survival_at uses its closed form only while (2k-1) * sqrt(R) is at most
# this, where R = (max(p,q)/min(p,q))^(k-1) is the spread of the similarity
# weights; the product bounds their sum relative to the centre weight, and
# the rounding error of the expansion grows with it.  Against an
# extended-precision DP over n <= 4k + 40 and k <= 2000, the worst error
# was 1.8e-14 up to 2000, 8.0e-14 up to 8000 and 2.6e-13 up to 16000.
_MAX_CONDITION = 2000.0

# steps per block of the walk DP's row buffer for one bias; a grid of g
# biases takes max(1, _DP_BLOCK // g) steps per block
_DP_BLOCK = 64


def exact_fraction(x) -> Fraction:
    """Convert a bias/probability to an exact Fraction, or raise ValueError.

    Floats are read through their shortest decimal representation, so 0.55
    means 11/20.  Floats whose shortest form needs more than 12 significant
    digits (e.g. accumulated round-off like 0.1 + 0.2) are rejected as not
    exactly representable.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite value {x!r} has no exact representation")
        s = repr(x)
        mantissa = s.split("e")[0].split("E")[0]
        digits = mantissa.replace("-", "").replace(".", "").lstrip("0")
        if len(digits) > 12:
            raise ValueError(
                f"float {x!r} is not exactly representable in rational mode; "
                "pass a Fraction or a string like '11/20'"
            )
        return Fraction(s)
    raise ValueError(f"cannot interpret {x!r} as an exact rational")


def _parse_bias(p, name: str = "bias p") -> float:
    """A bias given as float, Fraction or "num/den" string, as a float in (0, 1).

    Raises ValueError for a value outside (0, 1), for empty text and for a
    zero denominator.
    """
    if isinstance(p, str) and not p.strip():
        raise ValueError(f"empty {name}")
    try:
        pf = float(Fraction(p) if isinstance(p, str) else p)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {p!r}") from None
    if not 0.0 < pf < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {p!r}")
    return pf


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown arithmetic mode {mode!r}; expected one of {_MODES}")


@dataclass(frozen=True)
class WalkSpec:
    """Biased-walk exit problem: bias p, barrier half-width k."""

    p: object  # float, Fraction or "num/den" string
    k: int

    def __post_init__(self):
        _parse_bias(self.p)
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"half-width k must be an integer >= 1, got {self.k!r}")

    def p_float(self) -> float:
        return _parse_bias(self.p)

    def pq(self, mode: str):
        """(p, q) in the number type of ``mode``."""
        p = exact_fraction(self.p) if mode == MODE_RATIONAL else self.p_float()
        return p, 1 - p


@dataclass
class SurvivalCurve:
    """P(sigma > n) for n = 0..horizon, tagged with its arithmetic mode."""

    values: list  # floats or Fractions, index n
    mode: str

    def __post_init__(self):
        _check_mode(self.mode)
        if not self.values or self.values[0] != 1:
            raise ValueError("survival curve must start at 1")


@dataclass
class JointExitTable:
    """Per-step exit mass P(sigma = n, S_sigma = +-k) plus interior residual.

    ``up[n]`` and ``down[n]`` are the masses absorbed at +k and -k at step n;
    ``residual[n]`` is P(sigma > n).  Row 0 is (0, 0, 1).
    """

    spec: WalkSpec
    up: list
    down: list
    residual: list
    mode: str

    def exit_pmf(self, n: int):
        return self.up[n] + self.down[n]

    @functools.cached_property
    def _exit_pmfs(self) -> np.ndarray:
        """exit_pmf(n) for n = 0..horizon as an array, formed on the first
        read like ``_log_exits``; the readers never change a table, so the
        array stays its exit law.  Only float tables are read."""
        return np.add(self.up, self.down)

    @functools.cached_property
    def _log_exits(self) -> tuple:
        """(log up, log down) as float arrays, -inf where a mass is 0, formed
        on the first read like ``_exit_pmfs``; only float tables are read."""
        with np.errstate(divide="ignore"):
            return np.log(self.up), np.log(self.down)


def _dp(specs: list, horizon: int, mode: str, exits: bool = True) -> list:
    """(up, down, residual, scale) for steps 0..horizon, one per spec, or
    (residual, scale) without ``exits``.

    The specs share one half-width k.  Entry n of each list is the step-n
    value times scale**n.  One recurrence serves both modes and every spec:
    each step multiplies the interior vector by the up and down weights.
    Float mode uses the weights (p, q) with scale 1, so its entries are the
    values themselves.  Rational mode, for p = a/d in lowest terms, uses the
    integers (a, d - a) with scale d: the vector d^n * u_n is integral, so
    the recurrence runs on Python ints in an object array and never
    normalises a Fraction.  ``_values`` divides by d^n afterwards.

    The specs run side by side in one flat row of a (block + 1,
    len(specs) * (2k + 1)) buffer.  Each spec owns 2k + 1 cells: one for
    its exit at -k, its 2k - 1 interior states, and one for its exit at +k.
    A state cell carries its spec's weights and an exit cell the weights 0,
    so no mass crosses from one spec to the next.  Row 0 holds the vectors
    entering the block, and step i writes row i + 1 from row i in place:
    new[1:] = w_up * u[:-1], then new[:-1] += w_down * u[1:] onto
    new[0] = 0.  Every state and exit cell of a spec sees the multiply of a
    run of its own, w_up * u[j - 1] or w_down * u[j + 1], plus the other
    neighbour's product or an exact 0 from a cell of weight 0, so each spec
    gets the same bits as alone; a grid of biases costs the numpy calls of
    one bias, each on one flat row.  Once per block, the exit columns are
    copied out, unless ``exits`` is false, and the residuals are
    np.add.reduce(..., axis=2) over each spec's state cells, numpy's
    pairwise order of a 1-D u.sum(); the last row then moves to row 0.
    Without the exit columns, the last state cell of each spec moves up and
    its first moves down with the weight 0, so the exit cells stay 0 and
    rational mode multiplies no integer into them.  A block is max(1,
    ``_DP_BLOCK`` // len(specs)) steps, so the buffer holds about as many
    cells as one spec's buffer of ``_DP_BLOCK`` steps: the memory is bounded
    by the block, not by the horizon or the grid.
    """
    k = specs[0].k
    weights = [spec.pq(mode) for spec in specs]
    if mode == MODE_RATIONAL:  # p = a/d and q = (d - a)/d, both in lowest terms
        scales = [p.denominator for p, _ in weights]
        weights = [(p.numerator, q.numerator) for p, q in weights]
        zero, one, dtype = 0, 1, object
    else:
        scales, zero, one, dtype = [1] * len(specs), 0.0, 1.0, float
    width = 2 * k + 1  # cells per spec: exit at -k, 2k - 1 states, exit at +k
    # each cell's weights as the source of a move: 0 on the exit cells
    cell_up, cell_down = (np.array([w for pair in weights
                                    for w in (zero, *[pair[side]] * (width - 2), zero)],
                                   dtype=dtype) for side in (0, 1))
    if not exits:  # no move into an exit cell: its products would be discarded
        cell_up[width - 2::width] = zero
        cell_down[1::width] = zero
    cell_up, cell_down = cell_up[:-1], cell_down[1:]
    block = min(horizon, max(1, _DP_BLOCK // len(specs)))
    rows = np.full((block + 1, len(specs) * width), zero, dtype=dtype)
    rows[0, k::width] = one
    heads = [row[:-1] for row in rows]
    tails = [row[1:] for row in rows]
    down_part = np.empty(len(specs) * width - 1, dtype=dtype)
    cells = rows.reshape(block + 1, len(specs), width)
    mul, add = np.multiply, np.add  # a positional out= makes each call cheapest
    # steps 1..horizon of each spec's up and down columns (with exits) and
    # its residual column
    out = np.empty((len(specs), 3 if exits else 1, horizon), dtype=dtype)
    for start in range(0, horizon, block or 1):
        steps = min(block, horizon - start)
        rows[1:, 0] = zero
        for u_head, u_tail, new_head, new_tail in zip(heads, tails, heads[1:steps + 1],
                                                      tails[1:steps + 1]):
            mul(u_head, cell_up, new_tail)
            mul(u_tail, cell_down, down_part)
            add(new_head, down_part, new_head)
        done, new = slice(start, start + steps), cells[1:steps + 1]
        if exits:
            out[:, 0, done] = new[:, :, -1].T
            out[:, 1, done] = new[:, :, 0].T
        out[:, -1, done] = np.add.reduce(new[:, :, 1:-1], axis=2).T
        rows[0] = rows[steps]
    tables = []
    for (*exit_columns, residual), scale in zip(out, scales):
        residual = [one, *residual]
        if mode == MODE_FLOAT:  # round-off in a long float run can lift the sum above 1
            residual = [min(r, one) for r in residual]
        tables.append((*([zero, *column] for column in exit_columns), residual, scale))
    return tables


def _values(entries: list, scale: int) -> list:
    """The values entries[n] / scale**n of a ``_dp`` list, as Fractions.

    A float list (scale 1) is returned as it is.
    """
    if scale == 1:
        return entries
    out = []
    power = 1
    for entry in entries:
        out.append(Fraction(entry, power))
        power *= scale
    return out


def _joint_entries(spec: WalkSpec, horizon: int, mode: str):
    """``_dp``'s (up, down, residual, scale) after ``exit_joint``'s checks."""
    _check_mode(mode)
    if horizon < spec.k:
        raise ValueError(f"horizon {horizon} is below the half-width k={spec.k}")
    return _dp([spec], horizon, mode)[0]


def _survival_entries(specs: list, horizon: int, mode: str) -> list:
    """``_dp``'s (residual, scale) per spec after ``survival_pmf``'s checks,
    from one DP over specs that share their half-width."""
    _check_mode(mode)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    return _dp(specs, horizon, mode, exits=False)


def exit_joint(spec: WalkSpec, horizon: int, mode: str = MODE_FLOAT) -> JointExitTable:
    """Joint law of (sigma, S_sigma) up to ``horizon`` steps.

    Requires horizon >= k so that at least one exit row is nonzero.
    """
    *columns, scale = _joint_entries(spec, horizon, mode)
    return JointExitTable(spec, *(_values(c, scale) for c in columns), mode)


def survival_pmf(spec: WalkSpec, horizon: int, mode: str = MODE_FLOAT) -> SurvivalCurve:
    """Survival probabilities P(sigma > n) for n = 0..horizon."""
    return SurvivalCurve(_values(*_survival_entries([spec], horizon, mode)[0]), mode)


def survival_at(spec: WalkSpec, ns) -> list:
    """P(sigma > n) for each integer step count n in ``ns``, as floats.

    Evaluates the closed-form solution of the DP recurrence instead of
    running it.  The interior matrix is similar, through the diagonal
    weights (p/q)^(j/2), to sqrt(pq) times the symmetric tridiagonal matrix
    of ones, whose eigenpairs are known (Feller, Vol. I, XIV.5):

        P(sigma > n) = sum over odd v < 2k of c_v * lambda_v^n,
        lambda_v = 2*sqrt(pq)*cos(pi*v/(2k)),
        c_v = (+-1/k) * sum_j sin(pi*v*j/(2k)) * (p/q)^((j-k)/2).

    Each power is exp(n*log|lambda_v|) with the log formed through log1p,
    which keeps it accurate at large n; the sign of lambda_v for v > k is
    applied separately.  Below k steps the survival is exactly 1.  Far from
    p = 1/2 the weights make the sum ill-conditioned: where
    (2k-1) * sqrt(R), with R = (max(p,q)/min(p,q))^(k-1), exceeds
    ``_MAX_CONDITION``, the values come from the float DP instead.
    """
    try:
        ns = [operator.index(n) for n in ns]
    except TypeError:
        raise ValueError("step counts must be integers") from None
    if any(n < 0 for n in ns):
        raise ValueError("step counts must be >= 0")
    p, q = spec.pq(MODE_FLOAT)
    k = spec.k
    log_condition = math.log(2 * k - 1) + 0.5 * (k - 1) * abs(math.log(p / q))
    if log_condition > math.log(_MAX_CONDITION):
        values = survival_pmf(spec, max(ns, default=0), MODE_FLOAT).values
        return [values[n] for n in ns]
    v = np.arange(1, 2 * k, 2)  # modes of even index carry no weight
    j = np.arange(1, 2 * k)
    weights = (p / q) ** ((j - k) / 2)
    sign = np.where(v % 4 == 1, 1.0, -1.0)  # sin(pi*v/2)
    c = sign / k * (np.sin(np.outer(v, j) * (np.pi / (2 * k))) @ weights)
    m = np.minimum(v, 2 * k - v)
    # log|cos(pi*m/(2k))| = log1p(-2 sin^2(pi*m/(4k))); lambda = 0 at m = k
    log_mod = np.full(v.size, -np.inf)
    live = m != k
    if live.any():  # k > 1, so the gate has kept p away from 0 and 1
        log_mod[live] = (0.5 * math.log1p(-(p - q) ** 2)  # log(2 sqrt(pq))
                         + np.log1p(-2.0 * np.sin(np.pi * m[live] / (4 * k)) ** 2))
    negative = v > k
    out = []
    for n in ns:
        if n < k:  # no path reaches +-k in fewer than k steps
            out.append(1.0)
            continue
        terms = c * np.exp(n * log_mod)
        if n % 2:
            terms[negative] = -terms[negative]
        out.append(min(1.0, max(0.0, float(terms.sum()))))
    return out


def mean_exit(spec: WalkSpec, mode: str = MODE_FLOAT):
    """E[sigma] from state 0, by the gambler's-ruin closed form.

    E[sigma] = k * sum_{i<k} p^(k-1-i) q^i / (p^k + q^k), here divided
    through by m^(k-1), m = max(p, q), so that no power of a large k
    underflows the denominator.  The terms r^i, r = min(p, q) / m, are all
    positive, so nothing cancels near p = 1/2.  The sum runs in the mode's
    numbers.
    """
    _check_mode(mode)
    p, q = spec.pq(mode)
    m = max(p, q)
    r = min(p, q) / m
    k = spec.k
    return k * sum(r**i for i in range(k)) / (m * (1 + r**k))


def upper_exit_prob(spec: WalkSpec, mode: str = MODE_FLOAT):
    """P(S_sigma = +k): the classical gambler's-ruin split p^k / (p^k + q^k)."""
    _check_mode(mode)
    p, q = spec.pq(mode)
    return p**spec.k / (p**spec.k + q**spec.k)


def interior_decay_envelope(spec: WalkSpec):
    """(log A, rho) with P(sigma > n) <= A * rho^n for all n.

    rho = 2*sqrt(pq)*cos(pi/(2k)) is the Perron value of the substochastic
    interior transition matrix; A comes from symmetrising the matrix with the
    diagonal weights (q/p)^(j/2), A^2 = sum_{|j|<k} y^j with
    y = max(p,q)/min(p,q).  A is returned as its log, from the geometric sum
    in closed form, log A^2 = (k-1) log y + log(1 - y^-(2k-1)) - log(1 - 1/y):
    A^2 itself overflows a float once (k-1) log y passes 709.78, at p = 0.99
    from k = 156 on.
    """
    p, q = spec.pq(MODE_FLOAT)
    k = spec.k
    rho = 2.0 * np.sqrt(p * q) * np.cos(np.pi / (2 * k))
    log_y = abs(math.log(p / q))
    if log_y == 0.0:
        return 0.5 * math.log(2 * k - 1), rho
    log_a2 = ((k - 1) * log_y + math.log(-math.expm1(-(2 * k - 1) * log_y))
              - math.log(-math.expm1(-log_y)))
    return 0.5 * log_a2, rho
