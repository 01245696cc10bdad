"""Monte Carlo engine: drifted Brownian exits, path reweighting, coupled SDEs.

Reproducibility contract: exit paths are simulated in batches of
``_BATCH_PATHS`` (4096), so path i belongs to batch i // 4096 and draws from
the Philox counter-based stream ``rng.child(i // 4096)``.  Batch results are
combined in fixed batch order, so output is bit-identical no matter how many
worker threads run the batches.  Streams of different specs never overlap
(see ``RngStreamSpec``).

Draws of one exit batch.  The batch simulates its live paths a chunk of
steps at a time and splits each chunk into blocks of live paths, taken in
path order, of 2**15 path-steps each (256 paths at the longest chunk).  For
each block it draws, from the batch's generator:

1. the chunk's standard normals, step-major (every path's first step, then
   every path's second step, ...);
2. one uniform per candidate step at the upper barrier, then one per
   candidate step at the lower barrier, each in step-major order;
3. one hitting time for each path that exits in the block, at each barrier
   its exiting step fired at: first the upper barrier's, in path order,
   then the lower barrier's, in path order.  Each is one ``wald`` draw, or
   one standard normal in the Levy limit (see ``_hit_offsets``).

A step from x_i to x_{i+1} is a candidate at the upper barrier when
q = (b - x_i)(b - x_{i+1}) <= (53 ln 2 / 2) dt, that is when its crossing
probability exp(-2q/dt) is at least 2**-53; at the lower barrier q is
(x_i + b)(x_{i+1} + b).  Uniforms are multiples of 2**-53 in [0, 1), so a
non-candidate step could only have fired on a uniform of exactly 0: skipping
its draw moves that step's crossing probability by less than 2**-53 and
leaves the law of the scheme otherwise unchanged.

The chunk length is the power of two in [16, 128] nearest a quarter of the
expected exit time in steps, b tanh(lam b) / (lam dt), or b^2 / dt at
lam = 0.  Short chunks waste fewer steps after a path's exit; long ones cut
the number of passes over the shrinking set of live paths.  A block's
working arrays, about 1 MiB, stay inside a 2 MiB L2 cache.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .bm import DriftSpec

_MASK64 = (1 << 64) - 1
# paths per exit batch: part of the stream contract, since it fixes which
# rng.child(i) every path draws from
_BATCH_PATHS = 4096
_MIN_CHUNK = 16
_MAX_CHUNK = 128
_BLOCK_CELLS = 1 << 15
# the coupled-SDE loop keeps R for a block of at most _Y_BLOCK_STEPS steps
# and _Y_BLOCK_CELLS cells
_Y_BLOCK_STEPS = 16
_Y_BLOCK_CELLS = 1 << 18
# exp(-2 q / dt) >= 2**-53  <=>  q <= (53 ln 2 / 2) dt
_Q_CUT = 53.0 * math.log(2.0) / 2.0
# largest admitted bound on the chance that one exit step reaches both barriers
_BOTH_BARRIERS_MAX = 1e-9
# smallest expected count per cell of the exit time-by-side chi-square table
_MIN_EXPECTED = 20.0


@dataclass(frozen=True)
class RngStreamSpec:
    """Master seed plus substream id for a counter-based generator family.

    The Philox key is (master_seed, substream).  ``child(i)`` keeps the key
    and gives the child its own region of the 256-bit Philox counter: the
    path of child indices, each stored as index + 1, fills the counter's high
    words from the top down, and the low word is left for the draws (2**64
    blocks of four 64-bit outputs per stream).  A stream never carries out of
    its low word, so two specs with different keys or different paths never
    share a draw; up to three levels of children are available.
    """

    master_seed: int
    substream: int = 0
    path: tuple = field(default=(), init=False)

    def generator(self) -> np.random.Generator:
        key = [self.master_seed & _MASK64, self.substream & _MASK64]
        counter = np.zeros(4, dtype=np.uint64)
        for depth, index in enumerate(self.path):
            counter[3 - depth] = index + 1
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def child(self, index: int) -> "RngStreamSpec":
        if len(self.path) == 3:
            raise ValueError("child streams nest at most three levels deep")
        if not 0 <= index < _MASK64:
            raise ValueError(f"child index must lie in [0, 2**64 - 1), got {index}")
        spec = replace(self)
        object.__setattr__(spec, "path", self.path + (index,))
        return spec


def _step_count(dt, horizon):
    """round(horizon / dt), or a ValueError naming both when that is no finite count."""
    steps = horizon / dt
    if not math.isfinite(steps):
        raise ValueError(f"horizon / dt is not a finite step count: dt={dt!r}, "
                         f"horizon={horizon!r}")
    return int(round(steps))


def _check_before_horizon(t, horizon):
    """Raise ValueError unless t is a number strictly before the horizon."""
    if math.isnan(t):
        raise ValueError("time must be a number, got nan")
    if t >= horizon:
        raise ValueError("t must lie strictly before the sample horizon")


@dataclass
class ExitSamples:
    """Struct-of-arrays collection of simulated exits from (-b, b).

    ``sides`` holds +1 / -1 for exits at +-b and 0 for paths censored at the
    horizon; censored rows keep ``times`` equal to the horizon.  ``terminal``
    holds, for an exited path, its position at the end of the step in which
    it exited, not the exit point side * b: the exit is placed inside the
    step, and the simulated endpoint may lie back inside (-b, b), as it did
    for 9,993 of 20,000 driftless exits at b = 1, dt = 1e-2, seed 5.  For a
    censored path it holds the position at the horizon.
    """

    spec: DriftSpec
    dt: float
    horizon: float
    times: np.ndarray
    sides: np.ndarray
    terminal: np.ndarray

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def censored_fraction(self) -> float:
        return float(np.mean(self.sides == 0))

    def empirical_survival(self, t: float) -> float:
        """P(tau > t) with censored paths counted as survivors (t < horizon)."""
        _check_before_horizon(t, self.horizon)
        return float(np.mean(self.times > t))

    def exit_times(self) -> np.ndarray:
        """Exit times of the non-censored paths."""
        return self.times[self.sides != 0]


def _chunk_length(lam, b, dt):
    """Steps per chunk, a power of two in [16, 128].

    It is the one nearest a quarter of the mean exit in steps; the mean exit
    time from (-b, b) is b tanh(lam b) / lam, or b^2 at lam = 0.
    """
    mean = b * b if lam == 0.0 else b * math.tanh(lam * b) / lam
    length = 2 ** round(math.log2(mean / dt / 4))
    return min(_MAX_CHUNK, max(_MIN_CHUNK, length))


def _first_exits(fired, rows):
    """First fired cell of each path in a step-major block.

    ``fired`` holds sorted flat indices step * rows + path; returns the
    exiting paths and their first fired flat index.
    """
    paths, first = np.unique(fired % rows, return_index=True)
    return paths, fired[first]


def _bridge_hits(path, b, dt, gen):
    """Bridge crossing test for every step of a step-major path block.

    Returns per-step hit codes, flattened step-major: bit 1 when the upper
    barrier fired, bit 2 when the lower one did.  Only candidate
    (step, barrier) pairs, those whose q = (b - x_i)(b - x_{i+1}) or
    (x_i + b)(x_{i+1} + b) is at most _Q_CUT * dt, draw a uniform: the upper
    barrier's candidates first, then the lower one's, each in step-major
    order.
    """
    gap = np.subtract(b, path)
    q_up = (gap[:-1] * gap[1:]).ravel()
    np.add(path, b, out=gap)
    q_dn = (gap[:-1] * gap[1:]).ravel()
    q_cut = _Q_CUT * dt
    cand_up = np.flatnonzero(q_up <= q_cut)
    cand_dn = np.flatnonzero(q_dn <= q_cut)
    u = gen.random(cand_up.size + cand_dn.size)
    hit = np.zeros(q_up.size, dtype=np.int8)
    hit[cand_up[u[:cand_up.size] < _bridge_prob(q_up[cand_up], dt)]] = 1
    hit[cand_dn[u[cand_up.size:] < _bridge_prob(q_dn[cand_dn], dt)]] += 2
    return hit


def _bridge_prob(q, dt):
    """Brownian-bridge crossing probability exp(-2 q / dt), capped at 1."""
    return np.exp(np.minimum(-2.0 / dt * q, 0.0))


def _hit_offsets(a, gap, dt, gen):
    """Hitting times of the barrier within steps known to reach it.

    ``a`` is each step's distance from its start x_i to the barrier and
    ``gap`` the distance |b - x_{i+1}| from its end.  Given its endpoints the
    step is a Brownian bridge, whatever the drift.  By time inversion the
    bridge reaches the barrier at time s dt / (dt + s) into the step exactly
    when a driftless Brownian motion W reaches a line of height a and slope
    +-gap / dt at time s; given that it does, s ~ IG(a dt / gap, a^2)
    (Borodin and Salminen, *Handbook of Brownian Motion*, part II).  Each
    step takes one ``gen.wald`` draw, in the order given, except that
    gap == 0 takes the Levy limit s = a^2 / Z^2 with one standard normal Z.
    Returns the offsets dt / (1 + dt / s), in [0, dt].
    """
    inv = np.empty(a.size)  # dt / s
    lo = 0
    for j in np.flatnonzero(gap == 0.0).tolist() + [a.size]:
        if j > lo:
            part = slice(lo, j)
            with np.errstate(divide="ignore"):
                inv[part] = dt / gen.wald(a[part] * dt / gap[part], a[part] * a[part])
        if j < a.size:
            inv[j] = dt * (gen.standard_normal() / a[j]) ** 2
        lo = j + 1
    return dt / (1.0 + inv)


def _exits_in_step(code, x0, x1, b, dt, k, gen):
    """Exit times and sides of steps whose bridge test fired.

    ``code`` holds each step's hit code (bit 1: upper barrier, bit 2: lower
    barrier), ``x0`` and ``x1`` its endpoints and ``k`` its index, so that it
    spans [k dt, (k + 1) dt].  Each fired barrier gets a hitting time from
    one ``_hit_offsets`` call, the upper barrier's steps first, and the
    earlier of two decides the side.  The time start + offset is then
    clamped to [nextafter(start, inf), end], with start = k * dt and
    end = (k + 1) * dt as rounded doubles: it lies in (start, end] after
    rounding, so an exit falls on the same side of every grid time j * dt as
    the step-end time end does.
    """
    up = np.flatnonzero(code & 1)
    dn = np.flatnonzero(code & 2)
    steps = np.concatenate((up, dn))
    side = np.ones(steps.size)  # the fired barrier: +1 at b, -1 at -b
    side[up.size:] = -1.0
    off = _hit_offsets(b - side * x0[steps], np.abs(b - side * x1[steps]), dt, gen)
    if steps.size > code.size:
        # a step fired at both barriers keeps its earlier time, the upper
        # barrier's when the two are equal
        order = np.lexsort((-side, off, steps))
        keep = order[np.unique(steps[order], return_index=True)[1]]
        steps, off, side = steps[keep], off[keep], side[keep]
    first = np.empty(code.size)
    first[steps] = off
    sides = np.empty(code.size, dtype=np.int8)
    sides[steps] = side
    start = k * dt
    times = np.minimum(np.maximum(start + first, np.nextafter(start, np.inf)),
                       (k + 1) * dt)
    return times, sides


def _simulate_batch(lam, b, dt, n_steps, n, gen):
    sqdt = math.sqrt(dt)
    drift = lam * dt
    chunk = _chunk_length(lam, b, dt)
    times = np.full(n, n_steps * dt)
    sides = np.zeros(n, dtype=np.int8)
    terminal = np.zeros(n)
    x = np.zeros(n)
    active = np.arange(n)
    step = 0
    while active.size and step < n_steps:
        c = min(chunk, n_steps - step)
        rows = _BLOCK_CELLS // c
        alive = np.ones(active.size, dtype=bool)
        for lo in range(0, active.size, rows):
            ids = active[lo:lo + rows]
            r = ids.size
            # step-major path block: row 0 is the start point, row j + 1 the
            # position after step j of the chunk
            path = np.empty((c + 1, r))
            inc = path[1:]
            gen.standard_normal(out=inc)
            inc *= sqdt
            if drift:
                inc += drift
            path[0] = x[ids]
            np.cumsum(path, axis=0, out=path)
            x[ids] = path[-1]
            hit = _bridge_hits(path, b, dt, gen)
            fired = np.flatnonzero(hit)
            if not fired.size:
                continue
            paths, cell = _first_exits(fired, r)
            pv = inc.ravel()[cell]
            out = ids[paths]
            k = step + cell // r
            times[out], sides[out] = _exits_in_step(
                hit[cell], path.ravel()[cell], pv, b, dt, k, gen)
            terminal[out] = pv
            alive[lo + paths] = False
        active = active[alive]
        step += c
    terminal[active] = x[active]
    return times, sides, terminal


def _both_barriers_bound(lam, b, dt):
    """Upper bound 4 P(Z > (b - |lam| dt) / sqrt(dt)) on the chance that one
    step reaches both barriers: it must move at least b away from its start.
    """
    return 2.0 * math.erfc((b - abs(lam) * dt) / math.sqrt(2.0 * dt))


def simulate_exit_bm(spec: DriftSpec, dt: float, horizon: float, n_paths: int,
                     rng: RngStreamSpec, threads: int = 1) -> ExitSamples:
    """Simulation of exits of B_t + lam*t from (-b, b) on a time grid of step dt.

    Each step is the exact Gaussian transition.  A step from x_i to x_{i+1}
    reaches each barrier with its exact Brownian-bridge probability,
    exp(-2(b-x_i)(b-x_{i+1})/dt) at +b, and an exiting step samples its
    hitting time inside the step (``_hit_offsets``); a step that fires at
    both barriers exits at the earlier of its two times.  Exit times are
    therefore not multiples of dt, but each lies in its step's
    (k dt, (k + 1) dt], so survival at a grid time counts the same exits as
    step-end times would.  The law is exact except where one step reaches
    both barriers, whose chance is at most 4 P(Z > (b - |lam| dt) / sqrt(dt)):
    a ValueError rejects a dt that makes this bound exceed 1e-9 (at lam = 0,
    b / sqrt(dt) below about 6.2).  Uniforms are drawn only for steps whose
    crossing probability is at least 2**-53, which changes each step's law
    by less than 2**-53; the module docstring lists which numbers each batch
    draws and in what order.  Paths alive at the horizon are censored
    (side 0).

    Paths are simulated in batches of ``_BATCH_PATHS`` (4096): batch i,
    paths 4096 i to 4096 i + 4095, draws from ``rng.child(i)``, whatever the
    thread count, which must be at least 1.  A spec passed here should
    therefore not also feed another simulation; give each call its own spec
    or child.
    """
    if not (math.isfinite(dt) and math.isfinite(horizon)):
        raise ValueError(f"dt and horizon must be finite, got dt={dt!r}, "
                         f"horizon={horizon!r}")
    if dt <= 0.0 or horizon <= 0.0:
        raise ValueError("dt and horizon must be positive")
    if dt > horizon:
        raise ValueError("dt must not exceed the horizon")
    if n_paths < 1:
        raise ValueError("need at least one path")
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads!r}")
    bound = _both_barriers_bound(spec.lam, spec.b, dt)
    if not bound <= _BOTH_BARRIERS_MAX:
        raise ValueError(
            f"dt={dt!r} is too coarse for barrier b={spec.b!r} at drift "
            f"{spec.lam!r}: one step may reach both barriers with probability "
            f"up to {bound:.3g} (at most {_BOTH_BARRIERS_MAX:g} allowed); "
            "use a smaller dt")
    n_steps = _step_count(dt, horizon)
    sizes = [_BATCH_PATHS] * (n_paths // _BATCH_PATHS)
    if n_paths % _BATCH_PATHS:
        sizes.append(n_paths % _BATCH_PATHS)

    def run(i_sz):
        i, sz = i_sz
        gen = rng.child(i).generator()
        return _simulate_batch(spec.lam, spec.b, dt, n_steps, sz, gen)

    jobs = list(enumerate(sizes))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, jobs))
    else:
        parts = [run(j) for j in jobs]
    times = np.concatenate([p[0] for p in parts])
    sides = np.concatenate([p[1] for p in parts])
    terminal = np.concatenate([p[2] for p in parts])
    return ExitSamples(spec, dt, n_steps * dt, times, sides, terminal)


def _girsanov_weights(lam_from: float, lam_to: float, b: float,
                      times: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """exp(-(l1-l2) B_tau + (l1^2-l2^2)/2 tau) per exit, with B_tau = side * b.

    Raises ValueError when a weight overflows: an infinite weight would turn
    the estimate into inf and its standard error into nan.
    """
    expo = (-(lam_from - lam_to) * (sides * b)
            + 0.5 * (lam_from**2 - lam_to**2) * times)
    with np.errstate(over="ignore"):
        weights = np.exp(expo)
    if not np.all(np.isfinite(weights)):
        raise ValueError(
            f"Girsanov weight from drift {lam_from} to {lam_to} overflows "
            f"(log weight up to {float(expo.max()):.4g}); reweight between "
            "closer drifts or over shorter exit times")
    return weights


class ReweightedEstimate(NamedTuple):
    estimate: float
    stderr: float
    censored_bound: float


def reweighted_survival_bm(samples: ExitSamples, lam_to: float,
                           t: float) -> ReweightedEstimate:
    """Estimate P_{lam_to}(tau > t) from paths simulated under samples.spec.

    Censored paths are excluded from the average (their weight is unknown)
    and their fraction is reported as an explicit bias bound.  In the
    identity case lam_to == lam_from they count with weight one, which makes
    the estimate coincide exactly with the plain empirical survival.
    """
    _check_before_horizon(t, samples.horizon)
    if samples.n < 2:
        raise ValueError(
            f"reweighting needs at least 2 paths for a standard error, got {samples.n}")
    lam_from = samples.spec.lam
    frac = samples.censored_fraction
    contrib = np.zeros(samples.n)
    nc = samples.sides != 0
    if np.any(nc):
        contrib[nc] = (_girsanov_weights(lam_from, lam_to, samples.spec.b,
                                         samples.times[nc], samples.sides[nc])
                       * (samples.times[nc] > t))
    if lam_to == lam_from:
        contrib[~nc] = 1.0  # censored paths certainly satisfy tau > t
    est = float(contrib.mean())
    se = float(contrib.std(ddof=1) / math.sqrt(samples.n))
    return ReweightedEstimate(est, se, frac)


def _chi2_sf(dof: int, x: float) -> float:
    """P(chi-square with ``dof`` (>= 1) degrees of freedom > x), for x >= 0.

    With h = x / 2 it is e^-h sum_{i < dof/2} h^i / i! for even dof, and
    erfc(sqrt h) + e^-h sum_{1 <= i < (dof + 1)/2} h^(i - 1/2) / Gamma(i + 1/2)
    for odd dof.
    """
    h = 0.5 * x
    if dof % 2 == 0:
        term = acc = 1.0
        for i in range(1, dof // 2):
            term *= h / i
            acc += term
        return math.exp(-h) * acc
    rh = math.sqrt(h)
    term, acc = 2.0 * rh / math.sqrt(math.pi), 0.0
    for i in range(1, (dof + 1) // 2):
        acc += term
        term *= h / (i + 0.5)
    return math.erfc(rh) + math.exp(-h) * acc


class ChiSquareResult(NamedTuple):
    statistic: float
    dof: int
    p_value: float
    table: np.ndarray  # bins x 2 observed counts (+b column, -b column)


def check_independence_continuous(samples: ExitSamples,
                                  time_bins: int = 10) -> ChiSquareResult:
    """Chi-square test of independence between exit time and exit side.

    Exit times of non-censored paths are binned at empirical quantiles
    (equal-probability bins, merged down if an expected count would fall
    under ``_MIN_EXPECTED``, 20) and cross-tabulated against the exit side.
    """
    nc = samples.sides != 0
    taus = samples.times[nc]
    sides = samples.sides[nc]
    n = taus.size
    if n < 4 * _MIN_EXPECTED:
        raise ValueError(f"sample of {n} non-censored exits is too small")
    p_minor = min(np.mean(sides > 0), np.mean(sides < 0))
    bins = time_bins
    while bins > 1 and n * p_minor / bins < _MIN_EXPECTED:
        bins -= 1
    if bins < 2:
        raise ValueError("cannot form two bins with the required expected counts")
    edges = np.quantile(taus, np.linspace(0.0, 1.0, bins + 1))
    edges = np.unique(edges)
    if edges.size - 1 < 2:
        raise ValueError("exit times too concentrated to bin")
    idx = np.clip(np.searchsorted(edges, taus, side="right") - 1, 0, edges.size - 2)
    nb = edges.size - 1
    obs = np.zeros((nb, 2))
    for j in range(nb):
        sel = idx == j
        obs[j, 0] = np.sum(sides[sel] > 0)
        obs[j, 1] = np.sum(sides[sel] < 0)
    row = obs.sum(axis=1, keepdims=True)
    col = obs.sum(axis=0, keepdims=True)
    expected = row * col / n
    stat = float(np.sum((obs - expected) ** 2 / expected))
    dof = nb - 1
    return ChiSquareResult(stat, dof, _chi2_sf(dof, stat), obs)


@dataclass
class CoupledStats:
    """Summary of a shared-noise run of the squared-modulus SDE family."""

    lambdas: list
    dt: float
    horizon: float
    n_paths: int
    level: float
    violation_fraction: float      # over all (step, path, adjacent pair)
    pair_violation_fractions: list  # one per adjacent pair, len(lambdas) - 1
    hit_times: np.ndarray          # shape (n_lambdas, n_paths); nan = not hit
    final_values: np.ndarray       # shape (n_lambdas, n_paths)

    def hit_summary(self, i: int):
        """(mean, stderr, hit fraction) of the level-hitting time for lambda i.

        The mean is None when no path hit the level, the stderr when fewer
        than two did.
        """
        h = self.hit_times[i][~np.isnan(self.hit_times[i])]
        m = float(h.mean()) if h.size else None
        se = float(h.std(ddof=1) / math.sqrt(h.size)) if h.size > 1 else None
        return m, se, h.size / self.n_paths


def simulate_y_coupled(lambdas, y0: float, dt: float, horizon: float,
                       n_paths: int, rng: RngStreamSpec,
                       level: float = 1.0) -> CoupledStats:
    """Shared-noise simulation of Y = R^2, R = |B_t + lam t|, for each drift of
    an ascending grid of nonnegative drifts, from Y = y0 over
    round(horizon / dt) steps.

    R is a diffusion with drift lam tanh(lam R), reflected at 0 (Rogers and
    Pitman, 1981), so Y solves dY = 2 sqrt(Y) dW + (1 + 2 lam sqrt(Y)
    tanh(lam sqrt(Y))) dt.  The law depends on |lam| only, so a negative
    drift is refused.  R starts at sqrt(y0), and one step, with z and U
    shared by every drift of a path, is

        dX = (lam dt) tanh(lam R) + sqrt(dt) z
        R' = max(R + dX, (dX + sqrt(dX^2 - 2 dt ln(1 - U))) / 2).

    The second term is the exact Skorokhod reflection over the step: the
    maximum over a Brownian bridge from 0 to dX, sampled by inversion.  Both
    terms increase in dX, and dX increases in R and in lam, so R, and Y, stay
    ordered across the grid at every step; ``violation_fraction`` counts the
    (step, path, adjacent pair) cells where they are not.  A drift not yet at
    the level a = sqrt(level) hits it in the step when
    q = (a - R)(a - R') <= _Q_CUT dt and V < exp(-2 q / dt), capped at 1,
    the bridge's crossing probability, with V shared by the drifts of the
    path; the hit time is (step + 1) dt.  Leaving out q > _Q_CUT dt, where
    that probability is below 2**-53, is the rule of ``simulate_exit_bm``.
    A path that starts at or above the level hits it in the first step.

    Draws, each from its own stream:

    1. ``rng.child(0)``: one standard normal z per path and step, drawn as a
       (steps, n_paths) array per block of steps, step-major;
    2. ``rng.child(1)``: at each step, one U for each path whose lowest drift
       has R (R + dX) <= _Q_CUT dt, in path order.  As the drifts are
       ordered, that drift has the path's largest chance exp(-2 R (R + dX)
       / dt) of reaching 0 in the step.  Any other path steps to R + dX, as
       its reflection could act only on 1 - U < 2**-53, which cannot occur;
    3. ``rng.child(2)``: one V per path and step, drawn like z, while some
       drift of some path is below the level.

    The loop keeps R for a block of steps and then finds the hits of the
    whole block.  Only a drift that is below the level at the block's start
    and comes within 2 sqrt(_Q_CUT dt) of it in the block can have q <=
    _Q_CUT dt, so only those drifts are tested.
    """
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("need at least one drift")
    if not all(0.0 <= l < math.inf for l in lambdas):
        raise ValueError("drifts must be finite and nonnegative: the law of "
                         f"|B_t + lam t| depends on |lam| only, got {lambdas}")
    if any(l2 < l1 for l1, l2 in zip(lambdas, lambdas[1:])):
        raise ValueError("drift grid must be ascending")
    if not 0.0 <= y0 < math.inf:
        raise ValueError("initial value must be finite and nonnegative")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not horizon > 0.0 or n_paths < 1:
        raise ValueError("horizon and n_paths must be positive")
    if dt > horizon:
        raise ValueError("dt must not exceed the horizon")
    if math.isnan(level):
        raise ValueError("level must be a number")
    n_steps = _step_count(dt, horizon)
    L, n = len(lambdas), n_paths
    lam = np.array(lambdas)
    rows = slice(int(np.count_nonzero(lam == 0.0)), L)  # the drifting rows
    # full arrays: numpy multiplies far faster without a stride-0 operand
    lam_r = np.repeat(lam[rows], n).reshape(-1, n)
    lam_dt = lam_r * dt
    sqdt, q_cut = math.sqrt(dt), _Q_CUT * dt
    gen_z, gen_u, gen_v = (rng.child(i).generator() for i in range(3))
    block = max(1, min(_Y_BLOCK_STEPS, n_steps, _Y_BLOCK_CELLS // (L * n)))
    path = np.empty((block + 1, L, n))  # R at the start and after each step
    path[0] = math.sqrt(y0)
    dX, drift = np.empty((L, n)), np.empty_like(lam_r)
    pair_counts = np.zeros(L - 1, dtype=np.int64)
    hit = np.full((L, n), np.nan)
    unhit = np.full((L, n), level > y0)
    a = math.sqrt(max(level, 0.0))
    near = a - 2.0 * math.sqrt(q_cut)
    if level <= y0:
        hit.fill(dt)
    for start in range(0, n_steps, block):
        steps = min(block, n_steps - start)
        w = gen_z.standard_normal((steps, n))
        w *= sqdt
        for s in range(steps):
            R, R1, w_s = path[s], path[s + 1], w[s]
            np.multiply(lam_r, R[rows], out=drift)
            np.tanh(drift, out=drift)
            drift *= lam_dt
            np.add(drift, w_s, out=dX[rows])
            dX[:rows.start] = w_s
            np.add(R, dX, out=R1)
            refl = np.flatnonzero(R[0] * R1[0] <= q_cut)
            if refl.size:
                d = dX[:, refl]
                c = np.log1p(-gen_u.random(refl.size))
                c *= -2.0 * dt
                g = d * d
                g += c
                np.sqrt(g, out=g)
                g += d
                g *= 0.5
                R1[:, refl] = np.maximum(R1[:, refl], g)
        run = path[:steps + 1]
        if unhit.any():
            v = gen_v.random((steps, n))
            cells = np.flatnonzero((np.max(run, axis=0) >= near) & unhit)
            gap = a - run.reshape(steps + 1, -1)[:, cells]
            q = gap[:-1] * gap[1:]
            fired = (q <= q_cut) & (v[:, cells % n] < _bridge_prob(q, dt))
            done = fired.any(axis=0)
            cells = cells[done]
            hit.ravel()[cells] = (start + 1 + fired[:, done].argmax(axis=0)) * dt
            unhit.ravel()[cells] = False
        over = np.greater(run[1:, :-1], run[1:, 1:])
        if over.any():
            pair_counts += np.count_nonzero(over, axis=(0, 2))
        path[0] = run[-1]
    comparisons = n_steps * n
    return CoupledStats(
        lambdas, dt, n_steps * dt, n, level,
        float(pair_counts.sum()) / (comparisons * max(L - 1, 1)),
        [float(v) / comparisons for v in pair_counts], hit, path[0] * path[0])
