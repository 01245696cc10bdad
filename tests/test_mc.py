import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtrc, ndtr

import exitdom as ed
from exitdom import mc
from exitdom.bm import DriftSpec
from exitdom.mc import ExitSamples, RngStreamSpec

SEED = 20240817


@pytest.fixture(scope="module")
def samples0():
    return ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 1e-3, 30.0, 20_000,
                               RngStreamSpec(SEED, 1))


@pytest.fixture(scope="module")
def samples1():
    return ed.simulate_exit_bm(DriftSpec(1.0, 1.0), 1e-3, 30.0, 20_000,
                               RngStreamSpec(SEED, 2))


def test_rng_stream_children():
    # a child keeps the parent's Philox key and moves to its own counter
    # region, so (s, 1).child(1) and (s, 2).child(0) no longer coincide
    base = [RngStreamSpec(7, 1), RngStreamSpec(7, 2)]
    specs = base + [s.child(i) for s in base for i in range(4)]
    specs += [base[0].child(1).child(0), base[0].child(0).child(1),
              base[0].child(1).child(0).child(2)]
    # by construction: no two specs share a (key, counter region)
    regions = set()
    for s in specs:
        state = s.generator().bit_generator.state["state"]
        regions.add((*state["key"].tolist(), *state["counter"][1:].tolist()))
    assert len(regions) == len(specs)
    # and in fact: no 64-bit output is shared between any two streams
    draws = [s.generator().bit_generator.random_raw(512) for s in specs]
    assert np.unique(np.concatenate(draws)).size == 512 * len(specs)
    # a root stream is the plain Philox stream of key (seed, substream)
    plain = np.random.Generator(np.random.Philox(key=[7, 1])).standard_normal(8)
    assert np.array_equal(base[0].generator().standard_normal(8), plain)
    a = RngStreamSpec(7, 3).generator().standard_normal(4)
    b = RngStreamSpec(7, 3).generator().standard_normal(4)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        base[0].child(0).child(0).child(0).child(0)
    with pytest.raises(ValueError):
        base[0].child(-1)


def test_thread_count_does_not_change_output(samples0):
    redo = ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 1e-3, 30.0, 20_000,
                               RngStreamSpec(SEED, 1), threads=4)
    assert np.array_equal(samples0.times, redo.times)
    assert np.array_equal(samples0.sides, redo.sides)
    assert np.array_equal(samples0.terminal, redo.terminal)


def test_mean_exit_time_driftless(samples0):
    # E[tau] = b^2 = 1
    et = samples0.exit_times()
    se = et.std(ddof=1) / math.sqrt(et.size)
    assert abs(et.mean() - 1.0) < 4 * se
    assert samples0.censored_fraction < 1e-3


def test_side_symmetry_driftless(samples0):
    frac_up = np.mean(samples0.sides == 1)
    assert abs(frac_up - 0.5) < 4 * math.sqrt(0.25 / samples0.n)


def test_drifted_exit_side_split(samples1):
    # P(exit at +b) = e^(lam b) / (e^(lam b) + e^(-lam b))
    target = 1.0 / (1.0 + math.exp(-2.0))
    frac_up = np.mean(samples1.sides == 1)
    se = math.sqrt(target * (1 - target) / samples1.n)
    assert abs(frac_up - target) < 4 * se


def test_empirical_matches_analytic(samples0, samples1):
    for s, lam in ((samples0, 0.0), (samples1, 1.0)):
        for t in (0.5, 1.0, 2.0):
            emp = s.empirical_survival(t)
            an = ed.drifted_survival(DriftSpec(lam, 1.0), t)
            se = math.sqrt(max(an * (1 - an), 1e-9) / s.n)
            assert abs(emp - an) < 4 * se


def test_likelihood_ratio_bm_values():
    w = mc._girsanov_weights(0.0, 1.0, 1.0, np.array([1.0, 2.0]),
                             np.array([1, -1], dtype=np.int8))
    # exp(lam * B_tau - lam^2 tau / 2) at (tau=1, B=+1) and (tau=2, B=-1)
    assert w[0] == pytest.approx(math.exp(1.0 - 0.5), abs=1e-12)
    assert w[1] == pytest.approx(math.exp(-1.0 - 1.0), abs=1e-12)


def test_reweight_overflowing_weight_fails_cleanly():
    # reweighting lam = 40 -> 0 at an exit at t = 30 needs the weight
    # exp(800 * 30 + 40), far beyond the float range
    samples = ExitSamples(DriftSpec(40.0, 1.0), 1e-3, 40.0,
                          np.array([0.02, 30.0]),
                          np.array([1, -1], dtype=np.int8),
                          np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="overflows"):
        ed.reweighted_survival_bm(samples, 0.0, 0.01)
    with pytest.raises(ValueError, match="overflows"):
        mc._girsanov_weights(40.0, 0.0, 1.0, samples.times, samples.sides)


def test_reweight_uses_the_likelihood_ratio_weights(samples1):
    t = 0.5
    est, _, _ = ed.reweighted_survival_bm(samples1, 0.0, t)
    # no path is censored, so each weight is exp(-B_tau + tau / 2), B_tau = +-1
    assert samples1.censored_fraction == 0.0
    w = np.exp(-samples1.sides + 0.5 * samples1.times)
    assert est == float((w * (samples1.times > t)).mean())


def test_reweight_identity_equals_empirical(samples0):
    for t in (0.5, 1.0, 3.0):
        est, _, _ = ed.reweighted_survival_bm(samples0, 0.0, t)
        assert est == samples0.empirical_survival(t)


def test_reweight_weights_normalize(samples0):
    # E0[LR] = 1, so reweighting at t = 0 is close to 1 within a few se
    est, se, frac = ed.reweighted_survival_bm(samples0, 1.0, samples0.dt)
    assert abs(est - 1.0) < 4 * se + frac


def test_reweight_matches_analytic(samples0):
    for t in (0.5, 1.0, 2.0):
        est, se, frac = ed.reweighted_survival_bm(samples0, 1.0, t)
        an = ed.drifted_survival(DriftSpec(1.0, 1.0), t)
        assert abs(est - an) < 4 * se + frac


def test_reweight_censored_tolerance():
    short = ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 1e-3, 1.0, 2000,
                                RngStreamSpec(SEED, 5))
    bound = ed.reweighted_survival_bm(short, 1.0, 0.5).censored_bound
    assert bound == short.censored_fraction
    assert bound > 0.1


def test_independence_chi_square(samples1):
    res = ed.check_independence_continuous(samples1, time_bins=10)
    assert res.p_value > 1e-3
    assert res.dof == res.table.shape[0] - 1
    assert res.table.sum() == np.count_nonzero(samples1.sides)


def test_chi_square_tail_matches_scipy():
    # scipy's chdtrc as the oracle of the library's own tail, dof 1 to 20
    worst = 0.0
    for dof in range(1, 21):
        for x in [0.0, *np.geomspace(1e-6, 400.0, 200).tolist()]:
            ref = float(chdtrc(dof, x))
            got = mc._chi2_sf(dof, x)
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-300), (dof, x)
            if ref > 1e-300:
                worst = max(worst, abs(got - ref) / ref)
    assert mc._chi2_sf(3, 0.0) == 1.0 and mc._chi2_sf(4, 0.0) == 1.0
    assert worst < 1e-13


def test_independence_detects_dependence(samples1):
    control = ExitSamples(samples1.spec, samples1.dt, samples1.horizon,
                          samples1.times.copy(), samples1.sides.copy(),
                          samples1.terminal.copy())
    nc = control.sides != 0
    med = np.median(control.times[nc])
    control.sides[nc] = np.where(control.times[nc] > med, 1, -1).astype(np.int8)
    res = ed.check_independence_continuous(control, time_bins=10)
    assert res.p_value < 1e-10


def test_independence_rejects_tiny_sample():
    spec = DriftSpec(0.0, 1.0)
    samples = ExitSamples(spec, 1e-3, 30.0, np.ones(10),
                          np.ones(10, dtype=np.int8), np.ones(10))
    with pytest.raises(ValueError):
        ed.check_independence_continuous(samples)


def test_bridge_correction_reduces_coarse_grid_bias():
    # at coarse dt, endpoint monitoring (the dense reference with the bridge
    # off) overestimates survival; the bridge fixes most of it
    t, n, dt = 0.5, 40_000, 0.02
    an = ed.drifted_survival(DriftSpec(0.0, 1.0), t)
    with_b = ed.simulate_exit_bm(DriftSpec(0.0, 1.0), dt, 8.0, n,
                                 RngStreamSpec(SEED, 7))
    without, _, _ = _dense_reference_batch(
        0.0, 1.0, dt, int(round(1.0 / dt)), n,
        RngStreamSpec(SEED, 7).child(0).child(0).generator(), False)
    err_with = abs(with_b.empirical_survival(t) - an)
    err_without = abs(float(np.mean(without > t)) - an)
    assert err_with < err_without
    assert err_without > 0.01  # the coarse-grid bias is real
    assert err_with < 0.01


def _dense_reference_batch(lam, b, dt, n_steps, n, gen, bridge):
    """The exit kernel before row blocks and candidate-only bridge uniforms.

    It draws one normal and, with the bridge on, two uniforms for every
    path-step cell, so it samples the scheme's law with no 2**-53 cut.
    """
    sqdt = math.sqrt(dt)
    times = np.full(n, n_steps * dt)
    sides = np.zeros(n, dtype=np.int8)
    terminal = np.zeros(n)
    x = np.zeros(n)
    active = np.arange(n)
    step = 0
    while active.size and step < n_steps:
        c = min(128, n_steps - step)
        z = gen.standard_normal((active.size, c))
        if bridge:
            uu = gen.random((active.size, c))
            ud = gen.random((active.size, c))
        path = x[active, None] + np.cumsum(lam * dt + sqdt * z, axis=1)
        prev = np.concatenate([x[active, None], path[:, :-1]], axis=1)
        if bridge:
            pu = np.exp(np.minimum(-2.0 * (b - prev) * (b - path) / dt, 0.0))
            pd = np.exp(np.minimum(-2.0 * (prev + b) * (path + b) / dt, 0.0))
            cross_up = uu < pu
            cross_dn = ud < pd
        else:
            cross_up = path >= b
            cross_dn = path <= -b
        exited = cross_up | cross_dn
        has_exit = exited.any(axis=1)
        rows = np.nonzero(has_exit)[0]
        if rows.size:
            cols = exited[rows].argmax(axis=1)
            pv = path[rows, cols]
            side = np.where(pv >= b, 1, np.where(pv <= -b, -1, 0)).astype(np.int8)
            unresolved = side == 0
            if np.any(unresolved):
                su = cross_up[rows, cols]
                sd = cross_dn[rows, cols]
                if bridge:
                    prefer_up = pu[rows, cols] >= pd[rows, cols]
                else:
                    prefer_up = su
                pick = np.where(su & ~sd, 1,
                                np.where(sd & ~su, -1,
                                         np.where(prefer_up, 1, -1))).astype(np.int8)
                side = np.where(unresolved, pick, side)
            ids = active[rows]
            times[ids] = (step + cols + 1) * dt
            sides[ids] = side
            terminal[ids] = pv
        keep = ~has_exit
        x[active[keep]] = path[keep, -1]
        active = active[keep]
        step += c
    terminal[active] = x[active]
    return times, sides, terminal


@pytest.mark.parametrize("lam,b,dt,horizon,substream", [
    (0.0, 0.25, 1e-3, 2.0, 21),   # short exits, near both barriers
    (4.0, 0.25, 1e-3, 2.0, 22),
    (0.0, 1.0, 0.02, 8.0, 23),    # coarse grid
])
def test_kernel_matches_dense_reference_and_analytic(lam, b, dt, horizon, substream):
    n = 20_000
    spec = DriftSpec(lam, b)
    new = ed.simulate_exit_bm(spec, dt, horizon, n, RngStreamSpec(SEED, substream))
    ref_times, _, _ = _dense_reference_batch(
        lam, b, dt, int(round(horizon / dt)), n,
        RngStreamSpec(SEED, substream).child(0).child(0).generator(), True)
    mean = b * b if lam == 0.0 else b * math.tanh(lam * b) / lam
    for f in (0.5, 1.5):
        t = round(f * mean / dt) * dt  # a grid time: the scheme has no bias there
        an = ed.drifted_survival(spec, t)
        se = math.sqrt(an * (1 - an) / n)
        emp_new = new.empirical_survival(t)
        emp_ref = float(np.mean(ref_times > t))
        assert abs(emp_new - an) < 4 * se
        assert abs(emp_ref - an) < 4 * se
        assert abs(emp_new - emp_ref) < 4 * math.sqrt(2.0) * se


def test_thread_count_invariance_short_exits():
    # three batches (one partial); 16-step chunks, so a full batch starts in
    # two blocks of 2048 paths; many chunks
    args = (DriftSpec(4.0, 0.25), 1e-3, 2.0, 2 * 4096 + 1000, RngStreamSpec(SEED, 24))
    one = ed.simulate_exit_bm(*args, threads=1)
    two = ed.simulate_exit_bm(*args, threads=2)
    assert np.array_equal(one.times, two.times)
    assert np.array_equal(one.sides, two.sides)
    assert np.array_equal(one.terminal, two.terminal)
    assert one.censored_fraction == 0.0


def test_bridge_draws_one_uniform_per_candidate():
    # a step whose q exceeds the cut fires with probability below 2**-53,
    # which only a uniform of exactly 0 could have caught
    assert math.exp(-2.0 * mc._Q_CUT) == pytest.approx(2.0**-53, rel=1e-12)
    # two paths, two steps, b = 1, dt = 1e-3 (cut q <= 0.0184): path 0 ends
    # 0.05 below +b (upper q = 0.005), path 1 jumps past -b (lower q < 0);
    # every other (step, barrier) pair has q >= 0.06
    path = np.array([[0.0, 0.0], [0.9, 0.5], [0.95, -1.01]])
    gen = RngStreamSpec(SEED, 25).generator()
    hit = mc._bridge_hits(path, 1.0, 1e-3, gen)
    u = RngStreamSpec(SEED, 25).generator().random(3)
    assert hit.tolist() == [0, 0, int(u[0] < math.exp(-10.0)), 2]
    assert gen.random() == u[2]  # exactly two uniforms were drawn


def _bridge_hit_cdf(t, a, y, dt):
    """P(hit by t | hit in the step) for a bridge from 0 to y over [0, dt]
    and a barrier at distance a > 0.

    Condition on the bridge's value X ~ N(y t / dt, t (dt - t) / dt) at t:
    the part of the step before t reaches the barrier with probability 1
    for X >= a and exp(-2a(a - X)/t) below it (reflection principle); the
    Gaussian integral of that gives the two terms.
    """
    t = np.asarray(t, dtype=float)
    sd = np.sqrt(t * (dt - t) / dt)
    p_hit = math.exp(-2.0 * a * (a - y) / dt)
    cdf = (ndtr(-(a - y * t / dt) / sd)
           + p_hit * ndtr((-a + (2.0 * a - y) * t / dt) / sd))
    return cdf / min(1.0, p_hit)


@pytest.mark.parametrize("x0,x1", [
    (0.9, 0.95),    # the step ends inside: an IG time with mean a dt / gap
    (0.9, 1.04),    # the step ends beyond the barrier
    (0.93, 1.0),    # the step ends on the barrier: the Levy limit
    (0.5, 0.6),     # far from the barrier: times near the middle of the step
])
def test_in_step_time_matches_bridge_first_passage_law(x0, x1):
    # the sampled time inside an exiting step, at either barrier, against the
    # bridge's first-passage law derived without the inverse Gaussian
    n, b, dt, k = 20_000, 1.0, 0.02, 0
    law = lambda t: _bridge_hit_cdf(t, b - x0, x1 - x0, dt)
    for code, sign in ((1, 1.0), (2, -1.0)):
        gen = RngStreamSpec(SEED, 30 + code).generator()
        times, sides = mc._exits_in_step(
            np.full(n, code, dtype=np.int8), np.full(n, sign * x0),
            np.full(n, sign * x1), b, dt, k, gen)
        assert np.all(sides == sign)
        assert np.all((times > 0.0) & (times <= dt))
        assert stats.kstest(times, law).pvalue > 1e-3
    # the test has power: the same draws against a nearby endpoint's law
    wrong = lambda t: _bridge_hit_cdf(t, b - x0, x1 - x0 - 0.05, dt)
    assert stats.kstest(times, wrong).pvalue < 1e-6


def test_hit_time_draw_order_and_tie_rule():
    # four exiting steps (b = 1, dt = 0.01): path 0 fired up; path 1 down;
    # path 2 at both barriers; path 3 up, ending exactly on the barrier
    b, dt = 1.0, 0.01
    code = np.array([1, 2, 3, 1], dtype=np.int8)
    x0 = np.array([0.95, -0.9, 0.2, 0.96])
    x1 = np.array([0.97, -1.02, 0.1, 1.0])
    k = np.array([3, 0, 5, 7])
    gen = RngStreamSpec(SEED, 29).generator()
    times, sides = mc._exits_in_step(code, x0, x1, b, dt, k, gen)
    # the same numbers drawn one at a time: the upper barrier's exits in
    # path order (Levy normal for path 3), then the lower barrier's
    ref = RngStreamSpec(SEED, 29).generator()
    s_up = [ref.wald(0.05 * dt / 0.03, 0.05**2), ref.wald(0.8 * dt / 0.9, 0.8**2),
            0.04**2 / ref.standard_normal()**2]
    s_dn = [ref.wald(0.1 * dt / 0.02, 0.1**2), ref.wald(1.2 * dt / 1.1, 1.2**2)]
    assert gen.random() == ref.random()  # nothing else was drawn
    off = lambda s: dt * s / (dt + s)
    o_up = [off(s) for s in s_up]
    o_dn = [off(s) for s in s_dn]
    first = min(o_up[1], o_dn[1])
    want = [3 * dt + o_up[0], o_dn[0], 5 * dt + first, 7 * dt + o_up[2]]
    assert times == pytest.approx(want, rel=1e-12, abs=0.0)
    assert sides.tolist() == [1, -1, 1 if o_up[1] <= o_dn[1] else -1, 1]
    # every time lies in its step (k dt, (k + 1) dt]
    assert np.all((times > k * dt) & (times <= (k + 1) * dt))


def test_in_step_times_stay_inside_their_step_under_rounding():
    # offsets of almost 0 and of almost a full step round onto the step's
    # ends (at k = 5, 5 * 0.01 + 0.01 exceeds 6 * 0.01 in doubles); the clamp
    # keeps each time in (k dt, (k + 1) dt]
    dt, k = 0.01, np.array([0, 5, 999_999])
    start, end = k * dt, (k + 1) * dt
    assert start[1] + dt > end[1] and start[2] + 1e-300 == start[2]
    for s_hit in (1e-300, 1e300):
        class Fixed:
            def wald(self, mean, shape):
                return np.full(np.shape(mean), s_hit)
        times, _ = mc._exits_in_step(np.ones(3, dtype=np.int8), np.full(3, 0.5),
                                     np.full(3, 0.6), 1.0, dt, k, Fixed())
        assert np.all(times > start) and np.all(times <= end)
    assert times[1] == end[1]


@pytest.mark.parametrize("lam,substream", [(0.0, 27), (1.0, 28)])
def test_exit_law_is_exact_off_the_grid_at_coarse_dt(lam, substream):
    # dt = 0.02: step-end times would put E[tau] dt / 2 late, about 4 se at
    # lam = 0, and survival at times between grid points too high; sampled
    # in-step times carry no such bias
    n, dt, b = 100_000, 0.02, 1.0
    spec = DriftSpec(lam, b)
    s = ed.simulate_exit_bm(spec, dt, 30.0, n, RngStreamSpec(SEED, substream))
    assert s.censored_fraction == 0.0
    assert not np.all(np.isclose(s.times / dt, np.rint(s.times / dt)))
    et = s.exit_times()
    mean = b * b if lam == 0.0 else b * math.tanh(lam * b) / lam
    assert abs(et.mean() - mean) < 4 * et.std(ddof=1) / math.sqrt(et.size)
    for t in (0.31, 0.77, 1.53):
        an = ed.drifted_survival(spec, t)
        assert abs(s.empirical_survival(t) - an) < 4 * math.sqrt(an * (1 - an) / n)


def test_both_barriers_domain_check():
    rng = RngStreamSpec(SEED)
    # the bound 4 P(Z > (b - |lam| dt) / sqrt(dt)) at the points the package uses
    assert mc._both_barriers_bound(0.0, 1.0, 1e-2) == pytest.approx(
        4 * stats.norm.sf(10.0), rel=1e-12)
    assert mc._both_barriers_bound(0.0, 1.0, 1e-2) < 1e-22
    assert mc._both_barriers_bound(8.0, 0.25, 1e-3) < 1e-13
    assert mc._both_barriers_bound(0.0, 1.0, 0.02) < 1e-11
    # b / sqrt(dt) = 6 is too coarse, at any drift
    for lam in (0.0, -3.0):
        with pytest.raises(ValueError, match="too coarse"):
            ed.simulate_exit_bm(DriftSpec(lam, 0.6), 0.01, 1.0, 10, rng)
    # a drift that eats the margin tips an admitted dt over
    ed.simulate_exit_bm(DriftSpec(0.0, 0.65), 0.01, 1.0, 10, rng)
    with pytest.raises(ValueError, match="too coarse"):
        ed.simulate_exit_bm(DriftSpec(4.0, 0.65), 0.01, 1.0, 10, rng)


def test_nan_time_is_a_value_error(samples0):
    # both once returned 0.0 (and a standard error of 0.0) for t = nan
    with pytest.raises(ValueError, match="nan"):
        samples0.empirical_survival(math.nan)
    with pytest.raises(ValueError, match="nan"):
        ed.reweighted_survival_bm(samples0, 0.5, math.nan)


def test_coupled_identical_drifts_are_bit_equal():
    stats = ed.simulate_y_coupled([1.0, 1.0], 0.0, 1e-3, 0.5, 200,
                                  RngStreamSpec(SEED, 11))
    assert np.array_equal(stats.final_values[0], stats.final_values[1])
    assert stats.violation_fraction == 0.0


def drift_y(lam, y):
    """Drift 1 + 2 lam sqrt(y) tanh(lam sqrt(y)) of the squared-modulus SDE,
    elementwise."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("squared position y must be nonnegative")
    s = np.sqrt(y)
    return 1.0 + 2.0 * lam * s * np.tanh(lam * s)


def test_drift_y():
    assert drift_y(0.0, 3.0) == 1.0
    assert drift_y(1.0, 0.0) == 1.0
    assert drift_y(1.0, 1.0) == pytest.approx(1.0 + 2.0 * math.tanh(1.0), abs=1e-15)
    # increasing in |lam| at fixed y > 0
    vals = [drift_y(lam, 2.0) for lam in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert drift_y(-1.0, 1.0) == drift_y(1.0, 1.0)
    with pytest.raises(ValueError):
        drift_y(1.0, -1.0)


def _coupled_per_step(lambdas, y0, dt, n_steps, n_paths, rng, level):
    """The modulus step of simulate_y_coupled, one step at a time with fresh
    arrays and one draw call per stream and step.  Returns final values,
    hit times and per-pair violation counts."""
    gen_z, gen_u, gen_v = (rng.child(i).generator() for i in range(3))
    lam = np.array(lambdas, dtype=float)[:, None]
    q_cut = mc._Q_CUT * dt
    a = math.sqrt(max(level, 0.0))
    R = np.full((len(lambdas), n_paths), math.sqrt(y0))
    hit = np.full(R.shape, dt if level <= y0 else np.nan)
    viol = np.zeros(len(lambdas) - 1, dtype=np.int64)
    for step in range(n_steps):
        dX = (lam * dt) * np.tanh(lam * R) + gen_z.standard_normal(n_paths) * math.sqrt(dt)
        R1 = R + dX
        refl = np.flatnonzero(R[0] * R1[0] <= q_cut)
        c = np.log1p(-gen_u.random(refl.size)) * (-2.0 * dt)
        d = dX[:, refl]
        R1[:, refl] = np.maximum(R1[:, refl], (d + np.sqrt(d * d + c)) * 0.5)
        q = (a - R) * (a - R1)
        fired = (q <= q_cut) & (gen_v.random(n_paths) < mc._bridge_prob(q, dt))
        hit[fired & np.isnan(hit)] = (step + 1) * dt
        viol += np.count_nonzero(R1[:-1] > R1[1:], axis=1)
        R = R1
    return R * R, hit, viol


def test_coupled_blocked_draws_match_per_step_draws():
    # (lambdas, y0, dt, horizon, n_paths, level): zero and repeated drifts,
    # a single drift, step counts that end inside a block, a start at the
    # level, a level of 0 and the drift grid of mc-drift-grid
    cases = [
        ([0.0, 1.5], 0.2, 1e-3, 0.301, 1000, 1.0),
        ([1.0], 0.0, 1e-3, 0.2, 50, 0.5),
        ([0.0, 0.0, 0.5, 0.5, 2.0], 0.3, 1e-3, 0.3, 333, 0.6),
        ([0.7, 0.8], 0.0, 1e-3, 0.7, 100, 0.3),
        ([0.0, 1.0], 0.9, 2e-3, 0.2, 400, 0.9),
        ([0.0, 1.0], 0.9, 2e-3, 0.2, 40, 0.0),
        ([0.0, 8.0], 0.0, 1e-2, 0.5, 7, 1.0),
        ([float(i) for i in range(9)], 0.0, 1e-3, 1.0, 100, 1.0),
    ]
    for lambdas, y0, dt, horizon, n_paths, level in cases:
        rng = RngStreamSpec(SEED, 14)
        stats = ed.simulate_y_coupled(lambdas, y0, dt, horizon, n_paths, rng, level=level)
        n_steps = int(round(horizon / dt))
        assert stats.dt == dt and stats.horizon == n_steps * dt
        Y, hit, viol = _coupled_per_step(lambdas, y0, dt, n_steps, n_paths, rng, level)
        cells = n_steps * n_paths
        pairs = [float(v) / cells for v in viol]
        overall = float(viol.sum()) / (cells * max(len(lambdas) - 1, 1))
        for got, want in [(stats.final_values, Y), (stats.hit_times, hit),
                          (stats.pair_violation_fractions, pairs),
                          (stats.violation_fraction, overall)]:
            assert np.array_equal(got, want, equal_nan=True), (lambdas, dt)
        assert np.any(~np.isnan(hit)), lambdas


def test_coupled_paths_and_hits_are_ordered_by_drift():
    # repeated drifts included: the order holds pathwise, by construction
    lambdas = [0.0, 0.0, 0.25, 1.0, 1.0, 3.0, 8.0]
    stats = ed.simulate_y_coupled(lambdas, 0.0, 1e-3, 1.0, 500, RngStreamSpec(SEED, 15))
    assert stats.violation_fraction == 0.0
    assert np.all(np.diff(stats.final_values, axis=0) >= 0.0)
    hits = np.where(np.isnan(stats.hit_times), np.inf, stats.hit_times)
    assert np.all(hits[1:] <= hits[:-1])
    for i, j in [(0, 1), (3, 4)]:
        assert np.array_equal(stats.final_values[i], stats.final_values[j])


def test_modulus_step_has_the_squared_modulus_drift():
    # one step from Y = y with shared noise: E[Y'_lam - Y'_0] / dt is
    # drift_y(lam, y) - drift_y(0, y) up to (lam tanh(lam sqrt y))^2 dt
    y, dt, n = 1.0, 1e-4, 10_000
    lambdas = [0.0, 0.5, 1.0, 2.0]
    stats = ed.simulate_y_coupled(lambdas, y, dt, dt, n, RngStreamSpec(SEED, 16))
    for i, lam in enumerate(lambdas[1:], 1):
        got = np.mean(stats.final_values[i] - stats.final_values[0]) / dt
        want = float(drift_y(lam, y) - drift_y(0.0, y))
        assert got == pytest.approx(want, abs=1e-3), lam


def test_coupled_refuses_negative_and_non_finite_drifts():
    rng = RngStreamSpec(SEED)
    for lambdas in ([-1.0, 0.0], [-0.5], [0.0, math.inf], [math.nan]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ed.simulate_y_coupled(lambdas, 0.0, 1e-3, 1.0, 10, rng)


def test_coupled_ordering_small_violation_fraction():
    stats = ed.simulate_y_coupled([0.0, 0.5, 1.0], 0.0, 1e-4, 1.0, 400,
                                  RngStreamSpec(SEED, 12))
    assert stats.violation_fraction == 0.0
    assert stats.pair_violation_fractions == [0.0, 0.0]


def test_coupled_hitting_times_ordered_by_drift():
    stats = ed.simulate_y_coupled([0.0, 2.0], 0.0, 1e-3, 4.0, 2000,
                                  RngStreamSpec(SEED, 13))
    m0, se0, f0 = stats.hit_summary(0)
    m1, se1, f1 = stats.hit_summary(1)
    assert f0 > 0.95 and f1 > 0.95
    # stronger drift pushes the squared modulus up sooner
    assert m1 + 3 * (se0 + se1) < m0


def test_simulation_input_validation():
    rng = RngStreamSpec(SEED)
    with pytest.raises(ValueError):
        ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 0.0, 1.0, 10, rng)
    with pytest.raises(ValueError):
        ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 2.0, 1.0, 10, rng)
    with pytest.raises(ValueError):
        ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 0.1, 1.0, 0, rng)
    for threads in (0, -1):  # once taken as one thread
        with pytest.raises(ValueError, match="at least one thread"):
            ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 0.1, 1.0, 10, rng,
                                threads=threads)
    for dt, horizon in [(math.nan, 1.0), (1e-3, math.nan), (1e-3, math.inf),
                        (math.inf, 1.0)]:
        with pytest.raises(ValueError, match="dt and horizon must be finite"):
            ed.simulate_exit_bm(DriftSpec(0.0, 1.0), dt, horizon, 10, rng)
    with pytest.raises(ValueError):
        ed.simulate_y_coupled([1.0, 0.0], 0.0, 1e-3, 1.0, 10, rng)
    with pytest.raises(ValueError):
        ed.simulate_y_coupled([0.0, 1.0], -1.0, 1e-3, 1.0, 10, rng)


def test_coupled_domain_checks():
    rng = RngStreamSpec(SEED)
    with pytest.raises(ValueError, match="dt must not exceed the horizon"):
        ed.simulate_y_coupled([0.0, 1.0], 0.0, 3.0, 1.0, 10, rng)
    with pytest.raises(ValueError, match="at least one drift"):
        ed.simulate_y_coupled([], 0.0, 1e-3, 1.0, 10, rng)
    with pytest.raises(ValueError, match="finite"):
        ed.simulate_y_coupled([0.0], math.inf, 1e-3, 1.0, 10, rng)
    with pytest.raises(ValueError, match="level"):
        ed.simulate_y_coupled([0.0], 0.0, 1e-3, 1.0, 10, rng, level=math.nan)
    for dt in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            ed.simulate_y_coupled([0.0, 1.0], 0.0, dt, 1.0, 10, rng)
    # one drift has no adjacent pair to compare
    single = ed.simulate_y_coupled([1.0], 0.0, 1e-3, 0.1, 10, rng)
    assert single.pair_violation_fractions == []
    assert single.violation_fraction == 0.0


def test_step_count_overflow_is_a_value_error():
    # horizon / dt is inf: the step count once failed with an OverflowError
    rng = RngStreamSpec(SEED)
    calls = [
        lambda: ed.simulate_y_coupled([0.0], 0.0, 1e-300, 1e300, 10, rng),
        lambda: ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 1e-300, 1e300, 10, rng),
    ]
    for call in calls:
        with pytest.raises(ValueError,
                           match=r"not a finite step count: dt=1e-300, horizon=1e\+300"):
            call()
    with pytest.raises(ValueError, match="horizon=inf"):
        ed.simulate_y_coupled([0.0], 0.0, 1e-3, math.inf, 10, rng)


def test_coupled_hit_summary_without_hits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = ed.simulate_y_coupled([0.0, 1.0], 0.0, 1e-3, 0.01, 50,
                                      RngStreamSpec(SEED), level=100.0)
        assert [stats.hit_summary(i) for i in range(2)] == [(None, None, 0.0)] * 2
        one_hit = mc.CoupledStats([0.0], 0.1, 1.0, 2, 1.0, 0.0, [],
                                  np.array([[0.5, np.nan]]), np.zeros((1, 2)))
        assert one_hit.hit_summary(0) == (0.5, None, 0.5)
