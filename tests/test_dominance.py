import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exitdom as ed
from exitdom import dominance
from exitdom.walk import MODE_FLOAT, MODE_RATIONAL, WalkSpec


def _tail_conditional_mean_check(values, weights, M):
    """E[X | X <= M] <= E[X] for a finite distribution with P(X <= M) > 0.

    ``values``/``weights`` describe the distribution (weights need not be
    normalised).  Returns (conditional mean, unconditional mean, holds).
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mean = float(np.dot(values, weights) / weights.sum())
    sel = values <= M
    cond = float(np.dot(values[sel], weights[sel]) / weights[sel].sum())
    return cond, mean, cond <= mean + 1e-12 * max(1.0, abs(mean))


def test_tail_conditional_mean_example():
    # uniform on {1,2,3,4}: E[X | X <= 2] = 1.5 <= E[X] = 2.5
    cond, mean, holds = _tail_conditional_mean_check(
        [1, 2, 3, 4], [1, 1, 1, 1], 2)
    assert cond == 1.5 and mean == 2.5 and holds


def test_tail_conditional_mean_trivial_cut():
    cond, mean, holds = _tail_conditional_mean_check([1, 2, 3], [1, 1, 1], 10)
    assert cond == mean and holds


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(0.01, 10)),
                min_size=1, max_size=30),
       st.floats(-100, 100))
def test_tail_conditional_mean_property(pairs, M):
    values = [v for v, _ in pairs]
    weights = [w for _, w in pairs]
    if not any(v <= M for v in values):
        M = max(values)
    cond, mean, holds = _tail_conditional_mean_check(values, weights, M)
    assert holds


def test_discrete_scan_exact_no_violations():
    ps = [Fraction(1, 2) + Fraction(i, 10) for i in range(5)]
    rep = ed.dominance_scan_discrete(ps, 3, 100, MODE_RATIONAL)
    assert rep.n_violations == 0
    assert len(rep.pairs) == len(ps) - 1
    assert all(p.verdict == ed.DOMINATES for p in rep.pairs)


def test_discrete_scan_float_no_violations():
    rep = ed.dominance_scan_discrete([0.5, 0.6, 0.75, 0.9], 2, 150, MODE_FLOAT)
    assert rep.n_violations == 0


def test_discrete_scan_grid_validation():
    with pytest.raises(ValueError):
        ed.dominance_scan_discrete([0.6, 0.5], 2, 50)
    with pytest.raises(ValueError):
        ed.dominance_scan_discrete([0.4, 0.6], 2, 50)  # below 1/2


def test_worst_gap_skips_points_where_hi_does_not_exceed_lo():
    lo = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)]
    hi = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 7), Fraction(3, 7)]
    assert dominance._worst_gap(lo, hi, range(4)) == (Fraction(1, 6), 1)
    assert dominance._worst_gap(lo, hi, range(4), Fraction(1, 6)) is None
    assert dominance._worst_gap(hi, lo, range(4)) == (Fraction(2, 35), 2)
    assert dominance._worst_gap([0.5, 0.25], [0.5, 0.5], "ab", 0.1) == (0.25, "b")
    assert dominance._worst_gap([0.5], [float("nan")], [0]) is None


@pytest.mark.parametrize("tie_tol", [-1e-12, -1, float("nan")])
def test_worst_gap_rejects_negative_or_nan_tolerance(tie_tol):
    with pytest.raises(ValueError, match="tie tolerance"):
        dominance._worst_gap([0.5], [0.4], [0], tie_tol)


def _corrupting_scan(monkeypatch, ps, lift, k=2, horizon=20, step=3):
    """The float scan of ``ps`` at ``k`` up to ``horizon``, its float curves
    lifted at ``step`` by lift(p), with the biases whose exact numerators it
    computes, in order."""
    real_entries = dominance.walk._survival_entries
    exact = []

    def corrupting(specs, horizon, mode):
        curves = real_entries(specs, horizon, mode)
        if mode == MODE_RATIONAL:
            exact.extend(spec.p for spec in specs)
        else:
            for spec, (residual, _) in zip(specs, curves):
                residual[step] += lift(spec.p_float())  # inject a fake crossing
        return curves

    monkeypatch.setattr(dominance.walk, "_survival_entries", corrupting)
    return ed.dominance_scan_discrete(ps, k, horizon, MODE_FLOAT), exact


def test_float_violation_escalates_to_exact(monkeypatch):
    # feed the float path deliberately corrupted curves; escalation must
    # recompute exactly and clear the spurious violation
    rep, exact = _corrupting_scan(monkeypatch, [0.5, 0.6],
                                  lambda p: 0.1 if p > 0.55 else 0.0)
    assert exact == [0.5, 0.6]
    assert rep.n_violations == 0


@pytest.mark.parametrize("step, escalates", [(0, False), (1, False), (2, True)])
def test_float_crossing_escalates_only_from_step_k(monkeypatch, step, escalates):
    # no path exits before step k = 2, where both exact survivals are 1, so
    # a float gap there is round-off and needs no exact recheck
    rep, exact = _corrupting_scan(monkeypatch, [0.5, 0.6],
                                  lambda p: 0.1 if p > 0.55 else 0.0, step=step)
    assert exact == ([0.5, 0.6] if escalates else [])
    assert rep.n_violations == 0


@pytest.mark.parametrize("k", [8, 16])
def test_float_scan_of_the_benchmark_grid_runs_no_exact_dp(monkeypatch, k):
    # on 1/2, 11/20, ..., 19/20 the float DP reads the survival 1 of steps
    # below k an ulp or two apart; from step k on no pair crosses, so no
    # pair escalates (4 of 9 once did at k = 8, in one exact DP over 7 biases)
    ps = [Fraction(1, 2) + Fraction(i, 20) for i in range(10)]
    rep, exact = _corrupting_scan(monkeypatch, ps, lambda p: 0.0, k=k, horizon=400)
    assert exact == []
    assert rep.n_violations == 0


def test_escalated_pairs_share_the_exact_curve_of_their_common_bias(monkeypatch):
    # S(3) = 2pq at k = 2: 0.5, 0.48 and 0.42, lifted to 0.5, 0.68 and 0.82,
    # so both pairs escalate; 0.6 belongs to both and runs its DP once
    rep, exact = _corrupting_scan(monkeypatch, [0.5, 0.6, 0.7],
                                  lambda p: round(2 * p - 1, 1))
    assert exact == [0.5, 0.6, 0.7]
    assert rep.n_violations == 0


def _fraction_scan(ps, k, horizon):
    """(values, worst gaps) of the rational scan as it once ran: every
    survival value a Fraction, every pair compared by ``_worst_gap``."""
    curves = [ed.survival_pmf(WalkSpec(p, k), horizon, MODE_RATIONAL).values
              for p in ps]
    steps = list(range(horizon + 1))
    return ([[float(v) for v in c] for c in curves],
            [dominance._worst_gap(lo, hi, steps) for lo, hi in zip(curves, curves[1:])])


@pytest.mark.parametrize("ps, k, horizon", [
    # the desk grid 1/2, 11/20, 3/5, ..., 19/20: scales 2, 20, 5, 10 and 4
    ([Fraction(1, 2) + Fraction(i, 20) for i in range(10)], 4, 160),
    # a grid on the shared scale 61
    ([Fraction(j, 61) for j in (31, 34, 40, 47, 53, 58)], 3, 200),
])
def test_rational_scan_matches_the_fraction_scan(ps, k, horizon):
    values, gaps = _fraction_scan(ps, k, horizon)
    rep = ed.dominance_scan_discrete(ps, k, horizon, MODE_RATIONAL)
    assert [[v.hex() for v in row] for row in rep.values] == \
        [[v.hex() for v in row] for row in values]
    want = dominance.DominanceReport("p", ps, "n", rep.index, values)
    for i, gap in enumerate(gaps):
        want.add_pair(str(ps[i]), str(ps[i + 1]), gap)
    assert rep.pairs == want.pairs


@pytest.mark.parametrize("lo, hi", [
    # shared scale 2: gaps 1/2 at n = 1 and n = 2, 1/8 at n = 3
    (([1, 0, 1, 3, 9], 2), ([1, 1, 3, 4, 1], 2)),
    # scales 2 and 3: gaps 1/2 at n = 1 and n = 2, 1/16 at n = 4; at n = 3,
    # 1/9 < 1/8 though 3 * 3**3 > 1 * 2**3
    (([1, 1, 2, 1, 15], 2), ([1, 3, 9, 3, 81], 3)),
    # scales 3 and 2: hi never exceeds lo
    (([1, 3, 9, 1, 81], 3), ([1, 1, 2, 0, 15], 2)),
])
def test_exact_worst_gap_matches_worst_gap_on_fractions(monkeypatch, lo, hi):
    index = "abcde"
    powers = {d: [d**n for n in range(len(index))] for d in (lo[1], hi[1])}
    fractions = [[Fraction(n, d**i) for i, n in enumerate(numerators)]
                 for numerators, d in (lo, hi)]
    want = dominance._worst_gap(*fractions, index)
    made = []
    monkeypatch.setattr(dominance, "Fraction",
                        lambda *args: made.append(args) or Fraction(*args))
    got = dominance._exact_worst_gap(lo, hi, index, powers)
    assert got == want
    assert got is None or (type(got[0]) is Fraction and got[1] == "b")
    # a Fraction for each curve at each point where hi exceeds lo, no more
    assert len(made) == 2 * sum(b > a for a, b in zip(*fractions))


def test_rational_scan_without_violation_forms_no_fraction(monkeypatch):
    calls = []
    real = dominance.walk._values
    monkeypatch.setattr(dominance.walk, "_values",
                        lambda *args: calls.append(args) or real(*args))
    ps = [Fraction(1, 2) + Fraction(i, 20) for i in range(6)]
    rep = ed.dominance_scan_discrete(ps, 3, 60, MODE_RATIONAL)
    assert rep.n_violations == 0
    assert calls == []


def test_report_serializes(tmp_path):
    rep = ed.dominance_scan_discrete([0.5, 0.7], 2, 20, MODE_FLOAT)
    obj = rep.to_json_obj()
    json.dumps(obj)  # round-trippable
    assert obj["n_violations"] == 0
    text = rep.to_text()
    assert "0.5 >= 0.7: dominates" in text


def test_empirical_identical_is_consistent():
    rng = np.random.default_rng(1)
    x = rng.exponential(size=2000)
    verdict, (ea, eb) = ed.empirical_dominance_test(x, x)
    assert verdict == ed.CONSISTENT
    assert ea == eb > 0


def test_empirical_clear_separation():
    rng = np.random.default_rng(2)
    slow = rng.exponential(size=4000) * 3.0
    fast = rng.exponential(size=4000)
    verdict, _ = ed.empirical_dominance_test(slow, fast)
    assert verdict == ed.CONSISTENT
    verdict, _ = ed.empirical_dominance_test(fast, slow)
    assert verdict == ed.VIOLATES


def test_empirical_noise_is_inconclusive():
    rng = np.random.default_rng(3)
    a = rng.exponential(size=3000)
    b = rng.exponential(size=3000)
    verdict, _ = ed.empirical_dominance_test(a, b)
    assert verdict in (ed.INCONCLUSIVE, ed.CONSISTENT)
    # and it must never declare a violation from same-law noise
    assert verdict != ed.VIOLATES


def test_empirical_band_shrinks_with_sample_size():
    x = np.arange(100.0)
    _, (e1, _) = ed.empirical_dominance_test(x, x)
    _, (e2, _) = ed.empirical_dominance_test(np.tile(x, 16), np.tile(x, 16))
    assert e2 == pytest.approx(e1 / 4.0)


def _unique_grid_dominance_test(a, b):
    """The DKW rule as first written: both curves on the grid of distinct
    sample points, each sample sorted again by its survival function."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    alpha = 1.0 - dominance._CONFIDENCE
    eps_a = math.sqrt(math.log(2.0 / alpha) / (2.0 * a.size))
    eps_b = math.sqrt(math.log(2.0 / alpha) / (2.0 * b.size))
    grid = np.unique(np.concatenate([a, b]))
    surv_a = 1.0 - np.searchsorted(np.sort(a), grid, side="right") / a.size
    surv_b = 1.0 - np.searchsorted(np.sort(b), grid, side="right") / b.size
    if np.any(surv_b - eps_b > surv_a + eps_a):
        return ed.VIOLATES, (eps_a, eps_b)
    if np.all(surv_a >= surv_b):
        return ed.CONSISTENT, (eps_a, eps_b)
    return ed.INCONCLUSIVE, (eps_a, eps_b)


def _dkw_cases():
    """(untied, tied) lists of sample pairs of unequal sizes."""
    rng = np.random.default_rng(4)
    untied = [(rng.exponential(size=3000) * s, rng.exponential(size=2000))
              for s in (3.0, 1.0, 1.02, 0.5)]
    tied = [(rng.integers(0, 6, size=n) + s, rng.integers(0, 6, size=500))
            for n, s in ((400, 0), (500, 1), (700, -1), (300, 0.5))]
    tied.append((np.repeat([1.0, 2.0], 50), np.repeat([1.0, 2.0], [60, 40])))
    return untied, tied


def test_merged_counts_match_two_searchsorted_calls():
    # the counts as the test once read them: each sorted sample searched at
    # every point of both samples
    untied, tied = _dkw_cases()
    edge = [(np.array([2.0]), np.array([1.0, 2.0, 2.0])),
            (np.array([-np.inf, 0.0, np.inf]), np.array([np.inf, np.inf])),
            (np.full(5, 3.0), np.full(2, 3.0))]
    for a, b in untied + tied + edge:
        a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
        grid = np.concatenate([a, b])
        want_a = np.searchsorted(a, grid, side="right")
        want_b = np.searchsorted(b, grid, side="right")
        count_a, count_b = dominance._merged_counts(a, b)
        distinct = np.unique(grid)
        assert count_a.size == distinct.size
        at = np.searchsorted(distinct, grid)  # each grid point's distinct point
        assert count_a.dtype == want_a.dtype and count_b.dtype == want_b.dtype
        assert np.array_equal(count_a[at], want_a)
        assert np.array_equal(count_b[at], want_b)


def test_empirical_test_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ed.empirical_dominance_test([1.0, math.nan], [2.0])


def test_empirical_test_matches_the_unique_grid_rule():
    for cases in _dkw_cases():
        verdicts = set()
        for a, b in cases:
            got = ed.empirical_dominance_test(a, b)
            assert got == _unique_grid_dominance_test(a, b)
            verdicts.add(got[0])
        assert verdicts == {ed.CONSISTENT, ed.VIOLATES, ed.INCONCLUSIVE}


def test_empirical_validation():
    with pytest.raises(ValueError):
        ed.empirical_dominance_test([], [1.0])


def test_mc_exit_times_dominance_end_to_end():
    from exitdom.bm import DriftSpec
    from exitdom.mc import RngStreamSpec
    s0 = ed.simulate_exit_bm(DriftSpec(0.0, 1.0), 1e-3, 30.0, 8000,
                             RngStreamSpec(99, 1))
    s2 = ed.simulate_exit_bm(DriftSpec(2.0, 1.0), 1e-3, 30.0, 8000,
                             RngStreamSpec(99, 2))
    verdict, _ = ed.empirical_dominance_test(s0.exit_times(), s2.exit_times())
    assert verdict == ed.CONSISTENT
    verdict, _ = ed.empirical_dominance_test(s2.exit_times(), s0.exit_times())
    assert verdict == ed.VIOLATES
