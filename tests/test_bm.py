import importlib.util
import math
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import exitdom as ed
from exitdom import bm
from exitdom.bm import (
    DriftSpec,
    _density_reflection,
    _density_series,
    _log_ndtr,
    _ndtr,
    _survival_images,
    _weighted_tail_series,
)
from exitdom.walk_girsanov import _float_exit_table

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_series_and_reflection_agree_across_crossover():
    for b in (0.5, 1.0, 2.0):
        for t in (0.01 * b * b, 0.05 * b * b, 0.2 * b * b, b * b):
            s = _weighted_tail_series(b, t, 0.0)
            r = _survival_images(b, t, 0.0)
            assert s == pytest.approx(r, abs=1e-13)
            ds = _density_series(b, t)
            dr = _density_reflection(b, t)
            assert ds == pytest.approx(dr, abs=1e-12)


def test_driftless_survival_values():
    assert ed.driftless_survival(1.0, 0.0) == 1.0
    assert ed.driftless_survival(1.0, 1.0) == pytest.approx(0.37077742979952394, abs=1e-14)
    # short time: essentially no exits yet
    assert ed.driftless_survival(1.0, 1e-4) == pytest.approx(1.0, abs=1e-12)
    # long time: leading eigenmode only
    t = 20.0
    lead = (4 / math.pi) * math.exp(-math.pi**2 * t / 8)
    assert ed.driftless_survival(1.0, t) == pytest.approx(lead, rel=1e-12)


def test_driftless_density_integrates_to_one_with_unit_mean():
    total, _ = integrate.quad(lambda s: bm._exit_density(1.0, s),
                              0, 60, limit=300)
    assert total == pytest.approx(1.0, abs=1e-9)
    mean, _ = integrate.quad(lambda s: s * bm._exit_density(1.0, s),
                             0, 80, limit=300)
    assert mean == pytest.approx(1.0, abs=1e-9)  # E[tau] = b^2


def test_density_is_minus_derivative_of_survival():
    for t in (0.03, 0.3, 1.5):
        h = 1e-6
        num = (ed.driftless_survival(1.0, t - h) - ed.driftless_survival(1.0, t + h)) / (2 * h)
        assert num == pytest.approx(bm._exit_density(1.0, t), rel=1e-5)


def test_brownian_scaling():
    # P_b(tau > t) = P_1(tau > t / b^2)
    for b in (0.5, 2.0, 3.7):
        for t in (0.1, 1.0, 5.0):
            assert ed.driftless_survival(b, t) == pytest.approx(
                ed.driftless_survival(1.0, t / (b * b)), abs=1e-12)


def test_drifted_reduces_to_driftless():
    for t in (0.02, 0.5, 2.0):
        assert ed.drifted_survival(DriftSpec(0.0, 1.0), t) == pytest.approx(
            ed.driftless_survival(1.0, t), abs=1e-12)


def test_drifted_survival_frozen_value():
    assert ed.drifted_survival(DriftSpec(1.0, 1.0), 1.0) == pytest.approx(
        0.24693790529559345, abs=1e-12)


def test_drifted_survival_at_zero_and_evenness():
    for lam in (0.5, 1.0, 2.5):
        assert ed.drifted_survival(DriftSpec(lam, 1.0), 0.0) == pytest.approx(1.0, abs=1e-8)
        for t in (0.3, 1.0):
            assert ed.drifted_survival(DriftSpec(-lam, 1.0), t) == \
                ed.drifted_survival(DriftSpec(lam, 1.0), t)


def test_series_vs_quadrature_route():
    for lam in (0.0, 0.7, 1.5, 3.0):
        for b in (0.5, 1.0):
            for t in (0.01 * b * b, 0.5 * b * b, 2.0 * b * b):
                a = ed.drifted_survival(DriftSpec(lam, b), t)
                q, bound = ed.drifted_survival_quad(DriftSpec(lam, b), t)
                assert a == pytest.approx(q, abs=1e-9 + bound)


def _quad_bits(spec, t):
    return [v.hex() for v in ed.drifted_survival_quad(spec, t)]


def _clear_panel_memos():
    bm._panel.cache_clear()
    bm._gk21.cache_clear()


# (b, lam, t, value, cut-off bound) of drifted_survival_quad, as the route
# read before its heap sums moved to operator.itemgetter: t = 0, short times
# below 0.05 b^2, times around b^2 and past it, and lam b up to 300
_QUAD_PINNED = [
    (1.0, 0.0, 0.0, '0x1.0000000000000p+0', '0x1.380293e123f1bp-54'),
    (1.0, 0.5, 0.0, '0x1.0000000000000p+0', '0x1.f94d8acdc7336p-60'),
    (0.5, 6.0, 0.0, '0x1.fffffffffffe2p-1', '0x1.08b5eea93a095p-46'),
    (2.0, 1.0, 0.0, '0x1.0000000000000p+0', '0x1.36ae3959cb375p-61'),
    (1.0, 300.0, 0.0, '0x1.0000000000000p+0', '0x0.0p+0'),
    (1.0, 0.0, 0.01, '0x1.0000000000000p+0', '0x1.380293e123f1bp-54'),
    (1.0, 1.5, 0.03, '0x1.fffffed018f44p-1', '0x1.8ff40b702b0f8p-45'),
    (0.5, 16.0, 0.00125, '0x1.0000000000000p+0', '0x1.13750c523aee0p-181'),
    (2.0, 10.0, 0.08, '0x1.fffde828bb506p-1', '0x0.0p+0'),
    (1.0, 100.0, 0.0001, '0x1.0000000000000p+0', '0x0.0p+0'),
    (1.0, 300.0, 0.001, '0x1.0000000000000p+0', '0x0.0p+0'),
    (0.5, 40.0, 0.01, '0x1.a12ac53d43fabp-1', '0x0.0p+0'),
    (1.0, 0.7, 0.5, '0x1.4501ee1a5b6fdp-1', '0x1.d6262527296dfp-65'),
    (0.5, 3.0, 0.125, '0x1.eb34b35f75a7fp-2', '0x1.8ff40b702b0f8p-45'),
    (1.0, 20.0, 0.2, '0x1.0fbfdd51ab558p-38', '0x0.0p+0'),
    (1.0, 1.0, 1.0, '0x1.f9ba949b1938fp-3', '0x1.40ae3c57e30bcp-50'),
    (1.0, 8.0, 1.0, '0x1.247c59c07bfeep-42', '0x1.13750c523aee0p-181'),
    (1.0, 2.0, 2.0, '0x1.740fc0c252c3dp-9', '0x1.36ae3959cb375p-61'),
    (1.0, 5.0, 3.0, '0x1.90404b2dee920p-57', '0x1.3ce6103f4e7c3p-73'),
    (1.0, 2.0, 10.0, '0x1.1dea03fb12663p-46', '0x1.ebf5ca03e4b35p-50'),
    (2.0, 0.25, 12.0, '0x1.6a898b84a613bp-6', '0x1.f94d8acdc7336p-60'),
    (1.0, 300.0, 2.0, '0x0.0p+0', '0x0.0p+0'),
]


def test_quadrature_keeps_its_pinned_bits():
    _clear_panel_memos()
    got = [(b, lam, t, *_quad_bits(DriftSpec(lam, b), t)) for b, lam, t, *_ in _QUAD_PINNED]
    assert got == _QUAD_PINNED


def test_unclamped_quadrature_shows_an_integrand_too_large(monkeypatch):
    # a density 1e-5 too large lifts the integral above 1: the public route
    # clamps it to 1, the sum before the clamp keeps it
    real = bm._exit_density
    monkeypatch.setattr(bm, "_exit_density", lambda b, t: real(b, t) * (1 + 1e-5))
    _clear_panel_memos()
    try:
        spec = DriftSpec(1.0, 1.0)
        assert ed.drifted_survival_quad(spec, 0.0)[0] == 1.0
        assert bm._survival_quad(spec, 0.0)[0] == pytest.approx(1 + 1e-5, rel=1e-9)
    finally:
        _clear_panel_memos()  # no panel built on the scaled density outlives it


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 1])
def test_density_memo_keeps_every_bit(b):
    # t = 0, one short time below 0.05 b^2 and two from b^2 on
    for lam_b in (0.0, 1.5, 8.0):
        spec = DriftSpec(lam_b / b, b)
        for t in (0.0, 0.01 * b * b, b * b, 3.0 * b * b):
            _clear_panel_memos()
            cold = _quad_bits(spec, t)
            misses = bm._panel.cache_info().misses, bm._gk21.cache_info().misses
            # the density panels alone serve a second pass the same bits
            bm._gk21.cache_clear()
            assert _quad_bits(spec, t) == cold
            assert bm._panel.cache_info().misses == misses[0] > 0
            assert _quad_bits(spec, t) == cold
            assert bm._gk21.cache_info().misses == misses[1] > 0


def test_density_memo_serves_an_int_barrier_the_float_bits():
    for lam, t in ((0.0, 0.02), (2.0, 0.3), (5.0, 1.5)):
        _clear_panel_memos()
        cold = _quad_bits(DriftSpec(lam, 1), t)
        _clear_panel_memos()
        _quad_bits(DriftSpec(lam, 1.0), t)
        misses = bm._panel.cache_info().misses, bm._gk21.cache_info().misses
        assert _quad_bits(DriftSpec(lam, 1), t) == cold
        assert (bm._panel.cache_info().misses, bm._gk21.cache_info().misses) == misses


def test_a_second_exact_routes_pass_recomputes_nothing(tmp_path, monkeypatch):
    # the benchmark's exact-routes workload, run twice in one process: the
    # memos hold its whole working set, so the second pass misses none
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    exact = workloads.WORKLOADS["exact-routes"]
    inputs = exact.build(1)
    _clear_panel_memos()
    _float_exit_table.cache_clear()
    first = exact.run(inputs, str(tmp_path))
    density, weighted = bm._panel.cache_info(), bm._gk21.cache_info()
    tables = _float_exit_table.cache_info()
    second = exact.run(inputs, str(tmp_path))
    assert bm._panel.cache_info().misses == density.misses
    assert bm._gk21.cache_info().misses == weighted.misses
    assert _float_exit_table.cache_info().misses == tables.misses
    assert tables.misses == 7 and density.hits > density.misses
    assert weighted.currsize < bm._PANEL_CACHE and density.currsize < bm._PANEL_CACHE
    for out in (first, second):
        checks, _ = exact.check(inputs, out, str(tmp_path))
        assert all(c["passed"] for c in checks if c["gated"])
    assert repr(first["reweight"]) == repr(second["reweight"])
    assert repr(first["factorization"]) == repr(second["factorization"])
    assert repr([q for *_, q in first["continuous"]]) == repr(
        [q for *_, q in second["continuous"]])


def test_quadrature_route_stays_in_the_unit_interval():
    # unclamped, the short-time quadrature at lam = 40 overshoots 1 by 3e-8
    val, bound = ed.drifted_survival_quad(DriftSpec(40.0, 1.0), 0.01)
    assert 0.0 <= val <= 1.0
    assert val == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("lam_b, t", [(100.0, 1e-4), (300.0, 1e-3)])
def test_quadrature_route_at_large_drift(lam_b, t):
    # a small integral times cosh(lam b) once read 0.99348 and 0.450 here
    val, bound = ed.drifted_survival_quad(DriftSpec(lam_b, 1.0), t)
    assert val == 1.0 and bound == 0.0
    assert val == pytest.approx(float(mp_survival_images(1.0, t, lam_b)), abs=1e-15)
    assert val == ed.drifted_survival(DriftSpec(lam_b, 1.0), t)


def _quadpack_survival(spec, t):
    """cosh(lam b) int_t^T e^(-lam^2 s / 2) f(s) ds by QUADPACK, on the pieces
    and with the tolerances of the quadrature route."""
    lam, b = abs(spec.lam), spec.b
    g, a0 = 0.5 * lam * lam, math.pi**2 / (8.0 * b * b)
    T = max(t + b * b, 4.0 * b * b)
    while math.cosh(lam * b) * math.exp(-(g + a0) * T) * 4.0 / math.pi > 1e-13:
        T *= 1.5
    cuts = sorted(c for c in {t, 0.05 * b * b, b * b, T} if t <= c <= T)
    total = sum(integrate.quad(lambda s: math.exp(-g * s) * bm._exit_density(b, s),
                               lo, hi, limit=200, epsabs=1e-12, epsrel=1e-11)[0]
                for lo, hi in zip(cuts, cuts[1:]))
    return math.cosh(lam * b) * total


def test_quadrature_rule_matches_quadpack():
    # QUADPACK's adaptive rule as the oracle of the in-house one; the grid
    # is the exact-routes scan's, where both routes agree with the series
    worst = 0.0
    for b in (0.5, 1.0, 2.0):
        for lam_b in (0.0, 1.0, 3.0, 8.0, 12.0):
            spec = DriftSpec(lam_b / b, b)
            for t in (0.0, 0.005 * b * b, 0.049 * b * b, 0.3 * b * b, b * b, 2.0 * b * b):
                val, bound = ed.drifted_survival_quad(spec, t)
                ref = _quadpack_survival(spec, t)
                worst = max(worst, abs(val - ref))
                assert val == pytest.approx(ref, rel=1e-9, abs=1e-11 + bound)
    assert worst > 0.0  # two rules, not one


def test_cosh_overflow_is_a_value_error():
    assert ed.drifted_survival(DriftSpec(700.0, 1.0), 1.0) == 0.0
    for fn in (ed.drifted_survival, ed.drifted_survival_quad):
        with pytest.raises(ValueError, match=r"lambda\*b = 800 exceeds 710\.48"):
            fn(DriftSpec(-400.0, 2.0), 1.0)


def test_sech_identity():
    # cosh(lam b) * E0[exp(-lam^2 tau / 2)] = 1
    for lam in (0.3, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            val, _ = ed.drifted_survival_quad(DriftSpec(lam, b), 0.0)
            assert val == pytest.approx(1.0, abs=1e-7)


def test_drifted_survival_monotone_in_time_and_drift():
    times = [0.1, 0.5, 1.0, 2.0, 4.0]
    prev_curve = None
    for lam in (0.0, 0.5, 1.0, 2.0):
        curve = [ed.drifted_survival(DriftSpec(lam, 1.0), t) for t in times]
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
        if prev_curve is not None:
            assert all(hi <= lo + 1e-10 for lo, hi in zip(prev_curve, curve))
        prev_curve = curve


def test_short_time_survival_at_large_drift():
    # the quadrature head this branch once used read 0.023 at t = 0 and
    # 0.45 at t = 1e-3 for lam*b = 300, so the curve rose in t
    for lam_b in (100.0, 300.0, 700.0):
        assert ed.drifted_survival(DriftSpec(lam_b, 1.0), 0.0) == 1.0
    assert ed.drifted_survival(DriftSpec(300.0, 1.0), 1e-3) == pytest.approx(1.0, abs=1e-12)
    times = [0.0, *np.geomspace(1e-6, 0.049, 40)]
    for lam_b in (0.0, 12.0, 20.0, 100.0, 300.0, 700.0):
        curve = [ed.drifted_survival(DriftSpec(lam_b, 1.0), t) for t in times]
        assert all(b <= a + 1e-15 for a, b in zip(curve, curve[1:]))


def _sign_given_modulus(lam, x):
    """P(B_t^lam = +x | |B_t^lam| = x) and its complement, for x >= 0.

    p_plus = e^(lam x) / (e^(lam x) + e^(-lam x)), in the overflow-safe
    logistic form.
    """
    p_plus = 1.0 / (1.0 + math.exp(-2.0 * lam * x))
    return p_plus, 1.0 - p_plus


def test_sign_given_modulus():
    assert _sign_given_modulus(0.0, 1.0) == (0.5, 0.5)
    assert _sign_given_modulus(2.0, 0.0) == (0.5, 0.5)
    p_plus, p_minus = _sign_given_modulus(1.0, 1.0)
    e = math.e
    assert p_plus == pytest.approx(e / (e + 1 / e), abs=1e-15)
    assert p_plus + p_minus == 1.0
    # overflow safety at extreme arguments
    assert _sign_given_modulus(100.0, 100.0)[0] == 1.0


def test_dominance_scan_continuous():
    rep = ed.dominance_scan_continuous([0.0, 0.5, 1.0, 2.0], 1.0,
                                       [0.25, 0.5, 1.0, 2.0])
    assert rep.n_violations == 0
    assert all(p.verdict == ed.DOMINATES for p in rep.pairs)


def test_dominance_scan_rejects_bad_grid():
    with pytest.raises(ValueError):
        ed.dominance_scan_continuous([1.0, 0.5], 1.0, [1.0])
    with pytest.raises(ValueError):
        ed.dominance_scan_continuous([-0.5, 1.0], 1.0, [1.0])


@pytest.mark.parametrize("tie_tol", [-1.0, math.nan])
def test_dominance_scan_rejects_negative_or_nan_tie_tolerance(tie_tol):
    for lambdas in ([0.0, 1.0], [1.0]):  # a one-drift grid compares nothing
        with pytest.raises(ValueError, match="tie tolerance"):
            ed.dominance_scan_continuous(lambdas, 1.0, [0.5], tie_tol=tie_tol)


def test_input_validation():
    with pytest.raises(ValueError):
        DriftSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        DriftSpec(math.inf, 1.0)
    with pytest.raises(ValueError):
        ed.driftless_survival(1.0, -0.1)


def test_series_control_budget_raises(monkeypatch):
    monkeypatch.setattr(bm, "_MAX_TERMS", 2)
    with pytest.raises(ArithmeticError):
        ed.driftless_survival(1.0, 1.0)


@pytest.mark.parametrize("fn, args", [
    (ed.driftless_survival, (1.0,)),
    (ed.drifted_survival, (DriftSpec(1.0, 1.0),)),
    (ed.drifted_survival_quad, (DriftSpec(1.0, 1.0),)),
])
def test_nan_time_is_a_value_error_and_inf_is_the_limit(fn, args):
    # NaN time once gave 0.0, (0.0, nan) or a non-convergence ArithmeticError
    with pytest.raises(ValueError, match="time must be a number"):
        fn(*args, math.nan)
    limit = fn(*args, math.inf)
    assert limit == ((0.0, 0.0) if fn is ed.drifted_survival_quad else 0.0)


@pytest.mark.parametrize("fn", [ed.driftless_survival])
@pytest.mark.parametrize("b", [math.nan, 0.0, -1.0, math.inf])
def test_nan_or_nonpositive_barrier_is_a_value_error(fn, b):
    # a NaN barrier once passed the b <= 0 check and ran 2,000 NaN terms;
    # an infinite one would weight the images by 0 * inf
    with pytest.raises(ValueError, match="barrier b must be positive"):
        fn(b, 1.0)


# The image sums over all of j = -20..20 and the series with every
# invariant recomputed in the loop: the forms before the image cut-off,
# kept as oracles for bit-identity.  oracle_survival_reflection is the
# driftless sum from before the drift entered the image series.  They read
# the library's own Phi, which the tests below hold to mpmath.

def oracle_survival_reflection(b, t):
    rt = math.sqrt(t)
    acc = 0.0
    for k in range(-20, 21):
        term = (2.0 * _ndtr((1 - 4 * k) * b / rt)
                - _ndtr((-1 - 4 * k) * b / rt)
                - _ndtr((3 - 4 * k) * b / rt))
        acc += term
    return float(acc)


def oracle_survival_images(b, t, lam):
    rt = math.sqrt(t)

    def weighted(log_w, x):
        if log_w > 0.0:
            return math.exp(log_w + _log_ndtr(x))
        return math.exp(log_w) * _ndtr(x)

    acc = 0.0
    for j in range(-20, 21):
        a = ((1 - 4 * j) * b - lam * t) / rt
        m = ((-1 - 4 * j) * b - lam * t) / rt
        c = ((3 - 4 * j) * b - lam * t) / rt
        l0, l1 = 4 * j * (lam * b), (4 * j - 2) * (lam * b)
        p, q = weighted(l0, a), weighted(l1, a)
        r, s = weighted(l0, m), weighted(l1, c)
        acc += (p - r) + (q - s) if j < 0 else p + q - r - s
    return float(acc)


def oracle_density_series(b, t):
    acc = 0.0
    for m in range(bm._MAX_TERMS):
        n = 2 * m + 1
        term = (math.pi * n / (2.0 * b * b)) * math.exp(
            -n * n * math.pi**2 * t / (8.0 * b * b))
        acc += term if m % 2 == 0 else -term
        if term < bm.SERIES_TOL:
            return acc
    raise ArithmeticError("density series did not converge")


def oracle_density_reflection(b, t):
    rt = math.sqrt(t)
    inv = 1.0 / (math.sqrt(2.0 * math.pi) * t ** 1.5)
    acc = 0.0
    for k in range(-20, 21):
        c1 = (1 - 4 * k) * b
        c2 = (-1 - 4 * k) * b
        c3 = (3 - 4 * k) * b
        acc += (c1 * math.exp(-c1 * c1 / (2.0 * t))
                - 0.5 * c2 * math.exp(-c2 * c2 / (2.0 * t))
                - 0.5 * c3 * math.exp(-c3 * c3 / (2.0 * t)))
    return max(0.0, acc * inv)


def oracle_weighted_tail_series(b, t, g):
    acc = 0.0
    for m in range(bm._MAX_TERMS):
        n = 2 * m + 1
        a = n * n * math.pi**2 / (8.0 * b * b)
        term = (math.pi * n / (2.0 * b * b)) * math.exp(-(a + g) * t) / (a + g)
        acc += term if m % 2 == 0 else -term
        if term < bm.SERIES_TOL:
            return acc
    raise ArithmeticError("weighted tail series did not converge")


def public_values(b, t, lam):
    spec = DriftSpec(lam, b)
    return [ed.driftless_survival(b, t), bm._exit_density(b, t),
            ed.drifted_survival(spec, t), *ed.drifted_survival_quad(spec, t)]


def test_exact_zero_cutoffs_hold():
    # the image cut-offs rest on these exact zeros and ones of the
    # library's own Phi
    assert math.exp(-bm._EXP_ZERO) == 0.0
    xs = np.linspace(bm._NDTR_ONE, 60.0, 20001).tolist()
    assert all(_ndtr(x) == 1.0 and _ndtr(-x) < 1e-17 for x in xs)
    # a weighted Phi of image term j >= 2 is exactly 0 by this bound
    xs = np.linspace(-1000.0, 0.0, 20001).tolist()
    assert all(_log_ndtr(x) <= -x * x / 2 for x in xs)
    assert all(_ndtr(x) == 0.0 for x in xs if x < -math.sqrt(2 * bm._EXP_ZERO))
    # below t = 0.05 b^2 at most five density images remain
    assert len(bm._image_range(*[math.sqrt(2 * bm._EXP_ZERO * 0.05)] * 2)) == 5


# Phi at 40 digits; for a > 0 log Phi goes through log1p, so that the
# reference keeps its digits where Phi rounds to 1
def mp_log_ndtr(a):
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        if a > 0:
            return mpmath.log1p(-mpmath.erfc(a / mpmath.sqrt(2)) / 2)
        return mpmath.log(mpmath.ncdf(a))


NDTR_POINTS = sorted({*np.linspace(-1e4, 40.0, 401).tolist(),
                      *np.linspace(-45.0, 12.0, 571).tolist(),
                      *(-np.geomspace(1e-8, 1e4, 60)).tolist(),
                      *np.geomspace(1e-8, 40.0, 60).tolist(),
                      0.0, -1.0, math.nextafter(-1.0, 0.0), -36.77, -36.8, -37.5, -38.4})


def test_ndtr_matches_mpmath():
    tiny = sys.float_info.min
    for a in NDTR_POINTS:
        with mpmath.workdps(40):
            ref = mpmath.ncdf(mpmath.mpf(a))
        got = _ndtr(a)
        if ref >= tiny:
            # the rounding of a / sqrt(2) alone costs up to a^2 ulps
            assert abs(got - ref) <= 3e-13 * ref, a
        else:  # subnormal: a relative bound no longer holds
            assert abs(got - ref) <= 1e-320, a
    assert _ndtr(-math.inf) == 0.0 and _ndtr(math.inf) == 1.0


def test_log_ndtr_matches_mpmath():
    worst = 0.0
    for a in NDTR_POINTS:
        ref = mp_log_ndtr(a)
        got = _log_ndtr(a)
        if a > 0.0:  # log Phi(a) ~ -Phi(-a): the relative bound of Phi's tail
            assert abs(got - ref) <= 3e-13 * abs(ref) + 1e-320, a
        else:
            assert abs(got - ref) <= 1e-14 * abs(ref), a
            worst = max(worst, float(abs(got - ref) / abs(ref)))
    # the asymptotic branch, on both sides of its switch and far out
    z = bm._ERFC_ASYMPTOTIC / bm._SQRT_HALF
    for a in (-z * 1.0000001, -z * 0.9999999, -40.0, -1e3, -1e4, -1e150):
        assert _log_ndtr(a) == pytest.approx(float(mp_log_ndtr(a)), rel=1e-14, abs=0)
    assert worst < 1e-14


@settings(max_examples=120, deadline=None)
@given(b=st.floats(0.25, 4.0), log_t=st.floats(-8.0, math.log10(60.0)),
       lam_b=st.floats(0.0, 12.0))
@example(b=1.0, log_t=math.log10(math.nextafter(0.05, 0.0)), lam_b=3.0)
@example(b=0.25, log_t=math.log10(math.nextafter(0.05, 0.0)), lam_b=12.0)
@example(b=4.0, log_t=math.log10(0.049999), lam_b=0.0)
@example(b=4.0, log_t=-8.0, lam_b=12.0)  # every density image is exactly 0
# b^2/2t = 700: the images at distance b, from k = 0 and k = 1, are just
# above underflow, so a cut-off that dropped k = 1 would change the density
@example(b=1.5, log_t=math.log10(1 / 1400), lam_b=2.0)
@example(b=2.0, log_t=math.log10(0.05), lam_b=1.0)
def test_bm_values_match_oracles_bit_for_bit(b, log_t, lam_b):
    t = 10.0 ** log_t * b * b
    got = public_values(b, t, lam_b / b)
    # the panel memos would serve the oracle pass the values just computed
    _clear_panel_memos()
    try:
        with mock.patch.multiple(bm, _survival_images=oracle_survival_images,
                                 _density_series=oracle_density_series,
                                 _density_reflection=oracle_density_reflection,
                                 _weighted_tail_series=oracle_weighted_tail_series):
            want = public_values(b, t, lam_b / b)
    finally:
        _clear_panel_memos()
    assert [type(v) for v in got] == [type(v) for v in want]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    if t < bm._SMALL_T * b * b:
        driftless = min(1.0, max(0.0, oracle_survival_reflection(b, t)))
        assert got[0].hex() == driftless.hex()


def mp_survival_images(b, t, lam):
    """The drifted image series at 50 digits, over images k = -40..40."""
    with mpmath.workdps(50):
        b, t, lam = mpmath.mpf(b), mpmath.mpf(t), mpmath.mpf(lam)
        rt = mpmath.sqrt(t)
        return sum((-1) ** k * mpmath.exp(2 * lam * k * b)
                   * (mpmath.ncdf((b - 2 * k * b - lam * t) / rt)
                      - mpmath.ncdf((-b - 2 * k * b - lam * t) / rt))
                   for k in range(-40, 41))


@settings(max_examples=150, deadline=None)
@given(b=st.floats(0.25, 4.0), log_t=st.floats(-8.0, math.log10(0.05)),
       lam_b=st.floats(0.0, 700.0))
@example(b=1.0, log_t=math.log10(0.049), lam_b=12.0)
@example(b=1.0, log_t=math.log10(0.049), lam_b=20.0)
@example(b=1.0, log_t=-4.0, lam_b=100.0)
@example(b=1.0, log_t=-3.0, lam_b=300.0)
@example(b=0.25, log_t=math.log10(0.049), lam_b=700.0)
def test_short_time_survival_matches_mpmath(b, log_t, lam_b):
    t = 10.0 ** log_t * b * b
    assume(t < bm._SMALL_T * b * b)
    got = ed.drifted_survival(DriftSpec(lam_b / b, b), t)
    ref = mp_survival_images(b, t, lam_b / b)
    assert abs(got - ref) <= 1e-15 + 1e-11 * ref


@pytest.mark.parametrize("lam, t", [(20.0, 0.2), (12.0, 0.05)])
def test_survival_error_bound_holds_on_the_eigenseries(lam, t):
    # the series is cut at SERIES_TOL and then scaled by cosh(lam b): the
    # error exceeds SERIES_TOL (2.4e-12 and 1.8e-10), but not the bound
    spec = DriftSpec(lam, 1.0)
    err = abs(ed.drifted_survival(spec, t) - mp_survival_images(1.0, t, lam))
    assert bm.SERIES_TOL < err <= bm.survival_error_bound(spec, t)
