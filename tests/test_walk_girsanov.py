import itertools
import math
import sys
import warnings
from fractions import Fraction

import pytest

import exitdom as ed
from exitdom import verify, walk, walk_girsanov
from exitdom.walk import (MODE_FLOAT, MODE_RATIONAL, WalkSpec, _parse_bias,
                          exact_fraction, interior_decay_envelope)
from exitdom.walk_girsanov import _float_exit_table, _rz, _tail_bound


def _likelihood_ratio_walk(n, s, p_from, p_to, mode=MODE_FLOAT):
    """dQ_{p_to}/dQ_{p_from} on the sigma-field of the first n steps, at S_n = s.

    With u = (n+s)/2 up-steps and d = (n-s)/2 down-steps the value is
    (p_to/p_from)^u * (q_to/q_from)^d: exact in rational mode, formed in
    log space in float mode.
    """
    u, d = (n + s) // 2, (n - s) // 2
    if mode == MODE_RATIONAL:
        pf, pt = exact_fraction(p_from), exact_fraction(p_to)
        return (pt / pf) ** u * ((1 - pt) / (1 - pf)) ** d
    return math.exp(u * (math.log(p_to) - math.log(p_from))
                    + d * (math.log1p(-p_to) - math.log1p(-p_from)))


def _martingale_one_step_check(p, mode=MODE_FLOAT):
    """Deviation in E_{1/2}[(p/q)^(X/2)] = 1/(2*sqrt(pq)) for one +-1 step X.

    In rational mode both sides are squared, which clears the square roots:
    (p/q + q/p + 2)/4 is compared with 1/(4pq) in exact arithmetic, so a
    correct identity gives a deviation of exactly 0.
    """
    if mode == MODE_RATIONAL:
        p = exact_fraction(p)
        q = 1 - p
        return abs((p / q + q / p + 2) / 4 - 1 / (4 * p * q))
    q = 1.0 - p
    lhs = 0.5 * (math.sqrt(p / q) + math.sqrt(q / p))
    return abs(lhs - 1.0 / (2.0 * math.sqrt(p * q)))


def test_likelihood_ratio_examples():
    # one step up: ratio is p_to / p_from
    assert _likelihood_ratio_walk(1, 1, 0.5, 0.7) == pytest.approx(1.4)
    # two steps, net zero: (p_to q_to) / (p_from q_from)
    assert _likelihood_ratio_walk(2, 0, 0.5, 0.6) == pytest.approx(0.96)


def test_likelihood_ratio_exact():
    lr = _likelihood_ratio_walk(2, 0, "1/2", "3/5", MODE_RATIONAL)
    assert lr == Fraction(24, 25) and isinstance(lr, Fraction)
    lr = _likelihood_ratio_walk(4, 2, "1/2", "7/10", MODE_RATIONAL)
    assert lr == (Fraction(7, 5)) ** 3 * Fraction(3, 5)


def test_likelihood_ratio_chain_rule():
    # composing p1 -> p2 -> p3 must equal p1 -> p3
    a = _likelihood_ratio_walk(6, 2, "1/2", "3/5", MODE_RATIONAL)
    b = _likelihood_ratio_walk(6, 2, "3/5", "4/5", MODE_RATIONAL)
    c = _likelihood_ratio_walk(6, 2, "1/2", "4/5", MODE_RATIONAL)
    assert a * b == c


def test_likelihood_ratio_inverse():
    a = _likelihood_ratio_walk(5, -1, 0.55, 0.8)
    b = _likelihood_ratio_walk(5, -1, 0.8, 0.55)
    assert a * b == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("p_from,p_to", [("1/2", "3/5"), ("3/5", "9/10"), ("7/10", "2/5")])
def test_likelihood_ratio_normalizes(p_from, p_to):
    # sum over all n-step paths of LR * path-probability-under-p_from == 1
    n = 10
    pf, pt = Fraction(p_from), Fraction(p_to)
    total = Fraction(0)
    for u in range(n + 1):
        s = 2 * u - n
        paths = math.comb(n, u)
        prob = paths * pf**u * (1 - pf) ** (n - u)
        total += _likelihood_ratio_walk(n, s, p_from, p_to, MODE_RATIONAL) * prob
    assert total == 1


def test_rz_is_the_likelihood_ratio():
    # the reweighting identities weigh an exit at (m, +-k) by r^m z^(+-k)
    for p_from, p_to in [(0.5, 0.7), (0.7, 0.5), (0.55, 0.8), (0.9, 0.6)]:
        r, z = _rz(p_from, p_to)
        for n, s in [(1, 1), (2, 0), (5, -1), (40, 6), (41, -3)]:
            assert r**n * z**s == pytest.approx(
                _likelihood_ratio_walk(n, s, p_from, p_to), rel=1e-12)


def test_martingale_one_step():
    assert _martingale_one_step_check(0.7) <= 1e-15
    for p in ("7/10", "1/2", "1/3", "99/100", Fraction(31, 61)):
        dev = _martingale_one_step_check(p, MODE_RATIONAL)
        assert isinstance(dev, Fraction) and dev == Fraction(0)


def test_reweighted_survival_matches_direct():
    for p_from, p_to in [(0.5, 0.7), (0.7, 0.5), (0.6, 0.9), (0.9, 0.6)]:
        for k, n in [(2, 10), (3, 25)]:
            est, bound = ed.reweighted_survival_walk(p_from, p_to, k, n, 600)
            direct = ed.survival_pmf(WalkSpec(p_to, k), n).values[n]
            assert abs(est - direct) <= max(bound, 1e-12)


def test_reweighted_tail_bound_is_rigorous_and_small():
    est, bound = ed.reweighted_survival_walk(0.5, 0.8, 2, 5, 400)
    direct = ed.survival_pmf(WalkSpec(0.8, 2), 5).values[5]
    assert bound < 1e-20
    assert abs(est - direct) <= 1e-12


def test_reweighted_tail_tolerance_warns():
    # a truncation of 8 steps leaves a tail bound far above 1e-12; it is
    # returned for the caller to compare, never dropped
    _, bound = ed.reweighted_survival_walk(0.9, 0.5, 4, 5, 8)
    assert bound > 1e-12


def test_reweighted_identity_bias():
    # p_from == p_to degenerates to plain truncated survival
    est, bound = ed.reweighted_survival_walk(0.6, 0.6, 2, 10, 500)
    direct = ed.survival_pmf(WalkSpec(0.6, 2), 10).values[10]
    assert est == pytest.approx(direct, abs=max(bound, 1e-14))


def test_reweighting_from_bias_near_one_stays_finite():
    # r ~ 3.9: the weight r^m alone overflows past m ~ 510, its product with
    # the exit mass does not; at n = 0 the reweighted survival is exactly 1
    est, bound = ed.reweighted_survival_walk(Fraction(60, 61), Fraction(31, 61),
                                             3, 0, 600)
    assert math.isfinite(est) and math.isfinite(bound)
    assert abs(est - 1.0) <= max(bound, 1e-10)
    for n in (10, 50):
        est, bound = ed.reweighted_survival_walk(Fraction(60, 61), Fraction(31, 61),
                                                 3, n, 600)
        direct = ed.survival_pmf(WalkSpec(Fraction(31, 61), 3), n).values[n]
        assert abs(est - direct) <= max(bound, 1e-10)


def _full_reweighted_sum(table, p_from, p_to, n, truncation):
    """The reweighted sum over every exit row n+1..truncation of ``table``:
    the route's loop before it stopped early, kept as its oracle."""
    k = table.spec.k
    r, z = _rz(_parse_bias(p_from), _parse_bias(p_to))
    log_r, log_z = math.log(r), math.log(z)
    up_log_z, down_log_z = k * log_z, -k * log_z
    est = 0.0
    for m in range(n + 1, truncation + 1):
        up, down = table.up[m], table.down[m]
        if up > 0.0:
            est += math.exp(m * log_r + up_log_z + math.log(up))
        if down > 0.0:
            est += math.exp(m * log_r + down_log_z + math.log(down))
    return est


@pytest.mark.parametrize("p_from, p_to, k, n, truncation", [
    (0.5, 0.8, 3, 0, 600), (0.6, 0.9, 2, 10, 600),            # r < 1
    (0.6, 0.4, 3, 5, 600), (0.6, 0.6, 2, 10, 500),            # r = 1
    (0.8, 0.5, 3, 10, 600), (0.9, 0.6, 4, 0, 600),            # r > 1
    (0.5, 0.7, 3, 599, 600), (0.7, 0.5, 3, 399, 400),         # n = truncation - 1
    (0.99, 0.5, 200, 0, 600), (0.5, 0.99, 200, 0, 600), (0.99, 0.98, 200, 300, 600),
    (Fraction(60, 61), Fraction(31, 61), 3, 0, 600),          # the 60/61 probe
    (Fraction(60, 61), Fraction(31, 61), 3, 50, 600),
])
def test_reweighted_sum_stops_with_the_bits_of_the_full_sum(p_from, p_to, k, n,
                                                            truncation):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, _ = ed.reweighted_survival_walk(p_from, p_to, k, n, truncation)
    table = _float_exit_table(_parse_bias(p_from), k, truncation)
    assert est.hex() == _full_reweighted_sum(table, p_from, p_to, n, truncation).hex()


def test_reweighted_sum_stops_once_no_term_counts(monkeypatch):
    # from p = 1/2 to 0.8 at k = 3 the terms fall below a quarter ulp of the
    # sum within the first 200 of the 600 rows
    calls = []
    real_exp = math.exp
    monkeypatch.setattr(walk_girsanov.math, "exp", lambda x: calls.append(x) or real_exp(x))
    ed.reweighted_survival_walk(0.5, 0.8, 3, 0, 600)
    assert 0 < len(calls) < 200


def test_reweighted_term_that_overflows_still_raises(monkeypatch):
    # a mass planted at the last row makes its term exp(766 - 3.3 - 23):
    # every cap before it is inf, so the sum runs to it and raises, as the
    # full sum does
    table = ed.exit_joint(WalkSpec(0.9, 3), 1500)
    table.up[1500] = 1e-10
    monkeypatch.setattr(walk_girsanov, "_float_exit_table", lambda *args: table)
    with pytest.raises(OverflowError):
        _full_reweighted_sum(table, 0.9, 0.5, 0, 1500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            ed.reweighted_survival_walk(0.9, 0.5, 3, 0, 1500)


@pytest.mark.parametrize("call", [
    lambda: ed.reweighted_survival_walk(0.5, 0.7, 3, 0, 2),
    lambda: ed.factorization_check_discrete(0.5, 0.7, 3, 0, 2),
    lambda: ed.check_independence_discrete(0.7, 3, 2),
    lambda: ed.check_independence_discrete("7/10", 3, 2, MODE_RATIONAL),
])
def test_truncation_below_the_half_width_is_named(call):
    with pytest.raises(ValueError, match=r"truncation 2 is below the half-width k=3"):
        call()


def test_factorization_identity():
    for p1, p2 in [(0.5, 0.6), (0.5, 0.9), (0.6, 0.8), (0.8, 0.9)]:
        for k in (1, 2, 3):
            for n in (0, 5, 20):
                assert ed.factorization_check_discrete(p1, p2, k, n, 600) <= 1e-10


def _bits(values):
    return [float(v).hex() for v in values]


def test_identities_read_the_same_bits_cold_and_warm():
    # the two functions read memoized tables: a cold call, after the clear,
    # and a warm one, served by the memo, return the same bits
    truncation = 300
    points = [(k, p_from, p_to, n) for k in (1, 3)
              for p_from in (0.5, 0.7, Fraction(3, 5))
              for p_to in (0.5, 0.6, 0.9, "3/4") for n in (0, 7, 40)]

    def values(k, p_from, p_to, n):
        out = list(ed.reweighted_survival_walk(p_from, p_to, k, n, truncation))
        if float(p_from) < float(Fraction(p_to)):
            out.append(ed.factorization_check_discrete(p_from, p_to, k, n,
                                                       truncation))
        return _bits(out)

    cold = []
    for point in points:
        _float_exit_table.cache_clear()
        cold.append(values(*point))
    _float_exit_table.cache_clear()
    assert [values(*point) for point in points] == cold
    # one table per bias and half-width: five biases at k = 1 and 3
    assert _float_exit_table.cache_info().misses == 10
    assert [values(*point) for point in points] == cold
    assert _float_exit_table.cache_info().misses == 10


@pytest.mark.parametrize("p", [0.5, 0.6, 0.9, 58 / 61, 31 / 61, 0.99])
def test_table_residual_is_the_survival_curve_bit_for_bit(p):
    # the factorization's direct side and rw-reweight's direct value read the
    # residual of the exit table where each once ran its own survival DP to n
    for truncation, k in itertools.product((300, 400, 600), (*range(1, 9), 20)):
        residual = ed.exit_joint(WalkSpec(p, k), truncation).residual
        for n in (0, 1, 63, 64, 65, truncation - 1):
            curve = ed.survival_pmf(WalkSpec(p, k), n).values
            assert residual[n].hex() == curve[n].hex()


def test_table_memo_keys_on_the_float_bias():
    _float_exit_table.cache_clear()
    ed.reweighted_survival_walk(Fraction(3, 5), 0.7, 3, 10, 200)
    ed.reweighted_survival_walk(0.6, "7/10", 3, 10, 200)
    ed.factorization_check_discrete("3/5", 0.7, 3, 10, 200)
    info = _float_exit_table.cache_info()
    # the factorization reads the 3/5 table and builds the 7/10 one
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    # typed: a float k is checked by WalkSpec, not served the int k's table
    with pytest.raises(ValueError, match="half-width"):
        ed.reweighted_survival_walk(0.6, 0.7, 3.0, 10, 200)
    assert _float_exit_table.cache_info().currsize == 2


def _desk_float_walk_checks():
    desk = verify.SIZES[verify.DESK]
    args = desk["ks"], desk["ns"], desk["trunc"]
    return [verify.check_discrete_independence(desk["ks"], desk["trunc"],
                                               desk["ks_exact"], verify._TRUNC_EXACT),
            verify.check_discrete_reweighting(*args),
            verify.check_discrete_factorization(*args)]


def test_desk_walk_checks_build_each_table_once():
    # the independence check builds the 16 tables of its biases 0.6 to 0.9,
    # the reweighting the 4 more at 0.5, one per (k, bias) of the desk grid,
    # and the factorization pass finds every one of them in the memo
    desk = verify.SIZES[verify.DESK]
    args = desk["ks"], desk["ns"], desk["trunc"]
    _float_exit_table.cache_clear()
    assert verify.check_discrete_independence(desk["ks"], desk["trunc"], desk["ks_exact"],
                                              verify._TRUNC_EXACT).passed
    assert _float_exit_table.cache_info().misses == 16
    assert verify.check_discrete_reweighting(*args).passed
    assert _float_exit_table.cache_info().misses == 20
    assert verify.check_discrete_factorization(*args).passed
    info = _float_exit_table.cache_info()
    assert (info.misses, info.currsize) == (20, 20)


def test_desk_float_walk_checks_run_twenty_dps_then_none(monkeypatch):
    # one float DP per (k, bias) on a cold pass, where the independence
    # tables at a second truncation and the reweighting's direct survival
    # curves once made 56; a warm pass reads every table from the memo
    real, modes = walk._dp, []

    def counted(spec, horizon, mode):
        modes.append(mode)
        return real(spec, horizon, mode)

    monkeypatch.setattr(walk, "_dp", counted)
    _float_exit_table.cache_clear()
    cold = _desk_float_walk_checks()
    assert modes.count(MODE_FLOAT) == 20
    assert _float_exit_table.cache_info().misses == 20
    del modes[:]
    assert _desk_float_walk_checks() == cold
    assert modes.count(MODE_FLOAT) == 0
    assert _float_exit_table.cache_info().misses == 20
    assert all(result.passed for result in cold)


def test_factorization_reads_the_exit_law_bit_for_bit():
    # the sum as it once read the table: one exit_pmf call per step, against
    # a direct survival DP to n
    table = ed.exit_joint(WalkSpec(0.6, 3), 300)
    for p2, n in ((0.65, 0), (0.7, 10), (0.95, 50)):
        r, _ = _rz(0.6, p2)
        terms = [r**m * table.exit_pmf(m) for m in range(len(table.residual))]
        direct = ed.survival_pmf(WalkSpec(p2, 3), n).values[n]
        want = abs(direct - sum(terms[n + 1:]) / sum(terms))
        got = ed.factorization_check_discrete(0.6, p2, 3, n, 300)
        assert got.hex() == want.hex()


@pytest.mark.parametrize("n, truncation", [(-5, 400), (-1, 400), (400, 400),
                                           (401, 400)])
def test_identities_need_a_step_below_the_truncation(n, truncation):
    # n = -5 once read the table's last rows and returned 2.7e-25 for
    # P(sigma > -5) = 1
    with pytest.raises(ValueError, match="0 <= n < truncation"):
        ed.reweighted_survival_walk(0.5, 0.7, 3, n, truncation)
    with pytest.raises(ValueError, match="0 <= n < truncation"):
        ed.factorization_check_discrete(0.5, 0.7, 3, n, truncation)


def test_factorization_underflow_is_a_value_error():
    # every r^m P(sigma = m) underflows, so the ratio once read 0/0 = nan
    with pytest.raises(ValueError, match="underflows"):
        ed.factorization_check_discrete(0.5, 0.999999, 200, 4, 400)


def test_factorization_preconditions():
    with pytest.raises(ValueError):
        ed.factorization_check_discrete(0.6, 0.5, 2, 5, 200)  # p1 >= p2
    with pytest.raises(ValueError):
        ed.factorization_check_discrete(0.4, 0.6, 2, 5, 200)  # p1 < 1/2
    with pytest.raises(ValueError):
        ed.factorization_check_discrete(0.5, 0.6, 2, 5, 5)  # truncation <= n
    with pytest.raises(ValueError):
        # p2 is the next float above p1, so r rounds to exactly 1
        ed.factorization_check_discrete(0.5, math.nextafter(0.5, 1.0), 2, 5, 200)


def _product_form_tail_bound(p_from, p_to, k, truncation, residual):
    """The tail bound as products of floats, A from a float sum of (p/q)^j."""
    r, z = _rz(p_from, p_to)
    q_from = 1.0 - p_from
    _, rho = interior_decay_envelope(WalkSpec(p_from, k))
    A = math.sqrt(math.fsum((p_from / q_from) ** j for j in range(-(k - 1), k)))
    bound = max(z**k, z**-k) * A * r * (r * rho) ** truncation / (1.0 - r * rho)
    if r <= 1.0:
        bound = min(bound, r**truncation * max(z**k, z**-k) * residual)
    return bound


def test_tail_bound_in_logs_matches_the_product_form():
    # wherever A and the product form are normal floats, the bound formed in
    # logs reads the same value within 1e-12
    ps = (0.5, 0.500001, 0.55, 0.6, 0.7, 0.9, 0.95, 0.3, 0.1)
    seen = 0
    for p_from, p_to in itertools.product(ps, ps):
        for k, truncation in itertools.product((1, 2, 3, 8, 40), (8, 50, 400, 600)):
            for residual in (0.0, 1e-30, 0.5):
                want = _product_form_tail_bound(p_from, p_to, k, truncation, residual)
                r, z = _rz(p_from, p_to)
                got = _tail_bound(WalkSpec(p_from, k), r, z, truncation, residual)
                assert type(got) is float
                if want == 0.0:
                    assert got < 1e-300
                elif math.isfinite(want) and want >= sys.float_info.min:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                    seen += 1
    assert seen > 1000


def test_tail_bound_stays_finite_where_A_overflows():
    # at p = 0.99, k = 200 the float sum of (p/q)^j overflows: the bound
    # read inf here, and nan (inf * 0) at truncation 5000
    log_A, _ = interior_decay_envelope(WalkSpec(0.99, 200))
    assert math.isfinite(log_A) and log_A > 0.5 * math.log(sys.float_info.max)
    est, bound = ed.reweighted_survival_walk(0.99, 0.9, 200, 10, 400)
    assert math.isfinite(est) and math.isfinite(bound)
    est, bound = ed.reweighted_survival_walk(0.99, 0.98, 200, 300, 5000)
    direct = ed.survival_pmf(WalkSpec(0.98, 200), 300).values[300]
    assert bound == 0.0 and abs(est - direct) <= 1e-40


def test_interior_envelope_log_A_matches_the_sum():
    for p in (0.5, 0.500001, 0.6, 0.9, 0.1, 0.99):
        for k in (1, 2, 5, 40, 150):
            log_A, _ = interior_decay_envelope(WalkSpec(p, k))
            total = math.fsum((p / (1 - p)) ** j for j in range(-(k - 1), k))
            assert log_A == pytest.approx(0.5 * math.log(total), rel=1e-13, abs=1e-15)


def test_r_contraction_into_perron_value():
    # the step ratio r maps the decay rate of the source chain onto the
    # target chain's rate, which is < 1; this keeps every reweighting sum finite
    for p_from in (0.5, 0.6, 0.8, 0.95):
        for p_to in (0.5, 0.6, 0.8, 0.95):
            q_from, q_to = 1 - p_from, 1 - p_to
            r = math.sqrt(p_to * q_to / (p_from * q_from))
            for k in (1, 2, 5):
                _, rho_from = interior_decay_envelope(WalkSpec(p_from, k))
                _, rho_to = interior_decay_envelope(WalkSpec(p_to, k))
                assert r * rho_from == pytest.approx(rho_to, rel=1e-12)
                assert r * rho_from < 1.0


def test_independence_float_and_exact():
    assert ed.check_independence_discrete(0.7, 2, 400) <= 1e-12
    assert ed.check_independence_discrete("7/10", 2, 60, MODE_RATIONAL) == 0
    assert ed.check_independence_discrete("9/10", 3, 60, MODE_RATIONAL) == 0


@pytest.mark.parametrize("p, k, step", [("7/10", 2, 5), ("31/61", 3, 20),
                                         ("1/2", 1, 1)])
def test_exact_independence_reports_a_corrupted_exit(monkeypatch, p, k, step):
    # one upper exit moved off the product form: the integer route must
    # report the exact deviation that the Fraction table gives
    real = walk._joint_entries

    def corrupted(spec, horizon, mode):
        up, down, residual, scale = real(spec, horizon, mode)
        up = list(up)
        up[step] += 1
        return up, down, residual, scale

    monkeypatch.setattr(walk, "_joint_entries", corrupted)
    spec = WalkSpec(p, k)
    table = ed.exit_joint(spec, 40, MODE_RATIONAL)
    h = ed.upper_exit_prob(spec, MODE_RATIONAL)
    want = max(abs(u - (u + d) * h) for u, d in zip(table.up, table.down))
    got = ed.check_independence_discrete(p, k, 40, MODE_RATIONAL)
    assert want > 0
    assert type(got) is Fraction and got == want


def test_independence_oracle_enumeration():
    # product-form check straight from path enumeration, no DP involved
    p, k, horizon = Fraction(3, 5), 2, 12
    q = 1 - p
    up = [Fraction(0)] * (horizon + 1)
    total = [Fraction(0)] * (horizon + 1)
    for n in range(1, horizon + 1):
        for steps in itertools.product((1, -1), repeat=n):
            prob = Fraction(1)
            pos = 0
            hit = None
            for i, x in enumerate(steps, 1):
                prob *= p if x == 1 else q
                pos += x
                if abs(pos) >= k:
                    hit = i
                    break
            if hit == n:
                total[n] += prob
                if pos == k:
                    up[n] += prob
    h = p**k / (p**k + q**k)
    for n in range(horizon + 1):
        assert up[n] == total[n] * h
