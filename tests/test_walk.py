import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exitdom as ed
from exitdom import walk
from exitdom.walk import MODE_FLOAT, MODE_RATIONAL, WalkSpec, exact_fraction


def brute_force_tables(p, k, horizon):
    """Path-enumeration oracle for the exit law: O(2^horizon), exact rationals."""
    p = Fraction(p)
    q = 1 - p
    up = [Fraction(0)] * (horizon + 1)
    down = [Fraction(0)] * (horizon + 1)
    survival = [Fraction(0)] * (horizon + 1)
    survival[0] = Fraction(1)
    for n in range(1, horizon + 1):
        alive = Fraction(0)
        for steps in itertools.product((1, -1), repeat=n):
            prob = Fraction(1)
            pos = 0
            for x in steps:
                prob *= p if x == 1 else q
                pos += x
                if abs(pos) >= k:
                    break
            else:
                alive += prob
        survival[n] = alive
    for n in range(1, horizon + 1):
        for steps in itertools.product((1, -1), repeat=n):
            prob = Fraction(1)
            pos = 0
            hit_step = None
            for i, x in enumerate(steps, 1):
                prob *= p if x == 1 else q
                pos += x
                if abs(pos) >= k:
                    hit_step = i
                    break
            if hit_step == n:
                if pos == k:
                    up[n] += prob
                else:
                    down[n] += prob
    return up, down, survival


@pytest.mark.parametrize("p,k,horizon", [
    (Fraction(1, 2), 1, 8),
    (Fraction(3, 5), 2, 10),
    (Fraction(7, 20), 3, 12),
])
def test_dp_matches_path_enumeration(p, k, horizon):
    up, down, survival = brute_force_tables(p, k, horizon)
    table = ed.exit_joint(WalkSpec(p, k), horizon, MODE_RATIONAL)
    for n in range(horizon + 1):
        assert table.up[n] == up[n]
        assert table.down[n] == down[n]
        assert table.residual[n] == survival[n]


def test_survival_examples():
    assert ed.survival_pmf(WalkSpec(0.5, 1), 3).values == [1, 0, 0, 0]
    assert ed.survival_pmf(WalkSpec(0.6, 2), 2).values[2] == pytest.approx(0.48)
    assert ed.survival_pmf(WalkSpec(0.5, 2), 4).values[4] == pytest.approx(0.25)


def test_exit_joint_examples():
    t = ed.exit_joint(WalkSpec(0.5, 1), 1)
    assert t.up[1] == pytest.approx(0.5) and t.down[1] == pytest.approx(0.5)
    t = ed.exit_joint(WalkSpec(0.6, 2), 3)
    assert t.up[2] == pytest.approx(0.36)
    assert t.down[2] == pytest.approx(0.16)
    assert t.up[3] == 0 and t.down[3] == 0  # parity


def test_parity_and_mass_conservation():
    t = ed.exit_joint(WalkSpec(0.7, 3), 40)
    absorbed = 0.0
    for n in range(41):
        if n < 3 or (n - 3) % 2:
            assert t.exit_pmf(n) == 0
        absorbed += t.exit_pmf(n)
        assert absorbed + t.residual[n] == pytest.approx(1.0, abs=1e-12)


def test_mass_conservation_exact():
    t = ed.exit_joint(WalkSpec("7/10", 2), 30, MODE_RATIONAL)
    absorbed = Fraction(0)
    for n in range(31):
        absorbed += t.exit_pmf(n)
        assert absorbed + t.residual[n] == 1


def test_sign_flip_symmetry_exact():
    a = ed.survival_pmf(WalkSpec("3/10", 3), 60, MODE_RATIONAL).values
    b = ed.survival_pmf(WalkSpec("7/10", 3), 60, MODE_RATIONAL).values
    assert a == b


def test_dominance_above_half_exact():
    ps = [Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(9, 10)]
    curves = [ed.survival_pmf(WalkSpec(p, 3), 80, MODE_RATIONAL).values
              for p in ps]
    for lo, hi in zip(curves, curves[1:]):
        assert all(a >= b for a, b in zip(lo, hi))


def test_mean_exit():
    assert ed.mean_exit(WalkSpec(0.37, 1)) == pytest.approx(1.0)
    assert ed.mean_exit(WalkSpec(0.5, 3)) == pytest.approx(9.0)
    assert ed.mean_exit(WalkSpec(0.6, 2)) == pytest.approx(2 / 0.52)
    assert ed.mean_exit(WalkSpec("3/5", 2), MODE_RATIONAL) == Fraction(50, 13)


def test_mean_exit_matches_table_tail():
    # E[sigma] from the pmf plus a residual-mass sanity bound
    spec = WalkSpec(0.6, 3)
    t = ed.exit_joint(spec, 400)
    approx = sum(n * t.exit_pmf(n) for n in range(401))
    assert approx == pytest.approx(ed.mean_exit(spec), abs=1e-9)


def _modulus_chain_up_prob(spec, r, mode=MODE_FLOAT):
    """Up-step probability of the modulus chain |S_n| at level r in [0, k).

    Equals 1 at r = 0 and (p^(r+1) + q^(r+1)) / (p^r + q^r) for r >= 1; this
    is the discrete counterpart of the tanh drift of |B_t + lambda t|.
    """
    if r == 0:
        return 1
    p, q = spec.pq(mode)
    return (p ** (r + 1) + q ** (r + 1)) / (p**r + q**r)


def test_modulus_chain_up_prob():
    assert _modulus_chain_up_prob(WalkSpec(0.5, 5), 3) == pytest.approx(0.5)
    assert _modulus_chain_up_prob(WalkSpec(0.8, 5), 0) == 1.0
    assert _modulus_chain_up_prob(WalkSpec(0.6, 5), 2) == pytest.approx(0.28 / 0.52)


def test_modulus_chain_oracle():
    # conditional-probability enumeration: P(|S_{n+1}|=r+1 and |S_n|=r) / P(|S_n|=r)
    # for the free walk (k large enough that no absorption interferes)
    p, r, n = Fraction(3, 5), 2, 6
    q = 1 - p
    num = Fraction(0)
    den = Fraction(0)
    for steps in itertools.product((1, -1), repeat=n + 1):
        prob = Fraction(1)
        for x in steps:
            prob *= p if x == 1 else q
        pos_n = sum(steps[:n])
        pos_n1 = sum(steps)
        if abs(pos_n) == r:
            den += prob
            if abs(pos_n1) == r + 1:
                num += prob
    assert _modulus_chain_up_prob(WalkSpec(p, 10), r, MODE_RATIONAL) == num / den


def test_modulus_chain_monotone_and_limit():
    spec = WalkSpec(0.6, 60)
    vals = [_modulus_chain_up_prob(spec, r) for r in range(1, 55)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert abs(_modulus_chain_up_prob(spec, 50) - 0.6) < 1e-9


def test_invalid_inputs():
    with pytest.raises(ValueError):
        WalkSpec(0.0, 2)
    with pytest.raises(ValueError):
        WalkSpec(1.2, 2)
    with pytest.raises(ValueError):
        WalkSpec(0.5, 0)
    with pytest.raises(ValueError):
        ed.survival_pmf(WalkSpec(0.5, 2), -1)
    with pytest.raises(ValueError):
        ed.exit_joint(WalkSpec(0.5, 3), 2)  # horizon < k
    with pytest.raises(ValueError):
        ed.survival_pmf(WalkSpec(0.5, 2), 5, "decimal")
    with pytest.raises(ValueError):
        ed.survival_at(WalkSpec(0.5, 2), [3, -1])


@pytest.mark.parametrize("text, message", [("", "empty bias p"), ("  ", "empty bias p"),
                                           ("1/0", "zero denominator in '1/0'")])
def test_bias_text_errors_are_value_errors(text, message):
    # "1/0" once raised ZeroDivisionError from WalkSpec
    with pytest.raises(ValueError, match=message):
        WalkSpec(text, 2)


@pytest.mark.parametrize("n", [2.7, 625.0, np.float64(3.0), "3", Fraction(5)])
def test_survival_at_rejects_a_step_count_that_is_not_an_integer(n):
    # int(2.7) once read it as 2, which can flip the parity of an exit step
    with pytest.raises(ValueError, match="integers"):
        ed.survival_at(WalkSpec(0.5, 2), [4, n])


def test_survival_at_takes_numpy_integers():
    spec = WalkSpec(0.5, 3)
    assert ed.survival_at(spec, np.arange(8)) == ed.survival_at(spec, range(8))


def test_exact_mode_rejects_unrepresentable():
    with pytest.raises(ValueError):
        exact_fraction(0.1 + 0.2)
    assert exact_fraction(0.55) == Fraction(11, 20)
    assert exact_fraction("11/20") == Fraction(11, 20)


def test_rational_mode_is_exact():
    vals = ed.survival_pmf(WalkSpec("3/5", 2), 6, MODE_RATIONAL).values
    assert vals[2] == Fraction(12, 25)
    assert all(isinstance(v, Fraction) for v in vals)


@settings(max_examples=40, deadline=None)
@given(num=st.integers(1, 99), k=st.integers(1, 4), horizon=st.integers(0, 40))
def test_survival_curve_properties(num, k, horizon):
    curve = ed.survival_pmf(WalkSpec(num / 100, k), horizon)
    vals = np.array([float(v) for v in curve.values])
    assert vals[0] == 1.0
    assert np.all(vals >= -1e-15) and np.all(vals <= 1 + 1e-15)
    assert np.all(np.diff(vals) <= 1e-15)


@pytest.mark.parametrize("p,k", [("1/2", 1), ("3/10", 1), ("3/5", 2),
                                 ("1/5", 3), ("9/10", 4), ("11/20", 6)])
def test_float_dp_matches_rounded_rational_dp(p, k):
    horizon = 120
    exact = ed.exit_joint(WalkSpec(p, k), horizon, MODE_RATIONAL)
    approx = ed.exit_joint(WalkSpec(float(Fraction(p)), k), horizon, MODE_FLOAT)
    for name in ("up", "down", "residual"):
        x = getattr(exact, name)
        y = getattr(approx, name)
        assert all(isinstance(v, Fraction) for v in x)
        assert [float(v) for v in x] == pytest.approx(y, rel=1e-12, abs=1e-16)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       k=st.integers(1, 12), horizon=st.integers(0, 400))
def test_survival_at_matches_float_dp(p, k, horizon):
    # closed-form values lie within 1e-13 of the DP; gated ones equal it
    spec = WalkSpec(p, k)
    dp = ed.survival_pmf(spec, horizon).values
    assert ed.survival_at(spec, range(horizon + 1)) == pytest.approx(
        dp, rel=0, abs=1e-13)


def test_survival_at_above_the_gate_is_the_dp():
    # at p = 0.95, k = 8 the similarity weights spread over 19^7, far past
    # the conditioning gate, so the values come from the DP bit for bit
    spec = WalkSpec(0.95, 8)
    dp = ed.survival_pmf(spec, 200).values
    ns = [0, 7, 8, 9, 50, 200, 3]
    assert ed.survival_at(spec, ns) == [dp[n] for n in ns]
    assert ed.survival_at(spec, []) == []


def test_survival_at_selected_steps():
    spec = WalkSpec("3/5", 3)
    dp = ed.survival_pmf(spec, 60).values
    assert ed.survival_at(spec, [60, 0, 2, 3]) == pytest.approx(
        [dp[60], 1.0, 1.0, dp[3]], rel=0, abs=1e-15)
    assert ed.survival_at(WalkSpec(0.5, 1), [0, 1, 5]) == [1.0, 0.0, 0.0]


def test_float_dp_stays_at_most_one():
    # near p = 1/2 with a wide barrier, round-off once lifted the float
    # survival to 1.0000000000000826 at n = 1500; survival_at's gate sends
    # this input to the DP, so it read the same
    spec = WalkSpec(0.49748, 320)
    assert max(ed.survival_pmf(spec, 1500).values) == 1.0
    assert ed.survival_at(spec, [1500]) == [1.0]


def reference_dp(spec, horizon, mode):
    """The walk DP with every cell in the mode's own numbers (Fractions or
    floats): the library's recurrence before rational mode moved to integer
    numerators, kept as the oracle for both modes."""
    p, q = spec.pq(mode)
    num = Fraction if mode == MODE_RATIONAL else float
    zero, one = num(0), num(1)
    k = spec.k
    u = np.full(2 * k - 1, zero, dtype=object if mode == MODE_RATIONAL else float)
    u[k - 1] = one
    new = u.copy()
    up = [zero]
    down = [zero]
    residual = [one]
    for _ in range(horizon):
        up.append(p * u[-1])
        down.append(q * u[0])
        new[0] = zero
        new[1:] = p * u[:-1]
        new[:-1] += q * u[1:]
        u, new = new, u
        residual.append(u.sum())
    if mode == MODE_FLOAT:
        residual = [min(r, one) for r in residual]
    return up, down, residual


# biases a/d as strings, with prime and composite d, some not in lowest terms
_BIASES = st.tuples(st.integers(2, 40), st.integers(1, 3)).flatmap(
    lambda df: st.integers(1, df[0] - 1).map(
        lambda a: f"{a * df[1]}/{df[0] * df[1]}"))


def block_examples(test):
    """Pin horizons around the DP's block size, and a row longer than numpy's
    pairwise-summation block of 128 (2k - 1 = 131)."""
    block = walk._DP_BLOCK
    for horizon in (block - 1, block, block + 1, 2 * block + 1):
        test = example(p="7/12", k=3, horizon=horizon)(test)
    return example(p="31/61", k=66, horizon=2 * block + 1)(test)


@settings(max_examples=60, deadline=None)
@given(p=_BIASES, k=st.integers(1, 6), horizon=st.integers(0, 60))
@example(p="6/10", k=1, horizon=60)
@example(p="2/4", k=1, horizon=0)
@example(p="2/4", k=3, horizon=60)
@example(p="31/61", k=4, horizon=60)
@example(p="11/20", k=2, horizon=37)
@block_examples
def test_integer_dp_matches_reference_dp(p, k, horizon):
    # same values, types and reprs as the all-Fraction recurrence
    spec = WalkSpec(p, k)
    up, down, residual = reference_dp(spec, horizon, MODE_RATIONAL)
    curve = ed.survival_pmf(spec, horizon, MODE_RATIONAL).values
    assert all(type(v) is Fraction for v in curve)
    assert repr(curve) == repr(residual)
    if horizon < k:
        return
    table = ed.exit_joint(spec, horizon, MODE_RATIONAL)
    assert repr((table.up, table.down, table.residual)) == repr((up, down, residual))
    h = ed.upper_exit_prob(spec, MODE_RATIONAL)
    dev = max(abs(u - (u + d) * h) for u, d in zip(up, down))
    got = ed.check_independence_discrete(p, k, horizon, MODE_RATIONAL)
    assert type(got) is Fraction and repr(got) == repr(dev)


def bits(values):
    return [(type(v), float(v).hex()) for v in values]


@settings(max_examples=40, deadline=None)
@given(p=_BIASES, k=st.integers(1, 6), horizon=st.integers(0, 60))
@example(p="6/10", k=1, horizon=60)
@block_examples
def test_float_dp_matches_reference_dp_bit_for_bit(p, k, horizon):
    spec = WalkSpec(float(Fraction(p)), k)
    up, down, residual = reference_dp(spec, horizon, MODE_FLOAT)
    assert bits(ed.survival_pmf(spec, horizon).values) == bits(residual)
    if horizon >= k:
        table = ed.exit_joint(spec, horizon)
        for got, want in ((table.up, up), (table.down, down),
                          (table.residual, residual)):
            assert bits(got) == bits(want)


def grid_examples(test):
    """Pin k = 1, horizons 0 and around the block of a one-spec run, a grid
    larger than the block (one step per block), and a row of 131 cells."""
    block = walk._DP_BLOCK
    mixed = ["1/2", "6/10", "14/20", "31/61", "9/10"]  # denominators 2, 5, 10, 61
    test = example(ps=mixed, k=1, horizon=9)(test)
    test = example(ps=mixed, k=2, horizon=0)(test)
    for horizon in (block - 1, block + 1):
        test = example(ps=["7/12"], k=3, horizon=horizon)(test)
        test = example(ps=mixed, k=3, horizon=horizon)(test)
    test = example(ps=[f"{a}/{block + 7}" for a in range(1, block + 7)], k=2,
                   horizon=5)(test)
    return example(ps=["31/61", "4/6", "9/10"], k=66, horizon=2 * block + 1)(test)


@settings(max_examples=40, deadline=None)
@given(ps=st.lists(_BIASES, min_size=1, max_size=8), k=st.integers(1, 6),
       horizon=st.integers(0, 80))
@grid_examples
def test_grid_dp_matches_one_run_per_spec(ps, k, horizon):
    # one recurrence over a grid of biases gives each spec the values of a
    # run of its own: the same reprs in rational mode, the same bits in
    # float; without its exit columns it gives the same residuals
    specs = [WalkSpec(p, k) for p in ps]
    exact = walk._dp(specs, horizon, MODE_RATIONAL)
    assert repr(exact) == repr([walk._dp([spec], horizon, MODE_RATIONAL)[0]
                                for spec in specs])
    assert repr(walk._dp(specs, horizon, MODE_RATIONAL, exits=False)) == \
        repr([(residual, scale) for _, _, residual, scale in exact])
    floats = walk._dp(specs, horizon, MODE_FLOAT)
    for got, spec in zip(floats, specs):
        *columns, scale = walk._dp([spec], horizon, MODE_FLOAT)[0]
        assert got[3] == scale == 1
        assert [bits(c) for c in got[:3]] == [bits(c) for c in columns]
    for (residual, scale), full in zip(walk._dp(specs, horizon, MODE_FLOAT, exits=False),
                                       floats):
        assert scale == 1 and bits(residual) == bits(full[2])
