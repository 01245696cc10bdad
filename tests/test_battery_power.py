"""Each deterministic battery check fails on a defect in the code it guards.

A row plants one defect by monkeypatching the library, runs the battery's
deterministic checks alone at quick sizes, and names the checks that must
then fail; every other deterministic check must still pass.  Every
deterministic record of ``verify.CHECKS`` has a row that it catches.  A
statistical check gets a row once its defect size can be chosen from a
stated false-alarm rate.  Known escapes are kept as strict xfails, so a
change that makes a check catch one shows.
"""

from fractions import Fraction

import pytest

from exitdom import bm, verify, walk, walk_girsanov
from exitdom.bm import DriftSpec
from exitdom.walk import MODE_RATIONAL, WalkSpec

SEED = 20240817
DETERMINISTIC = [check for check in verify.CHECKS if check.rate == 0]


@pytest.fixture(autouse=True)
def fresh_memos():
    # a table or panel built under a defect must not outlive its row
    memos = (walk_girsanov._float_exit_table, bm._panel, bm._gk21)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def no_defect(mp):
    pass


def r_times_1_plus_1e6(mp):
    real = walk_girsanov._rz

    def rz(p_from, p_to):
        r, z = real(p_from, p_to)
        return r * (1 + 1e-6), z
    mp.setattr(walk_girsanov, "_rz", rz)


def pq_skewed_by_1e3(mp):
    real = WalkSpec.pq

    def pq(self, mode):
        p, q = real(self, mode)
        skew = Fraction(1, 1000) if mode == MODE_RATIONAL else 1e-3
        return p + skew, q - skew
    mp.setattr(WalkSpec, "pq", pq)


def closed_form_at_p_0501(mp):
    real = walk.survival_at
    mp.setattr(walk, "survival_at", lambda spec, ns: real(WalkSpec(0.501, spec.k), ns))


def analytic_at_abs_lambda_minus_1(mp):
    real = bm.drifted_survival
    mp.setattr(bm, "drifted_survival",
               lambda spec, t: real(DriftSpec(abs(spec.lam - 1.0), spec.b), t))


def grid_curves_reversed(mp):
    real = walk._survival_entries
    mp.setattr(walk, "_survival_entries",
               lambda specs, horizon, mode: real(specs, horizon, mode)[::-1])


def first_exit_sides_swapped(mp):
    real = walk._joint_entries

    def joint(spec, horizon, mode):
        up, down, residual, scale = real(spec, horizon, mode)
        up, down = list(up), list(down)
        up[spec.k], down[spec.k] = down[spec.k], up[spec.k]
        return up, down, residual, scale
    mp.setattr(walk, "_joint_entries", joint)


def exit_density_scaled(factor):
    def plant(mp):
        real = bm._exit_density
        mp.setattr(bm, "_exit_density", lambda b, t: real(b, t) * factor)
    plant.__name__ = f"exit_density_times_{factor}"
    return plant


# (defect, the deterministic checks that must fail on it)
ROWS = [
    (no_defect, set()),
    (r_times_1_plus_1e6, {"discrete-girsanov-reweighting",
                          "discrete-factorization-identity"}),
    (pq_skewed_by_1e3, {"discrete-girsanov-reweighting", "discrete-factorization-identity",
                        "donsker-series-crosscheck"}),
    (closed_form_at_p_0501, {"donsker-series-crosscheck"}),
    (analytic_at_abs_lambda_minus_1, {"continuous-analytic-dominance"}),
    (grid_curves_reversed, {"discrete-exact-dominance"}),
    (first_exit_sides_swapped, {"discrete-exit-independence",
                                "discrete-girsanov-reweighting"}),
    (exit_density_scaled(1 - 1e-5), {"laplace-sech-identity"}),
]
# Known escapes.  drifted_survival_quad clamps its value to 1, so a density
# that is too large reads exactly 1 at t = 0, where the identity is checked.
ESCAPES = [(exit_density_scaled(1 + 1e-5), {"laplace-sech-identity"})]


@pytest.mark.parametrize("plant, failing", ROWS + [
    pytest.param(*row, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                 reason="known escape"))
    for row in ESCAPES], ids=[plant.__name__ for plant, _ in ROWS + ESCAPES])
def test_defect_fails_exactly_its_checks(monkeypatch, plant, failing):
    plant(monkeypatch)
    results = verify._run_checks(DETERMINISTIC, verify.QUICK, SEED, 1)
    assert {r.name for r in results if not r.passed} == failing


def test_every_deterministic_check_has_a_catching_row():
    caught = set().union(*(failing for _, failing in ROWS))
    assert caught == {check.name for check in DETERMINISTIC}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="escape: at quick sizes the exit samples cannot resolve "
                   "a 2% drift error in the analytic curves")
def test_analytic_drift_2_percent_high_fails_mc_consistency(monkeypatch):
    real = bm.drifted_survival
    monkeypatch.setattr(bm, "drifted_survival",
                        lambda spec, t: real(DriftSpec(spec.lam * 1.02, spec.b), t))
    check = next(c for c in verify.CHECKS if c.name == "mc-survival-consistency")
    [result] = verify._run_checks([check], verify.QUICK, SEED, 1)
    assert not result.passed
