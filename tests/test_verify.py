"""The battery's registry, ``verify.CHECKS``, and the benchmark's copy of it."""

import ast
from pathlib import Path

import math

import numpy as np

from exitdom import bm, mc, verify
from exitdom.bm import DriftSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_constants_are_stated_in_shortest_exponent_form():
    # the threshold strings' bytes: ":g" would print 1e-06, 0.002 and 0.001
    assert [verify._num(x) for x in (0, 3, 1e-12, 1e-10, 1e-6, 2e-3, 1e-3, 1e-4,
                                     2.5e-4, 6.25e-5)] == \
        ["0", "3", "1e-12", "1e-10", "1e-6", "2e-3", "1e-3", "1e-4", "2.5e-4", "6.25e-5"]


def _module_constant(path: Path, name: str):
    """The literal value bound to ``name`` at the top level of a source file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def test_benchmark_names_and_counts_the_registry():
    # the benchmark keeps its own copy of the battery: a traced run raises on
    # a check it does not name, and every desk iteration of a battery of
    # another size fails its battery-size check
    names = tuple(check.name for check in verify.CHECKS)
    assert _module_constant(PERFBENCH / "tracing.py", "VERIFY_CHECKS") == names
    assert _module_constant(PERFBENCH / "workloads.py", "_DESK_CHECKS") == len(names)


def test_hit_law_deviation_is_the_sup_over_every_time():
    # a dense oracle: the ECDF against the law on a grid that holds each hit
    # time and points just before it
    hits = np.array([0.25, 0.25, np.nan, 0.5, 0.75, np.nan, 0.1])
    for lam in (0.0, 1.0):
        times = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001), hits[~np.isnan(hits)],
                                          hits[~np.isnan(hits)] - 1e-12]))
        ecdf = [np.count_nonzero(hits <= t) / hits.size for t in times]
        law = [1.0 - bm.drifted_survival(DriftSpec(lam, 1.0), t) for t in times]
        dense = max(abs(e - f) for e, f in zip(ecdf, law))
        assert math.isclose(verify._hit_law_deviation(hits, lam, 1.0), dense, abs_tol=1e-9)


def test_coupled_check_keeps_each_hit_law_in_its_band_at_the_desk_step():
    rng = mc.RngStreamSpec(20240817)
    n = verify.SIZES[verify.DESK]["coupled_paths"]
    stats = mc.simulate_y_coupled([0.0, 0.5, 1.0], 0.0, verify._COUPLED_DT, 1.0, n,
                                  mc.RngStreamSpec(rng.master_seed, 901))
    half_width = math.sqrt(math.log(2.0 / verify.COUPLED_ALPHA) / (2.0 * n))
    devs = [verify._hit_law_deviation(h, lam, 1.0)
            for lam, h in zip((0.0, 0.5, 1.0), stats.hit_times)]
    assert stats.violation_fraction == 0.0
    assert max(devs) <= half_width
    assert verify.check_coupled_ordering(rng, n).passed
