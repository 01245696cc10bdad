"""The battery's registry, ``verify.CHECKS``, and the benchmark's copy of it."""

import ast
from pathlib import Path

from exitdom import verify

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
