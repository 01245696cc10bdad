"""Static checks on the library's names.

Every name a library module imports is used in it, and every module-level
private function, class or constant is referenced somewhere in the library
outside its own definition; a reference from the tests alone does not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "exitdom"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def _private_definitions(tree):
    """(name, first line, last line) of each module-level private definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) of every name the module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no line outside their definition uses.

    ``sources`` maps module file names to their text; references count from
    any of them, except from the lines of the definition itself.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = {(ref, mod, line) for mod, tree in trees.items()
            for ref, line in _references(tree)}
    out = []
    for mod, tree in trees.items():
        for name, first, last in _private_definitions(tree):
            if not any(r == name and not (m == mod and first <= line <= last)
                       for r, m, line in refs):
                out.append(f"{mod}:{first}: {name}")
    return sorted(out)


def test_checker_flags_an_unused_import():
    src = "import math\nimport os as o\nfrom a import b, c\nprint(math.pi, c)\n"
    assert unused_imports(src) == ["line 2: o", "line 3: b"]


def test_checker_flags_an_unreferenced_private_name():
    sources = {
        "a.py": "_X = 1\n_Y = 2\n_Z = 3\ndef _f(n):\n    return _f(n - 1)\n"
                "def _g():\n    return _Y\n",
        "b.py": "from . import a\nfrom .a import _g\nprint(a._Z)\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:1: _X", "a.py:4: _f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []
