"""Static checks on the library's names.

Every name a library module imports is used in it, and every module-level
private function, class or constant is referenced somewhere in the library
outside its own definition.  Every public one is read by the library, the
benchmark (``perfbench/``) or the demos outside its own definition; a
re-export in ``__init__.py`` does not count.  In neither case does a
reference from the tests alone count.

The library runs on numpy alone: no file under ``src/`` imports scipy, and
no scipy module is loaded by a fresh ``import exitdom`` or
``import exitdom.cli``, nor by the commands run after it, the quadrature
route's among them.

Every ``functools`` memo in the library has a finite integer ``maxsize``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "exitdom"
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


def _definitions(tree):
    """(name, first line, last line) of each module-level definition, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
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


def _unreferenced(defining: dict[str, str], reading: dict[str, str],
                  private: bool) -> list[str]:
    """Module-level names of ``defining``, private or public, that no
    reference in ``reading`` uses outside the lines of their own definition.

    Both map file names to source text; a file may be in both.
    """
    refs = {(ref, mod, line) for mod, text in reading.items()
            for ref, line in _references(ast.parse(text))}
    out = []
    for mod, text in defining.items():
        for name, first, last in _definitions(ast.parse(text)):
            if name.startswith("_") == private and not any(
                    r == name and not (m == mod and first <= line <= last)
                    for r, m, line in refs):
                out.append(f"{mod}:{first}: {name}")
    return sorted(out)


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no line outside their definition uses.

    ``sources`` maps module file names to their text; references count from
    any of them, except from the lines of the definition itself.
    """
    return _unreferenced(sources, sources, private=True)


def unread_public_names(library: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public module-level names of ``library`` that no file of ``readers`` reads.

    ``readers`` holds the production code, the library's own modules among
    it, under the same file names; the lines of a name's own definition do
    not count as a read.
    """
    return _unreferenced(library, readers, private=False)


def scipy_imports(source: str) -> list[int]:
    """Lines that import scipy or one of its modules, at any depth."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            out.append(node.lineno)
    return sorted(out)


def unbounded_caches(source: str) -> list[str]:
    """Uses of ``functools.cache`` or ``functools.lru_cache`` that do not pass
    a positive integer ``maxsize``: a literal, or a module-level constant
    assigned one.  A bare ``@lru_cache`` leaves the bound to the default.
    """
    tree = ast.parse(source)
    constants = {target.id: node.value.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for target in node.targets if isinstance(target, ast.Name)}
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            kind = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            kind = aliases.get(node.id)
        else:
            continue
        if kind == "cache":
            out.append((node.lineno, "cache has no bound"))
        elif kind == "lru_cache":
            call = calls.get(id(node))
            given = [] if call is None else call.args[:1] + [
                k.value for k in call.keywords if k.arg == "maxsize"]
            size = given[0] if given else None
            if isinstance(size, ast.Name):
                size = constants.get(size.id)
            elif isinstance(size, ast.Constant):
                size = size.value
            if not (type(size) is int and size >= 1):
                out.append((node.lineno, "lru_cache without a finite maxsize"))
    return [f"line {line}: {problem}" for line, problem in sorted(out)]


def _production_sources() -> dict[str, str]:
    """The library modules, the benchmark and the demos, by path from the root.

    ``__init__.py`` holds only re-exports, so it is left out.
    """
    paths = [*MODULES, *sorted((ROOT / "perfbench").rglob("*.py")),
             *sorted((ROOT / "demos").rglob("*.py"))]
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


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


def test_checker_flags_an_unread_public_name():
    library = {
        "lib/a.py": "X = 1\nY = 2\ndef f(n):\n    return f(n - 1)\n"
                    "def g():\n    return Y\ndef h():\n    pass\n"
                    "def _p():\n    pass\n",
        "lib/b.py": "from . import a\nfrom .a import g\ndef tested():\n"
                    "    return a.h()\n",
    }
    readers = {**library, "demo.py": "from lib import b\nprint(b.g())\n"}
    # tested() stands for a name that only the tests call
    assert unread_public_names(library, readers) == [
        "lib/a.py:1: X", "lib/a.py:3: f", "lib/b.py:3: tested"]


def test_checker_flags_a_scipy_import():
    src = ("import math, scipy.special as sp\nfrom scipy import integrate\n"
           "import scipyx\nfrom .scipy import x\n"
           "def route():\n    from scipy.integrate import quad\n")
    assert scipy_imports(src) == [1, 2, 6]


def test_checker_flags_an_unbounded_cache():
    src = ("import functools\nfrom functools import cache, lru_cache as memo\n"
           "_N = 16\n_NONE = None\n"
           "@functools.cache\ndef a(x): pass\n"
           "@functools.lru_cache(maxsize=None)\ndef b(x): pass\n"
           "@memo\ndef c(x): pass\n"
           "@cache\ndef d(x): pass\n"
           "@functools.lru_cache(maxsize=_NONE, typed=True)\ndef e(x): pass\n"
           "@functools.lru_cache(None)\ndef f(x): pass\n"
           "@functools.lru_cache(maxsize=8)\ndef g(x): pass\n"
           "@memo(_N, typed=True)\ndef h(x): pass\n")
    assert unbounded_caches(src) == [
        "line 5: cache has no bound",
        "line 7: lru_cache without a finite maxsize",
        "line 9: lru_cache without a finite maxsize",
        "line 11: cache has no bound",
        "line 13: lru_cache without a finite maxsize",
        "line 15: lru_cache without a finite maxsize"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_every_public_name_has_a_production_reader():
    sources = _production_sources()
    library = {k: v for k, v in sources.items() if k.startswith("src/")}
    assert unread_public_names(library, sources) == []


def fresh_python(code: str, *args: str) -> str:
    """The last line that ``code`` prints, run in a fresh interpreter on ``src``."""
    # python -c puts its working directory first on sys.path
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT / "src",
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_stats_unloaded():
    # no file of the library imports scipy, and no scipy module at all, not
    # only scipy.stats, is loaded by a fresh import
    assert [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py"))
            for line in scipy_imports(p.read_text())] == []
    for module in ("exitdom", "exitdom.cli"):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert fresh_python(code) == "[]", module


def test_only_the_commands_that_integrate_load_integrate(tmp_path):
    # the quadrature route integrates without scipy, so no command, not even
    # verify-all, which runs that route, loads scipy.integrate or any other
    # scipy module
    code = """
import sys
from exitdom import cli
loaded = []
for argv in (["rw-survival", "--horizon", "5"],
             ["bm-couple", "--n-paths", "20", "--dt", "1e-3",
              "--time-horizon", "0.05"],
             ["verify-all", "--profile", "quick"]):
    status = cli.main([*argv, "--outdir", sys.argv[1]])
    loaded.append((argv[0], status,
                   sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print(loaded)
"""
    assert fresh_python(code, str(tmp_path)) == str(
        [("rw-survival", 0, []), ("bm-couple", 0, []), ("verify-all", 0, [])])
