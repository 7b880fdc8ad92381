"""Source hygiene checks that need no linter: stdlib `ast` only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "abreu1d"


def unused_top_level_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    Names listed in a module-level `__all__` count as read.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_detector_flags_unused_and_keeps_used_imports():
    source = "import os\nimport numpy as np\nfrom typing import Optional, Sequence\nx: Optional[int] = np.pi\n"
    assert unused_top_level_imports(source) == ["os (line 1)", "Sequence (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_top_level_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level `def _name` in `sources` (file name -> text) that no file reads.

    A read is a loaded name or an attribute of that name in any of the files.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{name}:{node.name} (line {node.lineno})"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]


def test_detector_flags_unreferenced_private_functions():
    sources = {
        "a.py": "def _dead(): pass\ndef _called(): pass\ndef _by_attr(): pass\n"
                "def _imported(): pass\ndef __getattr__(name): pass\ndef public(): _called()\n",
        "b.py": "import a\nfrom a import _imported\nx = a._by_attr\n_imported()\n"
                "def _fmt(v): return str(v)\n",
    }
    assert unreferenced_private_functions(sources) == ["a.py:_dead (line 1)", "b.py:_fmt (line 5)"]


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []



def private_package_imports(source: str) -> list[str]:
    """`_name`s that `source` imports from its own package (`from .x import _name`).

    Relative imports and imports from `abreu1d` count; dunder names do not.
    """
    return [
        f"from {'.' * node.level}{node.module or ''} import {alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "abreu1d")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_detector_flags_private_package_imports():
    source = (
        "from . import __version__, _private\n"
        "from .solver import _f_eps, continuation_sweep\n"
        "from abreu1d.grid import _check_length\n"
        "from os import _exit\n"
        "def f():\n    from ..pkg.mod import _late\n"
    )
    assert private_package_imports(source) == [
        "from . import _private (line 1)",
        "from .solver import _f_eps (line 2)",
        "from abreu1d.grid import _check_length (line 3)",
        "from ..pkg.mod import _late (line 6)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_package_imports(path):
    assert private_package_imports(path.read_text(encoding="utf-8")) == []


def unpassed_defaults(defs: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of a `def` in `defs` that no call in `callers` passes.

    `defs` maps a file name to its text; `callers` are source texts.  A call matches a `def` by the callee's
    bare name (`f(...)` or `obj.f(...)`) and passes a parameter by keyword or
    by position; `*args` passes every position and `**kwargs` every keyword.
    A method's first parameter is taken to be bound, except on a staticmethod.
    """
    calls = [
        node
        for text in callers
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
    ]

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def passes(call, name, position):
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        if position is None:
            return False
        return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position

    found = []
    for fname, text in defs.items():
        tree = ast.parse(text)
        methods = {
            id(fn)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            bound = 1 if id(fn) in methods else 0
            defaulted = [
                (arg.arg, k - bound)
                for k, arg in enumerate(positional)
                if k >= len(positional) - len(a.defaults)
            ] + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for name, position in defaulted:
                if not any(callee(c) == fn.name and passes(c, name, position) for c in calls):
                    found.append(f"{fname}:{fn.name}({name}) (line {fn.lineno})")
    return found


def test_detector_flags_unpassed_defaults():
    defs = {
        "m.py": (
            "def by_kw(x, floor=1e-14): pass\n"
            "def by_pos(x, count=10): pass\n"
            "def never(x, knob=1.0, other=2.0): pass\n"
            "def starred(x, k=0): pass\n"
            "def kwonly(x, *, flag=False): pass\n"
            "class C:\n"
            "    def meth(self, x, tol=0.0): pass\n"
            "    @staticmethod\n"
            "    def stat(x, tol=0.0): pass\n"
        ),
    }
    callers = [
        "by_kw(1, floor=0.0)\nmod.by_pos(1, 5)\nnever(1)\nstarred(*args)\n",
        "kwonly(1, 2)\nC().meth(1, 2)\nC.stat(1)\n",
    ]
    assert unpassed_defaults(defs, callers) == [
        "m.py:never(knob) (line 3)",
        "m.py:never(other) (line 3)",
        "m.py:kwonly(flag) (line 5)",
        "m.py:stat(tol) (line 9)",
    ]


def test_every_default_is_passed_somewhere():
    defs = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    tests = Path(__file__).resolve().parent
    callers = [*defs.values(), *(p.read_text(encoding="utf-8") for p in tests.glob("*.py"))]
    assert unpassed_defaults(defs, callers) == []


def scipy_linalg_uses(source: str) -> list[str]:
    """Imports of `scipy.linalg` (or a submodule) and `scipy.linalg` attribute reads."""
    def linalg(name):
        return name == "scipy.linalg" or name.startswith("scipy.linalg.")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(linalg(name) for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_detector_flags_scipy_linalg_uses():
    source = (
        "import scipy\nimport scipy.linalg as sl\nfrom scipy.linalg import solve_banded\n"
        "from scipy import linalg\nfrom scipy.linalg.lapack import dgbsv\n"
        "x = scipy.linalg.solve\nfrom scipy.sparse import linalg as sparse_linalg\n"
        "from . import linalg\nimport numpy.linalg\n"
    )
    assert scipy_linalg_uses(source) == ["line 2", "line 3", "line 4", "line 5", "line 6"]


def test_only_solver_uses_scipy_linalg():
    # solver.solve_banded is the package's one linear solve
    uses = {p.name: scipy_linalg_uses(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert uses.pop("solver.py")
    assert uses == {name: [] for name in uses}


def import_time_scipy_imports(source: str) -> list[str]:
    """Imports of scipy (or a submodule) that run when the module is imported.

    An import in a function body runs when the function is called; every
    other one (module body, class body, `if` or `try` block) counts.
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"line {child.lineno}")
            visit(child)

    visit(ast.parse(source))
    return found


def test_detector_flags_import_time_scipy_imports():
    source = (
        "import scipy\nimport numpy, scipy.sparse as sp\nfrom scipy.linalg.lapack import dgbsv\n"
        "from . import scipy_like\nimport scipyx\n"
        "try:\n    from scipy import linalg\nexcept ImportError:\n    pass\n"
        "class C:\n    import scipy.optimize\n"
        "def f():\n    from scipy.linalg.lapack import dgbsv\n    return dgbsv\n"
        "async def g():\n    import scipy\n"
    )
    assert import_time_scipy_imports(source) == ["line 1", "line 2", "line 3", "line 7", "line 11"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_time_scipy_imports(path):
    # importing scipy.linalg is half of a cold start; solver.load_dgbsv defers it
    assert import_time_scipy_imports(path.read_text(encoding="utf-8")) == []


def call_sites(sources: dict[str, str], module: str, function: str) -> list[str]:
    """Functions in `sources` (file name -> text) that call `module.function`.

    A call counts for the innermost function around it, or for `<module>`;
    a bare `function()` counts when `function` is imported from `module`.
    """
    found = []

    def calls(node, imported):
        func = node.func
        if isinstance(func, ast.Attribute):
            return (func.attr == function and isinstance(func.value, ast.Name)
                    and func.value.id == module)
        return isinstance(func, ast.Name) and func.id in imported

    def visit(node, file, owner, imported):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, file, child.name, imported)
                continue
            if isinstance(child, ast.Call) and calls(child, imported):
                found.append(f"{file}:{owner} (line {child.lineno})")
            visit(child, file, owner, imported)

    for name, text in sources.items():
        tree = ast.parse(text)
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names if alias.name == function
        }
        visit(tree, name, "<module>", imported)
    return found


def test_detector_flags_every_fork_site():
    sources = {
        "a.py": "import os\ndef one():\n    pid = os.fork()\n"
                "def two():\n    def inner():\n        return os.fork()\n    return inner\n"
                "def spoon(fork):\n    return fork()\n",
        "b.py": "from os import fork as f\nf()\n",
    }
    assert call_sites(sources, "os", "fork") == [
        "a.py:one (line 3)", "a.py:inner (line 6)", "b.py:<module> (line 2)",
    ]


def test_detector_flags_every_exit_site():
    sources = {
        "a.py": "import os, sys\ndef one():\n    sys.exit(1)\n"
                "def two():\n    os._exit(0)\n    raise SystemExit(2)\n",
        "b.py": "from sys import exit\nexit(3)\n",
    }
    assert call_sites(sources, "sys", "exit") == ["a.py:one (line 3)", "b.py:<module> (line 2)"]


def _package_sources():
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_one_fork_site():
    # cli._in_child owns the fork, the result pipe and the reaping
    sites = call_sites(_package_sources(), "os", "fork")
    assert [site.split(" ")[0] for site in sites] == ["cli.py:_in_child"]


def test_one_exit_site():
    # the command that cli._command registers picks every exit code, after the manifest
    [site] = call_sites(_package_sources(), "sys", "exit")
    owner, line = site.removesuffix(")").split(" (line ")
    assert owner == "cli.py:command"
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    [register] = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_command"]
    assert register.lineno < int(line) <= register.end_lineno
