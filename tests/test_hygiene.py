"""Source hygiene checks that need no linter: stdlib `ast` only."""

import ast
import builtins
import re
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


def scipy_names(source: str) -> list[str]:
    """Functions that name scipy: an import of scipy (or a submodule), or a
    string that holds the word `scipy`, outside docstrings.

    A site counts for the innermost function around it, or for `<module>`.
    """
    found = []

    def names_scipy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.level == 0 and node.module.split(".")[0] == "scipy"
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.search(r"\bscipy\b", node.value) is not None)

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue  # a docstring
            if names_scipy(child):
                found.append(f"{owner} (line {child.lineno})")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_flags_every_scipy_name():
    source = (
        '"""Mentions scipy in a docstring."""\n'
        "import numpy, scipy.sparse as sp\n"
        "def load():\n"
        '    """Loads from scipy."""\n'
        "    from scipy.linalg.lapack import dgbsv\n"
        "    return find_spec('scipy')\n"
        "class C:\n"
        "    def method(self):\n"
        "        def inner():\n"
        "            return f'{self}: scipy.linalg._flapack'\n"
        "        return inner\n"
        "import scipyx\nfrom . import scipy\nname = 'scipy_like'\n"
        "path = 'lib/scipy/linalg'\n"
    )
    assert scipy_names(source) == [
        "<module> (line 2)", "load (line 5)", "load (line 6)", "inner (line 10)",
        "<module> (line 15)",
    ]


def test_only_load_dgbsv_names_scipy():
    # solver.load_dgbsv loads LAPACK from scipy's extension file, without the
    # scipy package's set-up; no other code may import scipy or name it
    sites = {p.name: scipy_names(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    owners = {f"{name}:{site.split(' ')[0]}" for name, found in sites.items() for site in found}
    assert owners == {"solver.py:load_dgbsv"}


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
    # solver.load_dgbsv loads LAPACK on the first banded solve, and only then
    assert import_time_scipy_imports(path.read_text(encoding="utf-8")) == []


def owned_calls(sources: dict[str, str], matcher) -> list[str]:
    """`file:owner (line N)` of each call in `sources` (file name -> text) that
    `matcher(tree)(call)` accepts, where `tree` is the call's parsed file.

    The owner is the innermost function around the call, or `<module>`.
    """
    found = []

    def visit(node, file, owner, matches):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, file, child.name, matches)
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append(f"{file}:{owner} (line {child.lineno})")
            visit(child, file, owner, matches)

    for name, text in sources.items():
        tree = ast.parse(text)
        visit(tree, name, "<module>", matcher(tree))
    return found


def call_sites(sources: dict[str, str], module: str, function: str) -> list[str]:
    """Functions in `sources` (file name -> text) that call `module.function`.

    A call counts for the innermost function around it, or for `<module>`;
    a bare `function()` counts when `function` is imported from `module`.
    """
    def matcher(tree):
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names if alias.name == function
        }

        def calls(node):
            func = node.func
            if isinstance(func, ast.Attribute):
                return (func.attr == function and isinstance(func.value, ast.Name)
                        and func.value.id == module)
            return isinstance(func, ast.Name) and func.id in imported

        return calls

    return owned_calls(sources, matcher)


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
    # cli._writing_stages owns the split decision, the fork, the result
    # pipe and the reaping
    sites = call_sites(_package_sources(), "os", "fork")
    assert [site.split(" ")[0] for site in sites] == ["cli.py:_writing_stages"]


def test_one_exit_site():
    # the command that cli._command registers picks every exit code, after the manifest
    [site] = call_sites(_package_sources(), "sys", "exit")
    owner, line = site.removesuffix(")").split(" (line ")
    assert owner == "cli.py:command"
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    [register] = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_command"]
    assert register.lineno < int(line) <= register.end_lineno


def identity_calls(sources: dict[str, str]) -> list[str]:
    """Functions in `sources` (file name -> text) that call the builtin `id`,
    bare or as `builtins.id`; a method named `id` does not count."""
    def calls(node):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr == "id" and isinstance(func.value, ast.Name) and func.value.id == "builtins"
        return isinstance(func, ast.Name) and func.id == "id"

    return owned_calls(sources, lambda tree: calls)


def test_detector_flags_every_identity_call():
    sources = {
        "a.py": "import builtins\ncache = {}\ndef key(x):\n    return id(x)\n"
                "def lookup(x):\n    return cache.get(builtins.id(x))\n"
                "def field(row):\n    return row.id()\n",
        "b.py": "seen = {id(object())}\n",
    }
    assert identity_calls(sources) == ["a.py:key (line 4)", "a.py:lookup (line 6)",
                                       "b.py:<module> (line 1)"]


def test_no_identity_keyed_state():
    # values that depend on the nodes alone are bound to them
    # (`LagrangianSpec.bind`), not looked up by the identity of an array
    assert identity_calls(_package_sources()) == []


LAGRANGIAN_CALLBACKS = ("f0", "f0_z", "f0_zz", "f1", "f1_p", "f1_pp", "f1_px", "f1_pxp", "f1_ppp")


def unbound_lagrangian_calls(sources: dict[str, str]) -> list[str]:
    """Functions in `sources` (file name -> text) that call a Lagrangian
    callback unbound: one of its nine names, bare or as an attribute, with
    two positional arguments, the (x, .) form.  A bound partial takes one."""
    def calls(node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in LAGRANGIAN_CALLBACKS and len(node.args) == 2

    return owned_calls(sources, lambda tree: calls)


def test_detector_flags_every_unbound_lagrangian_call():
    sources = {
        "a.py": "def J(u, g, spec, lag):\n"
                "    return spec.f0(g.nodes, u) + lag.f1(u) + spec.f1_ppp(x=g.nodes, p=u)\n"
                "def weak(spec, x, u):\n"
                "    def inner():\n"
                "        return spec.lagrangian.f1_p(x, u)[1:]\n"
                "    return f0_zz(x, u), inner\n",
        "b.py": "from a import f1_pxp\nf1_pxp(1.0, 2.0)\nf1_pxp(1.0)\nf2(1.0, 2.0)\n",
    }
    assert unbound_lagrangian_calls(sources) == [
        "a.py:J (line 2)", "a.py:inner (line 5)", "a.py:weak (line 6)", "b.py:<module> (line 2)",
    ]


def test_no_unbound_lagrangian_calls():
    # the setup binds the Lagrangian once per problem (`solver.make_setup`);
    # only lagrangian.py, where `bind` and `check_partials` live, calls the
    # unbound callbacks
    sources = {name: text for name, text in _package_sources().items() if name != "lagrangian.py"}
    assert unbound_lagrangian_calls(sources) == []


def float_format_literals(sources: dict[str, str]) -> list[str]:
    """String constants in `sources` (file name -> text) that hold a `.17g` float format.

    `"%.17g"`, a row template built on it, an f-string's `:.17g` spec and a
    `format(v, ".17g")` argument all count; docstrings do not.
    """
    found = []
    for name, text in sources.items():
        tree = ast.parse(text)
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        found += sorted(
            (name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ".17g" in node.value and id(node) not in docstrings
        )
    return [f"{name} (line {line})" for name, line in found]


def test_detector_flags_every_float_format_literal():
    sources = {
        "a.py": '"""Floats as %.17g."""\n'
                'FMT = "%.17g"\n'
                'def f(v):\n'
                '    """Writes %.17g."""\n'
                '    return f"{v:.17g}" + format(v, ".17g")\n'
                'class C:\n'
                '    """Rows of %.17g."""\n'
                '    row = "%.17g,%s\\n"\n'
                'x = "%.16g" + "17g"\n',
        "b.py": "def g(v):\n    return '%.17g' % v\n",
    }
    assert float_format_literals(sources) == [
        "a.py (line 2)", "a.py (line 5)", "a.py (line 5)", "a.py (line 8)", "b.py (line 2)",
    ]


def test_one_float_format_literal():
    # floattext.FORMAT is the one format that floattext.render, the one
    # float renderer, renders
    [site] = float_format_literals(_package_sources())
    tree = ast.parse((SRC / "floattext.py").read_text(encoding="utf-8"))
    [definition] = [node for node in tree.body if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["FORMAT"]]
    assert site == f"floattext.py (line {definition.lineno})"
    assert ast.literal_eval(definition.value) == "%.17g"


def package_imports_of(source: str, module: str) -> list[str]:
    """Lines of `source` that import the package's `module` or a name from it.

    Relative imports and imports from `abreu1d` count, in each of the forms
    `from .m import x`, `from . import m`, `import abreu1d.m`,
    `from abreu1d.m import x` and `from abreu1d import m`, in any scope.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".")[1:] for alias in node.names
                     if alias.name.split(".")[0] == "abreu1d"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "abreu1d"):
            base = [part for part in (node.module or "").split(".") if part]
            paths = [base[node.level == 0:] + [alias.name] for alias in node.names]
        else:
            continue
        if any(path[:1] == [module] for path in paths):
            found.append(f"line {node.lineno}")
    return found


def test_detector_flags_every_import_of_a_package_module():
    source = (
        "from .minimizer import MinimizeResult\nfrom . import grid, minimizer\n"
        "import abreu1d.minimizer as m\nfrom abreu1d.minimizer import minimize_direct\n"
        "from abreu1d import minimizer\nfrom .solver import minimize\n"
        "from .minimizer_extra import x\nimport minimizer\nimport abreu1d.solver\n"
        "def f():\n    from .minimizer import late\n"
    )
    assert package_imports_of(source, "minimizer") == [
        "line 1", "line 2", "line 3", "line 4", "line 5", "line 11",
    ]


def test_only_cli_imports_minimizer():
    # the scheme and the convex-cone oracle are independent evidence; only the
    # command that compares them may reach the oracle
    sources = _package_sources()
    importers = [name for name, text in sources.items() if package_imports_of(text, "minimizer")]
    assert importers == ["cli.py"]


def exception_classes(sources: dict[str, str]) -> list[str]:
    """Classes in `sources` (file name -> text) that derive from BaseException.

    A base counts by its last name (`ValueError`, `builtins.ValueError`) when
    it is a builtin exception class or a class of `sources` that derives from
    one through any number of steps.
    """
    classes = [
        (f"{name}:{node.name} (line {node.lineno})", node.name,
         {getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases})
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
    ]
    derived = {name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    while True:
        more = {cls for _, cls, bases in classes if bases & derived} - derived
        if not more:
            return [site for site, cls, _ in classes if cls in derived]
        derived |= more


def test_detector_flags_every_exception_class():
    sources = {
        "a.py": "class ConfigError(ValueError): pass\nclass Narrow(ConfigError): pass\n"
                "class Other(RuntimeError): pass\nclass Decode(UnicodeDecodeError): pass\n",
        "b.py": "import builtins\nfrom a import Narrow\nclass Plain: pass\n"
                "class Deep(Plain, Other): pass\nclass Qual(builtins.ValueError): pass\n"
                "class Stop(BaseException): pass\nclass Mixin(Plain): pass\n",
    }
    assert exception_classes(sources) == [
        "a.py:ConfigError (line 1)", "a.py:Narrow (line 2)", "a.py:Other (line 3)",
        "a.py:Decode (line 4)", "b.py:Deep (line 4)", "b.py:Qual (line 5)", "b.py:Stop (line 6)",
    ]


def test_config_error_is_the_only_exception_class():
    # one exception type per failure kind: bad input is a plain ValueError from
    # the builder that owns its rule, which `RunConfig` turns into a ConfigError
    sites = exception_classes(_package_sources())
    assert [site.split(" ")[0] for site in sites] == ["config.py:ConfigError"]


def unread_fields(sources: dict[str, str], classes: tuple[str, ...], readers: list[str]) -> list[str]:
    """Fields of `classes`, defined in `sources` (file name -> text), that no text in `readers` reads.

    A field is an annotated name in the class body.  A read is a loaded
    attribute of that name (`obj.field`) on any object.  A class that no
    source defines is reported too.
    """
    read = {
        node.attr
        for text in readers
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found, defined = [], set()
    for name, text in sources.items():
        for cls in ast.walk(ast.parse(text)):
            if isinstance(cls, ast.ClassDef) and cls.name in classes:
                defined.add(cls.name)
                found += [
                    f"{name}:{cls.name}.{node.target.id} (line {node.lineno})"
                    for node in cls.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                    and node.target.id not in read
                ]
    return found + [f"{cls}: not defined" for cls in classes if cls not in defined]


def test_detector_flags_unread_fields():
    sources = {
        "a.py": "class R:\n    x: int\n    y: float = 0.0\n    z: list\n"
                "    def m(self):\n        return self.y\n"
                "class Other:\n    q: int\n",
    }
    readers = [*sources.values(), "def f(r):\n    r.z = 1\n    return r.x, q\n"]
    assert unread_fields(sources, ("R", "Missing"), readers) == [
        "a.py:R.z (line 4)", "Missing: not defined",
    ]


def test_every_result_field_has_a_reader():
    # a result field that only tests read is state the commands carry for nothing
    sources = _package_sources()
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    readers = [*sources.values(), *(p.read_text(encoding="utf-8") for p in sorted(perfbench.glob("*.py")))]
    assert unread_fields(sources, ("SolveResult", "MinimizeResult", "Ironing"), readers) == []


def file_write_sites(sources: dict[str, str]) -> list[str]:
    """Functions in `sources` (file name -> text) that open a file to write it.

    A call of `os.open` counts, and so does one of the builtin `open` whose
    mode writes, appends, creates or updates (it holds `w`, `a`, `x` or
    `+`) or is not a string constant.  `os.fdopen`, which opens pipe ends,
    does not.  A call counts for the innermost function around it, or for
    `<module>`.
    """
    def writes(call):
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os"
        if not (isinstance(func, ast.Name) and func.id == "open"):
            return False
        modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
        return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or set(m.value) & set("wax+") for m in modes)

    return owned_calls(sources, lambda tree: writes)


def test_detector_flags_every_file_write_site():
    sources = {
        "a.py": "import os\n"
                "def writer(path):\n"
                "    with open(os.open(path, os.O_WRONLY), 'wb') as fh:\n"
                "        pass\n"
                "def reader(path):\n"
                "    open(path), open(path, 'rb'), open(path, mode='r', encoding='utf-8')\n"
                "def appender(path, mode):\n"
                "    open(path, mode='a'), open(path, mode)\n"
                "def pipe(fd):\n"
                "    return os.fdopen(fd, 'wb')\n",
        "b.py": "open('x', 'r+')\nopen('y', 'xb')\n",
    }
    assert file_write_sites(sources) == [
        "a.py:writer (line 3)", "a.py:writer (line 3)",
        "a.py:appender (line 8)", "a.py:appender (line 8)",
        "b.py:<module> (line 1)", "b.py:<module> (line 2)",
    ]


def test_one_file_writer():
    # cli._write_in_place writes every output file, in place
    sites = file_write_sites(_package_sources())
    assert [site.split(" ")[0] for site in sites] == ["cli.py:_write_in_place"] * 2


def step_length_rule_breaks(sources: dict[str, str]) -> list[str]:
    """Sites in `sources` (file name -> text) that decide a step length
    outside `solver.step_length`: a read of `STEP_FRACTION`, bare or as an
    attribute, in any other function, and an augmented `*=` or `/=` by a
    numeric constant, the shape of a halving line search.

    A site counts for the innermost function around it, or for `<module>`.
    """
    found = []

    def numeric(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    def breaks(node, owner):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            return name == "STEP_FRACTION" and owner != "solver.py:step_length"
        return (isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Mult, ast.Div))
                and numeric(node.value))

    def visit(node, file, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, file, child.name)
                continue
            if breaks(child, f"{file}:{owner}"):
                found.append(f"{file}:{owner} (line {child.lineno})")
            visit(child, file, owner)

    for name, text in sources.items():
        visit(ast.parse(text), name, "<module>")
    return found


def test_detector_flags_every_second_step_length_rule():
    sources = {
        "solver.py": "STEP_FRACTION = 0.5\n"
                     "def step_length(ds, s):\n"
                     "    fall = max(-ds / s)\n"
                     "    return 1.0 if fall <= STEP_FRACTION else STEP_FRACTION / fall\n"
                     "def newton(t, scale):\n"
                     "    t *= 0.5\n    t /= 2\n    t *= -1\n"
                     "    t *= scale\n    t += 0.5\n    t *= True\n"
                     "    return min(1.0, STEP_FRACTION)\n",
        "minimizer.py": "from . import solver\nfrom .solver import STEP_FRACTION\n"
                        "def barrier(t):\n"
                        "    def inner():\n        return solver.STEP_FRACTION\n"
                        "    t *= 0.5\n    return inner\n"
                        "solver.STEP_FRACTION = 0.25\nx = STEP_FRACTION\n",
    }
    assert step_length_rule_breaks(sources) == [
        "solver.py:newton (line 6)", "solver.py:newton (line 7)", "solver.py:newton (line 8)",
        "solver.py:newton (line 12)", "minimizer.py:inner (line 5)",
        "minimizer.py:barrier (line 6)", "minimizer.py:<module> (line 9)",
    ]


def test_one_step_length_rule():
    # solver.step_length, the fraction to the boundary, is how far both
    # Newton and the oracle's barrier step: no halving line search beside it
    assert step_length_rule_breaks(_package_sources()) == []
