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
