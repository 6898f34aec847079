"""Import hygiene of the engine, read from its source with `ast`.

No module imports a name it never uses (`# noqa: F401` on the import
line keeps one on purpose), no module reaches into another's private
`_` names, and `errors`, the bottom of the import graph, imports no
other engine module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "invigil"
MODULES = sorted(SRC.rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _engine_imports(tree: ast.Module) -> list[ast.ImportFrom | ast.Import]:
    """The statements that import from the `invigil` package, relatively or by name."""
    out: list[ast.ImportFrom | ast.Import] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "invigil":
                out.append(node)
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "invigil" for alias in node.names):
                out.append(node)
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code, in quoted annotations and in `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    texts = []
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            texts += [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)]
        for annotation in filter(None, annotations):
            texts += [
                c.value for c in ast.walk(annotation) if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
    for text in texts:
        used |= {n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)}
    return used


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source never uses."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_module_imports_another_modules_private_names():
    private = [
        f"{path.relative_to(SRC)}:{node.lineno}: {alias.name}"
        for path in MODULES
        for node in _engine_imports(_tree(path))
        for alias in node.names
        if isinstance(node, ast.ImportFrom) and alias.name.startswith("_")
    ]
    assert private == []


def test_errors_imports_no_engine_module():
    assert [node.lineno for node in _engine_imports(_tree(SRC / "errors.py"))] == []


def test_the_scan_sees_an_unused_and_a_private_import():
    source = (
        "import json\n"
        "import math  # noqa: F401\n"
        "from typing import Any, Sequence\n"
        "from .events import _as_samples\n"
        "def f(x: 'Sequence[int]') -> Any:\n"
        "    return _as_samples(x)\n"
    )
    assert _unused_imports(source) == [(1, "json")]
    (node,) = _engine_imports(ast.parse(source))
    assert [alias.name for alias in node.names] == ["_as_samples"]
