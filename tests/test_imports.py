"""Every name a package module imports is read somewhere in that module.

An AST scan: a module's imported names (``import x``, ``import x as y``,
``from m import x``) are checked against the names it loads. Names listed in
``__all__`` are re-exports and count as read; ``from __future__`` imports
bind nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opequiv"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module, with its line number."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def read_names(tree: ast.Module) -> set[str]:
    """Names the module loads, plus the strings of its ``__all__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(ast.literal_eval(node.value))
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in read_names(tree)
    }
    assert not unused, f"{path.name}: imported but never read: {unused}"


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("from typing import Callable, Optional\nx: Optional[int] = None\n")
    assert set(imported_names(tree)) - read_names(tree) == {"Callable"}
