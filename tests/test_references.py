"""Every definition of the package is referenced by the package itself.

An AST scan over ``src/opequiv``: each module-level function and class, and
each method whose name is not a dunder, must be named somewhere in the
package outside its own body (as a name, an attribute or an import), or be
listed in ``__all__``. A helper that only tests keep alive fails here.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opequiv"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(node: ast.AST) -> Counter:
    """How often each name is read, looked up as an attribute or imported
    under ``node``, and each string of an ``__all__`` list."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets
        ):
            out.update(ast.literal_eval(sub.value))
    return out


def definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class, and
    of each method not named like a dunder."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def unreferenced(trees: dict) -> list[str]:
    """The definitions of ``trees`` (module name -> AST) that nothing else in
    them names."""
    used = Counter()
    for tree in trees.values():
        used += references(tree)
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            own = references(node)[node.name]  # recursion does not keep a helper alive
            if used[node.name] - own <= 0:
                out.append(f"{module}:{qualname}")
    return out


def test_every_definition_is_referenced_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    assert not unreferenced(trees)


def test_the_scan_finds_a_helper_only_its_own_body_names():
    source = (
        "__all__ = ['api']\n"
        "def api():\n    return _used()\n"
        "def _used():\n    return 1\n"
        "def _dead(n):\n    return _dead(n - 1)\n"
        "class Box:\n"
        "    def __init__(self):\n        self.kept()\n"
        "    def kept(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
    )
    assert unreferenced({"m.py": ast.parse(source)}) == ["m.py:_dead", "m.py:Box", "m.py:Box.unused"]
