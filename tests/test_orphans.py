"""Every module-level function or class in the package has a caller or is exported.

A private name (leading underscore) is not part of the package's interface,
so when no other line of ``src/curvezeta`` refers to it, nothing can reach
it.  A public name is the interface only when ``curvezeta.__all__`` lists it;
otherwise it too needs another line of ``src/curvezeta`` that refers to it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curvezeta"


def _references(node: ast.AST) -> Counter:
    """How often each identifier is used as a name, an attribute or an import."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def orphans(src: Path = SRC) -> list[str]:
    """module:name of each top-level def or class that nothing else refers to
    and, for a public name, that the package's ``__all__`` does not list."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    exported = _exported(trees["__init__"]) if "__init__" in trees else set()
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("__") or name in exported:
                    continue
                # uses inside the definition itself (recursion) do not count
                if used[name] - _references(node)[name] == 0:
                    out.append(f"{module}:{name}")
    return out


def test_no_private_orphans():
    assert [o for o in orphans() if o.split(":")[1].startswith("_")] == []


def test_no_public_orphans():
    assert [o for o in orphans() if not o.split(":")[1].startswith("_")] == []


def test_scan_finds_an_orphan(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _orphan():\n    return _orphan()\n\n\n"
        "class _Lonely:\n    pass\n\n\n"
        "def public():\n    return _used()\n\n\n"
        "def public_orphan():\n    return 2\n\n\n"
        "def exported():\n    return 3\n"
    )
    (tmp_path / "b.py").write_text("from a import public\n")
    (tmp_path / "__init__.py").write_text('from a import *\n\n__all__ = ["exported"]\n')
    assert orphans(tmp_path) == ["a:_orphan", "a:_Lonely", "a:public_orphan"]
