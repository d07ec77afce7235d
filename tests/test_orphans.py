"""Every private module-level function or class in the package has a caller.

A name with a leading underscore is not part of the package's interface, so
when no other line of ``src/curvezeta`` refers to it, nothing can reach it.
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


def orphans(src: Path = SRC) -> list[str]:
    """module:name of each private top-level def or class nothing else refers to."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                # uses inside the definition itself (recursion) do not count
                if name.startswith("_") and not name.startswith("__"):
                    if used[name] - _references(node)[name] == 0:
                        out.append(f"{module}:{name}")
    return out


def test_no_private_orphans():
    assert orphans() == []


def test_scan_finds_an_orphan(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _orphan():\n    return _orphan()\n\n\n"
        "class _Lonely:\n    pass\n\n\n"
        "def public():\n    return _used()\n"
    )
    (tmp_path / "b.py").write_text("from a import public\n")
    assert orphans(tmp_path) == ["a:_orphan", "a:_Lonely"]
