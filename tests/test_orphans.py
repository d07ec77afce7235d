"""Every module-level function or class in the package has a caller or is
exported, and every function reads each of its parameters.

A private name (leading underscore) is not part of the package's interface,
so when no other line of ``src/curvezeta`` refers to it, nothing can reach
it.  A public name is the interface only when ``curvezeta.__all__`` lists it;
otherwise it too needs another line of ``src/curvezeta`` that refers to it.
A parameter that no line of its function's body reads is a value the callers
pass for nothing.
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


def unread_parameters(src: Path = SRC) -> list[str]:
    """module:function(parameter) of each parameter, keyword-only ones included,
    that no line of its function's body reads.

    Dunders are skipped, since their signatures are the protocol's, and so is
    ``self`` or ``cls``.  Functions stored as the values of a dict display are
    skipped too: they are called through the dict, so they share one signature.
    """
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        shared = {
            value.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            for value in node.values
            if isinstance(value, ast.Name)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") or node.name in shared:
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            read = {
                sub.id
                for statement in node.body
                for sub in ast.walk(statement)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            unread = [p.arg for p in params if p.arg not in read and p.arg not in ("self", "cls")]
            out += [f"{path.stem}:{node.name}({name})" for name in unread]
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


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_scan_finds_an_unread_parameter(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, unused, *, key=1, **extra):\n    return x + key\n\n\n"
        "def g(x):\n    def inner(y):\n        return x\n    return inner\n\n\n"
        "def task(c, job):\n    return c\n\n\n"
        "TASKS = {'t': task}\n\n\n"
        "class K:\n"
        "    def __eq__(self, other):\n        return True\n\n"
        "    def method(self, v):\n        return 1\n"
    )
    assert unread_parameters(tmp_path) == ["a:f(unused)", "a:f(extra)", "a:inner(y)", "a:method(v)"]
