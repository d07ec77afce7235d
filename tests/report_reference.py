"""The report conversion that the emitter replaced: the tests' reference.

``cli.render`` writes the report files straight from ``run``'s tree of raw
task results.  The route it replaced first copied each task's result into
plain JSON values, every exact or float leaf already text (:func:`jsonable`),
then wrote ``report.json`` from the copy with ``json.dumps`` and flattened
the copy into ``report.csv``.  :func:`render` here is that route, with a JSON
null written as ``null`` in ``report.csv``.  Leaf text comes from
``cli._fmt_number``, as it did then; the walks, the JSON writer and the CSV
layout are the reference's own.
"""

from __future__ import annotations

import json
from fractions import Fraction

from curvezeta.cli import _decimal, _fmt_number
from curvezeta.exact import RationalFunction, ZeroReport


def jsonable(obj):
    """obj as plain JSON values: dicts with str keys, lists, strs, ints, bools
    and None.  A Fraction, float or complex becomes its text; a ZeroReport or a
    RationalFunction becomes a mapping of texts."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, ZeroReport):  # a tuple too, but rendered as a mapping
        return {
            "critical_modulus": _fmt_number(obj.critical_modulus),
            "zeros": [_fmt_number(z) for z in obj.zeros],
            "deviations": [_fmt_number(d) for d in obj.deviations],
            "max_deviation": _fmt_number(obj.max_deviation),
            "excluded": [_fmt_number(z) for z in obj.excluded],
            "tolerance": _fmt_number(obj.tol),
            "verdict": obj.verdict,
        }
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (Fraction, float, complex)):
        return _fmt_number(obj)
    if isinstance(obj, RationalFunction):
        n, d = obj.display_pair()
        return {
            "num": [_fmt_number(c) for c in n.coeffs],
            "den": [_fmt_number(c) for c in d.coeffs],
        }
    return obj


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    """(key path, text) rows of a jsonable tree, keys sorted."""
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(value, str):
        rows.append((prefix, value))
    else:  # an int, a bool or None, as JSON writes it
        rows.append((prefix, _decimal(value) if type(value) is int else json.dumps(value)))


def csv_rows(tree) -> list[tuple[str, str]]:
    """The (key path, text) rows that report.csv writes for tree."""
    rows: list[tuple[str, str]] = []
    _flatten("", jsonable(tree), rows)
    return rows


def _csv_field(text: str) -> str:
    """text as a CSV field: quoted, quotes doubled, when it holds , " CR or LF."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render(tree: dict, fmt: str) -> dict[str, str]:
    """The report files of a run tree, by the replaced route."""
    plain = jsonable(tree)
    files = {}
    if fmt == "json":
        files["report.json"] = json.dumps(plain, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["section,key,value"]
        meta = csv_rows({k: v for k, v in plain.items() if k != "reports"})
        lines += [f"meta,{k},{_csv_field(v)}" for k, v in meta]
        for rep in plain.get("reports", []):
            rows = csv_rows({"data": rep["data"], "checks": rep["checks"]})
            base = '"' + f"{rep['curve']}|{rep['task']}".replace('"', '""') + '"'
            lines += [f"{base},{k},{_csv_field(v)}" for k, v in rows]
        files["report.csv"] = "\n".join(lines) + "\n"
    zero_lines = ["curve,object,value,modulus,deviation"]
    for rep in plain.get("reports", []):
        if rep["task"] == "rh-report":
            for row in rep["data"].get("zeros", ()):
                curve = '"' + rep["curve"].replace('"', '""') + '"'
                zero_lines.append(f"{curve},{row['object']},{row['value']},{row['modulus']},{row['deviation']}")
    if len(zero_lines) > 1:
        files["zeros.csv"] = "\n".join(zero_lines) + "\n"
    return files
