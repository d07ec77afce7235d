"""Command-line front end: job files in, deterministic reports out.

A job file is YAML with a list of curve sources and task defaults:

    curves:
      - {type: elliptic, q: 2, a: 0}
      - {type: model, kind: artin_schreier, q: 2, f: [0,0,0,0,0,1]}
      - {type: coefficients, q: 2, g: 2, A: [1, 0, 0, 0, 4]}
      - {type: counts, q: 2, g: 2, counts: [3, 5]}
    ranks: [2, 3]
    degree: 0
    tasks: [artin, invariants, rank2, slr, mass, yoshida, rh-report]
    tolerance: 1.0e-9
    format: json

Subcommands mirror the tasks (`artin`, `invariants`, `rank2`,
`slr --rank R`, `mass --rank R --degree D`, `yoshida [--counterexample]`,
`rh-report`) and `run` executes whatever the file's ``tasks`` lists.  Exit
codes: 0 all asserted identities hold, 1 an asserted identity failed,
2 bad input or an ``--out`` directory that cannot be written.  A failed
identity is a false check next to its task's data.  A task that stops,
because its construction fails on the data, its root finder gives up or
its float arithmetic overflows, still gets a report entry,
``{"error": "<Type>: <message>"}`` with the check ``completed: false``.
``rh-report`` runs its three parts one by one: a part that stops gets a
null verdict and its message under ``errors``, and the other parts keep
their zeros.  Reports render every leaf of the tasks' raw results through one
formatter: exact rationals as "p/q" strings, floats at fixed precision, None
as null, so identical jobs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import yaml

from curvezeta import artin, invariants, mass, rank2, yoshida
from curvezeta.exact import RationalFunction, RootFindError, ZeroReport
from curvezeta.fields import CurveModel, census, is_prime_power
from curvezeta.group_zeta import R_MAX, ConventionError, period_residue_oracle, slr_fe_check
from curvezeta.group_zeta import slr_alpha_ratios, slr_rh_report, slr_zeta

TASKS = ("artin", "invariants", "rank2", "slr", "mass", "yoshida", "rh-report")

# A failed identity is a false check, not an exception.  These are raised by a task
# whose construction failed, whose root finder gave up, or whose floats overflowed.
_TASK_FAILURES = (AssertionError, ConventionError, RootFindError, ArithmeticError)


def _construct_int(loader, node) -> int:
    """The loader's int constructor: an integer past int()'s digit limit (4300
    by default) is a YAML error that names its line and column."""
    try:
        return loader.construct_yaml_int(node)
    except ValueError:
        problem = f"an integer of {sum(map(str.isdigit, node.value))} digits is past int()'s digit limit"
        raise yaml.constructor.ConstructorError(None, None, problem, node.start_mark) from None


def _construct_timestamp(loader, node):
    """The loader's timestamp constructor: a date the resolver reads but no
    calendar has, such as 2020-13-45, is a YAML error that names its line and
    column."""
    try:
        return loader.construct_yaml_timestamp(node)
    except ValueError as e:
        problem = f"{node.value} is not a calendar date: {e}"
        raise yaml.constructor.ConstructorError(None, None, problem, node.start_mark) from None


# libyaml's parser if PyYAML was built with it; both build with SafeConstructor
_LOADER = type("JobLoader", (getattr(yaml, "CSafeLoader", yaml.SafeLoader),), {})
_LOADER.add_constructor("tag:yaml.org,2002:int", _construct_int)
_LOADER.add_constructor("tag:yaml.org,2002:timestamp", _construct_timestamp)


class JobError(ValueError):
    """Bad job file; the message carries every violation found."""


# the fields a job reads, and each source type besides type and label; no other may appear
_JOB_FIELDS = ("curves", "ranks", "degree", "tasks", "tolerance", "format")
_SOURCE_FIELDS = {
    "coefficients": ("q", "g", "A", "genuine"),
    "counts": ("q", "g", "counts"),
    "model": ("kind", "q", "f"),
    "elliptic": ("q", "a"),
}


class JobSpec(
    namedtuple("JobSpec", "curves census_rows ranks degree tasks tolerance fmt counterexample", defaults=(False,))
):
    """A checked job: the curves, the census rows (each model with its counts
    N_1..N_g), the sorted ranks, the degree, the task names, the RH tolerance,
    the output format and whether yoshida runs the counterexample search."""

    __slots__ = ()


def _decimal(n: int) -> str:
    """str(n) for an int of any size.  CPython refuses to convert more than
    sys.get_int_max_str_digits() digits (4300 by default); a longer n is split
    at a power of ten and its halves are converted in turn."""
    try:
        return int.__repr__(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half of n's digits, log10(2) being 0.301
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _fraction_text(x: Fraction) -> str:
    num = _decimal(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"


# the text of each leaf type, looked up by exact type: isinstance on Fraction,
# an ABC, runs in Python, and a report has tens of thousands of leaves
_LEAF_TEXT = {
    Fraction: _fraction_text,
    bool: lambda x: "true" if x else "false",
    int: _decimal,
    float: lambda x: f"{x + 0.0:.12e}",  # + 0.0 turns a negative zero into 0.0
    complex: lambda x: f"{x.real + 0.0:.12e}{x.imag + 0.0:+.12e}j",
    type(None): lambda x: "null",
    str: lambda x: x,
}


def _fmt_number(x) -> str:
    """The text of a report leaf, in every report file: None is null and a str
    itself; a type with no text raises TypeError."""
    text = _LEAF_TEXT.get(type(x))
    if text is None:
        raise TypeError(f"a report has no text for a {type(x).__name__}")
    return text(x)


def _mapping(obj) -> dict | None:
    """The mapping a ZeroReport or a RationalFunction is reported as, its leaves
    unformatted; None for any other object."""
    if isinstance(obj, ZeroReport):  # a tuple too, but reported as a mapping
        return dict(
            critical_modulus=obj.critical_modulus, zeros=obj.zeros, deviations=obj.deviations,
            max_deviation=obj.max_deviation, excluded=obj.excluded, tolerance=obj.tol, verdict=obj.verdict,
        )
    if isinstance(obj, RationalFunction):
        n, d = obj.display_pair()
        return {"num": n.coeffs, "den": d.coeffs}
    return None


def _require_int(src: dict, key: str) -> int:
    """src[key] as an integer; a bool, though an int subclass, is rejected."""
    value = src[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _is_rank(r) -> bool:
    return isinstance(r, int) and not isinstance(r, bool) and 2 <= r <= R_MAX


def _rational_list(src: dict, key: str) -> list[Fraction]:
    """src[key] as a list of rationals: numbers, or strings such as '1/2'."""
    value = src[key]
    if isinstance(value, list):
        try:
            return [Fraction(str(v)) for v in value]  # str() also turns bools away
        except (ValueError, ZeroDivisionError):  # "1/0" parses, then divides by zero
            pass
    raise ValueError(f"{key} must be a list of numbers, got {value!r}")


def parse_job(path: Path, overrides: argparse.Namespace | None = None) -> JobSpec:
    """Read and check a job file and the command-line overrides.  A path that
    cannot be read, bytes that are not UTF-8, malformed YAML, every bad field
    and every bad option all raise one JobError; its message lists the file's
    problems and the options' problems under separate headers."""
    problems: list[str] = []
    try:
        raw = yaml.load(path.read_bytes(), Loader=_LOADER)
    except FileNotFoundError:
        raise JobError(f"job file not found: {path}")
    except OSError as e:
        raise JobError(f"cannot read job file {path}: {e.strerror or e}")
    except (yaml.YAMLError, ValueError) as e:  # ValueError: an unwrapped constructor, as for !!float x
        raise JobError(f"cannot parse job file: {e}")
    if not isinstance(raw, dict):
        raise JobError("job file must hold a mapping at top level")
    problems += [
        f"unknown field {key!r}; a job reads {', '.join(_JOB_FIELDS)}" for key in raw if key not in _JOB_FIELDS
    ]

    curves: list[artin.CurveData] = []
    census_rows: list[tuple[CurveModel, list[int]]] = []
    sources = raw.get("curves", [])
    if not isinstance(sources, list) or not sources:
        problems.append("curves: need a nonempty list of curve sources")
        sources = []
    for idx, src in enumerate(sources):
        where = f"curves[{idx}]"
        try:
            if not isinstance(src, dict) or "type" not in src:
                raise ValueError("each curve source needs a 'type'")
            kind = src["type"]
            if not isinstance(kind, str) or kind not in _SOURCE_FIELDS:
                raise ValueError(f"unknown curve source type {kind!r}")
            read = ("type", "label", *_SOURCE_FIELDS[kind])
            problems += [
                f"{where}: unknown field {key!r}; a source of type {kind} reads {', '.join(read)}"
                for key in src if key not in read
            ]
            if not isinstance(src.get("label", ""), str):
                raise ValueError(f"label must be a string, got {src['label']!r}")
            if kind in ("coefficients", "counts", "elliptic"):
                q = src["q"]
                try:
                    prime_power = not isinstance(q, bool) and isinstance(q, int) and is_prime_power(q)
                except ValueError as e:
                    raise ValueError(f"q: {e}") from None
                if not prime_power:
                    raise ValueError(f"q must be a prime power, got {q!r}")
            if kind in ("coefficients", "counts"):
                _require_int(src, "g")
            if kind == "coefficients":
                genuine = src.get("genuine", False)
                if not isinstance(genuine, bool):
                    raise ValueError(f"genuine must be true or false, got {genuine!r}")
                curves.append(
                    artin.CurveData(
                        src["q"],
                        src["g"],
                        _rational_list(src, "A"),
                        genuine=genuine,
                        label=src.get("label", f"coeffs(q={src['q']},g={src['g']})"),
                    )
                )
            elif kind == "counts":
                counts = src["counts"]
                if not isinstance(counts, list) or any(
                    isinstance(n, bool) or not isinstance(n, int) for n in counts
                ):
                    raise ValueError(f"counts must be a list of integers, got {counts!r}")
                label = src.get("label", f"counts(q={src['q']},N={src['counts']})")
                curves.append(artin.numerator_from_counts(src["q"], src["g"], counts, label))
            elif kind == "model":
                f = src.get("f", ())
                f = tuple(f) if isinstance(f, list) else f
                model = CurveModel(src["kind"], src["q"], f, src.get("label", ""))
                census_rows += census([model])
                if model.genus >= 1:
                    counts = census_rows[-1][1]
                    curves.append(artin.numerator_from_counts(model.q, model.genus, counts, model.describe()))
            else:  # elliptic
                curves.append(artin.CurveData.elliptic(src["q"], _require_int(src, "a"), label=src.get("label", "")))
        except KeyError as e:
            problems.append(f"{where}: missing field {e.args[0]!r}")
        except (ValueError, TypeError) as e:
            problems.append(f"{where}: {e}")

    ranks = raw.get("ranks", [2])
    if not isinstance(ranks, list) or not ranks or not all(_is_rank(r) for r in ranks):
        problems.append(f"ranks: need a non-empty list of integers between 2 and {R_MAX}, got {ranks!r}")
        ranks = [2]
    tasks = raw.get("tasks", ["artin"])
    if not isinstance(tasks, list) or any(t not in TASKS for t in tasks):
        problems.append(f"tasks: need a list of task names from {list(TASKS)}, got {tasks!r}")
        tasks = []
    degree = raw.get("degree", 0)
    if isinstance(degree, bool) or not isinstance(degree, int):
        problems.append(f"degree: need an integer, got {degree!r}")
        degree = 0
    tolerance = raw.get("tolerance", 1e-9)
    try:
        if isinstance(tolerance, bool):
            raise TypeError  # float(True) would pass as 1.0
        tolerance = float(tolerance)  # YAML reads 1e-9 (no dot) as a string
    except (TypeError, ValueError):
        problems.append(f"tolerance: need a number, got {tolerance!r}")
        tolerance = 1e-9
    if not 0 < tolerance < math.inf:
        problems.append(f"tolerance: need a finite number > 0, got {tolerance!r}")
    fmt = raw.get("format", "json")
    if fmt not in ("json", "csv"):
        problems.append("format: must be json or csv")
        fmt = "json"

    option_problems: list[str] = []
    if overrides is not None:
        rank = getattr(overrides, "rank", None)
        if rank is not None:
            if not _is_rank(rank):
                option_problems.append(f"--rank: need an integer between 2 and {R_MAX}, got {rank!r}")
            ranks = [rank]
        if getattr(overrides, "degree", None) is not None:
            degree = overrides.degree
        if getattr(overrides, "tolerance", None) is not None:
            tolerance = overrides.tolerance
            if not 0 < tolerance < math.inf:
                option_problems.append(f"--tolerance: need a finite number > 0, got {tolerance!r}")
        if getattr(overrides, "fmt", None):
            fmt = overrides.fmt

    if problems or option_problems:
        sections = (("invalid job file", problems), ("invalid command-line option", option_problems))
        raise JobError("\n".join(f"{head}:\n  " + "\n  ".join(found) for head, found in sections if found))
    return JobSpec(
        curves=curves,
        census_rows=census_rows,
        ranks=sorted(set(ranks)),
        degree=degree,
        tasks=list(tasks),
        tolerance=tolerance,
        fmt=fmt,
        counterexample=bool(getattr(overrides, "counterexample", False)) if overrides else False,
    )


def _task_artin(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    report = {
        "A": list(c.A),
        "class_number": c.class_number,
        "counts": [artin.counts_from_numerator(c, m) for m in range(1, max(2 * c.g, 2) + 1)]
        if c.genuine
        else None,
        "zeta_hat": {str(n): artin.zeta_hat_special(c, n) for n in range(4)},
        "rh": artin.rh_check_artin(c, job.tolerance) if c.g >= 1 else None,
    }
    checks = {
        "coefficient_symmetry": artin.artin_fe_check(c),
        "functional_equation": artin.artin_fe_ratfun_check(c),
    }
    if c.g >= 1 and c.genuine:
        checks["riemann_hypothesis"] = report["rh"].verdict
    return report, checks


def _task_invariants(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    table = invariants.invariant_table(c)
    report = {
        "alpha": list(table.alphas),
        "beta0": table.beta0,
        "gamma": {str(d): v for d, v in sorted(table.gammas.items())},
    }
    checks = {}
    if c.g >= 2:
        checks["closing_row_identity"] = invariants.middle_coefficient_identity_check(c)
    roundtrip = invariants.A_from_alpha(
        invariants.alpha_from_A(c.A, c.q, c.g), invariants.beta0(c), c.q, c.g
    )
    checks["triangular_roundtrip"] = roundtrip == list(c.A[: c.g + 1])
    if c.g == 1 and c.genuine:
        a = c.q + 1 - artin.counts_from_numerator(c, 1)
        # a trace beyond the Hasse bound is no genus-one curve: the check fails
        checks["elliptic_oracle"] = a * a <= 4 * c.q and invariants.elliptic_oracle(c.q, a, 2)[1] == table
    return report, checks


def _task_rank2(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    table = rank2.rank2_invariants(c)
    numerator = rank2.rank2_numerator(c)
    report = {
        "closed_form": rank2.rank2_closed_form(c),
        "shift": c.g - 1,
        "numerator_X": list(numerator),
        "alpha": list(table.alphas),
        "beta0": table.beta0,
        "variants": rank2.variant_report(c),
    }
    checks = {
        "closed_form_two_term": rank2.closed_form_check(c),
        "numerator_closed_form": rank2.numerator_check(c),
        "palindromic_numerator": numerator == numerator[::-1],
        "functional_equation": rank2.pure_fe_check(rank2.pure_zeta(c), c.q, c.g),
    }
    return report, checks


def _task_slr(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    report = {}
    checks = {}
    for r in job.ranks:
        z = slr_zeta(c, r)
        ratios = slr_alpha_ratios(z)
        rh = slr_rh_report(z, job.tolerance)
        entry = {
            "terms": {str(n): R for n, R in z.terms},
            "numerator_T": list(z.numerator_T),
            "alpha_ratios": list(ratios),
            "rh": rh,
        }
        checks[f"functional_equation_r{r}"] = slr_fe_check(z)
        if r == 2:
            checks["unit_normalization_r2"] = z.numerator_T[0] == 1
            checks["riemann_hypothesis_r2"] = rh.verdict
        if r in (2, 3):
            ratio = period_residue_oracle(c, r)
            constant = ratio.is_constant()
            entry["period_oracle_ratio"] = ratio.constant_value() if constant else ratio
            checks[f"period_oracle_constant_r{r}"] = constant
        report[f"r{r}"] = entry
    return report, checks


def _task_mass(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    rmax = max(job.ranks)
    rows = mass.beta_crosscheck(c, rmax)
    report = {
        "crosscheck": rows,
        "degree": job.degree,
        "beta_at_degree": {
            f"r{r}": mass.beta_hn_mass(c, r, job.degree) for r in range(1, rmax + 1)
        },
    }
    checks = {f"mass_agreement_r{row['r']}": row["agree"] for row in rows}
    checks["mass_beta0_r1"] = rows[0]["composition"] == rows[0]["beta0"]
    checks["mass_series_r2"] = rows[1]["composition"] == rows[1]["series_value"]  # job ranks are >= 2
    return report, checks


def _task_yoshida(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    z = yoshida.zeta2_canonical(c)
    rh = yoshida.rh_check_zeta2(z, c.q, job.tolerance)
    report = {"rh": rh, "group_constant_half_power": c.g - 1}
    checks = {
        "functional_equation": yoshida.zeta2_fe_check(z, c.q),
        "riemann_hypothesis": rh.verdict,
        "group_zeta_cross_check": yoshida.canonical_group_cross_check(c, slr_zeta(c, 2).combined),
    }
    if c.g == 1 and c.genuine:
        sextic = report["sextic"] = yoshida.sextic_identity_report(z, c.q, -c.A[1])
        checks["sextic_identity"] = sextic["expansion_ok"] and sextic["corrected_factorization_ok"]
    if c.g >= 2:
        # the alternative exponent choice a = g, reported but not asserted
        report["family_a_equals_g_fe"] = yoshida.zeta2_fe_check(yoshida.zeta2_family(c, c.g), c.q)
    if job.counterexample:
        res = yoshida.counterexample_search(c.q, complex(0, float(c.q) ** 0.5))
        report["counterexample"] = {
            "found": res.found,
            "m": res.m,
            "w1": res.w1,
            "residual": res.residual,
            "re_s_deviation": res.re_s_deviation,
        }
        checks["counterexample_found"] = res.found
    return report, checks


def _attempt(call):
    """(call(), None), or (None, "<Type>: <message>") when call raises one of
    ``_TASK_FAILURES``: the one place where a failure becomes report data."""
    try:
        return call(), None
    except _TASK_FAILURES as e:
        return None, f"{type(e).__name__}: {e}"


def _task_rh_report(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    parts = (  # (verdict key, zeros.csv object name, the zero report)
        ("artin", "artin", lambda: artin.rh_check_artin(c, job.tolerance)),
        ("slr2", "slr2_Tgrid", lambda: slr_rh_report(slr_zeta(c, 2), job.tolerance)),
        ("zeta2", "zeta2", lambda: yoshida.rh_check_zeta2(yoshida.zeta2_canonical(c), c.q, job.tolerance)),
    )
    zeros, verdicts, errors = [], {}, {}
    for key, name, solve in parts:
        rep, error = _attempt(solve)
        if error:  # a failed part has a null verdict and no zeros
            verdicts[key], errors[key] = None, error
            continue
        for z, d in zip(rep.zeros, rep.deviations):
            zeros.append({"object": name, "value": z, "modulus": abs(z), "deviation": d})
        verdicts[key] = rep.verdict
    checks = {f"{key}_rh": v for key, v in verdicts.items() if key not in errors} if c.genuine else {}
    if errors:
        return {"zeros": zeros, "verdicts": verdicts, "errors": errors}, {**checks, "completed": False}
    return {"zeros": zeros, "verdicts": verdicts}, checks


_TASK_FN = {
    "artin": _task_artin,
    "invariants": _task_invariants,
    "rank2": _task_rank2,
    "slr": _task_slr,
    "mass": _task_mass,
    "yoshida": _task_yoshida,
    "rh-report": _task_rh_report,
}


def run(job: JobSpec, tasks: Sequence[str] | None = None) -> tuple[int, dict]:
    """Execute tasks over every curve; returns (exit_code, report tree).

    Genus-0 curves skip every task but artin; a task that raises one of
    ``_TASK_FAILURES`` becomes a failed entry and the rest still run.
    """
    chosen = list(tasks) if tasks else job.tasks
    out = {"report_version": 1, "tasks": chosen, "tolerance": job.tolerance, "reports": []}
    failed = False
    if job.census_rows and ("artin" in chosen or "rh-report" in chosen):
        out["census"] = [
            {"model": model.describe(), "genus": model.genus, "counts": counts}
            for model, counts in job.census_rows
        ]
    for c in job.curves:
        for task in chosen:
            if c.g < 1 and task != "artin":
                report, checks = {"skipped": "genus 0"}, {}
            else:
                result, error = _attempt(lambda: _TASK_FN[task](c, job))
                report, checks = ({"error": error}, {"completed": False}) if error else result
            failed = failed or not all(checks.values())
            out["reports"].append({
                "curve": c.describe(), "q": c.q, "g": c.g, "task": task,
                "data": report, "checks": dict(sorted(checks.items())),
            })
    return (1 if failed else 0), out


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    text = _LEAF_TEXT.get(type(value))
    if text is not None:
        rows.append((prefix, text(value)))
        return
    value = _mapping(value) or value
    kind = type(value)
    if kind is dict:
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif kind is list or kind is tuple:
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, _fmt_number(value)))


_escape = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses


def _emit(obj, indent: str, out: list[str]) -> None:
    """Append json.dumps(obj, indent=2, sort_keys=True) for plain dicts (str keys),
    lists, tuples, strs, ints, bools and None; a ZeroReport or RationalFunction
    is its _mapping, and any other leaf its _fmt_number text, quoted."""
    kind = type(obj)
    if kind is str:
        out.append(_escape(obj))
    elif kind is dict or kind is list or kind is tuple:
        is_dict = kind is dict
        if not obj:
            out.append("{}" if is_dict else "[]")
            return
        inner = indent + "  "
        sep = "\n" + inner
        out.append("{" if is_dict else "[")
        for item in sorted(obj) if is_dict else obj:
            out.append(sep)
            if is_dict:
                out += (_escape(item), ": ")
                item = obj[item]
            _emit(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + ("}" if is_dict else "]"))
    elif kind is int or kind is bool or obj is None:
        out.append(_LEAF_TEXT[kind](obj))
    elif kind in _LEAF_TEXT:
        out.append(_escape(_LEAF_TEXT[kind](obj)))
    elif (mapped := _mapping(obj)) is not None:
        _emit(mapped, indent, out)
    else:
        _fmt_number(obj)  # a leaf with no text: raises TypeError


def _csv_quoted(text: str) -> str:
    """text as one quoted CSV field, each embedded quote doubled (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"'


def _csv_value(text: str) -> str:
    """text as a CSV field, quoted only when it holds a comma, quote or line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return _csv_quoted(text)
    return text


def render(tree: dict, fmt: str) -> dict[str, str]:
    """Map of filename -> contents, straight from ``run``'s raw tree; stable bytes for
    identical trees.  ``_emit`` writes ``report.json``; every leaf is ``_fmt_number``'s."""
    files = {}
    if fmt == "json":
        out: list[str] = []
        _emit(tree, "", out)
        files["report.json"] = "".join(out) + "\n"
    else:
        rows: list[tuple[str, str]] = []
        _flatten("", {k: v for k, v in tree.items() if k != "reports"}, rows)
        lines = ["section,key,value"]
        lines += [f"meta,{k},{_csv_value(v)}" for k, v in rows]
        for rep in tree.get("reports", []):
            base = _csv_quoted(f"{rep['curve']}|{rep['task']}")
            sub: list[tuple[str, str]] = []
            _flatten("", {"data": rep["data"], "checks": rep["checks"]}, sub)
            lines += [f"{base},{k},{_csv_value(v)}" for k, v in sub]
        files["report.csv"] = "\n".join(lines) + "\n"
    zero_lines = ["curve,object,value,modulus,deviation"]
    for rep in tree.get("reports", []):
        if rep["task"] != "rh-report":
            continue
        for row in rep["data"].get("zeros", ()):  # none on skipped or failed entries
            fields = (_fmt_number(row[key]) for key in ("value", "modulus", "deviation"))
            zero_lines.append(f"{_csv_quoted(rep['curve'])},{row['object']},{','.join(fields)}")
    if len(zero_lines) > 1:
        files["zeros.csv"] = "\n".join(zero_lines) + "\n"
    return files


def main(argv: Sequence[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=None, help="RH check tolerance")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    common.add_argument("--out", type=Path, default=None, help="directory for report files")
    parser = argparse.ArgumentParser(
        prog="curvezeta", description="exact zeta computations for curves over finite fields"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", *TASKS):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("jobfile", type=Path)
        if name == "slr":
            p.add_argument("--rank", type=int, default=None)
        if name == "mass":
            p.add_argument("--rank", type=int, default=None)
            p.add_argument("--degree", type=int, default=None)
        if name == "yoshida":
            p.add_argument("--counterexample", action="store_true")
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        # argparse would take the option's value for the subcommand and name it
        flag = argv[0].partition("=")[0]
        parser.error(f"options follow the subcommand, e.g. curvezeta run job.yaml {flag} ...")
    args = parser.parse_args(argv)

    try:
        job = parse_job(args.jobfile, args)
    except JobError as e:
        print(str(e), file=sys.stderr)
        return 2

    tasks = None if args.command == "run" else [args.command]
    code, tree = run(job, tasks)
    files = render(tree, job.fmt)
    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            for name, content in sorted(files.items()):
                (args.out / name).write_text(content)
        except OSError as e:
            print(f"cannot write reports to {args.out}: {e.strerror or e}", file=sys.stderr)
            return 2
        for name in sorted(files):
            print(f"wrote {args.out / name}")
    else:
        for name, content in sorted(files.items()):
            sys.stdout.write(content)
    if code:
        print("one or more asserted identities FAILED", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
