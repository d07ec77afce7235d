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
2 bad input.  Reports render exact rationals as "p/q" strings and floats
at fixed precision, so identical jobs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import yaml

from curvezeta import artin, invariants, mass, rank2, yoshida
from curvezeta.exact import RationalFunction, ZeroReport
from curvezeta.fields import CurveModel, census, curve_from_model, is_prime_power
from curvezeta.group_zeta import period_residue_oracle, slr_fe_check, slr_numerator, slr_rh_report, slr_zeta

TASKS = ("artin", "invariants", "rank2", "slr", "mass", "yoshida", "rh-report")


class JobError(ValueError):
    """Bad job file; the message carries every violation found."""


@dataclass
class JobSpec:
    curves: list[artin.CurveData]
    models: list[CurveModel]
    ranks: list[int]
    degree: int
    tasks: list[str]
    tolerance: float
    fmt: str
    counterexample: bool = False


def _fmt_number(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.12e}"
    if isinstance(x, complex):
        return f"{x.real:.12e}{x.imag:+.12e}j"
    return str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
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
    if isinstance(obj, ZeroReport):
        return {
            "critical_modulus": _fmt_number(obj.critical_modulus),
            "zeros": [_fmt_number(z) for z in obj.zeros],
            "deviations": [_fmt_number(d) for d in obj.deviations],
            "max_deviation": _fmt_number(obj.max_deviation),
            "excluded": [_fmt_number(z) for z in obj.excluded],
            "tolerance": _fmt_number(obj.tol),
            "verdict": obj.verdict,
        }
    return obj


def parse_job(path: Path, overrides: argparse.Namespace | None = None) -> JobSpec:
    problems: list[str] = []
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise JobError(f"job file not found: {path}")
    except yaml.YAMLError as e:
        raise JobError(f"cannot parse job file: {e}")
    if not isinstance(raw, dict):
        raise JobError("job file must hold a mapping at top level")

    curves: list[artin.CurveData] = []
    models: list[CurveModel] = []
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
            if kind in ("coefficients", "counts", "elliptic"):
                q = src["q"]
                if isinstance(q, bool) or not isinstance(q, int) or not is_prime_power(q):
                    raise ValueError(f"q must be a prime power, got {q!r}")
            if kind == "coefficients":
                curves.append(
                    artin.CurveData(
                        src["q"],
                        src["g"],
                        [Fraction(str(a)) for a in src["A"]],
                        genuine=bool(src.get("genuine", False)),
                        label=src.get("label", f"coeffs(q={src['q']},g={src['g']})"),
                    )
                )
            elif kind == "counts":
                data = artin.numerator_from_counts(src["q"], src["g"], src["counts"])
                curves.append(
                    artin.CurveData(
                        data.q, data.g, data.A, genuine=True,
                        label=src.get("label", f"counts(q={src['q']},N={src['counts']})"),
                    )
                )
            elif kind == "model":
                model = CurveModel(
                    src["kind"], src["q"], tuple(src.get("f", ())), src.get("label", "")
                )
                models.append(model)
                if model.genus >= 1:
                    curves.append(curve_from_model(model))
            elif kind == "elliptic":
                curves.append(artin.CurveData.elliptic(src["q"], src["a"]))
            else:
                raise ValueError(f"unknown curve source type {kind!r}")
        except (KeyError, ValueError, TypeError) as e:
            problems.append(f"{where}: {e}")

    ranks = raw.get("ranks", [2])
    if not isinstance(ranks, list) or any(not isinstance(r, int) or not 2 <= r <= 6 for r in ranks):
        problems.append("ranks: need a list of integers between 2 and 6")
        ranks = [2]
    tasks = raw.get("tasks", ["artin"])
    bad = [t for t in tasks if t not in TASKS]
    if bad:
        problems.append(f"tasks: unknown entries {bad}; valid: {list(TASKS)}")
        tasks = [t for t in tasks if t in TASKS]
    degree = raw.get("degree", 0)
    if isinstance(degree, bool) or not isinstance(degree, int):
        problems.append(f"degree: need an integer, got {degree!r}")
        degree = 0
    tolerance = raw.get("tolerance", 1e-9)
    try:
        tolerance = float(tolerance)  # YAML reads 1e-9 (no dot) as a string
    except (TypeError, ValueError):
        problems.append(f"tolerance: need a number, got {tolerance!r}")
        tolerance = 1e-9
    fmt = raw.get("format", "json")
    if fmt not in ("json", "csv"):
        problems.append("format: must be json or csv")
        fmt = "json"

    if overrides is not None:
        if getattr(overrides, "rank", None):
            ranks = [overrides.rank]
        if getattr(overrides, "degree", None) is not None:
            degree = overrides.degree
        if getattr(overrides, "tolerance", None) is not None:
            tolerance = overrides.tolerance
        if getattr(overrides, "fmt", None):
            fmt = overrides.fmt

    if problems:
        raise JobError("invalid job file:\n  " + "\n  ".join(problems))
    return JobSpec(
        curves=curves,
        models=models,
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
    if c.g < 1:
        return {"skipped": "genus 0"}, {}
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
        invariants.alpha_from_A(c), invariants.beta0(c), c.q, c.g
    )
    checks["triangular_roundtrip"] = roundtrip == list(c.A[: c.g + 1])
    if c.g == 1 and c.genuine:
        a = c.q + 1 - artin.counts_from_numerator(c, 1)
        invariants.elliptic_oracle(c.q, a, 2)  # raises on mismatch
        checks["elliptic_oracle"] = True
    return report, checks


def _task_rank2(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    if c.g < 1:
        return {"skipped": "genus 0"}, {}
    F, shift = rank2.rank2_closed_form(c)
    table = rank2.rank2_invariants(c)
    numerator = rank2.rank2_numerator(c)
    report = {
        "closed_form": F,
        "shift": shift,
        "numerator_X": list(numerator.coeffs),
        "alpha": list(table.alphas),
        "beta0": table.beta0,
        "variants": rank2.variant_report(c),
    }
    checks = {
        "palindromic_numerator": numerator.is_palindromic(),
        "functional_equation": rank2.pure_fe_check(rank2.pure_zeta(c)),
    }
    return report, checks


def _task_slr(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    if c.g < 1:
        return {"skipped": "genus 0"}, {}
    report = {}
    checks = {}
    for r in job.ranks:
        z = slr_zeta(c, r)
        info = slr_numerator(z, c)
        rh = slr_rh_report(z, job.tolerance)
        entry = {
            "terms": {str(n): R for n, R in z.terms},
            "numerator_T": list(info.coeffs),
            "alpha_ratios": list(info.alpha_ratios),
            "rh": rh,
        }
        checks[f"functional_equation_r{r}"] = slr_fe_check(z)
        if r == 2:
            checks["unit_normalization_r2"] = info.unit_constant
            checks["riemann_hypothesis_r2"] = rh.verdict
        if r in (2, 3):
            _, ratio = period_residue_oracle(c, r)
            entry["period_oracle_ratio"] = ratio
            checks[f"period_oracle_constant_r{r}"] = True
        report[f"r{r}"] = entry
    return report, checks


def _task_mass(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    if c.g < 1:
        return {"skipped": "genus 0"}, {}
    rmax = min(max(job.ranks), 4)
    table = mass.beta_crosscheck(c, rmax)  # raises if the asserted rows fail
    report = {
        "crosscheck": table["rows"],
        "degree": job.degree,
        "beta_at_degree": {
            f"r{r}": mass.beta_hn_mass(c, r, job.degree) for r in range(1, rmax + 1)
        },
    }
    checks = {f"mass_agreement_r{r}": row["agree"] for r, row in
              zip(range(1, rmax + 1), table["rows"]) if r <= 3}
    return report, checks


def _task_yoshida(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    if c.g < 1:
        return {"skipped": "genus 0"}, {}
    z = yoshida.zeta2_canonical(c)
    rh = yoshida.rh_check_zeta2(z, job.tolerance)
    report = {"rh": rh}
    checks = {
        "functional_equation": yoshida.zeta2_fe_check(z),
        "riemann_hypothesis": rh.verdict,
    }
    combined = slr_zeta(c, 2).combined
    yoshida.canonical_group_cross_check(c, combined)
    checks["group_zeta_cross_check"] = True
    report["group_constant_half_power"] = c.g - 1
    if c.g == 1 and c.genuine:
        rep = yoshida.sextic_identity_report(c.q, -c.A[1])
        report["sextic"] = {
            "expansion_ok": rep["expansion_ok"],
            "corrected_factorization_ok": rep["corrected_factorization_ok"],
            "literal_factorization_ok": rep["literal_factorization_ok"],
        }
        checks["sextic_identity"] = rep["expansion_ok"] and rep["corrected_factorization_ok"]
    if c.g >= 2:
        # the alternative exponent choice a = g, reported but not asserted
        ws = yoshida.WeilPairSet.from_curve(c)
        zg = yoshida.zeta2_family(ws, yoshida.C1Params(a=c.g))
        report["family_a_equals_g_fe"] = yoshida.zeta2_fe_check(zg)
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


def _task_rh_report(c: artin.CurveData, job: JobSpec) -> tuple[dict, dict]:
    if c.g < 1:
        return {"skipped": "genus 0"}, {}
    rows = []
    art = artin.rh_check_artin(c, job.tolerance)
    for z, d in zip(art.zeros, art.deviations):
        rows.append(("artin", z, abs(z), d))
    z2 = slr_zeta(c, 2)
    slr_rep = slr_rh_report(z2, job.tolerance)
    for z, d in zip(slr_rep.zeros, slr_rep.deviations):
        rows.append(("slr2_Tgrid", z, abs(z), d))
    yz = yoshida.rh_check_zeta2(yoshida.zeta2_canonical(c), job.tolerance)
    for z, d in zip(yz.zeros, yz.deviations):
        rows.append(("zeta2", z, abs(z), d))
    report = {
        "zeros": [
            {"object": name, "value": v, "modulus": m, "deviation": d}
            for name, v, m, d in rows
        ],
        "verdicts": {
            "artin": art.verdict,
            "slr2": slr_rep.verdict,
            "zeta2": yz.verdict,
        },
    }
    checks = {}
    if c.genuine:
        checks["artin_rh"] = art.verdict
        checks["slr2_rh"] = slr_rep.verdict
        checks["zeta2_rh"] = yz.verdict
    return report, checks


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
    """Execute tasks over every curve; returns (exit_code, report tree)."""
    chosen = list(tasks) if tasks else job.tasks
    out = {
        "report_version": 1,
        "tasks": chosen,
        "tolerance": _fmt_number(job.tolerance),
        "reports": [],
    }
    failed = False
    if job.models and ("artin" in chosen or "rh-report" in chosen):
        rows = []
        for model, counts in census(job.models):
            rows.append({"model": model.describe(), "genus": model.genus, "counts": counts})
        out["census"] = rows
    for c in job.curves:
        for task in chosen:
            report, checks = _TASK_FN[task](c, job)
            failed = failed or not all(checks.values())
            out["reports"].append(
                {
                    "curve": c.describe(),
                    "q": c.q,
                    "g": c.g,
                    "task": task,
                    "data": _jsonable(report),
                    "checks": dict(sorted(checks.items())),
                }
            )
    return (1 if failed else 0), out


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, _fmt_number(value)))


def render(tree: dict, fmt: str) -> dict[str, str]:
    """Map of filename -> contents; stable bytes for identical trees."""
    files = {}
    if fmt == "json":
        files["report.json"] = json.dumps(tree, indent=2, sort_keys=True) + "\n"
    else:
        rows: list[tuple[str, str]] = []
        _flatten("", {k: v for k, v in tree.items() if k != "reports"}, rows)
        lines = ["section,key,value"]
        lines += [f"meta,{k},{v}" for k, v in rows]
        for rep in tree.get("reports", []):
            base = f"{rep['curve']}|{rep['task']}"
            sub: list[tuple[str, str]] = []
            _flatten("", {"data": rep["data"], "checks": rep["checks"]}, sub)
            lines += [f"\"{base}\",{k},{v}" for k, v in sub]
        files["report.csv"] = "\n".join(lines) + "\n"
    zero_lines = ["curve,object,re,im,modulus,deviation"]
    for rep in tree.get("reports", []):
        if rep["task"] != "rh-report":
            continue
        for row in rep["data"]["zeros"]:
            z = row["value"]
            zero_lines.append(
                f"\"{rep['curve']}\",{row['object']},{z},{row['modulus']},{row['deviation']}"
            )
    if len(zero_lines) > 1:
        files["zeros.csv"] = "\n".join(zero_lines) + "\n"
    return files


def main(argv: Sequence[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=None, help="RH check tolerance")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    common.add_argument("--out", type=Path, default=None, help="directory for report files")
    parser = argparse.ArgumentParser(
        prog="curvezeta",
        description="exact zeta computations for curves over finite fields",
        parents=[common],
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
        args.out.mkdir(parents=True, exist_ok=True)
        for name, content in sorted(files.items()):
            (args.out / name).write_text(content)
            print(f"wrote {args.out / name}")
    else:
        for name, content in sorted(files.items()):
            sys.stdout.write(content)
    if code:
        print("one or more asserted identities FAILED", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
