"""CLI: job parsing, task execution, determinism, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest
import yaml
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
import report_reference
from ratfun_reference import RatFun

from curvezeta import artin, cli, exact, fields, group_zeta, invariants, mass, rank2
from curvezeta.cli import TASKS, JobError, main, parse_job, render, run
from curvezeta.exact import Poly, RationalFunction, RootFindError
from curvezeta.group_zeta import R_MAX, slr_rh_report, slr_zeta

FULL_JOB = """\
curves:
  - {type: elliptic, q: 2, a: 0}
  - {type: model, kind: artin_schreier, q: 2, f: [0, 0, 0, 0, 0, 1]}
  - {type: counts, q: 2, g: 2, counts: [3, 5]}
  - {type: coefficients, q: 2, g: 3, A: [1, 1, 2, 6, 4, 4, 8]}
ranks: [2, 3]
degree: 0
tasks: [artin, invariants, rank2, slr, mass, yoshida, rh-report]
tolerance: 1.0e-9
format: json
"""


DATA = Path(__file__).parent / "data"

# A fixed-precision float, real or complex, as _fmt_number writes it.
_FLOAT = r"-?\d\.\d{12}e[+-]\d+"
_FLOAT_RE = re.compile(f"{_FLOAT}({_FLOAT.replace('-?', '[+-]')}j)?")
_MASK = "d.dddddddddddde±NN"


def mask_floats(text: str) -> str:
    """Replace every rendered float with a placeholder; exact values stay."""
    return _FLOAT_RE.sub(lambda m: _MASK + (f"±{_MASK}j" if m.group(1) else ""), text)


# What the tasks whose construction fails on non-genuine data raise; the
# other tasks report their identities on such data as false checks.  The
# rh-report entry names the failed part and keeps the other parts' zeros.
NON_GENUINE_ERRORS = {
    "slr": "ConventionError",
    "yoshida": "ConventionError",
    "rh-report": {"slr2": "ConventionError"},
}


def _error_types(data: dict):
    """The exception type a failed entry names, or, for an rh-report entry
    with failed parts, the type each failed part names."""
    if "error" in data:
        return data["error"].split(":")[0]
    return {part: error.split(":")[0] for part, error in data["errors"].items()}


# (job body, text the error must name) for job files that must exit 2
BAD_VALUES = [
    ("curves:\n  - {type: elliptic, q: 6, a: 0}\n", "curves[0]"),
    ("curves:\n  - {type: coefficients, q: 6, g: 1, A: [1, 0, 6]}\n", "curves[0]"),
    ("curves:\n  - {type: counts, q: 6, g: 1, counts: [7]}\n", "curves[0]"),
    ("curves:\n  - {type: elliptic, q: 2, a: 0}\ntolerance: abc\n", "tolerance"),
    ("curves:\n  - {type: elliptic, q: 2, a: 0}\ndegree: x\n", "degree"),
    ("curves:\n  - {type: elliptic, q: 2, a: 0}\ntasks: 5\n", "tasks: need a list"),
    ("curves:\n  - {type: elliptic, q: 2, a: 0}\ntasks: artin\n", "tasks: need a list"),
    # an RH-violating datum must not pass through an infinite tolerance
    (
        "curves:\n  - {type: coefficients, q: 5, g: 1, A: [1, -5, 5], genuine: true}\n"
        "tolerance: .inf\n",
        "tolerance",
    ),
    ("curves:\n  - {type: elliptic, q: 2, a: 0}\ntolerance: -1\n", "tolerance"),
    ("curves:\n  - {type: elliptic, q: 2, a: 0}\ntolerance: .nan\n", "tolerance"),
    ("curves:\n  - {type: elliptic, q: 2, a: 0}\ntolerance: true\n", "tolerance"),
    ("curves:\n  - {type: coefficients, q: 5, g: 1.5, A: [1, 0, 5]}\n", "curves[0]: g"),
    ("curves:\n  - {type: counts, q: 5, g: 1.5, counts: [6]}\n", "curves[0]: g"),
    ("curves:\n  - {type: elliptic, q: 2, a: 0}\nranks: []\ntasks: [mass]\n", "ranks"),
    (
        "curves:\n  - {type: model, kind: quadratic, q: 5, f: x}\n",
        "curves[0]: f must be a list of integers",
    ),
    (
        "curves:\n  - {type: model, kind: quadratic, q: 5, f: 5}\n",
        "curves[0]: f must be a list of integers",
    ),
    (
        "curves:\n  - {type: model, kind: quadratic, q: 5, f: [0.5, 1, 0, 1]}\n",
        "curves[0]: f must be a list of integers",
    ),
    (
        "curves:\n  - {type: model, kind: quadratic, q: 5, f: [true, 1, 0, 1]}\n",
        "curves[0]: f must be a list of integers",
    ),
    (
        "curves:\n  - {type: model, kind: quadratic, q: '5', f: [1, 1, 0, 1]}\n",
        "curves[0]: q must be an integer",
    ),
    (
        "curves:\n  - {type: model, kind: artin_schreier, q: 2, f: [" + "0, " * 43 + "1]}\n",
        "curves[0]: genus 21",
    ),
    ("curves:\n  - {type: elliptic, q: 5, a: x}\n", "curves[0]: a must be an integer"),
    ("curves:\n  - {type: elliptic, q: 5, a: true}\n", "curves[0]: a must be an integer"),
    ("curves:\n  - {type: elliptic, q: 5}\n", "curves[0]: missing field 'a'"),
    (
        "curves:\n  - {type: counts, q: 2, g: 2, counts: [3, x]}\n",
        "curves[0]: counts must be a list of integers",
    ),
    (
        "curves:\n  - {type: coefficients, q: 5, g: 1, A: 5}\n",
        "curves[0]: A must be a list of numbers",
    ),
    (
        "curves:\n  - {type: coefficients, q: 5, g: 1, A: ['1/0', 0, 5]}\n",
        "curves[0]: A must be a list of numbers",
    ),
    (
        "curves:\n  - {type: coefficients, q: 5, g: 1, A: [1, 0, 5], genuine: 'false'}\n",
        "curves[0]: genuine must be true or false",
    ),
    (
        "curves:\n  - {type: coefficients, q: 5, g: 1, A: [1, 0, 5], label: {x: 1}}\n",
        "curves[0]: label must be a string",
    ),
    # q = 10^4515 + 7 has more digits than the loader's int() converts: the
    # message names where it stands, not CPython's advice on the limit
    (
        "curves:\n  - {type: elliptic, q: 1" + "0" * 4514 + "7, a: 0}\n",
        "cannot parse job file: an integer of 4516 digits is past int()'s digit limit\n"
        '  in "<byte string>", line 2, column 25',
    ),
    # a date the YAML resolver reads, but no calendar has: the message names where it stands
    (
        "curves:\n  - {type: elliptic, q: 2, a: 0, label: 2020-13-45}\n",
        "cannot parse job file: 2020-13-45 is not a calendar date: month must be in 1..12\n"
        '  in "<byte string>", line 2, column 41',
    ),
    # a field that nothing reads is named, not ignored
    (
        "curves:\n  - {type: elliptic, q: 2, a: 0}\nrank: [3]\n",
        "unknown field 'rank'; a job reads curves, ranks, degree, tasks, tolerance, format",
    ),
    (
        "curves:\n  - {type: elliptic, q: 2, a: 0, genuine: false}\n",
        "curves[0]: unknown field 'genuine'; a source of type elliptic reads type, label, q, a",
    ),
    (
        "curves:\n  - {type: model, kind: quadratic, q: 5, f: [1, 1, 0, 1], colour: red}\n",
        "curves[0]: unknown field 'colour'; a source of type model reads type, label, kind, q, f",
    ),
]
BAD_VALUE_IDS = [
    "elliptic-q6",
    "coefficients-q6",
    "counts-q6",
    "tolerance-abc",
    "degree-x",
    "tasks-int",
    "tasks-string",
    "tolerance-inf",
    "tolerance-negative",
    "tolerance-nan",
    "tolerance-bool",
    "coefficients-g-float",
    "counts-g-float",
    "ranks-empty",
    "model-f-string",
    "model-f-int",
    "model-f-float",
    "model-f-bool",
    "model-q-string",
    "model-over-cap",
    "elliptic-a-string",
    "elliptic-a-bool",
    "elliptic-a-missing",
    "counts-string",
    "coefficients-A-int",
    "coefficients-A-zero-denominator",
    "genuine-string",
    "label-mapping",
    "q-4516-digits",
    "label-bad-date",
    "job-field-typo",
    "elliptic-genuine",
    "model-unknown-field",
]


# the job loader over the pure-Python parser, and over libyaml's when this
# PyYAML was built with it
PURE_LOADER = type("JobLoader", (yaml.SafeLoader,), {})
PURE_LOADER.add_constructor("tag:yaml.org,2002:int", cli._construct_int)
PURE_LOADER.add_constructor("tag:yaml.org,2002:timestamp", cli._construct_timestamp)
LOADERS = [PURE_LOADER] + ([cli._LOADER] if yaml.__with_libyaml__ else [])


@pytest.fixture(params=LOADERS, ids=lambda loader: loader.__mro__[1].__name__)
def loader(request, monkeypatch):
    """Run the test with parse_job reading through each available YAML loader."""
    monkeypatch.setattr(cli, "_LOADER", request.param)
    return request.param


def clear_caches() -> None:
    """Empty every curvezeta lru_cache, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("curvezeta."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(scope="module")
def jobfile(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("jobs") / "job.yaml"
    path.write_text(FULL_JOB)
    return path


@pytest.fixture(scope="module")
def full_tree(jobfile):
    job = parse_job(jobfile)
    code, tree = run(job)
    return code, tree


class TestParsing:
    def test_full_job(self, jobfile):
        job = parse_job(jobfile)
        assert len(job.curves) == 4
        assert job.ranks == [2, 3]
        assert job.tasks[0] == "artin"

    @pytest.mark.parametrize("source", ["full", "criterion10"])
    def test_each_curve_built_once(self, jobfile, monkeypatch, source):
        # counts and model curves are checked by one CurveData.__init__, not two
        calls = []
        init = artin.CurveData.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(artin.CurveData, "__init__", counting_init)
        job = parse_job(jobfile if source == "full" else DATA / "criterion10_job.yaml")
        assert len(job.curves) == 4
        assert len(calls) == len(job.curves)

    @pytest.mark.parametrize(
        "source",
        [
            "{type: elliptic, q: 2, a: 0, label: mine}",
            "{type: coefficients, q: 2, g: 1, A: [1, 0, 2], label: mine}",
            "{type: counts, q: 2, g: 1, counts: [3], label: mine}",
            "{type: model, kind: quadratic, q: 3, f: [1, 2, 0, 1], label: mine}",
        ],
        ids=["elliptic", "coefficients", "counts", "model"],
    )
    def test_every_source_keeps_its_label(self, tmp_path, source):
        path = tmp_path / "job.yaml"
        path.write_text(f"curves:\n  - {source}\ntasks: [artin]\n")
        job = parse_job(path)
        assert [c.label for c in job.curves] == ["mine"]
        assert [rep["curve"] for rep in run(job)[1]["reports"]] == ["mine"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(JobError):
            parse_job(tmp_path / "nope.yaml")

    def test_directory_path_exits_two(self, tmp_path, loader, capsys):
        path = tmp_path / "job.yaml"
        path.mkdir()
        with pytest.raises(JobError, match="cannot read job file"):
            parse_job(path)
        assert main(["run", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            b"curves:\n  - {type: elliptic, q: 2, a: 0, label: \"\xff\"}\n",
            b"curves: [",
            b"curves:\n  - {type: elliptic, q: 2, a: 0}\n---\ncurves: []\n",
        ],
        ids=["non-utf8", "malformed", "two-documents"],
    )
    def test_unparsable_file_exits_two(self, tmp_path, loader, capsys, data):
        path = tmp_path / "job.yaml"
        path.write_bytes(data)
        with pytest.raises(JobError, match="cannot parse job file"):
            parse_job(path)
        assert main(["run", str(path)]) == 2
        assert "cannot parse job file" in capsys.readouterr().err

    def test_empty_curves(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("curves: []\n")
        with pytest.raises(JobError, match="nonempty"):
            parse_job(path)

    def test_all_violations_listed(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "curves:\n"
            "  - {type: mystery}\n"
            "  - {type: elliptic, q: 2, a: 9}\n"
            "ranks: [12]\n"
            "format: xml\n"
        )
        with pytest.raises(JobError) as info:
            parse_job(path)
        text = str(info.value)
        assert "curves[0]" in text
        assert "curves[1]" in text
        assert "ranks" in text
        assert "format" in text


class TestRun:
    def test_exit_zero_and_checks(self, full_tree):
        code, tree = full_tree
        assert code == 0
        assert len(tree["reports"]) == 4 * 7
        for rep in tree["reports"]:
            assert all(rep["checks"].values()), (rep["curve"], rep["task"], rep["checks"])

    def test_census_block_present(self, full_tree):
        _, tree = full_tree
        assert tree["census"][0]["counts"] == [3, 5]

    def test_fixture_values_in_reports(self, full_tree):
        _, tree = full_tree
        by_key = {(r["curve"], r["task"]): r for r in tree["reports"]}
        artin = by_key[("elliptic(q=2,a=0)", "artin")]
        assert artin["data"]["A"] == [1, 0, 2]
        assert artin["data"]["counts"][0] == 3
        inv = by_key[("counts(q=2,N=[3, 5])", "invariants")]
        assert inv["data"]["alpha"] == [1, 3]
        assert inv["data"]["beta0"] == 5
        rank2 = by_key[("elliptic(q=2,a=0)", "rank2")]
        assert rank2["data"]["numerator_X"] == [2, 1, 2]
        assert rank2["data"]["beta0"] == 6

    def test_failing_identity_sets_exit_code(self, tmp_path):
        path = tmp_path / "asym.yaml"
        path.write_text(
            "curves:\n  - {type: coefficients, q: 2, g: 1, A: [1, 1, 1]}\ntasks: [artin]\n"
        )
        code, tree = run(parse_job(path))
        assert code == 1
        checks = tree["reports"][0]["checks"]
        assert not checks["coefficient_symmetry"]

    def test_period_oracle_mismatch_is_a_false_check(self, tmp_path, monkeypatch):
        # an r = 3 oracle off by the non-constant factor (1 + u): the slr entry
        # stays whole, only the oracle check reads false, and the exit code is 1
        path = tmp_path / "slr.yaml"
        path.write_text("curves:\n  - {type: elliptic, q: 2, a: 0}\nranks: [2, 3]\ntasks: [slr]\n")
        _, good = run(parse_job(path))
        zeta_hat_ratfun = group_zeta.zeta_hat_ratfun

        def skewed(c, shift=0):
            f = zeta_hat_ratfun(c, shift)
            return f * RatFun([1, 1]) if shift == 3 else f

        monkeypatch.setattr(group_zeta, "zeta_hat_ratfun", skewed)
        group_zeta.period_residue_oracle.cache_clear()
        try:
            code, tree = run(parse_job(path))
        finally:
            group_zeta.period_residue_oracle.cache_clear()
        assert code == 1
        (entry,), (good_entry,) = tree["reports"], good["reports"]
        assert entry["checks"] == {**good_entry["checks"], "period_oracle_constant_r3": False}
        assert entry["data"]["r2"] == good_entry["data"]["r2"]
        r3, good_r3 = dict(entry["data"]["r3"]), dict(good_entry["data"]["r3"])
        assert r3.pop("period_oracle_ratio") == RatFun([1, 1])  # 1 + u
        constant = good_r3.pop("period_oracle_ratio")
        assert type(constant) is Fraction and constant == 1
        assert r3 == good_r3

    def test_period_oracle_over_a_zero_assembled_form_is_an_error_entry(self, tmp_path, monkeypatch):
        # oracle / 0 has no value: the slr entry is the division's error, and
        # the exit code is 1
        path = tmp_path / "slr.yaml"
        path.write_text("curves:\n  - {type: elliptic, q: 2, a: 0}\nranks: [2]\ntasks: [slr]\n")
        monkeypatch.setattr(
            group_zeta, "slr_zeta", lambda c, r: slr_zeta(c, r)._replace(combined=RationalFunction.zero())
        )
        group_zeta.period_residue_oracle.cache_clear()
        try:
            code, tree = run(parse_job(path))
        finally:
            group_zeta.period_residue_oracle.cache_clear()
        assert code == 1
        (entry,) = tree["reports"]
        assert entry["data"] == {"error": "ZeroDivisionError: rational function with zero denominator"}
        assert entry["checks"] == {"completed": False}

    @pytest.mark.parametrize(
        "task, check, module, name, skew",
        [
            pytest.param(
                "invariants",
                "elliptic_oracle",
                invariants,
                "elliptic_oracle",
                lambda out: (out[0], out[1]._replace(beta0=out[1].beta0 + 1)),
                id="elliptic_oracle",
            ),
            pytest.param(
                "rank2",
                "closed_form_two_term",
                rank2,
                "rank2_closed_form",
                lambda F: F * RatFun([1, 1]),
                id="closed_form_two_term",
            ),
            pytest.param(
                "rank2",
                "numerator_closed_form",
                rank2,
                "rank2_numerator",
                lambda n: (n[0], *(x + 1 for x in n[1:-1]), n[-1]),
                id="numerator_closed_form",
            ),
            pytest.param("mass", "mass_agreement_r2", mass, "beta_hn_mass", lambda b: b + 1, id="mass_agreement"),
            pytest.param("mass", "mass_beta0_r1", mass, "beta0", lambda b: b + 1, id="mass_beta0_r1"),
            pytest.param(
                "mass",
                "mass_series_r2",
                mass,
                "rank2_invariants",
                lambda t: t._replace(beta0=t.beta0 + 1),
                id="mass_series_r2",
            ),
            pytest.param(
                "yoshida",
                "group_zeta_cross_check",
                cli,
                "slr_zeta",
                lambda z: z._replace(combined=RatFun.of(z.combined) * 2),
                id="group_zeta_cross_check",
            ),
        ],
    )
    def test_identity_mismatch_is_a_false_check(self, tmp_path, capsys, monkeypatch, task, check, module, name, skew):
        # one side of an identity skewed: the entry keeps its data, the check
        # reads false, and the exit code is 1
        path = tmp_path / "job.yaml"
        path.write_text(f"curves:\n  - {{type: elliptic, q: 2, a: 0}}\ntasks: [{task}]\n")
        _, good = run(parse_job(path))
        (good_entry,) = good["reports"]
        assert good_entry["checks"][check] is True
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: skew(original(*args)))
        clear_caches()
        try:
            out = tmp_path / "out"
            assert main([task, str(path), "--out", str(out)]) == 1
        finally:
            clear_caches()
        assert "Traceback" not in capsys.readouterr().err
        (entry,) = json.loads((out / "report.json").read_text())["reports"]
        assert entry["checks"][check] is False
        assert "error" not in entry["data"] and sorted(entry["data"]) == sorted(good_entry["data"])
        assert sorted(entry["checks"]) == sorted(good_entry["checks"])

    def test_each_model_counted_once(self, tmp_path, monkeypatch):
        calls = []
        count_points = fields.count_points

        def counting(model, m):
            calls.append((model.f, m))
            return count_points(model, m)

        monkeypatch.setattr(fields, "count_points", counting)
        path = tmp_path / "models.yaml"
        path.write_text(
            "curves:\n"
            "  - {type: model, kind: artin_schreier, q: 2, f: [0, 0, 0, 0, 0, 1]}\n"
            "  - {type: model, kind: quadratic, q: 3, f: [1, 2, 0, 1]}\n"
            "  - {type: model, kind: projective_line, q: 3}\n"
            "tasks: [artin, invariants]\n"
        )
        code, tree = run(parse_job(path))
        assert code == 0
        assert sorted(calls) == [((0, 0, 0, 0, 0, 1), 1), ((0, 0, 0, 0, 0, 1), 2), ((1, 2, 0, 1), 1)]
        assert [row["counts"] for row in tree["census"]] == [[3, 5], [7], []]

    def test_curve_data_derived_once_per_job(self, jobfile, monkeypatch):
        # a cold run of all seven tasks reduces Z(t) once per curve and
        # evaluates each numerator once at each point q^-n
        clear_caches()
        reduced = []
        zeta = artin.CurveData.__dict__["_zeta"]
        monkeypatch.setattr(zeta, "func", lambda c, func=zeta.func: reduced.append(c) or func(c))
        job = parse_job(jobfile)
        numerators = {id(c.numerator) for c in job.curves}
        evaluated = []
        evaluate = Poly.evaluate

        def counting(p, x):
            if id(p) in numerators:
                evaluated.append((id(p), x))
            return evaluate(p, x)

        monkeypatch.setattr(Poly, "evaluate", counting)
        code, _ = run(job)
        assert code == 0
        assert sorted(map(id, reduced)) == sorted(map(id, job.curves))
        assert evaluated and len(evaluated) == len(set(evaluated))
        memoized = [
            artin.zeta_hat_special,
            artin.zeta_plain,
            rank2.alpha2_zero,
            rank2.rank2_invariants,
            mass._v_block,
            mass.beta_hn_mass,
        ]
        for f in memoized:
            info = f.cache_info()
            assert info.misses == info.currsize and info.hits, (f.__name__, info)

    def test_mass_at_degree_not_divisible_by_rank(self, tmp_path):
        path = tmp_path / "mass.yaml"
        path.write_text(
            "curves:\n  - {type: elliptic, q: 2, a: 0}\nranks: [3]\ndegree: 1\ntasks: [mass]\n"
        )
        job = parse_job(path)
        code, tree = run(job)
        assert code == 0
        report = json.loads(render(tree, job.fmt)["report.json"])
        assert report["reports"][0]["data"]["beta_at_degree"]["r3"] == "3"

    def test_genus_zero_skips_all_but_artin(self, tmp_path):
        path = tmp_path / "g0.yaml"
        path.write_text(
            f"curves:\n  - {{type: coefficients, q: 2, g: 0, A: [1]}}\ntasks: {json.dumps(TASKS)}\n"
        )
        code, tree = run(parse_job(path))
        assert code == 0
        assert [r["data"] for r in tree["reports"][1:]] == [{"skipped": "genus 0"}] * 6
        assert all(r["checks"] == {} for r in tree["reports"][1:])
        assert "zeros.csv" not in render(tree, "csv")

    @pytest.mark.parametrize(
        "curve, ranks, tasks, errors",
        [
            ("{type: coefficients, q: 2, g: 1, A: [1, 1, 1]}", [2, 3], list(TASKS), NON_GENUINE_ERRORS),
            ("{type: coefficients, q: 3, g: 2, A: [1, 1, 1, 2, 5]}", [2, 3], list(TASKS), NON_GENUINE_ERRORS),
            ("{type: elliptic, q: 3, a: 1}", [6], ["slr"], {"slr": "RootFindError"}),
        ],
        ids=["nongenuine-g1", "nongenuine-g2", "slr-root-finder-gives-up"],
    )
    def test_failed_task_still_writes_report(
        self, tmp_path, capsys, monkeypatch, curve, ranks, tasks, errors
    ):
        good = "{type: elliptic, q: 2, a: 0}"
        if errors == {"slr": "RootFindError"}:
            # the root finder gives up whenever Q is a power of 3, so only
            # the first curve's RH report fails
            solve = group_zeta.complex_roots

            def gives_up(p, *, Q=1):
                if Q % 3 == 0:
                    raise RootFindError("forced", (), ())
                return solve(p, Q=Q)

            monkeypatch.setattr(group_zeta, "complex_roots", gives_up)
            group_zeta.slr_rh_report.cache_clear()

        def jobfile(*curves) -> Path:
            path = tmp_path / f"job{len(curves)}.yaml"
            lines = [f"  - {c}\n" for c in curves]
            path.write_text(f"curves:\n{''.join(lines)}ranks: {ranks}\ntasks: {json.dumps(tasks)}\n")
            return path

        out = tmp_path / "out"
        assert main(["run", str(jobfile(curve, good)), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        reports = json.loads((out / "report.json").read_text())["reports"]
        assert [r["task"] for r in reports] == tasks * 2
        failed = {r["task"]: r for r in reports[: len(tasks)] if "error" in r["data"] or "errors" in r["data"]}
        assert {task: _error_types(r["data"]) for task, r in failed.items()} == errors
        assert all(r["checks"] == {"completed": False} for r in failed.values())
        if "rh-report" in failed:  # the parts that ran keep their verdicts and zeros
            data = failed["rh-report"]["data"]
            assert data["verdicts"]["slr2"] is None and data["verdicts"]["artin"] is False
            assert {z["object"] for z in data["zeros"]} == {"artin", "zeta2"}
        for r in reports[: len(tasks)]:
            if r["task"] in ("rank2", "mass"):  # data kept, the failed identities false
                assert r["data"] and not all(r["checks"].values()), r
        # the genuine curve's entries are those of a job that holds it alone
        _, alone = run(parse_job(jobfile(good)))
        assert reports[len(tasks):] == json.loads(render(alone, "json")["report.json"])["reports"]

    def test_former_float_overflow_job_solves(self, tmp_path, capsys):
        # a genuine numerator whose SL_6 T-grid numerator has coefficients
        # beyond the float range; solved on the critical circle, the float
        # coefficients stay near the unit scale
        path = tmp_path / "overflow.yaml"
        path.write_text(
            "curves:\n"
            "  - {type: coefficients, q: 10007, g: 5, genuine: true, A: [1, 88, 6252, -669878,\n"
            "     -321137, -4050712996, -3213617959, -67081615744022, 6265138392584436,\n"
            "     882466588407571288, 100350490343120066807]}\n"
            "ranks: [6]\ntasks: [slr, rh-report]\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        slr, rh_report = json.loads((out / "report.json").read_text())["reports"]
        assert slr["checks"] and all(slr["checks"].values())
        rh = slr["data"]["r6"]["rh"]
        assert len(rh["zeros"]) == 10 and rh["excluded"] == [] and rh["verdict"] is True
        assert rh_report["checks"] and all(rh_report["checks"].values())


def weil_product(q: int, traces: Sequence[int]) -> list[int]:
    """A_0..A_2g of prod (1 - a t + q t^2) over the traces a."""
    A = [1]
    for a in traces:
        A = [x - a * y + q * z for x, y, z in zip(A + [0, 0], [0] + A + [0], [0, 0] + A)]
    return A


# distinct traces within the Hasse bound |a| <= 2 sqrt(q)
LARGE_Q_TRACES = {1000003: (1, -1999, 1234, -5, 2000), 10007: (1, -199, 123, -5, 200)}
# SL_r sizes whose T-grid coefficients leave the float range, or whose zeros
# lie far inside the unit circle (ROADMAP item 1)
LARGE_Q_CASES = (
    [(1000003, g, r) for g in (1, 2, 3) for r in range(2, 8)]
    + [(1000003, g, r) for g in (4, 5) for r in (5, 6)]
    + [(10007, g, 6) for g in (4, 5)]
)


class TestLargeQ:
    @pytest.mark.parametrize("q, g, r", LARGE_Q_CASES)
    def test_slr_zeros_on_critical_circle(self, tmp_path, q, g, r):
        A = weil_product(q, LARGE_Q_TRACES[q][:g])
        path = tmp_path / "job.yaml"
        path.write_text(
            f"curves:\n  - {{type: coefficients, q: {q}, g: {g}, A: {A}, genuine: true}}\n"
            f"ranks: [{r}]\ntasks: [slr]\n"
        )
        job = parse_job(path)
        code, tree = run(job)
        assert code == 0
        (entry,) = tree["reports"]
        assert entry["checks"] and all(entry["checks"].values())
        # the report holds the memoized zero report
        rh = slr_rh_report(slr_zeta(job.curves[0], r), job.tolerance)
        assert len(rh.zeros) == 2 * g and rh.excluded == () and rh.verdict
        assert entry["data"][f"r{r}"]["rh"] == rh
        s = math.sqrt(q**r)
        assert max(abs(abs(T) * s - 1) for T in rh.zeros) <= 1e-12

    @pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 10])
    def test_elliptic_zeros_not_taken_for_poles(self, tmp_path, capsys, r):
        # at Q = q^r >= 1e18 every zero, |T| = Q^{-1/2}, lies within 1e-9 of
        # the pole T = 1/Q; the poles are divided out exactly, so no zero can
        # be taken for one
        out = tmp_path / "out"
        job = DATA / "elliptic_q1000003_job.yaml"
        assert main(["slr", str(job), "--rank", str(r), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        (entry,) = json.loads((out / "report.json").read_text())["reports"]
        rh = entry["data"][f"r{r}"]["rh"]
        assert len(rh["zeros"]) == 2 and rh["excluded"] == [] and rh["verdict"] is True


class TestDegenerateInput:
    def test_constant_numerator_has_no_zeros(self, tmp_path, capsys):
        # a degree-deficient non-genuine numerator: no zeros, false checks, exit 1
        out = tmp_path / "out"
        assert main(["run", str(DATA / "constant_numerator_job.yaml"), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        artin_entry, rh_entry = json.loads((out / "report.json").read_text())["reports"]
        rh = artin_entry["data"]["rh"]
        assert rh["zeros"] == [] and rh["verdict"] is True
        assert artin_entry["checks"] == {"coefficient_symmetry": False, "functional_equation": False}
        assert rh_entry["task"] == "rh-report" and rh_entry["checks"] == {"completed": False}
        # the SL_2 part fails; the Artin part has no zeros and zeta2 keeps its one
        assert list(rh_entry["data"]["errors"]) == ["slr2"]
        assert rh_entry["data"]["errors"]["slr2"].startswith("ConventionError: ")
        assert rh_entry["data"]["verdicts"] == {"artin": True, "slr2": None, "zeta2": False}
        assert [z["object"] for z in rh_entry["data"]["zeros"]] == ["zeta2"]

    def test_asymmetric_numerator_reports_every_zero(self, tmp_path, capsys):
        # broken symmetry: all 2g zeros are reported, the identities fail, exit 1
        out = tmp_path / "out"
        assert main(["run", str(DATA / "asymmetric_coefficients_job.yaml"), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        artin_entry, rh_entry = json.loads((out / "report.json").read_text())["reports"]
        rh = artin_entry["data"]["rh"]
        assert len(rh["zeros"]) == 4 and rh["verdict"] is False
        assert artin_entry["checks"] == {"coefficient_symmetry": False, "functional_equation": False}
        assert rh_entry["task"] == "rh-report" and rh_entry["checks"] == {"completed": False}
        # the SL_2 part fails; the Artin and zeta2 zeros are still written
        assert list(rh_entry["data"]["errors"]) == ["slr2"]
        assert rh_entry["data"]["errors"]["slr2"].startswith("ConventionError: ")
        assert rh_entry["data"]["verdicts"] == {"artin": False, "slr2": None, "zeta2": False}
        rows = list(csv.DictReader(io.StringIO((out / "zeros.csv").read_text())))
        assert [row["object"] for row in rows] == ["artin"] * 4 + ["zeta2"] * 10
        artin_values = [z for z in rh_entry["data"]["zeros"] if z["object"] == "artin"]
        assert [z["value"] for z in artin_values] == rh["zeros"]

    def test_asymmetric_numerator_csv_writes_null(self, tmp_path, capsys):
        # non-genuine data has no counts, and the failed SL_2 part no verdict:
        # report.csv writes both as JSON's null
        out = tmp_path / "out"
        job = str(DATA / "asymmetric_coefficients_job.yaml")
        assert main(["run", job, "--format", "csv", "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        lines = (out / "report.csv").read_text().splitlines()
        assert '"coeffs(q=3,g=2)|artin",data.counts,null' in lines
        assert '"coeffs(q=3,g=2)|rh-report",data.verdicts.slr2,null' in lines

    @pytest.mark.parametrize("tasks", ["[artin, invariants]", "[invariants]"])
    def test_counts_beyond_hasse_bound(self, tmp_path, capsys, tasks):
        # N_1 = 1 over F_5 gives trace 5 > 2 sqrt(5): no genus-one curve has
        # it, so the elliptic oracle check fails, whatever the other tasks
        path = tmp_path / "job.yaml"
        path.write_text(f"curves:\n  - {{type: counts, q: 5, g: 1, counts: [1]}}\ntasks: {tasks}\n")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        *artin_entries, invariants_entry = json.loads((out / "report.json").read_text())["reports"]
        for entry in artin_entries:
            assert entry["checks"]["riemann_hypothesis"] is False
        assert invariants_entry["checks"] == {"triangular_roundtrip": True, "elliptic_oracle": False}

    def test_q_beyond_float_range(self, tmp_path, capsys):
        # Q = q^5 = 2^1025 overflows a float; sqrt(Q) and the zeros do not
        out = tmp_path / "out"
        assert main(["slr", str(DATA / "elliptic_q2pow205_job.yaml"), "--rank", "5", "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        (entry,) = json.loads((out / "report.json").read_text())["reports"]
        rh = entry["data"]["r5"]["rh"]
        assert len(rh["zeros"]) == 2 and rh["excluded"] == [] and rh["verdict"] is True
        assert entry["checks"] == {"functional_equation_r5": True}

    def test_artin_rh_with_q_beyond_float_range(self, tmp_path, capsys):
        # q = 2^1100 overflows a float; sqrt(q) = 2^550 and the reciprocal roots do not
        out = tmp_path / "out"
        assert main(["artin", str(DATA / "elliptic_q2pow1100_job.yaml"), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        (entry,) = json.loads((out / "report.json").read_text())["reports"]
        rh = entry["data"]["rh"]
        assert len(rh["zeros"]) == 2 and rh["verdict"] is True
        assert rh["critical_modulus"] == f"{2.0**550:.12e}"
        assert entry["checks"]["riemann_hypothesis"] is True

    def test_coefficients_beyond_the_digit_limit(self, tmp_path, capsys):
        # at r = 9 over q = 2^205 an R_n coefficient has more digits than
        # str() converts by default (4300); the report is still written
        out = tmp_path / "out"
        assert main(["slr", str(DATA / "elliptic_q2pow205_job.yaml"), "--rank", "9", "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert max(map(len, re.findall(r"\d+", (out / "report.json").read_text()))) > 4300

    def test_zeta2_at_large_prime_q(self, tmp_path, capsys):
        # q = 10^15 + 37 parses without trial division to sqrt(q); every zeta2
        # zero lies within 1e-7 of a pole of the construction, none is excluded
        out = tmp_path / "out"
        assert main(["run", str(DATA / "elliptic_q1000000000000037_job.yaml"), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rh = json.loads((out / "report.json").read_text())["reports"][0]["data"]["rh"]
        assert len(rh["zeros"]) == 4 and rh["excluded"] == [] and rh["verdict"] is True

    def test_prime_above_miller_rabin_bound_refused(self, tmp_path):
        # 2^89 - 1 is prime, but above the bound no base in 2..41 certifies
        # it; the parse refuses it at once instead of trial dividing to sqrt(q)
        path = tmp_path / "job.yaml"
        path.write_text("curves:\n  - {type: elliptic, q: 618970019642690137449562111, a: 1}\n")
        start = time.perf_counter()
        with pytest.raises(JobError, match="q: 618970019642690137449562111 cannot be certified prime above "
                           "3,317,044,064,679,887,385,961,981"):
            parse_job(path)
        assert time.perf_counter() - start < 1

    def test_uncertifiable_prime_job_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(DATA / "elliptic_q2pow89m1_job.yaml"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot be certified prime" in err and "Traceback" not in err
        assert not out.exists()

    def test_zeta2_at_q_2pow103(self, tmp_path, capsys):
        # the zeta2 zeros in t-plane floats once failed the residual bound here
        out = tmp_path / "out"
        assert main(["run", str(DATA / "elliptic_q2pow103_job.yaml"), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        yoshida_entry, rh_entry = json.loads((out / "report.json").read_text())["reports"]
        rh = yoshida_entry["data"]["rh"]
        assert len(rh["zeros"]) == 4 and rh["excluded"] == [] and rh["verdict"] is True
        assert rh_entry["checks"] == {"artin_rh": True, "slr2_rh": True, "zeta2_rh": True}


# one small curve per job, all seven tasks at rank two; elliptic q = 4, a = -4
# has a repeated Frobenius root, so its numerators take the square-free split
SWEEP_SHAPED = [
    "{type: elliptic, q: 5, a: 2}",
    "{type: elliptic, q: 9, a: -3}",
    "{type: elliptic, q: 4, a: -4}",
    "{type: model, kind: quadratic, q: 7, f: [1, 3, 0, 1]}",
    "{type: model, kind: quadratic, q: 5, f: [1, 3, 2, 4, 0, 1]}",
    "{type: model, kind: artin_schreier, q: 2, f: [0, 1, 0, 0, 0, 1]}",
]


class TestReductionRule:
    def test_gcd_only_where_no_factorization_is_known(self, tmp_path, monkeypatch):
        # every zeta is reduced by its known factors: the one poly_gcd left on
        # a CLI path is the square-free split of a root finder's input
        callers = []
        gcd = exact.poly_gcd

        def counting(a, b):
            callers.append(sys._getframe(1).f_code.co_name)
            return gcd(a, b)

        for name, module in list(sys.modules.items()):
            if name.startswith("curvezeta") and getattr(module, "poly_gcd", None) is gcd:
                monkeypatch.setattr(module, "poly_gcd", counting)
        jobs = [DATA / "criterion10_job.yaml", DATA / "square_q_genus2_job.yaml"]
        for i, source in enumerate(SWEEP_SHAPED):
            jobs.append(tmp_path / f"sweep{i}.yaml")
            jobs[-1].write_text(f"curves:\n  - {source}\nranks: [2]\ntasks: [{', '.join(TASKS)}]\n")
        for path in jobs:
            clear_caches()  # as in a fresh process
            code, _ = run(parse_job(path))
            assert code == 0, path.name
        clear_caches()
        assert callers and set(callers) == {"squarefree_decomposition"}


class TestDeterminism:
    def test_byte_identical_reports(self, jobfile):
        job1 = parse_job(jobfile)
        job2 = parse_job(jobfile)
        _, t1 = run(job1)
        _, t2 = run(job2)
        assert render(t1, "json") == render(t2, "json")
        assert render(t1, "csv") == render(t2, "csv")

    def test_criterion_10_report_matches_recorded_bytes(self):
        """The criterion-10 job's report.json, floats masked, as recorded in tests/data."""
        job = parse_job(DATA / "criterion10_job.yaml")
        code, tree = run(job)
        assert code == 0
        text = render(tree, job.fmt)["report.json"]
        assert mask_floats(text) == (DATA / "criterion10_report.masked.json").read_text()

    def test_slr_rank_cap_report_matches_recorded_bytes(self, tmp_path):
        """`slr --rank 10` on the q = 2 elliptic job, floats masked, as recorded in
        tests/data: the exact values of every R_n and of the numerator at the cap."""
        out = tmp_path / "r10"
        job = DATA / "elliptic_q2_job.yaml"
        assert main(["slr", str(job), "--rank", str(R_MAX), "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert mask_floats(text) == (DATA / "slr_rank10_report.masked.json").read_text()

    def test_slr_zero_residue_report_matches_recorded_bytes(self, tmp_path):
        """`slr --rank 10` on a datum with zh(1) = 0, floats masked, as recorded in
        tests/data: R_2..R_9 vanish, and no route divides by zh(1)."""
        out = tmp_path / "r10"
        job = DATA / "zero_residue_job.yaml"
        assert main(["slr", str(job), "--rank", str(R_MAX), "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert mask_floats(text) == (DATA / "slr_zero_residue_rank10_report.masked.json").read_text()

    def test_square_q_genus2_report_matches_recorded_bytes(self):
        """Two genus-two curves over the square fields F_9 and F_4, all seven
        tasks at ranks 2 and 3, floats masked, as recorded in tests/data: zeta2
        reduces by 1 - sqrt(q) t and 1 + sqrt(q) t where 1 - qt^2 splits."""
        job = parse_job(DATA / "square_q_genus2_job.yaml")
        code, tree = run(job)
        assert code == 0
        text = render(tree, job.fmt)["report.json"]
        assert mask_floats(text) == (DATA / "square_q_genus2_report.masked.json").read_text()

    def test_square_q_genus2_mass_report_matches_recorded_bytes(self, tmp_path):
        """`mass --rank 10 --degree 7` on the genus-two square-q job, floats masked,
        as recorded in tests/data: at genus two the (g - 1) cross term of the
        Harder-Narasimhan exponent is live, and 7 is prime to every rank but 1 and 7."""
        out = tmp_path / "m10"
        job = DATA / "square_q_genus2_job.yaml"
        assert main(["mass", str(job), "--rank", str(R_MAX), "--degree", "7", "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert mask_floats(text) == (DATA / "square_q_genus2_mass_rank10_degree7_report.masked.json").read_text()

    def test_zeros_csv_emitted(self, full_tree):
        _, tree = full_tree
        files = render(tree, "json")
        assert "zeros.csv" in files
        header, *rows = list(csv.reader(io.StringIO(files["zeros.csv"])))
        assert header == ["curve", "object", "value", "modulus", "deviation"]
        assert rows and all(len(row) == len(header) for row in rows)

    def test_csv_label_with_comma_and_quote_reads_back(self, tmp_path):
        # a label is one quoted CSV field, an embedded quote doubled; a model's
        # label is also a value, under the census key of the meta section
        path = tmp_path / "label.yaml"
        path.write_text(
            "curves:\n  - {type: coefficients, q: 2, g: 1, A: [1, 0, 2], genuine: true, label: 'a,\"b'}\n"
            "  - {type: model, kind: quadratic, q: 3, f: [1, 2, 0, 1], label: 'm,\"x'}\n"
            "tasks: [artin, rh-report]\n"
        )
        _, tree = run(parse_job(path))
        files = render(tree, "csv")
        assert files == report_reference.render(tree, "csv")
        header, *rows = list(csv.reader(io.StringIO(files["report.csv"])))
        reports = [row for row in rows if row[0] != "meta"]
        assert header == ["section", "key", "value"] and all(len(row) == 3 for row in rows)
        assert {row[0] for row in reports} == {'a,"b|artin', 'a,"b|rh-report', 'm,"x|artin', 'm,"x|rh-report'}
        assert ["meta", "census[0].model", 'm,"x'] in rows
        header, *zeros = list(csv.reader(io.StringIO(files["zeros.csv"])))
        assert zeros and all(len(row) == len(header) and row[0] in ('a,"b', 'm,"x') for row in zeros)

    def test_csv_values_quoted_only_when_needed(self):
        assert [cli._csv_value(v) for v in ("1/2", "a b", "a,b", 'a"b', "a\nb", "a\rb")] == [
            "1/2",
            "a b",
            '"a,b"',
            '"a""b"',
            '"a\nb"',
            '"a\rb"',
        ]


class TestFmtNumber:
    @pytest.mark.parametrize(
        "x, text",
        [
            (-0.0, "0.000000000000e+00"),
            (0.0, "0.000000000000e+00"),
            (-1.5, "-1.500000000000e+00"),
            (complex(-0.0, 1.0), "0.000000000000e+00+1.000000000000e+00j"),
            (complex(1.0, -0.0), "1.000000000000e+00+0.000000000000e+00j"),
            (complex(-2.0, -1.0), "-2.000000000000e+00-1.000000000000e+00j"),
        ],
    )
    def test_no_negative_zero(self, x, text):
        assert cli._fmt_number(x) == text

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_beyond_the_digit_limit(self, sign):
        # 10^5000 + 1 has more digits than int.__str__ converts by default;
        # its zeros also fill the low half of the split
        text = sign + "1" + "0" * 4999 + "1"
        n = (-1 if sign else 1) * (10**5000 + 1)
        assert cli._fmt_number(n) == text
        assert cli._fmt_number(Fraction(n, 3)) == text + "/3"
        assert cli._fmt_number(Fraction(3, 10**5000 + 1)) == "3/" + text.lstrip("-")
        out: list[str] = []
        cli._emit([n], "", out)
        assert "".join(out) == f"[\n  {text}\n]"

    @pytest.mark.parametrize(
        "n", [3**20000, -(7**9000), 2**65536 - 1, 10**8600], ids=["3^20000", "-7^9000", "2^65536-1", "10^8600"]
    )
    def test_large_integer_digits_read_back(self, n):
        text = cli._fmt_number(n)
        digits = text.lstrip("-")
        assert digits[0] != "0" and text.startswith("-") == (n < 0)
        value = 0
        for i in range(0, len(digits), 1000):  # 1000 digits at a time, below the limit
            chunk = digits[i : i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert (-value if n < 0 else value) == n


class TestLoaders:
    def test_libyaml_used_when_present(self):
        assert cli._LOADER.__mro__[1] is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

    def test_criterion_10_job_same_under_both_loaders(self, monkeypatch):
        path = DATA / "criterion10_job.yaml"
        job = parse_job(path)
        monkeypatch.setattr(cli, "_LOADER", PURE_LOADER)
        pure = parse_job(path)
        assert pure == job
        _, tree = run(job)
        _, pure_tree = run(pure)
        for fmt in ("json", "csv"):
            assert render(pure_tree, fmt) == render(tree, fmt)

    @pytest.mark.parametrize("body, field", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_bad_value_exits_two_under_pure_loader(self, tmp_path, monkeypatch, capsys, body, field):
        monkeypatch.setattr(cli, "_LOADER", PURE_LOADER)
        path = tmp_path / "bad.yaml"
        path.write_text(body)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "set_int_max_str_digits" not in err


# str keys and leaves with quotes, backslashes, control and non-ASCII characters
_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t", "é\u2028", "😀"])
# integers past the 4300 digits that str() converts (built here, since
# hypothesis cannot repr them as strategy arguments)
_HUGE = st.builds(lambda k, sign: sign * (10**k + 7), st.integers(4400, 5000), st.sampled_from([1, -1]))
_FRACTIONS = st.fractions() | st.builds(Fraction, _HUGE, st.sampled_from([1, 3]) | _HUGE.map(abs))
_COMPLEX = st.complex_numbers()
_FLOAT_TUPLES = st.lists(st.floats(), max_size=3).map(tuple)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1])
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | _TEXT
    | _FRACTIONS
    | _COMPLEX
    | st.builds(
        exact.ZeroReport,
        zeros=st.lists(_COMPLEX, max_size=3).map(tuple),
        critical_modulus=st.floats(),
        deviations=_FLOAT_TUPLES,
        verdict=st.booleans(),
        tol=st.floats(),
        excluded=st.lists(_COMPLEX, max_size=2).map(tuple),
    )
    | st.builds(
        RationalFunction,
        st.lists(st.fractions(max_denominator=50), max_size=4),
        st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any),
    )
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=40,
)


# every job in tests/data that loads, run as written, and the zero-residue job's
# mass rows at rank 10, whose ratios are null
_REFUSED = ("elliptic_q10pow4515p7_job.yaml", "elliptic_q2pow89m1_job.yaml", "misspelled_field_job.yaml")
DATA_RUNS = [(p.name, None) for p in sorted(DATA.glob("*.yaml")) if p.name not in _REFUSED]
DATA_RUNS.append(("zero_residue_job.yaml", 10))


class TestEmitter:
    """The report files are written straight from run's tree of raw results;
    they must have the bytes of the replaced route: report.json json.dumps's
    of the converted tree (tests/report_reference.py), report.csv its rows."""

    @given(tree=_TREES)
    @example(tree={"b": [True, 1, False, 0, None], "a": {}, "": [], "t": (), "f": 0.1, "n": -(10**30)})
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, tree):
        out: list[str] = []
        cli._emit(tree, "", out)
        assert "".join(out) == json.dumps(report_reference.jsonable(tree), indent=2, sort_keys=True)

    @given(tree=_TREES)
    @example(tree={"b": [True, 1, False, 0, None], "a": {}, "": [], "t": (), "f": 0.1, "n": -(10**30)})
    @settings(max_examples=300, deadline=None)
    def test_csv_rows_match_reference(self, tree):
        rows: list[tuple[str, str]] = []
        cli._flatten("", tree, rows)
        assert rows == report_reference.csv_rows(tree)

    def test_real_reports(self, full_tree):
        job = parse_job(DATA / "criterion10_job.yaml")
        for _, tree in (run(job), full_tree):
            for fmt in ("json", "csv"):
                assert render(tree, fmt) == report_reference.render(tree, fmt)

    @pytest.mark.parametrize("name, rank", DATA_RUNS, ids=[f"{n}-r{r}" if r else n for n, r in DATA_RUNS])
    def test_data_jobs_match_reference(self, name, rank):
        # a null leaf is written null in report.csv, never as Python's None
        job = parse_job(DATA / name, argparse.Namespace(rank=rank))
        tasks = ["mass"] if rank else None
        _, tree = run(job, tasks)
        assert render(tree, "json") == report_reference.render(tree, "json")
        files = render(tree, "csv")
        assert files == report_reference.render(tree, "csv")
        assert all("None" not in line.split(",") for line in files["report.csv"].splitlines())

    # a bare object()'s repr holds its address, which would change the case's name on every run
    @pytest.mark.parametrize(
        "leaf",
        [object(), Decimal("1.5"), {1, 2}, b"x", exact.Poly([1, 2])],
        ids=lambda leaf: "object()" if type(leaf) is object else repr(leaf),
    )
    def test_unknown_leaf_raises(self, leaf):
        # a leaf the formatter has no text for is an error, not a silent null
        with pytest.raises(TypeError):
            cli._fmt_number(leaf)
        for fmt in ("json", "csv"):
            with pytest.raises(TypeError):
                render({"reports": [], "x": [leaf]}, fmt)


_JUNK = st.sampled_from(["x", "1/0", True, 1.5, None, [], {}])


def _mostly(valid: st.SearchStrategy, invalid: st.SearchStrategy = _JUNK) -> st.SearchStrategy:
    """valid values about nine times in ten, invalid ones otherwise."""
    return st.sampled_from([valid] * 9 + [invalid]).flatmap(lambda chosen: chosen)


@st.composite
def _curve_sources(draw) -> dict:
    """A curve source of every type, valid or not: sizes kept small, a field
    sometimes missing, of the wrong type or unknown to its type."""
    kind = draw(_mostly(st.sampled_from(["elliptic", "coefficients", "counts", "model"]), st.just("nope")))
    q = draw(_mostly(st.sampled_from([2, 3, 4, 5, 9, 1000003]), st.just(6)))  # 6 is no prime power
    if kind == "elliptic":
        src = {"q": q, "a": draw(st.integers(-2, 2))}
    elif kind == "coefficients":
        g = draw(st.integers(0, 3))
        size = 2 * g + draw(_mostly(st.just(0), st.sampled_from([-1, 1])))
        A = [draw(_mostly(st.just(1)))] + draw(st.lists(st.integers(-3, 3), min_size=max(size, 0), max_size=max(size, 0)))
        src = {"q": q, "g": g, "A": A, "genuine": draw(_mostly(st.just(False), st.just(True)))}
    elif kind == "counts":
        g = draw(st.integers(0, 2))
        src = {"q": q, "g": g, "counts": draw(st.lists(st.integers(0, 30), min_size=g, max_size=g))}
    elif kind == "model":
        model = draw(_mostly(st.sampled_from(["quadratic", "artin_schreier", "projective_line"]), st.just("nope")))
        f = draw(st.lists(st.integers(0, 4), max_size=6))
        src = {"kind": model, "q": draw(st.sampled_from([2, 3, 5, 7, 9])), "f": f}
    else:
        src = {"q": q}
    src = {"type": kind, **src}
    change = draw(_mostly(st.just("keep"), st.sampled_from(["drop", "junk", "unknown"])))
    if change == "unknown":
        src["colour"] = "red"
    elif change != "keep":
        key = draw(st.sampled_from(sorted(src)))
        src[key] = draw(_JUNK)
        if change == "drop":
            del src[key]
    return src


@st.composite
def _cli_cases(draw) -> tuple[dict, list[str]]:
    """(job tree, subcommand and options) for cli.main, valid and invalid."""
    job = draw(
        st.fixed_dictionaries(
            {"curves": _mostly(st.lists(_curve_sources(), min_size=1, max_size=2), _JUNK | st.just([]))},
            optional={
                "ranks": _mostly(st.lists(st.integers(2, 4), min_size=1, max_size=2), st.just([1])),
                "tasks": _mostly(
                    st.lists(st.sampled_from(TASKS), min_size=1, max_size=3, unique=True), st.just(["nope"])
                ),
                "degree": _mostly(st.integers(-2, 3)),
                "tolerance": _mostly(st.sampled_from([1e-9, 1e-6]), st.sampled_from([0, -1, "abc", math.inf])),
                "format": _mostly(st.sampled_from(["json", "csv"]), st.just("xml")),
            },
        )
    )
    command = draw(st.sampled_from(["run", *TASKS]))
    args = [command]
    if command in ("slr", "mass") and draw(st.booleans()):
        args += ["--rank", str(draw(_mostly(st.integers(2, 4), st.integers(0, 1))))]
    if command == "mass" and draw(st.booleans()):
        args += ["--degree", str(draw(st.integers(-2, 3)))]
    if draw(st.booleans()):
        args += ["--tolerance", draw(_mostly(st.just("1e-9"), st.sampled_from(["0", "nan"])))]
    if draw(st.booleans()):
        args += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return job, args


class TestExitCodeContract:
    """Whatever the job, main returns 0, 1 or 2 and raises nothing; exit 2
    writes no report, and exits 0 and 1 write one in the chosen format."""

    @given(case=_cli_cases())
    @example(
        case=(
            {"curves": [{"type": "coefficients", "q": 3, "g": 1, "A": [1, 0, 0]}], "tasks": ["artin", "rh-report"]},
            ["run"],
        )
    )
    @example(case=({"curves": [{"type": "coefficients", "q": 5, "g": 1, "A": ["1/0", 0, 5]}]}, ["run"]))
    @settings(max_examples=100, deadline=None)
    def test_exit_codes(self, case):
        job, args = case
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "job.yaml", Path(tmp) / "out"
            path.write_text(yaml.safe_dump(job))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*args, str(path), "--out", str(out)])
            event(f"exit {code}")
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert not out.exists()
            else:
                fmt = args[args.index("--format") + 1] if "--format" in args else job.get("format", "json")
                assert sorted(p.name for p in out.glob("report.*")) == [f"report.{fmt}"]


class TestMain:
    def test_end_to_end(self, jobfile, tmp_path, capsys):
        code = main(["run", str(jobfile), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tasks"] == [
            "artin",
            "invariants",
            "rank2",
            "slr",
            "mass",
            "yoshida",
            "rh-report",
        ]

    def test_single_task_subcommand(self, jobfile, capsys):
        code = main(["artin", str(jobfile)])
        assert code == 0
        out = capsys.readouterr().out
        tree = json.loads(out)
        assert {r["task"] for r in tree["reports"]} == {"artin"}

    @pytest.mark.parametrize(
        "flag", [["--tolerance", "0.5"], ["--format", "csv"], ["--out", "OUT"]], ids=lambda f: f[0]
    )
    def test_flag_before_subcommand_exits_two(self, tmp_path, capsys, flag):
        # options follow the subcommand: before it, the subcommand's default would overwrite them
        out = tmp_path / "out"
        flag = [str(out) if arg == "OUT" else arg for arg in flag]
        with pytest.raises(SystemExit) as exit_info:
            main([*flag, "run", str(DATA / "elliptic_q2_job.yaml"), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage: curvezeta" in err and "invalid choice" not in err
        assert f"options follow the subcommand, e.g. curvezeta run job.yaml {flag[0]} ..." in err
        assert not out.exists()

    def test_bad_job_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("curves: []\n")
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("body, field", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_bad_value_exits_two(self, tmp_path, capsys, body, field):
        path = tmp_path / "bad.yaml"
        path.write_text(body)
        with pytest.raises(JobError, match=re.escape(field)):
            parse_job(path)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("value", ["inf", "-1", "nan", "0"])
    def test_bad_tolerance_flag_exits_two(self, jobfile, capsys, value):
        # a valid job file with a bad option: the option is named, not the file
        assert main(["run", str(jobfile), "--tolerance", value]) == 2
        err = capsys.readouterr().err
        assert "invalid command-line option:\n  --tolerance: need a finite number > 0" in err
        assert "invalid job file" not in err

    @pytest.mark.parametrize(
        "command, rank",
        [("slr", 0), ("slr", 1), ("slr", -2), ("slr", R_MAX + 1), ("mass", R_MAX + 1)],
    )
    def test_bad_rank_flag_exits_two(self, tmp_path, capsys, command, rank):
        out = tmp_path / "out"
        job = str(DATA / "criterion10_job.yaml")
        assert main([command, job, f"--rank={rank}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"invalid command-line option:\n  --rank: need an integer between 2 and {R_MAX}, got {rank}" in err
        assert "invalid job file" not in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_file_and_bad_option_under_own_headers(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("curves:\n  - {type: elliptic, q: 2, a: 0}\ndegree: x\n")
        assert main(["slr", str(path), "--rank", "1"]) == 2
        assert capsys.readouterr().err == (
            "invalid job file:\n  degree: need an integer, got 'x'\n"
            f"invalid command-line option:\n  --rank: need an integer between 2 and {R_MAX}, got 1\n"
        )

    @pytest.mark.parametrize("where", ["existing file", "under a file"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker if where == "existing file" else blocker / "sub"
        assert main(["artin", str(DATA / "elliptic_q2_job.yaml"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write reports to {out}: ")
        assert "Traceback" not in err
        assert blocker.read_text() == ""

    def test_rank_flag_above_six(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["slr", str(DATA / "elliptic_q2_job.yaml"), "--rank", "8", "--out", str(out)]) == 0
        (report,) = json.loads((out / "report.json").read_text())["reports"]
        assert sorted(report["data"]) == ["r8"]
        assert report["checks"] == {"functional_equation_r8": True}

    def test_mass_rank_flag_asserts_every_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["mass", str(DATA / "elliptic_q2_job.yaml"), "--rank", "8", "--out", str(out)]) == 0
        (report,) = json.loads((out / "report.json").read_text())["reports"]
        ranks = [f"r{r}" for r in range(1, 9)]
        assert list(report["data"]["beta_at_degree"]) == ranks
        assert report["checks"] == {
            **{f"mass_agreement_{r}": True for r in ranks},
            "mass_beta0_r1": True,
            "mass_series_r2": True,
        }

    def test_rank_flag_replaces_job_ranks(self, capsys):
        assert main(["slr", str(DATA / "criterion10_job.yaml"), "--rank", "3"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert [sorted(r["data"]) for r in tree["reports"]] == [["r3"]] * 4

    def test_counterexample_flag(self, tmp_path, capsys):
        path = tmp_path / "one.yaml"
        path.write_text("curves:\n  - {type: elliptic, q: 2, a: 0}\n")
        code = main(["yoshida", str(path), "--counterexample"])
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        data = tree["reports"][0]["data"]
        assert data["counterexample"]["found"] is True
        assert data["counterexample"]["m"] <= 64

    def test_csv_format_flag(self, jobfile, capsys):
        code = main(["mass", str(jobfile), "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("section,key,value")
