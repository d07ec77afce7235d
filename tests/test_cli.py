"""CLI: job parsing, task execution, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from curvezeta.cli import JobError, main, parse_job, render, run

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(JobError):
            parse_job(tmp_path / "nope.yaml")

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
        assert artin["data"]["A"] == ["1", "0", "2"]
        assert artin["data"]["counts"][0] == 3
        inv = by_key[("counts(q=2,N=[3, 5])", "invariants")]
        assert inv["data"]["alpha"] == ["1", "3"]
        assert inv["data"]["beta0"] == "5"
        rank2 = by_key[("elliptic(q=2,a=0)", "rank2")]
        assert rank2["data"]["numerator_X"] == ["2", "1", "2"]
        assert rank2["data"]["beta0"] == "6"

    def test_failing_identity_sets_exit_code(self, tmp_path):
        path = tmp_path / "asym.yaml"
        path.write_text(
            "curves:\n  - {type: coefficients, q: 2, g: 1, A: [1, 1, 1]}\ntasks: [artin]\n"
        )
        code, tree = run(parse_job(path))
        assert code == 1
        checks = tree["reports"][0]["checks"]
        assert not checks["coefficient_symmetry"]


class TestDeterminism:
    def test_byte_identical_reports(self, jobfile):
        job1 = parse_job(jobfile)
        job2 = parse_job(jobfile)
        _, t1 = run(job1)
        _, t2 = run(job2)
        assert render(t1, "json") == render(t2, "json")
        assert render(t1, "csv") == render(t2, "csv")

    def test_zeros_csv_emitted(self, full_tree):
        _, tree = full_tree
        files = render(tree, "json")
        assert "zeros.csv" in files
        header = files["zeros.csv"].splitlines()[0]
        assert header == "curve,object,re,im,modulus,deviation"


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

    def test_bad_job_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("curves: []\n")
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize(
        "body, field",
        [
            ("curves:\n  - {type: elliptic, q: 6, a: 0}\n", "curves[0]"),
            ("curves:\n  - {type: coefficients, q: 6, g: 1, A: [1, 0, 6]}\n", "curves[0]"),
            ("curves:\n  - {type: counts, q: 6, g: 1, counts: [7]}\n", "curves[0]"),
            ("curves:\n  - {type: elliptic, q: 2, a: 0}\ntolerance: abc\n", "tolerance"),
            ("curves:\n  - {type: elliptic, q: 2, a: 0}\ndegree: x\n", "degree"),
        ],
        ids=["elliptic-q6", "coefficients-q6", "counts-q6", "tolerance-abc", "degree-x"],
    )
    def test_bad_value_exits_two(self, tmp_path, capsys, body, field):
        path = tmp_path / "bad.yaml"
        path.write_text(body)
        with pytest.raises(JobError, match=field.replace("[", r"\[")):
            parse_job(path)
        assert main(["run", str(path)]) == 2
        assert field in capsys.readouterr().err

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
