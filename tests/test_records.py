"""The package's record types: plain classes and namedtuples, which keep the
equality, hashing, validation and import cost the reports rely on."""

import os
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest
import yaml

from curvezeta import cli
from curvezeta.artin import CurveData
from curvezeta.exact import ZeroReport, _FactoredTerm
from curvezeta.fields import CurveModel
from curvezeta.group_zeta import SlrZeta, slr_zeta
from curvezeta.yoshida import C1Params, HalfShiftRational, zeta2_canonical

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_dataclasses_or_typing():
    # -S: no site module and no .pth preloads, so only curvezeta.cli's own
    # imports (and PyYAML's) reach sys.modules
    yaml_dir = os.path.dirname(os.path.dirname(yaml.__file__))
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {yaml_dir!r}]; import curvezeta.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "args, message",
    [
        (("elliptic", 5, (1, 1, 0, 1)), "unknown model kind 'elliptic'"),
        (("quadratic", True, (1, 1, 0, 1)), "q must be an integer, got True"),
        (("quadratic", "5", (1, 1, 0, 1)), "q must be an integer, got '5'"),
        (("quadratic", 5, [1, 1, 0, 1]), r"f must be a list of integers, got \[1, 1, 0, 1\]"),
        (("quadratic", 5, (1, True, 0, 1)), "f must be a list of integers"),
        (("quadratic", 5, (0.5, 1, 0, 1)), "f must be a list of integers"),
        (("quadratic", 9, (1, 1, 0, 1)), "prime base fields only"),
        (("projective_line", 4), "prime base fields only"),
        (("quadratic", 5, (1, 0, 1)), "odd-degree"),
        (("quadratic", 5, (5, 10)), "odd-degree"),
        (("quadratic", 2, (0, 0, 0, 1)), "odd characteristic"),
        (("quadratic", 3, (0, 1, 2, 1)), "squarefree"),
        (("artin_schreier", 3, (0, 1)), "characteristic 2"),
    ],
)
def test_curve_model_rejects(args, message):
    with pytest.raises(ValueError, match=message):
        CurveModel(*args)


def test_curve_model_fields():
    model = CurveModel("quadratic", 5, (1, 1, 0, 1))
    assert model == CurveModel("quadratic", 5, (1, 1, 0, 1), "")
    assert hash(model) == hash(("quadratic", 5, (1, 1, 0, 1), ""))
    assert repr(model) == "CurveModel(kind='quadratic', q=5, f=(1, 1, 0, 1), label='')"
    assert CurveModel("projective_line", 2).f == ()


@pytest.mark.parametrize(
    "a, message",
    [
        (0.5, "the exponent a must be an integer, got 0.5"),
        (1.0, "must be an integer"),
        (True, "must be an integer"),
        ("1", "must be an integer"),
        (-1, "must be nonnegative"),
    ],
)
def test_c1_params_rejects(a, message):
    with pytest.raises(ValueError, match=message):
        C1Params(a=a)


def test_c1_params_defaults():
    assert C1Params() == C1Params(1, ()) and C1Params(a=0).a == 0


def test_default_factored_terms_do_not_share_factors():
    a, b = _FactoredTerm(), _FactoredTerm()
    assert a.factors is not b.factors
    a.mul((1, -1), 1, 0, -1)
    assert a.factors == {(1, 0, (1, -1)): -1} and b.factors == {}


def test_curve_data_is_read_only():
    c = CurveData(2, 1, [1, 0, 2])
    with pytest.raises(AttributeError):
        c.q = 3
    A = "(Fraction(1, 1), Fraction(0, 1), Fraction(2, 1))"
    assert repr(c) == f"CurveData(q=2, g=1, A={A}, genuine=False, label='')"


def _record_copy_other(kind: str, c: CurveData):
    """A record, an equal copy of it, and one that differs in one field."""
    if kind == "SlrZeta":
        z = slr_zeta(c, 2)
        return z, SlrZeta(*z), z._replace(numerator_T=z.numerator_T[::-1] + (F(1),))
    if kind == "ZeroReport":
        rep = ZeroReport((0.5j, -0.5j), 0.5, (0.0, 0.0), True, 1e-9)
        return rep, ZeroReport(*rep), rep._replace(excluded=(1.0,))
    h = zeta2_canonical(c)
    return h, HalfShiftRational(*h), h._replace(q=h.q + 1)


@pytest.mark.parametrize("kind", ["SlrZeta", "ZeroReport", "HalfShiftRational"])
def test_equal_fields_share_one_cache_entry(kind, curve_g2):
    record, copy, other = _record_copy_other(kind, curve_g2)
    assert copy is not record and copy == record and hash(copy) == hash(record)
    assert other != record
    calls = []

    @lru_cache(maxsize=None)
    def seen(x):
        calls.append(x)
        return len(calls)

    assert seen(record) == seen(copy) == 1
    assert seen(other) == 2


def test_zero_report_renders_as_a_mapping():
    rep = ZeroReport((0.5j,), 0.5, (0.0,), True, 1e-9)
    assert cli._jsonable({"rh": rep}) == {
        "rh": {
            "critical_modulus": "5.000000000000e-01",
            "zeros": ["0.000000000000e+00+5.000000000000e-01j"],
            "deviations": ["0.000000000000e+00"],
            "max_deviation": "0.000000000000e+00",
            "excluded": [],
            "tolerance": "1.000000000000e-09",
            "verdict": True,
        }
    }
