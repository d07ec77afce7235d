"""The standard verification corpus: census models and synthetic fixtures.

The census list covers both characteristics and genus 0..2 with explicit
models; the elliptic grid spans every admissible Frobenius trace for
q in {2, 3, 4, 5}; one synthetic palindromic genus-3 datum exercises the
code paths the census cannot reach at desk scale.
"""

from __future__ import annotations

from curvezeta.artin import CurveData, numerator_from_counts
from curvezeta.fields import CurveModel, census


def census_models() -> list[CurveModel]:
    """Explicit models: two projective lines, three binary curves, six cubics."""
    return [
        CurveModel("projective_line", 2, label="P1/F2"),
        CurveModel("projective_line", 3, label="P1/F3"),
        CurveModel("artin_schreier", 2, (0, 0, 0, 1), label="y^2+y=x^3/F2"),
        CurveModel("artin_schreier", 2, (1, 1, 0, 1), label="y^2+y=x^3+x+1/F2"),
        CurveModel("artin_schreier", 2, (0, 0, 0, 0, 0, 1), label="y^2+y=x^5/F2"),
        CurveModel("quadratic", 3, (0, 2, 0, 1), label="y^2=x^3-x/F3"),
        CurveModel("quadratic", 3, (0, 1, 0, 1), label="y^2=x^3+x/F3"),
        CurveModel("quadratic", 3, (1, 2, 0, 1), label="y^2=x^3+2x+1/F3"),
        CurveModel("quadratic", 5, (0, 1, 0, 1), label="y^2=x^3+x/F5"),
        CurveModel("quadratic", 5, (1, 1, 0, 1), label="y^2=x^3+x+1/F5"),
        CurveModel("quadratic", 5, (2, 4, 0, 1), label="y^2=x^3+4x+2/F5"),
    ]


def census_curves() -> list[CurveData]:
    """The census models as genuine curve data, labelled by their equations."""
    return [
        numerator_from_counts(model.q, model.genus, counts, model.describe())
        for model, counts in census(census_models())
    ]


def elliptic_grid() -> list[CurveData]:
    """Every (q, a) with q in {2, 3, 4, 5} and a^2 <= 4q."""
    out = []
    for q in (2, 3, 4, 5):
        bound = int((4 * q) ** 0.5)
        for a in range(-bound, bound + 1):
            out.append(CurveData.elliptic(q, a))
    return out


def synthetic_genus3() -> CurveData:
    """A palindromic integer datum of genus 3 (not from a model)."""
    return CurveData(2, 3, [1, 1, 2, 6, 4, 4, 8], label="synthetic-g3(q=2)")


def corpus_curves(include_genus0: bool = False) -> list[CurveData]:
    """The full corpus; genus-0 entries only matter for the census layer."""
    curves = [c for c in census_curves() if include_genus0 or c.g >= 1]
    seen = {(c.q, c.A) for c in curves}
    for c in elliptic_grid():
        if (c.q, c.A) not in seen:
            seen.add((c.q, c.A))
            curves.append(c)
    curves.append(synthetic_genus3())
    return curves
