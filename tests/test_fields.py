"""Finite-field construction and naive point counting."""

import pytest

from curvezeta.artin import counts_from_numerator, numerator_from_counts
from curvezeta.corpus import census_models
from curvezeta.fields import (
    CurveModel,
    build_field,
    census,
    count_points,
)


def brute_force_count(model: CurveModel, m: int) -> int:
    """Independent oracle: enumerate (x, y) pairs and test the equation."""
    fld = build_field(model.q, m)
    total = 1
    for x in fld.elements():
        z = fld.eval_prime_poly(model.f, x)
        for y in fld.elements():
            if model.kind == "quadratic":
                lhs = fld.mul(y, y)
            else:
                lhs = fld.add(fld.mul(y, y), y)
            if lhs == z:
                total += 1
    return total


class TestBuildField:
    def test_smallest_moduli(self):
        assert build_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
        assert build_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
        assert build_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            build_field(4, 1)

    def test_rejects_oversized_field(self):
        with pytest.raises(ValueError):
            build_field(2, 21)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 2), (5, 2), (2, 10)])
    def test_multiplicative_order_divides_group(self, p, m):
        fld = build_field(p, m)
        one = fld.one()
        for x in fld.elements():
            if not fld.is_zero(x):
                assert fld.pow(x, fld.size - 1) == one

    def test_trace_is_additive_and_onto(self):
        fld = build_field(2, 3)
        values = {fld.trace(x) for x in fld.elements()}
        assert values == {0, 1}


class TestCountPoints:
    def test_projective_line(self):
        model = CurveModel("projective_line", 2)
        assert count_points(model, 1) == 3
        assert count_points(model, 4) == 17

    def test_binary_cubic(self):
        model = CurveModel("artin_schreier", 2, (0, 0, 0, 1))
        assert count_points(model, 1) == 3
        assert count_points(model, 2) == 9

    def test_binary_quintic(self):
        model = CurveModel("artin_schreier", 2, (0, 0, 0, 0, 0, 1))
        assert count_points(model, 1) == 3
        assert count_points(model, 2) == 5

    @pytest.mark.parametrize("model", census_models(), ids=lambda m: m.describe())
    def test_character_count_matches_brute_force(self, model):
        if model.kind == "projective_line":
            pytest.skip("nothing to enumerate")
        for m in (1, 2):
            assert count_points(model, m) == brute_force_count(model, m)

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            CurveModel("artin_schreier", 2, (0, 0, 1))

    def test_non_squarefree_rejected(self):
        # x^3 + 2x^2 + x = x (x+1)^2 over F_3
        with pytest.raises(ValueError):
            CurveModel("quadratic", 3, (0, 1, 2, 1))

    def test_quadratic_needs_odd_characteristic(self):
        with pytest.raises(ValueError):
            CurveModel("quadratic", 2, (0, 0, 0, 1))


class TestCensus:
    def test_genus_zero_needs_no_counts(self):
        rows = census([CurveModel("projective_line", 3)])
        assert rows[0][1] == []

    def test_cubic_and_quintic_rows(self):
        rows = census(
            [
                CurveModel("artin_schreier", 2, (0, 0, 0, 1)),
                CurveModel("artin_schreier", 2, (0, 0, 0, 0, 0, 1)),
            ]
        )
        assert rows[0][1] == [3]
        assert rows[1][1] == [3, 5]

    @pytest.mark.parametrize("model", census_models(), ids=lambda m: m.describe())
    def test_weil_bound(self, model):
        g = model.genus
        for m in range(1, max(2 * g, 1) + 1):
            n = count_points(model, m)
            q_m = model.q**m
            assert abs(n - (q_m + 1)) <= 2 * g * q_m**0.5 + 1e-9

    @pytest.mark.parametrize("model", census_models(), ids=lambda m: m.describe())
    def test_counts_roundtrip_through_numerator(self, model):
        if model.genus == 0:
            return
        [(_, counts)] = census([model])
        c = numerator_from_counts(model.q, model.genus, counts)
        for m in range(1, 2 * c.g + 1):
            assert counts_from_numerator(c, m) == count_points(model, m)
