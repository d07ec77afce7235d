"""Mass formulas: composition telescope vs Harder-Narasimhan sum."""

from fractions import Fraction

import pytest

from curvezeta.artin import CurveData, zeta_plain
from curvezeta.invariants import beta0
from curvezeta.mass import (
    beta_composition_formula,
    beta_crosscheck,
    beta_hn_mass,
    compositions,
)
from curvezeta.rank2 import rank2_invariants

F = Fraction


class TestCompositions:
    def test_count(self):
        for r in range(1, 7):
            assert len(list(compositions(r))) == 2 ** (r - 1)

    def test_parts_sum(self):
        for parts in compositions(5):
            assert sum(parts) == 5 and min(parts) >= 1


class TestCompositionFormula:
    def test_rank_one_is_beta0(self, corpus):
        for c in corpus:
            if c.g >= 1:
                assert beta_composition_formula(c, 1) == beta0(c), c.describe()

    def test_rank_two_g1(self, curve_g1):
        # compositions (2) and (1,1): 3*3 - 9/(4-1)
        assert beta_composition_formula(curve_g1, 2) == 6

    def test_rank_two_g2(self, curve_g2):
        # 2 * (5 * 65/6 - 25/3)
        assert beta_composition_formula(curve_g2, 2) == F(275, 3)

    def test_rank_three_g1(self, curve_g1):
        # hand telescope: 99/7 - 27/7 - 27/7 + 3
        assert beta_composition_formula(curve_g1, 3) == F(66, 7)


class TestHnMass:
    def test_v1_block_is_beta0(self, curve_g1):
        assert beta_hn_mass(curve_g1, 1, 0) == 3
        assert beta_hn_mass(curve_g1, 1, 17) == 3  # degree drops out at rank one

    def test_rank_two_degree_zero(self, curve_g1):
        # 9 + 9/(1 - 4)
        assert beta_hn_mass(curve_g1, 2, 0) == 6

    def test_degree_periodicity(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            for r in (2, 3):
                for d in range(r):
                    assert beta_hn_mass(c, r, d) == beta_hn_mass(c, r, d + r), c.describe()
                    assert beta_hn_mass(c, r, d) == beta_hn_mass(c, r, d - r)

    def test_agrees_with_composition_formula(self, curve_g1, curve_g2, corpus):
        # exact at every rank the package covers, beyond the r <= 3 that beta_crosscheck asserts
        for c in [curve_g1, curve_g2, *corpus]:
            if c.g < 1:
                continue
            for r in range(1, 7):
                assert beta_hn_mass(c, r, 0) == beta_composition_formula(c, r), (
                    c.describe(),
                    r,
                )

    def test_block_exponent_is_n_squared(self, curve_g2):
        # the discriminating genus-two check: the literal rank-level
        # exponent in the v_n block would break the rank-two agreement
        q, g = F(2), 2
        h = curve_g2.class_number
        v1_good = h / (q - 1)
        v1_literal = h / (q - 1) * q ** (3 * (g - 1))  # (r^2-1)(g-1) with r=2
        v2 = h / (q - 1) * q ** (3 * (g - 1)) * zeta_plain(curve_g2, 2)
        target = beta_composition_formula(curve_g2, 2)
        good = v2 + q ** (g - 1) * v1_good**2 / (1 - q**2)
        literal = v2 + q ** (g - 1) * v1_literal**2 / (1 - q**2)
        assert good == target
        assert literal != target

    def test_positive_masses(self, corpus):
        for c in corpus:
            if c.genuine and c.g >= 1:
                for r in (1, 2, 3):
                    assert beta_composition_formula(c, r) > 0, c.describe()


class TestCrosscheck:
    def test_g1_table(self, curve_g1):
        out = beta_crosscheck(curve_g1, 6)
        rows = out["rows"]
        assert rows[0]["composition"] == 3
        assert rows[1]["composition"] == 6
        assert rows[1]["series_value"] == 6
        assert rows[1]["special_value_variant"] == 0  # flagged, not asserted
        assert [row["r"] for row in rows] == [1, 2, 3, 4, 5, 6]
        assert all(row["agree"] and row["ratio"] == 1 for row in rows)
        assert rows[0]["composition"] == rows[0]["beta0"]

    def test_g2_table(self, curve_g2):
        rows = beta_crosscheck(curve_g2, 6)["rows"]
        assert [row["r"] for row in rows] == [1, 2, 3, 4, 5, 6]
        assert all(row["agree"] and row["ratio"] == 1 for row in rows)
        assert rows[0]["composition"] == rows[0]["beta0"]
        assert rows[1]["composition"] == rows[1]["series_value"]

    def test_rank_two_matches_series_route(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            assert beta_composition_formula(c, 2) == rank2_invariants(c).beta0, c.describe()

    def test_rank_four_reported(self, curve_g1):
        out = beta_crosscheck(curve_g1, 4)
        assert len(out["rows"]) == 4
        assert "ratio" in out["rows"][3]
        assert out["rows"][3]["agree"]


class TestHnMassExact:
    """beta_r(d) for r = 1..6 and d in [-r, 2r) on the fixture curves."""

    @pytest.fixture
    def fixtures(self, curve_g1, curve_g2):
        return [curve_g1, curve_g2]

    def test_exact_fraction(self, fixtures):
        for c in fixtures:
            for r in range(1, 7):
                for d in range(-r, 2 * r):
                    assert type(beta_hn_mass(c, r, d)) is Fraction, (c.describe(), r, d)

    def test_twist_and_duality(self, fixtures):
        # tensoring by a degree-one line bundle shifts d by r; duality sends d to -d
        for c in fixtures:
            for r in range(1, 7):
                for d in range(-r, 2 * r):
                    value = beta_hn_mass(c, r, d)
                    assert value == beta_hn_mass(c, r, d + r), (c.describe(), r, d)
                    assert value == beta_hn_mass(c, r, -d), (c.describe(), r, d)

    def test_rank_one_is_class_count(self, fixtures):
        for c in fixtures:
            for d in range(-1, 2):
                assert beta_hn_mass(c, 1, d) == c.class_number / (c.q - 1)

    def test_non_divisible_degrees_exact(self):
        # these came out as the floats 3.0, 3.0 and 6.0 while each fractional
        # q-power was applied on its own
        c = CurveData.elliptic(2, 0)
        assert [beta_hn_mass(c, r, d) for r, d in [(3, 1), (3, 2), (4, 2)]] == [3, 3, 6]
