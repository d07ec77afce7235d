"""Rank-two zeta: closed form, grouped numerator, extracted invariants."""

import random
from fractions import Fraction

import pytest
from ratfun_reference import RatFun

from curvezeta import rank2
from curvezeta.artin import CurveData, zeta_hat_special
from curvezeta.exact import Poly, RationalFunction
from curvezeta.invariants import alpha_from_A
from curvezeta.rank2 import (
    alpha2_zero,
    beta_from_special_values,
    closed_form_check,
    normalized_coefficients,
    numerator_check,
    pure_fe_check,
    pure_zeta,
    rank2_closed_form,
    rank2_invariants,
    rank2_numerator,
    variant_report,
)

F = Fraction


def series_oracle(c: CurveData, order: int) -> list[Fraction]:
    """Independent route: expand the two-summand form, never the closed form."""
    q, g = F(c.q), c.g
    P = c.numerator
    first = RatFun(P, Poly([1, -1]) * Poly([1, -q]) * Poly([1, -q * q]))
    second = (
        RatFun.constant(q ** -(g - 1))
        * RatFun(P.scale_arg(q), Poly([1, -q]) * Poly([1, -q * q]))
        * RatFun(Poly([0, -1]), Poly([1, -1]))
    )
    return list((first + second).series(order))


class TestClosedForm:
    def test_g1_fixture(self, curve_g1):
        assert rank2_closed_form(curve_g1) == RationalFunction([1, 1, 4], [1, -5, 4])

    def test_g2_numerator_in_X(self, curve_g2):
        # the numerator, with q^{g-1} kept aside, is N(X)/q at X = qT
        Fm = rank2_closed_form(curve_g2)
        n = rank2_numerator(curve_g2)
        half_n = Poly([v / 2 for v in n]).scale_arg(2)  # N(2T)/2
        expect = RationalFunction(half_n, F(2) * Poly([1, -1]) * Poly([1, -4]))
        assert Fm == expect

    def test_genus_zero_rejected(self):
        with pytest.raises(ValueError):
            rank2_closed_form(CurveData(2, 0, [1], genuine=True))

    def test_t0_coefficient_is_one(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            assert RatFun.of(rank2_closed_form(c)).series(0)[0] == 1, c.describe()


class TestChecks:
    def test_closed_form_and_numerator_checks_on_corpus(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            assert closed_form_check(c) is True, c.describe()
            assert numerator_check(c) is True, c.describe()

    def test_numerator_check_false_on_asymmetric_data(self):
        # the grouped expansion needs A_{2g-i} = q^{g-i} A_i; the two displays
        # of the closed form are the same sum for any A
        for c in (CurveData(2, 1, [1, 1, 1]), CurveData(3, 2, [1, 1, 1, 2, 5])):
            assert closed_form_check(c) is True
            assert numerator_check(c) is False

    def test_closed_form_check_false_on_a_wrong_closed_form(self, curve_g1, monkeypatch):
        F = rank2_closed_form(curve_g1)
        monkeypatch.setattr(rank2, "rank2_closed_form", lambda c: F * RatFun([1, 1]))
        assert closed_form_check(curve_g1) is False
        assert numerator_check(curve_g1) is False


class TestNumerator:
    def test_g1_coeffs(self, curve_g1):
        assert rank2_numerator(curve_g1) == (2, 1, 2)

    def test_g2_coeffs(self, curve_g2):
        assert rank2_numerator(curve_g2) == (4, 3, 3, 3, 4)

    def test_middle_coefficient_g1(self, curve_g1):
        # a_1 + a_0 (q - 1) with a = A
        n = rank2_numerator(curve_g1)
        assert n[1] == curve_g1.A[1] + (curve_g1.q - 1)

    def test_palindromy_on_random_symmetric_data(self):
        rng = random.Random(11)
        for _ in range(120):
            q = rng.choice([2, 3, 4, 5])
            g = rng.randint(1, 6)
            A = [F(1)] + [F(rng.randint(-30, 30)) for _ in range(g)]
            full = list(A) + [0] * g
            for i in range(g):
                full[2 * g - i] = F(q) ** (g - i) * full[i]
            c = CurveData(q, g, full)
            n = rank2_numerator(c)
            assert n == n[::-1]
            assert len(n) == 2 * g + 1
            assert numerator_check(c) and closed_form_check(c)

    def test_trace_extremal_curve_has_negative_middle(self):
        # the h=1 binary curve: positivity of the entries fails here even
        # though the data is genuine; only palindromy is structural
        c = CurveData.elliptic(2, 2)
        assert rank2_numerator(c) == (2, -1, 2)


class TestInvariantExtraction:
    def test_g1_values(self, curve_g1):
        table = rank2_invariants(curve_g1)
        assert table.alphas == (3,)
        assert table.beta0 == 6

    def test_g2_values(self, curve_g2):
        table = rank2_invariants(curve_g2)
        assert table.alphas == (10, 65)
        assert table.beta0 == F(275, 3)
        assert alpha2_zero(curve_g2) == 10

    def test_alpha0_is_scaled_special_value(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            assert rank2_invariants(c).alphas[0] == F(c.q) ** (c.g - 1) * zeta_hat_special(c, 1)

    def test_series_oracle_agreement(self, corpus):
        # frozen against the independent two-summand series expansion; the
        # asymmetric data, whose N(X) is not F's numerator, still agree
        asymmetric = [
            CurveData(2, 1, [1, 1, 1]),
            CurveData(3, 2, [1, 2, 4, 5, 7]),
            CurveData(2, 3, [1, 0, 3, 1, 2, 0, 5]),
        ]
        for c in [*corpus, *asymmetric]:
            if c.g < 1:
                continue
            table = rank2_invariants(c)
            a0 = alpha2_zero(c)
            coeffs = series_oracle(c, c.g)
            for m in range(c.g):
                assert table.alphas[m] == a0 * coeffs[m], c.describe()
            Q = F(c.q) ** 2
            top = a0 * coeffs[c.g]
            if c.g >= 2:
                top -= Q * table.alphas[c.g - 2]
            assert table.beta0 == top / (Q - 1)

    def test_triangular_relations_hold_for_all_m(self, corpus):
        # one global constant q^{-g} rescales the X-numerator onto the
        # unit-normalized T-numerator; the triangular recursion must then
        # reproduce every series coefficient simultaneously
        for c in corpus:
            if c.g < 1:
                continue
            q = F(c.q)
            n = rank2_numerator(c)
            normalized = [v * q ** (i - c.g) for i, v in enumerate(n)]
            assert normalized[0] == 1
            Fm = rank2_closed_form(c)
            count = 2 * c.g + 2
            predicted = alpha_from_A(normalized, q * q, count)
            series = RatFun.of(Fm).series(count - 1)
            for m in range(count - 1):
                assert predicted[m] == series[m], (c.describe(), m)


class TestPureZeta:
    def test_functional_equation(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            assert pure_fe_check(pure_zeta(c), c.q, c.g), c.describe()

    def test_broken_zeta_fails(self, curve_g1):
        broken = pure_zeta(curve_g1) + RatFun.t(1)
        assert not pure_fe_check(broken, curve_g1.q, curve_g1.g)


class TestVariants:
    def test_prefactored_list_matches_unit_normalization(self, curve_g2):
        q, g = F(2), 2
        n = rank2_numerator(curve_g2)
        variants = normalized_coefficients(curve_g2)
        for k in range(1, g + 1):
            assert variants[k - 1] == n[k] * q ** (k - g)

    def test_report_is_stable_and_flags_beta(self, curve_g1):
        rep1 = variant_report(curve_g1)
        rep2 = variant_report(curve_g1)
        assert rep1 == rep2
        assert rep1["beta_variant"] == 0  # drops a zeta factor
        assert rep1["beta_canonical"] == 6
        assert not rep1["beta_agrees"]
        for row in rep1["coefficients"]:
            assert row["ratio"] == row["expected_ratio"]

    def test_beta_variant_formula(self, curve_g2):
        q = F(2)
        z1 = zeta_hat_special(curve_g2, 1)
        z2 = zeta_hat_special(curve_g2, 2)
        assert beta_from_special_values(curve_g2) == q**2 * (z2 - z1 * z1 / (q * q - 1))
