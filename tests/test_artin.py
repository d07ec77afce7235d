"""Artin zeta layer: numerator construction, special values, RH checks."""

from fractions import Fraction

import pytest
from corpus import corpus_curves
from ratfun_reference import RatFun
from series_reference import numerator_by_series

from curvezeta.artin import (
    CurveData,
    artin_fe_check,
    artin_fe_ratfun_check,
    counts_from_numerator,
    numerator_from_counts,
    rh_check_artin,
    zeta_hat_ratfun,
    zeta_hat_special,
    zeta_plain,
)
from curvezeta.exact import Poly, RationalFunction
from curvezeta.group_zeta import R_MAX

F = Fraction


def newton_count_reference(c: CurveData, m: int) -> int:
    """The per-m Fraction recurrence that the power sums kept on the curve replace."""
    p = [F(0)] * (m + 1)
    for n in range(1, m + 1):
        acc = -n * c.A[n] if n <= 2 * c.g else F(0)
        for k in range(1, n):
            if n - k <= 2 * c.g:
                acc -= p[k] * c.A[n - k]
        p[n] = acc
    val = F(c.q) ** m + 1 - p[m]
    if val.denominator != 1:
        raise ValueError("non-integer reconstructed count (non-genuine data)")
    return int(val)


def fresh(c: CurveData) -> CurveData:
    """An equal curve with nothing derived yet."""
    return CurveData(c.q, c.g, c.A, genuine=c.genuine, label=c.label)


# rational non-genuine data; the last reconstructs integral N_1, N_2 but not N_3
RATIONAL_CURVES = [
    CurveData(3, 2, [1, F(1, 2), F(2, 3), 5, F(-1, 7)]),
    CurveData(2, 1, [1, F(-11, 3), 2]),
    CurveData(5, 2, [1, 2, 1, F(1, 2), 1]),
]


class TestCurveData:
    def test_projective_line(self):
        c = numerator_from_counts(3, 0, [])
        assert c.A == (F(1),)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            CurveData(2, 1, [1, 0])

    def test_rejects_nonunit_constant(self):
        with pytest.raises(ValueError):
            CurveData(2, 1, [2, 0, 2])

    def test_genuine_requires_symmetry(self):
        with pytest.raises(ValueError):
            CurveData(2, 1, [1, 1, 1], genuine=True)

    def test_non_genuine_may_break_symmetry(self):
        c = CurveData(2, 1, [1, 1, 1])
        assert not artin_fe_check(c)

    def test_elliptic_trace_bound(self):
        with pytest.raises(ValueError):
            CurveData.elliptic(2, 3)

    def test_equality_and_hash_are_those_of_the_fields(self, corpus):
        for c in corpus:
            other = fresh(c)
            counts_from_numerator(c, 3 * c.g + 2)
            c.zeta_ratfun()
            assert c == other and hash(c) == hash(other)
            assert hash(c) == hash((c.q, c.g, c.A, c.genuine, c.label))
        assert CurveData(2, 1, [1, 0, 2]) != CurveData(2, 1, [1, 0, 2], label="other")

    def test_derived_data_kept(self, curve_g2):
        c = fresh(curve_g2)
        assert c.numerator is c.numerator
        assert c.zeta_ratfun() is c.zeta_ratfun()


class TestNumeratorFromCounts:
    def test_genus_one_matches_trace_form(self):
        # oracle: P = 1 - a t + q t^2 with a = q + 1 - N_1
        c = numerator_from_counts(2, 1, [3])
        assert c.A == (F(1), F(0), F(2))
        c2 = numerator_from_counts(5, 1, [9])
        assert c2.A == (F(1), F(3), F(5))

    def test_genus_two_quintic(self):
        c = numerator_from_counts(2, 2, [3, 5])
        assert c.A == (F(1), F(0), F(0), F(0), F(4))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            numerator_from_counts(2, 1, [-1])

    def test_roundtrip_with_newton_recurrence(self, corpus):
        # numerator_from_counts runs Newton's identities up from the counts,
        # counts_from_numerator the power-sum recurrence down from the A_i:
        # composing them must be the identity, both ways
        for c in corpus:
            if not c.genuine or c.g < 1:
                continue
            counts = [counts_from_numerator(c, m) for m in range(1, c.g + 1)]
            again = numerator_from_counts(c.q, c.g, counts)
            assert again.A == c.A

    def test_matches_series_reference(self, corpus):
        # the integer recurrence against exp(sum N_m t^m / m) (1 - t)(1 - q t)
        for c in corpus:
            if not c.genuine or c.g < 1:
                continue
            counts = [counts_from_numerator(c, m) for m in range(1, c.g + 1)]
            assert numerator_from_counts(c.q, c.g, counts).A == numerator_by_series(c.q, c.g, counts)

    @pytest.mark.parametrize("q, counts", [(2, [3, 4]), (2, [3, 4, 9]), (3, [4, 9, 30]), (5, [0, 0])])
    def test_inconsistent_counts_fail_as_the_series_does(self, q, counts):
        # counts that no curve has: a Fraction A_i, or an integer one that the
        # genuine checks reject, with the message the series route gives
        g = len(counts)
        with pytest.raises(ValueError) as reference:
            CurveData(q, g, numerator_by_series(q, g, counts), genuine=True)
        with pytest.raises(ValueError) as got:
            numerator_from_counts(q, g, counts)
        assert str(got.value) == str(reference.value)


class TestCountsFromNumerator:
    def test_genus_zero(self):
        c = CurveData(2, 0, [1], genuine=True)
        assert counts_from_numerator(c, 3) == 9

    def test_power_sum_example(self, curve_g1):
        assert counts_from_numerator(curve_g1, 2) == 9

    def test_quintic_count(self, curve_g2):
        assert counts_from_numerator(curve_g2, 2) == 5

    def test_matches_per_m_recurrence(self, corpus):
        # one power-sum list per curve, asked in either order on a fresh curve
        g0 = [numerator_from_counts(q, 0, []) for q in (2, 3, 4)]
        asym = [CurveData(2, 1, [1, 1, 1]), CurveData(3, 2, [1, 1, 1, 2, 5])]
        for c in [*corpus, *g0, *asym, *RATIONAL_CURVES]:
            ms = range(1, 3 * c.g + 3)
            for order in (ms, reversed(ms)):
                other = fresh(c)
                for m in order:
                    try:
                        want = newton_count_reference(c, m)
                    except ValueError:
                        with pytest.raises(ValueError, match="non-integer"):
                            counts_from_numerator(other, m)
                        continue
                    got = counts_from_numerator(other, m)
                    assert got == want and type(got) is int, (c.describe(), m)

    def test_rational_data_still_raises(self):
        assert [counts_from_numerator(RATIONAL_CURVES[2], m) for m in (1, 2)] == [8, 24]
        for c in RATIONAL_CURVES:
            with pytest.raises(ValueError, match="non-integer"):
                counts_from_numerator(fresh(c), 3)


class TestZetaHatSpecial:
    def test_regularized_values_quintic(self, curve_g2):
        assert zeta_hat_special(curve_g2, 0) == 5
        assert zeta_hat_special(curve_g2, 1) == 5

    def test_plain_value_quintic(self, curve_g2):
        assert zeta_hat_special(curve_g2, 2) == F(65, 6)

    def test_genus_one_values(self, curve_g1):
        assert zeta_hat_special(curve_g1, 1) == 3
        assert zeta_hat_special(curve_g1, 2) == 3

    def test_symmetry_around_half(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            for n in (0, 1, 2, 3):
                assert zeta_hat_special(c, 1 - n) == zeta_hat_special(c, n)

    def test_matches_the_defining_sums(self, corpus):
        # the regularized sums at n = 0 and 1, and q^{(g-1)n} Z(q^{-n}) elsewhere
        for c in corpus:
            q, g = F(c.q), c.g
            assert zeta_hat_special(c, 0) == sum(c.A) / (q - 1)
            assert zeta_hat_special(c, 1) == sum(a * q ** (g - i) for i, a in enumerate(c.A)) / (q - 1)
            for n in (-3, -1, 2, 5, 9):
                u = q**-n
                plain = c.numerator.evaluate(u) / ((1 - u) * (1 - q * u))
                assert zeta_plain(c, n) == plain
                assert zeta_hat_special(c, n) == q ** ((g - 1) * n) * plain

    def test_plain_rejects_poles(self, curve_g1):
        with pytest.raises(ValueError):
            zeta_plain(curve_g1, 1)


class TestFunctionalEquation:
    def test_coefficient_form(self, curve_g1, curve_g2):
        assert artin_fe_check(curve_g1)
        assert artin_fe_check(curve_g2)
        assert not artin_fe_check(CurveData(2, 1, [1, 1, 1]))

    def test_ratfun_identity_over_corpus(self, corpus):
        for c in corpus:
            assert artin_fe_ratfun_check(c), c.describe()

    def test_ratfun_identity_fails_on_skewed_numerator(self, corpus):
        # P(t) (1 + t), padded to genus g + 1, has no functional equation
        for c in corpus:
            skewed = list((c.numerator * Poly([1, 1])).coeffs)
            d = CurveData(c.q, c.g + 1, skewed + [0] * (2 * c.g + 3 - len(skewed)))
            assert not artin_fe_ratfun_check(d), c.describe()
        assert not artin_fe_ratfun_check(CurveData(2, 1, [1, 1, 1]))

    def test_class_number_positive(self, corpus):
        for c in corpus:
            if c.genuine:
                assert c.class_number > 0


class TestRiemannHypothesis:
    def test_supersingular_fixture(self, curve_g1):
        rep = rh_check_artin(curve_g1)
        assert rep.verdict and rep.max_deviation < 1e-12

    def test_vacuous_for_genus_zero(self):
        rep = rh_check_artin(CurveData(3, 0, [1], genuine=True))
        assert rep.verdict and rep.zeros == ()

    def test_constructed_violation(self):
        # reciprocal roots {3, 2/3}: product 2, moduli off sqrt(2)
        c = CurveData(2, 1, [1, F(-11, 3), 2])
        assert not rh_check_artin(c).verdict

    def test_corpus_verdicts(self, corpus):
        for c in corpus:
            if c.genuine and c.g >= 1:
                rep = rh_check_artin(c, tol=1e-9)
                assert rep.verdict, c.describe()


def gcd_zeta(c: CurveData) -> RatFun:
    """Reference: Z(t) = P(t) / ((1 - t)(1 - qt)) through the gcd constructor."""
    return RatFun(c.numerator, Poly([1, -(c.q + 1), c.q]))


def gcd_zeta_hat(c: CurveData, n: int) -> RatFun:
    """Reference: q^{(g-1)n} t^{1-g} Z(q^{-n} t) through the reference arithmetic,
    each product reduced by a gcd."""
    q = F(c.q)
    prefactor = RatFun.constant(q ** ((c.g - 1) * n)) * RatFun.t(1 - c.g)
    return prefactor * gcd_zeta(c).scale_arg(q**-n)


# non-genuine numerators that vanish at a pole: P(1) = 0, P(1/q) = 0, both
CANCELLING = [CurveData(3, 1, [1, -2, 1]), CurveData(3, 1, [1, -4, 3]), CurveData(2, 1, [1, -3, 2])]


class TestZetaHatRatfun:
    def test_matches_gcd_reference(self):
        for c in [*corpus_curves(include_genus0=True), *CANCELLING]:
            assert c.zeta_ratfun() == gcd_zeta(c), c.describe()
            for n in range(R_MAX + 2):
                assert zeta_hat_ratfun(c, n) == gcd_zeta_hat(c, n), (c.describe(), n)

    def test_poles_cancel_exactly(self):
        # (1 - t)(1 - 2t) over itself is 1, and (1 - t)^2 / ((1 - t)(1 - 3t)) keeps (1 - t)
        assert CANCELLING[2].zeta_ratfun() == 1
        assert CANCELLING[0].zeta_ratfun() == RationalFunction([1, -1], [1, -3])


def test_zeta_ratfun_matches_series_of_counts(curve_g2):
    """Z(t)'s expansion encodes the counts through its log derivative."""
    z = RatFun.of(curve_g2.zeta_ratfun())
    order = 6
    series = z.series(order)
    # oracle: d/dt log Z = sum N_m t^{m-1}; recover N_m from the series
    # through the product rule and compare with the Newton route
    deriv = [series[k] * k for k in range(1, order + 1)]
    recovered = []
    for m in range(1, order):
        acc = F(deriv[m - 1])
        for k in range(1, m):
            acc -= recovered[m - k - 1] * series[k]
        recovered.append(acc)
    for m in range(1, order):
        assert recovered[m - 1] == counts_from_numerator(curve_g2, m)
