"""Kernel tests: polynomials, rational functions, series, root finder."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvezeta.exact import (
    complex_roots_numeric,
    ComplexRootSet,
    Poly,
    RationalFunction,
    RootFindError,
    TruncatedSeries,
    complex_roots,
    pole_regularized_value,
    poly_gcd,
    series_exp,
    series_log,
    squarefree_decomposition,
)

F = Fraction

fraction_polys = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=7), max_size=6
).map(Poly)


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Reference: the monic gcd by Euclidean division over the rationals."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class TestPoly:
    def test_canonical_strips_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly([0, 0]).is_zero()
        assert Poly().degree == -1

    def test_divmod_roundtrip(self):
        a = Poly([3, -2, 0, 5, 1])
        b = Poly([1, 1, 2])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            Poly([1, 1]).exact_div(Poly([1, 0, 1]))

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_product_degree_adds(self, a, b):
        p, q = Poly(a), Poly(b)
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree == p.degree + q.degree

    def test_reversal_and_scaling(self):
        p = Poly([1, 0, 2])
        assert p.reversed() == Poly([2, 0, 1])
        assert p.scale_arg(F(1, 2)) == Poly([1, 0, F(1, 2)])
        assert p.stretch(3) == Poly([1, 0, 0, 0, 0, 0, 2])


class TestPolyGcd:
    @given(fraction_polys, fraction_polys, fraction_polys)
    @settings(max_examples=150, deadline=None)
    def test_matches_euclid_with_shared_factor(self, x, y, common):
        a, b = x * common, y * common
        assert poly_gcd(a, b) == euclid_gcd(a, b)
        assert poly_gcd(x, y) == euclid_gcd(x, y)

    @pytest.mark.parametrize(
        "a, b",
        [
            (Poly(), Poly()),
            (Poly([F(1, 2), 3, -1]), Poly()),
            (Poly(), Poly([0, F(-2, 3)])),
            (Poly([F(-7, 2)]), Poly([1, 2, 3])),
            (Poly([4]), Poly([F(1, 9)])),
            (Poly([F(2, 3), 0, -6]), Poly([F(2, 3), 0, -6])),
            (Poly([F(2, 3), 0, -6]), Poly([-2, 0, 18])),
        ],
        ids=["zero-zero", "a-zero", "zero-b", "constant", "two-constants", "equal", "scaled"],
    )
    def test_matches_euclid_edge_cases(self, a, b):
        assert poly_gcd(a, b) == euclid_gcd(a, b)
        assert poly_gcd(b, a) == euclid_gcd(b, a)

    @pytest.mark.parametrize("q, a, b, m", [(5, 1, -3, 2), (3, 2, 0, 3), (101, 7, -19, 2)])
    def test_squarefree_weil_numerator_repeated_elliptic_factor(self, q, a, b, m):
        # (1 - a t + q t^2)^m (1 - b t + q t^2): Yun splits off the repeated factor
        ea, eb = Poly([1, -a, q]), Poly([1, -b, q])
        parts = squarefree_decomposition(ea**m * eb)
        assert parts == [(eb.monic(), 1), (ea.monic(), m)]


class TestRationalFunction:
    def test_reduction_example(self):
        # (1 - t^2)/(1 - t) = 1 + t
        f = RationalFunction([1, 0, -1], [1, -1])
        assert f == RationalFunction([1, 1])

    def test_ratfun_equal_examples(self):
        # value equality of rational functions is canonical ==
        assert RationalFunction([1, 0, -1], [1, -1]) == RationalFunction([1, 1])
        assert not RationalFunction([0, 1]) == RationalFunction([1, 1])

    def test_equal_is_equivalence_on_canonical_forms(self):
        # same value, several syntactic presentations; == is exact value equality
        classes = [
            [
                RationalFunction([2, 0, 4], [2, -2]),
                RationalFunction([1, 0, 2], [1, -1]),
                RationalFunction(Poly([1, 0, 2]) * Poly([3]), Poly([3]) * Poly([1, -1])),
            ],
            [RationalFunction([1, 0, -1], [1, -1]), RationalFunction([1, 1])],
            [RationalFunction([0, 1])],
        ]
        for i, left in enumerate(classes):
            for j, right in enumerate(classes):
                for a in left:
                    for b in right:
                        assert (a == b) == (i == j), (a, b)

    def test_series_expansion(self):
        f = RationalFunction([1], [1, -3, 2])  # 1/((1-t)(1-2t))
        assert f.series(3).coeffs == (F(1), F(3), F(7), F(15))

    def test_reciprocal_arg(self):
        f = RationalFunction([1, 1])  # 1 + t
        g = f.reciprocal_arg(F(1, 2))  # 1 + 1/(2t)
        assert g == RationalFunction([1, 2], [0, 2])

    def test_negative_powers_are_rational(self):
        assert RationalFunction.t(-3) * RationalFunction.t(3) == RationalFunction.one()

    def test_display_pair_integer_normalized(self):
        f = RationalFunction([F(1, 4), F(1, 4), 1], [F(1, 4), F(-5, 4), 1])
        n, d = f.display_pair()
        assert n == Poly([1, 1, 4]) and d == Poly([1, -5, 4])


class TestSeries:
    def test_exp_of_zero(self):
        assert series_exp(TruncatedSeries([0, 0, 0, 0])).coeffs == (1, 0, 0, 0)

    def test_exp_of_x(self):
        out = series_exp(TruncatedSeries([0, 1, 0, 0]))
        assert out.coeffs == (1, 1, F(1, 2), F(1, 6))

    def test_exp_matches_geometric_closed_form(self):
        # sum (2^m + 1) t^m / m exponentiates to 1/((1-t)(1-2t));
        # oracle: the closed form's own series expansion
        order = 8
        logs = [F(0)] + [F(2**m + 1, m) for m in range(1, order + 1)]
        lhs = series_exp(TruncatedSeries(logs))
        oracle = RationalFunction([1], [1, -3, 2]).series(order)
        assert lhs.coeffs == oracle.coeffs

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(TruncatedSeries([1, 0]))

    @given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=2, max_size=7))
    @settings(max_examples=120, deadline=None)
    def test_exp_log_roundtrip(self, tail):
        s = TruncatedSeries([F(0)] + tail)
        assert series_log(series_exp(s)).coeffs == s.coeffs

    @given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=2, max_size=7))
    @settings(max_examples=120, deadline=None)
    def test_log_exp_roundtrip_from_unit_series(self, tail):
        f = TruncatedSeries([F(1)] + tail)
        assert series_exp(series_log(f)).coeffs == f.coeffs


class TestComplexRoots:
    def test_known_quadratic(self):
        rset = complex_roots(Poly([1, 0, 1]))
        got = sorted(rset.roots, key=lambda z: z.imag)
        assert abs(got[0] + 1j) < 1e-12 and abs(got[1] - 1j) < 1e-12

    def test_scaled_quadratic(self):
        # 1 + 2t^2: quadratic formula gives +- i/sqrt(2)
        rset = complex_roots(Poly([1, 0, 2]))
        expect = 1 / math.sqrt(2)
        for z in rset.roots:
            assert abs(abs(z) - expect) < 1e-12
            assert abs(z.real) < 1e-12

    def test_constructed_factorization(self):
        p = Poly([1, -1]) * Poly([1, -2]) * Poly([1, -3])
        rset = complex_roots(p)
        got = sorted(z.real for z in rset.roots)
        for value, expect in zip(got, [F(1, 3), F(1, 2), F(1)]):
            assert abs(value - expect) < 1e-10

    def test_reconstruction_invariant(self):
        p = Poly([6, -5, 1, 7, 3])
        rset = complex_roots(p)
        assert len(rset.roots) == p.degree
        lead = complex(p.coeffs[-1])
        recon = [lead]
        for r in rset.roots:
            recon = [0j] + recon
            for i in range(len(recon) - 1):
                recon[i] = recon[i] - r * recon[i + 1]
        for a, b in zip(recon, p.coeffs):
            assert abs(a - complex(b)) <= 1e-8 * (1 + abs(complex(b)))

    def test_roots_at_origin_carry_multiplicity(self):
        rset = complex_roots(Poly([0, 0, 1, 1]))
        assert sorted(z.real for z in rset.roots) == pytest.approx([-1, 0, 0])
        assert len(rset.roots) == 3

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            complex_roots(Poly())
        with pytest.raises(ValueError):
            complex_roots(Poly([5]))

    def test_determinism(self):
        p = Poly([3, 1, 4, 1, 5, 9, 2, 6])
        assert complex_roots(p).roots == complex_roots(p).roots

    def test_high_multiplicity_resolved_exactly(self):
        # (t - 1)^6: the square-free split hands the finder a simple root
        p = Poly([1, -1]) ** 6
        rset = complex_roots(p, residual_bound=1e-10)
        assert isinstance(rset, ComplexRootSet)
        assert len(rset.roots) == 6
        for z in rset.roots:
            assert abs(z - 1) < 1e-12

    def test_failure_carries_partial_results(self):
        with pytest.raises(RootFindError) as info:
            complex_roots_numeric([6, -5, 1, 7, 3], residual_bound=1e-25)
        assert len(info.value.roots) == 4


class TestPoleRegularized:
    def test_simple_pole_at_one(self):
        assert pole_regularized_value(RationalFunction([1], [1, -1]), 1) == 1

    def test_two_pole_factorization(self):
        f = RationalFunction([1, 0, 2], [1, -3, 2])  # (1+2u^2)/((1-u)(1-2u))
        assert pole_regularized_value(f, 1) == -3

    def test_no_pole_evaluates(self):
        assert pole_regularized_value(RationalFunction([0, 0, 1]), 1) == 1

    def test_double_pole_rejected(self):
        f = RationalFunction([1], Poly([1, -1]) ** 2)
        with pytest.raises(ValueError):
            pole_regularized_value(f, 1)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            pole_regularized_value(RationalFunction([1], [0, 1]), 0)


def test_closed_form_two_summand_equality_is_ratfun_equal(curve_g1):
    """The two-summand and single-fraction presentations agree under ==."""
    from curvezeta.rank2 import rank2_closed_form

    F1, shift = rank2_closed_form(curve_g1)  # raises if the internal check fails
    assert shift == 0
    assert F1 == RationalFunction([1, 1, 4], [1, -5, 4])
