"""Kernel tests: polynomials, rational functions, series, root finder."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from ratfun_reference import RatFun

from curvezeta import exact
from curvezeta.exact import (
    _CERT_PRIME,
    _squarefree_mod_prime,
    ComplexRootSet,
    Poly,
    RationalFunction,
    RootFindError,
    complex_roots,
    poly_gcd,
    squarefree_decomposition,
)
from series_reference import series_exp

F = Fraction

fraction_lists = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=7), max_size=6)
fraction_polys = fraction_lists.map(Poly)
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


class DensePoly:
    """Reference: dense Fraction coefficients, constant first, no trailing zeros."""

    def __init__(self, coeffs=()):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        a, b = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        return DensePoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self):
        return DensePoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return DensePoly()
        out = [F(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DensePoly(out)

    def __pow__(self, n):
        out = DensePoly([1])
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        rem, d = list(self.coeffs), other.coeffs
        quo = [F(0)] * max(len(rem) - len(d) + 1, 0)
        for k in reversed(range(len(quo))):
            c = rem[k + len(d) - 1] / d[-1]
            quo[k] = c
            for i, b in enumerate(d):
                rem[k + i] -= c * b
        return DensePoly(quo), DensePoly(rem)

    def monic(self):
        return DensePoly([c / self.coeffs[-1] for c in self.coeffs]) if self.coeffs else self

    def derivative(self):
        return DensePoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale_arg(self, c):
        return DensePoly([a * F(c) ** i for i, a in enumerate(self.coeffs)])

    def stretch(self, k):
        out = [F(0)] * (k * len(self.coeffs))
        out[::k] = self.coeffs
        return DensePoly(out)

    def reversed(self, d):
        return DensePoly([0] * (d + 1 - len(self.coeffs)) + list(self.coeffs[::-1]))


def dense_gcd(a: DensePoly, b: DensePoly) -> DensePoly:
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Reference: the monic gcd by Euclidean division over the rationals."""
    return Poly(dense_gcd(DensePoly(a.coeffs), DensePoly(b.coeffs)).coeffs)


def dense_ratfun(num: DensePoly, den: DensePoly) -> tuple[tuple, tuple]:
    """Reference canonical form: gcd divided out, monic denominator, zero as 0/1."""
    if num.is_zero():
        return (), (F(1),)
    g = dense_gcd(num, den)
    num, den = divmod(num, g)[0], divmod(den, g)[0]
    lead = den.coeffs[-1]
    return tuple(c / lead for c in num.coeffs), tuple(c / lead for c in den.coeffs)


def assert_canonical(p: Poly) -> None:
    """The stored ints are primitive with a positive last entry; zero is ();
    the scale pair is in lowest terms with a positive denominator."""
    assert isinstance(p.ints, tuple) and all(type(c) is int for c in p.ints)
    if p.ints:
        assert math.gcd(*p.ints) == 1 and p.ints[-1] > 0 and p.scale != 0
    assert type(p._sn) is int and type(p._sd) is int
    assert p._sd > 0 and math.gcd(p._sn, p._sd) == 1
    assert p.coeffs == tuple(F(c) * p.scale for c in p.ints)


class TestPoly:
    def test_canonical_strips_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly([0, 0]).is_zero()
        assert Poly().degree == -1

    def test_divmod_roundtrip(self):
        # the reference division's quotient and remainder recombine under Poly
        # arithmetic, and exact_div takes the quotient back out of a - r
        a = Poly([3, -2, 0, 5, 1])
        b = Poly([1, 1, 2])
        dq, dr = divmod(DensePoly(a.coeffs), DensePoly(b.coeffs))
        q, r = Poly(dq.coeffs), Poly(dr.coeffs)
        assert q * b + r == a
        assert r.degree < b.degree
        assert (a - r).exact_div(b) == q

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

    def test_monomial(self):
        assert Poly.x() == Poly([0, 1])
        assert Poly.x(0) == Poly.one()
        assert Poly.x(2, F(-3, 4)) == Poly([0, 0, F(-3, 4)])
        assert Poly.x(5, 0).is_zero()

    @pytest.mark.parametrize("power", [-1, -3])
    def test_negative_monomial_power_raises(self, power):
        # (0,) * power is empty, which used to give the constant 1 silently
        with pytest.raises(ValueError, match="negative monomial power"):
            Poly.x(power)
        with pytest.raises(ValueError, match="negative monomial power"):
            Poly.x(power, F(1, 2))


class TestIntegerCore:
    """Poly and RationalFunction against the dense Fraction reference."""

    @given(fraction_lists, fraction_lists)
    @settings(max_examples=100, deadline=None)
    def test_ring_operations_match_dense(self, a, b):
        p, q = Poly(a), Poly(b)
        dp, dq = DensePoly(a), DensePoly(b)
        assert p.coeffs == dp.coeffs
        for got, want in [(p + q, dp + dq), (p - q, dp - dq), (p * q, dp * dq), (-p, -dp)]:
            assert_canonical(got)
            assert got.coeffs == want.coeffs

    @given(fraction_lists, st.integers(0, 4), small_fractions)
    @settings(max_examples=100, deadline=None)
    def test_powers_and_scalar_products_match_dense(self, a, n, c):
        p = Poly(a)
        for got, want in [(p**n, DensePoly(a) ** n), (p * c, DensePoly([x * c for x in a]))]:
            assert_canonical(got)
            assert got.coeffs == want.coeffs

    @given(fraction_lists, fraction_lists)
    @settings(max_examples=100, deadline=None)
    def test_division_matches_dense(self, a, b):
        p, q = Poly(a), Poly(b)
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                p.exact_div(q)
            return
        want_q, want_r = divmod(DensePoly(a), DensePoly(b))
        assert (p - Poly(want_r.coeffs)).exact_div(q).coeffs == want_q.coeffs
        exact = (p * q).exact_div(q)
        assert_canonical(exact)
        assert exact.coeffs == p.coeffs
        if want_r.is_zero():
            assert p.exact_div(q).coeffs == want_q.coeffs
        else:
            with pytest.raises(ValueError):
                p.exact_div(q)

    @given(fraction_lists, small_fractions, st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_substitutions_match_dense(self, a, c, k, extra):
        p, dp = Poly(a), DensePoly(a)
        d = len(dp.coeffs) - 1 + extra
        for got, want in [
            (p.scale_arg(c), dp.scale_arg(c)),
            (p.reversed(d), dp.reversed(d)),
            (p.stretch(k), dp.stretch(k)),
            (p.derivative(), dp.derivative()),
            (p.monic(), dp.monic()),
        ]:
            assert_canonical(got)
            assert got.coeffs == want.coeffs
        assert p.evaluate(c) == dp.evaluate(c)
        assert p.evaluate(k) == dp.evaluate(k)

    @given(fraction_lists, fraction_lists, fraction_lists)
    @settings(max_examples=100, deadline=None)
    def test_ratfun_constructor_matches_dense(self, a, b, common):
        assume(not DensePoly(b).is_zero() and not DensePoly(common).is_zero())
        for n, d in [(a, b), ((Poly(a) * Poly(common)).coeffs, (Poly(b) * Poly(common)).coeffs)]:
            f = RationalFunction(Poly(n), Poly(d))
            assert (f.num.coeffs, f.den.coeffs) == dense_ratfun(DensePoly(n), DensePoly(d))
            assert_canonical(f.num)
            assert_canonical(f.den)
            assert f.den.scale == F(1, f.den.ints[-1])  # monic

    def test_zero_is_empty_over_one(self):
        assert Poly().ints == () and Poly([0, F(0)]).ints == ()
        zero = RationalFunction(Poly(), Poly([3, 1]))
        assert zero.num.ints == () and zero.den == Poly.one()
        assert zero == RationalFunction.zero()

    def test_coeffs_view_is_cached_and_read_only(self):
        p = Poly([F(1, 2), -3, F(9, 4)])
        assert p.ints == (2, -12, 9) and p.scale == F(1, 4)
        assert p.coeffs is p.coeffs
        with pytest.raises(AttributeError):
            p.coeffs = ()


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


nonconstant_polys = fraction_lists.map(Poly).filter(lambda p: p.degree >= 1)
small_ints = st.integers(min_value=-9, max_value=9)


class TestSquarefreeCertificate:
    @given(nonconstant_polys, fraction_polys, st.integers(min_value=1, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_certified_means_coprime_to_derivative(self, f, g, k):
        # f * g^k is square-free for k = 1 on most draws and never when k >= 2, deg g >= 1
        assume(not g.is_zero())
        h = f * g**k
        if _squarefree_mod_prime(h.ints, _CERT_PRIME):
            assert poly_gcd(h, h.derivative()).degree == 0
            assert squarefree_decomposition(h) == [(h.monic(), 1)]

    @given(fraction_polys, nonconstant_polys, st.integers(min_value=2, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_square_factor_never_certified(self, f, g, k):
        assume(not f.is_zero())
        h = f * g**k
        assert not _squarefree_mod_prime(h.ints, _CERT_PRIME)
        parts = squarefree_decomposition(h)
        product = Poly.one()
        for factor, mult in parts:
            product = product * factor**mult
        assert product == h.monic()
        assert max(mult for _, mult in parts) >= k

    @given(st.lists(small_ints, unique=True), st.lists(small_ints, min_size=1, unique=True), st.integers(2, 3))
    @settings(max_examples=100, deadline=None)
    def test_complex_roots_keep_exact_multiplicities(self, simple, repeated, k):
        # prod (t - a) over simple times prod (t - b)^k over repeated: each root comes
        # back as exact copies of one float, as often as it divides the product
        h = Poly.one()
        for a in simple:
            h = h * Poly([-a, 1])
        for b in repeated:
            h = h * Poly([-b, 1]) ** k
        assert not _squarefree_mod_prime(h.ints, _CERT_PRIME)
        roots = complex_roots(h).roots
        assert len(roots) == h.degree
        for b in set(simple) | set(repeated):
            near = [z for z in roots if abs(z - b) < 1e-9]
            assert len(near) == (b in simple) + k * (b in repeated)
            assert len(set(near)) == 1

    @pytest.mark.parametrize(
        "f, parts",
        [
            (Poly([-_CERT_PRIME, 0, 1]), [(Poly([-_CERT_PRIME, 0, 1]), 1)]),
            (
                Poly([1, _CERT_PRIME]) ** 2 * Poly([-2, 1]),
                [(Poly([-2, 1]), 1), (Poly([F(1, _CERT_PRIME), 1]), 2)],
            ),
        ],
        ids=["square-free-but-square-mod-p", "square-with-p-dividing-lead"],
    )
    def test_uncertified_inputs_fall_back_to_yun(self, f, parts):
        # t^2 - p is t^2 mod p.  (p t + 1)^2 (t - 2) is t - 2 mod p, coprime to
        # its derivative there; only the lead check keeps it from being certified
        assert not _squarefree_mod_prime(f.ints, _CERT_PRIME)
        assert squarefree_decomposition(f) == parts


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
        f = RatFun([1], [1, -3, 2])  # 1/((1-t)(1-2t)), by the reference's long division
        assert f.series(3) == (F(1), F(3), F(7), F(15))

    def test_reciprocal_arg(self):
        f = RationalFunction([1, 1])  # 1 + t
        g = f.reciprocal_arg(F(1, 2))  # 1 + 1/(2t)
        assert g == RationalFunction([1, 2], [0, 2])

    def test_negative_powers_are_rational(self):
        assert RatFun.t(-3) * RatFun.t(3) == RatFun.one()

    def test_display_pair_integer_normalized(self):
        f = RationalFunction([F(1, 4), F(1, 4), 1], [F(1, 4), F(-5, 4), 1])
        n, d = f.display_pair()
        assert n == Poly([1, 1, 4]) and d == Poly([1, -5, 4])


def canonical_parts(f: RationalFunction) -> tuple:
    return f.num.ints, f.num.scale, f.den.ints, f.den.scale


def gcd_free_maps(f: RatFun, c: Fraction, k: int, n: int) -> list[tuple]:
    """(name, the map's answer, the gcd constructor on the same images) for
    each map that sends a reduced quotient to a reduced one without a gcd:
    the package's reciprocal_arg, and the reference arithmetic's others."""
    num, den = f.num, f.den
    d = max(num.degree, den.degree)
    out = [
        ("neg", -f, RationalFunction(-num, den)),
        ("pow", f**n, RationalFunction(num**n, den**n)),
        ("stretch", f.stretch(k), RationalFunction(num.stretch(k), den.stretch(k))),
        ("scale_arg", f.scale_arg(c), RationalFunction(num.scale_arg(c), den.scale_arg(c))),
        (
            "reciprocal_arg",
            f.reciprocal_arg(c),
            RationalFunction(num.scale_arg(c).reversed(d), den.scale_arg(c).reversed(d)),
        ),
    ]
    if not num.is_zero():
        out.append(("negative pow", f**-n, RationalFunction(den**n, num**n)))
    return out


class TestGcdFreeMaps:
    """reciprocal_arg, and the reference's -f, f**n, stretch and scale_arg,
    at c != 0 take no gcd; their answers are the gcd constructor's, part for
    part."""

    @given(
        fraction_lists,
        fraction_lists,
        small_fractions.filter(bool),
        st.integers(1, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    @example([], [1, 2, 3], F(-2), 2, 2)  # zero numerator
    @example([1, 1], [1, 0, 0, 5], F(-3, 2), 2, 3)  # deg num < deg den
    @example([0, 1, 0, 0, 7], [2, 1], F(5, 3), 3, 2)  # deg num > deg den, zero constant term
    @example([1, 2], [3, 0, 1], F(-1, 4), 1, 1)
    def test_maps_match_the_gcd_constructor(self, a, b, c, k, n):
        assume(any(b))
        f = RatFun(Poly(a), Poly(b))
        for name, got, want in gcd_free_maps(f, c, k, n):
            assert canonical_parts(got) == canonical_parts(want), name
            assert_canonical(got.num)
            assert_canonical(got.den)

    def test_maps_take_no_gcd(self, monkeypatch):
        def no_gcd(a, b):
            raise AssertionError("poly_gcd called")

        f = RatFun([1, 2, 0, 5], [3, -1, 1])
        monkeypatch.setattr(exact, "poly_gcd", no_gcd)
        for g in (-f, f**3, f**-3, f.stretch(2), f.scale_arg(F(-2, 3)), f.reciprocal_arg(F(-2, 3))):
            assert_canonical(g.num)
            assert_canonical(g.den)

    def test_zero_argument_keeps_the_constructor(self):
        f = RatFun([1, 2], [3, 0, 1])
        # the reference's scale_arg(0) images share a factor, which only the
        # constructor cancels; the package's reciprocal_arg has no c = 0 case
        third = canonical_parts(RationalFunction.constant(F(1, 3)))
        assert canonical_parts(f.scale_arg(0)) == third
        with pytest.raises(ValueError, match="c != 0"):
            f.reciprocal_arg(0)
        g = RatFun([0, 0, 2, 1], [1, 4])
        assert g.scale_arg(0) == RationalFunction.zero()
        with pytest.raises(ZeroDivisionError):
            RatFun([1], [0, 1]).scale_arg(0)


def series_log(c):
    """Reference: the formal logarithm of a series with constant term one."""
    out = [F(0)] * len(c)
    for n in range(1, len(c)):
        acc = n * c[n]
        for k in range(1, n):
            acc -= k * out[k] * c[n - k]
        out[n] = acc / n
    return tuple(out)


class TestSeries:
    def test_exp_of_zero(self):
        assert series_exp((0, 0, 0, 0)) == (1, 0, 0, 0)

    def test_exp_of_x(self):
        assert series_exp((0, 1, 0, 0)) == (1, 1, F(1, 2), F(1, 6))

    def test_exp_matches_geometric_closed_form(self):
        # sum (2^m + 1) t^m / m exponentiates to 1/((1-t)(1-2t));
        # oracle: the closed form's own series expansion
        order = 8
        logs = [F(0)] + [F(2**m + 1, m) for m in range(1, order + 1)]
        assert series_exp(logs) == RatFun([1], [1, -3, 2]).series(order)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp((1, 0))

    @given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=2, max_size=7))
    @settings(max_examples=120, deadline=None)
    def test_exp_log_roundtrip(self, tail):
        s = (F(0), *tail)
        assert series_log(series_exp(s)) == s

    @given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=2, max_size=7))
    @settings(max_examples=120, deadline=None)
    def test_log_exp_roundtrip_from_unit_series(self, tail):
        f = (F(1), *tail)
        assert series_exp(series_log(f)) == f


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
        # a nonzero constant has no roots
        assert complex_roots(Poly([5])) == ComplexRootSet((), (), 0)

    def test_determinism(self):
        p = Poly([3, 1, 4, 1, 5, 9, 2, 6])
        assert complex_roots(p).roots == complex_roots(p).roots

    def test_high_multiplicity_resolved_exactly(self):
        # (t - 1)^6: the square-free split hands the finder a simple root
        p = Poly([1, -1]) ** 6
        rset = complex_roots(p)
        assert isinstance(rset, ComplexRootSet)
        assert len(rset.roots) == 6 and max(rset.residuals) <= 1e-10
        for z in rset.roots:
            assert abs(z - 1) < 1e-12

    def test_critical_circle_map_agrees_with_plain_solve(self):
        # the map T = W / sqrt(Q) is exact for any roots, not only |T| = Q^{-1/2}
        p = Poly([1, 2, 3]) * Poly([1, -1, 5]) * Poly([2, 0, 0, 7])
        mapped = complex_roots(p, Q=5).roots
        assert len(mapped) == 7
        for a in complex_roots(p).roots:
            assert min(abs(a - b) for b in mapped) <= 1e-12 * abs(a)

    def test_critical_circle_map_keeps_origin_and_multiplicities(self):
        # t (1 - 3t + 7t^2)^2: a root at 0 and two double roots on |t| = 7^{-1/2}
        p = Poly([0, 1]) * Poly([1, -3, 7]) ** 2
        rset = complex_roots(p, Q=7)
        assert len(rset.roots) == 5 and rset.roots.count(0j) == 1
        for z in rset.roots:
            if z:
                assert abs(abs(z) * math.sqrt(7) - 1) <= 1e-14
                assert sum(abs(w - z) <= 1e-14 for w in rset.roots) == 2

    def test_critical_circle_map_beyond_float_range(self):
        # prod (1 - a t + q t^2), q = 10^40: lead q^8 = 1e320 has no float,
        # but in W = q^{1/2} t every coefficient is at most binom(16, 8)
        q = 10**40
        p = Poly.one()
        for k in (0, 2, -2, 4, -4, 6, -6, 1):  # a = k sqrt(q) / 4
            p = p * Poly([1, -k * 25 * 10**18, q])
        with pytest.raises(OverflowError):
            complex_roots(p)
        rset = complex_roots(p, Q=q)
        assert len(rset.roots) == 16 and max(rset.residuals) <= 1e-14
        for z in rset.roots:
            assert abs(abs(z) * 1e20 - 1) <= 1e-13

    def test_start_radius_is_geometric_mean_of_root_moduli(self):
        # z^6 - 1e-36 has its roots on |z| = 1e-6; from a start circle of
        # radius 1 + max |c_i / c_n| it takes dozens of sweeps to reach them
        rset = complex_roots(Poly([-1, 0, 0, 0, 0, 0, 10**36]))
        assert rset.iterations <= 8
        assert all(abs(abs(z) * 1e6 - 1) <= 1e-14 for z in rset.roots)
        # 3 t^2 is t twice; the factor t is a root at the origin, no sweep
        rset = complex_roots(Poly([0, 0, 3]))
        assert rset.roots == (0j, 0j) and rset.iterations == 0

    def test_failure_carries_partial_results(self, monkeypatch):
        monkeypatch.setattr(exact, "_RESIDUAL_BOUND", 1e-25)
        with pytest.raises(RootFindError) as info:
            complex_roots(Poly([6, -5, 1, 7, 3]))
        assert len(info.value.roots) == 4 and len(info.value.residuals) == 4

    def test_failure_roots_are_in_t_and_sorted(self, monkeypatch):
        # solved in W = sqrt(5) T, reported in T like a result, sorted by (real, imag)
        p = Poly([6, -5, 1, 7, 3])
        solved = complex_roots(p, Q=5).roots
        monkeypatch.setattr(exact, "_RESIDUAL_BOUND", 1e-300)
        with pytest.raises(RootFindError) as info:
            complex_roots(p, Q=5)
        roots = info.value.roots
        assert list(roots) == sorted(roots, key=lambda z: (z.real, z.imag))
        assert len(roots) == len(solved) == 4
        assert all(abs(z - w) <= 1e-9 for z, w in zip(roots, solved))


def _weil_product(Q, traces):
    """prod (1 - a T + Q T^2) over the traces a."""
    p = Poly.one()
    for a in traces:
        p = p * Poly([1, -a, Q])
    return p


def _y_product(traces):
    """prod (y - a) as integer coefficients, constant term first."""
    h = [1]
    for a in traces:
        h = [x - a * y for x, y in zip([0] + h, h + [0])]
    return h


def _same_multiset(a, b, rel):
    rest = list(b)
    for z in a:
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - z))
        assert abs(rest.pop(k) - z) <= rel * abs(z), (z, a, b)
    assert not rest


def _full_degree(monkeypatch, p, Q):
    with monkeypatch.context() as m:
        m.setattr(exact, "_trace_polynomial", lambda f, Q: None)
        return complex_roots(p, Q=Q)


def _aberth_degrees(monkeypatch):
    """Record the degree of every polynomial the Aberth driver is handed."""
    seen = []
    solve = exact._aberth

    def spy(work, starts):
        seen.append(len(work) - 1)
        return solve(work, starts)

    monkeypatch.setattr(exact, "_aberth", spy)
    return seen


class TestTracePolynomial:
    """Self-reciprocal factors solved at half degree through h(QT + 1/T)."""

    @pytest.mark.parametrize("q", [2, 3, 101, 1000003])
    @pytest.mark.parametrize("g", range(1, 9))
    def test_trace_polynomial_is_product_of_y_minus_traces(self, q, g):
        rng = random.Random(q * 10 + g)
        bound = math.isqrt(4 * q)
        for _ in range(3):
            traces = [rng.randint(-bound, bound) for _ in range(g)]
            f = _weil_product(q, traces)
            assert exact._trace_polynomial(f.ints, q) == _y_product(traces)

    @pytest.mark.parametrize("q, g", [(2, 3), (3, 8), (101, 4), (1000003, 6)])
    def test_half_degree_agrees_with_full_degree(self, monkeypatch, q, g):
        rng = random.Random(g)
        bound = math.isqrt(4 * q)
        for _ in range(5):
            f = _weil_product(q, [rng.randint(-bound, bound) for _ in range(g)])
            half = complex_roots(f, Q=q)
            _same_multiset(half.roots, _full_degree(monkeypatch, f, q).roots, 1e-10)
            assert max(half.residuals) <= 1e-12

    def test_half_degree_agrees_on_genuine_and_slr_numerators(self, monkeypatch, corpus):
        from curvezeta.artin import CurveData
        from curvezeta.group_zeta import slr_zeta

        datum = CurveData(101, 4, [1, 17, 184, 2575, 29246, 260075, 1876984, 17515117, 104060401])
        curves = [c for c in corpus if c.q <= 4][:6] + [datum]
        for c in curves:
            cases = [(c.numerator, c.q)]
            cases += [(Poly(slr_zeta(c, r).numerator_T), c.q**r) for r in range(2, 7)]
            for p, Q in cases:
                assert exact._trace_polynomial(p.monic().ints, Q) is not None, (c, Q)
                _same_multiset(complex_roots(p, Q=Q).roots, _full_degree(monkeypatch, p, Q).roots, 1e-10)

    @pytest.mark.parametrize("q", [2, 3, 5, 101, 1000003])
    def test_lifted_roots_are_polished_on_f(self, q):
        # unpolished lifts of the roots of h reach residuals near 3e-13 on f
        rng = random.Random(q)
        bound = math.isqrt(4 * q)
        for g in range(1, 17):
            for _ in range(10):
                f = _weil_product(q, [rng.randint(-bound, bound) for _ in range(g)])
                assert max(complex_roots(f, Q=q).residuals) <= 1e-14, (q, g)

    def test_aberth_sees_half_degree(self, monkeypatch):
        # the zero trace is divided out of h exactly: the driver sees h / y
        seen = _aberth_degrees(monkeypatch)
        rset = complex_roots(_weil_product(7, [1, -3, 4, 0, 5]), Q=7)
        assert seen == [4] and len(rset.roots) == 10

    def test_zero_trace_gives_exact_pair(self, monkeypatch):
        # 1 + 5 T^2 has h = y: its roots W = +-i come from the exact root
        # y = 0, with no sweep, and stay exact through the polish on f
        seen = _aberth_degrees(monkeypatch)
        rset = complex_roots(Poly([1, 0, 5]), Q=5)
        s = exact.float_sqrt(5)
        assert rset.roots == (-1j / s, 1j / s) and rset.residuals == (0.0, 0.0)
        assert seen == [0] and rset.iterations == 0

    def test_final_polish_sees_each_factor_once(self, monkeypatch):
        # a self-reciprocal factor of degree 10 and an asymmetric one of
        # degree 4 (a square): each is polished once, on its own coefficients
        seen = []
        polish = exact._polished

        def spy(work, zs, *rest):
            seen.append(len(work) - 1)
            return polish(work, zs, *rest)

        monkeypatch.setattr(exact, "_polished", spy)
        p = _weil_product(7, [1, -3, 4, 0, 5]) * Poly([1, 2, 3, 5, 7]) ** 2
        rset = complex_roots(p, Q=7)
        assert sorted(seen) == [4, 10] and len(rset.roots) == 18

    @pytest.mark.parametrize(
        "p, Q",
        [
            (Poly([1, 2, 3, 5, 7]), 3),  # asymmetric
            (_weil_product(5, [1, 2]) * Poly([1, 4]), 5),  # odd degree
            (Poly([1, -2]) * Poly([1, 2]) * _weil_product(4, [1]), 4),  # anti-reciprocal, W = +-1
        ],
    )
    def test_other_factors_take_the_full_degree_path(self, monkeypatch, p, Q):
        assert exact._trace_polynomial(p.monic().ints, Q) is None
        seen = _aberth_degrees(monkeypatch)
        rset = complex_roots(p, Q=Q)
        assert seen == [p.degree] and len(rset.roots) == p.degree
        for z in rset.roots:
            assert abs(p.evaluate(z)) <= 1e-9 * sum(abs(float(c)) * abs(z) ** i for i, c in enumerate(p.coeffs))

    def test_pair_near_w_equal_one_is_polished(self, monkeypatch):
        # 1 - a T + Q T^2 at Q = 10^20, a = 2 10^10 - 100: Y = 2 - 1e-8, so the
        # zeros are W = e^{+-i theta}, theta about 1e-4, a pair 2e-4 apart that
        # is lifted from one root Y and must come back as two distinct roots
        Q, a = 10**20, 2 * 10**10 - 100
        seen = _aberth_degrees(monkeypatch)
        rset = complex_roots(Poly([1, -a, Q]), Q=Q)
        assert seen == [1]
        assert max(rset.residuals) <= 1e-14
        # the roots of 1 - y W + W^2 for the float y = a / 10^10 the solver
        # sees, with 4 - y^2 = (2 - y)(2 + y) and 2 - y exact
        y = a / 1e10
        ws = sorted((z * 1e10 for z in rset.roots), key=lambda w: w.imag)
        for w, sign in zip(ws, (-1, 1)):
            assert abs(w - complex(y, sign * math.sqrt((2 - y) * (2 + y))) / 2) <= 1e-15

    def test_roots_sorted_with_multiplicities_adjacent(self):
        p = _weil_product(3, [1, -2]) ** 2 * Poly([1, 5]) * Poly([2, 0, 3])
        roots = complex_roots(p, Q=3).roots
        assert list(roots) == sorted(roots, key=lambda z: (z.real, z.imag))
        for z in roots:
            twins = [j for j, w in enumerate(roots) if w == z]
            assert twins == list(range(twins[0], twins[0] + len(twins)))


def test_closed_form_two_summand_equality_is_ratfun_equal(curve_g1):
    """The two-summand and single-fraction presentations agree under ==."""
    from curvezeta.rank2 import closed_form_check, rank2_closed_form

    assert closed_form_check(curve_g1) is True
    F1 = rank2_closed_form(curve_g1)
    assert F1 == RationalFunction([1, 1, 4], [1, -5, 4])
