"""The rank-two family: orderings, functional equations, RH, counterexample."""

import math
import random
from enum import Enum
from fractions import Fraction

import pytest
from ratfun_reference import RatFun

from curvezeta import exact, yoshida
from curvezeta.artin import CurveData
from curvezeta.exact import ConventionError, Poly, RationalFunction
from curvezeta.group_zeta import slr_zeta
from curvezeta.yoshida import (
    _deformed_sides,
    canonical_group_cross_check,
    counterexample_search,
    rh_check_zeta2,
    sextic_identity_report,
    zeta2_canonical,
    zeta2_family,
    zeta2_fe_check,
)

F = Fraction


def _curve(q, sums):
    """The curve datum whose numerator is prod (1 - c t + q t^2) over the pair sums."""
    x1 = math.prod((Poly([1, -c, q]) for c in sums), start=Poly.one())
    return CurveData(q, len(sums), x1.coeffs)


def _genus_one_member(q, c):
    return zeta2_canonical(_curve(q, [c]))


def _value(z, t):
    """A member's float value at t."""
    return z.num.evaluate(t) / z.den.evaluate(t)


class _HalfShiftField:
    """E(t) + sqrt(q) * O(t) with E, O exact rational functions: the
    reference's own arithmetic, closed under field operations.

    The sqrt exponent is tracked mod 2 and its magnitude folded into the
    components, which is all the bookkeeping that half-integral powers of q
    require.  For square q the value is rational and O is normalized away.
    """

    __slots__ = ("q", "even", "odd")

    def __init__(self, q, even, odd=None):
        self.q = int(q)
        odd = RatFun.zero() if odd is None else odd
        root = math.isqrt(self.q)
        if root * root == self.q and not odd.is_zero():
            even = even + RatFun.constant(root) * odd
            odd = RatFun.zero()
        self.even = even
        self.odd = odd

    @staticmethod
    def of(q, f):
        return _HalfShiftField(q, RatFun.of(f))

    @staticmethod
    def sqrt_power(q, h):
        """(sqrt q)^h, exact."""
        qf = Fraction(q)
        if h % 2 == 0:
            return _HalfShiftField.of(q, RatFun.constant(qf ** (h // 2)))
        return _HalfShiftField(q, RatFun.zero(), RatFun.constant(qf ** ((h - 1) // 2)))

    def __eq__(self, other):
        return (
            isinstance(other, _HalfShiftField)
            and self.q == other.q
            and self.even == other.even
            and self.odd == other.odd
        )

    def _coerce(self, other):
        if isinstance(other, _HalfShiftField):
            if other.q != self.q:
                raise ValueError("mixed base field sizes")
            return other
        if isinstance(other, (int, Fraction, RationalFunction)):
            return _HalfShiftField.of(self.q, other)
        raise TypeError(f"cannot combine _HalfShiftField with {type(other)}")

    def __add__(self, other):
        o = self._coerce(other)
        return _HalfShiftField(self.q, self.even + o.even, self.odd + o.odd)

    __radd__ = __add__

    def __neg__(self):
        return _HalfShiftField(self.q, -self.even, -self.odd)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        even = self.even * o.even + Fraction(self.q) * self.odd * o.odd
        odd = self.even * o.odd + self.odd * o.even
        return _HalfShiftField(self.q, even, odd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        norm = o.even * o.even - Fraction(self.q) * o.odd * o.odd
        if norm.is_zero():
            raise ZeroDivisionError("division by zero in the quadratic extension")
        conj = _HalfShiftField(self.q, o.even, -o.odd)
        scaled = self * conj
        return _HalfShiftField(self.q, scaled.even / norm, scaled.odd / norm)

    def substitute_reciprocal(self, c):
        """t -> c/t on both components (the s -> 1-s move for c = 1/q)."""
        return _HalfShiftField(self.q, self.even.reciprocal_arg(c), self.odd.reciprocal_arg(c))

    def evaluate(self, t):
        return self.even.evaluate(t) + math.sqrt(self.q) * self.odd.evaluate(t)

    def __repr__(self):
        if self.odd.is_zero():
            return f"_HalfShiftField({self.even!r})"
        return f"_HalfShiftField({self.even!r} + sqrt({self.q})*{self.odd!r})"


def _zeta2_by_products(c, a):
    """Reference zeta2: C1 Y(2s)/(1-qt) - C2 t/(1-t) Y(2s-1), term by term.

    Every factor is a _HalfShiftField and every step one of its field
    operations, as the definition reads; no half power is factored out.
    """
    q, g = c.q, c.g
    qf = F(q)

    def of(f):
        return _HalfShiftField.of(q, f)

    c1 = of(RatFun.t(-a) * RatFun([1, 1]))
    c2 = c1.substitute_reciprocal(F(1, q))
    shift = RatFun.t(-2 * (g - 1))
    x1 = RatFun(c.numerator)
    y_double = _HalfShiftField.sqrt_power(q, -(g - 1)) * of(
        shift * x1.stretch(2) / RatFun([1, 0, -1]) / RatFun([1, 0, -qf])
    )
    y_double_down = _HalfShiftField.sqrt_power(q, -3 * (g - 1)) * of(
        shift * x1.scale_arg(qf).stretch(2) / RatFun([1, 0, -qf]) / RatFun([1, 0, -qf * qf])
    )
    return c1 * y_double / of(RatFun([1, -qf])) - c2 * of(RatFun([0, 1], [1, -1])) * y_double_down


def _scaled_reference(c, a):
    """(sqrt q)^{g-1} times the reference zeta2: a rational function, so its
    odd part is zero."""
    s = _HalfShiftField.sqrt_power(c.q, c.g - 1) * _zeta2_by_products(c, a)
    assert s.odd.is_zero(), c.describe()
    return s.even


def _zeta2_numeric(c, a):
    """Reference zeta2 as a complex function of s, straight from the definition.

    C1(s) Y(2s)/(1 - q^{1-s}) - C1(1-s) q^-s Y(2s-1)/(1 - q^-s) in floats,
    with C1(s) = q^{as}(1 + q^-s), Y(s) = q^{(g-1)(s-1/2)} X1(s)/((1 - q^-s)
    (1 - q^{1-s})) and X1 the curve's numerator.
    """
    q, g, x1 = float(c.q), c.g, c.numerator

    def y(s):
        return q ** ((g - 1) * (s - 0.5)) * x1.evaluate(q**-s) / ((1 - q**-s) * (1 - q ** (1 - s)))

    def c1(s):
        return q ** (a * s) * (1 + q**-s)

    def value(s):
        return c1(s) * y(2 * s) / (1 - q ** (1 - s)) - c1(1 - s) * q**-s * y(2 * s - 1) / (1 - q**-s)

    return value


class TestHalfShiftRational:
    """The reference's field arithmetic on E(t) + sqrt(q) O(t)."""

    def test_square_q_folds(self):
        x = _HalfShiftField.sqrt_power(4, 3)  # (sqrt 4)^3 = 8
        assert x.odd.is_zero() and x.even == RatFun.constant(8)

    def test_field_identities(self):
        a = _HalfShiftField(2, RatFun([1, 1]), RatFun([0, 2]))
        b = _HalfShiftField(2, RatFun([3]), RatFun([1]))
        assert (a * b) / b == a
        assert a - a == _HalfShiftField.of(2, 0)
        assert (a + b) - b == a

    def test_sqrt_squares_to_q(self):
        s = _HalfShiftField.sqrt_power(3, 1)
        assert s * s == _HalfShiftField.of(3, 3)

    def test_numeric_evaluation(self):
        a = _HalfShiftField(2, RatFun([1]), RatFun([0, 1]))
        assert abs(a.evaluate(0.25) - (1 + math.sqrt(2) * 0.25)) < 1e-15

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_reduced_form_is_canonical(self, q):
        # one member against its fields scaled by a common polynomial and
        # rational factor, reduced by a gcd: equal values, equal hashes
        z = zeta2_family(_curve(q, [F(1), F(-2)]), 1)
        assert z.den.monic() == z.den
        for k in (Poly([F(-5, 3)]), Poly([3, -1, 2]), Poly([0, 1]) * Poly([1, 1]) ** 2):
            again = RationalFunction(z.num * k, z.den * k)
            assert again == z and hash(again) == hash(z)


# The exact modulus ordering behind the family's RH argument.  No CLI path
# runs it, so it is kept here, with its tests, rather than in the package.
class Ordering(Enum):
    LT = -1
    EQ = 0
    GT = 1


def modulus_ordering(q, c, w) -> Ordering:
    """Compare |w - a||w - b| against |1 - a w||1 - b w| for z^2 - cz + q roots.

    Uses the difference of squared moduli
        (q - 1)(1 - |w|^2) [ (q + 1)(1 + |w|^2) - 2 c Re(w) ],
    which avoids extracting the roots: the bracket is positive under the
    hypothesis |c| <= q + 1 away from |w| = 1, so the sign is decided by
    1 - |w|^2.  Exact whenever q, c and the components of w are rational.

    ``w`` may be a complex number or an (re, im) pair of rationals.
    """
    if isinstance(w, tuple):
        re, im = Fraction(w[0]), Fraction(w[1])
        qx, cx = Fraction(q), Fraction(c)
        exact = True
    else:
        re, im = w.real, w.imag
        qx, cx = float(q), float(c)
        exact = False
    if qx <= 1:
        raise ValueError("need q > 1")
    if abs(cx) > qx + 1:
        raise ValueError("hypothesis |c| <= q + 1 violated")
    norm = re * re + im * im
    diff = (qx - 1) * (1 - norm) * ((qx + 1) * (1 + norm) - 2 * cx * re)
    if exact:
        if diff > 0:
            return Ordering.GT
        if diff < 0:
            return Ordering.LT
        return Ordering.EQ
    scale = (qx + 1) ** 2 * (1 + norm) ** 2
    if abs(diff) <= 1e-12 * scale:
        return Ordering.EQ
    return Ordering.GT if diff > 0 else Ordering.LT


class TestModulusOrdering:
    def test_at_origin(self):
        assert modulus_ordering(2, 3, (0, 0)) is Ordering.GT

    def test_on_unit_circle(self):
        assert modulus_ordering(2, 0, (0, 1)) is Ordering.EQ

    def test_outside(self):
        assert modulus_ordering(2, 3, (2, 0)) is Ordering.LT

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError):
            modulus_ordering(2, 4, (0, 0))
        with pytest.raises(ValueError):
            modulus_ordering(1, 0, (0, 0))

    def test_fuzz_10k_exact(self):
        rng = random.Random(1234)
        hits = {Ordering.LT: 0, Ordering.EQ: 0, Ordering.GT: 0}
        for k in range(10_000):
            q = 1 + F(rng.randint(1, 144), 16)
            c = F(rng.randint(-32, 32), 32) * (q + 1)
            if k % 5 == 0:
                # exact |w| = 1 through the circle parametrization
                t = F(rng.randint(-40, 40), 17)
                w = (
                    (1 - t * t) / (1 + t * t) * rng.choice([1, -1]),
                    2 * t / (1 + t * t) * rng.choice([1, -1]),
                )
            else:
                w = (F(rng.randint(-300, 300), 100), F(rng.randint(-300, 300), 100))
            norm = w[0] * w[0] + w[1] * w[1]
            verdict = modulus_ordering(q, c, w)
            if norm == 1:
                assert verdict is Ordering.EQ
            elif norm < 1:
                assert verdict is Ordering.GT
            else:
                assert verdict is Ordering.LT
            hits[verdict] += 1
        assert min(hits.values()) > 100  # all three outcomes exercised

    def test_float_path_slack(self):
        assert modulus_ordering(2.0, 2.5, complex(0.6, 0.8)) is Ordering.EQ


class TestSexticIdentity:
    def test_fixture_numbers(self):
        rep = sextic_identity_report(_genus_one_member(2, 0), 2, 0)
        assert rep == {
            "expansion_ok": True,
            "corrected_factorization_ok": True,
            "literal_factorization_ok": False,
        }

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_all_integer_traces(self, q):
        for c in range(-(q + 1), q + 2):
            rep = sextic_identity_report(_genus_one_member(q, c), q, c)
            assert rep["expansion_ok"], (q, c)
            assert rep["corrected_factorization_ok"], (q, c)

    def test_foreign_denominator_is_a_convention_error(self):
        # 1 + t^3 does not divide t(1-t)(1-qt)(1-qt^2): no genus-one canonical member
        with pytest.raises(ConventionError, match="does not divide"):
            sextic_identity_report(RationalFunction(Poly([1]), Poly([1, 0, 0, 1])), 2, 0)

    def test_a_zero_loses_the_trace(self):
        # with a = 0 the trace drops out of the numerator entirely
        members = {zeta2_family(_curve(2, [c]), 0) for c in (-2, 0, 2)}
        assert len({(z.num.monic(), z.den) for z in members}) == 1


class TestFamily:
    def test_functional_equation_exact(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            assert zeta2_fe_check(zeta2_canonical(c), c.q), c.describe()

    def test_functional_equation_fails_on_skewed_input(self, corpus):
        skew = Poly([1, 1])  # not symmetric under t -> 1/(qt)
        for c in corpus:
            if c.g < 1:
                continue
            z = zeta2_canonical(c)
            assert not zeta2_fe_check(RationalFunction(z.num * skew, z.den), c.q), c.describe()

    def test_exact_needs_integer_exponent(self, curve_g1):
        with pytest.raises(ValueError):
            zeta2_family(curve_g1, 0.5)

    @pytest.mark.parametrize("a", [1.0, True, -1, "1"])
    def test_exponent_is_a_nonnegative_int(self, curve_g1, a):
        with pytest.raises(ValueError):
            zeta2_family(curve_g1, a)

    def test_genus_zero_is_refused(self):
        with pytest.raises(ValueError, match="genus >= 1"):
            zeta2_family(CurveData(2, 0, [1]), 1)

    def test_numeric_matches_exact(self):
        c = _curve(2, [1])
        z = zeta2_family(c, 1)
        fn = _zeta2_numeric(c, 1)
        for s in (0.3 + 0.7j, 1.2 - 0.4j, 2.5 + 0j):
            t = 2.0**-s
            assert abs(_value(z, t) - fn(s)) < 1e-9 * (1 + abs(fn(s)))

    def test_numeric_fe_at_random_points(self):
        # the exact member at 1 - s against the reference at s
        c = _curve(3, [2])
        z = zeta2_family(c, 1)
        fn = _zeta2_numeric(c, 1)
        rng = random.Random(5)
        for _ in range(100):
            s = complex(rng.uniform(-2, 3), rng.uniform(-8, 8))
            lhs, rhs = _value(z, 3.0 ** (s - 1)), fn(s)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_genus_two_alternative_exponent(self, curve_g2):
        assert zeta2_fe_check(zeta2_family(curve_g2, curve_g2.g), curve_g2.q)


# the family grid: q square or not, g <= 3 and a <= 3
ZETA2_GRID_Q = [2, 3, 4, 5, 7, 9, 11, 16, 25]


def zeta2_grid_curves(q: int) -> list[CurveData]:
    """Curve data of genus 1..3 from pair sums, and for each genus a
    numerator without the functional equation, as non-genuine data gives."""
    curves = [_curve(q, [F(1), F(-2), F(1, 2)][:g]) for g in (1, 2, 3)]
    return curves + [CurveData(q, g, [1, 1, *range(2, 2 * g + 1)]) for g in (1, 2, 3)]


class TestKnownFactorReduction:
    """zeta2_family reduces by the known factors of its denominator; the gcd
    reduction of the same numerator over the same denominator, both built
    here, is the reference."""

    @pytest.mark.parametrize("q", ZETA2_GRID_Q)
    def test_matches_gcd_reference(self, q):
        qf = F(q)
        for c in zeta2_grid_curves(q):
            x1 = c.numerator
            for a in range(4):
                num = x1.stretch(2) - Poly.x(2 * a, qf ** (a - c.g)) * x1.scale_arg(qf).stretch(2)
                den = Poly.x(a + 2 * (c.g - 1)) * Poly([1, -1]) * Poly([1, -qf]) * Poly([1, 0, -qf])
                assert zeta2_family(c, a) == RationalFunction(num, den), (q, c.A, a)

    def test_takes_no_gcd(self, monkeypatch):
        def no_gcd(a, b):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr(exact, "poly_gcd", no_gcd)
        for q in ZETA2_GRID_Q:
            for c in zeta2_grid_curves(q):
                zeta2_family(c, 1)
        assert not hasattr(yoshida, "poly_gcd")


# pair-sum curves of genus 1..3 over square q, where 1 - qt^2 splits and
# the half power (sqrt q)^{g-1} is rational
SQUARE_Q_CURVES = [_curve(q, [F(1), F(-2), F(1, 2)][:g]) for q in (4, 9, 25) for g in (1, 2, 3)]


class TestOnePassFamily:
    """zeta2_family against the term-by-term _HalfShiftField reference."""

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_is_the_scaled_reference(self, corpus, a):
        for c in corpus + SQUARE_Q_CURVES:
            z = zeta2_family(c, a)
            assert RatFun.of(z) == _scaled_reference(c, a), (c.describe(), a)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_equals_product_reference(self, q):
        for g in (1, 2):
            c = _curve(q, [F(1), F(-2)][:g])
            for a in sorted({0, 1, 3, g}):
                z = zeta2_family(c, a)
                ref = _scaled_reference(c, a)
                where = (q, g, a)
                assert z == ref and hash(z) == hash(ref), where
                assert zeta2_fe_check(z, q), where
                if a == 1:
                    assert zeta2_canonical(c) == z, where
                    assert canonical_group_cross_check(c, slr_zeta(c, 2).combined) is True, where

    def test_cross_check_rejects_a_wrong_right_side(self, curve_g2):
        combined = slr_zeta(curve_g2, 2).combined
        assert canonical_group_cross_check(curve_g2, RatFun.of(combined) * 2) is False

    def test_checks_reject_one_changed_coefficient(self, monkeypatch, corpus):
        # neither exact check is vacuous: the canonical member with the
        # constant coefficient of its numerator off by one fails both
        for c in corpus[:8]:
            if c.g < 1:
                continue
            z = zeta2_canonical(c)
            combined = slr_zeta(c, 2).combined
            assert zeta2_fe_check(z, c.q) and canonical_group_cross_check(c, combined)
            changed = RationalFunction(z.num + Poly.one(), z.den)
            assert not zeta2_fe_check(changed, c.q), c.describe()
            with monkeypatch.context() as m:
                m.setattr(yoshida, "zeta2_canonical", lambda _: changed)
                assert canonical_group_cross_check(c, combined) is False, c.describe()


class TestRhChecks:
    @pytest.mark.parametrize("q", [1000000000000037, 2**103])
    def test_canonical_zeros_at_large_q(self, q):
        # every zero lies within 1e-7 of t = +-q^{-1/2}, which an absolute
        # pole test once took for poles; at 2^103 the float t-plane
        # coefficients failed the residual bound
        rep = rh_check_zeta2(zeta2_canonical(CurveData.elliptic(q, 1)), q)
        assert len(rep.zeros) == 4 and rep.excluded == () and rep.verdict
        assert max(abs(abs(t) * math.sqrt(q) - 1) for t in rep.zeros) <= 1e-12

    @pytest.mark.parametrize(
        "num, on_circle",
        [
            ([1, 0, -2], True),  # t = +-2^{-1/2}
            ([1, 0, -18], False),  # t = +-1/(3 sqrt(2))
            ([1, 0, -9], False),  # t = +-1/3
            ([1, 0, 2], True),  # t = +-i 2^{-1/2}
        ],
    )
    def test_verdict_reads_the_zeros(self, num, on_circle):
        z = RationalFunction(Poly(num))
        rep = rh_check_zeta2(z, 2)
        assert rep.verdict is on_circle and rep.excluded == ()
        for t in rep.zeros:
            assert abs(_value(z, t)) <= 1e-12

    def test_canonical_over_elliptic_grid(self):
        for q in (2, 3, 4, 5):
            bound = int((4 * q) ** 0.5)
            for a in range(-bound, bound + 1):
                rep = rh_check_zeta2(zeta2_canonical(CurveData.elliptic(q, a)), q)
                assert rep.verdict, (q, a, rep.max_deviation)

    def test_zeros_match_group_route(self, curve_g1, curve_g2):
        # the canonical numerator is the T-grid numerator stretched to t^2:
        # the prefactor zeros cancel against the denominator exactly
        for c in (curve_g1, curve_g2):
            stretched = Poly(slr_zeta(c, 2).numerator_T).stretch(2)
            assert zeta2_canonical(c).num.monic() == stretched.monic(), c.describe()

    def test_cross_check_constant(self, corpus):
        for c in corpus[:8]:
            if c.g < 1:
                continue
            assert canonical_group_cross_check(c, slr_zeta(c, 2).combined) is True, c.describe()


class TestCounterexample:
    def test_boundary_signs(self):
        # at w = -sqrt(q) the right side vanishes and the left stays positive
        alpha = complex(0, math.sqrt(2))
        for m in (1, 2, 8, 32):
            f, g = _deformed_sides(2.0, alpha, m)
            assert g(-math.sqrt(2)) == 0.0
            assert f(-math.sqrt(2)) > 0

    def test_search_finds_small_multiplicity(self):
        res = counterexample_search(2, complex(0, math.sqrt(2)), range(1, 65))
        assert res.found
        assert res.m <= 64
        assert -math.sqrt(2) < res.w1 < -1
        assert res.residual <= 1e-10
        assert res.re_s_deviation >= 1e-3
        assert abs(res.s.real - 0.5) == pytest.approx(res.re_s_deviation)

    def test_no_crossing_reports_not_found(self):
        res = counterexample_search(2, complex(0, math.sqrt(2)), range(1, 2))
        assert not res.found

    def test_off_circle_alpha_rejected(self):
        with pytest.raises(ValueError):
            counterexample_search(2, complex(1, 1.5))
