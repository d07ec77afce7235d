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
    C1Params,
    HalfShiftRational,
    WeilPairSet,
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


def _genus_one_member(q, c):
    return zeta2_family(WeilPairSet.from_pair_sums(q, [c]), C1Params(a=1))


def _reduced(q, even, odd, den):
    """Reference: (even + sqrt(q) odd) / den in lowest terms by gcds, for any
    den: gcd(den, even), then, unless that is 1 or odd is zero, its gcd with
    odd.  The library reduces only over denominators of known factors."""
    g = exact.poly_gcd(den, even)
    if g.degree > 0 and not odd.is_zero():
        g = exact.poly_gcd(g, odd)
    if g.degree > 0:
        even, odd, den = even.exact_div(g), odd.exact_div(g), den.exact_div(g)
    return yoshida._over_monic(q, even, odd, den)


def _member(q, even, odd=(), den=(1,)):
    """The reduced member (even + sqrt(q) odd) / den from coefficient lists."""
    return _reduced(q, Poly(even), Poly(odd), Poly(den))


def _value(z, t):
    """A member's float value at t."""
    return (z.even.evaluate(t) + math.sqrt(z.q) * z.odd.evaluate(t)) / z.den.evaluate(t)


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

    def member(self):
        """The same value as one reduced fraction over the product of the
        parts' denominators."""
        e, o = self.even, self.odd
        return _reduced(self.q, e.num * o.den, o.num * e.den, e.den * o.den)

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


def _zeta2_by_products(ws, params):
    """Reference member: C1 Y(2s)/(1-qt) - C2 t/(1-t) Y(2s-1), term by term.

    Every factor is a _HalfShiftField and every step one of its field
    operations, as the definition reads; no half power is factored out.
    The result is reduced to one fraction at the end.
    """
    q, g, a = ws.q, ws.g, int(params.a)
    h = len(params.extra_pair_sums)
    qf = F(q)

    def of(f):
        return _HalfShiftField.of(q, f)

    c1 = of(RatFun.t(h - a) * RatFun([1, 1]))
    for cj in params.extra_pair_sums:
        # (1 - g q^{s-1/2})(1 - d q^{s-1/2}) = 1 + t^-2 - (c/q) sqrt(q) t^-1
        c1 = c1 * _HalfShiftField(
            q,
            RatFun.one() + RatFun.t(-2),
            RatFun.constant(-F(cj) / qf) * RatFun.t(-1),
        )
    c2 = c1.substitute_reciprocal(F(1, q))
    shift = RatFun.t(-2 * (g - 1))
    x1 = RatFun(ws.x1)
    y_double = _HalfShiftField.sqrt_power(q, -(g - 1)) * of(
        shift * x1.stretch(2) / RatFun([1, 0, -1]) / RatFun([1, 0, -qf])
    )
    y_double_down = _HalfShiftField.sqrt_power(q, -3 * (g - 1)) * of(
        shift * x1.scale_arg(qf).stretch(2) / RatFun([1, 0, -qf]) / RatFun([1, 0, -qf * qf])
    )
    value = c1 * y_double / of(RatFun([1, -qf])) - c2 * of(
        RatFun([0, 1], [1, -1])
    ) * y_double_down
    return value.member()


def _zeta2_numeric(ws, params):
    """Reference member as a complex function of s, straight from the definition.

    C1(s) Y(2s)/(1 - q^{1-s}) - C1(1-s) q^-s Y(2s-1)/(1 - q^-s) in floats,
    with Y(s) = q^{(g-1)(s-1/2)} X1(s)/((1 - q^-s)(1 - q^{1-s})) and X1 the
    product over the pair sums the set carries; any nonnegative real a.
    """
    sums = [float(c) for c in ws.pair_sums]
    q, a, g = float(ws.q), float(params.a), ws.g
    extra = [float(c) for c in params.extra_pair_sums]

    def x1(s):
        t = q**-s
        return math.prod((1 - c * t + q * t * t for c in sums), start=1 + 0j)

    def y(s):
        return q ** ((g - 1) * (s - 0.5)) * x1(s) / ((1 - q**-s) * (1 - q ** (1 - s)))

    def c1(s):
        acc = q ** (a * s) * (1 + q**-s) * q ** (-len(extra) * s)
        for c in extra:
            acc *= 1 - c * q ** (s - 0.5) + q * q ** (2 * s - 1)
        return acc

    def value(s):
        return c1(s) * y(2 * s) / (1 - q ** (1 - s)) - c1(1 - s) * q**-s * y(2 * s - 1) / (1 - q**-s)

    return value


class TestHalfShiftRational:
    """The reduced member, and the reference's field arithmetic."""

    def test_square_q_folds(self):
        x = _HalfShiftField.sqrt_power(4, 3)  # (sqrt 4)^3 = 8
        assert x.odd.is_zero() and x.even == RatFun.constant(8)

    def test_field_identities(self):
        a = _HalfShiftField(2, RatFun([1, 1]), RatFun([0, 2]))
        b = _HalfShiftField(2, RatFun([3]), RatFun([1]))
        assert (a * b) / b == a
        assert a - a == _HalfShiftField.of(2, 0)
        assert (a + b) - b == a
        # and as reduced members
        assert ((a * b) / b).member() == a.member()
        assert (a - a).member() == _member(2, [])

    def test_sqrt_squares_to_q(self):
        s = _HalfShiftField.sqrt_power(3, 1)
        assert s * s == _HalfShiftField.of(3, 3)

    def test_numeric_evaluation(self):
        a = _HalfShiftField(2, RatFun([1]), RatFun([0, 1]))
        val = a.evaluate(0.25)
        assert abs(val - (1 + math.sqrt(2) * 0.25)) < 1e-15
        assert abs(_value(a.member(), 0.25) - val) < 1e-15

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_reduced_form_is_canonical(self, q):
        # one member built twice, every field first scaled by a common
        # polynomial and rational factor: equal fields, equal hashes
        ws = WeilPairSet.from_pair_sums(q, [F(1), F(-2)])
        z = zeta2_family(ws, C1Params(a=1, extra_pair_sums=(F(3, 2),)))
        assert not z.even.is_zero() and z.den.monic() == z.den
        for k in (Poly([F(-5, 3)]), Poly([3, -1, 2]), Poly([0, 1]) * Poly([1, 1]) ** 2):
            again = _reduced(q, z.even * k, z.odd * k, z.den * k)
            assert again == z and hash(again) == hash(z)
        assert len({z, _reduced(q, z.even * 2, z.odd * 2, z.den * 2)}) == 1

    def test_zero_is_zero_over_one(self):
        z = _member(5, [], [], [2, 7, 1])
        assert z == HalfShiftRational(5, Poly(), Poly(), Poly.one())


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
        rep = sextic_identity_report(_genus_one_member(2, 0), 0)
        assert rep["expansion_ok"]
        assert rep["corrected_factorization_ok"]
        assert not rep["literal_factorization_ok"]
        assert rep["quartic"] == Poly([1, 0, 1, 0, 4])

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_all_integer_traces(self, q):
        for c in range(-(q + 1), q + 2):
            rep = sextic_identity_report(_genus_one_member(q, c), c)
            assert rep["expansion_ok"], (q, c)
            assert rep["corrected_factorization_ok"], (q, c)

    def test_foreign_denominator_is_a_convention_error(self):
        # 1 + t^3 does not divide t(1-t)(1-qt)(1-qt^2): no genus-one canonical member
        with pytest.raises(ConventionError, match="does not divide"):
            sextic_identity_report(_member(2, [1], [], [1, 0, 0, 1]), 0)

    def test_a_zero_loses_the_trace(self):
        # with a = 0 the trace drops out of the numerator entirely
        polys = set()
        for c in (-2, 0, 2):
            ws = WeilPairSet.from_pair_sums(2, [c])
            z = zeta2_family(ws, C1Params(a=0))
            num = (z.even.monic(), z.den)
            polys.add(num)
        assert len(polys) == 1


class TestFamily:
    def test_functional_equation_exact(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            z = zeta2_canonical(c)
            assert zeta2_fe_check(z), c.describe()

    def test_functional_equation_fails_on_skewed_input(self, corpus):
        skew = Poly([1, 1])  # not symmetric under t -> 1/(qt)
        for c in corpus:
            if c.g < 1:
                continue
            z = zeta2_canonical(c)
            skewed = _reduced(z.q, z.even * skew, z.odd * skew, z.den)
            assert not zeta2_fe_check(skewed), c.describe()

    def test_family_with_extra_pair_fe(self):
        ws = WeilPairSet.from_pair_sums(2, [0])
        z = zeta2_family(ws, C1Params(a=1, extra_pair_sums=(F(3),)))
        assert zeta2_fe_check(z)

    def test_pair_sum_bound(self):
        with pytest.raises(ValueError):
            WeilPairSet.from_pair_sums(2, [4])

    def test_extra_pair_bound(self):
        ws = WeilPairSet.from_pair_sums(2, [0])
        with pytest.raises(ValueError):
            zeta2_family(ws, C1Params(a=1, extra_pair_sums=(F(7, 2),)))

    def test_exact_needs_integer_exponent(self):
        with pytest.raises(ValueError):
            C1Params(a=0.5)

    @pytest.mark.parametrize("a", [1.0, True, -1, "1"])
    def test_exponent_is_a_nonnegative_int(self, a):
        with pytest.raises(ValueError):
            C1Params(a=a)

    def test_numeric_matches_exact(self):
        ws = WeilPairSet.from_pair_sums(2, [1])
        z = zeta2_family(ws, C1Params(a=1))
        fn = _zeta2_numeric(ws, C1Params(a=1))
        for s in (0.3 + 0.7j, 1.2 - 0.4j, 2.5 + 0j):
            t = 2.0**-s
            assert abs(_value(z, t) - fn(s)) < 1e-9 * (1 + abs(fn(s)))

    def test_numeric_fe_at_random_points(self):
        ws = WeilPairSet.from_pair_sums(3, [2])
        fn = _zeta2_numeric(ws, C1Params(a=1))
        rng = random.Random(5)
        for _ in range(100):
            s = complex(rng.uniform(-2, 3), rng.uniform(-8, 8))
            lhs, rhs = fn(1 - s), fn(s)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_genus_two_alternative_exponent(self, curve_g2):
        ws = WeilPairSet.from_curve(curve_g2)
        zg = zeta2_family(ws, C1Params(a=curve_g2.g))
        assert zeta2_fe_check(zg)


# the family grid: q square or not, g <= 3, a <= 3, and up to two extra pair
# sums, half-integers among them
ZETA2_GRID_Q = [2, 3, 4, 5, 7, 9, 11, 16, 25]
ZETA2_GRID_EXTRA = [(), (F(3, 2),), (F(-1),), (F(0),), (F(-5, 2),), (F(1, 2), F(-1)), (F(3, 2), F(3, 2)), (F(2), F(-1, 2))]


def zeta2_grid_pair_sets(q: int) -> list[WeilPairSet]:
    """Pair sets of genus 0..3, and, for g >= 1, a numerator without the
    functional equation, as non-genuine curve data gives one."""
    sets = [WeilPairSet.from_pair_sums(q, [F(1), F(-2), F(1, 2)][:g]) for g in range(4)]
    return sets + [WeilPairSet(q, g, Poly([1, 1, *range(2, 2 * g + 1)])) for g in (1, 2, 3)]


def zeta2_grid_extras(q: int) -> list[tuple[Fraction, ...]]:
    """The extra pair sums of the grid, and sums at the bound +-(q + 1): one
    vanishes at t = 1/sqrt(q), the other at t = -1/sqrt(q)."""
    return [*ZETA2_GRID_EXTRA, (F(q + 1),), (F(-q - 1), F(1, 2))]


class TestKnownFactorReduction:
    """zeta2_family reduces by the known factors of its denominator; the gcd
    reduction of the same fields is the reference."""

    @pytest.mark.parametrize("q", ZETA2_GRID_Q)
    def test_matches_gcd_reference(self, monkeypatch, q):
        seen = []
        reduced_by = yoshida._reduced_by
        monkeypatch.setattr(yoshida, "_reduced_by", lambda *args: seen.append(args) or reduced_by(*args))
        t, qf = Poly.x(), F(q)
        for ws in zeta2_grid_pair_sets(q):
            for a in range(4):
                for extra in zeta2_grid_extras(q):
                    z = zeta2_family(ws, C1Params(a=a, extra_pair_sums=extra))
                    (_, even, odd, factors), where = seen.pop(), (q, ws.x1, a, extra)
                    # the factors are the denominator's factorization over Q
                    den = math.prod((f**m for f, m in factors), start=Poly.one())
                    k = max(a + len(extra) + 2 * (ws.g - 1), 0)
                    assert den == t**k * Poly([1, -1]) * Poly([1, -qf]) * Poly([1, 0, -qf]), where
                    assert all(f.degree == 1 for f, _ in factors) == (math.isqrt(q) ** 2 == q), where
                    assert z == _reduced(q, even, odd, den), where

    def test_takes_no_gcd(self, monkeypatch):
        def no_gcd(a, b):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr(exact, "poly_gcd", no_gcd)
        for q in ZETA2_GRID_Q:
            for ws in zeta2_grid_pair_sets(q):
                for extra in zeta2_grid_extras(q):
                    zeta2_family(ws, C1Params(a=1, extra_pair_sums=extra))
        assert not hasattr(yoshida, "poly_gcd")


class TestOnePassFamily:
    """zeta2_family against the term-by-term HalfShiftRational reference."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_equals_product_reference(self, q):
        for g in (0, 1, 2):  # g = 0 gives a negative power of t
            ws = WeilPairSet.from_pair_sums(q, [F(1), F(-2)][:g])
            for a in sorted({0, 1, 3, g}):
                for h in (0, 1, 2):
                    params = C1Params(a=a, extra_pair_sums=(F(3, 2), F(-1))[:h])
                    z = zeta2_family(ws, params)
                    ref = _zeta2_by_products(ws, params)
                    where = (q, g, a, h)
                    assert z == ref and hash(z) == hash(ref), where
                    assert zeta2_fe_check(z), where
                    if a == 1 and h == 0 and g >= 1:
                        curve = CurveData(q, g, ws.x1.coeffs)
                        assert zeta2_canonical(curve) == z, where
                        combined = slr_zeta(curve, 2).combined
                        assert canonical_group_cross_check(curve, combined) is True, where

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
            assert zeta2_fe_check(z) and canonical_group_cross_check(c, combined)
            part = z.even if z.odd.is_zero() else z.odd
            bumped = part + Poly.one()
            if part is z.even:
                changed = _reduced(z.q, bumped, z.odd, z.den)
            else:
                changed = _reduced(z.q, z.even, bumped, z.den)
            assert not zeta2_fe_check(changed), c.describe()
            with monkeypatch.context() as m:
                m.setattr(yoshida, "zeta2_canonical", lambda _: changed)
                assert canonical_group_cross_check(c, combined) is False, c.describe()


def _float_route_zeros(z):
    """The former zeta2 route, kept as a reference, built from the exact pair.

    Float coefficients n1 + sqrt(q) n2 in t go to the Aberth driver with no
    square-free split and no critical-circle map; roots where the least
    common denominator vanishes, or within 1e-7 of +-1, +-q^{-1/2} and
    +-1/q, are dropped.
    """
    n1, n2, lcm = z.even, z.odd, z.den
    root = math.sqrt(z.q)
    coeffs = [float(n1[i]) + root * float(n2[i]) for i in range(max(n1.degree, n2.degree) + 1)]
    zeros = 0
    while coeffs[zeros] == 0:
        zeros += 1
    coeffs = coeffs[zeros:]
    n = len(coeffs) - 1
    radius = (abs(coeffs[0]) / abs(coeffs[-1])) ** (1 / n)
    work = [complex(c) / coeffs[-1] for c in coeffs]
    roots, _, converged = exact._aberth(work, exact._start_circle(n, radius))
    assert converged
    poles = [sign * z.q ** (-k / 2) for k in (0, 1, 2) for sign in (1, -1)]
    dscale = max(abs(float(c)) for c in lcm.coeffs)
    return [
        t
        for t in [0j] * zeros + roots
        if abs(lcm.evaluate(complex(t))) > 1e-9 * dscale * (1 + abs(t)) ** lcm.degree
        and all(abs(t - p) > 1e-7 for p in poles)
    ]


def _same_multiset(xs, ys, rel):
    """Each x matched to its own y within rel * |x|."""
    ys = list(ys)
    for x in xs:
        k = min(range(len(ys)), key=lambda i: abs(ys[i] - x), default=None)
        if k is None or abs(ys[k] - x) > rel * abs(x):
            return False
        ys.pop(k)
    return not ys


class TestRhChecks:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_mixed_members_match_the_float_route(self, q):
        # both parts nonzero: the W = sqrt(q) t route against the former one
        mixed = 0
        for g in (0, 1, 2):
            ws = WeilPairSet.from_pair_sums(q, [F(1), F(-2)][:g])
            for a in sorted({0, 1, 3, g}):
                for h in (1, 2):
                    z = zeta2_family(ws, C1Params(a=a, extra_pair_sums=(F(3, 2), F(-1))[:h]))
                    if z.even.is_zero() or z.odd.is_zero():
                        continue
                    mixed += 1
                    rep = rh_check_zeta2(z)
                    assert rep.excluded == ()
                    assert _same_multiset(_float_route_zeros(z), rep.zeros, 1e-9), (q, g, a, h)
        assert mixed == 19

    @pytest.mark.parametrize("q", [1000000000000037, 2**103])
    def test_canonical_zeros_at_large_q(self, q):
        # every zero lies within 1e-7 of t = +-q^{-1/2}, which an absolute
        # pole test once took for poles; at 2^103 the float t-plane
        # coefficients failed the residual bound
        rep = rh_check_zeta2(zeta2_canonical(CurveData.elliptic(q, 1)))
        assert len(rep.zeros) == 4 and rep.excluded == () and rep.verdict
        assert max(abs(abs(t) * math.sqrt(q) - 1) for t in rep.zeros) <= 1e-12

    def test_parts_of_one_parity_raise(self):
        # 1 + t^2 + 3 sqrt(2): sqrt(2) stays in every W-coefficient
        z = _member(2, [1, 0, 1], [3])
        with pytest.raises(ArithmeticError):
            rh_check_zeta2(z)

    @pytest.mark.parametrize(
        "even, odd, on_circle",
        [
            ([1], [0, 1], True),  # 1 + sqrt(2) t: t = -2^{-1/2}
            ([1], [0, 3], False),  # 1 + 3 sqrt(2) t: t = -1/(3 sqrt(2))
            ([0, 2], [1], True),  # 2 t + sqrt(2), odd n1: t = -2^{-1/2}
            ([0, 1], [1], False),  # t + sqrt(2), odd n1: t = -sqrt(2)
            ([1, 0, -9], [], False),  # one part: t = +-1/3
            ([1, 0, 2], [], True),  # one part: t = +-i 2^{-1/2}
        ],
    )
    def test_verdict_reads_the_zeros(self, even, odd, on_circle):
        z = _member(2, even, odd)
        rep = rh_check_zeta2(z)
        assert rep.verdict is on_circle and rep.excluded == ()
        for t in rep.zeros:
            assert abs(_value(z, t)) <= 1e-12

    def test_canonical_over_elliptic_grid(self):
        for q in (2, 3, 4, 5):
            bound = int((4 * q) ** 0.5)
            for a in range(-bound, bound + 1):
                c = CurveData.elliptic(q, a)
                rep = rh_check_zeta2(zeta2_canonical(c))
                assert rep.verdict, (q, a, rep.max_deviation)

    def test_family_with_admissible_extra_pair(self):
        ws = WeilPairSet.from_pair_sums(2, [0])
        z = zeta2_family(ws, C1Params(a=1, extra_pair_sums=(F(3),)))
        rep = rh_check_zeta2(z)
        assert rep.verdict

    def test_zeros_match_group_route(self, curve_g1, curve_g2):
        # the canonical numerator is the T-grid numerator stretched to t^2:
        # the prefactor zeros cancel against the denominator exactly.  The
        # value sits in the parity component picked by (sqrt q)^{-(g-1)}.
        for c in (curve_g1, curve_g2):
            z = zeta2_canonical(c)
            part = z.even if c.g % 2 == 1 else z.odd
            assert (z.odd if c.g % 2 == 1 else z.even).is_zero()
            A = slr_zeta(c, 2).numerator_T
            stretched = Poly(A).stretch(2)
            assert part.monic() == stretched.monic(), c.describe()

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
