"""Field arithmetic on rational functions: the tests' reference.

The package's :class:`~curvezeta.exact.RationalFunction` keeps a canonical
form and no arithmetic, since every zeta layer reduces its forms by their
known factors.  The tests build independent references with ordinary field
operations instead.  :class:`RatFun` adds them to the canonical form: sums,
products and quotients reduce through the gcd constructor, and the maps
that keep a reduced quotient reduced (-f, f**n, f(t**k), f(c t) for c != 0)
skip the gcd.  :meth:`RatFun.series` expands a quotient at t = 0 by long
division.  A reference so shares only the canonical form, and so ``==``,
with the code under test.
"""

from __future__ import annotations

from fractions import Fraction

from curvezeta.exact import Poly, RationalFunction

Rat = Fraction | int


def _coprime(num: Poly, den: Poly) -> RatFun:
    return RatFun.of(RationalFunction.coprime(num, den))


class RatFun(RationalFunction):
    """A RationalFunction with the field operations; results are RatFuns.

    A package RationalFunction on the left of an operator defers to the
    RatFun on its right, so ``f * RatFun(...)`` works for any f.
    """

    __slots__ = ()

    @staticmethod
    def of(x: RationalFunction | Poly | Rat) -> RatFun:
        """x as a RatFun: a rational function, a polynomial or a rational."""
        if isinstance(x, RatFun):
            return x
        if isinstance(x, RationalFunction):
            f = object.__new__(RatFun)
            f.num, f.den = x.num, x.den
            return f
        if isinstance(x, (int, Fraction)):
            return RatFun(Poly([x]))
        if isinstance(x, Poly):
            return RatFun(x)
        raise TypeError(f"cannot coerce {type(x)} to RatFun")

    @staticmethod
    def zero() -> RatFun:
        return RatFun(Poly())

    @staticmethod
    def one() -> RatFun:
        return RatFun(Poly.one())

    @staticmethod
    def constant(c: Rat) -> RatFun:
        return RatFun(Poly([c]))

    @staticmethod
    def t(power: int = 1) -> RatFun:
        """The monomial t**power; negative powers give 1/t**|power|."""
        if power >= 0:
            return RatFun(Poly.x(power))
        return RatFun(Poly.one(), Poly.x(-power))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("rational function has a nontrivial denominator")
        return self.num

    def __add__(self, other: RationalFunction | Rat) -> RatFun:
        other = RatFun.of(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RatFun:
        return _coprime(-self.num, self.den)

    def __sub__(self, other: RationalFunction | Rat) -> RatFun:
        return self + (-RatFun.of(other))

    def __rsub__(self, other: RationalFunction | Rat) -> RatFun:
        return RatFun.of(other) - self

    def __mul__(self, other: RationalFunction | Rat) -> RatFun:
        other = RatFun.of(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Rat) -> RatFun:
        other = RatFun.of(other)
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: RationalFunction | Rat) -> RatFun:
        return RatFun.of(other) / self

    def __pow__(self, n: int) -> RatFun:
        if n < 0:
            return _coprime(self.den, self.num) ** (-n)
        return _coprime(self.num**n, self.den**n)

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) / d

    def scale_arg(self, c: Rat) -> RatFun:
        """f(c*t).  For c != 0 a common root z of the images would make c z a
        common root of num and den, so no gcd is taken."""
        build = _coprime if c else RatFun
        return build(self.num.scale_arg(c), self.den.scale_arg(c))

    def stretch(self, k: int) -> RatFun:
        """f(t**k); a common root z of the images would make z**k a common
        root of num and den, so no gcd is taken."""
        return _coprime(self.num.stretch(k), self.den.stretch(k))

    def reciprocal_arg(self, c: Rat = 1) -> RatFun:
        return RatFun.of(super().reciprocal_arg(c))

    def series(self, order: int) -> tuple[Fraction, ...]:
        """The coefficients of t^0..t^order of the power series at t = 0,
        by long division; the package's expansion of such a series is
        :func:`~curvezeta.invariants.alpha_from_A`."""
        if self.den[0] == 0:
            raise ZeroDivisionError("pole at t = 0; no power series")
        d0 = self.den[0]
        out: list[Fraction] = []
        for n in range(order + 1):
            acc = self.num[n]
            for k in range(1, n + 1):
                acc -= self.den[k] * out[n - k]
            out.append(acc / d0)
        return tuple(out)
