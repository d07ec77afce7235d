"""Exact univariate polynomial and rational-function arithmetic.

A polynomial is stored as a tuple of Python ints, constant term first, with
no common factor and a positive leading entry, times a rational scale kept
as a reduced integer pair, numerator and positive denominator (the zero
polynomial is the empty tuple with scale 0/1).  By Gauss's lemma a product
of primitive polynomials is primitive and an exact quotient of primitive
polynomials is integral, so products, sums and exact divisions run on ints
and touch the scale once, with integer gcds and no ``Fraction`` arithmetic.
A rational function is a reduced quotient of two polynomials with a monic
denominator, so equal values have equal representations and ``==`` is exact
semantic equality.  It carries no field arithmetic.  A caller that has
cancelled every common factor builds it through
:meth:`RationalFunction.coprime`, and so does f(c/t) for c != 0, which keeps
a reduced quotient reduced.  ``Poly.coeffs`` gives the rational coefficients
back for display and for the root finder.

Every zeta of the package has a denominator made of known binomials
1 - q^e U and monomials, so it is kept as one factored type,
:class:`_FactoredTerm`: a constant, a monomial, one polynomial kept whole
and primitive integer factors with multiplicities, equal factors cancelling.
:func:`_factored_sum` adds such terms over the LCM of their denominators,
and :meth:`_FactoredTerm.ratfun` reduces a term in one variable by exact
division at the known roots of its linear factors, with no gcd.
:func:`poly_gcd`, a primitive pseudo-remainder sequence on the stored ints,
is left to where no factorization is known: the square-free split of the
root finder's input (:func:`squarefree_decomposition`), and the
:class:`RationalFunction` constructor, which on a CLI path reduces only the
SL_r period oracle's ratio when the oracle and the assembly disagree.

The only floating point in this module lives in :func:`complex_roots`.  It
splits its input exactly into square-free factors and takes each along one
path: a root at the origin is divided out exactly, the rest is mapped onto
the critical circle of Q with every coefficient an exact quotient rounded
once, solved by a private, deterministic Aberth-Ehrlich iteration, and
Newton-polished and checked once on the factor.  A factor with the
functional equation T -> 1/(QT) is iterated at half degree, on its exact
integer trace polynomial h, T^{-g} f(T) = h(QT + 1/T)
(:func:`_trace_polynomial`), with a zero trace divided out exactly; each
root of h comes back as a pair.  The roots are returned sorted by
(real, imag); a constant has none.  Every RH report of the package (Artin,
SL_r and zeta2) finds its zeros through this one call, on an exact
polynomial whose poles were already divided out.  Everything else is exact.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

Rat = Fraction | int


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Univariate polynomial over the rationals, ``scale * ints``.

    ``ints`` is a tuple of Python ints, constant term first, with no common
    factor and a positive last entry.  The scale is kept as a reduced integer
    pair, numerator and positive denominator; :attr:`scale` gives it as a
    ``Fraction``.  The zero polynomial is ``()`` with scale 0, and no other
    has scale 0.  Construct from rational coefficients with ``Poly([...])``;
    :attr:`coeffs` gives them back.
    """

    __slots__ = ("ints", "_sn", "_sd", "_coeffs")

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [c if isinstance(c, int) else _frac(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        _normalize(self, [c.numerator * (den // c.denominator) for c in cs], 1, den)

    @staticmethod
    def one() -> Poly:
        return _ONE

    @staticmethod
    def x(power: int = 1, coeff: Rat = 1) -> Poly:
        """The monomial coeff * t**power, for power >= 0."""
        if power < 0:
            raise ValueError("negative monomial power")
        if not coeff:
            return _ZERO
        c = coeff if isinstance(coeff, int) else _frac(coeff)
        return _make((0,) * power + (1,), c.numerator, c.denominator)

    @property
    def scale(self) -> Fraction:
        """The rational factor in front of ``ints``; 0 for the zero polynomial."""
        return Fraction(self._sn, self._sd)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, constant term first (computed once)."""
        cs = self._coeffs
        if cs is None:
            n, d = self._sn, self._sd
            cs = self._coeffs = tuple(Fraction(c * n, d) for c in self.ints)
        return cs

    @property
    def degree(self) -> int:
        """Degree of the canonical form; the zero polynomial has degree -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.ints) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.ints == other.ints
            and self._sn == other._sn
            and self._sd == other._sd
        )

    def __hash__(self) -> int:
        return hash((self.ints, self._sn, self._sd))

    def __add__(self, other: Poly) -> Poly:
        a, b = self.ints, other.ints
        if not a:
            return other
        if not b:
            return self
        sd, td = self._sd, other._sd
        # s a + t b = (x a + y b) / lcm of the scale denominators
        g = math.gcd(sd, td)
        x = self._sn * (td // g)
        y = other._sn * (sd // g)
        if len(a) < len(b):
            a, b, x, y = b, a, y, x
        out = [x * c for c in a]
        for i, c in enumerate(b):
            out[i] += y * c
        return _poly(out, 1, sd // g * td)

    def __neg__(self) -> Poly:
        return _make(self.ints, -self._sn, self._sd) if self.ints else self

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly | Rat) -> Poly:
        if isinstance(other, (int, Fraction)):
            if not other or not self.ints:
                return _ZERO
            n, d = _scale_product(self._sn, self._sd, other.numerator, other.denominator)
            return _make(self.ints, n, d)
        a, b = self.ints, other.ints
        if not a or not b:
            return _ZERO
        n, d = _scale_product(self._sn, self._sd, other._sn, other._sd)
        if len(a) == 1:
            return _make(b, n, d)
        if len(b) == 1:
            return _make(a, n, d)
        # Gauss's lemma: a product of primitive polynomials is primitive
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, e in enumerate(b, i):
                    out[j] += c * e
        return _make(tuple(out), n, d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def exact_div(self, other: Poly) -> Poly:
        """Quotient self/other, raising if the division is not exact."""
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.ints:
            return _ZERO
        n, d = _scale_quotient(self._sn, self._sd, other._sn, other._sd)
        return _make(_exact_quotient(self.ints, other.ints), n, d)

    def monic(self) -> Poly:
        if not self.ints:
            return self
        return _make(self.ints, 1, self.ints[-1])

    def derivative(self) -> Poly:
        return _poly([i * c for i, c in enumerate(self.ints)][1:], self._sn, self._sd)

    def evaluate(self, x):
        """Horner evaluation; works for Fraction, int, float and complex x."""
        if isinstance(x, (Fraction, int)):
            if not self.ints:
                return 0
            # sum c_i a^i b^(n-i) over b^n, in integers
            a, b = x.numerator, x.denominator
            acc, bpow = 0, 1
            for c in reversed(self.ints):
                acc = acc * a + c * bpow
                bpow *= b
            return Fraction(self._sn * acc, self._sd * (bpow // b))
        acc = 0 if not isinstance(x, complex) else 0j
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def scale_arg(self, c: Rat) -> Poly:
        """p(c*t) as a polynomial in t."""
        if not self.ints:
            return self
        u, v = c.numerator, c.denominator
        out = []
        upow = 1
        for a in self.ints:
            out.append(a * upow)
            upow *= u
        n = len(out) - 1
        if v != 1:
            vpow = 1
            for i in range(n, -1, -1):
                out[i] *= vpow
                vpow *= v
        return _poly(out, self._sn, self._sd * v**n)

    def stretch(self, k: int) -> Poly:
        """p(t**k)."""
        if k < 1:
            raise ValueError("stretch factor must be >= 1")
        if k == 1 or not self.ints:
            return self
        out = [0] * (k * self.degree + 1)
        out[::k] = self.ints
        return _make(tuple(out), self._sn, self._sd)

    def reversed(self, degree: int | None = None) -> Poly:
        """t**d * p(1/t) for d = degree (default deg p)."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        if not self.ints:
            return self
        low = 0
        while not self.ints[low]:
            low += 1
        out = (0,) * (d - self.degree) + self.ints[low:][::-1]
        if out[-1] < 0:
            return _make(tuple(-c for c in out), -self._sn, self._sd)
        return _make(out, self._sn, self._sd)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _make(ints: tuple[int, ...], n: int, d: int) -> Poly:
    """A Poly from ints that are already primitive with a positive last entry,
    and a scale n/d already reduced with d > 0."""
    p = object.__new__(Poly)
    p.ints, p._sn, p._sd, p._coeffs = ints, n, d, None
    return p


def _scale_product(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a/b)(c/d) reduced, for reduced a/b and c/d with b, d > 0."""
    g, h = math.gcd(a, d), math.gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _scale_quotient(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a/b)/(c/d) reduced, for reduced a/b and non-zero c/d with b, d > 0."""
    return _scale_product(a, b, -d, -c) if c < 0 else _scale_product(a, b, d, c)


def _normalize(p: Poly, ints: list[int], n: int, d: int) -> None:
    """Set p to (n/d) * ints, d > 0, taking out trailing zeros, content and sign."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        p.ints, p._sn, p._sd, p._coeffs = (), 0, 1, None
        return
    content = _content(ints)
    if content != 1:
        ints = [c // content for c in ints]
        n *= content
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    p.ints, p._sn, p._sd, p._coeffs = tuple(ints), n, d, None


def _poly(ints: list[int], n: int, d: int) -> Poly:
    """(n/d) * ints for any integer list, d > 0."""
    p = object.__new__(Poly)
    _normalize(p, ints, n, d)
    return p


_ZERO = _make((), 0, 1)
_ONE = _make((1,), 1, 1)


def _exact_quotient(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The integer quotient a / b of primitive polynomials, or ValueError.

    When b divides a over the rationals the quotient is primitive (Gauss's
    lemma), so every quotient digit must divide exactly by lead(b).
    """
    n, lead = len(b), b[-1]
    if n == 1:
        return a
    rem = list(a)
    quo = [0] * (len(a) - n + 1)
    if not quo:
        raise ValueError("inexact polynomial division")
    for k in reversed(range(len(quo))):
        c, r = divmod(rem[k + n - 1], lead)
        if r:
            raise ValueError("inexact polynomial division")
        if c:
            quo[k] = c
            for i in range(n - 1):
                rem[k + i] -= c * b[i]
    if any(rem[: n - 1]):
        raise ValueError("inexact polynomial division")
    return tuple(quo)


def _content(ints: list[int]) -> int:
    """The gcd of non-zero ints, with the sign of the last entry."""
    content = math.gcd(*ints)
    return -content if ints[-1] < 0 else content


def _pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """A non-zero integer multiple of (f mod g), for len(f) >= len(g).

    Each step scales the running remainder by lead(g)/d and subtracts
    (top/d) x^k g, with d = gcd(top, lead(g)), so the coefficients stay
    integers and grow no more than the classical pseudo-remainder's.
    """
    r = list(f)
    lead, n = g[-1], len(g)
    while len(r) >= n:
        top = r[-1]
        d = math.gcd(top, lead)
        a, b = lead // d, top // d
        if a != 1:
            r = [a * c for c in r]
        k = len(r) - n
        for i, c in enumerate(g):
            r[k + i] -= b * c
        r.pop()  # a * top - b * lead == 0
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by a primitive pseudo-remainder sequence over the integers.

    Both inputs are already primitive integer polynomials times a scale;
    each pseudo-remainder is divided by its integer content before the next
    step (Collins, J. ACM 1967), so no rational arithmetic happens in the
    loop.  The last non-zero remainder is made monic.  gcd(0, 0) is the zero
    polynomial and gcd(a, 0) is a.monic().
    """
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    f, g = a.ints, b.ints
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = _pseudo_remainder(f, g)
        if not r:
            break
        content = _content(r)
        f, g = g, [c // content for c in r]
    return _make(tuple(g), 1, g[-1])


class RationalFunction:
    """Reduced quotient of two polynomials with monic denominator.

    The canonical form (gcd(num, den) = 1, den monic, zero represented as
    0/1) makes ``==`` exact value equality, so identities can be asserted
    structurally.  The zeta layers build it through :meth:`coprime` after
    cancelling known factors; the constructor takes a gcd, for a quotient
    whose factorization is unknown.  It has no field arithmetic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | Iterable[Rat], den: Poly | Iterable[Rat] = (1,)):
        n = num if isinstance(num, Poly) else Poly(num)
        d = den if isinstance(den, Poly) else Poly(den)
        a, b = n.ints, d.ints
        if not b:
            raise ZeroDivisionError("rational function with zero denominator")
        if len(a) > 1 and len(b) > 1:
            g = poly_gcd(n, d).ints
            if len(g) > 1:
                a, b = _exact_quotient(a, g), _exact_quotient(b, g)
        self._set_coprime(a, b, n, d)

    @staticmethod
    def coprime(num: Poly, den: Poly) -> RationalFunction:
        """num/den in canonical form without a gcd, for num and den the caller
        knows to be coprime (say, every root of den is known and none is a root
        of num).  Coprime inputs give the form the constructor gives."""
        if not den.ints:
            raise ZeroDivisionError("rational function with zero denominator")
        f = object.__new__(RationalFunction)
        f._set_coprime(num.ints, den.ints, num, den)
        return f

    def _set_coprime(self, a: tuple[int, ...], b: tuple[int, ...], s: Poly, t: Poly) -> None:
        """Set self to (scale(s) a) / (scale(t) b), a and b coprime primitive
        ints, b nonempty: zero becomes 0/1, and otherwise the denominator
        becomes b/lead(b)."""
        if not a:
            self.num, self.den = _ZERO, _ONE
            return
        lead = b[-1]
        # scale(s) / scale(t) = x/y in lowest terms, then x / (y lead)
        x, y = _scale_quotient(s._sn, s._sd, t._sn, t._sd)
        g = math.gcd(x, lead)
        self.num = _make(a, x // g, y * (lead // g))
        self.den = _make(b, 1, lead)

    @staticmethod
    def zero() -> RationalFunction:
        return RationalFunction(Poly())

    @staticmethod
    def constant(c: Rat) -> RationalFunction:
        return RationalFunction(Poly([c]))

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other)
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def reciprocal_arg(self, c: Rat = 1) -> RationalFunction:
        """f(c/t); clears the Laurent tail into the denominator.

        Both sides are reversed at d = max(deg num, deg den).  For c != 0 a
        common root z != 0 of the images would make c/z a common root of num
        and den, and z = 0 is not one: the side of degree d keeps a non-zero
        constant term.  So no gcd is taken.
        """
        d = max(self.num.degree, self.den.degree)
        n = self.num.scale_arg(c).reversed(d)
        m = self.den.scale_arg(c).reversed(d)
        build = RationalFunction.coprime if c else RationalFunction
        return build(n, m)

    def series(self, order: int) -> tuple[Fraction, ...]:
        """The coefficients of t^0..t^order of the power series at t = 0."""
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

    def display_pair(self) -> tuple[Poly, Poly]:
        """(num, den) rescaled to primitive integer polynomials.

        The denominator keeps a positive leading coefficient; used for
        reports so humans see integer coefficients.
        """
        if self.num.is_zero():
            return _ZERO, _ONE
        num, den = self.num, self.den
        n, d = _scale_quotient(num._sn, num._sd, den._sn, den._sd)
        return _make(num.ints, n, 1), _make(den.ints, d, 1)

    def __repr__(self) -> str:
        n, d = self.display_pair()
        if d == Poly.one():
            return f"RationalFunction({n!r})"
        return f"RationalFunction({n!r} / {d!r})"


class ConventionError(RuntimeError):
    """An assembled sum violates a structural expectation of its display."""


def _q_power(q: int, e: int) -> tuple[int, int]:
    """q^e as an integer fraction (a, b)."""
    return (q**e, 1) if e >= 0 else (1, q**-e)


Key = tuple[int, int, tuple[int, ...]]  # (e1, e2, ints): sum_k ints[k] (u1^e1 u2^e2)^k


class _FactoredTerm:
    """num/den * poly(u1) * u1^a1 * u2^a2 * prod key^m, m > 0 upstairs and m < 0 downstairs.

    A key (e1, e2, ints) is the polynomial sum_k ints[k] U^k in the monomial
    U = u1^e1 u2^e2 with e1, e2 >= 0, and ints is primitive with a positive
    constant term (the coefficient of the lowest monomial).  The sign, the
    integer content and the monomial content of each factor are moved into
    ``const`` = num/den and ``mono`` = (a1, a2), so equal factors from
    different sources share one key and cancel as they are multiplied in.
    ``factors`` maps each key to its m; a term built without it gets a dict
    of its own.  ``poly`` is one more factor upstairs, a polynomial in u1 kept
    whole, as a sum leaves its numerator; the zero term has poly 0.
    """

    __slots__ = ("num", "den", "mono", "factors", "poly")

    def __init__(
        self,
        num: int = 1,
        den: int = 1,
        mono: tuple[int, int] = (0, 0),
        factors: dict[Key, int] | None = None,
        poly: Poly = _ONE,
    ):
        self.num, self.den, self.mono, self.poly = num, den, mono, poly
        self.factors = {} if factors is None else factors

    @property
    def const(self) -> Fraction:
        return Fraction(self.num, self.den)

    def mul(self, ints: Sequence[int], e1: int, e2: int, power: int, num: int = 1, den: int = 1) -> None:
        """Multiply by (num/den * sum_k ints[k] U^k)**power, U = u1^e1 u2^e2.

        The ints are not all zero; e1 and e2 are both >= 0 or both <= 0, and
        f(1/V) = V^{-n} (rev f)(V) turns the second case into the first.
        """
        a1, a2 = self.mono
        if e1 < 0 or e2 < 0:
            n = power * (len(ints) - 1)
            a1, a2 = a1 + n * e1, a2 + n * e2
            ints, e1, e2 = ints[::-1], -e1, -e2
        lo, hi = 0, len(ints) - 1
        while not ints[lo]:
            lo += 1
        while not ints[hi]:
            hi -= 1
        self.mono = (a1 + power * lo * e1, a2 + power * lo * e2)
        content = math.gcd(*ints) if ints[lo] > 0 else -math.gcd(*ints)
        num *= content
        if power < 0:
            num, den = den, num
        self.num *= num ** abs(power)
        self.den *= den ** abs(power)
        if lo == hi:  # a monomial is all content
            return
        ints = tuple(ints[lo : hi + 1])
        key = (e1, e2, ints if content == 1 else tuple(a // content for a in ints))
        m = self.factors.get(key, 0) + power
        if m:
            self.factors[key] = m
        else:
            del self.factors[key]

    def mul_one_minus(self, q: int, e: int, e1: int, e2: int, power: int) -> None:
        """Multiply by (1 - q^e U)**power; with q^e = a/b this is ((b - a U)/b)**power."""
        a, b = _q_power(q, e)
        self.mul((b, -a), e1, e2, power, 1, b)

    def ratfun(self) -> RationalFunction:
        """The canonical form of a term in u = u1 alone, reduced by its known
        factors instead of a gcd.

        Every downstairs key must be linear, b - a u; any other is a
        :class:`ConventionError`.  It is divided out of the numerator (poly
        and the upstairs keys multiplied out) while the numerator vanishes at
        its root b/a.  Then u is divided out of the numerator while it
        vanishes at 0.  What is left of the denominator has only known roots,
        none of them a root of the numerator, so the two are coprime and no
        gcd is needed (:meth:`RationalFunction.coprime`).
        """
        if self.mono[1] or any(e2 for _, e2, _ in self.factors):
            raise ConventionError("a term in u2 has no form in u alone")
        num, den = self.poly * self.const, _ONE
        if num.is_zero():
            return RationalFunction.zero()
        for (e1, _, ints), m in self.factors.items():
            if m > 0:
                num = _key_power(ints, e1, m) * num
        for (e1, _, ints), m in self.factors.items():
            if m < 0:
                if e1 != 1 or len(ints) != 2:
                    raise ConventionError(f"a non-linear factor {ints} in u^{e1} downstairs")
                factor, root = _key_power(ints, 1, 1), Fraction(-ints[0], ints[1])
                while m and num.evaluate(root) == 0:
                    num = num.exact_div(factor)
                    m += 1
                den = _key_power(ints, 1, -m) * den
        k = self.mono[0]
        while not num.ints[0]:  # dropping zeros keeps the ints primitive
            num, k = _make(num.ints[1:], num._sn, num._sd), k + 1
        if k >= 0:
            return RationalFunction.coprime(num * Poly.x(k), den)
        return RationalFunction.coprime(num, den * Poly.x(-k))


@lru_cache(maxsize=1024)
def _key_power(ints: tuple[int, ...], k: int, m: int) -> Poly:
    """(sum_i ints[i] x^(k i))**m, from a key's primitive ints without
    normalizing; kept, since the same binomials recur across the sums and
    reductions of one job."""
    p = _make(ints, 1, 1) if ints[-1] > 0 else _make(tuple(-a for a in ints), -1, 1)
    return p.stretch(k) ** m


def _factored_sum(terms: Sequence[_FactoredTerm]) -> _FactoredTerm | tuple[Poly, Poly, int]:
    """The sum of the terms over the LCM of their factored denominators.

    The denominator L is that LCM: each key at its largest multiplicity
    downstairs, times the monomial that clears negative exponents.  Each term
    contributes its value times L: its poly, and every key at L's
    multiplicity plus the term's own, which is never negative.  Keys that
    differ but share a polynomial factor are not merged, so L is a common
    multiple, not always the least one; the quotient is the same.  The empty
    sum is the zero term.

    When no term involves u2 the sum is returned as one term: the numerator
    as its poly, over L kept factored.  Otherwise both numerator and
    denominator are returned packed by Kronecker substitution, u1^i u2^j as
    x^(i + D j), with the stride D also returned.  D exceeds the u1-degree
    of every product formed, read off the monomial shifts, the polys' degrees
    and the key multiplicities before anything is multiplied out, so the
    packing is an injective ring homomorphism on everything the sum forms and
    the products and sums run on :class:`Poly`.
    """
    lcm: dict[Key, int] = {}
    for t in terms:
        for key, m in t.factors.items():
            if m < 0:
                lcm[key] = max(lcm.get(key, 0), -m)
    s1 = min((0, *(t.mono[0] for t in terms)))
    s2 = min((0, *(t.mono[1] for t in terms)))
    parts = []  # (const, shifted monomial, key multiplicities, poly); the denominator last
    for t in terms:
        ms = dict(lcm)
        for key, m in t.factors.items():
            ms[key] = ms.get(key, 0) + m
        parts.append((t.const, (t.mono[0] - s1, t.mono[1] - s2), ms, t.poly))
    parts.append((Fraction(1), (-s1, -s2), lcm, _ONE))
    bivariate = any(t.mono[1] or any(key[1] for key in t.factors) for t in terms)
    stride = 1  # packing is the identity in u1 alone
    if bivariate:  # the u1-degree of each product, before it is formed
        stride += max(
            mono[0] + poly.degree + sum(m * key[0] * (len(key[2]) - 1) for key, m in ms.items())
            for _, mono, ms, poly in parts
        )

    def product(const: Fraction, mono: tuple[int, int], ms: dict[Key, int], poly: Poly) -> Poly:
        p = poly
        # keys with the most terms first, while p is short; each packed key is
        # the left factor, whose zeros Poly.__mul__ skips
        for (e1, e2, ints), m in sorted(ms.items(), key=lambda km: -len(km[0][2])):
            if m:
                p = _key_power(ints, e1 + stride * e2, m) * p
        if not p.ints:
            return p
        n, d = _scale_product(p._sn, p._sd, const.numerator, const.denominator)
        return _make((0,) * (mono[0] + stride * mono[1]) + p.ints, n, d)  # times const x^mono

    num = _ZERO
    for part in parts[:-1]:
        num = num + product(*part)
    if bivariate:
        return num, product(*parts[-1]), stride
    return _FactoredTerm(mono=(s1, 0), factors={key: -m for key, m in lcm.items()}, poly=num)


def series_exp(c: Sequence[Rat]) -> tuple[Fraction, ...]:
    """Formal exponential of c_0 + c_1 t + ... (c_0 = 0), to the same order.

    Uses the derivative recurrence b_n = (1/n) * sum_{k=1..n} k a_k b_{n-k},
    which keeps every coefficient an exact rational.
    """
    if c[0] != 0:
        raise ValueError("series_exp requires a zero constant term")
    m = len(c) - 1
    out = [Fraction(1)] + [Fraction(0)] * m
    for n in range(1, m + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * c[k] * out[n - k]
        out[n] = acc / n
    return tuple(out)


class RootFindError(RuntimeError):
    """Simultaneous iteration failed; carries the partial approximation, the
    failing factor's roots in T sorted by (real, imag) as in a result, with
    their residuals."""

    def __init__(self, message: str, roots: Sequence[complex], residuals: Sequence[float]):
        super().__init__(message)
        self.roots = tuple(roots)
        self.residuals = tuple(residuals)


class ComplexRootSet(namedtuple("ComplexRootSet", "roots residuals iterations")):
    """All complex roots of a polynomial, with per-root backward errors.

    ``roots`` and ``residuals`` are tuples of complex and float, in the same
    order.  ``iterations`` counts the Aberth sweeps run, summed over
    square-free factors; it is not part of any report.
    """

    __slots__ = ()


class ZeroReport(
    namedtuple("ZeroReport", "zeros critical_modulus deviations verdict tol excluded", defaults=((),))
):
    """Zeros of a numerator with their distance from the critical modulus.

    ``zeros`` (complex) and ``deviations`` (float) are tuples in the same
    order; ``verdict`` is whether every deviation is within ``tol``.
    ``excluded`` holds the roots divided out as poles, () when there are none.
    """

    __slots__ = ()

    @property
    def max_deviation(self) -> float:
        return max(self.deviations, default=0.0)


_MAX_ITER = 1000
_STEP_TOL = 1e-14
_SEED_ANGLE = 0.3762643  # fixed phase so start points avoid axis symmetry
_JOUKOWSKI_RADIUS = 1.05  # start circle in W for trace polynomials
_RESIDUAL_BOUND = 1e-8  # largest relative backward error of an accepted root


def _relative_residual(coeffs: list[complex], z: complex) -> float:
    """|p(z)| / sum |c_i| |z|^i for p = coeffs, constant term first."""
    val = 0j
    scale = 0.0
    r = abs(z)
    for c in reversed(coeffs):
        val = val * z + c
        scale = scale * r + abs(c)
    return abs(val) / scale if scale else abs(val)


_CERT_PRIME = 1073741789  # the largest prime below 2^30


def _squarefree_mod_prime(ints: Sequence[int], p: int) -> bool:
    """True when p does not divide lead(f) and gcd(f mod p, f' mod p) is constant.

    f = ints, constant term first, degree >= 1; p is a prime.  This is the
    test for f mod p being square-free over F_p, which is how curve models
    check their right-hand side.  With p = _CERT_PRIME it is also a
    certificate that f is square-free over the rationals: a primitive
    h = gcd(f, f') of degree >= 1 divides f and f' in Z[x], and lead(h)
    divides lead(f), so h keeps its degree mod p and would divide both
    reductions (von zur Gathen and Gerhard, Modern Computer Algebra,
    6.4-6.6).  There a False answer proves nothing; the input may still be
    square-free.
    """
    if ints[-1] % p == 0:
        return False
    f = [c % p for c in ints]
    g = [i * c % p for i, c in enumerate(ints)][1:]
    while g and not g[-1]:
        g.pop()
    while g:  # Euclid over F_p; f is never shorter than g
        inv = pow(g[-1], -1, p)
        n = len(g)
        while len(f) >= n:
            top = f.pop() * inv % p
            if top:
                k = len(f) - n + 1
                for i in range(n - 1):
                    f[k + i] = (f[k + i] - top * g[i]) % p
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) == 1


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition [(factor, multiplicity)], factors monic square-free.

    A square-free certificate modulo one fixed prime comes first
    (:func:`_squarefree_mod_prime`); most inputs pass it and skip the
    integer gcd of f and f'.  Inputs it cannot certify, square-free or
    not, go through Yun's algorithm, so the answer never depends on it.
    """
    if p.degree < 1:
        raise ValueError("decomposition needs degree >= 1")
    f = p.monic()
    if _squarefree_mod_prime(p.ints, _CERT_PRIME):
        return [(f, 1)]
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    out: list[tuple[Poly, int]] = []
    b = f.exact_div(g)
    c = f.derivative().exact_div(g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        i += 1
    return out


def complex_roots(p: Poly, *, Q: int = 1) -> ComplexRootSet:
    """All roots of p with multiplicity, by Aberth-Ehrlich iteration, sorted
    by (real, imag) so that equal roots are adjacent.  A constant has none.

    Exact square-free decomposition (:func:`squarefree_decomposition`) comes
    first, so the iteration only ever sees simple roots (full double-precision
    accuracy) and multiplicities are exact integers rather than numerical
    clusters.  A square-free factor f has at most one root at the origin,
    which is divided out exactly, so f_0 != 0.

    Each factor f is solved on the critical circle of ``Q``: the roots of
    interest lie near |T| = Q^{-1/2}, so the driver works in W = sqrt(Q) T,
    on b_i = (f_i / f_0) / Q^{floor(i/2)}, taken exactly and divided by one
    float sqrt(Q) after the float conversion when i is odd; the roots come
    back as T = W / sqrt(Q).  The default Q = 1 leaves T as it is.

    f_0 is the normalizer because b is then f(W / sqrt(Q)) / f(0): b_0 = 1,
    and when every root has |W| = 1 the product of the root moduli gives
    |b_n| = 1 and |b_i| <= binom(n, i).  The coefficients f_i themselves
    grow like Q^{i/2} and leave the float range at large Q, and roots of
    modulus Q^{-1/2} lie far from a start circle read off them; the b_i
    have neither problem.  The starts sit on the circle at the geometric
    mean |b_0 / b_n|^{1/n} of the root moduli.

    A factor that satisfies a functional equation T -> 1/(QT), of even
    degree 2g with f_{2g-i} = Q^{g-i} f_i, is solved at half degree through
    its exact trace polynomial h (:func:`_trace_polynomial`), after an exact
    root y = 0 (a zero trace, W = +-i) is divided out.  In W, y = QT + 1/T
    is sqrt(Q) Y with Y = W + 1/W, so h is solved on h(sqrt(Q) Y) up to a
    constant: the map above on the reversed ints, read backwards.  Its
    starts are w + 1/w for w on |w| = 1.05, an ellipse around [-2, 2].
    After up to three Newton steps on h, each root Y gives
    W = (Y +- sqrt(Y^2 - 4)) / 2, the larger one from the formula and the
    other as its inverse; Y = +-2 would make W = +-1 a double root of f.

    Either way the roots W are polished once on f, whose relative backward
    errors are the residuals (the map leaves them unchanged); one above
    ``_RESIDUAL_BOUND``, or the iteration cap, raises :class:`RootFindError`
    carrying the factor's partial results, mapped back to T and sorted.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    if p.degree == 0:
        return ComplexRootSet((), (), 0)
    s = float_sqrt(Q)
    found: list[tuple[complex, float]] = []
    iterations = 0
    for factor, mult in squarefree_decomposition(p):
        f = factor.ints
        zero = 0 if f[0] else 1  # the root at the origin, if any
        h = _trace_polynomial(f, Q)
        if h is None:
            b = _critical_circle_coeffs(f[zero:], Q, s)
            n = len(b) - 1
            # in logs, so that no quotient under- or overflows
            radius = math.exp((math.log(abs(b[0])) - math.log(abs(b[-1]))) / n) if n else 0.0
            work = _unit_lead(b)
            ws, sweeps, converged = _aberth(work, _start_circle(n, radius))
        else:
            y0 = 0 if h[0] else 1  # the zero trace, if any
            hw = _unit_lead(_critical_circle_coeffs(h[y0:][::-1], Q, s)[::-1])
            starts = [w + 1 / w for w in _start_circle(len(hw) - 1, _JOUKOWSKI_RADIUS)]
            ys, sweeps, converged = _aberth(hw, starts)
            _newton(hw, ys)
            ws = []
            for y in [0j] * y0 + ys:
                r = cmath.sqrt((y - 2) * (y + 2))
                w = (y + r) / 2 if abs(y + r) >= abs(y - r) else (y - r) / 2
                ws += [w, 1 / w]
            # b_0 = 1 and, by the functional equation, b_{2g} = 1: already monic
            work = [complex(c) for c in _critical_circle_coeffs(f, Q, s)]
        residuals = _polished(work, ws, converged, s)
        iterations += sweeps
        for z, res in zip([0j] * zero + ws, [0.0] * zero + residuals):
            found.extend([(z / s, res)] * mult)
    roots, residuals = _sorted_roots(found)
    if len(roots) != p.degree:
        raise RootFindError("square-free decomposition lost degree", roots, residuals)
    return ComplexRootSet(roots, residuals, iterations)


def _trace_polynomial(f: Sequence[int], Q: int) -> list[int] | None:
    """The integer h of degree g with T^{-g} f(T) = h(QT + 1/T), or None.

    f = ints, constant term first, of degree 2g >= 2 with f_{2g-i} =
    Q^{g-i} f_i for every i (Kedlaya, "Search techniques for root-unitary
    polynomials", 2008); None for any other f.  T^{-k} + Q^k T^k = D_k(y),
    y = QT + 1/T, with D_0 = 2, D_1 = y and D_k = y D_{k-1} - Q D_{k-2}, so
    h = f_g + sum_{k=1..g} f_{g-k} D_k.  With f = prod (1 - a_i T + Q T^2),
    h = prod (y - a_i).
    """
    n = len(f) - 1
    if n % 2:
        return None
    g = n // 2
    power = 1
    for i in range(g - 1, -1, -1):
        power *= Q
        if f[n - i] != power * f[i]:
            return None
    h = [0] * (g + 1)
    h[0] = f[g]
    prev, cur = [2], [0, 1]
    for k in range(1, g + 1):
        c = f[g - k]
        for j, d in enumerate(cur):
            h[j] += c * d
        nxt = [0] + cur
        for j, d in enumerate(prev):
            nxt[j] -= Q * d
        prev, cur = cur, nxt
    return h


def float_sqrt(n: int) -> float:
    """math.sqrt(n) for an integer n >= 0, also beyond the float range: above
    2^1000, n is shifted right by 2k bits first and the root scaled by 2^k."""
    k = max(0, n.bit_length() - 1000) // 2
    return math.ldexp(math.sqrt(n >> 2 * k), k)


def _critical_circle_coeffs(ints: Sequence[int], Q: int, s: float) -> list[float]:
    """Coefficients of f(W / s) / f_0 in W, s = sqrt(Q), for f_0 != 0.

    b_i = (f_i / f_0) / Q^{floor(i/2)} exactly, then over s once more when
    i is odd.
    """
    f0 = ints[0]
    out = []
    power = 1
    for i, c in enumerate(ints):
        if i and i % 2 == 0:
            power *= Q
        b = c / (f0 * power)  # int / int: the exact quotient, rounded once
        out.append(b / s if i % 2 else b)
    return out


def _unit_lead(coefficients: list[float]) -> list[complex]:
    """The coefficients as complex numbers, divided by the leading one."""
    work = [complex(c) for c in coefficients]
    lead = work[-1]
    return [c / lead for c in work]


def _aberth(work: list[complex], zs: list[complex]) -> tuple[list[complex], int, bool]:
    """Aberth-Ehrlich iteration on the monic work (constant term first) of
    one square-free factor from the starts zs, one per root, updated in
    place; returns (zs, sweeps, converged) (:func:`complex_roots` only).

    The sweep order is by index, and convergence means every step fell
    below 1e-14 * (1 + |root|), or every residual is at rounding level.
    """
    n = len(zs)
    if not n:
        return zs, 0, True
    for sweeps in range(1, _MAX_ITER + 1):
        max_rel_step = 0.0
        for i in range(n):
            z = zs[i]
            pv, dv = _horner(work, z)
            if dv == 0:
                zs[i] = z + 1e-8 * (1 + abs(z))
                max_rel_step = 1.0
                continue
            newton = pv / dv
            s = 0j
            for j in range(n):
                if j != i:
                    diff = z - zs[j]
                    if diff == 0:
                        diff = 1e-20
                    s += 1 / diff
            denom = 1 - newton * s
            step = newton if denom == 0 else newton / denom
            zs[i] = z - step
            rel = abs(step) / (1.0 + abs(zs[i]))
            max_rel_step = max(max_rel_step, rel)
        if max_rel_step < _STEP_TOL:
            return zs, sweeps, True
        # once every value is at rounding level the steps are rounding noise
        # and need not fall below _STEP_TOL; this exit ends most solves
        if max_rel_step < 1e-2 and all(
            _relative_residual(work, z) < 1e-14 for z in zs
        ):
            return zs, sweeps, True
    return zs, _MAX_ITER, False


def _start_circle(n: int, radius: float) -> list[complex]:
    return [
        radius * cmath.exp(2j * cmath.pi * k / n + 1j * _SEED_ANGLE)
        for k in range(n)
    ]


def _horner(cs: list[complex], z: complex) -> tuple[complex, complex]:
    """p(z) and p'(z) for p = cs, constant term first, in one pass."""
    pv = dv = 0j
    for c in reversed(cs):
        dv = dv * z + pv
        pv = pv * z + c
    return pv, dv


def _newton(work: list[complex], zs: list[complex]) -> None:
    """Up to three Newton steps on each of zs as roots of work (constant
    first), in place, stopping once a step falls below 1e-14 * (1 + |root|)."""
    for i in range(len(zs)):
        for _ in range(3):
            pv, dv = _horner(work, zs[i])
            if dv == 0:
                break
            step = pv / dv
            zs[i] -= step
            if abs(step) < _STEP_TOL * (1.0 + abs(zs[i])):
                break


def _polished(work: list[complex], zs: list[complex], converged: bool, s: float) -> list[float]:
    """The residuals of zs on the factor work after :func:`_newton`; raises
    RootFindError when the iteration did not converge or one exceeds
    ``_RESIDUAL_BOUND``, carrying the roots T = W / s like a result does."""
    _newton(work, zs)
    residuals = [_relative_residual(work, z) for z in zs]
    if not converged:
        failure = f"no convergence after {_MAX_ITER} iterations"
    elif max(residuals, default=0.0) > _RESIDUAL_BOUND:
        failure = f"residual {max(residuals):.3e} exceeds bound {_RESIDUAL_BOUND:.3e}"
    else:
        return residuals
    raise RootFindError(failure, *_sorted_roots([(z / s, res) for z, res in zip(zs, residuals)]))


def _sorted_roots(found: list[tuple[complex, float]]) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """The roots of (root, residual) pairs and their residuals, sorted by the
    roots' (real, imag)."""
    found = sorted(found, key=lambda zr: (zr[0].real, zr[0].imag))
    return tuple(z for z, _ in found), tuple(res for _, res in found)
