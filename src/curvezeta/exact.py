"""Exact univariate polynomial and rational-function arithmetic.

A polynomial is a dense tuple of ``Fraction`` coefficients, constant term
first, with trailing zeros stripped (the zero polynomial is the empty
tuple).  A rational function is a reduced quotient of two polynomials with
a monic denominator, so equal values have equal representations and ``==``
is exact semantic equality.

The only floating point in this module lives in :func:`complex_roots`, a
deterministic Aberth-Ehrlich simultaneous iteration with Newton polishing.
Everything else is exact.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction | int


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Dense univariate polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @staticmethod
    def zero() -> Poly:
        return Poly()

    @staticmethod
    def one() -> Poly:
        return Poly([1])

    @staticmethod
    def x(power: int = 1, coeff: Rat = 1) -> Poly:
        """The monomial coeff * t**power."""
        return Poly([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the canonical form; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly | Rat) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        while len(rem) >= dn:
            c = rem[-1] / dlead
            k = len(rem) - dn
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < dn or not rem:
                break
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def exact_div(self, other: Poly) -> Poly:
        """Quotient self/other, raising if the division is not exact."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def derivative(self) -> Poly:
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """Horner evaluation; works for Fraction, int, float and complex x."""
        acc = 0 if not isinstance(x, complex) else 0j
        for c in reversed(self.coeffs):
            acc = acc * x + (c if isinstance(x, (Fraction, int)) else float(c))
        return acc

    def scale_arg(self, c: Rat) -> Poly:
        """p(c*t) as a polynomial in t."""
        c = _frac(c)
        return Poly([a * c**i for i, a in enumerate(self.coeffs)])

    def stretch(self, k: int) -> Poly:
        """p(t**k)."""
        if k < 1:
            raise ValueError("stretch factor must be >= 1")
        out = [Fraction(0)] * (k * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            out[k * i] = a
        return Poly(out)

    def reversed(self, degree: int | None = None) -> Poly:
        """t**d * p(1/t) for d = degree (default deg p)."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(self.coeffs):
            out[d - i] = a
        return Poly(out)

    def content_normalized(self) -> tuple[Poly, Fraction]:
        """(primitive integer polynomial with positive leading coeff, scale).

        Returns (p0, s) with self == s * p0.  Used for display only; the
        arithmetic canonical form is the monic denominator convention.
        """
        if self.is_zero():
            return self, Fraction(1)
        from math import gcd, lcm

        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [c * den for c in self.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, int(c))
        sign = -1 if ints[-1] < 0 else 1
        scale = Fraction(sign * g, den)
        return Poly([c / (sign * g) for c in ints]), scale

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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class RationalFunction:
    """Reduced quotient of two polynomials with monic denominator.

    The canonical form (gcd(num, den) = 1, den monic, zero represented as
    0/1) makes ``==`` exact value equality, so identities can be asserted
    structurally.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | Iterable[Rat], den: Poly | Iterable[Rat] = (1,)):
        n = num if isinstance(num, Poly) else Poly(num)
        d = den if isinstance(den, Poly) else Poly(den)
        if d.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero():
            self.num, self.den = Poly(), Poly.one()
            return
        g = poly_gcd(n, d)
        if g.degree > 0:
            n = n.exact_div(g)
            d = d.exact_div(g)
        lead = d.coeffs[-1]
        self.num = Poly([c / lead for c in n.coeffs])
        self.den = Poly([c / lead for c in d.coeffs])

    @staticmethod
    def zero() -> RationalFunction:
        return RationalFunction(Poly())

    @staticmethod
    def one() -> RationalFunction:
        return RationalFunction(Poly.one())

    @staticmethod
    def constant(c: Rat) -> RationalFunction:
        return RationalFunction(Poly([c]))

    @staticmethod
    def t(power: int = 1) -> RationalFunction:
        """The monomial t**power; negative powers give 1/t**|power|."""
        if power >= 0:
            return RationalFunction(Poly.x(power))
        return RationalFunction(Poly.one(), Poly.x(-power))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num[0]

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("rational function has a nontrivial denominator")
        return self.num

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

    def __add__(self, other: RationalFunction | Rat) -> RationalFunction:
        other = _as_ratfun(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: RationalFunction | Rat) -> RationalFunction:
        return self + (-_as_ratfun(other))

    def __rsub__(self, other: Rat) -> RationalFunction:
        return _as_ratfun(other) - self

    def __mul__(self, other: RationalFunction | Rat) -> RationalFunction:
        other = _as_ratfun(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Rat) -> RationalFunction:
        other = _as_ratfun(other)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Rat) -> RationalFunction:
        return _as_ratfun(other) / self

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) / d

    def scale_arg(self, c: Rat) -> RationalFunction:
        """f(c*t)."""
        return RationalFunction(self.num.scale_arg(c), self.den.scale_arg(c))

    def stretch(self, k: int) -> RationalFunction:
        """f(t**k)."""
        return RationalFunction(self.num.stretch(k), self.den.stretch(k))

    def reciprocal_arg(self, c: Rat = 1) -> RationalFunction:
        """f(c/t); clears the Laurent tail into the denominator."""
        d = max(self.num.degree, self.den.degree)
        n = self.num.scale_arg(c).reversed(d)
        m = self.den.scale_arg(c).reversed(d)
        return RationalFunction(n, m)

    def compose_monomial(self, c: Rat, power: int) -> RationalFunction:
        """f(c * t**power) for a nonzero integer power."""
        if power == 0:
            raise ValueError("power must be nonzero")
        g = self.scale_arg(c)
        if power < 0:
            g = g.reciprocal_arg()
            power = -power
        return g.stretch(power) if power > 1 else g

    def series(self, order: int) -> TruncatedSeries:
        """Power-series expansion at t = 0 up to the given order."""
        if self.den[0] == 0:
            raise ZeroDivisionError("pole at t = 0; no power series")
        d0 = self.den[0]
        out: list[Fraction] = []
        for n in range(order + 1):
            acc = self.num[n]
            for k in range(1, n + 1):
                acc -= self.den[k] * out[n - k]
            out.append(acc / d0)
        return TruncatedSeries(out)

    def display_pair(self) -> tuple[Poly, Poly]:
        """(num, den) rescaled to primitive integer polynomials.

        The denominator keeps a positive leading coefficient; used for
        reports so humans see integer coefficients.
        """
        n0, sn = self.num.content_normalized()
        d0, sd = self.den.content_normalized()
        s = sn / sd
        return Poly([c * s.numerator for c in n0.coeffs]), Poly(
            [c * s.denominator for c in d0.coeffs]
        )

    def __repr__(self) -> str:
        n, d = self.display_pair()
        if d == Poly.one():
            return f"RationalFunction({n!r})"
        return f"RationalFunction({n!r} / {d!r})"


def _as_ratfun(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.constant(x)
    if isinstance(x, Poly):
        return RationalFunction(x)
    raise TypeError(f"cannot coerce {type(x)} to RationalFunction")


def ratfun_equal(f: RationalFunction, g: RationalFunction) -> bool:
    """Exact equality via cross multiplication of the stored quotients."""
    return f.num * g.den == g.num * f.den


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series truncated at a fixed order; length = order + 1."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rat]):
        object.__setattr__(self, "coeffs", tuple(_frac(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if self.order != other.order:
            raise ValueError("series order mismatch")
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: TruncatedSeries | Rat) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs])
        if self.order != other.order:
            raise ValueError("series order mismatch")
        m = self.order
        out = [Fraction(0)] * (m + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(m + 1 - i):
                    out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(out)


def series_exp(c: TruncatedSeries) -> TruncatedSeries:
    """Formal exponential of a series with zero constant term.

    Uses the derivative recurrence b_n = (1/n) * sum_{k=1..n} k a_k b_{n-k},
    which keeps every coefficient an exact rational.
    """
    if c[0] != 0:
        raise ValueError("series_exp requires a zero constant term")
    m = c.order
    out = [Fraction(1)] + [Fraction(0)] * m
    for n in range(1, m + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * c[k] * out[n - k]
        out[n] = acc / n
    return TruncatedSeries(out)


def series_log(c: TruncatedSeries) -> TruncatedSeries:
    """Formal logarithm of a series with constant term one (exp's inverse)."""
    if c[0] != 1:
        raise ValueError("series_log requires constant term one")
    m = c.order
    out = [Fraction(0)] * (m + 1)
    for n in range(1, m + 1):
        acc = n * c[n]
        for k in range(1, n):
            acc -= k * out[k] * c[n - k]
        out[n] = acc / n
    return TruncatedSeries(out)


class RootFindError(RuntimeError):
    """Simultaneous iteration failed; carries the partial approximation."""

    def __init__(self, message: str, roots: Sequence[complex], residuals: Sequence[float]):
        super().__init__(message)
        self.roots = tuple(roots)
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class ComplexRootSet:
    """All complex roots of a polynomial, with per-root backward errors."""

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class ZeroReport:
    """Zeros of a numerator with their distance from the critical modulus."""

    zeros: tuple[complex, ...]
    critical_modulus: float
    deviations: tuple[float, ...]
    verdict: bool
    tol: float
    excluded: tuple[complex, ...] = field(default=())

    @property
    def max_deviation(self) -> float:
        return max(self.deviations, default=0.0)


_MAX_ITER = 1000
_STEP_TOL = 1e-14
_SEED_ANGLE = 0.3762643  # fixed phase so start points avoid axis symmetry


def _relative_residual(coeffs: list[complex], z: complex) -> float:
    val = 0j
    scale = 0.0
    zp = 1.0 + 0j
    for c in coeffs:
        val += c * zp
        scale += abs(c) * abs(zp)
        zp *= z
    return abs(val) / scale if scale else abs(val)


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition [(factor, multiplicity)], factors monic square-free."""
    if p.degree < 1:
        raise ValueError("decomposition needs degree >= 1")
    f = p.monic()
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


def complex_roots(p: Poly, residual_bound: float = 1e-8) -> ComplexRootSet:
    """All roots of p with multiplicity, by Aberth-Ehrlich iteration.

    Exact square-free decomposition comes first, so the iteration only ever
    sees simple roots (full double-precision accuracy) and multiplicities
    are exact integers rather than numerical clusters.  Start points sit on
    a circle of radius 1 + max|coeff|/|lead| at fixed angles, the sweep
    order is by index, and convergence means every step fell below
    1e-14 * (1 + |root|), followed by a Newton polish.  Residuals are
    relative backward errors on the square-free factor; exceeding
    ``residual_bound`` (or the iteration cap) raises :class:`RootFindError`
    carrying the partial results.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    parts = squarefree_decomposition(p)
    if len(parts) == 1 and parts[0][1] == 1:
        return complex_roots_numeric([complex(c) for c in p.coeffs], residual_bound)
    roots: list[complex] = []
    residuals: list[float] = []
    for factor, mult in parts:
        if factor.degree < 1:
            continue
        sub = complex_roots_numeric([complex(c) for c in factor.coeffs], residual_bound)
        for z, res in zip(sub.roots, sub.residuals):
            roots.extend([z] * mult)
            residuals.extend([res] * mult)
    if len(roots) != p.degree:
        raise RootFindError("square-free decomposition lost degree", roots, residuals)
    return ComplexRootSet(tuple(roots), tuple(residuals))


def complex_roots_numeric(
    coefficients: Sequence[complex], residual_bound: float = 1e-8
) -> ComplexRootSet:
    """The same Aberth-Ehrlich driver on raw complex coefficients."""
    cs = list(coefficients)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has no well-defined root set")
    if len(cs) < 2:
        raise ValueError("root finding needs degree >= 1")

    # Exact roots at the origin come off first.
    nzero = 0
    while cs[nzero] == 0:
        nzero += 1
    work = [complex(c) for c in cs[nzero:]]
    lead = work[-1]
    work = [c / lead for c in work]
    n = len(work) - 1

    roots: list[complex] = [0j] * nzero
    if n == 0:
        residuals = tuple(0.0 for _ in roots)
        return ComplexRootSet(tuple(roots), residuals)

    radius = 1.0 + max(abs(c) for c in work[:-1])
    zs = [
        radius * cmath.exp(2j * cmath.pi * k / n + 1j * _SEED_ANGLE)
        for k in range(n)
    ]
    deriv = [k * work[k] for k in range(1, n + 1)]

    def horner(cs: list[complex], z: complex) -> complex:
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    converged = False
    for _ in range(_MAX_ITER):
        max_rel_step = 0.0
        for i in range(n):
            z = zs[i]
            pv = horner(work, z)
            dv = horner(deriv, z)
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
            converged = True
            break
        # steps stall near multiple roots (cluster radius ~ eps^(1/m)) while
        # the values are already at machine level; a residual check keeps
        # clusters from "failing"
        if max_rel_step < 1e-2 and all(
            _relative_residual(work, z) < 1e-14 for z in zs
        ):
            converged = True
            break

    for i in range(n):
        for _ in range(3):
            pv = horner(work, zs[i])
            dv = horner(deriv, zs[i])
            if dv == 0:
                break
            zs[i] -= pv / dv

    # Multiple roots come out as clusters of radius ~ eps^(1/m); their
    # centroid recovers machine accuracy.  Merge only when the centroid's
    # residual confirms a genuine multiplicity, so nearby-but-distinct
    # roots are never collapsed.
    order = sorted(range(n), key=lambda i: (zs[i].real, zs[i].imag))
    used = [False] * n
    for a in range(n):
        i = order[a]
        if used[i]:
            continue
        cluster = [i]
        for b in range(a + 1, n):
            j = order[b]
            if not used[j] and abs(zs[i] - zs[j]) <= 1e-5 * (1.0 + abs(zs[i])):
                cluster.append(j)
        if len(cluster) > 1:
            centroid = sum(zs[j] for j in cluster) / len(cluster)
            if _relative_residual(work, centroid) <= 1e-13:
                for j in cluster:
                    zs[j] = centroid
                    used[j] = True

    all_roots = roots + zs
    residuals = tuple(
        0.0 if k < nzero else _relative_residual(work, all_roots[k])
        for k in range(len(all_roots))
    )
    if not converged:
        raise RootFindError(
            f"no convergence after {_MAX_ITER} iterations", all_roots, residuals
        )
    if max(residuals) > residual_bound:
        raise RootFindError(
            f"residual {max(residuals):.3e} exceeds bound {residual_bound:.3e}",
            all_roots,
            residuals,
        )
    return ComplexRootSet(tuple(all_roots), residuals)


def pole_regularized_value(f: RationalFunction, u0: Rat) -> Fraction:
    """f(u0) when finite, else lim_{u -> u0} (1 - u/u0) * f(u) for a simple pole.

    Poles of order two or more are rejected.  u0 must be a nonzero rational
    (the normalization 1 - u/u0 has no meaning at the origin).
    """
    u0 = _frac(u0)
    if u0 == 0:
        raise ValueError("regularization point must be nonzero")
    if f.den.evaluate(u0) != 0:
        return f.evaluate(u0)
    # canonical form => num(u0) != 0, so the pole order is den's multiplicity
    linear = Poly([-u0, 1])
    reduced = f.den.exact_div(linear)
    if reduced.evaluate(u0) == 0:
        raise ValueError(f"pole of order >= 2 at {u0}")
    # (1 - u/u0) = -(u - u0)/u0
    return -f.num.evaluate(u0) / (u0 * reduced.evaluate(u0))
