"""A rank-two zeta family with provable Riemann Hypothesis, and its limits.

The building blocks are products X1(s) = prod (1 - a_i q^-s)(1 - b_i q^-s)
over pairs with a_i b_i = q and real bounded sums, the completed quotient
X = X1/((1-q^-s)(1-q^{1-s})), and the symmetrized Y(s) =
q^{(g-1)(s-1/2)} X(s) with Y(1-s) = Y(s).  The family

    zeta2(s) = C1(s) Y(2s)/(1 - q^{1-s}) - C1(1-s) q^-s Y(2s-1)/(1 - q^-s)

satisfies zeta2(1-s) = zeta2(s) by construction; for the admissible C1
shapes every zero sits on Re(s) = 1/2, while the bare C1 = 1 choice loses
RH once a conjugate pair is raised to a large multiplicity
(:func:`counterexample_search` finds the escaping real zero).

Exactness note: with t = q^-s the family member is built in one pass as
S = (sqrt q)^{g-1} zeta2.  C1's extra pairs multiply to
P(t) = prod_j (t^2 + 1 - (c_j/q) sqrt(q) t) = P_e + sqrt(q) P_o, and with
P~(t) = (qt)^{2h} P(1/(qt)) for h extra pairs,

    S = [P X1(t^2) - q^{a-h-g} t^{2a} P~ X1(q t^2)]
        / [(1-t)(1-qt)(1-qt^2) t^{a+h+2(g-1)}],

whose numerator splits into E(t) + sqrt(q) * O(t) with E and O rational.
The half power (sqrt q)^{1-g} is applied once at the end by a rational
scaling that swaps the parts when g - 1 is odd.  A member is kept as the
one fraction (E + sqrt(q) O) / D (:class:`HalfShiftRational`), reduced once
by the known factors of D, so every result is a structural identity, never
a numerical one.  When q is a perfect square the odd part folds away
entirely, and 1 - qt^2 splits into 1 - sqrt(q) t and 1 + sqrt(q) t.

The RH check, :func:`rh_check_zeta2`, solves the exact numerator
E + sqrt(q) O through :func:`~curvezeta.exact.complex_roots`, like the
Artin and SL_r reports, with no pole test.  P_e is even in t and P_o odd;
E and O kept opposite parities in every member tried, so in W = sqrt(q) t
the numerator has rational coefficients.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import lru_cache
from fractions import Fraction

from curvezeta.artin import CurveData
from curvezeta.exact import (
    ConventionError,
    Poly,
    RationalFunction,
    ZeroReport,
    complex_roots,
    float_sqrt,
)

Rat = Fraction | int


class HalfShiftRational(namedtuple("HalfShiftRational", "q even odd den")):
    """(even(t) + sqrt(q) * odd(t)) / den(t), one reduced fraction.

    No root is common to even, odd and den, and den is monic.  For a
    non-square q, 1 and sqrt(q) are independent over Q(t), so equal values
    have equal fields and ``==`` and ``hash`` are exact.  A member is built
    by :func:`_reduced_by`, from a denominator whose factorization over Q is
    known, with no gcd taken.  For square q the value is rational: the odd
    part is folded into the even one before it gets here
    (:func:`_times_sqrt_power`).
    """

    __slots__ = ()


def _reduced_by(q: int, even: Poly, odd: Poly, factors: Sequence[tuple[Poly, int]]) -> HalfShiftRational:
    """(even + sqrt(q) odd) / prod f^m in lowest terms, for the denominator's
    factorization over Q, its factors f pairwise coprime and irreducible.

    Each f is divided out of even and odd while it divides both exactly.  A
    factor with rational coefficients divides even + sqrt(q) odd exactly when
    it divides both parts (for square q the odd part is zero), so what is
    left of the denominator is coprime to the numerator.
    """
    den = Poly.one()
    for f, m in factors:
        while m:
            try:
                even, odd = even.exact_div(f), odd.exact_div(f)
            except ValueError:
                break
            m -= 1
        den = den * f**m
    return _over_monic(q, even, odd, den)


def _over_monic(q: int, even: Poly, odd: Poly, den: Poly) -> HalfShiftRational:
    """The member with fields already coprime, scaled so that den is monic."""
    scale = 1 / (den.scale * den.ints[-1])
    return HalfShiftRational(q, even * scale, odd * scale, den.monic())


class WeilPairSet(namedtuple("WeilPairSet", "q g x1 pair_sums geometric", defaults=(None, False))):
    """Pairs (a_i, b_i), a_i b_i = q, through their numerator polynomial.

    The exact pipeline only ever consumes prod (1 - a_i t)(1 - b_i t), so
    the set is stored as that polynomial, the Poly ``x1``; rational pair
    sums or a full curve numerator both produce it exactly.  ``pair_sums``
    keeps the sums as a tuple when they are known rationals (synthetic
    sets), else None.  ``geometric`` is False unless set.
    """

    __slots__ = ()

    @staticmethod
    def from_pair_sums(q: int, sums: Sequence[Rat]) -> WeilPairSet:
        cs = tuple(Fraction(c) for c in sums)
        if any(abs(c) > q + 1 for c in cs):
            raise ValueError("pair sum violates |c| <= q + 1")
        x1 = Poly.one()
        for c in cs:
            x1 = x1 * Poly([1, -c, q])
        return WeilPairSet(q, len(cs), x1, cs, geometric=all(c * c <= 4 * q for c in cs))

    @staticmethod
    def from_curve(c: CurveData) -> WeilPairSet:
        if c.g < 1:
            raise ValueError("pair sets need genus >= 1")
        return WeilPairSet(c.q, c.g, c.numerator, None, geometric=c.genuine)


class C1Params(namedtuple("C1Params", "a extra_pair_sums")):
    """Shape parameters of the admissible prefactor C1.

    C1(s) = q^{a s} (1 + q^{-s}) q^{-h s} prod_j (1 - g_j q^{s-1/2})
    (1 - d_j q^{s-1/2}) with g_j d_j = q and real bounded sums.  ``a`` is
    a nonnegative integer, so q^{as} is a monomial in 1/t; the sums are the
    tuple ``extra_pair_sums``.
    """

    __slots__ = ()

    def __new__(cls, a: int = 1, extra_pair_sums: tuple[Fraction, ...] = ()):
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"the exponent a must be an integer, got {a!r}")
        if a < 0:
            raise ValueError("the exponent a must be nonnegative")
        return super().__new__(cls, a, extra_pair_sums)


def _times_sqrt_power(q: int, even: Poly, odd: Poly, k: int) -> tuple[Poly, Poly]:
    """(even + sqrt(q) * odd) * (sqrt q)^k as an (even, odd) pair, exactly.

    (sqrt q)^k = q^{k // 2} * sqrt(q)^{k % 2}, so an odd k swaps the parts
    (one of them picking up a factor q) before the rational scaling.  For
    square q the odd part is folded into the even one.
    """
    qf = Fraction(q)
    if k % 2:
        even, odd = odd * qf, even
    root = math.isqrt(q)
    if root * root == q:
        even, odd = even + odd * root, Poly()
    scale = qf ** (k // 2)
    return even * scale, odd * scale


def zeta2_family(ws: WeilPairSet, params: C1Params) -> HalfShiftRational:
    """The family member for one pair set and prefactor shape, exactly.

    One pass (see the module's exactness note): the numerators of the even
    and odd parts of S = (sqrt q)^{g-1} zeta2 are formed as polynomials,
    scaled by (sqrt q)^{1-g}, and reduced together over the common
    denominator t^{a+h+2(g-1)} (1-t)(1-qt)(1-qt^2) by its known factors
    (:func:`_reduced_by`), with no gcd: t, 1 - t, 1 - qt and 1 - qt^2, or
    for a square q the two factors 1 -+ sqrt(q) t of the last.  The factor
    (1+t)(1-q^2 t^2) shared by the two terms of the definition is already
    cancelled.
    """
    a = params.a
    q = Fraction(ws.q)
    h = len(params.extra_pair_sums)

    # (1 - g q^{s-1/2})(1 - d q^{s-1/2}) = t^-2 (t^2 + 1 - (c/q) sqrt(q) t), so
    # C1 = t^{-a-h} (1 + t) P with P = pe + sqrt(q) po
    pe, po = Poly.one(), Poly()
    for cj in params.extra_pair_sums:
        if abs(cj) > q + 1:
            raise ValueError("extra pair sum violates |c| <= q + 1")
        be, bo = Poly([1, 0, 1]), Poly([0, -cj / q])
        pe, po = pe * be + po * bo * q, pe * bo + po * be

    x1_sq = ws.x1.stretch(2)  # X1(t^2)
    lifted = Poly.x(2 * a, q ** (a - h - ws.g)) * ws.x1.scale_arg(q).stretch(2)
    tpow = a + h + 2 * (ws.g - 1)  # power of t in the denominator; g = 0 can make it negative
    shift = Poly.x(max(-tpow, 0))

    def part(p: Poly) -> Poly:
        tilde = p.reversed(2 * h).scale_arg(q)  # (qt)^{2h} p(1/(qt))
        return (p * x1_sq - lifted * tilde) * shift

    even, odd = _times_sqrt_power(ws.q, part(pe), part(po), 1 - ws.g)
    root = math.isqrt(ws.q)  # 1 - qt^2 splits over Q exactly when q is a square
    split = [Poly([1, -root]), Poly([1, root])] if root * root == ws.q else [Poly([1, 0, -q])]
    factors = [(Poly.x(), max(tpow, 0)), *((f, 1) for f in (Poly([1, -1]), Poly([1, -q]), *split))]
    return _reduced_by(ws.q, even, odd, factors)


@lru_cache(maxsize=256)
def zeta2_canonical(c: CurveData) -> HalfShiftRational:
    """The distinguished member: C1(s) = 1 + q^s, i.e. the a = 1 shape."""
    return zeta2_family(WeilPairSet.from_curve(c), C1Params(a=1))


def zeta2_fe_check(z: HalfShiftRational) -> bool:
    """zeta2(1-s) = zeta2(s), i.e. t -> 1/(qt), as an exact identity.

    Every field p goes to t^d p(1/(qt)), d the largest field degree.  A
    common root w != 0 of the images would make 1/(qw) a common root of the
    fields, and w = 0 is not one: the field of degree d keeps a non-zero
    constant term.  So the image is reduced with no gcd taken.
    """
    d = max(z.even.degree, z.odd.degree, z.den.degree)
    c = Fraction(1, z.q)
    even, odd, den = (p.scale_arg(c).reversed(d) for p in (z.even, z.odd, z.den))
    return _over_monic(z.q, even, odd, den) == z


def sextic_identity_report(z: HalfShiftRational, c_sum: Rat) -> dict:
    """The genus-one numerator identity, in all three published shapes.

    ``z`` is the canonical (a = 1) member over F_q, q = z.q, of the genus-one
    pair set with sum ``c_sum``.  With P6(t) = t(1-t)(1-qt)(1-qt^2) zeta2(t):
      * expansion:   P6 = (1 - c t^2 + q t^4) - t^2 (1 - q c t^2 + q^3 t^4)
      * factored:    P6 = -(q t^2 - 1)(q^2 t^4 + (q - c - 1) t^2 + 1)
      * literal:     P6 = -(q t^2 + 1)(...), which fails: the printed sign
        on the quadratic factor contradicts the expansion line one display
        earlier, and exact division certifies (q t^2 - 1) as the true
        factor.  All three verdicts are reported so the discrepancy stays
        visible.

    The canonical genus-one den divides t(1-t)(1-qt)(1-qt^2), so P6 is one
    exact division times even, and the shapes compare as polynomials; any
    other den is a :class:`ConventionError`.
    """
    q = z.q
    c_sum = Fraction(c_sum)
    qf = Fraction(q)
    p6 = Poly([0, 1]) * Poly([1, -1]) * Poly([1, -qf]) * Poly([1, 0, -qf])
    plain = z.odd.is_zero()
    try:
        left = p6.exact_div(z.den) * z.even
    except ValueError:
        raise ConventionError("zeta2 denominator does not divide t(1-t)(1-qt)(1-qt^2)") from None
    expansion = Poly([1, 0, -c_sum, 0, qf]) - Poly([0, 0, 1]) * Poly([1, 0, -qf * c_sum, 0, qf**3])
    quartic = Poly([1, 0, qf - c_sum - 1, 0, qf * qf])
    corrected = Fraction(-1) * Poly([-1, 0, qf]) * quartic
    literal = Fraction(-1) * Poly([1, 0, qf]) * quartic
    return {
        "q": q,
        "c": c_sum,
        "zeta2_is_plain_rational": plain,
        "expansion_ok": plain and left == expansion,
        "corrected_factorization_ok": plain and left == corrected,
        "literal_factorization_ok": plain and left == literal,
        "quartic": quartic,
    }


def _numerator_in_w(q: int, n1: Poly, n2: Poly) -> Poly:
    """n1(t) + sqrt(q) n2(t) at t = W / sqrt(q), up to a non-zero constant, as
    a rational polynomial in W; n1 and n2 have opposite parities in t.

    With n1 even and n2 odd, coefficient i is (n1 or n2)_i / q^{floor(i/2)}.
    An odd n1 is first swapped in as (n2, n1 / q), which divides the value
    by sqrt(q).  Parts of one parity would leave sqrt(q) in the coefficients:
    that raises ArithmeticError.
    """
    if any(n1.ints[1::2]):
        n1, n2 = n2, n1 * Fraction(1, q)
    if any(n1.ints[1::2]) or any(n2.ints[::2]):
        raise ArithmeticError("zeta2 numerator parts without opposite parities")
    n = max(n1.degree, n2.degree)
    return Poly([(n2 if i % 2 else n1)[i] / q ** (i // 2) for i in range(n + 1)])


@lru_cache(maxsize=256)
def rh_check_zeta2(z: HalfShiftRational, tol: float = 1e-9) -> ZeroReport:
    """Zero moduli of the exact numerator even + sqrt(q) odd against q^{-1/2}.

    When one part is zero (the canonical member always, and every member
    over a square q, where the odd part is folded away) the other is a
    rational polynomial in t, solved like the Artin numerator by
    :func:`complex_roots` with Q = q.  Otherwise the parts have opposite
    parities in t (ArithmeticError if not), so in W = sqrt(q) t the
    numerator is rational (:func:`_numerator_in_w`); it is solved with
    Q = 1 and the roots come back as t = W / sqrt(q).

    No pole test is needed, so nothing is excluded.  At a rational root r of
    den, even(r) and odd(r) are rational and not both zero, so
    even(r) + sqrt(q) odd(r) != 0.  Of the construction's poles 0, 1, 1/q
    and +-q^{-1/2}, only +-q^{-1/2} is irrational, and it lies on the
    critical circle, where it cannot change the verdict.  None of 1260
    family members (q in {2, 3, 4, 5, 7, 9, 11, 16, 25}, g <= 3, a <= 3, up
    to two extra pairs) had such a root, and none broke the parity.  A
    constant numerator has no zeros.
    """
    n1, n2 = z.even, z.odd
    critical = float(z.q) ** -0.5
    if n1.is_zero() or n2.is_zero():
        roots = complex_roots(n2 if n1.is_zero() else n1, Q=z.q).roots
    else:
        s = float_sqrt(z.q)
        roots = tuple(W / s for W in complex_roots(_numerator_in_w(z.q, n1, n2)).roots)
    deviations = tuple(abs(abs(t) - critical) for t in roots)
    return ZeroReport(roots, critical, deviations, all(d <= tol for d in deviations), tol)


class CounterexampleResult(
    namedtuple("CounterexampleResult", "found m w1 residual s re_s_deviation", defaults=(None,) * 5)
):
    """Outcome of the multiplicity-deformation search for an off-line zero:
    with ``found`` false every other field is None."""

    __slots__ = ()


def _deformed_sides(q: float, alpha: complex, m: int) -> tuple[Callable, Callable]:
    """The two sides of the critical-circle equation with multiplicity m.

    f(w) = (1 + q^{-1/2}/w) [(w^2 - a)(w^2 - conj a)]^m and
    g(w) = (1 + q^{-1/2} w) [(1 - a w^2)(1 - conj a w^2)]^m; both real and
    positive on (-sqrt q, -1) in the geometric case.
    """
    two_re = 2 * alpha.real
    normsq = abs(alpha) ** 2
    rootq = math.sqrt(q)

    def f(w: float) -> float:
        base = (w * w) ** 2 - two_re * w * w + normsq
        return (1 + 1 / (rootq * w)) * base**m

    def g(w: float) -> float:
        base = 1 - two_re * w * w + normsq * (w * w) ** 2
        return (1 + w / rootq) * base**m

    return f, g


def counterexample_search(
    q: int,
    alpha: complex,
    m_range: range | Sequence[int] = range(1, 65),
    samples: int = 10_000,
) -> CounterexampleResult:
    """Find the smallest multiplicity m with an off-critical-line real zero.

    Scans the open interval (-sqrt q, -1) for a sign change of f - g (the
    right side vanishes at -sqrt q, so the difference starts positive) and
    bisects to machine precision.  A real zero w1 with |w1| != 1 maps to
    s = 1/2 + ln|w1|/ln q + i pi/ln q, whose real part sits off 1/2 by
    exactly ln|w1|/ln q.
    """
    if abs(abs(alpha) ** 2 - q) > 1e-9 * q:
        raise ValueError("alpha must satisfy |alpha|^2 = q (geometric case)")
    rootq = math.sqrt(q)
    eps = 1e-6
    lo, hi = -rootq + eps, -1.0 - eps
    for m in m_range:
        f, g = _deformed_sides(float(q), complex(alpha), m)

        def diff(w: float) -> float:
            return f(w) - g(w)

        prev_w = lo
        prev_v = diff(lo)
        bracket = None
        for k in range(1, samples + 1):
            w = lo + (hi - lo) * k / samples
            v = diff(w)
            if prev_v == 0.0:
                bracket = (prev_w, prev_w)
                break
            if v == 0.0 or (v < 0) != (prev_v < 0):
                bracket = (prev_w, w)
                break
            prev_w, prev_v = w, v
        if bracket is None:
            continue
        a, b = bracket
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if (diff(a) < 0) != (diff(mid) < 0):
                b = mid
            else:
                a = mid
        w1 = 0.5 * (a + b)
        residual = abs(diff(w1))
        dev = abs(math.log(abs(w1)) / math.log(q))
        s = complex(0.5 + math.log(abs(w1)) / math.log(q), math.pi / math.log(q))
        return CounterexampleResult(True, m, w1, residual, s, dev)
    return CounterexampleResult(False)


def canonical_group_cross_check(c: CurveData, combined: RationalFunction) -> bool:
    """zeta2_canonical against the rank-two group zeta, exactly.

    The identity is  zeta2(s) * (sqrt q)^{g-1} =
    (1 + q^s)(1 + q^{1-s}) * zh_SL2(-2s), with the right side materialized
    from the group-zeta combined form by u -> 1/t^2.  It is compared as
    zeta2 = (sqrt q)^{1-g} * (right side), the half power applied to the
    right side's numerator, by cross-multiplication, so no gcd is taken and
    the cached canonical member is used as it is; the half power g-1 is the
    ratio of the two completion conventions.
    """
    q = Fraction(c.q)
    z = zeta2_canonical(c)
    # (1+t)(1+qt)/t * (n/d)(1/t^2), numerator and denominator times t^{2D}
    d = max(combined.num.degree, combined.den.degree)
    num = Poly([1, 1]) * Poly([1, q]) * combined.num.reversed(d).stretch(2)
    den = Poly([0, 1]) * combined.den.reversed(d).stretch(2)
    even, odd = _times_sqrt_power(c.q, num, Poly(), 1 - c.g)
    return z.even * den == even * z.den and z.odd * den == odd * z.den
