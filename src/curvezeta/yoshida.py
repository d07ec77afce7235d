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

Exactness note: with t = q^-s and C1(s) = q^{as}(1 + q^-s), a a
nonnegative integer, a member is held as the rational function

    S = (sqrt q)^{g-1} zeta2
      = [X1(t^2) - q^{a-g} t^{2a} X1(q t^2)]
        / [(1-t)(1-qt)(1-qt^2) t^{a+2(g-1)}],

kept as a factored term (:class:`~curvezeta.exact._FactoredTerm`), like
every other zeta of the package, and reduced once by the known factors of
its denominator, so every result is a structural identity, never a
numerical one.  When q is a perfect square 1 - qt^2 splits into
1 - sqrt(q) t and 1 + sqrt(q) t; otherwise it is irreducible over Q.  The
half power (sqrt q)^{g-1} is a non-zero constant: it changes neither the
functional equation nor the zeros, and it shows only in the report, as
``group_constant_half_power``.

The RH check, :func:`rh_check_zeta2`, solves the numerator of S through
:func:`~curvezeta.exact.complex_roots`, like the Artin and SL_r reports,
with no pole test.
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
    _FactoredTerm,
    complex_roots,
)

Rat = Fraction | int


def zeta2_family(c: CurveData, a: int) -> RationalFunction:
    """S = (sqrt q)^{g-1} zeta2 for the curve's pairs and C1 = q^{as}(1 + q^-s).

    One pass (see the module's exactness note): the numerator of S is formed
    as one polynomial over the denominator t^{a+2(g-1)} (1-t)(1-qt)(1-qt^2),
    kept factored, and reduced by those known factors
    (:meth:`~curvezeta.exact._FactoredTerm.ratfun`), with no gcd: t, 1 - t,
    1 - qt and 1 - qt^2, or for a square q the two factors 1 -+ sqrt(q) t
    of the last.  The factor (1+t)(1-q^2 t^2) shared by the two terms of the
    definition is already cancelled.  ``a`` is a nonnegative integer, so
    q^{as} is a monomial in 1/t.
    """
    if not isinstance(a, int) or isinstance(a, bool):
        raise ValueError(f"the exponent a must be an integer, got {a!r}")
    if a < 0:
        raise ValueError("the exponent a must be nonnegative")
    if c.g < 1:
        raise ValueError("zeta2 needs genus >= 1")
    q, x1 = Fraction(c.q), c.numerator
    num = x1.stretch(2) - Poly.x(2 * a, q ** (a - c.g)) * x1.scale_arg(q).stretch(2)
    term = _FactoredTerm.over_linear(c.q, (0, 1), -(a + 2 * (c.g - 1)), num)
    root = math.isqrt(c.q)  # 1 - qt^2 splits over Q exactly when q is a square
    if root * root == c.q:
        term.mul((1, -root), 1, 0, -1)
        term.mul((1, root), 1, 0, -1)
    else:
        term.mul_one_minus(c.q, 1, 2, 0, -1)
    return term.ratfun()


@lru_cache(maxsize=256)
def zeta2_canonical(c: CurveData) -> RationalFunction:
    """The distinguished member: C1(s) = 1 + q^s, i.e. the a = 1 shape."""
    return zeta2_family(c, 1)


def zeta2_fe_check(z: RationalFunction, q: int) -> bool:
    """zeta2(1-s) = zeta2(s), i.e. t -> 1/(qt), as an exact identity of S."""
    return z.reciprocal_arg(Fraction(1, q)) == z


def sextic_identity_report(z: RationalFunction, q: int, c_sum: Rat) -> dict:
    """The genus-one numerator identity, in all three published shapes.

    ``z`` is the canonical (a = 1) member over F_q of the genus-one pair set
    with sum ``c_sum``; at genus one S = zeta2.  With
    P6(t) = t(1-t)(1-qt)(1-qt^2) zeta2(t):
      * expansion:   P6 = (1 - c t^2 + q t^4) - t^2 (1 - q c t^2 + q^3 t^4)
      * factored:    P6 = -(q t^2 - 1)(q^2 t^4 + (q - c - 1) t^2 + 1)
      * literal:     P6 = -(q t^2 + 1)(...), which fails: the printed sign
        on the quadratic factor contradicts the expansion line one display
        earlier, and exact division certifies (q t^2 - 1) as the true
        factor.  All three verdicts are reported so the discrepancy stays
        visible.

    The canonical genus-one den divides t(1-t)(1-qt)(1-qt^2), so P6 is one
    exact division times the numerator, and the shapes compare as
    polynomials; any other den is a :class:`ConventionError`.
    """
    c_sum = Fraction(c_sum)
    qf = Fraction(q)
    p6 = Poly([0, 1]) * Poly([1, -1]) * Poly([1, -qf]) * Poly([1, 0, -qf])
    try:
        left = p6.exact_div(z.den) * z.num
    except ValueError:
        raise ConventionError("zeta2 denominator does not divide t(1-t)(1-qt)(1-qt^2)") from None
    expansion = Poly([1, 0, -c_sum, 0, qf]) - Poly([0, 0, 1]) * Poly([1, 0, -qf * c_sum, 0, qf**3])
    quartic = Poly([1, 0, qf - c_sum - 1, 0, qf * qf])
    corrected = Fraction(-1) * Poly([-1, 0, qf]) * quartic
    literal = Fraction(-1) * Poly([1, 0, qf]) * quartic
    return {
        "expansion_ok": left == expansion,
        "corrected_factorization_ok": left == corrected,
        "literal_factorization_ok": left == literal,
    }


@lru_cache(maxsize=256)
def rh_check_zeta2(z: RationalFunction, q: int, tol: float = 1e-9) -> ZeroReport:
    """Zero moduli of the numerator of S against q^{-1/2}.

    The numerator is a rational polynomial in t, solved like the Artin
    numerator by :func:`complex_roots` with Q = q.  num and den are coprime,
    so every root of num is a zero of S: no pole test is needed, and
    nothing is excluded.  A constant numerator has no zeros.
    """
    critical = float(q) ** -0.5
    roots = complex_roots(z.num, Q=q).roots
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
) -> CounterexampleResult:
    """Find the smallest multiplicity m with an off-critical-line real zero.

    Scans 10^4 points of the open interval (-sqrt q, -1) for a sign change
    of f - g (the right side vanishes at -sqrt q, so the difference starts
    positive) and bisects to machine precision.  A real zero w1 with
    |w1| != 1 maps to s = 1/2 + ln|w1|/ln q + i pi/ln q, whose real part
    sits off 1/2 by exactly ln|w1|/ln q.
    """
    if abs(abs(alpha) ** 2 - q) > 1e-9 * q:
        raise ValueError("alpha must satisfy |alpha|^2 = q (geometric case)")
    rootq = math.sqrt(q)
    eps, samples = 1e-6, 10_000
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

    The identity is  S = zeta2(s) * (sqrt q)^{g-1} =
    (1 + q^s)(1 + q^{1-s}) * zh_SL2(-2s), with the right side materialized
    from the group-zeta combined form by u -> 1/t^2; the half power g-1 is
    the ratio of the two completion conventions.  Both sides are compared
    by cross-multiplication, so no gcd is taken and the cached canonical
    member is used as it is.
    """
    q = Fraction(c.q)
    z = zeta2_canonical(c)
    # (1+t)(1+qt)/t * (n/d)(1/t^2), numerator and denominator times t^{2D}
    d = max(combined.num.degree, combined.den.degree)
    num = Poly([1, 1]) * Poly([1, q]) * combined.num.reversed(d).stretch(2)
    den = Poly([0, 1]) * combined.den.reversed(d).stretch(2)
    return z.num * den == num * z.den
