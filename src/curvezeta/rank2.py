"""The rank-two pure zeta: closed form, numerator, and invariants.

Everything here revolves around one rational function of T = t^2,

    F(T) = (q^{g-1} sum A_i T^i  -  T sum A_i q^i T^i)
           / (q^{g-1} (1 - T)(1 - qT)(1 - q^2 T)),

whose Laurent companion F(T) * T^{-(g-1)} is the rank-two zeta normalized
so its T-expansion starts at 1.  The symmetry of the A_i makes (1 - qT) an
exact factor of the numerator, and after the substitution X = qT what is
left is an integer palindromic polynomial N(X) -- the canonical rank-two
numerator.  The T-series coefficients of alpha(0) * F(T) are the rank-two
alpha invariants on the even degree grid, and the T^g coefficient releases
beta(0) through the tail term (Q - 1) beta(0) T^g / ((1-T)(1-QT)), Q = q^2.

Two display variants from the source derivation chain are exposed but not
asserted: a prefactored coefficient list (equal to N's coefficients divided
by block-dependent powers of q) and an alternate beta expression in special
zeta values.  Their discrepancies against the canonical values are stable
and reported by :func:`variant_report`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from curvezeta.artin import CurveData, zeta_hat_special
from curvezeta.exact import Poly, RationalFunction, _factored_sum, _FactoredTerm
from curvezeta.invariants import InvariantTable


class NormalizationError(ValueError):
    """The closed form's T^0 coefficient is not exactly one."""


class Rank2Numerator(namedtuple("Rank2Numerator", "coeffs")):
    """Palindromic coefficients of N(X), X = qT, from the grouped expansion:
    ``coeffs`` is a tuple of rationals, constant term first."""

    __slots__ = ()

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))


class PureZeta(namedtuple("PureZeta", "r q Z shift")):
    """Z as a rational function of T = t^r, with the Laurent shift T^{-(g-1)}.

    The shift is carried as an explicit integer so the stored object stays a
    genuine polynomial quotient: zeta_hat(t) = Z(T) * T^{-shift}.
    """

    __slots__ = ()


def _over_linear(q: int, p: Poly, es: Sequence[int], k: int = 0) -> _FactoredTerm:
    """T^k p(T) / prod_e (1 - q^e T), factored."""
    term = _FactoredTerm(mono=(k, 0), poly=p)
    for e in es:
        term.mul_one_minus(q, e, 1, 0, -1)
    return term


@lru_cache(maxsize=256)
def rank2_closed_form(c: CurveData) -> tuple[RationalFunction, int]:
    """F(T), built from the single-fraction display, and its Laurent shift g-1.

    The denominator is kept factored, so (1 - qT) leaves by exact division
    where the numerator vanishes, with no gcd."""
    if c.g < 1:
        raise ValueError("rank-two zeta needs genus >= 1")
    q, g = c.q, c.g
    P = c.numerator
    num = P - Poly.x(1, Fraction(1, q ** (g - 1))) * P.scale_arg(q)
    return _over_linear(q, num, (0, 1, 2)).ratfun(), g - 1


def closed_form_check(c: CurveData) -> bool:
    """F(T) against the independently assembled two-term sum, exactly:
    zeta_hat(2s)/(1 - q^{2-2s}) + zeta_hat(2s-1)/(1 - q^{2s}), both shifted by T^{-(g-1)}."""
    F, _ = rank2_closed_form(c)
    q, P = c.q, c.numerator
    first = _over_linear(q, P, (0, 1, 2))
    second = _over_linear(q, -P.scale_arg(q) * Fraction(1, q ** (c.g - 1)), (0, 1, 2), 1)
    return F == _factored_sum([first, second]).ratfun()


@lru_cache(maxsize=256)
def rank2_numerator(c: CurveData) -> Rank2Numerator:
    """N(X) by the grouped expansion.

    [X^k] N = sum_{j <= min(k, 2g-k)} (A_j q^{g-j} - A_{j-1}); palindromy
    is structural.
    """
    if c.g < 1:
        raise ValueError("rank-two numerator needs genus >= 1")
    q, g = Fraction(c.q), c.g
    coeffs = []
    for k in range(2 * g + 1):
        acc = Fraction(0)
        for j in range(min(k, 2 * g - k) + 1):
            acc += c.A[j] * q ** (g - j)
            if j > 0:
                acc -= c.A[j - 1]
        coeffs.append(acc)
    return Rank2Numerator(tuple(coeffs))


def numerator_check(c: CurveData) -> bool:
    """N(X) against the closed form, exactly: q * Num(T)|_{T=X/q} factors as
    (1 - X) * N(X), equivalently F(T) = N(qT) / (q^g (1-T)(1-q^2 T))."""
    F, _ = rank2_closed_form(c)
    N = Poly(rank2_numerator(c).coeffs).scale_arg(c.q) * Fraction(1, c.q**c.g)
    return F == _over_linear(c.q, N, (0, 2)).ratfun()


def normalized_coefficients(c: CurveData) -> list[Fraction]:
    """The prefactored display variant: q^{-(g-k)} * [X^k] N for k = 1..g.

    These equal the T-variable numerator coefficients normalized to a unit
    constant term, not the canonical integer list; :func:`variant_report`
    records the block-dependent ratio q^{k-g}.
    """
    n = rank2_numerator(c)
    q, g = Fraction(c.q), c.g
    return [q ** -(g - k) * n.coeffs[k] for k in range(1, g + 1)]


def beta_from_special_values(c: CurveData) -> Fraction:
    """The alternate display for beta(0): q^{2(g-1)} (zh(2) - zh(1)^2/(q^2-1)).

    Inconsistent with the series route on every fixture tried (it drops a
    zh(1) factor); exposed for the discrepancy report only.
    """
    q = Fraction(c.q)
    z1, z2 = zeta_hat_special(c, 1), zeta_hat_special(c, 2)
    return q ** (2 * (c.g - 1)) * (z2 - z1 * z1 / (q * q - 1))


@lru_cache(maxsize=256)
def alpha2_zero(c: CurveData) -> Fraction:
    """alpha(0) in rank two: q^{g-1} * zeta_hat(1)."""
    return Fraction(c.q) ** (c.g - 1) * zeta_hat_special(c, 1)


def eq_extract(
    F: RationalFunction, shift: int, alpha0: Fraction, q: int, g: int
) -> InvariantTable:
    """Rank-two invariants from the T-series of Z = alpha0 * F(T).

    The coefficient of T^m is alpha(2m); the T^g coefficient carries
    Q alpha(2(g-2)) + (Q-1) beta(0) with Q = q^2, which pins beta(0).
    A unit T^0 coefficient of F is required -- anything else signals that
    the caller's normalization (and hence alpha0) is inconsistent.
    """
    if shift != g - 1:
        raise ValueError("closed form carries the shift g-1")
    series = F.series(g)
    if series[0] != 1:
        raise NormalizationError(f"T^0 coefficient is {series[0]}, expected 1")
    Q = Fraction(q) ** 2
    alphas = tuple(alpha0 * series[m] for m in range(g))
    top = alpha0 * series[g]
    if g >= 2:
        top -= Q * alphas[g - 2]
    beta = top / (Q - 1)
    gammas = {2 * m: alphas[m] + beta for m in range(g)}
    return InvariantTable(r=2, alphas=alphas, beta0=beta, gammas=gammas)


@lru_cache(maxsize=256)
def rank2_invariants(c: CurveData) -> InvariantTable:
    """The full rank-two pipeline: closed form -> series -> invariants.

    Memoized: callers share the returned table and must not change its
    ``gammas``.
    """
    F, shift = rank2_closed_form(c)
    return eq_extract(F, shift, alpha2_zero(c), c.q, c.g)


def pure_zeta(c: CurveData) -> PureZeta:
    """The rank-two zeta alpha(0) * F(T) with its Laurent shift."""
    F, shift = rank2_closed_form(c)
    # a non-zero multiple of a reduced quotient stays reduced
    return PureZeta(r=2, q=c.q, Z=RationalFunction.coprime(F.num * alpha2_zero(c), F.den), shift=shift)


def pure_fe_check(z: PureZeta) -> bool:
    """Exact functional equation zeta_hat(1/(qt)) = zeta_hat(t).

    With zeta_hat(t) = Z(T) T^{-shift} and T = t^r the substitution reads
    Q^{shift} T^{2 shift} Z(1/(QT)) = Z(T), Q = q^r.  Both sides are
    compared cross-multiplied, on reduced forms, so no gcd is taken.
    """
    Q = Fraction(z.q) ** z.r
    w = z.Z.reciprocal_arg(1 / Q)
    return Poly.x(2 * z.shift, Q**z.shift) * w.num * z.Z.den == z.Z.num * w.den


def variant_report(c: CurveData) -> dict:
    """Canonical values next to the display variants, with their ratios.

    The coefficient variant differs from the canonical integer list by the
    factor q^{k-g} at index k; the beta variant is reported with the
    canonical value and whether they agree (they do not, in general).
    """
    n = rank2_numerator(c)
    variants = normalized_coefficients(c)
    q = Fraction(c.q)
    table = rank2_invariants(c)
    alt_beta = beta_from_special_values(c)
    coeff_rows = []
    for k in range(1, c.g + 1):
        canonical = n.coeffs[k]
        variant = variants[k - 1]
        coeff_rows.append(
            {
                "index": k,
                "canonical": canonical,
                "variant": variant,
                "ratio": None if canonical == 0 else variant / canonical,
                "expected_ratio": q ** (k - c.g),
            }
        )
    return {
        "coefficients": coeff_rows,
        "beta_canonical": table.beta0,
        "beta_variant": alt_beta,
        "beta_agrees": alt_beta == table.beta0,
    }
