"""SL_r zeta functions from type A_{r-1} root-system combinatorics.

The period of a curve attached to SL_r is a Weyl-group sum: each w in S_r
contributes a product of simple-root factors 1/(1 - q^{-<w lambda - rho,
alpha_check>}) and, over the positive roots w sends negative, quotients of
completed zeta values.  Taking the (1 - u_j)-normalized residues at
s_1 = ... = s_{r-2} = 0 and clearing the zeta denominators with the factor
prod_{n=2}^{r-1} zh(n) * zh(s + r) leaves a one-variable function

    zh_SLr(s) = sum_{n=1}^{r} R_n(s) * zh(s + n),

with every R_n an exact rational function of u = q^{-s}.

Two independent routes are implemented.  :func:`slr_zeta` collapses each
surviving Weyl term directly: a term survives the residues exactly when w
maps every parabolic simple root into Delta or the negative roots, that is
w(i+1) <= w(i) + 1 for i <= r - 2, the pole at stage j is always simple,
and the zeta quotients along the roots through the last coordinate
telescope to a single zh(s + n).  So in each surviving w, with v = w(r),
positions 1..r-1 hold runs of consecutive values in decreasing order: a
composition of the r - v values above v, then one of the v - 1 values below
it.  The surviving set frak_W_P, of (r + 2) 2^{r-3} elements against r! in
S_r, is never listed: each term is read off its runs.  A run of l values
weighs zh(1)...zh(l), except the first run, which weighs zh(2)...zh(l), so
nothing divides by zh(1).  Two adjacent runs on one side of v, of lengths l
and l', give the constant 1/(1 - q^{l+l'}).  The last run above v, of
length a, gives 1/(1 - q^{a+v}/u) = -q^{-(a+v)} u / (1 - q^{-(a+v)} u),
and the first run below v, of length b, gives 1/(1 - q^{b-v+1} u).  So
R_v = U_v * D_v is a product of two chain sums over compositions, the
composition form of the SL_n zeta of Weng and Zagier:

    U_v = sum_a E_{r-v}(a) * (-q^{-(a+v)} u) / (1 - q^{-(a+v)} u),
    D_v = sum_b B_{v-1}(b) / (1 - q^{b-v+1} u),

with U_r = D_1 = 1.  E_n(a) sums the compositions of n whose last part is
a, B_n(b) those whose first part is b, each by a dynamic program over
(values used, end part) in O(r^3) ``Fraction`` operations per curve, one
:func:`_chain_row` per n (the completed-zeta mass sums its telescope with
it too); the zh(n), n < r, are evaluated once per assembly, and none at
r = 2.

Every function here is a factored term of :mod:`curvezeta.exact`: a
constant, a monomial, a polynomial kept whole and primitive integer factors
with multiplicities, zh(s + n) among them through its one factorization
(:func:`curvezeta.artin._mul_zeta_hat`).  Each side of R_v is the sum of its
terms over the LCM of their factored denominators, R_v the product of the
two sides, and zh_SLr the sum of the products R_v * zh(s + v); both sums are
:func:`_factored_sum`.  Every root of those denominators is known, so each
result is reduced without a gcd: a factor (1 - q^e u) is divided out exactly
while the numerator vanishes at q^{-e}, and u while it vanishes at 0; what
is left is coprime.  The T-grid numerator is one exact division of the
reversed numerator, times the displayed poles, by the reversed denominator;
an inexact one is a :class:`ConventionError`.  :func:`slr_fe_check` compares the combined form
with its image under u -> q^r / u, which keeps a reduced quotient reduced,
so it takes no gcd either.  :func:`slr_rh_report` finds the zeros of the
T-grid numerator with :func:`complex_roots`, in W = sqrt(Q) T, Q = q^r,
where they lie on |W| = 1, and at half degree when the numerator has the
functional equation T -> 1/(QT).

:func:`period_residue_oracle` instead sums the Weyl terms of the period
itself, with their own reading, and shares only this arithmetic with the
assembly.  At r = 2 the two terms are summed in u.  At r = 3 the six terms
are bivariate in u_j = q^{-s_j}, the elements of S_3 listed and their roots
read off each tuple with code of its own, and summed by the same
:func:`_factored_sum`, which multiplies them out on the univariate integer
:class:`Poly` core by Kronecker substitution, u1^i u2^j as x^(i + D j).
The limit lim (1 - u_1) f stays literal: (1 - u_1) divides a packed
polynomial exactly when its column sums at u_1 = 1 vanish, and is then
removed by exact division by (1 - x); u_1 = 1 is substituted by summing the
columns.  The two routes must agree up to a constant ratio, checked by
cross-multiplication with no gcd, which the caller records.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from curvezeta.artin import CurveData, _mul_zeta_hat, zeta_hat_ratfun, zeta_hat_special
from curvezeta.exact import ConventionError, Poly, RationalFunction, ZeroReport, complex_roots, float_sqrt
from curvezeta.exact import _factored_sum, _FactoredTerm
from curvezeta.invariants import alpha_from_A

# the largest rank accepted; on a 2-vCPU VM under Python 3.11 slr_zeta at r = 10
# takes about 0.010 s, the first call in a process as much as later ones (medians of
# 7 fresh processes, q = 2, g = 1 and 2)
R_MAX = 10


class SlrZeta(namedtuple("SlrZeta", "r q g terms combined numerator_T")):
    """The assembled SL_r zeta: per-shift terms R_n and their combined sum.

    ``terms`` is the tuple of pairs (n, R_n), n = 1..r; ``combined`` is their
    sum, a RationalFunction in u = q^{-s}; ``numerator_T`` is the tuple of
    rationals A(0..2g) of zh_SLr(-rs) on the T-grid.
    """

    __slots__ = ()


def _over_one_minus(q: int, num: int, den: int, k: int, e: int) -> _FactoredTerm:
    """num/den * u^k / (1 - q^e u) as a factored term."""
    t = _FactoredTerm(num, den, (k, 0))
    t.mul_one_minus(q, e, 1, 0, -1)
    return t


def _product(a: _FactoredTerm, b: _FactoredTerm) -> _FactoredTerm:
    """The product of two terms, equal keys cancelling."""
    factors = dict(a.factors)
    for key, m in b.factors.items():
        if m := factors.get(key, 0) + m:
            factors[key] = m
        else:
            del factors[key]
    mono = (a.mono[0] + b.mono[0], a.mono[1] + b.mono[1])
    return _FactoredTerm(a.num * b.num, a.den * b.den, mono, factors, a.poly * b.poly)


def _summed(terms: list[_FactoredTerm]) -> _FactoredTerm:
    """The sum of the terms; one needs no sum."""
    return terms[0] if len(terms) == 1 else _factored_sum(terms)


def _chain_row(X: list[list[Fraction]], n: int, lone: list, joined: list, pair: dict) -> list:
    """Row n of a chain sum over the compositions of n values: entry a sums
    those whose end run has a values, weighing lone[a] when it is the only run,
    else joined[a] times each entry X[n - a][b] it joins, times pair[a + b]."""
    return [0] + [
        lone[a] if a == n else joined[a] * sum(X[n - a][b] * pair[a + b] for b in range(1, n - a + 1))
        for a in range(1, n + 1)
    ]


@lru_cache(maxsize=256)
def slr_zeta(c: CurveData, r: int) -> SlrZeta:
    """Assemble zh_SLr(s) = sum_v R_v(s) zh(s + v) exactly in u = q^{-s}.

    R_v = U_v * D_v, two chain sums over the compositions of the r - v values
    above v and of the v - 1 values below it (see module docstring); each
    side is a :func:`_factored_sum` of at most r - 1 terms, one per length of
    the run next to v.  A convention fault in the T-grid extraction raises
    :class:`ConventionError` instead of silently producing a wrong
    normalization.
    """
    if c.g < 1:
        raise ValueError("group zeta needs genus >= 1")
    if not 2 <= r <= R_MAX:
        raise ValueError(f"rank parameter must satisfy 2 <= r <= {R_MAX}")
    q = c.q
    zh = [zeta_hat_special(c, n) for n in range(1, r)] if r > 2 else []  # zh(1..r-1); rank two needs none
    full = list(itertools.accumulate(zh[:-1], operator.mul, initial=1))  # full[l] = zh(1)...zh(l)
    top = [0, *itertools.accumulate(zh[1:], operator.mul, initial=1)]  # top[l] = zh(2)...zh(l)
    pair = {k: Fraction(1, 1 - q**k) for k in range(2, r)}  # two adjacent runs, k values in all

    E: list[list[Fraction]] = [[]]  # E[n][a]: the runs above v, the last one of a values
    for n in range(1, r):
        E.append(_chain_row(E, n, top, full, pair))
    B: list[list[Fraction]] = [[]]  # B[n][b]: the runs below v, the first one of b values
    for n in range(1, r - 1):
        B.append(_chain_row(B, n, full, full, pair))
    # with nothing above v the first run below it is the top run
    B.append(_chain_row(B, r - 1, top, top, pair))

    sums: dict[int, _FactoredTerm] = {}
    for v in range(1, r + 1):
        up = _FactoredTerm() if v == r else _summed([
            _over_one_minus(q, -w.numerator, w.denominator * q ** (a + v), 1, -(a + v))
            for a, w in enumerate(E[r - v]) if w
        ])
        down = _FactoredTerm() if v == 1 else _summed([
            _over_one_minus(q, w.numerator, w.denominator, 0, b - v + 1)
            for b, w in enumerate(B[v - 1]) if w
        ])
        sums[v] = _product(up, down)
    terms = [(n, t.ratfun()) for n, t in sums.items()]
    for n, t in sums.items():
        _mul_zeta_hat(t, c, n)
    combined = _factored_sum(list(sums.values())).ratfun()
    numerator = _extract_numerator(combined, c, r)
    return SlrZeta(r, c.q, c.g, tuple(terms), combined, numerator)


def _extract_numerator(combined: RationalFunction, c: CurveData, r: int) -> tuple[Fraction, ...]:
    """Coefficients A(0..2g) of zh_SLr(-rs) = sum A(i) T^i / ((1-T)(1-QT) T^{g-1}).

    With u = 1/T and d = max(deg num, deg den), combined(1/T) is
    rev_d(num) / rev_d(den), so the numerator is the exact quotient of
    rev_d(num) (1-T)(1-QT) T^{g-1} by rev_d(den).  Composing with u = 1/T
    must leave exactly the displayed pole structure; an inexact division
    means a stray factor, a convention bug, reported as such.
    """
    q, g = Fraction(c.q), c.g
    Q = q**r
    d = max(combined.num.degree, combined.den.degree)
    top = combined.num.reversed(d) * Poly.x(g - 1) * Poly([1, -1]) * Poly([1, -Q])
    try:
        poly = top.exact_div(combined.den.reversed(d))
    except ValueError:
        raise ConventionError("combined form does not reduce to the expected T-grid shape") from None
    if poly.degree > 2 * g:
        raise ConventionError(f"numerator degree {poly.degree} exceeds 2g = {2 * g}")
    return tuple(poly[i] for i in range(2 * g + 1))


class SlrNumeratorInfo(namedtuple("SlrNumeratorInfo", "coeffs normalized alpha_ratios unit_constant")):
    """Extracted numerator with its normalization and predicted alpha ratios.

    ``coeffs``, ``normalized`` (coeffs over coeffs[0]) and ``alpha_ratios``
    are tuples of rationals; ``unit_constant`` is whether coeffs[0] == 1.
    """

    __slots__ = ()


def slr_numerator(z: SlrZeta, c: CurveData) -> SlrNumeratorInfo:
    """Numerator coefficients plus the triangular alpha-ratio table.

    For r = 2 the assembly is normalized so A(0) = 1 exactly; for r >= 3
    the overall constant is not pinned by anything in the construction, so
    only the ratios alpha(r m)/alpha(0) are meaningful.
    """
    coeffs = z.numerator_T
    if coeffs[0] == 0:
        raise ConventionError("vanishing constant coefficient; ratios undefined")
    normalized = tuple(a / coeffs[0] for a in coeffs)
    Q = Fraction(z.q) ** z.r
    ratios = tuple(alpha_from_A(normalized, Q, z.g))
    return SlrNumeratorInfo(coeffs, normalized, ratios, coeffs[0] == 1)


def slr_fe_check(z: SlrZeta) -> bool:
    """Exact identity zh_SLr(-r-s) = zh_SLr(s), i.e. u -> q^r / u."""
    Q = Fraction(z.q) ** z.r
    return z.combined.reciprocal_arg(Q) == z.combined


@lru_cache(maxsize=256)
def slr_rh_report(z: SlrZeta, tol: float = 1e-9) -> ZeroReport:
    """Zero moduli of the numerator against the critical value q^{-1/2}.

    The cleared poles T = 1 and T = 1/Q, Q = q^r, are removed exactly first:
    (1 - T) and (1 - QT) are divided out of the numerator while it vanishes
    at their roots, and each removed root is listed under ``excluded``.
    The rest is solved in W = sqrt(Q) T (see :func:`complex_roots`), where
    the critical circle |T| = Q^{-1/2} is |W| = 1, and reported on the
    T-grid.  The deviation of the t-plane modulus |T|^{1/r} from q^{-1/2}
    is taken as q^{-1/2} | |W|^{1/r} - 1 |.
    """
    poly = Poly(z.numerator_T)
    critical = float(z.q) ** -0.5
    Q = z.q**z.r
    excluded: list[complex] = []
    for root, factor in ((Fraction(1), Poly([1, -1])), (Fraction(1, Q), Poly([1, -Q]))):
        while poly.degree >= 1 and poly.evaluate(root) == 0:
            poly = poly.exact_div(factor)
            excluded.append(complex(root))
    s = float_sqrt(Q)
    zeros = complex_roots(poly, Q=Q).roots
    deviations = tuple(critical * abs(abs(T * s) ** (1.0 / z.r) - 1) for T in zeros)
    verdict = all(d <= tol for d in deviations)
    return ZeroReport(zeros, critical, deviations, verdict, tol, tuple(excluded))


# ---------------------------------------------------------------------------
# Independent oracle: the period itself, with literal (1 - u_j) limits.
# ---------------------------------------------------------------------------

def _weyl_terms_r2(c: CurveData) -> list[_FactoredTerm]:
    """The two Weyl terms of the SL_2 period in u = q^{-s}, times the clearing
    factor zh(s + 2): zh(s + 2)/(1 - u) for the identity and
    zh(s + 1)/(1 - q^2/u) for the flip, whose zh(s + 1)/zh(s + 2) leaves zh(s + 1)."""
    identity, flip = _FactoredTerm(), _FactoredTerm()
    _mul_zeta_hat(identity, c, 2)
    identity.mul_one_minus(c.q, 0, 1, 0, -1)
    _mul_zeta_hat(flip, c, 1)
    flip.mul_one_minus(c.q, 2, -1, 0, -1)
    return [identity, flip]


def _weyl_terms_r3(c: CurveData) -> list[_FactoredTerm]:
    """The six Weyl terms of the SL_3 period in u_j = q^{-s_j}, factored.

    Each w in S_3 is read off its tuple p, with code of its own, not through
    the runs of :func:`slr_zeta`.  A root (x, y) stands for e_x - e_y, of height
    y - x, and pairs with the fundamental weight lambda_j to the sign of
    y - x when min(x, y) <= j < max(x, y), else to 0; those pairings are the
    exponents of u_1 and u_2.  Each simple root (i, i + 1), pulled back by w
    to (p^{-1}(i), p^{-1}(i + 1)) of height h, gives 1/(1 - q^{1-h} U), and
    each positive root (x, y) that w flips, p(x) > p(y), gives
    zh(h)/zh(h + 1) in its monomial U.
    """
    terms = []
    for p in itertools.permutations((1, 2, 3)):
        pos = {v: x for x, v in enumerate(p, start=1)}  # p^{-1}
        term = _FactoredTerm()
        for i in (1, 2):
            a, b = pos[i], pos[i + 1]
            lo, hi = min(a, b), max(a, b)
            sign = 1 if a < b else -1
            e1 = sign if lo <= 1 < hi else 0
            e2 = sign if lo <= 2 < hi else 0
            term.mul_one_minus(c.q, 1 - (b - a), e1, e2, -1)
        for x, y in itertools.combinations((1, 2, 3), 2):
            if p[x - 1] > p[y - 1]:
                e1 = 1 if x <= 1 < y else 0
                e2 = 1 if x <= 2 < y else 0
                _mul_zeta_hat(term, c, y - x, e1, e2, 1)
                _mul_zeta_hat(term, c, y - x + 1, e1, e2, -1)
        terms.append(term)
    return terms


def _u1_columns(p: Poly, stride: int) -> list[int]:
    """The integer column sums of a packed p: the ints of p at u1 = 1, by power of u2."""
    ints = p.ints
    return [sum(ints[j : j + stride]) for j in range(0, len(ints), stride)]


def _at_u1_one(p: Poly, stride: int) -> Poly:
    """A packed polynomial at u1 = 1, a polynomial in u2."""
    return Poly(_u1_columns(p, stride)) * p.scale


def _divide_one_minus_u1(p: Poly, stride: int) -> Poly | None:
    """The packed quotient p / (1 - u1), or None when (1 - u1) does not divide p.

    (1 - u1) divides p exactly when p vanishes at u1 = 1, and (1 - u1) b
    packs to (1 - x) pack(b), so the quotient is one exact univariate division.
    """
    if any(_u1_columns(p, stride)):
        return None
    return p.exact_div(Poly([1, -1]))


@lru_cache(maxsize=64)
def period_residue_oracle(c: CurveData, r: int) -> RationalFunction:
    """The period route to zh_SLr, as its ratio to the sum route.

    r = 2 sums its two Weyl terms in u and needs no residue.  At r = 3 the
    six bivariate terms are summed over the LCM of their factored
    denominators and multiplied out packed (:func:`_factored_sum`), and the
    limit lim_{u1 -> 1} (1 - u1) * omega is taken literally on the two
    polynomials: (1 - u1) is stripped from each as often as it divides, the
    pole order never read off the factor keys, and then u1 = 1 is
    substituted.  A pole of order >= 2 raises; order <= 0 would make the
    limit vanish, which is also reported.  The residue is multiplied by
    zh(2) and zh(s + 3) as polynomials, and never reduced.

    The returned ratio is oracle / assembled, a constant when the two routes
    agree; the caller checks that it is.  With oracle = on/od and assembled
    = an/ad, agreement is checked cross-multiplied, on * ad == k * od * an,
    with k the ratio of the leading coefficients (0 for a zero oracle), so
    no gcd is taken.  Only when the check fails, or the assembled form is
    zero, is the ratio reduced by the gcd constructor, which raises
    ZeroDivisionError for a zero assembled form.
    """
    if r == 2:
        oracle = _factored_sum(_weyl_terms_r2(c)).ratfun()
        on, od = oracle.num, oracle.den
    elif r == 3:
        num, den, stride = _factored_sum(_weyl_terms_r3(c))
        k_den = 0
        while (nxt := _divide_one_minus_u1(den, stride)) is not None:
            den = nxt
            k_den += 1
        k_num = 0
        while k_num < k_den and (nxt := _divide_one_minus_u1(num, stride)) is not None:
            num = nxt
            k_num += 1
        order = k_den - k_num
        if order > 1:
            raise ValueError(f"pole of order {order} at u1 = 1; limit unsupported")
        if order < 1:
            raise ValueError("no pole at u1 = 1; the residue vanishes")
        zh3 = zeta_hat_ratfun(c, shift=3)
        on = _at_u1_one(num, stride) * zeta_hat_special(c, 2) * zh3.num
        od = _at_u1_one(den, stride) * zh3.den
    else:
        raise ValueError("the period oracle covers r in {2, 3} only")

    assembled = slr_zeta(c, r).combined
    left, right = on * assembled.den, od * assembled.num
    if right.ints:
        k = left[left.degree] / right[right.degree]  # a zero left reads 0 as its lead
        if left == right * k:
            return RationalFunction.constant(k)
    return RationalFunction(left, right)
