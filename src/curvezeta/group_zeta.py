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
(values used, end part) in O(r^3) integer operations per curve, one
:func:`_chain_row` per n (the completed-zeta mass sums its telescope with
it too).  A row is integer numerators over a denominator of its own,
reduced once by one gcd; one denominator for all rows would reach tens of
thousands of digits at r = 24.  The zh(n), n < r, are evaluated once per
assembly, and none at r = 2.

Every function here is a factored term of :mod:`curvezeta.exact`: a
constant, a monomial, a polynomial kept whole and primitive integer factors
with multiplicities, zh(s + n) among them through its one factorization
(:func:`curvezeta.artin._mul_zeta_hat`).  Each side of R_v is one
:func:`_partial_fraction_sum` over its distinct binomials 1 - q^e u, R_v
the product of the two sides, and zh_SLr the sum of the products
R_v * zh(s + v), a :func:`_factored_sum`; both sums add their numerators
in integers and normalize once.  Every root of those denominators is
known, so each result is reduced without a gcd: a factor (1 - q^e u) is
divided out exactly while the numerator vanishes at q^{-e}, an integer
root test, and u while it vanishes at 0; what is left is coprime.  The
T-grid numerator is one exact division of the reversed numerator, times
the displayed poles, by the reversed denominator; an inexact one is a
:class:`ConventionError`.  All of this runs on Python ints; past the zh(n)
it reads, a ``Fraction`` is built only for what the report shows: the
T-grid coefficients, the alpha ratios and the displayed terms.
:func:`slr_fe_check` compares the combined form with its image under
u -> q^r / u, which keeps a reduced quotient reduced, so it takes no gcd
either.  :func:`slr_rh_report` finds the zeros of the T-grid numerator
with :func:`complex_roots`, in W = sqrt(Q) T, Q = q^r, where they lie on
|W| = 1, and at half degree when the numerator has the functional
equation T -> 1/(QT).

:func:`period_residue_oracle` instead sums the Weyl terms of the period
itself, with their own reading, and shares only this arithmetic with the
assembly.  At r = 2 the two terms are summed in u by :func:`_factored_sum`.
At r = 3 the six terms are bivariate in u_j = q^{-s_j}, the elements of S_3
listed and their roots read off each tuple with code of its own, and put
over the LCM of their factored denominators (:func:`_over_lcm`), N / L.
The limit lim (1 - u_1) N / L is never multiplied out in full: with
u_1 = 1 - eps, (1 - u_1)^j divides a polynomial exactly when its first j
eps-coefficients vanish, and the quotient at u_1 = 1 is the next one, so a
few eps-coefficients of N and L, each a :class:`Poly` in u_2, give the pole
order and the limit (:func:`_residue_at_u1_one`).  The two routes must
agree up to a constant ratio, checked by cross-multiplication with no gcd,
which the caller records.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, reduce

from curvezeta.artin import CurveData, _mul_zeta_hat, zeta_hat_ratfun, zeta_hat_special
from curvezeta.exact import ConventionError, Poly, RationalFunction, ZeroReport, complex_roots, float_sqrt
from curvezeta.exact import Key, _exact_quotient, _factored_sum, _FactoredTerm, _over_lcm
from curvezeta.exact import _partial_fraction_sum, _poly, _scale_product, _value_at
from curvezeta.invariants import alpha_from_A

# the largest rank accepted; on a 2-vCPU VM under Python 3.11 slr_zeta at r = 10
# takes about 0.003 s, the first call in a process about 15 % more than later ones
# (medians of 7 fresh processes, q = 2, g = 1 and 2)
R_MAX = 10


class SlrZeta(namedtuple("SlrZeta", "r q g terms combined numerator_T")):
    """The assembled SL_r zeta: per-shift terms R_n and their combined sum.

    ``terms`` is the tuple of pairs (n, R_n), n = 1..r; ``combined`` is their
    sum, a RationalFunction in u = q^{-s}; ``numerator_T`` is the tuple of
    rationals A(0..2g) of zh_SLr(-rs) on the T-grid.
    """

    __slots__ = ()


Row = tuple[list[int], int]  # a chain row: integer numerators over one denominator


def _chain_row(X: list[Row], n: int, lone: list, joined: list, pair: tuple) -> Row:
    """Row n of a chain sum over the compositions of n values: entry a sums
    those whose end run has a values, weighing lone[a] when it is the only run,
    else joined[a] times each entry X[n - a][b] it joins, times pair[a + b].
    Weights are integer pairs (numerator, denominator), and pair is
    (numerators, L) over one L.  The row is put over the LCM of its entries'
    denominators and reduced once, by one gcd."""
    nums, L = pair
    parts = []
    for a in range(1, n):
        jn, jd = joined[a]
        if jn:
            xs, xd = X[n - a]
            if s := sum(xs[b] * nums[a + b] for b in range(1, n - a + 1)):
                parts.append((a, jn * s, jd * xd * L))
    if lone[n][0]:
        parts.append((n, *lone[n]))
    den = math.lcm(*(d for _, _, d in parts))
    row = [0] * (n + 1)
    for a, x, d in parts:
        row[a] = x * (den // d)
    g = math.gcd(den, *row)
    return [x // g for x in row], den // g


def _products(values: list[Fraction]) -> list[tuple[int, int]]:
    """The running products 1, v_0, v_0 v_1, ... as reduced integer pairs."""
    out = [(1, 1)]
    for v in values:
        out.append(_scale_product(*out[-1], v.numerator, v.denominator))
    return out


def _pair_weights(q: int, top: int) -> tuple[dict[int, int], int]:
    """The weights 1/(1 - q^k), k = 2..top, of two adjacent runs of k values
    in all, as integer numerators over L = lcm(q^k - 1): -(L / (q^k - 1)) / L."""
    L = math.lcm(*(q**k - 1 for k in range(2, top + 1)))
    return {k: -(L // (q**k - 1)) for k in range(2, top + 1)}, L


@lru_cache(maxsize=256)
def slr_zeta(c: CurveData, r: int) -> SlrZeta:
    """Assemble zh_SLr(s) = sum_v R_v(s) zh(s + v) exactly in u = q^{-s}.

    R_v = U_v * D_v, two chain sums over the compositions of the r - v values
    above v and of the v - 1 values below it (see module docstring); each
    side is a :func:`_partial_fraction_sum` of at most r - 1 terms, one per
    length of the run next to v.  A convention fault in the T-grid extraction raises
    :class:`ConventionError` instead of silently producing a wrong
    normalization.
    """
    if c.g < 1:
        raise ValueError("group zeta needs genus >= 1")
    if not 2 <= r <= R_MAX:
        raise ValueError(f"rank parameter must satisfy 2 <= r <= {R_MAX}")
    q = c.q
    zh = [zeta_hat_special(c, n) for n in range(1, r)] if r > 2 else []  # zh(1..r-1); rank two needs none
    full = _products(zh[:-1])  # full[l] = zh(1)...zh(l)
    top = [(0, 1), *_products(zh[1:])]  # top[l] = zh(2)...zh(l)
    pair = _pair_weights(q, r - 1)

    E = [([], 1)]  # E[n][0][a]: the runs above v, the last one of a values, over E[n][1]
    for n in range(1, r):
        E.append(_chain_row(E, n, top, full, pair))
    B = [([], 1)]  # B[n][0][b]: the runs below v, the first one of b values, over B[n][1]
    for n in range(1, r - 1):
        B.append(_chain_row(B, n, full, full, pair))
    # with nothing above v the first run below it is the top run
    B.append(_chain_row(B, r - 1, top, top, pair))

    sums: dict[int, _FactoredTerm] = {}
    for v in range(1, r + 1):
        # E(a) (-q^{-(a+v)} u) = -E(a) q^{r-a-v} u / q^r: one denominator for the side
        xs, den = E[r - v]
        up = _FactoredTerm() if v == r else _partial_fraction_sum(
            q, [(-(a + v), -x * q ** (r - a - v), den * q**r) for a, x in enumerate(xs) if x], 1
        )
        xs, den = B[v - 1]
        down = _FactoredTerm() if v == 1 else _partial_fraction_sum(
            q, [(b - v + 1, x, den) for b, x in enumerate(xs) if x]
        )
        sums[v] = up * down
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
    rev_d(num) (1-T)(1-QT) T^{g-1} by rev_d(den), taken on their ints.
    Composing with u = 1/T must leave exactly the displayed pole structure;
    an inexact division means a stray factor, a convention bug, reported as
    such.  The coefficients become ``Fraction`` only here, for the report.
    """
    g, Q = c.g, c.q**r
    d = max(combined.num.degree, combined.den.degree)
    top = combined.num.reversed(d) * _poly([0] * (g - 1) + [1, -1 - Q, Q], 1, 1)
    try:
        poly = top.exact_div(combined.den.reversed(d))
    except ValueError:
        raise ConventionError("combined form does not reduce to the expected T-grid shape") from None
    if poly.degree > 2 * g:
        raise ConventionError(f"numerator degree {poly.degree} exceeds 2g = {2 * g}")
    return tuple(poly[i] for i in range(2 * g + 1))


def slr_alpha_ratios(z: SlrZeta) -> tuple[Fraction, ...]:
    """The triangular alpha-ratio table alpha(r m)/alpha(0) of the numerator.

    For r = 2 the assembly is normalized so A(0) = 1 exactly; for r >= 3
    the overall constant is not pinned by anything in the construction, so
    the numerator is divided by A(0) first and only the ratios are
    meaningful.  A(0) = 0 is a :class:`ConventionError`.  The ratios
    A(i)/A(0) are those of the numerator's primitive ints, so the
    triangular system runs on integers and divides by ints[0] once per alpha.
    """
    if z.numerator_T[0] == 0:
        raise ConventionError("vanishing constant coefficient; ratios undefined")
    ints = Poly(z.numerator_T).ints
    return tuple(a / ints[0] for a in alpha_from_A(ints, z.q**z.r, z.g))


def slr_fe_check(z: SlrZeta) -> bool:
    """Exact identity zh_SLr(-r-s) = zh_SLr(s), i.e. u -> q^r / u."""
    return z.combined.reciprocal_arg(z.q**z.r) == z.combined


@lru_cache(maxsize=256)
def slr_rh_report(z: SlrZeta, tol: float = 1e-9) -> ZeroReport:
    """Zero moduli of the numerator against the critical value q^{-1/2}.

    The cleared poles T = 1 and T = 1/Q, Q = q^r, are removed exactly first:
    (1 - T) and (1 - QT) are divided out of the numerator's primitive ints
    while they vanish at the roots (an integer sum, no ``Fraction``), and
    each removed root is listed under ``excluded``.
    The rest is solved in W = sqrt(Q) T (see :func:`complex_roots`), where
    the critical circle |T| = Q^{-1/2} is |W| = 1, and reported on the
    T-grid.  The deviation of the t-plane modulus |T|^{1/r} from q^{-1/2}
    is taken as q^{-1/2} | |W|^{1/r} - 1 |.
    """
    ints = Poly(z.numerator_T).ints  # the zeros do not depend on the scale
    critical = float(z.q) ** -0.5
    Q = z.q**z.r
    excluded: list[complex] = []
    for b in (1, Q):  # the poles T = 1 and T = 1/Q, the roots of 1 - bT
        while len(ints) > 1 and not _value_at(ints, 1, b):
            ints = _exact_quotient(ints, (1, -b))
            excluded.append(complex(1 / b))
    s = float_sqrt(Q)
    zeros = complex_roots(_poly(list(ints), 1, 1), Q=Q).roots  # a quotient's lead may be negative
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


def _at_one_minus_eps(ints: Sequence[int], e1: int, e2: int, K: int) -> list[Poly]:
    """sum_k ints[k] U^k, U = u1^e1 u2^e2, at u1 = 1 - eps, modulo eps^K: its
    coefficients of eps^0..eps^(K-1), polynomials in u2.  (1 - eps)^n has
    eps^j coefficient (-1)^j C(n, j), so a key in u2 alone is a constant and
    at K = 1 a key in u1 alone is the integer sum of its ints."""
    out = []
    for j in range(K):
        cs = [0] * (e2 * (len(ints) - 1) + 1)
        for k, a in enumerate(ints):
            cs[e2 * k] += a * math.comb(e1 * k, j)
        out.append(_poly(cs, -1 if j % 2 else 1, 1))
    return out


def _eps_product(a: Sequence[Poly], b: Sequence[Poly]) -> list[Poly]:
    """The product of two eps-series of one length K, modulo eps^K."""
    return [reduce(operator.add, (a[i] * b[n - i] for i in range(n + 1))) for n in range(len(a))]


@lru_cache(maxsize=1024)
def _eps_key_power(key: Key, m: int, K: int) -> tuple[Poly, ...]:
    """A key to the power m > 0 at u1 = 1 - eps, modulo eps^K; kept, since the
    six Weyl terms and their LCM share most keys."""
    e1, e2, ints = key
    base = _at_one_minus_eps(ints, e1, e2, K)
    out = base
    for _ in range(m - 1):
        out = _eps_product(out, base)
    return tuple(out)


def _eps_series(parts: list, K: int) -> list[Poly]:
    """The sum of cleared parts (:func:`_over_lcm`) at u1 = 1 - eps, modulo eps^K."""
    total = [Poly()] * K
    for const, (a1, a2), ms, poly in parts:
        # u1^a1 poly(u1) is a polynomial in u1 alone: its eps-coefficients are constants
        series = _at_one_minus_eps((0,) * a1 + poly.ints, 1, 0, K)
        for key, m in ms.items():
            if m:
                series = _eps_product(_eps_key_power(key, m, K), series)
        front = Poly.x(a2, const * poly.scale)
        total = [t + front * c for t, c in zip(total, series)]
    return total


def _residue_at_u1_one(terms: list[_FactoredTerm]) -> tuple[Poly, Poly]:
    """lim_{u1 -> 1} (1 - u1) times the sum of the terms, as a numerator and a
    denominator in u2.

    The sum is N / L over the LCM of the factored denominators (:func:`_over_lcm`).
    With u1 = 1 - eps, (1 - u1)^j divides a polynomial exactly when its first
    j eps-coefficients vanish, and the quotient at eps = 0 is the next one.
    So L is expanded modulo eps^K, K = 2, 4, 8, ..., until a coefficient is
    non-zero: its index is the order k of L at u1 = 1, never read off the
    keys.  N is expanded at eps^0 only, where a key in u1 alone is a
    constant, and modulo eps^k only when that coefficient vanishes and k > 1.
    The limit is N_{k-1} / L_k; a pole of order >= 2 raises, and so does an
    order <= 0, which would make the limit vanish.
    """
    *parts, den = _over_lcm(terms)
    K = 2
    L = _eps_series([den], K)
    while not any(c.ints for c in L):
        K *= 2
        L = _eps_series([den], K)
    k_den = next(k for k, c in enumerate(L) if c.ints)
    N = _eps_series(parts, 1)
    if k_den > 1 and not N[0].ints:
        N = _eps_series(parts, k_den)
    k_num = next((k for k, c in enumerate(N) if c.ints), k_den)
    order = k_den - k_num
    if order > 1:
        raise ValueError(f"pole of order {order} at u1 = 1; limit unsupported")
    if order < 1:
        raise ValueError("no pole at u1 = 1; the residue vanishes")
    return N[k_num], L[k_den]


@lru_cache(maxsize=64)
def period_residue_oracle(c: CurveData, r: int) -> RationalFunction:
    """The period route to zh_SLr, as its ratio to the sum route.

    r = 2 sums its two Weyl terms in u and needs no residue.  At r = 3 the
    six bivariate terms are put over the LCM of their factored denominators,
    and the limit lim_{u1 -> 1} (1 - u1) * omega is read off the expansions
    of numerator and denominator at u1 = 1 - eps (:func:`_residue_at_u1_one`),
    the pole order never off the factor keys.  A pole of order >= 2 raises;
    order <= 0 would make the limit vanish, which is also reported.  The
    residue is multiplied by zh(2) and zh(s + 3) as polynomials, and never
    reduced.

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
        num, den = _residue_at_u1_one(_weyl_terms_r3(c))
        zh3 = zeta_hat_ratfun(c, shift=3)
        on = num * zeta_hat_special(c, 2) * zh3.num
        od = den * zh3.den
    else:
        raise ValueError("the period oracle covers r in {2, 3} only")

    assembled = slr_zeta(c, r).combined
    left, right = on * assembled.den, od * assembled.num
    if right.ints:
        k = left[left.degree] / right[right.degree]  # a zero left reads 0 as its lead
        if left == right * k:
            return RationalFunction.constant(k)
    return RationalFunction(left, right)
