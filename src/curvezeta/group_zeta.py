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
telescope to a single zh(s + n).  The per-term factors are read off the
root combinatorics with no residue computation at all, straight off each
permutation tuple; the module builds no root-system objects.
The surviving set frak_W_P, of (r + 2) 2^{r-3} elements against r! in S_r,
is generated directly, depth first over prefixes that keep the bound, in
lexicographic order, so no rank lists S_r and r runs up to ``R_MAX``.  The
constant weights are products of zh(n) at integers n < r, each evaluated
once per assembly on first use and kept, like every product of them and of
the constant factors 1/(1 - q^e), as a reduced integer pair (numerator,
denominator).  The only denominators are powers of u and linear factors
(1 - q^e u) with e an integer: a factor 1/(1 - q^e/u) is rewritten as
-q^{-e} u / (1 - q^{-e} u).  So the curve enters a term only through its
constant weight; its shape, the shift n_w and the multiset of factors
(1 - q^e u), depends on r alone.  :func:`_slr_recipe` groups frak_W_P by
shape once per r, on first use, and for each curve the weights of one shape
are summed into one polynomial in u, as integer numerators over one
denominator per power of u, so each coefficient is one ``Fraction``: 30
shapes at r = 6 and 138 at r = 10 against 64 and 1536 terms.

Every function here is a factored term of :mod:`curvezeta.exact`: a
constant, a monomial, a polynomial kept whole and primitive integer factors
with multiplicities, zh(s + n) among them through its one factorization
(:func:`curvezeta.artin._mul_zeta_hat`).  Each R_n is the sum of its shapes
over the LCM of their factored denominators, and zh_SLr the sum of the
products R_n * zh(s + n), both by :func:`_factored_sum`.  Every root of
those denominators is known, so each result is reduced without a gcd: a
factor (1 - q^e u) is divided out exactly while the numerator vanishes at
q^{-e}, and u while it vanishes at 0; what is left is coprime.  The T-grid
numerator is one exact division of the reversed numerator, times the
displayed poles, by the reversed denominator; an inexact one is a
:class:`ConventionError`.  :func:`slr_fe_check` compares the combined form
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
columns.  The two routes must agree up to a constant ratio, which the
caller records and checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from curvezeta.artin import CurveData, _mul_zeta_hat, zeta_hat_ratfun, zeta_hat_special
from curvezeta.exact import ConventionError, Poly, RationalFunction, ZeroReport, complex_roots, float_sqrt
from curvezeta.exact import _factored_sum, _FactoredTerm, _q_power
from curvezeta.invariants import alpha_from_A

# the largest rank accepted; on a 2-vCPU VM under Python 3.11 the first slr_zeta at
# r = 10 takes about 0.065 s, 0.046 s of it building the recipe, and later ones 0.02 s
# (medians of 7 fresh processes)
R_MAX = 10


def _frak_w_p_perms(r: int) -> list[tuple[int, ...]]:
    """The permutations w of 1..r with w(i+1) <= w(i) + 1 for 1 <= i <= r - 2.

    Depth first over prefixes, each position trying the unused values in
    increasing order, so the result comes in lexicographic order, the order
    of the same filter over ``itertools.permutations``, without listing S_r.
    The last position takes the one value left, unconstrained.
    """
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], free: tuple[int, ...]) -> None:
        if not free:
            out.append(prefix)
            return
        bound = prefix[-1] + 1 if 0 < len(prefix) < r - 1 else r
        for idx, v in enumerate(free):
            if v > bound:
                break
            extend(prefix + (v,), free[:idx] + free[idx + 1 :])

    extend((), tuple(range(1, r + 1)))
    return out


@dataclass(frozen=True)
class SlrZeta:
    """The assembled SL_r zeta: per-shift terms R_n and their combined sum."""

    r: int
    q: int
    g: int
    terms: tuple[tuple[int, RationalFunction], ...]  # (n, R_n), n = 1..r
    combined: RationalFunction  # in u = q^{-s}
    numerator_T: tuple[Fraction, ...]  # A(0..2g) of zh_SLr(-rs) on the T-grid


Shape = tuple[int, tuple[tuple[int, int], ...]]  # (n_w, sorted (e, m) of prod (1 - q^e u)^m)
Entry = tuple[int, tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]
# (u-power k, non-zero zeta exponents (n, e), constant factors e, flipped e's)


@lru_cache(maxsize=None)
def _slr_recipe(r: int) -> dict[Shape, dict[Entry, int]]:
    """The curve-independent recipe of the SL_r Weyl sum: shape -> {entry: multiplicity}.

    A Weyl term is mult * prod zh(n)^{e_n} / prod (1 - q^e) over its constant
    factors, times prod -q^{-e} u over its flipped factors 1/(1 - q^e/u) =
    -q^{-e} u / (1 - q^{-e} u), over its shape's denominator.  Only the shape
    depends on u, so a curve's terms of one shape sum to one polynomial.
    Each term is read off its permutation p: n_w = r - k for the k flipped
    roots (x, r), which must be x = 1..k; zh(2..r-1), times zh(h)/zh(h+1)
    for each flipped root of Phi_P^+ of height h, the telescoped quotients;
    and for each simple root i, pulled back to (p^{-1}(i), p^{-1}(i+1)) of
    height h, the factor 1/(1 - q^{1-h} u^{+-1}) through slot r, none when
    a residue consumed it, and the constant 1/(1 - q^{1-h}) otherwise.
    Built on first use for each r, never at import.  A broken telescoping run
    or a negative leftover zeta exponent raises :class:`ConventionError`.
    """
    if not 2 <= r <= R_MAX:
        raise ValueError(f"rank parameter must satisfy 2 <= r <= {R_MAX}")
    recipe: dict[Shape, dict[Entry, int]] = {}
    for p in _frak_w_p_perms(r):
        w = (0, *p)  # w[x] = p(x), 1-based
        starts = [x for x in range(1, r) if w[x] > w[r]]
        if starts != list(range(1, len(starts) + 1)):
            raise ConventionError(f"flipped roots through the last slot are not a prefix: {starts}")
        zeta = [0, 0] + [1] * (r - 2) + [0]  # zeta[n] = exponent of zh(n), n = 0..r
        for y in range(2, r):
            for x in range(1, y):
                if w[x] > w[y]:
                    zeta[y - x] += 1
                    zeta[y - x + 1] -= 1
        if any(e < 0 for e in zeta):
            raise ConventionError(f"zeta denominators survive clearing for w = {p}")
        pos = {v: x for x, v in enumerate(p, start=1)}  # p^{-1}
        den: dict[int, int] = {}
        const_factors: list[int] = []
        flipped: list[int] = []
        for i in range(1, r):
            a, b = pos[i], pos[i + 1]
            h = b - a
            if h == 1 and a <= r - 2:
                continue  # the residue at stage a consumed this factor
            if r in (a, b):
                e = 1 - h
                if h < 0:  # 1/(1 - q^e/u)
                    flipped.append(e)
                    e = -e
                den[e] = den.get(e, 0) + 1
            elif h == 1:
                raise ConventionError("vanishing exponent in a constant factor")
            else:
                const_factors.append(1 - h)
        shape = (r - len(starts), tuple(sorted(den.items())))
        zetas = tuple((n, e) for n, e in enumerate(zeta) if e)
        entry = (len(flipped), zetas, tuple(sorted(const_factors)), tuple(sorted(flipped)))
        entries = recipe.setdefault(shape, {})
        entries[entry] = entries.get(entry, 0) + 1
    return recipe


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms with d > 0, as an integer pair."""
    g = math.gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)


def _const_weight(q: int, const_factors: Sequence[int], flipped: Sequence[int]) -> tuple[int, int]:
    """prod -q^{-e} over the flipped e's over prod (1 - q^e) over the constant
    factors, as a reduced integer pair; with q^e = a/b, 1 - q^e = (b - a)/b."""
    n = d = 1
    for e in flipped:
        a, b = _q_power(q, -e)
        n, d = -n * a, d * b
    for e in const_factors:
        a, b = _q_power(q, e)
        n, d = n * b, d * (b - a)
    return _reduced(n, d)


@lru_cache(maxsize=256)
def slr_zeta(c: CurveData, r: int) -> SlrZeta:
    """Assemble zh_SLr(s) = sum_n R_n(s) zh(s + n) exactly in u = q^{-s}.

    Each surviving Weyl term is collapsed through the residues by pure
    combinatorics into the recipe of :func:`_slr_recipe` (see module
    docstring); the curve enters only through the weight of each entry, an
    integer pair, and the weights of a shape are summed as integer numerators
    over one denominator per u-power, one ``Fraction`` per coefficient.  A
    convention fault in the recipe or in the T-grid extraction raises
    :class:`ConventionError` instead of silently producing a wrong
    normalization.
    """
    if c.g < 1:
        raise ValueError("group zeta needs genus >= 1")
    zh: dict[int, tuple[int, int]] = {}  # zh(n) as (num, den), each evaluated on first use
    zeta_parts: dict[tuple[tuple[int, int], ...], tuple[int, int]] = {}
    const_parts: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, int]] = {}
    R: dict[int, list[_FactoredTerm]] = {}
    for (n_w, den), entries in _slr_recipe(r).items():
        # per u-power, the integer numerators summed by denominator
        by_power: list[dict[int, int]] = [{} for _ in range(1 + max(entry[0] for entry in entries))]
        for (k, zetas, const_factors, flipped), mult in entries.items():
            z = zeta_parts.get(zetas)
            if z is None:
                for n, _ in zetas:
                    if n not in zh:
                        v = zeta_hat_special(c, n)
                        zh[n] = (v.numerator, v.denominator)
                z = zeta_parts[zetas] = _reduced(
                    math.prod(zh[n][0] ** e for n, e in zetas),
                    math.prod(zh[n][1] ** e for n, e in zetas),
                )
            consts = (const_factors, flipped)
            w = const_parts.get(consts)
            if w is None:
                w = const_parts[consts] = _const_weight(c.q, const_factors, flipped)
            by_den = by_power[k]
            d = z[1] * w[1]
            by_den[d] = by_den.get(d, 0) + mult * z[0] * w[0]
        coeffs = []
        for by_den in by_power:
            lcm = math.lcm(*by_den)
            coeffs.append(Fraction(sum(a * (lcm // d) for d, a in by_den.items()), lcm))
        term = _FactoredTerm(poly=Poly(coeffs))
        for e, m in den:
            term.mul_one_minus(c.q, e, 1, 0, -m)
        R.setdefault(n_w, []).append(term)

    sums = {n: _factored_sum(R[n]) for n in sorted(R)}
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


@dataclass(frozen=True)
class SlrNumeratorInfo:
    """Extracted numerator with its normalization and predicted alpha ratios."""

    coeffs: tuple[Fraction, ...]
    normalized: tuple[Fraction, ...]
    alpha_ratios: tuple[Fraction, ...]
    unit_constant: bool


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
    :func:`_slr_recipe`.  A root (x, y) stands for e_x - e_y, of height
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
def period_residue_oracle(c: CurveData, r: int) -> tuple[RationalFunction, RationalFunction]:
    """The period route to zh_SLr, plus its ratio to the sum route.

    r = 2 sums its two Weyl terms in u and needs no residue.  At r = 3 the
    six bivariate terms are summed over the LCM of their factored
    denominators and multiplied out packed (:func:`_factored_sum`), and the
    limit lim_{u1 -> 1} (1 - u1) * omega is taken literally on the two
    polynomials: (1 - u1) is stripped from each as often as it divides, the
    pole order never read off the factor keys, and then u1 = 1 is
    substituted.  A pole of order >= 2 raises; order <= 0 would make the
    limit vanish, which is also reported.  The returned ratio is oracle /
    assembled, a constant when the two routes agree; the caller checks that
    it is.
    """
    if r == 2:
        oracle = _factored_sum(_weyl_terms_r2(c)).ratfun()
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
        residue = RationalFunction(_at_u1_one(num, stride), _at_u1_one(den, stride))
        oracle = (
            residue
            * RationalFunction.constant(zeta_hat_special(c, 2))
            * zeta_hat_ratfun(c, shift=3)
        )
    else:
        raise ValueError("the period oracle covers r in {2, 3} only")

    return oracle, oracle / slr_zeta(c, r).combined
