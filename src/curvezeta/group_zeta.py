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
root combinatorics with no residue computation at all; the root data
(Phi_w, inversion counts) are read straight from the permutation w.perm.
The surviving set frak_W_P, of (r + 2) 2^{r-3} elements against r! in S_r,
is generated directly, depth first over prefixes that keep the bound, in
lexicographic order; :func:`build_root_system` runs its eager invariant
checks on that set and checks the embedded S_{r-1} on its generators, so no
rank lists S_r and r runs up to ``R_MAX``.  The constant weights are
products of zh(n) at integers n < r, each evaluated once per assembly on
first use.  The only
denominators are powers of u and linear factors (1 - q^e u) with e an
integer: a factor 1/(1 - q^e/u) is rewritten as -q^{-e} u / (1 - q^{-e} u),
and zh(s + n) is
q^{(g-1)n} u^{1-g} P(q^{-n} u) / ((1 - q^{-n} u)(1 - q^{1-n} u)).  So each
term is kept as value * u^k over a multiset of factors keyed by e, each R_n
is summed in one pass over the LCM of its terms' factors, and the products
R_n * zh(s + n) are summed the same way; every result is reduced once by
the ordinary :class:`RationalFunction` constructor.  :func:`slr_rh_report`
finds the zeros of the T-grid numerator with :func:`complex_roots`, whose
exact square-free split first tries a certificate modulo one fixed prime
(gcd(f, f') constant mod p proves f square-free) and falls back to Yun's
algorithm only when the certificate fails.
:func:`period_residue_oracle` instead materializes the period as an exact
(bivariate, for r = 3) rational function and takes the limit
lim (1 - u_1) f literally; the two must agree up to a recorded constant.
For r = 3 each Weyl term is kept factored (a constant, a monomial and
normalized binomial and Weil-numerator factors), equal factors cancel within
a term, and the terms are added over the LCM of their factored denominators
instead of by cross-multiplying them pairwise.  The limit stays literal:
the sum is multiplied out into one numerator and one denominator polynomial,
(1 - u_1) is removed from both by exact synthetic division, and u_1 = 1 is
substituted.  The oracle lists the six elements of S_3 itself and shares
only :func:`build_root_system` with :func:`slr_zeta`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from curvezeta.artin import CurveData, zeta_hat_ratfun, zeta_hat_special
from curvezeta.exact import Poly, RationalFunction, ZeroReport, complex_roots
from curvezeta.invariants import alpha_from_A

Root = tuple[int, int]  # (x, y) encodes e_x - e_y; positive iff x < y

R_MAX = 10  # the largest rank accepted; one slr_zeta at r = 10 takes about 0.5 s


class ConventionError(RuntimeError):
    """The assembled sum violates a structural expectation of the display."""


@dataclass(frozen=True)
class WeylElt:
    """A permutation of {1..r}, acting on roots through the coordinate index."""

    perm: tuple[int, ...]  # perm[i-1] = image of i

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def apply(self, root: Root) -> Root:
        return (self(root[0]), self(root[1]))

    def inverse(self) -> WeylElt:
        inv = [0] * len(self.perm)
        for i, v in enumerate(self.perm, start=1):
            inv[v - 1] = i
        return WeylElt(tuple(inv))

    def inversions(self) -> int:
        return sum(1 for a, b in itertools.combinations(self.perm, 2) if a > b)


def root_height(root: Root) -> int:
    """Signed coroot height of e_x - e_y: y - x."""
    return root[1] - root[0]


def is_positive(root: Root) -> bool:
    return root[0] < root[1]


@dataclass(frozen=True)
class RootSystemData:
    """Type A_{r-1} inside R^r: roots, Weyl vector and fundamental weights."""

    r: int
    positive_roots: tuple[Root, ...]
    simple_roots: tuple[Root, ...]
    rho: tuple[Fraction, ...]
    fundamental_weights: tuple[tuple[Fraction, ...], ...]

    def pairing(self, weight: tuple[Fraction, ...], root: Root) -> Fraction:
        """<weight, root_check> in coordinates: weight[x] - weight[y]."""
        return weight[root[0] - 1] - weight[root[1] - 1]

    def flipped_positive_roots(self, w: WeylElt) -> list[Root]:
        """Phi_w: positive roots sent negative by w, i.e. (x, y) with w(x) > w(y)."""
        p = w.perm
        return [(x, y) for x, y in self.positive_roots if p[x - 1] > p[y - 1]]


@dataclass(frozen=True)
class ParabolicData:
    """The maximal parabolic of shape (r-1, 1) and its Weyl data."""

    delta_p: tuple[Root, ...]  # alpha_1 .. alpha_{r-2}
    phi_p_plus: tuple[Root, ...]  # positive roots inside the first r-1 slots
    lambda_p: tuple[Fraction, ...]  # the last fundamental weight
    frak_w_p: tuple[WeylElt, ...]  # {w : Delta_P subset w^{-1}(Delta u Phi^-)}


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


@lru_cache(maxsize=None)
def build_root_system(r: int) -> tuple[RootSystemData, ParabolicData]:
    """All root data for 2 <= r <= R_MAX, with the invariants verified eagerly.

    Only the surviving set frak_w_p (of size (r + 2) 2^{r-3} for r >= 3) is
    built, by :func:`_frak_w_p_perms`; S_r is never listed.  The eager checks:
    the pairings of the fundamental weights and rho with the (simple) roots,
    |Phi_w| = inv(w) for every w in frak_w_p, lambda_P orthogonal to Delta_P,
    and the embedded S_{r-1} stabilizing Phi_P^+, checked on its generators
    s_1 .. s_{r-2}: a group stabilizes a set exactly when its generators do.
    """
    if not 2 <= r <= R_MAX:
        raise ValueError(f"rank parameter must satisfy 2 <= r <= {R_MAX}")
    positive = tuple((i, j) for i in range(1, r) for j in range(i + 1, r + 1))
    simple = tuple((i, i + 1) for i in range(1, r))
    rho = tuple(Fraction(r + 1 - 2 * i, 2) for i in range(1, r + 1))
    weights = tuple(
        tuple(Fraction(1) - Fraction(k, r) if i <= k else -Fraction(k, r) for i in range(1, r + 1))
        for k in range(1, r)
    )
    rs = RootSystemData(r, positive, simple, rho, weights)

    if len(positive) != r * (r - 1) // 2:
        raise AssertionError("positive root count is off")
    for i, lam in enumerate(weights, start=1):
        for j, a in enumerate(simple, start=1):
            expect = Fraction(1 if i == j else 0)
            if rs.pairing(lam, a) != expect:
                raise AssertionError(f"<lambda_{i}, alpha_{j}^> != {expect}")
    for a in positive:
        if rs.pairing(rho, a) != root_height(a):
            raise AssertionError("rho pairing does not equal the coroot height")

    delta_p = simple[: r - 2]
    phi_p_plus = tuple(a for a in positive if a[1] <= r - 1)
    lambda_p = weights[r - 2]
    # w alpha_i = (w(i), w(i+1)) is negative or simple iff w(i+1) <= w(i) + 1
    frak = tuple(WeylElt(p) for p in _frak_w_p_perms(r))
    pb = ParabolicData(delta_p, phi_p_plus, lambda_p, frak)

    for w in frak:
        if len(rs.flipped_positive_roots(w)) != w.inversions():
            raise AssertionError("|Phi_w| does not match the inversion count")
    for a in delta_p:
        if rs.pairing(lambda_p, a) != 0:
            raise AssertionError("lambda_P pairs nontrivially with Delta_P")
    phi_p_set = set(phi_p_plus)
    for i in range(1, r - 1):  # s_i swaps i and i + 1 and fixes r
        p = list(range(1, r + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        image = {tuple(sorted((p[x - 1], p[y - 1]))) for x, y in phi_p_plus}
        if image != phi_p_set:
            raise AssertionError("embedded S_{r-1} does not stabilize Phi_P")
    return rs, pb


@dataclass(frozen=True)
class SlrZeta:
    """The assembled SL_r zeta: per-shift terms R_n and their combined sum."""

    r: int
    q: int
    g: int
    terms: tuple[tuple[int, RationalFunction], ...]  # (n, R_n), n = 1..r
    combined: RationalFunction  # in u = q^{-s}
    numerator_T: tuple[Fraction, ...]  # A(0..2g) of zh_SLr(-rs) on the T-grid


@dataclass
class _LinearTerm:
    """num(u) * u^k / prod_e (1 - q^e u)^m_e, the denominator kept factored by e."""

    num: Poly
    k: int = 0
    den: dict[int, int] = field(default_factory=dict)

    def divide(self, e: int) -> None:
        """Divide by (1 - q^e u)."""
        self.den[e] = self.den.get(e, 0) + 1

    def times_zeta_hat(self, c: CurveData, n: int) -> _LinearTerm:
        """This term times zh(s + n), in the form of the module docstring."""
        q, g = Fraction(c.q), c.g
        num = self.num * c.numerator.scale_arg(q**-n) * q ** ((g - 1) * n)
        out = _LinearTerm(num, self.k + 1 - g, dict(self.den))
        out.divide(-n)
        out.divide(1 - n)
        return out

    def ratfun(self, q: Fraction) -> RationalFunction:
        den = Poly.one()
        for e, m in self.den.items():
            den = den * Poly([1, -(q**e)]) ** m
        if self.k >= 0:
            return RationalFunction(self.num * Poly.x(self.k), den)
        return RationalFunction(self.num, den * Poly.x(-self.k))


def _linear_sum(terms: list[_LinearTerm], q: Fraction) -> _LinearTerm:
    """The sum over the LCM of the factored denominators, as one term.

    The LCM takes each linear factor at its largest multiplicity and the
    lowest power of u; every term's numerator is scaled up to it, so the
    only polynomial products are by known powers of (1 - q^e u).
    """
    lcm: dict[int, int] = {}
    for t in terms:
        for e, m in t.den.items():
            lcm[e] = max(lcm.get(e, 0), m)
    k = min(t.k for t in terms)
    powers: dict[tuple[int, int], Poly] = {}
    num = Poly()
    for t in terms:
        part = t.num * Poly.x(t.k - k)
        for e, m in lcm.items():
            d = m - t.den.get(e, 0)
            if d:
                if (e, d) not in powers:
                    powers[e, d] = Poly([1, -(q**e)]) ** d
                part = part * powers[e, d]
        num = num + part
    return _LinearTerm(num, k, lcm)


def _term_data(rs: RootSystemData, pb: ParabolicData, w: WeylElt, r: int):
    """Shift index n_w, constant zeta exponents, and rational factor recipe.

    Returns (n_w, zeta_exponents, constant_q_factors, s_factors) where the
    s_factors are (e, k) pairs for 1/(1 - q^e * u^k).
    The run-of-heights property behind the telescoping is asserted, not
    assumed.
    """
    flipped = rs.flipped_positive_roots(w)
    spanning_flipped = [a for a in flipped if a[1] == r]
    starts = sorted(a[0] for a in spanning_flipped)
    if starts != list(range(1, len(starts) + 1)):
        raise ConventionError(f"flipped roots through the last slot are not a prefix: {starts}")
    n_w = r - len(starts)

    zeta_exp: dict[int, int] = {}

    def bump(n: int, delta: int) -> None:
        zeta_exp[n] = zeta_exp.get(n, 0) + delta

    for n in range(2, r):
        bump(n, 1)
    e_minus = sum(1 for a in pb.delta_p if a in flipped)
    if e_minus:
        bump(1, e_minus)
        bump(2, -e_minus)
    for a in pb.phi_p_plus:
        if a not in pb.delta_p and a in flipped:
            h = root_height(a)
            bump(h, 1)
            bump(h + 1, -1)

    const_factors: list[int] = []  # exponents e with factor 1/(1 - q^e)
    s_factors: list[tuple[int, int]] = []  # (exponent of q, u power)
    v = w.inverse()
    for alpha in rs.simple_roots:
        beta = v.apply(alpha)
        h = root_height(beta)
        if is_positive(beta) and h == 1 and beta[0] <= r - 2:
            continue  # the residue at stage beta[0] consumed this factor
        if max(beta) == r:
            s_factors.append((1 - h, 1 if is_positive(beta) else -1))
        else:
            if 1 - h == 0:
                raise ConventionError("vanishing exponent in a constant factor")
            const_factors.append(1 - h)
    return n_w, zeta_exp, const_factors, s_factors


@lru_cache(maxsize=256)
def slr_zeta(c: CurveData, r: int) -> SlrZeta:
    """Assemble zh_SLr(s) = sum_n R_n(s) zh(s + n) exactly in u = q^{-s}.

    Each surviving Weyl term is collapsed through the residues by pure
    combinatorics (see module docstring); a negative leftover zeta exponent
    or a broken telescoping run raises :class:`ConventionError` instead of
    silently producing a wrong normalization.
    """
    if c.g < 1:
        raise ValueError("group zeta needs genus >= 1")
    rs, pb = build_root_system(r)
    q = Fraction(c.q)
    zh: dict[int, Fraction] = {}  # zh(n), each evaluated on first use
    R: dict[int, list[_LinearTerm]] = {}
    for w in pb.frak_w_p:
        n_w, zeta_exp, const_factors, s_factors = _term_data(rs, pb, w, r)
        if any(e < 0 for e in zeta_exp.values()):
            raise ConventionError(f"zeta denominators survive clearing for w = {w.perm}")
        value = Fraction(1)
        for n, e in zeta_exp.items():
            if e:
                if n not in zh:
                    zh[n] = zeta_hat_special(c, n)
                value *= zh[n] ** e
        for e in const_factors:
            value /= 1 - q**e
        term = _LinearTerm(Poly([value]))
        for e, upow in s_factors:
            if upow == 1:
                term.divide(e)
            else:  # 1/(1 - q^e/u) = -q^{-e} u / (1 - q^{-e} u)
                term.num = term.num * -(q**-e)
                term.k += 1
                term.divide(-e)
        R.setdefault(n_w, []).append(term)

    sums = {n: _linear_sum(R[n], q) for n in sorted(R)}
    terms = [(n, t.ratfun(q)) for n, t in sums.items()]
    combined = _linear_sum([t.times_zeta_hat(c, n) for n, t in sums.items()], q).ratfun(q)
    numerator = _extract_numerator(combined, c, r)
    return SlrZeta(r, c.q, c.g, tuple(terms), combined, numerator)


def _extract_numerator(combined: RationalFunction, c: CurveData, r: int) -> tuple[Fraction, ...]:
    """Coefficients A(0..2g) of zh_SLr(-rs) = sum A(i) T^i / ((1-T)(1-QT) T^{g-1}).

    Composing with u = 1/T must leave exactly the displayed pole structure;
    any stray factor means a convention bug, reported as such.
    """
    q, g = Fraction(c.q), c.g
    Q = q**r
    G = combined.reciprocal_arg(1)  # the function of T
    E = G * RationalFunction.t(g - 1) * RationalFunction(Poly([1, -1]) * Poly([1, -Q]))
    if not E.is_polynomial():
        raise ConventionError("combined form does not reduce to the expected T-grid shape")
    poly = E.as_poly()
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

    Roots are found on the T-grid and reported as t-plane moduli |T|^{1/r};
    roots sitting at the cleared poles T in {1, 1/Q} are excluded, matching
    the pole analysis of the construction.
    """
    coeffs = z.numerator_T
    poly = Poly(coeffs)
    if poly.degree < 1:
        return ZeroReport((), float(z.q) ** -0.5, (), True, tol)
    rset = complex_roots(poly)
    Q = float(z.q) ** z.r
    critical = float(z.q) ** -0.5
    zeros: list[complex] = []
    excluded: list[complex] = []
    deviations: list[float] = []
    for T in rset.roots:
        if abs(T - 1) <= tol or abs(T - 1 / Q) <= tol:
            excluded.append(T)
            continue
        zeros.append(T)
        deviations.append(abs(abs(T) ** (1.0 / z.r) - critical))
    verdict = all(d <= tol for d in deviations)
    return ZeroReport(tuple(zeros), critical, tuple(deviations), verdict, tol, tuple(excluded))


# ---------------------------------------------------------------------------
# Independent oracle: the period itself, with literal (1 - u_j) limits.
# ---------------------------------------------------------------------------

Poly2 = dict[tuple[int, int], Fraction]
Key2 = tuple[tuple[tuple[int, int], Fraction], ...]  # a normalized Poly2, frozen


def _p2_add(a: Poly2, b: Poly2) -> Poly2:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _p2_mul(a: Poly2, b: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            k = (i1 + i2, j1 + j2)
            nv = out.get(k, Fraction(0)) + v1 * v2
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def _p2_divide_one_minus_u1(a: Poly2) -> Poly2 | None:
    """Exact quotient a / (1 - u1), or None if the division is inexact."""
    if not a:
        return {}
    max1 = max(i for i, _ in a)
    cols: dict[int, dict[int, Fraction]] = {}
    for (i, j), v in a.items():
        cols.setdefault(j, {})[i] = v
    out: Poly2 = {}
    for j, col in cols.items():
        # synthetic division by (1 - u1): q_i = sum_{k<=i} a_k
        acc = Fraction(0)
        qcol = {}
        for i in range(max1 + 1):
            acc += col.get(i, Fraction(0))
            qcol[i] = acc
        if acc != 0:  # remainder = column value at u1 = 1
            return None
        for i in range(max1):  # quotient has degree max1 - 1
            if qcol[i]:
                out[(i, j)] = qcol[i]
    return out


def _p2_eval_u1(a: Poly2) -> Poly:
    """Collapse u1 = 1 into a univariate polynomial in u2."""
    if not a:
        return Poly()
    maxj = max(j for _, j in a)
    out = [Fraction(0)] * (maxj + 1)
    for (_, j), v in a.items():
        out[j] += v
    return Poly(out)


def _one_minus(c: Fraction, e1: int, e2: int) -> Poly2:
    """1 - c * u1^e1 * u2^e2, exponents possibly negative."""
    return _p2_add({(0, 0): Fraction(1)}, {(e1, e2): -c})


@dataclass
class _FactoredTerm:
    """const * u1^a1 * u2^a2 * prod key^m, with m > 0 upstairs and m < 0 downstairs.

    Factors are stored normalized: monomial content divided out and the
    coefficient of the lowest monomial scaled to 1, both moved into
    ``const`` and ``mono``.  Equal factors from different sources thus share
    one key and cancel as they are multiplied in.
    """

    const: Fraction = Fraction(1)
    mono: tuple[int, int] = (0, 0)
    factors: dict[Key2, int] = field(default_factory=dict)

    def mul(self, p: Poly2, power: int) -> None:
        """Multiply by p**power, for a nonzero p with possibly negative exponents."""
        m1 = min(i for i, _ in p)
        m2 = min(j for _, j in p)
        lead = p[min(p)]
        key = tuple(sorted(((i - m1, j - m2), v / lead) for (i, j), v in p.items()))
        self.const *= lead**power
        self.mono = (self.mono[0] + power * m1, self.mono[1] + power * m2)
        if len(key) == 1:  # a monomial is all content
            return
        n = self.factors.get(key, 0) + power
        if n:
            self.factors[key] = n
        else:
            del self.factors[key]

    def mul_zeta_hat(self, c: CurveData, shift: int, e1: int, e2: int, power: int) -> None:
        """Multiply by zh(shift + e1*s1 + e2*s2)**power.

        zh = q^{(g-1) shift} U^{-(g-1)} P(q^{-shift} U) / ((1 - q^{-shift} U)
        (1 - q^{1-shift} U)) with U = u1^e1 u2^e2.
        """
        q, g = Fraction(c.q), c.g
        scale = q**-shift
        self.mul({(-e1 * (g - 1), -e2 * (g - 1)): q ** ((g - 1) * shift)}, power)
        self.mul(
            {(e1 * k, e2 * k): a * scale**k for k, a in enumerate(c.numerator.coeffs) if a},
            power,
        )
        self.mul(_one_minus(scale, e1, e2), -power)
        self.mul(_one_minus(scale * q, e1, e2), -power)


def _weyl_terms_r3(c: CurveData) -> list[_FactoredTerm]:
    """The six Weyl terms of the SL_3 period in u_j = q^{-s_j}, factored."""
    rs, _ = build_root_system(3)
    q = Fraction(c.q)
    terms = []
    for w in map(WeylElt, itertools.permutations(range(1, 4))):
        v = w.inverse()
        term = _FactoredTerm()
        for alpha in rs.simple_roots:
            beta = v.apply(alpha)
            lo, hi = min(beta), max(beta)
            sign = 1 if is_positive(beta) else -1
            e1 = sign if lo <= 1 < hi else 0
            e2 = sign if lo <= 2 < hi else 0
            term.mul(_one_minus(q ** (1 - root_height(beta)), e1, e2), -1)
        for a in rs.flipped_positive_roots(w):
            h = root_height(a)
            e1 = 1 if a[0] <= 1 < a[1] else 0
            e2 = 1 if a[0] <= 2 < a[1] else 0
            term.mul_zeta_hat(c, h, e1, e2, 1)
            term.mul_zeta_hat(c, h + 1, e1, e2, -1)
        terms.append(term)
    return terms


def _factored_sum(terms: list[_FactoredTerm]) -> tuple[Poly2, Poly2]:
    """The sum of the terms as one numerator over one denominator.

    The denominator L is the LCM of the factored term denominators: each key
    at its largest multiplicity downstairs, times the monomial that clears
    negative exponents.  Each term contributes its value times L: every key
    at L's multiplicity plus the term's own, which is never negative.  Keys that
    differ but share a polynomial factor are not merged, so L is a common
    multiple, not always the least one; the quotient is the same.
    """
    lcm: dict[Key2, int] = {}
    for t in terms:
        for key, m in t.factors.items():
            if m < 0:
                lcm[key] = max(lcm.get(key, 0), -m)
    s1 = min(0, *(t.mono[0] for t in terms))
    s2 = min(0, *(t.mono[1] for t in terms))
    powers: dict[tuple[Key2, int], Poly2] = {}

    def times(a: Poly2, key: Key2, m: int) -> Poly2:
        if (key, m) not in powers:
            p: Poly2 = {(0, 0): Fraction(1)}
            for _ in range(m):
                p = _p2_mul(p, dict(key))
            powers[key, m] = p
        return _p2_mul(a, powers[key, m])

    num: Poly2 = {}
    for t in terms:
        part = {(t.mono[0] - s1, t.mono[1] - s2): t.const}
        for key in lcm.keys() | t.factors.keys():
            m = lcm.get(key, 0) + t.factors.get(key, 0)
            if m:
                part = times(part, key, m)
        num = _p2_add(num, part)
    den: Poly2 = {(-s1, -s2): Fraction(1)}
    for key, m in lcm.items():
        den = times(den, key, m)
    return num, den


def period_sum_r2(c: CurveData) -> RationalFunction:
    """The raw rank-two period in u, before the zeta-clearing multiplier."""
    q = Fraction(c.q)
    t_id = RationalFunction([1], [1, -1])  # 1/(1 - u)
    quot = zeta_hat_ratfun(c, shift=1) / zeta_hat_ratfun(c, shift=2)
    t_flip = RationalFunction([0, 1], [-(q**2), 1]) * quot  # 1/(1 - q^2/u)
    return t_id + t_flip


@lru_cache(maxsize=64)
def period_residue_oracle(c: CurveData, r: int) -> tuple[RationalFunction, Fraction]:
    """The period route to zh_SLr, plus its constant ratio to the sum route.

    r = 2 needs no residue.  For r = 3 the six Weyl terms are bivariate
    rational functions in u_j = q^{-s_j}, each a constant, a monomial and
    known factors: binomials (1 - c u1^e1 u2^e2) and scaled copies
    P(q^{-h} U) of the Weil numerator.  They are summed over the LCM of
    their factored denominators (:func:`_factored_sum`), multiplied out once
    into one numerator and one denominator polynomial.  The limit
    lim_{u1 -> 1} (1 - u1) * omega is then taken literally on those two
    polynomials: (1 - u1) is stripped from each by exact synthetic division
    as often as it divides, never read off the factor keys, and u1 = 1 is
    substituted.  A pole of order >= 2 raises; order <= 0 would make the
    limit vanish, which is also reported.  The returned constant is
    oracle / assembled and is asserted constant.
    """
    if r == 2:
        oracle = period_sum_r2(c) * zeta_hat_ratfun(c, shift=2)
    elif r == 3:
        num, den = _factored_sum(_weyl_terms_r3(c))
        k_den = 0
        while (nxt := _p2_divide_one_minus_u1(den)) is not None:
            den = nxt
            k_den += 1
        k_num = 0
        while k_num < k_den and (nxt := _p2_divide_one_minus_u1(num)) is not None:
            num = nxt
            k_num += 1
        order = k_den - k_num
        if order > 1:
            raise ValueError(f"pole of order {order} at u1 = 1; limit unsupported")
        if order < 1:
            raise ValueError("no pole at u1 = 1; the residue vanishes")
        residue = RationalFunction(_p2_eval_u1(num), _p2_eval_u1(den))
        oracle = (
            residue
            * RationalFunction.constant(zeta_hat_special(c, 2))
            * zeta_hat_ratfun(c, shift=3)
        )
    else:
        raise ValueError("the period oracle covers r in {2, 3} only")

    assembled = slr_zeta(c, r).combined
    ratio = oracle / assembled
    if not ratio.is_constant():
        raise AssertionError("oracle and assembled zeta differ by a non-constant")
    return oracle, ratio.constant_value()
