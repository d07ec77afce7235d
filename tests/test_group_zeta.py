"""The SL_r assembly against a root-system reference, the period oracle, RH reports."""

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ratfun_reference import RatFun

from curvezeta.artin import CurveData, artin_fe_ratfun_check, zeta_hat_ratfun, zeta_hat_special
from curvezeta import exact, group_zeta
from curvezeta.cli import parse_job
from curvezeta.exact import Poly, RationalFunction, _factored_sum, _FactoredTerm, complex_roots
from curvezeta.group_zeta import (
    R_MAX,
    ConventionError,
    _divide_one_minus_u1,
    _extract_numerator,
    _weyl_terms_r2,
    _weyl_terms_r3,
    period_residue_oracle,
    slr_fe_check,
    slr_numerator,
    slr_rh_report,
    slr_zeta,
)
from curvezeta.mass import beta_hn_mass
from curvezeta.rank2 import (
    alpha2_zero,
    closed_form_check,
    numerator_check,
    pure_fe_check,
    pure_zeta,
    rank2_closed_form,
    rank2_invariants,
    rank2_numerator,
)

F = Fraction

# the synthetic genus-3 datum of the criterion-10 CLI job
GENUS3_DATUM = CurveData(2, 3, [1, 1, 2, 6, 4, 4, 8], label="genus-3 datum")

# (q, g, seed) of the elliptic_product curves the r = 3 oracle is run on
ELLIPTIC_PRODUCTS = [(2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 4), (2, 5, 5), (3, 6, 6)]


def elliptic_product(q: int, g: int, seed: int) -> CurveData:
    """A genuine Weil numerator prod_i (1 - a_i t + q t^2), traces drawn from the seed."""
    rng = random.Random(seed)
    bound = math.isqrt(4 * q)
    while True:
        P = Poly.one()
        for _ in range(g):
            P = P * Poly([1, -rng.randint(-bound, bound), q])
        try:
            return CurveData(q, g, P.coeffs, genuine=True, label=f"product(q={q},g={g},seed={seed})")
        except ValueError:  # a draw whose counts go negative is not a curve
            continue


# ---------------------------------------------------------------------------
# Reference root system of type A_{r-1} inside R^r, as objects: roots,
# the Weyl vector, the fundamental weights, Weyl elements acting on roots,
# and the maximal parabolic of shape (r-1, 1).  The library reads the same
# data straight off permutation tuples; TestRootSystem checks the objects.
# ---------------------------------------------------------------------------

Root = tuple[int, int]  # (x, y) encodes e_x - e_y; positive iff x < y


@dataclass(frozen=True)
class WeylElt:
    """A permutation of {1..r}, acting on roots through the coordinate index."""

    perm: tuple[int, ...]  # perm[i-1] = image of i

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def apply(self, root: Root) -> Root:
        return (self(root[0]), self(root[1]))

    def inverse(self) -> "WeylElt":
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
    """All root data for 2 <= r <= R_MAX; the invariants are TestRootSystem's.

    Only the surviving set frak_w_p is built, by :func:`_frak_w_p_perms`,
    which TestRootSystem checks against the defining filter over all of S_r
    up to r = 8.
    """
    if not 2 <= r <= R_MAX:
        raise ValueError(f"rank parameter must satisfy 2 <= r <= {R_MAX}")
    positive = tuple((i, j) for i in range(1, r) for j in range(i + 1, r + 1))
    simple = tuple((i, i + 1) for i in range(1, r))
    rho = tuple(F(r + 1 - 2 * i, 2) for i in range(1, r + 1))
    weights = tuple(
        tuple(1 - F(k, r) if i <= k else -F(k, r) for i in range(1, r + 1)) for k in range(1, r)
    )
    rs = RootSystemData(r, positive, simple, rho, weights)
    phi_p_plus = tuple(a for a in positive if a[1] <= r - 1)
    frak = tuple(WeylElt(p) for p in _frak_w_p_perms(r))
    return rs, ParabolicData(simple[: r - 2], phi_p_plus, weights[r - 2], frak)


def weyl_group(r: int) -> list[WeylElt]:
    """All of S_r in lexicographic order, listed here and not by the library."""
    return [WeylElt(p) for p in itertools.permutations(range(1, r + 1))]


def reference_term_data(rs, pb, w: WeylElt, r: int):
    """Reference reading of one Weyl term through the root objects of build_root_system.

    Returns (n_w, zeta_exponents, constant_q_factors, s_factors), the
    s_factors being (e, k) pairs for 1/(1 - q^e * u^k).  The library reads the
    same data off the permutation tuple alone.
    """
    flipped = rs.flipped_positive_roots(w)
    starts = sorted(a[0] for a in flipped if a[1] == r)
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


def reference_recipe(r: int) -> dict:
    """The shape -> {entry: multiplicity} recipe, built from :func:`reference_term_data`."""
    rs, pb = build_root_system(r)
    recipe: dict = {}
    for w in pb.frak_w_p:
        n_w, zeta_exp, const_factors, s_factors = reference_term_data(rs, pb, w, r)
        assert all(e >= 0 for e in zeta_exp.values())
        den: dict[int, int] = {}
        flipped = []
        for e, upow in s_factors:  # 1/(1 - q^e u^upow)
            if upow != 1:
                flipped.append(e)
                e = -e
            den[e] = den.get(e, 0) + 1
        shape = (n_w, tuple(sorted(den.items())))
        zetas = tuple(sorted((n, e) for n, e in zeta_exp.items() if e))
        entry = (len(flipped), zetas, tuple(sorted(const_factors)), tuple(sorted(flipped)))
        entries = recipe.setdefault(shape, {})
        entries[entry] = entries.get(entry, 0) + 1
    return recipe


@lru_cache(maxsize=None)
def reference_terms(r: int) -> tuple:
    """The distinct :func:`reference_term_data` over frak_W_P, with their
    multiplicities, as (n_w, zeta exponents, constant factors, s_factors, mult)."""
    rs, pb = build_root_system(r)
    counts: dict = {}
    for w in pb.frak_w_p:
        n_w, zeta_exp, const_factors, s_factors = reference_term_data(rs, pb, w, r)
        term = (n_w, tuple(sorted(zeta_exp.items())), tuple(sorted(const_factors)), tuple(sorted(s_factors)))
        counts[term] = counts.get(term, 0) + 1
    return tuple((*term, m) for term, m in counts.items())


def pairwise_slr(c: CurveData, r: int):
    """Reference: each R_n and the combined sum by pairwise reference additions.

    The Weyl terms that share n_w and their factors through the last slot
    are added as constants first, so that each R_n is a sum of a few
    rational functions, not of (r + 2) 2^{r-3}.
    """
    q = F(c.q)
    zh = {n: zeta_hat_special(c, n) for n in range(1, r)}

    @lru_cache(maxsize=None)
    def zeta_product(zeta_exp):
        return math.prod(zh[n] ** e for n, e in zeta_exp)

    @lru_cache(maxsize=None)
    def const_product(const_factors):
        return math.prod(1 / (1 - q**e) for e in const_factors)

    shapes: dict = {}
    for n_w, zeta_exp, const_factors, s_factors, mult in reference_terms(r):
        value = mult * zeta_product(zeta_exp) * const_product(const_factors)
        shapes[n_w, s_factors] = shapes.get((n_w, s_factors), 0) + value
    R = {}
    for (n_w, s_factors), value in shapes.items():
        term = RatFun.constant(value)
        for e, upow in s_factors:  # 1/(1 - q^e u^upow)
            if upow == 1:
                term = term * RatFun([1], [1, -(q**e)])
            else:
                term = term * RatFun([0, 1], [-(q**e), 1])
        R[n_w] = R.get(n_w, RatFun.zero()) + term
    combined = RatFun.zero()
    for n in sorted(R):
        combined = combined + R[n] * zeta_hat_ratfun(c, shift=n)
    return tuple(sorted(R.items())), combined


def reference_numerator(combined: RatFun, c: CurveData, r: int) -> tuple[F, ...]:
    """A(0..2g) by composing with u = 1/T and clearing the display's poles
    through the reference arithmetic, not by the library's exact division."""
    Q = F(c.q) ** r
    E = combined.reciprocal_arg(1) * RatFun.t(c.g - 1) * RatFun(Poly([1, -1]) * Poly([1, -Q]))
    poly = E.as_poly()
    assert poly.degree <= 2 * c.g
    return tuple(poly[i] for i in range(2 * c.g + 1))


# ---------------------------------------------------------------------------
# Reference for the r = 3 period oracle: bivariate polynomials as
# dict[(i, j)] -> Fraction and Fraction-keyed factored terms, summed without
# packing.  The library multiplies out on packed integer Poly instead.
# ---------------------------------------------------------------------------

Poly2 = dict[tuple[int, int], Fraction]
Key2 = tuple[tuple[tuple[int, int], Fraction], ...]  # a normalized Poly2, frozen


def p2_add(a: Poly2, b: Poly2) -> Poly2:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, F(0)) + v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def p2_mul(a: Poly2, b: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            k = (i1 + i2, j1 + j2)
            nv = out.get(k, F(0)) + v1 * v2
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def p2_divide_one_minus_u1(a: Poly2) -> Poly2 | None:
    """Exact quotient a / (1 - u1) by synthetic division, or None if inexact."""
    if not a:
        return {}
    max1 = max(i for i, _ in a)
    cols: dict[int, dict[int, Fraction]] = {}
    for (i, j), v in a.items():
        cols.setdefault(j, {})[i] = v
    out: Poly2 = {}
    for j, col in cols.items():
        acc = F(0)
        qcol = {}
        for i in range(max1 + 1):
            acc += col.get(i, F(0))
            qcol[i] = acc
        if acc != 0:  # remainder = column value at u1 = 1
            return None
        for i in range(max1):
            if qcol[i]:
                out[(i, j)] = qcol[i]
    return out


def p2_one_minus(c: Fraction, e1: int, e2: int) -> Poly2:
    """1 - c * u1^e1 * u2^e2, exponents possibly negative."""
    return p2_add({(0, 0): F(1)}, {(e1, e2): -c})


@dataclass
class RefFactoredTerm:
    """const * u1^a1 * u2^a2 * prod key^m, each key scaled to lowest coefficient 1."""

    const: Fraction = F(1)
    mono: tuple[int, int] = (0, 0)
    factors: dict[Key2, int] = field(default_factory=dict)

    def mul(self, p: Poly2, power: int) -> None:
        m1 = min(i for i, _ in p)
        m2 = min(j for _, j in p)
        lead = p[min(p)]
        key = tuple(sorted(((i - m1, j - m2), v / lead) for (i, j), v in p.items()))
        self.const *= lead**power
        self.mono = (self.mono[0] + power * m1, self.mono[1] + power * m2)
        if len(key) == 1:
            return
        n = self.factors.get(key, 0) + power
        if n:
            self.factors[key] = n
        else:
            del self.factors[key]

    def mul_zeta_hat(self, c: CurveData, shift: int, e1: int, e2: int, power: int) -> None:
        q, g = F(c.q), c.g
        scale = q**-shift
        self.mul({(-e1 * (g - 1), -e2 * (g - 1)): q ** ((g - 1) * shift)}, power)
        self.mul(
            {(e1 * k, e2 * k): a * scale**k for k, a in enumerate(c.numerator.coeffs) if a},
            power,
        )
        self.mul(p2_one_minus(scale, e1, e2), -power)
        self.mul(p2_one_minus(scale * q, e1, e2), -power)


def ref_weyl_terms_r3(c: CurveData) -> list[RefFactoredTerm]:
    rs, _ = build_root_system(3)
    q = F(c.q)
    terms = []
    for w in weyl_group(3):
        v = w.inverse()
        term = RefFactoredTerm()
        for alpha in rs.simple_roots:
            beta = v.apply(alpha)
            lo, hi = min(beta), max(beta)
            sign = 1 if is_positive(beta) else -1
            e1 = sign if lo <= 1 < hi else 0
            e2 = sign if lo <= 2 < hi else 0
            term.mul(p2_one_minus(q ** (1 - root_height(beta)), e1, e2), -1)
        for a in rs.flipped_positive_roots(w):
            h = root_height(a)
            e1 = 1 if a[0] <= 1 < a[1] else 0
            e2 = 1 if a[0] <= 2 < a[1] else 0
            term.mul_zeta_hat(c, h, e1, e2, 1)
            term.mul_zeta_hat(c, h + 1, e1, e2, -1)
        terms.append(term)
    return terms


def ref_factored_sum(terms: list[RefFactoredTerm]) -> tuple[Poly2, Poly2]:
    lcm: dict[Key2, int] = {}
    for t in terms:
        for key, m in t.factors.items():
            if m < 0:
                lcm[key] = max(lcm.get(key, 0), -m)
    s1 = min(0, *(t.mono[0] for t in terms))
    s2 = min(0, *(t.mono[1] for t in terms))

    def times(a: Poly2, key: Key2, m: int) -> Poly2:
        for _ in range(m):
            a = p2_mul(a, dict(key))
        return a

    num: Poly2 = {}
    for t in terms:
        part = {(t.mono[0] - s1, t.mono[1] - s2): t.const}
        for key in lcm.keys() | t.factors.keys():
            part = times(part, key, lcm.get(key, 0) + t.factors.get(key, 0))
        num = p2_add(num, part)
    den: Poly2 = {(-s1, -s2): F(1)}
    for key, m in lcm.items():
        den = times(den, key, m)
    return num, den


def pack(p: Poly2, stride: int) -> Poly:
    """u1^i u2^j as x^(i + stride j), for 0 <= i < stride and j >= 0."""
    coeffs = [F(0)] * (1 + max((i + stride * j for i, j in p), default=0))
    for (i, j), v in p.items():
        assert 0 <= i < stride and j >= 0
        coeffs[i + stride * j] = v
    return Poly(coeffs)


def unpack(p: Poly, stride: int) -> Poly2:
    """The bivariate polynomial a packed Poly stands for."""
    return {(e % stride, e // stride): v for e, v in enumerate(p.coeffs) if v}


def p2_value(p: Poly2, u1: Fraction, u2: Fraction) -> Fraction:
    return sum((v * u1**i * u2**j for (i, j), v in p.items()), F(0))


def u1_pole_order(num, den, divide) -> int:
    """The order of the pole of num/den at u1 = 1, stripping (1 - u1) by ``divide``."""
    k_den = 0
    while (nxt := divide(den)) is not None:
        den, k_den = nxt, k_den + 1
    k_num = 0
    while k_num < k_den and (nxt := divide(num)) is not None:
        num, k_num = nxt, k_num + 1
    return k_den - k_num


def reference_oracle(c: CurveData, r: int) -> RatFun:
    """The period route by the reference arithmetic: at r = 2 the two Weyl
    terms as rational functions, at r = 3 the dict/Fraction sum with (1 - u1)
    stripped and u1 = 1 substituted on it, times zh(2) zh(s + 3)."""
    q = F(c.q)
    if r == 2:
        flip = zeta_hat_ratfun(c, shift=1) * RatFun([0, 1], [-(q**2), 1])
        return flip + zeta_hat_ratfun(c, shift=2) * RatFun([1], [1, -1])
    num, den = ref_factored_sum(ref_weyl_terms_r3(c))
    order = 0
    while (nxt := p2_divide_one_minus_u1(den)) is not None:
        den, order = nxt, order + 1
    for _ in range(order - 1):
        num = p2_divide_one_minus_u1(num)

    def at_u1_one(p: Poly2) -> Poly:
        cols = [F(0)] * (1 + max(j for _, j in p))
        for (_, j), v in p.items():
            cols[j] += v
        return Poly(cols)

    return RatFun(at_u1_one(num), at_u1_one(den)) * zeta_hat_special(c, 2) * zeta_hat_ratfun(c, shift=3)


def criterion10_curves() -> list[CurveData]:
    return list(parse_job(Path(__file__).parent / "data" / "criterion10_job.yaml").curves)



class TestRootSystem:
    def test_rank2_shape(self):
        rs, pb = build_root_system(2)
        assert rs.positive_roots == ((1, 2),)
        assert pb.delta_p == ()
        assert len(pb.frak_w_p) == 2  # the whole Weyl group

    def test_rank3_facts(self):
        rs, pb = build_root_system(3)
        assert len(rs.positive_roots) == 3
        assert sorted(b - a for a, b in rs.positive_roots) == [1, 1, 2]
        assert len(pb.frak_w_p) == 5

    def test_rank4_facts(self):
        rs, pb = build_root_system(4)
        assert len(pb.frak_w_p) == 12
        assert len(rs.positive_roots) == 6

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_flips_equal_inversions(self, r):
        rs, _ = build_root_system(r)
        for w in weyl_group(r):
            assert len(rs.flipped_positive_roots(w)) == w.inversions()

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_tables_match_root_action_definitions(self, r):
        # the tables read off w.perm against their definitions through w.apply
        rs, pb = build_root_system(r)
        weyl = weyl_group(r)
        for w in weyl:
            flipped = [a for a in rs.positive_roots if not is_positive(w.apply(a))]
            assert rs.flipped_positive_roots(w) == flipped
            assert w.inversions() == sum(1 for i in range(1, r + 1) for j in range(i + 1, r + 1) if w(i) > w(j))

        def negative_or_simple(b):
            return not is_positive(b) or root_height(b) == 1

        expect = tuple(w for w in weyl if all(negative_or_simple(w.apply(a)) for a in pb.delta_p))
        assert pb.frak_w_p == expect
        assert len(expect) == {2: 2, 3: 5, 4: 12, 5: 28, 6: 64}[r]  # (r + 2) 2^(r - 3)

    @pytest.mark.parametrize("r", range(2, R_MAX + 1))
    def test_weight_and_rho_pairings(self, r):
        # <lambda_i, alpha_j^> = delta_ij, and <rho, a^> is the height of a
        rs, _ = build_root_system(r)
        assert len(rs.positive_roots) == r * (r - 1) // 2
        for i, lam in enumerate(rs.fundamental_weights, start=1):
            for j, a in enumerate(rs.simple_roots, start=1):
                assert rs.pairing(lam, a) == (1 if i == j else 0), (i, j)
        for a in rs.positive_roots:
            assert rs.pairing(rs.rho, a) == a[1] - a[0]

    @pytest.mark.parametrize("r", range(2, R_MAX + 1))
    def test_frak_flips_equal_inversions(self, r):
        # |Phi_w| = inv(w) on the surviving set, at every rank
        rs, pb = build_root_system(r)
        for w in pb.frak_w_p:
            assert len(rs.flipped_positive_roots(w)) == w.inversions(), w

    @pytest.mark.parametrize("r", range(2, R_MAX + 1))
    def test_lambda_p_orthogonal_to_delta_p(self, r):
        rs, pb = build_root_system(r)
        for a in pb.delta_p:
            assert rs.pairing(pb.lambda_p, a) == 0, a

    @pytest.mark.parametrize("r", range(2, R_MAX + 1))
    def test_levi_generators_stabilize_phi_p_plus(self, r):
        # the embedded S_{r-1} stabilizes Phi_P^+ exactly when its generators
        # s_1 .. s_{r-2} do; s_i swaps i and i + 1 and fixes r
        _, pb = build_root_system(r)
        for i in range(1, r - 1):
            p = list(range(1, r + 1))
            p[i - 1], p[i] = p[i], p[i - 1]
            s_i = WeylElt(tuple(p))
            assert {tuple(sorted(s_i.apply(a))) for a in pb.phi_p_plus} == set(pb.phi_p_plus), i

    @pytest.mark.parametrize("r", range(2, 9))
    def test_frak_w_p_is_the_filtered_weyl_group(self, r):
        # the generator against the defining filter over all of S_r, order included
        _, pb = build_root_system(r)
        expect = tuple(w for w in weyl_group(r) if all(w(i + 1) <= w(i) + 1 for i in range(1, r - 1)))
        assert pb.frak_w_p == expect

    @pytest.mark.parametrize("r", range(3, R_MAX + 1))
    def test_frak_w_p_size(self, r):
        _, pb = build_root_system(r)
        assert len(pb.frak_w_p) == (r + 2) * 2 ** (r - 3)
        assert len(set(pb.frak_w_p)) == len(pb.frak_w_p)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_root_system(R_MAX + 1)
        with pytest.raises(ValueError):
            build_root_system(1)


class TestSlrAssembly:
    def test_rank2_term_shapes(self, curve_g1):
        # R_1 = 1/(1 - q^{s+2}) and R_2 = 1/(1 - q^{-s}) in u = q^{-s}
        z = slr_zeta(curve_g1, 2)
        terms = dict(z.terms)
        q = F(2)
        assert terms[1] == RationalFunction([0, 1], [-q * q, 1])
        assert terms[2] == RationalFunction([1], [1, -1])

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_zeta_values_evaluated_once_per_assembly(self, monkeypatch, curve_g2, r):
        calls = []

        def counting(c, n):
            calls.append(n)
            return zeta_hat_special(c, n)

        monkeypatch.setattr(group_zeta, "zeta_hat_special", counting)
        slr_zeta.__wrapped__(curve_g2, r)  # past the cache, which may hold this curve
        assert len(calls) == len(set(calls)) and set(calls) <= set(range(1, r))
        assert bool(calls) == (r > 2)  # the rank-two terms carry no zh(n) factor

    def test_rank2_combined_display(self, corpus):
        # zh(s+1)/(1-q^{s+2}) + zh(s+2)/(1-q^{-s}), assembled independently
        for c in corpus:
            if c.g < 1:
                continue
            q = F(c.q)
            z = slr_zeta(c, 2)
            expect = zeta_hat_ratfun(c, shift=1) * RatFun(
                [0, 1], [-q * q, 1]
            ) + zeta_hat_ratfun(c, shift=2) * RatFun([1], [1, -1])
            assert z.combined == expect, c.describe()

    def test_rank2_reproduces_closed_form(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            z = slr_zeta(c, 2)
            Fm, shift = rank2_closed_form(c)
            lhs = z.combined.reciprocal_arg(1)  # the function of T
            rhs = Fm * RatFun.t(-shift)
            assert lhs == rhs, c.describe()

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_functional_equation_fixtures(self, r, curve_g1, curve_g2):
        assert slr_fe_check(slr_zeta(curve_g1, r))
        assert slr_fe_check(slr_zeta(curve_g2, r))

    @pytest.mark.parametrize("r", [7, 8])
    @pytest.mark.parametrize("c", [CurveData.elliptic(2, 0), CurveData.elliptic(3, 1)], ids=lambda c: c.label)
    def test_functional_equation_above_six(self, c, r):
        assert slr_fe_check(slr_zeta(c, r))

    def test_functional_equation_corpus(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            for r in (2, 3, 4):
                assert slr_fe_check(slr_zeta(c, r)), (c.describe(), r)

    def test_numerator_symmetry(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            for r in (2, 3):
                z = slr_zeta(c, r)
                Q = F(c.q) ** r
                for i in range(c.g + 1):
                    assert z.numerator_T[2 * c.g - i] == Q ** (c.g - i) * z.numerator_T[i]

    def test_rank3_numerator_g1(self, curve_g1):
        z = slr_zeta(curve_g1, 3)
        A = z.numerator_T
        assert len(A) == 3
        assert A[2] == 8 * A[0]

    @pytest.mark.parametrize(
        "curve, r",
        [(curve, r) for r in (2, 3, 4, 5, 6) for curve in ("g1", "g2", "genus3")]
        + [("g1", 7), ("g1", 8)],
    )
    def test_matches_pairwise_sum(self, r, curve, curve_g1, curve_g2):
        c = {"g1": curve_g1, "g2": curve_g2, "genus3": GENUS3_DATUM}[curve]
        terms, combined = pairwise_slr(c, r)
        z = slr_zeta(c, r)
        assert z.terms == terms
        assert z.combined == combined
        assert z.numerator_T == reference_numerator(combined, c, r)

    @pytest.mark.parametrize("r", [2, 4, 6, 8])
    def test_assembly_takes_no_gcd(self, monkeypatch, r):
        # terms, combined and the T-grid numerator are reduced by their known factors
        def no_gcd(a, b):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr(exact, "poly_gcd", no_gcd)
        for c in (GENUS3_DATUM, CurveData.elliptic(101, 3)):
            slr_zeta.__wrapped__(c, r)  # past the cache, which may hold this curve

    def test_zeta_layers_count_no_gcd(self, monkeypatch):
        # the assembly at every rank, zh, the rank-two period and the rank-two
        # forms are all reduced by their known factors: poly_gcd is never called
        calls = []
        gcd = exact.poly_gcd
        monkeypatch.setattr(exact, "poly_gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
        # fresh labels, so that no cache holds these curves
        for c in (CurveData(2, 3, GENUS3_DATUM.A, label="no-gcd"), CurveData.elliptic(101, 3, label="no-gcd")):
            for r in range(2, R_MAX + 1):
                slr_zeta(c, r)
            for n in range(R_MAX + 2):
                zeta_hat_ratfun(c, n)
            _factored_sum(_weyl_terms_r2(c)).ratfun()
            assert artin_fe_ratfun_check(c)
            rank2_closed_form(c)
            assert closed_form_check(c) and numerator_check(c) and pure_fe_check(pure_zeta(c))
        assert calls == []
        # the count sees what it should: the gcd constructor of RationalFunction
        RationalFunction([1, -1], [1, 0, -1])
        assert len(calls) == 1

    @pytest.mark.parametrize("r", range(2, 9))
    def test_fe_check_takes_no_gcd(self, monkeypatch, r):
        # u -> Q/u keeps the reduced combined form reduced, so the check needs no gcd
        def no_gcd(a, b):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr(exact, "poly_gcd", no_gcd)
        for c in (GENUS3_DATUM, CurveData.elliptic(101, 3)):
            assert slr_fe_check(slr_zeta.__wrapped__(c, r))

    def test_off_grid_combined_is_a_convention_error(self, curve_g1):
        z = slr_zeta(curve_g1, 3)
        off_grid = [
            z.combined / RatFun([1, -5]),  # a stray pole at T = 5
            z.combined * RatFun.t(1),  # a stray pole at T = 0
        ]
        for combined in off_grid:  # each is an inexact division, never a ValueError
            with pytest.raises(ConventionError, match="does not reduce to the expected T-grid shape"):
                _extract_numerator(combined, curve_g1, 3)
        with pytest.raises(ConventionError, match="exceeds 2g"):  # times T^3
            _extract_numerator(z.combined * RatFun.t(-3), curve_g1, 3)

    @pytest.mark.parametrize("q, g, seed", [(3, 12, 0)])
    def test_large_genus_rank6(self, q, g, seed):
        c = elliptic_product(q, g, seed)
        z = slr_zeta(c, 6)
        assert slr_fe_check(z)
        Q = F(q) ** 6
        for i in range(g + 1):
            assert z.numerator_T[2 * g - i] == Q ** (g - i) * z.numerator_T[i]
        rep = slr_rh_report(z)
        assert len(rep.zeros) + len(rep.excluded) == Poly(z.numerator_T).degree

    def test_broken_term_breaks_fe(self, curve_g1):
        z = slr_zeta(curve_g1, 2)
        broken = z._replace(combined=RatFun.of(z.combined) + zeta_hat_ratfun(curve_g1, shift=1))
        assert not slr_fe_check(broken)


@st.composite
def factored_terms(draw):
    """(q, k, den, num) with num a rational polynomial times a sub-multiset of
    den's factors (1 - q^e u) and of u: den maps e to its multiplicity."""
    q = draw(st.sampled_from([2, 3, 101]))
    k = draw(st.integers(-3, 3))
    den = draw(st.dictionaries(st.integers(-4, 4), st.integers(1, 3), max_size=4))
    base = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=7), max_size=5))
    num = Poly(base) * Poly.x(draw(st.integers(0, 3)))
    for e, m in sorted(den.items()):
        num = num * Poly([1, -F(q) ** e]) ** draw(st.integers(0, m))
    return q, k, den, num


def as_factored(q: int, k: int, den: dict[int, int], num: Poly) -> _FactoredTerm:
    """num(u) u^k / prod_e (1 - q^e u)^m_e as a factored term, num kept whole."""
    term = _FactoredTerm(mono=(k, 0), poly=num)
    for e, m in den.items():
        term.mul_one_minus(q, e, 1, 0, -m)
    return term


def gcd_reduced(q: int, k: int, den: dict[int, int], num: Poly) -> RatFun:
    """The same value through the gcd constructor of RationalFunction."""
    d = Poly.one()
    for e, m in den.items():
        d = d * Poly([1, -F(q) ** e]) ** m
    if k >= 0:
        return RatFun(num * Poly.x(k), d)
    return RatFun(num, d * Poly.x(-k))


class TestFactoredReduction:
    @given(factored_terms())
    @example((3, -2, {1: 2, -1: 1}, Poly()))  # the zero polynomial
    @example((2, -2, {1: 2, -3: 1}, Poly.x(2) * Poly([1, -2]) ** 2 * Poly([1, F(-1, 8)])))  # all cancels
    @example((101, 2, {0: 3, 4: 1}, Poly([1, -1]) ** 3 * Poly([1, -(101**4)]) * Poly([F(2, 3)])))
    @settings(max_examples=200, deadline=None)
    def test_matches_gcd_reduction(self, case):
        expect = gcd_reduced(*case)
        got = as_factored(*case).ratfun()
        assert got == expect
        assert (got.num.ints, got.num.scale, got.den.ints) == (
            expect.num.ints,
            expect.num.scale,
            expect.den.ints,
        )

    @given(factored_terms(), factored_terms())
    @example((3, 1, {1: 2}, Poly([1, -3])), (3, 0, {1: 1}, -Poly([0, 1])))  # u/(1 - 3u) - u/(1 - 3u) = 0
    @settings(max_examples=100, deadline=None)
    def test_sum_matches_gcd_sum(self, a, b):
        # both summands at the first one's q, so that equal factors share keys
        b = (a[0], *b[1:])
        got = _factored_sum([as_factored(*a), as_factored(*b)])
        assert isinstance(got, _FactoredTerm)
        assert got.ratfun() == gcd_reduced(*a) + gcd_reduced(*b)

    def test_empty_sum_is_zero(self):
        assert _factored_sum([]).ratfun() == RationalFunction.zero()

    def test_non_linear_denominator_is_a_convention_error(self):
        term = as_factored(3, 0, {1: 1}, Poly.one())
        term.mul((1, 0, 1), 1, 0, -1)  # 1 / (1 + u^2)
        with pytest.raises(ConventionError, match="non-linear"):
            term.ratfun()
        stretched = as_factored(3, 0, {}, Poly.one())
        stretched.mul_one_minus(3, 1, 2, 0, -1)  # 1 / (1 - 3 u^2)
        with pytest.raises(ConventionError, match="non-linear"):
            stretched.ratfun()

    def test_term_in_u2_is_a_convention_error(self):
        term = _FactoredTerm()
        term.mul_one_minus(3, 1, 0, 1, 1)  # 1 - 3 u2
        with pytest.raises(ConventionError, match="u2"):
            term.ratfun()


def runs_reading(p: tuple[int, ...], r: int):
    """(n_w, zeta exponents, constant factors, s_factors) of w in frak_W_P read
    off its runs, as :func:`reference_term_data` returns them.

    With v = w(r), positions 1..r-1 hold runs of consecutive values in
    decreasing order, the r - v values above v first.  A run of length l
    weighs zh(1)...zh(l), the first run zh(2)...zh(l); two adjacent runs on
    one side of v, of lengths l and l', give 1/(1 - q^{l+l'}); the last run
    above v, of length a, gives 1/(1 - q^{a+v}/u), and the first run below v,
    of length b, gives 1/(1 - q^{b-v+1} u).
    """
    v = p[-1]
    sides = []
    for values, expect in ((p[: r - v], range(v + 1, r + 1)), (p[r - v : -1], range(1, v))):
        runs: list[list[int]] = []
        for i, x in enumerate(values):
            if i and x == values[i - 1] + 1:
                runs[-1].append(x)
            else:
                runs.append([x])
        # the runs of one side are consecutive values placed in decreasing order
        assert [x for run in reversed(runs) for x in run] == list(expect), p
        sides.append([len(run) for run in runs])
    above, below = sides
    zeta_exp: dict[int, int] = {}
    for i, l in enumerate(above + below):
        for n in range(1 if i else 2, l + 1):
            zeta_exp[n] = zeta_exp.get(n, 0) + 1
    const_factors = [x + y for runs in sides for x, y in zip(runs, runs[1:])]
    s_factors = ([(above[-1] + v, -1)] if above else []) + ([(below[0] - v + 1, 1)] if below else [])
    return v, zeta_exp, const_factors, s_factors


class TestSlrRecipe:
    """The chain sums over compositions against the root-object reading of frak_W_P."""

    SHAPES = {2: 2, 3: 5, 4: 10, 5: 18, 6: 30, 7: 47, 8: 70, 9: 100, 10: 138}

    @pytest.mark.parametrize("r", range(2, R_MAX + 1))
    def test_multiplicities_and_shape_count(self, r):
        recipe = reference_recipe(r)
        size = 2 if r == 2 else (r + 2) * 2 ** (r - 3)
        assert sum(m for entries in recipe.values() for m in entries.values()) == size
        assert len(recipe) == self.SHAPES[r]

    @pytest.mark.parametrize("r", range(2, R_MAX + 1))
    def test_runs_read_every_term(self, r):
        # every Weyl term is read off v and the runs on either side of it
        rs, pb = build_root_system(r)
        for w in pb.frak_w_p:
            n_w, zeta_exp, const_factors, s_factors = reference_term_data(rs, pb, w, r)
            v, runs_zeta, runs_const, runs_s = runs_reading(w.perm, r)
            assert (v, runs_zeta) == (n_w, {n: e for n, e in zeta_exp.items() if e}), w
            assert (sorted(runs_const), sorted(runs_s)) == (sorted(const_factors), sorted(s_factors)), w

    @pytest.mark.parametrize("r", range(2, R_MAX + 1))
    def test_matches_root_object_reading(self, r, corpus):
        # each chain-form R_v, and the combined sum, against the root-object reference
        for c in corpus:
            terms, combined = pairwise_slr(c, r)
            z = slr_zeta(c, r)
            assert z.terms == terms, c.describe()
            assert z.combined == combined, c.describe()

    def test_out_of_range(self, curve_g1):
        for r in (1, R_MAX + 1):
            with pytest.raises(ValueError, match="rank parameter"):
                slr_zeta(curve_g1, r)


class TestZeroResidue:
    """P(1) = 0, so zh(1) = 0: every Weyl term with two or more runs vanishes,
    and no route may divide by zh(1)."""

    @pytest.fixture(scope="class")
    def curve(self):
        return parse_job(Path(__file__).parent / "data" / "zero_residue_job.yaml").curves[0]

    def test_residue_vanishes(self, curve):
        assert zeta_hat_special(curve, 1) == 0

    @pytest.mark.parametrize("r", range(2, R_MAX + 1))
    def test_matches_pairwise_sum(self, curve, r):
        terms, combined = pairwise_slr(curve, r)
        z = slr_zeta(curve, r)
        assert z.terms == terms
        assert z.combined == combined
        assert z.numerator_T == reference_numerator(combined, curve, r)
        # R_2..R_{r-1} have runs on both sides of v, so each carries zh(1)
        assert [v for v, t in z.terms if t == 0] == list(range(2, r))


class TestNumeratorInfo:
    def test_rank2_unit_constant(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            info = slr_numerator(slr_zeta(c, 2), c)
            assert info.unit_constant, c.describe()

    def test_rank2_ratios_match_extracted_alphas(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            info = slr_numerator(slr_zeta(c, 2), c)
            table = rank2_invariants(c)
            for m in range(c.g):
                assert info.alpha_ratios[m] == table.alphas[m] / table.alphas[0]

    def test_rank2_proportional_to_grouped_numerator(self, corpus):
        # one global constant lambda with A_T(i) = lambda * N_i * q^i
        for c in corpus:
            if c.g < 1:
                continue
            info = slr_numerator(slr_zeta(c, 2), c)
            n = rank2_numerator(c)
            q = F(c.q)
            lam = info.coeffs[0] / n.coeffs[0]
            for i in range(2 * c.g + 1):
                assert info.coeffs[i] == lam * n.coeffs[i] * q**i, c.describe()
            assert lam == q ** -c.g

    def test_rank3_ratio_pattern(self, curve_g1):
        info = slr_numerator(slr_zeta(curve_g1, 3), curve_g1)
        Q = F(8)
        assert info.alpha_ratios[0] == 1
        assert len(info.normalized) == 3


class TestPeriodOracle:
    def test_rank2_identity_only_term(self, curve_g1):
        # the oracle's two-term sum less its flip term zh(s+1)/(1 - q^2/u) is
        # its identity term zh(s+2)/(1 - u), each built by gcd reduction
        q = F(curve_g1.q)
        identity, flip = _weyl_terms_r2(curve_g1)
        flip_ref = zeta_hat_ratfun(curve_g1, shift=1) * RatFun([0, 1], [-(q**2), 1])
        identity_ref = zeta_hat_ratfun(curve_g1, shift=2) * RatFun([1], [1, -1])
        assert (identity.ratfun(), flip.ratfun()) == (identity_ref, flip_ref)
        assert _factored_sum([identity, flip]).ratfun() - flip_ref == identity_ref
        assert RatFun.of(period_residue_oracle(curve_g1, 2)) * slr_zeta(curve_g1, 2).combined == identity_ref + flip_ref

    def test_rank2_constant_is_one(self, corpus):
        for c in corpus[:6]:
            if c.g < 1:
                continue
            ratio = period_residue_oracle(c, 2)
            assert ratio == 1, c.describe()

    def test_rank3_constant_is_one(self, curve_g1, curve_g2):
        for c in (curve_g1, curve_g2, GENUS3_DATUM):
            ratio = period_residue_oracle(c, 3)
            assert ratio == 1, c.describe()

    @pytest.mark.parametrize("q, g, seed", ELLIPTIC_PRODUCTS)
    def test_rank3_constant_is_one_elliptic_products(self, q, g, seed):
        c = elliptic_product(q, g, seed)
        ratio = period_residue_oracle(c, 3)
        assert ratio == 1, c.describe()

    @pytest.mark.parametrize(
        "curve",
        [*criterion10_curves(), *(elliptic_product(*case) for case in ELLIPTIC_PRODUCTS),
         CurveData(3, 1, [1, F(1, 2), 3])],
        ids=lambda c: c.describe(),
    )
    def test_packed_sum_matches_reference(self, curve):
        # the packed num/den against the dict/Fraction reference: the same
        # quotient, and the same pole order at u1 = 1
        num, den, stride = _factored_sum(_weyl_terms_r3(curve))
        ref_num, ref_den = ref_factored_sum(ref_weyl_terms_r3(curve))
        num2, den2 = unpack(num, stride), unpack(den, stride)
        # num2 ref_den == ref_num den2, compared packed with a stride above the
        # u1-degree of either product, where packing is injective
        wide = 1 + 2 * max(i for i, _ in [*num2, *den2, *ref_num, *ref_den])
        assert pack(num2, wide) * pack(ref_den, wide) == pack(ref_num, wide) * pack(den2, wide)
        assert u1_pole_order(num, den, lambda p: _divide_one_minus_u1(p, stride)) == 1
        assert u1_pole_order(ref_num, ref_den, p2_divide_one_minus_u1) == 1

    @pytest.mark.parametrize("curve", ["g1", "genus3"])
    def test_rank3_sum_matches_termwise_values(self, curve, curve_g1):
        # each Weyl term evaluated on its own from root pairings and zeta_hat_ratfun
        c = curve_g1 if curve == "g1" else GENUS3_DATUM
        rs, _ = build_root_system(3)
        lam, rho = rs.fundamental_weights, rs.rho
        q = F(c.q)
        num, den, stride = _factored_sum(_weyl_terms_r3(c))
        num, den = unpack(num, stride), unpack(den, stride)
        for u in [(F(1, 5), F(1, 7)), (F(3, 11), F(-2, 13)), (F(7, 3), F(5, 17))]:

            def u_root(root):  # u1^<w1, root^> * u2^<w2, root^>
                return u[0] ** int(rs.pairing(lam[0], root)) * u[1] ** int(rs.pairing(lam[1], root))

            expect = F(0)
            for w in weyl_group(3):
                v = w.inverse()
                term = F(1)
                for alpha in rs.simple_roots:
                    beta = v.apply(alpha)
                    term /= 1 - q ** (1 - rs.pairing(rho, beta)) * u_root(beta)
                for a in rs.flipped_positive_roots(w):
                    h = int(rs.pairing(rho, a))
                    term *= RatFun.of(zeta_hat_ratfun(c, shift=h)).evaluate(u_root(a))
                    term /= RatFun.of(zeta_hat_ratfun(c, shift=h + 1)).evaluate(u_root(a))
                expect += term

            assert p2_value(den, *u) != 0
            assert p2_value(num, *u) / p2_value(den, *u) == expect, u

    def test_factored_sum_repeated_factor_and_negative_monomial(self):
        # u1^{-1} / (1 - u1)^2 + 3 u2 / (2 - 2 u1)
        a, b = _FactoredTerm(), _FactoredTerm()
        a.mul((0, 1), -1, 0, 1)  # U = 1/u1
        a.mul((1, -1), 1, 0, -2)
        b.mul((0, 3), 0, 1, 1)
        b.mul((2, -2), 1, 0, -1)
        assert a.mono == (-1, 0) and b.mono == (0, 1)
        assert a.factors == {(1, 0, (1, -1)): -2} and b.factors == {(1, 0, (1, -1)): -1}
        assert (a.const, b.const) == (1, F(3, 2))
        num, den, stride = _factored_sum([a, b])
        # u1^{-1} is cleared into the denominator: u1 divides it, every packed
        # exponent is >= 0, and the stride exceeds both u1-degrees
        assert den.ints[0] == 0
        assert stride > max(i for i, _ in [*unpack(num, stride), *unpack(den, stride)])
        num, den = unpack(num, stride), unpack(den, stride)
        for u1, u2 in [(F(1, 3), F(2, 5)), (F(-4, 7), F(9, 2))]:
            expect = 1 / (u1 * (1 - u1) ** 2) + 3 * u2 / (2 - 2 * u1)
            assert p2_value(num, u1, u2) / p2_value(den, u1, u2) == expect

    def test_divide_one_minus_u1_exact(self):
        b = {(0, 0): F(2), (1, 1): F(-3), (2, 0): F(1, 2), (0, 3): F(5)}
        a = p2_mul(b, {(0, 0): F(1), (1, 0): F(-1)})  # a = (1 - u1) * b
        stride = 4  # above the u1-degree 3 of a
        assert unpack(_divide_one_minus_u1(pack(a, stride), stride), stride) == b
        assert _divide_one_minus_u1(Poly(), stride) == Poly()

    def test_divide_one_minus_u1_inexact(self):
        stride = 3
        assert _divide_one_minus_u1(pack({(0, 0): F(1), (1, 0): F(1)}, stride), stride) is None
        # 1 - u1 + u2: the u2 column leaves a remainder
        one_minus_u1_plus_u2 = {(0, 0): F(1), (1, 0): F(-1), (0, 1): F(1)}
        assert _divide_one_minus_u1(pack(one_minus_u1_plus_u2, stride), stride) is None
        # u1 - u2 packs to x - x^3, which (1 - x) divides, but (1 - u1) does not
        assert _divide_one_minus_u1(pack({(1, 0): F(1), (0, 1): F(-1)}, stride), stride) is None

    @pytest.mark.parametrize("r", [2, 3])
    def test_ratio_matches_reference_quotient(self, corpus, r):
        # the cross-multiplied verdict and constant are oracle / assembled,
        # divided by the reference arithmetic and reduced by a gcd
        for c in corpus:
            ratio = period_residue_oracle(c, r)
            assert ratio == reference_oracle(c, r) / slr_zeta(c, r).combined, c.describe()
            assert ratio.is_constant(), c.describe()

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize(
        "skew", [[3], [F(-1, 2)], [0], [1, 1], [0, 0, 2]], ids=["three", "minus-half", "zero", "1+u", "2u^2"]
    )
    def test_skewed_oracle_ratio(self, monkeypatch, curve_g2, r, skew):
        # the oracle times a constant or a polynomial in u (the constant 0 makes
        # a zero oracle): the ratio is that factor, as the reference quotient
        # gives it, and constant exactly when the factor is
        factor = RatFun(skew)
        if r == 2:
            weyl_terms = group_zeta._weyl_terms_r2

            def skewed_terms(c):
                terms = weyl_terms(c)
                for t in terms:
                    t.poly = t.poly * Poly(skew)
                return terms

            monkeypatch.setattr(group_zeta, "_weyl_terms_r2", skewed_terms)
        else:
            zh = group_zeta.zeta_hat_ratfun
            monkeypatch.setattr(
                group_zeta, "zeta_hat_ratfun", lambda c, shift=0: zh(c, shift) * factor if shift == 3 else zh(c, shift)
            )
        ratio = period_residue_oracle.__wrapped__(curve_g2, r)
        assert ratio == reference_oracle(curve_g2, r) * factor / slr_zeta(curve_g2, r).combined
        assert ratio == factor
        assert ratio.is_constant() == (len(skew) == 1)

    @pytest.mark.parametrize("r", [2, 3])
    def test_zero_assembled_form_raises(self, monkeypatch, curve_g2, r):
        # oracle / 0 is the gcd constructor's ZeroDivisionError, as in the reference
        z = slr_zeta(curve_g2, r)._replace(combined=RationalFunction.zero())
        monkeypatch.setattr(group_zeta, "slr_zeta", lambda c, r: z)
        message = "^rational function with zero denominator$"
        with pytest.raises(ZeroDivisionError, match=message):
            period_residue_oracle.__wrapped__(curve_g2, r)
        with pytest.raises(ZeroDivisionError, match=message):
            reference_oracle(curve_g2, r) / z.combined

    def test_rank4_unsupported(self, curve_g1):
        with pytest.raises(ValueError):
            period_residue_oracle(curve_g1, 4)


class TestSpecialUniformity:
    """The paper's identity, read off the group side: alpha_r(0) = q^{(r-1)(g-1)} beta_{r-1}(0).

    With s_m the T-series of N(T)/N(0)/((1 - T)(1 - QT)), N the SL_r numerator
    on the T-grid and Q = q^r, the group zeta gives beta_r(0)/alpha_r(0) as
    (s_g - Q s_{g-2})/(Q - 1), the rank-r analogue of ``rank2.eq_extract``;
    beta_r and beta_{r-1} come from the Harder-Narasimhan mass sum.
    """

    CURVES = [
        CurveData.elliptic(2, 0),
        GENUS3_DATUM,
        *(elliptic_product(q, g, seed=q + g) for q, g in [(2, 2), (3, 2), (5, 3), (3, 4), (101, 2)]),
    ]
    # every curve up to r = 6, and two elliptic curves at r = 7 and 8, above the old rank cap
    CASES = [
        *itertools.product(range(2, 7), CURVES),
        *itertools.product((7, 8), (CurveData.elliptic(2, 0), CurveData.elliptic(3, 1))),
    ]

    @staticmethod
    def beta_over_alpha(c: CurveData, r: int) -> Fraction:
        N = slr_zeta(c, r).numerator_T
        Q = F(c.q) ** r
        # 1/((1 - T)(1 - QT)) has T^m coefficient (Q^{m+1} - 1)/(Q - 1)
        s = [sum(N[k] / N[0] * (Q ** (m - k + 1) - 1) / (Q - 1) for k in range(m + 1))
             for m in range(c.g + 1)]
        return (s[c.g] - (Q * s[c.g - 2] if c.g >= 2 else 0)) / (Q - 1)

    @pytest.mark.parametrize("r, c", CASES, ids=[f"{r}-{c.label}" for r, c in CASES])
    def test_alpha_zero_from_lower_rank_mass(self, c, r):
        alpha0 = beta_hn_mass(c, r, 0) / self.beta_over_alpha(c, r)
        assert alpha0 == F(c.q) ** ((r - 1) * (c.g - 1)) * beta_hn_mass(c, r - 1, 0)
        if r == 2:
            assert alpha0 == alpha2_zero(c)


class TestRhReports:
    def test_rank2_fixture_moduli(self, curve_g1):
        rep = slr_rh_report(slr_zeta(curve_g1, 2))
        assert rep.verdict
        for T in rep.zeros:
            assert abs(abs(T) ** 0.5 - 2**-0.5) <= 1e-9

    def test_rank2_elliptic_grid(self):
        for q in (2, 3, 4, 5):
            bound = int((4 * q) ** 0.5)
            for a in range(-bound, bound + 1):
                c = CurveData.elliptic(q, a)
                rep = slr_rh_report(slr_zeta(c, 2))
                assert rep.verdict, (q, a, rep.max_deviation)

    def test_slr_scaling_numerator_converges_in_few_sweeps(self):
        # the seed-0 slr-scaling datum at q = 101, g = 4: its r = 6 T-grid
        # numerator has zeros at |T| = 101^{-3}, about 1e-6; solved in T from
        # the circle of radius 1 + max |c_i / c_n| it takes 48 sweeps
        A = [1, 17, 184, 2575, 29246, 260075, 1876984, 17515117, 104060401]
        z = slr_zeta(CurveData(101, 4, A, genuine=True), 6)
        rset = complex_roots(Poly(z.numerator_T), Q=101**6)
        assert len(rset.roots) == 8 and rset.iterations <= 8

    def test_poles_excluded_in_w(self):
        # (1 - T)^2 (1 - QT) N(T) at Q = (10^6 + 3)^3: the roots T = 1 and
        # T = 1/Q are the cleared poles, divided out exactly with their
        # multiplicities; the zeros of N sit within 1e-9 of T = 1/Q but are
        # kept, at W = sqrt(Q) T on the unit circle
        z = slr_zeta(CurveData.elliptic(1000003, 1), 3)
        Q = 1000003**3
        poles = Poly([1, -1]) ** 2 * Poly([1, -Q]) * Poly(z.numerator_T)
        rep = slr_rh_report(z._replace(numerator_T=poles.coeffs))
        assert len(rep.zeros) == 2 and rep.verdict
        assert rep.excluded == (1, 1, 1 / Q)
        assert all(abs(T) < 1e-9 for T in rep.zeros)
        assert slr_rh_report(z).excluded == ()

    def test_rank3_report_emitted(self, curve_g1):
        rep = slr_rh_report(slr_zeta(curve_g1, 3))
        assert isinstance(rep.verdict, bool)
        assert len(rep.zeros) + len(rep.excluded) == 2


def test_supply_covers_all_denominators(corpus):
    """The clearing multiplier leaves no zeta value downstairs for r <= 5."""
    c = next(c for c in corpus if c.g == 1)
    for r in (2, 3, 4, 5):
        slr_zeta(c, r)  # raises ConventionError on a negative leftover exponent
