"""Rank-one bundle-counting invariants alpha, beta, gamma.

For line bundles the three automorphism-weighted counts over Pic^d are

    alpha(d) = sum (q^{h^0} - 1) / #Aut,
    beta(d)  = sum 1 / #Aut,
    gamma(d) = sum q^{h^0} / #Aut = alpha(d) + beta(d),

and alpha(d) is exactly the t^d coefficient of Z(t), because the weighted
sum over a Picard class counts its effective divisors.  beta(d) is the
constant h/(q-1) in every degree (tensoring by a degree-one bundle is a
bijection between degrees), which is how gamma is assembled here.

The triangular conversion between (alpha_0..alpha_{g-1}, beta_0) and the
numerator coefficients A_0..A_g, and a genus-one brute-force oracle that
recomputes everything from the h^0 stratification directly, give two
independent routes to the same numbers.

alpha(d) is the t^d coefficient of P(t)/((1-t)(1-qt)), which
:func:`alpha_from_A` expands by one recurrence; it is the package's one
expansion of such a series, and the rank-two and SL_r alphas run through it
too, with q replaced by Q = q^r.  :func:`invariant_table` takes
alpha(0..2g-2) from one call, and Z(t) is never reduced for it.  beta_0
reads the curve's cached class number.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from curvezeta.artin import CurveData

Rat = Fraction | int


class InvariantTable(namedtuple("InvariantTable", "r alphas beta0 gammas")):
    """alpha values on the degree grid r*Z, beta at zero, and gamma by degree.

    ``alphas`` is the tuple alpha(0), alpha(r), ..., alpha(r*(g-1)); ``gammas``
    maps a degree to its gamma.
    """

    __slots__ = ()


class BrillNoetherTable(namedtuple("BrillNoetherTable", "w h g")):
    """Class counts w(d, i) = #{classes of degree d with h^0 = i}, as a dict
    ``w`` keyed by (d, i), with the class number h and the genus g."""

    __slots__ = ()

    def check(self, dmax: int) -> None:
        """Row sums, duality and the section bound, checked exhaustively."""
        for d in range(dmax + 1):
            row = sum(v for (dd, _), v in self.w.items() if dd == d)
            if row != self.h:
                raise AssertionError(f"degree {d} row sums to {row}, expected {self.h}")
        for (d, i), v in self.w.items():
            if 0 <= d <= 2 * self.g - 2:
                dual = self.w.get((2 * self.g - 2 - d, i - d + self.g - 1), 0)
                if (2 * self.g - 2 - d) <= max(dd for dd, _ in self.w) and v != dual:
                    raise AssertionError(f"duality fails at (d={d}, i={i})")
                # section bound for special degrees: h^0 <= d/2 + 1, so
                # anything strictly above that line must be empty
                if v and i > Fraction(d, 2) + 1:
                    raise AssertionError(f"section bound fails at (d={d}, i={i})")


def alpha_from_A(A: Sequence[Rat], q: Rat, count: int) -> list[Fraction]:
    """alpha_0..alpha_{count-1} as the triangular combination of the A_i.

    alpha_i = sum_{j<=i} (q^{i-j+1} - 1)/(q - 1) * A_j, with A_j = 0 past the
    end of A, so alpha_0 = A_0.  A curve's rank-one alphas are
    alpha_from_A(c.A, c.q, c.g).  With q replaced by Q = q^r and A by a
    numerator normalized to a unit constant term, the same system predicts
    the ratios alpha(r i)/alpha(0) of the SL_r and rank-two zetas.

    The weights s_k = (q^{k+1} - 1)/(q - 1) satisfy s_k = q s_{k-1} + 1, so
    alpha_i = q alpha_{i-1} + (A_0 + ... + A_i): O(count) exact steps, with
    no power and no division, on integers when q and the A_i are integers.
    """
    out, alpha, partial = [], 0, 0
    for i in range(count):
        if i < len(A):
            partial += A[i]
        alpha = q * alpha + partial
        out.append(Fraction(alpha))
    return out


def A_from_alpha(alphas: Sequence[Rat], beta0: Rat, q: int, g: int) -> list[Fraction]:
    """Invert the triangular system back to A_0..A_g.

    A_i = alpha_i - (q+1) alpha_{i-1} + q alpha_{i-2} for i < g, and the
    closing row A_g = 2q alpha_{g-2} - (q+1) alpha_{g-1} + (q-1) beta_0.
    Genus one degenerates to the closed form A_1 = (q-1) beta_0 - (q+1).
    """
    if g < 1:
        raise ValueError("invariants need genus >= 1")
    al = [Fraction(a) for a in alphas]
    b0 = Fraction(beta0)
    if len(al) != g:
        raise ValueError(f"need g = {g} alpha values, got {len(al)}")
    qf = Fraction(q)
    if g == 1:
        return [al[0], (qf - 1) * b0 - (qf + 1) * al[0]]
    A = [Fraction(0)] * (g + 1)
    A[0] = al[0]
    A[1] = al[1] - (qf + 1) * al[0]
    for i in range(2, g):
        A[i] = al[i] - (qf + 1) * al[i - 1] + qf * al[i - 2]
    A[g] = 2 * qf * al[g - 2] - (qf + 1) * al[g - 1] + (qf - 1) * b0
    return A


def beta0(c: CurveData) -> Fraction:
    """h/(q-1) with h = sum of the numerator coefficients."""
    if c.g < 1:
        raise ValueError("invariants need genus >= 1")
    return c.class_number / (c.q - 1)


def alpha_degree(c: CurveData, d: int) -> Fraction:
    """alpha(d) for any degree d >= 0: the t^d coefficient of Z(t)."""
    if c.g < 1:
        raise ValueError("invariants need genus >= 1")
    if d < 0:
        return Fraction(0)
    return alpha_from_A(c.A, c.q, d + 1)[d]


def gamma(c: CurveData, d: int) -> Fraction:
    """gamma(d) = alpha(d) + beta_0.

    Beyond the special range (d > 2g-2) this collapses to the closed form
    h * q^{d-(g-1)} / (q-1), which the vanishing of h^1 forces.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d > 2 * c.g - 2:
        q = Fraction(c.q)
        return c.class_number * q ** (d - (c.g - 1)) / (q - 1)
    return alpha_degree(c, d) + beta0(c)


def middle_coefficient_identity_check(c: CurveData) -> bool:
    """The closing triangular row, recovered from the symmetry of the A_i.

    2q alpha_{g-2} - (q+1) alpha_{g-1} + (q-1) beta_0 == A_g, exactly.
    """
    if c.g < 2:
        raise ValueError("identity needs genus >= 2")
    al = alpha_from_A(c.A, c.q, c.g)
    q = Fraction(c.q)
    return 2 * q * al[c.g - 2] - (q + 1) * al[c.g - 1] + (q - 1) * beta0(c) == c.A[c.g]


def invariant_table(c: CurveData) -> InvariantTable:
    """The rank-one table with gamma evaluated for 0 <= d <= 2g; the alphas
    of the special range 0 <= d <= 2g-2 come from one series expansion."""
    b0 = beta0(c)
    alphas = alpha_from_A(c.A, c.q, 2 * c.g - 1)
    gammas = {d: a + b0 for d, a in enumerate(alphas)}
    gammas.update((d, gamma(c, d)) for d in range(2 * c.g - 1, 2 * c.g + 1))
    return InvariantTable(r=1, alphas=tuple(alphas[: c.g]), beta0=b0, gammas=gammas)


def elliptic_oracle(q: int, a: int, dmax: int) -> tuple[BrillNoetherTable, InvariantTable]:
    """Brute-force genus-one invariants from the h^0 stratification.

    Every line-bundle class has automorphisms F_q^* (order q-1); the h
    classes of each degree split as: degree 0 has the trivial class with
    h^0 = 1 and h-1 classes with h^0 = 0, degree d >= 1 has all classes
    with h^0 = d.  Summation over that table *is* the oracle; at dmax = 2 its
    table compares with :func:`invariant_table` of the curve with trace a.
    """
    if a * a > 4 * q:
        raise ValueError("trace violates |a| <= 2*sqrt(q)")
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    h = q + 1 - a
    w: dict[tuple[int, int], int] = {}
    for d in range(dmax + 1):
        if d == 0:
            w[(0, 1)] = 1
            w[(0, 0)] = h - 1
        else:
            w[(d, d)] = h
    qf = Fraction(q)
    aut = qf - 1

    def weighted(d: int, weight) -> Fraction:
        return sum(
            (Fraction(weight(i)) * n / aut for (dd, i), n in w.items() if dd == d),
            Fraction(0),
        )

    alphas = (weighted(0, lambda i: qf**i - 1),)
    betas = Fraction(h) / aut
    gammas = {d: weighted(d, lambda i: qf**i) for d in range(dmax + 1)}
    table = InvariantTable(r=1, alphas=alphas, beta0=betas, gammas=gammas)

    bn = BrillNoetherTable(w=w, h=h, g=1)
    bn.check(dmax)
    return bn, table
