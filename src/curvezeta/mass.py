"""Masses of semistable bundles: two independent composition-sum formulas.

``beta_composition_formula`` computes the degree-zero mass beta_r(0) as an
inclusion-exclusion telescope over compositions of r in the *completed*
zeta values,

    q^{(g-1) r(r-1)/2} * sum_{n_1+..+n_k = r} (-1)^{k-1}
        / prod_j (q^{n_j + n_{j+1}} - 1) * prod_j prod_{i<=n_j} zh(i),

with zh(1) the simple-pole regularized value.  ``beta_hn_mass`` is the
general-degree Harder-Narasimhan mass sum in the *plain* zeta values,

    sum q^{(g-1) sum_{i<j} n_i n_j}
        * prod_j q^{(n_j + n_{j+1}) {(n_1+..+n_j) d / r}} / (1 - q^{n_j+n_{j+1}})
        * prod_j v_{n_j}(q),

    v_n(q) = h/(q-1) * q^{(n^2-1)(g-1)} * Z(q^-2) ... Z(q^-n),

where {x} is the fractional part.  The v_n exponent is read as (n^2-1)(g-1):
the block variable must be n, not r, or the two formulas already disagree at
rank two on any genus-two curve (the genus-one fixtures cannot tell, since
the exponent vanishes there).

Both are chain sums: each factor depends only on a part, two adjacent parts
or the values before a part, so neither walks the 2^{r-1} compositions.  A
dynamic program over (values used, last part) sums them in O(r^3) exact
operations.  The telescope is the chain row of the SL_r assembly
(:func:`curvezeta.group_zeta._chain_row`), each part of l values weighing
zh(1)...zh(l) and each adjacent pair of k values in all 1/(1 - q^k), since
-1/(q^k - 1) = 1/(1 - q^k); the Harder-Narasimhan sum, whose step weight
also depends on the prefix, has a dynamic program of its own.  The two
routes share no arithmetic: one sums completed and one plain zeta values.
``beta_crosscheck`` tabulates both routes and the rank-two series-derived
value side by side, and records whether the two routes agree at every rank
up to the one asked for; the CLI's mass task asks for the largest rank of
the job.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache

from curvezeta.artin import CurveData, zeta_hat_special, zeta_plain
from curvezeta.group_zeta import _chain_row
from curvezeta.invariants import beta0
from curvezeta.rank2 import beta_from_special_values, rank2_invariants


def beta_composition_formula(c: CurveData, r: int) -> Fraction:
    """beta_r(0) through the completed-zeta composition telescope, as a chain sum."""
    if r < 1 or c.g < 1:
        raise ValueError("need r >= 1 and genus >= 1")
    q = Fraction(c.q)
    zh = [zeta_hat_special(c, i) for i in range(1, r + 1)]
    full = list(itertools.accumulate(zh, operator.mul, initial=1))  # full[l] = zh(1)...zh(l)
    pair = {k: 1 / (1 - q**k) for k in range(2, r + 1)}
    X: list[list[Fraction]] = [[]]  # X[n][a]: the compositions of n, the last part a
    for n in range(1, r + 1):
        X.append(_chain_row(X, n, full, full, pair))
    return q ** ((c.g - 1) * r * (r - 1) // 2) * sum(X[r])


@lru_cache(maxsize=256)
def _v_block(c: CurveData, n: int) -> Fraction:
    """v_n(q) = h/(q-1) * q^{(n^2-1)(g-1)} * Z(q^-2)..Z(q^-n)."""
    q = Fraction(c.q)
    value = c.class_number / (q - 1) * q ** ((n * n - 1) * (c.g - 1))
    for i in range(2, n + 1):
        value *= zeta_plain(c, i)
    return value


@lru_cache(maxsize=256)
def beta_hn_mass(c: CurveData, r: int, d: int) -> Fraction:
    """beta_r(d) through the Harder-Narasimhan mass sum (any integer d).

    The sum depends on d only through the fractional parts {k_i d / r},
    k_i = n_1 + .. + n_i, so d is first reduced mod r.  Without the floors
    the fractional-part exponents telescope, sum_i (k_{i+1} - k_{i-1}) k_i d / r
    = k_{s-1} d, so a composition's q-exponent is (g-1) sum_{i<j} n_i n_j
    + k_{s-1} d - sum_i (n_i + n_{i+1}) floor(k_i d / r), an integer term by
    term.  The dynamic program appends a part of l values to the compositions
    of p values that end in m, times v_l q^{(g-1) l p - (m+l) floor(p d / r)}
    / (1 - q^{m+l}), and ends with q^{(r-l) d} for a last part of l values;
    the mass is an exact Fraction, and its cost does not grow with |d|.
    """
    if r < 1 or c.g < 1:
        raise ValueError("need r >= 1 and genus >= 1")
    q, d = Fraction(c.q), d % r
    X: list[list[Fraction]] = [[]]  # X[n][l]: the compositions of n, the last part l
    for n in range(1, r + 1):
        row = [Fraction(0)]
        for l in range(1, n):
            p = n - l
            floor = p * d // r
            row.append(_v_block(c, l) * sum(
                X[p][m] * q ** ((c.g - 1) * l * p - (m + l) * floor) / (1 - q ** (m + l))
                for m in range(1, p + 1)
            ))
        X.append(row + [_v_block(c, n)])  # the composition of one part
    return sum(X[r][l] * q ** ((r - l) * d) for l in range(1, r + 1))


def beta_crosscheck(c: CurveData, rmax: int) -> list[dict]:
    """One row for each r = 1..rmax: both beta routes, with the rank-two series value alongside.

    Each row records whether the two composition sums agree: the v_n
    exponent reading (n^2-1)(g-1) is pinned by the genus-two discriminating
    fixture, and the two routes compute the same mass at every rank
    (Mozgovoy and Reineke, arXiv 1310.4991).  The rank-one row also carries
    h/(q-1) and the rank-two row the series-derived beta, for the caller to
    compare with the composition sum; the rank-two row further carries the
    alternate special-value display, which is recorded but never compared.
    """
    rows = []
    for r in range(1, rmax + 1):
        comp = beta_composition_formula(c, r)
        hn = beta_hn_mass(c, r, 0)
        row = {
            "r": r,
            "composition": comp,
            "hn_mass_d0": hn,
            "agree": comp == hn,
            "ratio": None if comp == 0 else hn / comp,
        }
        if r == 1:
            row["beta0"] = beta0(c)
        if r == 2:
            row["series_value"] = rank2_invariants(c).beta0
            row["special_value_variant"] = beta_from_special_values(c)
        rows.append(row)
    return rows
