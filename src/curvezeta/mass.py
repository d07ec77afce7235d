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
the exponent vanishes there).  ``beta_crosscheck`` tabulates both routes
and the rank-two series-derived value side by side, and records whether the
two routes agree at every rank up to the one asked for; the CLI's mass task
asks for the largest rank of the job.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from curvezeta.artin import CurveData, zeta_hat_special, zeta_plain
from curvezeta.invariants import beta0
from curvezeta.rank2 import beta_from_special_values, rank2_invariants


def compositions(r: int) -> Iterator[tuple[int, ...]]:
    """All 2^(r-1) compositions of r >= 1, as tuples of positive parts, in
    lexicographic part order."""

    def rec(remaining: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        for first in range(1, remaining + 1):
            acc.append(first)
            yield from rec(remaining - first, acc)
            acc.pop()

    return rec(r, [])


def beta_composition_formula(c: CurveData, r: int) -> Fraction:
    """beta_r(0) through the completed-zeta composition telescope."""
    if r < 1 or c.g < 1:
        raise ValueError("need r >= 1 and genus >= 1")
    q = Fraction(c.q)
    zh = {i: zeta_hat_special(c, i) for i in range(1, r + 1)}
    total = Fraction(0)
    for parts in compositions(r):
        k = len(parts)
        term = Fraction(-1) ** (k - 1)
        for j in range(k - 1):
            term /= q ** (parts[j] + parts[j + 1]) - 1
        for n in parts:
            for i in range(1, n + 1):
                term *= zh[i]
        total += term
    return q ** ((c.g - 1) * r * (r - 1) // 2) * total


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

    The q-exponent of each composition, (g-1) sum_{i<j} n_i n_j plus
    sum_i (n_i + n_{i+1}) {k_i d / r} with k_i = n_1 + .. + n_i, is an
    integer although its fractional-part terms need not be: without the
    floors the second sum telescopes, sum_i (k_{i+1} - k_{i-1}) k_i d / r
    = k_{s-1} d.  So it is added up exactly and q is raised to it once,
    and the mass is an exact Fraction for every d.
    """
    if r < 1 or c.g < 1:
        raise ValueError("need r >= 1 and genus >= 1")
    q = Fraction(c.q)
    total = Fraction(0)
    for parts in compositions(r):
        s = len(parts)
        cross = sum(parts[i] * parts[j] for i in range(s) for j in range(i + 1, s))
        exponent = Fraction((c.g - 1) * cross)
        term = Fraction(1)
        prefix = 0
        for i in range(s - 1):
            prefix += parts[i]
            frac_part = Fraction(prefix * d, r) - (prefix * d // r)
            exponent += (parts[i] + parts[i + 1]) * frac_part
            term /= 1 - q ** (parts[i] + parts[i + 1])
        if exponent.denominator != 1:
            raise AssertionError(f"non-integer q-exponent {exponent} for {parts} at d = {d}")
        term *= q**exponent.numerator
        for n in parts:
            term *= _v_block(c, n)
        total += term
    return total


def beta_crosscheck(c: CurveData, rmax: int) -> dict:
    """Both beta routes for r = 1..rmax, with the rank-two series value alongside.

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
    return {"curve": c.describe(), "rows": rows}
