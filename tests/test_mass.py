"""Mass formulas: composition telescope vs Harder-Narasimhan sum.

The package sums both formulas as chain sums; the enumerations over all
2^(r-1) compositions below are the references they are checked against.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest

from curvezeta.artin import CurveData, zeta_hat_special, zeta_plain
from curvezeta.invariants import beta0
from curvezeta.mass import (
    beta_composition_formula,
    beta_crosscheck,
    beta_hn_mass,
)
from curvezeta.rank2 import rank2_invariants

from corpus import synthetic_genus3

F = Fraction


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


def composition_reference(c: CurveData, r: int) -> Fraction:
    """beta_r(0) by the completed-zeta telescope, one term per composition."""
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


def _v_reference(c: CurveData, n: int) -> Fraction:
    """v_n(q) = h/(q-1) * q^{(n^2-1)(g-1)} * Z(q^-2)..Z(q^-n)."""
    q = Fraction(c.q)
    value = c.class_number / (q - 1) * q ** ((n * n - 1) * (c.g - 1))
    for i in range(2, n + 1):
        value *= zeta_plain(c, i)
    return value


def hn_reference(c: CurveData, r: int, d: int) -> Fraction:
    """beta_r(d) by the Harder-Narasimhan sum, one term per composition, with the
    fractional parts {k_i d / r} taken literally and d not reduced."""
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
        assert exponent.denominator == 1, (parts, d)
        term *= q**exponent.numerator
        for n in parts:
            term *= _v_reference(c, n)
        total += term
    return total


def _reference_curves() -> list[CurveData]:
    """Genus one to three: elliptic curves over F_2, F_3 and F_101, the
    genus-two curve 1 - t + t^2 - 2t^3 + 4t^4 over F_2, a genus-three datum,
    and a genus-two A without the functional equation."""
    return [
        CurveData.elliptic(2, 0),
        CurveData.elliptic(3, 1),
        CurveData.elliptic(101, 7),
        CurveData(2, 2, [1, -1, 1, -2, 4], genuine=True, label="g2(q=2)"),
        synthetic_genus3(),
        CurveData(3, 2, [1, 2, 4, 5, 7], label="asymmetric-g2(q=3)"),
    ]


class TestChainSumsMatchEnumeration:
    """Both chain sums equal their one-term-per-composition references."""

    @pytest.mark.parametrize("c", _reference_curves(), ids=lambda c: c.describe())
    def test_composition_formula(self, c):
        for r in range(1, 10):
            assert beta_composition_formula(c, r) == composition_reference(c, r), r

    @pytest.mark.parametrize("c", _reference_curves(), ids=lambda c: c.describe())
    def test_hn_mass(self, c):
        for r in range(1, 10):
            for d in range(-r - 1, 2 * r + 1):
                assert beta_hn_mass(c, r, d) == hn_reference(c, r, d), (r, d)


def test_hn_mass_time_does_not_grow_with_degree():
    """beta_r(d + 10^12 r) = beta_r(d), in well under a second.  Run in a child
    whose address space is capped: an unreduced degree would raise q to about
    the 10^12-th power, which the cap turns into a prompt MemoryError."""
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from curvezeta.artin import CurveData\n"
        "from curvezeta.mass import beta_hn_mass\n"
        "c = CurveData(2, 2, [1, -1, 1, -2, 4], genuine=True)\n"
        "start = time.perf_counter()\n"
        "ok = all(beta_hn_mass(c, r, d + 10**12 * r) == beta_hn_mass(c, r, d)"
        " and beta_hn_mass(c, r, d - 10**12 * r) == beta_hn_mass(c, r, d)"
        " for r in (1, 3, 7, 10) for d in range(r))\n"
        "print(ok, time.perf_counter() - start)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src}
    )
    assert done.returncode == 0, done.stderr[-2000:]
    ok, elapsed = done.stdout.split()
    assert ok == "True"
    assert float(elapsed) < 0.5, elapsed


class TestCompositions:
    def test_count(self):
        for r in range(1, 7):
            assert len(list(compositions(r))) == 2 ** (r - 1)

    def test_parts_sum(self):
        for parts in compositions(5):
            assert sum(parts) == 5 and min(parts) >= 1


class TestCompositionFormula:
    def test_rank_one_is_beta0(self, corpus):
        for c in corpus:
            if c.g >= 1:
                assert beta_composition_formula(c, 1) == beta0(c), c.describe()

    def test_rank_two_g1(self, curve_g1):
        # compositions (2) and (1,1): 3*3 - 9/(4-1)
        assert beta_composition_formula(curve_g1, 2) == 6

    def test_rank_two_g2(self, curve_g2):
        # 2 * (5 * 65/6 - 25/3)
        assert beta_composition_formula(curve_g2, 2) == F(275, 3)

    def test_rank_three_g1(self, curve_g1):
        # hand telescope: 99/7 - 27/7 - 27/7 + 3
        assert beta_composition_formula(curve_g1, 3) == F(66, 7)


class TestHnMass:
    def test_v1_block_is_beta0(self, curve_g1):
        assert beta_hn_mass(curve_g1, 1, 0) == 3
        assert beta_hn_mass(curve_g1, 1, 17) == 3  # degree drops out at rank one

    def test_rank_two_degree_zero(self, curve_g1):
        # 9 + 9/(1 - 4)
        assert beta_hn_mass(curve_g1, 2, 0) == 6

    def test_degree_periodicity(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            for r in (2, 3):
                for d in range(r):
                    assert beta_hn_mass(c, r, d) == beta_hn_mass(c, r, d + r), c.describe()
                    assert beta_hn_mass(c, r, d) == beta_hn_mass(c, r, d - r)

    def test_agrees_with_composition_formula(self, curve_g1, curve_g2, corpus):
        # exact at every rank the package covers, beyond the r <= 3 that beta_crosscheck asserts
        for c in [curve_g1, curve_g2, *corpus]:
            if c.g < 1:
                continue
            for r in range(1, 7):
                assert beta_hn_mass(c, r, 0) == beta_composition_formula(c, r), (
                    c.describe(),
                    r,
                )

    def test_block_exponent_is_n_squared(self, curve_g2):
        # the discriminating genus-two check: the literal rank-level
        # exponent in the v_n block would break the rank-two agreement
        q, g = F(2), 2
        h = curve_g2.class_number
        v1_good = h / (q - 1)
        v1_literal = h / (q - 1) * q ** (3 * (g - 1))  # (r^2-1)(g-1) with r=2
        v2 = h / (q - 1) * q ** (3 * (g - 1)) * zeta_plain(curve_g2, 2)
        target = beta_composition_formula(curve_g2, 2)
        good = v2 + q ** (g - 1) * v1_good**2 / (1 - q**2)
        literal = v2 + q ** (g - 1) * v1_literal**2 / (1 - q**2)
        assert good == target
        assert literal != target

    def test_positive_masses(self, corpus):
        for c in corpus:
            if c.genuine and c.g >= 1:
                for r in (1, 2, 3):
                    assert beta_composition_formula(c, r) > 0, c.describe()


class TestCrosscheck:
    def test_g1_table(self, curve_g1):
        rows = beta_crosscheck(curve_g1, 6)
        assert rows[0]["composition"] == 3
        assert rows[1]["composition"] == 6
        assert rows[1]["series_value"] == 6
        assert rows[1]["special_value_variant"] == 0  # flagged, not asserted
        assert [row["r"] for row in rows] == [1, 2, 3, 4, 5, 6]
        assert all(row["agree"] and row["ratio"] == 1 for row in rows)
        assert rows[0]["composition"] == rows[0]["beta0"]

    def test_g2_table(self, curve_g2):
        rows = beta_crosscheck(curve_g2, 6)
        assert [row["r"] for row in rows] == [1, 2, 3, 4, 5, 6]
        assert all(row["agree"] and row["ratio"] == 1 for row in rows)
        assert rows[0]["composition"] == rows[0]["beta0"]
        assert rows[1]["composition"] == rows[1]["series_value"]

    def test_rank_two_matches_series_route(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            assert beta_composition_formula(c, 2) == rank2_invariants(c).beta0, c.describe()

    def test_rank_four_reported(self, curve_g1):
        rows = beta_crosscheck(curve_g1, 4)
        assert len(rows) == 4
        assert "ratio" in rows[3]
        assert rows[3]["agree"]


class TestHnMassExact:
    """beta_r(d) for r = 1..6 and d in [-r, 2r) on the fixture curves."""

    @pytest.fixture
    def fixtures(self, curve_g1, curve_g2):
        return [curve_g1, curve_g2]

    def test_exact_fraction(self, fixtures):
        for c in fixtures:
            for r in range(1, 7):
                for d in range(-r, 2 * r):
                    assert type(beta_hn_mass(c, r, d)) is Fraction, (c.describe(), r, d)

    def test_twist_and_duality(self, fixtures):
        # tensoring by a degree-one line bundle shifts d by r; duality sends d to -d
        for c in fixtures:
            for r in range(1, 7):
                for d in range(-r, 2 * r):
                    value = beta_hn_mass(c, r, d)
                    assert value == beta_hn_mass(c, r, d + r), (c.describe(), r, d)
                    assert value == beta_hn_mass(c, r, -d), (c.describe(), r, d)

    def test_rank_one_is_class_count(self, fixtures):
        for c in fixtures:
            for d in range(-1, 2):
                assert beta_hn_mass(c, 1, d) == c.class_number / (c.q - 1)

    def test_non_divisible_degrees_exact(self):
        # these came out as the floats 3.0, 3.0 and 6.0 while each fractional
        # q-power was applied on its own
        c = CurveData.elliptic(2, 0)
        assert [beta_hn_mass(c, r, d) for r, d in [(3, 1), (3, 2), (4, 2)]] == [3, 3, 6]
