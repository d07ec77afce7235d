"""Rank-one invariants: triangular conversions, gamma, the genus-one oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ratfun_reference import RatFun

from curvezeta.artin import CurveData
from curvezeta.invariants import (
    A_from_alpha,
    alpha_degree,
    alpha_from_A,
    beta0,
    elliptic_oracle,
    gamma,
    invariant_table,
    middle_coefficient_identity_check,
)

F = Fraction


def random_palindromic(rng: random.Random, q: int, g: int) -> CurveData:
    """Synthetic symmetric data; no positivity, just the coefficient symmetry."""
    A = [F(1)] + [F(rng.randint(-40, 40)) for _ in range(g)]
    full = list(A) + [0] * g
    for i in range(g):
        full[2 * g - i] = F(q) ** (g - i) * full[i]
    return CurveData(q, g, full)


def triangular_alphas(A, q, count: int) -> list[Fraction]:
    """The definition: alpha_i = sum_{j<=i} (q^{i-j+1} - 1)/(q - 1) * A_j,
    with A_j = 0 past the end of A."""
    q = F(q)
    out = []
    for i in range(count):
        acc = F(0)
        for j in range(min(i, len(A) - 1) + 1):
            acc += (q ** (i - j + 1) - 1) / (q - 1) * A[j]
        out.append(acc)
    return out


class TestAlphaFromA:
    # q itself, or Q = q^r as the SL_r and rank-two ratios use it
    @given(
        st.lists(st.fractions(max_denominator=50), min_size=1, max_size=12),
        st.builds(pow, st.sampled_from((2, 3, 5, 7)), st.integers(1, 10)) | st.just(1000003**3),
        st.integers(0, 15),
    )
    @example([F(1), F(-3, 2), F(7)], 1000003**3, 15)
    @settings(max_examples=200, deadline=None)
    def test_recurrence_matches_definition(self, A, q, count):
        got = alpha_from_A(A, q, count)
        assert got == triangular_alphas(A, q, count)
        assert all(type(a) is Fraction for a in got)

    def test_alpha0_is_one(self, corpus):
        for c in corpus:
            assert alpha_from_A(c.A, c.q, c.g)[0] == 1

    def test_quintic_alpha1(self, curve_g2):
        assert alpha_from_A(curve_g2.A, curve_g2.q, curve_g2.g) == [1, 3]

    def test_synthetic_genus3(self):
        c = CurveData(2, 3, [1, 1, 2, 6, 4, 4, 8])
        assert alpha_from_A(c.A, c.q, c.g) == [1, 4, 12]

    def test_genus_zero_unsupported(self):
        with pytest.raises(ValueError, match="genus >= 1"):
            invariant_table(CurveData(2, 0, [1], genuine=True))


class TestAFromAlpha:
    def test_worked_example(self):
        assert A_from_alpha([1, 3], 5, 2, 2) == [1, 0, 0]

    def test_genus_one_closed_form(self):
        assert A_from_alpha([1], 3, 2, 1) == [1, 0]

    def test_roundtrip_200_random(self):
        rng = random.Random(20260810)
        for _ in range(200):
            q = rng.choice([2, 3, 4, 5])
            g = rng.randint(2, 10)
            c = random_palindromic(rng, q, g)
            back = A_from_alpha(alpha_from_A(c.A, q, g), beta0(c), q, g)
            assert back == list(c.A[: g + 1])
            assert middle_coefficient_identity_check(c)

    def test_roundtrip_genus_one(self):
        rng = random.Random(7)
        for _ in range(50):
            q = rng.choice([2, 3, 4, 5])
            c = random_palindromic(rng, q, 1)
            assert A_from_alpha(alpha_from_A(c.A, q, 1), beta0(c), q, 1) == list(c.A[:2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            A_from_alpha([1, 2, 3], 1, 2, 2)


class TestBeta0:
    def test_examples(self, curve_g1, curve_g2):
        assert beta0(curve_g1) == 3
        assert beta0(curve_g2) == 5
        assert beta0(CurveData(3, 1, [1, -1, 3])) == F(3, 2)


class TestGamma:
    def test_beyond_special_range(self, curve_g1):
        assert gamma(curve_g1, 2) == 12

    def test_at_zero(self, curve_g1, curve_g2):
        assert gamma(curve_g1, 0) == 4
        assert gamma(curve_g2, 0) == 6

    def test_alpha_is_series_coefficient(self, corpus):
        # alpha_degree expands the series by alpha_from_A, asked in either order
        # on a fresh curve; the reference expands the reduced Z(t) by long division
        rng = random.Random(10)
        rational = [
            CurveData(3, 2, [1, F(1, 2), F(2, 3), 5, F(-1, 7)]),
            CurveData(2, 1, [1, F(-11, 3), 2]),
            CurveData(2, 1, [1, 1, 1]),
        ]
        synthetic = [random_palindromic(rng, q, g) for q, g in [(2, 3), (3, 2), (7, 4)]]
        for c in [*corpus, *rational, *synthetic]:
            series = RatFun.of(c.zeta_ratfun()).series(2 * c.g + 3)
            ds = range(-1, 2 * c.g + 4)
            for order in (ds, reversed(ds)):
                fresh = CurveData(c.q, c.g, c.A, genuine=c.genuine, label=c.label)
                for d in order:
                    got = alpha_degree(fresh, d)
                    assert got == (series[d] if d >= 0 else 0), (c.describe(), d)
                    assert type(got) is Fraction

    def test_alpha_duality_with_tail(self, corpus):
        # for g <= d <= 2g-2: alpha(d) = q^{d-g+1} alpha(2g-2-d) + b0 (q^{d-g+1}-1)
        for c in corpus:
            if c.g < 2:
                continue
            q, g = F(c.q), c.g
            for d in range(g, 2 * g - 1):
                expect = q ** (d - g + 1) * alpha_degree(c, 2 * g - 2 - d) + beta0(c) * (
                    q ** (d - g + 1) - 1
                )
                assert alpha_degree(c, d) == expect

    def test_closed_form_tail_consistency(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            d = 2 * c.g + 1
            assert gamma(c, d) == alpha_degree(c, d) + beta0(c)


class TestClosingRowIdentity:
    def test_fixture(self, curve_g2):
        assert middle_coefficient_identity_check(curve_g2)

    def test_broken_by_perturbation(self):
        assert not middle_coefficient_identity_check(CurveData(2, 2, [1, 0, 0, 0, 5]))

    def test_needs_genus_two(self, curve_g1):
        with pytest.raises(ValueError):
            middle_coefficient_identity_check(curve_g1)


class TestEllipticOracle:
    def test_supersingular_q2(self):
        bn, table = elliptic_oracle(2, 0, 2)
        assert bn.w[(0, 1)] == 1 and bn.w[(0, 0)] == 2
        assert table.alphas == (1,)
        assert table.beta0 == 3
        assert table.gammas[0] == 4

    def test_class_number_one(self):
        _, table = elliptic_oracle(2, 2, 0)
        assert table.gammas[0] == 2  # q/(q-1) holds exactly when h = 1

    def test_q3_gamma1(self):
        _, table = elliptic_oracle(3, 0, 1)
        assert table.gammas[1] == 6

    def test_trace_bound(self):
        with pytest.raises(ValueError):
            elliptic_oracle(3, 4, 0)

    @pytest.mark.parametrize("q,a", [(2, 0), (2, -2), (3, 1), (4, -3), (5, 4)])
    def test_oracle_agrees_with_zeta_route(self, q, a):
        curve = CurveData.elliptic(q, a)
        # the CLI's elliptic_oracle check: the whole table at dmax = 2
        assert elliptic_oracle(q, a, 2)[1] == invariant_table(curve)
        _, table = elliptic_oracle(q, a, 4)
        assert table.alphas == (alpha_from_A(curve.A, q, 1)[0],)
        assert table.beta0 == beta0(curve)
        for d in range(5):
            assert table.gammas[d] == gamma(curve, d)

    def test_brill_noether_invariants(self):
        for q, a in [(2, 1), (3, -2), (5, 0)]:
            bn, _ = elliptic_oracle(q, a, 3)
            bn.check(3)
            assert elliptic_oracle(q, a, 2)[1] == invariant_table(CurveData.elliptic(q, a))


def test_invariant_table_shape(curve_g2):
    table = invariant_table(curve_g2)
    assert table.r == 1
    assert len(table.alphas) == curve_g2.g
    assert set(table.gammas) == set(range(2 * curve_g2.g + 1))
    for d, val in table.gammas.items():
        assert val == alpha_degree(curve_g2, d) + table.beta0


def test_alpha_degree_rejects_genus_zero():
    with pytest.raises(ValueError, match="genus >= 1"):
        alpha_degree(CurveData(2, 0, [1], genuine=True), 0)
