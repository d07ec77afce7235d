"""Root systems, the SL_r assembly, the period oracle, RH reports."""

import math
import random
from fractions import Fraction

import pytest

from curvezeta.artin import CurveData, zeta_hat_ratfun
from curvezeta.exact import Poly, RationalFunction, ratfun_equal
from curvezeta.group_zeta import (
    _factored_sum,
    _FactoredTerm,
    _p2_divide_one_minus_u1,
    _weyl_terms_r3,
    build_root_system,
    period_residue_oracle,
    period_sum_r2,
    slr_fe_check,
    slr_numerator,
    slr_rh_report,
    slr_zeta,
)
from curvezeta.rank2 import rank2_closed_form, rank2_invariants, rank2_numerator

F = Fraction

# the synthetic genus-3 datum of the criterion-10 CLI job
GENUS3_DATUM = CurveData(2, 3, [1, 1, 2, 6, 4, 4, 8], label="genus-3 datum")


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
        rs, _ = build_root_system(4)
        assert len(rs.weyl) == 24
        assert len(rs.positive_roots) == 6

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_flips_equal_inversions(self, r):
        rs, _ = build_root_system(r)
        for w in rs.weyl:
            assert len(rs.flipped_positive_roots(w)) == w.inversions()

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_weight_and_rho_pairings(self, r):
        rs, _ = build_root_system(r)  # eager checks run in the constructor
        for a in rs.positive_roots:
            assert rs.pairing(rs.rho, a) == a[1] - a[0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_root_system(7)
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

    def test_rank2_combined_display(self, corpus):
        # zh(s+1)/(1-q^{s+2}) + zh(s+2)/(1-q^{-s}), assembled independently
        for c in corpus:
            if c.g < 1:
                continue
            q = F(c.q)
            z = slr_zeta(c, 2)
            expect = zeta_hat_ratfun(c, shift=1) * RationalFunction(
                [0, 1], [-q * q, 1]
            ) + zeta_hat_ratfun(c, shift=2) * RationalFunction([1], [1, -1])
            assert ratfun_equal(z.combined, expect), c.describe()

    def test_rank2_reproduces_closed_form(self, corpus):
        for c in corpus:
            if c.g < 1:
                continue
            z = slr_zeta(c, 2)
            Fm, shift = rank2_closed_form(c)
            lhs = z.combined.reciprocal_arg(1)  # the function of T
            rhs = Fm * RationalFunction.t(-shift)
            assert ratfun_equal(lhs, rhs), c.describe()

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_functional_equation_fixtures(self, r, curve_g1, curve_g2):
        assert slr_fe_check(slr_zeta(curve_g1, r))
        assert slr_fe_check(slr_zeta(curve_g2, r))

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

    def test_broken_term_breaks_fe(self, curve_g1):
        import dataclasses

        z = slr_zeta(curve_g1, 2)
        broken = dataclasses.replace(
            z, combined=z.combined + zeta_hat_ratfun(curve_g1, shift=1)
        )
        assert not slr_fe_check(broken)


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
        assert period_sum_r2(curve_g1, identity_only=True) == RationalFunction([1], [1, -1])

    def test_rank2_constant_is_one(self, corpus):
        for c in corpus[:6]:
            if c.g < 1:
                continue
            _, ratio = period_residue_oracle(c, 2)
            assert ratio == 1, c.describe()

    def test_rank3_constant_is_one(self, curve_g1, curve_g2):
        for c in (curve_g1, curve_g2, GENUS3_DATUM):
            _, ratio = period_residue_oracle(c, 3)
            assert ratio == 1, c.describe()

    @pytest.mark.parametrize("q, g, seed", [(2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 4)])
    def test_rank3_constant_is_one_elliptic_products(self, q, g, seed):
        c = elliptic_product(q, g, seed)
        _, ratio = period_residue_oracle(c, 3)
        assert ratio == 1, c.describe()

    @pytest.mark.parametrize("curve", ["g1", "genus3"])
    def test_rank3_sum_matches_termwise_values(self, curve, curve_g1):
        # each Weyl term evaluated on its own from root pairings and zeta_hat_ratfun
        c = curve_g1 if curve == "g1" else GENUS3_DATUM
        rs, _ = build_root_system(3)
        lam, rho = rs.fundamental_weights, rs.rho
        q = F(c.q)
        num, den = _factored_sum(_weyl_terms_r3(c))
        for u in [(F(1, 5), F(1, 7)), (F(3, 11), F(-2, 13)), (F(7, 3), F(5, 17))]:

            def u_root(root):  # u1^<w1, root^> * u2^<w2, root^>
                return u[0] ** int(rs.pairing(lam[0], root)) * u[1] ** int(rs.pairing(lam[1], root))

            expect = F(0)
            for w in rs.weyl:
                v = w.inverse()
                term = F(1)
                for alpha in rs.simple_roots:
                    beta = v.apply(alpha)
                    term /= 1 - q ** (1 - rs.pairing(rho, beta)) * u_root(beta)
                for a in rs.flipped_positive_roots(w):
                    h = int(rs.pairing(rho, a))
                    term *= zeta_hat_ratfun(c, shift=h).evaluate(u_root(a))
                    term /= zeta_hat_ratfun(c, shift=h + 1).evaluate(u_root(a))
                expect += term

            def value(p):
                return sum(v * u[0] ** i * u[1] ** j for (i, j), v in p.items())

            assert value(den) != 0
            assert value(num) / value(den) == expect, u

    def test_factored_sum_repeated_factor_and_negative_monomial(self):
        # u1^{-1} / (1 - u1)^2 + 3 u2 / (2 - 2 u1)
        a, b = _FactoredTerm(), _FactoredTerm()
        a.mul({(-1, 0): F(1)}, 1)
        a.mul({(0, 0): F(1), (1, 0): F(-1)}, -2)
        b.mul({(0, 1): F(3)}, 1)
        b.mul({(0, 0): F(2), (1, 0): F(-2)}, -1)
        num, den = _factored_sum([a, b])
        assert min(min(k) for k in [*num, *den]) >= 0
        for u1, u2 in [(F(1, 3), F(2, 5)), (F(-4, 7), F(9, 2))]:

            def value(p):
                return sum(v * u1**i * u2**j for (i, j), v in p.items())

            expect = 1 / (u1 * (1 - u1) ** 2) + 3 * u2 / (2 - 2 * u1)
            assert value(num) / value(den) == expect

    def test_divide_one_minus_u1_exact(self):
        b = {(0, 0): F(2), (1, 1): F(-3), (2, 0): F(1, 2), (0, 3): F(5)}
        a = {}
        for (i, j), v in b.items():  # a = (1 - u1) * b
            a[(i, j)] = a.get((i, j), 0) + v
            a[(i + 1, j)] = a.get((i + 1, j), 0) - v
        a = {k: v for k, v in a.items() if v}
        assert _p2_divide_one_minus_u1(a) == b
        assert _p2_divide_one_minus_u1({}) == {}

    def test_divide_one_minus_u1_inexact(self):
        assert _p2_divide_one_minus_u1({(0, 0): F(1), (1, 0): F(1)}) is None  # 1 + u1
        # 1 - u1 + u2: the u2 column leaves a remainder
        assert _p2_divide_one_minus_u1({(0, 0): F(1), (1, 0): F(-1), (0, 1): F(1)}) is None

    def test_rank4_unsupported(self, curve_g1):
        with pytest.raises(ValueError):
            period_residue_oracle(curve_g1, 4)


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

    def test_rank3_report_emitted(self, curve_g1):
        rep = slr_rh_report(slr_zeta(curve_g1, 3))
        assert isinstance(rep.verdict, bool)
        assert len(rep.zeros) + len(rep.excluded) == 2


def test_supply_covers_all_denominators(corpus):
    """The clearing multiplier leaves no zeta value downstairs for r <= 5."""
    c = next(c for c in corpus if c.g == 1)
    for r in (2, 3, 4, 5):
        slr_zeta(c, r)  # raises ConventionError on a negative leftover exponent
