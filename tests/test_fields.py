"""Finite-field construction and naive point counting."""

import json
import random
import textwrap
from collections.abc import Iterator
from math import gcd, isqrt
from pathlib import Path

import pytest
import yaml

from curvezeta import fields
from curvezeta.artin import counts_from_numerator, numerator_from_counts
from curvezeta.exact import _squarefree_mod_prime
from curvezeta.fields import (
    CurveModel,
    _field_tables,
    _is_prime,
    _prime_factors,
    census,
    count_points,
    is_prime_power,
)

from corpus import census_models


# Test-local field arithmetic on codes sum(d_i p^i): a schoolbook product
# modulo the modulus the tables report, independent of the tables themselves.
def _digits(code: int, p: int, m: int) -> list[int]:
    return [code // p**i % p for i in range(m)]


def _code(digits: list[int], p: int) -> int:
    return sum(d * p**i for i, d in enumerate(digits))


def _add(a: int, b: int, p: int, m: int) -> int:
    return _code([(x + y) % p for x, y in zip(_digits(a, p, m), _digits(b, p, m))], p)


def _mul(a: int, b: int, p: int, modulus: tuple[int, ...]) -> int:
    m = len(modulus) - 1
    out = [0] * (2 * m - 1)
    for i, ai in enumerate(_digits(a, p, m)):
        for j, bj in enumerate(_digits(b, p, m)):
            out[i + j] = (out[i + j] + ai * bj) % p
    for k in range(len(out) - 1, m - 1, -1):
        c, out[k] = out[k], 0
        for j in range(m):
            out[k - m + j] = (out[k - m + j] - c * modulus[j]) % p
    return _code(out[:m], p)


def _pow(a: int, e: int, p: int, modulus: tuple[int, ...]) -> int:
    result = 1
    while e:
        if e & 1:
            result = _mul(result, a, p, modulus)
        a = _mul(a, a, p, modulus)
        e >>= 1
    return result


def _candidate_moduli(p: int, m: int) -> Iterator[list[int]]:
    """Low digits [c_0, ..., c_{m-1}] of the moduli x^m + sum(c_i x^i), in the
    order of sum(c_i p^i), less those that cannot make x primitive.

    Skipped: c_0 = 0 (x divides the modulus); a norm (-1)^m c_0 that does not
    generate F_p^*, since the norm of x is x^((p^m - 1)/(p - 1)), which has
    order p - 1 when x does have order p^m - 1 (Lidl and Niederreiter, Finite
    Fields, Thm. 3.18); and, for m > 1, a root in F_p^*, which makes the
    modulus reducible.
    """
    weights = [p**i for i in range(m)]
    norm_exponents = [(p - 1) // ell for ell in _prime_factors(p - 1)]
    for code in range(1, p**m):
        low = [code // w % p for w in weights]
        norm = low[0] if m % 2 == 0 else -low[0] % p
        if not norm or any(pow(norm, e, p) == 1 for e in norm_exponents):
            continue
        if m > 1 and any(_is_root(low, a, p) for a in range(1, p)):
            continue
        yield low


def _is_root(low: list[int], a: int, p: int) -> bool:
    v = 1  # Horner on the monic x^m + sum(low[i] x^i)
    for c in reversed(low):
        v = (v * a + c) % p
    return v == 0


def _is_primitive(low: list[int], p: int) -> bool:
    """The order test for m >= 2: with n = p^m - 1, x^n = 1 and x^(n/l) != 1
    for every prime l dividing n, so x has order n modulo x^m + sum(c_i x^i),
    which makes that modulus primitive."""
    modulus = tuple(low) + (1,)
    n = p ** len(low) - 1
    x = p  # the code of x
    return _pow(x, n, p, modulus) == 1 and all(_pow(x, n // ell, p, modulus) != 1 for ell in _prime_factors(n))


def recorded_moduli_text(cap: int = fields.FIELD_CAP) -> str:
    """``fields._PRIMITIVE_MODULI_TEXT`` re-derived by the search: for every
    prime p and m >= 2 with p^m <= cap, the code of the first candidate that
    the screen keeps and the order test passes.  Regenerate the table with
    this when ``FIELD_CAP`` changes."""
    tokens = []
    for p in filter(_is_prime, range(2, isqrt(cap) + 1)):
        m = 2
        while p**m <= cap:
            code = next(_code(low, p) for low in _candidate_moduli(p, m) if _is_primitive(low, p))
            tokens.append(f"{p}^{m}={code}")
            m += 1
    return "\n" + "\n".join(textwrap.wrap(" ".join(tokens), 79)) + "\n"


def brute_force_count(model: CurveModel, m: int) -> int:
    """Independent oracle: enumerate (x, y) pairs and test the equation."""
    p = model.q
    modulus = _field_tables(p, m)[0]
    total = 1
    for x in range(p**m):
        z = 0
        for c in reversed(model.f):
            z = _add(_mul(z, x, p, modulus), c % p, p, m)
        for y in range(p**m):
            lhs = _mul(y, y, p, modulus)
            if model.kind == "artin_schreier":
                lhs = _add(lhs, y, p, m)
            if lhs == z:
                total += 1
    return total


# Every field F_{p^m} with p <= 13 and p^m <= 2**12.
SMALL_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 13) if p**m <= 2**12]

# Beyond SMALL_FIELDS: x^9 + 2x^3 + x^2 + 1 carries out of two digits above
# digit 0; over F_131 a digit holds more than 7 bits; a prime field's walk
# has no digit above digit 0.
WALK_FIELDS = [(3, 9), (131, 2), (8191, 1)]


def unfiltered_tables(p: int, m: int) -> tuple[tuple[int, ...], list[int], list[int], int]:
    """The table search without screening: every modulus x^m + ... that x
    does not divide is walked, in the order of sum(c_i p^i)."""
    size = p**m
    order, top = size - 1, size // p
    weights = [p**i for i in range(m)]
    for code in range(1, size):
        if code % p == 0:
            continue
        low = [code // w % p for w in weights]
        fold = [(w, -c % p) for w, c in zip(weights, low) if c]
        exp, log = [0] * order, [0] * size
        z = 1
        for k in range(1, size):
            exp[k - 1], log[z] = z, k - 1
            d, z = divmod(z, top)
            z *= p
            if d:
                for w, b in fold:
                    old = z // w % p
                    z += ((old + d * b) % p - old) * w
            if z == 1:
                break
        if z != 1 or k != order:
            continue
        trace_mask = 0
        if p == 2:
            for i in range(m):
                t = 0
                for j in range(m):
                    t ^= exp[(i << j) % order]
                trace_mask |= t << i
        return tuple(low) + (1,), exp, log, trace_mask
    raise AssertionError("no primitive modulus")


def primitive_moduli(p: int, m: int) -> set[tuple[int, ...]]:
    """Low digits of every primitive modulus of F_{p^m}: the minimal polynomial
    prod_j (X - a^(p^j)) of each generator a, multiplied out with the tables."""
    _, exp, log, _ = _field_tables(p, m)
    order = p**m - 1
    digits = [_digits(z, p, m) for z in range(p**m)]

    def minus_times(a: int, b: int, c: int) -> int:  # a - b * c
        if not (b and c):
            return a
        bc = exp[(log[b] + log[c]) % order]
        return a ^ bc if p == 2 else _code([(x - y) % p for x, y in zip(digits[a], digits[bc])], p)

    out = set()
    for k in range(order):
        orbit = [k * p**j % order for j in range(m)]
        if gcd(k, order) != 1 or min(orbit) != k:
            continue
        poly = [1]  # constant term first, coefficients in F_{p^m}
        for j in orbit:  # poly * (X - exp[j])
            poly = [minus_times(high, low, exp[j]) for high, low in zip([0] + poly, poly + [0])]
        assert all(c < p for c in poly), "minimal polynomial outside F_p[X]"
        out.add(tuple(poly[:m]))
    return out


def per_element_count(model: CurveModel, m: int) -> int:
    """N_m with one Horner evaluation of f at every element of F_{p^m}."""
    p = model.q
    _, exp, log, trace_mask = _field_tables(p, m)
    order = p**m - 1

    def points_over(z: int) -> int:
        if model.kind == "quadratic":
            return 1 if z == 0 else 2 - 2 * (log[z] & 1)
        return 2 - 2 * ((z & trace_mask).bit_count() & 1)

    total = 1 + points_over(model.f[0] % p)  # infinity and x = 0
    for lx in range(order):
        z = 0
        for c in reversed(model.f):
            if z:
                z = exp[(log[z] + lx) % order]
            z += (z % p + c) % p - z % p
        total += points_over(z)
    return total


def random_model(p: int, rng: random.Random) -> CurveModel:
    kind = "artin_schreier" if p == 2 else "quadratic"
    while True:
        deg = rng.choice((3, 5, 7))
        f = tuple(rng.randrange(p) for _ in range(deg)) + (rng.randrange(1, p),)
        try:
            return CurveModel(kind, p, f)
        except ValueError:  # not squarefree
            continue


# Even-degree terms, which the trace folds onto odd powers: x^2 and x^4 onto
# x, x^6 onto x^3, so that the x^3 terms cancel and x counts once.
EVEN_TERMS = CurveModel(
    "artin_schreier", 2, (1, 1, 1, 1, 1, 0, 1, 0, 0, 1), label="y^2+y=x^9+x^6+x^4+x^3+x^2+x+1/F2"
)


def _smallest_factor(n: int) -> int:
    return next(d for d in range(2, n + 1) if n % d == 0)


class TestPrimality:
    def test_agree_with_brute_force(self):
        for n in range(10**4):
            p = _smallest_factor(n) if n >= 2 else 0
            assert _is_prime(n) == (n >= 2 and p == n), n
            m = n
            while p and m % p == 0:
                m //= p
            assert is_prime_power(n) == (n >= 2 and m == 1), n

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
            3825123056546413051,  # ... to every prime base up to 31
            318665857834031151167461,  # ... to every prime base up to 37
        ],
    )
    def test_strong_pseudoprimes_read_composite(self, n):
        assert not _is_prime(n)
        assert not is_prime_power(n)

    @pytest.mark.parametrize("n", [10**15 + 37, 2**103, 3**64, (10**6 + 3) ** 2])
    def test_large_prime_powers(self, n):
        assert is_prime_power(n)

    @pytest.mark.parametrize("n", [(10**6 + 3) * (10**6 + 33), 2 * (10**15 + 37)])
    def test_large_non_prime_powers(self, n):
        assert not is_prime_power(n)

    def test_no_witness_above_the_bound_is_refused(self):
        # 2^89 - 1 is prime, but above _MR_BOUND the bases 2..41 certify nothing
        for n in (2**89 - 1, (2**89 - 1) ** 2):
            with pytest.raises(ValueError, match="cannot be certified prime"):
                is_prime_power(n)
        # a witness still proves compositeness above the bound
        assert not is_prime_power((2**61 - 1) * (2**31 - 1))


class TestBuildField:
    def test_smallest_moduli(self):
        assert _field_tables(2, 2)[0] == (1, 1, 1)  # x^2 + x + 1
        assert _field_tables(2, 3)[0] == (1, 1, 0, 1)  # x^3 + x + 1
        # x^2 + 1 is irreducible over F_3 but x has order 4 there, not 8
        assert _field_tables(3, 2)[0] == (2, 1, 1)  # x^2 + x + 2

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            _field_tables(4, 1)

    def test_rejects_oversized_field(self):
        with pytest.raises(ValueError):
            _field_tables(2, 21)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 2), (5, 2), (2, 10)])
    def test_multiplicative_order_divides_group(self, p, m):
        modulus = _field_tables(p, m)[0]
        for z in range(1, p**m):
            assert _pow(z, p**m - 1, p, modulus) == 1

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 2), (2, 10)])
    def test_walk_first_returns_at_group_order(self, p, m):
        modulus, exp, _, _ = _field_tables(p, m)
        x = -modulus[0] % p if m == 1 else p  # x modulo x + c_0 is -c_0
        assert len(exp) == p**m - 1
        z = 1
        for k in range(p**m - 1):
            assert exp[k] == z
            z = _mul(z, x, p, modulus)
            assert (z == 1) == (k == p**m - 2)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 7), (3, 4), (5, 3), (13, 1)])
    def test_exp_and_log_are_inverse(self, p, m):
        _, exp, log, _ = _field_tables(p, m)
        assert sorted(exp) == list(range(1, p**m))
        assert all(log[exp[k]] == k for k in range(p**m - 1))
        assert all(exp[log[z]] == z for z in range(1, p**m))

    def test_trace_is_additive_and_onto(self):
        for m in (1, 3, 6):
            modulus, _, _, mask = _field_tables(2, m)
            traces = []
            for z in range(2**m):
                acc = 0
                for _ in range(m):  # z + z^2 + ... + z^(2^(m-1))
                    acc, z = _add(acc, z, 2, m), _mul(z, z, 2, modulus)
                traces.append(acc)
            assert traces == [(z & mask).bit_count() & 1 for z in range(2**m)]
            assert set(traces) == {0, 1}
            pairs = [(a, b) for a in range(2**m) for b in range(2**m)]
            assert all(traces[a ^ b] == traces[a] ^ traces[b] for a, b in pairs)

    @pytest.mark.parametrize("p,m", SMALL_FIELDS + WALK_FIELDS)
    def test_same_tables_as_unfiltered_search(self, p, m):
        modulus, exp, log, trace_mask = _field_tables(p, m)
        assert (modulus, list(exp), list(log), trace_mask) == unfiltered_tables(p, m)

    @pytest.mark.parametrize("p,m", SMALL_FIELDS)
    def test_screened_moduli_are_never_primitive(self, p, m):
        # a modulus walks to p^m - 1 exactly when it is the minimal polynomial
        # of a generator; no such modulus may be screened out
        primitive = primitive_moduli(p, m)
        kept = {tuple(low) for low in _candidate_moduli(p, m)}
        assert primitive <= kept
        # the oracle is complete: each primitive modulus has m generators as roots
        assert len(primitive) * m == len([k for k in range(p**m - 1) if gcd(k, p**m - 1) == 1])

    def test_recorded_moduli_cover_every_extension_field(self):
        cap = fields.FIELD_CAP
        fields_up_to_cap = {
            f"{p}^{m}"
            for p in filter(_is_prime, range(2, isqrt(cap) + 1))
            for m in range(2, cap.bit_length())
            if p**m <= cap
        }
        assert set(fields._PRIMITIVE_MODULI) == fields_up_to_cap

    def test_recorded_moduli_are_the_search_results(self):
        # CI compares all of them, which takes about 15 s
        bound = 2**16
        searched = dict(token.split("=") for token in recorded_moduli_text(bound).split())
        recorded = {}
        for field, code in fields._PRIMITIVE_MODULI.items():
            p, m = map(int, field.split("^"))
            if p**m <= bound:
                recorded[field] = code
        assert searched == recorded

    @pytest.mark.parametrize(
        "p, m, code",
        [
            (2, 4, "15"),  # x^4 + x^3 + x^2 + x + 1: irreducible, but x has order 5
            (3, 2, "2"),  # x^2 + 2 = (x - 1)(x + 1)
        ],
    )
    def test_bad_recorded_modulus_raises(self, p, m, code, monkeypatch):
        monkeypatch.setitem(fields._PRIMITIVE_MODULI, f"{p}^{m}", code)
        _field_tables.cache_clear()
        with pytest.raises(ArithmeticError, match=rf"F_{p}\^{m}: .* not primitive"):
            _field_tables(p, m)
        assert _field_tables.cache_info().currsize == 0

    def test_screen_drops_bad_norms_and_roots(self):
        assert (1, 0) not in map(tuple, _candidate_moduli(3, 2))  # norm 1 of x^2 + 1
        kept = set(map(tuple, _candidate_moduli(5, 2)))
        assert (2, 3) not in kept  # (x + 1)(x + 2), though its norm 2 generates F_5^*
        assert (2, 1) in kept  # x^2 + x + 2: norm 2, no root in F_5
        assert (1, 0) not in map(tuple, _candidate_moduli(2, 2))  # x^2 + 1 = (x + 1)^2


def _gcd_fp(a: list[int], b: list[int], p: int) -> list[int]:
    """Reference: gcd over F_p by schoolbook Euclid, constant term first."""

    def trim(v: list[int]) -> list[int]:
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        r = list(a)
        while len(r) >= len(b):
            c = r[-1] * inv % p
            k = len(r) - len(b)
            for j, bj in enumerate(b):
                r[k + j] = (r[k + j] - c * bj) % p
            trim(r)
        a, b = b, r
    return a


class TestCountPoints:
    def test_projective_line(self):
        model = CurveModel("projective_line", 2)
        assert count_points(model, 1) == 3
        assert count_points(model, 4) == 17

    def test_binary_cubic(self):
        model = CurveModel("artin_schreier", 2, (0, 0, 0, 1))
        assert count_points(model, 1) == 3
        assert count_points(model, 2) == 9

    def test_binary_quintic(self):
        model = CurveModel("artin_schreier", 2, (0, 0, 0, 0, 0, 1))
        assert count_points(model, 1) == 3
        assert count_points(model, 2) == 5

    @pytest.mark.parametrize("model", census_models() + [EVEN_TERMS], ids=lambda m: m.describe())
    def test_character_count_matches_brute_force(self, model):
        if model.kind == "projective_line":
            pytest.skip("nothing to enumerate")
        for m in (1, 2):
            assert count_points(model, m) == brute_force_count(model, m)

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            CurveModel("artin_schreier", 2, (0, 0, 1))

    def test_non_squarefree_rejected(self):
        # x^3 + 2x^2 + x = x (x+1)^2 over F_3
        with pytest.raises(ValueError):
            CurveModel("quadratic", 3, (0, 1, 2, 1))

    @pytest.mark.parametrize("p, top", [(3, 5), (5, 5), (7, 4)])
    def test_squarefree_rule_matches_euclid_reference(self, p, top):
        # every f of degree 1..top over F_p: the shared F_p test agrees with
        # gcd(f, f') by the reference, and CurveModel accepts exactly the f of
        # odd degree that pass it
        for deg in range(1, top + 1):
            for code in range((p - 1) * p**deg):
                f = tuple(_digits(code % p**deg, p, deg)) + (code // p**deg + 1,)
                deriv = [i * c % p for i, c in enumerate(f)][1:]
                squarefree = len(_gcd_fp(f, deriv, p)) == 1
                assert _squarefree_mod_prime(f, p) == squarefree, (p, f)
                try:
                    CurveModel("quadratic", p, f)
                except ValueError:
                    accepted = False
                else:
                    accepted = True
                assert accepted == (deg % 2 == 1 and squarefree), (p, f)

    def test_quadratic_needs_odd_characteristic(self):
        with pytest.raises(ValueError):
            CurveModel("quadratic", 2, (0, 0, 0, 1))

    @pytest.mark.parametrize("p,m", SMALL_FIELDS)
    def test_orbit_count_matches_per_element_count(self, p, m):
        rng = random.Random(1000 * p + m)
        models = [random_model(p, rng) for _ in range(2)] + ([EVEN_TERMS] if p == 2 else [])
        for model in models:
            assert count_points(model, m) == per_element_count(model, m), model.describe()

    @pytest.mark.parametrize(
        "f",
        [
            (1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1),  # x^13 + x^12 + x^6 + x^3 + 1
            (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),  # x^15 + x^12 + x^2 + x + 1
            (0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),  # x^17 + x^12 + x^6 + x^3
        ],
        ids=["shared-odd-part-3", "cancelled-x", "no-constant"],
    )
    def test_whole_table_trace_count_matches_per_element_count(self, f):
        # Tr(1) = m mod 2, so c_0 = 1 flips the traces at odd m only; x^3, x^6
        # and x^12 share the odd part 3, and x^2 cancels x
        model = CurveModel("artin_schreier", 2, f)
        for m in range(1, 11):
            assert count_points(model, m) == per_element_count(model, m), m
        assert [count_points(model, m) for m in (1, 2)] == [brute_force_count(model, m) for m in (1, 2)]


class TestCensus:
    def test_genus_zero_needs_no_counts(self):
        rows = census([CurveModel("projective_line", 3)])
        assert rows[0][1] == []

    def test_over_cap_model_fails_before_counting(self, monkeypatch):
        def no_counting(model, m):
            raise AssertionError("counted a field")

        monkeypatch.setattr(fields, "count_points", no_counting)
        genus_21 = CurveModel("artin_schreier", 2, (0,) * 43 + (1,))
        with pytest.raises(ValueError, match=f"genus 21 .*cap {fields.FIELD_CAP}"):
            census([CurveModel("artin_schreier", 2, (0, 0, 0, 1)), genus_21])

    def test_cubic_and_quintic_rows(self):
        rows = census(
            [
                CurveModel("artin_schreier", 2, (0, 0, 0, 1)),
                CurveModel("artin_schreier", 2, (0, 0, 0, 0, 0, 1)),
            ]
        )
        assert rows[0][1] == [3]
        assert rows[1][1] == [3, 5]

    @pytest.mark.parametrize("model", census_models(), ids=lambda m: m.describe())
    def test_weil_bound(self, model):
        g = model.genus
        for m in range(1, max(2 * g, 1) + 1):
            n = count_points(model, m)
            q_m = model.q**m
            assert abs(n - (q_m + 1)) <= 2 * g * q_m**0.5 + 1e-9

    @pytest.mark.parametrize("model", census_models(), ids=lambda m: m.describe())
    def test_counts_roundtrip_through_numerator(self, model):
        if model.genus == 0:
            return
        [(_, counts)] = census([model])
        c = numerator_from_counts(model.q, model.genus, counts)
        for m in range(1, 2 * c.g + 1):
            assert counts_from_numerator(c, m) == count_points(model, m)


# N_1..N_m over fields beyond the brute-force oracle's reach, as counted by an
# earlier implementation with coefficient-tuple elements and one
# exponentiation per character or trace test.
@pytest.mark.parametrize(
    "model, counts",
    [
        (
            CurveModel("artin_schreier", 2, (0, 0, 0, 0, 0, 0, 0, 1)),
            [3, 5, 3, 17, 33, 101, 129, 257, 633, 1025, 2049, 4049, 8193, 16385],
        ),
        (CurveModel("quadratic", 3, (1, 0, 2, 0, 0, 1)), [5, 9, 38, 105, 215, 738, 2021, 6609]),
        (CurveModel("quadratic", 5, (1, 2, 0, 0, 0, 1)), [6, 26, 126, 726, 3126]),
    ],
    ids=lambda v: v.describe() if isinstance(v, CurveModel) else f"N1-N{len(v)}",
)
def test_recorded_counts_over_larger_fields(model, counts):
    assert [count_points(model, m) for m in range(1, len(counts) + 1)] == counts
    # N_1..N_g fix the Weil numerator, which fixes every later count
    c = numerator_from_counts(model.q, model.genus, counts[: model.genus])
    assert [counts_from_numerator(c, m) for m in range(1, len(counts) + 1)] == counts


def test_field_cap_counts_agree_with_job_on_small_fields():
    """tests/data/field_cap_counts.json holds N_1..N_g of the field-cap job's
    models; CI checks all of them, tier-1 the ones over fields up to 2**14."""
    data = Path(__file__).parent / "data"
    job = yaml.safe_load((data / "field_cap_job.yaml").read_text())
    rows = json.loads((data / "field_cap_counts.json").read_text())
    assert len(rows) == len(job["curves"])
    for src, row in zip(job["curves"], rows):
        model = CurveModel(src["kind"], src["q"], tuple(src["f"]), src["label"])
        assert (row["model"], row["genus"]) == (model.describe(), model.genus)
        assert model.q**model.genus <= fields.FIELD_CAP < model.q ** (model.genus + 1)
        small = [m for m in range(1, model.genus + 1) if model.q**m <= 2**14]
        assert [count_points(model, m) for m in small] == row["counts"][: len(small)]
