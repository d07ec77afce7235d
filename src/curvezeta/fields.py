"""Point counting of explicit curve models over finite fields F_{p^m}.

An element of F_{p^m} is the integer sum(d_i p^i), where d_i is its x^i digit
in F_p[x] modulo a monic modulus of degree m.  The modulus is the
lexicographically smallest primitive one, the first in the order of the code
sum(c_i p^i) of its low digits.  For m > 1 that code is read from
``_PRIMITIVE_MODULI``, recorded by a search over the moduli of every field
up to the cap (the tests re-derive it); for m = 1 the modulus is
x + c_0 with the first c_0 for which -c_0 generates F_p^*.  Walking the
powers of x from 1 must return to 1 first at step p^m - 1, which proves the
modulus irreducible and makes x a generator; a modulus that returns earlier
raises ArithmeticError, so a bad record cannot give wrong counts.  That one
walk fills the power table exp[k] = x^k and the log table, so a product is
one lookup of exp at a sum of logs.  Tables are built once per field, for
p^m up to 2**20.
In characteristic 2 the code sum(d_i 2^i) is the bit pattern of the digits,
so the walk multiplies by x with a shift, and reduces with one XOR of the
modulus bits when the shift sets bit m.  Over a prime field x is a number
and the walk multiplies by it modulo p.  Otherwise x z is z p, less the top
digit d times p^m, plus the code of d x^m reduced by the modulus, which is
one table lookup; adding that code carries out of a digit i >= 1 exactly
when digit i - 1 of z is at least a limit fixed by d, and the carry is then
subtracted.  Only the modulus's non-zero digits can carry.

The counts N_m = #X(F_{q^m}) are the ground truth for the zeta layer.  The
model's coefficients lie in F_p and the quadratic character is invariant
under Frobenius z -> z^p, so a quadratic f is evaluated by Horner once per
Frobenius orbit of x and the orbit's points are counted by its size.  An
Artin-Schreier count needs no orbits: with bits[k] the absolute trace of
x^k, the traces of x^i over all x != 0 are bits read with stride i around
the cycle of powers, and since the trace is additive and Tr(z^2) = Tr(z),
the traces of f(x) - c_0 are the XOR of these tables over the odd parts i of
f's exponents, where equal odd parts cancel in pairs.

Supported smooth models, all with a single point at infinity:

* ``projective_line`` -- N_m = q^m + 1, genus 0;
* ``quadratic``       -- y^2 = f(x), odd characteristic, f squarefree of
  odd degree 2g+1; a non-zero f(x) is a square when its log is even;
* ``artin_schreier``  -- y^2 + y = f(x), characteristic 2, f of odd degree
  2g+1; it has two solutions y when the absolute trace of f(x) is 0, which
  is the parity of f(x) under a precomputed F_2-linear mask.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

from curvezeta.exact import _squarefree_mod_prime

FIELD_CAP = 2**20


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41, exact below ``_MR_BOUND`` (Sorenson and
    Webster, Math. Comp. 86, 2017).  Above it a witness still proves n
    composite, but a number that no base witnesses cannot be certified prime:
    it raises ValueError."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(
            f"{n} cannot be certified prime above {_MR_BOUND:,}: no base in 2..41 witnesses it composite"
        )
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime_power(n: int) -> bool:
    """True when n = p^m for a prime p and m >= 1.

    The smallest exact root b = n^(1/k), k as large as possible, is not itself
    a perfect power, so n is a prime power exactly when b is prime.  A b that
    :func:`_is_prime` cannot certify raises ValueError.
    """
    if n < 2:
        return False
    for k in range(n.bit_length(), 0, -1):  # k = 1 always returns
        b = _iroot(n, k)
        if b**k == n:
            return _is_prime(b)


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


# The code sum(c_i p^i) of the low digits of the smallest primitive modulus
# x^m + sum(c_i x^i) of F_{p^m}, for every m >= 2 and p^m <= FIELD_CAP, as
# "p^m=code" tokens.  Without cached bytecode every import compiles this
# module, and one string compiles far faster than a 242-entry dict literal.
_PRIMITIVE_MODULI_TEXT = """
2^2=3 2^3=3 2^4=3 2^5=5 2^6=3 2^7=3 2^8=29 2^9=17 2^10=9 2^11=5 2^12=83 2^13=27
2^14=43 2^15=3 2^16=45 2^17=9 2^18=39 2^19=39 2^20=9 3^2=5 3^3=7 3^4=5 3^5=7
3^6=5 3^7=16 3^8=29 3^9=64 3^10=32 3^11=16 3^12=215 5^2=7 5^3=17 5^4=37 5^5=22
5^6=7 5^7=17 5^8=38 7^2=10 7^3=23 7^4=75 7^5=11 7^6=159 7^7=44 11^2=18 11^3=15
11^4=13 11^5=136 13^2=15 13^3=19 13^4=184 13^5=54 17^2=20 17^3=20 17^4=28
19^2=21 19^3=23 19^4=48 23^2=30 23^3=26 23^4=34 29^2=32 29^3=40 29^4=48 31^2=43
31^3=45 31^4=79 37^2=42 37^3=50 41^2=53 41^3=47 43^2=46 43^3=57 47^2=60 47^3=51
53^2=58 53^3=58 59^2=61 59^3=62 61^2=63 61^3=78 67^2=79 67^3=73 71^2=82 71^3=79
73^2=84 73^3=86 79^2=82 79^3=88 83^2=85 83^3=90 89^2=95 89^3=108 97^2=102
97^3=104 101^2=104 101^3=104 103^2=108 107^2=112 109^2=115 113^2=123 127^2=130
131^2=145 137^2=143 139^2=141 149^2=152 151^2=163 157^2=163 163^2=174 167^2=172
173^2=178 179^2=186 181^2=199 191^2=210 193^2=198 197^2=200 199^2=205 211^2=214
223^2=228 227^2=232 229^2=235 233^2=236 239^2=252 241^2=254 251^2=270 257^2=262
263^2=270 269^2=271 271^2=292 277^2=288 281^2=284 283^2=286 293^2=295 307^2=312
311^2=328 313^2=327 317^2=322 331^2=342 337^2=352 347^2=354 349^2=351 353^2=366
359^2=366 367^2=373 373^2=379 379^2=389 383^2=388 389^2=397 397^2=410 401^2=418
409^2=431 419^2=421 421^2=439 431^2=438 433^2=438 439^2=462 443^2=450 449^2=461
457^2=472 461^2=463 463^2=474 467^2=473 479^2=513 487^2=497 491^2=499 499^2=509
503^2=522 509^2=511 521^2=527 523^2=525 541^2=551 547^2=552 557^2=565 563^2=568
569^2=572 571^2=574 577^2=587 587^2=595 593^2=596 599^2=606 601^2=612 607^2=610
613^2=619 617^2=643 619^2=621 631^2=643 641^2=647 643^2=656 647^2=657 653^2=667
659^2=669 661^2=663 673^2=678 677^2=680 683^2=688 691^2=703 701^2=704 709^2=719
719^2=738 727^2=758 733^2=739 739^2=761 743^2=748 751^2=763 757^2=763 761^2=768
769^2=790 773^2=775 787^2=789 797^2=805 809^2=821 811^2=821 821^2=824 823^2=837
827^2=833 829^2=831 839^2=850 853^2=855 857^2=862 859^2=861 863^2=868 877^2=882
881^2=896 883^2=911 887^2=897 907^2=912 911^2=948 919^2=934 929^2=936 937^2=948
941^2=943 947^2=966 953^2=958 967^2=995 971^2=977 977^2=983 983^2=994
991^2=1002 997^2=1008 1009^2=1020 1013^2=1020 1019^2=1025 1021^2=1031
"""
_PRIMITIVE_MODULI = dict(token.split("=") for token in _PRIMITIVE_MODULI_TEXT.split())


@lru_cache(maxsize=None)
def _field_tables(p: int, m: int) -> tuple[tuple[int, ...], array, array, int]:
    """(modulus, exp, log, trace_mask) for F_{p^m}, elements coded sum(d_i p^i).

    The monic modulus is listed constant term first.  It is the
    lexicographically smallest primitive modulus: for m > 1 the one recorded
    in ``_PRIMITIVE_MODULI``, for m = 1 x + c_0 with the first c_0 whose
    -c_0 generates F_p^*.  One walk through the powers of x fills
    exp[k] = x^k and log[exp[k]] = k, and it must first return to 1 at step
    p^m - 1, which proves the modulus primitive; otherwise ArithmeticError
    names the field, and nothing is cached.  For odd p and m > 1 each step is
    a carry-checked shift: the setup is a table of d x^m and, per non-zero
    modulus digit i >= 1, a table of the limits above which digit i - 1
    carries, each indexed by the top digit d, so O(p) per non-zero digit.
    For p = 2, bit i of ``trace_mask`` is the absolute trace of x^i; it is 0
    for odd p.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    size = p**m
    if size > FIELD_CAP:
        raise ValueError(f"field size {p}^{m} exceeds the cap {FIELD_CAP}")
    order, top = size - 1, size // p
    weights = [p**i for i in range(m)]
    if m == 1:  # x = -c_0 is a generator exactly when its order is p - 1
        exponents = [(p - 1) // ell for ell in _prime_factors(p - 1)]
        low = [next(c for c in range(1, p) if all(pow(p - c, e, p) != 1 for e in exponents))]
    else:
        code = int(_PRIMITIVE_MODULI[f"{p}^{m}"])
        low = [code // w % p for w in weights]
    exp = array("l", [0]) * order
    log = array("l", [0]) * size
    z = 1
    if p == 2:  # the code is the bit pattern: shift, then XOR the modulus bits
        bits = size | sum(c << i for i, c in enumerate(low))
        for k in range(order):
            exp[k], log[z] = z, k
            z <<= 1
            if z & size:
                z ^= bits
            if z == 1:
                break
    elif m == 1:  # a prime field: x is the number g = -c_0
        g = p - low[0]
        for k in range(order):
            exp[k], log[z] = z, k
            z = z * g % p
            if z == 1:
                break
    else:
        # x z = z p - d p^m + (d x^m mod the modulus), d the top digit of
        # z: red[d] is the sum of the last two.  Adding d x^m carries out
        # of digit i >= 1 exactly when digit i - 1 of z is at least p less
        # digit i of d x^m; each check takes back such a carry p^(i+1)
        red = [-d * size for d in range(p)]
        checks = []  # (p^i, limit[d] p^(i-1), p^(i+1)) per non-zero c_i, i >= 1
        for i, c in enumerate(low):
            if c:
                b, w = p - c, weights[i]
                red = [e + d * b % p * w for d, e in enumerate(red)]
                if i:
                    checks.append((w, [(p - d * b % p) * weights[i - 1] for d in range(p)], w * p))
        for k in range(order):
            exp[k], log[z] = z, k
            d = z // top
            add = red[d]
            for mod, limit, carry in checks:
                if z % mod >= limit[d]:
                    add -= carry
            z = z * p + add
            if z == 1:
                break
    if z != 1 or k != order - 1:
        raise ArithmeticError(f"F_{p}^{m}: the modulus with low digits {low} is not primitive")
    trace_mask = 0
    if p == 2:
        for i in range(m):
            t = 0
            for j in range(m):
                t ^= exp[(i << j) % order]  # (x^i)^(2^j)
            if t > 1:
                raise ArithmeticError("trace landed outside the prime field")
            trace_mask |= t << i
    return tuple(low) + (1,), exp, log, trace_mask


class CurveModel(namedtuple("CurveModel", "kind q f label")):
    """An explicit smooth model over a prime field F_q (q = p prime here).

    ``kind`` is projective_line, quadratic (y^2 = f(x)) or artin_schreier
    (y^2 + y = f(x)).  ``f`` holds the right-hand side coefficients as a
    tuple of ints, constant term first.  Odd degree keeps a single point at
    infinity, which is what makes the naive projective count a one-liner.
    """

    __slots__ = ()

    def __new__(cls, kind: str, q: int, f: tuple[int, ...] = (), label: str = ""):
        if kind not in ("projective_line", "quadratic", "artin_schreier"):
            raise ValueError(f"unknown model kind {kind!r}")
        if isinstance(q, bool) or not isinstance(q, int):
            raise ValueError(f"q must be an integer, got {q!r}")
        if not isinstance(f, tuple) or any(isinstance(c, bool) or not isinstance(c, int) for c in f):
            raise ValueError(f"f must be a list of integers, got {f!r}")
        if not _is_prime(q):
            raise ValueError("explicit models are supported over prime base fields only")
        model = super().__new__(cls, kind, q, f, label)
        if kind == "projective_line":
            return model
        f = [c % q for c in f]
        while f and f[-1] == 0:
            f.pop()
        deg = len(f) - 1
        if deg < 1 or deg % 2 == 0:
            raise ValueError("model needs odd-degree right-hand side")
        if kind == "quadratic":
            if q == 2:
                raise ValueError("quadratic models need odd characteristic")
            if not _squarefree_mod_prime(f, q):
                raise ValueError("right-hand side must be squarefree")
        if kind == "artin_schreier" and q != 2:
            raise ValueError("artin_schreier models need characteristic 2")
        return model

    @property
    def genus(self) -> int:
        if self.kind == "projective_line":
            return 0
        deg = _trimmed_degree(self.f, self.q)
        return (deg - 1) // 2

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.kind == "projective_line":
            return f"P1/F{self.q}"
        lhs = "y^2" if self.kind == "quadratic" else "y^2+y"
        terms = [
            (f"x^{i}" if i > 1 else ("x" if i == 1 else "1")) if c == 1 else f"{c}*x^{i}"
            for i, c in enumerate(self.f)
            if c % self.q
        ]
        return f"{lhs}={'+'.join(reversed(terms))}/F{self.q}"


def _trimmed_degree(f: Sequence[int], p: int) -> int:
    g = [c % p for c in f]
    while g and g[-1] == 0:
        g.pop()
    return len(g) - 1


def count_points(model: CurveModel, m: int) -> int:
    """Projective point count of the model over F_{q^m}.

    Affine solutions plus the single point at infinity.  Quadratic models
    count square roots of f(x) through the quadratic character; the
    Artin-Schreier count uses that y^2 + y = z has two solutions when the
    absolute trace of z vanishes and none otherwise.

    f has coefficients in F_p, so f(x^p) = f(x)^p, and the character takes
    the same value at z and z^p: log(z^p) = p log(z) has the parity of
    log(z) modulo the even p^m - 1.  So every x in the Frobenius orbit
    {x, x^p, x^(p^2), ...} gives the same points.  In log coordinates
    Frobenius is lx -> p lx mod (p^m - 1); a quadratic f is evaluated by
    Horner once at the least lx of each orbit and weighted by the orbit's
    size.  Multiplying by x reads a doubled power table, so no reduction
    modulo p^m - 1 is needed, and adding a coefficient touches digit 0 only.

    An Artin-Schreier count evaluates nothing per element.  With
    bits[k] = Tr(x^k), Tr(x^(i lx)) for lx = 0, 1, ... is bits read with
    stride i around the cycle of length p^m - 1; the XOR of these byte
    tables over the odd parts i of f's exponents holds Tr(f(x) - c_0) for
    every x != 0, and Tr(c_0) = c_0 Tr(1) flips all of them or none.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if model.q**m > FIELD_CAP:
        raise ValueError("field size exceeds the cap")
    if model.kind == "projective_line":
        return model.q**m + 1
    p = model.q
    _, exp, log, trace_mask = _field_tables(p, m)
    order = len(exp)
    c_0 = model.f[0] % p
    if model.kind == "artin_schreier":
        bits = bytes((z & trace_mask).bit_count() & 1 for z in exp)  # Tr(x^k)
        odd = set()  # x^(2^j i) has the trace of x^i, and equal powers cancel
        for i, c in enumerate(model.f[1:], 1):
            if c % 2:
                odd ^= {i // (i & -i)}
        traces = 0  # byte lx: Tr(f(x) - c_0) at x = exp[lx]
        for i in odd:  # bits at lx i mod order, read with stride i around the cycle
            traces ^= int.from_bytes(b"".join(bits[-j * order % i :: i] for j in range(i)), "big")
        ones = traces.to_bytes(order, "big").count(1)
        flip = c_0 & bits[0]  # Tr(c_0) = c_0 Tr(1) flips every trace or none
        zeros = ones if flip else order - ones  # the x != 0 with Tr(f(x)) = 0
        return 1 + 2 * (1 - flip) + 2 * zeros  # infinity, x = 0, then two y per zero
    twice = exp + exp  # twice[log z + lx] is z x without a reduction mod p^m - 1
    lead, *rest = [c % p for c in reversed(model.f)]
    # infinity, then 1 + chi(f(x)) points at each x: chi(0) = 0, chi(z) = (-1)^log(z)
    total = 2 + order + (0 if c_0 == 0 else 1 - 2 * (log[c_0] & 1))
    seen = bytearray(order)
    lx = 0
    while lx >= 0:  # lx is the least log of an orbit not yet seen
        k = lx
        for size in range(1, m + 1):  # x -> x^p until the orbit closes
            seen[k] = 1
            k = k * p % order
            if k == lx:
                break
        acc = lead  # Horner: acc * x is a lookup, adding c touches digit 0 only
        for c in rest:
            if acc:
                acc = twice[log[acc] + lx]
            if c:
                acc += c
                if acc % p < c:  # digit 0 wrapped: take back the carry
                    acc -= p
        if acc:
            total += size if log[acc] & 1 == 0 else -size
        lx = seen.find(0, lx + 1)
    return total


def census(models: Sequence[CurveModel]) -> list[tuple[CurveModel, list[int]]]:
    """Counts N_1..N_g per model, the exact input the zeta layer needs.

    Every model is checked against ``FIELD_CAP`` before anything is counted.
    """
    for model in models:
        q, g = model.q, model.genus
        if q**g > FIELD_CAP:
            raise ValueError(f"genus {g} over F_{q} needs F_{q}^{g}, above the field cap {FIELD_CAP}")
    return [(model, [count_points(model, m) for m in range(1, model.genus + 1)]) for model in models]
