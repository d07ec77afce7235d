"""Point counting of explicit curve models over finite fields F_{p^m}.

An element of F_{p^m} is the integer sum(d_i p^i), where d_i is its x^i digit
in F_p[x] modulo a monic modulus of degree m.  The modulus is the
lexicographically smallest primitive one: walking the powers of x from 1
returns to 1 first at step p^m - 1, which proves the modulus irreducible and
makes x a generator.  That one walk fills the power table exp[k] = x^k and the
log table, so a product is one lookup of exp at a sum of logs.  Before a
modulus is walked, two necessary conditions for primitivity are tested: the
norm (-1)^m c_0 of x must generate F_p^*, and for m > 1 the modulus must have
no root in F_p^*.  Tables are built once per field, for p^m up to 2**20.
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
from collections.abc import Iterator, Sequence
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


@lru_cache(maxsize=None)
def _field_tables(p: int, m: int) -> tuple[tuple[int, ...], array, array, int]:
    """(modulus, exp, log, trace_mask) for F_{p^m}, elements coded sum(d_i p^i).

    The monic modulus is listed constant term first.  Of the moduli that
    ``_candidate_moduli`` does not rule out, in the order of sum(c_i p^i), the
    first whose walk through the powers of x first returns to 1 at step
    p^m - 1 is kept: exp[k] = x^k and log[exp[k]] = k.  The skipped moduli
    are never primitive, so this is the lexicographically smallest primitive
    modulus.  For odd p and m > 1 each step is a carry-checked shift: the
    setup per modulus is a table of d x^m and, per non-zero modulus digit
    i >= 1, a table of the limits above which digit i - 1 carries, each
    indexed by the top digit d, so O(p) per non-zero digit.  For p = 2, bit i
    of ``trace_mask`` is the absolute trace of x^i; it is 0 for odd p.
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
    exp = array("l", [0]) * order
    log = array("l", [0]) * size
    for low in _candidate_moduli(p, m):
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
            continue
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
    raise RuntimeError("no primitive modulus found")  # unreachable


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
