"""Naive point counting of explicit curve models over small finite fields.

Fields F_{p^m} are realized as F_p[x] modulo the lexicographically smallest
irreducible monic polynomial of degree m; elements are coefficient tuples.
This is deliberately desk-scale machinery (p^m capped at 2**20): its job is
to produce ground-truth point counts N_m = #X(F_{q^m}) for the zeta layer,
not to be fast.

Supported smooth models, all with a single point at infinity:

* ``projective_line`` -- N_m = q^m + 1, genus 0;
* ``quadratic``       -- y^2 = f(x), odd characteristic, f squarefree of
  odd degree 2g+1, counted with the quadratic-character test
  z^((Q-1)/2) == 1;
* ``artin_schreier``  -- y^2 + y = f(x), characteristic 2, f of odd degree
  2g+1, counted with the absolute-trace test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

FIELD_CAP = 2**20

Element = tuple[int, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_prime_power(n: int) -> bool:
    """True when n = p^m for a prime p and m >= 1."""
    if n < 2:
        return False
    p = 2
    while p * p <= n and n % p:
        p += 1
    if p * p > n:
        return True  # no divisor up to sqrt(n): n is prime
    while n % p == 0:
        n //= p
    return n == 1


def _mod_poly_mul(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    m = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce modulo the monic modulus
    for k in range(len(out) - 1, m - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(m):
                out[k - m + j] = (out[k - m + j] - c * modulus[j]) % p
    out = out[:m]
    while len(out) < m:
        out.append(0)
    return out


def _poly_gcd_fp(a: list[int], b: list[int], p: int) -> list[int]:
    def trim(v: list[int]) -> list[int]:
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        r = list(a)
        while len(r) >= len(b) and trim(r):
            if not r:
                break
            c = (r[-1] * inv) % p
            k = len(r) - len(b)
            for j, bj in enumerate(b):
                r[k + j] = (r[k + j] - c * bj) % p
            r = trim(r)
        a, b = b, r
    return a


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Monic degree-m polynomial test: gcd(f, x^(p^k) - x) = 1 for k <= m/2.

    A reducible polynomial has an irreducible factor of degree k <= m/2, and
    every such factor divides x^(p^k) - x, so the gcd criterion is complete.
    """
    m = len(coeffs) - 1
    if m == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    xq = [0, 1]  # the polynomial x, iterated through Frobenius
    for _ in range(1, m // 2 + 1):
        xq = _pow_mod_poly(xq, p, coeffs, p)
        diff = list(xq)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd_fp(diff, coeffs, p)
        if len(g) - 1 > 0:
            return False
    return True


def _pow_mod_poly(base: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    result = [1]
    b = list(base)
    while e:
        if e & 1:
            result = _mod_poly_mul(result, b, modulus, p)
        b = _mod_poly_mul(b, b, modulus, p)
        e >>= 1
    return result


@dataclass(frozen=True)
class FieldRep:
    """F_{p^m} as F_p[x] modulo an irreducible monic modulus of degree m."""

    p: int
    m: int
    modulus: tuple[int, ...]  # length m+1, monic

    @property
    def size(self) -> int:
        return self.p**self.m

    def zero(self) -> Element:
        return (0,) * self.m

    def one(self) -> Element:
        return (1,) + (0,) * (self.m - 1)

    def elements(self):
        """All p^m elements, in lexicographic coefficient order."""
        def rec(k: int, acc: list[int]):
            if k == self.m:
                yield tuple(acc)
                return
            for c in range(self.p):
                acc.append(c)
                yield from rec(k + 1, acc)
                acc.pop()

        yield from rec(0, [])

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a: Element, b: Element) -> Element:
        return tuple(_mod_poly_mul(list(a), list(b), list(self.modulus), self.p))

    def pow(self, a: Element, e: int) -> Element:
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def from_int(self, c: int) -> Element:
        return (c % self.p,) + (0,) * (self.m - 1)

    def is_zero(self, a: Element) -> bool:
        return all(c == 0 for c in a)

    def trace(self, a: Element) -> int:
        """Absolute trace to F_p: a + a^p + ... + a^(p^(m-1))."""
        acc = self.zero()
        x = a
        for _ in range(self.m):
            acc = self.add(acc, x)
            x = self.pow(x, self.p)
        if any(c != 0 for c in acc[1:]):
            raise ArithmeticError("trace landed outside the prime field")
        return acc[0]

    def is_square(self, a: Element) -> bool:
        """Quadratic-character test a^((Q-1)/2) == 1 for nonzero a, odd p."""
        if self.p == 2:
            raise ValueError("character test needs odd characteristic")
        if self.is_zero(a):
            raise ValueError("character test needs a nonzero element")
        return self.pow(a, (self.size - 1) // 2) == self.one()

    def eval_prime_poly(self, f: Sequence[int], x: Element) -> Element:
        """Evaluate a polynomial with F_p coefficients at a field element."""
        acc = self.zero()
        for c in reversed(list(f)):
            acc = self.add(self.mul(acc, x), self.from_int(c))
        return acc


@lru_cache(maxsize=None)
def build_field(p: int, m: int) -> FieldRep:
    """F_{p^m} with the lexicographically smallest irreducible monic modulus.

    "Smallest" compares coefficient vectors from the highest degree below
    x^m downwards, which is the same as minimizing sum(c_i p^i).
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if p**m > FIELD_CAP:
        raise ValueError(f"field size {p}^{m} exceeds the cap {FIELD_CAP}")
    if m == 1:
        return FieldRep(p, 1, (0, 1))
    for code in range(p**m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
            return FieldRep(p, m, tuple(coeffs))
    raise RuntimeError("no irreducible modulus found")  # unreachable


@dataclass(frozen=True)
class CurveModel:
    """An explicit smooth model over a prime field F_q (q = p prime here).

    ``f`` holds the right-hand side coefficients, constant term first.  Odd
    degree keeps a single point at infinity, which is what makes the naive
    projective count a one-liner.
    """

    kind: str  # projective_line | quadratic | artin_schreier
    q: int
    f: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("projective_line", "quadratic", "artin_schreier"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not _is_prime(self.q):
            raise ValueError("explicit models are supported over prime base fields only")
        if self.kind == "projective_line":
            return
        f = [c % self.q for c in self.f]
        while f and f[-1] == 0:
            f.pop()
        deg = len(f) - 1
        if deg < 1 or deg % 2 == 0:
            raise ValueError("model needs odd-degree right-hand side")
        if self.kind == "quadratic":
            if self.q == 2:
                raise ValueError("quadratic models need odd characteristic")
            if not _squarefree_mod_p(f, self.q):
                raise ValueError("right-hand side must be squarefree")
        if self.kind == "artin_schreier" and self.q != 2:
            raise ValueError("artin_schreier models need characteristic 2")

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


def _squarefree_mod_p(f: list[int], p: int) -> bool:
    deriv = [(i * c) % p for i, c in enumerate(f)][1:]
    g = _poly_gcd_fp(list(f), deriv, p)
    return len(g) - 1 == 0


def count_points(model: CurveModel, m: int) -> int:
    """Projective point count of the model over F_{q^m}.

    Affine solutions plus the single point at infinity.  Quadratic models
    count square roots of f(x) through the quadratic character; the
    Artin-Schreier count uses that y^2 + y = z has two solutions when the
    absolute trace of z vanishes and none otherwise.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if model.q**m > FIELD_CAP:
        raise ValueError("field size exceeds the cap")
    if model.kind == "projective_line":
        return model.q**m + 1
    fld = build_field(model.q, m)
    total = 1  # the point at infinity
    for x in fld.elements():
        z = fld.eval_prime_poly(model.f, x)
        if model.kind == "quadratic":
            if fld.is_zero(z):
                total += 1
            elif fld.is_square(z):
                total += 2
        else:  # artin_schreier
            if fld.trace(z) == 0:
                total += 2
    return total


def census(models: Sequence[CurveModel]) -> list[tuple[CurveModel, list[int]]]:
    """Counts N_1..N_g per model, the exact input the zeta layer needs."""
    out = []
    for model in models:
        g = model.genus
        out.append((model, [count_points(model, m) for m in range(1, g + 1)]))
    return out
