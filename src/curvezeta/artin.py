"""Artin zeta functions of curves over finite fields, in Weil form.

The central object is :class:`CurveData`: a base field size q, a genus g,
and the numerator coefficients A_0..A_{2g} of

    Z(t) = exp(sum_m N_m t^m / m) = (A_0 + A_1 t + ... + A_{2g} t^{2g})
                                     / ((1 - t)(1 - q t)).

For data coming from genuine point counts the coefficients are integers
with A_0 = 1 and the symmetry A_{2g-i} = q^{g-i} A_i; non-genuine data may
break both so that negative fixtures (failing functional equations, failing
RH) can be represented.

A note on the class number: the count h = A_0 + ... + A_{2g} = P(1) of
degree-zero line-bundle classes and the point count N_1 = #X(F_q) coincide
for genus one but differ in general.  Formulas in this package that weight
by "the number of classes" always use h, never N_1; the two are conflated
in some classical displays and the distinction matters from genus two on.

A curve computes its derived data on first use and keeps it: its field hash,
the numerator polynomial, the class number, the reduced Z(t), the Newton
power sums p_1, p_2, ... (extended by :func:`counts_from_numerator`) and the
coefficients of the Z(t) series (extended by :meth:`CurveData.zeta_coefficient`).
The per-(curve, n) values ``zeta_hat_special`` and ``zeta_plain`` are
memoized, so a job derives each of them once.  The completed zeta as a
function, ``zeta_hat_ratfun``, and Z(t) are reduced through their known
factorization (:func:`_mul_zeta_hat`), never by a gcd.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache
from fractions import Fraction

from curvezeta.exact import Poly, RationalFunction, ZeroReport, complex_roots, series_exp
from curvezeta.exact import _FactoredTerm, _q_power

Rat = Fraction | int


class CurveData:
    """Weil numerator data (q, g, A_0..A_{2g}) of a curve over F_q.

    ``genuine`` marks data produced from actual point counts; it switches on
    the stronger invariants (integer palindromic coefficients, nonnegative
    reconstructed counts, positive class number).  The fields q, g, A (a
    tuple of Fractions), genuine and label are read-only; equality and hash
    are those of the fields, and derived data is kept on the instance.
    """

    def __init__(self, q: int, g: int, A: Sequence[Rat], genuine: bool = False, label: str = ""):
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "g", int(g))
        object.__setattr__(self, "A", tuple(Fraction(a) for a in A))
        object.__setattr__(self, "genuine", bool(genuine))
        object.__setattr__(self, "label", label)
        if self.q < 2:
            raise ValueError("base field size must be >= 2")
        if self.g < 0:
            raise ValueError("genus must be >= 0")
        if len(self.A) != 2 * self.g + 1:
            raise ValueError(f"need {2 * self.g + 1} coefficients for genus {self.g}")
        if self.A[0] != 1:
            raise ValueError("A_0 must equal 1")
        if self.genuine:
            if not artin_fe_check(self):
                raise ValueError("genuine curve data must satisfy A_{2g-i} = q^(g-i) A_i")
            if any(a.denominator != 1 for a in self.A):
                raise ValueError("genuine curve data must have integer coefficients")
            if self.class_number <= 0:
                raise ValueError("genuine curve data must have positive class number")
            for m in range(1, 2 * self.g + 1):
                if counts_from_numerator(self, m) < 0:
                    raise ValueError(f"genuine curve data reconstructs N_{m} < 0")

    @staticmethod
    def elliptic(q: int, a: int, genuine: bool = True, label: str = "") -> CurveData:
        """Genus-one data with Frobenius trace a, i.e. numerator 1 - a t + q t^2."""
        if a * a > 4 * q:
            raise ValueError("trace violates |a| <= 2*sqrt(q)")
        return CurveData(q, 1, [1, -a, q], genuine=genuine, label=label or f"elliptic(q={q},a={a})")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return self.q, self.g, self.A, self.genuine, self.label

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return self._field_hash

    @cached_property
    def _field_hash(self) -> int:
        # kept: every cache keyed by a curve asks for it
        return hash(self._key())

    def __repr__(self) -> str:
        q, g, A, genuine, label = self._key()
        return f"CurveData(q={q!r}, g={g!r}, A={A!r}, genuine={genuine!r}, label={label!r})"

    @cached_property
    def numerator(self) -> Poly:
        return Poly(self.A)

    @cached_property
    def class_number(self) -> Fraction:
        """h = P(1), the number of degree-zero line-bundle classes."""
        return sum(self.A, Fraction(0))

    @cached_property
    def _zeta(self) -> RationalFunction:
        # Z(u) = u^{g-1} zh(s), u = q^{-s}
        term = _FactoredTerm(mono=(self.g - 1, 0))
        _mul_zeta_hat(term, self, 0)
        return term.ratfun()

    def zeta_ratfun(self) -> RationalFunction:
        """Z(t) as an exact rational function of t, reduced once per curve."""
        return self._zeta

    def zeta_coefficient(self, d: int) -> Fraction:
        """The t^d coefficient of Z(t), d >= 0, from one series kept on the curve.

        Z(t) (1 - (q+1) t + q t^2) = P(t) gives a_d = A_d + (q+1) a_{d-1} - q a_{d-2};
        the series is extended only past the largest d asked for so far.
        """
        A, a, q = self._exact_A, self._zeta_series, self.q
        for n in range(len(a), d + 1):
            acc = A[n] if n <= 2 * self.g else 0
            if n >= 1:
                acc += (q + 1) * a[n - 1]
            if n >= 2:
                acc -= q * a[n - 2]
            a.append(acc)
        return Fraction(a[d])

    @cached_property
    def _exact_A(self) -> tuple[Rat, ...]:
        # A_0..A_{2g} as ints when every one is an integer, else as Fractions
        if all(a.denominator == 1 for a in self.A):
            return tuple(a.numerator for a in self.A)
        return self.A

    @cached_property
    def _power_sums(self) -> list[Rat]:
        # [p_0, p_1, ...]: p_0 is a placeholder; counts_from_numerator extends it
        return [0]

    @cached_property
    def _zeta_series(self) -> list[Rat]:
        # the t^0, t^1, ... coefficients of Z(t); zeta_coefficient extends it
        return []

    def describe(self) -> str:
        return self.label or f"curve(q={self.q},g={self.g},A={[str(a) for a in self.A]})"


def numerator_from_counts(q: int, g: int, counts: Sequence[int], label: str = "") -> CurveData:
    """Weil numerator coefficients from the point counts N_1..N_g.

    Expands exp(sum_{m<=g} N_m t^m / m) * (1 - t)(1 - q t) to order g with
    exact series arithmetic and completes A_{g+1}..A_{2g} by the symmetry
    A_{2g-i} = q^{g-i} A_i.  The genuine :class:`CurveData` is built, and
    checked, once, with the given label.
    """
    if len(counts) != g:
        raise ValueError(f"need exactly g = {g} counts, got {len(counts)}")
    if any(n < 0 for n in counts):
        raise ValueError("point counts must be nonnegative")
    log_terms = [Fraction(0)] + [Fraction(counts[m - 1], m) for m in range(1, g + 1)]
    expanded = series_exp(log_terms)
    poly = Poly([1, -(q + 1), q])
    A = [Fraction(0)] * (2 * g + 1)
    for i in range(g + 1):
        acc = Fraction(0)
        for j in range(min(i, 2) + 1):
            acc += poly[j] * expanded[i - j]
        A[i] = acc
    if A[0] != 1:
        raise ValueError("inconsistent counts: expansion has A_0 != 1")
    for i in range(g):
        A[2 * g - i] = Fraction(q) ** (g - i) * A[i]
    return CurveData(q, g, A, genuine=True, label=label)


def counts_from_numerator(c: CurveData, m: int) -> int:
    """N_m = q^m + 1 - p_m via the Newton power-sum recurrence on the A_i.

    p_m is the m-th power sum of the reciprocal roots; no floating point.
    The sums are kept on the curve and extended only past the largest m
    asked for so far, so one pass serves every m.  They run on ints when
    every A_i is an integer and on Fractions otherwise.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    A, p, top = c._exact_A, c._power_sums, 2 * c.g
    for n in range(len(p), m + 1):
        acc = -n * A[n] if n <= top else 0
        for k in range(max(1, n - top), n):
            acc -= p[k] * A[n - k]
        p.append(acc)
    val = c.q**m + 1 - p[m]
    if isinstance(val, Fraction):
        if val.denominator != 1:
            raise ValueError("non-integer reconstructed count (non-genuine data)")
        val = val.numerator
    return val


@lru_cache(maxsize=256)
def zeta_hat_special(c: CurveData, n: int) -> Fraction:
    """The completed zeta q^{(g-1)s} Z(q^{-s}) at the integer s = n.

    n = 0 and n = 1 are the simple-pole regularized values
    (sum A_i)/(q-1) and (sum A_i q^{g-i})/(q-1); every other integer is
    q^{(g-1)n} times the plain value :func:`zeta_plain`.
    """
    q, g = Fraction(c.q), c.g
    if n == 0:
        return c.class_number / (q - 1)
    if n == 1:
        return sum(a * q ** (g - i) for i, a in enumerate(c.A)) / (q - 1)
    return q ** ((g - 1) * n) * zeta_plain(c, n)


@lru_cache(maxsize=256)
def zeta_plain(c: CurveData, n: int) -> Fraction:
    """The unhatted value Z(q^{-n}); n must avoid the poles n = 0, 1."""
    if n in (0, 1):
        raise ValueError("Z(q^power) has a pole at n = 0 and n = 1")
    q = Fraction(c.q)
    u = q**-n
    return c.numerator.evaluate(u) / ((1 - u) * (1 - q * u))


def zeta_hat_ratfun(c: CurveData, shift: int = 0) -> RationalFunction:
    """The completed zeta at argument s_var + shift, in u = q^{-s_var}.

    zeta_hat(n + s) = q^{(g-1)n} * u^{1-g} * Z(q^{-n} u), reduced through its
    factorization (:func:`_mul_zeta_hat`), with no gcd.
    """
    term = _FactoredTerm()
    _mul_zeta_hat(term, c, shift)
    return term.ratfun()


def _mul_zeta_hat(
    term: _FactoredTerm, c: CurveData, shift: int, e1: int = 1, e2: int = 0, power: int = 1
) -> None:
    """Multiply the term by zh(shift + e1*s1 + e2*s2)**power, in u_j = q^{-s_j}.

    zh = q^{(g-1) shift} U^{-(g-1)} P(q^{-shift} U) / ((1 - q^{-shift} U)
    (1 - q^{1-shift} U)) with U = u1^e1 u2^e2.  With P = scale * sum n_k t^k
    and q^{-shift} = a/b, P(q^{-shift} U) = scale b^{-d} sum n_k a^k b^{d-k} U^k,
    all in integers.  This is the one place the package writes zh's
    factorization down.
    """
    q, g = c.q, c.g
    P = c.numerator
    a, b = _q_power(q, -shift)
    qa, qb = _q_power(q, (g - 1) * shift)
    d = len(P.ints) - 1
    ints = [n * a**k * b ** (d - k) for k, n in enumerate(P.ints)]
    a1, a2 = term.mono
    term.mono = (a1 - power * e1 * (g - 1), a2 - power * e2 * (g - 1))
    term.mul(ints, e1, e2, power, P.scale.numerator * qa, P.scale.denominator * qb * b**d)
    term.mul_one_minus(q, -shift, e1, e2, -power)
    term.mul_one_minus(q, 1 - shift, e1, e2, -power)


def artin_fe_check(c: CurveData) -> bool:
    """Exact coefficient symmetry A_{2g-i} = q^{g-i} A_i for all i."""
    q, g = Fraction(c.q), c.g
    return all(c.A[2 * g - i] == q ** (g - i) * c.A[i] for i in range(g + 1))


def artin_fe_ratfun_check(c: CurveData) -> bool:
    """Functional equation as an exact rational-function identity in u = q^{-s}.

    q^{(g-1)(1-s)} Z(q^{s-1}) = q^{(g-1)s} Z(q^{-s}) becomes, after clearing
    the u powers,  q^{g-1} u^{2(g-1)} Z(1/(q u)) = Z(u).  Both sides are
    compared cross-multiplied, on reduced forms, so no gcd is taken.
    """
    z = c.zeta_ratfun()
    w = z.reciprocal_arg(Fraction(1, c.q))
    k = 2 * (c.g - 1)
    lhs = Poly.x(max(k, 0), Fraction(c.q) ** (c.g - 1)) * w.num * z.den
    return lhs == Poly.x(max(-k, 0)) * z.num * w.den


@lru_cache(maxsize=256)
def rh_check_artin(c: CurveData, tol: float = 1e-9) -> ZeroReport:
    """Numerically check |omega_i| = sqrt(q) for all reciprocal roots.

    The numerator's roots t_i are found by the deterministic root finder,
    solved in sqrt(q) t (``Q = q``), where they lie on the unit circle;
    the report lists the reciprocal-root moduli 1/|t_i| and their deviation
    from sqrt(q).  A constant numerator (genus zero, or a degree-deficient
    datum) has no zeros and passes vacuously.
    """
    rset = complex_roots(c.numerator, Q=c.q)
    sq = float(c.q) ** 0.5
    omegas = tuple(1 / t for t in rset.roots)
    deviations = tuple(abs(abs(w) - sq) for w in omegas)
    verdict = all(d <= tol * sq for d in deviations)
    return ZeroReport(omegas, sq, deviations, verdict, tol)

