"""Formal power series by the exponential: the tests' reference for
:func:`curvezeta.artin.numerator_from_counts`.

The numerator of Z(t) = exp(sum_m N_m t^m / m) is Z(t) (1 - t)(1 - q t).
The package computes it from the counts by Newton's identities on the power
sums; here it is the product of the exponentiated series with
(1 - t)(1 - q t), truncated at order g and completed by the symmetry
A_{2g-i} = q^{g-i} A_i.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction


def series_exp(c: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Formal exponential of c_0 + c_1 t + ... (c_0 = 0), to the same order.

    Uses the derivative recurrence b_n = (1/n) * sum_{k=1..n} k a_k b_{n-k},
    which keeps every coefficient an exact rational.
    """
    if c[0] != 0:
        raise ValueError("series_exp requires a zero constant term")
    m = len(c) - 1
    out = [Fraction(1)] + [Fraction(0)] * m
    for n in range(1, m + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * c[k] * out[n - k]
        out[n] = acc / n
    return tuple(out)


def numerator_by_series(q: int, g: int, counts: Sequence[int]) -> tuple[Fraction, ...]:
    """A_0..A_{2g} from N_1..N_g through exp(sum N_m t^m / m) (1 - t)(1 - q t)."""
    expanded = series_exp([Fraction(0)] + [Fraction(n, m) for m, n in enumerate(counts, start=1)])
    factor = (1, -(q + 1), q)
    A = [sum((factor[j] * expanded[i - j] for j in range(min(i, 2) + 1)), Fraction(0)) for i in range(g + 1)]
    return (*A, *(q ** (g - i) * A[i] for i in reversed(range(g))))
