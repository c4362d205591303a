"""Rational arithmetic backend.

The whole engine runs on exact rationals, the stdlib
``fractions.Fraction``.  It normalizes eagerly (gcd 1, positive
denominator).  ``BACKEND`` names the core for reports and benchmark
records.
"""

from __future__ import annotations

import math
from fractions import Fraction

BACKEND = "python"
Q = Fraction
isqrt = math.isqrt


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of a nonnegative integer, plus exactness flag."""
    if k == 2:
        r = math.isqrt(n)
        return r, r * r == n
    if n == 0:
        return 0, True
    # Newton iteration on integers; converges from above.
    r = 1 << -(-n.bit_length() // k)
    while True:
        t = ((k - 1) * r + n // r ** (k - 1)) // k
        if t >= r:
            break
        r = t
    return r, r ** k == n


def is_rational(x) -> bool:
    return isinstance(x, (Fraction, int))


def as_q(x) -> Fraction:
    """x as a Fraction; a Fraction is returned as it is (it is immutable)."""
    return x if type(x) is Fraction else Fraction(x)


def numden(x) -> tuple[int, int]:
    return int(x.numerator), int(x.denominator)


QZERO = Q(0)
QONE = Q(1)
