"""Arithmetic substrate: exact rationals plus adaptive-precision intervals.

A *scalar* is either a backend rational (exact) or an :class:`Interval`
with dyadic-rational bounds and outward rounding.  Rational-only pipelines
stay exact end to end; as soon as a square root of a non-square appears,
values become intervals and every subsequent operation keeps a rigorous
enclosure.  A nonzero verdict obtained from an interval is therefore a
proof; a zero verdict is only "numerically confirmed".

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

from .errors import (
    DivisionByZero,
    IndeterminateDivision,
    NegativeRadicand,
    Undecided,
)
from ._backend import BACKEND, Q, QONE, QZERO, iroot, is_rational, isqrt, numden

DEFAULT_BITS = 128
#: Refinement cap for the zero-testing protocol; a question still open at
#: this precision is reported Undecided rather than resolved.
DEFAULT_BITS_CAP = 1024

ZERO, NONZERO, UNDECIDED = "zero", "nonzero", "undecided"


def _floor_to_bits(num: int, den: int, bits: int) -> "Q":
    """Largest dyadic rational m/2^s <= num/den with ~bits significant bits."""
    if num == 0:
        return QZERO
    s = bits - (num.bit_length() - den.bit_length())
    if s >= 0:
        m = (num << s) // den
        return Q(m, 1 << s)
    m = num // (den << -s)
    return Q(m << -s)


def _ceil_to_bits(num: int, den: int, bits: int) -> "Q":
    return -_floor_to_bits(-num, den, bits)


def round_down(q, bits: int):
    n, d = numden(q)
    return _floor_to_bits(n, d, bits)


def round_up(q, bits: int):
    n, d = numden(q)
    return _ceil_to_bits(n, d, bits)


class Interval:
    """Closed interval [lo, hi] with outward rounding to `bits` precision.

    Bounds are dyadic rationals, so interval arithmetic itself is exact;
    `bits` only limits how finely results are re-quantized (which keeps
    bound sizes under control) and records the working precision.
    """

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo, hi, bits: int = DEFAULT_BITS, _rounded: bool = False):
        if not _rounded:
            # guard bits keep the quantization error well under 2^-bits
            lo = round_down(lo, bits + 4)
            hi = round_up(hi, bits + 4)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *a):
        raise AttributeError("Interval is immutable")

    # -- helpers -------------------------------------------------------

    @staticmethod
    def point(q, bits: int = DEFAULT_BITS) -> "Interval":
        return Interval(Q(q), Q(q), bits)

    def width(self):
        return self.hi - self.lo

    def contains(self, q) -> bool:
        return self.lo <= q <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __repr__(self):
        return f"Interval[{float(self.lo)!r}, {float(self.hi)!r}; {self.bits}b]"

    def _coerce(self, other) -> "Interval | None":
        if isinstance(other, Interval):
            return other
        if is_rational(other):
            return Interval(Q(other), Q(other), self.bits, _rounded=True)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        b = min(self.bits, o.bits)
        return Interval(self.lo + o.lo, self.hi + o.hi, b)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo, self.bits, _rounded=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        b = min(self.bits, o.bits)
        return Interval(self.lo - o.hi, self.hi - o.lo, b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        b = min(self.bits, o.bits)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(products), max(products), b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.contains_zero():
            raise IndeterminateDivision(f"divisor {o!r} contains zero")
        b = min(self.bits, o.bits)
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(min(quotients), max(quotients), b)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Interval.point(QONE, self.bits)
        if n < 0:
            return (QONE / self) ** (-n)
        result = self
        for _ in range(n - 1):
            result = result * self
        # even powers of a zero-straddling interval are nonnegative
        if n % 2 == 0 and result.lo < 0 and self.contains_zero():
            result = Interval(QZERO, result.hi, result.bits, _rounded=True)
        return result


def to_interval(x, bits: int = DEFAULT_BITS) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(Q(x), Q(x), bits, _rounded=True)


def div(x, y):
    if isinstance(y, Interval):
        return x / y  # raises IndeterminateDivision when 0 in y
    if y == 0:
        raise DivisionByZero("rational division by zero")
    if isinstance(x, Interval):
        return x / y
    return Q(x) / Q(y)


def _sqrt_rational(q, bits: int):
    """Exact square root when q is a perfect rational square, else an
    enclosing interval at the requested precision."""
    if q < 0:
        raise NegativeRadicand(f"sqrt of negative rational {q}")
    if q == 0:
        return QZERO
    n, d = numden(q)
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Q(rn, rd)
    # sqrt(n/d) = sqrt(n*d)/d; bracket the integer sqrt of the scaled radicand
    s = bits + 2
    scaled = n * d << (2 * s)
    r = isqrt(scaled)
    den = d << s
    lo = Q(r, den)
    hi = Q(r + 1, den)
    return Interval(lo, hi, bits)


def sqrt(x, bits: int = DEFAULT_BITS):
    """Square root of a scalar: exact for perfect rational squares,
    otherwise an outward interval enclosure."""
    if isinstance(x, Interval):
        if x.lo < 0:
            raise NegativeRadicand(f"sqrt of interval {x!r} with negative lower bound")
        lo = _sqrt_rational(x.lo, x.bits)
        hi = _sqrt_rational(x.hi, x.bits)
        lo_b = lo.lo if isinstance(lo, Interval) else lo
        hi_b = hi.hi if isinstance(hi, Interval) else hi
        return Interval(lo_b, hi_b, x.bits, _rounded=True)
    return _sqrt_rational(Q(x), bits)


def root(x, k: int, bits: int = DEFAULT_BITS):
    """k-th root (k >= 1) of a nonnegative scalar; exact when possible."""
    if k == 1:
        return x
    if k == 2:
        return sqrt(x, bits)
    if isinstance(x, Interval):
        if x.lo < 0:
            raise NegativeRadicand(f"root of interval {x!r} with negative lower bound")
        lo = root(x.lo, k, x.bits)
        hi = root(x.hi, k, x.bits)
        lo_b = lo.lo if isinstance(lo, Interval) else lo
        hi_b = hi.hi if isinstance(hi, Interval) else hi
        return Interval(lo_b, hi_b, x.bits, _rounded=True)
    q = Q(x)
    if q < 0:
        raise NegativeRadicand(f"{k}-th root of negative rational {q}")
    if q == 0:
        return QZERO
    n, d = numden(q)
    rn, en = iroot(n, k)
    rd, ed = iroot(d, k)
    if en and ed:
        return Q(rn, rd)
    # root(n/d) = root(n*d^(k-1))/d, bracketed at scale 2^s
    s = bits + 2
    scaled = n * d ** (k - 1) << (k * s)
    r, _ = iroot(scaled, k)
    den = d << s
    return Interval(Q(r, den), Q(r + 1, den), bits)


def sign(x) -> int:
    """Sign of a scalar; raises Undecided for a zero-straddling interval
    of positive width."""
    if isinstance(x, Interval):
        if x.hi < 0:
            return -1
        if x.lo > 0:
            return 1
        if x.lo == 0 and x.hi == 0:
            return 0
        raise Undecided(f"sign of {x!r} straddling zero")
    return -1 if x < 0 else (1 if x > 0 else 0)


def is_zero(x) -> str:
    """Three-way zero test: ZERO / NONZERO / UNDECIDED.

    Rationals are decided exactly.  An interval is NONZERO when it excludes
    zero; a straddling interval is UNDECIDED (the caller must re-evaluate
    the originating expression at higher precision).
    """
    if isinstance(x, Interval):
        if not x.contains_zero():
            return NONZERO
        if x.lo == 0 and x.hi == 0:
            return ZERO
        return UNDECIDED
    return ZERO if x == 0 else NONZERO


def decide_zero(evaluate, start_bits: int = 64, cap_bits: int = DEFAULT_BITS_CAP) -> str:
    """Zero-testing protocol: re-evaluate `evaluate(bits)` at doubling
    precision until the result is decisive or the cap is reached.

    Returns ZERO only for an exactly-rational zero; an interval that still
    straddles zero at the cap yields UNDECIDED ("numerically confirmed,
    not proven" is the caller's phrasing for a tight straddle).
    """
    bits = start_bits
    while True:
        val = evaluate(bits)
        verdict = is_zero(val)
        if verdict != UNDECIDED:
            return verdict
        if not isinstance(val, Interval):
            return verdict
        if bits >= cap_bits:
            return UNDECIDED
        bits = min(2 * bits, cap_bits)


def _sign_sum_with_radical(h, xy) -> int:
    """Sign of h + 8*sqrt(xy) for rationals h and xy >= 0."""
    if h >= 0:
        return 1 if (h > 0 or xy > 0) else 0
    return sign(64 * xy - h * h)


def compare_radical_sums(p, q, r, s) -> int:
    """Exact three-way comparison of sqrt(p)+sqrt(q) vs sqrt(r)+sqrt(s).

    All inputs are nonnegative rationals.  Decided by repeated squaring:
    sign(u - v) = sign(u^2 - v^2) for nonnegative u, v, which reduces the
    question to rational comparisons on p+q vs r+s and pq vs rs.
    Returns -1, 0, or 1.
    """
    p, q, r, s = Q(p), Q(q), Q(r), Q(s)
    if min(p, q, r, s) < 0:
        raise NegativeRadicand("compare_radical_sums requires nonnegative inputs")
    t1 = (p + q) - (r + s)          # u^2 - v^2 = t1 + 2(sqrt(X) - sqrt(Y))
    x, y = p * q, r * s
    sx = sign(x - y)                # sign of sqrt(X) - sqrt(Y)
    s1 = sign(t1)
    if s1 == 0 and sx == 0:
        return 0
    if s1 >= 0 and sx >= 0:
        return 1
    if s1 <= 0 and sx <= 0:
        return -1
    # opposite signs: compare |t1| with 2|sqrt(x)-sqrt(y)| by squaring again
    h = t1 * t1 - 4 * (x + y)       # |t1|^2 - |t2|^2 = h + 8*sqrt(x*y)
    mag = _sign_sum_with_radical(h, x * y)
    return s1 * mag if mag != 0 else 0


def is_exact(x) -> bool:
    return not isinstance(x, Interval)


__all__ = [
    "BACKEND",
    "DEFAULT_BITS",
    "DEFAULT_BITS_CAP",
    "Interval",
    "NONZERO",
    "Q",
    "UNDECIDED",
    "ZERO",
    "compare_radical_sums",
    "decide_zero",
    "div",
    "is_exact",
    "is_rational",
    "is_zero",
    "root",
    "round_down",
    "round_up",
    "sign",
    "sqrt",
    "to_interval",
]
