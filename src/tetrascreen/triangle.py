"""Planar machinery: trilinear/areal coordinates and center evaluation.

A center function f(a,b,c) generates a point of the reference triangle by
cyclic rotation of its arguments: (f(a,b,c), f(b,c,a), f(c,a,b)).  The
catalog stores each formula in either trilinear or areal source form;
conversion between the two multiplies or divides componentwise by the
side lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import scalar as S
from .centerexpr import KValue, Node, eval_tree, rational_program
from ._backend import Q, as_q
from .errors import (
    DegenerateTriangle,
    DivisionByZero,
    EvaluationSingular,
    IrrationalInExactMode,
    OnSideline,
)


@dataclass(frozen=True)
class EvalMode:
    """Exact rational evaluation, or interval evaluation at `bits`."""

    exact: bool = True
    bits: int = S.DEFAULT_BITS

    @staticmethod
    def interval(bits: int = S.DEFAULT_BITS) -> "EvalMode":
        return EvalMode(exact=False, bits=bits)


EXACT = EvalMode()


@dataclass(frozen=True)
class TriangleSides:
    a: object
    b: object
    c: object

    def __post_init__(self):
        a, b, c = as_q(self.a), as_q(self.b), as_q(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        # the sides over their common denominator: (a*L, b*L, c*L, L)
        big = math.lcm(a.denominator, b.denominator, c.denominator)
        x, y, z = (a.numerator * (big // a.denominator), b.numerator * (big // b.denominator),
                   c.numerator * (big // c.denominator))
        object.__setattr__(self, "int_form", (x, y, z, big))
        if min(x, y, z) <= 0:
            raise DegenerateTriangle(f"nonpositive side in ({a}, {b}, {c})")
        if x >= y + z or y >= z + x or z >= x + y:
            raise DegenerateTriangle(f"triangle inequality fails for ({a}, {b}, {c})")

    def sides(self):
        return (self.a, self.b, self.c)

    def area_squared(self):
        """K^2 from the side lengths (Heron, squared and cleared of roots)."""
        a2, b2, c2 = self.a ** 2, self.b ** 2, self.c ** 2
        return (2 * (a2 * b2 + b2 * c2 + c2 * a2) - a2 ** 2 - b2 ** 2 - c2 ** 2) / 16

    def area(self, bits: int = S.DEFAULT_BITS):
        return S.sqrt(self.area_squared(), bits)


def projective_eq(u, v) -> bool:
    """Two coordinate tuples name the same projective point iff all 2x2
    cross products vanish.  Raises Undecided if intervals cannot settle it."""
    n = len(u)
    if n != len(v):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if S.sign(u[i] * v[j] - u[j] * v[i]) != 0:
                return False
    return True


def _all_zero(coords) -> bool:
    return all(S.is_exact(x) and x == 0 for x in coords)


@dataclass(frozen=True)
class Trilinear:
    alpha: object
    beta: object
    gamma: object

    def tuple(self):
        return (self.alpha, self.beta, self.gamma)

    def proj_eq(self, other: "Trilinear") -> bool:
        return projective_eq(self.tuple(), other.tuple())


@dataclass(frozen=True)
class Areal:
    x: object
    y: object
    z: object

    def tuple(self):
        return (self.x, self.y, self.z)

    def proj_eq(self, other: "Areal") -> bool:
        return projective_eq(self.tuple(), other.tuple())

    def normalized(self) -> "Areal":
        s = self.x + self.y + self.z
        if S.sign(s) == 0:
            raise EvaluationSingular("coordinate sum is zero; point at infinity")
        return Areal(S.div(self.x, s), S.div(self.y, s), S.div(self.z, s))


def trilinear_to_areal(t: Trilinear, sides: TriangleSides) -> Areal:
    return Areal(sides.a * t.alpha, sides.b * t.beta, sides.c * t.gamma)


def areal_to_trilinear(p: Areal, sides: TriangleSides) -> Trilinear:
    # divide componentwise by the sides; done as multiplication by the
    # complementary products to stay division-free
    a, b, c = sides.sides()
    return Trilinear(p.x * b * c, p.y * c * a, p.z * a * b)


def _require_off_sidelines(coords):
    for x in coords:
        if S.sign(x) == 0:
            raise OnSideline("conjugate undefined: point lies on a sideline")


def isotomic_conjugate(p: Areal) -> Areal:
    """Componentwise reciprocal, computed division-free as (yz, zx, xy)."""
    x, y, z = p.tuple()
    _require_off_sidelines((x, y, z))
    return Areal(y * z, z * x, x * y)


def isogonal_conjugate(p: Areal, sides: TriangleSides) -> Areal:
    """(x, y, z) -> (a^2/x, b^2/y, c^2/z), division-free.

    Equivalent to converting to trilinears, taking componentwise
    reciprocals, and converting back (which pins the sign of the side
    exponent: the incenter (a, b, c) must be self-conjugate).
    """
    x, y, z = p.tuple()
    _require_off_sidelines((x, y, z))
    a2, b2, c2 = sides.a ** 2, sides.b ** 2, sides.c ** 2
    return Areal(a2 * y * z, b2 * z * x, c2 * x * y)


def eval_center_raw(expr: Node, sides: TriangleSides, r=None, mode: EvalMode = EXACT):
    """The cyclic value triple (f(a,b,c), f(b,c,a), f(c,a,b)) as scalars.

    A K-free center at an integer (or absent) r runs as a compiled integer
    program (see centerexpr.compile_rational).  Anything else walks the
    tree in the ring with K^2 substituted exactly.  A common factor K
    across all three values is divided out (projectively valid since
    K > 0); a surviving mixed K makes the result irrational, which is an
    error in exact mode and an interval enclosure otherwise.
    """
    program = rational_program(expr, r)
    if program is not None:
        try:
            coords = program(*sides.int_form)
        except DivisionByZero as exc:
            raise EvaluationSingular(f"zero denominator: {exc}") from exc
        if not any(coords):
            raise EvaluationSingular("all three coordinates vanish on this triangle")
        return coords
    a, b, c = sides.sides()
    k2 = sides.area_squared()
    kv = KValue(Q(0), Q(1), k2)
    values = []
    try:
        for args in ((a, b, c), (b, c, a), (c, a, b)):
            env = {"a": args[0], "b": args[1], "c": args[2], "K": kv}
            if r is not None:
                env["r"] = Q(r)
            values.append(eval_tree(expr, env, exact=mode.exact, bits=mode.bits))
    except (DivisionByZero, ZeroDivisionError) as exc:
        raise EvaluationSingular(f"zero denominator: {exc}") from exc

    pairs = [(v.u, v.v) if isinstance(v, KValue) else (v, Q(0)) for v in values]
    if all(S.is_exact(v) and v == 0 for _, v in pairs):
        coords = [u for u, _ in pairs]
    elif all(S.is_exact(u) and u == 0 for u, _ in pairs):
        coords = [v for _, v in pairs]  # common factor K removed
    else:
        if mode.exact:
            raise IrrationalInExactMode("K survives with odd degree; use interval mode")
        k_enc = S.sqrt(k2, mode.bits)
        coords = [u + v * k_enc for u, v in pairs]
    if _all_zero(coords):
        raise EvaluationSingular("all three coordinates vanish on this triangle")
    return tuple(coords)


def eval_center(expr: Node, sides: TriangleSides, r=None, mode: EvalMode = EXACT,
                form: str = "trilinear"):
    """Evaluate a center function; returns Trilinear or Areal per `form`."""
    coords = eval_center_raw(expr, sides, r, mode)
    if form == "trilinear":
        return Trilinear(*coords)
    if form == "areal":
        return Areal(*coords)
    raise ValueError(f"unknown form {form!r}")
