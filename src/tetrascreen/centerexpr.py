"""Center-function expression language.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' exponent)?
    atom   := INTEGER | 'a' | 'b' | 'c' | 'K' | 'r' | '(' expr ')'
    exponent := ['-'] INTEGER | 'r' | '(' ['-'] INTEGER ')'

Rational literals are written as quotients (``3/4``).  ``a, b, c`` are the
triangle sides, ``K`` its area, ``r`` a rational parameter.  Exponents are
integers of magnitude at most :data:`MAX_EXPONENT`, except that the
parameter ``r`` itself may appear as an exponent (and may be given a
non-integer rational value at evaluation time).

A valid center function must be homogeneous (with K counted as degree 2)
and symmetric in b and c; both are checked by exact evaluation at random
rational points.

Evaluation happens in the ring Q(a,b,c)[K] / (K^2 = k2): values are pairs
u + v*K, so quotients with K in the denominator are cleared via
x/(y+z*K) = x*(y-z*K)/(y^2 - z^2*K^2) and a K-free expression never leaves
exact arithmetic.
"""

from __future__ import annotations

import random
import types
import weakref
from dataclasses import dataclass
from typing import Union

from . import scalar as S
from ._backend import Q, is_rational
from .errors import (
    CenterExprError,
    DivisionByZero,
    EvaluationSingular,
    ExprSyntaxError,
    IrrationalInExactMode,
    NegativeRadicand,
    NotHomogeneous,
    NotSymmetric,
)


# --- AST ---------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str  # 'a' | 'b' | 'c' | 'K' | 'r'


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class PowR:
    """base ** r where r is the evaluation-time parameter."""

    base: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


Node = Union[Num, Sym, Add, Sub, Mul, Div, Pow, PowR, Neg]


def uses_symbol(node: Node, name: str) -> bool:
    if isinstance(node, Sym):
        return node.name == name
    if isinstance(node, Num):
        return False
    if isinstance(node, (Add, Sub, Mul, Div)):
        return uses_symbol(node.left, name) or uses_symbol(node.right, name)
    if isinstance(node, Pow):
        return uses_symbol(node.base, name)
    if isinstance(node, PowR):
        return name == "r" or uses_symbol(node.base, name)
    if isinstance(node, Neg):
        return uses_symbol(node.operand, name)
    raise TypeError(node)


def to_text(node: Node) -> str:
    """Render a tree back to grammar-conforming text."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Add):
        return f"({to_text(node.left)}+{to_text(node.right)})"
    if isinstance(node, Sub):
        return f"({to_text(node.left)}-{to_text(node.right)})"
    if isinstance(node, Mul):
        return f"({to_text(node.left)}*{to_text(node.right)})"
    if isinstance(node, Div):
        return f"({to_text(node.left)}/{to_text(node.right)})"
    if isinstance(node, Pow):
        e = node.exponent
        return f"{to_text(node.base)}^({e})" if e < 0 else f"{to_text(node.base)}^{e}"
    if isinstance(node, PowR):
        return f"{to_text(node.base)}^r"
    if isinstance(node, Neg):
        return f"(-{to_text(node.operand)})"
    raise TypeError(node)


# --- parser ------------------------------------------------------------

#: Largest magnitude of an integer exponent, and of the numerator and the
#: denominator of r in a center spec.  Built-in exponents reach 4 and hunts
#: use r in -2..3; a larger one is refused at parse time (a^-1000000000
#: would otherwise run for minutes).
MAX_EXPONENT = 64

_SYMBOLS = frozenset("abcKr")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> Node:
        node = self.expr()
        if self.peek():
            raise self.error(f"unexpected {self.peek()!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                node = Add(node, self.term())
            elif ch == "-":
                self.take()
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                node = Mul(node, self.factor())
            elif ch == "/":
                self.take()
                node = Div(node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        if self.peek() == "-":
            self.take()
            return Neg(self.factor())
        node = self.atom()
        if self.peek() == "^":
            self.take()
            return self.exponent(node)
        return node

    def exponent(self, base: Node) -> Node:
        ch = self.peek()
        if ch == "r":
            self.take()
            return PowR(base)
        if ch == "(":
            self.take()
            inner = self.signed_int_or_r(base)
            if self.peek() != ")":
                raise self.error("expected ')' after exponent")
            self.take()
            return inner
        return self.signed_int_or_r(base)

    def signed_int_or_r(self, base: Node) -> Node:
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        ch = self.peek()
        if ch == "r":
            if neg:
                raise self.error("exponent -r is not supported")
            self.take()
            return PowR(base)
        if not ch.isdigit():
            raise self.error("exponent must be an integer or r")
        n = self.integer()
        if n > MAX_EXPONENT:
            raise self.error(f"exponent {'-' if neg else ''}{n} is out of range "
                             f"(magnitude at most {MAX_EXPONENT})")
        return Pow(base, -n if neg else n)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected integer")
        return int(self.text[start:self.pos])

    def atom(self) -> Node:
        ch = self.peek()
        if ch == "(":
            self.take()
            node = self.expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            return node
        if ch.isdigit():
            return Num(self.integer())
        if ch in _SYMBOLS:
            self.take()
            return Sym(ch)
        raise self.error(f"unexpected {ch!r}" if ch else "unexpected end of input")


def parse_text(text: str) -> Node:
    return _Parser(text).parse()


# --- evaluation --------------------------------------------------------

class KValue:
    """Element u + v*K of the quadratic ring with K^2 = k2 (a rational)."""

    __slots__ = ("u", "v", "k2")

    def __init__(self, u, v, k2):
        self.u = u
        self.v = v
        self.k2 = k2

    def _coerce(self, other):
        if isinstance(other, KValue):
            if other.k2 != self.k2:
                raise ValueError("mixing K-rings with different K^2")
            return other
        if is_rational(other) or isinstance(other, S.Interval):
            return KValue(other, Q(0), self.k2)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KValue(self.u + o.u, self.v + o.v, self.k2)

    __radd__ = __add__

    def __neg__(self):
        return KValue(-self.u, -self.v, self.k2)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KValue(self.u - o.u, self.v - o.v, self.k2)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KValue(
            self.u * o.u + self.v * o.v * self.k2,
            self.u * o.v + self.v * o.u,
            self.k2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # multiply by the conjugate: 1/(s + t*K) = (s - t*K)/(s^2 - t^2*k2)
        d = o.u * o.u - o.v * o.v * self.k2
        if S.sign(d) == 0:
            raise EvaluationSingular("denominator norm s^2 - t^2*K^2 vanishes")
        num = self * KValue(o.u, -o.v, self.k2)
        return KValue(S.div(num.u, d), S.div(num.v, d), self.k2)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o.__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (Q(1) / self) ** (-n)
        result = KValue(Q(1), Q(0), self.k2)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def is_pure_rational_part(self) -> bool:
        return S.is_exact(self.v) and self.v == 0

    def __repr__(self):
        return f"KValue({self.u!r} + {self.v!r}*K)"


def _pow_param(base, r, exact: bool, bits: int):
    """base ** r for a rational parameter r; scalar base only."""
    if isinstance(base, KValue):
        if base.is_pure_rational_part():
            base = base.u
        else:
            raise IrrationalInExactMode(
                "parameter exponent applied to a value containing K"
            )
    rn, rd = int(r.numerator), int(r.denominator)
    if rd == 1:
        if rn >= 0:
            return base ** rn
        if S.sign(base) == 0:
            raise EvaluationSingular("negative power of zero")
        return S.div(Q(1), base ** (-rn))
    if S.sign(base) < 0:
        raise NegativeRadicand("fractional power of a negative value")
    powered = base ** abs(rn)
    result = S.root(powered, rd, bits)
    if rn < 0:
        if S.sign(result) == 0:
            raise EvaluationSingular("negative fractional power of zero")
        result = S.div(Q(1), result)
    if exact and not S.is_exact(result):
        raise IrrationalInExactMode(f"{r} power is irrational here")
    return result


def eval_tree(node: Node, env: dict, exact: bool = True, bits: int = S.DEFAULT_BITS):
    """Evaluate a tree over an environment mapping symbols to values.

    env['K'] may be a KValue (the symbolic ring element), a rational, or an
    interval; env['r'] is a rational or absent.
    """
    if isinstance(node, Num):
        return Q(node.value)
    if isinstance(node, Sym):
        try:
            return env[node.name]
        except KeyError:
            raise CenterExprError(f"symbol {node.name} has no value") from None
    if isinstance(node, Add):
        return eval_tree(node.left, env, exact, bits) + eval_tree(node.right, env, exact, bits)
    if isinstance(node, Sub):
        return eval_tree(node.left, env, exact, bits) - eval_tree(node.right, env, exact, bits)
    if isinstance(node, Mul):
        return eval_tree(node.left, env, exact, bits) * eval_tree(node.right, env, exact, bits)
    if isinstance(node, Div):
        num = eval_tree(node.left, env, exact, bits)
        den = eval_tree(node.right, env, exact, bits)
        if isinstance(num, KValue) or isinstance(den, KValue):
            return num / den
        return S.div(num, den)
    if isinstance(node, Pow):
        base = eval_tree(node.base, env, exact, bits)
        n = node.exponent
        if n >= 0:
            return base ** n
        if isinstance(base, KValue):
            return base ** n  # KValue.__pow__ handles the reciprocal
        if S.sign(base) == 0:
            raise EvaluationSingular("negative power of zero")
        return S.div(Q(1), base ** (-n))
    if isinstance(node, PowR):
        base = eval_tree(node.base, env, exact, bits)
        r = env.get("r")
        if r is None:
            raise CenterExprError("expression uses parameter r but no value was given")
        return _pow_param(base, Q(r), exact, bits)
    if isinstance(node, Neg):
        return -eval_tree(node.operand, env, exact, bits)
    raise TypeError(node)


# --- compilation -------------------------------------------------------
#
# A K-free tree at an integer r is a rational function of (a, b, c).  It
# compiles to one straight-line Python function over integers: the sides
# arrive as numerators a, b, c over a common denominator L, and every
# intermediate value is a (numerator, denominator) pair with no per-step
# gcd.  While a subtree is a polynomial its denominator is a power of L
# known at compile time, so only its numerator is computed; other
# denominators are runtime products.  The statements follow the tree
# walk's post-order and raise where it raises, with the same messages.
# Every emitted token comes from the emitter: int literals and fixed names.


class _Emitter:
    def __init__(self, r):
        self.r = r
        self.lines = []
        self.powers = set()     # exponents e > 1 whose L**e the body reads
        self.names = {}         # emitted right-hand side -> its variable
        self.nonzero = set()    # variables already tested against zero

    def tmp(self, expr: str) -> str:
        """A variable holding `expr`; values are immutable ints, so an
        expression emitted before is reused."""
        if expr.isidentifier():
            return expr
        name = self.names.get(expr)
        if name is None:
            name = self.names[expr] = f"t{len(self.names) + 1}"
            self.lines.append(f"    {name} = {expr}")
        return name

    def require_nonzero(self, n: str, error: str):
        # a repeated test is unreachable: the first one already raised
        if n not in self.nonzero:
            self.nonzero.add(n)
            self.lines.append(f"    if {n} == 0: raise {error}")

    def den(self, d) -> str:
        """Source of a denominator: an L exponent (int) or a variable."""
        if isinstance(d, str):
            return d
        if d > 1:
            self.powers.add(d)
            return f"L{d}"
        return "L" if d == 1 else "1"

    def times_den(self, num: str, d) -> str:
        return num if d == 0 else f"{num} * {self.den(d)}"

    def general(self, n, d):
        """A value as two runtime names (numerator, denominator)."""
        return n, (d if isinstance(d, str) else self.tmp(self.den(d)))

    def value(self, node: Node, names: dict):
        """Emit `node`; returns (numerator source, denominator) where the
        denominator is an int exponent of L or a variable name."""
        if isinstance(node, Num):
            return f"({int(node.value)})", 0
        if isinstance(node, Sym):
            if node.name == "r":
                return f"({self.r})", 0
            return names[node.name], 1
        if isinstance(node, Neg):
            n, d = self.value(node.operand, names)
            return self.tmp(f"-{n}"), d
        if isinstance(node, (Add, Sub, Mul, Div)):
            n1, d1 = self.value(node.left, names)
            n2, d2 = self.value(node.right, names)
            if isinstance(node, Div):
                self.require_nonzero(n2, "DivisionByZero('rational division by zero')")
                if isinstance(d1, int) and isinstance(d2, int):
                    e = min(d1, d2)
                    return (self.tmp(self.times_den(n1, d2 - e)),
                            self.tmp(self.times_den(n2, d1 - e)))
                n1, d1 = self.general(n1, d1)
                n2, d2 = self.general(n2, d2)
                return self.tmp(f"{n1} * {d2}"), self.tmp(f"{d1} * {n2}")
            if isinstance(node, Mul):
                if isinstance(d1, int) and isinstance(d2, int):
                    return self.tmp(f"{n1} * {n2}"), d1 + d2
                n1, d1 = self.general(n1, d1)
                n2, d2 = self.general(n2, d2)
                return self.tmp(f"{n1} * {n2}"), self.tmp(f"{d1} * {d2}")
            op = "+" if isinstance(node, Add) else "-"
            if isinstance(d1, int) and isinstance(d2, int):
                e = max(d1, d2)
                return (self.tmp(f"{self.times_den(n1, e - d1)} {op} "
                                 f"{self.times_den(n2, e - d2)}"), e)
            n1, d1 = self.general(n1, d1)
            n2, d2 = self.general(n2, d2)
            return self.tmp(f"{n1} * {d2} {op} {n2} * {d1}"), self.tmp(f"{d1} * {d2}")
        if isinstance(node, (Pow, PowR)):
            k = node.exponent if isinstance(node, Pow) else int(self.r)
            n, d = self.value(node.base, names)
            if k >= 0:
                if isinstance(d, int):
                    return self.tmp(f"{n} ** {k}"), d * k
                return self.tmp(f"{n} ** {k}"), self.tmp(f"{d} ** {k}")
            self.require_nonzero(n, "EvaluationSingular('negative power of zero')")
            if isinstance(d, int):
                return self.den(-d * k), self.tmp(f"{n} ** {-k}")
            return self.tmp(f"{d} ** {-k}"), self.tmp(f"{n} ** {-k}")
        raise TypeError(node)


_ROTATIONS = ({"a": "a", "b": "b", "c": "c"},
              {"a": "b", "b": "c", "c": "a"},
              {"a": "c", "b": "a", "c": "b"})


def compile_rational(node: Node, r=None):
    """Compile a K-free tree at an integer (or absent) r into a function
    (a, b, c, L) -> (f(a,b,c), f(b,c,a), f(c,a,b)) of Fractions, where the
    sides are a/L, b/L, c/L with integer numerators.  Returns None when
    the tree needs the tree walk: it uses K, or r is fractional, or r is
    used but not given."""
    if uses_symbol(node, "K"):
        return None
    if r is None:
        if uses_symbol(node, "r"):
            return None
    elif Q(r).denominator != 1:
        return None
    em = _Emitter(None if r is None else int(Q(r)))
    results = []
    for names in _ROTATIONS:
        n, d = em.value(node, names)
        results.append(f"Fraction({n}, {em.den(d)})")
    head = [f"    L{e} = L ** {e}" for e in sorted(em.powers)]
    source = "\n".join(["def center(a, b, c, L):", *head, *em.lines,
                        f"    return ({', '.join(results)})"])
    module = compile(source, "<center program>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, types.CodeType))
    return types.FunctionType(code, _PROGRAM_GLOBALS)


# the only names a program reads; one dict shared by all programs
_PROGRAM_GLOBALS = {"Fraction": Q, "DivisionByZero": DivisionByZero,
                    "EvaluationSingular": EvaluationSingular}


class _TreeRef(weakref.ref):
    """Weak reference to a tree that carries its compiled programs by r."""

    __slots__ = ("key", "programs")

    def __init__(self, node, callback):
        super().__init__(node, callback)
        self.key = id(node)
        self.programs = {}


def _forget_tree(ref: _TreeRef):
    if _trees.get(ref.key) is ref:
        del _trees[ref.key]


_trees: dict = {}   # id(tree) -> _TreeRef, while the tree lives


def rational_program(node: Node, r=None):
    """compile_rational, memoized per (live tree, r).

    Keyed by the tree's identity, not its value: hashing a tree walks it.
    The programs go when the tree is freed.
    """
    ref = _trees.get(id(node))
    if ref is None or ref() is not node:
        ref = _trees[id(node)] = _TreeRef(node, _forget_tree)
    r = None if r is None else Q(r)
    if r not in ref.programs:
        ref.programs[r] = compile_rational(node, r)
    return ref.programs[r]


# --- validation --------------------------------------------------------

def _eval_rational_point(node: Node, a, b, c, k, r):
    env = {"a": a, "b": b, "c": c, "K": k}
    if r is not None:
        env["r"] = r
    return eval_tree(node, env, exact=True)


_VALIDATION_SAMPLES = 5
_VALIDATION_RETRIES = 40


def validate_center_function(node: Node, seed: int = 20200806) -> None:
    """Check the two center-function conditions by exact evaluation.

    Symmetry: swapping b and c (K is symmetric) must not change the value.
    Homogeneity: f(t*a, t*b, t*c, t^2*K) must scale by a factor depending
    only on t, checked division-free as f(tA)*f(B) == f(A)*f(tB) on pairs
    of random rational points.  With the parameter r the checks run at a
    few integer values of r.
    """
    rng = random.Random(seed)
    takes_r = uses_symbol(node, "r")
    r_values = (Q(2), Q(3)) if takes_r else (None,)

    def sample():
        return tuple(Q(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(4))

    for r in r_values:
        done_sym = done_hom = 0
        attempts = 0
        while (done_sym < _VALIDATION_SAMPLES or done_hom < _VALIDATION_SAMPLES):
            attempts += 1
            if attempts > _VALIDATION_RETRIES:
                raise CenterExprError(
                    "could not validate: evaluation is singular at nearly all sample points"
                )
            a, b, c, k = sample()
            t = Q(rng.randint(2, 9), rng.randint(1, 5))
            a2, b2, c2, k2 = sample()
            try:
                if done_sym < _VALIDATION_SAMPLES:
                    v1 = _eval_rational_point(node, a, b, c, k, r)
                    v2 = _eval_rational_point(node, a, c, b, k, r)
                    if v1 != v2:
                        raise NotSymmetric(
                            f"not symmetric in b, c: f{(a, b, c)} = {v1} but f{(a, c, b)} = {v2}"
                        )
                    done_sym += 1
                if done_hom < _VALIDATION_SAMPLES:
                    fa = _eval_rational_point(node, a, b, c, k, r)
                    fb = _eval_rational_point(node, a2, b2, c2, k2, r)
                    fta = _eval_rational_point(node, t * a, t * b, t * c, t * t * k, r)
                    ftb = _eval_rational_point(node, t * a2, t * b2, t * c2, t * t * k2, r)
                    if fa == 0 and fb == 0:
                        continue
                    if fta * fb != fa * ftb:
                        raise NotHomogeneous(
                            "not homogeneous (with K of degree 2): scaling by "
                            f"{t} is inconsistent between sample points"
                        )
                    done_hom += 1
            except (DivisionByZero, EvaluationSingular, ZeroDivisionError):
                continue

    # a center function must not vanish identically
    rng2 = random.Random(seed + 1)
    for _ in range(_VALIDATION_RETRIES):
        a, b, c, k = (Q(rng2.randint(1, 60), rng2.randint(1, 60)) for _ in range(4))
        try:
            if _eval_rational_point(node, a, b, c, k, r_values[0]) != 0:
                return
        except (DivisionByZero, EvaluationSingular, ZeroDivisionError):
            continue
    raise CenterExprError("expression vanishes at all sample points; not a center function")


def parse_center_expr(text: str, validate: bool = True) -> Node:
    """Parse and (by default) validate a center-function expression."""
    node = parse_text(text)
    if validate:
        validate_center_function(node)
    return node
