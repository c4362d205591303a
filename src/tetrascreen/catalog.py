"""Curated triangle-center library.

X-entries are classical Kimberling/ETC centers with their trilinears made
angle-free: every trig function of a vertex angle is eliminated through
sin A = 2K/(bc) and cos A = (b^2+c^2-a^2)/(2bc), factors common to all
three coordinates are dropped, and K^2 is expanded by Heron where that
leaves a polynomial.  Y/Z/POW entries and the parametric CEV*/HYP*
families are screening families (Z and POW take the rational parameter r).

Ids X102 and X117 use an extended numbering that does NOT match the ETC
points of the same index; they are defined by the formulas shown (the
harmonic-mean companions of X43).

A catalog can also be loaded from a text file, one entry per line::

    id | trilinear|areal | <expression> | yes/no   # takes_r

with ``#`` starting a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import centerexpr as CE
from .centerexpr import Div, Mul, Node, Num, Pow, Sym
from .errors import UnknownId, ValidationError
from .triangle import (
    Areal,
    EvalMode,
    TriangleSides,
    Trilinear,
    eval_center_raw,
    trilinear_to_areal,
)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    name: str
    form: str                 # 'trilinear' | 'areal' source form
    expr: Node
    takes_r: bool
    rational_only: bool = field(default=False)
    source: str = ""

    @staticmethod
    def from_text(id: str, name: str, form: str, text: str, takes_r: bool,
                  source: str = "") -> "CatalogEntry":
        if form not in ("trilinear", "areal"):
            raise ValidationError(id, ValueError(f"bad form {form!r}"))
        try:
            expr = CE.parse_center_expr(text)
        except Exception as exc:
            raise ValidationError(id, exc) from exc
        if CE.uses_symbol(expr, "r") != takes_r:
            raise ValidationError(
                id, ValueError("takes_r flag disagrees with use of r in the expression"))
        rational_only = not CE.uses_symbol(expr, "K")
        return CatalogEntry(id, name, form, expr, takes_r, rational_only, source or text)

    def areal_expr(self) -> Node:
        """The areal-form center function (trilinear forms gain a factor a)."""
        if self.form == "areal":
            return self.expr
        return Mul(Sym("a"), self.expr)

    def isotomic(self) -> "CatalogEntry":
        """Entry for the isotomic conjugate (areal reciprocal)."""
        return CatalogEntry(
            id=f"{self.id}^T",
            name=f"isotomic conjugate of {self.name}",
            form="areal",
            expr=Div(Num(1), self.areal_expr()),
            takes_r=self.takes_r,
            rational_only=self.rational_only,
            source=f"isotomic({self.id})",
        )

    def isogonal(self) -> "CatalogEntry":
        """Entry for the isogonal conjugate ((x,y,z) -> (a^2/x, ...))."""
        return CatalogEntry(
            id=f"{self.id}^-1",
            name=f"isogonal conjugate of {self.name}",
            form="areal",
            expr=Div(Pow(Sym("a"), 2), self.areal_expr()),
            takes_r=self.takes_r,
            rational_only=self.rational_only,
            source=f"isogonal({self.id})",
        )

    def power_scaled(self, r_exp: int, q: int) -> "CatalogEntry":
        """Entry with areal function a^r_exp * F^q (F this entry's areal
        function); closure companion for ruled-surface checks."""
        base = self.areal_expr()
        expr: Node = Pow(base, q) if q != 1 else base
        if r_exp != 0:
            expr = Mul(Pow(Sym("a"), r_exp), expr)
        return CatalogEntry(
            id=f"{self.id}*a^{r_exp}q{q}",
            name=f"a^{r_exp} * ({self.name})^{q}",
            form="areal",
            expr=expr,
            takes_r=self.takes_r,
            rational_only=self.rational_only,
            source=f"power_scaled({self.id}, {r_exp}, {q})",
        )

    def areal_on(self, sides: TriangleSides, r=None, mode: EvalMode = EvalMode()) -> Areal:
        """Areal coordinates of this center in the given triangle."""
        coords = eval_center_raw(self.expr, sides, r, mode)
        if self.form == "areal":
            return Areal(*coords)
        return trilinear_to_areal(Trilinear(*coords), sides)


class Catalog:
    """Ordered, id-indexed collection of validated entries."""

    def __init__(self, entries=()):
        self._entries: list[CatalogEntry] = []
        self._index: dict[str, CatalogEntry] = {}
        # conjugate entries built on lookup, kept so that one id keeps one
        # expression tree (and one compiled program per r)
        self._conjugates: dict[str, CatalogEntry] = {}
        for e in entries:
            self.add(e)

    def add(self, entry: CatalogEntry):
        if entry.id in self._index:
            raise ValidationError(entry.id, ValueError("duplicate id"))
        self._entries.append(entry)
        self._index[entry.id] = entry

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, id: str):
        return id in self._index

    def __getitem__(self, id: str) -> CatalogEntry:
        base, sep, suffix = id.partition("^")
        if sep and base in self._index and suffix in ("T", "-1"):
            entry = self._conjugates.get(id)
            if entry is None:
                entry = self._index[base]
                entry = self._conjugates[id] = (entry.isotomic() if suffix == "T"
                                                else entry.isogonal())
            return entry
        try:
            return self._index[id]
        except KeyError:
            raise UnknownId(f"no catalog entry {id!r}") from None

    def ids(self):
        return [e.id for e in self._entries]

    def merged_with(self, other: "Catalog") -> "Catalog":
        return Catalog(list(self._entries) + list(other._entries))


def _E(id, name, form, text, takes_r=False):
    return CatalogEntry.from_text(id, name, form, text, takes_r)


# ETC references give the standard trilinears; angle elimination applied
# where the published form uses trig functions of the vertex angles.
_BUILTIN_TABLE = [
    # id, name, form, expression, takes_r
    ("X1", "incenter", "trilinear", "1", False),
    ("X2", "centroid", "trilinear", "1/a", False),
    # X3: cos A, times 2abc
    ("X3", "circumcenter", "trilinear", "a*(b^2+c^2-a^2)", False),
    # X4: sec A, times abc/ (common factor)
    ("X4", "orthocenter", "trilinear", "1/(a*(b^2+c^2-a^2))", False),
    # X5: cos(B-C) expanded; numerator 2*(a^2(b^2+c^2) - (b^2-c^2)^2) over 4a^2bc
    ("X5", "nine-point center", "trilinear", "(a^2*(b^2+c^2)-(b^2-c^2)^2)/a", False),
    ("X6", "symmedian point", "trilinear", "a", False),
    # X7: 1/(s-a) in areal, i.e. trilinear 1/(a(b+c-a))
    ("X7", "Gergonne point", "trilinear", "1/(a*(b+c-a))", False),
    ("X8", "Nagel point", "trilinear", "(b+c-a)/a", False),
    ("X9", "Mittenpunkt", "trilinear", "b+c-a", False),
    ("X10", "Spieker center", "trilinear", "(b+c)/a", False),
    # X11: 1 - cos(B-C), which factors as (b+c-a)(b-c)^2 / a up to constants
    ("X11", "Feuerbach point", "trilinear", "(b+c-a)*(b-c)^2/a", False),
    # X19: tan A with the common 4K removed ("crucial point" in older texts)
    ("X19", "Clawson point (crucial point)", "trilinear", "1/(b^2+c^2-a^2)", False),
    # X20: cos A - cos B cos C, times 4a^2bc / a
    ("X20", "de Longchamps point", "trilinear",
     "((b^2-c^2)^2+2*a^2*(b^2+c^2)-3*a^4)/a", False),
    # X25: sin A tan A
    ("X25", "X25 (orthic/tangential homothety center)", "trilinear",
     "a/(b^2+c^2-a^2)", False),
    ("X37", "crosspoint of incenter and centroid", "trilinear", "b+c", False),
    ("X38", "X38", "trilinear", "b^2+c^2", False),
    ("X39", "Brocard midpoint", "trilinear", "a*(b^2+c^2)", False),
    # X40: cos B + cos C - cos A - 1, times 2abc
    ("X40", "Bevan point", "trilinear",
     "b*(c^2+a^2-b^2)+c*(a^2+b^2-c^2)-a*(b^2+c^2-a^2)-2*a*b*c", False),
    ("X41", "X41", "trilinear", "a^2*(b+c-a)", False),
    ("X42", "crosspoint of incenter and symmedian", "trilinear", "a*(b+c)", False),
    ("X43", "X43", "trilinear", "1/b+1/c-1/a", False),
    ("X44", "X44", "trilinear", "b+c-2*a", False),
    # X48: sin 2A, times a^2b^2c^2/(2K)
    ("X48", "X48", "trilinear", "a^2*(b^2+c^2-a^2)", False),
    # X53: tan A cos(B-C), expanded like X5 over the X19 denominator
    ("X53", "symmedian of orthic triangle", "trilinear",
     "(a^2*(b^2+c^2)-(b^2-c^2)^2)/(a*(b^2+c^2-a^2))", False),
    ("X57", "isogonal conjugate of Mittenpunkt", "trilinear", "1/(b+c-a)", False),
    # X63: cot A with the common 4K removed
    ("X63", "isogonal conjugate of Clawson point", "trilinear", "b^2+c^2-a^2", False),
    ("X69", "isotomic conjugate of orthocenter... in areal b^2+c^2-a^2", "trilinear",
     "(b^2+c^2-a^2)/a", False),
    ("X76", "3rd-power-point inverse", "trilinear", "1/a^3", False),
    # extended ids (not the ETC points of the same number): harmonic-mean
    # companions of X43 under the 1/x-family
    ("X102", "X43 companion a*(1/b+1/c-1/a)", "trilinear", "a*(1/b+1/c-1/a)", False),
    ("X117", "X43 companion (1/b+1/c-1/a)/a", "trilinear", "(1/b+1/c-1/a)/a", False),
    # screening families Y1-Y14
    ("Y1", "Y1", "trilinear", "1/(a^2*(b+c)-a*b*c)", False),
    ("Y2", "Y2", "trilinear", "a/((b-a)*(c-a))", False),
    ("Y3", "Y3", "trilinear", "a^2*(b+c)", False),
    ("Y4", "Y4", "trilinear", "1/(a^2*(b+c))", False),
    ("Y5", "Y5", "trilinear", "a/(b^2+c^2)", False),
    ("Y6", "Y6", "trilinear", "a^2*(b^2+c^2)", False),
    ("Y7", "Y7", "trilinear", "1/(a^2*(b^2+c^2))", False),
    ("Y8", "Y8", "trilinear", "(b^2+c^2)/a", False),
    ("Y9", "Y9", "trilinear", "a*(b+c-2*a)", False),
    ("Y10", "Y10", "trilinear", "1/(a*(b+c-2*a))", False),
    ("Y11", "Y11", "trilinear", "a/(b+c-2*a)", False),
    ("Y12", "Y12", "trilinear", "a^2*(b+c-2*a)", False),
    ("Y13", "Y13", "trilinear", "1/(a^2*(b+c-2*a))", False),
    ("Y14", "Y14", "trilinear", "b+c-b*c/a", False),
    # parametric families
    ("POW", "r-power point", "trilinear", "a^r", True),
    ("Z1", "Z1", "trilinear", "a^r*(b+c)", True),
    ("Z2", "Z2", "trilinear", "a^r*(b^2+c^2)", True),
    ("Z3", "Z3", "trilinear", "a^r*(b+c-a)", True),
    ("Z4", "Z4", "trilinear", "a^r*(b+c-2*a)", True),
    ("Z5", "Z5", "trilinear", "a^r*(b^2+c^2-a^2)", True),
    ("Z6", "Z6", "trilinear", "a^r*(b^3+c^3)", True),
    ("Z7", "Z7", "trilinear", "a^r*(b^2+c^2+b*c)", True),
    ("Z8", "Z8", "trilinear", "2*a^r+b^r+c^r", True),
    ("Z9", "Z9", "trilinear", "(b^r+c^r)/a", True),
    ("Z10", "Z10", "trilinear", "(b^r+c^r-a^r)/a", True),
    ("Z11", "Z11", "trilinear", "(b^r+c^r+2*a^r)/a", True),
    # areal families whose cevians concur exactly on the matching
    # tetrahedron family (tangent-length / squared-edge / reciprocal forms)
    ("CEV1", "concurrence family (b+c-a)^r", "areal", "(b+c-a)^r", True),
    ("CEV2", "concurrence family (b^2+c^2-a^2)^r", "areal", "(b^2+c^2-a^2)^r", True),
    ("CEVH", "concurrence family (1/b+1/c-1/a)^r", "areal", "(1/b+1/c-1/a)^r", True),
    # areal families whose cevians rule a hyperboloid on the matching family
    ("HYP1", "ruled family a^r*(b+c-a)", "areal", "a^r*(b+c-a)", True),
    ("HYP2", "ruled family a^r*(b^2+c^2-a^2)", "areal", "a^r*(b^2+c^2-a^2)", True),
    ("HYPH", "ruled family a^r*(1/b+1/c-1/a)", "areal", "a^r*(1/b+1/c-1/a)", True),
]

_builtin_cache: Catalog | None = None


def builtin_catalog() -> Catalog:
    global _builtin_cache
    if _builtin_cache is None:
        _builtin_cache = Catalog(_E(*row) for row in _BUILTIN_TABLE)
    return _builtin_cache


def load_catalog_file(path) -> Catalog:
    """Load user-defined entries: `id | trilinear|areal | expr | yes/no`."""
    cat = Catalog()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 4:
                raise ValidationError(
                    f"line {lineno}", ValueError("expected `id | form | expr | yes/no`"))
            id_, form, text, flag = parts
            if flag not in ("yes", "no"):
                raise ValidationError(id_, ValueError(f"takes_r must be yes/no, got {flag!r}"))
            cat.add(CatalogEntry.from_text(id_, id_, form, text, flag == "yes"))
    return cat


def parse_center_spec(spec: str):
    """Split a CLI center spec `ID[:r]` into (id, r or None).

    The r value may be an integer or a quotient, e.g. ``POW:2``, ``Z3:-1``,
    ``CEV1:1/2``; its numerator and denominator are bounded by
    ``CE.MAX_EXPONENT`` in magnitude (ValueError).
    """
    id_, sep, rtext = spec.partition(":")
    if not sep:
        return id_, None
    from ._backend import Q
    num, s2, den = rtext.partition("/")
    r = Q(int(num), int(den)) if s2 else Q(int(num))
    if abs(r.numerator) > CE.MAX_EXPONENT or r.denominator > CE.MAX_EXPONENT:
        raise ValueError(f"r = {r} is out of range")
    return id_, r
