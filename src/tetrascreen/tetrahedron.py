"""Tetrahedron families, random rational generators, face-center placement
and space centers.

Edge labeling: face i is opposite vertex A_i; the base triangle A1A2A3 has
sides a1 = A2A3, a2 = A3A1, a3 = A1A2, and b_i = A_iA4 is the edge opposite
a_i.  The face side triples, ordered by subscript, are then

    face 1: (a1, b2, b3)   face 2: (b1, a2, b3)
    face 3: (b1, b2, a3)   face 4: (a1, a2, a3)

A center with areal function f placed on face i puts f(s, u, v) in the
coordinate slot of each vertex of that face, where s is the face edge
opposite that vertex and u, v are the other two face edges (f is symmetric
in its last two arguments, so their order is immaterial).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum

from . import geometry as G
from . import scalar as S
from ._backend import Q, numden
from .catalog import CatalogEntry
from .errors import (
    EulerLineDegenerate,
    EvaluationSingular,
    GenerationExhausted,
    InvalidTetrahedron,
)
from .triangle import EXACT, EvalMode, TriangleSides


class TetraFamily(Enum):
    GENERAL = "general"
    ISOSCELES = "isosceles"
    CIRCUMSCRIPTIBLE = "circumscriptible"
    ISODYNAMIC = "isodynamic"
    ORTHOCENTRIC = "orthocentric"
    HARMONIC = "harmonic"


class SpaceCenterKind(Enum):
    CENTROID = "centroid"
    CIRCUMCENTER = "circumcenter"
    INCENTER = "incenter"
    MONGE = "monge"
    EULER = "euler"


#: Space centers with an exact rational coordinate path.
RATIONAL_SPACE_CENTERS = (
    SpaceCenterKind.CENTROID,
    SpaceCenterKind.CIRCUMCENTER,
    SpaceCenterKind.MONGE,
    SpaceCenterKind.EULER,
)

# vertex indices (1-based) of each face, and the face edge opposite each
# of those vertices, written in terms of the labels (kind, index) with
# kind 'a' or 'b'
_FACE_VERTICES = {1: (2, 3, 4), 2: (1, 3, 4), 3: (1, 2, 4), 4: (1, 2, 3)}


@dataclass(frozen=True)
class EdgeLengths:
    a1: object
    a2: object
    a3: object
    b1: object
    b2: object
    b3: object

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "b1", "b2", "b3"):
            v = Q(getattr(self, name))
            if v <= 0:
                raise InvalidTetrahedron(f"edge {name} must be positive")
            object.__setattr__(self, name, v)

    # -- structure ------------------------------------------------------

    def edges(self):
        return (self.a1, self.a2, self.a3, self.b1, self.b2, self.b3)

    def edge_between(self, i: int, j: int):
        """Length of the edge A_iA_j."""
        pair = (i, j) if i < j else (j, i)
        return {
            (2, 3): self.a1, (1, 3): self.a2, (1, 2): self.a3,
            (1, 4): self.b1, (2, 4): self.b2, (3, 4): self.b3,
        }[pair]

    def face_side_triple(self, i: int):
        """Sides of face i ordered by label subscript 1, 2, 3."""
        return {
            1: (self.a1, self.b2, self.b3),
            2: (self.b1, self.a2, self.b3),
            3: (self.b1, self.b2, self.a3),
            4: (self.a1, self.a2, self.a3),
        }[i]

    def face_sides(self, i: int) -> TriangleSides:
        return TriangleSides(*self.face_side_triple(i))

    def metric(self) -> G.EdgeMetric:
        return G.EdgeMetric(*(e * e for e in self.edges()))

    # -- validity -------------------------------------------------------

    def validity_reason(self) -> str | None:
        for i in (1, 2, 3, 4):
            s1, s2, s3 = self.face_side_triple(i)
            if s1 >= s2 + s3 or s2 >= s3 + s1 or s3 >= s1 + s2:
                return f"face {i} violates the strict triangle inequality"
        cm = self.metric().cayley_menger()
        if cm <= 0:
            return "nonpositive Cayley-Menger determinant (not realizable in 3-space)"
        return None

    def is_valid(self) -> bool:
        return self.validity_reason() is None

    def require_valid(self) -> "EdgeLengths":
        reason = self.validity_reason()
        if reason is not None:
            raise InvalidTetrahedron(reason)
        return self

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        def fmt(q):
            n, d = numden(q)
            return f"{n}/{d}" if d != 1 else str(n)

        return {"a": [fmt(self.a1), fmt(self.a2), fmt(self.a3)],
                "b": [fmt(self.b1), fmt(self.b2), fmt(self.b3)]}

    @staticmethod
    def from_json_dict(obj: dict) -> "EdgeLengths":
        def parse(s):
            n, sep, d = str(s).partition("/")
            return Q(int(n), int(d)) if sep else Q(int(n))

        a = [parse(x) for x in obj["a"]]
        b = [parse(x) for x in obj["b"]]
        return EdgeLengths(a[0], a[1], a[2], b[0], b[1], b[2])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EdgeLengths":
        return EdgeLengths.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------
# family predicates


def _pairs(e: EdgeLengths):
    return ((e.a1, e.b1), (e.a2, e.b2), (e.a3, e.b3))


def family_predicate(e: EdgeLengths, f: TetraFamily) -> bool:
    """Exact check of the family's algebraic condition; the shared
    constant is taken from the i=1 pair."""
    pairs = _pairs(e)
    if f is TetraFamily.GENERAL:
        return True
    if f is TetraFamily.ISOSCELES:
        return all(a == b for a, b in pairs)
    if f is TetraFamily.CIRCUMSCRIPTIBLE:
        t = pairs[0][0] + pairs[0][1]
        return all(a + b == t for a, b in pairs)
    if f is TetraFamily.ISODYNAMIC:
        t = pairs[0][0] * pairs[0][1]
        return all(a * b == t for a, b in pairs)
    if f is TetraFamily.ORTHOCENTRIC:
        t = pairs[0][0] ** 2 + pairs[0][1] ** 2
        return all(a * a + b * b == t for a, b in pairs)
    if f is TetraFamily.HARMONIC:
        t = 1 / pairs[0][0] + 1 / pairs[0][1]
        return all(1 / a + 1 / b == t for a, b in pairs)
    raise ValueError(f)


def family_constant(e: EdgeLengths, f: TetraFamily):
    """The shared constant t of the family condition (from the i=1 pair)."""
    a, b = e.a1, e.b1
    if f is TetraFamily.CIRCUMSCRIPTIBLE:
        return a + b
    if f is TetraFamily.ISODYNAMIC:
        return a * b
    if f is TetraFamily.ORTHOCENTRIC:
        return a * a + b * b
    if f is TetraFamily.HARMONIC:
        return 1 / a + 1 / b
    raise ValueError(f"family {f} has no constant")


# ---------------------------------------------------------------------
# generators

_DEFAULT_BUDGET = 4000


def _rand_q(rng: random.Random, lo: int = 1, hi: int = 2, den_max: int = 40):
    """Random rational in (lo, hi] with numerator/denominator <= 10^4."""
    d = rng.randint(2, den_max)
    n = rng.randint(lo * d + 1, hi * d)
    return Q(n, d)


def _distinct(values) -> bool:
    return len({str(v) for v in values}) == len(values)


def _gen_one(f: TetraFamily, rng: random.Random, budget: int) -> EdgeLengths:
    for _ in range(budget):
        try:
            if f is TetraFamily.GENERAL:
                e = EdgeLengths(*(_rand_q(rng) for _ in range(6)))
            elif f is TetraFamily.ISOSCELES:
                a = [_rand_q(rng) for _ in range(3)]
                if not _distinct(a):
                    continue
                e = EdgeLengths(a[0], a[1], a[2], a[0], a[1], a[2])
            elif f is TetraFamily.CIRCUMSCRIPTIBLE:
                t = _rand_q(rng, 2, 4)
                a = [_rand_q(rng) for _ in range(3)]
                if any(x >= t for x in a):
                    continue
                e = EdgeLengths(a[0], a[1], a[2], t - a[0], t - a[1], t - a[2])
            elif f is TetraFamily.ISODYNAMIC:
                t = _rand_q(rng, 1, 4)
                a = [_rand_q(rng) for _ in range(3)]
                e = EdgeLengths(a[0], a[1], a[2], t / a[0], t / a[1], t / a[2])
            elif f is TetraFamily.HARMONIC:
                t = _rand_q(rng, 1, 2, den_max=12)
                a = [_rand_q(rng) for _ in range(3)]
                if any(t * x <= 1 for x in a):
                    continue
                e = EdgeLengths(a[0], a[1], a[2],
                                a[0] / (t * a[0] - 1), a[1] / (t * a[1] - 1),
                                a[2] / (t * a[2] - 1))
            elif f is TetraFamily.ORTHOCENTRIC:
                e = _gen_orthocentric(rng)
                if e is None:
                    continue
            else:
                raise ValueError(f)
        except InvalidTetrahedron:
            continue
        if not _distinct(e.edges()[:3]):
            continue
        if e.is_valid():
            return e
    raise GenerationExhausted(f"no valid {f.value} instance within {budget} attempts")


def _gen_orthocentric(rng: random.Random) -> EdgeLengths | None:
    """Rational points on the circle x^2 + y^2 = t.

    t = u^2 + v^2 for random rationals u, v; further rational points come
    from chords of rational slope through (u, v).
    """
    u, v = _rand_q(rng), _rand_q(rng)
    t = u * u + v * v
    pairs = []
    for _ in range(3):
        for _try in range(20):
            m = Q(rng.randint(-60, 60), rng.randint(1, 20))
            den = 1 + m * m
            s = -2 * (u + v * m) / den
            x, y = u + s, v + m * s
            if x != 0 and y != 0:
                pairs.append((abs(x), abs(y)))
                break
        else:
            return None
    try:
        return EdgeLengths(pairs[0][0], pairs[1][0], pairs[2][0],
                           pairs[0][1], pairs[1][1], pairs[2][1])
    except InvalidTetrahedron:
        return None


def generate(f: TetraFamily, seed: int, count: int,
             budget: int = _DEFAULT_BUDGET) -> list[EdgeLengths]:
    """Deterministic stream of valid instances of the family.

    Each instance gets its own rng seeded by (seed, index), so instance k
    of a run does not depend on how many instances precede it.
    """
    out = []
    for k in range(count):
        rng = random.Random(f"{seed}|{k}|{f.value}")
        e = _gen_one(f, rng, budget)
        assert family_predicate(e, f)
        out.append(e)
    return out


def generate_shifted_product(seed: int, count: int,
                             budget: int = _DEFAULT_BUDGET) -> list[EdgeLengths]:
    """Instances with a_i*b_i + a_i + b_i constant, i.e. (1+a_i)(1+b_i)
    constant — a further family on which the Feuerbach-planarity
    determinant degenerates."""
    out = []
    for k in range(count):
        rng = random.Random(f"{seed}|{k}|shifted-product")
        for _ in range(budget):
            s = _rand_q(rng, 3, 8)
            a = [_rand_q(rng) for _ in range(3)]
            if any((s - x) <= 0 for x in a):
                continue
            try:
                e = EdgeLengths(a[0], a[1], a[2],
                                (s - a[0]) / (1 + a[0]),
                                (s - a[1]) / (1 + a[1]),
                                (s - a[2]) / (1 + a[2]))
            except InvalidTetrahedron:
                continue
            if e.is_valid() and _distinct(e.edges()[:3]):
                t = e.a1 * e.b1 + e.a1 + e.b1
                assert e.a2 * e.b2 + e.a2 + e.b2 == t
                assert e.a3 * e.b3 + e.a3 + e.b3 == t
                out.append(e)
                break
        else:
            raise GenerationExhausted(f"no shifted-product instance within {budget} attempts")
    return out


# ---------------------------------------------------------------------
# face placement


def face_points(e: EdgeLengths, entry: CatalogEntry, r=None,
                mode: EvalMode = EXACT) -> tuple:
    """The four face points of a catalog center, one per face.

    Raises EvaluationSingular (tagged with the face index) when the center
    function degenerates on some face.
    """
    points = []
    for i in (1, 2, 3, 4):
        try:
            areal = entry.areal_on(e.face_sides(i), r=r, mode=mode)
        except EvaluationSingular as exc:
            raise EvaluationSingular(f"{entry.id} on face {i}: {exc}", face=i) from exc
        x = areal.tuple()
        total = x[0] + x[1] + x[2]
        if S.is_exact(total) and total == 0:
            raise EvaluationSingular(
                f"{entry.id} on face {i}: coordinate sum is zero (point at infinity)",
                face=i)
        coords = [None] * 4
        coords[i - 1] = Q(0)
        # areal coordinate k belongs to the face vertex opposite the side
        # with subscript k; that vertex's tetra slot receives the value
        slots = _face_slot_order(i)
        for k in range(3):
            coords[slots[k] - 1] = x[k]
        points.append(G.TetraPoint(*coords))
    return tuple(points)


def _face_slot_order(i: int) -> tuple:
    """For face i: the vertex index opposite the subscript-k side, k=1,2,3.

    Face 1 (A2A3A4): a1=A2A3 opp A4, b2=A2A4 opp A3, b3=A3A4 opp A2.
    Face 2 (A1A3A4): b1=A1A4 opp A3, a2=A1A3 opp A4, b3=A3A4 opp A1.
    Face 3 (A1A2A4): b1=A1A4 opp A2, b2=A2A4 opp A1, a3=A1A2 opp A4.
    Face 4 (A1A2A3): a1=A2A3 opp A1, a2=A1A3 opp A2, a3=A1A2 opp A3.
    """
    return {1: (4, 3, 2), 2: (3, 4, 1), 3: (2, 1, 4), 4: (1, 2, 3)}[i]


def formula_weighted_sum(e: EdgeLengths, entry: CatalogEntry, r=None,
                         values: str = "areal",
                         mode: EvalMode = EXACT) -> G.TetraPoint:
    """Sum of the four face tuples in their formula-canonical scale.

    This is the dot-product recipe for combining face centers: the raw
    coordinate displays are added without per-point normalization, so the
    result is a formula-weighted vertex combination, NOT in general the
    geometric centroid of the four points (it agrees with it exactly when
    the four raw tuples have equal coordinate sums).  Several of the
    screened coincidence identities are about this weighted point.

    `values` selects whether the per-face tuples carry the center's areal
    values (canonical) or the bare trilinear values.
    """
    from .triangle import eval_center_raw

    coords = [Q(0)] * 4
    for i in (1, 2, 3, 4):
        sides = e.face_sides(i)
        triple = eval_center_raw(entry.expr, sides, r, mode)
        if entry.form == "trilinear" and values == "areal":
            s = sides.sides()
            triple = tuple(triple[k] * s[k] for k in range(3))
        elif entry.form == "areal" and values == "trilinear":
            s = sides.sides()
            triple = tuple(S.div(triple[k], s[k]) for k in range(3))
        slots = _face_slot_order(i)
        for k in range(3):
            coords[slots[k] - 1] = coords[slots[k] - 1] + triple[k]
    return G.TetraPoint(*coords)


def embed_areal_on_face(i: int, areal_triple) -> G.TetraPoint:
    """Tetra coordinates of an arbitrary planar point given by areal
    coordinates (ordered by side subscript) on face i."""
    coords = [None] * 4
    coords[i - 1] = Q(0)
    slots = _face_slot_order(i)
    for k in range(3):
        coords[slots[k] - 1] = areal_triple[k]
    return G.TetraPoint(*coords)


# ---------------------------------------------------------------------
# space centers


def _affine_combination(points_weights) -> G.TetraPoint:
    coords = [Q(0)] * 4
    for p, w in points_weights:
        pt = p.normalized().tuple()
        for i in range(4):
            coords[i] = coords[i] + w * pt[i]
    return G.TetraPoint(*coords)


def space_center(e: EdgeLengths, kind: SpaceCenterKind,
                 mode: EvalMode = EXACT) -> G.TetraPoint:
    """A distinguished point of the reference tetrahedron, normalized.

    Centroid, circumcenter, Monge point and Euler point are exact
    rationals; the incenter needs the four face areas and is exact only
    when all of them happen to be rational.
    """
    if kind is SpaceCenterKind.CENTROID:
        return G.TetraPoint(Q(1, 4), Q(1, 4), Q(1, 4), Q(1, 4))
    if kind is SpaceCenterKind.CIRCUMCENTER:
        return _circumcenter(e)
    if kind is SpaceCenterKind.MONGE:
        g = space_center(e, SpaceCenterKind.CENTROID)
        o = _circumcenter(e)
        return _affine_combination([(g, Q(2)), (o, Q(-1))])
    if kind is SpaceCenterKind.EULER:
        # E = (2G + M)/3 = (4G - O)/3
        g = space_center(e, SpaceCenterKind.CENTROID)
        o = _circumcenter(e)
        return _affine_combination([(g, Q(4, 3)), (o, Q(-1, 3))])
    if kind is SpaceCenterKind.INCENTER:
        m = e.metric()
        areas = [S.sqrt(m.face_area_squared(i), mode.bits) for i in (1, 2, 3, 4)]
        if mode.exact and not all(S.is_exact(a) for a in areas):
            from .errors import IrrationalInExactMode

            raise IrrationalInExactMode("incenter face areas are irrational")
        return G.TetraPoint(*areas).normalized()
    raise ValueError(kind)


def _circumcenter(e: EdgeLengths) -> G.TetraPoint:
    """Closed form: the coordinate for vertex A_i is built from the side
    triple (s1, s2, s3) of face i,

        sum_k a_k^2 b_k^2 (s_sum - 2 s_k^2) - 2 s_1^2 s_2^2 s_3^2,

    with s_sum the sum of the squared face sides (so each parenthesis is
    "other two minus own").  Verified against the equidistance property.
    """
    ab = [(e.a1 * e.b1) ** 2, (e.a2 * e.b2) ** 2, (e.a3 * e.b3) ** 2]
    coords = []
    for i in (1, 2, 3, 4):
        s = [x * x for x in e.face_side_triple(i)]
        s_sum = s[0] + s[1] + s[2]
        total = -2 * s[0] * s[1] * s[2]
        for k in range(3):
            total = total + ab[k] * (s_sum - 2 * s[k])
        coords.append(total)
    return G.TetraPoint(*coords).normalized()


@dataclass(frozen=True)
class EulerParam:
    """Position on the Euler line in the convention p = O + t (G - O):
    t(O) = 0, t(G) = 1, and consequently t(E) = 4/3, t(M) = 2.

    `exact` is False when the membership was only confirmed by interval
    enclosures containing zero."""

    t: object
    exact: bool = True


def euler_line(e: EdgeLengths):
    g = space_center(e, SpaceCenterKind.CENTROID)
    o = space_center(e, SpaceCenterKind.CIRCUMCENTER)
    if g.proj_eq(o):
        raise EulerLineDegenerate("centroid and circumcenter coincide")
    return o, g


def euler_param_of_points(o: G.TetraPoint, g: G.TetraPoint,
                          p: G.TetraPoint) -> EulerParam | None:
    """Parameter of p on the line through o (t=0) and g (t=1), or None
    when p is off the line."""
    on, gn, pn = o.normalized(), g.normalized(), p.normalized()
    d = tuple(gn.tuple()[i] - on.tuple()[i] for i in range(4))
    delta = tuple(pn.tuple()[i] - on.tuple()[i] for i in range(4))
    t = None
    for i in range(4):
        if S.is_exact(d[i]) and d[i] != 0:
            t = S.div(delta[i], d[i])
            break
    if t is None:
        for i in range(4):
            if not (isinstance(d[i], S.Interval) and d[i].contains_zero()):
                t = S.div(delta[i], d[i])
                break
    if t is None:
        raise EulerLineDegenerate("line direction cannot be certified nonzero")
    exact = True
    for i in range(4):
        r = delta[i] - t * d[i]
        if S.is_exact(r):
            if r != 0:
                return None
        else:
            if not r.contains_zero():
                return None
            exact = False
    return EulerParam(t, exact=exact and S.is_exact(t) and p.is_exact())


def euler_param(e: EdgeLengths, p: G.TetraPoint) -> EulerParam | None:
    """Euler-line parameter of p for the reference tetrahedron, or None
    when p is not on the line.  Raises EulerLineDegenerate when G = O."""
    o, g = euler_line(e)
    return euler_param_of_points(o, g, p)


def space_center_of_points(points, m: G.EdgeMetric, kind: SpaceCenterKind,
                           mode: EvalMode = EXACT) -> G.TetraPoint:
    """Space centers of the tetrahedron spanned by four points, computed
    in the reference coordinate system with metric m."""
    p1, p2, p3, p4 = [p.normalized() for p in points]
    if G.coplanar4(p1, p2, p3, p4):
        from .errors import CoplanarPoints

        raise CoplanarPoints("the four points do not span a tetrahedron")
    if kind is SpaceCenterKind.CENTROID:
        return _affine_combination([(p, Q(1, 4)) for p in (p1, p2, p3, p4)])
    if kind is SpaceCenterKind.CIRCUMCENTER:
        return _circumcenter_of_points((p1, p2, p3, p4), m)
    if kind is SpaceCenterKind.MONGE:
        g = space_center_of_points(points, m, SpaceCenterKind.CENTROID)
        o = _circumcenter_of_points((p1, p2, p3, p4), m)
        return _affine_combination([(g, Q(2)), (o, Q(-1))])
    if kind is SpaceCenterKind.EULER:
        g = space_center_of_points(points, m, SpaceCenterKind.CENTROID)
        o = _circumcenter_of_points((p1, p2, p3, p4), m)
        return _affine_combination([(g, Q(4, 3)), (o, Q(-1, 3))])
    if kind is SpaceCenterKind.INCENTER:
        return _incenter_of_points((p1, p2, p3, p4), m, mode)
    raise ValueError(kind)


def _quadratic_form_coeffs(m: G.EdgeMetric, p: G.TetraPoint):
    """squared_distance(X, p) restricted to normalized X is a quadratic
    in X; subtracting two such expressions leaves an affine form.  This
    returns the linear coefficients plus constant of
    -sum d_ij^2 (X_i - p_i)(X_j - p_j) expanded in X (the X-quadratic
    part is shared and cancels in differences)."""
    pt = p.tuple()
    lin = [Q(0)] * 4
    const = Q(0)
    for i in range(4):
        for j in range(i + 1, 4):
            d = m.sq(i + 1, j + 1)
            # -(X_i - p_i)(X_j - p_j) = -X_iX_j + p_jX_i + p_iX_j - p_ip_j
            lin[i] = lin[i] + d * pt[j]
            lin[j] = lin[j] + d * pt[i]
            const = const - d * pt[i] * pt[j]
    return lin, const


def _solve4(rows, rhs):
    """Exact solve of a 4x4 system by Gaussian elimination over scalars."""
    n = 4
    a = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if S.sign(a[r][col]) != 0), None)
        if piv is None:
            from .errors import SingularSystem

            raise SingularSystem("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        for r in range(n):
            if r == col:
                continue
            f = S.div(a[r][col], inv)
            if S.is_exact(f) and f == 0:
                continue
            for c2 in range(col, n + 1):
                a[r][c2] = a[r][c2] - f * a[col][c2]
    return [S.div(a[i][n], a[i][i]) for i in range(n)]


def _circumcenter_of_points(points, m: G.EdgeMetric) -> G.TetraPoint:
    """Equidistance differences are affine in the unknown normalized
    point; three of them plus the sum-1 constraint give a linear system."""
    forms = [_quadratic_form_coeffs(m, p) for p in points]
    rows, rhs = [], []
    for k in range(3):
        l1, c1 = forms[k]
        l2, c2 = forms[k + 1]
        rows.append([l1[i] - l2[i] for i in range(4)])
        rhs.append(c2 - c1)
    rows.append([Q(1)] * 4)
    rhs.append(Q(1))
    return G.TetraPoint(*_solve4(rows, rhs))


def _incenter_of_points(points, m: G.EdgeMetric, mode: EvalMode) -> G.TetraPoint:
    """Weight each vertex of the central tetrahedron by the area of its
    opposite face (areas via the squared mutual distances and Heron)."""
    sq = {}
    for i in range(4):
        for j in range(i + 1, 4):
            sq[(i, j)] = G.squared_distance(points[i], points[j], m)

    def heron(e1, e2, e3):
        return (2 * (e1 * e2 + e2 * e3 + e3 * e1) - e1 * e1 - e2 * e2 - e3 * e3) / 16

    weights = []
    for i in range(4):
        others = [j for j in range(4) if j != i]
        e1 = sq[tuple(sorted((others[0], others[1])))]
        e2 = sq[tuple(sorted((others[0], others[2])))]
        e3 = sq[tuple(sorted((others[1], others[2])))]
        weights.append(S.sqrt(heron(e1, e2, e3), mode.bits))
    if mode.exact and not all(S.is_exact(w) for w in weights):
        from .errors import IrrationalInExactMode

        raise IrrationalInExactMode("central face areas are irrational")
    return _affine_combination_scalar(points, weights)


def _affine_combination_scalar(points, weights) -> G.TetraPoint:
    total = weights[0]
    for w in weights[1:]:
        total = total + w
    coords = [Q(0)] * 4
    for p, w in zip(points, weights):
        pt = p.normalized().tuple()
        for i in range(4):
            coords[i] = coords[i] + w * pt[i]
    return G.TetraPoint(*(S.div(c, total) for c in coords))
