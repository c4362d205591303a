"""Tetrahedral-coordinate geometry kernel.

Points are projective 4-tuples (volume ratios against the reference
tetrahedron's faces); exact points are normalized to coordinate sum 1.
Lines carry a normalized base point and a direction whose components sum
to 0; planes are projective coefficient 4-tuples of A*x+B*y+C*z+D*w = 0.
Metric questions (distance, perpendicularity, direction cosines) consult
an :class:`EdgeMetric` of the six squared edge lengths.

Incidence predicates reduce to small determinants.  Over rationals these
are evaluated fraction-free (rows cleared to integers, Bareiss
elimination) so screening-scale coefficient growth stays in check; over
intervals they fall back to cofactor expansion and may raise
:class:`~tetrascreen.errors.Undecided`.  Line/plane constructions use only
+, - and x on the same integer rows (or on interval rows): a plane is the
cofactor vector of three rows, a line (b, d) meets a plane t at
(t.d) b - (t.b) d, and a point is normalized once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import scalar as S
from ._backend import Q, as_q, is_rational
from .errors import (
    CollinearPoints,
    DegenerateRatio,
    IdenticalLines,
    IdenticalPoints,
    ImaginarySigma,
    InvalidTetrahedron,
    LineParallelToPlane,
    ParallelDirections,
    ParallelLines,
    PointAtInfinity,
    PointOnLine,
    SingularSystem,
    SkewLines,
)

# ---------------------------------------------------------------------
# determinants


def det2(a, b, c, d):
    return a * d - b * c


def det3(m):
    return (
        m[0][0] * det2(m[1][1], m[1][2], m[2][1], m[2][2])
        - m[0][1] * det2(m[1][0], m[1][2], m[2][0], m[2][2])
        + m[0][2] * det2(m[1][0], m[1][1], m[2][0], m[2][1])
    )


def _int_row(row):
    """The exact row times the lcm of its denominators: integers, scaled
    by a positive factor."""
    big = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (big // x.denominator) for x in row]


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free
    elimination (Bareiss 1968): every division is exact."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def det4_sign(rows) -> int:
    """Sign of a 4x4 determinant; exact over rationals, interval-decided
    otherwise (raising Undecided when the enclosure straddles zero)."""
    if all(is_rational(x) for row in rows for x in row):
        return _sign(bareiss_det([_int_row(row) for row in rows]))
    return S.sign(det4(rows))


def det4(m):
    total = None
    for j in range(4):
        minor = [[m[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        term = m[0][j] * det3(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def cofactors_of_rows(rows):
    """Coefficient vector c with c . x = det(x; r1; r2; r3) for all x."""
    signs = (1, -1, 1, -1)
    out = []
    for j in range(4):
        minor = [[row[k] for k in range(4) if k != j] for row in rows]
        out.append(signs[j] * det3(minor))
    return tuple(out)


# ---------------------------------------------------------------------
# core types


def _proj_zero(coords) -> bool:
    return all(S.is_exact(x) and x == 0 for x in coords)


def _proportional(u, v) -> bool:
    """All 2x2 minors of two 4-vectors vanish (raises Undecided on an
    interval minor that straddles zero)."""
    for i in range(4):
        for j in range(i + 1, 4):
            if S.sign(u[i] * v[j] - u[j] * v[i]) != 0:
                return False
    return True


def _ring_vector(coords):
    """Exact coords as integers (a positive scale keeps every sign and the
    projective class); coords with an interval as they are."""
    if all(is_rational(x) for x in coords):
        return _int_row(coords)
    return coords


@dataclass(frozen=True)
class TetraPoint:
    x: object
    y: object
    z: object
    w: object

    def tuple(self):
        return (self.x, self.y, self.z, self.w)

    def __post_init__(self):
        if _proj_zero(self.tuple()):
            raise InvalidTetrahedron("all four point coordinates are zero")

    def coord_sum(self):
        return self.x + self.y + self.z + self.w

    @cached_property
    def int_form(self):
        """(ints, sum, scale) for exact coordinates: the coordinates times
        `scale`, the lcm of their denominators, and the sum of those
        integers.  None when a coordinate is an interval."""
        x, y, z, w = self.x, self.y, self.z, self.w
        if not (is_rational(x) and is_rational(y) and is_rational(z) and is_rational(w)):
            return None
        dx, dy, dz, dw = x.denominator, y.denominator, z.denominator, w.denominator
        scale = math.lcm(dx, dy, dz, dw)
        ints = (x.numerator * (scale // dx), y.numerator * (scale // dy),
                z.numerator * (scale // dz), w.numerator * (scale // dw))
        return ints, ints[0] + ints[1] + ints[2] + ints[3], scale

    @cached_property
    def _normalized(self) -> "TetraPoint":
        (x, y, z, w), s, scale = self.int_form
        if s == scale:
            return self
        return TetraPoint(Q(x, s), Q(y, s), Q(z, s), Q(w, s))

    def normalized(self) -> "TetraPoint":
        form = self.int_form
        if form is None:
            s = self.coord_sum()
            if S.sign(s) == 0:
                raise PointAtInfinity("coordinate sum is zero")
            return TetraPoint(*(S.div(c, s) for c in self.tuple()))
        if form[1] == 0:
            raise PointAtInfinity("coordinate sum is zero")
        return self._normalized

    def proj_eq(self, other: "TetraPoint") -> bool:
        return _proportional(self.tuple(), other.tuple())

    def is_exact(self) -> bool:
        return all(S.is_exact(c) for c in self.tuple())


VERTICES = tuple(
    TetraPoint(*(Q(1) if i == j else Q(0) for j in range(4))) for i in range(4)
)


@dataclass(frozen=True)
class TetraDirection:
    k: object
    l: object
    m: object
    n: object

    def tuple(self):
        return (self.k, self.l, self.m, self.n)

    def __post_init__(self):
        if _proj_zero(self.tuple()):
            raise InvalidTetrahedron("zero direction")
        # an interval sum can never certify zero; refuse only a provable nonzero
        s = self.k + self.l + self.m + self.n
        if S.is_zero(s) == S.NONZERO:
            raise InvalidTetrahedron(f"direction components must sum to 0, got {s}")

    def proj_eq(self, other: "TetraDirection") -> bool:
        return _proportional(self.tuple(), other.tuple())


@dataclass(frozen=True)
class TetraLine:
    base: TetraPoint       # normalized
    direction: TetraDirection

    def at(self, t) -> TetraPoint:
        b, d = self.base.tuple(), self.direction.tuple()
        return TetraPoint(*(b[i] + t * d[i] for i in range(4)))

    def contains(self, p: TetraPoint) -> bool:
        pn = p.normalized()
        delta = tuple(pn.tuple()[i] - self.base.tuple()[i] for i in range(4))
        return _proj_zero(delta) or _proportional(delta, self.direction.tuple())

    def ring_rows(self):
        """(base, direction) on the ring of the division-free formulas."""
        form = self.base.int_form
        base = self.base.tuple() if form is None else form[0]
        return base, _ring_vector(self.direction.tuple())


@dataclass(frozen=True)
class TetraPlane:
    a: object
    b: object
    c: object
    d: object

    def tuple(self):
        return (self.a, self.b, self.c, self.d)

    def __post_init__(self):
        t = self.tuple()
        if _proj_zero(t):
            raise InvalidTetrahedron("zero plane")
        diffs = (t[0] - t[3], t[1] - t[3], t[2] - t[3])
        if _proj_zero(diffs):
            raise InvalidTetrahedron(
                "all coefficients equal: no finite normalized point satisfies the plane")

    def value_at(self, p: TetraPoint):
        t, u = self.tuple(), p.tuple()
        return t[0] * u[0] + t[1] * u[1] + t[2] * u[2] + t[3] * u[3]

    def contains(self, p: TetraPoint) -> bool:
        return S.sign(self.value_at(p)) == 0


def face_plane(i: int) -> TetraPlane:
    """The plane of face i (the i-th coordinate vanishes), 1-based."""
    coeffs = [Q(0)] * 4
    coeffs[i - 1] = Q(1)
    return TetraPlane(*coeffs)


@dataclass(frozen=True)
class EdgeMetric:
    """Squared edge lengths, indexed like the vertices they join:
    sq[(i, j)] = |A_i A_j|^2, 1-based, i < j."""

    a1_sq: object
    a2_sq: object
    a3_sq: object
    b1_sq: object
    b2_sq: object
    b3_sq: object

    def __post_init__(self):
        for name in ("a1_sq", "a2_sq", "a3_sq", "b1_sq", "b2_sq", "b3_sq"):
            v = as_q(getattr(self, name))
            if v <= 0:
                raise InvalidTetrahedron("squared edge lengths must be positive")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_sq", {
            (2, 3): self.a1_sq, (1, 3): self.a2_sq, (1, 2): self.a3_sq,
            (1, 4): self.b1_sq, (2, 4): self.b2_sq, (3, 4): self.b3_sq,
        })

    def tuple(self):
        return (self.a1_sq, self.a2_sq, self.a3_sq, self.b1_sq, self.b2_sq, self.b3_sq)

    @cached_property
    def int_form(self):
        """(D, L): D[k] = L * sq(i+1, j+1) for the pairs i < j of 0..3 in
        lexicographic order, L the lcm of the denominators."""
        sqs = [self.sq(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        big = math.lcm(*(v.denominator for v in sqs))
        return tuple(v.numerator * (big // v.denominator) for v in sqs), big

    def sq(self, i: int, j: int):
        return self._sq[(i, j) if i < j else (j, i)]

    def cayley_menger(self):
        """288 V^2; positive exactly for a realizable nondegenerate
        tetrahedron.  It is cubic in the squared lengths, so the bordered
        matrix of the integer form (D, L) has L^3 times this determinant."""
        (d01, d02, d03, d12, d13, d23), big = self.int_form
        det = bareiss_det([
            [0, 1, 1, 1, 1],
            [1, 0, d01, d02, d03],
            [1, d01, 0, d12, d13],
            [1, d02, d12, 0, d23],
            [1, d03, d13, d23, 0],
        ])
        return Q(det, big * big * big)

    def volume_squared(self):
        return self.cayley_menger() / 288

    def face_area_squared(self, i: int):
        """Squared area of face i via Heron on its three edges."""
        others = [j for j in (1, 2, 3, 4) if j != i]
        e1 = self.sq(others[0], others[1])
        e2 = self.sq(others[0], others[2])
        e3 = self.sq(others[1], others[2])
        return (2 * (e1 * e2 + e2 * e3 + e3 * e1) - e1 * e1 - e2 * e2 - e3 * e3) / 16

    def perp_form(self, d1: TetraDirection, d2: TetraDirection):
        """Symmetric bilinear form whose vanishing means perpendicularity."""
        k1, l1, m1, n1 = d1.tuple()
        k2, l2, m2, n2 = d2.tuple()
        return (
            self.sq(2, 3) * (l1 * m2 + l2 * m1)
            + self.sq(1, 3) * (k1 * m2 + k2 * m1)
            + self.sq(1, 2) * (k1 * l2 + k2 * l1)
            + self.sq(1, 4) * (k1 * n2 + k2 * n1)
            + self.sq(2, 4) * (l1 * n2 + l2 * n1)
            + self.sq(3, 4) * (m1 * n2 + m2 * n1)
        )


# ---------------------------------------------------------------------
# point/line/plane operations


def squared_distance(p: TetraPoint, q: TetraPoint, m: EdgeMetric):
    """-sum over i<j of d_ij^2 (X_i - X'_i)(X_j - X'_j), on exact
    coordinates.

    For exact points with integer forms (P, s_p) and (Q, s_q) this is
    -sum D_ij n_i n_j / (L (s_p s_q)^2) with n = P s_q - Q s_p and the
    metric's integer form (D, L): one Fraction, built at the end.
    """
    fp, fq = p.int_form, q.int_form
    if fp is not None and fq is not None and isinstance(m, EdgeMetric):
        (p0, p1, p2, p3), sp, _ = fp
        (q0, q1, q2, q3), sq, _ = fq
        if sp == 0 or sq == 0:
            raise PointAtInfinity("coordinate sum is zero")
        n0, n1, n2, n3 = p0 * sq - q0 * sp, p1 * sq - q1 * sp, p2 * sq - q2 * sp, p3 * sq - q3 * sp
        (d01, d02, d03, d12, d13, d23), big = m.int_form
        total = (n0 * (d01 * n1 + d02 * n2 + d03 * n3) + n1 * (d12 * n2 + d13 * n3)
                 + d23 * n2 * n3)
        scale = sp * sq
        return Q(-total, big * scale * scale)
    pn, qn = p.normalized(), q.normalized()
    delta = tuple(pn.tuple()[i] - qn.tuple()[i] for i in range(4))
    total = None
    for i in range(4):
        for j in range(i + 1, 4):
            term = m.sq(i + 1, j + 1) * delta[i] * delta[j]
            total = term if total is None else total + term
    return -total


def points_det4_sign(points) -> int:
    """Sign of det[p1; p2; p3; p4].  Exact points use their integer
    forms: each row is scaled by a positive factor, which keeps the sign."""
    forms = [p.int_form for p in points]
    if None in forms:
        return det4_sign([p.tuple() for p in points])
    return _sign(bareiss_det([f[0] for f in forms]))


def coplanar4(p1, p2, p3, p4) -> bool:
    return points_det4_sign((p1, p2, p3, p4)) == 0


def collinear3(p1, p2, p3) -> bool:
    """Vanishing 2x2 cross products of the two difference vectors."""
    a = p1.normalized().tuple()
    b = p2.normalized().tuple()
    c = p3.normalized().tuple()
    u = tuple(b[i] - a[i] for i in range(4))
    v = tuple(c[i] - a[i] for i in range(4))
    return _proj_zero(u) or _proj_zero(v) or _proportional(u, v)


def line_through(p: TetraPoint, q: TetraPoint) -> TetraLine:
    pn, qn = p.normalized(), q.normalized()
    delta = tuple(qn.tuple()[i] - pn.tuple()[i] for i in range(4))
    if _proj_zero(delta):
        raise IdenticalPoints("cannot span a line by one point")
    return TetraLine(pn, TetraDirection(*delta))


def divide_segment(p: TetraPoint, q: TetraPoint, mu, lam) -> TetraPoint:
    """Point dividing pq in the ratio mu : lam ((lam*p + mu*q)/(lam+mu))."""
    mu, lam = Q(mu), Q(lam)
    if mu + lam == 0:
        raise DegenerateRatio("mu + lam = 0")
    pn, qn = p.normalized(), q.normalized()
    s = lam + mu
    return TetraPoint(*((lam * pn.tuple()[i] + mu * qn.tuple()[i]) / s for i in range(4)))


def midpoint(p: TetraPoint, q: TetraPoint) -> TetraPoint:
    return divide_segment(p, q, 1, 1)


def lines_parallel(l1: TetraLine, l2: TetraLine) -> bool:
    return l1.direction.proj_eq(l2.direction)


def lines_perpendicular(l1: TetraLine, l2: TetraLine, m: EdgeMetric) -> bool:
    return S.sign(m.perp_form(l1.direction, l2.direction)) == 0


def lines_intersect(l1: TetraLine, l2: TetraLine) -> bool:
    """True when the lines meet or are parallel (coplanarity of the two
    base-direction pairs)."""
    rows = [
        l1.base.tuple(),
        l1.direction.tuple(),
        l2.base.tuple(),
        l2.direction.tuple(),
    ]
    return det4_sign(rows) == 0


def intersection_point(l1: TetraLine, l2: TetraLine) -> TetraPoint:
    """The unique common point of two coplanar, nonparallel lines."""
    if lines_parallel(l1, l2):
        if l1.contains(l2.base):
            raise IdenticalLines("the lines coincide")
        raise ParallelLines("parallel lines have no finite intersection")
    b1, d1 = l1.base.tuple(), l1.direction.tuple()
    b2, d2 = l2.base.tuple(), l2.direction.tuple()
    delta = tuple(b2[i] - b1[i] for i in range(4))
    # solve t*d1 - u*d2 = delta on two independent coordinates
    for i in range(4):
        for j in range(i + 1, 4):
            den = d1[i] * (-d2[j]) - (-d2[i]) * d1[j]
            if S.sign(den) != 0:
                t = S.div(delta[i] * (-d2[j]) - (-d2[i]) * delta[j], den)
                point = l1.at(t)
                if not l2.contains(point):
                    raise SkewLines("the lines do not meet")
                return point
    raise SkewLines("no solvable coordinate pair")  # pragma: no cover


def plane_through_3(p1: TetraPoint, p2: TetraPoint, p3: TetraPoint) -> TetraPlane:
    if collinear3(p1, p2, p3):
        raise CollinearPoints("three collinear points do not span a plane")
    return TetraPlane(*cofactors_of_rows([p.tuple() for p in (p1, p2, p3)]))


def planes_parallel(e1: TetraPlane, e2: TetraPlane) -> bool:
    t1, t2 = e1.tuple(), e2.tuple()
    u = (t1[0] - t1[3], t1[1] - t1[3], t1[2] - t1[3])
    v = (t2[0] - t2[3], t2[1] - t2[3], t2[2] - t2[3])
    for i in range(3):
        for j in range(i + 1, 3):
            if S.sign(u[i] * v[j] - u[j] * v[i]) != 0:
                return False
    return True


def plane_point_line(p: TetraPoint, l: TetraLine) -> TetraPlane:
    if l.contains(p):
        raise PointOnLine("point lies on the line; plane not unique")
    return TetraPlane(*cofactors_of_rows([
        p.normalized().tuple(), l.base.tuple(), l.direction.tuple()]))


def plane_line_parallel_line(l1: TetraLine, d2: TetraDirection) -> TetraPlane:
    """The plane through l1 parallel to d2: cofactors of (base, l1's
    direction, d2)."""
    base, d1 = l1.ring_rows()
    d2 = _ring_vector(d2.tuple())
    if _proportional(d1, d2):
        raise ParallelDirections("the direction is parallel to the line")
    return TetraPlane(*cofactors_of_rows([base, d1, d2]))


def line_parallel_to_plane(l: TetraLine, e: TetraPlane) -> bool:
    t, d = e.tuple(), l.direction.tuple()
    return S.sign(t[0] * d[0] + t[1] * d[1] + t[2] * d[2] + t[3] * d[3]) == 0


def line_plane_meet(l: TetraLine, e: TetraPlane):
    """Homogeneous coordinates (t.d) b - (t.b) d of the point where the
    line (b, d) meets the plane t; integers when both are exact."""
    b, d = l.ring_rows()
    t = _ring_vector(e.tuple())
    den = t[0] * d[0] + t[1] * d[1] + t[2] * d[2] + t[3] * d[3]
    if S.sign(den) == 0:
        raise LineParallelToPlane("the line is parallel to (or inside) the plane")
    num = t[0] * b[0] + t[1] * b[1] + t[2] * b[2] + t[3] * b[3]
    return tuple(den * b[i] - num * d[i] for i in range(4))


def point_of(coords) -> TetraPoint:
    """The normalized point of homogeneous coordinates."""
    if all(type(c) is int for c in coords):
        s = coords[0] + coords[1] + coords[2] + coords[3]
        if s == 0:
            raise PointAtInfinity("coordinate sum is zero")
        return TetraPoint(*(Q(c, s) for c in coords))
    return TetraPoint(*coords).normalized()


def line_plane_intersection(l: TetraLine, e: TetraPlane) -> TetraPoint:
    return point_of(line_plane_meet(l, e))


def direction_cosines(l: TetraLine, m: EdgeMetric, bits: int = S.DEFAULT_BITS):
    """Cosines of the angles between the line and the four face normals.

    Along the line the i-th coordinate changes at rate d_i per parameter
    step while arclength grows by sigma (sigma^2 = minus the
    perpendicularity form of the direction with itself, which doubles as
    the squared step length); the coordinate gradient has magnitude
    1/h_i with h_i = 3V/F_i the vertex-to-face height.  Hence

        cos_i = 3 V d_i / (sigma F_i),

    returned as scalars (interval enclosures unless all radicals happen
    to be exact).  Zero components stay exactly zero.  A nonnegative form
    means the direction is not realizable for this metric.
    """
    # the bilinear form evaluates with both arguments equal, doubling each
    # product term; halve it to get the squared arclength per unit step
    form = S.div(m.perp_form(l.direction, l.direction), Q(2))
    if S.sign(form) >= 0:
        raise ImaginarySigma("direction form is nonnegative")
    sigma = S.sqrt(-form, bits)
    v3 = 3 * S.sqrt(m.volume_squared(), bits)
    comps = l.direction.tuple()
    out = []
    for i in range(4):
        if S.is_exact(comps[i]) and comps[i] == 0:
            out.append(Q(0))
            continue
        f_i = S.sqrt(m.face_area_squared(i + 1), bits)
        out.append(S.div(v3 * comps[i], sigma * f_i))
    return tuple(out)


def null_direction(rows) -> TetraDirection:
    """One-dimensional null space of three independent linear forms on
    coordinate 4-space, as a direction (generalized cross product)."""
    comps = cofactors_of_rows(rows)
    if _proj_zero(comps):
        raise SingularSystem("the three forms are linearly dependent")
    s = comps[0] + comps[1] + comps[2] + comps[3]
    if S.sign(s) != 0:
        raise SingularSystem("solution does not satisfy the sum-zero constraint")
    return TetraDirection(*comps)
