"""Independent oracles used by the kernel tests.

The embedding realizes a tetrahedron from its squared edge lengths with
interval coordinates (outward-rounded square roots), so oracle values are
rigorous enclosures that exact kernel results must fall inside.  The
Fraction references at the end are the constructions the division-free
kernel replaced.
"""

from tetrascreen import geometry as G
from tetrascreen import scalar as S
from tetrascreen._backend import Q
from tetrascreen.errors import LineParallelToPlane, ParallelDirections


def embed_tetra(metric, bits=128):
    """Interval Cartesian coordinates of the four vertices: A1 at the
    origin, A2 on the x-axis, A3 in the xy-plane, A4 above."""
    sq = {(i, j): metric.sq(i, j) for i in range(1, 5) for j in range(i + 1, 5)}
    zero = Q(0)
    a1 = (zero, zero, zero)
    d12 = S.sqrt(sq[(1, 2)], bits)
    a2 = (d12, zero, zero)
    x3 = S.div(sq[(1, 3)] + sq[(1, 2)] - sq[(2, 3)], 2 * d12)
    y3 = S.sqrt(sq[(1, 3)] - x3 * x3, bits)
    a3 = (x3, y3, zero)
    x4 = S.div(sq[(1, 4)] + sq[(1, 2)] - sq[(2, 4)], 2 * d12)
    y4 = S.div(sq[(1, 4)] - 2 * x4 * x3 + x3 * x3 + y3 * y3 - sq[(3, 4)], 2 * y3)
    z4sq = sq[(1, 4)] - x4 * x4 - y4 * y4
    if isinstance(z4sq, S.Interval) and z4sq.lo < 0:
        z4sq = S.Interval(Q(0), z4sq.hi, z4sq.bits, _rounded=True)
    z4 = S.sqrt(z4sq, bits)
    a4 = (x4, y4, z4)
    return (a1, a2, a3, a4)


def cartesian_of(point, vertices):
    """Affine combination of the embedded vertices by the normalized
    tetra coordinates."""
    coords = point.normalized().tuple()
    out = []
    for axis in range(3):
        total = Q(0)
        for k in range(4):
            total = total + coords[k] * vertices[k][axis]
        out.append(total)
    return tuple(out)


def sq_dist_cartesian(p, q):
    total = Q(0)
    for axis in range(3):
        d = p[axis] - q[axis]
        total = total + d * d
    return total


def contains_value(enclosure, value) -> bool:
    if isinstance(enclosure, S.Interval):
        if isinstance(value, S.Interval):
            return enclosure.hi >= value.lo and value.hi >= enclosure.lo
        return enclosure.contains(value)
    return S.sign(enclosure - value) == 0


# --- Fraction references for the division-free line/plane/metric kernel --


def cayley_menger_cofactors(m):
    """288 V^2 by cofactor expansion of the bordered 5x5 matrix of the
    squared lengths, on Fractions."""
    d = m.sq
    rows = [
        [Q(0), Q(1), Q(1), Q(1), Q(1)],
        [Q(1), Q(0), d(1, 2), d(1, 3), d(1, 4)],
        [Q(1), d(1, 2), Q(0), d(2, 3), d(2, 4)],
        [Q(1), d(1, 3), d(2, 3), Q(0), d(3, 4)],
        [Q(1), d(1, 4), d(2, 4), d(3, 4), Q(0)],
    ]
    total = Q(0)
    for j in range(1, 5):
        minor = [[rows[i][k] for k in range(5) if k != j] for i in range(1, 5)]
        term = rows[0][j] * G.det4(minor)
        total = total + (-term if j % 2 else term)
    return total


def _plane_through_line_parallel_to(line, d2):
    if line.direction.proj_eq(d2):
        raise ParallelDirections("the direction is parallel to the line")
    return G.TetraPlane(*G.cofactors_of_rows(
        [line.base.tuple(), line.direction.tuple(), d2.tuple()]))


def _line_meets_plane(line, plane):
    t, d, b = plane.tuple(), line.direction.tuple(), line.base.tuple()
    den = t[0] * d[0] + t[1] * d[1] + t[2] * d[2] + t[3] * d[3]
    if S.sign(den) == 0:
        raise LineParallelToPlane("the line is parallel to (or inside) the plane")
    r = S.div(plane.value_at(line.base), den)
    return G.TetraPoint(*(b[i] - r * d[i] for i in range(4)))


def hyperboloid_center_fractions(lines):
    """The ruled quadric's center on Fractions: X = L3 meets the plane
    through L1 parallel to L2, Y = L2 meets the plane through L1 parallel
    to L3, and the midpoint of the normalized X and Y."""
    l1, l2, l3 = lines[0], lines[1], lines[2]
    x = _line_meets_plane(l3, _plane_through_line_parallel_to(l1, l2.direction))
    y = _line_meets_plane(l2, _plane_through_line_parallel_to(l1, l3.direction))
    return G.midpoint(x, y)


_FACE_EDGES = {1: ((2, 3), (2, 4)), 2: ((1, 3), (1, 4)),
               3: ((1, 2), (1, 4)), 4: ((1, 2), (1, 3))}


def face_normal_fractions(m, i):
    """Null vector of the Fraction rows d -> perp_form(d, A_j - A_i) of two
    edges of face i and the sum-zero row."""
    rows = []
    for a, b in _FACE_EDGES[i]:
        rows.append(tuple(sum(m.sq(p, q) * ((q == b) - (q == a)) for q in (1, 2, 3, 4) if q != p)
                          for p in (1, 2, 3, 4)))
    return G.null_direction(rows + [(Q(1), Q(1), Q(1), Q(1))])
