import random

import pytest

from tetrascreen import geometry as G
from tetrascreen import scalar as S
from tetrascreen._backend import Q
from tetrascreen.errors import (
    CollinearPoints,
    IdenticalPoints,
    LineParallelToPlane,
    ParallelLines,
    PointOnLine,
    SkewLines,
)
from tetrascreen.tetrahedron import TetraFamily, generate
from tests.oracles import cartesian_of, contains_value, embed_tetra, sq_dist_cartesian

A1, A2, A3, A4 = G.VERTICES
REGULAR = G.EdgeMetric(1, 1, 1, 1, 1, 1)


def rand_point(rng, face=None):
    coords = [Q(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)]
    if face is not None:
        coords[face - 1] = Q(0)
    return G.TetraPoint(*coords)


@pytest.fixture(scope="module")
def instances():
    return generate(TetraFamily.GENERAL, seed=101, count=8)


class TestDeterminants:
    def test_bareiss_sign_matches_expansion(self, rng):
        for _ in range(300):
            rows = [[Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                    for _ in range(4)]
            assert G.det4_sign(rows) == S.sign(G.det4(rows))


class TestDistance:
    def test_vertices_realize_edges(self):
        m = G.EdgeMetric(4, 9, 16, 25, 36, 49)
        assert G.squared_distance(A2, A3, m) == 4
        assert G.squared_distance(A1, A3, m) == 9
        assert G.squared_distance(A1, A2, m) == 16
        assert G.squared_distance(A1, A4, m) == 25
        assert G.squared_distance(A2, A4, m) == 36
        assert G.squared_distance(A3, A4, m) == 49

    def test_zero_iff_equal(self):
        p = G.TetraPoint(Q(1, 4), Q(1, 4), Q(1, 4), Q(1, 4))
        assert G.squared_distance(p, p, REGULAR) == 0

    def test_regular_centroid_to_vertex(self):
        p = G.TetraPoint(Q(1, 4), Q(1, 4), Q(1, 4), Q(1, 4))
        assert G.squared_distance(p, A1, REGULAR) == Q(3, 8)

    def test_symmetry(self, rng, instances):
        m = instances[0].metric()
        for _ in range(20):
            p, q = rand_point(rng), rand_point(rng)
            assert G.squared_distance(p, q, m) == G.squared_distance(q, p, m)

    def test_against_cartesian_embedding(self, rng, instances):
        for inst in instances[:4]:
            m = inst.metric()
            verts = embed_tetra(m)
            for _ in range(10):
                p, q = rand_point(rng), rand_point(rng)
                exact = G.squared_distance(p, q, m)
                oracle = sq_dist_cartesian(cartesian_of(p, verts),
                                           cartesian_of(q, verts))
                assert contains_value(oracle, exact)


class TestIncidence:
    def test_vertices_not_coplanar(self):
        assert not G.coplanar4(A1, A2, A3, A4)

    def test_four_points_on_face_coplanar(self, rng):
        pts = [rand_point(rng, face=4) for _ in range(4)]
        assert G.coplanar4(*pts)

    def test_face_centroids_not_coplanar(self, instances):
        pts = [G.TetraPoint(*(Q(0) if i == j else Q(1) for j in range(4)))
               for i in range(4)]
        assert not G.coplanar4(*pts)
        # cross-check with the difference-determinant form
        rows = [p.normalized().tuple() for p in pts]
        base = rows[0]
        diff = [[rows[i][k] - base[k] for k in range(3)] for i in (1, 2, 3)]
        assert S.sign(G.det3(diff)) != 0

    def test_collinear(self):
        p = G.TetraPoint(Q(1), Q(2), Q(3), Q(4))
        q = G.TetraPoint(Q(2), Q(4), Q(6), Q(8))
        r = G.TetraPoint(Q(1), Q(0), Q(0), Q(0))
        assert G.collinear3(p, q, r)  # p and q coincide projectively
        assert not G.collinear3(A1, A2, A3)

    def test_euler_line_collinear(self, instances):
        from tetrascreen.tetrahedron import SpaceCenterKind, space_center

        for inst in instances[:4]:
            g = space_center(inst, SpaceCenterKind.CENTROID)
            o = space_center(inst, SpaceCenterKind.CIRCUMCENTER)
            mo = space_center(inst, SpaceCenterKind.MONGE)
            assert G.collinear3(g, o, mo)


class TestLines:
    def test_line_through_vertices(self):
        l = G.line_through(A1, A2)
        assert l.direction.proj_eq(G.TetraDirection(Q(-1), Q(1), Q(0), Q(0)))

    def test_direction_sums_to_zero(self, rng):
        p, q = rand_point(rng), rand_point(rng)
        l = G.line_through(p, q)
        assert sum(l.direction.tuple()) == 0

    def test_only_a_provably_nonzero_direction_sum_is_refused(self):
        from tetrascreen.errors import InvalidTetrahedron

        with pytest.raises(InvalidTetrahedron, match="sum to 0"):
            G.TetraDirection(Q(1), Q(0), Q(0), Q(0))
        with pytest.raises(InvalidTetrahedron, match="sum to 0"):
            G.TetraDirection(*(S.Interval(Q(1, 8), Q(1, 4)) for _ in range(4)))
        # an interval sum straddling zero is kept: it cannot certify zero
        near = S.Interval(Q(-1, 3), Q(1, 2))
        d = G.TetraDirection(near, S.Interval.point(Q(1)), S.Interval.point(Q(-1)), near)
        assert S.is_zero(sum(d.tuple())) == S.UNDECIDED

    def test_identical_points_rejected(self):
        with pytest.raises(IdenticalPoints):
            G.line_through(A1, G.TetraPoint(Q(2), Q(0), Q(0), Q(0)))

    def test_same_line_both_orders(self, rng):
        p, q = rand_point(rng), rand_point(rng)
        l1, l2 = G.line_through(p, q), G.line_through(q, p)
        assert l1.contains(q) and l2.contains(p)
        assert G.lines_parallel(l1, l2)

    def test_divide_segment(self):
        assert G.midpoint(A1, A2).tuple() == (Q(1, 2), Q(1, 2), 0, 0)
        assert G.divide_segment(A1, A4, 0, 1).proj_eq(A1)
        assert G.divide_segment(A1, A4, 2, 1).tuple() == (Q(1, 3), 0, 0, Q(2, 3))

    def test_perpendicular_opposite_edges_regular(self):
        assert G.lines_perpendicular(G.line_through(A1, A2),
                                     G.line_through(A3, A4), REGULAR)

    def test_line_not_self_perpendicular_generic(self, instances):
        m = instances[0].metric()
        l = G.line_through(A1, A2)
        assert not G.lines_perpendicular(l, l, m)

    def test_opposite_edges_perpendicular_orthocentric(self):
        inst = generate(TetraFamily.ORTHOCENTRIC, seed=5, count=1)[0]
        m = inst.metric()
        assert G.lines_perpendicular(G.line_through(A1, A2),
                                     G.line_through(A3, A4), m)

    def test_intersections(self):
        c1 = G.line_through(A1, G.TetraPoint(Q(0), Q(1), Q(1), Q(1)))
        c2 = G.line_through(A2, G.TetraPoint(Q(1), Q(0), Q(1), Q(1)))
        assert G.lines_intersect(c1, c2)
        q = G.intersection_point(c1, c2)
        assert q.proj_eq(G.TetraPoint(Q(1), Q(1), Q(1), Q(1)))
        assert not G.lines_intersect(G.line_through(A1, A2), G.line_through(A3, A4))
        l = G.line_through(A1, A2)
        assert G.lines_intersect(l, l)

    def test_lines_through_common_vertex(self):
        q = G.intersection_point(G.line_through(A1, A2), G.line_through(A1, A3))
        assert q.proj_eq(A1)

    def test_parallel_lines_error(self):
        l1 = G.line_through(A1, A2)
        base = G.TetraPoint(Q(0), Q(0), Q(1, 2), Q(1, 2))
        l2 = G.TetraLine(base, l1.direction)
        with pytest.raises(ParallelLines):
            G.intersection_point(l1, l2)

    def test_skew_lines_error(self):
        with pytest.raises(SkewLines):
            G.intersection_point(G.line_through(A1, A2), G.line_through(A3, A4))

    def test_intersect_agrees_with_construction(self, rng, instances):
        """On random line pairs the determinant test agrees with
        'intersection succeeds or the lines are parallel'."""
        agree = 0
        for _ in range(1000):
            l1 = G.line_through(rand_point(rng), rand_point(rng))
            l2 = G.line_through(rand_point(rng), rand_point(rng))
            det_says = G.lines_intersect(l1, l2)
            if G.lines_parallel(l1, l2):
                constructive = True
            else:
                try:
                    G.intersection_point(l1, l2)
                    constructive = True
                except (SkewLines, ParallelLines):
                    constructive = False
            assert det_says == constructive
            agree += 1
        assert agree == 1000


class TestPlanes:
    def test_face_planes(self):
        pl = G.plane_through_3(A1, A2, A3)
        assert G.planes_parallel(pl, G.face_plane(4))
        assert pl.contains(A1) and pl.contains(A2) and pl.contains(A3)
        pl2 = G.plane_through_3(A2, A3, A4)
        assert G.planes_parallel(pl2, G.face_plane(1))

    def test_collinear_points_rejected(self):
        with pytest.raises(CollinearPoints):
            G.plane_through_3(A1, A2, G.midpoint(A1, A2))

    def test_membership_of_defining_and_random_points(self, rng):
        p1, p2, p3 = (rand_point(rng) for _ in range(3))
        plane = G.plane_through_3(p1, p2, p3)
        for p in (p1, p2, p3):
            assert plane.contains(p)
        hits = 0
        for _ in range(20):
            q = rand_point(rng)
            if plane.contains(q):
                hits += 1
            # on-plane combination must always pass
            mid = G.divide_segment(p1, p2, rng.randint(1, 5), rng.randint(1, 5))
            assert plane.contains(mid)
        assert hits == 0  # random points essentially never lie on the plane

    def test_midpoint_plane_parallel_to_face(self):
        pts = [G.midpoint(A4, v) for v in (A1, A2, A3)]
        plane = G.plane_through_3(*pts)
        assert G.planes_parallel(plane, G.face_plane(4))
        assert not G.planes_parallel(G.face_plane(4), G.face_plane(1))
        assert G.planes_parallel(G.face_plane(4), G.face_plane(4))

    def test_plane_point_line(self):
        plane = G.plane_point_line(A4, G.line_through(A1, A2))
        expected = G.plane_through_3(A1, A2, A4)
        u = plane.tuple()
        v = expected.tuple()
        assert all(S.sign(u[i] * v[j] - u[j] * v[i]) == 0
                   for i in range(4) for j in range(i + 1, 4))
        with pytest.raises(PointOnLine):
            G.plane_point_line(G.midpoint(A1, A2), G.line_through(A1, A2))

    def test_plane_line_parallel_line(self):
        l12 = G.line_through(A1, A2)
        d34 = G.line_through(A3, A4).direction
        plane = G.plane_line_parallel_line(l12, d34)
        assert plane.contains(A1) and plane.contains(A2)
        assert G.line_parallel_to_plane(G.TetraLine(A3.normalized(), d34), plane) \
            or S.sign(plane.value_at(A3)) != 0
        # the plane really is parallel to the direction
        t = plane.tuple()
        d = d34.tuple()
        assert S.sign(sum(t[i] * d[i] for i in range(4))) == 0

    def test_line_plane_intersection(self):
        cen = G.TetraPoint(Q(1, 4), Q(1, 4), Q(1, 4), Q(1, 4))
        l = G.line_through(A4, cen)
        q = G.line_plane_intersection(l, G.face_plane(4))
        assert q.tuple() == (Q(1, 3), Q(1, 3), Q(1, 3), Q(0))
        assert l.contains(q) and G.face_plane(4).contains(q)
        with pytest.raises(LineParallelToPlane):
            G.line_plane_intersection(G.line_through(A1, A2), G.face_plane(4))


class TestDirectionCosines:
    def test_altitude_of_regular(self):
        l = G.line_through(A4, G.TetraPoint(Q(1, 3), Q(1, 3), Q(1, 3), Q(0)))
        cos = G.direction_cosines(l, REGULAR, 128)
        fourth = cos[3]
        assert contains_value(fourth, Q(-1))

    def test_in_face_direction_has_zero_fourth_cosine(self):
        l = G.line_through(A1, A2)
        cos = G.direction_cosines(l, REGULAR, 96)
        assert cos[2] == 0 and cos[3] == 0

    def test_against_cartesian_oracle(self, instances):
        """cos(angle between the line and face normal i) computed from the
        embedded geometry must enclose the kernel value."""
        inst = instances[0]
        m = inst.metric()
        verts = embed_tetra(m, 160)
        p = G.TetraPoint(Q(1, 7), Q(2, 7), Q(3, 7), Q(1, 7))
        line = G.line_through(A1, p)
        cos = G.direction_cosines(line, m, 160)
        pc = cartesian_of(p, verts)
        a1c = cartesian_of(A1, verts)
        d = tuple(pc[k] - a1c[k] for k in range(3))
        dlen = S.sqrt(sum(x * x for x in d), 160)
        for i in range(4):
            others = [verts[j] for j in range(4) if j != i]
            u = tuple(others[1][k] - others[0][k] for k in range(3))
            v = tuple(others[2][k] - others[0][k] for k in range(3))
            n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
            nlen = S.sqrt(sum(x * x for x in n), 160)
            dot = sum(n[k] * d[k] for k in range(3))
            oracle = S.div(dot, nlen * dlen)
            got = cos[i]
            # orientation of the cross product is arbitrary: compare |.|
            match = contains_value(oracle, got) or contains_value(-oracle, got)
            assert match, i


class TestNullDirection:
    def test_face_normal_direction_regular(self):
        from tetrascreen.properties import face_normal_direction

        n = face_normal_direction(REGULAR, 4)
        assert n.proj_eq(G.TetraDirection(Q(1), Q(1), Q(1), Q(-3)))

    def test_normal_perpendicular_to_all_face_edges(self, instances):
        from tetrascreen.properties import face_normal_direction

        inst = instances[1]
        m = inst.metric()
        for i in (1, 2, 3, 4):
            n = face_normal_direction(m, i)
            others = [v for k, v in enumerate(G.VERTICES, start=1) if k != i]
            for a in range(3):
                for b in range(a + 1, 3):
                    edge = G.line_through(others[a], others[b])
                    assert S.sign(m.perp_form(n, edge.direction)) == 0
