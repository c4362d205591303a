import random

import pytest

from tetrascreen import geometry as G
from tetrascreen import properties as P
from tetrascreen import scalar as S
from tetrascreen import tetrahedron as M
from tetrascreen._backend import Q
from tetrascreen.errors import TetraScreenError, Undecided

A1, A2, A3, A4 = G.VERTICES
CENTROID = G.TetraPoint(Q(1), Q(1), Q(1), Q(1))


def face_point(rng, face):
    coords = [Q(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)]
    coords[face - 1] = Q(0)
    return G.TetraPoint(*coords)


@pytest.fixture(scope="module")
def general():
    return M.generate(M.TetraFamily.GENERAL, seed=201, count=6)


@pytest.fixture(scope="module")
def circumscriptible():
    return M.generate(M.TetraFamily.CIRCUMSCRIPTIBLE, seed=202, count=6)


class TestPairCondition:
    def test_matched_ratio_examples(self):
        assert P.pair_concurrence_condition(
            G.TetraPoint(Q(0), Q(1), Q(2), Q(3)), G.TetraPoint(Q(1), Q(0), Q(2), Q(3)))
        assert not P.pair_concurrence_condition(
            G.TetraPoint(Q(0), Q(1), Q(2), Q(3)), G.TetraPoint(Q(1), Q(0), Q(3), Q(2)))
        assert P.pair_concurrence_condition(
            G.TetraPoint(Q(0), Q(1), Q(1), Q(1)), G.TetraPoint(Q(1), Q(0), Q(1), Q(1)))

    def test_residual_matches_line_intersection(self, rng, general):
        """The minor-based condition agrees with the incidence
        determinant of the actual cevians."""
        inst = general[0]
        for _ in range(200):
            i, j = rng.sample((1, 2, 3, 4), 2)
            p_i, p_j = face_point(rng, i), face_point(rng, j)
            condition = S.sign(P.pair_concurrence_residual(p_i, i, p_j, j)) == 0
            c_i = P.cevian(inst, i, p_i)
            c_j = P.cevian(inst, j, p_j)
            assert condition == G.lines_intersect(c_i, c_j)


class TestConcurrence:
    def test_centroid_concurs_at_centroid(self, catalog, general):
        for inst in general:
            v = P.check_concurrence(inst, M.face_points(inst, catalog["X2"]))
            assert v.status == P.HOLDS_EXACT
            assert v.payload["point"].proj_eq(CENTROID)

    def test_gergonne_family(self, catalog, general, circumscriptible):
        for inst in circumscriptible:
            v = P.check_concurrence(inst, M.face_points(inst, catalog["X7"]))
            assert v.status == P.HOLDS_EXACT
        for inst in general:
            v = P.check_concurrence(inst, M.face_points(inst, catalog["X7"]))
            assert v.status == P.FAILS
            assert "residual" in v.witness or "residual_label" in v.witness


class TestSpear:
    def test_symmetric_coordinates(self):
        p1 = G.TetraPoint(Q(0), Q(1), Q(1), Q(1))
        p2 = G.TetraPoint(Q(1), Q(0), Q(1), Q(1))
        p3 = G.TetraPoint(Q(1), Q(1), Q(0), Q(1))
        holds, trace = P.spear_condition(p1, p2, p3)
        assert holds and trace.proj_eq(G.TetraPoint(Q(1), Q(1), Q(1), Q(0)))

    def test_constructive_agreement_500_random_triples(self, rng, general):
        """The product identity agrees with the from-first-principles
        construction (plane through the apex and one cevian, intersections,
        collinearity)."""
        agree = 0
        inst = general[1]
        while agree < 500:
            p1, p2, p3 = (face_point(rng, i) for i in (1, 2, 3))
            holds, trace = P.spear_condition(p1, p2, p3)
            try:
                holds_c, trace_c = P.spear_trace_constructive(inst, p1, p2, p3)
            except TetraScreenError:
                continue
            assert holds == holds_c
            if holds and trace is not None and trace_c is not None:
                assert trace.proj_eq(trace_c)
            agree += 1

    def test_forced_spear_triples(self, rng, general):
        """Solve the identity for one coordinate to force spear existence."""
        inst = general[2]
        found = 0
        while found < 50:
            p1 = face_point(rng, 1)
            p2 = face_point(rng, 2)
            _, y1, z1, w1 = p1.tuple()
            x2, _, z2, w2 = p2.tuple()
            x3 = Q(rng.randint(1, 9))
            w3 = Q(rng.randint(1, 9))
            # choose y3 with z1*x2*y3 = y1*z2*x3
            y3 = S.div(y1 * z2 * x3, z1 * x2)
            p3 = G.TetraPoint(x3, y3, Q(0), w3)
            holds, trace = P.spear_condition(p1, p2, p3)
            assert holds
            holds_c, trace_c = P.spear_trace_constructive(inst, p1, p2, p3)
            assert holds_c and trace.proj_eq(trace_c)
            found += 1


class TestHyperboloidCenter:
    def test_permutation_invariance(self, rng, catalog, general):
        from itertools import permutations

        inst = general[0]
        pts = M.face_points(inst, catalog["POW"], r=Q(2))
        lines = [P.cevian(inst, i, pts[i - 1]) for i in (1, 2, 3, 4)]
        centers = set()
        base = P.hyperboloid_center(lines)
        for triple in permutations(range(4), 3):
            alt = P.hyperboloid_center([lines[k] for k in triple])
            assert alt.proj_eq(base)

    def test_cartesian_ruling_oracle(self):
        """Rulings of x^2+y^2-z^2 = 1 mapped into the coordinates of the
        unit-corner tetrahedron must give back the origin, exactly."""
        # reference tetra (0,0,0), (1,0,0), (0,1,0), (0,0,1):
        # tetra coords of (x,y,z) are (1-x-y-z, x, y, z)
        def to_tetra_point(x, y, z):
            return G.TetraPoint(1 - x - y - z, x, y, z)

        def to_tetra_dir(dx, dy, dz):
            return G.TetraDirection(-(dx + dy + dz), dx, dy, dz)

        lines = []
        for mth in (Q(0), Q(1), Q(-1), Q(1, 2)):
            den = 1 + mth * mth
            cos, sin = S.div(1 - mth * mth, den), S.div(2 * mth, den)
            base = to_tetra_point(cos, sin, Q(0))
            direction = to_tetra_dir(-sin, cos, Q(1))
            lines.append(G.TetraLine(base.normalized(), direction))
        center = P.hyperboloid_center(lines)
        assert center.proj_eq(G.TetraPoint(Q(1), Q(0), Q(0), Q(0)))
        # invariance across the four rulings
        center2 = P.hyperboloid_center([lines[3], lines[1], lines[2]])
        assert center2.proj_eq(center)

    def test_isosceles_centroid_cevian_center_is_reference_centroid(self, catalog):
        """On isosceles instances the cevian quadric of any center is
        centered at the reference centroid when the cevians are skew."""
        inst = M.generate(M.TetraFamily.ISOSCELES, seed=203, count=1)[0]
        pts = M.face_points(inst, catalog["X7"])
        v = P.check_hyperbolic(inst, pts)
        assert v.status == P.HOLDS_EXACT
        assert v.payload["center"].proj_eq(CENTROID)


class TestHyperbolic:
    def test_power_points_on_general(self, catalog, general):
        for inst in general[:3]:
            for r in (-2, 0, 1, 2, 3):
                v = P.check_hyperbolic(inst, M.face_points(inst, catalog["POW"], r=Q(r)))
                assert v.status == P.HOLDS_EXACT, r

    def test_centroid_is_degenerate_not_holds(self, catalog, general):
        v = P.check_hyperbolic(general[0], M.face_points(general[0], catalog["X2"]))
        assert v.status == P.SKIPPED
        assert v.payload["identity_holds"] is True

    def test_spieker_fails_on_general(self, catalog, general):
        statuses = set()
        for inst in general:
            v = P.check_hyperbolic(inst, M.face_points(inst, catalog["X10"]))
            statuses.add(v.status)
        assert P.FAILS in statuses


class TestCoplanarCollinear:
    def test_feuerbach_on_matching_families(self, catalog, circumscriptible):
        for inst in circumscriptible:
            assert P.check_coplanar(inst, M.face_points(inst, catalog["X11"])).status == P.HOLDS_EXACT

    def test_centroid_not_coplanar_on_general(self, catalog, general):
        for inst in general:
            assert P.check_coplanar(inst, M.face_points(inst, catalog["X2"])).status == P.FAILS

    def test_collinear_check(self, general):
        l = G.line_through(A1, G.TetraPoint(Q(0), Q(1), Q(2), Q(3)))
        pts = [l.at(Q(t, 7)) for t in (1, 2, 3, 5)]
        assert P.check_collinear(general[0], pts).status == P.HOLDS_EXACT
        pts[3] = G.TetraPoint(Q(1), Q(1), Q(1), Q(1))
        assert P.check_collinear(general[0], pts).status == P.FAILS


class TestFeuerbachDeterminant:
    def test_families_with_degenerate_rows(self, circumscriptible):
        for inst in circumscriptible:
            assert P.feuerbach_planarity_condition(inst)
        for inst in M.generate(M.TetraFamily.ISODYNAMIC, seed=204, count=3):
            assert P.feuerbach_planarity_condition(inst)
        for inst in M.generate_shifted_product(seed=205, count=3):
            assert P.feuerbach_planarity_condition(inst)

    def test_generic_instance_fails(self, general):
        hits = sum(P.feuerbach_planarity_condition(inst) for inst in general)
        assert hits == 0


class TestNormals:
    def test_circumcenter_normals_concur_at_circumcenter(self, catalog, general):
        for inst in general[:3]:
            v = P.check_normals_concur(inst, M.face_points(inst, catalog["X3"]))
            assert v.status == P.HOLDS_EXACT
            assert v.payload["point"].proj_eq(
                M.space_center(inst, M.SpaceCenterKind.CIRCUMCENTER))

    def test_regular_face_centroid_normal_hits_centroid(self):
        e = M.EdgeLengths(1, 1, 1, 1, 1, 1)
        n = P.face_normal_line(e, 4, G.TetraPoint(Q(1), Q(1), Q(1), Q(0)))
        assert n.contains(G.TetraPoint(Q(1, 4), Q(1, 4), Q(1, 4), Q(1, 4)))

    def test_centroid_normals_fail_on_general(self, catalog, general):
        statuses = {P.check_normals_concur(inst, M.face_points(inst, catalog["X2"])).status
                    for inst in general}
        assert statuses == {P.FAILS}

    def test_orthocentric_centroid_normals_concur(self, catalog):
        for inst in M.generate(M.TetraFamily.ORTHOCENTRIC, seed=206, count=3):
            v = P.check_normals_concur(inst, M.face_points(inst, catalog["X2"]))
            assert v.status == P.HOLDS_EXACT


class TestTabov:
    def test_incenters_on_circumscriptible(self, catalog, circumscriptible):
        inst = circumscriptible[0]
        pts = M.face_points(inst, catalog["X1"])
        assert P.tabov_pair_condition(inst, pts[0], pts[1])

    def test_equivalence_with_normal_intersection_200_pairs(self, rng, general):
        """Both directions: the squared-distance balance holds exactly
        when the two face normals meet."""
        inst = general[3]
        met = inst.metric()
        checked = 0
        conforming = 0
        while checked < 200:
            force = checked % 2 == 0
            p1 = face_point(rng, 1)
            if force:
                g = {}
                for name, vert in (("A1", A1), ("A3", A3), ("A4", A4)):
                    g[name] = (G.squared_distance(vert, A3, met)
                               - G.squared_distance(vert, A4, met))
                target = (G.squared_distance(p1, A3, met)
                          - G.squared_distance(p1, A4, met))
                x = Q(rng.randint(1, 5), rng.randint(1, 3))
                den = g["A3"] - g["A4"]
                z2 = S.div(target - g["A1"] * x - g["A4"] * (1 - x), den)
                w2 = (1 - x) - z2
                try:
                    p2 = G.TetraPoint(x, Q(0), z2, w2)
                except TetraScreenError:
                    continue
            else:
                p2 = face_point(rng, 2)
            balance = P.tabov_pair_residual(met, p1, p2) == 0
            n1 = P.face_normal_line(inst, 1, p1)
            n2 = P.face_normal_line(inst, 2, p2)
            meet = G.lines_intersect(n1, n2)
            assert balance == meet
            conforming += balance
            checked += 1
        assert conforming >= 90  # the forced half must conform


class TestCentralClassification:
    def test_centroid_faces_similar_ratio_one_ninth(self, catalog, general):
        cls = P.classify_central(general[0], M.face_points(general[0], catalog["X2"]))
        v = cls[P.PropertyId.SIMILAR_TO_REFERENCE]
        assert v.status == P.HOLDS_EXACT and v.payload["ratio_squared"] == Q(1, 9)

    def test_vertices_similar_ratio_one(self, general):
        cls = P.classify_central(general[0], list(G.VERTICES))
        v = cls[P.PropertyId.SIMILAR_TO_REFERENCE]
        assert v.status == P.HOLDS_EXACT and v.payload["ratio_squared"] == 1

    def test_isosceles_reference_gives_isosceles_central(self, catalog):
        inst = M.generate(M.TetraFamily.ISOSCELES, seed=207, count=1)[0]
        for cid in ("X1", "X7", "Y9"):
            cls = P.classify_central(inst, M.face_points(inst, catalog[cid]))
            assert cls[P.PropertyId.CENTRAL_ISOSCELES].status == P.HOLDS_EXACT

    def test_circumscriptible_central_on_vertices(self, general):
        """The vertex tetrahedron is its own central tetrahedron; its
        radical-sum comparisons agree with the rational family check."""
        inst = M.generate(M.TetraFamily.CIRCUMSCRIPTIBLE, seed=208, count=1)[0]
        cls = P.classify_central(inst, list(G.VERTICES))
        assert cls[P.PropertyId.CENTRAL_CIRCUMSCRIPTIBLE].status == P.HOLDS_EXACT

    def test_coplanar_points_rejected(self, general):
        from tetrascreen.errors import CoplanarPoints

        pts = [A1, A2, A3, G.midpoint(A1, A2)]
        with pytest.raises(CoplanarPoints):
            P.classify_central(general[0], pts)


class TestFacesParallelAndCevians:
    def test_centroid_faces_parallel(self, catalog, general):
        for inst in general[:3]:
            assert P.check_faces_parallel(inst, M.face_points(inst, catalog["X2"])).status == P.HOLDS_EXACT

    def test_incenter_faces_not_parallel_on_scalene(self, catalog, general):
        statuses = {P.check_faces_parallel(inst, M.face_points(inst, catalog["X1"])).status
                    for inst in general}
        assert P.FAILS in statuses

    def test_vertices_trivially_parallel(self, general):
        assert P.check_faces_parallel(general[0], list(G.VERTICES)).status == P.HOLDS_EXACT

    def test_degenerate_central_face_skips(self, general):
        midpoint = G.TetraPoint(Q(1), Q(1), Q(0), Q(0))
        v = P.check_faces_parallel(general[0], [A1, A2, midpoint, A4])
        assert v.status == P.SKIPPED

    def test_programming_error_propagates(self, general, monkeypatch):
        def broken(*points):
            raise TypeError("broken plane")

        monkeypatch.setattr(G, "plane_through_3", broken)
        with pytest.raises(TypeError):
            P.check_faces_parallel(general[0], list(G.VERTICES))

    def test_equal_cevians_on_isosceles_fail_on_scalene(self, catalog, general):
        iso = M.generate(M.TetraFamily.ISOSCELES, seed=209, count=1)[0]
        assert P.check_equal_cevians(iso, M.face_points(iso, catalog["X7"])).status == P.HOLDS_EXACT
        statuses = {P.check_equal_cevians(inst, M.face_points(inst, catalog["X2"])).status
                    for inst in general}
        assert P.FAILS in statuses


class TestSpaceCenterRelations:
    def test_centroid_faces_relations(self, catalog, general):
        rel = P.check_space_center_relations(general[0],
                                             M.face_points(general[0], catalog["X2"]))
        shared = rel[P.PropertyId.SHARED_SPACE_CENTER]
        pairs = {(p["central"], p["reference"]) for p in shared.payload["pairs"]}
        assert ("centroid", "centroid") in pairs
        assert ("circumcenter", "euler") in pairs
        p15 = rel[P.PropertyId.CENTRAL_CENTER_ON_REF_EULER]
        ts = {m["center"]: m["t"] for m in p15.payload["members"]}
        assert ts["monge"] == Q(2, 3) and ts["euler"] == Q(8, 9)
        p16 = rel[P.PropertyId.REF_CENTER_ON_CENTRAL_EULER]
        ts16 = {m["center"]: m["t"] for m in p16.payload["members"]}
        assert ts16["circumcenter"] == 4 and ts16["monge"] == -2

    def test_euler_line_vacuous_on_isosceles(self, catalog):
        inst = M.generate(M.TetraFamily.ISOSCELES, seed=210, count=1)[0]
        rel = P.check_space_center_relations(inst, M.face_points(inst, catalog["X7"]))
        assert rel[P.PropertyId.CENTRAL_CENTER_ON_REF_EULER].status == P.SKIPPED


class TestEulerMembershipErrors:
    class _Point:
        def __init__(self, exc):
            self.exc = exc

        def proj_eq(self, other):
            raise self.exc

    def test_undecided_comparison_reads_undecided(self):
        o = self._Point(Undecided("straddles zero"))
        assert P._euler_membership(o, CENTROID, {}, "line").status == P.UNDECIDED

    def test_programming_error_propagates(self):
        with pytest.raises(TypeError):
            P._euler_membership(self._Point(TypeError("bug")), CENTROID, {}, "line")


class TestClosures:
    def test_isotomic_closure_of_concurrence(self, catalog, rng):
        """50 (instance, center) pairs where concurrence holds; the
        isotomic conjugate must concur as well."""
        bases = [("circumscriptible", "X7", None), ("circumscriptible", "X8", None),
                 ("orthocentric", "X4", None), ("harmonic", "X117", None),
                 ("general", "X2", None)]
        confirmed = 0
        k = 0
        while confirmed < 50:
            fam, cid, r = bases[k % len(bases)]
            inst = M.generate(M.TetraFamily(fam), seed=300 + k, count=1)[0]
            k += 1
            entry = catalog[cid]
            base = P.check_concurrence(inst, M.face_points(inst, entry, r=r))
            if base.status != P.HOLDS_EXACT:
                continue
            conj = P.check_concurrence(inst, M.face_points(inst, entry.isotomic(), r=r))
            assert conj.status == P.HOLDS_EXACT, (fam, cid)
            confirmed += 1

    def test_power_closure_of_concurrence(self, catalog):
        entry = catalog["CEV1"]
        for inst in M.generate(M.TetraFamily.CIRCUMSCRIPTIBLE, seed=211, count=50):
            assert P.check_concurrence(inst, M.face_points(inst, entry, r=Q(1))).status == P.HOLDS_EXACT
            for r in (2, 3, -1):
                assert P.check_concurrence(inst, M.face_points(inst, entry, r=Q(r))).status == P.HOLDS_EXACT

    def test_arfq_closure_of_hyperbolic(self, catalog):
        entry = catalog["X10"]
        confirmed = 0
        for inst in M.generate(M.TetraFamily.ISODYNAMIC, seed=212, count=13):
            base = P.check_hyperbolic(inst, M.face_points(inst, entry))
            if base.status != P.HOLDS_EXACT:
                continue
            for (r, q) in ((1, 1), (2, 1), (0, 2), (-2, 1)):
                derived = entry.power_scaled(r, q)
                v = P.check_hyperbolic(inst, M.face_points(inst, derived))
                assert v.status == P.HOLDS_EXACT, (r, q)
                confirmed += 1
        assert confirmed >= 50

    def test_isogonal_closure_of_hyperbolic(self, catalog):
        pairs = (("general", "POW", Q(2)), ("isodynamic", "X37", None))
        confirmed = 0
        k = 0
        while confirmed < 50:
            fam, cid, r = pairs[k % 2]
            inst = M.generate(M.TetraFamily(fam), seed=400 + k, count=1)[0]
            k += 1
            entry = catalog[cid]
            base = P.check_hyperbolic(inst, M.face_points(inst, entry, r=r))
            if base.status != P.HOLDS_EXACT:
                continue
            v = P.check_hyperbolic(inst, M.face_points(inst, entry.isogonal(), r=r))
            assert v.status == P.HOLDS_EXACT, (fam, cid)
            confirmed += 1

    def test_concurrence_of_tangent_family_forces_circumscriptible(self, catalog, rng):
        """Perturbed instances: whenever the tangent-length center
        concurs, the perturbed tetrahedron still satisfies the family
        condition."""
        entry = catalog["CEV1"]
        tested = 0
        for inst in M.generate(M.TetraFamily.CIRCUMSCRIPTIBLE, seed=213, count=50):
            edges = list(inst.edges())
            k = rng.randrange(6)
            edges[k] = edges[k] + Q(rng.randint(1, 9), rng.randint(10, 40))
            try:
                pert = M.EdgeLengths(*edges).require_valid()
            except TetraScreenError:
                continue
            v = P.check_concurrence(pert, M.face_points(pert, entry, r=Q(1)))
            tested += 1
            if v.holds:
                assert M.family_predicate(pert, M.TetraFamily.CIRCUMSCRIPTIBLE)
        assert tested >= 40
