"""The sixteen screened properties of four corresponding face centers,
plus the closed-form pairwise conditions they rest on.

Each check returns a :class:`Verdict`.  A verdict is ``holds_exact`` only
when every scalar on the evaluation path stayed rational; interval paths
can at best report ``holds_numeric`` (enclosures contain zero) while a
provably nonzero residual yields ``fails`` with the witness quantity —
that direction is a proof even in interval mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from . import geometry as G
from . import scalar as S
from ._backend import Q
from .errors import (
    CoplanarPoints,
    EulerLineDegenerate,
    EvaluationSingular,
    IdenticalLines,
    ParallelLines,
    TetraScreenError,
)
from .tetrahedron import (
    EdgeLengths,
    EvalMode,
    SpaceCenterKind,
    space_center,
    space_center_of_points,
    euler_param_of_points,
)
from .triangle import EXACT


class PropertyId(IntEnum):
    CONCUR = 1
    HYPERBOLIC = 2
    COPLANAR = 3
    COLLINEAR = 4
    NORMALS_CONCUR = 5
    FACES_PARALLEL = 6
    CENTRAL_ISOSCELES = 7
    CENTRAL_REGULAR = 8
    CENTRAL_ISODYNAMIC = 9
    CENTRAL_CIRCUMSCRIPTIBLE = 10
    CENTRAL_ORTHOCENTRIC = 11
    SIMILAR_TO_REFERENCE = 12
    EQUAL_CEVIANS = 13
    SHARED_SPACE_CENTER = 14
    CENTRAL_CENTER_ON_REF_EULER = 15
    REF_CENTER_ON_CENTRAL_EULER = 16


HOLDS_EXACT = "holds_exact"
HOLDS_NUMERIC = "holds_numeric"
FAILS = "fails"
UNDECIDED = "undecided"
SKIPPED = "skipped"
ERROR = "error"  # a screen cell whose evaluation raised an engine error


@dataclass
class Verdict:
    status: str
    width: object = None        # max enclosure width for holds_numeric
    witness: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status in (HOLDS_EXACT, HOLDS_NUMERIC)


def _zero_verdict(residuals, labels=None) -> Verdict:
    """Classify a family of quantities that should all vanish."""
    max_width = None
    exact = True
    for idx, v in enumerate(residuals):
        if isinstance(v, S.Interval):
            exact = False
            if not v.contains_zero():
                return Verdict(FAILS, witness=_witness(idx, v, labels))
            w = v.width()
            if max_width is None or w > max_width:
                max_width = w
        else:
            if v != 0:
                return Verdict(FAILS, witness=_witness(idx, v, labels))
    if exact:
        return Verdict(HOLDS_EXACT)
    return Verdict(HOLDS_NUMERIC, width=max_width)


def _witness(idx, value, labels):
    w = {"residual_index": idx, "residual": value}
    if labels is not None:
        w["residual_label"] = labels[idx]
    return w


def _cross_residuals(u, v):
    return [u[i] * v[j] - u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u))]


def points_coincide_verdict(p: G.TetraPoint, q: G.TetraPoint) -> Verdict:
    return _zero_verdict(_cross_residuals(p.tuple(), q.tuple()))


# ---------------------------------------------------------------------
# cevians and pairwise conditions


def cevian(e: EdgeLengths, i: int, p_i: G.TetraPoint) -> G.TetraLine:
    """Line from vertex A_i to the point on the opposite face."""
    coords = p_i.tuple()
    if S.sign(coords[i - 1]) != 0:
        raise EvaluationSingular(f"point is not on face {i}")
    return G.line_through(G.VERTICES[i - 1], p_i)


def pair_concurrence_residual(p_i: G.TetraPoint, i: int,
                              p_j: G.TetraPoint, j: int):
    """Cevians A_iP_i and A_jP_j meet (or are parallel) iff the 2x2 minor
    of their coordinates on the complement slots vanishes."""
    rest = [k for k in range(4) if k + 1 not in (i, j)]
    u, v = p_i.tuple(), p_j.tuple()
    k, l = rest
    return u[k] * v[l] - u[l] * v[k]


def pair_concurrence_condition(p1: G.TetraPoint, p2: G.TetraPoint) -> bool:
    """The faces-1-and-2 special case z1*w2 = z2*w1."""
    return S.sign(pair_concurrence_residual(p1, 1, p2, 2)) == 0


_PAIRS = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]


def check_concurrence(e: EdgeLengths, points) -> Verdict:
    """All six pairwise conditions; when they hold, the common point of
    two cevians (verified against the rest) is the payload."""
    residuals = [pair_concurrence_residual(points[i - 1], i, points[j - 1], j)
                 for i, j in _PAIRS]
    verdict = _zero_verdict(residuals, labels=[f"pair {p}" for p in _PAIRS])
    if not verdict.holds:
        return verdict
    try:
        c1 = cevian(e, 1, points[0])
        c2 = cevian(e, 2, points[1])
        q = G.intersection_point(c1, c2).normalized()
        for i in (3, 4):
            if not cevian(e, i, points[i - 1]).contains(q):
                return Verdict(FAILS, witness={"residual_label": f"cevian {i} misses the pair-12 point"})
        verdict.payload["point"] = q
    except (ParallelLines, IdenticalLines):
        verdict.note = "cevians are parallel; concurrence is at infinity"
    return verdict


def spear_residual(p1: G.TetraPoint, p2: G.TetraPoint, p3: G.TetraPoint):
    """z1*x2*y3 - y1*z2*x3 for points on faces 1, 2, 3; its vanishing is
    the condition for a transversal through A4 meeting all three cevians."""
    _, y1, z1, _ = p1.tuple()
    x2, _, z2, _ = p2.tuple()
    x3, y3, _, _ = p3.tuple()
    return z1 * x2 * y3 - y1 * z2 * x3


def spear_condition(p1: G.TetraPoint, p2: G.TetraPoint, p3: G.TetraPoint):
    """(condition, trace) where trace = (x3*y1, y1*y3, y3*z1, 0) when the
    condition holds (None when it does not, or the tuple degenerates)."""
    holds = S.sign(spear_residual(p1, p2, p3)) == 0
    trace = None
    if holds:
        _, y1, z1, _ = p1.tuple()
        x3, y3, _, _ = p3.tuple()
        coords = (x3 * y1, y1 * y3, y3 * z1, Q(0))
        if not all(S.is_exact(c) and c == 0 for c in coords):
            trace = G.TetraPoint(*coords)
    return holds, trace


def spear_trace_constructive(e: EdgeLengths, p1, p2, p3):
    """The transversal through A4 built from first principles: the plane
    through A4 and the cevian A3P3 meets cevians 1 and 2 in Q1, Q2; the
    spear exists iff A4, Q1, Q2 are collinear, and its trace is the
    intersection of line A4Q1 with face 4."""
    a4 = G.VERTICES[3]
    plane = G.plane_point_line(a4, cevian(e, 3, p3))
    q1 = G.line_plane_intersection(cevian(e, 1, p1), plane)
    q2 = G.line_plane_intersection(cevian(e, 2, p2), plane)
    if not G.collinear3(a4, q1, q2):
        return False, None
    trace = G.line_plane_intersection(G.line_through(a4, q1), G.face_plane(4))
    return True, trace


def hyperboloid_center(lines) -> G.TetraPoint:
    """Center of the ruled quadric spanned by pairwise-skew lines: X is
    where L3 meets the plane through L1 parallel to L2, Y where L2 meets
    the plane through L1 parallel to L3; the center is the midpoint XY,
    s_Y X + s_X Y for homogeneous X, Y with coordinate sums s_X, s_Y."""
    l1, l2, l3 = lines[0], lines[1], lines[2]
    x = G.line_plane_meet(l3, G.plane_line_parallel_line(l1, l2.direction))
    y = G.line_plane_meet(l2, G.plane_line_parallel_line(l1, l3.direction))
    sx = x[0] + x[1] + x[2] + x[3]
    sy = y[0] + y[1] + y[2] + y[3]
    return G.point_of(tuple(sy * x[i] + sx * y[i] for i in range(4)))


def check_hyperbolic(e: EdgeLengths, points, with_center: bool = True) -> Verdict:
    """Spear-identity check, guarded by the pairwise-skew precondition.

    When some cevians already meet, the four lines cannot rule a quadric;
    the verdict is then `skipped` (vacuously degenerate) but the payload
    still records whether the algebraic identity holds.
    """
    identity = spear_residual(points[0], points[1], points[2])
    pair_residuals = [pair_concurrence_residual(points[i - 1], i, points[j - 1], j)
                      for i, j in _PAIRS]
    degenerate = None
    for (i, j), r in zip(_PAIRS, pair_residuals):
        sgn = S.sign(r)  # may raise Undecided at low precision
        if sgn == 0:
            degenerate = (i, j)
            break
    if degenerate is not None:
        v = Verdict(SKIPPED, note=f"cevians {degenerate} meet; configuration degenerate")
        v.payload["identity_holds"] = (S.sign(identity) == 0)
        v.payload["identity_exact"] = S.is_exact(identity)
        return v
    verdict = _zero_verdict([identity], labels=["spear identity"])
    if verdict.holds and with_center:
        try:
            lines = [cevian(e, i, points[i - 1]) for i in (1, 2, 3, 4)]
            verdict.payload["center"] = hyperboloid_center(lines).normalized()
        except (ParallelLines, IdenticalLines, CoplanarPoints) as exc:
            verdict.note = f"hyperboloid center construction degenerate: {exc}"
    return verdict


def check_coplanar(e: EdgeLengths, points) -> Verdict:
    if all(p.int_form is not None for p in points):
        return _zero_verdict([Q(G.points_det4_sign(points))],
                             labels=["coplanarity determinant sign"])
    return _zero_verdict([G.det4([p.tuple() for p in points])],
                         labels=["coplanarity determinant"])


def check_collinear(e: EdgeLengths, points) -> Verdict:
    normalized = [p.normalized().tuple() for p in points]
    base = normalized[0]
    diffs = [tuple(p[i] - base[i] for i in range(4)) for p in normalized[1:]]
    residuals = []
    for d in diffs[1:]:
        residuals.extend(_cross_residuals(diffs[0], d))
    return _zero_verdict(residuals)


def feuerbach_planarity_condition(e: EdgeLengths) -> bool:
    """Vanishing of det[[a_i+b_i], [a_i*b_i], [1, 1, 1]]."""
    rows = [
        (e.a1 + e.b1, e.a2 + e.b2, e.a3 + e.b3),
        (e.a1 * e.b1, e.a2 * e.b2, e.a3 * e.b3),
        (Q(1), Q(1), Q(1)),
    ]
    return G.det3(rows) == 0


# ---------------------------------------------------------------------
# normals


_FACE_EDGE_DIRS = {
    # two independent in-face edges A_i -> A_j for each face
    1: ((2, 3), (2, 4)),
    2: ((1, 3), (1, 4)),
    3: ((1, 2), (1, 4)),
    4: ((1, 2), (1, 3)),
}


def face_normal_direction(m: G.EdgeMetric, i: int) -> G.TetraDirection:
    """Direction perpendicular to face i: the null vector of the two
    in-face perpendicularity forms together with the sum-zero constraint.
    The form d -> perp_form(d, A_j - A_i) has coefficients g_pj - g_pi (g
    the squared lengths, zero on the diagonal), taken from the integer
    form, so the null vector is L^2 times the rational one; it is divided
    back, because printed interval residuals depend on its scale."""
    (d01, d02, d03, d12, d13, d23), big = m.int_form
    g = ((0, d01, d02, d03), (d01, 0, d12, d13), (d02, d12, 0, d23), (d03, d13, d23, 0))
    rows = [tuple(row[j - 1] - row[k - 1] for row in g) for k, j in _FACE_EDGE_DIRS[i]]
    comps = G.null_direction(rows + [(1, 1, 1, 1)]).tuple()
    scale = big * big
    return G.TetraDirection(*(Q(c, scale) for c in comps))


def face_normal_line(e: EdgeLengths, i: int, p_i: G.TetraPoint) -> G.TetraLine:
    """The normal to face i erected at a point of that face."""
    coords = p_i.tuple()
    if S.sign(coords[i - 1]) != 0:
        raise EvaluationSingular(f"point is not on face {i}")
    direction = face_normal_direction(e.metric(), i)
    return G.TetraLine(p_i.normalized(), direction)


def tabov_pair_residual(m: G.EdgeMetric, p1: G.TetraPoint, p2: G.TetraPoint):
    """(P2 A3)^2 + (P1 A4)^2 - (P2 A4)^2 - (P1 A3)^2 for points on faces
    1 and 2; vanishes exactly when the two face normals meet."""
    a3, a4 = G.VERTICES[2], G.VERTICES[3]
    return (G.squared_distance(p2, a3, m) + G.squared_distance(p1, a4, m)
            - G.squared_distance(p2, a4, m) - G.squared_distance(p1, a3, m))


def tabov_pair_condition(e: EdgeLengths, p1: G.TetraPoint, p2: G.TetraPoint) -> bool:
    return S.sign(tabov_pair_residual(e.metric(), p1, p2)) == 0


def check_normals_concur(e: EdgeLengths, points) -> Verdict:
    """All six pairwise intersections of the face normals, then a common
    point computed from two of them and verified on the rest."""
    m = e.metric()
    normals = [face_normal_line(e, i, points[i - 1]) for i in (1, 2, 3, 4)]
    residuals = []
    for i, j in _PAIRS:
        rows = [normals[i - 1].base.tuple(), normals[i - 1].direction.tuple(),
                normals[j - 1].base.tuple(), normals[j - 1].direction.tuple()]
        if all(S.is_exact(x) for row in rows for x in row):
            residuals.append(Q(G.det4_sign(rows)))
        else:
            residuals.append(G.det4(rows))
    verdict = _zero_verdict(residuals, labels=[f"normals {p}" for p in _PAIRS])
    if not verdict.holds:
        return verdict
    try:
        q = G.intersection_point(normals[0], normals[1]).normalized()
        for k in (2, 3):
            if not normals[k].contains(q):
                return Verdict(FAILS, witness={"residual_label": f"normal {k+1} misses the pair-12 point"})
        verdict.payload["point"] = q
    except (ParallelLines, IdenticalLines):
        verdict.note = "normals parallel; concurrence is at infinity"
    return verdict


# ---------------------------------------------------------------------
# central-tetrahedron shape


def central_squared_edges(m: G.EdgeMetric, points) -> dict:
    """Squared edge lengths of the central tetrahedron under P_i <-> A_i."""
    sq = {}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            sq[(i, j)] = G.squared_distance(points[i - 1], points[j - 1], m)
    return sq


_OPPOSITE_EDGE_PAIRS = (((2, 3), (1, 4)), ((1, 3), (2, 4)), ((1, 2), (3, 4)))

CENTRAL_PROPERTIES = frozenset({
    PropertyId.CENTRAL_ISOSCELES, PropertyId.CENTRAL_REGULAR,
    PropertyId.CENTRAL_ISODYNAMIC, PropertyId.CENTRAL_CIRCUMSCRIPTIBLE,
    PropertyId.CENTRAL_ORTHOCENTRIC, PropertyId.SIMILAR_TO_REFERENCE})


def classify_central(e: EdgeLengths, points, wanted=CENTRAL_PROPERTIES) -> dict:
    """Verdicts for properties 7-12 on the central tetrahedron.

    Opposite-edge sums of lengths (circumscriptibility) are decided
    exactly on the squared values by radical-sum comparison.  The
    circumscriptibility and similarity verdicts, the costly ones, are
    computed only when `wanted` names them.
    """
    if G.coplanar4(*[p.normalized() for p in points]):
        raise CoplanarPoints("central points are coplanar")
    m = e.metric()
    sq = central_squared_edges(m, points)
    pairs = [(sq[p], sq[q]) for p, q in _OPPOSITE_EDGE_PAIRS]
    out = {}
    out[PropertyId.CENTRAL_ISOSCELES] = _zero_verdict(
        [a - b for a, b in pairs], labels=["a'1-b'1", "a'2-b'2", "a'3-b'3"])
    all_edges = list(sq.values())
    out[PropertyId.CENTRAL_REGULAR] = _zero_verdict(
        [x - all_edges[0] for x in all_edges[1:]])
    t_orth = pairs[0][0] + pairs[0][1]
    out[PropertyId.CENTRAL_ORTHOCENTRIC] = _zero_verdict(
        [a + b - t_orth for a, b in pairs[1:]])
    t_iso = pairs[0][0] * pairs[0][1]
    out[PropertyId.CENTRAL_ISODYNAMIC] = _zero_verdict(
        [a * b - t_iso for a, b in pairs[1:]])
    if PropertyId.CENTRAL_CIRCUMSCRIPTIBLE in wanted:
        out[PropertyId.CENTRAL_CIRCUMSCRIPTIBLE] = _circumscriptible_verdict(pairs)
    if PropertyId.SIMILAR_TO_REFERENCE in wanted:
        out[PropertyId.SIMILAR_TO_REFERENCE] = _similarity_verdict(e, m, sq)
    return out


def _circumscriptible_verdict(pairs) -> Verdict:
    if not all(S.is_exact(x) for pair in pairs for x in pair):
        return Verdict(UNDECIDED, note="interval central edges; radical comparison needs exact values")
    for k in (1, 2):
        cmp = S.compare_radical_sums(pairs[0][0], pairs[0][1], pairs[k][0], pairs[k][1])
        if cmp != 0:
            return Verdict(FAILS, witness={
                "residual_label": f"edge-length sums differ (pair 1 vs {k+1})",
                "residual": cmp})
    return Verdict(HOLDS_EXACT)


def _similarity_verdict(e: EdgeLengths, m: G.EdgeMetric, sq: dict) -> Verdict:
    ref = {}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            d = e.edge_between(i, j)
            ref[(i, j)] = d * d
    keys = list(sq.keys())
    k0 = keys[0]
    residuals = [sq[k] * ref[k0] - sq[k0] * ref[k] for k in keys[1:]]
    verdict = _zero_verdict(residuals)
    if verdict.holds:
        verdict.payload["ratio_squared"] = S.div(sq[k0], ref[k0])
    return verdict


def check_faces_parallel(e: EdgeLengths, points) -> Verdict:
    """Each central face against the corresponding reference face."""
    residuals = []
    labels = []
    for i in range(1, 5):
        others = [points[j - 1] for j in range(1, 5) if j != i]
        try:
            plane = G.plane_through_3(*others)
        except TetraScreenError as exc:
            return Verdict(SKIPPED, note=f"central face {i} is degenerate: {exc}")
        t = plane.tuple()
        u = (t[0] - t[3], t[1] - t[3], t[2] - t[3])
        ref = [Q(0)] * 4
        ref[i - 1] = Q(1)
        v = (ref[0] - ref[3], ref[1] - ref[3], ref[2] - ref[3])
        residuals.extend(_cross_residuals(u, v))
        labels.extend([f"face {i}"] * 3)
    return _zero_verdict(residuals, labels=labels)


def check_equal_cevians(e: EdgeLengths, points) -> Verdict:
    m = e.metric()
    lengths = [G.squared_distance(G.VERTICES[i], points[i], m) for i in range(4)]
    verdict = _zero_verdict([x - lengths[0] for x in lengths[1:]],
                            labels=["cevian 2 vs 1", "cevian 3 vs 1", "cevian 4 vs 1"])
    if verdict.holds:
        verdict.payload["squared_length"] = lengths[0]
    return verdict


# ---------------------------------------------------------------------
# space-center relations (properties 14-16)


_ALL_KINDS = (SpaceCenterKind.CENTROID, SpaceCenterKind.CIRCUMCENTER,
              SpaceCenterKind.INCENTER, SpaceCenterKind.MONGE, SpaceCenterKind.EULER)


def check_space_center_relations(e: EdgeLengths, points,
                                 mode: EvalMode = EvalMode.interval(128)) -> dict:
    """Properties 14 (shared space center), 15 (central center on the
    reference Euler line), 16 (reference center on the central Euler
    line).  Rational-path centers are compared exactly; the incenter runs
    on intervals and can only confirm numerically."""
    ref = {k: space_center(e, k, mode) for k in _ALL_KINDS}
    central = {k: space_center_of_points(points, e.metric(), k, mode) for k in _ALL_KINDS}

    coincidences = []
    best = None
    for ck, cp in central.items():
        for rk, rp in ref.items():
            v = points_coincide_verdict(cp, rp)
            if v.holds:
                coincidences.append({"central": ck.value, "reference": rk.value,
                                     "status": v.status})
                if best is None or (v.status == HOLDS_EXACT and best != HOLDS_EXACT):
                    best = v.status
    shared = Verdict(best if best else FAILS,
                     witness={} if best else {"residual_label": "no coinciding pair"},
                     payload={"pairs": coincidences})

    out = {PropertyId.SHARED_SPACE_CENTER: shared}
    out[PropertyId.CENTRAL_CENTER_ON_REF_EULER] = _euler_membership(
        ref[SpaceCenterKind.CIRCUMCENTER], ref[SpaceCenterKind.CENTROID], central,
        "reference Euler line")
    out[PropertyId.REF_CENTER_ON_CENTRAL_EULER] = _euler_membership(
        central[SpaceCenterKind.CIRCUMCENTER], central[SpaceCenterKind.CENTROID], ref,
        "central Euler line")
    return out


def _euler_membership(o, g, candidates: dict, line_name: str) -> Verdict:
    try:
        if o.proj_eq(g):
            return Verdict(SKIPPED, note=f"{line_name} undefined (G = O); property vacuous")
    except TetraScreenError:
        return Verdict(UNDECIDED, note=f"{line_name} could not be certified distinct")
    hits = []
    best = None
    for k, p in candidates.items():
        try:
            param = euler_param_of_points(o, g, p)
        except EulerLineDegenerate:
            continue
        if param is not None:
            hits.append({"center": k.value, "t": param.t,
                         "status": HOLDS_EXACT if param.exact else HOLDS_NUMERIC})
            if best is None or (param.exact and best != HOLDS_EXACT):
                best = HOLDS_EXACT if param.exact else HOLDS_NUMERIC
    if not hits:
        return Verdict(FAILS, witness={"residual_label": f"no center on the {line_name}"})
    return Verdict(best, payload={"members": hits})


# ---------------------------------------------------------------------
# one-call dispatcher


_SPACE_PROPERTIES = frozenset({
    PropertyId.SHARED_SPACE_CENTER, PropertyId.CENTRAL_CENTER_ON_REF_EULER,
    PropertyId.REF_CENTER_ON_CENTRAL_EULER})


class GroupMemo:
    """Work shared by the properties of one set of face points at one
    evaluation mode.

    `get(key, build)` runs `build()` on the first call for `key`; later
    calls return its result, or re-raise the TetraScreenError it raised,
    so every property that needs the work sees the same outcome.  Any
    other exception propagates and is not kept.  `central` is the set of
    properties 7-12 that `classify_central` is asked for.
    """

    def __init__(self, central):
        self.central = central
        self._built = {}

    def get(self, key, build):
        if key not in self._built:
            try:
                self._built[key] = build()
            except TetraScreenError as exc:
                self._built[key] = exc
        out = self._built[key]
        if isinstance(out, TetraScreenError):
            raise out
        return out


def check_property(e: EdgeLengths, points, prop: PropertyId,
                   mode: EvalMode = EXACT, memo: GroupMemo | None = None) -> Verdict:
    """Evaluate one property for precomputed face points.  `memo` shares
    the central-shape (7-12) and space-relation (14-16) verdicts between
    the properties of these points; without one, `classify_central` is
    asked for `prop` alone."""
    memo = GroupMemo({prop}) if memo is None else memo
    if prop is PropertyId.CONCUR:
        return check_concurrence(e, points)
    if prop is PropertyId.HYPERBOLIC:
        return check_hyperbolic(e, points)
    if prop is PropertyId.COPLANAR:
        return check_coplanar(e, points)
    if prop is PropertyId.COLLINEAR:
        return check_collinear(e, points)
    if prop is PropertyId.NORMALS_CONCUR:
        return check_normals_concur(e, points)
    if prop is PropertyId.FACES_PARALLEL:
        return check_faces_parallel(e, points)
    if prop in CENTRAL_PROPERTIES:
        try:
            return memo.get("central",
                            lambda: classify_central(e, points, memo.central))[prop]
        except CoplanarPoints as exc:
            return Verdict(SKIPPED, note=str(exc))
    if prop is PropertyId.EQUAL_CEVIANS:
        return check_equal_cevians(e, points)
    if prop in _SPACE_PROPERTIES:
        relation_mode = mode if not mode.exact else EvalMode.interval(128)
        try:
            return memo.get("space", lambda: check_space_center_relations(
                e, points, relation_mode))[prop]
        except CoplanarPoints as exc:
            return Verdict(SKIPPED, note=str(exc))
    raise ValueError(prop)
