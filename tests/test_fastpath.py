"""Differential tests of the integer fast paths against the Fraction code
they replace: compiled center programs against the tree walk, the cached
integer form of a point against the normalize-then-subtract formulas, and
the division-free line, plane and Cayley-Menger kernel against the
Fraction constructions kept in `tests/oracles.py`."""

import hashlib
import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tetrascreen import centerexpr as CE
from tetrascreen import geometry as G
from tetrascreen import properties as P
from tetrascreen import scalar as S
from tetrascreen import triangle as T
from tetrascreen._backend import Q
from tetrascreen.catalog import builtin_catalog
from tetrascreen.cli import main
from tetrascreen.errors import (
    InvalidTetrahedron,
    LineParallelToPlane,
    ParallelDirections,
    PointAtInfinity,
    TetraScreenError,
)
from tetrascreen.tetrahedron import TetraFamily, generate
from tests import oracles

R_VALUES = (-2, -1, 0, 1, 2, 3)

# Y2 = a/((b-a)(c-a)) divides by zero when a = b; CEV2:-1 raises a zero
# base to a negative power on a right triangle; X44^T divides by zero
# where b + c = 2a; Z4:-1 is (b+c-2a) in areal form, whose coordinates sum
# to 0 on every triangle and all vanish on an equilateral one
HAND_PICKED = (T.TriangleSides(3, 3, 5), T.TriangleSides(5, 3, 4),
               T.TriangleSides(4, 3, 5), T.TriangleSides(2, 2, 2),
               T.TriangleSides(Q(7, 2), Q(5, 3), Q(11, 4)))


def _faces():
    faces = list(HAND_PICKED)
    for family in TetraFamily:
        inst = generate(family, 5, 1)[0]
        faces.extend(inst.face_sides(i) for i in (1, 2, 3, 4))
    return faces


def _outcome(evaluate):
    try:
        return evaluate()
    except TetraScreenError as exc:
        return type(exc).__name__, str(exc)


def _specs():
    catalog = builtin_catalog()
    for entry in catalog:
        for cid in (entry.id, f"{entry.id}^T", f"{entry.id}^-1"):
            for r in (R_VALUES if entry.takes_r else (None,)):
                yield catalog[cid], r


def test_compiled_centers_match_the_tree_walk(monkeypatch):
    faces = _faces()
    compiled = {}
    for entry, r in _specs():
        assert CE.rational_program(entry.expr, r) is not None, entry.id
        for k, sides in enumerate(faces):
            compiled[entry.id, r, k] = _outcome(lambda: T.eval_center_raw(entry.expr, sides, r))
    monkeypatch.setattr(T, "rational_program", lambda expr, r: None)
    singular = set()
    for entry, r in _specs():
        for k, sides in enumerate(faces):
            walked = _outcome(lambda: T.eval_center_raw(entry.expr, sides, r))
            got = compiled[entry.id, r, k]
            assert got == walked, (entry.id, r, sides)
            if isinstance(got[0], str):
                singular.add(got)
            else:
                assert all(type(x) is Q for x in got)
    # the hand-picked triangles reach every error the programs can raise
    assert {("EvaluationSingular", "zero denominator: rational division by zero"),
            ("EvaluationSingular", "negative power of zero"),
            ("EvaluationSingular", "all three coordinates vanish on this triangle")} <= singular


def test_hand_picked_singular_cells():
    catalog = builtin_catalog()
    with pytest.raises(TetraScreenError, match="zero denominator"):
        T.eval_center_raw(catalog["Y2"].expr, T.TriangleSides(3, 3, 5))
    with pytest.raises(TetraScreenError, match="negative power of zero"):
        T.eval_center_raw(catalog["CEV2"].expr, T.TriangleSides(5, 3, 4), r=-1)
    x, y, z = catalog["Z4"].areal_on(T.TriangleSides(Q(7, 2), Q(5, 3), Q(11, 4)), r=-1).tuple()
    assert x + y + z == 0 and (x, y, z) != (0, 0, 0)


def test_programs_are_cached_per_tree_and_r():
    expr = CE.parse_text("a^r*(b+c)")
    first = CE.rational_program(expr, 2)
    assert CE.rational_program(expr, Q(2)) is first
    assert CE.rational_program(expr, 3) is not first
    catalog = builtin_catalog()
    assert catalog["X3^T"] is catalog["X3^T"]


def test_tree_walk_keeps_k_entries_and_fractional_r():
    cev1 = builtin_catalog()["CEV1"].expr
    assert CE.compile_rational(CE.parse_text("K*(b+c-a)/a")) is None
    assert CE.compile_rational(cev1, Q(1, 2)) is None
    assert CE.compile_rational(CE.parse_text("a^r")) is None  # r used but not given
    sides = T.TriangleSides(3, 4, 5)
    assert T.eval_center_raw(CE.parse_text("K*(b+c-a)/a"), sides) == \
        T.eval_center_raw(CE.parse_text("(b+c-a)/a"), sides)
    # b+c-a, c+a-b, a+b-c are the squares 4, 9, 1 here, and 6, 4, 2 there
    assert T.eval_center_raw(cev1, T.TriangleSides(5, Q(5, 2), Q(13, 2)), r=Q(1, 2)) == (2, 3, 1)
    with pytest.raises(TetraScreenError, match="irrational"):
        T.eval_center_raw(cev1, sides, r=Q(1, 2))


# screens through the tree walk (a K entry, fractional r) and the compiled
# X7; digest recorded before the integer fast paths existed, then re-pinned
# when CEV1:1/2 moved from exact mode (an error in all 13 cells) to
# intervals, a change a structural diff showed confined to those cells
_FALLBACK_DIGESTS = {
    "": "7821c5bf7d912fbe0f006af2f2a2327385bd9c71b94b440fb9c150642000183c",
}


@pytest.mark.parametrize("policy", sorted(_FALLBACK_DIGESTS))
def test_fallback_screens_are_unchanged(tmp_path, capsys, policy):
    cat = tmp_path / "extra.txt"
    cat.write_text("KX | trilinear | K*(b+c-a)/a | no\nKM | areal | a^2+K | no\n")
    out = tmp_path / "r.json"
    args = ["screen", "--family", "circumscriptible", "--centers", "X7,CEV1:1/2,KX,KM",
            "--properties", ",".join(str(p) for p in range(1, 14)), "-n", "2",
            "--seed", "3", "--catalog", str(cat), "--out", str(out)]
    assert main(args + ([policy] if policy else [])) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _FALLBACK_DIGESTS[policy]
    cells = {(c["center"], c["property"]): c for c in json.loads(out.read_text())["cells"]}
    assert cells["KX", 1]["summary"].startswith("confirmed (exact")
    # a rational-only center at a fractional r runs on intervals: no cell
    # errors with "1/2 power is irrational here"
    cev1 = {p: cells["CEV1:1/2", p] for p in range(1, 14)}
    assert all(not c["errors"] and "error" not in c["tally"] for c in cev1.values())
    assert {p for p, c in cev1.items() if c["summary"].startswith("fails")} == \
        {3, 4, 5, 6, 7, 8, 9, 11, 12, 13}
    assert {p for p, c in cev1.items() if c["summary"] == "undecided"} == {1, 2, 10}


# --- integer form of points --------------------------------------------

rationals = st.builds(Q, st.integers(-60, 60), st.integers(1, 30))
points = st.tuples(rationals, rationals, rationals, rationals).filter(
    lambda c: any(c)).map(lambda c: G.TetraPoint(*c))
metrics = st.tuples(*[st.builds(Q, st.integers(1, 90), st.integers(1, 20))] * 6).map(
    lambda sq: G.EdgeMetric(*sq))


def _normalized_reference(p):
    s = p.x + p.y + p.z + p.w
    return tuple(c / s for c in p.tuple())


def _distance_reference(p, q, m):
    u, v = _normalized_reference(p), _normalized_reference(q)
    d = [u[i] - v[i] for i in range(4)]
    return -sum(m.sq(i + 1, j + 1) * d[i] * d[j] for i in range(4) for j in range(i + 1, 4))


@given(points)
def test_normalized_matches_the_fraction_formula(p):
    if p.x + p.y + p.z + p.w == 0:
        with pytest.raises(PointAtInfinity, match="^coordinate sum is zero$"):
            p.normalized()
        return
    n = p.normalized()
    assert n.tuple() == _normalized_reference(p)
    assert p.normalized() is n
    assert n.normalized() is n


@given(points, points, metrics)
def test_squared_distance_matches_the_fraction_formula(p, q, m):
    if 0 in (p.x + p.y + p.z + p.w, q.x + q.y + q.z + q.w):
        with pytest.raises(PointAtInfinity, match="^coordinate sum is zero$"):
            G.squared_distance(p, q, m)
        return
    got = G.squared_distance(p, q, m)
    assert type(got) is Q and got == _distance_reference(p, q, m)


def test_zero_sum_point_is_at_infinity():
    p = G.TetraPoint(Q(1), Q(-1), Q(2, 3), Q(-2, 3))
    m = G.EdgeMetric(1, 1, 1, 1, 1, 1)
    for call in (p.normalized, lambda: G.squared_distance(p, G.VERTICES[0], m),
                 lambda: G.squared_distance(G.VERTICES[0], p, m)):
        with pytest.raises(PointAtInfinity, match="^coordinate sum is zero$"):
            call()


def test_interval_points_keep_the_scalar_path():
    p = G.TetraPoint(S.Interval(Q(1), Q(2)), Q(1), Q(1), Q(1))
    assert p.int_form is None
    m = G.EdgeMetric(1, 1, 1, 1, 1, 1)
    d = G.squared_distance(p, G.VERTICES[0], m)
    assert isinstance(d, S.Interval)
    assert d.contains(G.squared_distance(G.TetraPoint(Q(3, 2), Q(1), Q(1), Q(1)),
                                         G.VERTICES[0], m))


def test_sides_enter_programs_over_their_common_denominator():
    sides = T.TriangleSides(Q(3, 4), Q(5, 6), 1)
    assert sides.int_form == (9, 10, 12, 12)
    with pytest.raises(TetraScreenError, match=r"triangle inequality fails for \(1/2, 1/3, 1/6\)"):
        T.TriangleSides(Q(1, 2), Q(1, 3), Q(1, 6))


# --- the division-free line, plane and metric kernel -----------------------

DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None)

directions = st.tuples(rationals, rationals, rationals).filter(any).map(
    lambda c: G.TetraDirection(c[0], c[1], c[2], -(c[0] + c[1] + c[2])))
lines = st.builds(G.TetraLine, points.filter(lambda p: p.coord_sum() != 0).map(
    lambda p: p.normalized()), directions)


@DIFFERENTIAL
@given(metrics)
@example(G.EdgeMetric(1, 1, 1, 1, 1, 1))
@example(G.EdgeMetric(9, 16, 25, 9, 16, 25))   # flat: 0
@example(G.EdgeMetric(1, 1, 1, 1, 1, 9))       # a face violates the triangle inequality
def test_cayley_menger_matches_the_cofactor_expansion(m):
    got = m.cayley_menger()
    assert type(got) is Q and got == oracles.cayley_menger_cofactors(m)


@DIFFERENTIAL
@given(lines, lines, lines)
def test_hyperboloid_center_matches_the_fraction_construction(l1, l2, l3):
    got = _outcome(lambda: P.hyperboloid_center([l1, l2, l3]))
    assert got == _outcome(lambda: oracles.hyperboloid_center_fractions([l1, l2, l3]))
    if isinstance(got, G.TetraPoint):
        assert got.coord_sum() == 1


@DIFFERENTIAL
@given(lines, lines, lines, rationals.filter(bool), rationals.filter(bool))
def test_hyperboloid_center_raises_as_before_on_degenerate_triples(l1, l2, l3, lam, mu):
    d1, d2, d3 = l1.direction.tuple(), l2.direction.tuple(), l3.direction.tuple()
    assume(any(G.cofactors_of_rows([d1, d2, d3])))  # independent directions
    combo = tuple(lam * a + mu * b for a, b in zip(d1, d2))
    cases = [
        # L2 parallel to L1
        (ParallelDirections, "^the direction is parallel to the line$",
         [l1, G.TetraLine(l2.base, G.TetraDirection(*(lam * a for a in d1))), l3]),
        # L3 parallel to the plane through L1 parallel to L2
        (LineParallelToPlane, "^the line is parallel to \\(or inside\\) the plane$",
         [l1, l2, G.TetraLine(l3.base, G.TetraDirection(*combo))]),
        # a base at infinity in the span of the directions: no plane
        (InvalidTetrahedron, "^zero plane$",
         [G.TetraLine(G.TetraPoint(*combo), l1.direction), l2, l3]),
        # a base at infinity off that span: the plane at infinity
        (InvalidTetrahedron, "^all coefficients equal",
         [G.TetraLine(G.TetraPoint(*d3), l1.direction), l2, l3]),
    ]
    for error, message, triple in cases:
        with pytest.raises(error, match=message):
            P.hyperboloid_center(triple)
        assert _outcome(lambda: P.hyperboloid_center(triple)) == \
            _outcome(lambda: oracles.hyperboloid_center_fractions(triple))


@DIFFERENTIAL
@given(metrics)
def test_face_normals_match_the_fraction_null_vector(m):
    for i in (1, 2, 3, 4):
        got = _outcome(lambda: P.face_normal_direction(m, i))
        ref = _outcome(lambda: oracles.face_normal_fractions(m, i))
        # equal, not only proportional: printed interval residuals of
        # property 5 depend on the direction's scale
        assert got == ref
        if isinstance(got, tuple):
            continue
        assert got.proj_eq(ref)
        face = [v for k, v in enumerate(G.VERTICES, start=1) if k != i]
        for a in range(3):
            for b in range(a + 1, 3):
                edge = G.line_through(face[a], face[b]).direction
                assert m.perp_form(got, edge) == 0
