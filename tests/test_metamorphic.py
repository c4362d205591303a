"""Metamorphic tests of the sixteen properties: relabeling the vertices
(which permutes the edges and the faces) and scaling every edge by a
rational t describe the same tetrahedron up to similarity, so every
verdict status must stay the same and the face points must follow the
relabeling."""

from itertools import permutations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tetrascreen import properties as P
from tetrascreen import screen as SC
from tetrascreen._backend import Q
from tetrascreen.catalog import builtin_catalog
from tetrascreen.errors import TetraScreenError
from tetrascreen.tetrahedron import EdgeLengths, TetraFamily, face_points, generate

FAMILIES = (TetraFamily.GENERAL, TetraFamily.ISOSCELES,
            TetraFamily.CIRCUMSCRIPTIBLE, TetraFamily.ORTHOCENTRIC)
CENTERS = (("X1", None), ("X3", None), ("X4", None), ("X7", None), ("POW", Q(2)))
# the edge order of EdgeLengths: a1 a2 a3 b1 b2 b3
EDGE_PAIRS = ((2, 3), (1, 3), (1, 2), (1, 4), (2, 4), (3, 4))


def relabel(e: EdgeLengths, perm) -> EdgeLengths:
    """The same tetrahedron with vertex v renamed perm[v - 1]."""
    old = {new: v for v, new in enumerate(perm, start=1)}
    return EdgeLengths(*(e.edge_between(old[i], old[j]) for i, j in EDGE_PAIRS))


def statuses(e: EdgeLengths, entry, r) -> list:
    out = []
    for prop in P.PropertyId:
        try:
            out.append(SC.evaluate_cell_on_instance(e, entry, r, prop).status)
        except TetraScreenError as exc:
            out.append(type(exc).__name__)
    return out


def normalized_face_points(e: EdgeLengths, entry, r):
    try:
        return [p.normalized().tuple() for p in face_points(e, entry, r=r)]
    except TetraScreenError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
# no shrinking: each example costs ~0.2 s and is already small
@settings(max_examples=5, deadline=None, derandomize=True, phases=[Phase.generate])
@given(center=st.sampled_from(CENTERS),
       seed=st.integers(0, 10**6),
       perm=st.sampled_from(list(permutations((1, 2, 3, 4)))[1:]),
       t=st.builds(Q, st.integers(2, 40), st.integers(1, 40)))
def test_relabel_and_scale_keep_every_verdict(family, center, seed, perm, t):
    e = generate(family, seed, 1)[0]
    cid, r = center
    entry = builtin_catalog()[cid]
    relabeled = relabel(e, perm)
    scaled = EdgeLengths(*(t * x for x in e.edges()))
    expected = statuses(e, entry, r)
    assert statuses(relabeled, entry, r) == expected
    assert statuses(scaled, entry, r) == expected

    points = normalized_face_points(e, entry, r)
    moved = normalized_face_points(relabeled, entry, r)
    if isinstance(points, str):
        assert moved == points
        return
    # the point on face i (opposite vertex i) lands on face perm[i - 1],
    # with its coordinate for vertex v moved to slot perm[v - 1]
    for i, p in enumerate(points, start=1):
        q = moved[perm[i - 1] - 1]
        assert all(q[perm[v] - 1] == p[v] for v in range(4)), (i, perm)
    assert normalized_face_points(scaled, entry, r) == points
