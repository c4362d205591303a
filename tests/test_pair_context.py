"""The per-pair context: a screen evaluates the face points, the central
shape and the space relations once per (instance, center) pair, and each
of the 16 properties reads the same verdict through it as through a
fresh evaluation of that property alone."""

import pytest

from tetrascreen import properties as P
from tetrascreen import screen as SC
from tetrascreen._backend import Q
from tetrascreen.catalog import Catalog, CatalogEntry, builtin_catalog
from tetrascreen.errors import (
    CoplanarPoints,
    EvaluationSingular,
    IrrationalInExactMode,
    TetraScreenError,
)
from tetrascreen.tetrahedron import TetraFamily, generate
from tetrascreen.triangle import EXACT

ALL = [P.PropertyId(i) for i in range(1, 17)]

# two K entries: they run on intervals, whose precision doubles while a
# comparison stays undecided
K_CATALOG = builtin_catalog().merged_with(Catalog([
    CatalogEntry.from_text("KX", "KX", "trilinear", "K*(b+c-a)/a", False),
    CatalogEntry.from_text("KM", "KM", "areal", "a^2+K", False),
]))


def outcome(call):
    """(status, witness, note) of a verdict, or the class and message of
    the engine error raised instead."""
    try:
        v = call()
    except TetraScreenError as exc:
        return type(exc).__name__, str(exc)
    witness = {k: SC._fmt_scalar(x) if k == "residual" else x for k, x in v.witness.items()}
    return v.status, witness, v.note


def shared_and_fresh(inst, entry, r, order):
    context = SC.PairContext(inst, entry, r, ALL)
    shared = {prop: outcome(lambda: SC.evaluate_cell_on_instance(
        inst, entry, r, prop, context=context)) for prop in order}
    fresh = {prop: outcome(lambda: SC.evaluate_cell_on_instance(inst, entry, r, prop))
             for prop in ALL}
    return shared, fresh


@pytest.mark.parametrize("family, seed, count, center, catalog", [
    (TetraFamily.GENERAL, 1, 2, "X7", None),
    (TetraFamily.GENERAL, 1, 2, "POW:2", None),
    (TetraFamily.CIRCUMSCRIPTIBLE, 3, 2, "KX", K_CATALOG),
    (TetraFamily.CIRCUMSCRIPTIBLE, 3, 2, "KM", K_CATALOG),
    (TetraFamily.ISOSCELES, 3, 2, "KM", K_CATALOG),
    (TetraFamily.CIRCUMSCRIPTIBLE, 3, 2, "CEV1:1/2", None),
    (TetraFamily.ISOSCELES, 33, 1, "Z4:-1", None),
    (TetraFamily.CIRCUMSCRIPTIBLE, 3, 2, "X11", None),
])
@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_shared_context_matches_fresh_evaluation(family, seed, count, center, catalog, order):
    catalog = catalog or builtin_catalog()
    cid, _, rtext = center.partition(":")
    r = Q(*map(int, rtext.split("/"))) if rtext else None
    entry = catalog[cid]
    for inst in generate(family, seed, count):
        shared, fresh = shared_and_fresh(inst, entry, r,
                                         ALL if order == "forward" else ALL[::-1])
        assert shared == fresh


def test_the_differential_cases_reach_each_kept_error():
    catalog = builtin_catalog()
    # a fractional r runs on intervals: CEV1:1/2 reaches verdicts, including
    # the interval escalation to the cap, and no engine error
    cev1 = {outcome(lambda: SC.evaluate_cell_on_instance(inst, catalog["CEV1"], Q(1, 2), p))[0]
            for inst in generate(TetraFamily.CIRCUMSCRIPTIBLE, 3, 2) for p in ALL}
    assert cev1 == {"fails", "undecided"}
    # no screen cell raises IrrationalInExactMode any more (an integer power
    # of rational sides is rational, and K entries run on intervals); exact
    # points at r = 1/2 still raise it, and the context keeps and re-raises it
    inst = generate(TetraFamily.CIRCUMSCRIPTIBLE, 3, 1)[0]
    context = SC.PairContext(inst, catalog["CEV1"], Q(1, 2), ALL)
    for _ in range(2):
        with pytest.raises(IrrationalInExactMode, match="^1/2 power is irrational here$"):
            context.at(EXACT)
    inst = generate(TetraFamily.ISOSCELES, 33, 1)[0]
    context = SC.PairContext(inst, catalog["Z4"], Q(-1), ALL)
    with pytest.raises(EvaluationSingular):
        context.at(EXACT)
    inst = generate(TetraFamily.CIRCUMSCRIPTIBLE, 3, 1)[0]
    context = SC.PairContext(inst, catalog["X11"], None, ALL)
    points, memo = context.at(EXACT)
    with pytest.raises(CoplanarPoints):
        memo.get("central", lambda: P.classify_central(inst, points))
    assert SC.evaluate_cell_on_instance(inst, catalog["X11"], None, P.PropertyId.CENTRAL_REGULAR,
                                        context=context).status == P.SKIPPED


def test_a_fractional_r_escalates_interval_precision(monkeypatch):
    """The circumscriptible CEV1:1/2 case above reaches the
    precision-doubling loop: property 1 needs the face points at every
    bit count up to the cap."""
    bits = []
    real = SC.face_points

    def recording(e, entry, r=None, mode=None):
        bits.append(mode.bits)
        return real(e, entry, r=r, mode=mode)

    monkeypatch.setattr(SC, "face_points", recording)
    inst = generate(TetraFamily.CIRCUMSCRIPTIBLE, 3, 1)[0]
    cev1 = builtin_catalog()["CEV1"]
    v = SC.evaluate_cell_on_instance(inst, cev1, Q(1, 2), P.PropertyId.CONCUR)
    assert v.status == P.UNDECIDED and bits == [128, 256, 512, 1024]
    # a shared context keeps the points of each bit count apart, and
    # builds each of them once
    bits.clear()
    context = SC.PairContext(inst, cev1, Q(1, 2), ALL)
    for prop in (P.PropertyId.CONCUR, P.PropertyId.HYPERBOLIC, P.PropertyId.CONCUR):
        SC.evaluate_cell_on_instance(inst, cev1, Q(1, 2), prop, context=context)
    assert bits == [128, 256, 512, 1024]


def test_an_interval_direction_may_sum_to_an_undecided_zero():
    """Each cevian of a K entry is an interval line whose direction sums to
    an interval around zero; only a provably nonzero sum is refused, so the
    hyperboloid center of KM's spear identity is built on intervals."""
    statuses = [SC.evaluate_cell_on_instance(inst, K_CATALOG["KM"], None,
                                             P.PropertyId.HYPERBOLIC).status
                for inst in generate(TetraFamily.ISOSCELES, 3, 4)]
    assert statuses == [P.HOLDS_NUMERIC] * 4


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_screen_builds_each_shared_part_once_per_pair(monkeypatch):
    fp = _counting(monkeypatch, SC, "face_points")
    central = _counting(monkeypatch, P, "classify_central")
    space = _counting(monkeypatch, P, "check_space_center_relations")
    centers = [SC.CenterSpec("X2"), SC.CenterSpec("X7"), SC.CenterSpec("POW", Q(2))]
    n = 2
    plan = SC.ScreenPlan(family=TetraFamily.GENERAL, centers=centers, properties=ALL,
                         count=n, seed=1)
    report = SC.run_screen(plan)
    assert sum(sum(c.tally.values()) for c in report.cells) == 16 * n * len(centers)
    assert len(fp) == len(central) == len(space) == n * len(centers)


def test_a_screen_asks_classify_central_for_its_central_properties(monkeypatch):
    central = _counting(monkeypatch, P, "classify_central")
    props = [P.PropertyId.CONCUR, P.PropertyId.CENTRAL_REGULAR,
             P.PropertyId.SIMILAR_TO_REFERENCE]
    SC.run_screen(SC.ScreenPlan(family=TetraFamily.GENERAL, centers=[SC.CenterSpec("X7")],
                                properties=props, count=2, seed=1))
    assert [set(args[2]) for args in central] == [set(props[1:])] * 2


def test_a_one_property_hunt_evaluates_each_pair_once(monkeypatch):
    fp = _counting(monkeypatch, SC, "face_points")
    central = _counting(monkeypatch, P, "classify_central")
    result = SC.hunt_counterexample("conjecture-central-isosceles", budget=40, seed=0)
    assert len(fp) == result["tried"] == 40
    assert central and all(set(args[2]) == {P.PropertyId.CENTRAL_ISOSCELES}
                           for args in central)


def test_programming_errors_propagate_and_are_not_kept(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in classify_central")

    monkeypatch.setattr(P, "classify_central", broken)
    plan = SC.ScreenPlan(family=TetraFamily.GENERAL, centers=[SC.CenterSpec("X2")],
                         properties=[P.PropertyId.CENTRAL_ISOSCELES,
                                     P.PropertyId.CENTRAL_REGULAR], count=1, seed=1)
    with pytest.raises(TypeError, match="bug in classify_central"):
        SC.run_screen(plan)

    builds = []

    def build():
        builds.append(1)
        raise TypeError("not an engine error")

    memo = P.GroupMemo(P.CENTRAL_PROPERTIES)
    for _ in range(2):
        with pytest.raises(TypeError):
            memo.get("central", build)
    assert len(builds) == 2


def test_engine_errors_are_kept_and_reraised():
    builds = []

    def build():
        builds.append(1)
        raise CoplanarPoints("central points are coplanar")

    memo = P.GroupMemo(P.CENTRAL_PROPERTIES)
    raised = []
    for _ in range(3):
        with pytest.raises(CoplanarPoints, match="^central points are coplanar$") as exc:
            memo.get("central", build)
        raised.append(exc.value)
    assert len(builds) == 1 and raised[0] is raised[1] is raised[2]


def test_classify_central_computes_only_the_wanted_costly_verdicts(catalog, monkeypatch):
    inst = generate(TetraFamily.GENERAL, 1, 1)[0]
    points = SC.face_points(inst, catalog["X7"])
    full = P.classify_central(inst, points)
    assert set(full) == P.CENTRAL_PROPERTIES
    radical = _counting(monkeypatch, P.S, "compare_radical_sums")
    similarity = _counting(monkeypatch, P, "_similarity_verdict")
    part = P.classify_central(inst, points, {P.PropertyId.CENTRAL_ISOSCELES})
    assert radical == [] and similarity == []
    assert part[P.PropertyId.CENTRAL_ISOSCELES] == full[P.PropertyId.CENTRAL_ISOSCELES]
