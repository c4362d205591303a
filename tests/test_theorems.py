from collections import Counter

import pytest

from tetrascreen import geometry as G
from tetrascreen import properties as P
from tetrascreen import theorems as TH
from tetrascreen.catalog import Catalog
from tetrascreen.errors import EvaluationSingular
from tetrascreen.tetrahedron import TetraFamily, face_points, generate


def test_registry_has_71_distinct_cases():
    assert len(TH._CASES) == len(TH.registry()) == 71


def test_run_rejects_counts_below_one():
    with pytest.raises(ValueError):
        TH.get_case("T5.1b").run(n=0)
    with pytest.raises(ValueError):
        TH.get_case("T13.1").run(n=-3)


def test_closure_that_confirms_nothing_fails(monkeypatch):
    monkeypatch.setattr(P, "check_concurrence", lambda e, points: P.Verdict(P.FAILS))
    res = TH.get_case("CL-power").run(n=3, seed=1)
    assert res.status != TH.PASS
    assert res.details["instances_confirmed"] == 0


def test_catalog_case_that_checks_nothing_fails(monkeypatch):
    def singular(*args, **kwargs):
        raise EvaluationSingular(face=1)

    monkeypatch.setattr(TH, "face_points", singular)
    res = TH.get_case("T6a").run(n=1, seed=1)
    assert res.status == TH.FAIL
    assert res.details["cells_checked"] == 0


def test_empty_catalog_is_not_swapped_for_the_builtin_one():
    report = TH.verify_cases(["T6a"], n=1, catalog=Catalog())
    (case,) = report["cases"]
    assert case["status"] == TH.FAIL
    assert case["details"]["cells_checked"] == 0
    assert TH.get_case("T6a").run(n=1, catalog=Catalog()).details["cells_checked"] == 0


def test_one_verify_run_generates_each_family_once(monkeypatch):
    calls = Counter()
    original = TH.generate

    def counting(family, seed, count, *args, **kwargs):
        calls[family.value] += 1
        return original(family, seed, count, *args, **kwargs)

    monkeypatch.setattr(TH, "generate", counting)
    ids = ["CL-arfq", "CL-power", "T7a", "T7c", "T9.2a"]
    report = TH.verify_cases(ids, n=4, seed=3)
    assert set(calls.values()) == {1}
    assert set(calls) == {"general", "circumscriptible", "isodynamic", "orthocentric"}
    # sharing the instance lists changes no result
    for entry in report["cases"]:
        alone = TH.get_case(entry["id"]).run(n=4, seed=3)
        assert (alone.status, alone.details, alone.notes) == (
            entry["status"], entry["details"], entry["notes"])


def _counting(monkeypatch, module, name, replacement=None):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return (replacement or real)(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_ruled_cases_build_no_hyperboloid_center(monkeypatch):
    centers = _counting(monkeypatch, P, "hyperboloid_center")
    for cid in ("T6d", "T7.2a"):
        assert TH.get_case(cid).run(n=2, seed=1).status == TH.PASS
    assert centers == []


def test_t53_builds_centers_and_checks_their_line_order(monkeypatch):
    centers = _counting(monkeypatch, P, "hyperboloid_center")
    assert TH.get_case("T5.3").run(n=1, seed=1).status == TH.PASS
    # per exact hyperbolic r: the payload center, then six line orders
    assert centers and len(centers) % 7 == 0
    real = P.hyperboloid_center
    monkeypatch.undo()
    seen = []

    def order_dependent(lines):
        seen.append(lines)
        return real(lines) if len(seen) == 1 else G.VERTICES[0]

    monkeypatch.setattr(P, "hyperboloid_center", order_dependent)
    res = TH.get_case("T5.3").run(n=1, seed=1)
    assert res.status == TH.FAIL and "not permutation-invariant" in str(res.details)


def test_the_center_changes_no_other_part_of_the_hyperbolic_verdict(catalog):
    seen = Counter()
    for family, ids in ((TetraFamily.ISOSCELES, ("X2", "X3", "X7", "X11")),
                        (TetraFamily.GENERAL, ("X2", "X7", "X9"))):
        for inst in generate(family, 5, 3):
            for cid in ids:
                pts = face_points(inst, catalog[cid])
                with_center = P.check_hyperbolic(inst, pts)
                without = P.check_hyperbolic(inst, pts, with_center=False)
                assert (without.status, without.witness) == (with_center.status,
                                                              with_center.witness)
                assert without.payload == {k: v for k, v in with_center.payload.items()
                                           if k != "center"}
                assert "center" not in without.payload
                seen[with_center.status, "center" in with_center.payload] += 1
    assert {(P.HOLDS_EXACT, True), (P.FAILS, False), (P.SKIPPED, False)} <= set(seen)
