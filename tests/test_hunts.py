"""The falsification hunts: their reports at small budgets are pinned, and
an engine error is reported as one, never as a tried pair or a center
that is degenerate on the family."""

import hashlib

import pytest

from tetrascreen import properties as P
from tetrascreen import screen as SC
from tetrascreen.catalog import Catalog, CatalogEntry, builtin_catalog
from tetrascreen.cli import main
from tetrascreen.errors import IrrationalInExactMode
from tetrascreen.tetrahedron import TetraFamily, generate

# sha256 of `hunt CLAIM --budget B --seed 23` output; recorded before the
# hunts were rewritten as stop rules over the screen's cell outcomes
_HUNT_DIGESTS = {
    ("centroid-uniqueness", 5):
        "396b8bcad044555587dfbc739d7c73307c22baa0c23609f88d5282b36df263c4",
    ("power-uniqueness", 5):
        "04858bdaf1bf2aa4a07d5d79f79bfb21e6a53d19968d85c84ded39f7a83eb94c",
    ("planarity-impossibility", 20):
        "f5edd199eedab044fe328dc488aa039b3ac6c47cf7c7f2b61333e95dac77958c",
    ("conjecture-central-isosceles", 40):
        "645dc9e6ef6ad8f7170828da78d9017021c0c707cc8acc75ce71bbfd2385c633",
    ("conjecture-central-regular", 40):
        "645dc9e6ef6ad8f7170828da78d9017021c0c707cc8acc75ce71bbfd2385c633",
    ("conjecture-similar-centroid", 40):
        "645dc9e6ef6ad8f7170828da78d9017021c0c707cc8acc75ce71bbfd2385c633",
    ("conjecture-equal-cevians-isosceles", 40):
        "645dc9e6ef6ad8f7170828da78d9017021c0c707cc8acc75ce71bbfd2385c633",
}


def test_every_claim_is_pinned():
    assert sorted(claim for claim, _ in _HUNT_DIGESTS) == sorted(SC.HUNT_CLAIMS)


@pytest.mark.parametrize("claim, budget", sorted(_HUNT_DIGESTS))
def test_hunt_reports_are_unchanged(tmp_path, claim, budget):
    out = tmp_path / "hunt.json"
    assert main(["hunt", claim, "--budget", str(budget), "--seed", "23",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _HUNT_DIGESTS[claim, budget]


def _breaking(monkeypatch, broken_ids, exc):
    """Make `face_points` raise `exc` for the centers in `broken_ids` (all
    of them when None); return the list of (center id, mode) it was asked for."""
    calls = []
    real = SC.face_points

    def face_points(e, entry, r=None, mode=None):
        calls.append((entry.id, mode))
        if broken_ids is None or entry.id in broken_ids:
            raise exc
        return real(e, entry, r=r, mode=mode)

    monkeypatch.setattr(SC, "face_points", face_points)
    return calls


def test_an_engine_error_is_not_a_degenerate_center(monkeypatch):
    _breaking(monkeypatch, {"X7"}, IrrationalInExactMode("1/2 power is irrational here"))
    res = SC.hunt_counterexample("centroid-uniqueness", budget=5, seed=23)
    assert res["claim_supported"] is False
    assert res["errors"] == {"count": 5, "first": [
        {"center": "X7", "draw": k, "error": "1/2 power is irrational here"}
        for k in range(3)]}
    assert not any(label.startswith("X7") for label in res["excluded"])
    assert "X7" not in res["survivors"]
    assert "X7" not in [w["center"] for w in res["refuted"]]
    # the other centers are hunted as before; Z4:-1 is still degenerate
    assert "Z4:-1 (degenerate on this family)" in res["excluded"]
    assert len(res["refuted"]) == 142


def test_the_errors_of_a_refuted_center_are_dropped(monkeypatch):
    real = SC.face_points
    first = []

    def face_points(e, entry, r=None, mode=None):
        if entry.id == "X7" and not first:
            first.append(1)
            raise IrrationalInExactMode("irrational")
        return real(e, entry, r=r, mode=mode)

    monkeypatch.setattr(SC, "face_points", face_points)
    res = SC.hunt_counterexample("centroid-uniqueness", budget=5, seed=23)
    assert first and res["claim_supported"] is True and "errors" not in res
    x7 = [w for w in res["refuted"] if w["center"] == "X7"]
    assert len(x7) == 1 and x7[0]["instances_tried"] >= 2


def test_a_uniqueness_hunt_whose_every_center_errs_is_reported(monkeypatch):
    _breaking(monkeypatch, None, IrrationalInExactMode("irrational"))
    res = SC.hunt_counterexample("planarity-impossibility", budget=2, seed=0)
    assert res["claim_supported"] is False and not res["refuted"] and not res["survivors"]
    assert res["errors"]["count"] == 2 * (len(SC.default_hunt_specs(builtin_catalog())))


def test_errored_pairs_are_not_tried(monkeypatch):
    calls = _breaking(monkeypatch, {"X7"}, IrrationalInExactMode("irrational"))
    res = SC.hunt_counterexample("conjecture-central-isosceles", budget=40, seed=0)
    assert len(calls) == 40 and [c for c, _ in calls].count("X7") == 1
    assert res["claim_supported"] == "exhausted" and res["tried"] == 39
    assert res["errors"] == {"count": 1, "first": [
        {"center": "X7", "draw": 0, "error": "irrational"}]}


def test_a_conjecture_hunt_whose_every_pair_errs_stops_at_its_budget(monkeypatch):
    calls = _breaking(monkeypatch, None, IrrationalInExactMode("irrational"))
    res = SC.hunt_counterexample("conjecture-central-regular", budget=300, seed=0)
    assert len(calls) == 300
    assert res["tried"] == 0 and res["errors"]["count"] == 300
    assert [e["draw"] for e in res["errors"]["first"]] == [0, 0, 0]


def test_a_singular_pair_is_tried_and_no_error():
    # G7's areal coordinates sum to zero: it never defines a finite point
    g7 = CatalogEntry.from_text("G7", "G7", "areal", "b+c-2*a", False)
    catalog = Catalog([g7, builtin_catalog()["X7"]])
    inst = generate(TetraFamily.GENERAL, 0, 1)[0]
    assert SC.cell_outcome(inst, g7, None, P.PropertyId.CENTRAL_ISOSCELES).status == P.SKIPPED
    res = SC.hunt_counterexample("conjecture-central-isosceles", budget=6, seed=0,
                                 catalog=catalog)
    assert res["tried"] == 6 and "errors" not in res


@pytest.mark.parametrize("claim", ["power-uniqueness", "conjecture-similar-centroid"])
def test_programming_errors_propagate_out_of_a_hunt(monkeypatch, claim):
    _breaking(monkeypatch, None, TypeError("bug in face_points"))
    with pytest.raises(TypeError, match="bug in face_points"):
        SC.hunt_counterexample(claim, budget=3, seed=0)


def test_the_planarity_case_reports_the_hunt_errors(monkeypatch):
    from tetrascreen.theorems import verify_cases

    _breaking(monkeypatch, {"X7"}, IrrationalInExactMode("irrational"))
    catalog = Catalog([builtin_catalog()["X7"]])
    case, = verify_cases(["T12.2"], n=1, seed=0, catalog=catalog)["cases"]
    assert case["status"] == "fail"
    assert case["details"]["errors"]["count"] == 1000
