import pytest

from tetrascreen import properties as P
from tetrascreen import screen as SC
from tetrascreen._backend import Q
from tetrascreen.errors import UnknownId
from tetrascreen.tetrahedron import TetraFamily


def small_plan(**kw):
    defaults = dict(
        family=TetraFamily.CIRCUMSCRIPTIBLE,
        centers=[SC.CenterSpec("X7"), SC.CenterSpec("X2"), SC.CenterSpec("POW", Q(2))],
        properties=[P.PropertyId.CONCUR, P.PropertyId.COPLANAR, P.PropertyId.HYPERBOLIC],
        count=6,
        seed=17,
    )
    defaults.update(kw)
    return SC.ScreenPlan(**defaults)


class TestPlans:
    def test_unknown_center_rejected(self):
        with pytest.raises(UnknownId):
            small_plan(centers=[SC.CenterSpec("X999")])

    def test_parametric_center_needs_r(self):
        with pytest.raises(UnknownId):
            small_plan(centers=[SC.CenterSpec("POW")])

    def test_count_positive(self):
        with pytest.raises(ValueError):
            small_plan(count=0)


class TestRunScreen:
    def test_expected_matrix(self):
        rep = SC.run_screen(small_plan())
        cells = {(c.center, c.property): c.summary() for c in rep.cells}
        assert cells[("X7", 1)].startswith("confirmed (exact")
        assert cells[("X2", 1)].startswith("confirmed (exact")
        assert cells[("POW:2", 1)].startswith("fails")
        assert cells[("POW:2", 2)].startswith("confirmed (exact")
        assert cells[("X7", 3)].startswith("fails")

    def test_witness_carries_instance(self):
        rep = SC.run_screen(small_plan())
        cell = next(c for c in rep.cells if c.center == "POW:2" and c.property == 1)
        assert cell.witnesses and "instance" in cell.witnesses[0]

    def test_determinism_byte_identical(self):
        a = SC.run_screen(small_plan()).to_json()
        b = SC.run_screen(small_plan()).to_json()
        assert a == b

    def test_different_seed_differs(self):
        a = SC.run_screen(small_plan()).to_json()
        b = SC.run_screen(small_plan(seed=18)).to_json()
        assert a != b

    def test_report_formats(self):
        rep = SC.run_screen(small_plan())
        assert '"cells"' in rep.to_json()
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "center,P1,P2,P3"
        md = rep.to_markdown()
        assert md.startswith("| center |")

    def test_explicit_instances(self):
        from tetrascreen.tetrahedron import generate

        plan = small_plan()
        insts = generate(TetraFamily.CIRCUMSCRIPTIBLE, 17, 6)
        rep = SC.run_screen_on_instances(plan, insts)
        assert rep.to_json() == SC.run_screen(plan).to_json()


class TestPowerDetection:
    def test_known_powers(self, catalog):
        assert SC._power_exponent(catalog["X1"], None) == 0
        assert SC._power_exponent(catalog["X2"], None) == -1
        assert SC._power_exponent(catalog["X6"], None) == 1
        assert SC._power_exponent(catalog["X76"], None) == -3
        assert SC._power_exponent(catalog["POW"], Q(2)) == 2
        assert SC._power_exponent(catalog["Z8"], Q(0)) == 0

    def test_non_powers(self, catalog):
        for cid in ("X7", "X3", "Y9", "X37"):
            assert SC._power_exponent(catalog[cid], None) is None
        assert SC._power_exponent(catalog["Z3"], Q(2)) is None


class TestHunts:
    def test_centroid_uniqueness_small_budget(self):
        res = SC.hunt_counterexample("centroid-uniqueness", budget=5, seed=23)
        assert res["claim_supported"] is True
        assert res["survivors"] == []
        assert "X2" in res["excluded"]
        assert all(w["instances_tried"] <= 5 for w in res["refuted"])

    def test_power_uniqueness_small_budget(self):
        res = SC.hunt_counterexample("power-uniqueness", budget=5, seed=23)
        assert res["claim_supported"] is True
        assert res["survivors"] == []
        assert "POW:2" in res["excluded"] and "X6" in res["excluded"]

    def test_planarity_impossibility(self):
        res = SC.hunt_counterexample("planarity-impossibility", budget=20, seed=23)
        assert res["claim_supported"] is True

    def test_conjecture_search_exhausts(self):
        res = SC.hunt_counterexample("conjecture-equal-cevians-isosceles",
                                     budget=40, seed=23)
        assert res["claim_supported"] == "exhausted"
        assert res["counterexample"] is None

    def test_unknown_claim(self):
        with pytest.raises(UnknownId):
            SC.hunt_counterexample("no-such-claim")

    @pytest.mark.parametrize("claim", ["centroid-uniqueness", "conjecture-central-isosceles"])
    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_refused(self, claim, budget):
        with pytest.raises(ValueError, match="budget"):
            SC.hunt_counterexample(claim, budget=budget, seed=0)

    @pytest.mark.parametrize("claim", ["centroid-uniqueness", "conjecture-central-isosceles"])
    def test_empty_catalog_is_refused(self, claim):
        from tetrascreen.catalog import Catalog

        with pytest.raises(ValueError, match="no rational-only center"):
            SC.hunt_counterexample(claim, budget=3, seed=0, catalog=Catalog())

    def test_similarity_hunt_without_a_candidate_is_refused(self):
        from tetrascreen.catalog import Catalog, CatalogEntry

        only_centroid = Catalog([CatalogEntry.from_text("G2", "G2", "trilinear", "1/a", False)])
        with pytest.raises(ValueError, match="no center of the catalog can be tried"):
            SC.hunt_counterexample("conjecture-similar-centroid", budget=1, seed=0,
                                   catalog=only_centroid)

    @pytest.mark.parametrize("claim, text", [
        ("centroid-uniqueness", "1/a"),      # the centroid itself: excluded
        ("planarity-impossibility", "b+c-2*a"),  # areal sum 0: never finite
    ])
    def test_uniqueness_hunt_that_tries_no_center_is_refused(self, claim, text):
        from tetrascreen.catalog import Catalog, CatalogEntry

        kind = "trilinear" if text == "1/a" else "areal"
        catalog = Catalog([CatalogEntry.from_text("G2", "G2", kind, text, False)])
        with pytest.raises(ValueError, match="excluded or degenerate"):
            SC.hunt_counterexample(claim, budget=5, seed=0, catalog=catalog)
