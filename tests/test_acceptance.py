"""Acceptance suite: one check per criterion, each printing a PASS/FAIL
line.  Criteria that re-derive the screened identities run the registered
cases at their stated instance counts (seed 7).

Criterion 7 contains one sub-claim (X76 circumcenter) that does not
reproduce under exact arithmetic; it is asserted as stated and marked as
an expected failure rather than weakened — see the registry notes.
"""

import hashlib
import json
import random

import pytest

from tetrascreen import geometry as G
from tetrascreen import properties as P
from tetrascreen import scalar as S
from tetrascreen import screen as SC
from tetrascreen import tetrahedron as M
from tetrascreen import theorems as TH
from tetrascreen._backend import Q
from tetrascreen.errors import TetraScreenError
from tests.oracles import cartesian_of, embed_tetra, sq_dist_cartesian

SEED = 7
REGISTRY_SHA256 = "cbeaa65bab6cfc050217cff0a3fb3f152cc818ec7b062b8f3312dc2139da4ce8"


@pytest.fixture(scope="module")
def registry_report():
    return TH.verify_cases("all", seed=SEED)


@pytest.fixture(scope="module")
def case_status(registry_report):
    return {c["id"]: c for c in registry_report["cases"]}


def _require(case_status, ids, criterion, extra=""):
    bad = [i for i in ids if case_status[i]["status"] != "pass"]
    line = f"ACCEPTANCE {criterion}: "
    if bad:
        print(line + f"FAIL ({', '.join(bad)})")
        for b in bad:
            print("   ", case_status[b]["details"])
    else:
        print(line + f"PASS ({len(ids)} cases{extra})")
    assert not bad, f"criterion {criterion}: failing cases {bad}"


def test_criterion_01_general_centroid_suite(case_status):
    """General tetrahedra: the nine face-centroid claims, exact, n=100."""
    _require(case_status, [f"T5.1{ch}" for ch in "abcdefghi"], "1")
    assert all(case_status[f"T5.1{ch}"]["mode"] == "exact" for ch in "abcdefghi")


def test_criterion_02_circumcenter_normals(case_status):
    _require(case_status, ["T5.2"], "2")


def test_criterion_03_power_point_ruled_surfaces(case_status):
    _require(case_status, ["T5.3"], "3", extra=", r in {-2..3}, center permutation-invariant")


def test_criterion_04_shared_centroid_family(case_status):
    _require(case_status, ["T5.4"], "4", extra=", weighted reading per registry note")


def test_criterion_05_isosceles_full_catalog(case_status):
    _require(case_status, ["T6a", "T6b", "T6c", "T6d"], "5")
    checked = case_status["T6a"]["details"]["cells_checked"]
    assert checked >= 20 * 50, "full rational-only catalog must be exercised"


def test_criterion_06_circumscriptible_suite(case_status):
    ids = ["T7a", "T7b", "T7c", "T7d", "T7e",
           "T7.2a", "T7.2b", "T7.2c", "T7.2d", "T7.2e"]
    _require(case_status, ids, "6")
    assert all(case_status[i]["mode"] == "exact" for i in ids)


def test_criterion_07_isodynamic_suite(case_status):
    ids = ["T8.1a", "T8.1b", "T8.1c", "T8.1d",
           "T8.2a", "T8.2b", "T8.2c", "T8.2d", "T8.2e"]
    _require(case_status, ids, "7")
    skipped = [f"T8.2{ch}" for ch in "fghijk"]
    assert all(case_status[i]["status"] == "skip" for i in skipped)
    print("ACCEPTANCE 7 note: X106-X111 cases SKIPPED (formulas not curated; "
          "see registry notes)")


@pytest.mark.xfail(reason="claim does not reproduce under exact arithmetic; "
                   "kept red deliberately (see decisions ledger)", strict=True)
def test_criterion_07_x76_circumcenter_as_stated(catalog):
    """The X76 sub-claim asserted exactly as stated."""
    print("ACCEPTANCE 7 (X76 sub-claim): FAIL — does not reproduce; see ledger")
    for inst in M.generate(M.TetraFamily.ISODYNAMIC, SEED, 100):
        oc = M.space_center_of_points(M.face_points(inst, catalog["X76"]),
                                      inst.metric(), M.SpaceCenterKind.CIRCUMCENTER)
        assert oc.proj_eq(G.TetraPoint(Q(1), Q(1), Q(1), Q(1)))


def test_criterion_08_orthocentric_suite(case_status):
    ids = (["T9.1a", "T9.1b", "T9.1c", "T9.1d", "T9.1e", "T9.1f", "T9.1g"]
           + [f"T9.2{ch}" for ch in "abcde"] + [f"T9.3{ch}" for ch in "abcd"])
    _require(case_status, ids, "8")


def test_criterion_09_structural_closures(case_status):
    ids = ["CL-isotomic", "CL-power", "CL-arfq", "CL-isogonal", "CL-converse-family"]
    _require(case_status, ids, "9")


def test_criterion_10_feuerbach_condition_and_impossibility(case_status):
    _require(case_status, ["T12.1", "T12.2"], "10")
    assert case_status["T12.2"]["details"]["survivors"] == []


def test_criterion_11_tabov_biconditional(case_status):
    _require(case_status, ["T13.1"], "11")
    assert case_status["T13.1"]["details"]["pairs_checked"] == 200


def test_criterion_12_uniqueness_falsification():
    res1 = SC.hunt_counterexample("centroid-uniqueness", budget=1000, seed=SEED)
    res2 = SC.hunt_counterexample("power-uniqueness", budget=1000, seed=SEED)
    ok = res1["claim_supported"] and res2["claim_supported"]
    print(f"ACCEPTANCE 12: {'PASS' if ok else 'FAIL'} "
          f"(centroid: {len(res1['refuted'])} refuted, {len(res1['excluded'])} excluded; "
          f"power: {len(res2['refuted'])} refuted, {len(res2['excluded'])} excluded)")
    assert res1["survivors"] == []
    assert res2["survivors"] == []


class TestCriterion13KernelOracles:
    def test_squared_distance_vs_cartesian_1000(self):
        rng = random.Random(SEED)
        instances = M.generate(M.TetraFamily.GENERAL, SEED, 20)
        tol = Q(1, 2 ** 64)
        checked = 0
        for inst in instances:
            met = inst.metric()
            verts = embed_tetra(met, 140)
            for _ in range(50):
                coords = [[Q(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)]
                          for _ in range(2)]
                p = G.TetraPoint(*coords[0])
                q = G.TetraPoint(*coords[1])
                exact = G.squared_distance(p, q, met)
                oracle = sq_dist_cartesian(cartesian_of(p, verts),
                                           cartesian_of(q, verts))
                if isinstance(oracle, S.Interval):
                    assert oracle.contains(exact)
                    assert oracle.width() < tol * (1 + abs(exact))
                else:
                    assert oracle == exact
                checked += 1
        print(f"ACCEPTANCE 13a: PASS (squared distance vs Cartesian embedding, "
              f"{checked} cases, enclosure width < 2^-64)")
        assert checked == 1000

    def test_spear_vs_constructive_500(self):
        rng = random.Random(SEED + 1)
        inst = M.generate(M.TetraFamily.GENERAL, SEED, 1)[0]
        checked = 0
        while checked < 500:
            pts = []
            for i in (1, 2, 3):
                c = [Q(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)]
                c[i - 1] = Q(0)
                pts.append(G.TetraPoint(*c))
            if checked % 3 == 0:
                # force the identity to exercise the holds branch
                _, y1, z1, _ = pts[0].tuple()
                x2, _, z2, _ = pts[1].tuple()
                x3, _, _, w3 = pts[2].tuple()
                y3 = S.div(y1 * z2 * x3, z1 * x2)
                pts[2] = G.TetraPoint(x3, y3, Q(0), w3)
            holds, trace = P.spear_condition(*pts)
            try:
                holds_c, trace_c = P.spear_trace_constructive(inst, *pts)
            except TetraScreenError:
                continue
            assert holds == holds_c
            if holds and trace is not None and trace_c is not None:
                assert trace.proj_eq(trace_c)
            checked += 1
        print("ACCEPTANCE 13b: PASS (spear condition vs constructive path, 500 cases, exact)")

    def test_hyperboloid_center_vs_ruled_surface_oracle(self):
        """Rulings of x^2+y^2-z^2 = 1 in the unit-corner frame: the
        construction must return the quadric's center exactly."""
        def pt(x, y, z):
            return G.TetraPoint(1 - x - y - z, x, y, z)

        def dr(dx, dy, dz):
            return G.TetraDirection(-(dx + dy + dz), dx, dy, dz)

        for shift in (Q(0), Q(1, 3)):
            lines = []
            for mth in (Q(0), Q(1), Q(-1), Q(2), Q(1, 2)):
                den = 1 + mth * mth
                cos, sin = S.div(1 - mth * mth, den), S.div(2 * mth, den)
                lines.append(G.TetraLine(pt(cos + shift, sin + shift, shift).normalized(),
                                         dr(-sin, cos, Q(1))))
            expected = pt(shift, shift, shift)
            got = P.hyperboloid_center(lines[:3])
            assert got.proj_eq(expected)
            for triple in ((0, 1, 2), (2, 4, 1), (3, 0, 4), (4, 2, 0)):
                alt = P.hyperboloid_center([lines[k] for k in triple])
                assert alt.proj_eq(expected)
        print("ACCEPTANCE 13c: PASS (ruled-surface center oracle, exact, "
              "translated copies included)")


def test_criterion_14_determinism(registry_report, tmp_path):
    again = TH.verify_cases("all", seed=SEED)
    a = json.dumps(registry_report, sort_keys=True, indent=2)
    b = json.dumps(again, sort_keys=True, indent=2)
    ok = a == b
    print(f"ACCEPTANCE 14: {'PASS' if ok else 'FAIL'} (verify all, seed {SEED}, "
          "byte-identical reports)")
    assert ok
    # and through the CLI with report files
    from tetrascreen.cli import main

    f1, f2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main(["verify", "all", "-n", "2", "--seed", str(SEED), "--out", str(f1)]) == 0
    assert main(["verify", "all", "-n", "2", "--seed", str(SEED), "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_registry_report_digest(registry_report):
    """The seed-7 report, serialized as `verify --out` writes it, is pinned."""
    text = json.dumps(registry_report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REGISTRY_SHA256


def test_acceptance_summary(registry_report):
    s = registry_report["summary"]
    print(f"ACCEPTANCE registry: {s['pass']} pass, {s['fail']} fail, "
          f"{s['skip']} skip, {s['expected_fail']} expected-fail")
    assert s["fail"] == 0
