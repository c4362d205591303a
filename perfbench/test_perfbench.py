"""Self-tests of the benchmark: each workload at a tiny size through the
same pass, gate and tracer code that run.py uses.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from workloads import WORKLOADS

# workload, tiny CLI arguments, seed, sha256 of the --out file at the
# commit that added the benchmark
TINY = [
    ("screen-matrix",
     ("screen", "--family", "general", "--centers", "X2,X7", "--properties", "1,7,14",
      "-n", "1"),
     1, "1eeed8aeceba46097fa26cf7011bcec2d7881596d1d3d9f0df1f573cda13a0ad"),
    ("verify-all", ("verify", "T5.1a", "T7a", "-n", "2"),
     7, "bacbfd3f7adfb794efbb595d402c1d9f70a6a141406fb2159fb74b7b4456329f"),
    ("hunt-conjecture", ("hunt", "conjecture-central-isosceles", "--budget", "30"),
     0, "a02baf1f1ec6d3059746f64e1b220111dc80f34e0c2167fddc6a206dddd058d4"),
]


@pytest.fixture(scope="module")
def tetrascreen():
    return run.import_package()


def _bindings(tetrascreen):
    """Every module-level and patched-class binding of the package."""
    modules = tracer._package_modules()
    owners = modules + [tetrascreen.catalog.CatalogEntry, tetrascreen.theorems.TheoremCase,
                        tetrascreen.screen.ScreenReport]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


@pytest.mark.parametrize("name,args,seed,digest", TINY, ids=[t[0] for t in TINY])
def test_tiny_workload(tetrascreen, tmp_path, monkeypatch, name, args, seed, digest):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = dataclasses.replace(WORKLOADS[name], args=args)
    before = _bindings(tetrascreen)
    face_points = tetrascreen.tetrahedron.face_points

    with tracer.tracing() as tr:
        assert tetrascreen.screen.face_points is not face_points
        assert tetrascreen.theorems.face_points is not face_points
    assert tr.restored()

    passes = [run.run_pass(tetrascreen.cli, workload, seed)[0]]
    counts = []
    for _ in range(2):
        p, tr = run.run_pass(tetrascreen.cli, workload, seed, tracer.TARGETS)
        passes.append(p)
        layers = tracer.layer_metrics(tr.summary())
        counts.append({k: v for k, (v, unit) in layers.items() if unit != "s"})

    after = _bindings(tetrascreen)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert all(p["restored"] for p in passes)
    assert run.gate(passes, {"sha256": digest}) == []
    assert all(p["failed"] == 0 for p in passes)
    assert counts[0] == counts[1]
    assert counts[0]["scalar.refine_escalations"] == 0


def test_tiny_screen_counts(tetrascreen, tmp_path, monkeypatch):
    """Two centers, properties 1, 7 and 14, one instance: 6 cells over
    2 pairs, each pair placed on its faces once per property."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = dataclasses.replace(WORKLOADS["screen-matrix"], args=TINY[0][1])
    _, tr = run.run_pass(tetrascreen.cli, workload, 1, tracer.TARGETS)
    layers = tracer.layer_metrics(tr.summary())
    assert layers["screen.evaluate_cell.calls"][0] == 6
    assert layers["screen.pairs"][0] == 2
    assert layers["screen.face_points_per_pair"][0] == 3.0
    assert layers["properties.classify_central_per_pair"][0] == 1.0
    assert sum(layers[f"screen.verdict.{s}"][0] for s in tracer.VERDICT_STATUSES) == 6


def test_gate_fails_every_operation_of_a_changed_pass():
    def p(sha256, exit=0, failed=0, verdicts=None):
        return {"sha256": sha256, "exit": exit, "attempted": 5, "failed": failed,
                "verdicts": verdicts, "restored": True}
    passes = [p("a"), p("b"), p("a", exit=1, failed=1), p("a", failed=2),
              p("a", verdicts={"fails": 5}), p("a", verdicts={"fails": 4, "error": 1})]
    problems = run.gate(passes, None)
    assert len(problems) == 4
    assert [p["failed"] for p in passes] == [0, 5, 5, 2, 0, 5]
    assert len(run.gate([p("a")], {"sha256": "c"})) == 1
    assert len(run.gate([p("a", verdicts={"fails": 5})],
                        {"sha256": "a", "verdicts": {"fails": 4, "error": 1}})) == 1


def test_hunt_verdict_gate_catches_what_the_digest_misses(tetrascreen, tmp_path,
                                                          monkeypatch):
    """A hunt whose every check raises still writes the golden bytes; its
    verdict counts do not match."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    name, args, seed, digest = TINY[2]
    workload = dataclasses.replace(WORKLOADS[name], args=args)
    good, _ = run.run_pass(tetrascreen.cli, workload, seed, tracer.VERDICT_TARGETS)
    assert sum(good["verdicts"].values()) == 30
    golden = {"sha256": digest, "verdicts": good["verdicts"]}
    assert run.gate([good], golden) == []

    def broken(*args):
        raise tetrascreen.errors.TetraScreenError("broken")
    monkeypatch.setattr(tetrascreen.properties, "classify_central", broken)
    bad, _ = run.run_pass(tetrascreen.cli, workload, seed, tracer.VERDICT_TARGETS)
    assert bad["sha256"] == digest
    assert bad["verdicts"]["error"] > 0 and bad["failed"] == bad["verdicts"]["error"]
    assert len(run.gate([bad], golden)) == 1
    assert bad["failed"] == bad["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    """With only BENCHMARK.json and perfbench/, it exits nonzero and prints
    no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt-conjecture",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no tetrascreen sources" in proc.stderr


def test_declared_metrics_are_computed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_names = set(tracer.layer_metrics({
        "self_s": {}, "calls": {}, "in_cell": {}, "refine_escalations": 0,
        "verdicts": {}, "pairs": 0})) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= layer_names
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
