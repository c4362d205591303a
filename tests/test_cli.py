import json
import subprocess
import sys

import pytest

from tetrascreen.cli import main

RUN = [sys.executable, "-m", "tetrascreen.cli"]


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kw)


class TestGen:
    def test_generates_valid_instances(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["gen", "--family", "isosceles", "-n", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 3
        for obj in data:
            assert obj["a"] == obj["b"]

    def test_orthocentric_satisfies_condition(self, tmp_path, capsys):
        assert main(["gen", "--family", "orthocentric", "-n", "2", "--seed", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        from tetrascreen.tetrahedron import EdgeLengths, TetraFamily, family_predicate

        for obj in data:
            inst = EdgeLengths.from_json_dict(obj)
            assert family_predicate(inst, TetraFamily.ORTHOCENTRIC)

    def test_invalid_family_usage_error(self):
        result = run_cli(["gen", "--family", "nonsense", "-n", "1"])
        assert result.returncode != 0


class TestScreen:
    def test_round_trip_gen_to_screen(self, tmp_path):
        gen_out = tmp_path / "instances.json"
        assert main(["gen", "--family", "circumscriptible", "-n", "4", "--seed", "9",
                     "--out", str(gen_out)]) == 0
        rep_a = tmp_path / "a.json"
        rep_b = tmp_path / "b.json"
        assert main(["screen", "--family", "circumscriptible", "--centers", "X7",
                     "--properties", "1", "-n", "4", "--seed", "9",
                     "--out", str(rep_a)]) == 0
        assert main(["screen", "--family", "circumscriptible", "--centers", "X7",
                     "--properties", "1", "--instances", str(gen_out), "--seed", "9",
                     "--out", str(rep_b)]) == 0
        assert rep_a.read_text() == rep_b.read_text()

    def test_property_failures_exit_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["screen", "--family", "general", "--centers", "X7",
                     "--properties", "1", "-n", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["cells"][0]["summary"].startswith("fails")

    def test_bad_center_exits_nonzero(self, tmp_path):
        assert main(["screen", "--family", "general", "--centers", "NOPE",
                     "--properties", "1", "-n", "2"]) == 2

    def test_formats(self, tmp_path):
        for fmt, probe in (("json", '"plan"'), ("csv", "center,P1"), ("md", "| center |")):
            out = tmp_path / f"r.{fmt}"
            assert main(["screen", "--family", "isosceles", "--centers", "X2",
                         "--properties", "1", "-n", "2", "--format", fmt,
                         "--out", str(out)]) == 0
            assert probe in out.read_text()

    def test_jobs_flag_gives_identical_report(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        args = ["screen", "--family", "isosceles", "--centers", "X2,X7,X9",
                "--properties", "1,13", "-n", "3", "--seed", "4"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_text() == parallel.read_text()

    def test_custom_catalog(self, tmp_path):
        cat = tmp_path / "extra.txt"
        cat.write_text("MINE | areal | (b+c-a)^r | yes\n")
        out = tmp_path / "r.json"
        assert main(["screen", "--family", "circumscriptible", "--centers", "MINE:2",
                     "--properties", "1", "-n", "3", "--catalog", str(cat),
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["cells"][0]["summary"].startswith("confirmed (exact")


class TestVerify:
    def test_single_case(self, capsys):
        assert main(["verify", "T5.1b", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "T5.1b" in out

    def test_unknown_case(self):
        assert main(["verify", "T99.9"]) == 2

    def test_expected_fail_does_not_break_exit(self, capsys):
        assert main(["verify", "T8.1e", "-n", "2"]) == 0
        assert "XFAIL" in capsys.readouterr().out

    def test_report_out(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(["verify", "T5.1b", "T7a", "-n", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert {c["id"] for c in data["cases"]} == {"T5.1b", "T7a"}


class TestHunt:
    def test_hunt_writes_report(self, tmp_path):
        out = tmp_path / "hunt.json"
        assert main(["hunt", "centroid-uniqueness", "--budget", "4",
                     "--seed", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["claim_supported"] is True


class TestCountArguments:
    @pytest.mark.parametrize("args", [
        ["gen", "--family", "general", "-n", "0"],
        ["screen", "--family", "general", "--centers", "X2", "--properties", "1", "-n", "0"],
        ["verify", "all", "-n", "0"],
        ["verify", "T13.1", "-n", "-3"],
        ["hunt", "centroid-uniqueness", "--budget", "0"],
        ["hunt", "conjecture-central-isosceles", "--budget", "-1"],
        ["verify", "all", "-n", "many"],
    ])
    def test_count_below_one_is_a_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument" in captured.err
        assert captured.out == ""


class TestScreenInput:
    @pytest.mark.parametrize("args", [
        ["--properties", "17"],
        ["--properties", "0"],
        ["--properties", "foo"],
        ["--properties", "1,,2"],
        ["--centers", "POW:abc"],
        ["--centers", "POW:1/0"],
        ["--precision-bits", "0"],
        ["--precision-bits", "-8"],
        ["--jobs", "0"],
        ["--jobs", "-2"],
    ])
    def test_bad_screen_input_is_a_usage_error(self, args, capsys):
        # a repeated option overrides the valid one before it
        with pytest.raises(SystemExit) as exc:
            main(["screen", "--family", "general", "--centers", "X2", "--properties", "1",
                  "-n", "1", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {args[0]}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_prefilter_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["screen", "--family", "general", "--centers", "X2", "--properties", "1",
                  "-n", "1", "--prefilter"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --prefilter" in capsys.readouterr().err

    def test_jobs_pool_is_no_larger_than_the_center_list(self, tmp_path, monkeypatch):
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        args = ["screen", "--family", "isosceles", "--centers", "X2,X7,POW:2",
                "--properties", "1", "-n", "2", "--seed", "4"]
        reports = []
        for jobs in ("1", "5000", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
            reports.append(out.read_text())
        assert sizes == [3, 2]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_properties_by_name_and_number(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["screen", "--family", "isosceles", "--centers", "X2",
                     "--properties", "concur, 3", "-n", "1", "--out", str(out)]) == 0
        assert [c["property"] for c in json.loads(out.read_text())["cells"]] == [1, 3]
