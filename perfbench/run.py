#!/usr/bin/env python3
"""Benchmark for tetrascreen.

    python3 perfbench/run.py --workload screen-matrix --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) through the CLI's
`main`, in this process, on the pure-Python `fractions` backend, using the
package under `src/` of the checkout this file sits in.  It repeats the
workload until `--seconds` have passed (at least MIN_PASSES times) and
checks every output: each pass's `--out` file must hash to the golden
digest recorded for the seed in golden.json, and for a seed without one,
to the digest of the run's first pass.  Every pass that counts verdicts
must repeat the verdict counts recorded there too.  A workload whose output
does not record its verdicts (the hunt) counts them in one untimed pass
before the timed ones.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates untraced and traced passes and reports its per-layer metrics
(see tracer.py).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; a human-readable table
goes to standard error and the full record, with the environment, to
perfbench/out/.  The exit status is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import tracer as T
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE_INIT = SRC / "tetrascreen" / "__init__.py"

MIN_PASSES = 3          # untraced passes per run, whatever --seconds says
MIN_TRACED_PASSES = 2   # so that every count is seen to repeat
SETUP_RUNS = 61         # fresh interpreters timed for setup_s

# time from the first line of a fresh interpreter to a built catalog
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tetrascreen.cli
from tetrascreen import catalog
catalog.builtin_catalog()
print(time.perf_counter() - start, tetrascreen.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import tetrascreen from this checkout's src/, on the Python backend."""
    if not PACKAGE_INIT.is_file():
        raise BenchError(f"no tetrascreen sources at {SRC}")
    os.environ["TETRASCREEN_BACKEND"] = "python"
    sys.path.insert(0, str(SRC))
    import tetrascreen
    import tetrascreen.cli

    if Path(tetrascreen.__file__).resolve() != PACKAGE_INIT:
        raise BenchError(f"imported tetrascreen from {tetrascreen.__file__}, not {SRC}")
    tetrascreen.catalog.builtin_catalog()
    return tetrascreen


def measure_setup(runs: int = SETUP_RUNS) -> list:
    """setup_s samples, each from a fresh interpreter.  One extra run goes
    first and is dropped: in a fresh checkout it also compiles bytecode."""
    env = dict(os.environ, TETRASCREEN_BACKEND="python")
    samples = []
    for _ in range(runs + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        secs, origin = proc.stdout.split()
        if Path(origin).resolve() != PACKAGE_INIT:
            raise BenchError(f"setup imported tetrascreen from {origin}")
        samples.append(float(secs))
    return samples[1:]


def run_pass(cli, workload, seed: int, targets=None) -> tuple:
    """One workload run through cli.main, traced on `targets` if given; its
    console output is discarded.  Returns the pass and its tracer, or None."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload.name}-seed{seed}.json"
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    with T.tracing(targets) if targets else nullcontext() as tr:
        start = time.perf_counter()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(workload.argv(seed, str(out)))
        wall = time.perf_counter() - start
    data = out.read_bytes()
    verdicts = None if tr is None else {s: tr.verdicts[s] for s in T.VERDICT_STATUSES}
    attempted, failed = workload.account(json.loads(data), verdicts)
    return {"wall_s": wall, "exit": code, "sha256": hashlib.sha256(data).hexdigest(),
            "verdicts": verdicts, "restored": tr is None or tr.restored(),
            "attempted": attempted, "failed": failed}, tr


def gate(passes: list, golden: dict | None) -> list:
    """Correctness gate against the seed's golden entry ({"sha256": ...,
    "verdicts": {...}}), or for a seed without one against the run's first
    pass and the first verdict counts seen.  A pass whose output digest or
    verdict counts differ, or whose command exited nonzero, counts all of its
    operations as failed.  Any failed operation makes the run incorrect."""
    golden = golden or {}
    expected = golden.get("sha256") or passes[0]["sha256"]
    expected_verdicts = golden.get("verdicts") or next(
        (p["verdicts"] for p in passes if p["verdicts"] is not None), None)
    problems = []
    for i, p in enumerate(passes):
        if not p["restored"]:
            problems.append(f"pass {i}: tracer left a patched binding behind")
        if p["sha256"] != expected:
            problems.append(f"pass {i}: output sha256 {p['sha256']} != {expected}")
        elif p["exit"] != 0:
            problems.append(f"pass {i}: exit status {p['exit']}")
        elif p["verdicts"] is not None and p["verdicts"] != expected_verdicts:
            problems.append(f"pass {i}: verdict counts {p['verdicts']} != {expected_verdicts}")
        else:
            if p["failed"]:
                problems.append(f"pass {i}: {p['failed']} of {p['attempted']} operations failed")
            continue
        p["failed"] = p["attempted"]
    return problems


def end_to_end(cli, workload, seed: int, seconds: float, setup: list) -> tuple:
    checks = []
    if workload.verdict_pass:
        checks.append(run_pass(cli, workload, seed, T.VERDICT_TARGETS)[0])
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(cli, workload, seed)[0])
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return checks + passes, metrics, {"setup_s_samples": setup,
                                      "untimed_passes": len(checks)}, []


def per_layer(tetrascreen, workload, seed: int, seconds: float) -> tuple:
    """Alternate untraced and traced passes.  Times are medians over the
    traced passes; every count must repeat exactly across them."""
    cli = tetrascreen.cli
    untraced, traced, layers = [], [], []
    problems = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        untraced.append(run_pass(cli, workload, seed)[0])
        p, tr = run_pass(cli, workload, seed, T.TARGETS)
        traced.append(p)
        summary = tr.summary()
        layers.append(T.layer_metrics(summary))
    OUT.mkdir(exist_ok=True)
    tr.write_spans(OUT / f"spans_{workload.name}_seed{seed}.json.gz")

    metrics = {}
    for name, (value, unit) in layers[0].items():
        values = [lm[name][0] for lm in layers]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        elif len(set(values)) == 1:
            metrics[name] = (value, unit)
        else:
            problems.append(f"{name} did not repeat across traced passes: {values}")
            metrics[name] = (value, unit)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "spans_per_pass": len(tr.starts),
             "span_self_s": dict(sorted(summary["self_s"].items())),
             "span_calls": dict(sorted(summary["calls"].items()))}
    return untraced + traced, metrics, extra, problems


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(tetrascreen) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": tetrascreen._backend.BACKEND,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
    }


def declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's baseline seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    try:
        tetrascreen = import_package()
        declared = declared_metrics(args.trace)
        golden = json.loads((HERE / "golden.json").read_text())
        setup = [] if args.trace else measure_setup()
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    golden_entry = golden.get(workload.name, {}).get(str(seed))

    if args.trace:
        passes, metrics, extra, problems = per_layer(tetrascreen, workload, seed, args.seconds)
    else:
        passes, metrics, extra, problems = end_to_end(tetrascreen.cli, workload, seed,
                                                      args.seconds, setup)
    problems += gate(passes, golden_entry)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not problems

    record = {
        "workload": workload.name, "argv": workload.argv(seed, "<out>"), "seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(tetrascreen),
        "golden": golden_entry, "output_sha256": passes[0]["sha256"],
        "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed, "error_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "passes": passes, **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{workload.name}_seed{seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"{workload.name} seed {seed}: {len(passes)} passes, output sha256 "
          f"{passes[0]['sha256']} ({'golden' if golden_entry else 'no golden digest'})",
          file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:42} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"  {'error_ratio':42} {failed / attempted:>14.6g} ratio", file=sys.stderr)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
