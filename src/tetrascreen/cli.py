"""Command-line front end: generate instances, run screens, verify the
identity registry, hunt counterexamples.

Property failures discovered by `screen` are results, not errors: the
exit code stays 0.  `verify` exits nonzero when any registered identity
unexpectedly fails; execution errors (unknown ids, unreadable files) exit
nonzero everywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import properties as P
from . import screen as SC
from . import theorems as TH
from ._backend import BACKEND
from .catalog import builtin_catalog, load_catalog_file, parse_center_spec
from .centerexpr import MAX_EXPONENT
from .errors import TetraScreenError
from .screen import CenterSpec, ScreenPlan, run_screen
from .tetrahedron import EdgeLengths, TetraFamily, generate


def _positive_int(text: str) -> int:
    """argparse type for counts and budgets: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_catalog(path):
    cat = builtin_catalog()
    if path:
        cat = cat.merged_with(load_catalog_file(path))
    return cat


def _property_list(text: str):
    """argparse type for --properties: 'all', or a comma list of property
    numbers 1-16 or names."""
    if text in ("", "all"):
        return [P.PropertyId(i) for i in range(1, 17)]
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            out.append(P.PropertyId(int(tok)) if tok.isdigit()
                       else P.PropertyId[tok.upper().replace("-", "_")])
        except (ValueError, KeyError):
            raise argparse.ArgumentTypeError(
                f"unknown property {tok!r} (use numbers 1-16 or names)") from None
    return out


def _center_list(text: str):
    """argparse type for --centers: None for 'all' (the whole catalog),
    else the CenterSpec of each comma-separated `ID[:r]`."""
    if text in ("", "all"):
        return None
    specs = []
    for tok in text.split(","):
        try:
            cid, r = parse_center_spec(tok.strip())
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"bad center {tok.strip()!r} (use ID or ID:r with r an integer "
                f"or a quotient, numerator and denominator at most {MAX_EXPONENT} "
                "in magnitude)") from None
        specs.append(CenterSpec(cid, r))
    return specs


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    family = TetraFamily(args.family)
    instances = generate(family, args.seed, args.n)
    _write_out(json.dumps([inst.to_json_dict() for inst in instances],
                          sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _read_instances(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [EdgeLengths.from_json_dict(obj).require_valid() for obj in data]


def cmd_screen(args) -> int:
    catalog = _load_catalog(args.catalog)
    plan = ScreenPlan(
        family=TetraFamily(args.family),
        centers=SC.default_hunt_specs(catalog) if args.centers is None else args.centers,
        properties=args.properties,
        count=args.n,
        seed=args.seed,
        precision_cap=args.precision_bits,
        catalog=catalog,
    )
    instances = _read_instances(args.instances) if args.instances else None
    report = _run_screen_jobs(plan, instances, args.jobs)
    if args.format == "json":
        _write_out(report.to_json(), args.out)
    elif args.format == "csv":
        _write_out(report.to_csv(), args.out)
    else:
        _write_out(report.to_markdown(), args.out)
    print(f"screen finished in {report.elapsed_seconds:.2f}s "
          f"({BACKEND} backend)", file=sys.stderr)
    return 0


def _run_screen_jobs(plan: ScreenPlan, instances, jobs: int):
    if instances is not None:
        return SC.run_screen_on_instances(plan, instances)
    if jobs <= 1 or len(plan.centers) <= 1:
        return run_screen(plan)
    # split by center; each worker recomputes the same seeded instances,
    # so the merged report is identical to a serial run
    import time
    from concurrent.futures import ProcessPoolExecutor

    t0 = time.monotonic()
    sub_args = [(plan, [spec]) for spec in plan.centers]
    with ProcessPoolExecutor(max_workers=min(jobs, len(plan.centers))) as pool:
        parts = list(pool.map(_screen_one_center, sub_args))
    cells = [cell for part in parts for cell in part.cells]
    # the workers overlap, so the sum of their times overstates the run's
    report = SC.ScreenReport(parts[0].plan_echo, cells, time.monotonic() - t0)
    report.plan_echo["centers"] = [s.label() for s in plan.centers]
    return report


def _screen_one_center(packed):
    plan, specs = packed
    return run_screen(dataclasses.replace(plan, centers=specs))


def cmd_verify(args) -> int:
    catalog = _load_catalog(args.catalog)
    ids = "all" if args.cases in (["all"], []) else args.cases
    report = TH.verify_cases(ids, n=args.n, seed=args.seed, catalog=catalog)
    failed = 0
    for case in report["cases"]:
        status = case["status"]
        if status == "fail" and case.get("expected_to_fail"):
            label = "XFAIL"
        elif status == "fail":
            label = "FAIL"
            failed += 1
        else:
            label = status.upper()
        print(f"{label:5}  {case['id']:22} [{case['mode']}] {case['description']}")
    summary = report["summary"]
    print(f"passed {summary['pass']}  failed {summary['fail']}  "
          f"skipped {summary['skip']}  expected-fail {summary['expected_fail']}")
    if args.out:
        _write_out(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return 1 if failed else 0


def cmd_hunt(args) -> int:
    catalog = _load_catalog(args.catalog)
    result = SC.hunt_counterexample(args.claim, budget=args.budget, seed=args.seed,
                                    catalog=catalog)
    _write_out(json.dumps(result, sort_keys=True, indent=2, default=str) + "\n",
               args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrascreen",
        description="exact-arithmetic screening of triangle centers on tetrahedron faces")
    sub = parser.add_subparsers(dest="command", required=True)

    families = [f.value for f in TetraFamily]

    g = sub.add_parser("gen", help="generate random rational instances of a family")
    g.add_argument("--family", required=True, choices=families)
    g.add_argument("-n", type=_positive_int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("screen", help="run a (family x centers x properties) matrix")
    s.add_argument("--family", required=True, choices=families)
    s.add_argument("--centers", type=_center_list, default="all",
                   help="comma list of ids, ID:r for parametric (default: whole catalog)")
    s.add_argument("--properties", type=_property_list, default="all",
                   help="comma list of property numbers 1-16 or names (default: all)")
    s.add_argument("-n", type=_positive_int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--precision-bits", type=_positive_int, default=1024)
    s.add_argument("--catalog", default=None, help="extra catalog file to merge")
    s.add_argument("--instances", default=None,
                   help="JSON instance file (as produced by gen) instead of generating")
    s.add_argument("--jobs", type=_positive_int, default=1)
    s.add_argument("--format", choices=("json", "csv", "md"), default="json")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_screen)

    v = sub.add_parser("verify", help="run registered identity cases")
    v.add_argument("cases", nargs="*", default=["all"],
                   help="case ids, or 'all' (default)")
    v.add_argument("-n", type=_positive_int, default=None,
                   help="override instance count per case")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--catalog", default=None)
    v.add_argument("--out", default=None, help="write the JSON report here")
    v.set_defaults(fn=cmd_verify)

    h = sub.add_parser("hunt", help="falsification / counterexample searches")
    h.add_argument("claim", choices=SC.HUNT_CLAIMS)
    h.add_argument("--budget", type=_positive_int, default=1000)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--catalog", default=None)
    h.add_argument("--out", default=None)
    h.set_defaults(fn=cmd_hunt)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TetraScreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
