"""The benchmark's workloads: the CLI command each one runs and how its
canonical output, with the verdict counts when a pass counted them, gives
the operations attempted and failed.

README.md in this directory records why each workload exists and which
layer metrics it should move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple                 # CLI arguments, without --seed and --out
    default_seed: int           # the seed quoted in the ROADMAP baseline
    account: Callable[[dict, dict | None], tuple]  # (output, verdicts) -> (attempted, failed)
    # the output does not record the verdicts, so an untimed pass counts them
    verdict_pass: bool = False

    def argv(self, seed: int, out: str) -> list:
        return [*self.args, "--seed", str(seed), "--out", out]


def _account_screen(report: dict, verdicts) -> tuple:
    """Cells evaluated; a cell tallied `error` or `undecided` failed.  The
    tallies are the verdict counts."""
    attempted = failed = 0
    for cell in report["cells"]:
        for status, n in cell["tally"].items():
            attempted += n
            if status in ("error", "undecided"):
                failed += n
    return attempted, failed


def _account_verify(report: dict, verdicts) -> tuple:
    """Cases run; the summary's `fail` counts only unexpected failures."""
    return len(report["cases"]), report["summary"]["fail"]


def _account_hunt(result: dict, verdicts) -> tuple:
    """(instance, center) pairs budgeted; a pair never tried, or whose
    verdict was `error` or `undecided`, failed."""
    failed = result["budget"] - result["tried"]
    if verdicts is not None:
        failed += verdicts["error"] + verdicts["undecided"]
    return result["budget"], failed


WORKLOADS = {w.name: w for w in (
    Workload(
        "screen-matrix",
        ("screen", "--family", "general",
         "--centers", "X2,X3,X4,X7,X8,X9,X11,X41,POW:2",
         "--properties", "all", "-n", "10"),
        1, _account_screen),
    Workload(
        "verify-all",
        ("verify", "all"),
        7, _account_verify),
    Workload(
        "hunt-conjecture",
        ("hunt", "conjecture-central-isosceles", "--budget", "5000"),
        0, _account_hunt, verdict_pass=True),
)}
