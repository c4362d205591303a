"""Screening engine: run (family x center x property) matrices over seeded
random instances, and hunt for counterexamples.  Each cell has one
evaluation path: exact rationals for rational-only centers at an integer
(or no) exponent r, and for the others intervals whose precision doubles
up to a cap.  A screen builds one `PairContext` per (instance, center):
the face points, the central shape and the space relations are evaluated
once per evaluation mode and shared by all the pair's properties, then
dropped with the pair.

Screens and hunts share one cell loop, `_visit_cells`, which hands each
cell's `cell_outcome` (a `P.Verdict`, or a `Raised` skipped or error) to
a visit: a screen tallies every outcome, a hunt is a stop rule that lists
an errored pair under its `errors` key, never as tried or degenerate.

A cell verdict of "confirmed (exact, n)" means the property vanished in
exact rational arithmetic on every instance — randomized-identity
evidence, reported as confirmation, never as proof.  A single provably
nonzero residual is kept as a counterexample witness with the full
rational instance.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
import zlib
from dataclasses import dataclass, field

from . import properties as P
from . import scalar as S
from ._backend import Q, numden
from .catalog import Catalog, builtin_catalog
from .errors import (
    EvaluationSingular,
    TetraScreenError,
    Undecided,
    UnknownId,
)
from .tetrahedron import (
    EdgeLengths,
    EvalMode,
    TetraFamily,
    face_points,
    family_predicate,
    generate,
)
from .triangle import TriangleSides


_PIECE_DIGITS = 1000
_PIECE = 10 ** _PIECE_DIGITS


def _fmt_int(n: int) -> str:
    """Decimal digits of n.  str() refuses ints beyond the interpreter's
    digit limit (4300 by default), so long ones are converted in pieces."""
    if -_PIECE < n < _PIECE:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    pieces = []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(str(low).zfill(_PIECE_DIGITS))
    return sign + str(n) + "".join(reversed(pieces))


def _fmt_q(q) -> str:
    n, d = numden(q)
    return f"{_fmt_int(n)}/{_fmt_int(d)}" if d != 1 else _fmt_int(n)


def _fmt_scalar(x) -> str:
    if isinstance(x, S.Interval):
        return f"[{_fmt_q(x.lo)}, {_fmt_q(x.hi)}]@{x.bits}b"
    return _fmt_q(Q(x))


# ---------------------------------------------------------------------
# plans, cells, reports


@dataclass(frozen=True)
class CenterSpec:
    id: str
    r: object = None  # rational parameter or None

    def label(self) -> str:
        return self.id if self.r is None else f"{self.id}:{_fmt_q(self.r)}"


@dataclass
class ScreenPlan:
    family: TetraFamily
    centers: list          # of CenterSpec
    properties: list       # of P.PropertyId
    count: int = 20
    seed: int = 0
    precision_cap: int = S.DEFAULT_BITS_CAP
    catalog: Catalog = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.catalog is None:
            self.catalog = builtin_catalog()
        for spec in self.centers:
            entry = self.catalog[spec.id]  # raises UnknownId
            if entry.takes_r and spec.r is None:
                raise UnknownId(f"center {spec.id} requires a value of r (use ID:r)")
            if not entry.takes_r and spec.r is not None:
                raise UnknownId(f"center {spec.id} takes no r (use {spec.id} alone)")


@dataclass
class CellResult:
    center: str
    property: int
    tally: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def record(self, idx: int, inst: EdgeLengths, outcome):
        """Tally the outcome on instance `idx`; keep the first three errors
        and witnesses, and each distinct note."""
        self.tally[outcome.status] = self.tally.get(outcome.status, 0) + 1
        if isinstance(outcome, Raised):
            if len(self.errors) < 3:
                self.errors.append({"instance": idx, "error": outcome.message})
            return
        if outcome.status == P.FAILS and len(self.witnesses) < 3:
            witness = {"instance_index": idx, "instance": inst.to_json_dict()}
            for k, v in outcome.witness.items():
                witness[k] = _fmt_scalar(v) if k == "residual" else v
            self.witnesses.append(witness)
        if outcome.note and outcome.note not in self.notes:
            self.notes.append(outcome.note)

    def summary(self) -> str:
        n = sum(self.tally.values())
        if n == 0:
            return "no instances"
        exact = self.tally.get(P.HOLDS_EXACT, 0)
        numeric = self.tally.get(P.HOLDS_NUMERIC, 0)
        fails = self.tally.get(P.FAILS, 0)
        skipped = self.tally.get(P.SKIPPED, 0)
        if fails:
            return f"fails ({fails}/{n})"
        if exact and exact + skipped == n:
            return f"confirmed (exact, {exact} instances)"
        if exact + numeric and exact + numeric + skipped == n:
            return f"confirmed (numeric, {exact + numeric} instances)"
        if skipped == n:
            return f"skipped/degenerate ({n})"
        return "undecided"


@dataclass
class ScreenReport:
    plan_echo: dict
    cells: list                 # of CellResult
    elapsed_seconds: float = 0.0  # excluded from canonical serialization

    def to_json_obj(self) -> dict:
        cells = []
        for c in sorted(self.cells, key=lambda c: (c.center, c.property)):
            cells.append({
                "center": c.center,
                "property": int(c.property),
                "property_name": P.PropertyId(c.property).name,
                "tally": dict(sorted(c.tally.items())),
                "summary": c.summary(),
                "witnesses": c.witnesses,
                "errors": c.errors,
                "notes": c.notes,
            })
        return {"plan": self.plan_echo, "cells": cells}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    def _grid(self):
        """The properties, and per center its row of cell summaries."""
        props = sorted({c.property for c in self.cells})
        index = {(c.center, c.property): c.summary() for c in self.cells}
        return props, [[ctr] + [index.get((ctr, p), "") for p in props]
                       for ctr in sorted({c.center for c in self.cells})]

    def to_csv(self) -> str:
        props, rows = self._grid()
        lines = ["center," + ",".join(f"P{int(p)}" for p in props)]
        lines += [",".join(s.replace(",", ";") for s in row) for row in rows]
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        props, rows = self._grid()
        lines = ["| center | " + " | ".join(P.PropertyId(p).name for p in props) + " |",
                 "|" + "---|" * (len(props) + 1)]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# evaluation


class PairContext:
    """Work shared by the properties of one (instance, center) pair: the
    face points, `classify_central`'s verdicts and
    `check_space_center_relations`'s verdicts, each built on first use and
    kept per evaluation mode in a `P.GroupMemo`.  A TetraScreenError raised
    while building one is kept and re-raised for every property that
    needs it.  `properties` are the properties the context will be asked
    for; its central ones are what `classify_central` computes."""

    def __init__(self, e: EdgeLengths, entry, r, properties):
        self.e, self.entry, self.r = e, entry, r
        self.central = P.CENTRAL_PROPERTIES.intersection(properties)
        self._memos = {}

    def at(self, mode: EvalMode):
        """The face points and the group memo at `mode`."""
        memo = self._memos.get(mode)
        if memo is None:
            memo = self._memos[mode] = P.GroupMemo(self.central)
        points = memo.get("points", lambda: face_points(self.e, self.entry,
                                                        r=self.r, mode=mode))
        return points, memo


def evaluate_cell_on_instance(e: EdgeLengths, entry, r, prop: P.PropertyId,
                              precision_cap: int = S.DEFAULT_BITS_CAP,
                              context: PairContext | None = None) -> P.Verdict:
    """One (instance, center, property) evaluation: exact for a rational-only
    center unless it takes a fractional power r of the sides, else
    intervals whose precision doubles up to `precision_cap` while a
    comparison stays undecided.  `context` is the pair's shared work;
    without one, a fresh context for `prop` alone is used."""
    if context is None:
        context = PairContext(e, entry, r, (prop,))
    exact = entry.rational_only and not (
        entry.takes_r and r is not None and Q(r).denominator != 1)
    bits = S.DEFAULT_BITS
    while True:
        mode = EvalMode() if exact else EvalMode.interval(bits)
        try:
            pts, memo = context.at(mode)
            return P.check_property(e, pts, prop, mode, memo)
        except Undecided:
            if bits >= precision_cap:
                return P.Verdict(P.UNDECIDED,
                                 note=f"still undecided at the {precision_cap}-bit cap")
            bits = min(2 * bits, precision_cap)


@dataclass(frozen=True)
class Raised:
    """A cell that raised instead of returning a verdict: `skipped` for
    EvaluationSingular (no finite point here), `error` for the others."""
    status: str
    message: str
    holds = False


def cell_outcome(e: EdgeLengths, entry, r, prop: P.PropertyId,
                 precision_cap: int = S.DEFAULT_BITS_CAP,
                 context: PairContext | None = None):
    """The `P.Verdict` of one cell, or the `Raised` engine error in its
    place.  Any other exception propagates."""
    try:
        return evaluate_cell_on_instance(e, entry, r, prop, precision_cap, context)
    except TetraScreenError as exc:
        exc.__traceback__ = None  # the pair's memo keeps exc: free its frames now
        return Raised(P.SKIPPED if isinstance(exc, EvaluationSingular) else P.ERROR, str(exc))


def _visit_cells(catalog, specs, props, instances, visit,
                 precision_cap=S.DEFAULT_BITS_CAP) -> bool:
    """Call `visit(instance index, instance, spec, property, outcome)` on
    each cell, instance by instance, with one `PairContext` per (instance,
    spec), until a visit returns True (its stop rule); return whether one
    did.  `instances` may be lazy, so a stop draws no further instance."""
    entries = [(spec, catalog[spec.id]) for spec in specs]
    for idx, inst in enumerate(instances):
        for spec, entry in entries:
            context = PairContext(inst, entry, spec.r, props)
            for prop in props:
                if visit(idx, inst, spec, prop, cell_outcome(inst, entry, spec.r, prop,
                                                             precision_cap, context)):
                    return True
            del context  # not kept while the next instance is drawn
    return False


def run_screen(plan: ScreenPlan) -> ScreenReport:
    """Evaluate the full matrix; deterministic for a given plan+seed."""
    return run_screen_on_instances(plan, generate(plan.family, plan.seed, plan.count))


def run_screen_on_instances(plan: ScreenPlan, instances) -> ScreenReport:
    t0 = time.monotonic()
    cells = {(spec.label(), prop): CellResult(spec.label(), int(prop))
             for spec in plan.centers for prop in plan.properties}
    _visit_cells(plan.catalog, plan.centers, plan.properties, instances,
                 lambda idx, inst, spec, prop, outcome:
                 cells[(spec.label(), prop)].record(idx, inst, outcome),
                 plan.precision_cap)
    plan_echo = {
        "family": plan.family.value,
        "centers": [s.label() for s in plan.centers],
        "properties": [int(p) for p in plan.properties],
        "count": len(instances),
        "seed": plan.seed,
        "mode_policy": "exact",  # constant; kept so report digests stay the same
        "precision_cap": plan.precision_cap,
    }
    return ScreenReport(plan_echo, list(cells.values()),
                        elapsed_seconds=time.monotonic() - t0)


# ---------------------------------------------------------------------
# counterexample hunting


def _power_exponent(entry, r) -> int | None:
    """The integer exponent p when the entry is projectively the power
    point a^p (trilinear), else None.  Decided exactly on two prime-sided
    triangles: the trilinear ratios must be (x/y)^p and (y/z)^p."""
    exponents = set()
    for (x, y, z) in ((3, 5, 7), (7, 11, 13)):
        try:
            a, b, c = entry.areal_on(TriangleSides(Q(x), Q(y), Q(z)), r=r).tuple()
        except TetraScreenError:
            return None
        if not all(S.is_exact(v) and v != 0 for v in (a, b, c)):
            return None
        alpha, beta, gamma = Q(a) / x, Q(b) / y, Q(c) / z
        n, d = numden(alpha / beta)
        if n < 0:
            return None
        # the only candidate, checked exactly below
        p = round((math.log(n) - math.log(d)) / (math.log(x) - math.log(y)))
        if alpha / beta != Q(x, y) ** p or beta / gamma != Q(y, z) ** p:
            return None
        exponents.add(p)
    return exponents.pop() if len(exponents) == 1 else None


def _projectively_equal_entries(entry_a, r_a, entry_b, r_b, samples=5) -> bool:
    rng = random.Random(99)
    done = 0
    while done < samples:
        a, b, c = (Q(rng.randint(2, 40), rng.randint(1, 12)) for _ in range(3))
        try:
            sides = TriangleSides(a, b, c)
            pa = entry_a.areal_on(sides, r=r_a)
            pb = entry_b.areal_on(sides, r=r_b)
        except TetraScreenError:
            continue
        if not pa.proj_eq(pb):
            return False
        done += 1
    return True


def default_hunt_specs(catalog: Catalog) -> list:
    """Catalog entries instantiated for the falsification hunts."""
    return [CenterSpec(entry.id, r) for entry in catalog if entry.rational_only
            for r in (map(Q, (-2, -1, 0, 1, 2, 3)) if entry.takes_r else (None,))]


HUNT_CLAIMS = (
    "centroid-uniqueness",
    "power-uniqueness",
    "planarity-impossibility",
    "conjecture-central-isosceles",
    "conjecture-central-regular",
    "conjecture-similar-centroid",
    "conjecture-equal-cevians-isosceles",
)


def hunt_counterexample(claim: str, budget: int = 1000, seed: int = 0,
                        catalog: Catalog | None = None) -> dict:
    """Falsification searches.

    For the uniqueness claims the hunt tries to make every non-excluded
    catalog center fail the relevant property on some instance (success
    supports the uniqueness statement; a "survivor" would witness against
    it).  For the conjectures the hunt searches for counterexamples and
    reports the exhausted budget when none is found; engine errors go
    under an `errors` key.  A budget below 1, a catalog without rational-
    only centers, or one whose every center is excluded or degenerate
    would try nothing, so all three are refused."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    catalog = builtin_catalog() if catalog is None else catalog
    if not default_hunt_specs(catalog):
        raise ValueError("the catalog has no rational-only center to hunt with")
    if claim == "centroid-uniqueness":
        return _hunt_uniqueness(catalog, seed, budget, P.PropertyId.CONCUR,
                                TetraFamily.ISOSCELES, _is_centroid_entry)
    if claim == "power-uniqueness":
        return _hunt_uniqueness(catalog, seed, budget, P.PropertyId.HYPERBOLIC,
                                TetraFamily.GENERAL,
                                lambda e, r: _power_exponent(e, r) is not None)
    if claim == "planarity-impossibility":
        return _hunt_uniqueness(catalog, seed, budget, P.PropertyId.COPLANAR,
                                TetraFamily.ISOSCELES, lambda e, r: False)
    if claim.startswith("conjecture-"):
        return _hunt_conjecture(claim, catalog, seed, budget)
    raise UnknownId(f"unknown hunt claim {claim!r}; known: {', '.join(HUNT_CLAIMS)}")


def _is_centroid_entry(entry, r) -> bool:
    return _projectively_equal_entries(entry, r, builtin_catalog()["X2"], None)


def _errors(raised) -> dict:
    """A hunt's `errors` entry from (spec, draw index, Raised) triples."""
    return {"count": len(raised),
            "first": [{"center": spec.label(), "draw": k, "error": out.message}
                      for spec, k, out in raised[:3]]}


def _hunt_uniqueness(catalog, seed, budget, prop, family, excluded) -> dict:
    """Per spec, draw up to `budget` instances and stop at the first that
    refutes it.  A spec none of whose draws refutes it is degenerate on
    the family when every draw raised EvaluationSingular; else one it
    held on is a survivor, and one that raised an engine error is listed
    under `errors`.  Survivors and errors leave the claim unsupported."""
    refuted, excluded_specs, survivors, errors = [], [], [], []
    singular, errored = 0, []

    def refutes(k, inst, spec, _, outcome) -> bool:
        nonlocal singular
        if outcome.status == P.ERROR:
            errored.append((spec, k, outcome))
        elif isinstance(outcome, Raised):
            singular += 1
        elif outcome.status == P.FAILS or (  # a degenerate hyperboloid refutes too
                prop is P.PropertyId.HYPERBOLIC and outcome.status == P.SKIPPED
                and outcome.payload.get("identity_holds") is False):
            refuted.append({"center": spec.label(), "instances_tried": k + 1,
                            "instance": inst.to_json_dict()})
            if outcome.status == P.SKIPPED:
                refuted[-1]["note"] = "identity fails on a degenerate configuration"
            return True
        return False

    for spec in default_hunt_specs(catalog):
        if excluded(catalog[spec.id], spec.r):
            excluded_specs.append(spec.label())
            continue
        singular, errored = 0, []
        draws = (generate(family, _spec_seed(seed, spec, k), 1)[0] for k in range(budget))
        if _visit_cells(catalog, [spec], [prop], draws, refutes):
            continue
        errors += errored
        if singular + len(errored) < budget:
            survivors.append(spec.label())
        elif not errored:
            # the formula never defines a finite point here; not a center
            # of these faces, so it cannot witness against uniqueness
            excluded_specs.append(f"{spec.label()} (degenerate on this family)")
    if not refuted and not survivors and not errors:
        raise ValueError("every center of the catalog is excluded or degenerate "
                         "on this family, so the hunt would try none")
    report = {
        "claim_supported": not survivors and not errors,
        "refuted": refuted,
        "excluded": excluded_specs,
        "survivors": survivors,
        "budget": budget,
    }
    if errors:
        report["errors"] = _errors(errors)
    return report


def _spec_seed(seed, spec, k) -> int:
    return zlib.adler32(f"{seed}|{spec.label()}|{k}".encode())


_CONJECTURE_PROPS = {
    "conjecture-central-isosceles": (P.PropertyId.CENTRAL_ISOSCELES, TetraFamily.ISOSCELES),
    "conjecture-central-regular": (P.PropertyId.CENTRAL_REGULAR, None),
    "conjecture-similar-centroid": (P.PropertyId.SIMILAR_TO_REFERENCE, None),
    "conjecture-equal-cevians-isosceles": (P.PropertyId.EQUAL_CEVIANS, TetraFamily.ISOSCELES),
}


def _hunt_conjecture(claim, catalog, seed, budget) -> dict:
    """Attempt `budget` (instance, center) pairs, stopping at the first
    counterexample to the conjectured implication: for the similarity
    conjecture a center other than the centroid, for the family ones a
    reference outside the family.  A pair that raised EvaluationSingular
    counts as tried; one that raised another engine error goes to `errors`."""
    prop, excluded_family = _CONJECTURE_PROPS[claim]
    specs = default_hunt_specs(catalog)
    if claim == "conjecture-similar-centroid":
        specs = [s for s in specs if not _is_centroid_entry(catalog[s.id], s.r)]
    if not specs:
        raise ValueError(f"no center of the catalog can be tried for {claim}")
    draws = (generate(TetraFamily.GENERAL, _spec_seed(seed, CenterSpec(claim), k), 1)[0]
             for k in itertools.count())
    report = {"counterexample": None, "claim_supported": "exhausted", "budget": budget}
    tried, errors = 0, []

    def counterexample(k, inst, spec, _, outcome) -> bool:
        nonlocal tried
        if outcome.status == P.ERROR:
            errors.append((spec, k, outcome))
        else:
            tried += 1
            if outcome.holds \
                    and not (excluded_family is not None
                             and family_predicate(inst, excluded_family)) \
                    and not (claim == "conjecture-central-regular"
                             and len({str(x) for x in inst.edges()}) == 1):
                report.update(counterexample={"center": spec.label(),
                                              "instance": inst.to_json_dict()},
                              claim_supported=False)
                return True
        return tried + len(errors) == budget  # the budget stops the hunt too

    _visit_cells(catalog, specs, [prop], draws, counterexample)
    report["tried"] = tried
    if errors:
        report["errors"] = _errors(errors)
    return report
