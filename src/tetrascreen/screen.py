"""Screening engine: run (family x center x property) matrices over seeded
random instances, and hunt for counterexamples.  Each cell has one
evaluation path: exact rationals for rational-only centers, and for the
others intervals whose precision doubles up to a cap.

A cell verdict of "confirmed (exact, n)" means the property vanished in
exact rational arithmetic on every instance — randomized-identity
evidence, reported as confirmation, never as proof.  A single provably
nonzero residual is kept as a counterexample witness with the full
rational instance.
"""

from __future__ import annotations

import json
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
    generate,
)


def _fmt_q(q) -> str:
    n, d = numden(q)
    return f"{n}/{d}" if d != 1 else str(n)


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


@dataclass
class CellResult:
    center: str
    property: int
    tally: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def record(self, status: str):
        self.tally[status] = self.tally.get(status, 0) + 1

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

    def to_csv(self) -> str:
        props = sorted({c.property for c in self.cells})
        centers = sorted({c.center for c in self.cells})
        index = {(c.center, c.property): c for c in self.cells}
        lines = ["center," + ",".join(f"P{int(p)}" for p in props)]
        for ctr in centers:
            row = [ctr]
            for p in props:
                cell = index.get((ctr, p))
                row.append("" if cell is None else cell.summary().replace(",", ";"))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        props = sorted({c.property for c in self.cells})
        centers = sorted({c.center for c in self.cells})
        index = {(c.center, c.property): c for c in self.cells}
        head = "| center | " + " | ".join(P.PropertyId(p).name for p in props) + " |"
        sep = "|" + "---|" * (len(props) + 1)
        lines = [head, sep]
        for ctr in centers:
            row = [ctr]
            for p in props:
                cell = index.get((ctr, p))
                row.append("" if cell is None else cell.summary())
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# evaluation


def evaluate_cell_on_instance(e: EdgeLengths, entry, r, prop: P.PropertyId,
                              precision_cap: int = S.DEFAULT_BITS_CAP) -> P.Verdict:
    """One (instance, center, property) evaluation: exact for rational-only
    centers, else intervals whose precision doubles up to `precision_cap`
    while a comparison stays undecided."""
    bits = S.DEFAULT_BITS
    while True:
        mode = EvalMode() if entry.rational_only else EvalMode.interval(bits)
        try:
            pts = face_points(e, entry, r=r, mode=mode)
            return P.check_property(e, pts, prop, mode)
        except Undecided:
            if bits >= precision_cap:
                return P.Verdict(P.UNDECIDED,
                                 note=f"still undecided at the {precision_cap}-bit cap")
            bits = min(2 * bits, precision_cap)


def run_screen(plan: ScreenPlan) -> ScreenReport:
    """Evaluate the full matrix; deterministic for a given plan+seed."""
    return run_screen_on_instances(plan, generate(plan.family, plan.seed, plan.count))


def run_screen_on_instances(plan: ScreenPlan, instances) -> ScreenReport:
    import time

    t0 = time.monotonic()
    cells = {}
    for spec in plan.centers:
        entry = plan.catalog[spec.id]
        for prop in plan.properties:
            cells[(spec.label(), prop)] = CellResult(spec.label(), int(prop))
    for idx, inst in enumerate(instances):
        for spec in plan.centers:
            entry = plan.catalog[spec.id]
            for prop in plan.properties:
                cell = cells[(spec.label(), prop)]
                try:
                    verdict = evaluate_cell_on_instance(
                        inst, entry, spec.r, prop, plan.precision_cap)
                except EvaluationSingular as exc:
                    cell.record(P.SKIPPED)
                    if len(cell.errors) < 3:
                        cell.errors.append({"instance": idx, "error": str(exc)})
                    continue
                except TetraScreenError as exc:
                    cell.record("error")
                    if len(cell.errors) < 3:
                        cell.errors.append({"instance": idx, "error": str(exc)})
                    continue
                cell.record(verdict.status)
                if verdict.status == P.FAILS and len(cell.witnesses) < 3:
                    witness = {"instance_index": idx,
                               "instance": inst.to_json_dict()}
                    for k, v in verdict.witness.items():
                        witness[k] = _fmt_scalar(v) if k == "residual" else v
                    cell.witnesses.append(witness)
                if verdict.note and verdict.note not in cell.notes:
                    cell.notes.append(verdict.note)
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


def _power_exponent(entry, r) -> object | None:
    """The integer exponent p when the entry is projectively the power
    point a^p (trilinear), else None.  Decided exactly by factor matching
    on two prime-sided triangles."""
    from .triangle import TriangleSides

    first_p = None
    for (x, y, z) in ((3, 5, 7), (7, 11, 13)):
        try:
            tri = entry.areal_on(TriangleSides(Q(x), Q(y), Q(z)), r=r)
        except TetraScreenError:
            return None
        a, b, c = tri.tuple()
        if not all(S.is_exact(v) and v != 0 for v in (a, b, c)):
            return None
        # trilinear alpha/beta must equal (x/y)^p
        alpha, beta = Q(a) / x, Q(b) / y
        v = alpha / beta
        n, d = numden(v)
        if n < 0:
            return None
        base_n, base_d = x, y
        p = 0
        if n != d:
            # p > 0: v = (x/y)^p, p < 0: v = (y/x)^(-p)
            for sign in (1, -1):
                bn, bd = (base_n, base_d) if sign > 0 else (base_d, base_n)
                k = 0
                nn, dd = n, d
                while nn % bn == 0 and dd % bd == 0:
                    nn //= bn
                    dd //= bd
                    k += 1
                if nn == 1 and dd == 1 and k > 0:
                    p = sign * k
                    break
            else:
                return None
        if v != Q(base_n, base_d) ** p:
            return None
        gamma = Q(c) / z
        if beta / gamma != Q(y, z) ** p:
            return None
        if first_p is None:
            first_p = p
        elif p != first_p:
            return None
    return first_p


def _projectively_equal_entries(entry_a, r_a, entry_b, r_b, samples=5) -> bool:
    from .triangle import TriangleSides
    import random

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
    specs = []
    for entry in catalog:
        if not entry.rational_only:
            continue
        if entry.takes_r:
            for r in (-2, -1, 0, 1, 2, 3):
                specs.append(CenterSpec(entry.id, Q(r)))
        else:
            specs.append(CenterSpec(entry.id))
    return specs


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
    reports the exhausted budget when none is found.  A budget below 1, a
    catalog without rational-only centers, or one whose every center is
    excluded or degenerate would try nothing, so all three are refused.
    """
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
                                TetraFamily.GENERAL, _is_power_entry)
    if claim == "planarity-impossibility":
        return _hunt_uniqueness(catalog, seed, budget, P.PropertyId.COPLANAR,
                                TetraFamily.ISOSCELES, lambda e, r: False)
    if claim.startswith("conjecture-"):
        return _hunt_conjecture(claim, catalog, seed, budget)
    raise UnknownId(f"unknown hunt claim {claim!r}; known: {', '.join(HUNT_CLAIMS)}")


def _is_centroid_entry(entry, r) -> bool:
    return _projectively_equal_entries(entry, r, builtin_catalog()["X2"], None)


def _is_power_entry(entry, r) -> bool:
    return _power_exponent(entry, r) is not None


def _hunt_uniqueness(catalog, seed, budget, prop, family, excluded) -> dict:
    specs = default_hunt_specs(catalog)
    refuted, excluded_specs, survivors = [], [], []
    for spec in specs:
        entry = catalog[spec.id]
        if excluded(entry, spec.r):
            excluded_specs.append(spec.label())
            continue
        found = None
        evaluated = 0
        for k in range(budget):
            inst = generate(family, _spec_seed(seed, spec, k), 1)[0]
            try:
                verdict = evaluate_cell_on_instance(inst, entry, spec.r, prop)
            except EvaluationSingular:
                continue
            except TetraScreenError:
                continue
            evaluated += 1
            if verdict.status == P.FAILS:
                found = {"center": spec.label(), "instances_tried": k + 1,
                         "instance": inst.to_json_dict()}
                break
            if verdict.status == P.SKIPPED and prop is P.PropertyId.HYPERBOLIC \
                    and verdict.payload.get("identity_holds") is False:
                found = {"center": spec.label(), "instances_tried": k + 1,
                         "instance": inst.to_json_dict(),
                         "note": "identity fails on a degenerate configuration"}
                break
        if found:
            refuted.append(found)
        elif evaluated == 0:
            # the formula never defines a finite point here; not a center
            # of these faces, so it cannot witness against uniqueness
            excluded_specs.append(f"{spec.label()} (degenerate on this family)")
        else:
            survivors.append(spec.label())
    if not refuted and not survivors:
        raise ValueError("every center of the catalog is excluded or degenerate "
                         "on this family, so the hunt would try none")
    return {
        "claim_supported": not survivors,
        "refuted": refuted,
        "excluded": excluded_specs,
        "survivors": survivors,
        "budget": budget,
    }


def _spec_seed(seed, spec, k) -> int:
    import zlib

    return zlib.adler32(f"{seed}|{spec.label()}|{k}".encode())


_CONJECTURE_PROPS = {
    "conjecture-central-isosceles": (P.PropertyId.CENTRAL_ISOSCELES, TetraFamily.ISOSCELES),
    "conjecture-central-regular": (P.PropertyId.CENTRAL_REGULAR, None),
    "conjecture-similar-centroid": (P.PropertyId.SIMILAR_TO_REFERENCE, None),
    "conjecture-equal-cevians-isosceles": (P.PropertyId.EQUAL_CEVIANS, TetraFamily.ISOSCELES),
}


def _hunt_conjecture(claim, catalog, seed, budget) -> dict:
    """Search (instance, center) pairs for a counterexample to the
    conjectured implication; for the similarity conjecture the center
    must differ from the centroid, for the family conjectures the
    reference must lie outside the conjectured family."""
    prop, excluded_family = _CONJECTURE_PROPS[claim]
    specs = default_hunt_specs(catalog)
    if claim == "conjecture-similar-centroid":
        specs = [s for s in specs if not _is_centroid_entry(catalog[s.id], s.r)]
    if not specs:
        raise ValueError(f"no center of the catalog can be tried for {claim}")
    from .tetrahedron import family_predicate

    tried = 0
    k = 0
    while tried < budget:
        inst = generate(TetraFamily.GENERAL, _spec_seed(seed, CenterSpec(claim), k), 1)[0]
        k += 1
        for spec in specs:
            if tried >= budget:
                break
            entry = catalog[spec.id]
            tried += 1
            try:
                verdict = evaluate_cell_on_instance(inst, entry, spec.r, prop)
            except TetraScreenError:
                continue
            if not verdict.holds:
                continue
            if excluded_family is not None and family_predicate(inst, excluded_family):
                continue
            if claim == "conjecture-central-regular":
                all_eq = len({str(x) for x in inst.edges()}) == 1
                if all_eq:
                    continue
            return {"counterexample": {"center": spec.label(),
                                       "instance": inst.to_json_dict()},
                    "claim_supported": False, "budget": budget, "tried": tried}
    return {"counterexample": None, "claim_supported": "exhausted",
            "budget": budget, "tried": tried}
