"""Registry of the screened identities, one case per lettered claim.

Each case re-derives its statement on n seeded random instances of its
tetrahedron family and checks the full payload (concurrence-point
coordinate patterns, Euler-line parameters, coincidences) exactly.
Passing means "confirmed (randomized exact)": exact vanishing at n random
rational parameter points, never a symbolic proof.

Most cases are rows of `_CASES`: a check kind with its arguments, run by
`_all_instances_pass` or `_isosceles_catalog_case`.  Claims that need
their own loop keep a bespoke check or runner.

Three kinds of special handling, documented per case in `notes`:

* Several coincidence identities hold for the formula-weighted vertex
  combination (raw coordinate displays summed without per-point
  normalization) but NOT for the geometric centroid of the four points;
  such cases verify the weighted reading and record the geometric verdict
  alongside.
* A ruled-surface (hyperbolic) claim about cevians that actually concur
  is vacuously degenerate; the case then requires the algebraic spear
  identity to hold exactly.
* Cases whose center formulas could not be curated are SKIPPED with the
  reason recorded, and `expected_to_fail` cases document claims that do
  not reproduce under exact arithmetic (kept red deliberately).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from itertools import permutations

from . import geometry as G
from . import properties as P
from . import scalar as S
from ._backend import Q
from .catalog import Catalog, builtin_catalog, parse_center_spec
from .errors import EvaluationSingular, TetraScreenError, UnknownId
from .screen import _fmt_q, _fmt_scalar, hunt_counterexample
from .tetrahedron import (
    EdgeLengths,
    SpaceCenterKind,
    TetraFamily,
    face_points,
    family_constant,
    family_predicate,
    formula_weighted_sum,
    generate,
    generate_shifted_product,
    space_center,
    space_center_of_points,
    euler_param,
    euler_param_of_points,
    embed_areal_on_face,
)

PASS, FAIL, SKIP = "pass", "fail", "skip"
PID = P.PropertyId


@dataclass
class CaseResult:
    case_id: str
    status: str
    mode: str = "exact"
    n: int = 0
    details: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json_obj(self, description: str = "") -> dict:
        obj = {"id": self.case_id, "status": self.status, "mode": self.mode,
               "n": self.n, "details": self.details, "notes": self.notes}
        if description:
            obj["description"] = description
        return obj


@dataclass(frozen=True)
class TheoremCase:
    id: str
    family: str            # family value or generator tag
    description: str
    n_default: int
    check: object = None   # the generic runner's check: callable(inst, catalog) ->
                           # (ok, detail), or callable(inst, pts) for catalog cells
    runner: object = None  # callable(case, n, seed, catalog, pool) -> CaseResult;
                           # None runs `check` through _all_instances_pass
    notes: tuple = ()
    details: dict = field(default_factory=dict, compare=False)  # echoed in the report
    expected_to_fail: bool = False

    def run(self, n: int | None = None, seed: int = 0,
            catalog: Catalog | None = None, pool: dict | None = None) -> CaseResult:
        """Run the case on n instances (default n_default).  `pool` shares
        generated instances between the cases of one verify run."""
        n = self.n_default if n is None else n
        if n < 1:
            raise ValueError(f"instance count must be at least 1, got {n}")
        catalog = builtin_catalog() if catalog is None else catalog
        pool = {} if pool is None else pool
        result = (self.runner or _all_instances_pass)(self, n, seed, catalog, pool)
        result.details.update(copy.deepcopy(self.details))
        result.notes.extend(self.notes)
        return result


def _instances(pool: dict, family: str, n: int, seed: int):
    """The first n instances of a family (or generator tag).

    Instance k depends only on (seed, k, family), so a shorter list is a
    prefix of a longer one: `pool` keeps the longest list generated so far
    per (family, seed) and regenerates only when a case needs more.
    """
    have = pool.get((family, seed), [])
    if len(have) < n:
        if family == "shifted-product":
            have = generate_shifted_product(seed, n)
        else:
            have = generate(TetraFamily(family), seed, n)
        pool[(family, seed)] = have
    return have[:n]


def _nonvacuous(result: CaseResult, key: str, count: int, why: str) -> CaseResult:
    """Record how many items a passing case confirmed; none is a failure."""
    result.details[key] = count
    if count == 0:
        result.status = FAIL
        result.details["failure"] = why
    return result


def _all_instances_pass(case, n, seed, catalog, pool, check=None) -> CaseResult:
    """Run `check(instance, catalog) -> (ok, detail_or_None)` over n
    instances; all must pass."""
    check = check or case.check
    result = CaseResult(case.id, PASS, n=n)
    for idx, inst in enumerate(_instances(pool, case.family, n, seed)):
        try:
            ok, detail = check(inst, catalog)
        except EvaluationSingular as exc:
            result.details.setdefault("skipped_instances", []).append(
                {"index": idx, "reason": str(exc)})
            continue
        if not ok:
            result.status = FAIL
            result.details["failing_instance"] = inst.to_json_dict()
            if detail:
                result.details["failure"] = detail
            break
    skipped = len(result.details.get("skipped_instances", []))
    if result.status == PASS and skipped >= n:
        result.status = SKIP
        result.notes.append("all instances were singular for this center")
    return result


def _isosceles_catalog_case(case, n, seed, catalog, pool) -> CaseResult:
    """Run the cell check `case.check(inst, pts)` on every rational-only
    catalog center of n isosceles instances."""
    result = CaseResult(case.id, PASS, n=n)
    checked = 0
    skipped = 0
    for inst in _instances(pool, "isosceles", n, seed):
        for entry in catalog:
            if not entry.rational_only:
                continue
            r = Q(2) if entry.takes_r else None
            try:
                pts = face_points(inst, entry, r=r)
            except EvaluationSingular:
                skipped += 1
                continue
            ok, detail = case.check(inst, pts)
            checked += 1
            if not ok:
                result.status = FAIL
                result.details["failing_instance"] = inst.to_json_dict()
                result.details["failing_center"] = entry.id
                if detail:
                    result.details["failure"] = detail
                return result
    result.details["cells_skipped_singular"] = skipped
    return _nonvacuous(result, "cells_checked", checked, "no catalog cell was checked")


# ---------------------------------------------------------------------
# check kinds.  A cell kind takes (inst, pts), the face points of one
# center; `_on` turns it into an instance check for a fixed center.


_CENTROID_TUPLE = G.TetraPoint(Q(1), Q(1), Q(1), Q(1))


def _verdict_ok_hyperbolic(v: P.Verdict) -> bool:
    if v.status == P.HOLDS_EXACT:
        return True
    return (v.status == P.SKIPPED and v.payload.get("identity_holds")
            and v.payload.get("identity_exact", False))


def _on(center, cell):
    """Instance check: `cell` on the face points of one catalog center."""
    return lambda inst, catalog: cell(inst, face_points(inst, catalog[center]))


def _holds(prop, at=None, **payload):
    """Cell kind: property `prop` holds exactly, with the given payload
    values and, when `at` is given, at the point `at(inst)`."""
    def cell(inst, pts):
        v = P.check_property(inst, pts, prop)
        ok = (v.status == P.HOLDS_EXACT
              and all(v.payload.get(key) == value for key, value in payload.items())
              and (at is None or ("point" in v.payload
                                  and v.payload["point"].proj_eq(at(inst)))))
        return ok, v.status
    return cell


def _ruled(inst, pts):
    """Cell kind: the cevians rule a quadric (or concur with the spear
    identity exact).  It reads no hyperboloid center, so none is built."""
    v = P.check_hyperbolic(inst, pts, with_center=False)
    return _verdict_ok_hyperbolic(v), v.status


def _central_center(kind, target):
    """Cell kind: the `kind` center of the four face points is `target(inst)`."""
    def cell(inst, pts):
        return space_center_of_points(pts, inst.metric(), kind).proj_eq(target(inst)), None
    return cell


def _param_is(param, t):
    ok = param is not None and param.t == t
    return ok, None if ok else {"t": None if param is None else _fmt_q(param.t)}


def _central_on_euler(kind, t):
    """Cell kind: the central `kind` center lies on the reference Euler line at t."""
    def cell(inst, pts):
        return _param_is(euler_param(inst, space_center_of_points(pts, inst.metric(), kind)), t)
    return cell


def _reference_on_euler(kind, t):
    """Cell kind: the reference `kind` center lies on the central Euler line at t."""
    def cell(inst, pts):
        met = inst.metric()
        o = space_center_of_points(pts, met, SpaceCenterKind.CIRCUMCENTER)
        g = space_center_of_points(pts, met, SpaceCenterKind.CENTROID)
        return _param_is(euler_param_of_points(o, g, space_center(inst, kind)), t)
    return cell


def _weighted_sum(center, target, values="areal", rs=(None,)):
    """Instance check: the formula-weighted combination of the center's
    face tuples is `target(inst)`, for each exponent r in `rs`."""
    def check(inst, catalog):
        for r in rs:
            w = formula_weighted_sum(inst, catalog[center], r=None if r is None else Q(r),
                                     values=values)
            if not w.proj_eq(target(inst)):
                detail = {"weighted_point": [_fmt_scalar(c) for c in w.tuple()]}
                if r is not None:
                    detail["r"] = r
                return False, detail
        return True, None
    return check


def _ruled_family(centers):
    """Instance check: each center's cevians rule a quadric; a center
    singular on the instance is passed over."""
    def check(inst, catalog):
        for cid in centers:
            try:
                pts = face_points(inst, catalog[cid])
            except EvaluationSingular:
                continue
            ok, status = _ruled(inst, pts)
            if not ok:
                return False, {"center": cid, "status": status}
        return True, None
    return check


def _quadric_case(case_id, family, center, name=None, conjugates=True):
    """Row: the cevians to `center` (and, with `conjugates`, to its
    isotomic and isogonal conjugates) rule a quadric."""
    centers = [center, f"{center}^T", f"{center}^-1"] if conjugates else [center]
    what = "cevians and conjugates" if conjugates else "cevians"
    return TheoremCase(case_id, family, f"{name or center} {what} rule a quadric", 100,
                       _ruled_family(centers), details={"centers": centers})


# ---------------------------------------------------------------------
# expected points


def _centroid(inst):
    return _CENTROID_TUPLE


def _reference(kind):
    return lambda inst: space_center(inst, kind)


def _tangent_lengths(inst):
    t = family_constant(inst, TetraFamily.CIRCUMSCRIPTIBLE)
    a1, a2, a3 = inst.a1, inst.a2, inst.a3
    return (a2 + a3 - a1, a3 + a1 - a2, a1 + a2 - a3, 2 * t - (a1 + a2 + a3))


def _squared_tangent_lengths(inst):
    t = family_constant(inst, TetraFamily.ORTHOCENTRIC)
    s1, s2, s3 = inst.a1 ** 2, inst.a2 ** 2, inst.a3 ** 2
    return (s2 + s3 - s1, s3 + s1 - s2, s1 + s2 - s3, 2 * t - (s1 + s2 + s3))


def _direct(lengths):
    """Expected point (d1, d2, d3, w) of the family's lengths."""
    return lambda inst: G.TetraPoint(*lengths(inst))


def _reciprocal(lengths):
    """Expected point reciprocal in the family's lengths, 4th coordinate
    the triple product."""
    def point(inst):
        d1, d2, d3, w = lengths(inst)
        return G.TetraPoint(d2 * d3 * w, d3 * d1 * w, d1 * d2 * w, d1 * d2 * d3)
    return point


# ---------------------------------------------------------------------
# bespoke checks and runners


def _t53(inst, catalog):
    for r in (-2, -1, 0, 1, 2, 3):
        pts = face_points(inst, catalog["POW"], r=Q(r))
        v = P.check_hyperbolic(inst, pts)
        if not _verdict_ok_hyperbolic(v):
            return False, {"r": r, "status": v.status}
        if v.status == P.HOLDS_EXACT and "center" in v.payload:
            lines = [P.cevian(inst, i, pts[i - 1]) for i in (1, 2, 3, 4)]
            for triple in list(permutations(range(4), 3))[:6]:
                alt = P.hyperboloid_center([lines[k] for k in triple])
                if not alt.proj_eq(v.payload["center"]):
                    return False, {"r": r, "detail": "center not permutation-invariant"}
    return True, None


def _t81a(case, n, seed, catalog, pool):
    stated_matches = set()

    def check(inst, catalog):
        t = family_constant(inst, TetraFamily.ISODYNAMIC)
        a1, a2, a3 = inst.a1, inst.a2, inst.a3
        for r in (-1, 0, 1, 2):
            v = P.check_concurrence(inst, face_points(inst, catalog["POW"], r=Q(r)))
            if v.status != P.HOLDS_EXACT or "point" not in v.payload:
                return False, {"r": r, "status": v.status}
            q = r + 1
            expected = G.TetraPoint((t * a1) ** q, (t * a2) ** q, (t * a3) ** q,
                                    (a1 * a2 * a3) ** q)
            if not v.payload["point"].proj_eq(expected):
                return False, {"r": r, "detail": "pattern mismatch"}
            stated = G.TetraPoint(a1 ** q, a2 ** q, a3 ** q, a1 * a2 ** q * a3)
            stated_matches.add((r, v.payload["point"].proj_eq(stated)))
        return True, None
    result = _all_instances_pass(case, n, seed, catalog, pool, check)
    result.details["stated_4th_coordinate_matches"] = sorted(
        f"r={r}: {m}" for r, m in stated_matches)
    return result


def _t81d(inst, catalog):
    points = []
    for i in (1, 2, 3, 4):
        s1, s2, s3 = inst.face_side_triple(i)
        # two points of the line x/s1^2 + y/s2^2 + z/s3^2 = 0, embedded
        points.append(embed_areal_on_face(i, (s1 * s1, -(s2 * s2), Q(0))))
        points.append(embed_areal_on_face(i, (s1 * s1, Q(0), -(s3 * s3))))
    rows = [p.tuple() for p in points]
    # all eight points coplanar <=> every 4x4 minor with the first two
    # rows fixed vanishes (the first two points span with any two others)
    for i in range(2, 8):
        for j in range(i + 1, 8):
            if G.det4_sign([rows[0], rows[1], rows[i], rows[j]]) != 0:
                return False, {"minor": (0, 1, i, j)}
    return True, None


def _t91f(inst, catalog):
    pts = face_points(inst, catalog["X4"])
    met = inst.metric()
    g_raw = formula_weighted_sum(inst, catalog["X4"]).normalized()
    o = space_center_of_points(pts, met, SpaceCenterKind.CIRCUMCENTER).normalized()
    monge = G.TetraPoint(*(2 * g_raw.tuple()[i] - o.tuple()[i] for i in range(4)))
    return _param_is(euler_param(inst, monge), Q(8, 3))


def _t101b(inst, catalog):
    for cid in ("X117", "X117^T"):
        v = P.check_concurrence(inst, face_points(inst, catalog[cid]))
        if v.status != P.HOLDS_EXACT:
            return False, {"center": cid, "status": v.status}
    return True, None


def _t121(case, n, seed, catalog, pool):
    result = CaseResult(case.id, PASS, n=n)
    families = ("circumscriptible", "isodynamic", "harmonic", "shifted-product")
    for fam in families:
        for inst in _instances(pool, fam, n, seed):
            if not P.feuerbach_planarity_condition(inst):
                result.status = FAIL
                result.details["failure"] = {"family": fam, "which": "determinant"}
                result.details["failing_instance"] = inst.to_json_dict()
                return result
            try:
                v = P.check_coplanar(inst, face_points(inst, catalog["X11"]))
            except EvaluationSingular:
                continue
            if v.status != P.HOLDS_EXACT:
                result.status = FAIL
                result.details["failure"] = {"family": fam, "which": "coplanarity"}
                result.details["failing_instance"] = inst.to_json_dict()
                return result
    result.details["families"] = list(families)
    return result


def _t122(case, n, seed, catalog, pool):
    res = hunt_counterexample("planarity-impossibility", budget=1000, seed=seed,
                              catalog=catalog)
    result = CaseResult(case.id, PASS if res["claim_supported"] else FAIL,
                        n=len(res["refuted"]))
    result.details["survivors"] = res["survivors"]
    result.details["centers_refuted"] = len(res["refuted"])
    if "errors" in res:
        result.details["errors"] = res["errors"]
    return result


def _t131(case, n, seed, catalog, pool):
    rng = random.Random(seed)
    result = CaseResult(case.id, PASS, n=n)
    insts = _instances(pool, "general", max(1, n // 20), seed)
    done = 0
    while done < n:
        inst = insts[done % len(insts)]
        met = inst.metric()
        # random point on face 1
        y, z = Q(rng.randint(1, 9)), Q(rng.randint(1, 9))
        w = Q(rng.randint(1, 9))
        p1 = G.TetraPoint(Q(0), y, z, w).normalized()
        conforming = done % 2 == 0
        if conforming:
            # solve the affine condition for p2 = x*A1 + z*A3 + w*A4
            a1v, _, a3v, a4v = G.VERTICES
            g = {}
            for name, vert in (("A1", a1v), ("A3", a3v), ("A4", a4v)):
                g[name] = (G.squared_distance(vert, a3v, met)
                           - G.squared_distance(vert, a4v, met))
            target = (G.squared_distance(p1, a3v, met)
                      - G.squared_distance(p1, a4v, met))
            x = Q(rng.randint(1, 5), rng.randint(1, 3))
            # z + w = 1 - x and g_A1 x + g_A3 z + g_A4 w = target
            rhs = target - g["A1"] * x
            den = g["A3"] - g["A4"]
            z2 = S.div(rhs - g["A4"] * (1 - x), den)
            w2 = (1 - x) - z2
            try:
                p2 = G.TetraPoint(x, Q(0), z2, w2)
            except TetraScreenError:
                continue
        else:
            p2 = G.TetraPoint(Q(rng.randint(1, 9)), Q(0), Q(rng.randint(1, 9)),
                              Q(rng.randint(1, 9))).normalized()
        residual = P.tabov_pair_residual(met, p1, p2)
        n1 = P.face_normal_line(inst, 1, p1)
        n2 = P.face_normal_line(inst, 2, p2)
        meet = G.det4_sign([n1.base.tuple(), n1.direction.tuple(),
                            n2.base.tuple(), n2.direction.tuple()]) == 0
        if (residual == 0) != meet:
            result.status = FAIL
            result.details["failure"] = {
                "instance": inst.to_json_dict(),
                "residual": _fmt_scalar(residual), "normals_meet": meet}
            return result
        done += 1
    return _nonvacuous(result, "pairs_checked", done, "no pair was checked")


def _has(v: P.Verdict, prop) -> bool:
    return v.holds or (prop is PID.HYPERBOLIC and _verdict_ok_hyperbolic(v))


def _closure(bases, variants, prop=PID.CONCUR, key="pairs_confirmed"):
    """Runner: wherever the cevians to a base center (family, spec) have
    `prop`, so do those of each `(label, entry, r)` in `variants(entry, r)`."""
    def run(case, n, seed, catalog, pool):
        result = CaseResult(case.id, PASS, n=n)
        checked = 0
        for fam, spec in bases:
            cid, r = parse_center_spec(spec)
            entry = catalog[cid]
            derived = variants(entry, r)
            for inst in _instances(pool, fam, max(1, n // len(bases)), seed):
                try:
                    if not _has(P.check_property(inst, face_points(inst, entry, r=r), prop), prop):
                        continue
                    for label, d_entry, d_r in derived:
                        v = P.check_property(inst, face_points(inst, d_entry, r=d_r), prop)
                        if not _has(v, prop):
                            result.status = FAIL
                            result.details["failure"] = {"family": fam, "center": spec,
                                                         "variant": label, "status": v.status}
                            result.details["failing_instance"] = inst.to_json_dict()
                            return result
                except EvaluationSingular:
                    continue
                checked += 1
        return _nonvacuous(result, key, checked, "no base center had the property")
    return run


def _cl_converse(case, n, seed, catalog, pool):
    rng = random.Random(seed)
    entry = catalog["CEV1"]
    result = CaseResult(case.id, PASS, n=n)
    tested = 0
    for inst in _instances(pool, "circumscriptible", n, seed):
        edges = list(inst.edges())
        k = rng.randrange(6)
        edges[k] = edges[k] + Q(rng.randint(1, 9), rng.randint(10, 40))
        try:
            pert = EdgeLengths(*edges).require_valid()
        except TetraScreenError:
            continue
        v = P.check_concurrence(pert, face_points(pert, entry, r=Q(1)))
        tested += 1
        if v.holds and not family_predicate(pert, TetraFamily.CIRCUMSCRIPTIBLE):
            result.status = FAIL
            result.details["failing_instance"] = pert.to_json_dict()
            return result
    return _nonvacuous(result, "perturbed_instances_tested", tested,
                       "no perturbed instance was valid")


# ---------------------------------------------------------------------
# the table

_WEIGHTED_NOTE = (
    "weighted reading (canonical areal values summed without normalization); "
    "the geometric centroid of the four points does not satisfy the claim")

_NOT_CURATED_NOTE = (
    "not curated: no reliable formula is known for this id — the extended "
    "numbering above X101 does not match the public ETC (the X102/X117 "
    "formulas here name different points than ETC's), and the ETC points of "
    "the same numbers are bicentric or fail the strict b<->c symmetry the "
    "expression language enforces")

_CASES = (
    # arbitrary tetrahedra
    TheoremCase("T5.1a", "general", "face-centroid central faces parallel to reference faces", 100,
                _on("X2", _holds(PID.FACES_PARALLEL))),
    TheoremCase("T5.1b", "general", "face-centroid cevians concur at the reference centroid", 100,
                _on("X2", _holds(PID.CONCUR, at=_centroid))),
    TheoremCase("T5.1c", "general", "face-centroid central tetrahedron similar, squared ratio 1/9",
                100, _on("X2", _holds(PID.SIMILAR_TO_REFERENCE, ratio_squared=Q(1, 9)))),
    TheoremCase("T5.1d", "general", "face-centroid central centroid = reference centroid", 100,
                _on("X2", _central_center(SpaceCenterKind.CENTROID, _centroid))),
    TheoremCase("T5.1e", "general", "face-centroid central circumcenter = reference Euler point",
                100, _on("X2", _central_center(SpaceCenterKind.CIRCUMCENTER,
                                               _reference(SpaceCenterKind.EULER)))),
    TheoremCase("T5.1f", "general",
                "face-centroid central Monge on reference Euler line at t = 2/3", 100,
                _on("X2", _central_on_euler(SpaceCenterKind.MONGE, Q(2, 3)))),
    TheoremCase("T5.1g", "general",
                "face-centroid central Euler point on reference Euler line at t = 8/9", 100,
                _on("X2", _central_on_euler(SpaceCenterKind.EULER, Q(8, 9)))),
    TheoremCase("T5.1h", "general", "reference circumcenter on the central Euler line at t = 4",
                100, _on("X2", _reference_on_euler(SpaceCenterKind.CIRCUMCENTER, Q(4)))),
    TheoremCase("T5.1i", "general", "reference Monge point on the central Euler line at t = -2",
                100, _on("X2", _reference_on_euler(SpaceCenterKind.MONGE, Q(-2)))),
    TheoremCase("T5.2", "general",
                "normals at face circumcenters concur at the reference circumcenter", 100,
                _on("X3", _holds(PID.NORMALS_CONCUR,
                                 at=_reference(SpaceCenterKind.CIRCUMCENTER)))),
    TheoremCase("T5.3", "general",
                "power-point cevians rule a quadric for r in {-2,-1,0,1,2,3}; center payload "
                "permutation-invariant", 50, _t53),
    TheoremCase("T5.4", "general",
                "2a^r+b^r+c^r points: formula-weighted vertex combination = reference centroid "
                "(r in {1,2})", 100, _weighted_sum("Z8", _centroid, "trilinear", rs=(1, 2)),
                notes=("weighted reading (bare symmetric values summed); the geometric "
                       "centroid of the four points differs from the reference centroid on "
                       "generic instances",)),
    # isosceles
    TheoremCase("T6a", "isosceles", "every catalog center: the four cevians have equal length",
                20, _holds(PID.EQUAL_CEVIANS), _isosceles_catalog_case),
    TheoremCase("T6b", "isosceles", "every catalog center: the central tetrahedron is isosceles",
                20, _holds(PID.CENTRAL_ISOSCELES), _isosceles_catalog_case),
    TheoremCase("T6c", "isosceles", "every catalog center: central centroid = reference centroid",
                20, _central_center(SpaceCenterKind.CENTROID, _centroid),
                _isosceles_catalog_case),
    TheoremCase("T6d", "isosceles",
                "every catalog center: the cevians rule a quadric (spear identity exact)", 20,
                _ruled, _isosceles_catalog_case),
    # circumscriptible
    TheoremCase("T7a", "circumscriptible",
                "Gergonne cevians concur; point reciprocal in the four tangent lengths "
                "(4th coordinate the stated triple product)", 100,
                _on("X7", _holds(PID.CONCUR, at=_reciprocal(_tangent_lengths)))),
    TheoremCase("T7b", "circumscriptible",
                "Nagel cevians concur; 4th coordinate proportional to a1+a2+a3-2t (factor -1)",
                100, _on("X8", _holds(PID.CONCUR, at=_direct(_tangent_lengths))),
                notes=("stated polynomial a1+a2+a3-2t matches with constant ratio -1",)),
    TheoremCase("T7c", "circumscriptible", "the four Feuerbach points are coplanar", 100,
                _on("X11", _holds(PID.COPLANAR))),
    TheoremCase("T7d", "circumscriptible", "normals at the incenters concur", 100,
                _on("X1", _holds(PID.NORMALS_CONCUR))),
    TheoremCase("T7e", "circumscriptible", "normals at the X40 (Bevan) points concur", 100,
                _on("X40", _holds(PID.NORMALS_CONCUR))),
    _quadric_case("T7.2a", "circumscriptible", "X7", "Gergonne"),
    _quadric_case("T7.2b", "circumscriptible", "X8", "Nagel"),
    _quadric_case("T7.2c", "circumscriptible", "X9", "Mittenpunkt"),
    _quadric_case("T7.2d", "circumscriptible", "X41"),
    _quadric_case("T7.2e", "circumscriptible", "X11", "Feuerbach"),
    # isodynamic
    TheoremCase("T8.1a", "isodynamic",
                "power-point cevians concur for r in {-1,0,1,2}; point follows the "
                "(t a_i)^(r+1) pattern; the stated a1 a2^(r+1) a3 coordinate is recorded, "
                "not asserted", 100, runner=_t81a,
                notes=("the classically stated 4th coordinate is asymmetric in a1, a3 and "
                       "does not match; the verified pattern is ((t a1)^q, (t a2)^q, "
                       "(t a3)^q, (a1 a2 a3)^q), q = r+1",)),
    TheoremCase("T8.1b", "isodynamic", "the four Feuerbach points are coplanar", 100,
                _on("X11", _holds(PID.COPLANAR))),
    TheoremCase("T8.1c", "isodynamic", "the four X44 points are coplanar", 100,
                _on("X44", _holds(PID.COPLANAR))),
    TheoremCase("T8.1d", "isodynamic", "the four face symmedian axes (trilinear polars of the "
                "symmedian points) are coplanar", 100, _t81d,
                notes=("embedding assumption: the face line x/a^2+y/b^2+z/c^2=0 is mapped "
                       "through two of its points per the face coordinate displays",)),
    TheoremCase("T8.1e", "isodynamic",
                "circumcenter of the X76 points = reference centroid (does not reproduce)", 100,
                _on("X76", _central_center(SpaceCenterKind.CIRCUMCENTER, _centroid)),
                notes=("claim does not hold under exact arithmetic for X76 = isotomic "
                       "conjugate of the symmedian point (trilinear 1/a^3); no power point "
                       "a^r (r in -12..12), no catalog center or conjugate, and neither the "
                       "geometric, formula-weighted nor raw-distance circumcenter reading "
                       "satisfies it; kept red deliberately",),
                expected_to_fail=True),
    _quadric_case("T8.2a", "isodynamic", "X10", "Spieker"),
    _quadric_case("T8.2b", "isodynamic", "X37"),
    _quadric_case("T8.2c", "isodynamic", "X38"),
    _quadric_case("T8.2d", "isodynamic", "X39", "Brocard-midpoint"),
    _quadric_case("T8.2e", "isodynamic", "X42"),
    *(TheoremCase(f"T8.2{letter}", "isodynamic",
                  f"X{k} cevians rule a quadric (center formula not curated)", 100,
                  runner=lambda case, *_: CaseResult(case.id, SKIP, n=0),
                  notes=(_NOT_CURATED_NOTE,))
      for k, letter in zip(range(106, 112), "fghijk")),
    # orthocentric
    TheoremCase("T9.1a", "orthocentric",
                "orthocenter cevians concur; point reciprocal in the squared-edge complements "
                "(4th coordinate the stated triple product)", 100,
                _on("X4", _holds(PID.CONCUR, at=_reciprocal(_squared_tangent_lengths)))),
    TheoremCase("T9.1b", "orthocentric",
                "isotomic conjugates of the orthocenters concur; 4th coordinate proportional "
                "to a1^2+a2^2+a3^2-2t (factor -1)", 100,
                _on("X69", _holds(PID.CONCUR, at=_direct(_squared_tangent_lengths)))),
    TheoremCase("T9.1c", "orthocentric",
                "nine-point centers: formula-weighted combination = reference centroid", 100,
                _weighted_sum("X5", _centroid), notes=(_WEIGHTED_NOTE,)),
    TheoremCase("T9.1d", "orthocentric",
                "orthocenters: formula-weighted combination = reference Monge point", 100,
                _weighted_sum("X4", _reference(SpaceCenterKind.MONGE)), notes=(_WEIGHTED_NOTE,)),
    TheoremCase("T9.1e", "orthocentric",
                "circumcenter of the orthocenters lies on the reference Euler line "
                "(it is the reference Euler point, t = 4/3)", 100,
                _on("X4", _central_on_euler(SpaceCenterKind.CIRCUMCENTER, Q(4, 3)))),
    TheoremCase("T9.1f", "orthocentric",
                "Monge point of the orthocenters (weighted centroid doubled less the "
                "circumcenter) lies on the reference Euler line at t = 8/3", 100, _t91f,
                notes=("reproduces with the weighted centroid; the geometric central Monge "
                       "point is not on the line",)),
    TheoremCase("T9.1g", "orthocentric",
                "X53 points: formula-weighted combination = reference Monge point", 100,
                _weighted_sum("X53", _reference(SpaceCenterKind.MONGE)),
                notes=(_WEIGHTED_NOTE,)),
    TheoremCase("T9.2a", "orthocentric", "normals at the circumcenters concur", 100,
                _on("X3", _holds(PID.NORMALS_CONCUR))),
    TheoremCase("T9.2b", "orthocentric", "normals at the centroids concur", 100,
                _on("X2", _holds(PID.NORMALS_CONCUR))),
    TheoremCase("T9.2c", "orthocentric", "normals at the orthocenters concur", 100,
                _on("X4", _holds(PID.NORMALS_CONCUR))),
    TheoremCase("T9.2d", "orthocentric", "normals at the nine-point centers concur", 100,
                _on("X5", _holds(PID.NORMALS_CONCUR))),
    TheoremCase("T9.2e", "orthocentric", "normals at the de Longchamps points concur", 100,
                _on("X20", _holds(PID.NORMALS_CONCUR))),
    _quadric_case("T9.3a", "orthocentric", "X3", "circumcenter", conjugates=False),
    _quadric_case("T9.3b", "orthocentric", "X19", "Clawson (crucial) point"),
    _quadric_case("T9.3c", "orthocentric", "X25", conjugates=False),
    _quadric_case("T9.3d", "orthocentric", "X48"),
    # harmonic
    TheoremCase("T10.1a", "harmonic", "the four Feuerbach points are coplanar", 100,
                _on("X11", _holds(PID.COPLANAR))),
    TheoremCase("T10.1b", "harmonic", "X117 cevians and those of its isotomic conjugate concur",
                100, _t101b,
                notes=("the isotomic conjugate is computed directly; it is classically "
                       "labeled X102, but the X102 formula a*(1/b+1/c-1/a) is a different "
                       "(also concurring) member of the same family",)),
    _quadric_case("T10.2a", "harmonic", "X43"),
    _quadric_case("T10.2b", "harmonic", "X102", conjugates=False),
    _quadric_case("T10.2c", "harmonic", "X117", conjugates=False),
    # planarity determinant and Tabov conditions
    TheoremCase("T12.1", "circumscriptible",
                "Feuerbach determinant vanishes and the Feuerbach points are coplanar on all "
                "families it covers (tangent/product/reciprocal/shifted-product)", 50,
                runner=_t121),
    TheoremCase("T12.2", "isosceles",
                "no catalog center keeps its four face points coplanar on all isosceles "
                "instances (falsification search succeeds for every center)", 1, runner=_t122),
    TheoremCase("T13.1", "general",
                "normals at points of faces 1 and 2 meet exactly when the squared-distance "
                "sums balance (both directions, constructed points)", 200, runner=_t131),
    # closure invariants
    TheoremCase("CL-isotomic", "circumscriptible",
                "where cevians to a center concur, cevians to its isotomic conjugate concur", 50,
                runner=_closure([("circumscriptible", "X7"), ("circumscriptible", "X8"),
                                 ("orthocentric", "X4"), ("harmonic", "X117"), ("general", "X2")],
                                lambda entry, r: [("isotomic", entry.isotomic(), r)])),
    TheoremCase("CL-isogonal", "general",
                "where cevians to a center rule a quadric, so do those of its isogonal "
                "conjugate", 50,
                runner=_closure([("general", "POW:2"), ("circumscriptible", "X7"),
                                 ("isodynamic", "X10"), ("orthocentric", "X19")],
                                lambda entry, r: [("isogonal", entry.isogonal(), r)],
                                PID.HYPERBOLIC)),
    TheoremCase("CL-power", "circumscriptible",
                "where cevians to a center concur, cevians to its r-th power concur "
                "(r in {2,3,-1})", 50,
                runner=_closure([("circumscriptible", "CEV1:1")],
                                lambda entry, r: [(f"r={k}", entry, Q(k)) for k in (2, 3, -1)],
                                key="instances_confirmed")),
    TheoremCase("CL-arfq", "general",
                "where cevians to F rule a quadric, so do those of a^r F^q for "
                "(r, q) in {(1,1), (2,1), (0,2), (-2,1)}", 50,
                runner=_closure([("general", "POW:2"), ("circumscriptible", "HYP1:1"),
                                 ("isodynamic", "X10"), ("orthocentric", "X19")],
                                lambda entry, r: [(f"a^{k} F^{q}", entry.power_scaled(k, q), r)
                                                  for k, q in ((1, 1), (2, 1), (0, 2), (-2, 1))],
                                PID.HYPERBOLIC, "bases_confirmed")),
    TheoremCase("CL-converse-family", "circumscriptible",
                "tangent-length center (b+c-a): concurrence on a perturbed instance forces "
                "the tangent-sum condition", 50, runner=_cl_converse),
)

_REGISTRY: dict[str, TheoremCase] = {case.id: case for case in _CASES}


def registry() -> dict[str, TheoremCase]:
    return dict(_REGISTRY)


def get_case(case_id: str) -> TheoremCase:
    try:
        return _REGISTRY[case_id]
    except KeyError:
        raise UnknownId(f"no theorem case {case_id!r}") from None


# ---------------------------------------------------------------------
# runner


def verify_cases(case_ids, n: int | None = None, seed: int = 0,
                 catalog: Catalog | None = None) -> dict:
    """Run the given cases (or all); returns a canonical report object."""
    catalog = builtin_catalog() if catalog is None else catalog
    ids = sorted(_REGISTRY) if case_ids in (None, "all") else list(case_ids)
    cases = [get_case(cid) for cid in ids]
    pool = {}
    # generate each family once, at the largest size a table row needs;
    # bespoke runners then take prefixes of the same lists
    for case in sorted(cases, key=lambda c: c.n_default, reverse=True):
        if case.runner is None:
            _instances(pool, case.family, case.n_default if n is None else n, seed)
    results = []
    counts = {"pass": 0, "fail": 0, "skip": 0, "expected_fail": 0}
    for case in cases:
        res = case.run(n=n, seed=seed, catalog=catalog, pool=pool)
        entry = res.to_json_obj(case.description)
        entry["family"] = case.family
        if case.expected_to_fail:
            entry["expected_to_fail"] = True
        results.append(entry)
        if res.status == FAIL and case.expected_to_fail:
            counts["expected_fail"] += 1
        else:
            counts[res.status] += 1
    return {"cases": results, "summary": counts, "seed": seed}
