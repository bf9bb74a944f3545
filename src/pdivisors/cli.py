"""Command-line surface and JSON serialization.

Documents are JSON objects {"schema_version", "kind", "payload"} with
rationals as reduced "p/q" strings, infinity as "inf" and the empty
polyhedron as "empty"; keys are emitted sorted so fixtures diff cleanly.
Exit codes: 0 computed, 1 input error, 2 computed with hypothesis
violations (for instance a properness failure), 3 inconclusive search.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .base import (
    INF,
    BaseVariety,
    PrimeDivisorLabel,
    QDivisor,
    declared_label,
    global_sections,
    is_inf,
)
from .cox import cox_correct, cox_sequence
from .deform import DeformationInput, deformation_upgrade
from .downgrade import DowngradeContext, downgrade
from .errors import PDivError, SchemaError, VersionMismatch
from .lattice import Lattice, LatticeMap
from .pdivisor import PolyhedralDivisor, toric_downgrade
from .polyhedra import Cone, PolyhedralComplex, Polyhedron, common_refinement
from .tvariety import (
    SHARPNESS_K_BOUND,
    DivisorialFan,
    TInvariantDivisor,
    is_basepoint_free,
)
from .upgrade import InvariantPDivisorOnFan, correct_pic_z, upgrade

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# scalar encoding
# ---------------------------------------------------------------------------


def rational_to_str(x) -> str:
    if is_inf(x):
        return "inf"
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def str_to_rational(s):
    if not isinstance(s, str):
        if isinstance(s, int):
            return Fraction(s)
        raise SchemaError(f"expected a rational string, got {s!r}")
    if s == "inf":
        return INF
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid rational {s!r}: {exc}")
    return f


def vec_to_json(v):
    return [rational_to_str(x) for x in v]


def json_to_vec(data):
    if not isinstance(data, list):
        raise SchemaError("expected a coordinate list")
    out = []
    for x in data:
        r = str_to_rational(x)
        if is_inf(r):
            raise SchemaError("vector coordinates must be finite")
        out.append(r)
    return tuple(out)


def json_to_object(data, what: str) -> dict:
    """A JSON object; lists, strings, numbers and null are rejected."""
    if not isinstance(data, dict):
        raise SchemaError(f"{what} must be an object, got {type(data).__name__}")
    return data


def json_to_count(data, what: str) -> int:
    """A JSON integer >= 0; floats, booleans and strings are rejected."""
    if type(data) is not int or data < 0:
        raise SchemaError(f"{what} must be an integer >= 0, got {data!r}")
    return data


# ---------------------------------------------------------------------------
# geometry encoding
# ---------------------------------------------------------------------------


def cone_to_json(c: Cone):
    return {
        "ambient": c.n,
        "rays": [vec_to_json(r) for r in c.rays],
        "lines": [vec_to_json(l) for l in c.lines],
    }


def json_to_vecs(data, length: int, what: str):
    """A list of coordinate lists, each of `length` entries."""
    out = [json_to_vec(v) for v in data]
    if any(len(v) != length for v in out):
        raise SchemaError(f"{what} vectors must have {length} entries")
    return out


def json_to_cone(data) -> Cone:
    try:
        n = json_to_count(data["ambient"], "ambient")
        return Cone.from_rays(
            json_to_vecs(data["rays"], n, "cone ray"),
            json_to_vecs(data.get("lines", []), n, "cone line"),
            n,
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad cone payload: {exc}")


def polyhedron_to_json(p: Polyhedron):
    if p.empty:
        return "empty"
    return {
        "ambient": p.n,
        "vertices": [vec_to_json(v) for v in p.vertices],
        "rays": [vec_to_json(r) for r in p.rays],
        "lines": [vec_to_json(l) for l in p.lines],
    }


def json_to_polyhedron(data, ambient=None) -> Polyhedron:
    if data == "empty":
        if ambient is None:
            raise SchemaError("empty polyhedron needs an ambient dimension")
        return Polyhedron.empty_polyhedron(ambient)
    try:
        n = json_to_count(data["ambient"], "ambient")
        return Polyhedron.from_generators(
            json_to_vecs(data["vertices"], n, "polyhedron vertex"),
            json_to_vecs(data.get("rays", []), n, "polyhedron ray"),
            json_to_vecs(data.get("lines", []), n, "polyhedron line"),
            n,
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad polyhedron payload: {exc}")


def complex_to_json(c: PolyhedralComplex):
    return {"cells": [polyhedron_to_json(p) for p in c.cells]}


def json_to_complexes(data) -> list[PolyhedralComplex]:
    complexes = data["complexes"]
    if not isinstance(complexes, list) or not all(isinstance(cells, list) for cells in complexes):
        raise SchemaError("complexes must be a list of lists of polyhedra")
    return [PolyhedralComplex([json_to_polyhedron(p) for p in cells]) for cells in complexes]


# ---------------------------------------------------------------------------
# base varieties, labels, divisors
# ---------------------------------------------------------------------------


def base_to_json(b: BaseVariety):
    if b.kind == "P1":
        return {"kind": "P1"}
    if b.kind == "open_p1":
        return {"kind": "open_p1", "removed": [rational_to_str(x) for x in b.removed]}
    return {
        "kind": "toric",
        "max_cones": [cone_to_json(c) for c in b.fan],
        "degrees": {",".join(map(str, map(rational_to_str, r))): rational_to_str(d) for r, d in b._degrees.items()} or None,
        "declared": [
            {
                "id": lab.id,
                "class_rep": [[vec_to_json(r), rational_to_str(c)] for r, c in lab.class_rep],
                "degree": rational_to_str(lab.degree) if lab.degree is not None else None,
            }
            for lab in b._declared.values()
        ],
        "semiprojective": b.semiprojective,
        "name": b.name,
    }


def json_to_base(data) -> BaseVariety:
    data = json_to_object(data, "base")
    kind = data.get("kind")
    if kind == "P1":
        return BaseVariety.projective_line()
    if kind == "open_p1":
        return BaseVariety.open_projective_line(
            [str_to_rational(x) for x in data["removed"]]
        )
    if kind == "toric":
        degrees = None
        if data.get("degrees"):
            degrees = {}
            for key, d in json_to_object(data["degrees"], "base degrees").items():
                ray = tuple(str_to_rational(x) for x in key.split(","))
                degrees[ray] = str_to_rational(d)
        b = BaseVariety.toric(
            [json_to_cone(c) for c in data["max_cones"]],
            degrees=degrees,
            semiprojective=bool(data.get("semiprojective", True)),
            name=data.get("name", "toric"),
        )
        for decl in data.get("declared", []):
            decl = json_to_object(decl, "a declared prime")
            b.declare_prime(
                declared_label(
                    decl["id"],
                    [(json_to_vec(r), str_to_rational(c)) for r, c in decl["class_rep"]],
                    str_to_rational(decl["degree"]) if decl.get("degree") else None,
                )
            )
        return b
    raise SchemaError(f"unknown base kind {kind!r}")


def label_to_json(label: PrimeDivisorLabel):
    if label.kind == "point":
        return {"point": rational_to_str(label.point)}
    if label.kind == "ray":
        return {"ray": vec_to_json(label.ray)}
    return {"declared": label.id}


def json_to_label(data, base: BaseVariety) -> PrimeDivisorLabel:
    if "point" in data:
        return base.point(str_to_rational(data["point"]))
    if "ray" in data:
        return base.ray(json_to_vec(data["ray"]))
    if "declared" in data:
        lab = base._declared.get(data["declared"])
        if lab is None:
            raise SchemaError(f"declared prime {data['declared']!r} missing from the base")
        return lab
    raise SchemaError(f"bad prime label {data!r}")


def qdivisor_to_json(d: QDivisor):
    return {
        "base": base_to_json(d.base),
        "coefficients": [
            [label_to_json(l), rational_to_str(c)] for l, c in d.coeffs.items()
        ],
    }


def pdivisor_to_json(d: PolyhedralDivisor):
    return {
        "base": base_to_json(d.base),
        "lattice_rank": d.n,
        "tail": cone_to_json(d.tail),
        "coefficients": [
            [label_to_json(l), polyhedron_to_json(p)] for l, p in d.coeffs.items()
        ],
    }


def json_to_pdivisor(data) -> PolyhedralDivisor:
    base = json_to_base(data["base"])
    n = json_to_count(data["lattice_rank"], "lattice_rank")
    tail = json_to_cone(data["tail"])
    coeffs = {}
    for lab, poly in data["coefficients"]:
        coeffs[json_to_label(lab, base)] = json_to_polyhedron(poly, ambient=n)
    return PolyhedralDivisor(base, n, tail, coeffs)


def fan_to_json(fan: DivisorialFan):
    return {
        "base": base_to_json(fan.base),
        "lattice_rank": fan.n,
        "members": [
            {
                "tail": cone_to_json(m.tail),
                "coefficients": [
                    [label_to_json(l), polyhedron_to_json(p)] for l, p in m.coeffs.items()
                ],
            }
            for m in fan.members
        ],
        "semicomplete": fan.semicomplete,
    }


def json_to_fan(data) -> DivisorialFan:
    base = json_to_base(data["base"])
    n = json_to_count(data["lattice_rank"], "lattice_rank")
    members = []
    for m in data["members"]:
        tail = json_to_cone(m["tail"])
        coeffs = {}
        for lab, poly in m["coefficients"]:
            coeffs[json_to_label(lab, base)] = json_to_polyhedron(poly, ambient=n)
        members.append(PolyhedralDivisor(base, n, tail, coeffs))
    return DivisorialFan(base, members, semicomplete=data.get("semicomplete"))


def invariant_pdivisor_to_json(d: InvariantPDivisorOnFan):
    return {
        "fan": fan_to_json(d.fan),
        "lattice_rank": d.n,
        "tail": cone_to_json(d.tail),
        "rays": [vec_to_json(r) for r in d.rays],
        "verts": [
            [label_to_json(l), [vec_to_json(v) for v in vs]] for l, vs in sorted(d.verts.items(), key=lambda kv: kv[0].id)
        ],
        "ray_coeffs": [
            [vec_to_json(r), polyhedron_to_json(p)] for r, p in sorted(d.ray_coeffs.items())
        ],
        "vertex_coeffs": [
            [label_to_json(l), vec_to_json(v), polyhedron_to_json(p)]
            for (l, v), p in sorted(d.vertex_coeffs.items(), key=lambda kv: (kv[0][0].id, kv[0][1]))
        ],
    }


def json_to_invariant_pdivisor(data) -> InvariantPDivisorOnFan:
    fan = json_to_fan(data["fan"])
    n = json_to_count(data["lattice_rank"], "lattice_rank")
    tail = json_to_cone(data["tail"])
    base, m = fan.base, fan.n
    rays = json_to_vecs(data["rays"], m, "ray") if data.get("rays") is not None else None
    verts = None
    if data.get("verts") is not None:
        verts = {}
        for lab, vs in data["verts"]:
            verts[json_to_label(lab, base)] = json_to_vecs(vs, m, "vertex")
    ray_coeffs = {}
    for r, p in data.get("ray_coeffs", []):
        [r] = json_to_vecs([r], m, "ray")
        ray_coeffs[r] = json_to_polyhedron(p, ambient=n)
    vertex_coeffs = {}
    for lab, v, p in data.get("vertex_coeffs", []):
        [v] = json_to_vecs([v], m, "vertex")
        vertex_coeffs[(json_to_label(lab, base), v)] = json_to_polyhedron(p, ambient=n)
    return InvariantPDivisorOnFan(
        fan, n, tail, ray_coeffs=ray_coeffs, vertex_coeffs=vertex_coeffs, rays=rays, verts=verts
    )


def deformation_to_json(din: DeformationInput):
    return {
        "delta": cone_to_json(din.delta),
        "degree": vec_to_json(din.degree),
        "deltas": [polyhedron_to_json(p) for p in din.deltas],
        "multiplicities": list(din.multiplicities) if din.multiplicities else None,
    }


def json_to_deformation(data) -> DeformationInput:
    delta = json_to_cone(data["delta"])
    n = delta.n - 1
    return DeformationInput(
        delta,
        json_to_vec(data["degree"]),
        tuple(json_to_polyhedron(p, ambient=n) for p in data["deltas"]),
        tuple(json_to_count(m, "a multiplicity") for m in data["multiplicities"])
        if data.get("multiplicities")
        else None,
    )


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

_EMITTERS = {
    "cone": cone_to_json,
    "polyhedron": polyhedron_to_json,
    "pdivisor": pdivisor_to_json,
    "qdivisor": qdivisor_to_json,
    "divisorial_fan": fan_to_json,
    "invariant_pdivisor": invariant_pdivisor_to_json,
    "deformation": deformation_to_json,
}

_PARSERS = {
    "cone": json_to_cone,
    "polyhedron": json_to_polyhedron,
    "pdivisor": json_to_pdivisor,
    "divisorial_fan": json_to_fan,
    "invariant_pdivisor": json_to_invariant_pdivisor,
    "deformation": json_to_deformation,
    "complexes": json_to_complexes,
}


def emit(obj, kind: str, provenance: str | None = None) -> bytes:
    if kind not in _EMITTERS:
        raise SchemaError(f"cannot emit kind {kind!r}")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "payload": _EMITTERS[kind](obj),
    }
    if provenance:
        doc["provenance"] = provenance
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def parse_document(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON (line {exc.lineno}, column {exc.colno})")
    if not isinstance(doc, dict) or "kind" not in doc or "payload" not in doc:
        raise SchemaError("a document needs 'kind' and 'payload'")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise VersionMismatch(f"schema version {version!r}, expected {SCHEMA_VERSION!r}")
    return doc


def parse(text, expected_kind: str | None = None):
    doc = parse_document(text)
    kind = doc["kind"]
    if expected_kind is not None and kind != expected_kind:
        raise SchemaError(f"expected a {expected_kind!r} document, found {kind!r}")
    if kind not in _PARSERS:
        raise SchemaError(f"cannot parse kind {kind!r}")
    try:
        return _PARSERS[kind](doc["payload"]), doc
    except (KeyError, TypeError, ValueError) as exc:
        # a missing field, a wrong type or a length or shape the data
        # structures reject: the document is at fault
        raise SchemaError(f"bad {kind} payload: {exc}")


# ---------------------------------------------------------------------------
# the command surface
# ---------------------------------------------------------------------------


def _weight(arg: str):
    return tuple(str_to_rational(x) for x in arg.split(","))


def _vectors(arg: str, length: int, flag: str):
    """The JSON list of rational vectors given to `flag`, each of `length` entries."""
    try:
        data = json.loads(arg)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{flag} is not valid JSON: {exc}")
    if not isinstance(data, list):
        raise SchemaError(f"{flag} expects a list of vectors")
    return json_to_vecs(data, length, flag)


def _load(path, kind):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    return parse(text, kind)


def _report(args, payload, exit_code=0):
    payload = dict(payload)
    payload["defaults"] = {
        "k_bound": SHARPNESS_K_BOUND,
        "window": args.window,
        "parallelism": 1,
    }
    if args.format == "text":
        lines = [f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(payload.items())]
        out = "\n".join(lines) + "\n"
    else:
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        tmp = args.out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(out)
        os.replace(tmp, args.out)
    else:
        sys.stdout.write(out)
    return exit_code


def cmd_eval(args):
    d, _ = _load(args.input, "pdivisor")
    dv = d.evaluate(_weight(args.weight))
    return _report(args, {"kind": "evaluation", "divisor": qdivisor_to_json(dv)})


def cmd_proper(args):
    d, _ = _load(args.input, "pdivisor")
    rep = d.is_proper()
    code = 0 if rep.proper else 2
    return _report(args, {"kind": "properness", "report": rep.as_dict()}, code)


def cmd_sections(args):
    d, _ = _load(args.input, "pdivisor")
    dv = d.evaluate(_weight(args.weight))
    s = global_sections(dv, pole_bound=args.pole_bound)
    payload = {
        "kind": "sections",
        "dimension": s.dimension,
        "truncated": s.truncated,
        "basis": [repr(f) for f in s.basis],
    }
    return _report(args, payload)


def cmd_bpf(args):
    # the document reuses the invariant-pdivisor layout with single-point
    # rank-one coefficients standing for the scalar a_rho and b_{P,v}
    d, doc = _load(args.input, "invariant_pdivisor")
    fan = d.fan
    if d.n != 1:
        raise SchemaError("bpf documents carry rank-one coefficient points")
    rc = {}
    for r in d.rays:
        p = d.ray_coefficient(r)
        if not p.is_bounded() or len(p.vertices) != 1:
            raise SchemaError("bpf needs scalar (single point) coefficients")
        rc[r] = p.vertices[0][0]
    vc = {}
    for (l, v), p in d.vertex_coeffs.items():
        if not p.is_bounded() or len(p.vertices) != 1:
            raise SchemaError("bpf needs scalar (single point) coefficients")
        vc[(l, v)] = p.vertices[0][0]
    div = TInvariantDivisor(fan, rc, vc, rays=d.rays, verts=d.verts)
    rep = is_basepoint_free(div, window_steps=args.window)
    code = {"free": 0, "not_free": 2, "inconclusive": 3}[rep.status]
    payload = {
        "kind": "basepoint-freeness",
        "status": rep.status,
        "witnesses": {
            f"{k[0]}:{k[1]}": [vec_to_json(u), repr(s)] for k, (u, s) in rep.witnesses.items()
        },
        "failing": [list(map(str, f)) for f in rep.failing],
    }
    return _report(args, payload, code)


def cmd_upgrade(args):
    d, _ = _load(args.input, "invariant_pdivisor")
    res = upgrade(d)
    code = 0 if (res.report.proper and res.hypotheses_hold) else 2
    payload = {
        "kind": "upgrade",
        "divisor": pdivisor_to_json(res.divisor),
        "report": res.report.as_dict(),
        "contraction_free": res.contraction_free,
        "base_smooth": res.base_smooth,
    }
    return _report(args, payload, code)


def cmd_correct(args):
    d, _ = _load(args.input, "pdivisor")
    out, rep = correct_pic_z(d)
    code = 0 if rep.proper else 2
    payload = {
        "kind": "correction",
        "divisor": pdivisor_to_json(out),
        "report": rep.as_dict(),
    }
    return _report(args, payload, code)


def cmd_downgrade(args):
    d, doc = _load(args.input, "pdivisor")
    m = d.n
    rows = _vectors(args.projection, m, "--projection")
    pr = LatticeMap(Lattice(m, "M"), Lattice(len(rows), "Mbar"), rows)
    ctx = DowngradeContext.from_projection(pr)
    fan, dbar = downgrade(d, ctx)
    payload = {
        "kind": "downgrade",
        "fan": fan_to_json(fan),
        "divisor": invariant_pdivisor_to_json(dbar),
    }
    return _report(args, payload)


def cmd_toric_downgrade(args):
    delta, doc = _load(args.input, "cone")
    cols = _vectors(args.sublattice, delta.n, "--sublattice")
    k = len(cols)
    sub = LatticeMap(
        Lattice(k, "Nbar"),
        Lattice(delta.n, "Ntilde"),
        [[cols[j][i] for j in range(k)] for i in range(delta.n)],
    )
    base, divisor, rep = toric_downgrade(delta, sub)
    code = 0 if rep.proper else 2
    payload = {
        "kind": "toric-downgrade",
        "base": base_to_json(base),
        "divisor": pdivisor_to_json(divisor),
        "report": rep.as_dict(),
    }
    return _report(args, payload, code)


def cmd_cox(args):
    fan, _ = _load(args.input, "divisorial_fan")
    cd = cox_sequence(fan)
    out, rep = cox_correct(cd)
    code = 0 if rep.proper else 2
    payload = {
        "kind": "cox",
        "class_group_rank": cd.cl_rank,
        "primes": [l.id for l in cd.primes],
        "divisor": pdivisor_to_json(out),
        "report": rep.as_dict(),
    }
    return _report(args, payload, code)


def cmd_deform_upgrade(args):
    din, _ = _load(args.input, "deformation")
    out, fb = deformation_upgrade(din)
    rep = out.is_proper()
    code = 0 if rep.proper else 2
    payload = {
        "kind": "deform-upgrade",
        "divisor": pdivisor_to_json(out),
        "report": rep.as_dict(),
    }
    return _report(args, payload, code)


def cmd_refine(args):
    complexes, _ = _load(args.input, "complexes")
    out = common_refinement(complexes)
    payload = {"kind": "refine", "complex": complex_to_json(out)}
    return _report(args, payload)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pdiv", description="exact polyhedral-divisor calculus"
    )
    ap.add_argument("--format", choices=["json", "text"], default="json")
    ap.add_argument("--out", default=None, help="write the report to a file")
    ap.add_argument("--window", type=int, default=1)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("input")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("eval", cmd_eval, **{"--weight": {"required": True}})
    add("proper", cmd_proper)
    add(
        "sections",
        cmd_sections,
        **{"--weight": {"required": True}, "--pole-bound": {"type": int, "default": None, "dest": "pole_bound"}},
    )
    add("bpf", cmd_bpf)
    add("upgrade", cmd_upgrade)
    add("correct", cmd_correct)
    add("downgrade", cmd_downgrade, **{"--projection": {"required": True}})
    add("toric-downgrade", cmd_toric_downgrade, **{"--sublattice": {"required": True}})
    add("cox", cmd_cox)
    add("deform-upgrade", cmd_deform_upgrade)
    add("refine", cmd_refine)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, VersionMismatch) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except PDivError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
