from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pdivisors import cli
from pdivisors.errors import RoutesDisagree, SchemaError, VersionMismatch

F = Fraction
FIX = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIX / name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


# -- serialization ------------------------------------------------------


def test_rational_codec():
    assert cli.rational_to_str(F(3, 6)) == "1/2"
    assert cli.rational_to_str(F(4)) == "4"
    assert cli.str_to_rational("7/3") == F(7, 3)
    with pytest.raises(SchemaError):
        cli.str_to_rational("1/0")
    with pytest.raises(SchemaError):
        cli.str_to_rational("a/b")


def test_roundtrip_fixtures_byte_identical():
    for name, kind in [
        ("c3_like_threefold.json", "pdivisor"),
        ("downgrade_difficulties.json", "cone"),
        ("noncf_p2.json", "invariant_pdivisor"),
        ("a1_deformation.json", "deformation"),
        ("psi0_fan.json", "divisorial_fan"),
    ]:
        raw = (FIX / name).read_bytes()
        obj, doc = cli.parse(raw.decode(), kind)
        again = cli.emit(obj, kind, provenance=doc.get("provenance"))
        assert again == raw, name


def test_version_mismatch():
    raw = json.loads((FIX / "downgrade_difficulties.json").read_text())
    raw["schema_version"] = "999"
    with pytest.raises(VersionMismatch):
        cli.parse(json.dumps(raw))


def test_schema_error_on_wrong_kind():
    raw = (FIX / "downgrade_difficulties.json").read_text()
    with pytest.raises(SchemaError):
        cli.parse(raw, "pdivisor")


# -- subcommands ---------------------------------------------------------


def test_eval_threefold(capsys):
    code, out = run(capsys, "eval", fixture("c3_like_threefold.json"), "--weight", "6")
    assert code == 0
    coeffs = {json.dumps(l, sort_keys=True): c for l, c in out["divisor"]["coefficients"]}
    assert coeffs[json.dumps({"ray": ["1", "0"]}, sort_keys=True)] == "3"
    assert coeffs[json.dumps({"declared": "D2"}, sort_keys=True)] == "2"
    assert json.dumps({"ray": ["1", "1"]}, sort_keys=True) not in coeffs


def test_proper_threefold(capsys):
    code, out = run(capsys, "proper", fixture("c3_like_threefold.json"))
    assert code == 0
    assert out["report"]["proper"] is True


def test_sections(tmp_path, capsys):
    from pdivisors.base import BaseVariety, point_label
    from pdivisors.pdivisor import PolyhedralDivisor
    from pdivisors.polyhedra import Cone, hull

    P1 = BaseVariety.projective_line()
    d = PolyhedralDivisor(P1, 1, Cone.zero(1), {point_label(0): hull([(2,)])})
    p = tmp_path / "d.json"
    p.write_bytes(cli.emit(d, "pdivisor"))
    code, out = run(capsys, "sections", str(p), "--weight", "1")
    assert code == 0
    assert out["dimension"] == 3
    # sections of evaluations with declared primes are an input error
    code, _ = run(capsys, "sections", fixture("c3_like_threefold.json"), "--weight", "6")
    assert code == 1


def test_sections_negative_pole_bound_exit_one(tmp_path, capsys):
    from pdivisors.base import BaseVariety, point_label
    from pdivisors.pdivisor import PolyhedralDivisor
    from pdivisors.polyhedra import Cone, hull

    base = BaseVariety.open_projective_line([0])
    d = PolyhedralDivisor(base, 1, Cone.zero(1), {point_label(1): hull([(2,)])})
    p = tmp_path / "d.json"
    p.write_bytes(cli.emit(d, "pdivisor"))
    code = cli.main(["sections", str(p), "--weight", "1", "--pole-bound", "-5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: the pole bound must be >= 0, got -5\n"
    code, out = run(capsys, "sections", str(p), "--weight", "1", "--pole-bound", "0")
    assert code == 0
    assert out["dimension"] == 3 and out["truncated"] is True


@pytest.mark.parametrize("command", ["eval", "sections"])
@pytest.mark.parametrize("weight", ["1,2", "1,0,0"])
def test_wrong_length_weight_exit_one(capsys, command, weight):
    # the threefold divisor has rank one
    code = cli.main([command, fixture("c3_like_threefold.json"), "--weight", weight])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "entries, the divisor has rank 1" in captured.err
    assert "Traceback" not in captured.err


def _proper_0():
    pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "cli_pool.json").read_text())
    return next(json.loads(e["doc"]) for e in pool if e["id"] == "proper-0")


@pytest.mark.parametrize(
    "class_rep, code",
    [
        # a ray of the fan: the representative is read, and this one leaves
        # the divisor not proper
        ([[["1", "1"], "5"]], 2),
        # a vector of the wrong length, and one that is no ray of the fan
        ([[["1"], "5"]], 1),
        ([[["2", "3"], "5"]], 1),
    ],
    ids=["ray", "short", "not-a-ray"],
)
def test_declared_class_rep_must_name_rays(tmp_path, capsys, class_rep, code):
    doc = _proper_0()
    doc["payload"]["base"]["declared"][0]["class_rep"] = class_rep
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["proper", str(p)]) == code
    captured = capsys.readouterr()
    if code == 1:
        assert captured.out == ""
        assert captured.err.startswith("error: the class representative of D2 names")
        assert "not a ray of the fan" in captured.err
    else:
        assert json.loads(captured.out)["report"]["proper"] is False


def test_upgrade_noncf_exit_two(capsys):
    code, out = run(capsys, "upgrade", fixture("noncf_p2.json"))
    assert code == 2
    assert out["report"]["proper"] is False
    assert out["report"]["semiample"] is False


def test_upgrade_noncf_with_a_fractional_ray_exits_one(tmp_path, capsys):
    # on a fan that is not contraction-free the given rays are lattice
    # vectors too, so the ray 1/2 is an error, not a divisor
    doc = json.loads((FIX / "noncf_p2.json").read_text())
    doc["payload"]["rays"] = [["1/2"]]
    doc["payload"]["ray_coeffs"][0][0] = ["1/2"]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["upgrade", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rays must have integer entries")


def test_upgrade_then_correct_pipeline(tmp_path, capsys):
    code, out = run(capsys, "upgrade", fixture("noncf_p2.json"))
    doc = {
        "schema_version": "1",
        "kind": "pdivisor",
        "payload": out["divisor"],
    }
    p = tmp_path / "upgraded.json"
    p.write_text(json.dumps(doc))
    code, out2 = run(capsys, "correct", str(p))
    assert code == 0
    assert out2["report"]["proper"] is True


def test_toric_downgrade_golden(capsys):
    code, out = run(
        capsys,
        "toric-downgrade",
        fixture("downgrade_difficulties.json"),
        "--sublattice",
        '[["1","0","0","0"]]',
    )
    assert code == 0
    assert out["report"]["proper"] is True
    rays = {tuple(cli.json_to_vec(r)) for c in out["base"]["max_cones"] for r in c["rays"]}
    assert (F(1), F(1), F(1)) in rays
    coeffs = out["divisor"]["coefficients"]
    assert len(coeffs) == 2


def test_toric_downgrade_cone_with_a_line_exit_one(tmp_path, capsys):
    p = tmp_path / "line.json"
    p.write_text(json.dumps({
        "schema_version": "1",
        "kind": "cone",
        "payload": {"ambient": 2, "rays": [["1", "0"]], "lines": [["0", "1"]]},
    }))
    code = cli.main(["toric-downgrade", str(p), "--sublattice", '[["1","0"]]'])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: toric downgrade needs a pointed cone\n"


def test_toric_downgrade_more_generators_than_rank_exit_one(tmp_path, capsys):
    # four generators in Q^3 once read rows past the 3x3 Smith transform
    p = tmp_path / "orthant.json"
    p.write_text(json.dumps({
        "schema_version": "1",
        "kind": "cone",
        "payload": {"ambient": 3, "rays": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "lines": []},
    }))
    sub = '[["1","0","0"],["0","1","0"],["0","0","1"],["1","1","1"]]'
    code = cli.main(["toric-downgrade", str(p), "--sublattice", sub])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: 4 sublattice generators exceed the lattice rank 3\n"


@pytest.mark.parametrize("sub, err", [
    ('[["1","0","0"],["2","0","0"]]', "error: sublattice generators are linearly dependent\n"),
    ('[["0","0","0"]]', "error: sublattice generators are linearly dependent\n"),
    ('[["2","0","0"]]', "error: sublattice is not saturated (torsion quotient)\n"),
])
def test_toric_downgrade_dependent_generators_are_not_torsion(tmp_path, capsys, sub, err):
    # a zero on the Smith diagonal means dependent generators, an entry
    # beyond 1 a torsion quotient
    p = tmp_path / "cone.json"
    p.write_text(json.dumps({
        "schema_version": "1",
        "kind": "cone",
        "payload": {"ambient": 3, "rays": [["1", "1", "0"], ["1", "2", "2"], ["2", "1", "0"]], "lines": []},
    }))
    code = cli.main(["toric-downgrade", str(p), "--sublattice", sub])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == err


def test_deform_upgrade_golden_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code = cli.main(
        ["--out", str(out1), "deform-upgrade", fixture("a1_deformation.json")]
    )
    assert code == 0
    code = cli.main(
        ["--out", str(out2), "deform-upgrade", fixture("a1_deformation.json")]
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["report"]["proper"] is True


def _rank2_divisor():
    # a rank-two divisor on the line
    from pdivisors.base import BaseVariety, point_label
    from pdivisors.pdivisor import PolyhedralDivisor
    from pdivisors.polyhedra import Cone, hull

    P1 = BaseVariety.projective_line()
    sigma = Cone.from_rays([(1, 0), (0, 1)])
    sp = sigma.as_polyhedron()
    return PolyhedralDivisor(
        P1,
        2,
        sigma,
        {
            point_label(0): hull([(1, 0), (0, 1)]).minkowski(sp),
            point_label(1): hull([(0, 0), (1, 1)]).minkowski(sp),
        },
    )


def test_downgrade_subcommand(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_bytes(cli.emit(_rank2_divisor(), "pdivisor"))
    code, out = run(capsys, "downgrade", str(p), "--projection", '[["0","1"]]')
    assert code == 0
    assert out["fan"]["members"]


def test_downgrade_routes_disagree_exit_one(tmp_path, capsys, monkeypatch):
    # a wrong second slice route must surface as a typed error, not a traceback
    from pdivisors.lattice import Lattice, LatticeMap
    from pdivisors.polyhedra import PolyhedralComplex

    # the package re-exports the function `downgrade` under the module's name;
    # only the second slice route goes through `_slices_by_faces`
    dg = importlib.import_module("pdivisors.downgrade")
    monkeypatch.setattr(dg, "_slices_by_faces", lambda coeff, rows: PolyhedralComplex([]))
    d = _rank2_divisor()
    pr = LatticeMap(Lattice(2), Lattice(1), [[0, 1]])
    with pytest.raises(RoutesDisagree):
        dg.downgrade(d, dg.DowngradeContext.from_projection(pr))
    p = tmp_path / "d.json"
    p.write_bytes(cli.emit(d, "pdivisor"))
    assert cli.main(["downgrade", str(p), "--projection", '[["0","1"]]']) == 1
    err = capsys.readouterr().err
    assert "slice routes disagree" in err
    assert "Traceback" not in err


def test_cox_subcommand(tmp_path, capsys):
    code, out = run(capsys, "cox", fixture("psi0_fan.json"))
    # the fan lives over a toric base: the sequence needs the line
    assert code == 1
    from helpers import complete_cstar_fan

    fan = complete_cstar_fan()
    p = tmp_path / "fan.json"
    p.write_bytes(cli.emit(fan, "divisorial_fan"))
    code, out = run(capsys, "cox", str(p))
    assert code == 0
    assert out["class_group_rank"] == 2
    assert out["report"]["proper"] is True


def test_bpf_subcommand(tmp_path, capsys):
    from helpers import complete_cstar_fan
    from pdivisors.base import INF, point_label
    from pdivisors.polyhedra import Cone, Polyhedron, hull
    from pdivisors.upgrade import InvariantPDivisorOnFan

    fan = complete_cstar_fan()
    zero = InvariantPDivisorOnFan(fan, 1, Cone.zero(1))
    p = tmp_path / "bpf.json"
    p.write_bytes(cli.emit(zero, "invariant_pdivisor"))
    code, out = run(capsys, "bpf", str(p))
    assert code == 0
    assert out["status"] == "free"
    # a divisor forcing a non-integral vanishing order is not free: exit 2
    doc = InvariantPDivisorOnFan(
        fan,
        1,
        Cone.zero(1),
        ray_coeffs={(1,): hull([(2,)]), (-1,): hull([(1,)])},
        vertex_coeffs={
            (point_label(0), (F(1, 2),)): hull([(1,)]),
            (point_label(INF), (F(0),)): hull([(2,)]),
        },
    )
    p2 = tmp_path / "bpf2.json"
    p2.write_bytes(cli.emit(doc, "invariant_pdivisor"))
    code, out = run(capsys, "bpf", str(p2))
    assert code == 2
    assert out["status"] == "not_free"


def test_refine_subcommand(tmp_path, capsys):
    from pdivisors.polyhedra import Polyhedron, hull

    doc = {
        "schema_version": "1",
        "kind": "complexes",
        "payload": {
            "complexes": [
                [cli.polyhedron_to_json(Polyhedron.from_generators([(0,)], [(1,)], n=1))],
                [
                    cli.polyhedron_to_json(hull([(F(-1, 2),), (0,)])),
                    cli.polyhedron_to_json(Polyhedron.from_generators([(0,)], [(1,)], n=1)),
                ],
            ]
        },
    }
    p = tmp_path / "cc.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "refine", str(p))
    assert code == 0
    assert out["complex"]["cells"]


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"complexes": 5},
        {"complexes": [5]},
        {"complexes": [[{"ambient": 1}]]},
        {"complexes": [[{"ambient": 2, "vertices": [["1"]]}]]},
        {"complexes": [[{"ambient": "one", "vertices": [["1"]]}]]},
        {"complexes": [["empty"]]},
        {"complexes": [[{"ambient": 1.9, "vertices": [["1"]]}]]},
        {"complexes": [[{"ambient": True, "vertices": [["1"]]}]]},
        {"complexes": [[{"ambient": -1, "vertices": []}]]},
    ],
    ids=[
        "no-complexes", "list", "not-list", "cells-not-list", "no-vertices", "vertex-length", "ambient",
        "empty-cell", "ambient-float", "ambient-bool", "ambient-negative",
    ],
)
def test_refine_malformed_payload_exit_one(tmp_path, capsys, payload):
    p = tmp_path / "cc.json"
    p.write_text(json.dumps({"schema_version": "1", "kind": "complexes", "payload": payload}))
    assert cli.main(["refine", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_input_error_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code = cli.main(["proper", str(p)])
    assert code == 1
    missing = cli.main(["proper", str(tmp_path / "nope.json")])
    assert missing == 1


def test_text_format(capsys):
    code = cli.main(["--format", "text", "proper", fixture("c3_like_threefold.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "report" in out


def _drop(key):
    def edit(doc):
        del doc["payload"][key]

    return edit


def _degree_too_long(doc):
    doc["payload"]["degree"].append("0")


def _set(value, *path):
    def edit(doc):
        node = doc["payload"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


def _float_multiplicities(doc):
    doc["payload"]["multiplicities"] = [1.0] * (len(doc["payload"]["deltas"]) - 1)


@pytest.mark.parametrize(
    "name, argv, edit",
    [
        ("a1_deformation.json", ["deform-upgrade"], _drop("deltas")),
        ("a1_deformation.json", ["deform-upgrade"], _degree_too_long),
        ("c3_like_threefold.json", ["proper"], _drop("lattice_rank")),
        ("downgrade_difficulties.json", ["toric-downgrade", "--sublattice", '[["1","0","0"]]'], None),
        ("downgrade_difficulties.json", ["toric-downgrade", "--sublattice", "not json"], None),
        ("c3_like_threefold.json", ["proper"], _set(1.0, "lattice_rank")),
        ("c3_like_threefold.json", ["proper"], _set(True, "lattice_rank")),
        ("c3_like_threefold.json", ["proper"], _set(True, "tail", "ambient")),
        ("psi0_fan.json", ["cox"], _set("1", "lattice_rank")),
        ("noncf_p2.json", ["upgrade"], _set(1.5, "lattice_rank")),
        ("downgrade_difficulties.json", ["toric-downgrade", "--sublattice", '[["1","0","0","0"]]'], _set(4.0, "ambient")),
        ("a1_deformation.json", ["deform-upgrade"], _float_multiplicities),
    ],
    ids=[
        "missing-deltas", "degree-length", "missing-rank", "sublattice-length", "sublattice-json",
        "rank-float", "rank-bool", "tail-ambient-bool", "fan-rank-string", "invariant-rank-float",
        "cone-ambient-float", "multiplicity-float",
    ],
)
def test_malformed_input_is_schema_error(tmp_path, capsys, name, argv, edit):
    doc = json.loads((FIX / name).read_text())
    if edit is not None:
        edit(doc)
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert cli.main([argv[0], str(p)] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_projection_length_is_schema_error(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_bytes(cli.emit(_rank2_divisor(), "pdivisor"))
    assert cli.main(["downgrade", str(p), "--projection", '[["0","1","1"]]']) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "projection",
    ['[["4","-3","0","-3"],["-2","4","4","-4"]]', '[["1","0","0","0"],["0","2","3","5"]]'],
    ids=["torsion", "surjective"],
)
def test_downgrade_rank4_terminates(tmp_path, projection):
    # the Smith normal form under the projection's splitting once cycled here
    from pdivisors.base import BaseVariety, point_label
    from pdivisors.pdivisor import PolyhedralDivisor
    from pdivisors.polyhedra import Cone, hull

    sigma = Cone.from_rays([tuple(int(i == j) for j in range(4)) for i in range(4)])
    d = PolyhedralDivisor(
        BaseVariety.projective_line(),
        4,
        sigma,
        {point_label(0): hull([(1, 0, 0, 0), (0, 1, 0, 0)]).minkowski(sigma.as_polyhedron())},
    )
    p = tmp_path / "r4.json"
    p.write_bytes(cli.emit(d, "pdivisor"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pdivisors.cli", "downgrade", str(p), "--projection", projection],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr


# Each fresh process runs its argument lists through `cli.main` and prints
# the exit code, stdout and stderr of each.
_RUN_ALL = """
import contextlib, io, json, sys
from pdivisors import cli
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    print(json.dumps([argv, code, out.getvalue(), err.getvalue()]))
"""

FIXTURE_COMMANDS = [
    ["eval", fixture("c3_like_threefold.json"), "--weight", "6"],
    ["proper", fixture("c3_like_threefold.json")],
    ["sections", fixture("c3_like_threefold.json"), "--weight", "6"],
    ["upgrade", fixture("noncf_p2.json")],
    ["bpf", fixture("noncf_p2.json")],
    ["cox", fixture("psi0_fan.json")],
    ["toric-downgrade", fixture("downgrade_difficulties.json"), "--sublattice", '[["1","0","0","0"]]'],
    ["deform-upgrade", fixture("a1_deformation.json")],
]


def _run_under_seed(seed, commands):
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", _RUN_ALL, json.dumps(commands)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
        timeout=120,
        check=True,
    ).stdout


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # the removed points of an open line, `inf` among them, once reached the
    # order of the basis factors through a set
    from pdivisors.base import INF, BaseVariety, point_label, ray_label
    from pdivisors.pdivisor import PolyhedralDivisor
    from pdivisors.polyhedra import Cone, hull

    base = BaseVariety.open_projective_line([INF, 5, -9, F(7, 2)])
    d = PolyhedralDivisor(base, 1, Cone.zero(1), {point_label(0): hull([(2,)])})
    p = tmp_path / "open.json"
    p.write_bytes(cli.emit(d, "pdivisor"))
    # the characters of a toric basis once printed as object addresses
    cones = [Cone.from_rays(c) for c in ([(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)])]
    p2 = BaseVariety.toric(cones, degrees={(1, 0): 1, (0, 1): 1, (-1, -1): 1}, name="P2")
    t = tmp_path / "p2.json"
    d2 = PolyhedralDivisor(p2, 1, Cone.from_rays([(1,)]), {ray_label((1, 0), 1): hull([(1,)], [(1,)])})
    t.write_bytes(cli.emit(d2, "pdivisor"))
    sections = [["sections", str(p), "--weight", "1", "--pole-bound", "1"], ["sections", str(t), "--weight", "1"]]
    runs = {seed: _run_under_seed(seed, sections + FIXTURE_COMMANDS * (seed < 3)) for seed in range(1, 11)}
    assert len({tuple(out.splitlines()[:2]) for out in runs.values()}) == 1
    first, toric = (json.loads(line) for line in runs[1].splitlines()[:2])
    assert first[1] == toric[1] == 0
    assert json.loads(toric[2])["basis"] == ["chi^(-1,0)", "chi^(-1,1)", "chi^(0,0)"]
    assert runs[1] == runs[2] and len(runs[1].splitlines()) == len(sections) + len(FIXTURE_COMMANDS)


def test_cox_on_a_fan_without_marked_primes_exits_one(tmp_path, capsys):
    # one member over P^1 with tail pos(1) and no coefficient: no prime to
    # build the class-group presentation on, which once ended in a traceback
    from pdivisors.base import BaseVariety
    from pdivisors.pdivisor import PolyhedralDivisor
    from pdivisors.polyhedra import Cone
    from pdivisors.tvariety import DivisorialFan

    p1 = BaseVariety.projective_line()
    fan = DivisorialFan(p1, [PolyhedralDivisor(p1, 1, Cone.from_rays([(1,)]), {})])
    p = tmp_path / "fan.json"
    p.write_bytes(cli.emit(fan, "divisorial_fan"))
    assert cli.main(["cox", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the prime set must be nonempty\n"


def test_correct_with_a_negative_degree_exits_one(tmp_path, capsys):
    # the rank-1 fan pos(1), pos(-1) with the degree -1 at ray(1) and a
    # coefficient there: the degree polyhedron once scaled it by -1 and
    # ended in a traceback
    from pdivisors.base import BaseVariety
    from pdivisors.pdivisor import PolyhedralDivisor
    from pdivisors.polyhedra import Cone, Polyhedron

    base = BaseVariety.toric([Cone.from_rays([(1,)]), Cone.from_rays([(-1,)])], degrees={(1,): -1, (-1,): 1})
    coeff = Polyhedron.from_generators([(1,)], [(1,)])
    d = PolyhedralDivisor(base, 1, Cone.from_rays([(1,)]), {base.ray((1,)): coeff})
    p = tmp_path / "divisor.json"
    p.write_bytes(cli.emit(d, "pdivisor"))
    assert json.loads(p.read_text())["payload"]["base"]["degrees"] == {"1": "-1", "-1": "1"}
    assert cli.main(["correct", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: prime ray(1) has the negative degree -1\n"


def test_import_leaves_out_dataclasses_and_inspect():
    # every pdiv process pays its imports, and dataclasses alone pulls in
    # inspect, ast, dis and tokenize; -S keeps site-packages hooks out
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, pdivisors.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "pdivisors.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
