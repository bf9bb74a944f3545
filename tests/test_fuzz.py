"""Malformed documents and flags end in an exit code, never in a traceback.

A fixed mutator changes one node of each document of the benchmark's cli
pool (`perfbench/cli_pool.json`, read only): it deletes the node or puts a
value of another JSON type in its place.  Every mutated document must give
exit code 0, 1, 2 or 3 from `cli.main`, with no exception escaping it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pdivisors import cli

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "cli_pool.json"
FIX = Path(__file__).parent / "fixtures"
SEEDS = tuple(range(1, 81))
# a huge coordinate comes as a string: a huge count would ask for a matrix
# of that many rows
REPLACEMENTS = (None, True, 1.5, 7, "x", "1" + "0" * 40, [], {})


def _nodes(node, path=()):
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _nodes(node[key], path + (key,))
    elif isinstance(node, list):
        for i, x in enumerate(node):
            yield from _nodes(x, path + (i,))


def mutate(doc, rng):
    """Delete one node of the payload or replace it by another JSON value."""
    path = ("payload",) + rng.choice(list(_nodes(doc["payload"])))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    choice = rng.randrange(len(REPLACEMENTS) + 1)
    if choice == len(REPLACEMENTS):
        del parent[path[-1]]
    else:
        parent[path[-1]] = REPLACEMENTS[choice]
    return path


def cases():
    """(name, command, args, document text) of every mutated pool document."""
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        for entry in json.loads(POOL.read_text()):
            doc = json.loads(entry["doc"])
            path = mutate(doc, rng)
            name = f"{seed}:{entry['id']}:{'/'.join(map(str, path))}"
            out.append((name, entry["command"], entry["args"], json.dumps(doc)))
    return out


def test_mutated_documents_exit_with_a_code(tmp_path, capsys):
    codes = []
    for name, command, args, text in cases():
        path = tmp_path / "doc.json"
        path.write_text(text)
        try:
            code = cli.main([command, str(path), *args])
        except Exception as exc:
            pytest.fail(f"{name}: {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2, 3), name
        capsys.readouterr()
        codes.append(code)
    assert len(codes) >= 100
    # most mutations break the document, some leave it computable
    assert codes.count(1) > len(codes) // 2 and codes.count(1) < len(codes)


def _with(name, edit):
    doc = json.loads((FIX / name).read_text())
    edit(doc["payload"])
    return json.dumps(doc)


def _set(value, *path):
    def edit(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


ESCAPES = [
    ("base-list", "c3_like_threefold.json", ["proper"], _set([], "base")),
    ("base-string", "c3_like_threefold.json", ["proper"], _set("P1", "base")),
    ("base-int", "c3_like_threefold.json", ["proper"], _set(3, "base")),
    ("base-null", "c3_like_threefold.json", ["proper"], _set(None, "base")),
    ("declared-list", "c3_like_threefold.json", ["proper"], _set([], "base", "declared", 0)),
    ("degrees-list", "c3_like_threefold.json", ["proper"], _set(["1"], "base", "degrees")),
    ("fan-base-list", "psi0_fan.json", ["cox"], _set([], "base")),
    ("no-deltas", "a1_deformation.json", ["deform-upgrade"], _set([], "deltas")),
    # a multiplicity 0 made the degree k = gcd(0) = 0, and the base fan
    # divided by it
    ("zero-multiplicity", "a1_deformation.json", ["deform-upgrade"], lambda payload: payload.update(
        deltas=[{"ambient": 1, "lines": [], "rays": [], "vertices": [["-1"], ["1"]]},
                {"ambient": 1, "lines": [], "rays": [], "vertices": [["0"]]}],
        multiplicities=[0],
    )),
]


@pytest.mark.parametrize("fixture, argv, edit", [c[1:] for c in ESCAPES], ids=[c[0] for c in ESCAPES])
def test_former_escapes_exit_one(tmp_path, capsys, fixture, argv, edit):
    path = tmp_path / "doc.json"
    path.write_text(_with(fixture, edit))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("input error:", "error:"))


def test_fan_prime_missing_from_explicit_verts_exits_one(tmp_path, capsys):
    # seed 46 of the mutator: the fan marks a prime that the document's
    # explicit `verts` do not list
    entry = next(e for e in json.loads(POOL.read_text()) if e["id"] == "bpf-3")
    doc = json.loads(entry["doc"])
    _set("1" + "0" * 40, "fan", "members", 1, "coefficients", 1, 0, "point")(doc["payload"])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["bpf", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    proc = _pdiv(["bpf", str(path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("input error:")


SHORT = [
    # seed 75 of the mutator: a fan vertex with its coordinate deleted made
    # `upgrade` index past a too-short generator
    ("verts", [[{"point": "0"}, [[]]], [{"point": "inf"}, [["-1"]]]]),
    ("rays", [[]]),
    ("ray_coeffs", [[[], "empty"]]),
    ("vertex_coeffs", [[{"point": "0"}, [], "empty"]]),
]


@pytest.mark.parametrize("field, value", SHORT, ids=[c[0] for c in SHORT])
def test_explicit_vectors_shorter_than_the_fan_rank_exit_one(tmp_path, capsys, field, value):
    entry = next(e for e in json.loads(POOL.read_text()) if e["id"] == "upgrade-0")
    doc = json.loads(entry["doc"])
    doc["payload"][field] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["upgrade", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "must have 1 entries" in captured.err


def test_huge_curve_section_space_exits_one(tmp_path):
    # seed 37 of the mutator: a coefficient of 10^40 asks for 10^40 + 1 basis
    # functions, which ran into `MemoryError` after about 100 s
    entry = next(e for e in json.loads(POOL.read_text()) if e["id"] == "sections-1")
    doc = json.loads(entry["doc"])
    _set("1" + "0" * 40, "coefficients", 1, 1, "vertices", 0, 0)(doc["payload"])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = _pdiv([entry["command"], str(path), *entry["args"]])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: L(D) has dimension 2") and "MAX_CURVE_SECTIONS" in proc.stderr


def _bpf0_with(**fields):
    entry = next(e for e in json.loads(POOL.read_text()) if e["id"] == "bpf-0")
    doc = json.loads(entry["doc"])
    doc["payload"].update(fields)
    return doc


ZERO_INF = [{"point": "inf"}, [["0"]]]
EXPLICIT = [
    # the marked prime 0 left out, with its coefficient
    ("verts-miss-prime", 1, {"verts": [ZERO_INF], "vertex_coeffs": []}),
    ("rays-miss-ray", 1, {"rays": [["1"]], "ray_coeffs": []}),
    ("unmarked-nonzero", 1, {"verts": [[{"point": "0"}, [["1/2"]]], ZERO_INF, [{"point": "5"}, [["1"]]]]}),
    # an unmarked prime with the vertex 0 of its trivial slice is fine: the
    # report is the pool document's (exit 2, not free)
    ("unmarked-zero", 2, {"verts": [[{"point": "0"}, [["1/2"]]], ZERO_INF, [{"point": "5"}, [["0"]]]]}),
]


@pytest.mark.parametrize("code, fields", [c[1:] for c in EXPLICIT], ids=[c[0] for c in EXPLICIT])
def test_explicit_rays_and_verts_checked_against_fan(tmp_path, capsys, code, fields):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_bpf0_with(**fields)))
    assert cli.main(["bpf", str(path)]) == code
    captured = capsys.readouterr()
    assert (captured.out == "") == (code == 1)
    if code == 1:
        assert captured.err.startswith("input error:")


FLAGS = [
    ("downgrade", "a1_upgraded_expected.json", "--projection", '[["1/2","1"]]'),
    ("toric-downgrade", "downgrade_difficulties.json", "--sublattice", '[["1/2","0","0","0"]]'),
]


@pytest.mark.parametrize("command, fixture, flag, value", FLAGS, ids=["projection", "sublattice"])
def test_fractional_lattice_map_flags_exit_one(capsys, command, fixture, flag, value):
    assert cli.main([command, str(FIX / fixture), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lattice maps must have integer entries\n"


def _pdiv(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "pdivisors.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_subprocess_stderr_holds_no_traceback(tmp_path):
    runs = []
    for name, fixture, argv, edit in ESCAPES[:1] + ESCAPES[-1:]:
        path = tmp_path / f"{name}.json"
        path.write_text(_with(fixture, edit))
        runs.append([argv[0], str(path), *argv[1:]])
    runs += [[command, str(FIX / fixture), flag, value] for command, fixture, flag, value in FLAGS]
    for argv in runs:
        proc = _pdiv(argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.strip(), argv
