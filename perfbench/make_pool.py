"""Build `cli_pool.json`, the documents of the `cli` workload.

Each entry is one `pdiv` invocation: a subcommand, its arguments, the input
document, the expected exit code (0 or 2) and the SHA-256 of the report it
printed when the pool was made, plus a golden where the acceptance suite has
one.  The pool draws from the golden fixtures and from seeded generated
documents; only invocations that compute are kept.  Rebuild it (and so
re-record the report digests) only on purpose:

    python3 perfbench/make_pool.py            # from the repository root
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import pdivisors as pd  # noqa: E402
from cliop import PDIV  # noqa: E402
from pdivisors.cli import emit, polyhedron_to_json  # noqa: E402

POOL_SEED = "cli-pool:1"
# the criterion-2 image fan of the four-dimensional toric downgrade
TORIC_GOLDEN = sorted(
    sorted(cone)
    for cone in (
        [["1", "1", "1"], ["0", "1", "0"], ["1", "1", "0"]],
        [["1", "1", "1"], ["0", "1", "0"], ["0", "0", "1"]],
        [["1", "1", "1"], ["0", "0", "1"], ["1", "0", "1"]],
        [["1", "1", "1"], ["1", "1", "0"], ["1", "0", "1"]],
    )
)


def fixture(name: str) -> str:
    return (ROOT / "tests" / "fixtures" / name).read_text(encoding="utf-8")


def run_pdiv(command, args, doc, tmp: Path):
    path = tmp / "doc.json"
    path.write_text(doc, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", PDIV, command, str(path), *args],
        capture_output=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
        timeout=120,
    )
    return proc.returncode, proc.stdout


def candidates(rng):
    """(subcommand, args, document text, golden) for every pool entry."""
    P1 = pd.BaseVariety.projective_line()
    yield "eval", ["--weight", "6"], fixture("c3_like_threefold.json"), None
    yield "proper", [], fixture("c3_like_threefold.json"), None
    yield "upgrade", [], fixture("noncf_p2.json"), None
    yield "toric-downgrade", ["--sublattice", '[["1","0","0","0"]]'], fixture("downgrade_difficulties.json"), {"max_cones": TORIC_GOLDEN}
    yield "deform-upgrade", [], fixture("a1_deformation.json"), {"divisor": json.loads(fixture("a1_upgraded_expected.json"))["payload"]}
    rank2 = gen.roundtrip_inputs(rng, 8)
    for d, w in zip(rank2[:2], ("1,2", "3,1")):
        yield "eval", ["--weight", w], emit(d, "pdivisor").decode(), None
    yield "proper", [], emit(rank2[2], "pdivisor").decode(), None
    # an improper draw: properness fails, exit 2
    while True:
        sigma = pd.Cone.from_rays([(1, 0), (0, 1)])
        verts = [(F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2)) for _ in range(3)]
        d = pd.PolyhedralDivisor(P1, 2, sigma, {pd.point_label(0): pd.hull(verts).minkowski(sigma.as_polyhedron())})
        if not d.is_proper().proper:
            yield "proper", [], emit(d, "pdivisor").decode(), None
            break
    yield "sections", ["--weight", "1"], emit(pd.PolyhedralDivisor(P1, 1, pd.Cone.zero(1), {pd.point_label(0): pd.hull([(2,)])}), "pdivisor").decode(), None
    for d, w in zip(rank2[3:5], ("2,1", "1,3")):
        yield "sections", ["--weight", w], emit(d, "pdivisor").decode(), None
    for d, row in zip(rank2[5:8], gen.PROJECTIONS):
        yield "downgrade", ["--projection", json.dumps([[str(x) for x in row[0]]])], emit(d, "pdivisor").decode(), None
        ctx = pd.DowngradeContext.from_projection(pd.LatticeMap(pd.Lattice(2, "M"), pd.Lattice(1, "Mbar"), row))
        fan, dbar = pd.downgrade(d, ctx)
        yield "upgrade", [], emit(dbar, "invariant_pdivisor").decode(), None
        yield "correct", [], emit(d, "pdivisor").decode(), None
    fans = [gen.complete_cstar_fan(s) for s in (F(1, 2), F(1, 3), F(2), F(3, 2))]
    for fan in fans[:3]:
        yield "cox", [], emit(fan, "divisorial_fan").decode(), None
    for fan in fans:
        v0 = fan.vertices_of(pd.point_label(0))[0]
        div = pd.InvariantPDivisorOnFan(
            fan,
            1,
            pd.Cone.zero(1),
            ray_coeffs={(1,): pd.hull([(rng.randint(0, 2),)]), (-1,): pd.hull([(rng.randint(0, 2),)])},
            vertex_coeffs={
                (pd.point_label(0), v0): pd.hull([(F(rng.randint(-2, 2), rng.choice([1, 2])),)]),
                (pd.point_label(pd.INF), (F(0),)): pd.hull([(rng.randint(-1, 2),)]),
            },
        )
        yield "bpf", [], emit(div, "invariant_pdivisor").decode(), None
    for _ in range(3):
        yield "deform-upgrade", [], emit(gen.random_deformation(rng), "deformation").decode(), None
    for _ in range(3):
        c = gen.random_cone3(rng)
        sub = json.dumps([[str(x) for x in gen.random_nonzero(rng, 3, 0, 1)]])
        yield "toric-downgrade", ["--sublattice", sub], emit(c, "cone").decode(), None
    for _ in range(3):
        cuts = sorted({F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(3)})
        a = [pd.Polyhedron.from_generators([(cuts[0],)], [(-1,)], n=1)]
        a += [pd.hull([(x,), (y,)]) for x, y in zip(cuts, cuts[1:])]
        a += [pd.Polyhedron.from_generators([(cuts[-1],)], [(1,)], n=1)]
        m = F(rng.randint(-3, 3), 2)
        b = [pd.Polyhedron.from_generators([(m,)], [(-1,)], n=1), pd.Polyhedron.from_generators([(m,)], [(1,)], n=1)]
        doc = {
            "schema_version": "1",
            "kind": "complexes",
            "payload": {"complexes": [[polyhedron_to_json(p) for p in a], [polyhedron_to_json(p) for p in b]]},
        }
        yield "refine", [], json.dumps(doc, sort_keys=True, indent=2) + "\n", None


def main() -> int:
    tmp = ROOT / ".bench_work" / "pool"
    tmp.mkdir(parents=True, exist_ok=True)
    rng = random.Random(POOL_SEED)
    pool = []
    for command, args, doc, golden in candidates(rng):
        code, out = run_pdiv(command, args, doc, tmp)
        if code not in (0, 2):
            print(f"skipped {command} {args}: exit {code}", file=sys.stderr)
            continue
        entry = {
            "id": f"{command}-{sum(e['command'] == command for e in pool)}",
            "command": command,
            "args": args,
            "doc": doc,
            "exit": code,
            "sha256": hashlib.sha256(out).hexdigest(),
        }
        if golden:
            entry["golden"] = golden
        pool.append(entry)
        print(entry["id"], code, file=sys.stderr)
    (HERE / "cli_pool.json").write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
