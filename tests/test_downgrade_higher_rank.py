"""The downgrade at rank 3 to 6, onto targets of rank 1 to 3.

When the weight projection has a target of rank 2 or more, the images of
two evaluation chambers can overlap without being equal.  Each case checks
what criterion 6 checks at rank 2: the two slice routes agree (`downgrade`
raises otherwise), the upgrade of the downgrade is the image of the input,
and the graded pieces match the sections of the evaluations on a window.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import counting
from test_canonical import bfs_chamber_complex
from pdivisors import cli, polyhedra
from pdivisors.base import BaseVariety, global_sections, point_label
from pdivisors.downgrade import DowngradeContext, _evaluation_graph, downgrade
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.linalg import vec
from pdivisors.pdivisor import PolyhedralDivisor
from pdivisors.polyhedra import Cone, chamber_complex, hull
from pdivisors.tvariety import TInvariantDivisor, box_and_psi, graded_sections
from pdivisors.upgrade import upgrade

F = Fraction
P1 = BaseVariety.projective_line()

# per rank, projections onto targets of each rank: first with a kernel
# spanned by coordinate vectors, then with one that is not
PROJECTIONS = {
    3: [
        [[0, 0, 1]],
        [[1, 1, 1]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 1, 0], [0, 0, 1]],
    ],
    4: [
        [[0, 0, 0, 1]],
        [[1, 1, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0]],
        [[1, 1, 0, 0], [0, 0, 1, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ],
    # the walk runs on 2 and 3 rows under the first, on 4 under the second
    5: [
        [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]],
        [[1, 1, 1, 1, 1]],
    ],
}


def orthant(m):
    return Cone.from_rays([tuple(int(i == j) for j in range(m)) for i in range(m)])


def minimal_case():
    """The smallest proper divisor whose projected chambers overlap."""
    tail = orthant(4)
    tp = tail.as_polyhedron()
    return PolyhedralDivisor(P1, 4, tail, {
        point_label(0): hull([(1, 0, 2, 0)]).minkowski(tp),
        point_label(1): hull([(1, 1, 2, 2), (1, 2, 0, 1)]).minkowski(tp),
    })


def random_divisor(rng, m, tail):
    """A rank-m divisor on the line with tail `tail` and two or three random
    coefficients; it need not be proper."""
    tp = tail.as_polyhedron()
    coeffs = {}
    for label in (point_label(0), point_label(1), point_label(F(-1)))[: rng.randint(2, 3)]:
        verts = [
            tuple(F(rng.randint(0, 2), rng.choice([1, 1, 2])) for _ in range(m))
            for _ in range(rng.randint(1, 2))
        ]
        coeffs[label] = hull(verts).minkowski(tp)
    return PolyhedralDivisor(P1, m, tail, coeffs)


def random_proper(rng, m):
    """Rejection-sample a proper rank-m divisor on the line, or None."""
    d = random_divisor(rng, m, orthant(m))
    return d if d.is_proper().proper else None


def assert_round_trip(d, rows):
    m = d.n
    ctx = DowngradeContext.from_projection(LatticeMap(Lattice(m, "M"), Lattice(len(rows), "Mbar"), rows))
    fan, dbar = downgrade(d, ctx)
    back = list(ctx.s_rows) + list(ctx.pi_rows)
    res = upgrade(dbar)
    assert res.divisor.tail == d.tail.map_image(back)
    for label, p in d.coeffs.items():
        assert res.divisor.coefficient(label) == p.map_image(back)
    assert set(res.divisor.coeffs) <= set(d.coeffs)
    omega = d.weight_cone()
    checked = 0
    for ub in itertools.product(range(2), repeat=len(rows)):
        ub = vec(ub)
        ra, vb = dbar.weights_at(ub)
        dv = TInvariantDivisor(fan, ra, dict(vb))
        box = box_and_psi(dv).box
        for up in itertools.product(range(-1, 2), repeat=ctx.fiber_rank):
            up = vec(up)
            lift = tuple(a + b for a, b in zip(ctx.kernel(up), ctx.s_star(ub)))
            in_box = box.contains_point(up)
            assert in_box == omega.contains(lift), (ub, up)
            if in_box:
                left = graded_sections(dv, up).dimension
                assert left == global_sections(d.evaluate(lift)).dimension, (ub, up)
                checked += 1
    assert checked > 0


def test_minimal_overlapping_chambers():
    assert minimal_case().is_proper().proper
    assert_round_trip(minimal_case(), [[1, 1, 0, 0], [0, 0, 1, 1]])


# the projection of the minimal case: before the downgrade took one weight per
# projected chamber, 3 of 8 random rank-4 divisors made the two slice routes
# disagree under it
OVERLAP = [[[1, 1, 0, 0], [0, 0, 1, 1]]]


@pytest.mark.parametrize(
    "m, count, seed, projections",
    [
        (3, 8, 303, PROJECTIONS[3]),
        (4, 6, 404, PROJECTIONS[4]),
        (4, 4, 405, OVERLAP),
        (5, 2, 505, PROJECTIONS[5]),
        (6, 3, 5, [
            [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
            [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]],
        ]),
    ],
    ids=["rank3", "rank4", "rank4-overlap", "rank5", "rank6"],
)
def test_random_round_trips(m, count, seed, projections):
    rng = random.Random(seed)
    done = 0
    tried = 0
    while done < count:
        tried += 1
        assert tried < 40 * count, "generator failed to reach the quota"
        d = random_proper(rng, m)
        if d is None:
            continue
        assert_round_trip(d, projections[done % len(projections)])
        done += 1
    assert done >= len(projections)


def _overlapping(images):
    """Whether two distinct images of the largest dimension meet in it."""
    top = max(i.dim() for i in images)
    tops = [i for i in images if i.dim() == top]
    return any(a.intersect(b).dim() == top for a, b in itertools.combinations(tops, 2))


def test_graph_chambers_match_the_evaluation_chamber_family():
    # the downgrade takes its weights from the chambers of one polyhedron,
    # the graph of the evaluation over the weight cone; they are those of
    # the projected faces of the evaluation chambers, as the BFS closure of
    # that family finds them
    rng = random.Random(37)
    cases = [(minimal_case(), OVERLAP[0])]
    while len(cases) < 100:
        m = rng.randint(2, 4)
        if rng.random() < 0.5:
            # a lower-dimensional tail gives a weight cone with lines
            units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
            d = random_divisor(rng, m, Cone.from_rays(rng.sample(units, rng.randint(1, m))))
        else:
            d = random_proper(rng, m)
        if d is not None:
            cases.append((d, [[rng.randint(-1, 1) for _ in range(m)] for _ in range(rng.randint(1, min(3, m)))]))
    seen = dict.fromkeys(["several", "lineality", "overlap", "rows 1", "rows 2", "rows 3"], 0)
    for d, rows in cases:
        chambers = d.evaluation_chambers()
        family = {f.map_image(rows) for c in chambers for f in c.faces()}
        got = chamber_complex(_evaluation_graph(d), [(*row, 0) for row in rows])
        assert got == bfs_chamber_complex(family), (d, rows)
        seen["several"] += len(got.cells) > 1
        seen["lineality"] += bool(d.weight_cone().lines)
        seen["overlap"] += _overlapping([c.map_image(rows) for c in chambers])
        seen[f"rows {len(rows)}"] += 1
    assert min(seen.values()) >= 10, seen


def test_pdiv_downgrade_minimal_case(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_bytes(cli.emit(minimal_case(), "pdivisor"))
    code = cli.main(["downgrade", str(p), "--projection", '[["1","1","0","0"],["0","0","1","1"]]'])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(captured.out)
    assert report["kind"] == "downgrade"
    assert report["divisor"]["lattice_rank"] == 2
    assert report["fan"]["members"]


def rank3_case():
    """A fixed proper rank-3 divisor with three coefficients."""
    tail = orthant(3)
    tp = tail.as_polyhedron()
    return PolyhedralDivisor(P1, 3, tail, {
        point_label(0): hull([(1, 0, 2), (0, F(1, 2), 1)]).minkowski(tp),
        point_label(1): hull([(0, 2, 0), (1, 1, 1)]).minkowski(tp),
        point_label(-1): hull([(0, 0, 0)]).minkowski(tp),
    })


POOL = {e["id"]: e for e in json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "cli_pool.json").read_text())}


# The budgets are the DD runs (`polyhedra._dd`) of one `pdiv downgrade` on a cold
# construction memo with order-free memo keys, and with faces, face tests and
# images that build no cone of their own; order-dependent keys, or cones
# rebuilt for faces or in face tests, exceed them.
@pytest.mark.parametrize(
    "doc, projection, budget",
    [
        (lambda: POOL["downgrade-2"]["doc"], '[["1","1"]]', 90),
        (lambda: cli.emit(rank3_case(), "pdivisor").decode(), '[["1","1","0"],["0","0","1"]]', 169),
    ],
    ids=["rank2", "rank3"],
)
def test_pdiv_downgrade_dd_budget(tmp_path, capsys, monkeypatch, doc, projection, budget):
    p = tmp_path / "d.json"
    p.write_text(doc(), encoding="utf-8")
    polyhedra._canonical.cache_clear()
    calls = counting(monkeypatch, "_dd")
    assert cli.main(["downgrade", str(p), "--projection", projection]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "downgrade"
    assert len(calls) <= budget
