from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from exact_lp import lp_feasible
from helpers import full_cone, locate

from pdivisors.errors import AmbientMismatch
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.linalg import vdot, vec
from pdivisors.polyhedra import (
    Cone,
    PolyhedralComplex,
    Polyhedron,
    chamber_complex,
    common_refinement,
    dual_cone,
    hull,
    linearity_regions,
    map_fiber_slice,
    minkowski_sum,
    normal_fan,
)

F = Fraction


# -- cones -------------------------------------------------------------


def test_dual_orthant_self_dual():
    c = Cone.from_rays([(1, 0), (0, 1)])
    assert dual_cone(c) == c


def test_dual_quadric_cone():
    # dual of pos{(1,1),(-1,1)} is pos{(1,1),(-1,1)} in the dual basis
    c = Cone.from_rays([(1, 1), (-1, 1)])
    d = dual_cone(c)
    assert set(d.rays) == {vec((1, 1)), vec((-1, 1))}
    assert dual_cone(d) == c


def test_dual_full_space_is_origin():
    c = full_cone(2)
    d = dual_cone(c)
    assert d.rays == () and d.lines == ()
    assert d == Cone.zero(2)


def test_dual_involution_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(0, 5)
        rays = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rays = [r for r in rays if any(r)]
        c = Cone.from_rays(rays, n=n)
        assert dual_cone(dual_cone(c)) == c
        # containment duality: <x, y> >= 0 for x in c, y in dual
        d = dual_cone(c)
        for r in c.rays:
            for s in d.rays:
                assert vdot(r, s) >= 0


def test_cone_halfspace_consistency_random():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 4)
        rays = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        c = Cone.from_rays(rays, n=n)
        for r in rays:
            assert c.contains(r)
        # H-rep and V-rep agree: rebuilding from either gives the same cone
        assert Cone.from_inequalities(c.ineqs, c.eqs, n) == c
        assert Cone.from_rays(c.rays, c.lines, n) == c


def test_unimodular_simplex_cone_dim():
    cols = [(0, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 1)]
    c = Cone.from_rays(cols)
    assert c.is_pointed() and c.is_fulldim()
    assert len(c.rays) == 4


# -- hull --------------------------------------------------------------


def test_hull_segment():
    p = hull([(0, 0), (0, 1)])
    assert p.vertices == (vec((0, 0)), vec((0, 1)))
    assert p.rays == () and p.lines == ()


def test_hull_single_point():
    p = hull([(3, 5)])
    assert p.vertices == (vec((3, 5)),)
    assert p.dim() == 0


def test_hull_empty_input():
    p = Polyhedron.from_generators([], [(1, 0)], n=2)
    assert p.empty


def test_hull_random_points_lp_oracle():
    rng = random.Random(23)
    for _ in range(12):
        pts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)) for _ in range(6)]
        p = hull(pts)
        # oracle: a point is a vertex iff not a convex combination of the others
        for q in pts:
            others = [x for x in pts if x != q]
            m = len(others)
            a_eq = [[others[j][d] for j in range(m)] for d in range(3)] + [[1] * m]
            b_eq = list(q) + [1]
            a_ub = [[-(1 if j == i else 0) for j in range(m)] for i in range(m)]
            feas = lp_feasible(a_ub, [0] * m, a_eq, b_eq, n=m)
            if feas is None:
                assert q in p.vertices
            else:
                assert q not in p.vertices
        # every original point is inside
        for q in pts:
            assert p.contains_point(q)


def test_hull_vertex_extraction_roundtrip_random():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 3)
        pts = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        rays = [r for r in rays if any(r)]
        p = Polyhedron.from_generators(pts, rays, n=n)
        q = Polyhedron.from_generators(p.vertices, p.rays, p.lines, n=n)
        assert p == q


# -- minkowski ---------------------------------------------------------


def test_minkowski_interval_shift():
    a = hull([(F(-1, 2),)])
    b = hull([(0,), (1,)])
    s = minkowski_sum(a, b)
    assert s == hull([(F(-1, 2),), (F(1, 2),)])


def test_minkowski_neutral_and_absorbing():
    p = hull([(0, 0), (1, 0), (0, 1)])
    zero = hull([(0, 0)])
    assert minkowski_sum(p, zero) == p
    e = Polyhedron.empty_polyhedron(2)
    assert minkowski_sum(p, e).empty


def test_minkowski_triangle_oracle():
    rng = random.Random(41)
    for _ in range(15):
        t1 = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(3)]
        t2 = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(3)]
        a, b = hull(t1), hull(t2)
        s = minkowski_sum(a, b)
        oracle = hull([tuple(x + y for x, y in zip(p, q)) for p in t1 for q in t2])
        assert s == oracle


def test_minkowski_commutative_associative_tail():
    rng = random.Random(43)
    for _ in range(10):
        ps = []
        for _ in range(3):
            pts = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3)]
            rays = [tuple(rng.randint(0, 2) for _ in range(2))]
            rays = [r for r in rays if any(r)]
            ps.append(Polyhedron.from_generators(pts, rays, n=2))
        a, b, c = ps
        assert minkowski_sum(a, b) == minkowski_sum(b, a)
        assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c))
        ts = minkowski_sum(a, b).tail()
        expect = Cone.from_rays(list(a.tail().rays) + list(b.tail().rays), n=2)
        assert ts == expect


# -- intersection ------------------------------------------------------


def test_intersect_self():
    p = hull([(0, 0), (2, 0), (0, 2)])
    assert p.intersect(p) == p


def test_intersect_boxes_oracle():
    rng = random.Random(47)
    for _ in range(15):
        lo1 = [rng.randint(-4, 0) for _ in range(2)]
        hi1 = [l + rng.randint(0, 4) for l in lo1]
        lo2 = [rng.randint(-4, 0) for _ in range(2)]
        hi2 = [l + rng.randint(0, 4) for l in lo2]
        b1 = hull(list(itertools.product(*[[l, h] for l, h in zip(lo1, hi1)])))
        b2 = hull(list(itertools.product(*[[l, h] for l, h in zip(lo2, hi2)])))
        i = b1.intersect(b2)
        lo = [max(a, b) for a, b in zip(lo1, lo2)]
        hi = [min(a, b) for a, b in zip(hi1, hi2)]
        if any(l > h for l, h in zip(lo, hi)):
            assert i.empty
        else:
            assert i == hull(list(itertools.product(*[[l, h] for l, h in zip(lo, hi)])))


def test_intersect_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        hull([(0,)]).intersect(hull([(0, 0)]))


def test_point_tests_reject_points_of_another_length():
    cone = Cone.from_rays([(1, 0), (0, 1)])
    triangle = hull([(0, 0), (1, 0), (0, 1)])
    # `zip` used to cut the point to the ambient length and answer True
    for test in (
        lambda: cone.contains((1, 1, 1)),
        lambda: cone.contains((1,)),
        lambda: triangle.contains_point((0, 0, 7)),
        lambda: triangle.contains_point((0,)),
    ):
        with pytest.raises(AmbientMismatch):
            test()
    assert cone.contains((1, 1)) and triangle.contains_point((0, 0))


def test_constructors_reject_rows_of_another_length():
    cases = [
        lambda: Cone.from_rays([(1, 0, 0)], n=2),
        lambda: Cone.from_rays([(1, 0), (0, 1, 1)]),
        lambda: Cone.from_rays([(1, 0)], [(0, 1, 1)]),
        lambda: Cone.from_inequalities([(1, 0, 0)], n=2),
        lambda: Cone.from_inequalities([(1, 0)], [(1,)]),
        lambda: Polyhedron.from_generators([(0, 0)], n=3),
        lambda: Polyhedron.from_generators([(0, 0)], [(1, 0, 0)]),
        lambda: Polyhedron.from_generators([(0, 0)], lines=[(1,)]),
        lambda: Polyhedron.from_H([((1, 0), 0)], n=3),
        lambda: Polyhedron.from_H([((1, 0), 0)], [((1, 0, 1), 2)]),
    ]
    for build in cases:
        with pytest.raises(AmbientMismatch):
            build()
    # the ambient dimension of empty input is still a ValueError of its own
    for build in (Cone.from_rays, Cone.from_inequalities, Polyhedron.from_generators, Polyhedron.from_H):
        with pytest.raises(ValueError, match="ambient dimension required"):
            build([])
    assert Cone.from_rays([(1, 0)], n=2) == Cone.from_rays([(1, 0)])


def test_maps_and_cuts_reject_rows_of_another_length():
    triangle = hull([(0, 0), (1, 0), (0, 1)])
    cone = Cone.from_rays([(1, 0), (0, 1)])
    # `zip` used to cut these rows, or indexing past them raised IndexError
    cases = {
        # a row of length 3 on Q^2 gave conv{(5), (6)}
        "Polyhedron.map_image": lambda: triangle.map_image([[1, 1, 5]]),
        "map_image shift": lambda: triangle.map_image([[1, 0], [0, 1]], [1]),
        # the second equation was dropped
        "map_fiber_slice": lambda: map_fiber_slice(triangle, [[1, 0], [0, 1]], [1], [[1, 0]]),
        "Cone.map_image": lambda: cone.map_image([[1]]),
        "preimage": lambda: triangle.preimage([[1], [0, 1]], 2),
        "preimage rows": lambda: triangle.preimage([[1, 0]], 2),
        "slice_at": lambda: triangle.slice_at((1, 1, 1), 1),
        "with_equalities": lambda: triangle.with_equalities([((1,), 0)]),
    }
    for name, build in cases.items():
        with pytest.raises(AmbientMismatch):
            build()
            pytest.fail(name)
    # the same calls with rows of the right length
    assert triangle.map_image([[1, 1]], [5]) == hull([(5,), (6,)])
    assert map_fiber_slice(triangle, [[1, 0], [0, 1]], [0, 1], [[1, 0]]) == hull([(0,)])
    assert cone.map_image([[1, 1]]) == Cone.from_rays([(1,)])
    assert triangle.preimage([[1, 0], [0, 1]], 2) == triangle
    assert triangle.slice_at((1, 1), 1) == hull([(1, 0), (0, 1)])


def test_chambers_and_regions_reject_rows_of_another_length():
    triangle = hull([(0, 0), (2, 0), (0, 2)])
    segment = hull([(0, 0, 0), (1, 1, 1)])
    plane = Polyhedron.from_generators([(0, 0)], lines=[(1, 0), (0, 1)])
    # `zip` used to cut these rows and slopes
    cases = {
        # one row of length 3 on Q^2 gave conv{5, 7}
        "chamber_complex long row": lambda: chamber_complex(triangle, [(1, 0, 5)]),
        # (1,) acted as (1, 0)
        "chamber_complex short row": lambda: chamber_complex(triangle, [(1,)]),
        "chamber_complex rows": lambda: chamber_complex(triangle, [(1, 0), (0, 1, 1)]),
        # two cells came back
        "linearity_regions": lambda: linearity_regions([((1, 0, 0), 0), ((0, 1), 1)], triangle),
        "normal_fan": lambda: normal_fan([segment], plane),
    }
    for name, build in cases.items():
        with pytest.raises(AmbientMismatch):
            build()
            pytest.fail(name)
    # the same calls with rows of the right length
    assert set(chamber_complex(triangle, [(1, 0)]).cells) == {hull([(0,), (2,)])}
    assert len(chamber_complex(triangle, [(1, 0), (0, 1)]).cells) == 1
    assert len(linearity_regions([((1, 0), 0), ((0, 1), 1)], triangle).cells) == 2
    assert len(normal_fan([triangle], plane).cells) == 3


def _entry(k):
    """The entries 1, 2, ..., k."""
    return tuple(range(1, k + 1))


# each takes a vector or polyhedron of length 2 + delta where it needs 2;
# `zip` used to cut or pad what these got
LENGTH_CASES = {
    # the shift (1, 2, 3) moved the triangle by (1, 2)
    "Polyhedron.translate": lambda delta: hull([(0, 0), (1, 0), (0, 1)]).translate(_entry(2 + delta)),
    "Polyhedron.translate, empty": lambda delta: Polyhedron.empty_polyhedron(2).translate(_entry(2 + delta)),
    # the map [[1, 0]] took (1, 2, 3) to (1,)
    "LatticeMap.__call__": lambda delta: LatticeMap(Lattice(2), Lattice(1), [[1, 0]])(_entry(2 + delta)),
    # pos((1, 0)) contained pos((1, 0, 0))
    "Cone.contains_cone": lambda delta: Cone.from_rays([(1, 0)]).contains_cone(
        Cone.from_rays([(1,) + (0,) * (1 + delta)])
    ),
    "Polyhedron.contains": lambda delta: hull([(0, 0), (1, 0)]).contains(hull([(0,) * (2 + delta)])),
    # a point of another ambient space was no face, without an error
    "Polyhedron.is_face_of": lambda delta: hull([(0,) * (2 + delta)]).is_face_of(hull([(0, 0), (1, 0)])),
}


@pytest.mark.parametrize("delta", [-1, 1], ids=["one too few", "one too many"])
@pytest.mark.parametrize("name", sorted(LENGTH_CASES))
def test_entry_points_reject_vectors_of_another_length(name, delta):
    with pytest.raises(AmbientMismatch):
        LENGTH_CASES[name](delta)
    # the right length computes
    LENGTH_CASES[name](0)


def test_right_lengths_answer_as_before():
    triangle = hull([(0, 0), (1, 0), (0, 1)])
    assert triangle.translate((1, 2)) == hull([(1, 2), (2, 2), (1, 3)])
    assert LatticeMap(Lattice(2), Lattice(1), [[1, 0]])((1, 2)) == (1,)
    assert Cone.from_rays([(1, 0), (0, 1)]).contains_cone(Cone.from_rays([(1, 1)]))
    assert hull([(0, 0)]).is_face_of(triangle) and not hull([(0, 0), (1, 1)]).is_face_of(triangle)
    # a complex of cells in two ambient spaces is no complex
    with pytest.raises(AmbientMismatch):
        PolyhedralComplex([hull([(0,), (1,)]), hull([(0, 0), (1, 0)])])


def test_minkowski_and_translate_match_the_fraction_sums():
    # both are taken on the integer rays of `hom`; the fields are those of
    # `from_generators` on the Fraction vertex sums
    rng = random.Random(29)
    seen = {"rays": 0, "lines": 0, "empty": 0}
    for _ in range(150):
        n = rng.randint(1, 4)
        p, q = (
            Polyhedron.from_generators(
                [tuple(F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)) for _ in range(rng.randint(1, 4))],
                [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.choice([0, 1, 2]))],
                [tuple(rng.randint(-1, 1) for _ in range(n))] if rng.random() < 0.2 else [],
                n,
            )
            for _ in range(2)
        )
        if rng.random() < 0.05:
            q = Polyhedron.empty_polyhedron(n)
        want = (
            Polyhedron.empty_polyhedron(n)
            if p.empty or q.empty
            else Polyhedron.from_generators(
                [tuple(a + b for a, b in zip(v, w)) for v in p.vertices for w in q.vertices],
                p.rays + q.rays,
                p.lines + q.lines,
                n,
            )
        )
        assert _fields(p.minkowski(q)) == _fields(want)
        w = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        moved = Polyhedron.from_generators([tuple(a + b for a, b in zip(v, w)) for v in p.vertices], p.rays, p.lines, n)
        assert _fields(p.translate(w)) == _fields(moved)
        assert p.translate([str(x) for x in w]) == moved
        seen["rays"] += bool(p.rays and q.rays)
        seen["lines"] += bool(p.lines or q.lines)
        seen["empty"] += q.empty
    assert min(seen.values()) >= 3, seen


def _fields(p):
    h = p.hom
    return p.n, h.rays, h.lines, h.ineqs, h.eqs


def test_quadric_cone_height_zero_slice():
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    sigma = delta.as_polyhedron().slice_at((0, 1), 0)
    assert sigma == hull([(0, 0)])


# -- maps --------------------------------------------------------------


def test_map_image_projection():
    p = hull([(0, 0), (1, 1)])
    q = p.map_image([(0, 1)])  # kill first coordinate
    assert q == hull([(0,), (1,)])


def test_map_image_identity():
    p = hull([(0, 0), (1, 0), (0, 1)])
    assert p.map_image([(1, 0), (0, 1)]) == p


def test_map_image_vertex_subset_random():
    rng = random.Random(53)
    for _ in range(15):
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(5)]
        p = hull(pts)
        rows = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2)]
        q = p.map_image(rows)
        images = [tuple(vdot(vec(r), vec(v)) for r in rows) for v in p.vertices]
        assert set(q.vertices) <= set(vec(i) for i in images)
        assert q == hull(images)


def test_map_fiber_slice_segment():
    p = hull([(0, 0), (0, 1)])  # conv{0, e2}
    # fiber of (a,b) -> b over 0, retract to first coordinate
    s = map_fiber_slice(p, [(0, 1)], (0,), [(1, 0)])
    assert s == hull([(0,)])
    # fiber over a point outside the image is empty
    s2 = map_fiber_slice(p, [(0, 1)], (5,), [(1, 0)])
    assert s2.empty


def _fiber_cases(seed, count):
    """Seeded (p, rows, target, retraction) in Q^2 to Q^5 with 1-3 rows:
    polyhedra with and without rays and lines, some cut to a hyperplane so
    they are not full-dimensional, and rational targets, some the image of
    a vertex."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 5)
        verts = [tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        rays = [r for r in ([rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 2))) if any(r)]
        lines = [l for l in ([rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.choice((0, 0, 1, 2)))) if any(l)]
        p = Polyhedron.from_generators(verts, rays, lines, n)
        if rng.random() < 0.25:
            p = p.with_equalities([(tuple(rng.randint(-1, 1) for _ in range(n)), rng.randint(-1, 1))])
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, min(3, n)))]
        if p.empty or rng.random() < 0.7:
            target = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rows)
        else:
            v = rng.choice(p.vertices)
            target = tuple(vdot(vec(r), v) for r in rows)
        retraction = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n))]
        out.append((p, rows, target, retraction))
    return out


def test_map_fiber_slice_matches_the_cut_and_image():
    # the fiber's generators come from the rays and incidence of p.hom; the
    # route that builds the fiber and then its image is the oracle
    seen = {"lines": 0, "not full-dimensional": 0, "through a vertex": 0, "empty": 0, "line step": 0}
    for p, rows, target, retraction in _fiber_cases(seed=27, count=400):
        got = map_fiber_slice(p, rows, target, retraction)
        want = p.with_equalities(list(zip(rows, target))).map_image(retraction)
        for name in ("empty", "vertices", "rays", "lines", "ineqs", "eqs"):
            assert getattr(got, name) == getattr(want, name), (p, rows, target, retraction, name)
        seen["lines"] += bool(p.lines)
        seen["not full-dimensional"] += not p.empty and p.dim() < p.n
        seen["through a vertex"] += any(
            all(vdot(vec(r), v) == t for r, t in zip(rows, target)) for v in p.vertices
        )
        seen["empty"] += want.empty
        seen["line step"] += any(vdot(vec(r), vec(l)) for r in rows for l in p.lines)
    assert min(seen.values()) > 40, seen


def test_cross_section_quadric():
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    seg = delta.as_polyhedron().slice_at((0, 2), 1)
    assert seg == hull([(F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))])


def test_cross_section_orthant_facet():
    c = Cone.from_rays([(1, 0), (0, 1)])
    f = c.as_polyhedron().slice_at((1, 0), 0)
    assert f == Polyhedron.from_generators([(0, 0)], [(0, 1)], n=2)


# -- complexes ---------------------------------------------------------


def test_common_refinement_1d():
    a = PolyhedralComplex([Polyhedron.from_generators([(0,)], [(1,)], n=1)])
    b = PolyhedralComplex(
        [
            hull([(F(-1, 2),), (0,)]),
            Polyhedron.from_generators([(0,)], [(1,)], n=1),
        ]
    )
    r = common_refinement([a, b])
    assert r.cells == (Polyhedron.from_generators([(0,)], [(1,)], n=1),)


def test_common_refinement_self():
    cells = [hull([(0,), (1,)]), hull([(1,), (2,)])]
    c = PolyhedralComplex(cells)
    c.validate()
    assert common_refinement([c, c]) == c


def test_chamber_complex_pathology_ray():
    # projections of the faces of the A4-pathology cone introduce (1,1,1)
    cols = [(0, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 1)]
    delta = Cone.from_rays(cols)
    proj = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    cc = chamber_complex(delta.as_polyhedron(), proj)
    rays = cc.rays()
    assert vec((1, 1, 1)) in rays
    maximal = [c for c in cc.cells if c.dim() == 3]
    expected = {
        Cone.from_rays([(1, 1, 1), (0, 1, 0), (1, 1, 0)]).as_polyhedron(),
        Cone.from_rays([(1, 1, 1), (0, 1, 0), (0, 0, 1)]).as_polyhedron(),
        Cone.from_rays([(1, 1, 1), (0, 0, 1), (1, 0, 1)]).as_polyhedron(),
        Cone.from_rays([(1, 1, 1), (1, 1, 0), (1, 0, 1)]).as_polyhedron(),
    }
    assert set(maximal) == expected


def test_linearity_regions_symmetric_kink():
    dom = hull([(0,), (1,)])
    regs = linearity_regions([((1,), 0), ((-1,), 1)], dom)
    assert set(regs.cells) == {hull([(0,), (F(1, 2),)]), hull([(F(1, 2),), (1,)])}


def test_linearity_regions_single_piece():
    dom = hull([(0, 0), (1, 0), (0, 1)])
    regs = linearity_regions([((2, 3), 5)], dom)
    assert regs.cells == (dom,)


def test_linearity_regions_grid_oracle():
    rng = random.Random(61)
    for _ in range(8):
        pieces = [
            (tuple(rng.randint(-2, 2) for _ in range(2)), F(rng.randint(-3, 3)))
            for _ in range(3)
        ]
        dom = hull([(-2, -2), (2, -2), (-2, 2), (2, 2)])
        regs = linearity_regions(pieces, dom)
        # oracle: sample a grid, group by argmin piece
        step = F(1, 2)
        pts = [
            (F(i) * step, F(j) * step) for i in range(-4, 5) for j in range(-4, 5)
        ]
        for pt in pts:
            vals = [vdot(vec(a), vec(pt)) + c for a, c in pieces]
            mval = min(vals)
            argmins = [k for k, v in enumerate(vals) if v == mval]
            cell = locate(regs, pt)
            assert cell is not None
            # the cell's piece must attain the minimum at pt: every cell is
            # an argmin region of some piece, so pt's cell minimizer wins
            found = False
            for k in argmins:
                a, c = pieces[k]
                reg_ok = all(
                    vdot(vec(a), vec(v)) + c == min(vdot(vec(a2), vec(v)) + c2 for a2, c2 in pieces)
                    for v in cell.vertices
                )
                if reg_ok:
                    found = True
                    break
            assert found


def test_complex_validation_rejects_overlap():
    bad = PolyhedralComplex([hull([(0,), (2,)]), hull([(1,), (3,)])])
    with pytest.raises(ValueError):
        bad.validate()


def test_faces_of_square():
    sq = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    fs = sq.faces()
    dims = sorted(f.dim() for f in fs)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def _facet_walk_cone(c):
    """Reference: close the face set under 'add one facet as an equation'."""
    seen = {c: None}
    frontier = [c]
    while frontier:
        nxt = []
        for f in frontier:
            for a in f.ineqs:
                g = Cone.from_inequalities(f.ineqs, list(f.eqs) + [a], f.n)
                if g not in seen:
                    seen[g] = None
                    nxt.append(g)
        frontier = nxt
    return list(seen)


def _facet_walk_polyhedron(p):
    seen = {p: None}
    frontier = [p]
    while frontier:
        nxt = []
        for f in frontier:
            for a, b in f.ineqs:
                g = f.with_equalities([(a, b)])
                if not g.empty and g not in seen:
                    seen[g] = None
                    nxt.append(g)
        frontier = nxt
    return list(seen)


def _assert_same_faces(obj, faces, reference):
    assert len(faces) == len(set(faces))
    assert set(faces) == set(reference)
    assert any(f is obj for f in faces)


def test_faces_match_facet_walk_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        rays = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        lines = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 1))]
        c = Cone.from_rays([r for r in rays if any(r)], [l for l in lines if any(l)], n=n)
        _assert_same_faces(c, c.faces(), _facet_walk_cone(c))
    for _ in range(40):
        n = rng.randint(1, 3)
        verts = [[F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        rays = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        lines = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 1))]
        p = Polyhedron.from_generators(
            verts, [r for r in rays if any(r)], [l for l in lines if any(l)], n
        )
        _assert_same_faces(p, p.faces(), _facet_walk_polyhedron(p))


def test_faces_with_lineality():
    # a wedge times a line, and a half-strip times a line, so both kinds of
    # lineality are covered whatever the random draw
    c = Cone.from_rays([(1, 0, 0), (1, 1, 0)], [(1, 1, 1)])
    assert c.lines
    _assert_same_faces(c, c.faces(), _facet_walk_cone(c))
    p = Polyhedron.from_generators([(0, 0, 0), (0, 1, 0)], [(1, 0, 1)], [(0, 1, 1)])
    assert p.rays and p.lines
    _assert_same_faces(p, p.faces(), _facet_walk_polyhedron(p))


def test_lattice_points_triangle():
    t = hull([(0, 0), (2, 0), (0, 2)])
    pts = t.lattice_points()
    assert len(pts) == 6


def test_lattice_window_halfline():
    p = Polyhedron.from_generators([(F(1, 2),)], [(1,)], n=1)
    w = p.lattice_window(2)
    assert w == [vec((1,)), vec((2,))]
