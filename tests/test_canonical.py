"""One DD per construction, and exact point tests on integers.

`polyhedra._canonical` runs the DD (`_dd`) once and reads the other side off
the generator-facet incidence.  These tests compare it, and every `Cone`
and `Polyhedron` built on it, with a copy of the route it replaced, which
ran the DD a second time on the first result.  The point tests clear
denominators once and compare integers; they are checked against the
`Fraction` dot products they replaced.  The chamber walk over one
polyhedron's face images of the largest dimension is checked against a
BFS closure of all face images, and where that is too slow, against the
chambers of sample points; its projected faces read off the incidence,
the face test without a construction and the images on the homogenized
cone are checked against copies of the routes they replaced.  On one row
the cells read off the vertex images are checked against the walk and
the BFS, and they cover the image with no vertex image inside a cell.
Faces are read off the incidence with no DD, and a polyhedron computes its
views on first access; both are checked against copies of the routes they
replaced, field by field.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from fraction_route import fraction_primitive, fraction_rank
from helpers import counting, dd_cone
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from pdivisors import polyhedra
from pdivisors.linalg import _cleared, _int_row, _kernel, vdot, vec, vsub
from pdivisors.polyhedra import Cone, Polyhedron, chamber_complex, hull

F = Fraction
memo = polyhedra._canonical


def two_pass(n, gens, lines):
    """(rays, lines, ineqs, eqs) of pos(gens) + span(lines), with a second
    DD for the V-side."""
    ineqs, eqs = dd_cone(gens, lines, n)
    rays, clines = dd_cone(ineqs, eqs, n)
    return tuple(rays), tuple(clines), tuple(ineqs), tuple(eqs)


def fields(cone):
    """The four sides a construction (`_canonical`) returns on its cone."""
    return cone.rays, cone.lines, cone.ineqs, cone.eqs


def _slots(obj):
    """The stored fields of a cone, without the values it keeps once
    computed (dual, hash, polyhedron), or every slot of a polyhedron."""
    names = ("n", "rays", "lines", "ineqs", "eqs") if isinstance(obj, Cone) else type(obj).__slots__
    return tuple(getattr(obj, k) for k in names)


def _random_gens(rng, n):
    """Generators with redundant, duplicate and positively scaled rows and
    sometimes a pair g, -g; lines from a second short list."""
    gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 2 * n + 1))]
    if len(gens) >= 2:
        # a positive combination is redundant
        gens.append(tuple(a + 2 * b for a, b in zip(gens[0], gens[1])))
    for g in rng.sample(gens, min(len(gens), rng.randint(0, 2))):
        gens.insert(rng.randrange(len(gens) + 1), rng.choice([g, tuple(F(5, 2) * x for x in g)]))
    if gens and rng.random() < 0.3:
        gens.append(tuple(-x for x in gens[0]))
    lines = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.choice([0, 0, 0, 1, 2]))]
    return gens, lines


def _cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        yield (n, *_random_gens(rng, n))
    for n in range(1, 6):
        # the zero cone and the full cone
        yield n, [], []
        yield n, [], [tuple(int(i == j) for j in range(n)) for i in range(n)]


def test_construction_matches_two_dd_route():
    kinds = {"lineality": 0, "equations": 0, "redundant": 0}
    for n, gens, lines in _cases(seed=7, count=400):
        rows = polyhedra._primitive_rows
        got = fields(memo.__wrapped__(n, rows(gens), rows(lines)))
        assert got == two_pass(n, gens, lines)
        assert fields(memo(n, rows(gens), rows(lines))) == got
        rays, clines, ineqs, eqs = got
        c = Cone.from_rays(gens, lines, n)
        assert _slots(c) == (n, rays, clines, ineqs, eqs)
        # the H-side of the dual is the same rows read as inequalities
        d = Cone.from_inequalities(gens, lines, n)
        assert _slots(d) == (n, ineqs, eqs, rays, clines)
        # every field comes out sorted, so `dual` swaps the sides as they are
        for cone in (c, d):
            assert all(list(f) == sorted(f) for f in _slots(cone)[1:])
            assert _slots(cone.dual()) == (n, cone.ineqs, cone.eqs, cone.rays, cone.lines)
            assert _slots(cone.dual().dual()) == _slots(cone)
        kinds["lineality"] += bool(clines and rays)
        kinds["equations"] += bool(eqs and ineqs)
        kinds["redundant"] += len(set(rows(gens))) > len(rays) + 2 * len(clines)
    assert min(kinds.values()) > 30, kinds


def test_polyhedra_match_two_dd_route(monkeypatch):
    """Polyhedra, empty ones included, are built the same on both routes."""
    rng = random.Random(19)
    inputs = []
    for _ in range(120):
        n = rng.randint(1, 4)
        pts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        rays, lines = _random_gens(rng, n)
        halfspaces = [(tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 1)) for _ in range(rng.randint(0, 6))]
        eqs = [(tuple(rng.randint(-1, 1) for _ in range(n)), rng.randint(-1, 1)) for _ in range(rng.choice([0, 0, 1]))]
        inputs.append((n, pts, rays[:3], lines[:1], halfspaces, eqs))
    # an infeasible system
    inputs.append((2, [(0, 0)], [], [], [((1, 0), 1), ((-1, 0), 0)], []))

    def build():
        out = []
        for n, pts, rays, lines, halfspaces, eqs in inputs:
            p = Polyhedron.from_generators(pts, rays, lines, n)
            q = Polyhedron.from_H(halfspaces, eqs, n)
            out += [p, q, p.intersect(q), p.tail() if not p.empty else p]
            out += p.faces()
        return out

    one = build()
    slots = [_slots(x) for x in one]
    monkeypatch.setattr(polyhedra, "_canonical", lambda n, g, l: Cone(n, *two_pass(n, g, l)))
    assert [_slots(x) for x in build()] == slots
    polys = [x for x in one if isinstance(x, Polyhedron)]
    assert sum(p.empty for p in polys) > 10
    # equality is equality of the generators, and equal polyhedra hash equally
    for a, b in itertools.product(polys[:150], repeat=2):
        same = (a.n, a.vertices, a.rays, a.lines) == (b.n, b.vertices, b.rays, b.lines)
        assert (a == b) == same
        assert not same or hash(a) == hash(b)


_row = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(_row, max_size=8),
    st.lists(_row, max_size=2),
    st.integers(1, 3),
)
def test_construction_property(n, gens, lines, scale):
    gens = [tuple(scale * x for x in g[:n]) for g in gens]
    lines = [tuple(g[:n]) for g in lines]
    rows = polyhedra._primitive_rows
    assert fields(memo.__wrapped__(n, rows(gens), rows(lines))) == two_pass(n, gens, lines)
    assert fields(memo.__wrapped__(n, rows(gens + gens[:2]), rows(lines))) == two_pass(n, gens, lines)


def test_cold_construction_runs_one_dd_and_warm_none(monkeypatch):
    calls = counting(monkeypatch, "_dd")
    constructions = [
        lambda: Cone.from_rays([(1, 0, 0), (1, 1, 0), (0, 1, 0), (1, 2, 3)], [(0, 0, 1)]),
        lambda: Cone.from_inequalities([(1, 0, 0), (0, 1, 0), (1, 1, 1)], [(0, 0, 0)]),
        lambda: Polyhedron.from_generators([(0, 0), (F(1, 2), 1), (1, 0)], [(1, 1)]),
        lambda: Polyhedron.from_H([((1, 0), 0), ((0, 1), F(-1, 3)), ((-1, -1), -2)]),
    ]
    for build in constructions:
        memo.cache_clear()
        calls.clear()
        cold = build()
        assert len(calls) == 1
        calls.clear()
        assert build() == cold
        assert calls == []


# -- exact point tests on integers -------------------------------------------


def fraction_contains_point(p, x):
    x = vec(x)
    return not p.empty and all(vdot(a, x) >= b for a, b in p.ineqs) and all(
        vdot(a, x) == b for a, b in p.eqs
    )


def fraction_cone_contains(c, x):
    x = vec(x)
    return all(vdot(a, x) >= 0 for a in c.ineqs) and all(vdot(a, x) == 0 for a in c.eqs)


def fraction_contains(p, q):
    if q.empty:
        return True
    if p.empty:
        return False
    return (
        all(fraction_contains_point(p, v) for v in q.vertices)
        and all(vdot(a, r) >= 0 for a, _ in p.ineqs for r in q.rays)
        and all(vdot(a, r) == 0 for a, _ in p.eqs for r in q.rays)
        and all(vdot(a, l) == 0 for a, _ in p.ineqs + p.eqs for l in q.lines)
    )


def fraction_contains_cone(c, d):
    """pos(d.rays) + span(d.lines) lies in c: on Fractions, every ray and
    both signs of every line pass c's inequalities and equations."""
    gens = list(d.rays) + list(d.lines) + [tuple(-x for x in l) for l in d.lines]
    return all(fraction_cone_contains(c, g) for g in gens)


def fraction_is_face_of(p, q):
    if p.empty:
        return True
    if not fraction_contains(q, p):
        return False
    tight = [
        (a, b)
        for a, b in q.ineqs
        if all(vdot(a, v) == b for v in p.vertices)
        and all(vdot(a, r) == 0 for r in p.rays + p.lines)
    ]
    return q.with_equalities(tight) == p


def _points(rng, p, n):
    """Points on facets and vertices, int points and points with
    denominators up to 10^12."""
    out = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(4)]
    big = 10**12
    for _ in range(4):
        out.append(tuple(F(rng.randint(-4 * big, 4 * big), rng.randint(1, big)) for _ in range(n)))
    if not p.empty:
        out += list(p.vertices)
        for f in p.faces()[1:]:
            c = f.relint_point()
            out.append(c)
            # off the facet by 1/10^12 in each coordinate direction
            out += [tuple(x + F(s, big) * (i == j) for j, x in enumerate(c)) for i in range(n) for s in (1, -1)]
    return out


def test_point_tests_match_fraction_route():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    cones_seen = {True: 0, False: 0}
    for _ in range(25):
        n = rng.randint(1, 4)
        pts = [tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3, 10**12])) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        rays = [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        p = Polyhedron.from_generators(pts, rays, n=n)
        q = Polyhedron.from_H([(tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 0)) for _ in range(n + 2)], n=n)
        # a polyhedron with a line, and the empty polyhedron
        line = (1,) + tuple(rng.randint(-1, 1) for _ in range(n - 1))
        l = Polyhedron.from_generators(pts, rays, [line], n)
        e = Polyhedron.empty_polyhedron(n)
        polys = (p, q, l, e)
        c = Cone.from_rays(pts, rays, n)
        for x in _points(rng, p, n) + _points(rng, q, n) + _points(rng, l, n):
            for poly in polys:
                got = poly.contains_point(x)
                assert got == fraction_contains_point(poly, x)
                seen[got] += 1
            assert c.contains(x) == fraction_cone_contains(c, x)
            assert c.contains([str(v) for v in x]) == c.contains(x)
        for a in [f for b in polys for f in b.faces()] + [e]:
            for b in polys:
                assert a.contains(b) == fraction_contains(a, b)
                assert b.contains(a) == fraction_contains(b, a)
                assert a.is_face_of(b) == fraction_is_face_of(a, b)
        # cones with lines and with equations, and their faces, both ways round
        normals = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n + 1)]
        cones = [c, Cone.from_rays(pts + rays, [line], n), Cone.from_inequalities(normals, [line], n)]
        for a, b in itertools.product(cones, [f for b in cones for f in b.faces()]):
            for got, want in (a.contains_cone(b), fraction_contains_cone(a, b)), (
                b.contains_cone(a), fraction_contains_cone(b, a)
            ):
                assert got == want
                cones_seen[got] += 1
    assert min(seen.values()) > 100, seen
    assert min(cones_seen.values()) > 300, cones_seen


def test_cleared_point():
    x = (F(1, 2), 3, F(-5, 10**12), "7/3", F(0))
    big, d = _cleared(x)
    assert d > 0 and all(type(v) is int for v in big + (d,))
    assert tuple(F(v, d) for v in big) == vec(x)
    assert d == 6 * 10**11
    assert _cleared(()) == ((), 1)
    assert _cleared((4, -2)) == ((4, -2), 1)


def test_faces_homogenize_vertices_on_integers():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        pts = [tuple(F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)) for _ in range(rng.randint(2, 6))]
        p = Polyhedron.from_generators(pts, [tuple(rng.randint(0, 1) for _ in range(n))], n=n)
        gens = [v + (Fraction(1),) for v in p.vertices] + [r + (0,) for r in p.rays]
        ints = [x + (d,) for x, d in map(_cleared, p.vertices)] + [r + (0,) for r in p.rays]
        assert list(map(_int_row, ints)) == list(map(_int_row, gens))
        # the incidence of `hom` on its integer rays is that of the Fraction
        # generators (v, 1) and (r, 0) on the normals (a, -b) of <a, x> >= b
        hom, n = p.hom, p.n
        points = [tuple(Fraction(x, r[n]) for x in r[:n]) + (1,) if r[n] else r for r in hom.rays]
        oracle = [sum(1 << i for i, g in enumerate(points) if not sum(x * y for x, y in zip(a, g))) for a in hom.ineqs]
        assert hom._incidence() == oracle
        assert sorted(map(_int_row, points)) == sorted(map(_int_row, gens))


# -- one construction per operation ------------------------------------------


def bfs_chamber_complex(pieces):
    """The closure that intersects every new cell with every member and
    compares whole polyhedra, and the containment filter on its cells."""
    family = sorted({p for p in pieces if not p.empty}, key=polyhedra._cell_key)
    closure = dict.fromkeys(family)
    frontier = list(family)
    while frontier:
        nxt = []
        for c in frontier:
            for f in family:
                i = c.intersect(f)
                if not i.empty and i not in closure:
                    closure[i] = None
                    nxt.append(i)
        frontier = nxt
    cells = [
        c
        for c in closure
        if not any(f.contains_point(c.relint_point()) and not f.contains(c) for f in family)
    ]
    return polyhedra.PolyhedralComplex(cells)


def dd_is_face_of(p, q):
    """p is a face of q when it equals the face of q.hom its tight facets
    cut out, built by a construction."""
    if not q.contains(p):
        return False
    hom = q.hom
    tight = [a for a in hom.ineqs if all(vdot(a, r) == 0 for r in p.hom.rays)]
    face = Cone.from_inequalities(hom.ineqs, [*hom.eqs, *tight], p.n + 1)
    return Polyhedron(p.n, face) == p


def fraction_cone_image(c, rows):
    rows = [vec(r) for r in rows]
    rays = [tuple(vdot(row, r) for row in rows) for r in c.rays]
    lines = [tuple(vdot(row, l) for row in rows) for l in c.lines]
    return Cone.from_rays([r for r in rays if any(r)], [l for l in lines if any(l)], len(rows))


def fraction_image(p, rows, shift=None):
    rows = [vec(r) for r in rows]
    m = len(rows)
    if p.empty:
        return Polyhedron.empty_polyhedron(m)
    shift = vec(shift) if shift is not None else (F(0),) * m
    verts = [tuple(vdot(row, v) + s for row, s in zip(rows, shift)) for v in p.vertices]
    rays = [tuple(vdot(row, r) for row in rows) for r in p.rays]
    lines = [tuple(vdot(row, l) for row in rows) for l in p.lines]
    return Polyhedron.from_generators(verts, [r for r in rays if any(r)], [l for l in lines if any(l)], m)


def _random_polyhedron(rng, n, lines=True):
    pts = [tuple(F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)) for _ in range(rng.randint(1, n + 2))]
    rays = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.choice([0, 0, 1, 2]))]
    line = [tuple(rng.randint(-1, 1) for _ in range(n))] if lines and rng.random() < 0.2 else []
    return Polyhedron.from_generators(pts, rays, line, n)


def _random_rows(rng, k, n):
    return [tuple(F(rng.randint(-2, 2), rng.choice([1, 1, 3])) for _ in range(n)) for _ in range(k)]


def test_chamber_complex_matches_bfs_closure(monkeypatch):
    calls = counting(monkeypatch, "_chamber_walk")
    rng = random.Random(61)
    seen = {1: 0, 2: 0, 3: 0, "several": 0}
    for _ in range(60):
        n = rng.randint(2, 3)
        k = rng.randint(1, n)
        p = _random_polyhedron(rng, n, lines=False)
        rows = _random_rows(rng, k, n)
        family = face_object_family(p, rows)
        calls.clear()
        got = chamber_complex(p, rows)
        assert got == bfs_chamber_complex(family)
        # one row never reaches the walk
        assert bool(calls) == (k > 1)
        seen[k] += 1
        seen["several"] += len(got.cells) > 1
    # the empty polyhedron has no face: no walk runs
    calls.clear()
    assert chamber_complex(Polyhedron.empty_polyhedron(2), [(1, 0), (0, 1)]) == bfs_chamber_complex([])
    assert not calls
    assert min(seen.values()) >= 5, seen


def test_chamber_complex_rejects_what_is_not_a_polyhedron():
    # a list of polyhedra, the input it once took, or a cone is refused up
    # front with the expected type named, not a bare AttributeError
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    for p in ([square], (square,), square.hom, None):
        with pytest.raises(TypeError, match="Polyhedron"):
            chamber_complex(p, [(1, 0)])
    assert len(chamber_complex(square, [(1, 0)]).cells) == 1


def test_a_chamber_that_no_two_images_cut_out():
    # the 4-simplex onto a convex pentagon: each triangle of the five vertex
    # images is a face image, and the inner pentagon of the diagonals is a
    # chamber that no two of them cut out; the walk reaches it across a
    # facet of a neighbouring cell
    simplex = hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    rows = [(2, 3, 1, -1), (0, 2, 3, 2)]
    got = chamber_complex(simplex, rows)
    assert got == bfs_chamber_complex(face_object_family(simplex, rows))
    assert sorted(len(c.vertices) for c in got.cells) == [3] * 10 + [5]


def face_object_family(p, rows):
    """The projected faces as face objects gave them: every nonempty face
    of p, built and then mapped."""
    return {f.map_image(rows) for f in p.faces()}


def _crosses_interior(image, f):
    """Whether the face image f meets the relative interior of the image
    of the polyhedron in its own relative interior."""
    x = f.relint_point()
    return all(vdot(a, x) > b for a, b in image.ineqs)


def test_top_dimensional_images_give_the_chambers():
    # the walk meets only the face images of the largest dimension; a
    # lower-dimensional image through the interior of the image is a union
    # of faces of the chambers, so the BFS closure of all images gives the
    # same maximal cells
    rng = random.Random(71)
    seen = dict.fromkeys(["lines", "crossing", "crossing with lines", "several", "n = 5"], 0)
    for _ in range(60):
        # few vertices: the BFS closure of all images grows fast with them
        n = rng.randint(2, 5)
        pts = [tuple(F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)) for _ in range(rng.randint(2, 4))]
        rays = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.choice([0, 1]))]
        lines = [tuple(rng.randint(-1, 1) for _ in range(n))] if rng.random() < 0.6 else []
        p = Polyhedron.from_generators(pts, rays, lines, n)
        rows = _random_rows(rng, rng.randint(2, min(n, 3)), n)
        family = face_object_family(p, rows)
        got = chamber_complex(p, rows)
        assert got == bfs_chamber_complex(family)
        image = p.map_image(rows)
        top = image.dim()
        assert {c.dim() for c in got.cells} == {top}
        crossing = any(f.dim() < top and _crosses_interior(image, f) for f in family)
        seen["lines"] += bool(p.lines)
        seen["crossing"] += crossing
        seen["crossing with lines"] += crossing and bool(p.lines)
        seen["several"] += len(got.cells) > 1
        seen["n = 5"] += n == 5
    assert min(seen.values()) >= 5, seen


def _chamber_of(images, y):
    """The intersection of the images that hold the point y."""
    holders = [f for f in images if f.contains_point(y)]
    return Polyhedron.from_H([h for f in holders for h in f.ineqs], [h for f in holders for h in f.eqs], len(y))


def test_chambers_of_sample_points_are_the_cells_on_many_images():
    # a polytope plus rays in Q^5 with 7 vertices and 2 rays onto 3 rows has
    # 186 face images, too many for a closure of their intersections.  The
    # cells are checked against the images of face objects: the chamber of
    # the image of a point of p, the intersection of the images of the
    # largest dimension holding it, is a cell, and each cell is the chamber
    # of its relative-interior point
    rng = random.Random(71)
    n = 5
    pts = [tuple(F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)) for _ in range(7)]
    rays = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(2)]
    p = Polyhedron.from_generators(pts, rays, [], n)
    rows = _random_rows(rng, 3, n)
    assert (len(p.vertices), len(p.rays)) == (7, 2)
    got = chamber_complex(p, rows)
    top = p.map_image(rows).dim()
    assert {c.dim() for c in got.cells} == {top}
    images = [f for f in face_object_family(p, rows) if f.dim() == top]
    for c in got.cells:
        assert _chamber_of(images, c.relint_point()) == c
    cells = set(got.cells)
    chambers = set()
    for _ in range(200):
        w = [rng.randint(1, 100) for _ in p.vertices]
        s = [rng.randint(0, 3) for _ in p.rays]
        z = [sum(x * y for x, y in zip(w, col)) / sum(w) for col in zip(*p.vertices)]
        z = [x + sum(a * b for a, b in zip(s, col)) for x, col in zip(z, zip(*p.rays))]
        chambers.add(_chamber_of(images, tuple(vdot(row, z) for row in rows)))
    assert chambers <= cells
    assert len(chambers) > 10 and len(cells) > 300


def _kernel_face_rows(rng, p):
    """Rational rows whose kernel holds a face of p of dimension >= 1 and
    the face, or None when p has no such face short of the whole space."""
    faces = [f for f in p.faces() if f.dim() >= 1]
    if not faces:
        return None
    f = rng.choice(faces)
    directions = [vsub(v, f.vertices[0]) for v in f.vertices[1:]] + [*f.rays, *f.lines]
    basis = _kernel(directions, p.n)
    if not basis:
        return None
    scales = [F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 3])) for _ in basis]
    rows = [tuple(s * x for x in b) for s, b in zip(scales, basis)]
    return rng.sample(rows, rng.randint(1, len(rows))), f


def test_projected_faces_match_face_objects(monkeypatch):
    calls = counting(monkeypatch, "_chamber_walk")
    rng = random.Random(67)
    seen = dict.fromkeys(["lines", "rays", "rational", "kernel face", "several"], 0)
    for _ in range(60):
        n = rng.randint(2, 3)
        p = _random_polyhedron(rng, n)
        drawn = _kernel_face_rows(rng, p) if rng.random() < 0.4 else None
        if drawn:
            rows, face = drawn
            assert face.map_image(rows).dim() == 0
            seen["kernel face"] += 1
        else:
            rows = _random_rows(rng, rng.randint(1, n), n)
        family = face_object_family(p, rows)
        assert polyhedra._projected_faces(p, rows) == sorted(family, key=lambda f: (f.hom.rays, f.hom.lines))
        calls.clear()
        got = chamber_complex(p, rows)
        assert got == bfs_chamber_complex(family)
        assert bool(calls) == (len(rows) > 1)
        seen["lines"] += bool(p.lines)
        seen["rays"] += bool(p.rays)
        seen["rational"] += any(type(x) is not int and x.denominator > 1 for r in rows for x in r)
        seen["several"] += len(got.cells) > 1
    assert min(seen.values()) >= 5, seen


def _one_row_polyhedron(rng, n, row):
    """A random polyhedron in Q^n, sometimes with rays and a line, which
    `row` maps to 0 or not."""
    pts = [tuple(F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)) for _ in range(rng.randint(1, n + 2))]
    rays = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.choice([0, 0, 1, 2]))]
    lines = []
    if rng.random() < 0.35:
        kernel = _kernel([row], n)
        if kernel and rng.random() < 0.6:
            lines = [rng.choice(kernel)]
        else:
            lines = [tuple(rng.randint(-1, 1) for _ in range(n))]
    return Polyhedron.from_generators(pts, rays, lines, n)


def assert_line_cells(got, p, row):
    """The cells cover the image of p under `row`, and no cell of dimension
    1 holds a vertex image in its relative interior."""
    image = p.map_image([row])
    points = [] if image.lines else sorted({vdot(row, v) for v in p.vertices})
    probes = points + [(a + b) / 2 for a, b in zip(points, points[1:])]
    probes += [points[0] - 1, points[-1] + 1] if points else [F(0)]
    for x in probes:
        assert any(c.contains_point((x,)) for c in got) == image.contains_point((x,)), x
    for c in got:
        if c.dim() == 1:
            assert all((b,) in c.vertices for b in points if c.contains_point((b,))), (c, points)


def test_one_row_chambers_match_bfs_closure(monkeypatch):
    # on one row `chamber_complex` reads the cells off the vertex images and
    # never calls the walk; they agree with the walk and the BFS
    walk = polyhedra._chamber_walk
    calls = counting(monkeypatch, "_chamber_walk")
    rng = random.Random(73)
    seen = dict.fromkeys(["lines to 0", "line not to 0", "rays", "point cell", "several cells"], 0)
    for _ in range(80):
        n = rng.randint(1, 3)
        row = tuple(F(rng.randint(-2, 2), rng.choice([1, 1, 3])) for _ in range(n))
        if not any(row):
            row = (F(1),) + row[1:]
        p = _one_row_polyhedron(rng, n, row)
        got = chamber_complex(p, [row])
        assert not calls
        assert_line_cells(got, p, row)
        assert got == walk(p, [row]), (p, row)
        assert got == bfs_chamber_complex(face_object_family(p, [row])), (p, row)
        # the route builds the cells and nothing else
        assert len(polyhedra._line_chambers(p, row)) == len(got.cells)
        lines = [vdot(row, x) for x in p.lines]
        seen["lines to 0"] += bool(lines) and not any(lines)
        seen["line not to 0"] += any(lines)
        seen["rays"] += any(vdot(row, r) for r in p.rays)
        seen["point cell"] += any(c.dim() == 0 for c in got.cells)
        seen["several cells"] += len(got.cells) > 1
    assert min(seen.values()) >= 5, seen
    # the vertex images 0, 2, 4 of a triangle give two gaps
    b = hull([(0, 5), (4, 5), (2, 6)])
    assert set(chamber_complex(b, [(1, 0)]).cells) == {hull([(0,), (2,)]), hull([(2,), (4,)])}


def test_is_face_of_matches_dd_face():
    rng = random.Random(67)
    seen = {True: 0, False: 0}
    for _ in range(30):
        n = rng.randint(1, 3)
        p, q = _random_polyhedron(rng, n), _random_polyhedron(rng, n)
        e = Polyhedron.empty_polyhedron(n)
        shift = tuple(F(1, 2) for _ in range(n))
        # faces, faces of the other, intersections and moved faces: most of
        # the latter are no faces
        cands = p.faces() + q.faces() + [p.intersect(q), e] + [f.translate(shift) for f in p.faces()[1:3]]
        for a in cands:
            for b in (p, q, e, p.intersect(q)):
                got = a.is_face_of(b)
                assert got == dd_is_face_of(a, b), (a, b)
                seen[got] += 1
    assert min(seen.values()) > 200, seen


def test_images_match_fraction_route():
    rng = random.Random(71)
    seen = {"zero": 0, "lines": 0, "empty": 0}
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(0, 3)
        rows = _random_rows(rng, k, n)
        if rng.random() < 0.2:
            # a map that kills the rays and lines
            rows = [tuple(0 for _ in range(n)) for _ in range(k)]
        shift = rng.choice([None, tuple(F(rng.randint(-3, 3), rng.choice([1, 4])) for _ in range(k))])
        p = _random_polyhedron(rng, n)
        if rng.random() < 0.1:
            p = Polyhedron.empty_polyhedron(n)
        c = Cone.from_rays(*_random_gens(rng, n), n=n)
        got, want = p.map_image(rows, shift), fraction_image(p, rows, shift)
        assert _slots(got) == _slots(want)
        assert _slots(c.map_image(rows)) == _slots(fraction_cone_image(c, rows))
        seen["zero"] += bool(p.rays) and not got.rays and not got.lines
        seen["lines"] += bool(p.lines)
        seen["empty"] += p.empty
    assert min(seen.values()) >= 5, seen
    # rows given as strings, as a document gives them
    p = Polyhedron.from_generators([(0, 0), (1, F(1, 2))], [(1, 1)])
    assert p.map_image([["1/2", "3"]], ["-1"]) == fraction_image(p, [[F(1, 2), 3]], [-1])


def test_int_row_on_int_bool_and_fraction_rows():
    rows = [(2, -4, 6), (0, 0), (), (True, False, True), (True, 2), (F(2, 3), F(-4, 9)), (3, F(6, 1), -9)]
    for row in rows:
        got = _int_row(row)
        assert all(type(x) is int for x in got), row
        if any(row):
            assert got == fraction_primitive(row)
        else:
            assert got == tuple(0 for _ in row)
    assert _int_row([4, 6]) == (2, 3)
    assert _int_row((True,)) == (1,)


# -- faces off the incidence, views on demand ----------------------------------


def from_rays_faces(c):
    """The faces of a cone, each built by a construction on its generators."""
    sets = polyhedra._face_sets(c)
    return [c] + [Cone.from_rays([c.rays[i] for i in polyhedra._members(s)], c.lines, c.n) for s in sets[1:]]


def from_rays_polyhedron_faces(p):
    hom, n = p.hom, p.n
    sets = polyhedra._face_sets(hom)
    return [
        p if s == sets[0] else Polyhedron(n, Cone.from_rays([hom.rays[i] for i in polyhedra._members(s)], hom.lines, n + 1))
        for s in sets
        if any(hom.rays[i][n] for i in polyhedra._members(s))
    ]


def eager_views(p):
    """(vertices, rays, lines, ineqs, eqs) computed eagerly from `hom`."""
    n, hom = p.n, p.hom
    verts = [tuple(F(x, r[n]) for x in r[:n]) for r in hom.rays if r[n]]
    return (
        tuple(sorted(verts)),
        tuple(r[:n] for r in hom.rays if not r[n]),
        tuple(l[:n] for l in hom.lines),
        tuple(sorted((a[:n], -a[n]) for a in hom.ineqs if any(a[:n]))),
        () if not verts else tuple(sorted((a[:n], -a[n]) for a in hom.eqs)),
    )


VIEWS = ("vertices", "rays", "lines", "ineqs", "eqs")


def _face_cases(seed, count):
    """Seeded cones with their duals, then polyhedra with rays and lines,
    H-polyhedra (some of them empty) and their intersections."""
    rng = random.Random(seed)
    cones, polys = [], []
    for n, gens, lines in _cases(seed, count):
        c = Cone.from_rays(gens, lines, n)
        cones += [c, c.dual()]
    for _ in range(count // 2):
        n = rng.randint(1, 4)
        pts = [tuple(F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(n)) for _ in range(rng.randint(1, n + 2))]
        rays, lines = _random_gens(rng, n)
        p = Polyhedron.from_generators(pts, rays[:3], lines[:1], n)
        halfspaces = [(tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 1)) for _ in range(rng.randint(0, 2 * n + 1))]
        q = Polyhedron.from_H(halfspaces, n=n)
        polys += [p, q, p.intersect(q)]
    polys.append(Polyhedron.empty_polyhedron(3))
    return cones, polys


def test_faces_match_from_rays_route_field_by_field():
    cones, polys = _face_cases(seed=83, count=250)
    seen = {"lines": 0, "lower": 0, "zero": 0, "poly lines": 0, "poly rays": 0, "empty": 0, "faces": 0}
    for c in cones:
        got = c.faces()
        assert [_slots(f) for f in got] == [_slots(f) for f in from_rays_faces(c)]
        assert got[0] is c
        # the equations of a canonical cone span the complement of its span
        assert [f.dim() for f in got] == [fraction_rank(f.rays + f.lines) for f in got]
        seen["lines"] += bool(c.lines and c.rays)
        seen["lower"] += bool(c.eqs and c.rays)
        seen["zero"] += not (c.rays or c.lines)
        seen["faces"] += len(got)
    for p in polys:
        got = p.faces()
        want = from_rays_polyhedron_faces(p)
        assert [_slots(f.hom) for f in got] == [_slots(f.hom) for f in want]
        assert [_slots(f) for f in got] == [_slots(f) for f in want]
        seen["poly lines"] += bool(p.lines)
        seen["poly rays"] += bool(p.rays)
        seen["empty"] += p.empty
        assert got == [] if p.empty else got[0] is p
    assert Polyhedron.empty_polyhedron(2).faces() == []
    assert min(seen.values()) >= 5 and seen["faces"] > 2000, seen


def test_faces_run_no_dd(monkeypatch):
    cones, polys = _face_cases(seed=89, count=60)
    memo.cache_clear()
    calls = counting(monkeypatch, "_dd")
    faces = [f for x in cones + polys for f in x.faces()]
    assert calls == [] and len(faces) > 500
    # a construction on a cold memo still runs its one DD
    Cone.from_rays([(1, 2, 3)])
    assert len(calls) == 1


def test_views_on_first_access_match_eager_formula():
    _, polys = _face_cases(seed=97, count=80)
    polys += [f for p in polys[:30] for f in p.faces()] + [Polyhedron.empty_polyhedron(1)]
    for p in polys:
        want = eager_views(p)
        assert p.empty == (not want[0])
        got = tuple(getattr(p, k) for k in VIEWS)
        assert got == want
        assert all(getattr(p, k) is v for k, v in zip(VIEWS, got))
    # the constructor leaves the view slots unset; the first access fills
    # one (a cold memo, so no polyhedron kept on the cone is handed out)
    memo.cache_clear()
    fresh = Polyhedron.from_generators([(0, 0), (1, 2)], [(1, 0)])
    for k in VIEWS:
        slot = Polyhedron.__dict__[k]
        with pytest.raises(AttributeError):
            slot.__get__(fresh)
        assert getattr(fresh, k) is slot.__get__(fresh)
    with pytest.raises(AttributeError):
        fresh.volume
    e = Polyhedron.empty_polyhedron(2)
    assert (e.vertices, e.rays, e.lines, e.ineqs, e.eqs) == ((), (), (), (), ())
