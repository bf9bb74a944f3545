"""Faces without elimination, and the incidence the DD computes anyway.

`Cone._face` reads a face F of a pointed cone off its parent's incidence.
Its equations are written out for the zero face, a ray and a facet of a
full-dimensional cone, and take one elimination otherwise.  Its facet
normals are the parent's normals projected onto span(F), taken on the
side with fewer rows (`polyhedra._projections`): onto the rays of a
simplicial face with dim F <= codim F, else off the equations, by the
adjugate of a Gram matrix of one or two rows and by one elimination only
when both sides have three or more (Q^6 and up).  A parent with lines
keeps `_representatives`.  Every branch is checked field by field against
the construction on the face's generators.

`_dd` returns the tight set of each ray on every route (the pairs in
Q^1-Q^3, the identity frame, the frame of `_frame`), and `_canonical`
reads its generator-facet incidence off them; both are checked against
dot products.  A counting guard pins the eliminations per face.  A cone
keeps its ray-facet incidence (`Cone._incidence`): it is checked against
dot products, and a second read of it computes nothing.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from helpers import dd_cone
from test_canonical import _slots, two_pass

from pdivisors import polyhedra
from pdivisors.polyhedra import Cone, Polyhedron

F = Fraction


def _lifted(gens, extra):
    """The generators in `extra` more coordinates, each a combination of
    the first two: their cone has equations that are no unit rows."""
    return [g + tuple(g[0] - (k + 1) * g[1] for k in range(extra)) for g in gens]


def _face_parents(seed):
    """Cones to take the faces of: random pointed cones in Q^2 to Q^6,
    lifted ones with equations, cones over cubes and prisms, whose facets
    are not simplicial, their duals, and cones with lines."""
    rng = random.Random(seed)
    out = []
    for _ in range(60):
        n = rng.randint(2, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 3))]
        c = Cone.from_rays(gens, [], n)
        out += [c, c.dual()]
        if rng.random() < 0.5:
            extra = rng.randint(1, 2)
            out.append(Cone.from_rays(_lifted(gens, extra), [], n + extra))
        if rng.random() < 0.3:
            line = tuple(rng.randint(-1, 1) for _ in range(n))
            out.append(Cone.from_rays(gens, [line], n))
    for _ in range(6):
        gens = [tuple(rng.randint(-2, 3) for _ in range(6)) for _ in range(rng.randint(7, 8))]
        out.append(Cone.from_rays(gens, [], 6))
    for k in (2, 3):
        cube = [p + (1,) for p in itertools.product((-1, 1), repeat=k)]
        prism = [p + (h, 1) for p in itertools.product((-1, 1), repeat=k - 1) for h in (0, 2)]
        out += [Cone.from_rays(cube), Cone.from_rays(prism), Cone.from_rays(_lifted(cube, 2))]
    return out


def test_face_route_matches_from_rays_on_every_branch(monkeypatch):
    calls = []
    projections = polyhedra._projections

    def spy(rows, basis, onto):
        calls.append((len(basis), onto))
        return projections(rows, basis, onto)

    monkeypatch.setattr(polyhedra, "_projections", spy)
    seen = dict.fromkeys(
        ["span side", "orthogonal side", "Gram fallback", "non-simplicial", "parent eqs", "lines", "ray", "facet"], 0
    )
    faces = 0
    for c in _face_parents(seed=21):
        for s in polyhedra._face_sets(c)[1:]:
            calls.clear()
            got = c._face(s)
            want = Cone.from_rays([c.rays[i] for i in polyhedra._members(s)], c.lines, c.n)
            assert _slots(got) == _slots(want), (c, polyhedra._members(s))
            faces += 1
            if c.lines:
                seen["lines"] += 1
                assert calls == []
                continue
            dim, codim = got.dim(), got.n - got.dim()
            seen["parent eqs"] += bool(c.eqs)
            seen["non-simplicial"] += len(got.rays) > dim
            seen["ray"] += dim == 1
            seen["facet"] += not c.eqs and codim == 1
            for k, onto in calls:
                # the side with fewer rows, the rays only when they are a
                # basis, and an elimination only past two
                assert onto == (len(got.rays) == dim <= codim)
                assert k == (dim if onto else codim)
                assert k <= 2 or min(dim, codim) >= 3
                seen["Gram fallback" if k >= 3 else "span side" if onto else "orthogonal side"] += 1
    assert min(seen.values()) >= 10 and faces > 1500, seen


def _dd_keys(seed):
    """Memo keys in Q^1 to Q^5: generators of rank n, of lower rank, with
    lines and on a line, and the facets of each as the other direction."""
    rng = random.Random(seed)
    out = []
    for _ in range(150):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 4))]
        if n > 1 and rng.random() < 0.3:
            gens = [g[:-1] + (g[0],) for g in gens]
        lines = [tuple(rng.randint(-1, 1) for _ in range(n))] if rng.random() < 0.3 else []
        if lines and rng.random() < 0.5:
            # a generator on the line is 0 in the frame's coordinates
            gens += [lines[0], tuple(-x for x in lines[0])]
        key = (polyhedra._primitive_rows(gens), polyhedra._primitive_rows(lines), n)
        ineqs, eqs, _ = polyhedra._dd(*key)
        out += [key, (tuple(ineqs), tuple(eqs), n)]
    return out


def test_dd_tight_sets_are_the_incidence_on_every_route(monkeypatch):
    route = []
    small, frame = polyhedra._small_rays, polyhedra._frame

    def small_spy(*args):
        out = small(*args)
        route.append("small rays" if out is not None else None)
        return out

    def frame_spy(*args):
        route.append("frame")
        return frame(*args)

    monkeypatch.setattr(polyhedra, "_small_rays", small_spy)
    monkeypatch.setattr(polyhedra, "_frame", frame_spy)
    seen = dict.fromkeys(["small rays", "identity frame", "frame"], 0)
    for ineqs, eqs, n in _dd_keys(seed=22):
        route.clear()
        rays, lines, tight = polyhedra._dd(ineqs, eqs, n)
        assert (rays, lines) == dd_cone(ineqs, eqs, n)
        assert tight == [sum(1 << i for i, a in enumerate(ineqs) if not sum(map(int.__mul__, a, r))) for r in rays]
        taken = [r for r in route if r] or ["identity frame"]
        seen[taken[-1]] += 1
        # `_canonical` reads its V-side off these tight sets
        key = (n, ineqs, eqs)
        got = polyhedra._canonical.__wrapped__(*key)
        assert (got.rays, got.lines, got.ineqs, got.eqs) == two_pass(*key)
    assert min(seen.values()) >= 20, seen


def _polytopes(seed):
    """3-d and 4-d polytopes on random rational points, some with a ray."""
    rng = random.Random(seed)
    out = []
    for i in range(40):
        n = 3 + i % 2
        pts = [tuple(F(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(n)) for _ in range(rng.randint(n + 1, 9))]
        rays = [tuple(rng.randint(-1, 1) for _ in range(n))] if i % 5 == 0 else []
        out.append(Polyhedron.from_generators(pts, rays, (), n))
    return out


def test_faces_make_at_most_one_elimination_per_face(monkeypatch):
    # the route that eliminated for the equations and solved a Gram system
    # for the facets made two per face
    polys = _polytopes(seed=23)
    counts = []
    echelon, face = polyhedra._echelon, Cone._face

    def counting_echelon(*args):
        counts[-1] += 1
        return echelon(*args)

    def counting_face(self, s):
        counts.append(0)
        return face(self, s)

    monkeypatch.setattr(polyhedra, "_echelon", counting_echelon)
    monkeypatch.setattr(Cone, "_face", counting_face)
    faces = sum(len(p.faces()) - 1 for p in polys)
    assert len(counts) == faces > 1000
    assert max(counts) <= 1
    assert sum(counts) <= 0.8 * faces


def _dot_incidence(c):
    """The ray-facet incidence of a cone by dot products."""
    return [sum(1 << i for i, r in enumerate(c.rays) if not sum(map(int.__mul__, a, r))) for a in c.ineqs]


def test_cone_keeps_the_incidence_of_dot_products(monkeypatch):
    seen = dict.fromkeys(["lines", "equations", "duals", "faces"], 0)
    for c in _face_parents(seed=31):
        d = c.dual()
        for cone in (c, d):
            assert cone._incidence() == _dot_incidence(cone)
        seen["lines"] += bool(c.lines)
        seen["equations"] += bool(c.eqs)
        seen["duals"] += 1
        for f in c.faces()[1:]:
            assert f._incidence() == _dot_incidence(f)
            seen["faces"] += 1
    assert min(seen.values()) >= 20, seen
    # once read, the incidence is kept: a second `faces()` or a fiber slice
    # of the same polyhedron computes none
    computed = []
    accessor = Cone._incidence

    def spy(self):
        computed.append(self._inc is None)
        return accessor(self)

    monkeypatch.setattr(Cone, "_incidence", spy)
    for p in _polytopes(seed=37):
        n = p.n
        first = p.faces()
        computed.clear()
        assert p.faces() == first
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        polyhedra.map_fiber_slice(p, unit[:1], (p.vertices[0][0],), unit[1:])
        assert computed and not any(computed)
