"""The double description core on large degenerate inputs.

`polyhedra._dd_pointed` keeps each ray's tight set as an `int` bit mask,
skips a pair of rays with fewer than d - 2 common tight rows before its
adjacency scan, and `_dd` runs it on the rows as they are when there
are no equations and the rows have full rank.  Degenerate inputs, where
many rows meet in one ray and many rays lie on one row, are where the
pruning, the scan and the identity frame decide the result.  Each case is
checked against the `Fraction` route of `fraction_route.py`, which has
frozenset incidence, no pruning and always changes frame, in both
directions, and `_canonical` against two DD runs.  Pointed cones in
Q^1 to Q^3 take `_small_rays`; those are checked against both the
`Fraction` route and the frame route, with the cones that are not pointed
or are {0} going to the frame route.
"""

from __future__ import annotations

import functools
import itertools
import random

from fraction_route import fraction_dd_cone
from helpers import dd_cone
from test_canonical import fields, two_pass

from pdivisors import polyhedra
from pdivisors.linalg import _echelon, _kernel


def _hom(points):
    """The rays (x, 1) of a cone over the points."""
    return [tuple(p) + (1,) for p in points]


def _cube(k):
    return _hom(itertools.product((-1, 1), repeat=k))


def _cross(k):
    return _hom(tuple(s * (i == j) for j in range(k)) for i in range(k) for s in (1, -1))


def _prism(k):
    """The cross-polytope of dimension k - 1 times a segment: a polytope
    whose vertices lie on k of its facets and more."""
    base = [tuple(s * (i == j) for j in range(k - 1)) for i in range(k - 1) for s in (1, -1)]
    return _hom(p + (h,) for p in base for h in (0, 2))


def _minkowski(rng, k):
    """Every sum of one vertex from each of a few small random polytopes,
    20 to 60 points with most of them not vertices of the sum."""
    while True:
        parts = [
            [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(2, 4))]
            for _ in range(rng.randint(2, 3))
        ]
        sums = {tuple(map(sum, zip(*choice))) for choice in itertools.product(*parts)}
        if 20 <= len(sums) <= 60 and len(_echelon(_hom(sums))[0]) == k + 1:
            return _hom(sorted(sums))


def _lifted(rows):
    """The rows in one more coordinate under x -> (x, x_0): their cone spans
    a hyperplane that is no coordinate hyperplane."""
    return [r + (r[0],) for r in rows]


def _generator_sets():
    """(name, generators, lines, n): degenerate full-rank generator sets,
    the same with a line, and the same in one more coordinate inside a
    hyperplane and with a line that leaves that hyperplane."""
    rng = random.Random(1809)
    sets = [(f"cube{k}", _cube(k)) for k in (2, 3, 4)]
    sets += [(f"cross{k}", _cross(k)) for k in (2, 3, 4, 5)]
    sets += [(f"prism{k}", _prism(k)) for k in (3, 4)]
    sets += [(f"minkowski{k}-{i}", _minkowski(rng, k)) for k in (2, 3, 4) for i in range(3)]
    for name, gens in sets:
        n = len(gens[0])
        yield name, gens, [], n
        # full-rank generators and a line: equations beside rows of rank n
        yield f"{name}+diagonal", gens, [(1, -1) + (0,) * (n - 2)], n
        # rank-deficient generators: the cone of their span has equations
        yield f"{name}-flat", _lifted(gens), [], n + 1
        yield f"{name}+line", _lifted(gens), [(0,) * n + (1,)], n + 1


@functools.cache
def _cases():
    """(name, rows, eqs, n, (rays, lines) of the Fraction route) for both
    directions: each generator set with its lines, and the facets and
    equations of its cone."""
    out = []
    for name, gens, lines, n in _generator_sets():
        want = fraction_dd_cone(gens, lines, n)
        out.append((f"{name}:V", gens, lines, n, want))
        ineqs, eqs = ([tuple(map(int, r)) for r in side] for side in want)
        out.append((f"{name}:H", ineqs, eqs, n, fraction_dd_cone(ineqs, eqs, n)))
    return out


def test_cases_are_degenerate_and_take_both_frames():
    # only rows of rank n with no equations take the identity frame
    frames = dict.fromkeys(itertools.product(("equations", "none"), ("rank n", "rank < n")), 0)
    degenerate = 0
    for _name, rows, eqs, n, (rays, _lines) in _cases():
        rank = len(_echelon(rows)[0])
        frames["equations" if eqs else "none", "rank n" if rank == n else "rank < n"] += 1
        # a ray on more rows than the dimension of the cone asks for
        tight = [sum(not sum(a * x for a, x in zip(r, g)) for r in rows) for g in rays]
        degenerate += any(t > n - len(eqs) - 1 for t in tight)
    assert min(frames.values()) >= 10, frames
    assert degenerate >= len(_cases()) // 2


def test_dd_cone_matches_fraction_route_on_degenerate_inputs():
    for name, rows, eqs, n, want in _cases():
        assert dd_cone(rows, eqs, n) == want, name


def test_construction_matches_two_dd_route_on_degenerate_inputs():
    for name, rows, eqs, n, _want in _cases():
        key = (n, polyhedra._primitive_rows(rows), polyhedra._primitive_rows(eqs))
        got = fields(polyhedra._canonical.__wrapped__(*key))
        for field, a, b in zip(("rays", "lines", "ineqs", "eqs"), got, two_pass(*key)):
            assert a == b, (name, field)


def test_dd_pointed_does_not_depend_on_row_order():
    rng = random.Random(18)
    checked = 0
    for name, rows, eqs, n, _want in _cases():
        if eqs or len(_echelon(rows)[0]) < n:
            continue
        want = sorted(polyhedra._dd_pointed(list(rows), n))
        for _ in range(3):
            permuted = rng.sample(rows, len(rows))
            assert sorted(polyhedra._dd_pointed(permuted, n)) == want, name
        checked += 1
    assert checked >= 20


# -- cones in Q^1 to Q^3 -------------------------------------------------------


def _small_cases():
    """(kind, ineqs, eqs, n) in Q^1 to Q^3 as memo keys: random rows, an
    equation, an equation with its negative beside it, inequalities of
    rank below n, and rows that all vanish on one vector."""
    rng = random.Random(20)
    out = []
    for _ in range(400):
        n = rng.randint(1, 3)
        kind = rng.choice(["random", "equation", "+-equation", "flat", "line"])

        def row():
            return tuple(rng.randint(-3, 3) for _ in range(n))

        ineqs, eqs = [row() for _ in range(rng.randint(0, 7))], []
        if kind == "equation":
            eqs = [row()]
        elif kind == "+-equation":
            e = row()
            eqs = [e, tuple(-x for x in e), tuple(2 * x for x in e)]
        elif kind in ("flat", "line"):
            # rows in the span of n - 1 vectors, or orthogonal to a vector v
            v = row()
            span = _kernel([v], n) if kind == "line" else [row() for _ in range(n - 1)]

            def comb():
                return tuple(sum(rng.randint(-2, 2) * b[i] for b in span) for i in range(n))

            ineqs = [comb() for _ in range(rng.randint(1, 6))] if span else []
            if kind == "line" and span and rng.random() < 0.5:
                eqs = [comb()]
            elif kind == "flat" and rng.random() < 0.6:
                eqs = [row()]
        out.append((kind, polyhedra._primitive_rows(ineqs), polyhedra._primitive_rows(eqs), n))
    return out


def test_small_cones_match_fraction_and_frame_routes(monkeypatch):
    seen = dict.fromkeys(
        ["Q^1", "Q^2", "Q^3", "equations", "+-equations", "flat rows, pointed", "not pointed", "zero cone"], 0
    )
    cases = _small_cases()
    got = [(polyhedra._small_rays(i, e, n), polyhedra._dd(i, e, n)) for _, i, e, n in cases]
    # the frame route alone
    monkeypatch.setattr(polyhedra, "_small_rays", lambda ineqs, eqs, n: None)
    for (kind, ineqs, eqs, n), (small, dd) in zip(cases, got):
        name = (kind, ineqs, eqs, n)
        want = fraction_dd_cone(ineqs, eqs, n)
        assert dd[:2] == want, name
        # the rays and their tight sets on `ineqs` agree across the routes
        assert dd == polyhedra._dd(ineqs, eqs, n), name
        pointed = len(_echelon([*ineqs, *eqs])[0]) == n
        if not pointed:
            # a line: the frame route decides
            assert small is None, name
            seen["not pointed"] += 1
        elif not want[0]:
            assert small is None, name
            seen["zero cone"] += 1
        else:
            assert sorted(small) == want[0], name
            seen[f"Q^{n}"] += 1
            seen["equations"] += bool(eqs)
            seen["+-equations"] += kind == "+-equation"
            seen["flat rows, pointed"] += len(_echelon(ineqs)[0]) < n
    assert min(seen.values()) >= 10, seen
