"""The double description core on large degenerate inputs.

`polyhedra._dd_pointed` keeps each ray's tight set as an `int` bit mask,
skips a pair of rays with fewer than d - 2 common tight rows before its
adjacency scan, and `dd_cone` runs it on the rows as they are when there
are no equations and the rows have full rank.  Degenerate inputs, where
many rows meet in one ray and many rays lie on one row, are where the
pruning, the scan and the identity frame decide the result.  Each case is
checked against the `Fraction` route of `fraction_route.py`, which has
frozenset incidence, no pruning and always changes frame, in both
directions, and `_canonical` against two `dd_cone` runs.
"""

from __future__ import annotations

import functools
import itertools
import random

from fraction_route import fraction_dd_cone
from test_canonical import fields, two_pass

from pdivisors import polyhedra
from pdivisors.linalg import _echelon


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
        assert polyhedra.dd_cone(rows, eqs, n) == want, name


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
