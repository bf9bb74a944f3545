"""The construction memo (`polyhedra._canonical`): bounded, large enough for
a round trip's working set, never corrupted, and invisible in the results;
it hands out one read-only cone per key, and a repeated construction one
polyhedron that reads its views once; the integer DD core behind it equals the Fraction route it replaced, and the
objects built on it store integral data as `int` and points as `Fraction`,
never a float."""

from __future__ import annotations

import ast
import importlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fraction_route import fraction_dd_cone
from helpers import compose, counting, dd_cone, identity_on, is_surjective, random_proper_rank2
from test_canonical import _cases, fields
from pdivisors import cli, linalg, polyhedra
from pdivisors.base import (
    BaseVariety,
    QDivisor,
    ToricFunction,
    binomial_label,
    declared_label,
    global_sections,
    is_inf,
    point_label,
    ray_label,
)
from pdivisors.downgrade import DowngradeContext, downgrade
from pdivisors.lattice import Lattice, LatticeMap, smith_split
from pdivisors.linalg import vec, vsub
from pdivisors.pdivisor import PolyhedralDivisor
from pdivisors.tvariety import ConcavePL, PLDivisorMap, TInvariantDivisor, box_and_psi, graded_sections
from pdivisors.upgrade import upgrade

FIX = Path(__file__).parent / "fixtures"
memo = polyhedra._canonical


def _divisors(count, seed):
    """`count` random proper rank-2 divisors, a function of the seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_proper_rank2(rng)
        if d is not None:
            out.append(d)
    return out


def _round_trips(count, seed):
    """Downgrade and upgrade `count` random proper rank-2 divisors."""
    ctx = DowngradeContext.from_projection(LatticeMap(Lattice(2), Lattice(1), [[1, 1]]))
    for d in _divisors(count, seed):
        _, dbar = downgrade(d, ctx)
        upgrade(dbar)


def test_memo_matches_uncached_dd(monkeypatch):
    seen = {}

    def recording(n, gens, lines):
        seen[(n, gens, lines)] = None
        return memo(n, gens, lines)

    monkeypatch.setattr(polyhedra, "_canonical", recording)
    _round_trips(3, seed=7)
    monkeypatch.undo()
    assert memo.cache_info().hits > 0
    assert len(seen) > 100
    for n, gens, lines in seen:
        assert fields(memo(n, gens, lines)) == fields(memo.__wrapped__(n, gens, lines))
        # the H-side is the DD of the generators
        ineqs, eqs = dd_cone(gens, lines, n)
        assert (tuple(ineqs), tuple(eqs)) == fields(memo.__wrapped__(n, gens, lines))[2:]
    info = memo.cache_info()
    assert info.maxsize == polyhedra.DD_CACHE_SIZE
    assert info.currsize <= info.maxsize


def test_round_trip_working_set_fits_the_memo(monkeypatch):
    # 20 round trips look up more distinct constructions than the 512 entries
    # that once bounded the memo; a second pass over them must find them all
    memo.cache_clear()
    _round_trips(20, seed=1)
    distinct = memo.cache_info().currsize
    assert 512 < distinct < polyhedra.DD_CACHE_SIZE
    runs = counting(monkeypatch, "_dd")
    _round_trips(20, seed=1)
    assert runs == []
    assert memo.cache_info().currsize == distinct


def _downgrades_with_defaults():
    """Downgrades whose ray and vertex coefficients are partly held and
    partly left to the tailcone."""
    ctx = DowngradeContext.from_projection(LatticeMap(Lattice(2), Lattice(1), [[1, 1]]))
    out = []
    for d in _divisors(30, seed=13):
        _, dbar = downgrade(d, ctx)
        vertices = [(label, v) for label, vs in dbar.verts.items() for v in vs]
        if (
            dbar.ray_coeffs
            and set(dbar.rays) - set(dbar.ray_coeffs)
            and dbar.vertex_coeffs
            and set(vertices) - set(dbar.vertex_coeffs)
        ):
            out.append((dbar, vertices))
    return out


def test_held_coefficients_need_no_construction(monkeypatch):
    d = _divisors(1, seed=2)[0]
    held = list(d.coeffs.items())
    missing = point_label(Fraction(7))
    assert missing not in d.coeffs
    downgrades = _downgrades_with_defaults()
    assert downgrades
    lookups = counting(monkeypatch, "_canonical")
    as_polyhedron, tails = polyhedra.Cone.as_polyhedron, []
    monkeypatch.setattr(polyhedra.Cone, "as_polyhedron", lambda c: tails.append(c) or as_polyhedron(c))
    for label, p in held:
        assert d.coefficient(label) is p
    for dbar, _ in downgrades:
        for r, p in dbar.ray_coeffs.items():
            assert dbar.ray_coefficient(r) is p
        for (label, v), p in dbar.vertex_coeffs.items():
            assert dbar.vertex_coefficient(label, v) is p
    assert lookups == [] and tails == []
    # a missing key gives the tailcone, built on demand: a tail cone keeps
    # its polyhedron's `hom` from its second request on, so it may need no
    # lookup
    assert d.coefficient(missing) == d.tail.as_polyhedron()
    for dbar, vertices in downgrades:
        trivial = dbar.tail.as_polyhedron()
        for r in set(dbar.rays) - set(dbar.ray_coeffs):
            assert dbar.ray_coefficient(r) == trivial
        for label, v in set(vertices) - set(dbar.vertex_coeffs):
            assert dbar.vertex_coefficient(label, v) == trivial
    assert tails


def test_chamber_complex_builds_no_face(monkeypatch):
    # the projected faces are generator sets on each polyhedron's incidence,
    # so no face object is built.  From a cold memo the closure runs one DD
    # per key of an intersection of a cell and a member where neither holds
    # the other, so an intersection reached from two cells runs twice.  On
    # one row `chamber_complex` builds only its three cells.
    coeff = max(_divisors(1, seed=5)[0].coeffs.values(), key=lambda p: len(p.hom.rays))
    pi_rows = DowngradeContext.from_projection(LatticeMap(Lattice(2), Lattice(1), [[1, 1]])).pi_rows
    with_line = polyhedra.Polyhedron.from_generators(
        [(0, 0, 0), (1, 0, Fraction(1, 2)), (0, 2, 1)], [(1, 1, 0)], [(0, 1, -1)]
    )
    line_rows = [(1, 0, 1), (Fraction(1, 2), 1, 0)]

    def no_face(*args):
        raise AssertionError("chamber_complex built a face object")

    monkeypatch.setattr(polyhedra.Cone, "_face", no_face)
    monkeypatch.setattr(polyhedra.Cone, "faces", no_face)
    monkeypatch.setattr(polyhedra.Polyhedron, "faces", no_face)
    runs = counting(monkeypatch, "_dd")
    cases = [
        (polyhedra.chamber_complex, [coeff], pi_rows, 3),
        (polyhedra._chamber_closure, [coeff], pi_rows, 12),
        (polyhedra.chamber_complex, [with_line], line_rows, 23),
    ]
    for route, polys, rows, budget in cases:
        memo.cache_clear()
        runs.clear()
        assert len(route(polys, rows).cells) == 3
        assert len(runs) == budget


def test_fiber_slice_builds_only_its_image(monkeypatch):
    # the fiber's generators come from the rays and incidence of `hom`, so
    # a slice runs no cut and looks up one construction: its image, or the
    # empty polyhedron
    Polyhedron = polyhedra.Polyhedron
    with_line = Polyhedron.from_generators([(0, 0, 0), (1, 0, F(1, 2)), (0, 2, 1)], [(1, 1, 0)], [(0, 1, -1)])
    cases = [
        (Polyhedron.from_generators([(0, 0), (2, 0), (0, 2)]), [(1, 1)], (1,), [(1, 0)], False),
        (with_line, [(0, 1, 0)], (F(1, 3),), [(1, 0, 0), (0, 0, 1)], False),
        (with_line, [(1, 0, 0), (0, 0, 1)], (1, 2), [(0, 1, 1)], False),
        (with_line, [(0, 1, 1)], (-1,), [(1, 0, 0)], True),
        # a fiber at infinity only: the ray (1, 0) lies in y = 0, no vertex in y = 1
        (Polyhedron.from_generators([(0, 0)], [(1, 0)]), [(0, 1)], (1,), [(1, 1)], True),
    ]

    def no_cut(*args):
        raise AssertionError("map_fiber_slice built the fiber")

    monkeypatch.setattr(polyhedra, "_cut", no_cut)
    monkeypatch.setattr(Polyhedron, "with_equalities", no_cut)
    lookups = counting(monkeypatch, "_canonical")
    for p, rows, target, retraction, empty in cases:
        lookups.clear()
        assert polyhedra.map_fiber_slice(p, rows, target, retraction).empty == empty
        assert len(lookups) == 1


def _checked_round_trips(count, seed):
    """The benchmark's round trip on `count` seeded divisors: downgrade, the
    graded pieces at two fiber weights against the sections of the
    evaluation, and the upgrade."""
    ctx = DowngradeContext.from_projection(LatticeMap(Lattice(2), Lattice(1), [[1, 1]]))
    for d in _divisors(count, seed):
        fan, dbar = downgrade(d, ctx)
        for ub in (Fraction(0),), (Fraction(1),):
            ra, vb = dbar.weights_at(ub)
            dv = TInvariantDivisor(fan, ra, dict(vb))
            box = box_and_psi(dv).box
            for up in range(-2, 3):
                up = (Fraction(up),)
                lift = tuple(a + b for a, b in zip(ctx.kernel(up), ctx.s_star(ub)))
                if box.contains_point(up):
                    assert graded_sections(dv, up).dimension == global_sections(d.evaluate(lift)).dimension
        upgrade(dbar)


# The `_cleared` calls on a point with a non-`int` entry over the 12 checked
# round trips of seed 9, from a cold memo: each clears a rational point that
# a Fraction carried back to integers.  Evaluators that tested membership
# and then cleared the point again, and pieces built as Fractions from the
# integer rays of `hom`, made 1,394 such calls here; the upgrade's generators
# built from the Fraction views of its coefficients made 886, and the support
# divisor the downgrade built and dropped, and the Fraction tail rays of each
# invariant divisor, 806.
CLEARED_BUDGET = 782


def test_round_trips_clear_few_rational_points(monkeypatch):
    # a count, not a time, so host noise does not hide a regression
    cleared = linalg._cleared
    seen = []

    def counting(x):
        x = tuple(x)
        if not all(type(v) is int for v in x):
            seen.append(x)
        return cleared(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("pdivisors") and getattr(module, "_cleared", None) is cleared:
            monkeypatch.setattr(module, "_cleared", counting)
    memo.cache_clear()
    _checked_round_trips(12, seed=9)
    assert len(seen) == CLEARED_BUDGET


# The `Fraction` constructions over the same 12 round trips, from a cold
# memo, counted on `Fraction.__new__`: values handed out, points parsed and
# the arithmetic on them.  The support divisor the downgrade built and
# dropped, the Fraction copies of the fan's integer tail rays, the degree
# sums of the properness probes and the floors of curve sections made
# 1,299 more here (3,597), and the Fraction round trip of lattice-map rows
# 8 more (2,298), and recomputing the results a cone now keeps
# (`Cone._keep`) 3 more (2,290).
FRACTION_BUDGET = 2287


def test_round_trips_build_few_fractions(monkeypatch):
    # a count, not a time, so host noise does not hide a regression
    new = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    memo.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    _checked_round_trips(12, seed=9)
    monkeypatch.undo()
    assert len(built) == FRACTION_BUDGET


def _fast_path_inputs(seed):
    """Inputs of every construction that builds its key from canonical rows,
    on the generators of `tests/test_canonical.py`: cones with redundant
    rows, lines and equations, polyhedra with and without lines, equations
    and affine pieces."""
    rng = random.Random(seed)
    out = []
    for n, gens, lines in _cases(seed, count=120):
        pts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        eqs = [(tuple(rng.randint(-1, 1) for _ in range(n)), rng.randint(-1, 1))]
        pieces = [(tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-2, 2)) for _ in range(3)]
        out.append((n, gens, lines, pts, eqs, pieces))
    return out


def _fast_paths(n, gens, lines, pts, eqs, pieces):
    """Pairs of what a construction on canonical rows builds and what the
    public constructors built from the same rows before."""
    Cone, Polyhedron = polyhedra.Cone, polyhedra.Polyhedron
    c = Cone.from_rays(gens, lines, n)
    d = Cone.from_inequalities(gens, lines, n)
    pairs = [
        (Cone.zero(n), Cone.from_rays([], [], n)),
        (c.intersect(d), Cone.from_inequalities(c.ineqs + d.ineqs, c.eqs + d.eqs, n)),
    ]
    pairs += [(e.as_polyhedron(), Polyhedron.from_generators([(0,) * n], e.rays, e.lines, n)) for e in (c, d)]
    for p in Polyhedron.from_generators(pts, gens[:2], lines[:1], n), c.as_polyhedron():
        hom_eqs = [*p.hom.eqs, *polyhedra._hom_rows(eqs)]
        pairs += [
            (p.tail(), Cone.from_rays(p.rays, p.lines, n)),
            (p.with_equalities(eqs), Polyhedron(n, Cone.from_inequalities(p.hom.ineqs, hom_eqs, n + 1))),
            (polyhedra.linearity_regions(pieces, p), _from_h_regions(pieces, p)),
        ]
    return pairs


def _from_h_regions(pieces, domain):
    """`linearity_regions` with one `from_H` on the domain's pairs per piece."""
    uniq = sorted({(vec(a), F(c)) for a, c in pieces})
    regions = []
    for i, (ai, ci) in enumerate(uniq):
        ineqs = [(vsub(aj, ai), ci - cj) for j, (aj, cj) in enumerate(uniq) if j != i]
        reg = polyhedra.Polyhedron.from_H(list(domain.ineqs) + ineqs, domain.eqs, domain.n)
        if not reg.empty and reg.dim() == domain.dim():
            regions.append(reg)
    return polyhedra.PolyhedralComplex(regions)


def _fields(obj):
    """Every stored field of a cone, of a polyhedron's `hom`, or of the
    cells of a complex."""
    if isinstance(obj, polyhedra.PolyhedralComplex):
        return [_fields(c) for c in obj.cells]
    if isinstance(obj, polyhedra.Polyhedron):
        return (obj.n, obj.empty, _slots(obj.hom))
    return _slots(obj)


def test_every_memo_key_is_canonical_rows(monkeypatch):
    keys, upgrading = [], []
    # the package binds the name `upgrade` to the function, not the module
    upgrade_module = importlib.import_module("pdivisors.upgrade")
    coefficients = upgrade_module.upgrade_coefficients

    def recording(n, gens, lines):
        keys.append((gens, lines))
        return memo(n, gens, lines)

    def counting_coefficients(d):
        start = len(keys)
        out = coefficients(d)
        upgrading.append(len(keys) - start)
        return out

    monkeypatch.setattr(polyhedra, "_canonical", recording)
    monkeypatch.setattr(upgrade_module, "upgrade_coefficients", counting_coefficients)
    before = memo.cache_info()
    _round_trips(20, seed=1)
    after = memo.cache_info()
    # every lookup goes through the one memo entry in `polyhedra`, those of
    # `upgrade_coefficients` too, so the recording sees every key
    assert len(keys) == after.hits + after.misses - before.hits - before.misses
    assert len(upgrading) == 20 and min(upgrading) > 0
    inputs = _fast_path_inputs(seed=29)
    built = [pair for args in inputs for pair in _fast_paths(*args)]
    rows = polyhedra._primitive_rows
    assert len(keys) > 5000
    for gens, lines in keys:
        assert (rows(gens), rows(lines)) == (gens, lines)
    # each construction on canonical rows equals the public constructor's,
    # field by field, and so does a run with the memo off
    for fast, old in built:
        assert _fields(fast) == _fields(old)
    monkeypatch.setattr(polyhedra, "_canonical", memo.__wrapped__)
    off = [pair for args in inputs for pair in _fast_paths(*args)]
    assert [_fields(fast) for fast, _ in off] == [_fields(fast) for fast, _ in built]
    cones = [fast for fast, _ in built if isinstance(fast, polyhedra.Cone)]
    assert sum(bool(c.lines) for c in cones) > 20
    assert sum(bool(c.eqs and c.ineqs) for c in cones) > 20


def test_mutated_result_leaves_memo_intact():
    ineqs = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
    eqs = [(0, 0, 0)]
    rays, lines = dd_cone(ineqs, eqs, 3)
    expected = (list(rays), list(lines))
    rays.append((5, 5, 5))
    del rays[0]
    lines.append((1, 0, 0))
    assert dd_cone(ineqs, eqs, 3) == expected


def test_cones_and_polyhedra_are_read_only():
    # the memo hands out one object per key: no field of it can be rebound
    memo.cache_clear()
    cone = polyhedra.Cone.from_inequalities([(1, 0, 0), (0, 1, 0), (1, 1, 1)], [(0, 0, 0)], 3)
    # the key holds the rows sorted and deduplicated; a cut is the kept dual
    stored = memo(3, ((0, 1, 0), (1, 0, 0), (1, 1, 1)), ())
    assert cone is stored.dual() and cone.dual() is stored
    before = fields(cone)
    p = polyhedra.Polyhedron.from_H([((1, 0), 0), ((0, 1), 0)])
    view = p.vertices
    cx = polyhedra.chamber_complex([p], [(1, 1)])
    for obj, names in (
        (cone, polyhedra.Cone.__slots__),
        (p, polyhedra.Polyhedron.__slots__),
        (cx, polyhedra.PolyhedralComplex.__slots__),
    ):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, ())
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert fields(cone) == before and p.vertices is view
    again = polyhedra.Cone.from_inequalities([(1, 1, 1), (1, 0, 0), (0, 1, 0)], [], 3)
    assert again is cone and fields(again) == before
    assert memo.cache_info().hits >= 2


def _constructions():
    """A function per public construction that can repeat, each building
    one object on every call."""
    Polyhedron = polyhedra.Polyhedron
    tri = Polyhedron.from_generators([(0, 0), (1, 0), (0, 1)])
    return {
        "from_H": lambda: Polyhedron.from_H([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]),
        "from_generators": lambda: Polyhedron.from_generators([(0, 0), (2, 0), (0, 1)]),
        "intersect": lambda: tri.intersect(Polyhedron.from_H([((1, 1), F2)])),
        "with_equalities": lambda: tri.with_equalities([((1, -1), 0)]),
        "map_image": lambda: tri.map_image([[1, 1]], [3]),
        "as_polyhedron": lambda: polyhedra.Cone.from_rays([(1, 0), (1, 2)]).as_polyhedron(),
        "empty_polyhedron": lambda: Polyhedron.empty_polyhedron(2),
        "tail": lambda: Polyhedron.from_generators([(0, 0)], [(1, 0), (1, 2)]).tail(),
    }


def test_repeated_construction_is_one_object():
    for name, build in _constructions().items():
        memo.cache_clear()
        first, second, third = build(), build(), build()
        assert first == second and second is third, name
        if isinstance(second, polyhedra.Polyhedron):
            # the second construction is the one its cone keeps
            assert first is not second and second.hom._poly is second, name


def test_kept_polyhedron_computes_each_view_once(monkeypatch):
    memo.cache_clear()
    build = _constructions()["from_H"]
    build()
    counted = []
    getattr_ = polyhedra.Polyhedron.__getattr__

    def counting(self, name):
        counted.append((id(self), name))
        return getattr_(self, name)

    monkeypatch.setattr(polyhedra.Polyhedron, "__getattr__", counting)
    built = [build() for _ in range(4)]
    assert all(p is built[0] for p in built)
    for p in built:
        p.vertices, p.ineqs, p.eqs, p.tail(), polyhedra._cell_key(p), hash(p)
    assert sorted(name for _, name in counted) == ["_tail", "eqs", "ineqs", "lines", "rays", "vertices"]
    assert len({i for i, _ in counted}) == 1
    assert built[0].hom._hash == hash(built[0])


def test_one_shot_construction_keeps_no_polyhedron(monkeypatch):
    memo.cache_clear()
    for name, build in _constructions().items():
        if name != "tail":
            assert build().hom._poly is False, name
    # with the memo off each construction is a new cone, so none is kept
    monkeypatch.setattr(polyhedra, "_canonical", memo.__wrapped__)
    for name, build in _constructions().items():
        first, second, third = build(), build(), build()
        assert first == second == third and first is not second is not third, name


def test_one_shot_operations_keep_no_result():
    # a cone keeps an operation's result from its second request on, so an
    # input imaged, sliced or faced once keeps only the keys it was asked
    memo.cache_clear()
    p = polyhedra.Polyhedron.from_generators([(0, 0, 0), (3, 1, 0), (0, 2, 5)], [(1, 1, 1)])
    c = polyhedra.Cone.from_rays([(1, 0, 2), (0, 1, 1), (1, 1, 0), (2, 1, 3)])

    def operations():
        # each operation twice on one input, with other arguments, so a key
        # that leaves out an argument hands out the other's result
        return [
            p.map_image([[1, 1, 0], [0, 1, 1]], [1, 0]),
            p.map_image([[1, 1, 0], [0, 1, 2]]),
            polyhedra.map_fiber_slice(p, [(1, 0, 0)], (1,), [(0, 1, 0), (0, 0, 1)]),
            polyhedra.map_fiber_slice(p, [(1, 0, 0)], (2,), [(0, 1, 0), (0, 0, 1)]),
            polyhedra.map_fiber_slice(p, [(1, 0, 0)], (1,), [(0, 1, 0), (0, 1, 1)]),
            p.faces(),
            c.faces(),
            c.map_image([[1, 0, 1]]),
            c.map_image([[1, 0, -1]]),
            c.as_polyhedron(),
            polyhedra.chamber_complex([p], [(1, 0, 0), (0, 1, 0)]),
            polyhedra.chamber_complex([p], [(1, 0, 0), (0, 0, 1)]),
            polyhedra.chamber_complex([p, p.translate((0, 0, 9))], [(1, 0, 0), (0, 1, 0)]),
        ]

    once = operations()
    for cone in (p.hom, c):
        assert cone._kept and all(v is None for v in cone._kept.values())
    # the second request keeps the results, and hands out equal ones
    assert operations() == once == operations()
    assert all(v is not None for cone in (p.hom, c) for v in cone._kept.values())


def _kept_fields(obj):
    """`_fields` of a kept result, through the tuples it is made of."""
    if isinstance(obj, tuple):
        return tuple(map(_kept_fields, obj))
    if isinstance(obj, (polyhedra.Cone, polyhedra.Polyhedron, polyhedra.PolyhedralComplex)):
        return _fields(obj)
    return obj


def test_kept_results_match_a_run_with_nothing_kept(monkeypatch):
    # every result a round trip takes from a cone equals, field by field,
    # what the same computation gives with the memo off and nothing kept
    keep = polyhedra.Cone._keep
    hits = []

    def recording(cone, key, compute):
        kept = cone._kept
        hit = kept is not None and kept.get(key) is not None
        out = keep(cone, key, compute)
        if hit:
            hits.append((key, compute, out))
        return out

    memo.cache_clear()
    monkeypatch.setattr(polyhedra.Cone, "_keep", recording)
    _checked_round_trips(12, seed=9)
    monkeypatch.setattr(polyhedra, "_canonical", memo.__wrapped__)
    monkeypatch.setattr(polyhedra.Cone, "_keep", lambda cone, key, compute: compute())
    names = {key if isinstance(key, str) else key[0] for key, _, _ in hits}
    assert names == {
        "as_polyhedron", "faces", "polyhedron faces", "map_image", "map_fiber_slice", "chamber_complex",
        "dualize", "validate",
    }
    for key, compute, out in hits:
        assert _kept_fields(compute()) == _kept_fields(out), key


def test_mutated_faces_leave_kept_faces_intact():
    memo.cache_clear()
    cone = polyhedra.Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    p = polyhedra.Polyhedron.from_generators([(0, 0), (2, 0), (0, 1)], [(1, 1)])
    for obj in (cone, p):
        # the second request keeps the faces, the third hands them out
        expected = obj.faces()
        for _ in range(3):
            faces = obj.faces()
            assert faces == expected
            faces.append(obj)
            del faces[0]
            faces.reverse()
        assert obj.faces() == expected


def test_report_same_with_memo_cold_warm_or_off(tmp_path, monkeypatch):
    doc = str(FIX / "downgrade_difficulties.json")
    argv = ["toric-downgrade", doc, "--sublattice", '[["1","0","0","0"]]']

    def report(name):
        out = tmp_path / name
        assert cli.main(["--out", str(out)] + argv) == 0
        return out.read_bytes()

    memo.cache_clear()
    cold = report("cold.json")
    hits = memo.cache_info().hits
    warm = report("warm.json")
    assert memo.cache_info().hits > hits
    # off: no memo and no result kept on a cone
    monkeypatch.setattr(polyhedra, "_canonical", memo.__wrapped__)
    monkeypatch.setattr(polyhedra.Cone, "_keep", lambda cone, key, compute: compute())
    off = report("off.json")
    assert cold == warm == off


# -- the integer core --------------------------------------------------------

F = Fraction
F2 = F(1, 2)


def _random_row(rng, n):
    scale = rng.choice([1, 1, 2, Fraction(1, 3), Fraction(7, 10**12 + 39)])
    return tuple(scale * rng.randint(-3, 3) for _ in range(n))


def _dd_inputs(seed, count):
    """Seeded dd_cone inputs with equations, lineality and positively scaled
    duplicate rows."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        # fewer inequalities than the dimension leave a lineality space;
        # orienting every row to be >= 0 on w keeps the cone away from {0}
        w = [rng.randint(-2, 2) for _ in range(n)]
        ineqs = []
        for _ in range(rng.randint(0, 2 * n + 2)):
            row = _random_row(rng, n)
            ineqs.append(row if sum(a * b for a, b in zip(row, w)) >= 0 else tuple(-x for x in row))
        for row in rng.sample(ineqs, min(len(ineqs), rng.randint(0, 2))):
            ineqs.insert(rng.randrange(len(ineqs) + 1), tuple(Fraction(5, 2) * x for x in row))
        eqs = [_random_row(rng, n) for _ in range(rng.choice([0, 0, 1, 2]))]
        yield ineqs, eqs, n


def test_dd_matches_fraction_route():
    for ineqs, eqs, n in _dd_inputs(seed=11, count=300):
        got = dd_cone(ineqs, eqs, n)
        want = fraction_dd_cone(ineqs, eqs, n)
        assert got == want
        for vectors in got:
            assert all(map(_is_primitive_int, vectors))


def test_scaled_rows_share_memo_entry():
    ineqs = [(1, 2, 0), (0, 1, 1), (-1, 0, 1)]
    eqs = [(1, 1, 1)]
    memo.cache_clear()
    first = polyhedra.Cone.from_inequalities(ineqs, eqs, 3)
    scaled = [(3, 6, 0), (0, F2, F2), (-1, 0, 1)]
    again = polyhedra.Cone.from_inequalities(scaled, [(7, 7, 7)], 3)
    assert (again.rays, again.lines, again.ineqs, again.eqs) == (
        first.rays, first.lines, first.ineqs, first.eqs
    )
    assert dd_cone(scaled, [(7, 7, 7)], 3) == dd_cone(ineqs, eqs, 3)
    info = memo.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    # permuted and duplicated rows share the entry too
    permuted = [(-1, 0, 1), (2, 4, 0), (0, 1, 1), (1, 2, 0), (-2, 0, 2)]
    third = polyhedra.Cone.from_inequalities(permuted, [(1, 1, 1), (2, 2, 2)], 3)
    assert _slots(third) == _slots(first)
    assert dd_cone(permuted, [(1, 1, 1), (2, 2, 2)], 3) == dd_cone(ineqs, eqs, 3)
    # the same rows read as generators span the dual, from the same entry
    dual = polyhedra.Cone.from_rays(permuted[::-1] + permuted, [(2, 2, 2)], 3)
    assert _slots(dual) == (3, first.ineqs, first.eqs, first.rays, first.lines)
    info = memo.cache_info()
    assert (info.hits, info.currsize) == (3, 1)


def test_memo_holds_integers_only(monkeypatch):
    seen = []

    def recording(n, gens, lines):
        out = memo(n, gens, lines)
        seen.append((gens, lines, *fields(out)))
        return out

    monkeypatch.setattr(polyhedra, "_canonical", recording)
    _round_trips(1, seed=3)
    for ineqs, eqs in (([(F2, 1), (0, F2)], []), ([(1, 0, 0)], [(0, F2, 1)])):
        polyhedra.Cone.from_inequalities(ineqs, eqs, len(ineqs[0]))
        polyhedra.Cone.from_rays(ineqs, eqs, len(ineqs[0]))
    assert len(seen) > 50
    for key_and_value in seen:
        for vectors in key_and_value:
            assert type(vectors) is tuple
            assert all(type(v) is tuple and all(type(x) is int for x in v) for v in vectors)


def _slots(cone):
    return (cone.n, cone.rays, cone.lines, cone.ineqs, cone.eqs)


def _is_primitive_int(v):
    return all(type(x) is int for x in v) and math.gcd(*v) == 1


def _integral_and_vertices(obj):
    """The integral vectors and the vertices a Cone or Polyhedron stores;
    an H-row is the homogenized (a, -b) of a pair (a, b)."""
    if isinstance(obj, polyhedra.Cone):
        return obj.rays + obj.lines + obj.ineqs + obj.eqs, ()
    rows = tuple(a + (-b,) for a, b in obj.ineqs + obj.eqs)
    return obj.rays + obj.lines + rows, obj.vertices


def test_stored_coordinates_have_one_type_per_kind():
    rng = random.Random(23)
    objects = []
    maps = []
    for _ in range(40):
        n = rng.randint(1, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        rays = [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        p = polyhedra.Polyhedron.from_generators(pts, rays, n=n)
        q = polyhedra.Polyhedron.from_H([(r, rng.randint(-4, 0)) for r in pts], n=n)
        c = polyhedra.Cone.from_rays(pts, n=n)
        objects += [p, q, c, c.dual(), p.tail(), p.minkowski(p), p.intersect(q), p.scale(F2)]
        objects += p.faces() + c.faces()
        objects.append(p.map_image([tuple(rng.randint(-1, 1) for _ in range(n))]))
        objects.append(polyhedra.Cone.from_inequalities(pts, n=n))
        rows = [[str(rng.randint(-3, 3)) for _ in range(n)], [F(4, 2)] * n]
        pr = LatticeMap(Lattice(n), Lattice(2), rows)
        maps += [pr, identity_on(Lattice(n)), compose(pr, identity_on(Lattice(n)))]
        if is_surjective(pr):
            maps += list(smith_split(pr))
    for obj in objects:
        integral, vertices = _integral_and_vertices(obj)
        assert all(map(_is_primitive_int, integral)), obj
        assert all(type(x) is Fraction for v in vertices for x in v), obj
        if isinstance(obj, polyhedra.Cone):
            # both sides are canonical: each is the DD of the other
            assert fraction_dd_cone(obj.ineqs, obj.eqs, obj.n) == (list(obj.rays), list(obj.lines))
            assert fraction_dd_cone(obj.rays, obj.lines, obj.n) == (list(obj.ineqs), list(obj.eqs))
    for lm in maps:
        assert all(type(x) is int for row in lm.matrix for x in row), lm
    # the ray keys of divisors on a fan are the fan's primitive int rays
    ctx = DowngradeContext.from_projection(LatticeMap(Lattice(2), Lattice(1), [[1, 1]]))
    for d in _divisors(5, seed=23):
        fan, dbar = downgrade(d, ctx)
        ra, vb = dbar.weights_at((Fraction(1),))
        dv = TInvariantDivisor(fan, ra, dict(vb))
        keys = [*fan.rays(), *dbar.rays, *dbar.ray_coeffs, *ra, *dv.rays, *dv.ray_coeffs]
        assert dbar.rays and all(map(_is_primitive_int, keys)), keys
    # toric data: rays, class representatives, degree keys, characters and
    # lattice points are int tuples, whatever integer type they came in as
    cones = [polyhedra.Cone.from_rays(c) for c in ([(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)])]
    p2 = BaseVariety.toric(cones, degrees={(F(1), F(0)): 1, ("0", "1"): 1, (-1, -1): 1})
    declared = declared_label("D", [((F(1), 0), 1), (("0", "1"), -1)])
    binomial = binomial_label("B", (F(1), 0), (0, F(0)), [tuple(map(F, r)) for r in p2.rays()])
    f = ToricFunction({(F(2), F(-1)): 1, ("1", "1"): F(2)}, {declared: F(3)})
    section = polyhedra.Polyhedron.from_generators([(0, 0), (F(5, 2), 0), (0, F(3, 2))])
    window = polyhedra.Polyhedron.from_generators([(F(1, 2), 0)], [(1, 0)], [(0, 1)])
    basis = global_sections(QDivisor(p2, {p2.ray((F(1), 0)): 2})).basis
    vectors = [
        p2.ray(("1", 0)).ray, ray_label((F(0), F(1))).ray, *p2._degrees,
        *(r for r, _ in declared.class_rep + binomial.class_rep), *f.chars,
        *section.lattice_points(), *window.lattice_window(2), *(m for g in basis for m in g.chars),
    ]
    assert len(vectors) > 20 and all(type(x) is int for v in vectors for x in v), vectors
    assert all(type(k) is int for k in (*f.chars.values(), *f.declared.values()))


def _numbers(obj):
    """Every coordinate or value a recorded object holds."""
    if isinstance(obj, polyhedra.Cone):
        return [x for g in (obj.rays, obj.lines, obj.ineqs, obj.eqs) for v in g for x in v]
    if isinstance(obj, polyhedra.Polyhedron):
        integral, vertices = _integral_and_vertices(obj)
        return [x for v in integral + vertices for x in v]
    if isinstance(obj, ConcavePL):
        return [x for a, c in obj.pieces for x in a + (c,)] + [x for r in obj._rows for x in r]
    if isinstance(obj, LatticeMap):
        return [x for row in obj.matrix for x in row]
    if isinstance(obj, QDivisor):
        return [c for c in obj.coeffs.values() if not is_inf(c)]
    return [obj]


def test_round_trips_hold_no_float(monkeypatch):
    seen = []

    def record_init(cls, name="__init__"):
        init = getattr(cls, name)

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            seen.append(self)

        monkeypatch.setattr(cls, name, recording)

    def record_result(cls, name):
        fn = getattr(cls, name)

        def recording(self, *args, **kwargs):
            out = fn(self, *args, **kwargs)
            seen.append(out)
            return out

        monkeypatch.setattr(cls, name, recording)

    for cls in (polyhedra.Cone, polyhedra.Polyhedron, LatticeMap):
        record_init(cls)
    # every construction of a function, from pieces, rows or a hypograph,
    # sets it up in `_start`
    record_init(ConcavePL, "_start")
    # `evaluate` and `value` hand out what `_at` computes on cleared
    # integers, which the properness probes and `fan_from` call directly;
    # the probes take each coefficient's minimum with `_vertex_min`
    record_result(PolyhedralDivisor, "_at")
    record_result(PLDivisorMap, "evaluate")
    record_result(ConcavePL, "_at")
    record_result(polyhedra.Polyhedron, "_vertex_min")
    _round_trips(2, seed=5)
    monkeypatch.undo()
    kinds = {type(obj) for obj in seen}
    assert {polyhedra.Cone, polyhedra.Polyhedron, ConcavePL, LatticeMap, QDivisor, Fraction} <= kinds
    for obj in seen:
        assert all(type(x) in (int, Fraction) for x in _numbers(obj)), obj


def test_only_polyhedra_imports_the_memo():
    # a module that imports `_canonical` by name keeps the memo it found at
    # import, so a test that patches `polyhedra._canonical` misses its lookups
    modules = sorted(Path(polyhedra.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        if path.name == "polyhedra.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
        assert "_canonical" not in names, path.name
