"""The divisor layer does each piece of work once and on integers.

`box_and_psi` keeps its result on the invariant divisor, `global_sections`
builds a curve basis by setting the exponent at 0 of f0 directly, and
`PolyhedralDivisor.evaluate`, `ConcavePL.value` and `PLDivisorMap.evaluate`
take their minima on cleared integers.  Each is checked here against the
route it replaced, kept test-local or in `helpers.py`.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import P1, mul_chain_basis, random_proper_rank2
from pdivisors import tvariety
from pdivisors.base import INF, BaseVariety, QDivisor, global_sections, is_inf, point_label
from pdivisors.downgrade import DowngradeContext, downgrade
from pdivisors.errors import AmbientMismatch, WeightOutsideBox
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.linalg import vdot, vec
from pdivisors.pdivisor import PolyhedralDivisor
from pdivisors.polyhedra import Cone, Polyhedron, hull
from pdivisors.tvariety import (
    ConcavePL,
    PLDivisorMap,
    TInvariantDivisor,
    box_and_psi,
    graded_sections,
    is_basepoint_free,
)
from test_downgrade_higher_rank import PROJECTIONS, random_proper

F = Fraction

# -- Box and Psi, once per divisor ---------------------------------------


def uncached_box_and_psi(d) -> PLDivisorMap:
    """Box^D and Psi^D built directly from the coefficients, nothing kept."""
    n = d.fan.n
    box = Polyhedron.from_H([(r, -a) for r, a in d.ray_coeffs.items()], (), n)
    per = {}
    for label in {**dict.fromkeys(d.fan.marked_primes()), **dict.fromkeys(d.verts)}:
        pieces = [(v, d.vertex_coeffs[(label, v)]) for v in d.verts.get(label, ())]
        per[label] = INF if not pieces or box.empty else ConcavePL(box, pieces)
    return PLDivisorMap(d.fan.base, box, per)


def uncached_graded_dimension(pl: PLDivisorMap, u, pole_bound):
    """dim L(Psi(u)) with Psi(u) the minimum over the pieces in Fractions."""
    values = {
        label: INF if is_inf(f) else min(vdot(a, u) + c for a, c in f.pieces)
        for label, f in pl.per_prime.items()
    }
    return global_sections(QDivisor(pl.base, values), pole_bound=pole_bound).dimension


def invariant_divisors(generator, count, seed):
    """(fan, divisor, fiber rank) for the weight-ub pieces of the downgrades
    of `count` random proper divisors."""
    rng = random.Random(seed)
    if generator == "rank2":
        sample, rows = random_proper_rank2, [[[0, 1]], [[1, 0]], [[1, 1]]]
    else:
        sample, rows = (lambda r: random_proper(r, 3)), PROJECTIONS[3]
    out = []
    found = 0
    while found < count:
        d = sample(rng)
        if d is None:
            continue
        pr = rows[found % len(rows)]
        ctx = DowngradeContext.from_projection(LatticeMap(Lattice(d.n, "M"), Lattice(len(pr), "Mbar"), pr))
        fan, dbar = downgrade(d, ctx)
        for ub in itertools.product(range(2), repeat=len(pr)):
            ra, vb = dbar.weights_at(vec(ub))
            out.append((fan, TInvariantDivisor(fan, ra, dict(vb)), ctx.fiber_rank))
        found += 1
    return out


CASES = {"rank2": ("rank2", 12, 60601), "rank3": ("rank3", 5, 303)}


@pytest.mark.parametrize("generator", sorted(CASES))
def test_cached_box_and_psi_matches_uncached_route(generator):
    checked = 0
    for _fan, d, k in invariant_divisors(*CASES[generator]):
        ref = uncached_box_and_psi(d)
        pl = box_and_psi(d)
        assert pl is box_and_psi(d)
        assert pl == ref
        for u in itertools.product(range(-2, 3), repeat=k):
            u = vec(u)
            if not ref.box.contains_point(u):
                with pytest.raises(WeightOutsideBox):
                    graded_sections(d, u, pole_bound=2)
                continue
            assert graded_sections(d, u, pole_bound=2).dimension == uncached_graded_dimension(ref, u, 2)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("generator", sorted(CASES))
def test_bpf_reports_match_uncached_route(generator, monkeypatch):
    for fan, d, _k in invariant_divisors(*CASES[generator]):
        cached = is_basepoint_free(d)
        assert is_basepoint_free(d) == cached
        fresh = TInvariantDivisor(fan, d.ray_coeffs, d.vertex_coeffs, rays=d.rays, verts=d.verts)
        monkeypatch.setattr(tvariety, "box_and_psi", uncached_box_and_psi)
        assert is_basepoint_free(fresh) == cached
        monkeypatch.undo()


def test_box_built_once_for_several_weights(monkeypatch):
    _fan, d, _k = invariant_divisors("rank2", 1, 60601)[1]
    ref = uncached_box_and_psi(d)
    weights = [vec(u) for u in itertools.product(range(-2, 3)) if ref.box.contains_point(vec(u))]
    assert len(weights) >= 2
    calls = []
    from_H = Polyhedron.from_H.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return from_H(cls, *args, **kwargs)

    monkeypatch.setattr(Polyhedron, "from_H", classmethod(counting))
    hypographs = []
    init = ConcavePL.__init__

    def counting_pl(self, *args):
        hypographs.append(args)
        init(self, *args)

    monkeypatch.setattr(ConcavePL, "__init__", counting_pl)
    dims = [graded_sections(d, u).dimension for u in weights]
    # one box plus one hypograph per prime with a function
    assert len(calls) == 1
    assert len(hypographs) == sum(not is_inf(f) for f in ref.per_prime.values())
    assert dims == [uncached_graded_dimension(ref, u, None) for u in weights]


def test_weights_of_another_length_raise():
    _fan, d, _k = invariant_divisors("rank2", 1, 60601)[1]
    pl = box_and_psi(d)
    label = next(iter(pl.per_prime))
    assert pl.box.n == 1 and pl.box.contains_point((0,))
    # a weight of length 2 on a rank-1 box used to give dimension 0
    for test in (
        lambda: graded_sections(d, (0, 5)),
        lambda: pl.evaluate((0, 5)),
        lambda: pl.psi(label).value((0, 5)),
    ):
        with pytest.raises(AmbientMismatch):
            test()


def test_invariant_divisor_is_read_only():
    _fan, d, _k = invariant_divisors("rank2", 1, 60601)[0]
    r = next(iter(d.ray_coeffs))
    key = next(iter(d.vertex_coeffs))
    with pytest.raises(TypeError):
        d.ray_coeffs[r] = F(1)
    with pytest.raises(TypeError):
        d.vertex_coeffs[key] = F(1)
    with pytest.raises(TypeError):
        d.verts[key[0]] = ()


# -- curve section bases ---------------------------------------------------


BASES = [
    (P1, None),
    (BaseVariety.open_projective_line([INF]), 1),
    (BaseVariety.open_projective_line([0]), 2),
    (BaseVariety.open_projective_line([F(1, 2)]), 0),
]


@pytest.mark.parametrize("base, pole_bound", BASES, ids=["P1", "minus-inf", "minus-0", "minus-half"])
def test_basis_matches_mul_chain(base, pole_bound):
    removed = set(base.removed)
    seen = set()
    for c0, a, infinite in itertools.product((-3, -2, F(-1, 2), 0, 2, F(7, 2)), (-1, 0, F(1, 2), 3), (False, True)):
        if infinite and pole_bound is None:
            continue
        work = {F(-1): a, F(0): c0}
        for x in removed | ({F(5)} if infinite else set()):
            work[x] = work.get(x, 0) + pole_bound
        low = sum(math.floor(c) for c in work.values())
        for deg in range(7):
            b = deg - low  # the coefficient at 1 that makes deg(floor) = deg
            coeffs = {point_label(F(-1)): a, point_label(0): c0, point_label(1): b}
            if infinite:
                coeffs[point_label(5)] = INF
            s = global_sections(QDivisor(base, coeffs), pole_bound=pole_bound)
            assert s.dimension == deg + 1
            f0 = s.basis[0]
            e0 = f0.factors.get(F(0), 0)
            seen.add((e0 > 0) - (e0 < 0))
            want = dict(work)
            want[F(1)] = want.get(F(1), 0) + b
            assert f0.factors == {x: -math.floor(c) for x, c in want.items() if not is_inf(x) and math.floor(c)}
            chain = mul_chain_basis(f0, deg)
            assert [list(f.factors.items()) for f in s.basis] == [list(f.factors.items()) for f in chain]
            assert [repr(f) for f in s.basis] == [repr(f) for f in chain]
            assert s.basis == chain
    assert seen == {-1, 0, 1}


# -- evaluation on cleared integers ----------------------------------------


def random_rational(rng, lo=-3, hi=3):
    return F(rng.randint(lo, hi), rng.choice([1, 2, 3]))


TAILS = {
    "orthant": Cone.from_rays([(1, 0), (0, 1)]),
    "wedge": Cone.from_rays([(1, 0), (1, 2)]),
    "half-plane": Cone.from_rays([(1, 0)], lines=[(0, 1)]),
    "zero": Cone.zero(2),
}


@pytest.mark.parametrize("tail", sorted(TAILS))
def test_evaluate_matches_vertex_minimum(tail):
    rng = random.Random(f"evaluate:{tail}")
    sigma = TAILS[tail]
    dual = sigma.dual()
    checked = 0
    for _ in range(25):
        coeffs = {}
        for x in (0, 1, F(-1), INF)[: rng.randint(1, 4)]:
            if rng.random() < 0.2:
                coeffs[point_label(x)] = Polyhedron.empty_polyhedron(2)
                continue
            verts = [(random_rational(rng), random_rational(rng)) for _ in range(rng.randint(1, 3))]
            coeffs[point_label(x)] = hull(verts).minkowski(sigma.as_polyhedron())
        d = PolyhedralDivisor(P1, 2, sigma, coeffs)
        for _ in range(6):
            u = [F(0), F(0)]
            for g in dual.rays:
                c = random_rational(rng, 0, 4)
                u = [x + c * y for x, y in zip(u, g)]
            for g in dual.lines:
                c = random_rational(rng)
                u = [x + c * y for x, y in zip(u, g)]
            u = tuple(u)
            got = d.evaluate(u)
            want = {
                label: INF if p.empty else min(vdot(v, u) for v in p.vertices)
                for label, p in d.coeffs.items()
            }
            assert got == QDivisor(P1, want)
            assert all(is_inf(c) or type(c) is F for c in got.coeffs.values())
            checked += 1
    assert checked == 150


DOMAINS = {
    "triangle": hull([(0, 0), (F(5, 2), 0), (0, 3)]),
    "segment": hull([(F(-1, 2), 1), (2, F(7, 3))]),
    "cone": Cone.from_rays([(1, 0), (1, 1)]).as_polyhedron(),
}


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_concave_value_matches_piece_minimum(domain):
    rng = random.Random(f"value:{domain}")
    dom = DOMAINS[domain]
    gens = list(dom.vertices) + [tuple(v + r for v, r in zip(dom.vertices[0], ray)) for ray in dom.rays]
    for _ in range(20):
        pieces = [((random_rational(rng), random_rational(rng)), random_rational(rng)) for _ in range(rng.randint(1, 4))]
        f = ConcavePL(dom, pieces)
        pl = PLDivisorMap(P1, dom, {point_label(0): f})
        for _ in range(5):
            weights = [random_rational(rng, 0, 3) for _ in gens]
            if not any(weights):
                weights[0] = F(1)
            total = sum(weights)
            u = tuple(sum(w * g[i] for w, g in zip(weights, gens)) / total for i in range(2))
            want = min(vdot(a, u) + c for a, c in f.pieces)
            assert f.value(u) == want
            assert pl.evaluate(u) == QDivisor(P1, {point_label(0): want})
