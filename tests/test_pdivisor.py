from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from pdivisors.base import (
    INF,
    BaseVariety,
    CurveFunction,
    declared_label,
    is_inf,
    point_label,
    ray_label,
)
from pdivisors.errors import AmbientMismatch, NotPointed, UnsupportedBase, WeightOutsideCone
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.linalg import vdot, vec
from pdivisors.pdivisor import (
    PolyhedralDivisor,
    PullbackTriple,
    as_curve_divisor,
    principal_pdivisor,
    toric_downgrade,
)
from pdivisors.polyhedra import Cone, Polyhedron, hull

F = Fraction
P1 = BaseVariety.projective_line()


def bl0_a2():
    return BaseVariety.toric(
        [Cone.from_rays([(1, 0), (1, 1)]), Cone.from_rays([(1, 1), (0, 1)])],
        name="Bl0(A2)",
    )


def c3_like(top):
    """The threefold datum {1/2} D1 + {1/3} D2 + [0, top] E on Bl0(A2)."""
    y = bl0_a2()
    d2 = declared_label("D2", [((1, 1), -1)])
    return PolyhedralDivisor(
        y,
        1,
        Cone.zero(1),
        {
            ray_label((1, 0)): hull([(F(1, 2),)]),
            d2: hull([(F(1, 3),)]),
            ray_label((1, 1)): hull([(0,), (top,)]),
        },
    )


def test_evaluate_threefold_weight_six():
    d = c3_like(F(5, 6))
    dv = d.evaluate((6,))
    assert dv.coefficient(ray_label((1, 0))) == 3
    assert dv.coefficient(declared_label("D2", [((1, 1), -1)])) == 2
    assert dv.coefficient(ray_label((1, 1))) == 0


def test_evaluate_zero_weight():
    d = PolyhedralDivisor(
        P1,
        1,
        Cone.from_rays([(1,)]),
        {point_label(0): Polyhedron.from_generators([(F(1, 2),)], [(1,)], n=1)},
    )
    dv = d.evaluate((0,))
    assert dv.coeffs == {}
    e = PolyhedralDivisor(
        P1,
        1,
        Cone.from_rays([(1,)]),
        {point_label(0): Polyhedron.empty_polyhedron(1)},
    )
    assert is_inf(e.evaluate((0,)).coefficient(point_label(0)))


def test_evaluate_outside_cone():
    d = PolyhedralDivisor(
        P1,
        1,
        Cone.from_rays([(1,)]),
        {point_label(0): Polyhedron.from_generators([(1,)], [(1,)], n=1)},
    )
    with pytest.raises(WeightOutsideCone):
        d.evaluate((-1,))


def test_evaluate_wrong_length_weight():
    rank1 = c3_like(F(5, 6))
    rank2 = PolyhedralDivisor(P1, 2, Cone.zero(2), {point_label(0): hull([(1, 0), (0, 1)])})
    for d, u in ((rank1, (1, 2)), (rank1, ()), (rank2, (1,)), (rank2, (1, 0, 0))):
        with pytest.raises(AmbientMismatch):
            d.evaluate(u)


def test_evaluate_min_over_vertices_random():
    rng = random.Random(71)
    for _ in range(20):
        verts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(2)) for _ in range(3)]
        p = hull(verts)
        d = PolyhedralDivisor(P1, 2, Cone.zero(2), {point_label(0): p})
        u = tuple(F(rng.randint(-3, 3)) for _ in range(2))
        got = d.evaluate(u).coefficient(point_label(0))
        want = min(sum(a * b for a, b in zip(v, u)) for v in verts)
        assert got == want


def test_convexity_check():
    # D(u) + D(u') <= D(u + u') on pairs of the weight cone's generators and
    # on the samples
    d = c3_like(F(5, 6))
    omega = d.weight_cone()
    gens = [*omega.rays, *omega.lines, *(tuple(-x for x in l) for l in omega.lines)]
    pairs = [*itertools.combinations_with_replacement(gens, 2), ((2,), (3,)), ((-1,), (5,))]
    assert len(pairs) > 2
    for a, b in pairs:
        assert d.evaluate(a).add(d.evaluate(b)).leq(d.evaluate(tuple(x + y for x, y in zip(a, b))))


def test_proper_downgrade_difficulties_input():
    # conv{0,e2} (x) Dx + conv{0,e1+e2} (x) Dy on A^2 is proper
    a2 = BaseVariety.toric([Cone.from_rays([(1, 0), (0, 1)])], name="A2")
    d = PolyhedralDivisor(
        a2,
        2,
        Cone.zero(2),
        {
            ray_label((1, 0)): hull([(0, 0), (0, 1)]),
            ray_label((0, 1)): hull([(0, 0), (1, 1)]),
        },
    )
    rep = d.is_proper()
    assert rep.proper


def test_properness_and_chambers_computed_once(monkeypatch):
    import pdivisors.pdivisor as pdivisor_module
    from pdivisors.downgrade import DowngradeContext, downgrade

    calls = []
    real = pdivisor_module.normal_fan

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pdivisor_module, "normal_fan", counting)
    sigma = Cone.from_rays([(1, 0), (0, 1)])
    sp = sigma.as_polyhedron()
    d = PolyhedralDivisor(
        P1,
        2,
        sigma,
        {
            point_label(0): hull([(1, 0), (0, 1)]).minkowski(sp),
            point_label(1): hull([(2, 0), (0, 1)]).minkowski(sp),
        },
    )
    rep = d.is_proper()
    assert rep.proper and d.is_proper() == rep
    # one normal fan for all coefficients: the chambers' body ran once
    assert len(calls) == 1
    ctx = DowngradeContext.from_projection(LatticeMap(Lattice(2), Lattice(1), [[0, 1]]))
    downgrade(d, ctx)
    assert len(calls) == 1


def test_sigma_only_divisor_fails_bigness():
    d = PolyhedralDivisor(P1, 1, Cone.from_rays([(1,)]), {})
    rep = d.is_proper()
    assert rep.semiample and not rep.big and rep.fulldim_weightcone


def test_degree_polyhedron():
    d = PolyhedralDivisor(
        P1,
        1,
        Cone.zero(1),
        {
            point_label(0): hull([(F(1, 2),)]),
            point_label(INF): hull([(0,), (1,)]),
        },
    )
    assert d.degree_polyhedron() == hull([(F(1, 2),), (F(3, 2),)])


def test_degree_polyhedron_single_coefficient():
    p = hull([(1,), (2,)])
    d = PolyhedralDivisor(P1, 1, Cone.zero(1), {point_label(0): p})
    assert d.degree_polyhedron() == p


def test_principal_pdivisor():
    f = CurveFunction({0: 1})
    d = principal_pdivisor([((1,), f)], P1, 1)
    for u in [(-2,), (0,), (3,)]:
        dv = d.evaluate(u)
        assert dv.coefficient(point_label(0)) == u[0]
        assert dv.coefficient(point_label(INF)) == -u[0]
    z = principal_pdivisor([], P1, 1)
    assert z.evaluate((5,)).coeffs == {}


def test_principal_two_terms_termwise():
    f = CurveFunction({0: 1})
    g = CurveFunction({1: 1})
    d = principal_pdivisor([((1, 0), f), ((0, 2), g)], P1, 2)
    dv = d.evaluate((3, 1))
    assert dv.coefficient(point_label(0)) == 3
    assert dv.coefficient(point_label(1)) == 2
    assert dv.coefficient(point_label(INF)) == -5


def test_pullback_identity_triple():
    d = c3_like(F(5, 6))
    assert d.pullback(PullbackTriple()) == d


def test_pullback_shift_translates():
    d = PolyhedralDivisor(
        P1,
        1,
        Cone.zero(1),
        {point_label(0): hull([(0,), (1,)])},
    )
    tr = PullbackTriple(shift=(((1,), CurveFunction({0: 1})),))
    out = d.pullback(tr)
    assert out.coefficient(point_label(0)) == hull([(1,), (2,)])
    assert out.coefficient(point_label(INF)) == hull([(-1,)])


def test_pullback_then_inverse_shift_identity():
    d = PolyhedralDivisor(
        P1,
        2,
        Cone.zero(2),
        {point_label(0): hull([(0, 0), (1, 2)])},
    )
    f = CurveFunction({2: 1})
    fwd = PullbackTriple(shift=(((1, 1), f),))
    back = PullbackTriple(shift=(((-1, -1), f),))
    assert d.pullback(fwd).pullback(back) == d


def test_pullback_by_a_lattice_map():
    # unimodular F: D'(F^T u) = D(u) on the weight cone
    sigma = Cone.from_rays([(1, 0), (1, 2)])
    sp = sigma.as_polyhedron()
    d = PolyhedralDivisor(P1, 2, sigma, {
        point_label(0): hull([(0, 0), (1, 0)]).minkowski(sp),
        point_label(1): hull([(F(1, 2), 1), (0, 3)]).minkowski(sp),
    })
    rows, inverse = [[2, 1], [1, 1]], [[1, -1], [-1, 2]]
    out = d.pullback(PullbackTriple(lattice_map=LatticeMap(Lattice(2), Lattice(2), rows)))
    assert out.tail == Cone.from_rays([tuple(vdot(r, v) for r in inverse) for v in sigma.rays])
    omega = d.weight_cone()
    for u in [*omega.rays, (1, 1), (2, 3), (4, -1)]:
        assert omega.contains(u)
        ft_u = tuple(sum(rows[i][j] * u[i] for i in range(2)) for j in range(2))
        assert out.evaluate(ft_u) == d.evaluate(u)
    # F = (1, 1)^T on the README divisor: the diagonal cuts
    # conv{(1,0),(0,1)} + sigma at x >= 1/2
    sigma = Cone.from_rays([(1, 0), (0, 1)])
    sp = sigma.as_polyhedron()
    d = PolyhedralDivisor(P1, 2, sigma, {
        point_label(0): hull([(1, 0), (0, 1)]).minkowski(sp),
        point_label(1): hull([(0, 0), (1, 1)]).minkowski(sp),
    })
    diag = d.lattice_preimage(LatticeMap(Lattice(1), Lattice(2), [[1], [1]]))
    assert diag.n == 1 and diag.tail == Cone.from_rays([(1,)])
    assert diag.coefficient(point_label(0)) == Polyhedron.from_generators([(F(1, 2),)], [(1,)])
    assert diag.coefficient(point_label(1)) == Polyhedron.from_generators([(0,)], [(1,)])


# -- toric downgrade ----------------------------------------------------


def test_toric_downgrade_pathology_golden():
    cols = [(0, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 1)]
    delta = Cone.from_rays(cols)
    sub = LatticeMap(Lattice(1, "Nbar"), Lattice(4, "Ntilde"), [[1], [0], [0], [0]])
    base, dbar, rep = toric_downgrade(delta, sub)
    rays = base.rays()
    assert vec((1, 1, 1)) in rays
    assert len(rays) == 5
    expected_cones = {
        Cone.from_rays([(1, 1, 1), (0, 1, 0), (1, 1, 0)]),
        Cone.from_rays([(1, 1, 1), (0, 1, 0), (0, 0, 1)]),
        Cone.from_rays([(1, 1, 1), (0, 0, 1), (1, 0, 1)]),
        Cone.from_rays([(1, 1, 1), (1, 1, 0), (1, 0, 1)]),
    }
    assert set(base.fan) == expected_cones
    # divisor: {1} at v4 = (1,0,1), [0,1] at v0 = (1,1,1), trivial elsewhere
    assert dbar.coefficient(base.ray((1, 0, 1))) == hull([(1,)])
    assert dbar.coefficient(base.ray((1, 1, 1))) == hull([(0,), (1,)])
    assert set(dbar.coeffs) == {base.ray((1, 0, 1)), base.ray((1, 1, 1))}
    assert dbar.tail == Cone.zero(1)
    assert rep.proper


def test_toric_downgrade_full_sublattice():
    # the whole lattice as subtorus: the base degenerates to a point and
    # the divisor is carried entirely by its tailcone
    delta = Cone.from_rays([(1, 0), (0, 1)])
    sub = LatticeMap(Lattice(2), Lattice(2), [[1, 0], [0, 1]])
    base, dbar, _ = toric_downgrade(delta, sub)
    assert base.rank_n == 0
    assert dbar.tail == delta
    assert dbar.coeffs == {}


def test_toric_downgrade_needs_a_pointed_cone():
    delta = Cone.from_rays([(1, 0)], [(0, 1)])
    with pytest.raises(NotPointed):
        toric_downgrade(delta, LatticeMap(Lattice(1), Lattice(2), [[1], [0]]))


def test_as_curve_divisor():
    # on A^1 the ray +1 becomes the point 0 of the projective line, and
    # infinity stays unmarked
    tail = Cone.from_rays([(1,)])
    a = Polyhedron.from_generators([(F(1, 2),)], [(1,)], n=1)
    b = Polyhedron.from_generators([(-1,)], [(1,)], n=1)
    a1 = BaseVariety.toric([Cone.from_rays([(1,)])])
    d = as_curve_divisor(PolyhedralDivisor(a1, 1, tail, {a1.ray((1,)): a}))
    assert d.base == P1 and d.tail == tail
    assert d.coeffs == {point_label(0): a}
    # on the complete line the ray -1 becomes the point at infinity
    line = BaseVariety.toric([Cone.from_rays([(1,)]), Cone.from_rays([(-1,)])])
    d = as_curve_divisor(PolyhedralDivisor(line, 1, tail, {line.ray((1,)): a, line.ray((-1,)): b}))
    assert d.coeffs == {point_label(0): a, point_label(INF): b}
    assert d.evaluate((F(2),)).coeffs == {point_label(0): F(1), point_label(INF): F(-2)}
    # only invariant labels on a one-dimensional toric base convert
    with pytest.raises(UnsupportedBase):
        as_curve_divisor(PolyhedralDivisor(P1, 1, tail, {point_label(0): a}))
    with pytest.raises(UnsupportedBase):
        as_curve_divisor(PolyhedralDivisor(line, 1, tail, {declared_label("D", [((1,), 1)]): a}))


def test_toric_downgrade_orthant():
    delta = Cone.from_rays([(1, 0), (0, 1)])
    sub = LatticeMap(Lattice(1), Lattice(2), [[1], [0]])
    base, dbar, rep = toric_downgrade(delta, sub)
    assert [tuple(r) for r in base.rays()] == [(1,)]
    assert dbar.coefficient(base.ray((1,))) == Polyhedron.from_generators(
        [(0,)], [(1,)], n=1
    )
    assert dbar.tail == Cone.from_rays([(1,)])


def test_toric_downgrade_pathology_base_fan_continues():
    # the second projection of the pathology fan gives Bl0(A2)
    cols = [(0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)]
    cones = [
        Cone.from_rays([(1, 1, 1), (0, 1, 0), (1, 1, 0)]),
        Cone.from_rays([(1, 1, 1), (0, 1, 0), (0, 0, 1)]),
        Cone.from_rays([(1, 1, 1), (0, 0, 1), (1, 0, 1)]),
        Cone.from_rays([(1, 1, 1), (1, 1, 0), (1, 0, 1)]),
    ]
    sub = LatticeMap(Lattice(1), Lattice(3), [[1], [0], [0]])
    # memberwise downgrade of each chart cone; collect the image fans
    charts = []
    for c in cones:
        b, dv, _ = toric_downgrade(c, sub)
        charts.append((b, dv))
    all_rays = sorted({r for b, _ in charts for r in b.rays()})
    assert all_rays == [vec((0, 1)), vec((1, 0)), vec((1, 1))]
    # the four members, as printed coefficient tables
    tables = []
    for b, dv in charts:
        table = {}
        for r in [(1, 0), (0, 1), (1, 1)]:
            if vec(r) not in set(b.rays()):
                table[r] = "empty"
            else:
                p = dv.coefficient(b.ray(r))
                table[r] = p
        tables.append(table)
    def seg(a, b):
        return hull([(F(a),), (F(b),)])
    expected = [
        {(1, 0): seg(0, 1), (0, 1): "empty", (1, 1): seg(1, 1)},
        {(1, 0): "empty", (0, 1): seg(0, 1), (1, 1): seg(1, 1)},
        {(1, 0): seg(1, 1), (0, 1): seg(1, 1), (1, 1): seg(1, 2)},
        {(1, 0): seg(0, 0), (0, 1): seg(0, 0), (1, 1): seg(0, 1)},
    ]
    for e in expected:
        assert e in tables
