from __future__ import annotations

import importlib
import itertools
import random
from fractions import Fraction

import pytest

from helpers import interval, point_poly
from pdivisors.base import BaseVariety, global_sections, point_label
from pdivisors.downgrade import (
    DowngradeContext,
    _dual_rows,
    downgrade,
    downgrade_box_psi,
    dualize,
    fan_from,
    subdivision_of_dual,
)
from pdivisors import polyhedra
from pdivisors.errors import NotProper, RoutesDisagree, WeightOutsideCone
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.linalg import mat_vec, vdot, vec
from pdivisors.pdivisor import PolyhedralDivisor
from pdivisors.polyhedra import Cone, PolyhedralComplex, Polyhedron, hull
from pdivisors.tvariety import (
    ConcavePL,
    PLDivisorMap,
    box_and_psi,
    graded_sections,
    zero_function_on,
)
from pdivisors.upgrade import upgrade

F = Fraction
P1 = BaseVariety.projective_line()


# -- linear part and dual ------------------------------------------------


def test_linear_part_affine():
    dom = Polyhedron.from_generators([(0,)], [(1,)], n=1)
    f = ConcavePL(dom, [((2,), F(5))])
    assert f.linear_part((1,)) == 2


def test_linear_part_min_pieces():
    dom = Polyhedron.from_generators([(0,)], [(1,)], n=1)
    f = ConcavePL(dom, [((0,), F(0)), ((-1,), F(1))])
    # oracle: slopes at lambda = 10^3, 10^6 agree
    for lam in (10**3, 10**6):
        val = f.value((F(lam),))
        assert val == 1 - lam
    assert f.linear_part((1,)) == -1


def test_linear_part_bounded_box():
    dom = interval(0, 1)
    f = ConcavePL(dom, [((3,), F(2))])
    assert f.linear_part((0,)) == 0


def test_dualize_zero_on_interval():
    dom = interval(0, 1)
    f = zero_function_on(dom)
    box_star, psi_star = dualize(f)
    assert box_star == Polyhedron.from_H([], [], 1)  # all of Q
    # psi*(v) = min(0, v); oracle: grid minimization
    for v in range(-3, 4):
        want = min(min(0, v), 0)
        grid = [F(k, 4) for k in range(0, 5)]
        oracle = min(v * u for u in grid)
        assert psi_star.value((v,)) == oracle == want


def test_dualize_zero_on_point():
    dom = hull([(0,)])
    box_star, psi_star = dualize(zero_function_on(dom))
    assert box_star == Polyhedron.from_H([], [], 1)
    for v in range(-2, 3):
        assert psi_star.value((v,)) == 0


def test_dual_linear_part_is_box_support():
    # (Psi_P*)^lin(w) = min_{u in Box} <w, u>
    dom = interval(-1, 2)
    f = ConcavePL(dom, [((1,), F(0)), ((0,), F(1))])
    box_star, psi_star = dualize(f)
    for w in [(1,), (-1,)]:
        want = min(vdot(w, (u,)) for u in (F(-1), F(2)))
        assert psi_star.linear_part(w) == want


def epigraph_of_negative(f: ConcavePL) -> Polyhedron:
    """The epigraph of -f, built as the image of the hypograph under t -> -t."""
    n = f.domain.n
    return f.hypo.map_image([[int(i == j) * (-1 if i == n else 1) for j in range(n + 1)] for i in range(n + 1)])


def flip_dual_rows(f: ConcavePL):
    """`_dual_rows` on the epigraph of -f: Box* from the rays and lines of
    its tail, the piece (X, T) / d of Psi* from each vertex ray (X, T, d)
    of its `hom`."""
    n = f.domain.n
    epi = epigraph_of_negative(f)
    rec = epi.tail()
    ineqs = [(g[:n], -g[n]) for g in rec.rays if any(g[:n])]
    eqs = [(g[:n], -g[n]) for g in rec.lines]
    rows = tuple((*g[:n], -g[n + 1], g[n]) for g in epi.hom.rays if g[n + 1])
    return Polyhedron.from_H(ineqs, eqs, n), rows


def _random_function(rng):
    """A concave function on a random polyhedron in Q^1..Q^3, with rays,
    lines and lower-dimensional domains; on a domain with lines most
    functions have one slope along them, so that the hypograph has lines."""
    n = rng.randint(1, 3)
    verts = [tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)) for _ in range(rng.randint(1, n + 2))]
    rays = [r for r in (tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.randint(0, 2))) if any(r)]
    lines = [l for l in (tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.randint(0, 1))) if any(l)]
    dom = Polyhedron.from_generators(verts, rays, lines, n)
    along = rng.random() < 0.8
    c = F(rng.randint(-2, 2), rng.randint(1, 3))
    pieces = []
    for _ in range(rng.randint(1, 4)):
        a = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        for l in dom.lines if along else ():
            k = (c - vdot(a, l)) / vdot(l, l)
            a = [x + k * y for x, y in zip(a, l)]
        pieces.append((tuple(a), F(rng.randint(-4, 4), rng.randint(1, 3))))
    return ConcavePL(dom, pieces)


def test_dual_rows_match_the_flipped_hypograph():
    # the flip t -> -t maps the canonical rays of the hypograph's `hom` to
    # those of the epigraph of -f and its lines to theirs up to sign, so
    # Box* and the rows, in order, are those of the flip's image
    rng = random.Random(11)
    with_lines = unbounded = lower_dim = 0
    for _ in range(300):
        f = _random_function(rng)
        n, hom = f.domain.n, f.hypo.hom
        epi = epigraph_of_negative(f)
        assert epi.hom.rays == tuple(sorted((*g[:n], -g[n], g[n + 1]) for g in hom.rays))
        flipped = {(*g[:n], -g[n], g[n + 1]) for g in hom.lines}
        assert all(g in flipped or tuple(-x for x in g) in flipped for g in epi.hom.lines)
        assert len(epi.hom.lines) == len(hom.lines)
        assert _dual_rows(f) == flip_dual_rows(f)
        with_lines += bool(hom.lines)
        unbounded += not f.domain.is_bounded()
        lower_dim += f.domain.dim() < n
    assert with_lines >= 50 and unbounded >= 100 and lower_dim >= 50


def test_subdivision_of_dual_pointed():
    dom = interval(0, 1)
    cells = subdivision_of_dual(zero_function_on(dom))
    assert all(c.is_pointed() for c in cells)
    assert set(cells.cells) == {
        Polyhedron.from_generators([(0,)], [(1,)], n=1),
        Polyhedron.from_generators([(0,)], [(-1,)], n=1),
    }


def test_fan_from_zero_map():
    box = Polyhedron.from_generators([(0,)], [(1,)], n=1)
    psi = PLDivisorMap(P1, box, {point_label(0): zero_function_on(box)})
    fan, duals, dstar = fan_from(psi, [F(0)])
    # single slice = the dual cone complex of tail(Box)
    assert fan.slice_of(point_label(0)).cells == (
        Polyhedron.from_generators([(0,)], [(1,)], n=1),
    )
    assert not any((*dstar.ray_coeffs.values(), *dstar.vertex_coeffs.values()))


# -- downgrade ------------------------------------------------------------


def ctx_second_coordinate():
    pr = LatticeMap(Lattice(2, "M"), Lattice(1, "Mbar"), [[0, 1]])
    return DowngradeContext.from_projection(pr)


def quadric_cone_total_space():
    """A proper rank-2 divisor on P^1 with three marked points."""
    sigma = Cone.from_rays([(1, 0), (0, 1)])
    sp = sigma.as_polyhedron()
    c0 = hull([(1, 0), (0, 1)]).minkowski(sp)
    c1 = hull([(0, 0), (1, 1)]).minkowski(sp)
    cinf = point_poly_2(F(1, 2), F(0)).minkowski(sp)
    return PolyhedralDivisor(
        P1,
        2,
        sigma,
        {point_label(0): c0, point_label(1): c1, point_label(F(99)): cinf},
    )


def point_poly_2(a, b):
    return hull([(a, b)])


def test_downgrade_box_psi_fiber():
    d = quadric_cone_total_space()
    ctx = ctx_second_coordinate()
    pl = downgrade_box_psi(d, ctx, (1,))
    # Box[1] = t(pr^{-1}(1) cap omega): omega = dual orthant = orthant
    assert pl.box == Polyhedron.from_generators([(0,)], [(1,)], n=1)
    # oracle: enumerate lattice points of omega at pr = 1 and minimize
    for label, p in d.coeffs.items():
        f = pl.psi(label)
        for u1 in range(0, 4):
            lifted = (F(u1), F(1))
            want = min(vdot(v, lifted) for v in p.vertices)
            assert f.value((F(u1),)) == want


def test_downgrade_box_psi_outside():
    d = quadric_cone_total_space()
    ctx = ctx_second_coordinate()
    with pytest.raises(WeightOutsideCone):
        downgrade_box_psi(d, ctx, (-1,))


def test_downgrade_requires_proper():
    bad = PolyhedralDivisor(P1, 2, Cone.from_rays([(1, 0), (0, 1)]), {})
    with pytest.raises(NotProper):
        downgrade(bad, ctx_second_coordinate())


def test_downgrade_quadric_cone_graded_match():
    d = quadric_cone_total_space()
    ctx = ctx_second_coordinate()
    fan, dbar = downgrade(d, ctx)
    _assert_graded_roundtrip(d, ctx, fan, dbar, ubar_range=range(0, 3), uprime_range=range(0, 4))


def _assert_graded_roundtrip(d, ctx, fan, dbar, ubar_range, uprime_range):
    for ub in ubar_range:
        ub = (F(ub),)
        ra, vb = dbar.weights_at(ub)
        from pdivisors.tvariety import TInvariantDivisor

        dv = TInvariantDivisor(
            fan,
            ray_coeffs=ra,
            vertex_coeffs={k: v for k, v in vb.items()},
        )
        pl = box_and_psi(dv)
        for up in uprime_range:
            up = (F(up),)
            lift = tuple(
                a + b
                for a, b in zip(ctx.kernel(up), ctx.s_star(ub))
            )
            in_box = pl.box.contains_point(up)
            in_omega = d.weight_cone().contains(lift)
            assert in_box == in_omega, (ub, up)
            if not in_box:
                continue
            left = graded_sections(dv, up).dimension
            right = global_sections(d.evaluate(lift)).dimension
            assert left == right, (ub, up)


def test_downgrade_roundtrip_upgrade_identity():
    d = quadric_cone_total_space()
    ctx = ctx_second_coordinate()
    fan, dbar = downgrade(d, ctx)
    res = upgrade(dbar)
    assert res.report.proper
    # the upgrade must reassemble the image of d under (s, pi)
    rows = list(ctx.s_rows) + list(ctx.pi_rows)
    expected_tail = d.tail.map_image(rows)
    assert res.divisor.tail == expected_tail
    for label, p in d.coeffs.items():
        assert res.divisor.coefficient(label) == p.map_image(rows)
    assert set(res.divisor.coeffs) <= set(d.coeffs)


def test_wrong_first_slice_route_raises_on_a_rank_one_fiber(monkeypatch):
    # on a rank-1 fiber the second slice route reads the chambers off the
    # vertex images, with no walk; it still checks the first route,
    # whose slice at 0 is shifted here by one
    dg = importlib.import_module("pdivisors.downgrade")
    d = quadric_cone_total_space()
    ctx = ctx_second_coordinate()
    assert ctx.fiber_rank == 1
    downgrade(d, ctx)
    real = dg.fan_and_duals
    label = point_label(0)

    def shifted(psi, marks):
        fan, duals = real(psi, marks)
        right = fan.slice_of(label)
        wrong = PolyhedralComplex([c.translate((1,)) for c in right.cells])
        assert set(wrong.cells) != set(right.cells)
        fan._slices[label] = wrong
        return fan, duals

    def no_walk(p, rows):
        raise AssertionError("a one-row chamber complex ran the walk")

    monkeypatch.setattr(dg, "fan_and_duals", shifted)
    monkeypatch.setattr(polyhedra, "_chamber_walk", no_walk)
    with pytest.raises(RoutesDisagree, match="slice routes disagree at 0"):
        dg.downgrade(d, ctx)


def test_downgrade_dcoeff_duality_samples():
    # the vertex coefficients encode the duals: -Psi_P[ubar]*(v) equals
    # min <Delta_{P,v}, ubar>, and the linear part matches the ray data
    d = quadric_cone_total_space()
    ctx = ctx_second_coordinate()
    fan, dbar = downgrade(d, ctx)
    for ub in [(F(1),), (F(2),)]:
        pl = downgrade_box_psi(d, ctx, ub)
        for label in fan.marked_primes():
            if label not in set(pl.marked()):
                continue
            _, psi_star = dualize(pl.psi(label))
            for v in fan.vertices_of(label):
                delta = dbar.vertex_coefficient(label, v)
                want = min(vdot(x, ub) for x in delta.vertices)
                assert -psi_star.value(v) == want
        for r in fan.rays():
            delta = dbar.ray_coefficient(r)
            want = min(vdot(x, ub) for x in delta.vertices)
            lin = min(vdot(r, u) for u in pl.box.vertices)
            assert -lin == want


def test_dcoeff_sign_on_skew_cone():
    # independent check of the sign convention on a skew tailcone
    sigma = Cone.from_rays([(1, -3), (0, 1)])
    sp = sigma.as_polyhedron()
    d = PolyhedralDivisor(
        P1,
        2,
        sigma,
        {point_label(0): hull([(1, 0), (0, 1)]).minkowski(sp)},
    )
    ctx = ctx_second_coordinate()
    fan, dbar = downgrade(d, ctx)
    ub = (F(1),)
    pl = downgrade_box_psi(d, ctx, ub)
    ray = vec((1,))
    delta = dbar.ray_coefficient(ray)
    # Delta_rho = s(sigma cap pi^{-1}(1)) = [-3, inf)
    assert delta == Polyhedron.from_generators([(-3,)], [(1,)], n=1)
    lin = min(vdot(ray, u) for u in pl.box.vertices)
    assert lin == 3 and min(vdot(x, ub) for x in delta.vertices) == -3


def test_downgrade_random_rank2(count=12):
    rng = random.Random(2024)
    ctxs = [
        DowngradeContext.from_projection(
            LatticeMap(Lattice(2, "M"), Lattice(1, "Mbar"), row)
        )
        for row in ([[0, 1]], [[1, 0]], [[1, 1]])
    ]
    found = 0
    tried = 0
    while found < count and tried < 400:
        tried += 1
        d = _random_proper_rank2(rng)
        if d is None:
            continue
        ctx = rng.choice(ctxs)
        fan, dbar = downgrade(d, ctx)
        _assert_graded_roundtrip(
            d, ctx, fan, dbar, ubar_range=range(0, 2), uprime_range=range(-2, 3)
        )
        res = upgrade(dbar)
        rows = list(ctx.s_rows) + list(ctx.pi_rows)
        assert res.divisor.tail == d.tail.map_image(rows)
        for label, p in d.coeffs.items():
            assert res.divisor.coefficient(label) == p.map_image(rows)
        found += 1
    assert found == count


def _random_proper_rank2(rng):
    sigma = Cone.from_rays([(1, 0), (0, 1)])
    sp = sigma.as_polyhedron()
    pts = [point_label(0), point_label(1), point_label(2), point_label(F(-1))]
    k = rng.randint(2, 4)
    coeffs = {}
    for label in pts[:k]:
        nv = rng.randint(1, 3)
        verts = [
            (F(rng.randint(0, 4), rng.choice([1, 2])), F(rng.randint(0, 4), rng.choice([1, 2])))
            for _ in range(nv)
        ]
        coeffs[label] = hull(verts).minkowski(sp)
    d = PolyhedralDivisor(P1, 2, sigma, coeffs)
    rep = d.is_proper()
    if not rep.proper:
        return None
    return d
