"""Acceptance gate: the worked-example goldens and the property suites.

Every check is exact (Fraction arithmetic throughout), so the tolerance is
literal equality everywhere.  Each criterion prints one pass line; a
failure raises inside its criterion with the failing datum.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from fraction_route import fraction_det
from helpers import (
    assert_cox_dims_equivalent,
    brute_force_graded_dimension,
    complete_cstar_fan,
    halfline,
    interval,
    point_poly,
    random_proper_rank2,
    random_resplit,
)
from pdivisors.base import (
    INF,
    BaseVariety,
    CurveFunction,
    QDivisor,
    declared_label,
    global_sections,
    point_label,
    positivity,
)
from pdivisors.cox import cox_correct, cox_sequence
from pdivisors.deform import DeformationInput, check_admissible, deformation_upgrade, family_pdivisor
from pdivisors.downgrade import DowngradeContext, downgrade
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.linalg import mat_vec, vdot, vec
from pdivisors.pdivisor import PolyhedralDivisor, toric_downgrade
from pdivisors.polyhedra import Cone, Polyhedron, dual_cone, hull, minkowski_sum
from pdivisors.tvariety import (
    DivisorialFan,
    TInvariantDivisor,
    box_and_psi,
    contraction_free_refinement,
    graded_sections,
    principal_invariant_divisor,
    psi0_pdivisor,
    sum_psi,
)
from pdivisors.upgrade import (
    InvariantPDivisorOnFan,
    correct_pic_z,
    upgrade,
    upgrade_coefficients,
    upgrade_tailcone,
)

F = Fraction
P1 = BaseVariety.projective_line()

_RESULTS = []


def _ok(num, desc):
    line = f"criterion {num}: PASS - {desc}"
    _RESULTS.append(num)
    print(line)


# ---------------------------------------------------------------------------
# criterion 1: upgrade golden over the plane fan
# ---------------------------------------------------------------------------


def _noncf_p2_fan():
    plus = Cone.from_rays([(1,)])
    minus = Cone.from_rays([(-1,)])
    pinf = point_label(INF)
    p0 = point_label(0)
    e = Polyhedron.empty_polyhedron(1)
    a = PolyhedralDivisor(P1, 1, minus, {pinf: halfline(-1, -1)})
    b = PolyhedralDivisor(P1, 1, plus, {pinf: halfline(-1, 1), p0: e})
    c = PolyhedralDivisor(P1, 1, plus, {pinf: e})
    return DivisorialFan(P1, [a, b, c])


def test_criterion_1_upgrade_golden():
    fan = _noncf_p2_fan()
    sigma = Cone.from_rays([(1,)])
    d = InvariantPDivisorOnFan(
        fan,
        1,
        sigma,
        ray_coeffs={(1,): halfline(F(1, 2), 1)},
        rays=[(1,)],
        verts={point_label(INF): [(-1,)], point_label(0): [(0,)]},
    )
    st = upgrade_tailcone(d)
    assert st == Cone.from_rays([(1, 0), (1, 2)])
    res = upgrade(d)
    assert res.divisor.coefficient(point_label(INF)) == st.as_polyhedron().translate(
        (0, -1)
    )
    assert not res.report.proper
    # contraction-free variant: same data, computed ray and vertex sets
    cf_fan = contraction_free_refinement(fan)
    d_cf = InvariantPDivisorOnFan(
        cf_fan, 1, sigma, ray_coeffs={(1,): halfline(F(1, 2), 1)}
    )
    res_cf = upgrade(d_cf)
    assert res_cf.report.proper
    corrected, rep = correct_pic_z(res.divisor)
    assert rep.proper
    assert corrected == res_cf.divisor
    _ok(1, "tailcone pos{(1,0),(1,2)}, coefficient (0,-1)+tail, correction = CF route")


# ---------------------------------------------------------------------------
# criterion 2: toric downgrade golden
# ---------------------------------------------------------------------------


def test_criterion_2_toric_downgrade_golden():
    cols = [(0, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 1)]
    delta = Cone.from_rays(cols)
    assert delta.is_pointed() and len(delta.rays) == 4
    assert abs(fraction_det([list(r) for r in delta.rays])) == 1  # affine 4-space certificate
    sub = LatticeMap(Lattice(1, "Nbar"), Lattice(4, "Nt"), [[1], [0], [0], [0]])
    base, dbar, rep = toric_downgrade(delta, sub)
    expected_cones = {
        Cone.from_rays([(1, 1, 1), (0, 1, 0), (1, 1, 0)]),
        Cone.from_rays([(1, 1, 1), (0, 1, 0), (0, 0, 1)]),
        Cone.from_rays([(1, 1, 1), (0, 0, 1), (1, 0, 1)]),
        Cone.from_rays([(1, 1, 1), (1, 1, 0), (1, 0, 1)]),
    }
    assert set(base.fan) == expected_cones
    assert dbar.coeffs == {
        base.ray((1, 0, 1)): hull([(1,)]),
        base.ray((1, 1, 1)): hull([(0,), (1,)]),
    }
    assert rep.proper
    _ok(2, "image fan has the four listed cones with ray (1,1,1); divisor {1} D4 + [0,1] D5")


# ---------------------------------------------------------------------------
# criterion 3: deformation golden
# ---------------------------------------------------------------------------


def test_criterion_3_deformation_golden():
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    din = DeformationInput(delta, (0, 2), (point_poly(F(-1, 2)), interval(0, 1)))
    ok, _ = check_admissible(din)
    assert ok
    fam, (d0, dis, dinf) = family_pdivisor(din)
    assert fam.coefficient(d0) == point_poly(-1)
    assert fam.coefficient(dis[0]) == interval(0, 1)
    # routes (a) and (b) agree inside deformation_upgrade or it raises
    out, fb = deformation_upgrade(din)
    dp = delta.as_polyhedron()
    assert out.tail == delta
    assert out.coefficient(point_label(0)) == hull([(F(-1, 2), F(1, 2))]).minkowski(dp)
    assert out.coefficient(point_label(1)) == hull([(0, 0), (1, 0)]).minkowski(dp)
    assert set(out.coeffs) == {point_label(0), point_label(1)}
    _ok(3, "admissible decomposition; family coefficients {-1}, [0,1]; upgraded family matches; routes agree")


# ---------------------------------------------------------------------------
# criterion 4: trivial-divisor weight data golden
# ---------------------------------------------------------------------------


def test_criterion_4_psi0_golden():
    y = BaseVariety.toric(
        [Cone.from_rays([(1, 0), (1, 1)]), Cone.from_rays([(1, 1), (0, 1)])],
        name="Bl0(A2)",
    )
    d1l, el, d2l = y.ray((1, 0)), y.ray((1, 1)), y.ray((0, 1))
    plus = Cone.from_rays([(1,)])
    e = Polyhedron.empty_polyhedron(1)
    m1 = PolyhedralDivisor(y, 1, plus, {d1l: halfline(0, 1), el: halfline(1, 1), d2l: e})
    m2 = PolyhedralDivisor(y, 1, plus, {d1l: e, el: halfline(1, 1), d2l: halfline(0, 1)})
    fan = DivisorialFan(y, [m1, m2])
    psi0 = psi0_pdivisor(fan)
    expected = PolyhedralDivisor(
        y,
        1,
        plus,
        {d1l: halfline(0, 1), el: halfline(1, 1), d2l: halfline(0, 1)},
    )
    assert psi0 == expected
    ev = psi0.evaluate((1,))
    assert ev == QDivisor(y, {el: 1})
    flags = positivity(ev)
    assert flags.big and not flags.semiample
    _ok(4, "weight-zero data [0,inf) D1 + [1,inf) E + [0,inf) D2; value at 1 is E, big and not semiample")


# ---------------------------------------------------------------------------
# criterion 5: properness golden
# ---------------------------------------------------------------------------


def test_criterion_5_properness_golden():
    y = BaseVariety.toric(
        [Cone.from_rays([(1, 0), (1, 1)]), Cone.from_rays([(1, 1), (0, 1)])],
        name="Bl0(A2)",
    )
    d2 = y.declare_prime(declared_label("D2", [((1, 1), -1)]))
    d = PolyhedralDivisor(
        y,
        1,
        Cone.zero(1),
        {
            y.ray((1, 0)): point_poly(F(1, 2)),
            d2: point_poly(F(1, 3)),
            y.ray((1, 1)): interval(0, F(5, 6)),
        },
    )
    rep = d.is_proper()
    assert rep.proper, rep.as_dict()
    # spot checks from the surrounding example rows
    ev = d.evaluate((6,))
    assert ev.coefficient(y.ray((1, 0))) == 3 and ev.coefficient(d2) == 2
    assert positivity(d.evaluate((1,))).semiample
    _ok(5, "the threefold divisor {1/2} D1 + {1/3} D2 + [0,5/6] E reports proper")


# ---------------------------------------------------------------------------
# criterion 6: downgrade/upgrade round trip (>= 200 random instances)
# ---------------------------------------------------------------------------


def test_criterion_6_roundtrip_property():
    rng = random.Random(60601)
    ctxs = [
        DowngradeContext.from_projection(
            LatticeMap(Lattice(2, "M"), Lattice(1, "Mbar"), row)
        )
        for row in ([[0, 1]], [[1, 0]], [[1, 1]])
    ]
    target = 200
    found = 0
    tried = 0
    idempotence_checks = 0
    while found < target:
        tried += 1
        assert tried < 40 * target, "generator failed to reach the quota"
        d = random_proper_rank2(rng)
        if d is None:
            continue
        ctx = ctxs[found % len(ctxs)]
        fan, dbar = downgrade(d, ctx)
        rows = list(ctx.s_rows) + list(ctx.pi_rows)
        # graded dimensions at all lattice weights in the fixed window
        for ub in range(0, 2):
            ub = (F(ub),)
            ra, vb = dbar.weights_at(ub)
            dv = TInvariantDivisor(fan, ra, dict(vb))
            pl = box_and_psi(dv)
            for up in range(-2, 3):
                up = (F(up),)
                lift = tuple(
                    a + b for a, b in zip(ctx.kernel(up), ctx.s_star(ub))
                )
                in_box = pl.box.contains_point(up)
                in_omega = d.weight_cone().contains(lift)
                assert in_box == in_omega
                if not in_box:
                    continue
                left = graded_sections(dv, up).dimension
                right = global_sections(d.evaluate(lift)).dimension
                assert left == right
        # the upgrade of the downgrade is the image of d: identity on
        # canonical forms for inputs produced by an upgrade
        res = upgrade(dbar)
        assert res.divisor.tail == d.tail.map_image(rows)
        for label, p in d.coeffs.items():
            assert res.divisor.coefficient(label) == p.map_image(rows)
        assert set(res.divisor.coeffs) <= set(d.coeffs)
        if found % 8 == 0:
            # idempotence after one iteration: downgrading the upgraded
            # divisor along the product splitting reproduces (fan, dbar)
            pr2 = LatticeMap(Lattice(2, "M2"), Lattice(1, "Mbar"), [[1, 0]])
            ctx2 = DowngradeContext.from_projection(pr2)
            fan2, dbar2 = downgrade(res.divisor, ctx2)
            assert fan2 == fan
            assert dbar2.tail == dbar.tail
            assert dbar2.ray_coeffs == dbar.ray_coeffs
            assert dbar2.vertex_coeffs == dbar.vertex_coeffs
            idempotence_checks += 1
        found += 1
    assert idempotence_checks >= 20
    _ok(6, f"{found} random proper rank-2 divisors: graded dimensions match and the round trip is the identity")


# ---------------------------------------------------------------------------
# criterion 7: sections oracle (>= 100 random instances)
# ---------------------------------------------------------------------------


def test_criterion_7_sections_oracle():
    rng = random.Random(70707)
    fans = [complete_cstar_fan(F(1, 2)), complete_cstar_fan(F(1, 3)), complete_cstar_fan(1)]
    checked = 0
    instances = 0
    while instances < 100:
        fan = fans[instances % len(fans)]
        d = TInvariantDivisor(
            fan,
            ray_coeffs={(1,): rng.randint(0, 2), (-1,): rng.randint(0, 2)},
            vertex_coeffs={
                (point_label(0), fan.vertices_of(point_label(0))[0]): F(
                    rng.randint(-4, 4), rng.choice([1, 2])
                ),
                (point_label(INF), (F(0),)): F(rng.randint(-3, 3)),
            },
        )
        pl = box_and_psi(d)
        weights = pl.box.lattice_points()
        if not weights:
            continue
        for u in weights:
            dim = graded_sections(d, u).dimension
            brute = brute_force_graded_dimension(d, u)
            assert dim == brute, (d.ray_coeffs, d.vertex_coeffs, u)
            checked += 1
        instances += 1
    assert checked >= 100
    _ok(7, f"{instances} divisors, {checked} graded pieces: decomposition equals brute-force enumeration")


# ---------------------------------------------------------------------------
# criterion 8: convexity and duality property suites (>= 100 each)
# ---------------------------------------------------------------------------


def test_criterion_8_property_suites():
    rng = random.Random(80808)
    # dual-cone involution
    for _ in range(100):
        n = rng.randint(1, 4)
        rays = [
            [rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))
        ]
        rays = [r for r in rays if any(r)]
        c = Cone.from_rays(rays, n=n)
        assert dual_cone(dual_cone(c)) == c
    # Minkowski identities
    for _ in range(100):
        ps = []
        for _ in range(2):
            pts = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3)]
            rays = [r for r in [tuple(rng.randint(0, 1) for _ in range(2))] if any(r)]
            ps.append(Polyhedron.from_generators(pts, rays, n=2))
        a, b = ps
        assert minkowski_sum(a, b) == minkowski_sum(b, a)
        zero = hull([(0, 0)])
        assert minkowski_sum(a, zero) == a
        assert minkowski_sum(a, Polyhedron.empty_polyhedron(2)).empty
        ts = minkowski_sum(a, b).tail()
        assert ts == Cone.from_rays(
            list(a.tail().rays) + list(b.tail().rays), n=2
        )
    # evaluation convexity on random polyhedral divisors
    count = 0
    while count < 100:
        sigma = Cone.from_rays([(1, 0), (0, 1)])
        sp = sigma.as_polyhedron()
        coeffs = {}
        for j in range(rng.randint(1, 3)):
            verts = [
                (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
                for _ in range(rng.randint(1, 3))
            ]
            coeffs[point_label(j)] = hull(verts).minkowski(sp)
        d = PolyhedralDivisor(P1, 2, sigma, coeffs)
        u = tuple(F(rng.randint(0, 5)) for _ in range(2))
        v = tuple(F(rng.randint(0, 5)) for _ in range(2))
        du, dv_ = d.evaluate(u), d.evaluate(v)
        dsum = d.evaluate(tuple(a + b for a, b in zip(u, v)))
        assert du.add(dv_).leq(dsum)
        count += 1
    # weight polyhedron additivity for semiample pairs
    fan = complete_cstar_fan()
    pairs = 0
    while pairs < 100:
        f = CurveFunction({rng.randint(0, 3): rng.randint(-2, 2)})
        g = CurveFunction({rng.randint(0, 3): rng.randint(-2, 2)})
        du = principal_invariant_divisor(fan, f, (rng.randint(-3, 3),))
        dv_ = principal_invariant_divisor(fan, g, (rng.randint(-3, 3),))
        # add pullbacks of base points: still semiample
        for label in [point_label(0), point_label(INF)]:
            c = rng.randint(0, 2)
            if c:
                vs = du.verts.get(label, ())
                du = du.add(
                    TInvariantDivisor(
                        fan,
                        {},
                        {(label, v): c for v in vs},
                        rays=du.rays,
                        verts=du.verts,
                    )
                )
        dsum = du.add(dv_)
        box_u = box_and_psi(du).box
        box_v = box_and_psi(dv_).box
        box_sum = box_and_psi(dsum).box
        assert box_u.minkowski(box_v) == box_sum
        if pairs < 15:
            psi_sum = sum_psi(box_and_psi(du), box_and_psi(dv_))
            direct = box_and_psi(dsum)
            assert psi_sum.box == direct.box
            for label in direct.marked():
                fa, fb = psi_sum.psi(label), direct.psi(label)
                for u in box_sum.lattice_points():
                    assert fa.value(u) == fb.value(u)
        pairs += 1
    _ok(8, "involution, Minkowski identities, evaluation convexity, weight polyhedron additivity (100 each)")


# ---------------------------------------------------------------------------
# criterion 9: splitting invariance of the corrected Cox divisor
# ---------------------------------------------------------------------------


def test_criterion_9_cox_pivot_invariance():
    rng = random.Random(90909)
    splits = [F(1, 2), F(1, 3), F(2, 3), F(1), F(2), F(1, 4), F(3, 2)]
    canonical = [(cd, *cox_correct(cd)) for cd in (cox_sequence(complete_cstar_fan(s)) for s in splits)]
    for trial in range(21):
        cd0, out0, rep0 = canonical[trial % len(canonical)]
        # another splitting: section s + K A, retraction t - A pi
        cd1 = random_resplit(rng, cd0)
        out1, rep1 = cox_correct(cd1)
        assert rep0.proper == rep1.proper
        assert_cox_dims_equivalent(cd0, out0, cd1, out1)
    _ok(9, "21 toy fans: corrected Cox divisor dimensions invariant under random splittings")


def test_all_criteria_ran():
    assert sorted(_RESULTS) == list(range(1, 10))
