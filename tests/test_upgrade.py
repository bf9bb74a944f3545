from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import halfline, interval, point_poly
from pdivisors.base import (
    INF,
    BaseVariety,
    cone_index,
    global_sections,
    point_label,
)
from pdivisors.linalg import rank
from pdivisors.pdivisor import PolyhedralDivisor
from pdivisors.polyhedra import Cone, Polyhedron, hull
from pdivisors.tvariety import (
    DivisorialFan,
    contraction_free_refinement,
    invariant_prime_divisors,
)
from pdivisors.upgrade import (
    InvariantPDivisorOnFan,
    _parallelotope_point,
    correct_pic_z,
    resolve_toric,
    upgrade,
    upgrade_coefficients,
    upgrade_tailcone,
)

F = Fraction
P1 = BaseVariety.projective_line()


def noncf_p2_fan():
    """Divisorial fan for P^2 over P^1 whose slice at infinity has the
    single vertex -1; the two half-lines with negative tail sit in one
    member, so the fan is not contraction-free."""
    plus = Cone.from_rays([(1,)])
    minus = Cone.from_rays([(-1,)])
    pinf = point_label(INF)
    p0 = point_label(0)
    e = Polyhedron.empty_polyhedron(1)
    a = PolyhedralDivisor(P1, 1, minus, {pinf: halfline(-1, -1)})
    b = PolyhedralDivisor(P1, 1, plus, {pinf: halfline(-1, 1), p0: e})
    c = PolyhedralDivisor(P1, 1, plus, {pinf: e})
    return DivisorialFan(P1, [a, b, c])


def noncf_input():
    fan = noncf_p2_fan()
    sigma = Cone.from_rays([(1,)])
    return InvariantPDivisorOnFan(
        fan,
        1,
        sigma,
        ray_coeffs={(1,): halfline(F(1, 2), 1)},
        rays=[(1,)],
        verts={point_label(INF): [(-1,)], point_label(0): [(0,)]},
    )


def cf_input():
    fan = contraction_free_refinement(noncf_p2_fan())
    assert fan.is_contraction_free()
    sigma = Cone.from_rays([(1,)])
    return InvariantPDivisorOnFan(
        fan,
        1,
        sigma,
        ray_coeffs={(1,): halfline(F(1, 2), 1)},
    )


def test_noncf_refinement_preserves_slices():
    fan = noncf_p2_fan()
    assert not fan.is_contraction_free()
    cf = contraction_free_refinement(fan)
    assert cf.is_contraction_free()
    for label in fan.marked_primes():
        assert set(fan.slice_of(label).cells) == set(cf.slice_of(label).cells)
    rays, verts = invariant_prime_divisors(cf)
    assert rays == [(-1,), (1,)]
    assert verts[point_label(INF)] == [(-1,)]


def test_upgrade_tailcone_golden():
    st = upgrade_tailcone(noncf_input())
    assert st == Cone.from_rays([(1, 0), (1, 2)])


def test_upgrade_tailcone_no_rays():
    fan = noncf_p2_fan()
    d = InvariantPDivisorOnFan(
        fan,
        1,
        Cone.from_rays([(1,)]),
        rays=[],
        verts={},
    )
    assert upgrade_tailcone(d) == Cone.from_rays([(1, 0)], n=2)


def test_upgrade_coefficients_golden():
    d = noncf_input()
    st = upgrade_tailcone(d)
    out = upgrade_coefficients(d)
    assert out.tail == st
    expected = st.as_polyhedron().translate((0, -1))
    assert out.coefficient(point_label(INF)) == expected
    # the slice-vertex 0 prime gets the trivial coefficient
    assert point_label(0) not in out.coeffs


def test_upgrade_with_verts_omitting_a_prime_without_cells():
    # every member is empty over the one marked prime, so its slice has no
    # cells; leaving it out of explicit verts gives the default upgrade
    e = Polyhedron.empty_polyhedron(1)
    fan = DivisorialFan(
        P1,
        [PolyhedralDivisor(P1, 1, Cone.from_rays([(1,)]), {point_label(0): e}),
         PolyhedralDivisor(P1, 1, Cone.from_rays([(-1,)]), {point_label(0): e})],
    )
    sigma = Cone.zero(1)
    default = InvariantPDivisorOnFan(fan, 1, sigma)
    assert default.verts == {point_label(0): ()}
    explicit = InvariantPDivisorOnFan(fan, 1, sigma, rays=default.rays, verts={})
    out = upgrade(explicit).divisor
    assert out == upgrade(default).divisor
    assert out.coefficient(point_label(0)).empty


def test_upgrade_noncf_not_proper():
    res = upgrade(noncf_input())
    assert not res.contraction_free
    assert not res.report.proper
    assert not res.report.semiample


def test_upgrade_cf_proper():
    res = upgrade(cf_input())
    assert res.contraction_free
    assert res.report.proper
    st = Cone.from_rays([(1, 2), (0, -1)])
    assert res.divisor.tail == st
    assert res.divisor.coefficient(point_label(INF)) == st.as_polyhedron().translate((0, -1))


def test_upgrade_makes_its_report_on_first_access(monkeypatch):
    # `upgrade` computes no properness; the first `report` runs the one
    # computation, kept on the divisor, and it is the report of an equal
    # divisor built afresh
    properness = PolyhedralDivisor._properness
    runs = []

    def counted(d):
        runs.append(d)
        return properness(d)

    monkeypatch.setattr(PolyhedralDivisor, "_properness", counted)
    for d, proper in ((noncf_input(), False), (cf_input(), True)):
        runs.clear()
        res = upgrade(d)
        assert runs == []
        report = res.report
        assert runs == [res.divisor]
        assert res.report is report and runs == [res.divisor]
        out = res.divisor
        fresh = PolyhedralDivisor(out.base, out.n, out.tail, dict(out.coeffs))
        assert fresh is not out and fresh == out
        assert report == fresh.is_proper() and report.proper == proper
        assert len(runs) == 2


def test_correction_matches_cf_route():
    noncf = upgrade(noncf_input()).divisor
    corrected, rep = correct_pic_z(noncf)
    assert rep.proper
    cf = upgrade(cf_input()).divisor
    assert corrected == cf


def test_correction_of_semiample_is_identity():
    d = PolyhedralDivisor(
        P1,
        1,
        Cone.from_rays([(1,)]),
        {point_label(0): halfline(F(1, 2), 1)},
    )
    out, rep = correct_pic_z(d)
    assert out == d


def test_correction_contains_degree_directions():
    rng = random.Random(117)
    for _ in range(10):
        pts = [point_label(k) for k in range(rng.randint(1, 3))]
        coeffs = {p: point_poly(F(rng.randint(-4, 4), 2)) for p in pts}
        d = PolyhedralDivisor(P1, 1, Cone.zero(1), coeffs)
        out, _ = correct_pic_z(d)
        degp = d.degree_polyhedron()
        for v in degp.vertices:
            if any(x != 0 for x in v):
                assert out.tail.contains(v)


def test_weight_cone_duality_samples():
    d = noncf_input()
    st = upgrade_tailcone(d)
    dual = st.dual()
    omega = d.tail.dual()
    for u1 in range(-3, 4):
        for u2 in range(-3, 4):
            in_dual = dual.contains((u1, u2))
            in_set = omega.contains((u1,)) and all(
                r[0] * u2 + min(x[0] * u1 for x in d.ray_coefficient(r).vertices) >= 0
                for r in d.rays
            )
            assert in_dual == in_set


def test_graded_piece_equality_with_psi():
    # the coefficient formula equals the weight-data formula: evaluating
    # the upgraded divisor at (u, u') gives exactly Psi^{D(u)}(u'), and in
    # particular the graded dimensions agree
    d = cf_input()
    out = upgrade(d).divisor
    omega_t = out.weight_cone()
    for u1, u2 in itertools.product(range(0, 5), range(-4, 5)):
        if not omega_t.contains((u1, u2)):
            continue
        ev = out.evaluate((u1, u2))
        left = global_sections(ev).dimension
        # right-hand side: ray data at u gives Box and Psi directly
        ra, vb = d.weights_at((u1,))
        if any(u2 * r[0] + ra[r] < 0 for r in d.rays):
            right = 0
        else:
            coeffs = {}
            for (label, v), b in vb.items():
                val = v[0] * u2 + b
                coeffs[label] = min(coeffs.get(label, val), val)
            from pdivisors.base import QDivisor

            psi_div = QDivisor(P1, coeffs)
            assert ev == psi_div
            right = global_sections(psi_div).dimension
        assert left == right


def test_resolve_toric_quadric_cone():
    wp = BaseVariety.toric([Cone.from_rays([(1, 0), (1, 2)])], name="A1-singularity")
    assert not wp.fan_is_smooth()
    res = resolve_toric(wp)
    assert res.fan_is_smooth()
    assert set(res.rays()) >= {(F(1), F(0)), (F(1), F(2))}


def test_parallelotope_point_uses_the_lattice_index():
    # full-dimensional cones: the same points as the determinant grid gave
    assert _parallelotope_point(Cone.from_rays([(-1, 2, 0), (3, 1, 0), (0, 0, 1)])) == (0, 1, 0)
    assert _parallelotope_point(Cone.from_rays([(2, -1, 0), (0, 1, 0), (1, 1, 4)])) == (1, 0, 0)
    assert _parallelotope_point(Cone.from_rays([(1, 0), (1, 2)])) == (1, 1)
    # a plane cone of index 5 in Z^3: 5 does not divide a fixed grid of 12
    plane = Cone.from_rays([(1, 0, 0), (1, 5, 0)])
    assert _parallelotope_point(plane) == (1, 1, 0)
    res = resolve_toric(BaseVariety.toric([plane]))
    assert res.fan_is_smooth()
    assert {(1, k, 0) for k in range(6)} == set(res.rays())


def _scanned_parallelotope_point(c):
    """The subdivision point by the scan of all index^k coefficient vectors
    of a simplicial cone with k rays, which the quotient group replaced."""
    grid = cone_index(c)
    candidates = []
    for coeffs in itertools.product(range(grid), repeat=len(c.rays)):
        pt = [sum(a * r[i] for a, r in zip(coeffs, c.rays)) for i in range(c.n)]
        if any(coeffs) and all(x % grid == 0 for x in pt):
            candidates.append(tuple(x // grid for x in pt))
    least = min(candidates)
    g = math.gcd(*least)
    return tuple(x // g for x in least)


def test_parallelotope_point_matches_the_scan():
    rng = random.Random(31)
    checked = 0
    while checked < 150:
        n = rng.randint(2, 4)
        k = rng.randint(2, n)
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        if rank(rays) < k:
            continue
        c = Cone.from_rays(rays)
        index = cone_index(c)
        if index < 2 or index**k > 5000:
            continue
        assert _parallelotope_point(c) == _scanned_parallelotope_point(c), rays
        checked += 1
    # index 31 with four rays: the scan visits 31^4 coefficient vectors
    tall = Cone.from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 31)])
    assert _parallelotope_point(tall) == (1, 1, 1, 1)


def test_resolve_toric_non_simplicial_cone():
    # the cone over a unit square is subdivided at the sum of its rays
    square = Cone.from_rays([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])
    assert _parallelotope_point(square) == (1, 1, 2)
    res = resolve_toric(BaseVariety.toric([square]))
    assert res.fan_is_smooth() and len(res.fan) == 4
