from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import interval, point_poly
from pdivisors.base import (
    INF,
    BaseVariety,
    QDivisor,
    global_sections,
    point_label,
)
from pdivisors.deform import (
    DeformationInput,
    check_admissible,
    deformation_upgrade,
    family_base_fan,
    family_pdivisor,
    structure_map,
)
from pdivisors.errors import NonIntegral, NotAdmissible, RoutesDisagree, SumMismatch
from pdivisors.linalg import vec
from pdivisors.polyhedra import Cone, Polyhedron, hull

F = Fraction


def a1_input() -> DeformationInput:
    """The quadric cone deformed in degree [0,2]: {-1/2} + [0,1]."""
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    return DeformationInput(
        delta, (0, 2), (point_poly(F(-1, 2)), interval(0, 1))
    )


def test_a1_slices():
    din = a1_input()
    assert din.k == 2
    assert din.delta_plus == interval(-1, 1)
    assert din.delta_minus.empty
    assert din.sigma == Cone.zero(1)


def test_a1_admissible():
    ok, witness = check_admissible(a1_input())
    assert ok and witness is None


def test_trivial_decomposition_admissible():
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    din = DeformationInput(delta, (0, 1), (interval(-1, 1),))
    ok, _ = check_admissible(din)
    assert ok


def test_two_lattice_free_faces_rejected():
    # {1/2} + {1/2} = {1}: both argmin faces lattice-free
    delta = Cone.from_rays([(1, 1)])
    din = DeformationInput(delta, (0, 1), (point_poly(F(1, 2)), point_poly(F(1, 2))))
    ok, witness = check_admissible(din)
    assert not ok and witness is not None


def test_degree_and_multiplicities_checked():
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    # 5/2 was truncated to k = 2, and the summands took the blame; it is a
    # non-integral lattice vector like any other
    with pytest.raises(NonIntegral, match="degree covectors must have integer entries"):
        DeformationInput(delta, (0, F(5, 2)), (point_poly(F(-1, 2)), interval(0, 1)))
    # a multiplicity 0 made k = gcd(0) = 0, and 3/2 was truncated to 1
    for m in (0, F(3, 2)):
        with pytest.raises(ValueError, match="positive integers"):
            DeformationInput(delta, (0, 1), (interval(-1, 1), point_poly(0)), (m,))


def test_sum_mismatch_raises():
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    din = DeformationInput(delta, (0, 2), (point_poly(F(-1, 2)), interval(0, 2)))
    with pytest.raises(SumMismatch):
        check_admissible(din)


def test_empty_summand_raises_sum_mismatch():
    # the degree slice of a cone below height zero is empty, so the sum
    # of empty summands matches it; an empty summand has no normal fan
    delta = Cone.from_rays([(1, -1), (-1, -1)])
    empty = Polyhedron.empty_polyhedron(1)
    for deltas, mult in [((empty,), None), ((empty, point_poly(0)), None), ((empty, empty), (1,))]:
        with pytest.raises(SumMismatch):
            check_admissible(DeformationInput(delta, (0, 2 if mult is None else 1), deltas, mult))


def test_nonlattice_summand_rejected_for_k_two():
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    din = DeformationInput(delta, (0, 2), (point_poly(0), interval(F(-1, 2), F(1, 2))))
    ok, witness = check_admissible(din)
    assert not ok and witness[0] == "non-lattice summand"


def test_family_pdivisor_a1():
    din = a1_input()
    fam, (d0, dis, dinf) = family_pdivisor(din)
    # P0 = V(x) has coefficient {-1} = 2 * {-1/2}
    assert fam.coefficient(d0) == point_poly(-1)
    # P1 = V(y - x^2) has coefficient [0,1]
    assert fam.coefficient(dis[0]) == interval(0, 1)
    # Delta_minus empty: infinity is off the locus
    assert fam.coefficient(dinf).empty
    rep = fam.is_proper()
    assert rep.proper


def test_family_pdivisor_l0():
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    din = DeformationInput(delta, (0, 2), (interval(F(-1, 2), F(1, 2)),))
    fam, (d0, dis, dinf) = family_pdivisor(din)
    assert fam.base.kind == "P1"
    assert fam.coefficient(d0) == interval(-1, 1)
    assert fam.coefficient(dinf).empty


def test_family_base_fan_l1():
    din = a1_input()
    fb = family_base_fan(din)
    assert fb.base.kind == "P1"
    # slices: [1/k, inf) at P0; [-1/k,0] and [0,inf) at Q; [0,inf) at P1
    s_p0 = fb.fan.slice_of(fb.p0)
    assert s_p0.cells == (Polyhedron.from_generators([(F(1, 2),)], [(1,)], n=1),)
    s_q = fb.fan.slice_of(fb.q)
    assert set(s_q.cells) == {
        interval(F(-1, 2), 0),
        Polyhedron.from_generators([(0,)], [(1,)], n=1),
    }
    assert fb.fan.vertices_of(fb.q) == [(F(-1, 2),), (F(0),)]
    # pullback table: D_inf has no exceptional term
    assert fb.pullback_table["Dinf"] == [(fb.q, -F(1, 2))]
    assert "E" in fb.pullback_table["D0"]


def test_deformation_upgrade_a1_golden():
    din = a1_input()
    out, fb = deformation_upgrade(din)
    delta = din.delta
    # sigma~ = delta cap [last >= 0] = delta here (Delta_minus empty)
    assert out.tail == delta
    dp = delta.as_polyhedron()
    want0 = Polyhedron.from_generators([(F(-1, 2), F(1, 2))], n=2).minkowski(dp)
    want1 = Polyhedron.from_generators([(0, 0), (1, 0)], n=2).minkowski(dp)
    assert out.coefficient(point_label(0)) == want0
    assert out.coefficient(point_label(1)) == want1
    # trivial coefficient at Q = infinity
    assert point_label(INF) not in out.coeffs
    assert set(out.coeffs) == {point_label(0), point_label(1)}


def test_toric_total_space_trivial_q():
    # Delta_minus empty makes the Q-coefficient trivial
    delta = Cone.from_rays([(0, 1), (1, 1)])
    din = DeformationInput(delta, (0, 1), (point_poly(0), interval(0, 1)))
    out, fb = deformation_upgrade(din)
    assert fb.q not in out.coeffs


def test_deformation_upgrade_negative_part():
    # a degree outside the dual cone exercises the Q-coefficient hull
    delta = Cone.from_rays([(1, 1), (0, -1)])
    halfline_pos = Polyhedron.from_generators([(0,)], [(1,)], n=1)
    din = DeformationInput(
        delta, (0, 1), (halfline_pos, hull([(1,)]).minkowski(halfline_pos))
    )
    out, fb = deformation_upgrade(din)
    dm = din.delta_minus
    assert not dm.empty
    q = out.coefficient(fb.q)
    assert q.contains_point((0, 0))
    for v in dm.vertices:
        assert q.contains_point(tuple(v) + (F(-1),))


def test_minkowski_slice_identities():
    # Delta_{P0} + ... + Delta_{P_l} = delta cap [r >= 1] as a sum identity
    din = a1_input()
    out, fb = deformation_upgrade(din)
    total = None
    for label in [fb.p0] + fb.pis:
        p = out.coefficient(label)
        total = p if total is None else total.minkowski(p)
    rhs = din.delta.as_polyhedron().intersect(
        Polyhedron.from_H([((0, 2), 1)], (), 2)
    )
    assert total == rhs
    # Delta_Q = delta cap [r >= -1]
    q = out.coefficient(fb.q)
    rhs_q = din.delta.as_polyhedron().intersect(
        Polyhedron.from_H([((0, 2), -1)], (), 2)
    )
    assert q == rhs_q


def test_primitive_degree_decomposition_identity():
    # delta_{r0} = (k Delta_0, 1) + (k Delta_1, 0) + ...
    din = a1_input()
    from pdivisors.deform import _embed_at_height

    total = _embed_at_height(din.deltas[0].scale(din.k), 1)
    for p in din.deltas[1:]:
        total = total.minkowski(_embed_at_height(p.scale(din.k), 0))
    target = din.delta.as_polyhedron().slice_at((0, 1), 1)
    assert total == target


def test_fiber_consistency_graded_dims():
    # over a generic base point the family reproduces the fiber divisor
    din = a1_input()
    fam, (d0, dis, dinf) = family_pdivisor(din)
    P1 = BaseVariety.projective_line()
    fiber = {point_label(0): din.deltas[0].scale(din.k)}
    # each D_i meets the fiber in k points; use fresh rational stand-ins
    stand_ins = [F(3), F(5)]
    for p, c in zip(din.deltas[1:], stand_ins):
        for j in range(din.k):
            fiber[point_label(c + j)] = p
    dfib = None
    from pdivisors.pdivisor import PolyhedralDivisor

    dm = din.delta_minus
    coeffs = dict(fiber)
    if not dm.empty:
        coeffs[point_label(INF)] = dm
    else:
        coeffs[point_label(INF)] = Polyhedron.empty_polyhedron(din.n)
    dfib = PolyhedralDivisor(P1, din.n, din.sigma, coeffs)
    reference = PolyhedralDivisor(
        P1,
        din.n,
        din.sigma,
        {
            point_label(0): din.delta_plus,
            point_label(INF): dm if not dm.empty else Polyhedron.empty_polyhedron(din.n),
        },
    )
    for u in [(-2,), (-1,), (0,), (1,), (2,)]:
        a = global_sections(dfib.evaluate(u), pole_bound=3)
        b = global_sections(reference.evaluate(u), pole_bound=3)
        assert a.dimension == b.dimension


def test_structure_map_l1():
    din = a1_input()
    triple, wit = structure_map(din)
    assert wit.order_at(0) == 1 and wit.order_at(INF) == -1
    assert triple.lattice_map.matrix == ((0, 2),)


def test_structure_map_l2_principal():
    # two-parameter decomposition over Bl_O P^2
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    din = DeformationInput(
        delta, (0, 1), (point_poly(-1), interval(0, 1), interval(0, 1))
    )
    ok, _ = check_admissible(din)
    assert ok
    triple, wit = structure_map(din)
    assert triple.base_map is not None
    # the witness is a character with divisor P0 - pi*H - Q
    assert wit.chars


def test_mixed_multiplicities_routes_agree():
    delta = Cone.from_rays([(1, 1), (-1, 1)])
    # Delta_plus = [-1,1] = {-1} + 2*[0,1]
    din = DeformationInput(
        delta, (0, 2), (point_poly(-1), interval(0, 1)), multiplicities=(2,)
    )
    ok, _ = check_admissible(din)
    assert ok
    out, fb = deformation_upgrade(din)
    assert out.tail == delta
