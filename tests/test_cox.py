from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import (
    assert_cox_dims_equivalent,
    complete_cstar_fan,
    compose,
    halfline,
    identity_on,
    interval,
    random_resplit,
)
from pdivisors.base import INF, BaseVariety, global_sections, point_label
from pdivisors.cox import CoxData, cox_correct, cox_raw, cox_sequence, cox_upgrade
from pdivisors.errors import EmptyCoefficient, MarksMissingSupport, TorsionCokernel
from pdivisors.lattice import Lattice, LatticeMap, multiplicity, smith_split
from pdivisors.linalg import mat_vec, smith_normal_form, vec
from pdivisors.pdivisor import PolyhedralDivisor, as_curve_divisor, toric_downgrade
from pdivisors.polyhedra import Cone, Polyhedron, hull
from pdivisors.tvariety import DivisorialFan

F = Fraction
P1 = BaseVariety.projective_line()


def test_rank_bookkeeping_simple():
    fan = complete_cstar_fan()  # slice vertices: 1/2 at 0, 0 at inf; rays +-1
    cd = cox_sequence(fan)
    # |V| + |R| - (|P|-1) - rank N = 2 + 2 - 1 - 1
    assert cd.cl_rank == 2
    # oracle: Smith form rank of the presentation matrix
    a = [[int(x) for x in row] for row in cd.pi.matrix]
    _, d, _ = smith_normal_form(a)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert all(abs(x) == 1 for x in diag if x != 0)
    assert cd.pi.source.rank - sum(1 for x in diag if x != 0) == 2


def test_sequence_exactness():
    fan = complete_cstar_fan()
    cd = cox_sequence(fan)
    # pi . kernel = 0 and the section identity
    prod = [mat_vec(cd.pi.matrix, col) for col in zip(*cd.kernel.matrix)]
    for col in prod:
        assert all(x == 0 for x in col)
    assert compose(cd.pi, cd.section) == identity_on(cd.pi.target)


def quadric_cone_surface_fan():
    """The projective cone over a conic as a C*-surface over P^1: one tail
    ray, slice vertex -1/2 over 0, trivial vertex over infinity."""
    plus = Cone.from_rays([(1,)])
    e = Polyhedron.empty_polyhedron(1)
    m1 = PolyhedralDivisor(P1, 1, plus, {point_label(0): halfline(F(-1, 2), 1), point_label(INF): e})
    m2 = PolyhedralDivisor(P1, 1, plus, {point_label(0): e})
    return DivisorialFan(P1, [m1, m2])


def test_quadric_cone_class_group_rank_one():
    fan = quadric_cone_surface_fan()
    cd = cox_sequence(fan)
    assert cd.cl_rank == 1
    # oracle: the surface is the toric P(1,1,2); its class group via an
    # independent Smith computation on the ray matrix is Z (rank 1, no
    # torsion beyond the expected quotient)
    rays = [[1, 0], [0, 1], [-1, -2]]
    _, dm, _ = smith_normal_form([list(c) for c in zip(*rays)])
    diag = [dm[i][i] for i in range(2)]
    assert all(abs(x) == 1 for x in diag)
    assert len(rays) - 2 == 1
    # the half-integral vertex forces a multiplicity-2 generator
    assert any(multiplicity(v) == 2 for (_, v) in cd.pairs)
    out, rep = cox_correct(cd)
    assert rep.proper
    # Spec Cox(P(1,1,2)) = A^3: the weight monoid has one generator per
    # invariant prime; sampled graded pieces are nonzero on the weight cone
    omega = out.weight_cone()
    for u in omega.as_polyhedron().lattice_window(1):
        dim = global_sections(out.evaluate(u)).dimension
        assert dim >= 1


def test_minimal_fan_with_trivial_slices():
    # an unmarked prime contributes its trivial vertex, keeping the
    # sequence well-formed even with one marked point
    plus = Cone.from_rays([(1,)])
    minus = Cone.from_rays([(-1,)])
    e = Polyhedron.empty_polyhedron(1)
    m1 = PolyhedralDivisor(P1, 1, plus, {point_label(0): halfline(F(1, 2), 1), point_label(INF): e})
    m2 = PolyhedralDivisor(P1, 1, minus, {point_label(0): halfline(F(1, 2), -1), point_label(INF): e})
    m3 = PolyhedralDivisor(P1, 1, plus, {point_label(0): e})
    m4 = PolyhedralDivisor(P1, 1, minus, {point_label(0): e})
    fan = DivisorialFan(P1, [m1, m2, m3, m4])
    cd = cox_sequence(fan)
    assert len(cd.primes) >= 2
    assert cd.cl_rank == len(cd.pairs) + len(cd.rays) - (len(cd.primes) - 1) - 1


def test_cox_raw_singletons_and_section_identity():
    fan = complete_cstar_fan()
    cd = cox_sequence(fan)
    raw = cox_raw(cd)
    for r in raw.rays:
        p = raw.ray_coefficient(r)
        assert p.is_bounded() and len(p.vertices) == 1
    for (label, v), p in raw.vertex_coeffs.items():
        assert p.is_bounded() and len(p.vertices) == 1
        # mu * coefficient is integral
        mu = multiplicity(v)
        for x in p.vertices[0]:
            assert (mu * x).denominator == 1


def test_cox_upgrade_forms_agree():
    fan = complete_cstar_fan()
    cd = cox_sequence(fan)
    up = cox_upgrade(fan and cd)
    assert up.n == cd.cl_rank + 1
    # the tailcone is spanned by the pushed ray units
    assert up.tail.dim() >= 1


def test_cox_correct_proper_and_degree_routes():
    fan = complete_cstar_fan()
    cd = cox_sequence(fan)
    up = cox_upgrade(cd)
    # degree polyhedron two ways
    deg1 = up.degree_polyhedron()
    deg2 = None
    for label, p in up.coeffs.items():
        deg2 = p if deg2 is None else deg2.minkowski(p)
    assert deg1 == deg2
    out, rep = cox_correct(cd)
    assert rep.proper
    # corrected coefficients are the upgraded ones fattened by the new tail
    hat = out.tail.as_polyhedron()
    for label, p in up.coeffs.items():
        assert out.coefficient(label) == p.minkowski(hat)


def test_cox_dimension_invariance_under_pivots():
    # the corrected Cox divisors of other splittings have the graded
    # dimensions of the canonical one
    fan = complete_cstar_fan()
    rng = random.Random(7)
    base_cd = cox_sequence(fan)
    out0, rep0 = cox_correct(base_cd)
    for _ in range(3):
        cd = random_resplit(rng, base_cd)
        out1, rep1 = cox_correct(cd)
        assert rep1.proper == rep0.proper
        assert_cox_dims_equivalent(base_cd, out0, cd, out1)


def test_cox_raw_on_a_slice_without_cells():
    # every member is empty over the one marked prime: its slice has no
    # vertex, and the padded prime carries only the trivial vertex 0
    plus = Cone.from_rays([(1,)])
    minus = Cone.from_rays([(-1,)])
    e = Polyhedron.empty_polyhedron(1)
    fan = DivisorialFan(
        P1,
        [PolyhedralDivisor(P1, 1, plus, {point_label(0): e}),
         PolyhedralDivisor(P1, 1, minus, {point_label(0): e})],
    )
    assert fan.is_contraction_free()
    cd = cox_sequence(fan)
    raw = cox_raw(cd)
    assert raw.verts == {point_label(0): (), point_label(1): ((F(0),),)}
    assert set(raw.rays) == {(F(1),), (F(-1),)}
    # the marked prime without vertices gets the empty coefficient on both
    # routes of the upgrade, so the degree of the correction is undefined
    up = cox_upgrade(cd)
    assert up.coefficient(point_label(0)).empty
    with pytest.raises(EmptyCoefficient):
        cox_correct(cd)


def test_a_fan_without_marked_primes_raises():
    # the primes are the marked ones, and there must be one
    bare = DivisorialFan(P1, [PolyhedralDivisor(P1, 1, Cone.from_rays([(1,)]), {})])
    with pytest.raises(MarksMissingSupport, match="nonempty"):
        cox_sequence(bare)
