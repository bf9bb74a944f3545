from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from pdivisors.base import (
    INF,
    BaseVariety,
    CurveFunction,
    QDivisor,
    ToricFunction,
    binomial_label,
    declared_label,
    degree,
    global_sections,
    is_principal,
    order_along,
    point_label,
    positivity,
    ray_label,
)
from pdivisors import base as base_module
from pdivisors.errors import NegativePoleBound, NoDegreeMap, NonIntegral, TooManySections, UnsupportedBase
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.pdivisor import PolyhedralDivisor
from pdivisors.polyhedra import Cone, Polyhedron
from pdivisors.tvariety import DivisorialFan, invariant_index
from test_upgrade import noncf_p2_fan

F = Fraction
P1 = BaseVariety.projective_line()


def bl0_a2() -> BaseVariety:
    return BaseVariety.toric(
        [Cone.from_rays([(1, 0), (1, 1)]), Cone.from_rays([(1, 1), (0, 1)])],
        name="Bl0(A2)",
    )


def qdiv(base, pairs):
    return QDivisor(base, dict(pairs))


# -- degree ------------------------------------------------------------


def test_degree_principal_divisor_is_zero():
    d = qdiv(P1, [(point_label(0), 1), (point_label(INF), -1)])
    assert degree(d) == 0


def test_degree_rational_sum():
    d = qdiv(P1, [(point_label(1), F(1, 2)), (point_label(2), F(1, 3)), (point_label(3), F(1, 6))])
    assert degree(d) == 1


def test_degree_needs_projective_base():
    y = bl0_a2()
    e = qdiv(y, [(ray_label((1, 1)), 1)])
    with pytest.raises(NoDegreeMap):
        degree(e)


# -- sections ----------------------------------------------------------


def test_sections_trivial():
    s = global_sections(QDivisor(P1, {}))
    assert s.dimension == 1
    assert not s.basis[0].factors


def test_sections_two_zero():
    d = qdiv(P1, [(point_label(0), 2)])
    s = global_sections(d)
    assert s.dimension == 3
    # basis {1/x^2, 1/x, 1}
    orders = sorted(f.order_at(0) for f in s.basis)
    assert orders == [-2, -1, 0]
    for f in s.basis:
        dv = f.divisor(P1).add(d)
        assert all(c >= 0 for c in dv.coeffs.values())


def test_sections_round_down():
    d = qdiv(P1, [(point_label(0), F(1, 2))])
    s = global_sections(d)
    assert s.dimension == 1


def test_sections_negative_degree():
    d = qdiv(P1, [(point_label(0), -1)])
    assert global_sections(d).dimension == 0


def test_sections_riemann_roch_random():
    rng = random.Random(17)
    for _ in range(30):
        pts = rng.sample([0, 1, 2, 3, INF], k=rng.randint(1, 4))
        d = qdiv(P1, [(point_label(p), F(rng.randint(-6, 6), rng.randint(1, 3))) for p in pts])
        s = global_sections(d)
        dfl = QDivisor(P1, {l: F(math.floor(c)) for l, c in d.coeffs.items()})
        dd = degree(dfl)
        assert s.dimension == max(0, int(dd) + 1)
        for f in s.basis:
            assert all(c >= 0 for c in f.divisor(P1).add(d).coeffs.values())


def test_sections_above_the_bound_raise_before_the_basis(monkeypatch):
    monkeypatch.setattr(base_module, "MAX_CURVE_SECTIONS", 3)
    assert global_sections(qdiv(P1, [(point_label(0), 2)])).dimension == 3
    with pytest.raises(TooManySections, match="dimension 4"):
        global_sections(qdiv(P1, [(point_label(0), F(7, 2))]))
    monkeypatch.undo()
    # 10^40 + 1 sections: raised at once, no basis function is built
    built = []
    monkeypatch.setattr(base_module, "_times_powers_of_x", lambda *a: built.append(a))
    with pytest.raises(TooManySections):
        global_sections(qdiv(P1, [(point_label(0), 10**40)]))
    assert built == []


def test_sections_open_curve_truncated():
    base = BaseVariety.open_projective_line([INF])
    d = QDivisor(base, {})
    s = global_sections(d, pole_bound=2)
    assert s.truncated and s.dimension == 3


def test_sections_reject_a_negative_pole_bound():
    # a negative bound would force zeros at the removed point: -1 gave
    # dimension 2 here, the space of sections vanishing at 0
    base = BaseVariety.open_projective_line([0])
    d = QDivisor(base, {point_label(1): 2})
    with pytest.raises(NegativePoleBound, match="got -1"):
        global_sections(d, pole_bound=-1)
    with pytest.raises(NegativePoleBound):
        global_sections(qdiv(P1, [(point_label(1), 2)]), pole_bound=-1)
    s = global_sections(d, pole_bound=0)
    assert s.truncated and s.dimension == 3


def test_sections_toric_polytope():
    y = bl0_a2()
    d = qdiv(y, [(ray_label((1, 1)), 1)])
    s = global_sections(d)
    assert s.dimension is None  # unbounded polytope
    assert not s.polytope.empty


def test_sections_toric_bounded_and_empty():
    # on P^2, L(k D_(1,0)) holds the characters of k times a unimodular
    # triangle: (k + 1)(k + 2) / 2 of them; -D_(1,0) has none
    p2 = BaseVariety.toric(
        [Cone.from_rays(c) for c in ([(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)])], name="P2"
    )
    d = p2.ray((1, 0))
    for k, dim in enumerate([1, 3, 6, 10]):
        s = global_sections(qdiv(p2, [(d, k)]))
        assert s.dimension == dim == len(s.basis)
        assert s.polytope.is_bounded()
        assert {m for f in s.basis for m in f.chars} == set(s.polytope.lattice_points())
    s = global_sections(qdiv(p2, [(d, -1)]))
    assert s.dimension == 0 and s.basis == ()
    assert s.polytope.empty


# -- orders ------------------------------------------------------------


def test_order_of_x_squared():
    f = CurveFunction({0: 2})
    assert order_along(f, point_label(0)) == 2
    assert order_along(f, point_label(INF)) == -2


def test_divisor_of_function_degree_zero():
    rng = random.Random(29)
    for _ in range(25):
        factors = {F(rng.randint(-3, 3)): rng.randint(-2, 2) for _ in range(3)}
        if rng.random() < 0.5:
            factors[INF] = rng.randint(-2, 2)
        f = CurveFunction(factors)
        assert degree(f.divisor(P1)) == 0


def test_declared_prime_needs_rays_of_the_fan():
    y = bl0_a2()
    assert y.declare_prime(declared_label("D2", [((1, 1), -1)])).id == "D2"
    for vector in ((1,), (2, 3), (1, 1, 0)):
        with pytest.raises(UnsupportedBase, match="not a ray of the fan"):
            y.declare_prime(declared_label("E", [((1, 0), 1), (vector, 5)]))
    assert "E" not in y._declared


def test_binomial_prime_order_one():
    # D = V(x1^k - y x0^k) on P^1 x A^1, entered via its toric fan
    cones = [
        Cone.from_rays([(1, 0), (0, 1)]),
        Cone.from_rays([(-1, 0), (0, 1)]),
    ]
    y = BaseVariety.toric(cones, name="P1xA1")
    k = 2
    lab = y.declare_prime(binomial_label("D1", (k, 0), (0, 1), y.rays()))
    f = ToricFunction({}, {lab: 1})
    assert order_along(f, lab) == 1
    # div(chi^(k,0) - chi^(0,1)) = D1 - k * D_inf, with D_inf the (-1,0) ray
    dv = f.divisor(y)
    assert dv.coefficient(ray_label((-1, 0))) == -k
    assert dv.coefficient(ray_label((1, 0))) == 0
    assert dv.coefficient(ray_label((0, 1))) == 0


# -- principality ------------------------------------------------------


def test_principal_on_p1():
    d = qdiv(P1, [(point_label(0), 1), (point_label(INF), -1)])
    ok, wit = is_principal(d)
    assert ok and wit == CurveFunction({0: 1})
    d2 = qdiv(P1, [(point_label(0), 1)])
    ok, _ = is_principal(d2)
    assert not ok
    with pytest.raises(NonIntegral):
        is_principal(qdiv(P1, [(point_label(0), F(1, 2))]))


def test_principal_toric():
    y = bl0_a2()
    # div(u) = D_(1,0) + D_(1,1)
    d = qdiv(y, [(ray_label((1, 0)), 1), (ray_label((1, 1)), 1)])
    ok, wit = is_principal(d)
    assert ok
    assert wit.chars == {(1, 0): 1}
    # E alone is not principal
    ok, _ = is_principal(qdiv(y, [(ray_label((1, 1)), 1)]))
    assert not ok


# -- positivity --------------------------------------------------------


def test_positivity_p1():
    d0 = qdiv(P1, [(point_label(0), 1), (point_label(INF), -1)])
    f = positivity(d0)
    assert f.semiample and not f.big and f.qcartier
    dp = qdiv(P1, [(point_label(0), F(1, 3))])
    f = positivity(dp)
    assert f.semiample and f.big


def test_positivity_monotone_effective():
    rng = random.Random(37)
    for _ in range(20):
        d = qdiv(P1, [(point_label(k), F(rng.randint(-4, 4))) for k in range(3)])
        e = qdiv(P1, [(point_label(k), F(rng.randint(0, 3))) for k in range(3)])
        if positivity(d).semiample:
            assert positivity(d.add(e)).semiample


def test_positivity_exceptional_big_not_semiample():
    y = bl0_a2()
    e = qdiv(y, [(ray_label((1, 1)), 1)])
    fl = positivity(e)
    assert fl.big and not fl.semiample and fl.qcartier


def test_positivity_minus_exceptional_semiample():
    y = bl0_a2()
    d = qdiv(y, [(ray_label((1, 0)), 1)])  # strict transform class ~ -E
    fl = positivity(d)
    assert fl.semiample and fl.qcartier and fl.big


def test_positivity_affine_toric():
    a2 = BaseVariety.toric([Cone.from_rays([(1, 0), (0, 1)])], name="A2")
    d = qdiv(a2, [(ray_label((1, 0)), F(-5, 2))])
    fl = positivity(d)
    assert fl.qcartier and fl.semiample and fl.big


def test_positivity_with_infinity_coefficient_restricts_to_locus():
    d = qdiv(P1, [(point_label(0), -7), (point_label(INF), INF)])
    fl = positivity(d)
    assert fl.semiample and fl.big


def test_c3_like_evaluation_at_one_flags():
    # the threefold datum evaluated at u=1: (1/2) D1 + (1/3) D2 + 0*E with
    # D2 a non-invariant curve equivalent to -E
    y = bl0_a2()
    from pdivisors.base import declared_label

    d2 = declared_label("D2", [((1, 1), -1)])
    d = qdiv(y, [(ray_label((1, 0)), F(1, 2)), (d2, F(1, 3))])
    fl = positivity(d)
    assert fl.qcartier and fl.semiample and fl.big


def test_fan_predicates():
    y = bl0_a2()
    assert not y.fan_is_complete()
    assert y.fan_is_smooth()
    p2 = BaseVariety.toric(
        [
            Cone.from_rays([(1, 0), (0, 1)]),
            Cone.from_rays([(0, 1), (-1, -1)]),
            Cone.from_rays([(-1, -1), (1, 0)]),
        ],
        degrees={(1, 0): 1, (0, 1): 1, (-1, -1): 1},
        name="P2",
    )
    assert p2.fan_is_complete()
    assert p2.fan_is_smooth()
    assert degree(qdiv(p2, [(ray_label((1, 0), 1), 2)])) == 2
    wp = BaseVariety.toric(
        [
            Cone.from_rays([(1, 0), (0, 1)]),
            Cone.from_rays([(0, 1), (-1, -2)]),
            Cone.from_rays([(-1, -2), (1, 0)]),
        ],
        name="P(1,1,2)",
    )
    assert wp.fan_is_complete()
    assert not wp.fan_is_smooth()


def test_equal_labels_hash_equally():
    # labels built from different but equal inputs, and labels equal up to
    # one field, which must stay unequal
    pairs = [
        (point_label(3), point_label("6/2")),
        (point_label(INF), point_label(INF)),
        (ray_label((1, 0)), ray_label(("1", Fraction(0)))),
        (ray_label((1, 2), 3), ray_label((1, 2), "3")),
        (declared_label("D", [((1, 0), 1), ((0, 1), -2)]), declared_label("D", [(("0", "1"), "-2"), ((1, 0), 1)])),
        (binomial_label("B", (1, 0), (0, 1), [(1, 0), (0, 1)]), binomial_label("B", (1, 0), (0, 1), [(0, 1), (1, 0)])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
    assert ray_label((1, 2), 3) != ray_label((1, 2), 4)
    assert declared_label("D", [((1, 0), 1)]) != declared_label("D", [((1, 0), 2)])
    assert len({point_label(0), point_label(1), ray_label((0, 1)), ray_label((0, 1), 2)}) == 4


# -- lattice vectors enter as int tuples ------------------------------------


P2_CONES = [Cone.from_rays(c) for c in ([(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)])]
HALF = (F(1, 2), 0)
P2 = BaseVariety.toric(P2_CONES, name="P2")
QUADRANT_FAN = DivisorialFan(
    P1, [PolyhedralDivisor(P1, 2, P2_CONES[0], {point_label(INF): Polyhedron.empty_polyhedron(2)})]
)

# each entry that takes a lattice vector, given (1/2, 0), or an exponent or a
# class-representative coefficient 1/2 or 3/2
NONINTEGRAL_ENTRIES = {
    "ray_label": lambda: ray_label(HALF),
    "declared_label": lambda: declared_label("D", [((0, 1), 1), (HALF, 1)]),
    # the coefficient 1/2 was truncated to an order 0 along (1, 0)
    "declared_label coefficient": lambda: ToricFunction(
        {}, {declared_label("D", [((1, 0), F(1, 2))]): 1}
    ).order_along(ray_label((1, 0))),
    "binomial_label character": lambda: binomial_label("B", HALF, (0, 0), P2.rays()),
    "binomial_label ray": lambda: binomial_label("B", (0, 1), (0, 0), [HALF]),
    "BaseVariety.toric degree key": lambda: BaseVariety.toric(P2_CONES, degrees={(1, 0): 1, HALF: 1}),
    "BaseVariety.ray": lambda: P2.ray(HALF),
    "ToricFunction character": lambda: ToricFunction({HALF: 1}),
    "ToricFunction exponent": lambda: ToricFunction({(1, 0): F(3, 2)}),
    "ToricFunction declared exponent": lambda: ToricFunction({}, {declared_label("D", [((1, 0), 1)]): F(1, 2)}),
    "CurveFunction exponent": lambda: CurveFunction({0: F(1, 2)}),
    "LatticeMap row": lambda: LatticeMap(Lattice(2), Lattice(1), [HALF]),
    "invariant_index rays": lambda: invariant_index(QUADRANT_FAN, rays=[(0, 1), HALF]),
    # on a fan that is not contraction-free too
    "invariant_index rays, fan not contraction-free": lambda: invariant_index(
        noncf_p2_fan(), rays=[(F(1, 2),)], verts={point_label(INF): [(-1,)], point_label(0): [(0,)]}
    ),
}


@pytest.mark.parametrize("entry", list(NONINTEGRAL_ENTRIES))
def test_nonintegral_lattice_vectors_raise(entry):
    # once, (1/2, 0) became a ray nobody asked for, a character of order 0
    # along (1, 0), or a degree key that matched no ray, and x^(1/2) was 1
    with pytest.raises(NonIntegral, match="must have integer entries"):
        NONINTEGRAL_ENTRIES[entry]()


def test_toric_functions_print_and_compare_canonically():
    d = declared_label("D", [((1, 0), 1)])
    f = ToricFunction({(0, 1): 1, (1, 0): -2}, {d: 3})
    g = ToricFunction({("1", "0"): F(-2), (F(0), F(1)): 1}, {d: 3})
    assert repr(f) == repr(g) == "chi^(0,1)*chi^(1,0)^-2*D^3"
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != ToricFunction({(0, 1): 1, (1, 0): -2}) and f != CurveFunction({})
    assert repr(ToricFunction()) == repr(ToricFunction({(1, 1): 0})) == "1"
    # the characters of a section basis print sorted
    basis = global_sections(qdiv(P2, [(P2.ray((1, 0)), 1)])).basis
    assert [repr(f) for f in basis] == ["chi^(-1,0)", "chi^(-1,1)", "chi^(0,0)"]
