from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from helpers import brute_force_graded_dimension, complete_cstar_fan, halfline, interval, point_poly
from pdivisors.base import (
    INF,
    BaseVariety,
    CurveFunction,
    QDivisor,
    is_inf,
    point_label,
    positivity,
    ray_label,
)
from pdivisors.errors import AmbientMismatch, EmptyDomain, NotContractionFree, NotQCartier, WeightOutsideBox
from pdivisors.pdivisor import PolyhedralDivisor
from pdivisors.polyhedra import Cone, Polyhedron, hull
from pdivisors.tvariety import (
    ConcavePL,
    DivisorialFan,
    PLDivisorMap,
    TInvariantDivisor,
    box_and_psi,
    graded_sections,
    invariant_prime_divisors,
    is_basepoint_free,
    principal_invariant_divisor,
    psi0_pdivisor,
    sharpness,
    sum_psi,
    support_functions,
    zero_function_on,
)
from pdivisors.upgrade import InvariantPDivisorOnFan

F = Fraction
P1 = BaseVariety.projective_line()


def bl0_a2():
    return BaseVariety.toric(
        [Cone.from_rays([(1, 0), (1, 1)]), Cone.from_rays([(1, 1), (0, 1)])],
        name="Bl0(A2)",
    )


def nsa_fan():
    """The two-member fan on Bl0(A2) whose trivial divisor data is the
    big-but-not-semiample example."""
    y = bl0_a2()
    d1l, el, d2l = y.ray((1, 0)), y.ray((1, 1)), y.ray((0, 1))
    plus = Cone.from_rays([(1,)])
    m1 = PolyhedralDivisor(
        y, 1, plus, {el: halfline(1, 1), d2l: Polyhedron.empty_polyhedron(1)}
    )
    m2 = PolyhedralDivisor(
        y, 1, plus, {el: halfline(1, 1), d1l: Polyhedron.empty_polyhedron(1)}
    )
    return y, DivisorialFan(y, [m1, m2])


def test_invariant_primes_of_complete_fan():
    fan = complete_cstar_fan()
    rays, verts = invariant_prime_divisors(fan)
    assert rays == [(-1,), (1,)]
    assert verts[point_label(0)] == [(F(1, 2),)]
    assert verts[point_label(INF)] == [(0,)]


def test_invariant_primes_require_contraction_free():
    m = PolyhedralDivisor(P1, 1, Cone.from_rays([(1,)]), {point_label(0): halfline(0, 1)})
    fan = DivisorialFan(P1, [m])
    with pytest.raises(NotContractionFree):
        invariant_prime_divisors(fan)


def _on_fan(cls, fan, keys=(), **index):
    """A divisor of `cls` on `fan` with coefficient 1 at each vertex key."""
    if cls is TInvariantDivisor:
        return cls(fan, {}, {k: 1 for k in keys}, **index)
    return cls(fan, 1, Cone.zero(1), vertex_coeffs={k: point_poly(1) for k in keys}, **index)


@pytest.mark.parametrize("cls", [TInvariantDivisor, InvariantPDivisorOnFan])
def test_explicit_index_checked_against_fan(cls):
    fan = complete_cstar_fan()
    p0, pinf, p5 = point_label(0), point_label(INF), point_label(5)
    own = {p0: [(F(1, 2),)], pinf: [(0,)]}
    bad = [
        ({"verts": {pinf: [(0,)]}}, "slice vertices of the marked prime 0"),
        # a vertex the slice does not have would add a piece to Psi_0
        ({"verts": {**own, p0: [(F(1, 2),), (3,)]}}, "slice vertices of the marked prime 0"),
        ({"rays": [(1,)]}, "rays differ"),
        ({"verts": {**own, p5: [(1,)]}}, "unmarked prime 5 has only the vertex 0"),
    ]
    for index, message in bad:
        with pytest.raises(ValueError, match=message):
            _on_fan(cls, fan, **index)
    d = _on_fan(cls, fan, [(p5, (0,))], verts={**own, p5: [(0,)]})
    assert d.rays == ((-1,), (1,))
    assert d.verts == {p0: ((F(1, 2),),), pinf: ((0,),), p5: ((0,),)}
    # without the prime in `verts`, its vertex 0 indexes nothing
    with pytest.raises(ValueError, match="not an invariant vertex"):
        _on_fan(cls, fan, [(p5, (0,))])


def test_psi0_golden_nsa():
    y, fan = nsa_fan()
    psi0 = psi0_pdivisor(fan)
    expected = PolyhedralDivisor(
        y,
        1,
        Cone.from_rays([(1,)]),
        {
            y.ray((1, 0)): halfline(0, 1),
            y.ray((1, 1)): halfline(1, 1),
            y.ray((0, 1)): halfline(0, 1),
        },
    )
    assert psi0 == expected
    ev = psi0.evaluate((1,))
    assert ev.coefficient(y.ray((1, 1))) == 1
    assert len(ev.coeffs) == 1
    flags = positivity(ev)
    assert flags.big and not flags.semiample


def test_box_and_psi_zero_divisor_matches_psi0():
    fan = complete_cstar_fan()
    d = TInvariantDivisor(fan)
    pl = box_and_psi(d)
    psi0 = psi0_pdivisor(fan)
    assert pl.box == Polyhedron.from_generators([(0,)], n=1)  # dual of full tailfan
    # complete tailfan: Box^0 = {0}; evaluation agrees with the divisor form
    assert pl.evaluate((0,)).coeffs == psi0.evaluate((0,)).coeffs


def test_box_single_ray():
    y, fan = nsa_fan()
    d = TInvariantDivisor(fan, ray_coeffs={(1,): 1})
    pl = box_and_psi(d)
    assert pl.box == Polyhedron.from_H([((1,), -1)], (), 1)


def test_principal_invariant_divisor_cancellation():
    fan = complete_cstar_fan()
    f = CurveFunction({2: 1})
    d = principal_invariant_divisor(fan, f, (3,))
    dinv = principal_invariant_divisor(fan, CurveFunction({2: -1}), (-3,))
    total = d.add(dinv)
    assert not any((*total.ray_coeffs.values(), *total.vertex_coeffs.values()))
    # formula spot checks: a_rho = <v_rho, u>
    assert d.ray_coeffs[(1,)] == 3
    assert d.ray_coeffs[(-1,)] == -3
    # vertex 1/2 over the marked point 0: b = <1/2,3> + ord_0(f) = 3/2
    assert d.vertex_coeffs[(point_label(0), (F(1, 2),))] == F(3, 2)
    # the zero of f sits at the unmarked point 2, over the trivial slice
    assert d.vertex_coeffs[(point_label(2), (F(0),))] == 1
    assert d.vertex_coeffs[(point_label(INF), (F(0),))] == -1


def test_graded_sections_effective_divisor():
    fan = complete_cstar_fan()
    d = TInvariantDivisor(
        fan,
        ray_coeffs={(1,): 2, (-1,): 1},
        vertex_coeffs={(point_label(0), (F(1, 2),)): 1, (point_label(INF), (F(0),)): 2},
    )
    pl = box_and_psi(d)
    assert pl.box == interval(-2, 1)
    for u in [-2, -1, 0, 1]:
        s = graded_sections(d, (u,))
        psi_u = pl.evaluate((u,))
        from pdivisors.base import degree

        want = max(0, int(degree(QDivisor(P1, {l: F(math.floor(c)) for l, c in psi_u.coeffs.items()}))) + 1)
        assert s.dimension == want


def test_graded_sections_outside_box():
    fan = complete_cstar_fan()
    d = TInvariantDivisor(fan)
    with pytest.raises(WeightOutsideBox):
        graded_sections(d, (1,))


def test_graded_sections_match_brute_force():
    rng = random.Random(97)
    fan = complete_cstar_fan()
    for _ in range(6):
        d = TInvariantDivisor(
            fan,
            ray_coeffs={(1,): rng.randint(0, 2), (-1,): rng.randint(0, 2)},
            vertex_coeffs={
                (point_label(0), (F(1, 2),)): F(rng.randint(-2, 2)),
                (point_label(INF), (F(0),)): F(rng.randint(-2, 2)),
            },
        )
        pl = box_and_psi(d)
        for u in pl.box.lattice_points():
            dim = graded_sections(d, u).dimension
            brute = brute_force_graded_dimension(d, u)
            assert dim == brute, (d.ray_coeffs, d.vertex_coeffs, u)


def test_support_functions_zero_divisor():
    fan = complete_cstar_fan()
    sf = support_functions(TInvariantDivisor(fan))
    for label, cells in sf.pieces.items():
        for cell, a, c in cells:
            assert all(x == 0 for x in a) and c == 0


def test_support_functions_recover_principal_data():
    fan = complete_cstar_fan()
    f = CurveFunction({1: 2})
    u = (2,)
    d = principal_invariant_divisor(fan, f, u)
    sf = support_functions(d)
    from pdivisors.base import order_along

    for label, cells in sf.pieces.items():
        o = order_along(f, label)
        for cell, a, c in cells:
            for v in cell.vertices:
                want = -(v[0] * u[0]) - o
                assert sf.value(label, v) == want


def test_bpf_zero_divisor():
    fan = complete_cstar_fan()
    rep = is_basepoint_free(TInvariantDivisor(fan))
    assert rep.free


def test_bpf_principal_divisor():
    fan = complete_cstar_fan()
    d = principal_invariant_divisor(fan, CurveFunction({1: 1}), (2,))
    rep = is_basepoint_free(d)
    assert rep.free


def test_bpf_non_concave_fails():
    fan = complete_cstar_fan()
    dbad = TInvariantDivisor(fan, vertex_coeffs={(point_label(0), (F(1, 2),)): -1})
    rep = is_basepoint_free(dbad)
    assert rep.status == "not_free"


def test_sum_psi_affine():
    dom1 = interval(0, 1)
    dom2 = interval(0, 2)
    a = PLDivisorMap(P1, dom1, {point_label(0): ConcavePL(dom1, [((1,), F(2))])})
    b = PLDivisorMap(P1, dom2, {point_label(0): ConcavePL(dom2, [((3,), F(-1))])})
    s = sum_psi(a, b)
    assert s.box == interval(0, 3)
    f = s.per_prime[point_label(0)]
    # sup-convolution of affine pieces <1,.>+2 and <3,.>+(-1)
    assert f.value((0,)) == 1
    # maximize (u1+2) + (3 u2 - 1) over u1+u2=3, u1 in [0,1], u2 in [0,2]
    assert f.value((3,)) == 8


def test_sum_psi_matches_direct_maximization():
    rng = random.Random(101)
    for _ in range(10):
        dom1 = interval(0, 2)
        dom2 = interval(-1, 1)
        p1s = [((rng.randint(-2, 2),), F(rng.randint(-2, 2))) for _ in range(2)]
        p2s = [((rng.randint(-2, 2),), F(rng.randint(-2, 2))) for _ in range(2)]
        f1 = ConcavePL(dom1, p1s)
        f2 = ConcavePL(dom2, p2s)
        s = f1.sup_convolve(f2)
        # oracle: max over a rational grid decomposition u = u1 + u2
        for u in [F(-1), F(0), F(1, 2), F(3)]:
            if not s.domain.contains_point((u,)):
                continue
            best = None
            t = F(-1)
            while t <= 2:
                u1, u2 = t, u - t
                if dom1.contains_point((u1,)) and dom2.contains_point((u2,)):
                    val = f1.value((u1,)) + f2.value((u2,))
                    best = val if best is None else max(best, val)
                t += F(1, 4)
            if best is not None:
                assert s.value((u,)) >= best
                # the optimum is attained at a breakpoint of the grid when
                # the grid contains the vertices; errs on the safe side
                assert s.value((u,)) - best <= F(1, 1)


def test_lineality_takes_slanted_lines():
    # the hypograph of u1 + u2 on Q^2 has no line with t-entry 0, yet the
    # function is constant along (1, -1)
    plane = Polyhedron.from_generators([(0, 0)], lines=[(1, 0), (0, 1)])
    f = ConcavePL(plane, [((1, 1), 0)])
    assert f.lineality() == [(1, -1)]
    assert f.value((1, -1)) == f.value((0, 0))
    assert ConcavePL(plane, [((2, 3), 1)]).lineality() == [(3, -2)]
    # a flat line counts as before; two pieces of independent slopes leave none
    assert ConcavePL(plane, [((1, 0), 0)]).lineality() == [(0, 1)]
    assert ConcavePL(plane, [((1, 1), 0), ((1, -1), 0)]).lineality() == []
    # one piece on Q^3 is constant along a plane of directions
    rng = random.Random(23)
    space = Polyhedron.from_generators([(0, 0, 0)], lines=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for _ in range(10):
        a = tuple(rng.randint(-4, 4) for _ in range(3))
        g = ConcavePL(space, [(a, F(rng.randint(-3, 3), rng.randint(1, 3)))])
        lin = g.lineality()
        assert len(lin) == (2 if any(a) else 3)
        u = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
        for w in lin:
            assert g.value(tuple(x + y for x, y in zip(u, w))) == g.value(u)


def test_sharpness_zero_on_cone():
    box = Polyhedron.from_generators([(0,)], [(1,)], n=1)
    psi = PLDivisorMap(P1, box, {point_label(0): zero_function_on(box)})
    assert sharpness(psi) == "sharp"


def test_sharpness_from_bpf_divisor():
    fan = complete_cstar_fan()
    d = principal_invariant_divisor(fan, CurveFunction({1: 1}), (2,))
    pl = box_and_psi(d)
    zero = zero_function_on(pl.box)
    psi = PLDivisorMap(pl.base, pl.box, {l: f for l, f in pl.per_prime.items() if is_inf(f) or f != zero})
    assert sharpness(psi) == "sharp"


def test_sharpness_failure():
    # vertex value forcing negative degree at the only admissible weight
    box = hull([(0,)])
    psi = PLDivisorMap(
        P1,
        box,
        {point_label(0): ConcavePL(box, [((0,), F(-1))])},
    )
    assert sharpness(psi) == "fails"


def test_sharpness_at_a_multiple():
    # Psi = 1/2 at 0 needs k = 2 for an integral order
    box = hull([(0,)])
    psi = PLDivisorMap(P1, box, {point_label(0): ConcavePL(box, [((0,), F(1, 2))])})
    assert sharpness(psi) == "asymptotically_sharp"


def test_sharpness_inconclusive_on_an_unbounded_region():
    # the failing value of `test_sharpness_failure` on the whole line: the
    # window finds no witness, and the region goes on past it
    line = Polyhedron.from_generators([(0,)], lines=[(1,)])
    psi = PLDivisorMap(P1, line, {point_label(0): ConcavePL(line, [((0,), F(-1))])})
    assert sharpness(psi) == "inconclusive"


def test_sharpness_verdict_does_not_depend_on_the_order_of_the_primes():
    # A misses on the whole line, which the window does not cover; B misses
    # on the single point 0, so the search fails whichever prime comes first
    line = Polyhedron.from_generators([(0,)], lines=[(1,)])
    a = ConcavePL(line, [((0,), F(-1))])
    b = ConcavePL(line, [((1,), F(-1)), ((-1,), F(-1))])
    p0, p1 = point_label(0), point_label(1)
    for per in ({p0: a, p1: b}, {p1: b}, {p0: b, p1: a}):
        assert sharpness(PLDivisorMap(P1, line, per)) == "fails"
    assert sharpness(PLDivisorMap(P1, line, {p0: a})) == "inconclusive"


def test_bpf_inconclusive_on_an_unbounded_region():
    # one member over Q^1 with the point coefficient {1/2} at 0: its class
    # there is unbounded, and Psi_0(u) = u/2 + 1/3 is never integral
    p0, pinf = point_label(0), point_label(INF)
    m = PolyhedralDivisor(P1, 1, Cone.zero(1), {p0: point_poly(F(1, 2)), pinf: Polyhedron.empty_polyhedron(1)})
    d = TInvariantDivisor(DivisorialFan(P1, [m]), vertex_coeffs={(p0, (F(1, 2),)): F(1, 3)})
    rep = is_basepoint_free(d)
    assert rep.status == "inconclusive"
    assert list(rep.witnesses) == [(0, "generic")]


def test_bpf_not_free_on_an_empty_region():
    # the slice at 0 has the vertices 0 and 1; the first member's class there
    # needs u = 0 on its tail ray and u >= 1 to attain the minimum at 0
    p0, pinf = point_label(0), point_label(INF)
    empty = Polyhedron.empty_polyhedron(1)
    members = [
        PolyhedralDivisor(P1, 1, Cone.from_rays([(-1,)]), {p0: halfline(0, -1), pinf: empty}),
        PolyhedralDivisor(P1, 1, Cone.from_rays([(1,)]), {p0: halfline(1, 1), pinf: empty}),
    ]
    d = TInvariantDivisor(DivisorialFan(P1, members), vertex_coeffs={(p0, (F(0),)): 1})
    rep = is_basepoint_free(d)
    assert rep.status == "not_free" and rep.witnesses == {}
    assert rep.failing == ((0, "0"),)


def test_witnesses_on_an_open_curve():
    # the slack of a section goes to the removed point 5
    base = BaseVariety.open_projective_line([5])
    p0, p1 = point_label(0), point_label(1)
    plus, minus = Cone.from_rays([(1,)]), Cone.from_rays([(-1,)])
    fan = DivisorialFan(base, [
        PolyhedralDivisor(base, 1, plus, {p0: halfline(F(1, 2), 1), p1: halfline(1, 1)}),
        PolyhedralDivisor(base, 1, minus, {p0: halfline(F(1, 2), -1), p1: halfline(1, -1)}),
    ])
    d = TInvariantDivisor(fan, {(1,): 2}, {(p0, (F(1, 2),)): 1, (p1, (1,)): -1})
    rep = is_basepoint_free(d)
    assert rep.status == "free"
    assert {k: (u, repr(s)) for k, (u, s) in rep.witnesses.items()} == {
        (0, "0"): ((-2,), "(x-1)^3*(x-5)^-3"),
        (0, "1"): ((-2,), "(x-1)^3*(x-5)^-3"),
        (0, "generic"): ((-2,), "(x-1)^3*(x-5)^-3"),
        (1, "0"): ((0,), "x^-1*(x-1)"),
        (1, "1"): ((0,), "(x-1)*x^-1"),
        (1, "generic"): ((0,), "x^-1*(x-1)"),
    }


@pytest.mark.parametrize("value, verdict, found", [
    (F(-1), "sharp", ["x*(x-5)^-1", "x*(x-5)^-1"]),
    (F(1, 2), "asymptotically_sharp", ["x^-1*(x-5)", "x^-1*(x-5)"]),
])
def test_sharpness_witnesses_on_an_open_curve(monkeypatch, value, verdict, found):
    # the prime at infinity carries no function and is skipped; the search
    # at each of the two vertices of the box finds one section
    from pdivisors import tvariety

    sections = []

    def recorded(*args):
        s = section_with_orders(*args)
        if s is not None:
            sections.append(repr(s))
        return s

    section_with_orders = tvariety._section_with_orders
    monkeypatch.setattr(tvariety, "_section_with_orders", recorded)
    base = BaseVariety.open_projective_line([5])
    box = interval(-1, 2)
    psi = PLDivisorMap(base, box, {point_label(0): ConcavePL(box, [((0,), value)]), point_label(INF): INF})
    assert sharpness(psi) == verdict
    assert sections == found


def test_concavity_of_psi_exact():
    fan = complete_cstar_fan()
    rng = random.Random(103)
    for _ in range(10):
        d = TInvariantDivisor(
            fan,
            ray_coeffs={(1,): rng.randint(0, 3), (-1,): rng.randint(0, 3)},
            vertex_coeffs={
                (point_label(0), (F(1, 2),)): F(rng.randint(-3, 3), 2),
                (point_label(INF), (F(0),)): F(rng.randint(-3, 3)),
            },
        )
        pl = box_and_psi(d)
        pts = pl.box.lattice_points()
        for u in pts:
            for v in pts:
                mid = tuple((a + b) / 2 for a, b in zip(u, v))
                for label in pl.marked():
                    fa = pl.psi(label)
                    assert fa.value(u) + fa.value(v) <= 2 * fa.value(mid)


def _from_h_hypograph(domain, pieces):
    """The hypograph of min(<a, u> + c) over the domain, by `from_H` on the
    `Fraction` pairs."""
    ineqs = [(tuple(a) + (-1,), -F(c)) for a, c in pieces]
    ineqs += [(a + (0,), b) for a, b in domain.ineqs]
    return Polyhedron.from_H(ineqs, [(a + (0,), b) for a, b in domain.eqs], domain.n + 1)


def test_concave_pl_hypograph_matches_from_h_route():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        rays = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        domain = Polyhedron.from_generators(gens, rays, n=n)
        if rng.random() < 0.3:
            domain = domain.slice_at(tuple(rng.randint(-1, 1) for _ in range(n)), 0)
        pieces = [(tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)), F(rng.randint(-4, 4), 3)) for _ in range(rng.randint(1, 4))]
        if domain.empty:
            continue
        f = ConcavePL(domain, pieces)
        want = _from_h_hypograph(domain, pieces)
        assert (f.hypo.n, f.hypo.hom.rays, f.hypo.hom.lines, f.hypo.hom.ineqs, f.hypo.hom.eqs) == (
            want.n, want.hom.rays, want.hom.lines, want.hom.ineqs, want.hom.eqs
        )
        checked += 1
    assert checked > 40


def test_concave_pl_rejects_an_empty_domain_and_short_slopes():
    # an empty domain used to give the hypograph over all of Q^n
    with pytest.raises(EmptyDomain):
        ConcavePL(Polyhedron.empty_polyhedron(2), [((1, 2), 0)])
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    for slope in ((1,), (1, 2, 3)):
        with pytest.raises(AmbientMismatch):
            ConcavePL(square, [((1, 1), 0), (slope, 0)])
    assert ConcavePL(square, [((1, 1), 0)]).value((1, 1)) == 2
