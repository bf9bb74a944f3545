"""Rational points travel as cleared integers; a Fraction is built only for
a value handed out.

Each integer route is checked against the Fraction route it replaced, on
seeded divisors: calling a `LatticeMap`, `PolyhedralDivisor.evaluate` and
the properness probes with `relint_point`, `InvariantPDivisorOnFan.weights_at`,
the pieces of `downgrade_box_psi`, the support divisor of `fan_from`,
`PLDivisorMap.evaluate` and `ConcavePL.value`, and the generators of the
upgrade, read off each coefficient's `hom`; every value handed out is a
`Fraction`.  A `ConcavePL` keeps its cleared piece
rows and builds its hypograph and canonical pieces on first use: it equals
one built eagerly from the hypograph of its pieces, and graded sections
build none.  Entry points that take a vector reject one of another length.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from helpers import P1, complete_cstar_fan, random_proper_rank2
from test_downgrade_higher_rank import PROJECTIONS, random_proper
from test_upgrade import noncf_p2_fan

from pdivisors import polyhedra, tvariety
from pdivisors.base import INF, CurveFunction, QDivisor, is_inf, point_label, positivity
from pdivisors.downgrade import DowngradeContext, _evaluation_graph, downgrade, downgrade_box_psi, dualize, fan_from
from pdivisors.errors import AmbientMismatch, WeightOutsideBox, WeightOutsideCone
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.linalg import _cleared, vdot, vec
from pdivisors.pdivisor import PolyhedralDivisor, PropernessReport
from pdivisors.polyhedra import Cone, Polyhedron, chamber_complex, hull, linearity_regions
from pdivisors.tvariety import (
    ConcavePL,
    TInvariantDivisor,
    box_and_psi,
    graded_sections,
    principal_invariant_divisor,
)
from pdivisors.upgrade import InvariantPDivisorOnFan, upgrade_coefficients, upgrade_tailcone

F = Fraction

# -- the Fraction routes ---------------------------------------------------


def fraction_map(lm: LatticeMap, v):
    return tuple(sum((F(a) * F(x) for a, x in zip(row, v)), F(0)) for row in lm.matrix)


def fraction_vertex_min(p: Polyhedron, u):
    return min(vdot(v, u) for v in p.vertices)


def fraction_evaluate(d: PolyhedralDivisor, u):
    u = vec(u)
    return {label: INF if p.empty else fraction_vertex_min(p, u) for label, p in d.coeffs.items()}


def fraction_relint(p: Polyhedron):
    acc = (F(0),) * p.n
    for v in p.vertices:
        acc = tuple(x + y for x, y in zip(acc, v))
    acc = tuple(x / len(p.vertices) for x in acc)
    for r in p.rays:
        acc = tuple(x + y for x, y in zip(acc, r))
    return acc


def fraction_properness(d: PolyhedralDivisor) -> PropernessReport:
    """The report with every probe evaluated on Fractions."""
    omega = d.weight_cone()
    chambers = d.evaluation_chambers()
    flags = {"qcartier": True, "semiample": True, "big": True}
    failures = []
    probes = sorted({r for c in chambers for r in c.tail().rays} | set(omega.rays))
    for u in probes:
        fl = positivity(QDivisor(d.base, fraction_evaluate(d, u)))
        for name in ("qcartier", "semiample"):
            if not getattr(fl, name):
                flags[name] = False
                failures.append((name, u))
    for c in chambers:
        if c.dim() < omega.dim():
            continue
        u = fraction_relint(c)
        if not positivity(QDivisor(d.base, fraction_evaluate(d, u))).big:
            flags["big"] = False
            failures.append(("big", u))
    return PropernessReport(
        loc_semiprojective=d._locus_semiprojective(),
        fulldim_weightcone=omega.dim() == d.n,
        failures=tuple(failures),
        **flags,
    )


def fraction_pieces(d, ctx, ubar):
    """The pieces of `downgrade_box_psi` per label, from the Fraction vertices."""
    lift = fraction_map(ctx.s_star, ubar)
    return {
        label: [(tuple(vdot(row, v) for row in ctx.pi_rows), vdot(v, lift)) for v in p.vertices]
        for label, p in d.coeffs.items()
    }


def eager(domain: Polyhedron, pieces) -> ConcavePL:
    """The function built the way `ConcavePL` once built every function:
    its hypograph from the pairs of its domain and pieces right away."""
    n = domain.n
    ineqs = [((*a, 0), b) for a, b in domain.ineqs]
    ineqs += [((*vec(a), F(-1)), -F(c)) for a, c in pieces]
    eqs = [((*a, 0), b) for a, b in domain.eqs]
    return ConcavePL.from_hypograph(Polyhedron.from_H(ineqs, eqs, n + 1))


def dual_pieces(f: ConcavePL):
    """The pieces of `dualize(f)[1]`: the vertices of the epigraph of -f."""
    n = f.domain.n
    flip = [[int(i == j) * (-1 if i == n else 1) for j in range(n + 1)] for i in range(n + 1)]
    return [(v[:n], v[n]) for v in f.hypo.map_image(flip).vertices]


def fraction_value(f: ConcavePL, u):
    return min(vdot(a, u) + c for a, c in f.pieces)


def view_upgrade_tailcone(d: InvariantPDivisorOnFan) -> Cone:
    """`upgrade_tailcone` from the Fraction views of each coefficient."""
    zero = (0,) * d.fan.n
    gens = [g + zero for g in d.tail.rays]
    lines = [l + zero for l in d.tail.lines]
    for r in d.rays:
        p = d.ray_coefficient(r)
        gens += [w + r for w in p.vertices] + [ry + zero for ry in p.rays]
        lines += [l + zero for l in p.lines]
    return Cone.from_rays(gens, lines, d.n + d.fan.n)


def view_upgrade_coefficients(d: InvariantPDivisorOnFan, minkowski: bool = False) -> PolyhedralDivisor:
    """`upgrade_coefficients` from the Fraction views of each coefficient:
    the hull of the vertex coefficients at their heights and the tailcone's
    rays and lines in one `from_generators`, or, with `minkowski`, the hull
    alone plus the tailcone by `Polyhedron.minkowski`."""
    sigma_t = view_upgrade_tailcone(d)
    zero, ntot = (0,) * d.fan.n, d.n + d.fan.n
    coeffs = {}
    for label in dict.fromkeys([*d.verts, *d.fan.marked_primes()]):
        verts, rays, lines = [], [], []
        for v in d.verts.get(label, ()):
            p = d.vertex_coefficient(label, v)
            verts += [w + v for w in p.vertices]
            rays += [ry + zero for ry in p.rays]
            lines += [l + zero for l in p.lines]
        if not verts:
            coeffs[label] = Polyhedron.empty_polyhedron(ntot)
        elif minkowski:
            coeffs[label] = Polyhedron.from_generators(verts, rays, lines, ntot).minkowski(sigma_t.as_polyhedron())
        else:
            rays += sigma_t.rays
            lines += sigma_t.lines
            coeffs[label] = Polyhedron.from_generators(verts, rays, lines, ntot)
    return PolyhedralDivisor(d.fan.base, ntot, sigma_t, coeffs)


def assert_fractions(values) -> int:
    """Assert every value is a Fraction; return how many there are."""
    values = list(values)
    assert all(type(x) is F for x in values), values
    return len(values)


# -- seeded divisors -------------------------------------------------------


def _divisors(seed):
    """Proper rank-2 divisors with their three projections, and proper
    rank-3 divisors with the four of `test_downgrade_higher_rank`."""
    rng = random.Random(seed)
    out = []
    rank2 = [[[0, 1]], [[1, 0]], [[1, 1]]]
    while len(out) < 9:
        d = random_proper_rank2(rng)
        if d is not None:
            out.append((d, rank2[len(out) % 3]))
    while len(out) < 13:
        d = random_proper(rng, 3)
        if d is not None:
            out.append((d, PROJECTIONS[3][len(out) % 4]))
    return [
        (d, DowngradeContext.from_projection(LatticeMap(Lattice(d.n, "M"), Lattice(len(pr), "Mbar"), pr)))
        for d, pr in out
    ]


DIVISORS = _divisors(2201)


def _weights(d, rng, count):
    """Rational weights of the weight cone of d, integer and not."""
    omega = d.weight_cone()
    out = [omega.relint_point()]
    while len(out) < count:
        u = [F(0)] * d.n
        for g in omega.rays:
            c = F(rng.randint(0, 5), rng.choice([1, 2, 3]))
            u = [x + c * y for x, y in zip(u, g)]
        out.append(tuple(u))
    return out


def _fiber_weights(ctx, rng, count):
    """Weights of Mbar, integer and not."""
    k = ctx.pr.target.rank
    return [tuple(F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(k)) for _ in range(count)]


def test_lattice_maps_match_fraction_route():
    rng = random.Random(1)
    checked = 0
    for _d, ctx in DIVISORS:
        for lm in (ctx.pr, ctx.s_star, ctx.t, ctx.kernel):
            for _ in range(6):
                k = lm.source.rank
                v = tuple(rng.choice([rng.randint(-4, 4), F(rng.randint(-9, 9), rng.randint(1, 4))]) for _ in range(k))
                got = lm(v)
                assert got == fraction_map(lm, v)
                assert all(type(x) is F for x in got)
                checked += 1
    assert checked >= 300


def test_evaluate_and_properness_match_fraction_route():
    rng = random.Random(2)
    values = 0
    for d, _ctx in DIVISORS:
        for u in _weights(d, rng, 6):
            got = d.evaluate(u)
            assert got == QDivisor(d.base, fraction_evaluate(d, u))
            values += assert_fractions(c for c in got.coeffs.values() if not is_inf(c))
        assert d.is_proper() == fraction_properness(d)
    assert values >= 100


def test_relint_points_match_fraction_route():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        verts = [tuple(F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        rays = [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        p = Polyhedron.from_generators(verts, rays, n=n)
        got = p.relint_point()
        assert got == fraction_relint(p) and all(type(x) is F for x in got)
        x, d = p._relint()
        assert (x, d) == _cleared(got)


def test_points_outside_raise():
    d, ctx = DIVISORS[0]
    outside = tuple(-x for x in d.weight_cone().relint_point())
    with pytest.raises(WeightOutsideCone):
        d.evaluate(outside)
    fan, dbar = downgrade(d, ctx)
    ra, vb = dbar.weights_at((F(1),))
    dv = TInvariantDivisor(fan, ra, dict(vb))
    pl = box_and_psi(dv)
    f = next(f for f in pl.per_prime.values() if not is_inf(f))
    far = next((u,) for u in range(-50, 51) if not pl.box.contains_point((u,)))
    for call in (pl.evaluate, f.value, lambda u: graded_sections(dv, u)):
        with pytest.raises(WeightOutsideBox):
            call(far)


def test_failing_properness_probes_match_fraction_route():
    # random coefficients over P^1, most of them not proper: the failures,
    # their points and the types of those points are the Fraction route's
    rng = random.Random(3)
    tails = [Cone.from_rays([(1, 0), (0, 1)]), Cone.from_rays([(1, 0), (1, 2)]), Cone.from_rays([(1, 1)], [(1, -1)])]
    kinds = set()
    for k in range(60):
        tail = tails[k % 3]
        coeffs = {}
        for x in (0, 1, F(-1))[: rng.randint(1, 3)]:
            verts = [(F(rng.randint(-4, 4), rng.choice([1, 2])), F(rng.randint(-4, 4), rng.choice([1, 3]))) for _ in range(rng.randint(1, 3))]
            coeffs[point_label(x)] = hull(verts).minkowski(tail.as_polyhedron())
        d = PolyhedralDivisor(P1, 2, tail, coeffs)
        got, want = d.is_proper(), fraction_properness(d)
        assert got == want
        assert [tuple(map(type, u)) for _, u in got.failures] == [tuple(map(type, u)) for _, u in want.failures]
        kinds.update(kind for kind, _ in got.failures)
    assert {"semiample", "big"} <= kinds


def test_weights_and_downgrade_pieces_match_fraction_route():
    rng = random.Random(4)
    checked = values = 0
    for d, ctx in DIVISORS:
        _fan, dbar = downgrade(d, ctx)
        projected = chamber_complex(_evaluation_graph(d), [(*row, 0) for row in ctx.pr.matrix])
        ubars = [cone.tail().relint_point() for cone in projected]
        ubars += [u for u in _fiber_weights(ctx, rng, 8) if d.weight_cone().as_polyhedron().map_image(ctx.pr.matrix).contains_point(u)]
        for ubar in ubars:
            ra, vb = dbar.weights_at(ubar)
            u = vec(ubar)
            assert ra == {r: fraction_vertex_min(dbar.ray_coefficient(r), u) for r in dbar.rays}
            assert vb == {
                (label, v): INF if p.empty else fraction_vertex_min(p, u)
                for label, vs in dbar.verts.items()
                for v in vs
                for p in [dbar.vertex_coefficient(label, v)]
            }
            values += assert_fractions(ra.values())
            values += assert_fractions(b for b in vb.values() if not is_inf(b))
            pl = downgrade_box_psi(d, ctx, ubar)
            for label, pieces in fraction_pieces(d, ctx, ubar).items():
                f = pl.per_prime[label]
                want = ConcavePL(pl.box, pieces)
                assert f == want and f.pieces == want.pieces
                for x in pl.box.vertices:
                    assert f.value(x) == fraction_value(want, x)
            checked += 1
    assert checked >= 40 and values >= 200


def test_support_divisor_matches_fraction_route():
    # `fan_from` reads the support divisor off the dual functions at the
    # integer vertex rays of their cells and the box
    checked = fractional = 0
    for d, ctx in DIVISORS:
        for cone in chamber_complex(_evaluation_graph(d), [(*row, 0) for row in ctx.pr.matrix]):
            psi = downgrade_box_psi(d, ctx, cone.tail().relint_point())
            fan, duals, dstar = fan_from(psi, [label for label in d.marked() if label.kind == "point"])
            want_rays = {r: -min(vdot(r, u) for u in psi.box.vertices) for r in fan.rays()}
            want_vertices = {
                (label, v): -fraction_value(psi_star, v)
                for label, (_, psi_star, cells) in duals.items()
                for c in cells
                for v in c.vertices
            }
            assert dict(dstar.ray_coeffs) == want_rays
            assert dict(dstar.vertex_coeffs) == want_vertices
            checked += len(want_vertices)
            fractional += sum(any(x.denominator > 1 for x in v) for _, v in want_vertices)
    assert checked >= 40 and fractional >= 5


def test_divisor_maps_and_values_match_fraction_route():
    rng = random.Random(5)
    checked = values = 0
    for d, ctx in DIVISORS:
        fan, dbar = downgrade(d, ctx)
        for ubar in _fiber_weights(ctx, rng, 4):
            ra, vb = dbar.weights_at(ubar)
            pl = box_and_psi(TInvariantDivisor(fan, ra, dict(vb)))
            if pl.box.empty:
                continue
            gens = list(pl.box.vertices) + [tuple(v + r for v, r in zip(pl.box.vertices[0], ray)) for ray in pl.box.rays]
            for _ in range(4):
                weights = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in gens]
                weights[0] += 1
                u = tuple(sum(w * g[i] for w, g in zip(weights, gens)) / sum(weights) for i in range(pl.box.n))
                got = pl.evaluate(u)
                want = {label: INF if is_inf(f) else fraction_value(f, u) for label, f in pl.per_prime.items()}
                assert got == QDivisor(pl.base, want)
                for label, f in pl.per_prime.items():
                    if not is_inf(f):
                        assert f.value(u) == want[label]
                        assert type(f.value(u)) is F
                values += assert_fractions(c for c in got.coeffs.values() if not is_inf(c))
                checked += 1
    assert checked >= 40 and values >= 40


# -- hypographs on first use ---------------------------------------------------


def _functions():
    """(function, domain, pieces of the Fraction route) for functions of
    every lazy construction: the public one, the downgrade's pieces and
    their duals."""
    rng = random.Random(6)
    out = []
    for d, ctx in DIVISORS:
        ubar = tuple(F(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(ctx.pr.target.rank))
        if not d.weight_cone().as_polyhedron().map_image(ctx.pr.matrix).contains_point(ubar):
            continue
        pl = downgrade_box_psi(d, ctx, ubar)
        for label, pieces in fraction_pieces(d, ctx, ubar).items():
            f = pl.per_prime[label]
            out.append((f, pl.box, pieces))
            box_star, dual = dualize(eager(pl.box, pieces))
            out.append((dual, box_star, dual_pieces(eager(pl.box, pieces))))
    dom = hull([(0, 0), (F(5, 2), 0), (0, 3)])
    for _ in range(10):
        pieces = [((F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 3)), F(rng.randint(-4, 4), 5)) for _ in range(3)]
        out.append((ConcavePL(dom, pieces), dom, pieces))
    return out


def test_lazy_function_equals_eager_one():
    functions = _functions()
    assert len(functions) >= 40
    for f, domain, pieces in functions:
        assert f._hypo is None and f._pieces is None
        g = eager(domain, pieces)
        assert f.domain == g.domain
        assert f.pieces == g.pieces
        assert (f.hypo.n, f.hypo.hom.rays, f.hypo.hom.lines, f.hypo.hom.ineqs, f.hypo.hom.eqs) == (
            g.hypo.n, g.hypo.hom.rays, g.hypo.hom.lines, g.hypo.hom.ineqs, g.hypo.hom.eqs
        )
        assert f == g and hash(f) == hash(g)
        # built once and kept
        assert f.hypo is f.hypo and f.pieces is f.pieces
        assert f._regions() == linearity_regions(g.pieces, g.domain)
        h = f.sup_convolve(f)
        assert h == g.sup_convolve(g)
        for x in h.domain.vertices:
            assert h.value(x) == fraction_value(h, x) == 2 * fraction_value(g, tuple(y / 2 for y in x))


def test_values_and_graded_sections_build_no_hypograph(monkeypatch):
    built = []
    cut = tvariety._cut

    def spy(*args):
        built.append(args)
        return cut(*args)

    monkeypatch.setattr(tvariety, "_cut", spy)
    checked = 0
    for d, ctx in DIVISORS[:9]:
        fan, dbar = downgrade(d, ctx)
        built.clear()
        ra, vb = dbar.weights_at((F(1),))
        dv = TInvariantDivisor(fan, ra, dict(vb))
        pl = box_and_psi(dv)
        weights = [u for u in itertools.product(range(-3, 4), repeat=pl.box.n) if pl.box.contains_point(u)]
        for u in weights:
            graded_sections(dv, u)
            for f in pl.per_prime.values():
                if not is_inf(f):
                    f.value(u)
        checked += len(weights)
        assert built == []
        assert all(is_inf(f) or f._hypo is None for f in pl.per_prime.values())
        # the hypograph comes on first use, once
        f = next(f for f in pl.per_prime.values() if not is_inf(f))
        assert f.hypo is f.hypo and len(built) == 1
    assert checked >= 20


# -- the upgrade on hom rays ---------------------------------------------------


def _upgrade_inputs():
    """The downgrades of the seeded divisors, one input whose tail has a
    line and whose heights and vertices are not integral, and one on a fan
    that is not contraction-free, with a given ray that is not primitive."""
    out = [downgrade(d, ctx)[1] for d, ctx in DIVISORS]
    tail = Cone.from_rays([(1, 0)], [(0, 1)])
    tp = tail.as_polyhedron()
    out.append(InvariantPDivisorOnFan(
        complete_cstar_fan(),
        2,
        tail,
        ray_coeffs={(1,): hull([(F(1, 3), 0)]).minkowski(tp)},
        vertex_coeffs={
            (point_label(0), (F(1, 2),)): hull([(F(2, 5), F(1, 7)), (1, 0)]).minkowski(tp),
            (point_label(INF), (F(0),)): Polyhedron.empty_polyhedron(2),
        },
    ))
    out.append(InvariantPDivisorOnFan(
        noncf_p2_fan(),
        1,
        Cone.from_rays([(1,)]),
        ray_coeffs={(2,): Polyhedron.from_generators([(F(1, 3),)], [(1,)])},
        rays=[(2,)],
        verts={point_label(INF): [(-1,)], point_label(0): [(0,)]},
    ))
    return out


def test_upgrade_reads_hom_rays_like_the_views(monkeypatch):
    # the generators come off each coefficient's `hom`, with no Fraction
    # view; the constructions, memo keys included, are those of the views.
    # Each route starts from an empty memo, so that neither finds objects,
    # and the views kept on them, that the other built
    keys = []
    memo = polyhedra._canonical

    def recording(*key):
        keys.append(key)
        return memo(*key)

    monkeypatch.setattr(polyhedra, "_canonical", recording)
    inputs = _upgrade_inputs()
    lines = rational = 0
    for d in inputs:
        memo.cache_clear()
        keys.clear()
        tail, out = upgrade_tailcone(d), upgrade_coefficients(d)
        got = list(keys)
        memo.cache_clear()
        keys.clear()
        want_tail, want = view_upgrade_tailcone(d), view_upgrade_coefficients(d)
        assert got == keys
        assert tail == want_tail and out == want
        assert all(out.coefficient(l) == p for l, p in want.coeffs.items())
        # one construction gives what the hull and then the sum with the
        # tailcone gave
        summed = view_upgrade_coefficients(d, minkowski=True).coeffs
        assert summed.keys() == out.coeffs.keys()
        assert all(out.coeffs[l] == p for l, p in summed.items())
        lines += bool(tail.lines)
        rational += any(x.denominator > 1 for vs in d.verts.values() for v in vs for x in v)
    assert len(inputs) == 15 and lines >= 1 and rational >= 5


# -- the length contract ------------------------------------------------------


def test_vectors_of_another_length_raise():
    d, ctx = DIVISORS[0]
    fan, dbar = downgrade(d, ctx)
    assert dbar.n == 1
    f = ConcavePL(hull([(0, 0), (1, 0), (0, 1)]), [((1, 2), 0), ((0, 1), F(1, 2))])
    calls = {
        "weights_at": dbar.weights_at,
        "principal_invariant_divisor": lambda u: principal_invariant_divisor(fan, CurveFunction({}), u),
        "ConcavePL.linear_part": f.linear_part,
    }
    right = {"weights_at": (F(1),), "principal_invariant_divisor": (F(1),), "ConcavePL.linear_part": (1, 0)}
    for name, call in calls.items():
        n = len(right[name])
        # these once truncated or padded the vector: weights_at((1, 2, 3))
        # answered for (1,), and linear_part((1, 0, 5)) and linear_part((1,))
        # answered on a function in Q^2
        for wrong in ((1,) * (n - 1), (1,) * (n + 1)):
            with pytest.raises(AmbientMismatch):
                call(wrong)
        call(right[name])
    assert f.linear_part((1, 0)) == 0 and f.linear_part((0, 1)) == 1


def test_fan_vectors_of_another_length_raise():
    d, ctx = DIVISORS[0]
    fan, dbar = downgrade(d, ctx)
    assert fan.n == 1 and dbar.rays
    label, vs = next(iter(dbar.verts.items()))
    calls = {
        "ray_coefficient": dbar.ray_coefficient,
        "vertex_coefficient": lambda v: dbar.vertex_coefficient(label, v),
    }
    right = {"ray_coefficient": dbar.rays[0], "vertex_coefficient": vs[0]}
    for name, call in calls.items():
        # these once answered with the tailcone: ray_coefficient((1, 0)) and
        # ray_coefficient(()) gave conv{(0)} + pos{(1)} on this rank-1 fan
        for wrong in ((1,) * (fan.n - 1), (1,) * (fan.n + 1)):
            with pytest.raises(AmbientMismatch):
                call(wrong)
        assert call(right[name]) == call(tuple(map(F, right[name])))
