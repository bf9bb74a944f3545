"""Shared helpers for the test suite: toy fans, brute-force oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

from pdivisors.base import INF, BaseVariety, CurveFunction, is_inf, point_label
from pdivisors.lattice import LatticeMap, multiplicity
from fraction_route import fraction_rank
from pdivisors.linalg import smith_normal_form, vdot, vec
from pdivisors import polyhedra
from pdivisors.pdivisor import PolyhedralDivisor
from pdivisors.polyhedra import Cone, Polyhedron, hull
from pdivisors.tvariety import DivisorialFan, TInvariantDivisor, box_and_psi

F = Fraction
P1 = BaseVariety.projective_line()


def halfline(a, direction=1):
    return Polyhedron.from_generators([(F(a),)], [(direction,)], n=1)


def interval(a, b):
    return hull([(F(a),), (F(b),)])


def point_poly(a):
    return hull([(F(a),)])


def full_cone(n) -> Cone:
    """All of Q^n: the cone cut out by no inequality."""
    return Cone.from_inequalities([], [], n)


def dd_cone(ineqs, eqs, n: int):
    """Extreme rays and lineality basis of {x : eqs.x = 0, ineqs.x >= 0}:
    the DD core `polyhedra._dd` on the rows scaled to their primitive rows."""
    rays, lines, _ = polyhedra._dd(polyhedra._primitive_rows(ineqs), polyhedra._primitive_rows(eqs), n)
    return rays, lines


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def compose(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    """f after g."""
    assert g.target.rank == f.source.rank
    return LatticeMap(g.source, f.target, mat_mul(f.matrix, g.matrix))


def identity_on(lat) -> LatticeMap:
    return LatticeMap(lat, lat, [[int(i == j) for j in range(lat.rank)] for i in range(lat.rank)])


def is_surjective(f: LatticeMap) -> bool:
    """The invariant factors of f's matrix are target-rank many units."""
    d = smith_normal_form(f.matrix)[1] if f.matrix else []
    diag = [x for x in (d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))) if x]
    return len(diag) == f.target.rank and all(abs(x) == 1 for x in diag)


def curve_mul(f: CurveFunction, g: CurveFunction) -> CurveFunction:
    """f g: the exponents of g's factors added to f's, new ones appended."""
    out = dict(f.factors)
    for a, k in g.factors.items():
        out[a] = out.get(a, 0) + k
    return CurveFunction(out)


def counting(monkeypatch, name):
    """The calls of `polyhedra.<name>` from now on, one argument tuple each.
    On "_dd" they are the DD runs: every construction runs the key-level
    core `polyhedra._dd` on a memo miss."""
    calls = []
    fn = getattr(polyhedra, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(polyhedra, name, counted)
    return calls


def locate(cx, x):
    """The first maximal cell of the complex `cx` that contains x, or None."""
    return next((c for c in cx.cells if c.contains_point(x)), None)


def complete_cstar_fan(split=F(1, 2)) -> DivisorialFan:
    """A complete C*-surface over P^1: slice at 0 subdivided at `split`."""
    plus = Cone.from_rays([(1,)])
    minus = Cone.from_rays([(-1,)])
    p0 = point_label(0)
    pinf = point_label(INF)
    m1 = PolyhedralDivisor(P1, 1, plus, {p0: halfline(split, 1), pinf: Polyhedron.empty_polyhedron(1)})
    m2 = PolyhedralDivisor(P1, 1, minus, {p0: halfline(split, -1), pinf: Polyhedron.empty_polyhedron(1)})
    m3 = PolyhedralDivisor(P1, 1, plus, {p0: Polyhedron.empty_polyhedron(1)})
    m4 = PolyhedralDivisor(P1, 1, minus, {p0: Polyhedron.empty_polyhedron(1)})
    return DivisorialFan(P1, [m1, m2, m3, m4], semicomplete=True)


def random_proper_rank2(rng, max_points=4, max_vertices=3):
    """Rejection-sample a proper rank-2 divisor on the line, or None."""
    from pdivisors.pdivisor import PolyhedralDivisor

    sigma = Cone.from_rays([(1, 0), (0, 1)])
    sp = sigma.as_polyhedron()
    pts = [point_label(0), point_label(1), point_label(2), point_label(F(-1))]
    k = rng.randint(2, max_points)
    coeffs = {}
    for label in pts[:k]:
        nv = rng.randint(1, max_vertices)
        verts = [
            (
                F(rng.randint(0, 4), rng.choice([1, 2])),
                F(rng.randint(0, 4), rng.choice([1, 2])),
            )
            for _ in range(nv)
        ]
        coeffs[label] = hull(verts).minkowski(sp)
    d = PolyhedralDivisor(P1, 2, sigma, coeffs)
    if not d.is_proper().proper:
        return None
    return d


# -- exact polynomial arithmetic for the brute-force section oracle ------


def poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def expand_function(f: CurveFunction, denom_orders: dict) -> list:
    """Coefficients of f * prod (x-a)^{denom_orders[a]} as a polynomial."""
    poly = [F(1)]
    fin = {a: k for a, k in f.factors.items() if not is_inf(a)}
    at_inf = f.factors.get(INF, 0)
    fin[F(0)] = fin.get(F(0), 0) - at_inf
    for a, k in denom_orders.items():
        k = k + fin.get(a, 0)
        if k < 0:
            raise ValueError("denominator does not clear the poles")
        for _ in range(k):
            poly = poly_mul(poly, [-a, F(1)])
    for a, k in fin.items():
        if a not in denom_orders:
            if k < 0:
                raise ValueError("uncleared pole")
            for _ in range(k):
                poly = poly_mul(poly, [-a, F(1)])
    return poly


def span_dimension(functions) -> int:
    """Exact dimension of the span of formal-product rational functions."""
    if not functions:
        return 0
    denom = {}
    for f in functions:
        fin = {a: k for a, k in f.factors.items() if not is_inf(a)}
        at_inf = f.factors.get(INF, 0)
        fin[F(0)] = fin.get(F(0), 0) - at_inf
        for a, k in fin.items():
            if k < 0:
                denom[a] = max(denom.get(a, 0), -k)
    rows = [expand_function(f, denom) for f in functions]
    width = max(len(r) for r in rows)
    rows = [r + [F(0)] * (width - len(r)) for r in rows]
    return fraction_rank(rows)


def mul_chain_basis(f0: CurveFunction, deg: int) -> tuple:
    """f0 * x^k for k = 0..deg by repeated `curve_mul` with the coordinate x, the
    route `global_sections` built its curve bases by before it set the
    exponent at 0 directly; the factor order, and so `repr`, is this chain's."""
    x = CurveFunction({F(0): 1})
    basis = [f0]
    for _ in range(deg):
        basis.append(curve_mul(basis[-1], x))
    return tuple(basis)


def brute_force_graded_dimension(d: TInvariantDivisor, u, order_bound=6) -> int:
    """Dimension of the weight-u piece of L(D) by monomial enumeration.

    Enumerates f = prod (x - a)^(m_a) over the finite marked points plus one
    auxiliary point (the order at infinity is determined by degree balance),
    tests the invariant-divisor inequality pattern directly (ray and vertex
    conditions), and measures the dimension of the span.
    """
    import math

    fan = d.fan
    u = vec(u)
    for r, a in d.ray_coeffs.items():
        if vdot(r, u) + a < 0:
            return 0
    marked = [l for l in fan.marked_primes() if l.kind == "point"]
    finite_marked = [l for l in marked if not is_inf(l.point)]
    inf_is_marked = any(is_inf(l.point) for l in marked)
    aux = next(F(k) for k in range(0, 40) if point_label(F(k)) not in set(marked))

    def order_floor(l):
        vs = d.verts.get(l, ())
        if not vs:
            return 0
        return math.ceil(max(-(vdot(v, u) + d.vertex_coeffs[(l, v)]) for v in vs))

    ranges = [range(order_floor(l), order_floor(l) + order_bound + 1) for l in finite_marked]
    good = []
    for combo in itertools.product(*ranges):
        for aux_order in range(0, order_bound + 1):
            factors = {l.point: m for l, m in zip(finite_marked, combo)}
            factors[aux] = factors.get(aux, 0) + aux_order
            f = CurveFunction(factors)
            if not inf_is_marked and f.order_at(INF) < 0:
                continue
            ok = True
            for l in marked:
                of = f.order_at(l.point)
                for v in d.verts.get(l, ()):
                    mu = multiplicity(v)
                    if mu * (vdot(v, u) + of + d.vertex_coeffs[(l, v)]) < 0:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                good.append(f)
    return span_dimension(good)


def resplit(cd, a):
    """`cd` split with section s + K a and retraction t - a pi instead, for
    an integer matrix `a` with `cd.cl_rank` rows and one column per row of
    pi; every splitting of the presentation has this form."""
    from pdivisors.cox import CoxData

    s, k, t, pi = cd.section.matrix, cd.kernel.matrix, cd.retraction.matrix, cd.pi.matrix
    r = range(cd.cl_rank)
    section = [[x + sum(kr[l] * a[l][j] for l in r) for j, x in enumerate(sr)] for sr, kr in zip(s, k)]
    retraction = [[x - sum(a[i][l] * pi[l][j] for l in range(len(pi))) for j, x in enumerate(t[i])] for i in r]
    return CoxData(
        cd.fan, cd.primes, cd.pairs, cd.rays, cd.quotient_rows, cd.pi,
        LatticeMap(cd.section.source, cd.section.target, section),
        LatticeMap(cd.retraction.source, cd.retraction.target, retraction),
        cd.kernel, cd.cl_rank,
    )


def random_resplit(rng, cd):
    """`resplit` by a matrix with entries drawn from -2..2."""
    cols = cd.pi.target.rank
    return resplit(cd, [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(cd.cl_rank)])


def assert_cox_dims_equivalent(cd0, d0, cd1, d1, cl_range=1, n_range=2):
    """Graded dimensions of two corrected Cox divisors agree at weights
    matched through the section difference.

    The retractions differ by C . pi; the divisors then differ by the shear
    (x, v) -> (x + C_N v, v) plus per-prime translations of total degree
    zero, so dim1(u) = dim0(u_cl, u_N + C_N^T u_cl).
    """
    import itertools

    from pdivisors.base import global_sections
    from pdivisors.linalg import mat_vec, vec

    k = cd0.cl_rank
    n = cd0.fan.n
    diff = [
        [a - b for a, b in zip(r1, r0)]
        for r1, r0 in zip(cd1.retraction.matrix, cd0.retraction.matrix)
    ]
    cols = [mat_vec(diff, vec(col)) for col in zip(*cd0.section.matrix)]
    p = len(cd0.primes)
    # C_N^T as n rows of length k
    cnt = [[cols[p - 1 + alpha][i] for i in range(k)] for alpha in range(n)]
    omega1 = d1.weight_cone()
    checked = 0
    for u_cl in itertools.product(range(-cl_range, cl_range + 1), repeat=k):
        for u_n in itertools.product(range(-n_range, n_range + 1), repeat=n):
            u1 = tuple(list(u_cl) + list(u_n))
            if not omega1.contains(u1):
                continue
            shift = mat_vec([vec(r) for r in cnt], vec(u_cl)) if n else ()
            u0 = tuple(list(u_cl) + [a + b for a, b in zip(u_n, shift)])
            assert d0.weight_cone().contains(u0), (u1, u0)
            dim1 = global_sections(d1.evaluate(u1)).dimension
            dim0 = global_sections(d0.evaluate(u0)).dimension
            assert dim0 == dim1, (u1, u0, dim0, dim1)
            checked += 1
    assert checked > 0
