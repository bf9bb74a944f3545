"""Divisorial polyhedra and the complexity-one downgrade.

A divisorial polyhedron is a concave piecewise-affine map from a weight
polyhedron into semiample divisors on a curve.  Dualizing each prime's
function produces slice subdivisions and support data of a variety over the
curve; restricting a polyhedral divisor to weight fibers produces such maps,
and assembling the dual data over one interior weight per linearity chamber
recovers the same variety for the subtorus action.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from ._record import _Record
from .base import INF, is_inf, point_label, spare_points
from .errors import (
    BoxNotFullDimensional,
    MarksMissingSupport,
    NotProper,
    RoutesDisagree,
    WeightOutsideCone,
)
from .lattice import LatticeMap, smith_split
from .linalg import _cleared, transpose, vec, zero_vec
from .pdivisor import PolyhedralDivisor
from .polyhedra import (
    PolyhedralComplex,
    Polyhedron,
    chamber_complex,
    map_fiber_slice,
)
from .tvariety import (
    ConcavePL,
    DivisorialFan,
    PLDivisorMap,
    TInvariantDivisor,
    sum_psi,
)
from .upgrade import InvariantPDivisorOnFan


class DowngradeContext(_Record):
    """Split data of a weight projection pr: M -> Mbar.

    Carries the section s_star, the kernel inclusion, the cosection t, and
    the dual-side projection pi: N -> N' and retraction s: N -> Nbar, whose
    rows `pi_rows` and `s_rows` are derived once here.
    """

    __slots__ = ("pr", "s_star", "t", "kernel", "pi_rows", "s_rows", "fiber_rank")

    def __init__(self, pr: LatticeMap, s_star: LatticeMap, t: LatticeMap, kernel: LatticeMap):
        self.pr = pr
        self.s_star = s_star
        self.t = t
        self.kernel = kernel
        self.pi_rows = transpose(kernel.matrix)
        self.s_rows = transpose(s_star.matrix)
        self.fiber_rank = kernel.source.rank

    @staticmethod
    def from_projection(pr: LatticeMap) -> "DowngradeContext":
        s_star, t, kernel = smith_split(pr)
        return DowngradeContext(pr, s_star, t, kernel)


def dualize(f: ConcavePL):
    """(Box*, Psi*) of one prime's concave function.

    Box* collects the linear functionals dominating the linear part on the
    domain's tailcone; Psi*(v) = min over the domain of <v,u> - f(u), with
    one affine piece per vertex of the graph.  Box* and the piece rows of
    Psi* depend on f's hypograph only: `_dual_rows` reads them off its
    `hom`, where they are kept.  Psi* is a new function on each call, which
    builds its own hypograph on first use.
    """
    box_star, rows = f.hypo.hom._keep("dualize", lambda: _dual_rows(f))
    return box_star, ConcavePL._from_rows(box_star, rows)


def _dual_rows(f: ConcavePL):
    """Box* and the piece rows of Psi* of `dualize`, read off the hypograph's
    `hom`: the flip t -> -t onto the epigraph of -f permutes coordinates up
    to sign, so it maps canonical rays to canonical rays and lines to lines."""
    n, hom = f.domain.n, f.hypo.hom
    # a tail ray or line (w, r) of the hypograph gives <w, u> >= r or = r;
    # the downward ray (0, -1) only says t can fall
    ineqs = [(g[:n], g[n]) for g in hom.rays if not g[n + 1] and any(g[:n])]
    box_star = Polyhedron.from_H(ineqs, [(g[:n], g[n]) for g in hom.lines], n)
    # a vertex (X, T) / d of the graph, the ray (X, T, d) of `hom`, is the
    # piece v -> <X, v> / d - T / d: the row (X, -d, -T), in the order of
    # the epigraph's rays (X, -T, d)
    epi = sorted((*g[:n], -g[n], g[n + 1]) for g in hom.rays if g[n + 1])
    rows = tuple((*g[:n], -g[n + 1], g[n]) for g in epi)
    return box_star, rows


def subdivision_of_dual(f: ConcavePL) -> PolyhedralComplex:
    """Xi(Psi*) as a complex of pointed polyhedra (domain must be full-dim)."""
    if f.domain.dim() != f.domain.n:
        raise BoxNotFullDimensional("the dual subdivision needs a full-dimensional Box")
    return dualize(f)[1]._regions()


def fan_from(psi: PLDivisorMap, marks):
    """Contraction-free fan from the dual subdivisions over the marked points.

    Returns (fan, per-prime dual data, the support divisor read off from the
    dual values): `fan_and_duals` and then `_support_divisor`.  `downgrade`
    reads no support divisor and calls only the first.
    """
    fan, duals = fan_and_duals(psi, marks)
    return fan, duals, _support_divisor(psi, fan, duals)


def fan_and_duals(psi: PLDivisorMap, marks):
    """(fan, per-prime dual data) of `fan_from`, with all of its checks.

    Members are the cells of each Xi(Psi_P*) attached to P with the empty
    set at the other marks.  The tailfans of the dual subdivisions must
    agree across the marks, and the fan validates its slices and tailfan.
    """
    marks = list(marks)
    if not marks:
        raise MarksMissingSupport("need a nonempty set of marked points")
    box = psi.box
    if box.dim() != box.n:
        raise BoxNotFullDimensional("Box must be full-dimensional")
    mark_labels = [point_label(p) if not hasattr(p, "kind") else p for p in marks]
    if psi.base.kind == "P1" and len(mark_labels) < 2:
        # members need an empty coefficient somewhere for affine loci
        extra = INF if point_label(INF) not in mark_labels else spare_points(mark_labels)[0]
        mark_labels.append(point_label(extra))
    # the zero function on the full-dimensional box has the single piece 0
    zero = ((zero_vec(box.n), Fraction(0)),)
    support = [l for l, g in psi.per_prime.items() if is_inf(g) or g.pieces != zero]
    if not set(support) <= set(mark_labels):
        raise MarksMissingSupport(
            f"marks must contain the support {[l.id for l in support]}"
        )
    duals = {}
    for label in mark_labels:
        f = psi.psi(label)
        if is_inf(f):
            raise MarksMissingSupport("divisorial polyhedra take finite values")
        box_star, psi_star = dualize(f)
        duals[label] = (box_star, psi_star, psi_star._regions())
    # tailfan independence across the marks (compared face-closed)
    tails = None
    for label, (_, _, cells) in duals.items():
        t = set()
        for c in cells:
            for f in c.tail().faces():
                t.add(f)
        if tails is None:
            tails = t
        elif tails != t:
            raise RoutesDisagree("dual subdivision tailfans differ between primes")
    members = []
    n = psi.box.n
    for label, (_, _, cells) in duals.items():
        others = [l for l in mark_labels if l != label]
        for cell in cells:
            coeffs = {label: cell}
            for o in others:
                coeffs[o] = Polyhedron.empty_polyhedron(n)
            members.append(PolyhedralDivisor(psi.base, n, cell.tail(), coeffs))
    return DivisorialFan(psi.base, members), duals


def _support_divisor(psi: PLDivisorMap, fan: DivisorialFan, duals) -> TInvariantDivisor:
    """The support divisor of `fan_from` from the dual values: h_P = Psi_P*,
    with ray coefficients -min over Box of <r, .>."""
    n = psi.box.n
    ray_coeffs = {r: -psi.box._vertex_min(r) for r in fan.rays()}
    vertex_coeffs = {}
    for label, (_, psi_star, cells) in duals.items():
        for c in cells:
            # the vertex X / d of a cell is the ray (X, d) of its `hom`
            for g in c.hom.rays:
                if g[n]:
                    v = tuple(Fraction(x, g[n]) for x in g[:n])
                    vertex_coeffs[(label, v)] = -psi_star._at(g[:n], g[n])
    return TInvariantDivisor(fan, ray_coeffs, vertex_coeffs)


# ---------------------------------------------------------------------------
# the downgrade itself
# ---------------------------------------------------------------------------


def downgrade_box_psi(d: PolyhedralDivisor, ctx: DowngradeContext, ubar) -> PLDivisorMap:
    """Box[ubar] and Psi[ubar]: the fiber weight polyhedron and the divisor
    map u' -> D(u' + s*(ubar))."""
    ubar = tuple(ubar)
    omega = d.weight_cone().as_polyhedron()
    image = omega.map_image(ctx.pr.matrix)
    U, e = _cleared(ubar)
    if not image._holds(U, e):
        raise WeightOutsideCone(f"{vec(ubar)} is outside the projected weight cone")
    box = map_fiber_slice(omega, ctx.pr.matrix, ubar, ctx.t.matrix)
    # the lift s*(ubar) is L / e
    L = [sum(map(mul, row, U)) for row in ctx.s_star.matrix]
    pi_rows = ctx.pi_rows
    n = d.n
    per = {}
    for label, p in d.coeffs.items():
        if p.empty:
            raise NotProper("the downgrade needs locus equal to the whole curve")
        # a vertex X / t, the ray (X, t) of `hom`, gives the piece
        # (pi X / t, <X, L> / (t e)): the row (e pi X, -t e, <X, L>)
        rows = [
            (*(e * sum(map(mul, row, g)) for row in pi_rows), -g[n] * e, sum(map(mul, g, L)))
            for g in p.hom.rays
            if g[n]
        ]
        per[label] = ConcavePL._from_rows(box, rows)
    return PLDivisorMap(d.base, box, per)


def _slices_by_faces(coeff: Polyhedron, pi_rows) -> PolyhedralComplex:
    """The second slice route: the chamber complex of the projected faces."""
    return chamber_complex(coeff, pi_rows)


def _evaluation_graph(d: PolyhedralDivisor) -> Polyhedron:
    """Gamma in Q^(n+1), the epigraph of u -> -sum_P min_{v in D_P} <v, u>
    over the weight cone: the function is linear on each evaluation chamber,
    so Gamma is spanned by the chambers' rays and lines lifted to its graph
    and the vertical ray, and its lower faces lie over the chambers' faces.
    """
    n = d.n
    verts = [[g for g in p.hom.rays if g[n]] for p in d.coeffs.values()]
    q = math.lcm(*(g[n] for vs in verts for g in vs))
    # a vertex X / t of D_P, the ray (X, t) of its `hom`, is (q / t) X / q
    verts = [[tuple(q // g[n] * x for x in g[:n]) for g in vs] for vs in verts if vs]

    def lifted(r):
        return (*(q * x for x in r), -sum(min(sum(map(mul, X, r)) for X in vs) for vs in verts))

    chambers = [c.hom for c in d.evaluation_chambers()]
    rays = [lifted(g[:n]) for g in {g for c in chambers for g in c.rays if not g[n]}]
    lines = [lifted(g[:n]) for g in {g for c in chambers for g in c.lines}]
    return Polyhedron.from_generators([(0,) * (n + 1)], [*rays, (0,) * n + (1,)], lines, n + 1)


def downgrade(d: PolyhedralDivisor, ctx: DowngradeContext):
    """Restrict the torus action along ctx.pr.

    Returns (fan, dbar): the divisorial fan describing the intermediate
    quotient over the curve, and the downgraded divisor on it with fiber
    coefficients.  The slices are computed both from the dual subdivisions
    and from the projected faces; the two routes must agree.
    """
    if d.base.kind not in ("P1", "open_p1"):
        raise NotProper("the downgrade runs over smooth curve bases")
    report = d.is_proper()
    if not report.proper:
        raise NotProper(f"input is not a p-divisor: {report.as_dict()}")
    # one weight per chamber of the projected faces of the evaluation
    # chambers, the lower faces of their graph: when Mbar has rank 2 or more,
    # the images of two chambers can overlap without being equal, and a
    # weight per evaluation chamber would miss break lines
    projected = chamber_complex(_evaluation_graph(d), [(*row, 0) for row in ctx.pr.matrix])
    total = None
    for cone in projected:
        pl = downgrade_box_psi(d, ctx, cone.tail().relint_point())
        total = pl if total is None else sum_psi(total, pl)
    marks = [l for l in d.marked() if l.kind == "point"]
    if not marks:
        marks = [point_label(Fraction(0))]
    fan, _ = fan_and_duals(total, marks)
    # second route: chamber complexes of the projected coefficient faces
    pi_rows = ctx.pi_rows
    for label in marks:
        xi = _slices_by_faces(d.coefficient(label), pi_rows)
        if set(xi.cells) != set(fan.slice_of(label).cells):
            raise RoutesDisagree(
                f"slice routes disagree at {label.id}: {xi.cells} vs {fan.slice_of(label).cells}"
            )
    # coefficients from the fiber formulas
    s_rows = ctx.s_rows
    nbar = ctx.pr.target.rank
    tail_poly = d.tail.as_polyhedron()
    sigma_bar = map_fiber_slice(tail_poly, pi_rows, (Fraction(0),) * ctx.fiber_rank, s_rows).tail()
    ray_coeffs = {}
    for r in fan.rays():
        p = map_fiber_slice(tail_poly, pi_rows, r, s_rows)
        ray_coeffs[r] = p
    vertex_coeffs = {}
    for label in fan.marked_primes():
        coeff = d.coefficient(label)
        for v in fan.vertices_of(label):
            p = map_fiber_slice(coeff, pi_rows, v, s_rows)
            vertex_coeffs[(label, v)] = p
    dbar = InvariantPDivisorOnFan(
        fan, nbar, sigma_bar, ray_coeffs=ray_coeffs, vertex_coeffs=vertex_coeffs
    )
    return fan, dbar
