"""One operation of each in-process workload, checked by an independent route.

Each op parses its input document (as a `pdiv` user would hand it over),
runs the computation and checks the result; it returns True when every
check holds.  A raised exception also counts as a failed op.
"""

from __future__ import annotations

from fractions import Fraction as F

import pdivisors as pd
import pdivisors.cli

from gen import PROJECTIONS

# Library functions are looked up on the package at call time, so that the
# traced run's wrappers, installed after this import, are the ones called.


class Roundtrip:
    """Downgrade a proper rank-2 divisor, compare graded pieces, upgrade back.

    Every eighth op also downgrades the upgraded divisor again and compares
    the two downgrades.
    """

    def __init__(self):
        self.ctxs = [
            pd.DowngradeContext.from_projection(pd.LatticeMap(pd.Lattice(2, "M"), pd.Lattice(1, "Mbar"), row))
            for row in PROJECTIONS
        ]
        pr2 = pd.LatticeMap(pd.Lattice(2, "M2"), pd.Lattice(1, "Mbar"), [[1, 0]])
        self.ctx2 = pd.DowngradeContext.from_projection(pr2)

    def parse(self, doc):
        return pdivisors.cli.parse(doc, "pdivisor")[0]

    def __call__(self, doc, i) -> bool:
        d = self.parse(doc)
        ctx = self.ctxs[i % len(self.ctxs)]
        fan, dbar = pd.downgrade(d, ctx)
        ok = True
        # graded dimensions against the sections of the evaluation
        for ub in (F(0),), (F(1),):
            ra, vb = dbar.weights_at(ub)
            dv = pd.TInvariantDivisor(fan, ra, dict(vb))
            pl = pd.box_and_psi(dv)
            for up in range(-2, 3):
                up = (F(up),)
                lift = tuple(a + b for a, b in zip(ctx.kernel(up), ctx.s_star(ub)))
                in_box = pl.box.contains_point(up)
                ok &= in_box == d.weight_cone().contains(lift)
                if in_box:
                    left = pd.graded_sections(dv, up).dimension
                    ok &= left == pd.global_sections(d.evaluate(lift)).dimension
        # the upgrade of the downgrade is the image under the projection rows
        rows = list(ctx.s_rows) + list(ctx.pi_rows)
        res = pd.upgrade(dbar)
        ok &= res.divisor.tail == d.tail.map_image(rows)
        for label, p in d.coeffs.items():
            ok &= res.divisor.coefficient(label) == p.map_image(rows)
        ok &= set(res.divisor.coeffs) <= set(d.coeffs)
        if i % 8 == 0:
            fan2, dbar2 = pd.downgrade(res.divisor, self.ctx2)
            ok &= fan2 == fan
            ok &= dbar2.tail == dbar.tail
            ok &= dbar2.ray_coeffs == dbar.ray_coeffs
            ok &= dbar2.vertex_coeffs == dbar.vertex_coeffs
        return bool(ok)


def _satisfies(p) -> bool:
    """Every vertex satisfies every inequality and equation of p."""
    return all(
        sum(a * x for a, x in zip(ai, v)) >= b for v in p.vertices for ai, b in p.ineqs
    ) and all(sum(a * x for a, x in zip(ai, v)) == b for v in p.vertices for ai, b in p.eqs)


class Geometry:
    """Construct, convert, sum, intersect, dualize, take faces, image and slice."""

    def parse(self, doc):
        parse = pdivisors.cli.parse
        return parse(doc["p"], "polyhedron")[0], parse(doc["q"], "polyhedron")[0], parse(doc["cone"], "cone")[0]

    def __call__(self, doc, i) -> bool:
        p, q, c = self.parse(doc)
        ok = _satisfies(p) and _satisfies(q)
        # H -> V gives back the same polyhedron
        ok &= pd.Polyhedron.from_H(p.ineqs, p.eqs, p.n) == p
        s = pd.minkowski_sum(p, q)
        ok &= s == pd.minkowski_sum(q, p) and _satisfies(s)
        inter = p.intersect(q)
        ok &= all(p.contains_point(v) and q.contains_point(v) for v in inter.vertices)
        # dual involution, and the dual recomputed from its own rays
        dual = pd.dual_cone(c)
        ok &= pd.dual_cone(dual) == c
        ok &= pd.Cone.from_rays(dual.rays, dual.lines, c.n) == dual
        faces = p.faces()
        ok &= p in faces and all(_satisfies(f) and all(p.contains_point(v) for v in f.vertices) for f in faces)
        image = p.map_image(doc["image_rows"])
        ok &= _satisfies(image)
        ok &= all(image.contains_point(tuple(sum(a * x for a, x in zip(r, v)) for r in doc["image_rows"])) for v in p.vertices)
        # the fiber through a point of p contains it
        row, point = doc["fiber_row"], tuple(F(x) for x in doc["fiber_point"])
        target = (sum(a * x for a, x in zip(row, point)),)
        retraction = [[1 if j == k else 0 for j in range(p.n)] for k in range(p.n)]
        fiber = pd.map_fiber_slice(p, [row], target, retraction)
        ok &= _satisfies(fiber) and fiber.contains_point(point)
        return bool(ok)


OPS = {"roundtrip": Roundtrip, "geometry": Geometry}
