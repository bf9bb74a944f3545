"""Seeded input generators for the benchmark workloads.

The generators live here, not in the test suite, so that editing a test
cannot shift the benchmark.  They follow the random families of the
acceptance suite (the rank-2 round-trip divisors, the cone and polyhedron
property suites, the complete C*-surface fans of the Cox criterion) and emit
only inputs that compute.

Run as a script, this file writes one workload's inputs as a JSON list of
`pdivisors.cli.emit` documents, so that the rejection sampling (which runs
properness checks) happens in this process and never warms the measured one:

    python3 perfbench/gen.py --workload roundtrip --seed 1 --count 40 --out inputs.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction as F

import pdivisors as pd
from pdivisors.cli import emit

PROJECTIONS = ([[0, 1]], [[1, 0]], [[1, 1]])
# the marked points of the rank-2 divisors
POINTS = (F(0), F(1), F(2), F(-1))
# the templates behind the roundtrip and geometry inputs (see roundtrip_inputs);
# 24 is a multiple of the 3 projections and of the every-eighth second downgrade
TEMPLATE_SEED = "templates:1"
ROUNDTRIP_TEMPLATES = 24
# the geometry cases cycle through these (dimension, vertices, rays, cone rays)
GEOMETRY_SIZES = ((3, 8, 2, 10), (4, 3, 3, 6), (3, 7, 3, 8), (4, 3, 3, 6), (4, 4, 2, 6))


# ---------------------------------------------------------------------------
# roundtrip: proper rank-2 divisors over the line
# ---------------------------------------------------------------------------


def random_proper_rank2(rng, shape):
    """Rejection-sample a proper rank-2 divisor on the line, or None.

    `shape` lists the vertex count of each marked point's coefficient.
    """
    P1 = pd.BaseVariety.projective_line()
    sigma = pd.Cone.from_rays([(1, 0), (0, 1)])
    sp = sigma.as_polyhedron()
    coeffs = {}
    for label, nv in zip(POINTS, shape):
        verts = [
            (F(rng.randint(0, 4), rng.choice([1, 2])), F(rng.randint(0, 4), rng.choice([1, 2])))
            for _ in range(nv)
        ]
        coeffs[pd.point_label(label)] = pd.hull(verts).minkowski(sp)
    d = pd.PolyhedralDivisor(P1, 2, sigma, coeffs)
    if not d.is_proper().proper:
        return None
    return d


def roundtrip_shape(i):
    """Vertex counts per marked point of the i-th template: 2-4 points, 1-3 each."""
    k = 2 + (i // 3) % 3
    return [1 + (i + j) % 3 for j in range(k)]


def roundtrip_inputs(rng, count):
    """Random representatives of a fixed cycle of proper divisor classes.

    The ROUNDTRIP_TEMPLATES templates come from TEMPLATE_SEED and repeat in
    order, so every seed, and every prefix of a run, gets the same mix of
    sizes and chamber structures: the run-to-run spread stays small.  The
    seed draws each representative: the coefficients move to other points
    of the line and are translated by a principal divisor (shifts summing to
    zero), which keeps properness and every graded dimension but changes the
    coordinates the computation sees.
    """
    trng = random.Random(TEMPLATE_SEED)
    templates = []
    while len(templates) < ROUNDTRIP_TEMPLATES:
        d = random_proper_rank2(trng, shape=roundtrip_shape(len(templates)))
        if d is not None:
            templates.append(d)
    out = []
    for i in range(count):
        d = templates[i % len(templates)]
        labels = rng.sample(POINTS, len(d.coeffs))
        shifts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in labels[1:]]
        shifts.insert(0, (-sum(s[0] for s in shifts), -sum(s[1] for s in shifts)))
        coeffs = {
            pd.point_label(label): p.translate(shift)
            for label, p, shift in zip(labels, d.coeffs.values(), shifts)
        }
        out.append(pd.PolyhedralDivisor(d.base, 2, d.tail, coeffs))
    return out


# ---------------------------------------------------------------------------
# geometry: fresh cones and polyhedra in dimensions 3 and 4
# ---------------------------------------------------------------------------


def random_nonzero(rng, n, lo=-3, hi=3):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(n))
        if any(v):
            return v


def geometry_template(trng, i):
    """Generator lists of the i-th template; sizes fixed by the position i.

    The cases cycle through GEOMETRY_SIZES.  A case in dimension 3 costs
    about half as much as one in dimension 4, and (4, 3, 3, 6) sits between
    the other two sizes of dimension 4: it comes twice in the cycle, so the
    median latency falls inside its cluster, not in the gap between the
    dimensions, where it would jump with every run.
    """
    n, nv, nr, nc = GEOMETRY_SIZES[i % len(GEOMETRY_SIZES)]

    def poly():
        verts = [tuple(F(trng.randint(-3, 3), trng.choice([1, 1, 2])) for _ in range(n)) for _ in range(nv)]
        return verts, [random_nonzero(trng, n, 0, 2) for _ in range(nr)]

    p, q = poly(), poly()
    cone = [random_nonzero(trng, n) for _ in range(nc)]
    image_rows = [random_nonzero(trng, n, -2, 2) for _ in range(2)]
    return n, p, q, cone, image_rows, random_nonzero(trng, n, -2, 2)


def geometry_inputs(rng, count):
    """Random translates of fixed templates, each used once per run.

    The templates come from TEMPLATE_SEED, so every seed gets the same
    cases; the seed draws a translation for each case, applied to both
    polyhedra and the fiber point together.  A translation keeps the order
    in which the double description meets its rows, so the work of a case is
    that of its template while its coordinates change.
    """
    trng = random.Random(TEMPLATE_SEED)
    out = []
    for i in range(count):
        n, (pv, pr), (qv, qr), cone, image_rows, fiber_row = geometry_template(trng, i)
        t = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n))

        def move(v):
            return tuple(x + y for x, y in zip(v, t))

        p = pd.Polyhedron.from_generators([move(v) for v in pv], pr, n=n)
        q = pd.Polyhedron.from_generators([move(v) for v in qv], qr, n=n)
        out.append((p, q, pd.Cone.from_rays(cone, n=n), image_rows, fiber_row, move(pv[0])))
    return out


# ---------------------------------------------------------------------------
# cli: documents for the pdiv subcommands
# ---------------------------------------------------------------------------


def complete_cstar_fan(split):
    """A complete C*-surface over P^1: slice at 0 subdivided at `split`."""
    P1 = pd.BaseVariety.projective_line()
    plus, minus = pd.Cone.from_rays([(1,)]), pd.Cone.from_rays([(-1,)])
    p0, pinf = pd.point_label(0), pd.point_label(pd.INF)
    empty = pd.Polyhedron.empty_polyhedron(1)

    def halfline(a, direction):
        return pd.Polyhedron.from_generators([(F(a),)], [(direction,)], n=1)

    members = [
        pd.PolyhedralDivisor(P1, 1, plus, {p0: halfline(split, 1), pinf: empty}),
        pd.PolyhedralDivisor(P1, 1, minus, {p0: halfline(split, -1), pinf: empty}),
        pd.PolyhedralDivisor(P1, 1, plus, {p0: empty}),
        pd.PolyhedralDivisor(P1, 1, minus, {p0: empty}),
    ]
    return pd.DivisorialFan(P1, members, semicomplete=True)


def random_deformation(rng):
    """An admissible decomposition of an interval slice of a plane cone.

    The parameter summands are lattice intervals [0, c]; only the first
    summand may be lattice-free, so at most one argmin face per chamber is.
    """
    while True:
        k = rng.choice([1, 2])
        l = rng.choice([1, 1, 2])
        cs = [rng.randint(1, 2) for _ in range(l)]
        u1 = rng.randint(-3, 0)
        w = F(rng.randint(0, 2), k)
        u2 = u1 + k * (w + sum(cs))
        delta = pd.Cone.from_rays([(u1, 1), (u2, 1)])
        lo = F(u1, k)
        d0 = pd.hull([(lo,), (lo + w,)])
        summands = [d0] + [pd.hull([(0,), (c,)]) for c in cs]
        din = pd.DeformationInput(delta, (0, k), tuple(summands))
        try:
            ok, _ = pd.check_admissible(din)
        except pd.deform.SumMismatch:
            continue
        if ok:
            return din


def random_cone3(rng):
    """A pointed full-dimensional cone in Q^3 for the toric downgrade."""
    while True:
        c = pd.Cone.from_rays([random_nonzero(rng, 3, 0, 2) for _ in range(rng.randint(3, 4))])
        if c.is_pointed() and c.is_fulldim():
            return c


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def workload_documents(workload, seed, count):
    """`count` emitted input documents of a workload, a function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "roundtrip":
        return [emit(d, "pdivisor").decode() for d in roundtrip_inputs(rng, count)]
    if workload == "geometry":
        docs = []
        for p, q, cone, image_rows, fiber_row, fiber_point in geometry_inputs(rng, count):
            docs.append(
                {
                    "p": emit(p, "polyhedron").decode(),
                    "q": emit(q, "polyhedron").decode(),
                    "cone": emit(cone, "cone").decode(),
                    "image_rows": [list(r) for r in image_rows],
                    "fiber_row": list(fiber_row),
                    "fiber_point": [str(x) for x in fiber_point],
                }
            )
        return docs
    raise ValueError(f"no generated inputs for workload {workload!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("roundtrip", "geometry"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    docs = workload_documents(args.workload, args.seed, args.count)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(docs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
