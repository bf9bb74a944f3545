"""Exact convex geometry: cones, polyhedra and polyhedral complexes in Q^n.

A cone stores both representations (generators and halfspaces) as the
primitive `int` tuples the double description method (`_dd`)
computes.  A pointed cone in Q^1 to Q^3 needs no DD: its extreme rays are
the candidates on n - 1 rows (cross products of two rows in Q^3) that lie
in the cone up to sign (`_small_rays`).  The DD keeps the tight set of each
ray as an `int` bit mask, adds one row at a time by one row step
(`_dd_step`), skips a pair of rays with fewer than d - 2 common tight
rows before its adjacency scan, and works in the input
coordinates (the identity frame) when there are no equations and the rows
have full rank; otherwise it changes to a basis of the equations' kernel
and of the rows' span there.
A construction (`_canonical`, memoized) runs the DD once for the
other side and reads the irredundant input side off the generator-facet
incidence, which every route of the DD returns as the tight sets it kept
on the way, so both sides are canonical and
structural equality of the stored data coincides with equality of the
underlying sets.  The memo key holds the input rows primitive, sorted and
without duplicates, so it does not depend on their order, and the DD runs
on it as it is.  A
construction takes two steps: the public constructors check the row
lengths and normalize the rows to that key (`_primitive_rows`), and
`_canonical`/`_cut` build from a key.  Rows of a canonical cone are a key
as they are, so intersections, `as_polyhedron`, tails and the slices and
regions cut from a polyhedron merge or pass them through.  A cone
computes its ray-facet incidence once and keeps it (`Cone._incidence`);
faces, fiber slices and face tests read it.  Faces run no DD: both sides
of a face are read off its parent's incidence.  On a pointed parent a
face's facet normals are the parent's normals projected onto its span,
solved by the adjugate of a Gram matrix on the side with fewer rows (its
rays or its equations), and the equations of rays and of facets of a
full-dimensional cone are written out; a face in Q^5 or below takes at
most one elimination.  A polyhedron
stores one cone, its homogenization `hom`, and derives its generators,
halfspaces and tail cone from it on first access; only its vertices are
Fractions.

The memo hands out one read-only `Cone` per key (hash-consing:
Filliatre-Conchon, "Type-safe modular hash-consing", 2006), and `_cut`
returns that cone's dual, kept on it.  From its second use as a
homogenization on, a cone keeps the `Polyhedron` over it, so a repeated
construction returns one object that reads its views and hash once.
Images are taken on `hom` with integer rows, Minkowski sums and
translations add its integer rays, and face and containment tests
compare integer dot products instead of building a cone.  Point
tests clear a point's denominators once and compare integers.

A cone also keeps the results of the pure operations computed from it
(`Cone._keep`), keyed by the operation and its normalized integer
arguments: its `as_polyhedron` homogenization, its faces and its images,
and, as a polyhedron's `hom`, that polyhedron's faces, images, fiber
slices and chamber complexes, `downgrade.dualize` and the validation of
a complex whose first cell it is.  A result is kept from the second
request of its key on, so a cone asked once keeps none, and kept
results die with their cone when the memo evicts it.

A fiber slice (`map_fiber_slice`) builds only its image, not the fiber.
An extreme ray of C ∩ L, for a cone C and a linear subspace L of
codimension r, lies in a face of C of dimension at most r + 1 (modulo the
lineality space), so the fiber's generators come from the rays, lines and
incidence of the polyhedron's `hom` by one step per equation
(`_fiber_generators`): a shift along a line, or the row step of the DD
(`_dd_step`) on the equation.

Two chamber algorithms have one entry point each: `chamber_complex(p,
rows)` projects the faces of one polyhedron `p` itself, and
`normal_fan(polys, domain)` refines the vertex regions of each polyhedron
over `domain`.  On one row the cells are the gaps between consecutive
vertex images, so only the cells are built (`_line_chambers`); on two or
more rows a walk crosses the facets of the chambers, one `_cut` per step
(`_chamber_walk`), since the chambers tile the convex image face to face.
The face images are generator sets read off the polyhedron's incidence
and mapped as integers (`_projected_faces`).

The empty polyhedron is a first-class value, the zero cone homogenized:
sums and intersections treat it as absorbing, images of it are empty.
Infinity never appears here; divisor coefficients handle it in `base`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul

from ._record import _Frozen
from .errors import AmbientMismatch, NotConcave
from .linalg import (
    Vec,
    _cleared,
    _echelon,
    _echelon_kernel,
    _int_row,
    _kernel,
    _least,
    frac,
    int_identity,
    mat_vec,
    zero_vec,
)

# ---------------------------------------------------------------------------
# double description core
# ---------------------------------------------------------------------------


def _dd_pointed(rows: list[tuple], d: int, base_idx: list[int] | None = None) -> dict[tuple, int]:
    """Extreme rays of the pointed cone {w in Q^d : <row, w> >= 0 for all rows}.

    Integer rows in; out, each primitive integer ray mapped to its tight
    set, as an `int` bit mask with bit i for row i.  Requires rank(rows) == d.
    `base_idx` are the lex-first independent rows, the pivot columns of the
    transposed rows; a caller that has eliminated those already passes them.
    Classic incremental double description with the combinatorial adjacency
    test (Fukuda-Prodon, "Double description method revisited", 1996), one
    `_dd_step` per row.  The tight set of a ray, the processed rows it lies
    on, is kept as that mask all along, so the result holds the full
    ray-row incidence.  Adjacent rays span a 2-face of the d-dimensional
    cone, which lies on at least d - 2 independent rows.
    """
    if d == 0:
        return {}
    # the lex-first independent rows span the initial simplicial cone
    if base_idx is None:
        base_idx = _echelon(list(zip(*rows)))[1]
    if len(base_idx) < d:
        raise ValueError("cone is not pointed (constraint rank deficient)")
    # rays = columns of the inverse of the base matrix B: eliminating [B | I]
    # leaves row i as a positive multiple of (e_i | row i of the inverse)
    red, _ = _echelon([rows[k] + tuple(e) for k, e in zip(base_idx, int_identity(d))])
    scale = math.lcm(*(red[i][i] for i in range(d)))
    rays = []
    for j in range(d):
        col = [red[i][d + j] * (scale // red[i][i]) for i in range(d)]
        g = math.gcd(*col)
        rays.append(tuple(x // g for x in col))
    # ray j is tight exactly on the base rows other than row j
    full = sum(1 << k for k in base_idx)
    tight = [full ^ (1 << k) for k in base_idx]
    for i, a in enumerate(rows):
        if i not in base_idx:
            rays, tight = _dd_step(rays, tight, a, d - 2, 1 << i)
    return dict(zip(rays, tight))


def _dd_step(rays, tight, a, least: int, bit: int) -> tuple[list[tuple], list[int]]:
    """One double-description step, that of `_dd_pointed` and of
    `_fiber_generators`: the rays and tight sets of the current cone cut by
    the row a, as <a, w> >= 0 with the tight-set bit `bit`, or as the
    equation <a, w> = 0 when `bit` is 0.  `rays` are the extreme rays of the
    current cone (representatives modulo its lineality space, on which a is
    0) and `tight` their tight sets.  A ray on the hyperplane stays and gains
    `bit`, one on the positive side stays for an inequality only, and each
    adjacent pair of p and q on opposite sides adds the primitive ray
    <a, p> q - <a, q> p, tight on tight[p] & tight[q] | bit.  Adjacency is
    the combinatorial test: no third ray is tight on every row both are
    tight on.  Adjacent rays span a 2-face, which lies on at least `least`
    rows, so a pair with fewer common rows is skipped before that scan.
    """
    vals = [sum(map(mul, a, r)) for r in rays]
    plus = [j for j, v in enumerate(vals) if v > 0]
    minus = [j for j, v in enumerate(vals) if v < 0]
    kept = [j for j, v in enumerate(vals) if not v or bit and v > 0]
    new_rays = [rays[j] for j in kept]
    new_tight = [tight[j] if vals[j] else tight[j] | bit for j in kept]
    for p in plus:
        tp = tight[p]
        for q in minus:
            common = tp & tight[q]
            if common.bit_count() < least:
                continue
            # a third ray tight on all of `common` makes p and q non-adjacent
            if sum(t & common == common for t in tight) > 2:
                continue
            vp, vq = vals[p], vals[q]
            r = [vp * x - vq * y for x, y in zip(rays[q], rays[p])]
            g = math.gcd(*r)
            # r lies in the relative interior of the 2-face of p and q, so no
            # other pair gives it; every row processed so far is >= 0 on p
            # and q, so r is tight exactly where both are
            new_rays.append(tuple(x // g for x in r))
            new_tight.append(common | bit)
    return new_rays, new_tight


def _dd(ineqs: tuple, eqs: tuple, n: int) -> tuple[list[Vec], list[Vec], list[int]]:
    """Extreme rays and lineality basis of {x : eqs.x = 0, ineqs.x >= 0},
    on rows that are `_primitive_rows` already (a memo key), on integers
    only, with the tight sets of the rays: (rays, lines, tight), where bit
    i of tight[j] says that ineqs[i] is 0 on rays[j].  Rays and lines come
    back as sorted primitive `int` tuples.  The memo is one level up, on
    the whole construction (`_canonical`).

    With no equations, one elimination of the transposed rows picks the
    lex-first independent rows.  If they are n, the cone is pointed and the
    frame is the identity: `_dd_pointed` runs on the rows as they are, from
    that base, and its rays are the answer, since the primitive extreme
    rays of a pointed cone are unique.  Otherwise the rays are computed in
    the frame of `_frame` and mapped back; with no equations the frame's
    rows have the rows' linear dependencies, so the same base serves.
    In Q^1 to Q^3 a pointed cone takes `_small_rays` instead.  Every route
    keeps the rows in their order, so the tight sets it computes on the way
    are the incidence with `ineqs` as it is.
    """
    if n <= 3:
        rays = _small_rays(ineqs, eqs, n)
        if rays is not None:
            return _sorted_tight(rays, [])
    base_idx = None
    if not eqs:
        base_idx = _echelon(list(zip(*ineqs)))[1] if ineqs else []
        if len(base_idx) == n:
            # rank n and no equations: the identity frame
            return _sorted_tight(_dd_pointed(ineqs, n, base_idx), [])
    sbasis, aprime, rspace, lprime = _frame(ineqs, eqs, n)
    if not sbasis:
        return [], [], []
    lines = _echelon([_mix_basis(lv, sbasis) for lv in lprime])[0] if lprime else []
    # <a, mix(w, rspace)> = <a2, w>, so a ray's tight set carries over
    a2 = [tuple(sum(map(mul, ap, w)) for w in rspace) for ap in aprime]
    rays = {
        _int_row(_mix_basis(_mix_basis(w, rspace), sbasis)): t
        for w, t in _dd_pointed(a2, len(rspace), base_idx).items()
    }
    return _sorted_tight(rays, sorted(lines))


def _sorted_tight(rays: dict, lines) -> tuple[list[Vec], list[Vec], list[int]]:
    """`_dd`'s triple from a map of each ray to its tight set."""
    order = sorted(rays)
    return order, lines, [rays[r] for r in order]


def _small_rays(ineqs: tuple, eqs: tuple, n: int) -> dict[tuple, int] | None:
    """The primitive extreme rays of a pointed cone in Q^n, n <= 3, from
    `_dd`'s rows, each mapped to its tight set on `ineqs` as in
    `_dd_pointed`; None when the cone is not pointed or is {0}.

    An extreme ray of a pointed cone lies on n - 1 independent rows, so it
    is a multiple of a candidate: in Q^3 the cross product of two rows, in
    Q^2 the perpendicular of a row, in Q^1 the unit.  A candidate in the
    cone up to sign, with no mixed signs on `ineqs` and 0 on `eqs`, lies on
    a face of dimension 1, an extreme ray.  A nonzero candidate that is 0
    on every row is a line, so the cone is not pointed; with no candidate
    left the cone is {0} or the rows have rank below n - 1.  Both go to
    the frame route.
    """
    rows = ineqs + eqs
    if n == 3:
        cands = {
            (b * f - c * e, c * d - a * f, a * e - b * d)
            for (a, b, c), (d, e, f) in itertools.combinations(rows, 2)
        }
    elif n == 2:
        cands = {(-b, a) for a, b in rows}
    else:
        cands = {(1,) * n}
    cands.discard((0,) * n)
    rays = {}
    for w in cands:
        if any(sum(map(mul, a, w)) for a in eqs):
            continue
        vals = [sum(map(mul, a, w)) for a in ineqs]
        if min(vals, default=0) >= 0:
            if max(vals, default=0) == 0:
                return None
        elif max(vals) <= 0:
            w = tuple(-x for x in w)
        else:
            continue
        g = math.gcd(*w)
        rays[tuple(x // g for x in w) if g > 1 else w] = sum(1 << i for i, v in enumerate(vals) if not v)
    return rays or None


def _primitive_rows(rows) -> tuple:
    """The distinct nonzero rows, each scaled to its primitive integer row,
    sorted: the cone they span or cut out does not depend on their order."""
    return tuple(sorted({r for r in map(_int_row, rows) if any(r)}))


def _frame(ineqs, eqs, n: int):
    """The coordinates `_dd` works in: (sbasis, aprime, rspace, lprime).

    `sbasis` is a basis of {x : eqs.x = 0}, `aprime` the inequality rows in
    sbasis coordinates, one per row and in order (a row in span(eqs) is
    0 there), `rspace` a basis of their row space and `lprime` of their
    kernel, from one elimination.  The DD runs in rspace coordinates, so a
    ray's representative modulo the lineality space is the one whose
    sbasis coordinates lie in that row space.
    """
    sbasis = _kernel(eqs, n) if eqs else int_identity(n)
    if not sbasis:
        return sbasis, [], [], []
    aprime = [tuple(sum(map(mul, a, b)) for b in sbasis) for a in ineqs]
    rspace, pivots = _echelon(aprime)
    return sbasis, aprime, rspace, _echelon_kernel(rspace, pivots, len(sbasis))


# Bound of the construction memo, sized to hold a round trip's working set.
# Faces do not go through it, nor the fibers `map_fiber_slice` maps, only
# their images, nor a result a cone keeps (`Cone._keep`).  The benchmark's
# 213 roundtrip inputs of seed 101, run in order from a cold memo, make
# 14,376 lookups of 1,880 distinct keys: an LRU of 512 entries misses 2,963
# times, one of 4096 only on the 1,880 first lookups.  Over 1,000 roundtrip
# inputs of seed 107 (3,708 distinct keys) the misses are 13.2 per input at
# 512 and 3.7 at 4096.  Geometry's 123 inputs of seed 101 make 1,231
# lookups of 992 keys, so the size does not matter there.  An entry is one
# cone, with its dual once cut, the results it keeps and, from its second
# use as a homogenization on, the polyhedron over it and its views.
# Against entries of bare tuples this raises peak memory by 4% on roundtrip
# (19.7 -> 20.6 MiB) and not at all on geometry (19.8 -> 19.9 MiB), medians
# of twelve and four 30 s benchmark runs, 2-core x86_64, Python 3.11.7.
# Keeping the polyhedron from the first use on would raise geometry's peak
# to 23.3 MiB (+17%, two runs), for its one-shot constructions.  The kept
# results add 2-3% on roundtrip (19.15 -> 19.58 MiB at seed 101, medians of
# ten runs) and keep nothing on geometry.
DD_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=DD_CACHE_SIZE)
def _canonical(n: int, gens: tuple, lines: tuple) -> "Cone":
    """The cone pos(gens) + span(lines), canonical on both sides.

    `gens` and `lines` are `_primitive_rows`, so the key is free of row
    order, scaling and duplicates, and every caller of one key shares the
    one read-only `Cone`.  One DD (`_dd`) gives the H-side and, with it,
    the tight set of each facet on `gens`; the V-side is read off that
    generator-facet incidence with no dot product (Fukuda-Prodon, "Double
    description method revisited", 1996).  A generator tight on every facet
    lies in the lineality space; the others are extreme exactly when no
    generator is tight on a strict superset of their facets.  The result is
    what `_dd` gives on the H-side, so the construction is self-dual:
    passing inequality rows as `gens` and equation rows as `lines`
    canonicalizes an H-description.
    """
    ineqs, eqs, facet_tight = _dd(gens, lines, n)
    tight = _transposed(facet_tight, len(gens))
    full = (1 << len(ineqs)) - 1
    lineal = [g for g, t in zip(gens, tight) if t == full]
    pointed = [(g, t) for g, t in zip(gens, tight) if t != full]
    # t & u == t != u: t is a strict subset of u
    rays = [g for g, t in pointed if not any(t & u == t != u for _, u in pointed)]
    clines = _echelon(list(lines) + lineal)[0]
    if clines and rays:
        rays = _representatives(rays, clines, ineqs, eqs, n)
    return Cone(n, sorted(set(rays)), sorted(clines), ineqs, eqs)


def _representatives(rays, lines, ineqs, eqs, n: int) -> list[tuple]:
    """The representative `_dd(ineqs, eqs, n)` gives to each ray modulo
    span(lines): the point of r + span(lines) in the span R of the frame's
    rspace.  R and the lines together form a basis of {x : eqs.x = 0}, so
    one elimination of [R | lines | rays] solves for every ray at once."""
    sbasis, _, rspace, _ = _frame(ineqs, eqs, n)
    basis = [_mix_basis(w, sbasis) for w in rspace]
    d, k = len(basis), len(basis) + len(lines)
    # row i is a positive multiple p_i of (e_i | R-coordinates of the rays)
    red, _ = _echelon(list(zip(*basis, *lines, *rays)))
    scale = math.lcm(*(red[i][i] for i in range(d)))
    return [
        _int_row(_mix_basis([red[i][k + j] * (scale // red[i][i]) for i in range(d)], basis))
        for j in range(len(rays))
    ]


def _projections(rows, basis, onto: bool) -> list[tuple]:
    """The primitive multiple of each row's orthogonal projection onto
    span(basis) (`onto`) or onto its orthogonal complement.

    `basis` is independent and not empty.  With its Gram matrix G = B B^T
    and y = adj(G) B a, the projection of a onto span(B) is B^T y / det G
    and the one onto the complement a - B^T y / det G; det G > 0, so
    B^T y and det(G) a - B^T y are positive multiples of them.  For one
    or two basis rows the adjugate is written out; for more, one
    elimination of [G | B a ...] gives every y times a common scale.
    """
    k = len(basis)
    gram = [[sum(map(mul, u, v)) for v in basis] for u in basis]
    ts = [[sum(map(mul, b, a)) for b in basis] for a in rows]
    if k == 1:
        det, ys = gram[0][0], ts
    elif k == 2:
        (p, q), (_, r) = gram
        det = p * r - q * q
        ys = [(r * t - q * u, p * u - q * t) for t, u in ts]
    else:
        # row i is a positive multiple p_i of (e_i | row i of G^-1 B a ...)
        red, _ = _echelon([g + [t[i] for t in ts] for i, g in enumerate(gram)])
        det = math.lcm(*(red[i][i] for i in range(k)))
        ys = [[red[i][k + j] * (det // red[i][i]) for i in range(k)] for j in range(len(rows))]
    cols = list(zip(*basis))
    out = []
    for a, y in zip(rows, ys):
        z = [sum(map(mul, y, c)) for c in cols]
        if not onto:
            z = [det * x - w for x, w in zip(a, z)]
        g = math.gcd(*z)
        out.append(tuple(x // g for x in z))
    return out


def _span_complement(rays, tight, eqs, n: int) -> list[tuple]:
    """The equations of a face of a pointed cone with equations `eqs`: the
    sorted rows `_echelon` gives on a basis of span(rays)'s complement.

    `tight` are the cone's facets that hold the face.  The zero face has
    the unit rows.  A ray r has the rows of its reduced echelon form: with
    r_j the last nonzero entry, e_i for i > j and the primitive positive
    multiple of r_j e_i - r_i e_j for i < j.  A facet of a full-dimensional
    cone has its normal, led by a positive entry.  Every other face takes
    one elimination of the equations and the facets.
    """
    if not rays:
        return sorted(map(tuple, int_identity(n)))
    if len(rays) == 1:
        r = rays[0]
        j = max(i for i, x in enumerate(r) if x)
        rj = r[j]
        out = []
        for i in range(n):
            if i == j:
                continue
            row = [0] * n
            if i < j and r[i]:
                g = math.gcd(rj, r[i]) * (1 if rj > 0 else -1)
                row[i], row[j] = rj // g, -r[i] // g
            else:
                row[i] = 1
            out.append(tuple(row))
        return sorted(out)
    if not eqs and len(tight) == 1:
        a = tight[0]
        return [a if next(x for x in a if x) > 0 else tuple(-x for x in a)]
    return sorted(_echelon([*eqs, *tight])[0])


def _mix_basis(coords, basis) -> tuple:
    """The combination of the basis vectors with the given coefficients."""
    out = [0] * len(basis[0])
    for c, b in zip(coords, basis):
        if c:
            out = [x + c * y for x, y in zip(out, b)]
    return tuple(out)


def _face_sets(cone: "Cone") -> list[int]:
    """Ray index sets of all faces of a canonical cone, the full set first,
    each an `int` bit mask, bit i for `cone.rays[i]` (`_members` lists them).

    Every face is cut out by the facets containing it, so its ray set is the
    intersection of their masks in the cone's incidence (`Cone._incidence`),
    and distinct faces have distinct sets (Fukuda-Prodon, "Double
    description method revisited", 1996).
    """
    incidence = cone._incidence()
    seen = dict.fromkeys([(1 << len(cone.rays)) - 1])
    frontier = list(seen)
    while frontier:
        nxt = []
        for s in frontier:
            for f in incidence:
                t = s & f
                if t not in seen:
                    seen[t] = None
                    nxt.append(t)
        frontier = nxt
    return list(seen)


def _members(s: int) -> list[int]:
    """The indices in the bit mask s, ascending."""
    return [i for i in range(s.bit_length()) if s >> i & 1]


def _transposed(masks, size: int) -> list[int]:
    """`size` masks, bit j of mask i set when bit i of masks[j] is."""
    out = [0] * size
    for j, t in enumerate(masks):
        for i in _members(t):
            out[i] |= 1 << j
    return out


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


class Cone(_Frozen):
    """Rational polyhedral cone, canonical on both sides.

    A cone is read-only, so one object serves every construction of it: the
    memo (`_canonical`) hands out the same `Cone` for one key, and the cone
    keeps what it computes once in its last five slots: its dual, its hash,
    the polyhedron homogenized to it (see `Polyhedron`), its ray-facet
    incidence (`_incidence`) and the results of operations asked of it
    more than once (`_keep`): `as_polyhedron`, faces, images, and, as a
    polyhedron's `hom`, that polyhedron's faces, images, fiber slices,
    chamber complexes, duals and complex validations.
    """

    __slots__ = ("n", "rays", "lines", "ineqs", "eqs", "_dual", "_hash", "_poly", "_inc", "_kept")

    def __init__(self, n, rays, lines, ineqs, eqs):
        self._init(n, tuple(rays), tuple(lines), tuple(ineqs), tuple(eqs), None, None, None, None, None)

    @classmethod
    def from_rays(cls, rays, lines=(), n=None) -> "Cone":
        rays, lines = list(rays), list(lines)
        n = _ambient(n, rays + lines, "the zero cone")
        return _canonical(n, _primitive_rows(rays), _primitive_rows(lines))

    @classmethod
    def from_inequalities(cls, ineqs, eqs=(), n=None) -> "Cone":
        ineqs, eqs = list(ineqs), list(eqs)
        n = _ambient(n, ineqs + eqs, "the full cone")
        return _cut(n, _primitive_rows(ineqs), _primitive_rows(eqs))

    @classmethod
    def zero(cls, n: int) -> "Cone":
        return _canonical(n, (), ())

    def __eq__(self, other):
        return isinstance(other, Cone) and (
            self is other
            or (self.n == other.n and self.rays == other.rays and self.lines == other.lines)
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.rays, self.lines))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Cone(rays={[tuple(map(str, r)) for r in self.rays]}, lines={len(self.lines)})"

    def dual(self) -> "Cone":
        # facets of a canonical cone are the extreme rays of its dual and
        # vice versa, so the stored data swaps sides directly; every field is
        # already sorted, since each construction goes through `_canonical`.
        # The two cones keep each other.
        d = self._dual
        if d is None:
            d = Cone(self.n, self.ineqs, self.eqs, self.rays, self.lines)
            object.__setattr__(d, "_dual", self)
            object.__setattr__(self, "_dual", d)
        return d

    def _incidence(self) -> list[int]:
        """The ray-facet incidence: per facet, in the order of `ineqs`, an
        `int` bit mask with bit i set when `rays[i]` lies on it.  Computed on
        first use and kept; faces, fiber slices and face tests read it."""
        inc = self._inc
        if inc is None:
            inc = [sum(1 << i for i, r in enumerate(self.rays) if not sum(map(mul, a, r))) for a in self.ineqs]
            object.__setattr__(self, "_inc", inc)
        return inc

    def _keep(self, key, compute):
        """The result of a pure operation on the cone, `compute()`, kept in
        `_kept` under `key`: the operation's name, its normalized integer
        arguments and the cones of its other inputs.  The first request of a key only notes it, so a cone
        asked once keeps no result; from the second request on the result
        is kept and handed out.  A result is read-only or a tuple, and
        never None."""
        kept = self._kept
        if kept is None:
            kept = {}
            object.__setattr__(self, "_kept", kept)
        out = kept.get(key)
        if out is None:
            out = compute()
            kept[key] = out if key in kept else None
        return out

    def _carrier(self, points) -> list[tuple]:
        """The rays of the least face that holds the points, which lie in the
        cone: the rays on every facet that is 0 on all of the points."""
        s = (1 << len(self.rays)) - 1
        for a, f in zip(self.ineqs, self._incidence()):
            if not any(sum(map(mul, a, x)) for x in points):
                s &= f
        return [self.rays[i] for i in _members(s)]

    def contains(self, x) -> bool:
        if len(x) != self.n:
            raise AmbientMismatch(f"point has {len(x)} entries, the cone lives in Q^{self.n}")
        x = _cleared(x)[0]
        return all(sum(map(mul, a, x)) >= 0 for a in self.ineqs) and not any(
            sum(map(mul, a, x)) for a in self.eqs
        )

    def contains_cone(self, other: "Cone") -> bool:
        if other.n != self.n:
            raise AmbientMismatch(f"a cone in Q^{other.n} is tested in one in Q^{self.n}")
        return self._contains_gens(other.rays, other.lines)

    def _contains_gens(self, rays, lines) -> bool:
        """Whether pos(rays) + span(lines) lies in the cone; the generators
        are integer, so the dot products are compared as they are."""
        ineqs, eqs = self.ineqs, self.eqs
        return (
            all(sum(map(mul, a, r)) >= 0 for r in rays for a in ineqs)
            and not any(sum(map(mul, a, l)) for l in lines for a in ineqs)
            and not any(sum(map(mul, a, g)) for a in eqs for g in (*rays, *lines))
        )

    def is_pointed(self) -> bool:
        return not self.lines

    def dim(self) -> int:
        # the equations of a canonical cone are a basis of its span's complement
        return self.n - len(self.eqs)

    def is_fulldim(self) -> bool:
        return self.dim() == self.n

    def relint_point(self) -> tuple:
        """The sum of the rays: an integer point of the relative interior."""
        return tuple(sum(r[i] for r in self.rays) for i in range(self.n))

    def as_polyhedron(self) -> "Polyhedron":
        return Polyhedron(self.n, self._keep("as_polyhedron", self._hom))

    def _hom(self) -> "Cone":
        """The homogenization of the cone as a polyhedron: the apex (0, 1)
        and the rays (r, 0), sorted, and the lines (l, 0) are the key
        `from_generators` would normalize them to."""
        n = self.n
        gens = tuple(sorted([(0,) * n + (1,), *(r + (0,) for r in self.rays)]))
        return _canonical(n + 1, gens, tuple(l + (0,) for l in self.lines))

    def intersect(self, other: "Cone") -> "Cone":
        if self.n != other.n:
            raise AmbientMismatch("cone ambient dimensions differ")
        return _cut(self.n, _merged(self.ineqs, other.ineqs), _merged(self.eqs, other.eqs))

    def faces(self) -> list["Cone"]:
        """All faces, the cone itself first."""
        return [self, *self._keep("faces", self._proper_faces)]

    def _proper_faces(self) -> tuple["Cone", ...]:
        return tuple(self._face(s) for s in _face_sets(self)[1:])

    def _face(self, s) -> "Cone":
        """The face on the ray index set `s`, a bit mask, read off the
        incidence (`_incidence`) with no DD; its fields are those `from_rays`
        gives.

        Its rays are the generators in `s` and its lines the cone's.  Its
        equations cut out the span: the cone's equations and the facets
        tight on all of `s` (`_span_complement`).  Its facets are its
        maximal proper faces, each cut out by one facet of the cone, whose
        normal goes to the representative the DD on the face's generators
        gives.  On a pointed cone that is the normal's orthogonal
        projection onto span(F), the only one of its class that lies there.
        It is taken on the side with fewer rows: onto the rays when the face
        is simplicial and dim F <= codim F, else off the equations
        (`_projections`); in Q^5 and below one side has at most two rows.
        """
        n, lines, incidence = self.n, self.lines, self._incidence()
        rays = [self.rays[i] for i in _members(s)]
        tight = [a for a, f in zip(self.ineqs, incidence) if s & f == s]
        cut = {}
        for a, f in zip(self.ineqs, incidence):
            t = s & f
            if t != s:
                cut.setdefault(t, a)
        # the maximal cut sets, largest first: a set lies in a larger one
        # exactly when it lies in a maximal one, which is kept already
        kept = []
        for t in sorted(cut, key=int.bit_count, reverse=True):
            if not any(t & u == t for u in kept):
                kept.append(t)
        normals = [cut[t] for t in kept]
        if lines:
            eqs = sorted(_echelon([*self.eqs, *tight])[0])
            ineqs = sorted(_representatives(normals, eqs, rays, lines, n))
            rays = sorted(_representatives(rays, lines, ineqs, eqs, n))
        else:
            eqs = _span_complement(rays, tight, self.eqs, n)
            if not normals:
                ineqs = []
            elif len(rays) == n - len(eqs) <= len(eqs):
                ineqs = sorted(_projections(normals, rays, True))
            else:
                ineqs = sorted(_projections(normals, eqs, False))
        return Cone(n, rays, lines, ineqs, eqs)

    def map_image(self, rows) -> "Cone":
        _ambient(self.n, rows)
        rows = tuple(map(tuple, _cleared_rows(rows)))

        def image():
            return Cone.from_rays(_apply(rows, self.rays), _apply(rows, self.lines), len(rows))

        return self._keep(("map_image", rows), image)


def _ambient(n, rows, what: str = "") -> int:
    """The ambient dimension: `n`, or the length of the first row when `n`
    is None; a row of another length raises `AmbientMismatch`."""
    if n is None:
        if not rows:
            raise ValueError(f"ambient dimension required for {what}")
        n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise AmbientMismatch(f"every row must have the ambient dimension {n}")
    return n


def _cut(n: int, ineqs: tuple, eqs: tuple) -> Cone:
    """{x : ineqs.x >= 0, eqs.x = 0} from rows that are `_primitive_rows`
    already: the kept dual of pos(ineqs) + span(eqs)."""
    return _canonical(n, ineqs, eqs).dual()


def _merged(*parts: tuple) -> tuple:
    """`_primitive_rows` of the rows of the parts, each `_primitive_rows`."""
    return tuple(sorted(set().union(*parts)))


def _cleared_rows(rows) -> list[tuple]:
    """The integer rows of a positive multiple of the map with rows `rows`,
    which has the same image on cones: every row, a homogenizing row too,
    is cleared by one common denominator; integer rows are that as they are."""
    if all(type(x) is int for r in rows for x in r):
        return rows
    cleared = [_cleared(r) for r in rows]
    d = math.lcm(*(dr for _, dr in cleared))
    return [tuple(x * (d // dr) for x in row) for row, dr in cleared]


def _apply(rows, gens) -> list[tuple]:
    """The images of the generators under the integer rows."""
    return [tuple(sum(map(mul, row, g)) for row in rows) for g in gens]


def dual_cone(c: Cone) -> Cone:
    return c.dual()


# ---------------------------------------------------------------------------
# polyhedra
# ---------------------------------------------------------------------------


def _hom_rows(pairs) -> list[tuple]:
    """The integer rows on (x, 1) of the pairs (a, b) for <a, x> >= b or == b."""
    rows = [_cleared((*a, b))[0] for a, b in pairs]
    return [r[:-1] + (-r[-1],) for r in rows]


class Polyhedron(_Frozen):
    """Rational polyhedron P in Q^n, stored as its homogenization.

    `hom` is the canonical cone over P x {1} in Q^(n+1): a vertex X/d is
    the ray (X, d), a ray or line r of P is (r, 0), and the empty polyhedron
    is the zero cone.  Equality, containment, faces and intersection are
    those of `hom`.  The views are read off it on first access and kept in
    their slots: `vertices` are the canonical minimal-face representatives
    (orthogonal to the lineality space), `rays` the extreme ray directions
    modulo lineality, `lines` a canonical lineality basis; `ineqs` are
    (a, b) pairs meaning <a, x> >= b, `eqs` the same with equality.

    A polyhedron is read-only.  From its second construction on, `hom`
    keeps the polyhedron built over it, and `Polyhedron(n, hom)` returns
    that one object, views and all; a cone built once keeps none, so
    one-shot constructions cost no memory (see `DD_CACHE_SIZE`).
    """

    __slots__ = ("n", "hom", "empty", "vertices", "rays", "lines", "ineqs", "eqs", "_tail")

    def __new__(cls, n: int, hom: Cone):
        kept = hom._poly
        if kept:
            return kept
        # a cone without a vertex ray lies in t = 0: P is empty
        empty = not any(r[n] for r in hom.rays)
        if empty and (hom.rays or hom.lines):
            return cls(n, Cone.zero(n + 1))
        p = object.__new__(cls)
        p._init(n, hom, empty)
        # None: no polyhedron built over hom yet; False: one, not kept
        object.__setattr__(hom, "_poly", False if kept is None else p)
        return p

    def __init__(self, n: int, hom: Cone):
        # `__new__` sets the fields, or hands out the polyhedron kept on hom
        pass

    def __getattr__(self, name):
        # only an unset slot gets here: a view not read yet
        view = _VIEWS.get(name)
        if view is None:
            raise AttributeError(name)
        value = view(self.hom, self.n)
        object.__setattr__(self, name, value)
        return value

    # -- construction --------------------------------------------------

    @classmethod
    def empty_polyhedron(cls, n: int) -> "Polyhedron":
        return cls(n, Cone.zero(n + 1))

    @classmethod
    def from_generators(cls, vertices, rays=(), lines=(), n=None) -> "Polyhedron":
        vertices, rays, lines = list(vertices), list(rays), list(lines)
        n = _ambient(n, vertices + rays + lines, "empty input")
        # a vertex v = X / d homogenizes to the positive multiple (X, d) of (v, 1)
        gens = [x + (d,) for x, d in map(_cleared, vertices)]
        gens += [_cleared(r)[0] + (0,) for r in rays]
        lines = [_cleared(l)[0] + (0,) for l in lines]
        return cls(n, _canonical(n + 1, _primitive_rows(gens), _primitive_rows(lines)))

    @classmethod
    def from_H(cls, ineqs, eqs=(), n=None) -> "Polyhedron":
        """ineqs/eqs are (a, b) pairs encoding <a, x> >= b resp. == b."""
        ineqs, eqs = list(ineqs), list(eqs)
        n = _ambient(n, [a for a, _ in ineqs + eqs], "the full space")
        rows = _hom_rows(ineqs) + [(0,) * n + (1,)]
        return cls(n, _cut(n + 1, _primitive_rows(rows), _primitive_rows(_hom_rows(eqs))))

    @classmethod
    def point(cls, p) -> "Polyhedron":
        p = tuple(p)
        return cls.from_generators([p], n=len(p))

    # -- basics ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polyhedron):
            return NotImplemented
        return self.hom == other.hom

    def __hash__(self):
        return hash(self.hom)

    def __repr__(self):
        if self.empty:
            return f"Polyhedron.empty({self.n})"
        def fmt(v):
            return "(" + ",".join(str(x) for x in v) + ")"
        s = "conv{" + ", ".join(fmt(v) for v in self.vertices) + "}"
        if self.rays:
            s += " + pos{" + ", ".join(fmt(r) for r in self.rays) + "}"
        if self.lines:
            s += " + span{" + ", ".join(fmt(l) for l in self.lines) + "}"
        return s

    def dim(self) -> int:
        return self.hom.dim() - 1

    def tail(self) -> Cone:
        if self.empty:
            raise ValueError("tailcone of the empty polyhedron is undefined")
        return self._tail

    def is_pointed(self) -> bool:
        return not self.lines

    def is_bounded(self) -> bool:
        return not self.empty and not self.rays and not self.lines

    def contains_point(self, x) -> bool:
        return self._holds(*_cleared(x))

    def _holds(self, x, d: int) -> bool:
        """Whether the point x / d, cleared (`_cleared`), lies in P: whether
        `hom` holds the ray (x, d)."""
        if len(x) != self.n:
            raise AmbientMismatch(f"point has {len(x)} entries, the polyhedron lives in Q^{self.n}")
        return self.hom._contains_gens(((*x, d),), ())

    def _vertex_min(self, x, d: int = 1) -> Fraction:
        """The least <v, x / d> over the vertices v of a nonempty P, on the
        vertex rays (X, t) of `hom`: the least <X, x> / (t d)."""
        n = self.n
        # zip stops at x's n entries, before the last entry t of (X, t)
        return _least((sum(map(mul, r, x)), r[n] * d) for r in self.hom.rays if r[n])

    def contains(self, other: "Polyhedron") -> bool:
        if other.n != self.n:
            raise AmbientMismatch(f"a polyhedron in Q^{other.n} is tested in one in Q^{self.n}")
        return self.hom._contains_gens(other.hom.rays, other.hom.lines)

    def relint_point(self) -> Vec:
        """The average of the vertices plus the sum of the rays."""
        x, d = self._relint()
        return tuple(Fraction(v, d) for v in x)

    def _relint(self) -> tuple[tuple, int]:
        """`relint_point` cleared, on the rays of `hom`: with the vertices
        X_i / t_i, k of them, and m = lcm(t_i), the point is
        (sum X_i (m / t_i) + k m sum r) / (k m)."""
        if self.empty:
            raise ValueError("empty polyhedron has no relative interior")
        n, gens = self.n, self.hom.rays
        verts = [g for g in gens if g[n]]
        m = math.lcm(*(g[n] for g in verts))
        d = len(verts) * m
        x = [sum(g[i] * (m // g[n]) for g in verts) + d * sum(g[i] for g in gens if not g[n]) for i in range(n)]
        g = math.gcd(*x, d)
        return tuple(v // g for v in x), d // g

    # -- calculus --------------------------------------------------------

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.n != other.n:
            raise AmbientMismatch("polyhedra live in different ambient spaces")
        return Polyhedron(self.n, self.hom.intersect(other.hom))

    def minkowski(self, other: "Polyhedron") -> "Polyhedron":
        if self.n != other.n:
            raise AmbientMismatch("polyhedra live in different ambient spaces")
        if self.empty or other.empty:
            return Polyhedron.empty_polyhedron(self.n)
        return self._moved(other.hom.rays, other.hom.lines)

    def translate(self, w) -> "Polyhedron":
        w = tuple(w)
        if len(w) != self.n:
            raise AmbientMismatch(f"shift has {len(w)} entries, the polyhedron lives in Q^{self.n}")
        if self.empty:
            return self
        x, d = _cleared(w)
        return self._moved([(*x, d)], ())

    def _moved(self, gens, lines: tuple) -> "Polyhedron":
        """The sum of P and the polyhedron whose `hom` has the rays `gens`
        and the lines `lines`, taken on integer rays: the vertices X1/d1
        and X2/d2 sum to the ray (X1 d2 + X2 d1, d1 d2), and the rays and
        lines of both are kept.  These are the rows `from_generators` would
        make of the sum, up to positive scaling."""
        n, hom = self.n, self.hom
        rows = [r for r in (*hom.rays, *gens) if not r[n]]
        rows += [
            (*(x * w[n] + y * v[n] for x, y in zip(v[:n], w[:n])), v[n] * w[n])
            for v in hom.rays
            if v[n]
            for w in gens
            if w[n]
        ]
        return Polyhedron(n, _canonical(n + 1, _primitive_rows(rows), _merged(hom.lines, lines)))

    def scale(self, s) -> "Polyhedron":
        """s*P for s > 0; for s = 0 the tail polyhedron (the limit)."""
        if self.empty:
            return self
        s = frac(s)
        if s < 0:
            raise ValueError("only nonnegative scaling is defined here")
        if s == 0:
            return Polyhedron.from_generators([zero_vec(self.n)], self.rays, self.lines, self.n)
        return Polyhedron.from_generators(
            [tuple(s * x for x in v) for v in self.vertices], self.rays, self.lines, self.n
        )

    def map_image(self, rows, shift=None) -> "Polyhedron":
        """Image under x -> A x (+ shift): the image of `hom` under
        (x, t) -> (A x + t shift, t)."""
        m = len(rows)
        _ambient(self.n, rows)
        shift = (0,) * m if shift is None else shift
        _ambient(m, [shift])
        hom_rows = [(*r, s) for r, s in zip(rows, shift)] + [(0,) * self.n + (1,)]
        return Polyhedron(m, self.hom.map_image(hom_rows))

    def preimage(self, rows, source_dim: int) -> "Polyhedron":
        """Preimage under x -> A x (A has len(rows) = self.n rows)."""
        n = self.n
        if len(rows) != n:
            raise AmbientMismatch(f"the map must have {n} rows, one per coordinate of Q^{n}")
        _ambient(source_dim, rows)
        cols = [tuple(r[j] for r in rows) for j in range(source_dim)]

        def pull(a):
            # <a, (A x, t)> as a row on (x, t)
            return mat_vec(cols, a[:n]) + (a[n],)

        hom = Cone.from_inequalities(
            [pull(a) for a in self.hom.ineqs], [pull(a) for a in self.hom.eqs], source_dim + 1
        )
        return Polyhedron(source_dim, hom)

    def slice_at(self, functional, value) -> "Polyhedron":
        """Intersection with the hyperplane <functional, x> = value."""
        return self.with_equalities([(functional, value)])

    def with_equalities(self, eqs) -> "Polyhedron":
        """Intersection with the hyperplanes <a, x> = b of the pairs (a, b)."""
        eqs = list(eqs)
        _ambient(self.n, [a for a, _ in eqs])
        hom = self.hom
        eqs = _merged(hom.eqs, _primitive_rows(_hom_rows(eqs)))
        return Polyhedron(self.n, _cut(self.n + 1, hom.ineqs, eqs))

    # -- faces -----------------------------------------------------------

    def is_face_of(self, other: "Polyhedron") -> bool:
        if not other.contains(self):
            return False
        if self.empty:
            return True
        # self.hom lies in the least face of other.hom that holds its rays,
        # and is a face exactly when it holds that face's generators
        hom = other.hom
        return self.hom._contains_gens(hom._carrier(self.hom.rays), hom.lines)

    def faces(self) -> list["Polyhedron"]:
        """All nonempty faces, the polyhedron itself first."""
        if self.empty:
            return []
        return [self, *self.hom._keep("polyhedron faces", self._proper_faces)]

    def _proper_faces(self) -> tuple["Polyhedron", ...]:
        hom, n = self.hom, self.n
        # generator sets without a vertex are faces at infinity of the
        # homogenized cone, not faces of the polyhedron
        vertex_bits = sum(1 << i for i, r in enumerate(hom.rays) if r[n])
        return tuple(Polyhedron(n, hom._face(s)) for s in _face_sets(hom)[1:] if s & vertex_bits)

    # -- lattice points ----------------------------------------------------

    def lattice_points(self) -> list[Vec]:
        """All integer points, as sorted `int` tuples; requires boundedness."""
        if self.empty:
            return []
        if self.rays or self.lines:
            raise ValueError("lattice point enumeration needs a bounded polyhedron")
        bounds = []
        for i in range(self.n):
            vals = [v[i] for v in self.vertices]
            bounds.append((min(vals), max(vals)))
        ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in bounds]
        return [pt for pt in itertools.product(*ranges) if self.contains_point(pt)]

    def lattice_window(self, ray_steps: int = 1) -> list[Vec]:
        """Lattice points of conv(vertices) + ray_steps * (unit ray zonotope).

        For bounded polyhedra this is just `lattice_points`.  The window is a
        canonical finite probe set for searches over unbounded domains.
        """
        if self.empty:
            return []
        box = Polyhedron.from_generators(self.vertices, n=self.n)
        for g in (*self.rays, *self.lines, *(tuple(-x for x in l) for l in self.lines)):
            step = tuple(ray_steps * x for x in g)
            box = box.minkowski(Polyhedron.from_generators([(0,) * self.n, step], n=self.n))
        return [p for p in box.lattice_points() if self.contains_point(p)]


# The views of a polyhedron P in Q^n, read off its `hom`.
_VIEWS = {
    "vertices": lambda hom, n: tuple(
        sorted(tuple(Fraction(x, r[n]) for x in r[:n]) for r in hom.rays if r[n])
    ),
    "rays": lambda hom, n: tuple(r[:n] for r in hom.rays if not r[n]),
    "lines": lambda hom, n: tuple(l[:n] for l in hom.lines),
    # the row (0, 1) of t >= 0 is no inequality of P
    "ineqs": lambda hom, n: tuple(
        sorted((a[:n], -a[n]) for a in hom.ineqs if any(a[:n]))
    ),
    # the equations of the zero cone say nothing of the empty polyhedron
    "eqs": lambda hom, n: tuple(sorted((a[:n], -a[n]) for a in hom.eqs)) if hom.rays else (),
    # the tail cone, whose key is the `rays` and `lines` views as they are
    "_tail": lambda hom, n: _canonical(n, _VIEWS["rays"](hom, n), _VIEWS["lines"](hom, n)),
}


# ---------------------------------------------------------------------------
# operations of the module surface
# ---------------------------------------------------------------------------


def hull(vertices, rays=(), n=None) -> Polyhedron:
    return Polyhedron.from_generators(vertices, rays, (), n)


def minkowski_sum(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    return a.minkowski(b)


def map_fiber_slice(p: Polyhedron, rows, target_point, retraction_rows) -> Polyhedron:
    """The image under x -> R x (R = `retraction_rows`) of the fiber
    p ∩ {x : A x = target} (A = `rows`): the fibers of Billera-Sturmfels,
    "Fiber polytopes", 1992.

    The fiber is not built: an extreme ray of C ∩ L, L of codimension r,
    lies in a face of the cone C of dimension at most r + 1, so the
    generators of the fiber's homogenization come from `p.hom` by one step
    per equation (`_fiber_generators`).  Their image is the one
    construction.
    """
    if len(rows) != len(target_point):
        raise AmbientMismatch("the fiber needs one target value per row")
    n = p.n
    _ambient(n, rows)
    _ambient(n, retraction_rows)
    m = len(retraction_rows)
    eqs = tuple(_hom_rows(zip(rows, target_point)))
    hrows = tuple(_cleared_rows([(*r, 0) for r in retraction_rows] + [(0,) * n + (1,)]))

    def image():
        gens, lines = _fiber_generators(p.hom, eqs)
        # the vertex rays (X, t), t > 0, of the fiber's homogenization
        if not any(g[n] for g in gens):
            return Cone.zero(m + 1)
        return Cone.from_rays(_apply(hrows, gens), _apply(hrows, lines), m + 1)

    return Polyhedron(m, p.hom._keep(("map_fiber_slice", eqs, hrows), image))


def _fiber_generators(hom: Cone, eqs) -> tuple[list[tuple], list[tuple]]:
    """Rays and lines that generate hom ∩ {x : <e, x> = 0 for e in eqs},
    from the extreme rays, lines and incidence of the canonical cone `hom`,
    with no construction; the rays are the extreme ones.

    Each equation e is one of two steps.  When a line l0 has <e, l0> = c0
    > 0 (negated if need be), every other generator g moves into the
    hyperplane as c0 g - <e, g> l0; the facets are 0 on l0, so the tight
    sets stay.  Otherwise e is 0 on every line and takes the DD's row step
    as an equation (`_dd_step`).  A 2-face of the cone cut by k such
    equations lies in a face of `hom` of dimension at most k + 2 modulo the
    lineality space, so two adjacent rays share at least d - 2 - k facets of
    `hom`, d = dim(hom) - dim(lines).
    """
    rays, lines = list(hom.rays), list(hom.lines)
    tight = _transposed(hom._incidence(), len(rays))
    least = hom.dim() - len(lines) - 2
    for e in eqs:
        lvals = [sum(map(mul, e, l)) for l in lines]
        k = next((i for i, v in enumerate(lvals) if v), None)
        if k is not None:
            c0, l0 = lvals.pop(k), lines.pop(k)
            if c0 < 0:
                c0, l0 = -c0, tuple(-x for x in l0)
            rays = [_shifted(g, c0, sum(map(mul, e, g)), l0) for g in rays]
            lines = [_shifted(l, c0, v, l0) for l, v in zip(lines, lvals)]
            continue
        rays, tight = _dd_step(rays, tight, e, least, 0)
        least -= 1
    return rays, lines


def _shifted(g, c0: int, v: int, l0) -> tuple:
    """The primitive row on c0 g - v l0: g moved along l0 into the
    hyperplane of a row e with <e, l0> = c0 > 0 and <e, g> = v."""
    return _int_row([c0 * x - v * y for x, y in zip(g, l0)])


class PolyhedralComplex(_Frozen):
    """Finite polyhedral complex, stored by its maximal cells; read-only, so
    a cone can keep one (`chamber_complex`)."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        cells = {c for c in cells if not c.empty}
        # keep each cell no other cell contains: distinct cells are unequal
        self._init(tuple(sorted(
            (c for c in cells if not any(d is not c and d.contains(c) for d in cells)), key=_cell_key
        )))

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return f"PolyhedralComplex({len(self.cells)} maximal cells)"

    def __iter__(self):
        return iter(self.cells)

    def validate(self):
        cells = self.cells
        if len(cells) > 1:
            cells[0].hom._keep(("validate", tuple(c.hom for c in cells[1:])), self._validated)

    def _validated(self) -> bool:
        for a, b in itertools.combinations(self.cells, 2):
            i = a.intersect(b)
            if i.empty:
                continue
            if not (i.is_face_of(a) and i.is_face_of(b)):
                raise ValueError(
                    f"cells intersect in a non-face: {a!r} vs {b!r}"
                )
        return True

    def all_faces(self) -> list[Polyhedron]:
        seen = {}
        for c in self.cells:
            for f in c.faces():
                seen[f] = None
        return list(seen)

    def vertices(self) -> list[Vec]:
        out = {}
        for c in self.cells:
            if c.lines:
                continue
            for v in c.vertices:
                out[v] = None
        return sorted(out)

    def rays(self) -> list[Vec]:
        out = {}
        for c in self.cells:
            t = c.tail()
            for r in t.rays:
                out[r] = None
        return sorted(out)


def _cell_key(c: Polyhedron):
    return (c.vertices, c.rays, c.lines)


def common_refinement(complexes) -> PolyhedralComplex:
    """Cells are the nonempty intersections, one maximal cell per complex."""
    complexes = list(complexes)
    if not complexes:
        return PolyhedralComplex([])
    cells = list(complexes[0].cells)
    for other in complexes[1:]:
        cells = [
            a.intersect(b) for a in cells for b in other.cells
        ]
        cells = [c for c in cells if not c.empty]
    return PolyhedralComplex(cells)


def _projected_faces(p: Polyhedron, rows) -> list[Polyhedron]:
    """The distinct images of the nonempty faces of `p` under the linear map
    with rows `rows`, sorted by their integer data.

    A face is its generator set on the incidence of `p.hom` (`_face_sets`),
    so the generators of `hom` are mapped once and no face is built; faces
    with the same image generators give one construction.
    """
    m, hom, n = len(rows), p.hom, p.n
    hrows = _cleared_rows([(*r, 0) for r in rows] + [(0,) * n + (1,)])
    gens = _apply(hrows, hom.rays)
    lines = _primitive_rows(_apply(hrows, hom.lines))
    vertex_bits = sum(1 << i for i, r in enumerate(hom.rays) if r[n])
    # a set without a vertex is a face at infinity of `hom`, none of p
    keys = {_primitive_rows(gens[i] for i in _members(s)) for s in _face_sets(hom) if s & vertex_bits}
    family = {Polyhedron(m, _canonical(m + 1, key, lines)) for key in keys}
    return sorted(family, key=lambda f: (f.hom.rays, f.hom.lines))


def chamber_complex(p: Polyhedron, rows) -> PolyhedralComplex:
    """Chamber complex of the images of all faces of the polyhedron `p`
    under the linear map with rows `rows`, each of `p.n` entries
    (Billera-Sturmfels, "Fiber polytopes", 1992): its cells are the chambers
    of the generic points of the image.  On one row they are the gaps
    between consecutive vertex images (`_line_chambers`); on two or more
    rows a walk across their facets finds them, since they tile the convex
    image face to face (`_chamber_walk`).  A `p` that is not a `Polyhedron`,
    such as a list of them, raises `TypeError`.
    """
    if not isinstance(p, Polyhedron):
        raise TypeError(f"chamber_complex takes a Polyhedron, not {type(p).__name__}")
    _ambient(p.n, rows)
    if p.empty:
        return PolyhedralComplex([])

    def chambers():
        if len(rows) == 1:
            return PolyhedralComplex(_line_chambers(p, rows[0]))
        return _chamber_walk(p, rows)

    return p.hom._keep(("chamber_complex", tuple(map(_cleared, rows))), chambers)


def _line_chambers(p: Polyhedron, row) -> list[Polyhedron]:
    """The cells of `chamber_complex` of a nonempty `p` under x -> <row, x>:
    Q when a line maps onto it, else the gaps between consecutive vertex
    images, unbounded beyond an end that a ray maps past, or the one vertex
    image.  Each gap is the chamber of its points: among the face images
    holding a point x of it, the edges (or rays) that leave the vertices at
    its two ends towards x hold it (simplex method: a vertex off the optimum
    has an improving edge or ray), so their intersection is its closure.
    """
    row, d = _cleared(row)
    hom = p.hom
    # `row` has n entries, so <row, g> reads the x of a generator (x, t)
    if any(sum(map(mul, row, l)) for l in hom.lines):
        return [_line_cell(None, None)]
    points, below, above = set(), False, False
    for g in hom.rays:
        v, t = sum(map(mul, row, g)), g[-1]
        if t:
            points.add(Fraction(v, d * t))
        else:
            below, above = below or v < 0, above or v > 0
    ends = [None] * below + sorted(points) + [None] * above
    return [_line_cell(lo, hi) for lo, hi in zip(ends, ends[1:])] or [_line_cell(ends[0], ends[0])]


def _line_cell(lo, hi) -> Polyhedron:
    """The interval [lo, hi] of Q, unbounded at an end that is None."""
    if lo is None and hi is None:
        return Polyhedron(1, _canonical(2, ((0, 1),), ((1, 0),)))
    gens = {(-1, 0) if lo is None else (lo.numerator, lo.denominator)}
    gens.add((1, 0) if hi is None else (hi.numerator, hi.denominator))
    return Polyhedron(1, _canonical(2, tuple(sorted(gens)), ()))


def _chamber_walk(p: Polyhedron, rows) -> PolyhedralComplex:
    """`chamber_complex` of a nonempty `p` by a walk from chamber to chamber
    over its projected faces of the largest dimension k, as cones on `hom`.

    The chambers tile the convex image face to face, and each image is a
    union of them.  So past a facet {a = 0} of a chamber, at the sum x of
    its rays, lies the image's boundary or the one chamber cut out by the
    images that hold x and leave a >= 0 (a is not in their dual); crossing
    each facet of each chamber found reaches all (Avis-Fukuda, "Reverse
    search for enumeration", 1996); no chamber lies past the face at
    infinity, where x has t = 0.  The start is the first image cut down by
    each image that meets it in full dimension without holding it, so every
    image holds it or misses its interior.  Cells are canonical: the list
    of those found is the work list and the dedupe.
    """
    m = len(rows)
    top = [f.hom for f in _projected_faces(p, rows)]
    k = max(f.dim() for f in top)
    top = [f for f in top if f.dim() == k]
    c = top[0]
    for f in top[1:]:
        if not f._contains_gens(c.rays, c.lines) and (i := c.intersect(f)).dim() == k:
            c = i
    cells = [c]
    for c in cells:
        for a, s in zip(c.ineqs, c._incidence()):
            x = tuple(map(sum, zip(*(c.rays[i] for i in _members(s)))))
            if not x or not x[m]:
                continue
            beyond = [f.ineqs for f in top if f._contains_gens([x], ()) and not f.dual()._contains_gens([a], ())]
            if beyond and (d := _cut(m + 1, _merged(*beyond), c.eqs)) not in cells:
                cells.append(d)
    return PolyhedralComplex(Polyhedron(m, c) for c in cells)


def linearity_regions(pieces, domain: Polyhedron) -> PolyhedralComplex:
    """Subdivision of `domain` by the argmin regions of min-of-affine pieces.

    `pieces` is a list of (a, c) with the function x -> <a, x> + c; the cells
    are the maximal regions where one piece attains the minimum.
    """
    pieces = list(pieces)
    _ambient(domain.n, [a for a, _ in pieces])
    if domain.empty:
        return PolyhedralComplex([])
    if not pieces:
        raise NotConcave("no affine pieces supplied")
    return _regions({_cleared((*a, c)) for a, c in pieces}, domain)


def _regions(pieces, domain: Polyhedron) -> PolyhedralComplex:
    """`linearity_regions` of the cleared pieces: (a, c) = (A, C) / q as
    ((A, C), q), q > 0, on a nonempty domain.  A piece may come more than
    once, scaled or not: equal pieces cut out equal regions, which the
    complex keeps once."""
    pieces = list(pieces)
    n, hom, ddim = domain.n, domain.hom, domain.dim()
    regions = []
    for i, (xi, qi) in enumerate(pieces):
        # qi qj (<aj - ai, x> + (cj - ci) t) >= 0 and t >= 0 on (x, t) join
        # the domain's rows
        rows = [tuple(y * qi - x * qj for x, y in zip(xi, xj)) for j, (xj, qj) in enumerate(pieces) if j != i]
        ineqs = _merged(hom.ineqs, _primitive_rows([*rows, (0,) * n + (1,)]))
        reg = Polyhedron(n, _cut(n + 1, ineqs, hom.eqs))
        if not reg.empty and reg.dim() == ddim:
            regions.append(reg)
    return PolyhedralComplex(regions)


def normal_fan(polys, domain: Polyhedron) -> PolyhedralComplex:
    """Common refinement over `domain` of the regions where one vertex of
    each nonempty polyhedron of `polys` minimizes <v, u>; `domain` itself
    when all are empty."""
    fans = []
    for p in polys:
        if p.empty:
            continue
        if p.n != domain.n:
            raise AmbientMismatch(f"every row must have the ambient dimension {domain.n}")
        # a vertex X / t of p, the ray (X, t) of its `hom`, is the piece ((X, 0), t)
        fans.append(_regions([((*g[:-1], 0), g[-1]) for g in p.hom.rays if g[-1]], domain))
    return common_refinement(fans) if fans else PolyhedralComplex([domain])
