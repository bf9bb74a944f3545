"""Divisorial fans, invariant divisors, and the section machinery.

An invariant divisor on the variety of a contraction-free divisorial fan is
a coefficient vector indexed by tail rays and slice vertices.  It induces a
weight polyhedron (from the ray inequalities) and, per prime, a concave
piecewise-affine function (min over the vertex pieces); graded sections,
base-point-freeness and sharpness all run through that data.

Vertex coefficients are stored unweighted: the Weil coefficient of the
vertical prime at (P, v) is mu(v) * b_{P,v}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from ._record import _Record
from .base import (
    INF,
    BaseVariety,
    CurveFunction,
    QDivisor,
    SectionSpace,
    global_sections as base_global_sections,
    is_inf,
    order_along,
    point_label,
    spare_points,
)
from .errors import (
    AmbientMismatch,
    EmptyDomain,
    NotContractionFree,
    NotQCartier,
    UnsupportedBase,
    WeightOutsideBox,
)
from .linalg import F0, Vec, _cleared, _int_row, _kernel, _lattice_vector, _least, frac, int_identity, solve, vdot, vec, vsub, zero_vec
from .polyhedra import (
    Cone,
    PolyhedralComplex,
    Polyhedron,
    _cut,
    _merged,
    _primitive_rows,
    _regions,
)

# ---------------------------------------------------------------------------
# divisorial fans
# ---------------------------------------------------------------------------


class DivisorialFan:
    """Finite compatible set of polyhedral divisors on a common base.

    A fan is immutable.  It computes its contraction-freeness and, on a
    contraction-free fan, its index (`_own_index`: the tail rays as the
    tailfan's primitive `int` tuples and the slice vertices of each marked
    prime) on first use, and keeps them for every divisor on it.
    """

    def __init__(self, base: BaseVariety, members, semicomplete=None):
        self.base = base
        self.members = tuple(members)
        if not self.members:
            raise ValueError("a divisorial fan needs at least one member")
        self.n = self.members[0].n
        for m in self.members:
            if m.base != base or m.n != self.n:
                raise ValueError("members must share base and lattice")
        self.semicomplete = semicomplete
        marked = {label: None for m in self.members for label in m.coeffs}
        self._marked = tuple(sorted(marked, key=lambda l: l.id))
        self._contraction_free = None
        self._index = None
        self._slices = {}
        for label in self._marked:
            cells = []
            for m in self.members:
                p = m.coefficient(label)
                if not p.empty:
                    cells.append(p)
            self._slices[label] = PolyhedralComplex(cells)
            self._slices[label].validate()
        self._tailfan = PolyhedralComplex([m.tail.as_polyhedron() for m in self.members])
        self._tailfan.validate()
        tail_faces = set(self._tailfan.all_faces())
        for label, sl in self._slices.items():
            for c in sl.cells:
                if c.tail().as_polyhedron() not in tail_faces:
                    raise ValueError(
                        f"slice cell tail at {label.id} missing from the tailfan"
                    )

    def marked_primes(self):
        return list(self._marked)

    def slice_of(self, label) -> PolyhedralComplex:
        if label in self._slices:
            return self._slices[label]
        return self._tailfan

    def is_contraction_free(self) -> bool:
        if self._contraction_free is None:
            self._contraction_free = all(self.member_locus_affine(m) for m in self.members)
        return self._contraction_free

    def _own_index(self):
        """(tail rays, slice vertices per marked prime) as tuples, the rays
        the tailfan's sorted primitive `int` tuples, the vertices in a
        read-only mapping: computed on first use and kept."""
        if self._index is None:
            if not self.is_contraction_free():
                raise NotContractionFree("invariant prime divisors need affine loci")
            verts = {label: tuple(self.vertices_of(label)) for label in self._marked}
            self._index = (tuple(self.rays()), MappingProxyType(verts))
        return self._index

    def member_locus_affine(self, member) -> bool:
        return self.base.locus_is_affine(member.empty_primes())

    def rays(self) -> list[Vec]:
        return self._tailfan.rays()

    def vertices_of(self, label) -> list[Vec]:
        return self.slice_of(label).vertices()

    def __eq__(self, other):
        return (
            isinstance(other, DivisorialFan)
            and self.base == other.base
            and set(self.members) == set(other.members)
        )

    def __hash__(self):
        return hash((self.base, frozenset(self.members)))

    def __repr__(self):
        return f"DivisorialFan({len(self.members)} members on {self.base.name})"


def contraction_free_refinement(fan: DivisorialFan) -> DivisorialFan:
    """Split members with non-affine locus, preserving all slices.

    Implemented for curve bases: a member without an empty coefficient is
    replaced by one copy per marked point, each with the empty set there (a
    fresh extra point is used when fewer than two points are marked).
    """
    from .pdivisor import PolyhedralDivisor

    if not fan.base.is_curve():
        raise UnsupportedBase("the splitting is implemented for curve bases")
    marked = [l for l in fan.marked_primes() if l.kind == "point"]
    if len(marked) < 2:
        marked = marked + [point_label(spare_points(marked)[0])]
    members = []
    for m in fan.members:
        if fan.member_locus_affine(m):
            members.append(m)
            continue
        for label in marked:
            coeffs = dict(m.coeffs)
            coeffs[label] = Polyhedron.empty_polyhedron(fan.n)
            members.append(PolyhedralDivisor(fan.base, fan.n, m.tail, coeffs))
    return DivisorialFan(fan.base, members, semicomplete=fan.semicomplete)


def invariant_prime_divisors(s: DivisorialFan):
    """(tail rays, slice vertices per marked prime) of a contraction-free fan,
    as lists read off the index the fan keeps (`DivisorialFan._own_index`).

    Every unmarked prime implicitly has the single vertex 0 of the trivial
    slice; those never carry nonzero data and are left implicit.
    """
    rays, verts = s._own_index()
    return list(rays), {label: list(vs) for label, vs in verts.items()}


def invariant_index(fan: DivisorialFan, rays=None, verts=None, primes=()):
    """The (rays, verts) that coefficient vectors on `fan` are indexed by.

    A missing `rays` or `verts` is the fan's own, kept on the fan
    (`DivisorialFan._own_index`).  On a contraction-free fan a given index
    must name exactly the fan's tail rays and the slice vertices of each
    marked prime; given rays (`NonIntegral` unless integral) come back as
    the fan's own `int` tuples, in the given order, and a part that is the
    fan's own object is taken without a comparison.  On another fan a given
    index is taken as it is, its rays as `int` tuples (`NonIntegral` unless
    integral).  An unmarked prime carries the trivial slice,
    whose only vertex is 0: it appears only with that vertex, and each
    unmarked prime in `primes` is added with it.
    """
    own_verts = {}
    if rays is None or verts is None or fan.is_contraction_free():
        own_rays, own_verts = fan._own_index()
        if rays is None:
            rays = own_rays
        elif rays is not own_rays:
            given = [_lattice_vector(r, "rays") for r in rays]
            if set(given) != set(own_rays):
                raise ValueError("rays differ from the tail rays of the fan")
            own = dict(zip(own_rays, own_rays))
            rays = tuple(own[r] for r in given)
        if verts is None:
            verts = own_verts
        else:
            for label, vs in own_verts.items():
                given = verts.get(label, ())
                if given is not vs and set(vs) != set(map(vec, given)):
                    raise ValueError(f"verts differ from the slice vertices of the marked prime {label.id}")
    else:
        rays = tuple(_lattice_vector(r, "rays") for r in rays)
    verts = {
        label: vs if vs is own_verts.get(label) else tuple(vec(v) for v in vs)
        for label, vs in verts.items()
    }
    marked = fan._slices  # keyed by the marked primes
    zero = zero_vec(fan.n)
    for label in primes:
        if label not in marked:
            verts.setdefault(label, (zero,))
    for label, vs in verts.items():
        if label not in marked and any(v != zero for v in vs):
            raise ValueError(f"the unmarked prime {label.id} has only the vertex 0")
    return rays, verts


def _index_items(rays, verts, ray_coeffs, vertex_coeffs, of: str = ""):
    """The items of `ray_coeffs` and `vertex_coeffs` keyed by the index
    (rays, verts): a ray key becomes the index's own ray, a vertex key
    (prime, `vec(v)`), and a key the index lacks raises ValueError.  Each
    key is checked as its iterator reaches it, in turn with a caller's
    value checks."""
    own = dict(zip(rays, rays))

    def ray(item):
        given, x = item
        r = own.get(tuple(given))
        if r is None:
            raise ValueError(f"({','.join(map(str, given))}) is not an invariant ray{of}")
        return r, x

    def vertex(item):
        (label, v), x = item
        key = (label, vec(v))
        if key[1] not in verts.get(label, ()):
            raise ValueError(f"({label.id}, {v}) is not an invariant vertex")
        return key, x

    return map(ray, (ray_coeffs or {}).items()), map(vertex, (vertex_coeffs or {}).items())


# ---------------------------------------------------------------------------
# invariant divisors
# ---------------------------------------------------------------------------


class TInvariantDivisor:
    """D = sum a_rho D_rho + sum mu(v) b_{P,v} D_{P,v} on X(S).

    The divisor is immutable: `ray_coeffs`, `vertex_coeffs` and `verts` are
    read-only mappings, so its Box and Psi (`box_and_psi`) are built once,
    on first use, and kept.
    """

    def __init__(self, fan: DivisorialFan, ray_coeffs=None, vertex_coeffs=None, rays=None, verts=None):
        self.fan = fan
        self.rays, verts = invariant_index(fan, rays, verts)
        self.verts = MappingProxyType(verts)
        ray_items, vertex_items = _index_items(self.rays, verts, ray_coeffs, vertex_coeffs)
        rc = dict.fromkeys(self.rays, F0)
        rc.update((r, frac(a)) for r, a in ray_items)
        self.ray_coeffs = MappingProxyType(rc)
        vc = {(label, v): F0 for label, vs in verts.items() for v in vs}
        vc.update((key, frac(b)) for key, b in vertex_items)
        self.vertex_coeffs = MappingProxyType(vc)
        self._psi = None

    def __eq__(self, other):
        return (
            isinstance(other, TInvariantDivisor)
            and self.fan == other.fan
            and self.ray_coeffs == other.ray_coeffs
            and self.vertex_coeffs == other.vertex_coeffs
        )

    def __hash__(self):
        return hash(
            (
                self.fan,
                tuple(sorted(self.ray_coeffs.items())),
                tuple(sorted((l.id, v, b) for (l, v), b in self.vertex_coeffs.items())),
            )
        )

    def add(self, other: "TInvariantDivisor") -> "TInvariantDivisor":
        rc = dict(self.ray_coeffs)
        for r, a in other.ray_coeffs.items():
            rc[r] = rc.get(r, Fraction(0)) + a
        vc = dict(self.vertex_coeffs)
        for k, b in other.vertex_coeffs.items():
            vc[k] = vc.get(k, Fraction(0)) + b
        verts = dict(self.verts)
        for label, vs in other.verts.items():
            if label not in verts:
                verts[label] = vs
        return TInvariantDivisor(self.fan, rc, vc, rays=self.rays, verts=verts)

    def scale(self, s) -> "TInvariantDivisor":
        s = frac(s)
        return TInvariantDivisor(
            self.fan,
            {r: s * a for r, a in self.ray_coeffs.items()},
            {k: s * b for k, b in self.vertex_coeffs.items()},
            rays=self.rays,
            verts=self.verts,
        )


def principal_invariant_divisor(fan: DivisorialFan, f, u) -> TInvariantDivisor:
    """Div(f chi^u): ray part <v_rho, u>, vertex part <v, u> + ord_P(f).

    Zeros and poles of f at unmarked points contribute through the trivial
    slice's vertex 0 there.
    """
    u = vec(u)
    if len(u) != fan.n:
        raise AmbientMismatch(f"weight has {len(u)} entries, the fan lives in Q^{fan.n}")
    primes = f.divisor(fan.base).coeffs if isinstance(f, CurveFunction) else ()
    rays, verts = invariant_index(fan, primes=primes)
    rc = {r: vdot(r, u) for r in rays}
    vc = {}
    for label, vs in verts.items():
        o = order_along(f, label)
        for v in vs:
            vc[(label, v)] = vdot(v, u) + o
    return TInvariantDivisor(fan, rc, vc, rays=rays, verts=verts)


# ---------------------------------------------------------------------------
# concave piecewise-affine machinery
# ---------------------------------------------------------------------------


class ConcavePL:
    """min of finitely many affine pieces restricted to a domain polyhedron.

    A function keeps its pieces as cleared integer rows: the piece
    u -> <a, u> + c with (a, c) = (A, C) / q as the row (A, -q, C), q > 0,
    which is the inequality q t <= <A, u> + C s of the hypograph on its
    homogenization (u, t, s).  It evaluates on these rows (`_at`).  The
    hypograph {(u,t) : u in dom, t <= value(u)} makes it canonical:
    equality of two of these is equality of functions with equal domains.
    The hypograph and the canonical `pieces`, read off its upper facets,
    are built on first use (equality, hash, `dualize`, `sup_convolve`) and
    kept; `from_hypograph` keeps a given hypograph and takes its upper
    facets as the rows.
    """

    __slots__ = ("domain", "_rows", "_hypo", "_pieces")

    def __init__(self, domain: Polyhedron, pieces):
        pieces = list(pieces)
        if not pieces:
            raise ValueError("a concave piece list must be nonempty")
        if domain.empty:
            raise EmptyDomain("a concave function needs a nonempty domain")
        n = domain.n
        if any(len(a) != n for a, _ in pieces):
            raise AmbientMismatch(f"every slope must have the domain's dimension {n}")
        self._start(domain, [_cleared((*a, -1, c))[0] for a, c in pieces])

    def _start(self, domain: Polyhedron, rows, hypo: Polyhedron | None = None):
        """Set up the function on a nonempty domain from its cleared piece
        rows (A, -q, C), at least one, and its hypograph if known."""
        self.domain = domain
        self._rows = rows
        self._hypo = hypo
        self._pieces = None

    @classmethod
    def _from_rows(cls, domain: Polyhedron, rows) -> "ConcavePL":
        f = cls.__new__(cls)
        f._start(domain, rows)
        return f

    @classmethod
    def from_hypograph(cls, hypo: Polyhedron) -> "ConcavePL":
        n = hypo.n - 1
        rows = [r for r in hypo.hom.ineqs if r[n] < 0]
        if not rows:
            raise ValueError("hypograph is not bounded above by affine pieces")
        f = cls.__new__(cls)
        f._start(hypo.map_image(int_identity(hypo.n)[:-1]), rows, hypo)
        return f

    @property
    def hypo(self) -> Polyhedron:
        hypo = self._hypo
        if hypo is None:
            # the hypograph's homogenization on (u, t, s): the domain's rows
            # with a 0 at t, which keeps them a sorted key, the piece rows
            # and s >= 0
            n, hom = self.domain.n, self.domain.hom
            ineqs = tuple(r[:n] + (0,) + r[n:] for r in hom.ineqs)
            eqs = tuple(r[:n] + (0,) + r[n:] for r in hom.eqs)
            rows = _primitive_rows([*self._rows, (0,) * (n + 1) + (1,)])
            hypo = self._hypo = Polyhedron(n + 1, _cut(n + 2, _merged(ineqs, rows), eqs))
        return hypo

    @property
    def pieces(self) -> tuple:
        pieces = self._pieces
        if pieces is None:
            pieces = self._pieces = _upper_pieces(self.hypo)
        return pieces

    def __eq__(self, other):
        return isinstance(other, ConcavePL) and self.hypo == other.hypo

    def __hash__(self):
        return hash(self.hypo)

    def __repr__(self):
        return f"ConcavePL({len(self.pieces)} pieces on {self.domain!r})"

    def value(self, u) -> Fraction:
        U, e = _cleared(u)
        if not self.domain._holds(U, e):
            raise WeightOutsideBox(f"{vec(u)} is outside the domain")
        return self._at(U, e)

    def _at(self, U, e) -> Fraction:
        """The value at a point U / e of the domain, on integers: the least
        (<A, U> + C e) / (q e) over the piece rows (A, -q, C).  A row the
        hypograph finds redundant is at least the minimum on the domain,
        so the rows give the value its upper facets give."""
        n = self.domain.n
        # zip stops at U's n entries, before the entries -q and C of a row
        return _least((sum(map(mul, r, U)) + r[n + 1] * e, -r[n] * e) for r in self._rows)

    def _regions(self) -> PolyhedralComplex:
        """`linearity_regions(self.pieces, self.domain)`, on the piece rows:
        the regions depend only on the function, and a row the hypograph
        finds redundant is least on no more than a lower-dimensional set."""
        n = self.domain.n
        return _regions([((*r[:n], r[n + 1]), -r[n]) for r in self._rows], self.domain)

    def scale(self, k) -> "ConcavePL":
        """k f for k > 0: each row (A, -q, C) becomes (p A, -r q, p C) for
        k = p / r, with no hypograph built."""
        k = frac(k)
        if k <= 0:
            raise ValueError("only positive scaling")
        p, r, n = k.numerator, k.denominator, self.domain.n
        rows = [(*(p * x for x in row[:n]), r * row[n], p * row[n + 1]) for row in self._rows]
        return ConcavePL._from_rows(self.domain, rows)

    def lineality(self) -> list[Vec]:
        """Directions w with domain and value translation-invariant: the
        combinations (w, 0) of the hypograph's lines, whose t-entries
        cancel, so slanted lines count too."""
        n = self.domain.n
        lines = self.hypo.lines
        if not lines:
            return []
        return [
            _int_row([sum(c * l[i] for c, l in zip(k, lines)) for i in range(n)])
            for k in _kernel([tuple(l[n] for l in lines)], len(lines))
        ]

    def graph_vertices(self) -> list[tuple[Vec, Fraction]]:
        """Canonical minimal-face representatives of the graph."""
        n = self.domain.n
        return [(v[:n], v[n]) for v in self.hypo.vertices]

    def linear_part(self, w) -> Fraction:
        """Slope at infinity along a tail direction of the domain."""
        w = vec(w)
        if len(w) != self.domain.n:
            raise AmbientMismatch(f"direction has {len(w)} entries, the domain lives in Q^{self.domain.n}")
        return min(vdot(a, w) for a, _ in self.pieces)

    def sup_convolve(self, other: "ConcavePL") -> "ConcavePL":
        return ConcavePL.from_hypograph(self.hypo.minkowski(other.hypo))


def _upper_pieces(hypo: Polyhedron) -> tuple:
    """The affine pieces (a, c) of u -> <a, u> + c, sorted and distinct,
    whose graphs carry the upper facets of a hypograph in Q^n x Q."""
    n = hypo.n - 1
    return tuple(sorted({
        (tuple(Fraction(x, -a[n]) for x in a[:n]), Fraction(b, a[n]))
        for a, b in hypo.ineqs
        if a[n] < 0
    }))


def zero_function_on(domain: Polyhedron) -> ConcavePL:
    return ConcavePL(domain, [(zero_vec(domain.n), Fraction(0))])


class PLDivisorMap:
    """Concave piecewise-affine map Box -> divisors: u |-> sum Psi_P(u) P."""

    def __init__(self, base: BaseVariety, box: Polyhedron, per_prime=None):
        self.base = base
        self.box = box
        data = {}
        for label, f in (per_prime or {}).items():
            if is_inf(f):
                data[label] = INF
            else:
                if f.domain != box:
                    raise ValueError("all prime functions must share the Box domain")
                data[label] = f
        self.per_prime = MappingProxyType(dict(sorted(data.items(), key=lambda kv: kv[0].id)))

    def __eq__(self, other):
        return (
            isinstance(other, PLDivisorMap)
            and self.base == other.base
            and self.box == other.box
            and self.per_prime == other.per_prime
        )

    def __hash__(self):
        return hash((self.base, self.box, tuple(self.per_prime.items())))

    def __repr__(self):
        return f"PLDivisorMap({len(self.per_prime)} primes on {self.box!r})"

    def marked(self):
        return list(self.per_prime)

    def psi(self, label) -> ConcavePL:
        got = self.per_prime.get(label)
        if got is None:
            return zero_function_on(self.box)
        return got

    def evaluate(self, u) -> QDivisor:
        return self._evaluate(u, *_cleared(u))

    def _evaluate(self, u, U, e: int) -> QDivisor:
        """`evaluate` at u = U / e, cleared."""
        if not self.box._holds(U, e):
            raise WeightOutsideBox(f"{vec(u)} not in Box")
        # every function's domain is the box, so u is in each of them
        out = {}
        for label, f in self.per_prime.items():
            out[label] = INF if is_inf(f) else f._at(U, e)
        return QDivisor(self.base, out)


def sum_psi(a: PLDivisorMap, b: PLDivisorMap) -> PLDivisorMap:
    """Sup-convolution sum: Box_a + Box_b, per prime the hypograph sum."""
    if a.base != b.base:
        raise ValueError("summands live over different bases")
    box = a.box.minkowski(b.box)
    labels = {l: None for l in list(a.per_prime) + list(b.per_prime)}
    out = {}
    for label in labels:
        fa = a.per_prime.get(label)
        fb = b.per_prime.get(label)
        if is_inf(fa) or is_inf(fb):
            out[label] = INF
            continue
        fa = fa if fa is not None else zero_function_on(a.box)
        fb = fb if fb is not None else zero_function_on(b.box)
        out[label] = fa.sup_convolve(fb)
    return PLDivisorMap(a.base, box, out)


# ---------------------------------------------------------------------------
# Box^D and Psi^D
# ---------------------------------------------------------------------------


def box_and_psi(d: TInvariantDivisor) -> PLDivisorMap:
    """Weight polyhedron from the ray inequalities and the vertex minima.

    Built on the first call for a divisor and kept on it (the divisor is
    immutable), so later calls, and `graded_sections` and
    `is_basepoint_free` at any number of weights, return the same map.
    """
    if d._psi is not None:
        return d._psi
    fan = d.fan
    n = fan.n
    box = Polyhedron.from_H([(r, -a) for r, a in d.ray_coeffs.items()], (), n)
    per = {}
    labels = {l: None for l in fan.marked_primes()}
    labels.update({l: None for l in d.verts})
    for label in labels:
        pieces = [(v, d.vertex_coeffs[(label, v)]) for v in d.verts.get(label, ())]
        if not pieces or box.empty:
            per[label] = INF
        else:
            per[label] = ConcavePL(box, pieces)
    d._psi = PLDivisorMap(fan.base, box, per)
    return d._psi


def psi0_pdivisor(fan: DivisorialFan):
    """The zero divisor's weight data as a polyhedral divisor.

    Tailcone = convex hull of the tailfan support, coefficient at P = convex
    hull of the slice support.
    """
    from .pdivisor import PolyhedralDivisor

    n = fan.n
    tail = Cone.from_rays(fan.rays(), n=n)
    coeffs = {}
    for label in fan.marked_primes():
        # the hull of the cells is spanned by their `hom`s; an empty slice
        # spans the zero cone, the `hom` of the empty polyhedron
        cells = fan.slice_of(label).cells
        hom = Cone.from_rays([g for c in cells for g in c.hom.rays], [l for c in cells for l in c.hom.lines], n + 1)
        coeffs[label] = Polyhedron(n, hom)
    return PolyhedralDivisor(fan.base, n, tail, coeffs)


def graded_sections(d: TInvariantDivisor, u, pole_bound=None) -> SectionSpace:
    """The weight-u piece of L(D), via sections of Psi^D(u) on the base.

    Reads the divisor's kept Box and Psi (`box_and_psi`), so asking one
    divisor at several weights builds them once.  A u that is no lattice
    point or lies outside Box^D raises `WeightOutsideBox`.
    """
    U, e = _cleared(u)
    if e != 1:
        raise WeightOutsideBox("graded pieces live at lattice points")
    return base_global_sections(box_and_psi(d)._evaluate(u, U, e), pole_bound=pole_bound)


# ---------------------------------------------------------------------------
# support functions
# ---------------------------------------------------------------------------


class SupportFunction(_Record):
    """Per prime, per slice cell: an affine piece (a, c) with h = <a,.> + c."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: dict):
        self.pieces = pieces  # label -> tuple of (cell, a, c)

    def value(self, label, x):
        for cell, a, c in self.pieces.get(label, ()):
            if cell.contains_point(x):
                return vdot(a, x) + c
        raise ValueError(f"{x} is not in the slice of {label.id}")


def support_functions(d: TInvariantDivisor) -> SupportFunction:
    """Solve for the affine pieces h(v) = -b, slope_rho = -a per slice cell."""
    fan = d.fan
    n = fan.n
    out = {}
    for label in fan.marked_primes():
        sl = fan.slice_of(label)
        per_cell = []
        for cell in sl.cells:
            rows = []
            rhs = []
            for v in cell.vertices:
                rows.append(list(v) + [1])
                rhs.append(-d.vertex_coeffs.get((label, v), Fraction(0)))
            for r in cell.tail().rays:
                rows.append(list(r) + [0])
                rhs.append(-d.ray_coeffs.get(r, Fraction(0)))
            sol = solve(rows, rhs)
            if sol is None:
                raise NotQCartier(cell)
            a, c = sol[:n], sol[n]
            per_cell.append((cell, a, c))
        out[label] = tuple(per_cell)
    return SupportFunction(out)


# ---------------------------------------------------------------------------
# base-point freeness
# ---------------------------------------------------------------------------


class BpfReport(_Record):
    __slots__ = ("status", "witnesses", "failing")

    def __init__(self, status: str, witnesses: dict, failing: tuple = ()):
        self.status = status  # "free" | "not_free" | "inconclusive"
        self.witnesses = witnesses  # (member index, class id) -> (u, section)
        self.failing = failing

    @property
    def free(self) -> bool:
        return self.status == "free"


def _section_with_orders(base, required, psi_values, slack_points):
    """A curve function with prescribed orders at `required` and
    ord >= ceil(-psi) elsewhere; degree balanced at a slack point.

    Returns None when no such section exists.
    """
    orders = dict(required)
    for label, val in psi_values.items():
        if label in orders:
            continue
        if is_inf(val):
            continue  # removed from the locus: unconstrained pole allowed
        orders[label] = Fraction(math.ceil(-val))
    total = sum(orders.values(), Fraction(0))
    if base.kind == "open_p1":
        # absorb any excess at a removed point
        slack_pt = base.removed[0]
        factors = {l.point: int(o) for l, o in orders.items() if not is_inf(l.point)}
        need = -total
        factors[slack_pt] = factors.get(slack_pt, 0) + int(need)
        return CurveFunction(factors)
    inf_primes = [l for l in psi_values if is_inf(psi_values[l]) and l not in required]
    if total > 0:
        if not inf_primes:
            return None
        # unlimited poles are allowed off the locus; dump the excess there
        lab = inf_primes[0]
        orders[lab] = orders.get(lab, Fraction(0)) - total
        total = Fraction(0)
    slack = -total
    factors = {l.point: int(o) for l, o in orders.items() if not is_inf(l.point)}
    if slack:
        pt = next(p for p in slack_points if point_label(p) not in orders)
        factors[pt] = factors.get(pt, 0) + int(slack)
    return CurveFunction(factors)


def _witness(base, dv, label, k, marked, slack_points):
    """The witness query of both searches, dv the divisor map at a weight:
    a section s with ord_P(s) >= ceil(-k dv_P) at the marked points P and
    ord(s) = -k dv, an integer, at `label` (None: the generic class), or
    None.  Both searches ask only at primes with a function, so dv is
    finite at `label`."""
    required = {}
    if label is not None:
        target = -k * dv.coefficient(label)
        if target.denominator != 1:
            return None
        required[label] = target
    scaled = {l: c if is_inf(c := dv.coefficient(l)) else k * c for l in marked}
    return _section_with_orders(base, required, scaled, slack_points)


def _miss_fails(region: Polyhedron) -> bool:
    """The verdict rule of both searches on a region whose window holds no
    witness: they fail at once if the window holds all of its lattice points
    (bounded or empty); otherwise the verdict is inconclusive unless a later
    region fails."""
    return not region.rays and not region.lines


def is_basepoint_free(d: TInvariantDivisor, window_steps: int = 1) -> BpfReport:
    """Search for section witnesses member by member and class by class.

    For each member and each point class of the base (the marked points plus
    one generic class), a weight u and section s must exist with
    Psi_P(u) + ord_P(s) = 0 and the member's coefficient flat at u.  The
    search enumerates lattice weights in a window of Box^D (`_witness` at
    k = 1); a miss fails it or makes it inconclusive by `_miss_fails`, so an
    unbounded window never yields "not_free".
    """
    fan = d.fan
    if not fan.base.is_curve():
        raise UnsupportedBase("base-point-freeness search runs on curve bases")
    if not fan.is_contraction_free():
        raise NotContractionFree("the criterion needs a contraction-free fan")
    pl = box_and_psi(d)
    box = pl.box
    if box.empty:
        return BpfReport("not_free", {}, failing=(("(no weights)", "Box is empty"),))
    marked = [l for l in pl.marked() if l.kind == "point"]
    slack_points = spare_points(marked)
    witnesses = {}
    inconclusive = False
    for mi, member in enumerate(fan.members):
        classes = [l for l in marked if not member.coefficient(l).empty]
        classes.append(None)  # the generic class
        for label in classes:
            constraint_eqs = []
            attain_ineqs = []
            if label is None:
                for r in member.tail.rays:
                    constraint_eqs.append((r, -d.ray_coeffs.get(r, Fraction(0))))
            else:
                coeff = member.coefficient(label)
                vs = list(coeff.vertices)
                for r in coeff.tail().rays:
                    constraint_eqs.append((r, -d.ray_coeffs.get(r, Fraction(0))))
                for v in vs[1:]:
                    constraint_eqs.append(
                        (vsub(v, vs[0]), d.vertex_coeffs[(label, vs[0])] - d.vertex_coeffs[(label, v)])
                    )
                # the member's vertices must attain the slice minimum
                v0 = vs[0]
                b0 = d.vertex_coeffs[(label, v0)]
                for w in d.verts.get(label, ()):
                    bw = d.vertex_coeffs[(label, w)]
                    attain_ineqs.append((vsub(w, v0), b0 - bw))
            region = Polyhedron.from_H(
                list(box.ineqs) + attain_ineqs, list(box.eqs) + constraint_eqs, box.n
            )
            # any slack zeros of s sit at unmarked points; generic-class
            # instances at those points use a shifted slack point instead
            found = next(
                (
                    (u, s)
                    for u in region.lattice_window(window_steps)
                    if (s := _witness(fan.base, pl.evaluate(u), label, 1, marked, slack_points)) is not None
                ),
                None,
            )
            key = (mi, label.id if label else "generic")
            if found is not None:
                witnesses[key] = found
            elif _miss_fails(region):
                return BpfReport("not_free", witnesses, failing=(key,))
            else:
                inconclusive = True
    return BpfReport("inconclusive" if inconclusive else "free", witnesses)


# ---------------------------------------------------------------------------
# sharpness
# ---------------------------------------------------------------------------


# the largest multiple k of a divisor the sharpness search tries
SHARPNESS_K_BOUND = 12


def sharpness(psi: PLDivisorMap) -> str:
    """Classify a divisor map as sharp / asymptotically_sharp / fails /
    inconclusive by searching section witnesses (`_witness`, k up to
    `SHARPNESS_K_BOUND`) at the vertices of each prime's function modulo
    its lineality space; a miss fails the search or makes it inconclusive
    by `_miss_fails`, whatever the order of the primes.
    """
    base = psi.base
    if not base.is_curve():
        raise UnsupportedBase("sharpness search runs on curve bases")
    marked = [l for l in psi.marked() if l.kind == "point"]
    slack_points = spare_points(marked)
    overall = "sharp"
    inconclusive = False
    for label, f in psi.per_prime.items():
        if is_inf(f):
            continue
        lin = f.lineality()
        for (ubar, _val) in f.graph_vertices():
            slab = Polyhedron.from_generators([ubar], lines=lin, n=psi.box.n)
            # ubar lies in the box, the domain of f, so the region holds it
            region = psi.box.intersect(slab)
            # the values at the window points do not depend on k
            values = [psi.evaluate(u) for u in region.lattice_window()]
            found_k = next(
                (
                    k
                    for k in range(1, SHARPNESS_K_BOUND + 1)
                    if any(_witness(base, dv, label, k, marked, slack_points) is not None for dv in values)
                ),
                None,
            )
            if found_k is None:
                if _miss_fails(region):
                    return "fails"
                inconclusive = True
            elif found_k > 1:
                overall = "asymptotically_sharp"
    return "inconclusive" if inconclusive else overall
