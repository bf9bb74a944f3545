"""Enlarging the acting torus: the tailcone/coefficient construction.

Input: a polyhedral divisor whose coefficients attach to the invariant
primes (tail rays and slice vertices) of a divisorial fan describing the
base.  Output: a polyhedral divisor in the product lattice over the fan's
own base, with hypothesis flags and a properness report made on first
access.  The construction accepts fans that are not contraction-free and
simply reports the violated hypotheses, an informative output in itself.
"""

from __future__ import annotations

from itertools import product
from math import lcm
from operator import mul

from ._record import _Record
from .base import INF, BaseVariety, cone_index, cone_is_smooth
from .errors import AmbientMismatch, NoDegreeMap
from .linalg import _cleared, _int_row, smith_normal_form, vec
from .pdivisor import PolyhedralDivisor, PropernessReport
from .polyhedra import Cone, Polyhedron, _members
from .tvariety import DivisorialFan, invariant_index


class InvariantPDivisorOnFan:
    """Polyhedral divisor with coefficients on the invariant primes of a fan.

    ray_coeffs maps tail rays to polyhedra in the acting lattice N,
    vertex_coeffs maps (prime, vertex) pairs to polyhedra or the empty set;
    missing keys default to the tailcone.  The vertex coefficient at (P, v)
    weights the Weil divisor mu(v) D_{P,v}.
    """

    def __init__(self, fan: DivisorialFan, n: int, tail: Cone, ray_coeffs=None,
                 vertex_coeffs=None, rays=None, verts=None):
        self.fan = fan
        self.n = n
        self.tail = tail
        self.rays, self.verts = invariant_index(fan, rays, verts)
        trivial = tail.as_polyhedron()
        # a key is the index's own ray, which an equal tuple finds
        invariant_rays = dict(zip(self.rays, self.rays))
        rc = {}
        for given, p in (ray_coeffs or {}).items():
            r = invariant_rays.get(tuple(given))
            if r is None:
                raise ValueError(f"({','.join(map(str, given))}) is not an invariant ray of the fan")
            if p.empty:
                raise ValueError("ray coefficients must be nonempty")
            if p.tail() != tail:
                raise ValueError("ray coefficient tail differs from the tailcone")
            if p != trivial:
                rc[r] = p
        self.ray_coeffs = rc
        vc = {}
        for (label, v), p in (vertex_coeffs or {}).items():
            key = (label, vec(v))
            if key[0] not in self.verts or key[1] not in self.verts[key[0]]:
                raise ValueError(f"({label.id}, {v}) is not an invariant vertex")
            if not p.empty:
                if p.tail() != tail:
                    raise ValueError("vertex coefficient tail differs from the tailcone")
                if p == trivial:
                    continue
            vc[key] = p
        self.vertex_coeffs = vc

    def ray_coefficient(self, r) -> Polyhedron:
        p = self.ray_coeffs.get(self._fan_vector(r, "ray"))
        return self.tail.as_polyhedron() if p is None else p

    def vertex_coefficient(self, label, v) -> Polyhedron:
        p = self.vertex_coeffs.get((label, self._fan_vector(v, "vertex")))
        return self.tail.as_polyhedron() if p is None else p

    def _fan_vector(self, x, what: str) -> tuple:
        x = tuple(x)
        if len(x) != self.fan.n:
            raise AmbientMismatch(f"{what} has {len(x)} entries, the fan lives in Q^{self.fan.n}")
        return x

    def __eq__(self, other):
        return (
            isinstance(other, InvariantPDivisorOnFan)
            and self.fan == other.fan
            and self.n == other.n
            and self.tail == other.tail
            and self.ray_coeffs == other.ray_coeffs
            and self.vertex_coeffs == other.vertex_coeffs
        )

    def __hash__(self):
        return hash(
            (
                self.fan,
                self.n,
                self.tail,
                tuple(sorted(self.ray_coeffs.items())),
                tuple(sorted(((l.id, v), p) for (l, v), p in self.vertex_coeffs.items())),
            )
        )

    def weights_at(self, u):
        """(ray -> a_rho(u), (label, v) -> b(u) or INF) at a weight u, each
        the least <x, u> over the coefficient's vertices x, on u cleared once."""
        u = tuple(u)
        if len(u) != self.n:
            raise AmbientMismatch(f"weight has {len(u)} entries, the divisor has rank {self.n}")
        U, e = _cleared(u)
        ra = {r: self.ray_coefficient(r)._vertex_min(U, e) for r in self.rays}
        vb = {}
        for label, vs in self.verts.items():
            for v in vs:
                p = self.vertex_coefficient(label, v)
                vb[(label, v)] = INF if p.empty else p._vertex_min(U, e)
        return ra, vb


def upgrade_tailcone(d: InvariantPDivisorOnFan) -> Cone:
    """pos of (tail x 0) together with each ray coefficient at its height,
    read off the rays of each coefficient's `hom`: at the lattice ray r a
    vertex ray (X, t) gives (X, t r) and a tail ray (X, 0) gives (X, 0)."""
    n, zero = d.n, (0,) * d.fan.n
    gens = [g + zero for g in d.tail.rays]
    lines = [l + zero for l in d.tail.lines]
    for r in d.rays:
        hom = d.ray_coefficient(r).hom
        gens += [g[:n] + tuple(g[n] * y for y in r) for g in hom.rays]
        lines += [l[:n] + zero for l in hom.lines]
    return Cone.from_rays(gens, lines, n + d.fan.n)


def upgrade_coefficients(d: InvariantPDivisorOnFan) -> PolyhedralDivisor:
    """conv of the vertex coefficients at their heights, plus the tailcone,
    homogenized from the rays of each coefficient's `hom`: the vertex X / t
    at the height v = V / e is the ray (X e, t V, t e); the sum with the
    tailcone adds its rays and lines, all in one construction."""
    sigma_t = upgrade_tailcone(d)
    n, zero = d.n, (0,) * d.fan.n
    ntot = n + d.fan.n
    coeffs = {}
    # a prime the fan marks but `d.verts` omits has no vertex: the hull of
    # none is empty
    for label in dict.fromkeys([*d.verts, *d.fan.marked_primes()]):
        gens = []
        lines = [l + (0,) for l in sigma_t.lines]
        for v in d.verts.get(label, ()):
            hom = d.vertex_coefficient(label, v).hom
            V, e = _cleared(v)
            gens += [tuple(e * x for x in g[:n]) + tuple(g[n] * y for y in V) + (g[n] * e,) for g in hom.rays]
            lines += [l[:n] + zero + (0,) for l in hom.lines]
        if not any(g[-1] for g in gens):
            coeffs[label] = Polyhedron.empty_polyhedron(ntot)
            continue
        gens += [r + (0,) for r in sigma_t.rays]
        coeffs[label] = Polyhedron(ntot, Cone.from_rays(gens, lines, ntot + 1))
    return PolyhedralDivisor(d.fan.base, ntot, sigma_t, coeffs)


class UpgradeResult(_Record):
    """`report`, the divisor's `is_proper()`, is made on first access."""

    __slots__ = ("divisor", "contraction_free", "base_smooth")

    def __init__(self, divisor: PolyhedralDivisor, contraction_free: bool, base_smooth: bool):
        self.divisor = divisor
        self.contraction_free = contraction_free
        self.base_smooth = base_smooth

    @property
    def report(self) -> PropernessReport:
        return self.divisor.is_proper()

    @property
    def hypotheses_hold(self) -> bool:
        return self.contraction_free and self.base_smooth


def upgrade(d: InvariantPDivisorOnFan) -> UpgradeResult:
    """Tailcone and coefficients combined, with hypothesis bookkeeping."""
    out = upgrade_coefficients(d)
    fan = d.fan
    cf = fan.is_contraction_free()
    if fan.base.kind == "toric":
        smooth = fan.base.fan_is_smooth()
    else:
        smooth = True  # curves here are P^1 or opens in it
    return UpgradeResult(out, cf, smooth)


def correct_pic_z(d: PolyhedralDivisor) -> tuple[PolyhedralDivisor, PropernessReport]:
    """Enlarge the tailcone by the cone over the degree polyhedron.

    Needs a projective base with a degree map whose effective cone is the
    nonnegative ray; the result evaluates to nonnegative-degree divisors
    everywhere and X is unchanged.
    """
    base = d.base
    if not (base.kind == "P1" or (base.kind == "toric" and base.has_degree_map())):
        raise NoDegreeMap("the correction needs a projective base with degrees")
    degp = d.degree_polyhedron()
    gens = list(degp.vertices) + list(degp.rays)
    gens = [g for g in gens if any(x != 0 for x in g)]
    sigma_hat = Cone.from_rays(gens, degp.lines, d.n)
    new_tail = Cone.from_rays(
        list(d.tail.rays) + list(sigma_hat.rays),
        list(d.tail.lines) + list(sigma_hat.lines),
        d.n,
    )
    hat_poly = sigma_hat.as_polyhedron()
    coeffs = {}
    for label, p in d.coeffs.items():
        coeffs[label] = p if p.empty else p.minkowski(hat_poly)
    out = PolyhedralDivisor(d.base, d.n, new_tail, coeffs)
    return out, out.is_proper()


# ---------------------------------------------------------------------------
# resolution of a toric base by stellar subdivision
# ---------------------------------------------------------------------------


def resolve_toric(base: BaseVariety) -> BaseVariety:
    """Stellar-subdivide non-smooth cones until the fan is smooth.

    The subdivision point of the lexicographically first non-smooth maximal
    cone is the lexicographically least nonzero lattice point of its
    half-open generator parallelotope when the cone is simplicial;
    deterministic but not canonical.
    """
    if base.kind != "toric":
        return base
    cones = list(base.fan)
    for _ in range(64):
        bad = sorted(
            (c for c in cones if not cone_is_smooth(c)), key=lambda c: c.rays
        )
        if not bad:
            break
        c = bad[0]
        w = _parallelotope_point(c)
        cones = _stellar(cones, w)
    else:
        raise ValueError("resolution did not terminate in the round budget")
    return BaseVariety.toric(cones, semiprojective=base.semiprojective, name=base.name + "~")


def _parallelotope_point(c: Cone):
    """Subdivision point of a non-smooth cone.

    The lattice points of the half-open parallelotope {sum l_j r_j : 0 <= l_j
    < 1} of a simplicial cone represent the quotient of the saturated
    lattice by the lattice of the rays.  With the Smith normal form
    U A V = D of the ray matrix A, that quotient is the sum of the Z/d_i,
    and its element c has the coefficients l = frac(c D^-1 U).  The point is
    the lexicographically least nonzero one.  A cone that is not simplicial
    gets the primitive vector on the sum of its rays, a point of its
    relative interior.
    """
    rays = c.rays
    if not cone_index(c):
        return _int_row([sum(col) for col in zip(*rays)])
    u, d, _ = smith_normal_form(rays)
    diag = [abs(d[i][i]) for i in range(len(rays))]
    # l_j = num_j / den with num_j = sum_i c_i (den / d_i) u_ij mod den
    den = lcm(*diag)
    steps = [[den // di * x for x in row] for di, row in zip(diag, u)]
    candidates = []
    for cs in product(*map(range, diag)):
        if not any(cs):
            continue
        num = [sum(ci * row[j] for ci, row in zip(cs, steps)) % den for j in range(len(rays))]
        candidates.append(tuple(sum(map(mul, num, col)) // den for col in zip(*rays)))
    if not candidates:
        raise ValueError("no subdivision point found (cone already smooth?)")
    return _int_row(min(candidates))


def _stellar(cones, w):
    out = []
    for c in cones:
        if not c.contains(w):
            out.append(c)
            continue
        # every facet of c not containing w, in the order of c.ineqs
        for a, f in zip(c.ineqs, c._incidence()):
            if not sum(map(mul, a, w)):
                continue
            facet = [c.rays[i] for i in _members(f)]
            out.append(Cone.from_rays(facet + [w], c.lines, c.n))
    return out
