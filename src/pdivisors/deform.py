"""Homogeneous toric deformations: families, base fans, and their upgrades.

Input: a pointed cone in N + Z with the distinguished last coordinate as
the primitive degree, a positive multiple k of it, and a Minkowski
decomposition of the degree-one slice.  The admissibility condition bounds
the lattice-free argmin faces of the summands; the family then lives over
the product of a line and affine space, and its big-torus upgrade lands on
the blowup of (weighted) projective space, computed both from the closed
formulas and through the fan-plus-upgrade route.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from ._record import _Record
from .base import (
    INF,
    BaseVariety,
    QDivisor,
    binomial_label,
    is_principal,
    point_label,
)
from .errors import NotAdmissible, RoutesDisagree, SumMismatch, UnsupportedBase
from .lattice import Lattice, LatticeMap
from .linalg import _cleared, _lattice_vector, frac, int_identity, vdot, zero_vec
from .pdivisor import PolyhedralDivisor, PullbackTriple
from .polyhedra import Cone, Polyhedron, normal_fan
from .tvariety import DivisorialFan
from .upgrade import InvariantPDivisorOnFan, upgrade_coefficients


class DeformationInput(_Record):
    """A degree, a cone, and a decomposition of its degree-one slice.

    The last coordinate of the ambient lattice is the primitive degree
    direction; `degree` must be k times its dual basis vector.  With
    `multiplicities` absent the slice identity is
    delta_r = (Delta_0, 1/k) + (Delta_1, 0) + ... ; in the mixed case the
    identity is Delta_plus = Delta_0 + sum k_i Delta_i.
    """

    __slots__ = ("delta", "degree", "deltas", "multiplicities", "k", "n")

    def __init__(self, delta: Cone, degree: tuple, deltas: tuple,
                 multiplicities: tuple | None = None):
        self.delta = delta
        self.degree = _lattice_vector(degree, "degree covectors")
        ntot = delta.n
        if len(self.degree) != ntot:
            raise ValueError("degree covector has the wrong length")
        k = self.degree[-1]
        if k <= 0 or any(x != 0 for x in self.degree[:-1]):
            raise UnsupportedBase(
                "normalize coordinates so the degree is k times the last coordinate"
            )
        self.k = k
        self.n = ntot - 1
        self.deltas = tuple(deltas)
        if not self.deltas:
            raise SumMismatch("the decomposition needs at least the summand Delta_0")
        self.multiplicities = multiplicities
        if multiplicities is not None:
            if any(frac(m).denominator != 1 or m < 1 for m in multiplicities):
                raise ValueError("multiplicities must be positive integers")
            self.multiplicities = tuple(int(m) for m in multiplicities)
            if len(self.multiplicities) != len(self.deltas) - 1:
                raise ValueError("one multiplicity per parameter summand")
            self.k = gcd(*self.multiplicities) if self.multiplicities else 1

    @property
    def l(self) -> int:
        return len(self.deltas) - 1

    def slice_at(self, height) -> Polyhedron:
        """N-part of delta cap [last coordinate = height]."""
        cut = self.delta.as_polyhedron().slice_at(
            tuple([0] * self.n + [1]), frac(height)
        )
        return cut.map_image(int_identity(self.n + 1)[: self.n])

    @property
    def sigma(self) -> Cone:
        p = self.slice_at(0)
        if p.empty:
            return Cone.zero(self.n)
        return Cone.from_rays(list(p.rays), list(p.lines), self.n)

    @property
    def delta_plus(self) -> Polyhedron:
        return self.slice_at(1)

    @property
    def delta_minus(self) -> Polyhedron:
        return self.slice_at(-1)


def _embed_at_height(p: Polyhedron, height) -> Polyhedron:
    """Delta x {height} inside N + Z (rays stay at height zero)."""
    h = frac(height)
    if p.empty:
        return Polyhedron.empty_polyhedron(p.n + 1)
    verts = [tuple(v) + (h,) for v in p.vertices]
    rays = [tuple(r) + (Fraction(0),) for r in p.rays]
    lines = [tuple(l) + (Fraction(0),) for l in p.lines]
    return Polyhedron.from_generators(verts, rays, lines, p.n + 1)


def check_admissible(din: DeformationInput):
    """Slice identity plus the lattice-point condition on argmin faces.

    Returns (True, None) or (False, witness) with the failing weight and
    the indices of the lattice-free faces; raises SumMismatch when the
    decomposition does not sum to the slice or has an empty summand.
    """
    k = din.k
    summands = list(din.deltas)
    if din.multiplicities is None:
        total = _embed_at_height(summands[0], Fraction(1, k))
        for p in summands[1:]:
            total = total.minkowski(_embed_at_height(p, 0))
        target = din.delta.as_polyhedron().slice_at(din.degree, 1)
        if total != target:
            raise SumMismatch("the summands do not add up to the degree slice")
        lattice_rule = [p for p in summands[1:]] if k > 1 else []
    else:
        total = summands[0]
        for p, m in zip(summands[1:], din.multiplicities):
            total = total.minkowski(p.scale(m))
        if total != din.delta_plus:
            raise SumMismatch("the summands do not add up to the height-one slice")
        lattice_rule = [
            p for p, m in zip(summands[1:], din.multiplicities) if m > 1
        ]
    for p in lattice_rule:
        for v in p.vertices:
            if any(x.denominator != 1 for x in v):
                return False, ("non-lattice summand", p)
    if any(p.empty for p in summands):
        # an empty summand sums to an empty slice and has no normal fan
        raise SumMismatch("the summands must be nonempty")
    for cell in normal_fan(summands, din.sigma.dual().as_polyhedron()):
        # the integral weight on the ray of a relative interior point
        u = _cleared(cell.relint_point())[0]
        free = []
        for i, p in enumerate(summands):
            m = min(vdot(v, u) for v in p.vertices)
            face = Polyhedron.from_H(
                list(p.ineqs), list(p.eqs) + [(u, m)], p.n
            )
            if not face.lattice_window(1):
                free.append(i)
        if len(free) > 1:
            return False, (u, tuple(free))
    return True, None


# ---------------------------------------------------------------------------
# family over the product base
# ---------------------------------------------------------------------------


def _product_base(l: int) -> BaseVariety:
    """P^1 x A^l as a toric variety; rank 1 + l."""
    n = 1 + l
    e = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    plus = [e[0]] + e[1:]
    minus = [tuple(-x for x in e[0])] + e[1:]
    return BaseVariety.toric(
        [Cone.from_rays(plus), Cone.from_rays(minus)], name=f"P1xA{l}"
    )


def family_pdivisor(din: DeformationInput):
    """The total space of the deformation as a divisor on P^1 x A^l.

    Returns (divisor, labels) with labels = (D_0, [D_i...], D_inf).
    """
    ok, witness = check_admissible(din)
    if not ok:
        raise NotAdmissible(f"decomposition is not admissible: {witness}")
    l = din.l
    k = din.k
    d0_coeff = din.deltas[0].scale(k) if din.multiplicities is None else din.deltas[0]
    if l == 0:
        base = BaseVariety.projective_line()
        d0 = point_label(0)
        dinf = point_label(INF)
        coeffs = {d0: d0_coeff}
        coeffs[dinf] = din.delta_minus
        return (
            PolyhedralDivisor(base, din.n, din.sigma, coeffs),
            (d0, [], dinf),
        )
    base = _product_base(l)
    n = 1 + l
    e0 = tuple(1 if j == 0 else 0 for j in range(n))
    d0 = base.ray(e0)
    dinf = base.ray(tuple(-x for x in e0))
    dis = []
    rays = base.rays()
    for i in range(1, l + 1):
        ki = din.k if din.multiplicities is None else din.multiplicities[i - 1]
        a = tuple(ki if j == 0 else 0 for j in range(n))
        b = tuple(1 if j == i else 0 for j in range(n))
        lab = base.declare_prime(binomial_label(f"D{i}", a, b, rays))
        dis.append(lab)
    coeffs = {d0: d0_coeff}
    for lab, p in zip(dis, din.deltas[1:]):
        coeffs[lab] = p
    coeffs[dinf] = din.delta_minus
    return PolyhedralDivisor(base, din.n, din.sigma, coeffs), (d0, dis, dinf)


# ---------------------------------------------------------------------------
# base fan over the blown-up (weighted) projective space
# ---------------------------------------------------------------------------


class FamilyBase(_Record):
    __slots__ = ("base", "fan", "p0", "pis", "q", "pullback_table")

    def __init__(self, base: BaseVariety, fan: DivisorialFan, p0: object, pis: list,
                 q: object, pullback_table: dict):
        self.base = base
        self.fan = fan
        self.p0 = p0
        self.pis = pis
        self.q = q
        self.pullback_table = pullback_table


def family_base_fan(din: DeformationInput) -> FamilyBase:
    """The quotient description of the product base over the blowup.

    For one parameter the blowup target is the projective line itself with
    P_0 at zero, P_1 at one and Q at infinity; with more parameters it is
    the blowup of (weighted) projective space at the smooth distinguished
    point, with the P_i declared binomial primes.
    """
    ok, witness = check_admissible(din)
    if not ok:
        raise NotAdmissible(f"decomposition is not admissible: {witness}")
    l = din.l
    k = din.k
    if l == 0:
        raise UnsupportedBase("the base fan needs at least one parameter")
    if l == 1:
        z = BaseVariety.projective_line()
        p0 = point_label(0)
        pis = [point_label(1)]
        q = point_label(INF)
    else:
        hs = [1] * l if din.multiplicities is None else [
            m // k for m in din.multiplicities
        ]
        e = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
        v0 = tuple(-h * 1 for h in hs)
        vq = tuple(1 for _ in range(l))
        maxcones = []
        allrays = [v0] + e
        for drop in range(l + 1):
            rays = [allrays[i] for i in range(l + 1) if i != drop]
            if drop == 0:
                # the blown-up chart: stellar pieces around vq
                for skip in range(l):
                    piece = [vq] + [e[i] for i in range(l) if i != skip]
                    maxcones.append(Cone.from_rays(piece))
            else:
                maxcones.append(Cone.from_rays(rays))
        z = BaseVariety.toric(maxcones, name=f"Bl_O P({','.join(['1'] + list(map(str, hs)))})")
        p0 = z.ray(v0)
        q = z.ray(vq)
        pis = []
        for i in range(1, l + 1):
            # P_i = V(y_0^{h_i} - y_i) is {chi^{e_i} = 1} in the y_0-chart
            pis.append(
                z.declare_prime(
                    binomial_label(f"P{i}", e[i - 1], tuple(0 for _ in range(l)), z.rays())
                )
            )
    # the fan for the product base over z
    one = Fraction(1, k)
    plus = Cone.from_rays([(1,)])
    empty = Polyhedron.empty_polyhedron(1)
    dplus = PolyhedralDivisor(
        z, 1, plus, {p0: Polyhedron.from_generators([(one,)], [(1,)], n=1)}
    )
    dminus = PolyhedralDivisor(z, 1, Cone.zero(1), {p0: empty, q: _interval(-one, 0)})
    fan = DivisorialFan(z, [dplus, dminus])
    table = {
        "D0": [(p0, one), "E"],
        "Dinf": [(q, -one)],
    }
    for i, lab in enumerate(pis):
        table[f"D{i+1}"] = [(lab, Fraction(0)), "E"]
    return FamilyBase(z, fan, p0, pis, q, table)


def _interval(a, b):
    return Polyhedron.from_generators([(frac(a),), (frac(b),)], n=1)


# ---------------------------------------------------------------------------
# the upgraded family
# ---------------------------------------------------------------------------


def deformation_upgrade(din: DeformationInput):
    """The family as a divisor over the blowup, computed two ways.

    Route (a): the closed coefficient formulas with tailcone
    delta cap [last >= 0].  Route (b): the base fan with the invariant
    divisor fed through the general tailcone/coefficient construction.
    Returns (divisor, FamilyBase); raises RoutesDisagree on mismatch.
    """
    fb = family_base_fan(din)
    k = din.k
    one = Fraction(1, k)
    ntot = din.n + 1
    # route (a)
    sigma_tilde = din.delta.intersect(
        Cone.from_inequalities([tuple([0] * din.n + [1])], (), ntot)
    )
    sig_poly = sigma_tilde.as_polyhedron()
    coeffs = {}
    coeffs[fb.p0] = _embed_at_height(din.deltas[0], one).minkowski(sig_poly)
    for lab, p in zip(fb.pis, din.deltas[1:]):
        coeffs[lab] = _embed_at_height(p, 0).minkowski(sig_poly)
    dm = din.delta_minus
    if dm.empty:
        q_coeff = sig_poly
    else:
        scaled = dm.scale(one)
        gens = [tuple(v) + (-one,) for v in scaled.vertices]
        gens.append(zero_vec(ntot))
        rays = [tuple(r) + (Fraction(0),) for r in scaled.rays]
        hull_part = Polyhedron.from_generators(gens, rays, (), ntot)
        q_coeff = hull_part.minkowski(sig_poly)
    coeffs[fb.q] = q_coeff
    route_a = PolyhedralDivisor(fb.base, ntot, sigma_tilde, coeffs)
    # route (b)
    dplus = din.delta_plus
    verts = {fb.p0: [(one,)], fb.q: [(-one,), (Fraction(0),)]}
    for lab in fb.pis:
        verts[lab] = [(Fraction(0),)]
    vertex_coeffs = {(fb.p0, (one,)): din.deltas[0]}
    for lab, p in zip(fb.pis, din.deltas[1:]):
        vertex_coeffs[(lab, (Fraction(0),))] = p
    vertex_coeffs[(fb.q, (-one,))] = (
        Polyhedron.empty_polyhedron(din.n) if dm.empty else dm.scale(one)
    )
    eprime = InvariantPDivisorOnFan(
        fb.fan,
        din.n,
        din.sigma,
        ray_coeffs={(1,): dplus},
        vertex_coeffs=vertex_coeffs,
        rays=[(1,)],
        verts=verts,
    )
    route_b = upgrade_coefficients(eprime)
    if route_a != route_b:
        raise RoutesDisagree(
            f"formula route and upgrade route differ: {route_a!r} vs {route_b!r}"
        )
    return route_a, fb


def structure_map(din: DeformationInput):
    """The equivariant structure map as a pullback triple.

    The principal part has divisor P_0 - pi*H - Q on the blowup (for one
    parameter just P_0 - Q on the line); the lattice part is the degree.
    Returns (triple, principal witness).
    """
    fb = family_base_fan(din)
    ntot = din.n + 1
    big = Lattice(ntot, "Ntilde")
    f_map = LatticeMap(big, Lattice(1, "deg"), [list(din.degree)])
    if din.l == 1:
        target = fb.base
        d = QDivisor(target, {fb.p0: 1, fb.q: -1})
        ok, wit = is_principal(d)
        if not ok:
            raise RoutesDisagree("P0 - Q is not principal on the line")
        triple = PullbackTriple(base_map=None, target_base=None, lattice_map=f_map, shift=(((1,), wit),))
        return triple, wit
    if din.multiplicities is not None:
        raise UnsupportedBase("the structure triple is built for the unmixed case")
    l = din.l
    # projection from the blown-up origin: P^{l-1} on coordinates y_1..y_l
    e = [tuple(1 if j == i else 0 for j in range(l - 1)) for i in range(l - 1)]
    cones = []
    allrays = [tuple(-1 for _ in range(l - 1))] + e if l > 1 else []
    for drop in range(l):
        rays = [allrays[i] for i in range(l) if i != drop]
        cones.append(Cone.from_rays(rays, n=l - 1))
    target = BaseVariety.toric(cones, degrees={tuple(r): 1 for c in cones for r in c.rays}, name=f"P{l-1}")
    # characters of the target pull back to y_{j+2}/y_1 = chi^{e_{j+2} - e_1}
    rows = [
        [1 if i == j + 1 else (-1 if i == 0 else 0) for i in range(l)]
        for j in range(l - 1)
    ]
    base_map = LatticeMap(Lattice(l, "NZ"), Lattice(l - 1, "NP"), rows)
    # pi*H for H = V(y_1): pullback of the ray divisor at -sum f
    h_ray = tuple(-1 for _ in range(l - 1))
    pullback_coeffs = {}
    for r in fb.base.rays():
        img = tuple(sum(map(mul, row, r)) for row in rows)
        mult = _toric_divisor_multiplicity(target, img, h_ray)
        if mult:
            pullback_coeffs[fb.base.ray(r)] = mult
    d = QDivisor(fb.base, {fb.p0: 1, fb.q: -1})
    for lab, c in pullback_coeffs.items():
        d = d.add(QDivisor(fb.base, {lab: -c}))
    ok, wit = is_principal(d)
    if not ok:
        raise RoutesDisagree("P0 - pi*H - Q is not principal on the blowup")
    triple = PullbackTriple(
        base_map=base_map,
        target_base=target,
        lattice_map=f_map,
        shift=(((1,), wit),),
    )
    return triple, wit


def _toric_divisor_multiplicity(target: BaseVariety, point, h_ray):
    """Coefficient of the pullback of the h_ray prime at a ray mapping to
    `point`: the h_ray coordinate of the minimal cone expression."""
    from .linalg import solve

    if all(x == 0 for x in point):
        return Fraction(0)
    rays = target.carrier_rays(point)
    if rays is None:
        raise UnsupportedBase("ray image misses the target fan")
    lam = solve([list(x) for x in zip(*rays)], point)
    out = Fraction(0)
    for coef, r in zip(lam, rays):
        if tuple(r) == tuple(h_ray):
            out += coef
    return out
