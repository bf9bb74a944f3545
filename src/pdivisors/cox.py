"""The total-coordinate-ring divisor of a complexity-one variety.

From a contraction-free fan over a base with class group Z, an exact
sequence presents the dual class group of X as the kernel of an integer
matrix built from slice vertices and tail rays.  A splitting of that
sequence produces a raw divisor with singleton coefficients, its upgrade to
the base, and the degree correction making the result proper.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import _Record
from .base import point_label, spare_points
from .errors import FormsDisagree, MarksMissingSupport, NoDegreeMap, NotSurjective, TorsionCokernel
from .lattice import Lattice, LatticeMap, multiplicity, smith_split
from .linalg import mat_vec
from .pdivisor import PolyhedralDivisor
from .polyhedra import Cone, Polyhedron
from .tvariety import DivisorialFan, invariant_index
from .upgrade import InvariantPDivisorOnFan, correct_pic_z, upgrade_coefficients


class CoxData(_Record):
    __slots__ = ("fan", "primes", "pairs", "rays", "quotient_rows", "pi", "section",
                 "retraction", "kernel", "cl_rank")

    def __init__(self, fan: DivisorialFan, primes: tuple, pairs: tuple, rays: tuple,
                 quotient_rows: tuple, pi: LatticeMap, section: LatticeMap,
                 retraction: LatticeMap, kernel: LatticeMap, cl_rank: int):
        self.fan = fan
        self.primes = primes  # chosen prime labels, ordered
        self.pairs = pairs  # ordered (label, vertex) pairs
        self.rays = rays  # ordered tail rays
        self.quotient_rows = quotient_rows  # Z^P -> Z^(p-1) killing the degree vector
        self.pi = pi  # Z^(pairs+rays) -> Z^(p-1) + N
        self.section = section  # t*: target -> middle
        self.retraction = retraction  # s: middle -> Cl(X)* coordinates
        self.kernel = kernel  # Cl(X)* -> middle
        self.cl_rank = cl_rank

    def basis_vector(self, index: int):
        m = self.pi.source.rank
        return tuple(Fraction(1) if i == index else Fraction(0) for i in range(m))


def cox_sequence(fan: DivisorialFan) -> CoxData:
    """Assemble and split the presentation of the class-group dual.

    The primes are the marked primes of the fan, padded to two on the
    projective line so the degree quotient is nontrivial.  The presentation
    is split by the canonical `smith_split`; the construction holds for any
    splitting, and every other one differs from it by an integer matrix A
    (section s + K A, retraction t - A pi).
    """
    base = fan.base
    if base.kind != "P1":
        raise NoDegreeMap("the construction needs a base with class group Z")
    primes = list(fan.marked_primes())
    if not primes:
        raise MarksMissingSupport("the prime set must be nonempty")
    if len(primes) < 2:
        primes.append(point_label(spare_points(primes)[0]))
    primes = sorted(primes, key=lambda l: l.id)
    rays, verts = invariant_index(fan, primes=primes)
    pairs = tuple((label, v) for label in primes for v in verts[label])
    p = len(primes)
    n = fan.n
    # quotient Z^P / Z (1, ..., 1), the degrees of the points of P^1, by
    # the rows e_i - e_0 (those the Smith form of the all-ones column gives)
    q_rows = [[int(j == i) - int(j == 0) for j in range(p)] for i in range(1, p)]
    # the presentation matrix
    cols = []
    for label, v in pairs:
        mu = multiplicity(v)
        k = primes.index(label)
        cols.append([mu * r[k] for r in q_rows] + [mu * x for x in v])
    for r in rays:
        cols.append([0] * (p - 1) + list(r))
    m = len(cols)
    target_rank = (p - 1) + n
    matrix = [[cols[j][i] for j in range(m)] for i in range(target_rank)]
    mid = Lattice(m, "E")
    tgt = Lattice(target_rank, "Q+N")
    pi = LatticeMap(mid, tgt, matrix)
    try:
        s_star, t, kernel = smith_split(pi)
    except NotSurjective as exc:  # invariant factors beyond 1 mean torsion
        raise TorsionCokernel(str(exc))
    return CoxData(
        fan=fan,
        primes=tuple(primes),
        pairs=pairs,
        rays=rays,
        quotient_rows=tuple(map(tuple, q_rows)),
        pi=pi,
        section=s_star,
        retraction=t,
        kernel=kernel,
        cl_rank=m - target_rank,
    )


def cox_raw(cd: CoxData) -> InvariantPDivisorOnFan:
    """Singleton coefficients from the retraction; far from proper."""
    k = cd.cl_rank
    tail = Cone.zero(k)
    ray_coeffs = {}
    vertex_coeffs = {}
    idx = 0
    for label, v in cd.pairs:
        mu = multiplicity(v)
        e = cd.basis_vector(idx)
        pt = cd.retraction(e)
        vertex_coeffs[(label, v)] = Polyhedron.point(tuple(x / mu for x in pt))
        idx += 1
    for r in cd.rays:
        e = cd.basis_vector(idx)
        ray_coeffs[r] = Polyhedron.point(cd.retraction(e))
        idx += 1
    rays, verts = invariant_index(cd.fan, primes=cd.primes)
    return InvariantPDivisorOnFan(
        cd.fan,
        k,
        tail,
        ray_coeffs=ray_coeffs,
        vertex_coeffs=vertex_coeffs,
        rays=rays,
        verts=verts,
    )


def cox_upgrade(cd: CoxData) -> PolyhedralDivisor:
    """Upgrade of the raw divisor; both displayed forms computed and compared."""
    raw = cox_raw(cd)
    first = upgrade_coefficients(raw)
    second = _second_form(cd)
    if first != second:
        raise FormsDisagree("the two coefficient formulas disagree")
    return first


def _second_form(cd: CoxData) -> PolyhedralDivisor:
    """conv{e(P,v)/mu} + Q_{>=0}^rays - t~*(e(P)bar), pushed into Cl* + N."""
    k = cd.cl_rank
    n = cd.fan.n
    m = cd.pi.source.rank
    p = len(cd.primes)
    # derived second-sequence cosection: the quotient-block columns of t*
    # (sections of the quotient part), i.e. t~*(y) = t*(y, 0_N)
    def ttilde_star(yq):
        full = tuple(yq) + (Fraction(0),) * n
        return cd.section(full)

    # push into Cl(X)* + N coordinates via (retraction, N-part of pi)
    push_rows = list(cd.retraction.matrix) + list(cd.pi.matrix[p - 1:])
    npairs = len(cd.pairs)
    tail_gens = [list(cd.basis_vector(npairs + j)) for j in range(len(cd.rays))]
    per_prime_points = {}
    for i, (label, v) in enumerate(cd.pairs):
        mu = multiplicity(v)
        pt = tuple(x / mu for x in cd.basis_vector(i))
        per_prime_points.setdefault(label, []).append(pt)
    out = {}
    qpart_rows = cd.pi.matrix[: p - 1]
    for label in cd.primes:
        pts = per_prime_points.get(label, [])
        idx = cd.primes.index(label)
        yq = [r[idx] for r in cd.quotient_rows]
        shift = ttilde_star(yq)
        verts = [tuple(a - b for a, b in zip(pt, shift)) for pt in pts]
        # the shifted points lie in the kernel of the quotient part
        for w in verts:
            img = mat_vec(qpart_rows, w)
            if any(x != 0 for x in img):
                raise FormsDisagree("shifted generators miss the kernel sublattice")
        poly = Polyhedron.from_generators(verts, tail_gens, (), m)
        out[label] = poly.map_image(push_rows)
    sigma_t = Cone.from_rays([mat_vec(push_rows, g) for g in tail_gens], n=k + n)
    return PolyhedralDivisor(cd.fan.base, k + n, sigma_t, out)


def cox_correct(cd: CoxData):
    """Degree correction of the upgraded divisor, with properness report."""
    up = cox_upgrade(cd)
    out, rep = correct_pic_z(up)
    return out, rep
