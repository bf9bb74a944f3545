"""Polyhedral divisors: evaluation, properness, degree, pullback, downgrade.

A polyhedral divisor assigns to finitely many primes of a base variety a
polyhedron with a common tailcone (or the empty set); all other primes
implicitly carry the tailcone itself.  Evaluation at a weight u in the dual
of the tailcone produces a Q-divisor, with the empty coefficient evaluating
to infinity.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from ._record import _Frozen
from .base import (
    INF,
    BaseVariety,
    PrimeDivisorLabel,
    QDivisor,
    is_inf,
    point_label,
    positivity,
    ray_label,
)
from .errors import (
    AmbientMismatch,
    EmptyCoefficient,
    IndeterminateBaseMap,
    NoDegreeMap,
    NotPointed,
    NotSplit,
    UnsupportedBase,
    WeightOutsideCone,
)
from .lattice import LatticeMap
from .linalg import _cleared, smith_normal_form, solve, vec
from .polyhedra import (
    Cone,
    PolyhedralComplex,
    Polyhedron,
    chamber_complex,
    map_fiber_slice,
    normal_fan,
)


class PolyhedralDivisor:
    """Formal sum of coefficient polyhedra over primes, with tailcone."""

    def __init__(self, base: BaseVariety, n: int, tail: Cone, coeffs=None):
        if tail.n != n:
            raise AmbientMismatch("tailcone must live in the divisor lattice")
        self.base = base
        self.n = n
        self.tail = tail
        trivial = tail.as_polyhedron()
        data = {}
        for label, p in (coeffs or {}).items():
            if p.empty:
                data[label] = p
                continue
            if p.n != n:
                raise AmbientMismatch("coefficient has the wrong ambient dimension")
            if p.tail() != tail:
                raise ValueError(
                    f"coefficient at {label.id} has tailcone {p.tail()!r} != {tail!r}"
                )
            if p == trivial:
                continue
            data[label] = p
        self.coeffs = dict(sorted(data.items(), key=lambda kv: kv[0].id))
        # the divisor is immutable, so these are computed once, on first use
        self._chambers = None
        self._proper = None

    # -- basics -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, PolyhedralDivisor)
            and self.base == other.base
            and self.n == other.n
            and self.tail == other.tail
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.base, self.n, self.tail, tuple(self.coeffs.items())))

    def __repr__(self):
        bits = [f"{p!r}(x){l.id}" for l, p in self.coeffs.items()]
        return "PDiv[" + " + ".join(bits) + f"; tail rays {self.tail.rays}]"

    def weight_cone(self) -> Cone:
        return self.tail.dual()

    def marked(self) -> list[PrimeDivisorLabel]:
        return list(self.coeffs)

    def coefficient(self, label) -> Polyhedron:
        p = self.coeffs.get(label)
        return self.tail.as_polyhedron() if p is None else p

    def empty_primes(self) -> list[PrimeDivisorLabel]:
        return [l for l, p in self.coeffs.items() if p.empty]

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, u) -> QDivisor:
        """D(u) = sum min_{v in D_P} <v, u> P, on cleared integers: u is
        cleared once and tested in the weight cone as it is (`_at`)."""
        u = tuple(u)
        n = self.n
        if len(u) != n:
            raise AmbientMismatch(f"weight has {len(u)} entries, the divisor has rank {n}")
        U, e = _cleared(u)
        if not self.weight_cone()._contains_gens((U,), ()):
            raise WeightOutsideCone(f"{vec(u)} is outside the weight cone")
        return self._at(U, e)

    def _at(self, U, e: int) -> QDivisor:
        """D(U / e) for a weight U / e of the weight cone: with each vertex
        the ray (X, d) of the coefficient's `hom`, the least <X, U> / (d e)."""
        out = {}
        for label, p in self.coeffs.items():
            out[label] = INF if p.empty else p._vertex_min(U, e)
        return QDivisor(self.base, out)

    def evaluation_chambers(self) -> PolyhedralComplex:
        """Domains of linearity of u -> D(u) inside the weight cone."""
        if self._chambers is None:
            self._chambers = normal_fan(self.coeffs.values(), self.weight_cone().as_polyhedron())
        return self._chambers

    # -- properness -----------------------------------------------------------

    def is_proper(self) -> "PropernessReport":
        if self._proper is None:
            self._proper = self._properness()
        return self._proper

    def _properness(self) -> "PropernessReport":
        omega = self.weight_cone()
        fulldim = omega.dim() == self.n
        loc_semiproj = self._locus_semiprojective()
        chambers = self.evaluation_chambers()
        qc = True
        sa = True
        big = True
        failures = []
        # every probe lies in the weight cone: the rays of its chambers'
        # tails and its own, and a relative-interior point of each chamber
        probe_rays = {r for c in chambers for r in c.tail().rays}
        probe_rays.update(omega.rays)
        for u in sorted(probe_rays):
            fl = positivity(self._at(u, 1))
            if not fl.qcartier:
                qc = False
                failures.append(("qcartier", u))
            if not fl.semiample:
                sa = False
                failures.append(("semiample", u))
        for c in chambers:
            if c.dim() < omega.dim():
                continue
            fl = positivity(self._at(*c._relint()))
            if not fl.big:
                big = False
                failures.append(("big", c.relint_point()))
        return PropernessReport(
            qcartier=qc,
            semiample=sa,
            big=big,
            loc_semiprojective=loc_semiproj,
            fulldim_weightcone=fulldim,
            failures=tuple(failures),
        )

    def _locus_semiprojective(self) -> bool:
        base = self.base
        empties = self.empty_primes()
        if base.kind == "P1":
            return True  # projective, or affine after removing points
        if base.kind == "open_p1":
            return True  # affine curves
        if base.kind == "toric":
            removed = [l.ray for l in empties if l.kind == "ray"]
            if any(l.kind != "ray" for l in empties):
                return base.semiprojective
            if not removed:
                return base.semiprojective
            sub = base.subfan_without_rays(removed)
            if len(sub) == 1:
                return True  # affine locus
            return base.semiprojective
        raise UnsupportedBase(base.kind)

    # -- degree ----------------------------------------------------------------

    def degree_polyhedron(self) -> Polyhedron:
        if self.empty_primes():
            raise EmptyCoefficient("degree needs all coefficients nonempty")
        base = self.base
        if not (base.kind == "P1" or (base.kind == "toric" and base.has_degree_map())):
            raise NoDegreeMap("degree polyhedron needs a projective base with degrees")
        out = self.tail.as_polyhedron()
        for label, p in self.coeffs.items():
            deg = base.label_degree(label)
            if deg < 0:
                raise NoDegreeMap(f"prime {label.id} has the negative degree {deg}")
            out = out.minkowski(p.scale(deg))
        return out

    # -- shifting and pullback ----------------------------------------------

    def shift_by_principal(self, fshift) -> "PolyhedralDivisor":
        """Add Div(f) for f = sum v_i (x) f_i; coefficients translate."""
        moved = dict(self.coeffs)
        shifts = _principal_shifts(fshift, self.base)
        for label, w in shifts.items():
            cur = self.coefficient(label)
            if not cur.empty:
                moved[label] = cur.translate(w)
        return PolyhedralDivisor(self.base, self.n, self.tail, moved)

    def lattice_preimage(self, fmap: LatticeMap) -> "PolyhedralDivisor":
        """Coefficientwise preimage under F: N_new -> N."""
        rows = fmap.matrix
        if len(rows) != self.n:
            raise AmbientMismatch("lattice map target must be the divisor lattice")
        new_n = fmap.source.rank
        tail_p = self.tail.as_polyhedron().preimage(rows, new_n)
        new_tail = Cone.from_rays(tail_p.rays, tail_p.lines, new_n)
        coeffs = {}
        for label, p in self.coeffs.items():
            coeffs[label] = p.preimage(rows, new_n)
        return PolyhedralDivisor(self.base, new_n, new_tail, coeffs)

    def pullback(self, triple: "PullbackTriple") -> "PolyhedralDivisor":
        d = self
        if triple.base_map is not None:
            d = _toric_base_pullback(d, triple.base_map, triple.target_base)
        if triple.shift:
            d = d.shift_by_principal(triple.shift)
        if triple.lattice_map is not None:
            d = d.lattice_preimage(triple.lattice_map)
        return d


class PropernessReport(_Frozen):
    __slots__ = ("qcartier", "semiample", "big", "loc_semiprojective", "fulldim_weightcone",
                 "failures")

    def __init__(self, qcartier: bool, semiample: bool, big: bool, loc_semiprojective: bool,
                 fulldim_weightcone: bool, failures: tuple = ()):
        self._init(qcartier, semiample, big, loc_semiprojective, fulldim_weightcone, failures)

    @property
    def proper(self) -> bool:
        return (
            self.qcartier
            and self.semiample
            and self.big
            and self.loc_semiprojective
            and self.fulldim_weightcone
        )

    def as_dict(self) -> dict:
        return {
            "qcartier": self.qcartier,
            "semiample": self.semiample,
            "big": self.big,
            "loc_semiprojective": self.loc_semiprojective,
            "fulldim_weightcone": self.fulldim_weightcone,
            "proper": self.proper,
        }


class PullbackTriple(_Frozen):
    """(psi, F, f): base morphism, lattice map, principal shift.

    `shift` is a tuple of (vector, rational function) pairs.
    """

    __slots__ = ("base_map", "target_base", "lattice_map", "shift")

    def __init__(self, base_map: LatticeMap | None = None,
                 target_base: BaseVariety | None = None,
                 lattice_map: LatticeMap | None = None, shift: tuple = ()):
        self._init(base_map, target_base, lattice_map, shift)


def _principal_shifts(fshift, base) -> dict:
    shifts = {}
    for v, f in fshift:
        dv = f.divisor(base)
        for label, c in dv.coeffs.items():
            if is_inf(c):
                raise ValueError("principal parts cannot be infinite")
            w = tuple(c * x for x in v)
            if label in shifts:
                shifts[label] = tuple(a + b for a, b in zip(shifts[label], w))
            else:
                shifts[label] = w
    return {l: w for l, w in shifts.items() if any(w)}


def principal_pdivisor(fshift, base: BaseVariety, n: int) -> PolyhedralDivisor:
    """Div(f)(u) = sum <v_i, u> div(f_i), as a divisor with point coefficients."""
    shifts = _principal_shifts(fshift, base)
    tail = Cone.zero(n)
    coeffs = {l: Polyhedron.point(w) for l, w in shifts.items()}
    return PolyhedralDivisor(base, n, tail, coeffs)


def _toric_base_pullback(d, base_map: LatticeMap, new_base: BaseVariety):
    """psi^* for a toric morphism of bases, via ray-image multiplicities."""
    if d.base.kind != "toric" or new_base is None or new_base.kind != "toric":
        raise IndeterminateBaseMap("base pullback implemented for toric maps only")
    rows = base_map.matrix
    coeffs = {}
    for r in new_base.rays():
        img = tuple(sum(map(mul, row, r)) for row in rows)
        rays = d.base.carrier_rays(img)
        if rays is None:
            raise IndeterminateBaseMap(f"ray image {img} misses the target fan")
        if not rays:
            continue
        lam = solve([list(x) for x in zip(*rays)], img)
        if lam is None or any(x < 0 for x in lam):
            raise IndeterminateBaseMap("ray image is not a nonnegative ray combination")
        total = None
        for mult, rho in zip(lam, rays):
            if mult == 0:
                continue
            p = d.coefficient(ray_label(rho, d.base.ray_degree(rho))).scale(mult)
            total = p if total is None else total.minkowski(p)
        if total is not None and total != d.tail.as_polyhedron():
            coeffs[new_base.ray(r)] = total
    # declared primes of the source pull back by matching label
    for label, p in d.coeffs.items():
        if label.kind == "declared":
            coeffs[label] = p
    return PolyhedralDivisor(new_base, d.n, d.tail, coeffs)


def as_curve_divisor(d: PolyhedralDivisor) -> PolyhedralDivisor:
    """Move a divisor on a one-dimensional toric base to the projective line.

    The ray +1 becomes the point 0 and the ray -1 the point at infinity; an
    affine base (single ray) leaves the other point unmarked.
    """
    base = d.base
    if base.kind != "toric" or base.rank_n != 1:
        raise UnsupportedBase("curve conversion needs a one-dimensional toric base")
    p1 = BaseVariety.projective_line()
    mapping = {(1,): point_label(0), (-1,): point_label(INF)}
    coeffs = {}
    for label, p in d.coeffs.items():
        if label.kind != "ray":
            raise UnsupportedBase("only invariant labels convert")
        coeffs[mapping[label.ray]] = p
    return PolyhedralDivisor(p1, d.n, d.tail, coeffs)


# ---------------------------------------------------------------------------
# toric downgrade
# ---------------------------------------------------------------------------


def toric_downgrade(delta: Cone, sub: LatticeMap):
    """Describe the toric variety of `delta` under the subtorus of `sub`.

    `sub` embeds the subtorus cocharacter lattice Nbar into the big lattice.
    Returns (base, divisor, report): the toric base on the image fan of the
    quotient projection, the polyhedral divisor with fiber coefficients, and
    its properness report.
    """
    if not delta.is_pointed():
        raise NotPointed("toric downgrade needs a pointed cone")
    ntilde = delta.n
    k = sub.source.rank
    if k > ntilde:
        raise NotSplit(f"{k} sublattice generators exceed the lattice rank {ntilde}")
    # quotient projection killing the sublattice, from the Smith form
    # U . sub . V = D
    quot_rank = ntilde - k
    u, dmat, v = smith_normal_form(sub.matrix)
    diagonal = [abs(dmat[i][i]) for i in range(k)]
    if 0 in diagonal:
        raise NotSplit("sublattice generators are linearly dependent")
    if any(x != 1 for x in diagonal):
        raise NotSplit("sublattice is not saturated (torsion quotient)")
    # rows k.. of U kill the image and are unimodular onto the quotient
    q_rows = [u[i] for i in range(k, ntilde)]
    # retraction onto Nbar: s = V . (first k rows of U)
    s_rows = [[sum(v[i][t] * u[t][j] for t in range(k)) for j in range(ntilde)] for i in range(k)]
    dpoly = delta.as_polyhedron()
    # image fan: chamber complex of the projected faces
    cones = []
    for c in chamber_complex(dpoly, q_rows):
        t = c.tail()
        if not t.is_pointed():
            raise UnsupportedBase("image fan is not pointed; base is not a toric variety")
        cones.append(t)
    base = BaseVariety.toric(cones, name="chow-quotient")
    # divisor: coefficient at each ray = retracted fiber over its generator
    tail = map_fiber_slice(dpoly, q_rows, (Fraction(0),) * quot_rank, s_rows).tail()
    coeffs = {}
    for r in base.rays():
        p = map_fiber_slice(dpoly, q_rows, r, s_rows)
        coeffs[base.ray(r)] = p
    divisor = PolyhedralDivisor(base, k, tail, coeffs)
    return base, divisor, divisor.is_proper()
