"""Base varieties and Q-divisors with infinity coefficients.

Supported bases are exactly the desk-scale ones the constructions need: the
projective line, open subsets of it, and toric varieties given by fans.
Divisor coefficients live in Q union {infinity}; every predicate silently
restricts to the locus (the complement of the infinity-coefficient primes).

Rational functions on the projective line are formal products of linear
factors; a factor at the infinity point means 1/x, so div(f) always has
degree zero.  On toric bases functions are products of characters and
declared binomial primes.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from operator import mul

from ._record import _Frozen, _Record
from .errors import (
    NegativePoleBound,
    NoDegreeMap,
    NonIntegral,
    TooManySections,
    UnsupportedBase,
    ZeroFunction,
)
from .linalg import Vec, _lattice_vector, frac, integral_solve, rank, smith_normal_form, solve, vdot
from .polyhedra import Cone, Polyhedron, _members


class _PlusInfinity:
    """The single infinity used in divisor coefficients."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, _PlusInfinity)

    def __hash__(self):
        return hash("pdiv-infinity")

    def __gt__(self, other):
        return not isinstance(other, _PlusInfinity)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _PlusInfinity)

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _PlusInfinity) or other > 0:
            return self
        raise ValueError("infinity times a nonpositive scalar is undefined here")

    __rmul__ = __mul__

    def __neg__(self):
        raise ValueError("negative infinity never occurs in divisor coefficients")


INF = _PlusInfinity()


def is_inf(x) -> bool:
    return isinstance(x, _PlusInfinity)


# ---------------------------------------------------------------------------
# prime divisor labels and base varieties
# ---------------------------------------------------------------------------


class PrimeDivisorLabel(_Frozen):
    """A prime divisor on a base variety.

    kind "point": a point of P^1 (geometry = rational number or INF).
    kind "ray": a torus-invariant divisor of a toric base (geometry = ray).
    kind "declared": a non-invariant prime on a toric base, carried with an
    invariant linear-equivalence representative (ray -> coefficient) so that
    class-level predicates can substitute it: `class_rep` is a sorted tuple
    of (ray, coefficient) pairs.
    Every ray, of a "ray" label and in a `class_rep`, is an `int` tuple, and
    every coefficient of a `class_rep` an `int`.

    Labels are interned (hash-consed, Filliatre-Conchon 2006): a class and
    its six fields give one object, kept in `_LABELS` for as long as
    something else holds it, so equal labels are identical and equality and
    hashing are those of `object`, which dict and set lookups run in C.
    """

    __slots__ = ("id", "kind", "point", "ray", "class_rep", "degree", "__weakref__")

    def __new__(cls, id: str, kind: str, point: object = None, ray: tuple | None = None,
                class_rep: tuple = (), degree: Fraction | None = None):
        key = (cls, id, kind, point, ray, class_rep, degree)
        label = _LABELS.get(key)
        if label is None:
            label = object.__new__(cls)
            for name, value in zip(cls._fields, key[1:]):
                object.__setattr__(label, name, value)
            _LABELS[key] = label
        return label

    __eq__ = object.__eq__
    __hash__ = object.__hash__


# (class, fields) -> the one label with them, while something else holds it
_LABELS = weakref.WeakValueDictionary()


def point_label(x) -> PrimeDivisorLabel:
    x = INF if is_inf(x) else frac(x)
    pid = "inf" if is_inf(x) else str(x)
    return PrimeDivisorLabel(id=pid, kind="point", point=x, degree=Fraction(1))


def spare_points(taken) -> list[Fraction]:
    """The points 0, 1, ..., 49 of the line, in order, whose labels are not
    in `taken`: fresh points to pad a set of marks or to place slack at."""
    taken = set(taken)
    return [Fraction(k) for k in range(50) if point_label(k) not in taken]


def ray_label(ray, degree=None) -> PrimeDivisorLabel:
    r = _lattice_vector(ray, "rays")
    pid = "ray(" + ",".join(str(x) for x in r) + ")"
    return PrimeDivisorLabel(
        id=pid, kind="ray", ray=r, degree=frac(degree) if degree is not None else None
    )


def declared_label(name, class_rep, degree=None) -> PrimeDivisorLabel:
    rep = tuple(sorted(
        (_lattice_vector(r, "rays"), _lattice_vector((c,), "class representatives")[0]) for r, c in class_rep
    ))
    return PrimeDivisorLabel(
        id=name,
        kind="declared",
        class_rep=rep,
        degree=frac(degree) if degree is not None else None,
    )


def binomial_label(name, a, b, rays, degree=None) -> PrimeDivisorLabel:
    """Prime cut out by the (assumed irreducible) binomial chi^a - chi^b.

    Its divisor class representative follows from
    div(chi^a - chi^b) = D + sum_rho min(<v_rho,a>, <v_rho,b>) D_rho.
    """
    a, b = _lattice_vector(a, "characters"), _lattice_vector(b, "characters")
    rep = []
    for r in rays:
        r = _lattice_vector(r, "rays")
        m = min(sum(map(mul, r, a)), sum(map(mul, r, b)))
        if m != 0:
            rep.append((r, -m))
    return declared_label(name, rep, degree)


class BaseVariety:
    """P^1, an open subset of P^1, or a toric variety given by a fan."""

    def __init__(self, kind, removed=(), fan=(), rank_n=0, semiprojective=True, name=""):
        self.kind = kind  # "P1" | "open_p1" | "toric"
        self.removed = tuple(removed)
        self.fan = tuple(fan)  # maximal cones (Cone objects)
        self.rank_n = rank_n
        self.semiprojective = semiprojective
        self.name = name or kind
        self._declared: dict[str, PrimeDivisorLabel] = {}
        self._degrees: dict[tuple, Fraction] = {}  # ray -> degree, on a toric base
        if kind == "open_p1" and not removed:
            raise ValueError("an open subset of P^1 must remove at least one point")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def projective_line() -> "BaseVariety":
        return BaseVariety("P1", name="P1")

    @staticmethod
    def open_projective_line(removed) -> "BaseVariety":
        pts = tuple(INF if is_inf(x) else frac(x) for x in removed)
        return BaseVariety("open_p1", removed=pts, name="P1 minus points")

    @staticmethod
    def toric(max_cones, degrees=None, semiprojective=True, name="toric") -> "BaseVariety":
        cones = tuple(max_cones)
        if not cones:
            raise ValueError("a toric base needs at least one cone")
        n = cones[0].n
        for c in cones:
            if not c.is_pointed():
                raise UnsupportedBase("toric base fans must be pointed")
        bv = BaseVariety("toric", fan=cones, rank_n=n, semiprojective=semiprojective, name=name)
        bv._degrees = {
            _lattice_vector(r, "degree keys"): frac(d) for r, d in (degrees or {}).items()
        }
        return bv

    # -- structure --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, BaseVariety)
            and self.kind == other.kind
            and self.removed == other.removed
            and self.fan == other.fan
        )

    def __hash__(self):
        return hash((self.kind, self.removed, self.fan))

    def __repr__(self):
        return f"BaseVariety({self.name})"

    def rays(self) -> list[Vec]:
        out = {}
        for c in self.fan:
            for r in c.rays:
                out[r] = None
        return sorted(out)

    def ray_degree(self, ray) -> Fraction | None:
        return self._degrees.get(ray)

    def has_degree_map(self) -> bool:
        if self.kind == "toric":
            return bool(self._degrees) and all(r in self._degrees for r in self.rays())
        return self.kind == "P1"

    def label_degree(self, label: PrimeDivisorLabel) -> Fraction:
        if self.kind == "P1":
            return Fraction(1)
        if label.degree is not None:
            return label.degree
        if label.kind == "ray":
            d = self.ray_degree(label.ray)
            if d is not None:
                return d
        raise NoDegreeMap(f"no degree for prime {label.id} on {self.name}")

    def declare_prime(self, label: PrimeDivisorLabel):
        if self.kind != "toric":
            raise UnsupportedBase("declared primes only live on toric bases")
        # the class is read off the fan's rays only: another vector would be dropped
        rays = set(self.rays())
        for r, _ in label.class_rep:
            if r not in rays:
                raise UnsupportedBase(
                    f"the class representative of {label.id} names ({','.join(map(str, r))}),"
                    " which is not a ray of the fan"
                )
        self._declared[label.id] = label
        return label

    def point(self, x) -> PrimeDivisorLabel:
        if self.kind not in ("P1", "open_p1"):
            raise UnsupportedBase("point labels only live on curve bases")
        x = INF if is_inf(x) else frac(x)
        if self.kind == "open_p1" and x in self.removed:
            raise ValueError(f"point {x} was removed from the base")
        return point_label(x)

    def ray(self, r) -> PrimeDivisorLabel:
        if self.kind != "toric":
            raise UnsupportedBase("ray labels live on toric bases")
        r = _lattice_vector(r, "rays")
        if r not in set(self.rays()):
            raise ValueError(f"({','.join(map(str, r))}) is not a ray of the fan")
        return ray_label(r, self.ray_degree(r))

    # -- fan predicates ----------------------------------------------------

    def fan_is_complete(self) -> bool:
        if self.kind != "toric" or any(c.dim() != self.rank_n for c in self.fan):
            return False
        # complete iff no maximal cone has a boundary facet; the fan is
        # pointed, so a facet is the cone over the rays on its normal
        for c in self.fan:
            for f in c._incidence():
                tight = [c.rays[i] for i in _members(f)]
                if sum(1 for d in self.fan if all(d.contains(r) for r in tight)) < 2:
                    return False
        return True

    def fan_is_smooth(self) -> bool:
        if self.kind != "toric":
            return True
        for c in self.fan:
            if not cone_is_smooth(c):
                return False
        return True

    def carrier_rays(self, x) -> list[Vec] | None:
        """Rays of the smallest fan face containing x, None if no cone does.

        Over overlapping cones the first face of least dimension wins.  In a
        cone c that face is spanned by the rays of c tight on every
        inequality of c that is tight at x.
        """
        best = None
        for c in self.fan:
            if not c.contains(x):
                continue
            rays = c._carrier([x])
            dim = rank(rays) if rays else 0
            if best is None or dim < best[0]:
                best = (dim, rays)
        return None if best is None else best[1]

    def subfan_without_rays(self, removed_rays) -> list[Cone]:
        removed = set(removed_rays)
        keep = []
        for c in self.fan:
            faces = [c] if not (set(c.rays) & removed) else [
                f for f in c.faces() if not (set(f.rays) & removed)
            ]
            keep.extend(faces)
        maximal = {c for c in keep if not any(d is not c and d.contains_cone(c) and d != c for d in keep)}
        return sorted(maximal, key=lambda c: (c.rays, c.lines))


def cone_index(c: Cone) -> int:
    """Index of the lattice spanned by the rays of c in its saturation.

    The product of the Smith invariant factors of the ray matrix; 0 when the
    rays are linearly dependent, that is when c is not simplicial.
    """
    k = len(c.rays)
    if k > c.n:
        return 0
    _, d, _ = smith_normal_form(c.rays)
    return abs(math.prod(d[i][i] for i in range(k)))


def cone_is_smooth(c: Cone) -> bool:
    """Simplicial with an extendable lattice basis (all SNF factors 1)."""
    return c.is_pointed() and cone_index(c) == 1


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------


class QDivisor:
    """Finite formal sum of primes with coefficients in Q union {INF}."""

    def __init__(self, base: BaseVariety, coeffs=None):
        self.base = base
        data = {}
        for label, c in (coeffs or {}).items():
            c = c if is_inf(c) else frac(c)
            if not is_inf(c) and c == 0:
                continue
            data[label] = c
        self.coeffs = dict(sorted(data.items(), key=lambda kv: kv[0].id))

    def __eq__(self, other):
        return (
            isinstance(other, QDivisor)
            and self.base == other.base
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.base, tuple(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{l.id}" for l, c in self.coeffs.items())

    def coefficient(self, label) -> Fraction:
        return self.coeffs.get(label, Fraction(0))

    def finite_part(self) -> dict:
        return {l: c for l, c in self.coeffs.items() if not is_inf(c)}

    def infinity_primes(self):
        return [l for l, c in self.coeffs.items() if is_inf(c)]

    def add(self, other: "QDivisor") -> "QDivisor":
        out = dict(self.coeffs)
        for l, c in other.coeffs.items():
            if l in out:
                if is_inf(out[l]) or is_inf(c):
                    out[l] = INF
                else:
                    out[l] = out[l] + c
            else:
                out[l] = c
        return QDivisor(self.base, out)

    def scale(self, s) -> "QDivisor":
        s = frac(s)
        if s == 0:
            return QDivisor(self.base, {})
        if s < 0 and self.infinity_primes():
            raise ValueError("cannot negate an infinity coefficient")
        return QDivisor(self.base, {l: (c if is_inf(c) else s * c) for l, c in self.coeffs.items()})

    def leq(self, other: "QDivisor") -> bool:
        labels = set(self.coeffs) | set(other.coeffs)
        for l in labels:
            a = self.coeffs.get(l, Fraction(0))
            b = other.coeffs.get(l, Fraction(0))
            if is_inf(a) and not is_inf(b):
                return False
            if is_inf(b):
                continue
            if a > b:
                return False
        return True


def degree(d: QDivisor):
    """Sum of coefficient * degree(P); INF if any coefficient is infinite."""
    base = d.base
    if base.kind == "P1":
        pass
    elif base.kind == "toric" and base.fan_is_complete() and base.has_degree_map():
        pass
    else:
        raise NoDegreeMap(f"base {base.name} is not projective with a degree map")
    if d.infinity_primes():
        return INF
    total = Fraction(0)
    for l, c in d.coeffs.items():
        total += c * base.label_degree(l)
    return total


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class CurveFunction:
    """Formal product prod (x - a_i)^{n_i} on P^1; a factor at INF is 1/x."""

    def __init__(self, factors=None):
        data = {}
        for a, k in (factors or {}).items():
            a = INF if is_inf(a) else frac(a)
            (k,) = _lattice_vector((k,), "exponents")
            if k:
                data[a] = data.get(a, 0) + k
        self.factors = {a: k for a, k in data.items() if k}

    def order_at(self, x) -> int:
        x = INF if is_inf(x) else frac(x)
        fin = {a: k for a, k in self.factors.items() if not is_inf(a)}
        at_inf = self.factors.get(INF, 0)
        if is_inf(x):
            return at_inf - sum(fin.values())
        out = fin.get(x, 0)
        if x == 0:
            out -= at_inf
        return out

    def divisor(self, base: BaseVariety) -> QDivisor:
        pts = set(self.factors)
        pts.add(INF)
        if any(not is_inf(a) and a == 0 for a in self.factors) or INF in self.factors:
            pts.add(Fraction(0))
        coeffs = {}
        for a in pts:
            o = self.order_at(a)
            if o:
                coeffs[point_label(a)] = Fraction(o)
        return QDivisor(base, coeffs)

    def __eq__(self, other):
        return isinstance(other, CurveFunction) and self.factors == other.factors

    def __hash__(self):
        return hash(tuple(sorted(self.factors.items(), key=lambda kv: (is_inf(kv[0]), kv[0] if not is_inf(kv[0]) else 0))))

    def __repr__(self):
        if not self.factors:
            return "1"
        bits = []
        for a, k in self.factors.items():
            if is_inf(a):
                bits.append(f"(1/x)^{k}" if k != 1 else "(1/x)")
            elif a == 0:
                bits.append(f"x^{k}" if k != 1 else "x")
            else:
                bits.append(f"(x-{a})^{k}" if k != 1 else f"(x-{a})")
        return "*".join(bits)


class ToricFunction:
    """Product of characters and declared binomial primes on a toric base:
    `chars` maps characters, `int` tuples, and `declared` maps declared
    prime labels to nonzero `int` exponents (`NonIntegral` otherwise)."""

    def __init__(self, char_exponents=None, declared_factors=None):
        chars = {}
        for m, k in (char_exponents or {}).items():
            m = _lattice_vector(m, "characters")
            (k,) = _lattice_vector((k,), "exponents")
            if k:
                chars[m] = chars.get(m, 0) + k
        self.chars = {m: k for m, k in chars.items() if k}
        decl = {}
        for lab, k in (declared_factors or {}).items():
            (k,) = _lattice_vector((k,), "exponents")
            if k:
                decl[lab] = decl.get(lab, 0) + k
        self.declared = decl

    def __eq__(self, other):
        return isinstance(other, ToricFunction) and (
            (self.chars, self.declared) == (other.chars, other.declared)
        )

    def __hash__(self):
        return hash((frozenset(self.chars.items()), frozenset(self.declared.items())))

    def __repr__(self):
        bits = [f"chi^({','.join(map(str, m))})" + (f"^{k}" if k != 1 else "")
                for m, k in sorted(self.chars.items())]
        bits += [lab.id + (f"^{k}" if k != 1 else "")
                 for lab, k in sorted(self.declared.items(), key=lambda kv: kv[0].id)]
        return "*".join(bits) or "1"

    def order_along(self, label: PrimeDivisorLabel) -> int:
        if label.kind == "ray":
            total = 0
            for m, k in self.chars.items():
                total += k * sum(map(mul, label.ray, m))
            for lab, k in self.declared.items():
                rep = dict(lab.class_rep)
                # ord of a declared prime's equation along an invariant ray
                total -= k * rep.get(label.ray, 0)
            return total
        if label.kind == "declared":
            return self.declared.get(label, 0)
        raise UnsupportedBase("toric functions have no orders at curve points")

    def divisor(self, base: BaseVariety) -> QDivisor:
        coeffs = {}
        for r in base.rays():
            lab = ray_label(r, base.ray_degree(r))
            o = self.order_along(lab)
            if o:
                coeffs[lab] = Fraction(o)
        for lab, k in self.declared.items():
            coeffs[lab] = coeffs.get(lab, Fraction(0)) + k
        return QDivisor(base, coeffs)


def order_along(f, label: PrimeDivisorLabel) -> int:
    if f is None:
        raise ZeroFunction("the zero function has no order")
    if isinstance(f, CurveFunction):
        if label.kind != "point":
            raise UnsupportedBase("curve functions have orders at points only")
        return f.order_at(label.point)
    if isinstance(f, ToricFunction):
        return f.order_along(label)
    raise ZeroFunction("not a rational function")


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


class SectionSpace(_Record):
    """L(d) as its dimension and a basis, with the section polytope on a
    toric base and whether poles at removed points were truncated.

    On a curve the basis is built on first access to `basis` and kept, from
    the function f0 in the private slot `_f0` (see `global_sections`), so a
    caller that reads only `dimension` builds no function.
    """

    __slots__ = ("dimension", "basis", "polytope", "truncated", "_f0")

    def __init__(self, dimension: int | None, basis: tuple,
                 polytope: Polyhedron | None = None, truncated: bool = False):
        self.dimension = dimension
        self.basis = basis
        self.polytope = polytope
        self.truncated = truncated

    @classmethod
    def _on_curve(cls, f0: "CurveFunction", deg: int, truncated: bool) -> "SectionSpace":
        """L(d) of dimension deg + 1 on a curve, with the basis f0 * x^k,
        k = 0..deg, left to its first access."""
        s = cls.__new__(cls)
        s.dimension = deg + 1
        s.polytope = None
        s.truncated = truncated
        s._f0 = f0
        return s

    def __getattr__(self, name):
        # only an unset slot gets here: a curve basis not read yet
        if name != "basis":
            raise AttributeError(name)
        self.basis = _times_powers_of_x(self._f0, self.dimension - 1)
        return self.basis


# Largest dimension of L(d) on a curve whose basis `global_sections` builds.
# A basis of 10^5 functions takes about a second to build; a coefficient of
# 10^40 would ask for more memory than any machine has.
MAX_CURVE_SECTIONS = 10**5


def global_sections(d: QDivisor, pole_bound: int | None = None) -> SectionSpace:
    """Basis description of L(d) = {f : div(f) + d >= 0}.

    P^1: explicit rational-function basis of dimension deg(floor d) + 1,
    f0 * x^k for k = 0..deg; each element is built from f0's factors with
    only the exponent at 0 changed.  The dimension is set here, the basis
    on its first access (`SectionSpace`).  Above `MAX_CURVE_SECTIONS` it
    raises `TooManySections` instead, here and not on that access.
    Open subsets of P^1 (or infinite coefficients): poles at removed primes
    are unbounded; they are truncated at `pole_bound`, which must be >= 0
    (`NegativePoleBound` otherwise: a negative bound would force zeros there).
    Toric with invariant d: characters in the section polytope; an unbounded
    polytope gives no basis and dimension None.
    """
    if pole_bound is not None and pole_bound < 0:
        raise NegativePoleBound(f"the pole bound must be >= 0, got {pole_bound}")
    base = d.base
    if base.kind in ("P1", "open_p1"):
        # in a fixed order: the order of f0's factors is that of `work`
        removed = dict.fromkeys([*base.removed, *(l.point for l in d.infinity_primes())])
        work = {l.point: c for l, c in d.finite_part().items()}
        truncated = False
        if removed:
            if pole_bound is None:
                raise UnsupportedBase(
                    "sections on an open curve need a pole bound at the removed points"
                )
            truncated = True
            for x in removed:
                work[x] = work.get(x, Fraction(0)) + pole_bound
        floor_c = {a: math.floor(c) for a, c in work.items()}
        deg = sum(floor_c.values())
        if deg < 0:
            return SectionSpace(0, (), truncated=truncated)
        if deg + 1 > MAX_CURVE_SECTIONS:
            raise TooManySections(
                f"L(D) has dimension {deg + 1}, above MAX_CURVE_SECTIONS = {MAX_CURVE_SECTIONS}"
            )
        f0 = CurveFunction({a: -c for a, c in floor_c.items() if not is_inf(a)})
        return SectionSpace._on_curve(f0, deg, truncated)
    if base.kind == "toric":
        if any(l.kind != "ray" for l in d.coeffs):
            raise UnsupportedBase("toric sections need a torus-invariant divisor")
        n = base.rank_n
        locus_removed = [l.ray for l in d.infinity_primes()]
        rays = [r for r in base.rays() if r not in set(locus_removed)]
        ineqs = []
        for r in rays:
            lab = ray_label(r, base.ray_degree(r))
            c = d.coefficient(lab)
            ineqs.append((r, -c))
        poly = Polyhedron.from_H(ineqs, (), n)
        if poly.empty:
            return SectionSpace(0, (), polytope=poly)
        if poly.is_bounded():
            pts = poly.lattice_points()
            basis = tuple(ToricFunction({m: 1}) for m in pts)
            return SectionSpace(len(pts), basis, polytope=poly)
        return SectionSpace(None, (), polytope=poly)
    raise UnsupportedBase(base.kind)


# ---------------------------------------------------------------------------
# principality and positivity
# ---------------------------------------------------------------------------


def _times_powers_of_x(f0: CurveFunction, deg: int) -> tuple:
    """f0 * x^k for k = 0..deg, with the factors in the order that
    multiplying by x one step at a time gives: the factor at 0 keeps its place while
    its exponent keeps the sign it has in f0, is dropped at exponent 0,
    and is appended last once the exponent turns positive from <= 0."""
    zero = Fraction(0)
    e0 = f0.factors.get(zero, 0)
    rest = {a: k for a, k in f0.factors.items() if a != zero}
    out = []
    for e in range(e0, e0 + deg + 1):
        if e == 0:
            factors = dict(rest)
        elif e0 > 0 or e < 0:
            factors = dict(f0.factors)
            factors[zero] = e
        else:
            factors = {**rest, zero: e}
        f = CurveFunction.__new__(CurveFunction)
        f.factors = factors
        out.append(f)
    return tuple(out)


def is_principal(d: QDivisor):
    """Decide principality for integral divisors; returns (bool, witness)."""
    for c in d.coeffs.values():
        if is_inf(c) or c.denominator != 1:
            raise NonIntegral("principality needs integral finite coefficients")
    base = d.base
    if base.kind in ("P1", "open_p1"):
        total = sum(d.coeffs.values(), Fraction(0))
        if total != 0:
            return False, None
        factors = {l.point: int(c) for l, c in d.coeffs.items() if not is_inf(l.point)}
        return True, CurveFunction(factors)
    if base.kind == "toric":
        cr = _invariant_representative(d)
        rays = base.rays()
        m = integral_solve(rays, [cr.get(r, Fraction(0)) for r in rays])
        if m is None:
            return False, None
        declared_part = {l: int(c) for l, c in d.coeffs.items() if l.kind == "declared"}
        return True, ToricFunction({tuple(m): 1}, declared_part)
    raise UnsupportedBase(base.kind)


class PositivityFlags(_Frozen):
    __slots__ = ("qcartier", "semiample", "big")

    def __init__(self, qcartier: bool, semiample: bool, big: bool):
        self._init(qcartier, semiample, big)


def positivity(d: QDivisor) -> PositivityFlags:
    """Q-Cartier / semiample / big flags of d restricted to its locus."""
    base = d.base
    if base.kind in ("P1", "open_p1"):
        if base.kind == "open_p1" or d.infinity_primes():
            return PositivityFlags(True, True, True)
        # the sign of the degree, summed over one common denominator
        den = math.lcm(*(c.denominator for c in d.coeffs.values()))
        num = sum(c.numerator * (den // c.denominator) for c in d.coeffs.values())
        return PositivityFlags(True, num >= 0, num > 0)
    if base.kind == "toric":
        return _toric_positivity(base, d)
    raise UnsupportedBase(base.kind)


def _invariant_representative(d: QDivisor) -> dict:
    """ray -> coefficient of the invariant divisor in the class of the finite
    part of d: each declared prime is replaced by its representative."""
    cr = {}
    for l, c in d.coeffs.items():
        if is_inf(c):
            continue
        if l.kind == "ray":
            cr[l.ray] = cr.get(l.ray, Fraction(0)) + c
        elif l.kind == "declared":
            for r, rc in l.class_rep:
                cr[r] = cr.get(r, Fraction(0)) + c * rc
        else:
            raise UnsupportedBase("mixed labels")
    return cr


def _toric_positivity(base: BaseVariety, d: QDivisor) -> PositivityFlags:
    # invariant representative of the class, restricted to the locus subfan
    removed = [l.ray for l in d.infinity_primes() if l.kind == "ray"]
    if any(l.kind == "declared" and is_inf(c) for l, c in d.coeffs.items()):
        raise UnsupportedBase("infinite coefficients on declared primes")
    cr = _invariant_representative(d)
    subfan = base.subfan_without_rays(removed) if removed else list(base.fan)
    rays = sorted({r for c in subfan for r in c.rays})
    a = {r: cr.get(r, Fraction(0)) for r in rays}
    qcartier = True
    cone_solutions = []
    for c in subfan:
        rows = [list(r) for r in c.rays]
        rhs = [-a[r] for r in c.rays]
        sol = solve(rows, rhs) if rows else ()
        if sol is None:
            qcartier = False
            break
        cone_solutions.append(sol)
    semiample = qcartier
    if qcartier:
        for sol in cone_solutions:
            for r in rays:
                if vdot(sol, r) < -a[r]:
                    semiample = False
                    break
            if not semiample:
                break
    # section polytope full-dimensional <=> big
    ineqs = [(r, -a[r]) for r in rays]
    poly = Polyhedron.from_H(ineqs, (), base.rank_n) if rays else Polyhedron.from_H(
        (), (), base.rank_n
    )
    big = (not poly.empty) and poly.dim() == base.rank_n
    return PositivityFlags(qcartier, semiample, big)
