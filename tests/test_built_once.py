"""What a round trip builds once, or only when it is read.

Prime divisor labels are interned: equal fields give one object, from every
constructor and from `cli.parse`, and the intern table keeps no label
alive.  A divisorial fan computes its contraction-freeness and its index of
tail rays and slice vertices once, for every divisor on it.  A curve's
section space sets its dimension and builds its basis on first access.
"""

from __future__ import annotations

import gc
import math
import random
from fractions import Fraction
from pathlib import Path

from helpers import P1, random_proper_rank2
from pdivisors import base as base_module
from pdivisors import cli
from pdivisors.base import (
    INF,
    BaseVariety,
    CurveFunction,
    PrimeDivisorLabel,
    QDivisor,
    SectionSpace,
    ToricFunction,
    _times_powers_of_x,
    binomial_label,
    declared_label,
    global_sections,
    is_inf,
    point_label,
    ray_label,
)
from pdivisors.downgrade import DowngradeContext, downgrade
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.pdivisor import PolyhedralDivisor
from pdivisors.polyhedra import Cone
from pdivisors.tvariety import (
    DivisorialFan,
    TInvariantDivisor,
    box_and_psi,
    graded_sections,
    invariant_prime_divisors,
    principal_invariant_divisor,
)
from pdivisors.upgrade import InvariantPDivisorOnFan, upgrade

F = Fraction
FIX = Path(__file__).parent / "fixtures"
CTX = DowngradeContext.from_projection(LatticeMap(Lattice(2), Lattice(1), [[1, 1]]))


def _divisors(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_proper_rank2(rng)
        if d is not None:
            out.append(d)
    return out


# -- interned labels ---------------------------------------------------------


def _labels(obj):
    """Every label a parsed document holds, in a fixed order."""
    if isinstance(obj, PolyhedralDivisor):
        return [*obj.coeffs, *obj.base._declared.values()]
    if isinstance(obj, DivisorialFan):
        return [label for m in obj.members for label in _labels(m)]
    if isinstance(obj, InvariantPDivisorOnFan):
        return [*_labels(obj.fan), *obj.verts, *(label for label, _ in obj.vertex_coeffs)]
    return []


def _rebuilt(label):
    """The label again, from each constructor that can give it."""
    fields = dict(zip(label._fields, label._values()))
    out = [PrimeDivisorLabel(*label._values()), PrimeDivisorLabel(**fields)]
    if label.kind == "point":
        out.append(point_label(label.point))
    elif label.kind == "ray":
        out.append(ray_label(label.ray, label.degree))
    else:
        out.append(declared_label(label.id, label.class_rep, label.degree))
    return out


def test_labels_from_every_constructor_are_one_object():
    y = BaseVariety.toric([Cone.from_rays([(1, 0), (1, 1)]), Cone.from_rays([(1, 1), (0, 1)])])
    same = [
        (point_label(3), point_label("6/2"), P1.point(F(3)), PrimeDivisorLabel("3", "point", F(3), degree=F(1))),
        (point_label(INF), P1.point(INF), next(
            l for l in CurveFunction({INF: 1}).divisor(P1).coeffs if l.point is INF
        )),
        (ray_label((1, 0)), ray_label(("1", F(0))), y.ray((1, 0)), next(
            l for l in ToricFunction({(1, 0): 1}).divisor(y).coeffs if l.ray == (1, 0)
        )),
        (declared_label("D", [((1, 0), 1), ((0, 1), -2)]), declared_label("D", [(("0", "1"), "-2"), ((1, 0), 1)])),
        (binomial_label("B", (1, 0), (0, 1), [(1, 0), (0, 1)]), binomial_label("B", (1, 0), (0, 1), [(0, 1), (1, 0)])),
    ]
    for group in same:
        assert all(label is group[0] for label in group), group
        for label in group:
            assert all(again is label for again in _rebuilt(label))
    # a different field, or a subclass, gives an unequal label
    a = PrimeDivisorLabel("0", "point", F(0), degree=F(1))
    for other in (
        PrimeDivisorLabel("0", "point", F(0)),
        PrimeDivisorLabel("0", "point", F(0), degree=F(2)),
        PrimeDivisorLabel("0", "ray", F(0), degree=F(1)),
        ray_label((1, 2), 3),
    ):
        assert other is not a and other != a and not other == a
    sub = type("Sub", (PrimeDivisorLabel,), {"__slots__": ()})
    b = sub("0", "point", F(0), degree=F(1))
    assert b is not a and b != a and b is sub("0", "point", F(0), degree=F(1))
    assert repr(b) == "Sub" + repr(a)[len("PrimeDivisorLabel"):]
    assert len({a, b, point_label(0), PrimeDivisorLabel("0", "point", F(0))}) == 3


def test_parsed_labels_are_the_interned_ones():
    seen = 0
    for path in sorted(FIX.glob("*.json")):
        text = path.read_text()
        kind = cli.parse_document(text)["kind"]
        if kind not in ("pdivisor", "divisorial_fan", "invariant_pdivisor"):
            continue
        first, second = _labels(cli.parse(text)[0]), _labels(cli.parse(text)[0])
        assert first and len(first) == len(second)
        assert all(a is b for a, b in zip(first, second)), path.name
        for label in first:
            assert all(again is label for again in _rebuilt(label)), (path.name, label)
        seen += 1
    assert seen == 4


def test_the_intern_table_keeps_no_label_alive():
    table = base_module._LABELS
    label = point_label(F(10**9 + 7, 3))
    key = (PrimeDivisorLabel, *label._values())
    assert table[key] is label
    assert point_label(F(10**9 + 7, 3)) is label
    del label
    gc.collect()
    assert key not in table
    again = point_label(F(10**9 + 7, 3))
    assert table[key] is again


# -- one index per fan -------------------------------------------------------


def test_the_fan_index_is_built_once(monkeypatch):
    affine = DivisorialFan.member_locus_affine
    calls = {}

    def counting(fan, member):
        calls[id(fan)] = calls.get(id(fan), 0) + 1
        return affine(fan, member)

    monkeypatch.setattr(DivisorialFan, "member_locus_affine", counting)
    for d in _divisors(4, seed=3):
        calls.clear()
        fan, dbar = downgrade(d, CTX)
        assert calls == {id(fan): len(fan.members)}
        rays, verts = fan._own_index()
        assert dbar.rays is rays
        for ub in (F(0),), (F(1),):
            ra, vb = dbar.weights_at(ub)
            dv = TInvariantDivisor(fan, ra, dict(vb))
            assert dv.rays is rays and all(dv.verts[label] is vs for label, vs in verts.items())
            box_and_psi(dv)
            dv.add(dv).scale(2)
        principal_invariant_divisor(fan, CurveFunction({F(5): 1}), (F(1),))
        InvariantPDivisorOnFan(fan, dbar.n, dbar.tail, dbar.ray_coeffs, dbar.vertex_coeffs, rays=rays, verts=verts)
        assert upgrade(dbar).contraction_free
        assert invariant_prime_divisors(fan) == (list(rays), {label: list(vs) for label, vs in verts.items()})
        assert calls == {id(fan): len(fan.members)}


def test_ray_keys_are_the_fan_rays_for_any_equal_tuple():
    d = _divisors(1, seed=4)[0]
    fan, dbar = downgrade(d, CTX)
    rays = fan._own_index()[0]
    assert rays and all(type(x) is int for r in rays for x in r)
    as_fractions = [tuple(F(x) for x in r) for r in rays]
    dv = TInvariantDivisor(fan, {r: 1 for r in as_fractions}, rays=as_fractions[::-1])
    assert dv.rays == rays[::-1] and all(a is b for a, b in zip(dv.rays, rays[::-1]))
    assert all(type(x) is int for r in dv.ray_coeffs for x in r)
    again = InvariantPDivisorOnFan(
        fan, dbar.n, dbar.tail, {tuple(map(F, r)): p for r, p in dbar.ray_coeffs.items()}, dbar.vertex_coeffs
    )
    assert again == dbar and all(type(x) is int for r in again.ray_coeffs for x in r)
    for r in as_fractions:
        assert again.ray_coefficient(r) is dbar.ray_coefficient(r)


# -- curve section bases on first access ----------------------------------------


def _eager_basis(d: QDivisor, pole_bound=None) -> tuple:
    """The basis the sections of a curve divisor had built eagerly: f0 x^k
    for k = 0..deg, f0 from floor(d + pole_bound at the removed points)."""
    removed = dict.fromkeys([*d.base.removed, *(l.point for l in d.infinity_primes())])
    work = {l.point: c for l, c in d.finite_part().items()}
    for x in removed:
        work[x] = work.get(x, F(0)) + pole_bound
    floor_c = {a: F(math.floor(c)) for a, c in work.items()}
    deg = sum(floor_c.values(), F(0))
    if deg < 0:
        return ()
    f0 = CurveFunction({a: int(-c) for a, c in floor_c.items() if not is_inf(a)})
    return _times_powers_of_x(f0, int(deg))


def _curve_divisors(seed, count):
    """Seeded divisors on P^1 and on open subsets of it, some with infinite
    coefficients, with a pole bound where the sections need one."""
    rng = random.Random(seed)
    points = [F(0), F(1), F(-2), F(1, 3), INF]
    for _ in range(count):
        removed = rng.sample(points, rng.randint(0, 2))
        base = BaseVariety.open_projective_line(removed) if removed else P1
        coeffs = {}
        kept = [p for p in points if p not in removed]
        for x in rng.sample(kept, rng.randint(0, len(kept))):
            coeffs[point_label(x)] = INF if rng.random() < 0.15 else F(rng.randint(-7, 9), rng.randint(1, 3))
        d = QDivisor(base, coeffs)
        bound = rng.randint(0, 3) if removed or d.infinity_primes() else None
        yield d, bound


def test_lazy_curve_basis_equals_the_eager_one():
    truncated = 0
    for d, bound in _curve_divisors(seed=31, count=150):
        s = global_sections(d, pole_bound=bound)
        eager = _eager_basis(d, bound)
        assert s.dimension == len(eager)
        truncated += s.truncated
        assert s == SectionSpace(len(eager), eager, truncated=s.truncated)
        assert s.basis == eager and [repr(f) for f in s.basis] == [repr(f) for f in eager]
        assert s.basis is s.basis
    assert truncated > 30


def test_section_dimensions_build_no_basis(monkeypatch):
    built = []
    eager = base_module._times_powers_of_x

    def counting(f0, deg):
        built.append(deg)
        return eager(f0, deg)

    monkeypatch.setattr(base_module, "_times_powers_of_x", counting)
    dims = []
    for d in _divisors(3, seed=9):
        fan, dbar = downgrade(d, CTX)
        ra, vb = dbar.weights_at((F(1),))
        dv = TInvariantDivisor(fan, ra, dict(vb))
        for up in range(-2, 3):
            if box_and_psi(dv).box.contains_point((F(up),)):
                dims.append(graded_sections(dv, (F(up),)).dimension)
                inside = up
    assert sum(dims) and built == []
    s = graded_sections(dv, (F(inside),))
    assert len(s.basis) == s.dimension and built == [s.dimension - 1]
    s.basis
    assert built == [s.dimension - 1]
