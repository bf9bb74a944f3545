"""The value records of the package: plain `__slots__` classes.

One table holds every record with the arguments of one instance, the
defaults of its trailing parameters and the arguments of an unequal
instance.  Each record must construct the same from positional and keyword
arguments, keep its defaults, print as `Name(field=value, ...)` and compare
by class and value; frozen records also hash by value and refuse
assignment.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from helpers import interval, point_poly
from pdivisors.base import PositivityFlags, PrimeDivisorLabel, SectionSpace
from pdivisors.cox import CoxData
from pdivisors.deform import DeformationInput, FamilyBase
from pdivisors.downgrade import DowngradeContext
from pdivisors.errors import SumMismatch, UnsupportedBase
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.linalg import transpose
from pdivisors.pdivisor import PropernessReport, PullbackTriple
from pdivisors.polyhedra import Cone
from pdivisors.tvariety import BpfReport, SupportFunction
from pdivisors.upgrade import UpgradeResult

F = Fraction
DELTA = Cone.from_rays([(1, 1), (-1, 1)])
DELTAS = (point_poly(F(-1, 2)), interval(0, 1))
PR = LatticeMap(Lattice(2, "M"), Lattice(1, "Mbar"), [[0, 1]])
SPLIT = DowngradeContext.from_projection(PR)

# (class, arguments, defaults of the trailing parameters, arguments of an
# unequal instance, frozen)
RECORDS = [
    (PrimeDivisorLabel, ("1/2", "point", F(1, 2), None, (), F(1)),
     {"point": None, "ray": None, "class_rep": (), "degree": None},
     ("1/2", "ray", F(1, 2), None, (), F(1)), True),
    (SectionSpace, (2, ("f", "g"), None, True), {"polytope": None, "truncated": False},
     (2, ("f", "g"), None, False), False),
    (PositivityFlags, (True, False, True), {}, (True, True, True), True),
    (CoxData, ("fan", ("p",), (), ((1,),), (), "pi", "t", "s", "k", 1), {},
     ("fan", ("p",), (), ((1,),), (), "pi", "t", "s", "k", 2), False),
    (DeformationInput, (DELTA, (0, 2), DELTAS, None), {"multiplicities": None},
     (DELTA, (0, 2), DELTAS, (1,)), False),
    (FamilyBase, ("base", "fan", "p0", ["p1"], "q", {}), {},
     ("base", "fan", "p0", ["p1", "p2"], "q", {}), False),
    (DowngradeContext, (PR, SPLIT.s_star, SPLIT.t, SPLIT.kernel), {},
     (PR, SPLIT.s_star, SPLIT.t, SPLIT.s_star), False),
    (Lattice, (2, "M"), {"name": "N"}, (2, "M*"), True),
    (PropernessReport, (True, True, False, True, True, ("big",)), {"failures": ()},
     (True, True, True, True, True, ("big",)), True),
    (PullbackTriple, (PR, "base", None, ((1,), "f")),
     {"base_map": None, "target_base": None, "lattice_map": None, "shift": ()},
     (PR, "base", PR, ((1,), "f")), True),
    (SupportFunction, ({"p": ()},), {}, ({"q": ()},), False),
    (BpfReport, ("not_free", {}, ("p",)), {"failing": ()}, ("free", {}, ("p",)), False),
    (UpgradeResult, ("d", True, False), {}, ("d", True, True), False),
]
IDS = [row[0].__name__ for row in RECORDS]


@pytest.mark.parametrize("cls, args, defaults, other, frozen", RECORDS, ids=IDS)
def test_record_contract(cls, args, defaults, other, frozen):
    a = cls(*args)
    names = cls.__slots__[: len(args)]
    b = cls(**dict(zip(names, args)))
    assert a == b and not a != b
    assert a != cls(*other) and cls(*other) == cls(*other)
    # the class takes part in equality, as it did for dataclasses
    assert a != tuple(args)
    sub = type("Sub", (cls,), {"__slots__": ()})
    assert a != sub(*args)
    # trailing parameters keep their defaults
    bare = cls(*args[: len(args) - len(defaults)])
    assert {name: getattr(bare, name) for name in defaults} == defaults
    text = repr(a)
    assert text.startswith(cls.__name__ + "(") and text.endswith(")")
    for name in names:
        assert f"{name}={getattr(a, name)!r}" in text
    if frozen:
        assert hash(a) == hash(b)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b
    else:
        # mutable records are unhashable, as eq-only dataclasses were
        assert cls.__hash__ is None
        value = getattr(cls(*other), names[-1])
        setattr(a, names[-1], value)
        assert getattr(a, names[-1]) is value


def test_record_repr_and_hash_match_the_dataclass_form():
    assert repr(Lattice(2)) == "Lattice(rank=2, name='N')"
    assert repr(PositivityFlags(True, False, True)) == (
        "PositivityFlags(qcartier=True, semiample=False, big=True)"
    )
    assert hash(Lattice(2)) == hash((2, "N"))
    # equal labels are one object, which hashes and compares by identity
    label = PrimeDivisorLabel("0", "point", F(0), degree=F(1))
    assert label is PrimeDivisorLabel(id="0", kind="point", point=F(0), degree=F(1))
    assert hash(label) == object.__hash__(label)
    assert label != PrimeDivisorLabel("0", "point", F(0))


def test_record_construction_checks():
    with pytest.raises(ValueError):
        Lattice(-1)
    assert Lattice(0).rank == 0
    with pytest.raises(UnsupportedBase):
        DeformationInput(DELTA, (1, 2), DELTAS)
    with pytest.raises(UnsupportedBase):
        DeformationInput(DELTA, (0, -2), DELTAS)
    with pytest.raises(ValueError):
        DeformationInput(DELTA, (0, 0, 2), DELTAS)
    with pytest.raises(SumMismatch):
        DeformationInput(DELTA, (0, 2), ())
    with pytest.raises(ValueError):
        DeformationInput(DELTA, (0, 2), DELTAS, (1, 2))
    din = DeformationInput(DELTA, [0, 2], list(DELTAS), [F(3)])
    assert (din.degree, din.deltas, din.multiplicities) == ((F(0), F(2)), DELTAS, (3,))
    assert type(din.multiplicities[0]) is int
    assert (din.k, din.n) == (3, 1)
    assert DeformationInput(DELTA, (0, 2), DELTAS).k == 2


def test_downgrade_context_derives_its_rows_once():
    ctx = DowngradeContext.from_projection(
        LatticeMap(Lattice(3, "M"), Lattice(1, "Mbar"), [[1, 1, 0]])
    )
    assert ctx.pi_rows == transpose(ctx.kernel.matrix)
    assert ctx.s_rows == transpose(ctx.s_star.matrix)
    assert ctx.fiber_rank == ctx.kernel.source.rank == 2
    assert all(type(r) is tuple for r in (*ctx.pi_rows, *ctx.s_rows, ctx.pi_rows, ctx.s_rows))
    # stored, not rebuilt on each access
    assert ctx.pi_rows is ctx.pi_rows and ctx.s_rows is ctx.s_rows
