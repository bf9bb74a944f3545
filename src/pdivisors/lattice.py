"""Free abelian groups, dual pairs, integer maps and their splittings.

A lattice is just a rank with a name; a lattice map stores its matrix as
`int` rows, each checked integral where it enters, and maps a point of
`int` or `Fraction` entries on its cleared integers, to a tuple of
Fraction, one built per entry.  The
interesting content is `smith_split`, which splits a surjection of lattices
into a section, a compatible cosection and a kernel basis, canonicalized so
that repeated runs (and hand-written tests) see identical matrices.  It
works on integer lists throughout: one Hermite normal form with its
transform gives the section and the kernel, and one fraction-free
elimination inverts [section | kernel] to give the cosection.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul

from ._record import _Frozen
from .errors import AmbientMismatch, NotSurjective, ZeroVector
from .linalg import (
    Vec,
    _cleared,
    _echelon,
    _hermite,
    _int_row,
    _lattice_vector,
    _reduce_mod_columns,
    _with_identity,
)


class Lattice(_Frozen):
    __slots__ = ("rank", "name")

    def __init__(self, rank: int, name: str = "N"):
        if rank < 0:
            raise ValueError("lattice rank must be >= 0")
        self._init(rank, name)


class LatticeMap:
    """Integer-matrix map between lattices; rows = target, columns = source."""

    def __init__(self, source: Lattice, target: Lattice, matrix):
        self.source = source
        self.target = target
        rows = tuple(_lattice_vector(row, "lattice maps") for row in matrix or ())
        if len(rows) != target.rank:
            raise ValueError("matrix row count must equal target rank")
        if any(len(row) != source.rank for row in rows):
            raise ValueError("matrix column count must equal source rank")
        self.matrix = rows

    def __call__(self, v: Vec) -> Vec:
        if len(v) != self.source.rank:
            raise AmbientMismatch(f"vector has {len(v)} entries, the source has rank {self.source.rank}")
        x, d = _cleared(v)
        return tuple(Fraction(sum(map(mul, row, x)), d) for row in self.matrix)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeMap)
            and self.source.rank == other.source.rank
            and self.target.rank == other.target.rank
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source.rank, self.target.rank, self.matrix))

    def __repr__(self):
        rows = "; ".join(" ".join(str(x) for x in row) for row in self.matrix)
        return f"LatticeMap({self.source.name}->{self.target.name}: [{rows}])"


def multiplicity(v) -> int:
    """Smallest positive integer m with m*v integral (1 for the zero vector)."""
    return _cleared(v)[1]


def primitive_and_multiplicity(v) -> tuple[Vec, int]:
    """Primitive integer direction of v together with its multiplicity.

    Raises ZeroVector when a direction is requested of v = 0.
    """
    direction = _int_row(v)
    if not any(direction):
        raise ZeroVector("zero vector has no primitive direction")
    return direction, multiplicity(v)


def smith_split(pr: LatticeMap):
    """Split a surjection pr: M -> Mbar of lattices.

    Returns (s_star, t, kernel) where s_star is a section (pr . s_star = id),
    kernel is a LatticeMap embedding ker(pr) (columns form a basis), and t is
    the cosection M -> ker-coordinates with t . kernel = id and
    kernel . t + s_star . pr = id, so M = ker + s_star(Mbar) exactly.

    The splitting is canonical: the kernel basis is the column Hermite
    normal form of the kernel, and each section column is reduced modulo
    it.  Every other splitting has section s_star + kernel . A and cosection
    t - A . pr for an integer matrix A, and reduces to this one.
    """
    mbar, m = pr.target.rank, pr.source.rank
    # pr V = [H | 0]; pr is onto exactly when H = I, that is when every
    # row holds a pivot 1 (the entries left of a pivot 1 are 0)
    v, pivots = _hermite(_with_identity(pr.matrix, m), mbar)
    if len(pivots) < mbar:
        raise NotSurjective(f"the map has rank {len(pivots)}, its target {mbar}")
    if any(c[i] != 1 for c, i in zip(v, pivots)):
        raise NotSurjective(f"the image has index {prod(c[i] for c, i in zip(v, pivots))} in the target")
    # section: the first mbar columns of V; kernel: the Hermite basis of
    # the rest, and each section column reduced modulo it
    ker_cols = _hermite([c[mbar:] for c in v[mbar:]], m)[0]
    s_cols = [_reduce_mod_columns(c[mbar:], ker_cols) for c in v[:mbar]]
    cols = s_cols + ker_cols
    # [S | K] is unimodular with inverse [pr; t]: t is the last m - mbar rows
    # of the inverse, read off one elimination of [S | K | I]
    red, pivots = _echelon(
        [[c[r] for c in cols] + [int(r == j) for j in range(m)] for r in range(m)]
    )
    if pivots != list(range(m)) or any(red[i][i] != 1 for i in range(m)):
        raise NotSurjective("section and kernel do not span the lattice (internal)")
    kern_rank = m - mbar
    ker_lat = Lattice(kern_rank, pr.source.name + "'")
    kern = LatticeMap(ker_lat, pr.source, [[c[r] for c in ker_cols] for r in range(m)])
    s_star = LatticeMap(pr.target, pr.source, [[c[r] for c in s_cols] for r in range(m)])
    t = LatticeMap(pr.source, ker_lat, [row[m:] for row in red[mbar:]])
    return s_star, t, kern
