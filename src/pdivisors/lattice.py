"""Free abelian groups, dual pairs, integer maps and their splittings.

A lattice is just a rank with a name; a lattice map stores its matrix as
`int` rows, each checked integral where it enters, and maps a point of
`int` or `Fraction` entries on its cleared integers, to a tuple of
Fraction, one built per entry.  The
interesting content is `smith_split`, which splits a surjection of lattices
into a section, a compatible cosection and a kernel basis, canonicalized so
that repeated runs (and hand-written tests) see identical matrices.  It
works on integer lists throughout: one Smith normal form gives the section
and the kernel, and one fraction-free elimination inverts [section | kernel]
to give the cosection.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from ._record import _Frozen
from .errors import AmbientMismatch, NotSurjective, ZeroVector
from .linalg import (
    Vec,
    _cleared,
    _echelon,
    _int_row,
    _lattice_vector,
    int_identity,
    smith_normal_form,
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


def _hnf_columns(cols: list[list[int]]) -> list[list[int]]:
    """Column Hermite normal form (lower-triangular style), as column list."""
    cols = [list(c) for c in cols]
    if not cols:
        return []
    m = len(cols[0])
    j = 0
    for i in range(m):
        piv = next((k for k in range(j, len(cols)) if cols[k][i] != 0), None)
        if piv is None:
            continue
        cols[j], cols[piv] = cols[piv], cols[j]
        # clear row i on the right of the pivot column via gcd steps
        for k in range(j + 1, len(cols)):
            while cols[k][i] != 0:
                q = cols[j][i] // cols[k][i]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[k])]
                cols[j], cols[k] = cols[k], cols[j]
        if cols[j][i] < 0:
            cols[j] = [-a for a in cols[j]]
        for k in range(j):
            q = cols[k][i] // cols[j][i]
            if q:
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[j])]
        j += 1
    return [c for c in cols if any(c)]


def _reduce_mod_columns(col: list[int], hnf_cols: list[list[int]]) -> list[int]:
    """Canonical representative of col modulo the column lattice (HNF input)."""
    col = list(col)
    for h in hnf_cols:
        i = next(k for k in range(len(h)) if h[k] != 0)
        q = col[i] // h[i]
        if q:
            col = [a - q * b for a, b in zip(col, h)]
    return col


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
    a = pr.matrix
    mbar, m = pr.target.rank, pr.source.rank
    if mbar == 0:
        kern = LatticeMap(pr.source, pr.source, int_identity(m))
        t = LatticeMap(pr.source, pr.source, int_identity(m))
        s_star = LatticeMap(pr.target, pr.source, [[] for _ in range(m)])
        return s_star, t, kern
    u, d, v = smith_normal_form(a)
    diag = [d[i][i] for i in range(min(mbar, m))]
    # the diagonal of D is nonnegative, so D = [I | 0] exactly on a surjection
    if len([x for x in diag if x != 0]) < mbar or any(x != 1 for x in diag if x != 0):
        raise NotSurjective(f"invariant factors {diag} are not all unit")
    # section S = V[:, :mbar] . U ; kernel K = column HNF of V[:, mbar:]
    s_cols = [
        [sum(v[r][k] * u[k][j] for k in range(mbar)) for r in range(m)] for j in range(mbar)
    ]
    ker_cols = _hnf_columns([[v[r][i] for r in range(m)] for i in range(mbar, m)])
    s_cols = [_reduce_mod_columns(c, ker_cols) for c in s_cols]
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
