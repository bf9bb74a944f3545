"""Exact linear algebra over the rationals and integers.

Vectors are tuples of numbers, matrices are tuples of row tuples.  A lattice
vector (a ray, a normal, a character, a lattice-map row) is an `int` tuple,
checked once where it enters (`_lattice_vector`); rational points and values
handed out are `Fraction`, and the vector helpers accept either (`vdot`
returns a Fraction).  Inside the library a rational point travels as its
cleared integers (`_cleared`: the point X / d as the pair (X, d)), so a
point test compares integer dot products and a minimum of ratios compares
them by cross-multiplication (`_least`); a `Fraction` is built only for a
value that leaves the library.  Rank, kernel and `solve`
run on one fraction-free elimination over integer rows (`_echelon`), and
lattice computations on one Hermite normal form with its unimodular
transform (`_hermite`).  Nothing here eliminates over
Fractions, and nothing ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NonIntegral

Vec = tuple  # tuple of int or Fraction
Mat = tuple  # tuple of row tuples

F0 = Fraction(0)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def zero_vec(n: int) -> Vec:
    return (F0,) * n


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), F0)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def int_identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _cleared(x) -> tuple[tuple, int]:
    """(X, d) with `int` X, d > 0 and x = X / d: a rational point with its
    denominators cleared once, so <a, x> >= b tests as <a, X> >= b * d."""
    x = tuple(x)
    if all(type(v) is int for v in x):
        return x, 1
    x = [v if type(v) is int else frac(v) for v in x]
    d = lcm(*(v.denominator for v in x))
    return tuple(v.numerator * (d // v.denominator) for v in x), d


def _lattice_vector(v, what: str) -> tuple:
    """The `int` tuple of a lattice vector whose entries are integers of any
    type (`int`, `Fraction`, a numeral string); `NonIntegral`, naming `what`
    the vector is, otherwise."""
    x, d = _cleared(v)
    if d != 1:
        raise NonIntegral(f"{what} must have integer entries")
    return x


def _least(pairs) -> Fraction:
    """The least of the ratios p / q of the integer pairs (p, q), q > 0,
    compared by cross-multiplication; the one `Fraction` built is the result."""
    pairs = iter(pairs)
    p, q = next(pairs)
    for a, b in pairs:
        if a * q < p * b:
            p, q = a, b
    return Fraction(p, q)


def _int_row(v) -> tuple:
    """The primitive integer row on the ray of a rational row; zero stays zero."""
    # a bool is no `int` here, so it goes through `_cleared` and comes out one
    if not all(type(x) is int for x in v):
        v = _cleared(v)[0]
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _echelon(rows) -> tuple[list[tuple], list[int]]:
    """Fraction-free Gauss-Jordan elimination; returns (rows, pivot columns).

    Each rational row is first scaled to its primitive integer row.  A row
    update is `p * row - f * pivot_row` with the pivot p > 0, followed by
    division by the row content (where Bareiss 1968 divides by the previous
    pivot), so the rows stay primitive and every returned row is a positive
    multiple of the matching row of the reduced row echelon form.
    """
    a = [list(_int_row(r)) for r in rows]
    if not a:
        return [], []
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        p = prow[c]
        if p < 0:
            prow = a[r] = [-x for x in prow]
            p = -p
        for i in range(m):
            f = a[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(a[i], prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in a[:r]], pivots


def _kernel(rows, n: int) -> list[tuple]:
    """Primitive integer basis of {x : A x = 0}, canonical from the RREF."""
    return _echelon_kernel(*_echelon(rows), n)


def _echelon_kernel(red, pivots, n: int) -> list[tuple]:
    """`_kernel` of the rows whose `_echelon` is (red, pivots)."""
    scale = lcm(*(row[c] for row, c in zip(red, pivots)))
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = scale
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def rank(rows) -> int:
    return len(_echelon(rows)[1])


def solve(rows, b) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero (deterministic canonical solution).  The
    system is inconsistent when column n of `_echelon([A | b])` is a pivot;
    otherwise each echelon row is a positive multiple of its RREF row, so
    the pivot variable is the last entry divided by the pivot entry.
    """
    n = len(rows[0]) if rows else 0
    red, pivots = _echelon([list(r) + [bb] for r, bb in zip(rows, b)])
    if n in pivots:
        return None
    x = [F0] * n
    for row, pc in zip(red, pivots):
        x[pc] = Fraction(row[n], row[pc])
    return tuple(x)


# ---------------------------------------------------------------------------
# Hermite normal form with its transform (integer columns as int lists)
# ---------------------------------------------------------------------------


def _hermite(cols, rows: int) -> tuple[list[list[int]], list[int]]:
    """Column Hermite normal form of the first `rows` entries of integer
    columns, the remaining entries carried along; returns (cols, pivots).

    Unimodular column operations bring the top block A to [H | 0]: column j
    of H has its first nonzero entry, the pivot, at row pivots[j], pivots
    increase and are positive, and each entry left of a pivot in its row
    lies in [0, pivot).  A row is cleared by gcd steps and the entries left
    of its pivot are reduced at once, so they stay below the pivot (the
    reduction of Kannan-Bachem, SIAM J. Comput. 1979).  With the identity
    stacked under A the carried entries are the transform V, A V = [H | 0].
    The columns past the pivots are zero on top; with `rows` the full
    length they are zero, and the pivot columns are the Hermite basis of
    the column lattice.
    """
    cols = [list(c) for c in cols]
    pivots = []
    j = 0
    for i in range(rows):
        piv = next((k for k in range(j, len(cols)) if cols[k][i]), None)
        if piv is None:
            continue
        cols[j], cols[piv] = cols[piv], cols[j]
        for k in range(j + 1, len(cols)):
            while cols[k][i]:
                q = cols[j][i] // cols[k][i]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[k])]
                cols[j], cols[k] = cols[k], cols[j]
        if cols[j][i] < 0:
            cols[j] = [-a for a in cols[j]]
        for k in range(j):
            q = cols[k][i] // cols[j][i]
            if q:
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[j])]
        pivots.append(i)
        j += 1
    return cols, pivots


def _with_identity(a, n: int) -> list[list[int]]:
    """The n columns of A stacked on the identity, the input of `_hermite`
    that carries the transform."""
    return [[int(row[j]) for row in a] + [int(i == j) for i in range(n)] for j in range(n)]


def _reduce_mod_columns(col: list[int], hnf_cols: list[list[int]]) -> list[int]:
    """Canonical representative of col modulo the lattice of Hermite basis
    columns: the entry at each pivot row ends in [0, pivot)."""
    col = list(col)
    for h in hnf_cols:
        i = next(k for k in range(len(h)) if h[k] != 0)
        q = col[i] // h[i]
        if q:
            col = [a - q * b for a, b in zip(col, h)]
    return col


def integral_solve(a, b) -> list[int] | None:
    """An integer solution of A x = b (integer A, b), or None.

    A V = [H | 0] gives x = V y with y found by forward substitution on H.
    The solution is the least one modulo the kernel: reduced modulo the
    Hermite basis of ker A, the columns of V past the pivots.
    """
    m, n = len(a), len(a[0]) if a else 0
    cols, pivots = _hermite(_with_identity(a, n), m)
    y = []
    for i in range(m):
        rest = int(b[i]) - sum(yj * c[i] for yj, c in zip(y, cols))
        if len(y) < len(pivots) and pivots[len(y)] == i:
            q, r = divmod(rest, cols[len(y)][i])
            if r:
                return None
            y.append(q)
        elif rest:
            return None
    kernel = _hermite([c[m:] for c in cols[len(pivots):]], n)[0]
    x = [sum(yj * c[m + k] for yj, c in zip(y, cols)) for k in range(n)]
    return _reduce_mod_columns(x, kernel)
