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
integer matrices on one Smith normal form.  Nothing here eliminates over
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
# Smith normal form with transforms (integer matrices as lists of int lists)
# ---------------------------------------------------------------------------


def smith_normal_form(a):
    """Smith normal form with transforms: returns (U, D, V) with U A V = D.

    U and V are unimodular integer matrices, D is diagonal with d_i | d_{i+1}.
    """
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = int_identity(m)
    v = int_identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find pivot: nonzero entry of minimal absolute value in the submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if d[t][t] < 0:
            negate_row(t)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        if d[t][t] < 0:
                            negate_row(t)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        if d[t][t] < 0:
                            negate_row(t)
                        dirty = True
        # enforce divisibility d[t][t] | d[i][j]: add the first failing row
        # once and search the pivot again, which makes the pivot strictly
        # smaller; adding a row once per failing entry can cycle
        bad = next(
            (i for i in range(t + 1, m) for j in range(t + 1, n) if d[i][j] % d[t][t]),
            None,
        )
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return u, d, v


def integral_solve(a, b) -> list[int] | None:
    """One integer solution of A x = b (integer A, b), or None."""
    u, d, v = smith_normal_form(a)
    m = len(a)
    n = len(a[0]) if a else 0
    ub = [sum(u[i][k] * int(b[k]) for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(min(m, n)):
        if d[i][i] != 0:
            if ub[i] % d[i][i] != 0:
                return None
            y[i] = ub[i] // d[i][i]
        elif ub[i] != 0:
            return None
    for i in range(min(m, n), m):
        if ub[i] != 0:
            return None
    return [sum(v[i][k] * y[k] for k in range(n)) for i in range(n)]
