"""Exact linear algebra over the rationals and integers.

Vectors are tuples of numbers, matrices are tuples of row tuples.  Integral
data (rays, normals, lattice maps) is `int`, rational points and values are
`Fraction`, and the vector helpers accept either; `vdot` always returns a
Fraction.  Rank, kernel and `solve` run on one fraction-free elimination
over integer rows (`_echelon`), and integer matrices on one Smith normal
form.  The exact simplex solver below, kept as an independent oracle for
the tests, is the only code here that eliminates over Fractions.  Nothing
here ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple  # tuple of int or Fraction
Mat = tuple  # tuple of row tuples

F0 = Fraction(0)
F1 = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def zero_vec(n: int) -> Vec:
    return (F0,) * n


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(s, a: Vec) -> Vec:
    s = frac(s)
    return tuple(s * x for x in a)


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), F0)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def int_identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _int_row(v) -> tuple:
    """The primitive integer row on the ray of a rational row; zero stays zero."""
    v = [x if type(x) is int else frac(x) for x in v]
    m = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (m // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


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
    red, pivots = _echelon(rows)
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


def smith_normal_form(a, col_order=None):
    """Smith normal form with transforms: returns (U, D, V) with U A V = D.

    U and V are unimodular integer matrices, D is diagonal with d_i | d_{i+1}.
    `col_order` optionally permutes the column scan used for pivot selection,
    which changes U and V (but never D).
    """
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = int_identity(m)
    v = int_identity(n)
    if col_order is not None:
        perm = list(col_order)
        if sorted(perm) != list(range(n)):
            raise ValueError("col_order must be a permutation of the columns")
        # permute columns up front (a unimodular column operation)
        for row in d:
            row[:] = [row[j] for j in perm]
        for row in v:
            row[:] = [row[j] for j in perm]

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


# ---------------------------------------------------------------------------
# Exact LP: a small Bland-rule simplex for feasibility and optimization
# ---------------------------------------------------------------------------


def lp_min(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Minimize c.x subject to a_ub x <= b_ub and a_eq x = b_eq, x free.

    Returns (status, x, value) with status one of "optimal", "infeasible",
    "unbounded".  Everything is exact; Bland's rule guarantees termination.
    """
    n = len(c)
    rows = []
    rhs = []
    for r, b in zip(a_ub, b_ub):
        rows.append((vec(r), frac(b), False))
    for r, b in zip(a_eq, b_eq):
        rows.append((vec(r), frac(b), True))
    m = len(rows)
    # standard form variables: x+ (n), x- (n), slacks (one per <= row)
    nslack = sum(1 for _, _, eq in rows if not eq)
    nv = 2 * n + nslack
    tab = []
    slack_i = 0
    for r, b, eq in rows:
        row = list(r) + [-x for x in r] + [F0] * nslack
        if not eq:
            row[2 * n + slack_i] = F1
            slack_i += 1
        if b < 0:
            row = [-x for x in row]
            b = -b
        tab.append((row, b))

    # phase I: artificial variables
    total = nv + m
    a_mat = []
    b_col = []
    for i, (row, b) in enumerate(tab):
        art = [F0] * m
        art[i] = F1
        a_mat.append(row + art)
        b_col.append(b)
    cost1 = [F0] * nv + [F1] * m
    basis = list(range(nv, total))

    def run_simplex(a_mat, b_col, cost, basis, ncols_active):
        mrows = len(a_mat)
        while True:
            # keep a_mat in basis-canonical form (each basic column is a
            # unit column); Bland's rule: first improving column enters
            y = [cost[j] for j in basis]
            enter = None
            for j in range(ncols_active):
                cj = cost[j] - sum(y[i] * a_mat[i][j] for i in range(mrows))
                if cj < 0:
                    enter = j
                    break
            if enter is None:
                return "optimal"
            ratios = [
                (b_col[i] / a_mat[i][enter], basis[i], i)
                for i in range(mrows)
                if a_mat[i][enter] > 0
            ]
            if not ratios:
                return "unbounded"
            _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
            piv = a_mat[leave][enter]
            a_mat[leave] = [x / piv for x in a_mat[leave]]
            b_col[leave] /= piv
            for i in range(mrows):
                if i != leave and a_mat[i][enter] != 0:
                    f = a_mat[i][enter]
                    a_mat[i] = [x - f * y2 for x, y2 in zip(a_mat[i], a_mat[leave])]
                    b_col[i] -= f * b_col[leave]
            basis[leave] = enter

    status = run_simplex(a_mat, b_col, cost1, basis, total)
    phase1_val = sum(cost1[basis[i]] * b_col[i] for i in range(m))
    if status != "optimal" or phase1_val != 0:
        return "infeasible", None, None
    # drive artificials out of the basis when possible
    for i in range(m):
        if basis[i] >= nv:
            enter = next((j for j in range(nv) if a_mat[i][j] != 0), None)
            if enter is None:
                continue
            piv = a_mat[i][enter]
            a_mat[i] = [x / piv for x in a_mat[i]]
            b_col[i] /= piv
            for k in range(m):
                if k != i and a_mat[k][enter] != 0:
                    f = a_mat[k][enter]
                    a_mat[k] = [x - f * y2 for x, y2 in zip(a_mat[k], a_mat[i])]
                    b_col[k] -= f * b_col[i]
            basis[i] = enter
    # phase II: artificial columns may stay basic at zero but never re-enter
    cost2 = list(vec(c)) + [-x for x in vec(c)] + [F0] * (nslack + m)
    status = run_simplex(a_mat, b_col, cost2, basis, nv)
    if status == "unbounded":
        return "unbounded", None, None
    xfull = [F0] * total
    for i in range(m):
        xfull[basis[i]] = b_col[i]
    x = tuple(xfull[j] - xfull[n + j] for j in range(n))
    return "optimal", x, vdot(vec(c), x)


def lp_feasible(a_ub=(), b_ub=(), a_eq=(), b_eq=(), n=None):
    """Exact feasibility test; returns a feasible point or None."""
    if n is None:
        src = list(a_ub) + list(a_eq)
        if not src:
            return ()
        n = len(src[0])
    status, x, _ = lp_min([F0] * n, a_ub, b_ub, a_eq, b_eq)
    return x if status == "optimal" else None
