"""An exact LP oracle for the tests: a small Bland-rule simplex over
Fractions for feasibility and optimization.

No library code solves LPs; the tests use this solver as an independent
check of vertex extraction, and test the simplex itself.
"""

from __future__ import annotations

from fractions import Fraction

from pdivisors.linalg import frac, vdot, vec

F0 = Fraction(0)
F1 = Fraction(1)


def lp_min(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Minimize c.x subject to a_ub x <= b_ub and a_eq x = b_eq, x free.

    Returns (status, x, value) with status one of "optimal", "infeasible",
    "unbounded".  Everything is exact; Bland's rule guarantees termination.
    """
    n = len(c)
    rows = []
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
