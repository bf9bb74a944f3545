"""Rank, kernel, row space, solve, the determinant and the double
description method on Fractions.

This is the rational route that the library ran before its fraction-free
integer elimination and integer DD core.  The tests compare the library
against it, result for result.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

F = Fraction


def fraction_rref(rows):
    a = [[F(x) for x in r] for r in rows]
    if not a:
        return [], []
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in a[:r]], pivots


def fraction_primitive(v):
    v = [F(x) for x in v]
    m = lcm(*(x.denominator for x in v))
    ints = [int(x * m) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(F(x // g) for x in ints)


def fraction_rank(rows):
    return len(fraction_rref(rows)[0])


def fraction_kernel(rows, n):
    red, pivots = fraction_rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(fraction_primitive(v))
    return basis


def fraction_row_space(rows):
    red, _ = fraction_rref(rows)
    return [fraction_primitive(r) for r in red if any(x != 0 for x in r)]


def fraction_solve(rows, b):
    """One solution of A x = b with the free variables zero, or None."""
    n = len(rows[0]) if rows else 0
    red, pivots = fraction_rref([list(r) + [bb] for r, bb in zip(rows, b)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for row, pc in zip(red, pivots):
        x[pc] = row[-1]
    return tuple(x)


def fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions."""
    a = [[F(x) for x in r] for r in rows]
    n = len(a)
    out = F(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return F(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def _mix(coords, basis):
    out = [F(0)] * len(basis[0])
    for c, b in zip(coords, basis):
        out = [x + c * y for x, y in zip(out, b)]
    return tuple(out)


def _dd_pointed(rows, d):
    if d == 0:
        return []
    base_idx, cur = [], []
    for i, r in enumerate(rows):
        if fraction_rank(cur + [r]) > len(cur):
            base_idx.append(i)
            cur.append(r)
        if len(cur) == d:
            break
    aug = [list(cur[i]) + [F(int(j == i)) for j in range(d)] for i in range(d)]
    red, _ = fraction_rref(aug)
    rays = [fraction_primitive([red[i][d + j] for i in range(d)]) for j in range(d)]
    processed = list(base_idx)
    tight = [frozenset(i for i in processed if _dot(rows[i], r) == 0) for r in rays]
    for i, a in enumerate(rows):
        if i in base_idx:
            continue
        vals = [_dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(i)
            tight = [t | {i} if v == 0 else t for t, v in zip(tight, vals)]
            continue
        plus = [j for j, v in enumerate(vals) if v > 0]
        zero = [j for j, v in enumerate(vals) if v == 0]
        minus = [j for j, v in enumerate(vals) if v < 0]
        new_rays, new_tight, seen = [], [], set()
        for p, q in itertools.product(plus, minus):
            common = tight[p] & tight[q]
            if any(k != p and k != q and common <= tight[k] for k in range(len(rays))):
                continue
            r = fraction_primitive([vals[p] * x - vals[q] * y for x, y in zip(rays[q], rays[p])])
            if r in seen:
                continue
            seen.add(r)
            new_rays.append(r)
            new_tight.append(frozenset(k for k in processed if _dot(rows[k], r) == 0) | {i})
        processed.append(i)
        rays = [rays[j] for j in plus] + [rays[j] for j in zero] + new_rays
        tight = [tight[j] for j in plus] + [tight[j] | {i} for j in zero] + new_tight
    return rays


def fraction_dd_cone(ineqs, eqs, n):
    """Extreme rays and lineality basis of {x : eqs.x = 0, ineqs.x >= 0}."""
    ineqs = [r for r in (tuple(map(F, v)) for v in ineqs) if any(r)]
    eqs = [r for r in (tuple(map(F, v)) for v in eqs) if any(r)]
    if eqs:
        sbasis = fraction_kernel(eqs, n)
    else:
        sbasis = [tuple(F(int(j == i)) for j in range(n)) for i in range(n)]
    s = len(sbasis)
    if s == 0:
        return [], []
    aprime = [tuple(_dot(a, b) for b in sbasis) for a in ineqs]
    aprime = [r for r in aprime if any(r)]
    if not aprime:
        return [], sorted(fraction_row_space(sbasis))
    lprime = fraction_kernel(aprime, s)
    lines = fraction_row_space([_mix(lv, sbasis) for lv in lprime]) if lprime else []
    rspace = fraction_row_space(aprime)
    a2 = [tuple(_dot(ap, w) for w in rspace) for ap in aprime]
    rays = [fraction_primitive(_mix(_mix(w, rspace), sbasis)) for w in _dd_pointed(a2, len(rspace))]
    return sorted(set(rays)), sorted(set(lines))
