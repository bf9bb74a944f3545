from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import prod
from operator import mul

import pytest
from exact_lp import lp_feasible, lp_min
from fraction_route import fraction_det, fraction_rank
from helpers import compose, identity_on, is_surjective, mat_mul, minors_gcd

from pdivisors.base import cone_index
from pdivisors.errors import NotSurjective, ZeroVector
from pdivisors.lattice import (
    Lattice,
    LatticeMap,
    multiplicity,
    primitive_and_multiplicity,
    smith_split,
)
from pdivisors.polyhedra import Cone
from pdivisors.linalg import (
    _hermite,
    _kernel,
    _reduce_mod_columns,
    _with_identity,
    integral_solve,
    mat_vec,
    rank,
    solve,
    transpose,
    vec,
)


def _check_split(pr):
    s_star, t, kern = smith_split(pr)
    m, mbar = pr.source.rank, pr.target.rank
    # pr . s_star = id
    comp = compose(pr, s_star)
    assert comp == identity_on(pr.target)
    # t . kern = id
    assert compose(t, kern) == identity_on(kern.source)
    # kern . t + s_star . pr = id
    kt = mat_mul(kern.matrix, t.matrix) if kern.source.rank else tuple(
        tuple(Fraction(0) for _ in range(m)) for _ in range(m)
    )
    sp = mat_mul(s_star.matrix, pr.matrix)
    for i in range(m):
        for j in range(m):
            expect = 1 if i == j else 0
            got = (kt[i][j] if kern.source.rank else 0) + sp[i][j]
            assert got == expect
    return s_star, t, kern


def test_split_coordinate_projection():
    pr = LatticeMap(Lattice(2, "M"), Lattice(1, "Mbar"), [[0, 1]])
    s_star, t, kern = _check_split(pr)
    assert s_star.matrix == ((0,), (1,))
    assert [tuple(int(x) for x in row) for row in kern.matrix] == [(1,), (0,)]
    assert t.matrix == ((1, 0),)


def test_split_identity():
    pr = LatticeMap(Lattice(1), Lattice(1), [[1]])
    s_star, t, kern = _check_split(pr)
    assert s_star.matrix == ((1,),)
    assert kern.source.rank == 0


def test_split_2a_plus_3b():
    pr = LatticeMap(Lattice(2, "M"), Lattice(1, "Mbar"), [[2, 3]])
    s_star, _, _ = _check_split(pr)
    # oracle: exhaustive check pr(s_star(x)) = x on a window
    for x in range(-5, 6):
        out = pr(s_star((Fraction(x),)))
        assert out == (Fraction(x),)


def test_split_rejects_torsion():
    pr = LatticeMap(Lattice(1), Lattice(1), [[2]])
    with pytest.raises(NotSurjective):
        smith_split(pr)


def test_split_random_surjections():
    rng = random.Random(11)
    found = 0
    while found < 300:
        m = rng.randint(1, 6)
        mbar = rng.randint(1, m)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(mbar)]
        pr = LatticeMap(Lattice(m, "M"), Lattice(mbar, "Mbar"), rows)
        if not is_surjective(pr):
            continue
        _check_split(pr)
        found += 1


def test_split_canonical_is_pivot_independent():
    # every section is s + K a for an integer matrix a, and reducing it
    # modulo the kernel columns gives the canonical section back
    rng = random.Random(23)
    cases = [LatticeMap(Lattice(3, "M"), Lattice(1, "Mbar"), [[2, 3, 5]])]
    while len(cases) < 30:
        m = rng.randint(2, 5)
        mbar = rng.randint(1, m - 1)
        pr = LatticeMap(Lattice(m), Lattice(mbar), [[rng.randint(-4, 4) for _ in range(m)] for _ in range(mbar)])
        if is_surjective(pr):
            cases.append(pr)
    for pr in cases:
        s_star, _, kern = smith_split(pr)
        k = kern.source.rank
        ker_cols = [list(c) for c in zip(*kern.matrix)]
        for _ in range(5):
            a = [[rng.randint(-3, 3) for _ in range(pr.target.rank)] for _ in range(k)]
            moved = [[x + y for x, y in zip(sr, ka)] for sr, ka in zip(s_star.matrix, mat_mul(kern.matrix, a))]
            assert compose(pr, LatticeMap(pr.target, pr.source, moved)) == identity_on(pr.target)
            back = [_reduce_mod_columns(list(c), ker_cols) for c in zip(*moved)]
            assert back == [list(c) for c in zip(*s_star.matrix)]


def test_primitive_and_multiplicity():
    v0, mu = primitive_and_multiplicity((Fraction(1, 3),))
    assert mu == 3 and v0 == (1,)
    v0, mu = primitive_and_multiplicity((2, 4))
    assert v0 == (1, 2) and mu == 1
    _, mu = primitive_and_multiplicity((Fraction(1, 2), Fraction(-1, 2)))
    # oracle: try mu = 1, 2, 3, ...
    v = (Fraction(1, 2), Fraction(-1, 2))
    k = 1
    while any((k * x).denominator != 1 for x in v):
        k += 1
    assert mu == k == 2
    with pytest.raises(ZeroVector):
        primitive_and_multiplicity((0, 0))
    assert multiplicity((0, 0)) == 1


def test_primitive_direction_scale_invariant():
    rng = random.Random(5)
    for _ in range(50):
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        k = rng.randint(1, 7)
        d1, _ = primitive_and_multiplicity(v)
        d2, _ = primitive_and_multiplicity(tuple(k * x for x in v))
        assert d1 == d2


def _check_hermite(a):
    """A V = [H | 0] with V unimodular and H in Hermite form: increasing
    pivot rows, each pivot positive and the first nonzero entry of its
    column, the entries left of it in [0, pivot), and zero columns after
    the pivots.  Returns (H columns, pivots)."""
    m, n = len(a), len(a[0])
    cols, pivots = _hermite(_with_identity(a, n), m)
    h = [c[:m] for c in cols]
    v = [c[m:] for c in cols]
    assert [list(c) for c in zip(*mat_mul(a, transpose(v)))] == h
    assert abs(fraction_det(transpose(v))) == 1
    assert pivots == sorted(set(pivots))
    for j, i in enumerate(pivots):
        assert h[j][i] > 0 and not any(h[j][:i])
        assert all(0 <= h[k][i] < h[j][i] for k in range(j))
    assert not any(any(c) for c in h[len(pivots):])
    return h, pivots


def _unimodular(rng, n):
    """A random unimodular n x n matrix: elementary column operations
    applied to the identity."""
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        f = rng.choice((-2, -1, 1, 2))
        for row in w:
            if i == j:
                row[i] = -row[i]
            else:
                row[j] += f * row[i]
    return w


def test_hermite_transforms():
    rng = random.Random(3)
    cases = []
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        cases.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
    # the divisibility step of a Smith normal form once cycled on these (the
    # second is the projection of a `pdiv downgrade` that never returned)
    cases += [[[2, 0, 0], [0, 3, 5]], [[4, -3, 0, -3], [-2, 4, 4, -4]]]
    rng = random.Random(2026)
    for _ in range(600):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        cases.append([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
    assert len(cases) == 642
    for a in cases:
        h, pivots = _check_hermite(a)
        # the pivots count the rank, and their product is the gcd of the
        # maximal minors of the pivot rows: on r = m rows the product of
        # the invariant factors
        r = len(pivots)
        assert r == fraction_rank(a)
        assert prod(h[j][i] for j, i in enumerate(pivots)) == minors_gcd([a[i] for i in pivots], r)
        # the form is one per column lattice: A W has it too, W unimodular
        w = _unimodular(rng, len(a[0]))
        assert _check_hermite([list(row) for row in mat_mul(a, w)]) == (h, pivots)
    assert _check_hermite([[2, 0, 0], [0, 3, 5]]) == ([[2, 0], [0, 1], [0, 0]], [0, 1])


def test_hermite_property():
    rng = random.Random(7)
    for _ in range(3000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        _check_hermite([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])


def test_cone_index_of_a_matrix_that_blew_up_the_smith_form():
    # a Smith normal form eliminating on these rows did not finish in 30 s,
    # its entries 158 bits long after three pivots
    rows = [
        [6, 7, 0, -7, -6, -7],
        [3, 4, 6, -7, -1, 7],
        [-2, 5, 1, 6, 4, 2],
        [8, 5, 1, -8, -6, 5],
        [-7, -1, -5, -8, 8, -5],
        [-7, 5, -8, 0, -7, 1],
    ]
    c = Cone.from_rays(rows)
    start = time.perf_counter()
    assert cone_index(c) == 1_249_866 == abs(fraction_det(rows))
    assert time.perf_counter() - start < 5
    h, _ = _check_hermite(rows)
    assert max(abs(x) for col in h for x in col).bit_length() <= 21


def test_integral_solve_least_witness():
    rng = random.Random(13)
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        cols, pivots = _hermite(_with_identity(a, n), m)
        kernel = _hermite([c[m:] for c in cols[len(pivots):]], n)[0]
        # brute force: the solutions y in a box, grouped by right-hand side
        found = {}
        for y in itertools.product(range(-2, 3), repeat=n):
            found.setdefault(tuple(sum(map(mul, row, y)) for row in a), []).append(list(y))
        # solvable over Z exactly when the rank and the gcd of the minors of
        # that size agree for A and [A | b]
        r = fraction_rank(a)
        g = minors_gcd(a, r)
        for b in itertools.product(range(-2, 3), repeat=m):
            x = integral_solve(a, b)
            ab = [list(row) + [bb] for row, bb in zip(a, b)]
            assert (x is not None) == (fraction_rank(ab) == r and minors_gcd(ab, r) == g)
            assert x is not None or b not in found
        # every solution is the witness plus a kernel vector, and reduces
        # back to it modulo the kernel's Hermite basis
        for b, ys in found.items():
            x = integral_solve(a, b)
            assert tuple(sum(map(mul, row, x)) for row in a) == b
            assert _reduce_mod_columns(x, kernel) == x
            for y in ys:
                assert _reduce_mod_columns(y, kernel) == x


def vec_rows(a):
    return tuple(tuple(Fraction(x) for x in row) for row in a)


def test_solve_and_kernel():
    a = [[1, 2], [2, 4]]
    assert solve(a, [3, 6]) == (3, 0)
    assert solve(a, [3, 5]) is None
    kb = _kernel(a, 2)
    assert len(kb) == 1
    assert mat_vec(vec_rows(a), kb[0]) == (0, 0)
    assert rank(a) == 1


def test_lp_basics():
    # min x subject to x >= 2 (i.e. -x <= -2)
    status, x, val = lp_min([1], a_ub=[[-1]], b_ub=[-2])
    assert status == "optimal" and val == 2
    # unbounded below
    status, _, _ = lp_min([1], a_ub=[[1]], b_ub=[5])
    assert status == "unbounded"
    # infeasible
    status, _, _ = lp_min([0], a_ub=[[1], [-1]], b_ub=[1, -2])
    assert status == "infeasible"
    # exact rational optimum: min x+y st x >= 1/3, y >= 1/7
    status, pt, val = lp_min([1, 1], a_ub=[[-1, 0], [0, -1]], b_ub=[Fraction(-1, 3), Fraction(-1, 7)])
    assert status == "optimal"
    assert val == Fraction(1, 3) + Fraction(1, 7)


def test_lp_feasible_convex_combination():
    # is (1,1) a convex combination of (0,0),(2,0),(0,2)? yes
    pts = [(0, 0), (2, 0), (0, 2)]
    target = (1, 1)
    n = len(pts)
    a_eq = [[Fraction(p[d]) for p in pts] for d in range(2)] + [[1] * n]
    b_eq = list(target) + [1]
    a_ub = [[-(1 if j == i else 0) for j in range(n)] for i in range(n)]
    b_ub = [0] * n
    assert lp_feasible(a_ub, b_ub, a_eq, b_eq, n=n) is not None
    # (3,3) is not
    b_eq = [3, 3, 1]
    assert lp_feasible(a_ub, b_ub, a_eq, b_eq, n=n) is None
