from __future__ import annotations

import random
from fractions import Fraction

import pytest
from exact_lp import lp_feasible, lp_min
from helpers import compose, identity_on, is_surjective, mat_mul

from pdivisors.errors import NotSurjective, ZeroVector
from pdivisors.lattice import (
    Lattice,
    LatticeMap,
    _reduce_mod_columns,
    multiplicity,
    primitive_and_multiplicity,
    smith_split,
)
from pdivisors.linalg import (
    _kernel,
    mat_vec,
    rank,
    smith_normal_form,
    solve,
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


def test_snf_transforms():
    rng = random.Random(3)
    cases = []
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        cases.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
    # the divisibility step once cycled on these (the second is the
    # projection of a `pdiv downgrade` that never returned)
    cases += [[[2, 0, 0], [0, 3, 5]], [[4, -3, 0, -3], [-2, 4, 4, -4]]]
    rng = random.Random(2026)
    for _ in range(600):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        cases.append([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
    for a in cases:
        m, n = len(a), len(a[0])
        u, d, v = smith_normal_form(a)
        prod = mat_mul(mat_mul(vec_rows(u), vec_rows(a)), vec_rows(v))
        for i in range(m):
            for j in range(n):
                if i == j:
                    assert prod[i][j] == d[i][j]
                else:
                    assert prod[i][j] == 0 == d[i][j]
        diag = [d[i][i] for i in range(min(m, n))]
        for x, y in zip(diag, diag[1:]):
            if y != 0:
                assert x != 0 and y % x == 0
    assert smith_normal_form([[2, 0, 0], [0, 3, 5]])[1] == [[1, 0, 0], [0, 2, 0]]


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
