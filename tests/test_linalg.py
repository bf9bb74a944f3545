"""Rank, kernel, row space and solve from the fraction-free elimination
equal the results of the Fraction RREF they replaced; the integral results
come back as primitive `int` rows."""

from __future__ import annotations

import random
from fractions import Fraction

from fraction_route import (
    fraction_kernel,
    fraction_primitive,
    fraction_rref,
    fraction_row_space,
    fraction_solve,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from pdivisors.linalg import _echelon, _int_row, _kernel, rank, solve

F = Fraction


def assert_same(rows, n):
    assert rank(rows) == len(fraction_rref(rows)[0])
    pairs = (
        (_kernel(rows, n), fraction_kernel(rows, n)),
        (_echelon(rows)[0], fraction_row_space(rows)),
    )
    for got, want in pairs:
        assert got == want
        assert all(type(x) is int for v in got for x in v)


def assert_same_solve(rows, b):
    got = solve(rows, b)
    assert got == fraction_solve(rows, b)
    if got is not None:
        assert all(type(x) is Fraction for x in got)


# -- seeded inputs ---------------------------------------------------------


def random_entry(rng):
    den = rng.choice([1, 1, 2, 3, 7, 10**12 + 39])
    return F(rng.randint(-9 * den, 9 * den), den)


def random_matrix(rng, m, n, r):
    """m x n, rank at most r, with zero, repeated, scaled and negated rows."""
    base = [[random_entry(rng) for _ in range(n)] for _ in range(r)]
    rows = list(base)
    while len(rows) < m:
        kind = rng.randrange(4)
        if kind == 0:
            rows.append([F(0)] * n)
        elif kind == 1 and base:
            s = rng.choice([F(1), F(-1), F(3, 2), F(-5, 10**9 + 7)])
            rows.append([s * x for x in rng.choice(base)])
        else:
            coeffs = [rng.randint(-3, 3) for _ in base]
            rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), F(0)) for j in range(n)])
    rng.shuffle(rows)
    return rows[:m]


def test_elimination_matches_fraction_rref_seeded():
    rng = random.Random(20260418)
    for _ in range(400):
        n = rng.randint(1, 7)
        m = rng.randint(1, 8)
        r = rng.randint(0, min(m, n))
        assert_same(random_matrix(rng, m, n, r), n)


def test_shapes_and_degenerate_inputs():
    assert_same([[0, 0, 0]], 3)
    assert_same([[F(-2), 4, 0], [1, -2, 0]], 3)
    assert_same([[0, F(-1, 3), 5], [0, 0, F(-7, 10**15)]], 3)
    assert_same([[1], [F(-1, 2)], [0], [3]], 1)
    assert_same([[1, 2, 3, 4, 5, 6, 7, 8]], 8)
    assert_same([[i, i + 1] for i in range(10)], 2)
    assert _kernel([], 3) == fraction_kernel([], 3)
    assert rank([]) == 0 and _echelon([])[0] == []


def test_solve_matches_fraction_rref_seeded():
    rng = random.Random(20261018)
    consistent = inconsistent = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        m = rng.randint(1, 7)
        rows = random_matrix(rng, m, n, rng.randint(0, min(m, n)))
        if rng.random() < 0.5:
            x = [random_entry(rng) for _ in range(n)]
            b = [sum((r * y for r, y in zip(row, x)), F(0)) for row in rows]
        else:
            b = [random_entry(rng) for _ in rows]
        assert_same_solve(rows, b)
        if solve(rows, b) is None:
            inconsistent += 1
        else:
            consistent += 1
    assert consistent > 100 and inconsistent > 50


def test_solve_degenerate_systems():
    assert_same_solve([[0, 0], [0, 0]], [0, 0])
    assert solve([[0, 0], [0, 0]], [0, 1]) is None
    assert solve([[1, 2], [2, 4]], [3, 5]) is None
    assert solve([[0, F(2, 10**12 + 39), 4]], [F(-1, 7)]) == (0, F(-(10**12 + 39), 14), 0)
    assert_same_solve([[1, 1, 1]], [F(5, 3)])
    assert_same_solve([[F(1, 10**15)], [F(-3, 10**15)]], [1, -3])
    assert solve([], []) == () == fraction_solve([], [])


def test_primitive_matches_fraction_route():
    rng = random.Random(5)
    for _ in range(200):
        v = [random_entry(rng) for _ in range(rng.randint(1, 6))]
        if any(v):
            got = _int_row(v)
            assert got == fraction_primitive(v)
            assert all(type(x) is int for x in got)
    assert _int_row((F(-4, 6), 2, "2/3")) == (-1, 3, 1)
    assert _int_row((0, F(0))) == (0, 0)


# -- property test -----------------------------------------------------------


entries = st.fractions(min_value=-20, max_value=20, max_denominator=10**9)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=0, max_size=4))
    derived = []
    for coeffs in draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)), max_size=3)):
        derived.append([sum((c * b[j] for c, b in zip(coeffs, base)), F(0)) for j in range(n)])
    rows = draw(st.permutations(base + derived + draw(st.lists(st.just([F(0)] * n), max_size=1))))
    return rows, n


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_elimination_matches_fraction_rref_property(case):
    rows, n = case
    assert_same(rows, n)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_fraction_rref_property(case, data):
    rows, n = case
    b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    assert_same_solve(rows, b)
