import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glcenter import linalg
from glcenter.linalg import P, rank, solve, solve_many

# A prime above 2**31: 1/Q is beyond the reach of rational reconstruction mod P.
Q = 2147483659


def exact_rank(a):
    n = len(a[0]) if a else 0
    return len(linalg._rref([[Fraction(x) for x in row] for row in a], n))


def _dense_eliminate_mod(rows, ncols):
    """Gauss-Jordan mod P that updates every tail entry of a row: the
    reference for the support-only update of `linalg._eliminate_mod`."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, P)
        tail = [x * inv % P for x in rows[r][c:]]
        rows[r][c:] = tail
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c:] = [(x - f * y) % P for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def exact_solve_many(a, bs):
    """The exact route alone: one Fraction RREF of [A | b...]."""
    n = len(a[0]) if a else 0
    rows = [list(row) + [b[i] for b in bs] for i, row in enumerate(a)]
    return linalg._solve_exact(rows, n, len(bs))


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
    st.just(0),
)


@st.composite
def systems(draw):
    """A matrix up to 8x8, often of low rank, with consistent and arbitrary
    right-hand sides."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))
        left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
        right = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
        a = [[sum((left[i][t] * right[t][j] for t in range(k)), 0) for j in range(n)]
             for i in range(m)]
    else:
        a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    bs = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            y = draw(st.lists(entries, min_size=n, max_size=n))
            bs.append([sum((a[i][j] * y[j] for j in range(n)), 0) for i in range(m)])
        else:
            bs.append(draw(st.lists(entries, min_size=m, max_size=m)))
    return a, bs


def all_fractions(sols):
    return all(x is None or all(type(v) is Fraction for v in x) for x in sols)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_matches_exact_route(system):
    a, bs = system
    a_before, bs_before = copy.deepcopy(a), copy.deepcopy(bs)
    assert rank(a) == exact_rank(a)
    want = exact_solve_many(a, bs)
    got = solve_many(a, bs)
    assert got == want
    assert all_fractions(got)
    for b, x in zip(bs, want):
        single = solve(a, b)
        assert single == x
        assert all_fractions([single])
    assert a == a_before and bs == bs_before
    assert [[type(v) for v in row] for row in a] == [[type(v) for v in row] for row in a_before]


residues = st.one_of(st.integers(1, 5), st.integers(P - 5, P - 1), st.integers(1, P - 1))


@st.composite
def matrices_mod_p(draw):
    """Rows of residues mod P, up to 12x16, at a drawn density, with some
    rows and columns set to zero and some rows repeated as multiples of an
    earlier row; and a column count to eliminate over."""
    m, width = draw(st.integers(0, 12)), draw(st.integers(0, 16))
    percent = draw(st.sampled_from((0, 5, 30, 100)))
    rows = [
        [draw(residues) if draw(st.integers(0, 99)) < percent else 0 for _ in range(width)]
        for _ in range(m)
    ]
    for j in draw(st.sets(st.integers(0, width - 1), max_size=3)) if width else ():
        for row in rows:
            row[j] = 0
    for i in draw(st.sets(st.integers(0, m - 1), max_size=3)) if m else ():
        rows[i] = [0] * width
    for i in range(1, m):
        if draw(st.integers(0, 3)) == 0:
            f = draw(residues)
            rows[i] = [x * f % P for x in rows[draw(st.integers(0, i - 1))]]
    return rows, draw(st.integers(0, width))


@settings(max_examples=300, deadline=None)
@given(matrices_mod_p())
def test_sparse_elimination_matches_dense(system):
    rows, ncols = system
    dense, sparse = copy.deepcopy(rows), copy.deepcopy(rows)
    assert linalg._eliminate_mod(sparse, ncols) == _dense_eliminate_mod(dense, ncols)
    assert sparse == dense


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    exact = linalg._rref

    def spy(rows, ncols):
        calls.append(ncols)
        return exact(rows, ncols)

    monkeypatch.setattr(linalg, "_rref", spy)
    return calls


def test_full_rank_is_certified_without_fallback(rref_calls):
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4], [1, 1, 1]]
    x = [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
    b = [sum(r * v for r, v in zip(row, x)) for row in a]
    assert rank(a) == 3
    assert solve_many(a, [b, b]) == [x, x]
    assert rref_calls == []


def test_sparse_full_rank_solutions_are_fractions(rref_calls):
    # a permuted identity with a few off-diagonal entries; most unknowns are 0
    n = 40
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][(7 * i) % n] = i % 3 + 1
    a[5][0], a[17][33], a[30][2] = 4, Fraction(-1, 2), 9
    x = [Fraction(0)] * n
    x[3], x[33] = Fraction(2, 3), Fraction(-5)
    b = [sum(r * v for r, v in zip(row, x)) for row in a]
    want = [x, [Fraction(0)] * n]
    got = solve_many(a, [b, [0] * n])
    assert got == want
    assert all_fractions(got)
    assert rref_calls == []
    got[1][0] = Fraction(7)
    got[0][4] = Fraction(7)
    again = solve_many(a, [b, [0] * n])
    assert again == want
    assert all_fractions(again)


def test_rank_zero_mod_p_is_one_over_q(rref_calls):
    assert rank([[P]]) == 1
    assert rref_calls == [1]


def test_consistent_mod_p_inconsistent_over_q(rref_calls):
    a = [[1], [1]]
    assert solve(a, [0, P]) is None
    assert solve_many(a, [[2, 2], [0, P], [3, 3]]) == [[Fraction(2)], None, [Fraction(3)]]
    # one exact elimination for the one failure, none for the others
    assert rref_calls == [1, 1]


def test_inconsistent_mod_p_goes_to_exact_route(rref_calls):
    assert solve_many([[1], [1]], [[1, 2]]) == [None]
    assert rref_calls == [1]


def test_denominator_beyond_reconstruction(rref_calls):
    a = [[Q, 0], [0, 1], [1, 1]]
    got = solve(a, [1, 5, Fraction(1, Q) + 5])
    assert got == [Fraction(1, Q), Fraction(5)]
    assert rref_calls == [2]


def test_low_rank_mod_p_falls_back_whole(rref_calls):
    # rank 1 over Q, but rank 1 < n = 2, so every right-hand side is exact
    assert solve_many([[1, 2], [2, 4]], [[1, 2], [1, 3]]) == [[Fraction(1), Fraction(0)], None]
    assert rref_calls == [2]


def test_empty_shapes():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert solve_many([], []) == []
    assert solve_many([[1, 2], [3, 4]], []) == []
    assert solve([], []) == []
    assert solve([[], []], [0, 0]) == []
    assert solve([[], []], [0, 1]) is None


def test_bad_shapes_and_floats():
    with pytest.raises(ValueError):
        solve([[1, 0], [0, 1]], [1, 2, 99])
    with pytest.raises(ValueError):
        solve_many([[1, 0], [0, 1]], [[1, 2], [1]])
    with pytest.raises(ValueError):
        rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        solve([[1], [2, 3]], [1, 2])
    with pytest.raises(TypeError):
        rank([[0.1]])
    with pytest.raises(TypeError):
        solve([[1]], [0.5])
    with pytest.raises(TypeError):
        solve([], [0.5])
