import itertools
import operator
from math import factorial

import pytest
from hypothesis import given, strategies as st

from glcenter.combinatorics import (
    Strip,
    cells,
    check_partition,
    conjugate,
    contains,
    deruyts,
    enumerate_horizontal_strips,
    enumerate_row_increasing,
    enumerate_rssyt,
    enumerate_standard_proper,
    enumerate_vertical_strips,
    format_partition,
    hook_number,
    is_partition,
    parse_partition,
    parse_tableau,
    partitions_of,
    partitions_upto,
    permutation_cycle_type,
    permutation_sign,
    shape_of,
    size,
    strip_factorial,
    sym_character,
)
from glcenter.central import _left_block
from glcenter.superspace import alpha


partition_strategy = st.builds(
    lambda parts: tuple(sorted(parts, reverse=True)),
    st.lists(st.integers(min_value=1, max_value=6), max_size=6),
)


def test_parse_format_round_trip():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("") == ()
    assert parse_partition(" 4,4,1 ") == (4, 4, 1)
    assert format_partition((2, 1)) == "2,1"
    assert format_partition(()) == ""
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("2,0")


def test_is_partition():
    assert is_partition((3, 1, 1))
    assert is_partition(())
    assert not is_partition((1, 2))
    assert not is_partition((2, -1))
    with pytest.raises(ValueError):
        check_partition((1, 3))


def test_conjugate_known():
    assert conjugate(()) == ()
    assert conjugate((1,)) == (1,)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((4,)) == (1, 1, 1, 1)


@given(partition_strategy)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert size(conjugate(lam)) == size(lam)


def test_contains():
    assert contains((), (3, 1))
    assert contains((2, 1), (2, 1))
    assert contains((2, 1), (3, 1))
    assert not contains((2, 1), (2,))
    assert not contains((1, 1, 1), (3, 2))


@given(partition_strategy, partition_strategy)
def test_contains_matches_cellwise(lam, mu):
    expected = set(cells(lam)) <= set(cells(mu))
    assert contains(lam, mu) == expected


def test_hook_number_known():
    assert hook_number(()) == 1
    assert hook_number((1,)) == 1
    assert hook_number((2,)) == 2
    assert hook_number((1, 1)) == 2
    assert hook_number((2, 1)) == 3
    assert hook_number((3,)) == 6
    assert hook_number((2, 2)) == 12
    assert hook_number((3, 1)) == 8
    assert hook_number((2, 1, 1)) == 8
    assert hook_number((4,)) == 24


@given(partition_strategy)
def test_hook_number_conjugation_invariant(lam):
    assert hook_number(lam) == hook_number(conjugate(lam))


def test_hook_number_counts_standard_tableaux():
    # n! / H(lam) is the number of standard Young tableaux; check the
    # dimension identity sum over |lam| = m of (m!/H)^2 = m!.
    for m in range(1, 6):
        total = sum(
            (factorial(m) // hook_number(lam)) ** 2
            for lam in partitions_upto(m)
            if size(lam) == m
        )
        assert total == factorial(m)


def test_partition_enumeration_order():
    # by size, largest part first: the verify suites list checks in this order
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(4, 2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]
    assert partitions_upto(3) == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    assert partitions_upto(2, include_empty=False) == [(1,), (2,), (1, 1)]
    for m in range(7):
        assert all(is_partition(lam) for lam in partitions_upto(m))
        assert len(set(partitions_of(m))) == len(partitions_of(m))


def test_enumerate_row_increasing_counts():
    # independent strictly increasing rows: product of binomials
    assert len(enumerate_row_increasing((2, 2), 3)) == 9
    assert len(enumerate_row_increasing((2, 1), 3)) == 9
    assert len(enumerate_row_increasing((3,), 3)) == 1
    assert enumerate_row_increasing((4,), 3) == []
    for t in enumerate_row_increasing((2, 2), 3):
        assert all(row[0] < row[1] for row in t)


def test_enumerate_standard_proper_counts():
    # rows strictly increasing, columns weakly increasing over {1..n}
    assert len(enumerate_standard_proper((1,), 3)) == 3
    assert enumerate_standard_proper((2,), 2) == [((1, 2),)]
    got = enumerate_standard_proper((1, 1), 2)
    assert got == [((1,), (1,)), ((1,), (2,)), ((2,), (2,))]
    assert len(enumerate_standard_proper((2, 1), 3)) == 8


def test_enumerate_rssyt_counts_match_weyl_dimension():
    # rows weakly decreasing, columns strictly decreasing over {1..n}: in
    # bijection with semistandard tableaux, counted by the content formula
    def weyl_dim(lam, n):
        num = 1
        for i, j in cells(lam):
            num *= n + j - i
        return num // hook_number(lam)

    for lam in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        for n in (2, 3):
            got = enumerate_rssyt(lam, n)
            if conjugate(lam)[0] > n:
                assert got == []
                continue
            assert len(got) == weyl_dim(lam, n)
            for t in got:
                assert shape_of(t) == lam
                assert all(
                    row[j] >= row[j + 1] for row in t for j in range(len(row) - 1)
                )
                for r in range(len(t) - 1):
                    for j in range(len(t[r + 1])):
                        assert t[r][j] > t[r + 1][j]


def test_enumerators_match_brute_force_filter():
    # every filling of the shape by 1..n, kept when it meets the enumerator's
    # row and column rules; product order is sorted order
    def brute(lam, n, row_ok, col_ok):
        out = []
        for flat in itertools.product(range(1, n + 1), repeat=size(lam)):
            it = iter(flat)
            t = tuple(tuple(next(it) for _ in range(part)) for part in lam)
            if all(row_ok(a, b) for row in t for a, b in zip(row, row[1:])) and all(
                col_ok(a, b) for upper, lower in zip(t, t[1:]) for a, b in zip(upper, lower)
            ):
                out.append(t)
        return out

    for lam in partitions_upto(5):
        for n in range(1, 5):
            assert enumerate_row_increasing(lam, n) == brute(
                lam, n, operator.lt, lambda a, b: True
            ), (lam, n)
            assert enumerate_rssyt(lam, n) == brute(lam, n, operator.ge, operator.gt), (lam, n)
            assert enumerate_standard_proper(lam, n) == brute(
                lam, n, operator.lt, operator.le
            ), (lam, n)


def test_strips_known():
    # single row (2): two cells in row 1; a horizontal strip may take both
    strips = enumerate_horizontal_strips((2,), 2)
    assert strips == [Strip(((1, 1), (1, 2)), "horizontal")]
    assert strip_factorial(strips[0]) == 2
    # vertical strips of size 2 need two distinct rows
    assert enumerate_vertical_strips((2,), 2) == []
    vs = enumerate_vertical_strips((1, 1), 2)
    assert vs == [Strip(((1, 1), (2, 1)), "vertical")]
    assert strip_factorial(vs[0]) == 2  # both cells sit in column 1
    # (2,1): horizontal 2-strips pick one cell from each of two columns
    hs = enumerate_horizontal_strips((2, 1), 2)
    assert len(hs) == 2
    assert {s.cells for s in hs} == {((1, 1), (1, 2)), ((1, 2), (2, 1))}


def test_strip_factorial_counts_same_line_blocks():
    s = Strip(((1, 1), (1, 2), (2, 1)), "horizontal")
    assert strip_factorial(s) == 2  # two cells share row 1
    s = Strip(((1, 1), (2, 1), (3, 1)), "vertical")
    assert strip_factorial(s) == 6  # all three share column 1


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((2, 0, 1)) == 1
    assert permutation_sign("ba") == -1
    # (-1)^(k - number of cycles), on all of S_5
    for perm in itertools.permutations(range(5)):
        cycles = len(permutation_cycle_type(perm))
        assert permutation_sign(perm) == (-1) ** (5 - cycles), perm


def test_permutation_cycle_type():
    assert permutation_cycle_type((0, 1, 2)) == (1, 1, 1)
    assert permutation_cycle_type((1, 0, 2)) == (2, 1)
    assert permutation_cycle_type((1, 2, 0)) == (3,)
    assert permutation_cycle_type(()) == ()


def test_character_table_s3():
    assert [sym_character((3,), c) for c in [(1, 1, 1), (2, 1), (3,)]] == [1, 1, 1]
    assert [sym_character((1, 1, 1), c) for c in [(1, 1, 1), (2, 1), (3,)]] == [1, -1, 1]
    assert [sym_character((2, 1), c) for c in [(1, 1, 1), (2, 1), (3,)]] == [2, 0, -1]


def test_character_table_s4_row():
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert [sym_character((2, 2), c) for c in classes] == [2, 0, 2, -1, 0]
    assert [sym_character((3, 1), c) for c in classes] == [3, 1, -1, 0, -1]


def test_character_orthogonality():
    # column orthogonality: sum over lam of chi(mu) chi(nu) = delta z_mu
    def z(mu):
        out, prev, run = 1, None, 0
        for part in mu + (0,):
            if part == prev:
                run += 1
            else:
                if prev is not None:
                    out *= prev**run * factorial(run)
                prev, run = part, 1
        return out

    for m in range(1, 6):
        shapes = [lam for lam in partitions_upto(m) if size(lam) == m]
        for mu in shapes:
            for nu in shapes:
                total = sum(sym_character(lam, mu) * sym_character(lam, nu) for lam in shapes)
                assert total == (z(mu) if mu == nu else 0)


def test_sym_character_size_mismatch():
    with pytest.raises(ValueError):
        sym_character((2, 1), (2, 2))


def test_deruyts_coderuyts():
    assert deruyts((2, 1)) == ((1, 2), (1,))
    # the Coderuyts tableau C* repeats alpha_r on row r: the left block
    # e_{S,C*} of the central constructors pairs each entry with it
    assert _left_block(((1, 2), (3,))) == ((1, alpha(1)), (2, alpha(1)), (3, alpha(2)))


def test_parse_tableau():
    assert parse_tableau("1 2;3") == ((1, 2), (3,))
    assert shape_of(parse_tableau("1 2;3")) == (2, 1)
    with pytest.raises(ValueError):
        parse_tableau("1;2 3")  # rows must form a partition shape
    with pytest.raises(ValueError):
        parse_tableau("1 2;;3")
