import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

import pytest

from glcenter import central
from glcenter.central import (
    CentralElement,
    _left_block,
    _multinomial,
    _right_block,
    _row_orbits,
    _schur_piece,
    _sorted_odd,
    _symmetrized_words,
    _symmetrizer,
    capelli_H,
    capelli_H_cdet,
    capelli_bitableau,
    capelli_immanant,
    double_young_capelli,
    duality_W,
    eigenvalue,
    embed,
    nazarov_umeda_I,
    nazarov_umeda_I_cper,
    olshanski_project,
    schur_element,
    schur_element_hc,
    young_capelli,
)
from glcenter.combinatorics import (
    conjugate,
    enumerate_row_increasing,
    hook_number,
    partitions_of,
    partitions_upto,
    permutation_cycle_type,
    permutation_sign,
    shape_of,
    size,
    sym_character,
)
from glcenter.enveloping import act, devirtualize, elem_mul, is_central, one, pbw_normal_form
from glcenter.lincomb import add_into, add_term, scale as elem_scale
from glcenter.shifted import express_in_estar_basis, harish_chandra, s_star
from glcenter.superspace import alpha, beta, highest_weight_vector, poly_mul


# The paper's direct virtual words. With the Coderuyts tableau C* (one
# positive symbol per row) and the virtual Deruyts tableau D* (row r is
# beta_1..beta_{shape_r}), [S|box T] is the image of e_{S,C*} e_{C*,D*}
# e_{D*,T} and [box S|T] that of e_{S,C*} e_{C*,D*} e_{D*,C*} e_{C*,T}. The
# constructors build the expansions instead; these words are their reference.


def _block_SC(S, pool):
    return tuple((x, alpha(r + 1 + pool)) for r, row in enumerate(S) for x in row)


def _block_CT(T, pool):
    return tuple((alpha(r + 1 + pool), x) for r, row in enumerate(T) for x in row)


def _block_CD(shape, pool):
    return tuple(
        (alpha(r + 1 + pool), beta(c + 1 + pool))
        for r, length in enumerate(shape)
        for c in range(length)
    )


def _block_DC(shape, pool):
    return tuple(
        (beta(c + 1 + pool), alpha(r + 1 + pool))
        for r, length in enumerate(shape)
        for c in range(length)
    )


def _block_DT(T, pool):
    return tuple((beta(c + 1 + pool), x) for row in T for c, x in enumerate(row))


def _yc_word(S, T, pool=0):
    return _block_SC(S, pool) + _block_CD(shape_of(S), pool) + _block_DT(T, pool)


def _dyc_word(S, T, pool=0):
    shape = shape_of(S)
    return (
        _block_SC(S, pool) + _block_CD(shape, pool) + _block_DC(shape, pool) + _block_CT(T, pool)
    )


def _immanant_right_form(mu, left, right, pool=0):
    """Cimm_mu[left;right] with the right word permuted instead of the left."""
    words = {}
    left_block = _block_SC([[x] for x in left], pool)
    for perm in permutations(range(len(left))):
        chi = sym_character(mu, permutation_cycle_type(perm))
        add_term(words, left_block + _block_CT([[right[i]] for i in perm], pool), chi)
    return words


def _filling(rng, shape):
    """Rows of distinct letters from 1..3."""
    return tuple(tuple(rng.sample((1, 2, 3), length)) for length in shape)


def _content_probe(rng, letters, places):
    """Seeded integer combination of every monomial whose letters are exactly
    the multiset letters, over places 1..places. Of the polynomials of this
    degree, a word that polarizes away each of these letters once can be
    nonzero only on these monomials."""
    letters = sorted(letters)
    probe = {}
    for js in product(range(1, places + 1), repeat=len(letters)):
        mono = {(): 1}
        for x, j in zip(letters, js):
            mono = poly_mul(mono, {((x, j),): 1})
        for m, c in mono.items():
            add_term(probe, m, c * rng.randint(1, 9))
    return probe


def test_capelli_bitableau_fixtures():
    # [S|T] of a single cell is just a generator
    assert capelli_bitableau(((2,),), ((1,),)) == {((2, 1),): Fraction(1)}
    # reordering a row of either side multiplies by the signature
    b12 = capelli_bitableau(((1, 2),), ((1, 2),))
    assert capelli_bitableau(((2, 1),), ((1, 2),)) == elem_scale(b12, -1)
    assert capelli_bitableau(((1, 2),), ((2, 1),)) == elem_scale(b12, -1)
    b123 = capelli_bitableau(((1, 2, 3),), ((1, 2, 3),))
    assert capelli_bitableau(((3, 2, 1),), ((1, 2, 3),)) == elem_scale(b123, -1)
    # repeated letter in a row kills the bitableau
    assert capelli_bitableau(((1, 1),), ((1, 2),)) == {}


def test_capelli_bitableau_shape_mismatch():
    with pytest.raises(ValueError):
        capelli_bitableau(((1, 2),), ((1,), (2,)))
    with pytest.raises(ValueError):
        capelli_bitableau(((0,),), ((1,),))


def _row_words(tuples, virtual, weight):
    """The one-row words of H_k (virtual = alpha) and I_k (virtual = beta)."""
    words = {}
    for idx in tuples:
        words[tuple((i, virtual) for i in reversed(idx)) + tuple((virtual, i) for i in idx)] = weight(idx)
    return words


def test_pool_independence():
    # the image does not depend on which virtual symbols are chosen: the
    # constructors, on alpha_1, alpha_2, ... and beta_1, equal the words
    # written on symbols shifted by an offset
    s, t = ((1, 2), (2,)), ((1, 2), (1,))
    for pool in (0, 5):
        assert capelli_bitableau(s, t) == devirtualize({_block_SC(s, pool) + _block_CT(t, pool): 1})
        assert young_capelli(s, t) == devirtualize({_yc_word(s, t, pool): 1})
        assert double_young_capelli(s, t) == devirtualize({_dyc_word(s, t, pool): 1})
        h_words = _row_words(combinations((1, 2), 2), alpha(1 + pool), lambda idx: 1)
        assert capelli_H(2, 2).body == devirtualize(h_words)
        i_words = _row_words(
            combinations_with_replacement((1, 2), 2),
            beta(1 + pool),
            lambda idx: Fraction(1, 2 if idx[0] == idx[1] else 1),
        )
        assert nazarov_umeda_I(2, 2).body == devirtualize(i_words)
        # S_(2)(2) is 1/H((1,1)) times the sum of [box S|S] over the
        # row-increasing S of shape (1,1)
        dyc = {}
        for S in enumerate_row_increasing((1, 1), 2):
            add_term(dyc, _dyc_word(S, S, pool), Fraction(1, hook_number((1, 1))))
        assert schur_element((2,), 2).body == devirtualize(dyc)
        assert capelli_immanant((2,), (1, 2), (1, 2)) == devirtualize(
            _immanant_right_form((2,), (1, 2), (1, 2), pool)
        )


def test_young_capelli_routes_agree():
    # the constructors build the expansions; the direct virtual word must
    # devirtualize to the same element, for every shape of size at most 3
    rng = random.Random(0)
    cases = [
        (((1, 2),), ((1, 2),)),
        (((1, 2), (2,)), ((1, 2), (1,))),
        (((1,), (2,)), ((2,), (1,))),
    ]
    for lam in partitions_upto(3, include_empty=False):
        cases += [(_filling(rng, lam), _filling(rng, lam)) for _ in range(3)]
    for s, t in cases:
        assert young_capelli(s, t) == devirtualize({_yc_word(s, t, 5): 1})
        assert double_young_capelli(s, t) == devirtualize({_dyc_word(s, t, 5): 1})
    for lam in [(2, 2), (3, 1)]:
        for _ in range(3):
            s, t = _filling(rng, lam), _filling(rng, lam)
            assert young_capelli(s, t) == devirtualize({_yc_word(s, t, 5): 1})


# The expansions by full group enumeration: every row permutation times
# every column permutation, each word sorted on its own. The constructors
# group the same sum by a symmetrizer table per shape; this is its reference.


def _column_permuted(T):
    shape = shape_of(T)
    for pis in product(*(permutations(range(h)) for h in conjugate(shape))):
        yield tuple(tuple(T[pis[c][r]][c] for c in range(shape[r])) for r in range(len(shape)))


def _row_permuted(T):
    shape = shape_of(T)
    for pis in product(*(permutations(range(length)) for length in shape)):
        sign = 1
        for pi in pis:
            sign *= permutation_sign(pi)
        yield sign, tuple(tuple(T[r][pis[r][c]] for c in range(shape[r])) for r in range(len(shape)))


def _reference_yc_expansion(S, T):
    acc = {}
    left = _sorted_odd(_left_block(S))
    if left is not None:
        for Tbar in _column_permuted(T):
            right = _sorted_odd(_right_block(Tbar))
            if right is not None:
                add_term(acc, left[1] + right[1], left[0] * right[0])
    return acc


def _reference_dyc_expansion(S, T):
    h = size(shape_of(S))
    global_sign = -1 if (h * (h - 1) // 2) % 2 else 1
    acc = {}
    for sign, Ts in _row_permuted(T):
        add_into(acc, _reference_yc_expansion(S, Ts), global_sign * sign)
    return acc


def test_symmetrizer_table_sizes():
    # (row group x column group) elements -> nonzero table entries
    assert len(_symmetrizer((2, 2), rows=True)) == 6  # 16 elements
    assert len(_symmetrizer((3, 1), rows=True)) == 4  # 12
    assert len(_symmetrizer((4,), rows=True)) == 1  # 24
    assert len(_symmetrizer((3, 2, 1), rows=True)) == 57  # 144


def _letters(rng, shape, n):
    """Rows of letters from 1..n, repeats allowed."""
    return tuple(tuple(rng.randint(1, n) for _ in range(length)) for length in shape)


def test_symmetrizer_matches_full_enumeration():
    # seeded S != T with repeated letters, so rows can repeat a letter and
    # different group elements meet on one word
    rng = random.Random("symmetrizer")
    for lam in partitions_upto(5, include_empty=False):
        for n in (2, 3, 4):
            S = T = None
            while S == T:
                S, T = _letters(rng, lam, n), _letters(rng, lam, n)
            for rows, reference in [(False, _reference_yc_expansion), (True, _reference_dyc_expansion)]:
                assert _symmetrized_words(_symmetrizer(lam, rows), S, T) == reference(S, T), (lam, n, rows)
    for lam in [(2, 1), (2, 2), (3, 2), (2, 2, 1)]:
        for n in (3, 4):
            S, T = _letters(rng, lam, n), _letters(rng, lam, n)
            assert young_capelli(S, T) == devirtualize(_reference_yc_expansion(S, T)), (S, T)
            assert double_young_capelli(S, T) == devirtualize(_reference_dyc_expansion(S, T)), (S, T)


def test_young_capelli_action_matches_virtual_word():
    # at sizes where devirtualizing the direct word is too costly, the image
    # and the word must act alike on a probe of degree |lam|
    for lam in [(3, 2), (2, 2, 1)]:
        rng = random.Random(f"action {lam}")
        for build, word in [(young_capelli, _yc_word), (double_young_capelli, _dyc_word)]:
            s, t = _filling(rng, lam), _filling(rng, lam)
            probe = _content_probe(rng, [x for row in t for x in row], 3)
            image = act(build(s, t), probe)
            assert image
            assert image == act({word(s, t): 1}, probe)


def test_capelli_H_closed_form():
    assert capelli_H(2, 2).body == {
        ((1, 1), (2, 2)): Fraction(1),
        ((2, 1), (1, 2)): Fraction(-1),
        ((2, 2),): Fraction(1),
    }
    assert capelli_H(1, 2).body == {((1, 1),): Fraction(1), ((2, 2),): Fraction(1)}


def test_capelli_H_routes_agree():
    for n in (2, 3):
        for k in range(1, n + 1):
            assert capelli_H(k, n).body == capelli_H_cdet(k, n).body


def test_nazarov_umeda_routes_agree():
    for n, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 4), (2, 5)]:
        assert nazarov_umeda_I(k, n).body == nazarov_umeda_I_cper(k, n).body


def test_nazarov_umeda_cper_is_independent_of_one_row(monkeypatch):
    # the reference never devirtualizes or relabels, so it checks `_one_row`
    # without sharing either step with it
    expected = {(k, n): nazarov_umeda_I(k, n).body for k, n in [(1, 2), (3, 2), (2, 3), (4, 3)]}

    def forbidden(*args):
        raise AssertionError("the column-permanent reference left its own route")

    monkeypatch.setattr(central, "devirtualize", forbidden)
    monkeypatch.setattr(central, "_relabeled_sum", forbidden)
    for (k, n), body in expected.items():
        assert nazarov_umeda_I_cper(k, n).body == body, (k, n)


def test_schur_element_specializations():
    # column shapes give the determinantal family, row shapes the permanental
    for n in (2, 3):
        for k in range(1, n + 1):
            assert capelli_H(k, n).body == schur_element((1,) * k, n).body
            assert nazarov_umeda_I(k, n).body == schur_element((k,), n).body


def test_schur_element_basics():
    assert schur_element((), 2).body == one()
    assert schur_element((2, 1), 3).provenance == "S:2,1@n=3"
    assert capelli_H(2, 3).provenance == "H:2@n=3"
    with pytest.raises(ValueError):
        schur_element((1, 1, 1), 2)  # more rows than n


def test_schur_routes_agree():
    # the Harish-Chandra preimage of s*_lam that the CLI builds, against the
    # definition, at every (lam, n) of `verify --suite schur --max-size 4
    # --max-n 4` and at the empty partition
    for n in range(1, 5):
        for lam in partitions_upto(4):
            if lam and conjugate(lam)[0] > n:
                continue
            by_hc, by_definition = schur_element_hc(lam, n), schur_element(lam, n)
            assert by_hc.body == by_definition.body, (lam, n)
            assert by_hc.provenance == by_definition.provenance
            assert by_hc.n == n
    for lam, n in [((1, 1, 1), 2), ((2, 1, 1, 1), 3)]:
        with pytest.raises(ValueError) as by_definition:
            schur_element(lam, n)
        with pytest.raises(ValueError) as by_hc:
            schur_element_hc(lam, n)
        assert str(by_hc.value) == str(by_definition.value)


# The definition summed over every tableau with entries in 1..n, with no
# grouping by letter set: the reference for schur_element's pieces.
def _schur_direct(lam, n):
    lam_t = conjugate(lam)
    table = _symmetrizer(lam_t, rows=True)
    body = {}
    for S in enumerate_row_increasing(lam_t, n):
        add_into(body, devirtualize(_symmetrized_words(table, S, S)))
    return elem_scale(body, Fraction(1, hook_number(lam_t)))


def test_schur_pieces_match_direct_sum():
    # every (lam, n) of `verify --max-n 4 --max-size 4`, the empty partition,
    # and two shapes of size 5 at n = 5
    cases = [(lam, n) for n in range(1, 5) for lam in partitions_upto(4) if len(lam) <= n]
    for lam, n in cases + [((), 0), ((3, 2), 5), ((2, 2, 1), 5)]:
        assert schur_element(lam, n).body == _schur_direct(lam, n), (lam, n)


# One piece summed over every row-increasing S with letter set {1..m},
# one devirtualization per S, with no grouping into row orbits: the
# reference for _schur_piece.
def _schur_piece_direct(lam_t, m):
    table = _symmetrizer(lam_t, rows=True)
    piece = {}
    for S in enumerate_row_increasing(lam_t, m):
        if len({x for row in S for x in row}) == m:
            add_into(piece, devirtualize(_symmetrized_words(table, S, S)))
    return elem_scale(piece, Fraction(1, hook_number(lam_t)))


def test_schur_piece_orbit_sum_matches_every_tableau():
    # all 45 (lam, m) with |lam| <= 5 and l(lam) <= m <= |lam|
    shapes = partitions_upto(5, include_empty=False)
    cases = [(lam, m) for lam in shapes for m in range(len(lam), size(lam) + 1)]
    assert len(cases) == 45
    for lam, m in cases:
        lam_t = conjugate(lam)
        assert _schur_piece(lam_t, m) == _schur_piece_direct(lam_t, m), (lam, m)


def _surjective_row_increasing(lam_t, m):
    return [S for S in enumerate_row_increasing(lam_t, m) if len({x for row in S for x in row}) == m]


def test_row_orbit_weights_count_every_tableau():
    for lam in partitions_upto(6, include_empty=False):
        lam_t = conjugate(lam)
        for m in range(1, size(lam) + 1):
            orbits = list(_row_orbits(lam_t, m))
            assert sum(w for _, w in orbits) == len(_surjective_row_increasing(lam_t, m)), (lam, m)
            for S, _ in orbits:
                blocks = {}
                for row in S:
                    blocks.setdefault(len(row), []).append(row)
                assert all(rows == sorted(rows) for rows in blocks.values()), S


def test_row_orbit_fixtures():
    # lam = (5): 240 tableaux of shape (1^5) on {1..4}, 4 orbits of 60
    assert len(_surjective_row_increasing((1,) * 5, 4)) == 240
    assert list(_row_orbits((1,) * 5, 4)) == [
        (((1,), (1,), (2,), (3,), (4,)), 60),
        (((1,), (2,), (2,), (3,), (4,)), 60),
        (((1,), (2,), (3,), (3,), (4,)), 60),
        (((1,), (2,), (3,), (4,), (4,)), 60),
    ]
    # two identical rows: the orbit is S alone
    assert list(_row_orbits((2, 2), 2)) == [(((1, 2), (1, 2)), 1)]
    # no two rows of equal length: every S is its own orbit
    for m in range(3, 7):
        assert list(_row_orbits((3, 2, 1), m)) == [(S, 1) for S in _surjective_row_increasing((3, 2, 1), m)]


def test_shared_pieces_match_fresh_builds():
    # one dict serves every n and every shape; a piece exists for each m
    # with l(lam) <= m <= min(|lam|, n) and for no other m
    pieces = {}
    shapes = [(2, 1), (1, 1), (3,), (2, 2)]
    for n in range(1, 6):
        for lam in shapes:
            if len(lam) <= n:
                assert schur_element(lam, n, pieces).body == schur_element(lam, n).body, (lam, n)
    assert sorted(pieces) == sorted((lam, m) for lam in shapes for m in range(len(lam), size(lam) + 1))


def test_schur_element_hands_out_no_piece():
    # a caller that changes a returned body changes no piece and no later call
    pieces = {}
    fresh = {n: schur_element((2, 1), n).body for n in (2, 3, 4)}
    for n in (2, 3, 4, 3, 2):
        before = {key: dict(piece) for key, piece in pieces.items()}
        body = schur_element((2, 1), n, pieces).body
        assert body == fresh[n]
        body[((1, 1),)] = 5
        body.pop(next(w for w in body if w != ((1, 1),)))
        assert {key: pieces[key] for key in before} == before
    assert schur_element((2, 1), 3, pieces).body == fresh[3]


# H_k(n) and I_k(n) devirtualized over every tuple at once, with no
# grouping by letter set: the reference for _one_row's pieces.
def _one_row_direct(tuples, virtual, weight):
    words = {_left_block((i[::-1],), virtual) + _right_block((i,), virtual): weight(i) for i in tuples}
    return devirtualize(words)


def test_one_row_pieces_match_direct_sum():
    for n in range(1, 7):
        for k in range(1, n + 1):
            direct = _one_row_direct(combinations(range(1, n + 1), k), alpha, lambda idx: 1)
            assert capelli_H(k, n).body == direct, (k, n)
    for n in range(1, 6):
        for k in range(1, 7):
            direct = _one_row_direct(
                combinations_with_replacement(range(1, n + 1), k),
                beta,
                lambda idx: Fraction(_multinomial(idx), factorial(len(idx))),
            )
            assert nazarov_umeda_I(k, n).body == direct, (k, n)


def test_one_row_hands_out_no_piece():
    # a caller that changes a returned body changes no later call
    for build, k, n in [(capelli_H, 2, 3), (capelli_H, 3, 3), (nazarov_umeda_I, 3, 2), (nazarov_umeda_I, 2, 2)]:
        expected = build(k, n).body
        body = build(k, n).body
        for word in list(body):
            body[word] *= 3
        body[((1, 2),)] = 7
        assert build(k, n).body == expected


def test_constructor_argument_errors():
    with pytest.raises(ValueError):
        capelli_H(0, 2)
    with pytest.raises(ValueError):
        capelli_H(3, 2)
    with pytest.raises(ValueError):
        nazarov_umeda_I(0, 2)
    with pytest.raises(ValueError, match="H_k needs 1 <= k <= n"):
        capelli_H_cdet(0, 2)
    with pytest.raises(ValueError, match="I_k needs k >= 1"):
        nazarov_umeda_I_cper(0, 2)
    with pytest.raises(ValueError):
        capelli_immanant((2,), (1,), (1, 2))
    with pytest.raises(ValueError):
        capelli_immanant((2,), (1, 0), (1, 2))


def test_capelli_immanant_fixtures():
    assert capelli_immanant((1,), (1,), (2,)) == {((1, 2),): Fraction(1)}
    # permuting the right word instead of the left gives the same element
    rng = random.Random(0)
    for h in (2, 3):
        words = [(tup, tup) for tup in combinations_with_replacement(range(1, 4), h)]
        words += [(tuple(rng.sample((1, 2, 3), h)), tuple(rng.sample((1, 2, 3), h))) for _ in range(3)]
        for mu in partitions_of(h):
            for left, right in words:
                assert capelli_immanant(mu, left, right) == devirtualize(
                    _immanant_right_form(mu, left, right, 5)
                )


def test_capelli_immanant_action_matches_right_form():
    rng = random.Random(4)
    for mu in partitions_of(4):
        left, right = tuple(rng.sample((1, 2, 3, 4), 4)), tuple(rng.sample((1, 2, 3, 4), 4))
        probe = _content_probe(rng, right, 4)
        image = act(capelli_immanant(mu, left, right), probe)
        assert image
        assert image == act(_immanant_right_form(mu, left, right), probe)


def test_named_elements_are_central():
    assert is_central(capelli_H(2, 2).body, 2)
    assert is_central(nazarov_umeda_I(2, 2).body, 2)
    assert is_central(schur_element((2, 1), 2).body, 2)
    assert not is_central({((1, 2),): Fraction(1)}, 2)


def test_eigenvalue_fixtures():
    assert eigenvalue(capelli_H(1, 2), (2, 1)) == 3
    assert eigenvalue(capelli_H(1, 3), ()) == 0
    assert eigenvalue(schur_element((2, 1), 2), (2, 1)) == hook_number((2, 1))
    assert eigenvalue(schur_element((2, 1), 2), (3,)) == 0
    assert eigenvalue(CentralElement(one(), 2, "1"), (2,)) == 1


def test_eigenvalue_errors():
    with pytest.raises(ValueError):
        eigenvalue(capelli_H(1, 2), (1, 1, 1))
    x = CentralElement(capelli_bitableau(((2,),), ((1,),)), 2, "CB:2|1@n=2")
    with pytest.raises(ValueError):
        eigenvalue(x, (1,))


def test_olshanski_projection():
    assert olshanski_project(capelli_H(2, 3)).body == capelli_H(2, 2).body
    assert olshanski_project(capelli_H(3, 3)).body == {}
    assert olshanski_project(nazarov_umeda_I(2, 3)).body == nazarov_umeda_I(2, 2).body
    proj = olshanski_project(schur_element((2, 1), 3))
    assert proj.body == schur_element((2, 1), 2).body
    assert proj.n == 2
    # a central element has weight zero; e12 has no index 3 at all, so the
    # column rule alone would keep it and return e12 at n = 2
    for body in [{((3, 1),): 1}, {((1, 2),): 1}, {((1, 1),): 1, ((1, 3), (2, 2)): 2}]:
        with pytest.raises(ValueError, match="nonzero weight"):
            olshanski_project(CentralElement(body, 3, "user"))
    with pytest.raises(ValueError, match="^nothing to project$"):
        olshanski_project(CentralElement({}, 0, "user"))


def test_center_maps_reject_letters_outside_n():
    # e11 + e22 + e33 is central in U(gl(3)) but not an element of U(gl(2)):
    # unchecked, olshanski_project would return e11 + e33 at n = 1, and
    # harish_chandra would read the letter 0 as the last variable
    bodies = [{((1, 1),): 1, ((2, 2),): 1, ((3, 3),): 1}, {((0, 0),): 1}]
    for body in bodies:
        x = CentralElement(body, 2, "user")
        for f in (harish_chandra, duality_W, embed, olshanski_project):
            with pytest.raises(ValueError, match=r"element of U\(gl\(2\)\)"):
                f(x)
        with pytest.raises(ValueError, match=r"element of U\(gl\(2\)\)"):
            is_central(body, 2)


def test_embedding_section():
    assert embed(capelli_H(2, 2)).body == capelli_H(2, 3).body
    assert embed(nazarov_umeda_I(2, 2)).body == nazarov_umeda_I(2, 3).body
    for lam in [(2, 1), (2,), (1, 1)]:
        s = schur_element(lam, 2)
        lifted = embed(s)
        assert lifted.n == 3
        assert olshanski_project(lifted).body == s.body


def test_duality_exchanges_families():
    for n in (2, 3):
        for k in range(1, n + 1):
            assert duality_W(capelli_H(k, n)).body == nazarov_umeda_I(k, n).body
            assert duality_W(nazarov_umeda_I(k, n)).body == capelli_H(k, n).body


def test_duality_on_schur_elements_small():
    # W sends S_lam to S_{lam~} whenever |lam| <= n
    for n, lam in [(2, (2,)), (2, (1, 1)), (3, (2, 1)), (3, (3,)), (3, (1, 1, 1))]:
        assert size(lam) <= n
        assert duality_W(schur_element(lam, n)).body == schur_element(conjugate(lam), n).body


def test_duality_involution():
    for x in [schur_element((2, 1), 2), capelli_H(2, 3), nazarov_umeda_I(2, 2)]:
        assert duality_W(duality_W(x)).body == x.body


def test_duality_needs_small_shapes():
    # for |lam| > n the conjugation rule fails: pinned counterexample
    s = schur_element((2, 1), 2)
    w = duality_W(s)
    assert w.body != s.body  # (2,1) is self-conjugate, yet W moves it
    assert eigenvalue(s, (3,)) == 0
    assert eigenvalue(w, (3,)) == 6
    # the two agree on weights with at most two columns and two rows
    for mu in [(1,), (2,), (1, 1), (2, 1), (2, 2)]:
        assert eigenvalue(s, mu) == eigenvalue(w, mu)


def test_constructor_coefficients_are_exact():
    # the virtual constructors build integer bodies; normalized elements
    # may carry Fractions; nothing is ever a float
    integral = [
        capelli_bitableau(((1, 2),), ((2, 1),)),
        young_capelli(((1, 2),), ((1, 2),)),
        double_young_capelli(((1, 2),), ((1, 2),)),
        capelli_immanant((2, 1), (1, 2, 3), (1, 2, 3)),
        capelli_H(2, 3).body,
    ]
    for body in integral:
        assert body and {type(c) for c in body.values()} == {int}
    exact = [
        schur_element((2, 1), 2).body,
        nazarov_umeda_I(2, 2).body,
        nazarov_umeda_I_cper(2, 2).body,
        capelli_H_cdet(2, 2).body,
        duality_W(capelli_H(2, 2)).body,
        embed(capelli_H(1, 2)).body,
    ]
    for body in exact:
        assert body and {type(c) for c in body.values()} <= {int, Fraction}
    value = eigenvalue(capelli_H(2, 2), (1, 1))
    assert type(value) is Fraction and value == 2


def test_integer_coefficients_stay_integers():
    for body in [
        schur_element_hc((2, 1), 4).body,
        capelli_H_cdet(3, 4).body,
        highest_weight_vector((2, 1), 3),
    ]:
        assert body and {type(c) for c in body.values()} == {int}


def one_pass_body(coeffs, n, generator):
    """The polynomial coeffs in generator(k, n) by one PBW pass: multiply
    the raw words of every key, then normalize the sum once."""
    gens = {k: generator(k, n).body for k in set().union(*coeffs)}
    body = {}
    for key, c in coeffs.items():
        term = one()
        for k in key:
            term = elem_mul(term, gens[k])
        add_into(body, term, c)
    return pbw_normal_form(body)


def test_stepwise_product_is_the_one_pass_product():
    lam, n = (3, 2, 1), 4
    coeffs = express_in_estar_basis(s_star(lam, n))
    assert schur_element_hc(lam, n).body == one_pass_body(coeffs, n, capelli_H)
    x = schur_element_hc((2, 2), 4)
    coeffs = express_in_estar_basis(harish_chandra(x))
    assert duality_W(x).body == one_pass_body(coeffs, 4, nazarov_umeda_I)
    assert embed(x).body == one_pass_body(coeffs, 5, capelli_H)


def test_provenance_records_maps():
    assert duality_W(capelli_H(2, 2)).provenance == "W(H:2@n=2)"
    assert embed(capelli_H(1, 2)).provenance == "embed(H:1@n=2)"
    projected = olshanski_project(duality_W(capelli_H(2, 3)))
    assert projected.provenance == "project(W(H:2@n=3))"
    assert projected.body == nazarov_umeda_I(2, 2).body


def _all_int(body):
    return all(type(c) is int for c in body.values())


def test_constructors_keep_int_coefficients():
    # every (lam, n) of `verify --max-n 4 --max-size 4`, and H_k(n), I_k(n)
    # for n <= 5, k <= 6: the definition divides each piece exactly; the
    # column-permanent I_k(n) for k <= 5 divides its normalized sum exactly
    for n in range(1, 5):
        for lam in partitions_upto(4, include_empty=False):
            if len(lam) <= n:
                assert _all_int(schur_element(lam, n).body), (lam, n)
    for n in range(1, 6):
        for k in range(1, 7):
            if k <= n:
                assert _all_int(capelli_H(k, n).body), (k, n)
            assert _all_int(nazarov_umeda_I(k, n).body), (k, n)
            if k <= 5:
                assert _all_int(nazarov_umeda_I_cper(k, n).body), (k, n)


@pytest.mark.parametrize(
    "build",
    [lambda: schur_element((2, 1), 3), lambda: capelli_H(2, 2), lambda: nazarov_umeda_I(2, 2)],
    ids=["S:2,1@n=3", "H:2@n=2", "I:2@n=2"],
)
def test_inexact_piece_division_raises(monkeypatch, build):
    # one positive coefficient of the first devirtualized combination off by
    # one leaves a piece that its normalizing integer (3 or 2) does not divide
    real = central.devirtualize
    calls = []

    def off_by_one(words):
        out = real(words)
        if not calls:
            out[next(w for w, c in out.items() if c > 0)] += 1
        calls.append(words)
        return out

    monkeypatch.setattr(central, "devirtualize", off_by_one)
    with pytest.raises(ValueError, match="not divisible"):
        build()
