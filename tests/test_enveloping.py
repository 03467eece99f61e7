import random
from itertools import combinations, combinations_with_replacement
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from glcenter import enveloping
from glcenter.central import _left_block, _right_block, capelli_bitableau, capelli_H, schur_element
from glcenter.enveloping import (
    act,
    devirtualize,
    elem_mul,
    element_from_json_obj,
    element_to_json_obj,
    filtration_degree,
    format_element,
    gen_degree,
    is_central,
    is_irregular,
    one,
    pbw_key,
    pbw_normal_form,
    random_balanced_word,
    supercommutator,
)
from glcenter.lincomb import add_into as elem_add_into, scale as elem_scale
from glcenter.superspace import alpha, beta, const, is_proper, poly_mul, superpolarize


def e(i, j):
    return {((i, j),): Fraction(1)}


def monomial_basket(n, d, max_deg):
    """All monomials in the proper variables (i|j), i <= n, j <= d, of total
    degree up to max_deg; proper variables commute so products are plain."""
    out = [const(1)]
    singles = [{((i, j),): Fraction(1)} for i in range(1, n + 1) for j in range(1, d + 1)]
    layer = [const(1)]
    for _ in range(max_deg):
        layer = [poly_mul(p, s) for p in layer for s in singles]
        out.extend(layer)
    return out


proper_word_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2)),
    max_size=3,
).map(tuple)


def test_gen_degree():
    assert gen_degree((1, 2)) == 0
    assert gen_degree((1, alpha(1))) == 1
    assert gen_degree((beta(1), 1)) == 0
    assert gen_degree((alpha(1), alpha(2))) == 0
    assert gen_degree((alpha(1), beta(1))) == 1


def test_supercommutator_even_pairs():
    assert supercommutator((1, 2), (2, 1)) == {((1, 1),): 1, ((2, 2),): -1}
    assert supercommutator((1, 1), (1, 2)) == {((1, 2),): 1}
    assert supercommutator((1, 2), (3, 4)) == {}
    assert supercommutator((1, alpha(1)), (alpha(1), 2)) == {((1, 2),): 1}


def test_supercommutator_odd_pair_is_anticommutator():
    # both generators odd: the bracket gains a plus on the second term
    got = supercommutator((1, alpha(1)), (alpha(1), 1))
    assert got == {((1, 1),): 1, ((alpha(1), alpha(1)),): 1}


def test_pbw_normal_form_swap():
    got = pbw_normal_form(elem_mul(e(1, 2), e(2, 1)))
    assert got == {((2, 1), (1, 2)): 1, ((1, 1),): 1, ((2, 2),): -1}
    # already ordered words pass through
    ordered = {((2, 1), (1, 1), (1, 2)): Fraction(1)}
    assert pbw_normal_form(ordered) == ordered


def test_pbw_normal_form_rejects_virtual():
    with pytest.raises(ValueError):
        pbw_normal_form({((1, alpha(1)),): Fraction(1)})


def test_pbw_normal_form_rejection_names_the_generator():
    with pytest.raises(ValueError, match=r"^non-proper generator in PBW input: \(1, \('a', 1\)\)$"):
        pbw_normal_form({((1, 2),): 1, ((1, alpha(1)),): Fraction(1)})


def test_devirtualize_skips_the_checked_pbw_route(monkeypatch):
    # devirtualize brings each proper word it reaches into PBW form itself,
    # so it never calls the checked public route
    rng = random.Random(11)
    words = [random_balanced_word(rng, 3, max_len=6) for _ in range(20)]
    expected = [devirtualize({w: 1}) for w in words]

    def checked_route(x):
        raise AssertionError("devirtualize re-checked its generators")

    monkeypatch.setattr(enveloping, "pbw_normal_form", checked_route)
    assert [devirtualize({w: 1}) for w in words] == expected
    with pytest.raises(ValueError, match="not balanced"):
        devirtualize({((alpha(1), 1),): 1})


def test_pbw_key_blocks():
    assert pbw_key((2, 1)) < pbw_key((1, 1)) < pbw_key((2, 2)) < pbw_key((1, 2))


def test_pbw_words_are_sorted():
    x = elem_mul(elem_mul(e(1, 2), e(2, 2)), e(2, 1))
    for word in pbw_normal_form(x):
        keys = [pbw_key(g) for g in word]
        assert keys == sorted(keys)


def test_pbw_normal_form_result_is_the_callers_own():
    # the per-word memo must not hand its own dicts out: mutating one
    # result may not change a later normal form of the same word
    word = ((1, 2), (2, 1))
    expected = {((2, 1), (1, 2)): 1, ((1, 1),): 1, ((2, 2),): -1}
    got = pbw_normal_form({word: 1})
    assert got == expected
    got[((3, 3),)] = 5
    for w in expected:
        got[w] *= 7
    assert pbw_normal_form({word: 1}) == expected


@settings(max_examples=60, deadline=None)
@given(proper_word_strategy, proper_word_strategy)
def test_pbw_normal_form_is_multiplicative(w1, w2):
    direct = pbw_normal_form({w1 + w2: Fraction(1)})
    staged = pbw_normal_form(
        elem_mul(pbw_normal_form({w1: Fraction(1)}), pbw_normal_form({w2: Fraction(1)}))
    )
    assert direct == staged


@settings(max_examples=40, deadline=None)
@given(proper_word_strategy)
def test_pbw_normal_form_preserves_action(word):
    x = {word: Fraction(1)}
    for p in monomial_basket(2, 2, 2):
        assert act(pbw_normal_form(x), p) == act(x, p)


def test_act_polarization_fixtures():
    p = {((2, 1),): Fraction(1)}
    assert act(e(1, 2), p) == {((1, 1),): Fraction(1)}
    assert act(e(1, 1), p) == {}
    assert act(e(2, 2), p) == p
    # rightmost factor acts first
    assert act(elem_mul(e(1, 2), e(2, 1)), {((1, 1),): Fraction(1)}) == {((1, 1),): 1}


def test_act_is_linear_and_composes():
    x = elem_mul(e(1, 2), e(2, 1))
    y = e(2, 2)
    for p in monomial_basket(2, 2, 2):
        assert act(elem_mul(x, y), p) == act(x, act(y, p))
    assert act(elem_scale(x, Fraction(3, 7)), p) == {
        m: Fraction(3, 7) * c for m, c in act(x, p).items()
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
def test_act_shares_right_factors_exactly(seed, count):
    # act polarizes each distinct right factor once per call; the reference
    # applies each word factor by factor. Words mix int and virtual symbols,
    # and one word may end where another goes on (its right factor, or the
    # empty word)
    rng = random.Random(seed)
    words = [random_balanced_word(rng, 2, max_len=4) for _ in range(count)]
    words += [w + words[0] for w in words[1:]]
    words += [w[rng.randint(1, len(w)) :] for w in words] + [()]
    x = {w: Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) for w in words}
    for p in monomial_basket(2, 2, 2):
        expected = {}
        for w, c in x.items():
            q = p
            for a, b in reversed(w):
                q = superpolarize(a, b, q)
            elem_add_into(expected, q, c)
        assert act(x, p) == expected


def test_is_irregular():
    a1 = alpha(1)
    assert is_irregular(((a1, a1),))
    assert is_irregular(((a1, 1), (1, a1)))
    assert not is_irregular(((1, a1), (a1, 1)))
    assert not is_irregular(((1, 2), (2, 1)))
    # annihilation in the same factor as a later creation still counts
    assert is_irregular(((1, a1),))
    # read from the right: created, annihilated, then annihilated again
    assert is_irregular(((1, a1), (2, a1), (a1, 3)))


def test_devirtualize_fixtures():
    a1 = alpha(1)
    # creation then annihilation of alpha contracts to a proper generator
    got = devirtualize({((1, a1), (a1, 2)): Fraction(1)})
    assert got == {((1, 2),): 1}
    # lone annihilator pushes off the end: zero
    assert devirtualize({((1, a1),): Fraction(1)}) == {}
    # lone creator survives: not balanced
    with pytest.raises(ValueError):
        devirtualize({((a1, 1),): Fraction(1)})
    assert devirtualize({((1, 2),): Fraction(1)}) == {((1, 2),): 1}


def test_random_balanced_word_properties():
    for seed in range(8):
        rng = random.Random(seed)
        for _ in range(5):
            word = random_balanced_word(rng, 2, max_len=5)
            assert 2 <= len(word) <= 5
            assert not is_irregular(word)
            created = {}
            annihilated = {}
            virtual_occurrences = 0
            for a, b in word:
                if not is_proper(a):
                    created[a] = created.get(a, 0) + 1
                    virtual_occurrences += 1
                if not is_proper(b):
                    annihilated[b] = annihilated.get(b, 0) + 1
                    virtual_occurrences += 1
            assert created and created == annihilated
            image = devirtualize({word: Fraction(1)})
            # each contraction removes at most two virtual occurrences and
            # shortens the word by one
            bound = len(word) - (virtual_occurrences + 1) // 2
            assert filtration_degree(image) <= bound


def _reference_balanced_word(rng, n, max_len):
    """The reference for random_balanced_word's drawing: one weighted
    `choices` call per symbol."""
    pool = list(range(1, n + 1)) + [alpha(1), alpha(2), beta(1), beta(2)]
    weights = [2] * n + [1] * 4
    while True:
        length = rng.randint(2, max_len)
        word = tuple(
            (rng.choices(pool, weights)[0], rng.choices(pool, weights)[0])
            for _ in range(length)
        )
        created = {}
        annihilated = {}
        for a, b in word:
            if not is_proper(a):
                created[a] = created.get(a, 0) + 1
            if not is_proper(b):
                annihilated[b] = annihilated.get(b, 0) + 1
        if created and created == annihilated and not is_irregular(word):
            return word


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_balanced_word_matches_reference(n):
    # one draw of 2 * length symbols makes the same random() calls as the
    # reference's draw per symbol, so the same seed gives the same words
    for seed in range(4):
        for max_len in (2, 4, 6):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(15):
                assert random_balanced_word(rng, n, max_len) == _reference_balanced_word(ref, n, max_len)


def test_devirtualize_matches_virtual_action():
    basket = monomial_basket(2, 2, 2)
    rng = random.Random(3)
    for _ in range(6):
        word = random_balanced_word(rng, 2, max_len=4)
        x = {word: Fraction(1)}
        image = devirtualize(x)
        for p in basket:
            assert act(x, p) == act(image, p)


def test_adjoint_and_centrality():
    casimir_degree_one = {((1, 1),): Fraction(1), ((2, 2),): Fraction(1)}
    assert is_central(casimir_degree_one, 2)
    assert not is_central(e(1, 2), 2)
    assert not is_central(e(1, 1), 2)


def test_format_element():
    assert format_element({}) == "0"
    assert format_element(e(1, 2)) == "e[1,2]"
    x = {((1, 1), (2, 2)): Fraction(1), ((2, 1), (1, 2)): Fraction(-1), ((2, 2),): Fraction(1)}
    assert format_element(x) == "e[2,2] + e[1,1]*e[2,2] - e[2,1]*e[1,2]"
    assert format_element(elem_scale(e(1, 1), Fraction(1, 2))) == "1/2*e[1,1]"
    assert format_element({((1, 2),): -1, ((2, 1),): 2}) == "-e[1,2] + 2*e[2,1]"
    assert format_element({(): -3, ((1, 1),): 1}) == "-3 + e[1,1]"
    assert format_element({((alpha(1), 2), (1, beta(2))): 3}) == "3*e[a1,2]*e[1,b2]"


def test_element_json_round_trip():
    x = {
        ((1, 2), (alpha(1), 1)): Fraction(-3, 2),
        ((beta(2), beta(2)),): Fraction(5),
        (): Fraction(1, 7),
    }
    obj = element_to_json_obj(x)
    assert element_from_json_obj(obj) == x
    y = pbw_normal_form(elem_mul(e(1, 2), e(2, 1)))
    assert element_from_json_obj(element_to_json_obj(y)) == y


# The recursive push memoized per (word, k), as devirtualization was first
# written: the reference for the loop in enveloping._devirt_word. It pushes
# the leftmost factor with a virtual column, the library the rightmost.
def _oracle_push(word, k, push_cache, devirt_cache):
    key = (word, k)
    if key in push_cache:
        return push_cache[key]
    result = {}
    if k < len(word) - 1:
        g, h = word[k], word[k + 1]
        sign = -1 if gen_degree(g) and gen_degree(h) else 1
        swapped = word[:k] + (h, g) + word[k + 2 :]
        elem_add_into(result, _oracle_push(swapped, k + 1, push_cache, devirt_cache), sign)
        for (gen,), c in supercommutator(g, h).items():
            contracted = word[:k] + (gen,) + word[k + 2 :]
            elem_add_into(result, _oracle_devirt_word(contracted, push_cache, devirt_cache), c)
    push_cache[key] = result
    return result


def _oracle_devirt_word(word, push_cache, devirt_cache):
    if word not in devirt_cache:
        pos = next((k for k, g in enumerate(word) if not is_proper(g[1])), None)
        if pos is None:
            devirt_cache[word] = {word: Fraction(1)}
        else:
            devirt_cache[word] = _oracle_push(word, pos, push_cache, devirt_cache)
    return devirt_cache[word]


def test_devirtualize_matches_recursive_push():
    rng = random.Random(2024)
    words = [random_balanced_word(rng, 3, max_len=8) for _ in range(300)]
    assert max(len(w) for w in words) == 8
    push_cache, devirt_cache = {}, {}
    for word in words:
        expected = _oracle_devirt_word(word, push_cache, devirt_cache)
        assert enveloping._devirt_word(word) == pbw_normal_form(expected), word
        assert devirtualize({word: 1}) == pbw_normal_form(expected), word


def _coefficient_types(x):
    return {type(c) for c in x.values()}


def test_coefficients_are_exact():
    rng = random.Random(7)
    for _ in range(40):
        word = random_balanced_word(rng, 3, max_len=6)
        assert _coefficient_types(devirtualize({word: 1})) <= {int}
        assert _coefficient_types(devirtualize({word: Fraction(1, 3)})) <= {Fraction}
    x = elem_mul(elem_mul(e(1, 2), e(2, 3)), e(3, 1))
    assert _coefficient_types(pbw_normal_form({w: 1 for w in x})) == {int}
    assert _coefficient_types(pbw_normal_form(x)) <= {int, Fraction}


# Small elements of U(gl(3)): single generators (e_{11} among them),
# Capelli bitableau images, and the central generators H_k(3).
_GL3_BLOCKS = (
    [e(i, j) for i in range(1, 4) for j in range(1, 4)]
    + [capelli_bitableau(S, T) for S, T in [
        (((1,),), ((2,),)),
        (((2,),), ((2,),)),
        (((1, 2),), ((1, 2),)),
        (((1,), (2,)), ((2,), (3,))),
    ]]
    + [capelli_H(k, 3).body for k in (1, 2, 3)]
)


def _is_central_brute_force(x, n):
    """The definition: x e_ij and e_ij x have one PBW form for every i, j."""
    return all(
        pbw_normal_form(elem_mul(x, e(i, j))) == pbw_normal_form(elem_mul(e(i, j), x))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


_gl3_element = st.lists(
    st.tuples(
        st.lists(st.sampled_from(range(len(_GL3_BLOCKS))), min_size=1, max_size=2),
        st.integers(min_value=-2, max_value=2),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(_gl3_element)
@example([([0], 1)])  # e_{11}: not central
@example([([13], 1), ([14, 15], -2)])  # a polynomial in the H_k(3): central
@example([([13, 9], 1)])  # H_1(3) times e_{12}: not central
def test_is_central_matches_all_generators(terms):
    x = {}
    for factors, c in terms:
        product = one()
        for f in factors:
            product = elem_mul(product, _GL3_BLOCKS[f])
        elem_add_into(x, product, c)
    x = pbw_normal_form(x)
    assert is_central(x, 3) == _is_central_brute_force(x, 3)


def _sum(*xs):
    out = {}
    for x in xs:
        elem_add_into(out, x)
    return out


def _check_is_central_cases(n):
    h1, h2, h3 = (capelli_H(k, n).body for k in (1, 2, 3))
    e12_e21 = pbw_normal_form(elem_mul(e(1, 2), e(2, 1)))
    cycle = pbw_normal_form(elem_mul(elem_mul(e(1, 2), e(2, 3)), e(3, 1)))
    cases = [
        (h2, True),
        (pbw_normal_form(elem_mul(h1, h3)), True),
        # weight zero, not central: only the commutators can tell
        (_sum(h2, e12_e21), False),
        (_sum(h3, e(1, 1), elem_scale(e(2, 2), -1)), False),
        (_sum(h2, e(4, 4), elem_scale(e(1, 1), -1)), False),
        (_sum(h1, cycle), False),
        # nonzero weight: refused before any commutator, unless it is 0 in U
        (_sum(h2, e(1, 2)), False),
        (_sum(h2, e(4, 1)), False),
        (_sum(h2, elem_mul(e(1, 2), e(1, 3)), elem_scale(elem_mul(e(1, 3), e(1, 2)), -1)), True),
    ]
    if n == 5:
        s21 = schur_element((2, 1), 5).body
        cases += [(s21, True), (_sum(s21, e12_e21), False)]
    for x, central in cases:
        assert _is_central_brute_force(x, n) == central
        assert is_central(x, n) == central


def test_is_central_matches_all_generators_at_n4():
    _check_is_central_cases(4)


def test_is_central_matches_all_generators_at_n5():
    _check_is_central_cases(5)


def test_is_central_rejects_letters_outside_gl_n():
    with pytest.raises(ValueError):
        is_central(e(3, 3), 2)
    with pytest.raises(ValueError):
        is_central({((1, alpha(1)),): 1}, 2)
    assert is_central(e(1, 1), 1)
    assert is_central(one(), 1)


def test_rightmost_push_matches_leftmost_push():
    # the oracle pushes the leftmost factor with a virtual column, the library
    # the rightmost. Seeded words at n = 4 (the recursive-push test draws them
    # at n = 3), and the words of capelli_H(k, n) and nazarov_umeda_I(k, n)
    # for k, n <= 5, which are all words over the letters 1..5
    rng = random.Random("push-order/4")
    words = [random_balanced_word(rng, 4, max_len=7) for _ in range(150)]
    for k in range(1, 6):
        for idx in combinations(range(1, 6), k):
            words.append(_left_block((idx[::-1],), alpha) + _right_block((idx,), alpha))
        for idx in combinations_with_replacement(range(1, 6), k):
            words.append(_left_block((idx[::-1],), beta) + _right_block((idx,), beta))
    push_cache, devirt_cache = {}, {}
    for word in words:
        expected = pbw_normal_form(_oracle_devirt_word(word, push_cache, devirt_cache))
        assert devirtualize({word: 1}) == expected, word


def test_unbalanced_input_error_is_unchanged():
    a1, a2 = alpha(1), alpha(2)
    for word in [((a1, 1),), ((a1, 1), (2, a2), (a2, 3)), ((2, a2), (a1, 1), (a2, 2))]:
        with pytest.raises(ValueError, match=r"^input is not balanced: virtual generator \(\('a', 1\), 1\) survives$"):
            devirtualize({word: 1})


def test_devirtualization_memo_of_capelli_H_6_6_stays_small():
    # pushing the leftmost virtual factor left 23,753 entries here
    enveloping._devirt_cache.clear()
    enveloping._pbw_cache.clear()
    capelli_H(6, 6)
    assert len(enveloping._devirt_cache) <= 8000
