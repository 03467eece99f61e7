import json
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from glcenter.combinatorics import conjugate, enumerate_standard_proper, permutation_sign
from glcenter.lincomb import add as poly_add, add_term, scale as poly_scale, sub as poly_sub
from glcenter.superspace import (
    alpha,
    beta,
    biproduct,
    bitableau,
    const,
    gamma,
    highest_weight_vector,
    laplace_check,
    laplace_check_dual,
    normalize_vars,
    poly_from_json,
    poly_mul,
    poly_to_json,
    schur_module_dimension,
    span_dimension,
    straighten_oracle,
    superpolarize,
    symbol_degree,
    var_is_odd,
)


def v(sym, place):
    """Single superspace variable as a polynomial."""
    return {((sym, place),): Fraction(1)}


def product(*vars_):
    out = const(1)
    for sym, place in vars_:
        out = poly_mul(out, v(sym, place))
    return out


letter_pool = [1, 2, 3, alpha(1), alpha(2), beta(1)]
word_strategy = st.lists(st.sampled_from(letter_pool), min_size=0, max_size=2).map(tuple)
place_strategy = st.integers(min_value=1, max_value=5)


def test_variable_parities():
    # proper letters carry degree 1, so (i|j) is an even variable; positive
    # virtual symbols carry degree 0, so (alpha|j) is odd
    assert not var_is_odd((1, 1))
    assert not var_is_odd((beta(1), 1))
    assert var_is_odd((alpha(1), 1))
    assert var_is_odd((gamma(1), 1))


def test_odd_variable_squares_to_zero():
    p = v(alpha(1), 1)
    assert poly_mul(p, p) == {}
    assert poly_mul(v(1, 1), v(1, 1)) != {}


def test_odd_variables_anticommute():
    a, b = v(alpha(1), 1), v(alpha(2), 1)
    assert poly_mul(a, b) == poly_scale(poly_mul(b, a), -1)
    # even times odd commutes
    c = v(1, 1)
    assert poly_mul(a, c) == poly_mul(c, a)


def test_biproduct_shape_mismatch_is_zero():
    assert biproduct((1, 2), (1,)) == {}
    assert biproduct((1, 2), (1, 1)) == {}  # repeated place of odd aux symbol
    assert bitableau(((1, 2),), ((1,), (2,))) == {}


def test_biproduct_six_term_expansion():
    # (alpha1 alpha2 3 | 1 2 3) expanded into products of single variables,
    # written in display order with the displayed signs
    w = (alpha(1), alpha(2), 3)
    expected = poly_add(
        poly_add(
            poly_add(
                product((3, 1), (alpha(2), 2), (alpha(1), 3)),
                product((3, 1), (alpha(1), 2), (alpha(2), 3)),
            ),
            poly_add(
                poly_scale(product((alpha(2), 1), (3, 2), (alpha(1), 3)), -1),
                poly_scale(product((alpha(1), 1), (3, 2), (alpha(2), 3)), -1),
            ),
        ),
        poly_add(
            product((alpha(2), 1), (alpha(1), 2), (3, 3)),
            product((alpha(1), 1), (alpha(2), 2), (3, 3)),
        ),
    )
    assert biproduct(w, (1, 2, 3)) == expected
    assert len(expected) == 6


def test_laplace_expansion_letter_split():
    # split the letter word over places (1 2) and (3): three plus terms
    w = (alpha(1), alpha(2), 3)
    direct = biproduct(w, (1, 2, 3))
    expansion = poly_add(
        poly_add(
            poly_mul(biproduct((alpha(1), alpha(2)), (1, 2)), biproduct((3,), (3,))),
            poly_mul(biproduct((alpha(1), 3), (1, 2)), biproduct((alpha(2),), (3,))),
        ),
        poly_mul(biproduct((alpha(2), 3), (1, 2)), biproduct((alpha(1),), (3,))),
    )
    assert direct == expansion
    assert laplace_check_dual(w, (1, 2), (3,))


def test_laplace_expansion_place_split():
    # split the place word over letters (alpha1 alpha2) and (3): signs + - +
    w = (alpha(1), alpha(2), 3)
    direct = biproduct(w, (1, 2, 3))
    expansion = poly_add(
        poly_sub(
            poly_mul(biproduct((alpha(1), alpha(2)), (1, 2)), biproduct((3,), (3,))),
            poly_mul(biproduct((alpha(1), alpha(2)), (1, 3)), biproduct((3,), (2,))),
        ),
        poly_mul(biproduct((alpha(1), alpha(2)), (2, 3)), biproduct((3,), (1,))),
    )
    assert direct == expansion
    assert laplace_check((alpha(1), alpha(2)), (3,), (1, 2, 3))


def proper_biproduct_determinant(letters, places):
    # for proper letters the biproduct is a signed determinant of variables
    p = len(letters)
    out = {}
    for perm in permutations(range(p)):
        term = product(*((letters[r], places[perm[r]]) for r in range(p)))
        out = poly_add(out, poly_scale(term, permutation_sign(perm)))
    sign = -1 if (p * (p - 1) // 2) % 2 else 1
    return poly_scale(out, sign)


def test_proper_word_biproduct_is_signed_determinant():
    assert biproduct((1, 2), (1, 2)) == proper_biproduct_determinant((1, 2), (1, 2))
    assert biproduct((1, 3), (2, 1)) == proper_biproduct_determinant((1, 3), (2, 1))
    assert biproduct((1, 2, 3), (1, 2, 3)) == proper_biproduct_determinant(
        (1, 2, 3), (1, 2, 3)
    )
    assert biproduct((1, 2, 3), (3, 1, 2)) == proper_biproduct_determinant(
        (1, 2, 3), (3, 1, 2)
    )


def test_single_row_letter_swap_changes_sign():
    assert biproduct((2, 1), (1, 2)) == poly_scale(biproduct((1, 2), (1, 2)), -1)
    assert biproduct((1, 2), (2, 1)) == poly_scale(biproduct((1, 2), (1, 2)), -1)


@settings(max_examples=40, deadline=None)
@given(word_strategy, word_strategy, st.data())
def test_laplace_check_random(w1, w2, data):
    places = tuple(
        data.draw(st.lists(place_strategy, min_size=len(w1) + len(w2), max_size=len(w1) + len(w2)))
    )
    assert laplace_check(w1, w2, places)


@settings(max_examples=40, deadline=None)
@given(word_strategy, word_strategy, st.data())
def test_laplace_check_dual_random(w1, w2, data):
    w = w1 + w2
    places = tuple(
        data.draw(st.lists(place_strategy, min_size=len(w), max_size=len(w)))
    )
    assert laplace_check_dual(w, places[: len(w1)], places[len(w1) :])


def test_highest_weight_vector_weight_and_annihilation():
    for lam, n in [((2, 1), 3), ((2,), 2), ((1, 1, 1), 2), ((2, 2), 3)]:
        p = highest_weight_vector(lam, n)
        assert p
        weight = conjugate(lam)
        for mono in p:
            for i in range(1, n + 1):
                count = sum(1 for sym, _ in mono if sym == i)
                expected = weight[i - 1] if i <= len(weight) else 0
                assert count == expected
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert superpolarize(i, j, p) == {}


def test_highest_weight_vector_rejects_wide_shape():
    with pytest.raises(ValueError):
        highest_weight_vector((3,), 2)


def test_standard_bitableaux_are_a_basis():
    lam, n = (2, 1), 3
    dp = tuple(tuple(range(1, part + 1)) for part in lam)
    standard = enumerate_standard_proper(lam, n)
    basis = [bitableau(S, dp) for S in standard]
    assert len(standard) == 8
    assert span_dimension(basis) == len(basis)
    assert span_dimension([]) == 0
    assert schur_module_dimension(lam, n) == len(basis)
    assert schur_module_dimension((1, 1), 2) == 3


def test_straighten_oracle_recovers_standard_coordinates():
    lam, n = (2, 1), 3
    dp = ((1, 2), (1,))
    s = ((1, 2), (2,))
    assert straighten_oracle(bitableau(s, dp), lam, n) == {s: Fraction(1)}
    # a non-standard tableau straightens to a combination that reproduces it
    x = ((2, 3), (1,))
    p = bitableau(x, dp)
    coords = straighten_oracle(p, lam, n)
    rebuilt = {}
    for t, c in coords.items():
        rebuilt = poly_add(rebuilt, poly_scale(bitableau(t, dp), c))
    assert rebuilt == p
    assert all(t in enumerate_standard_proper(lam, n) for t in coords)


def test_straighten_oracle_rejects_outside_span():
    with pytest.raises(ValueError):
        straighten_oracle(v(1, 1), (2, 1), 3)


def test_poly_json_round_trip():
    p = biproduct((alpha(1), 2, 3), (1, 2, 3))
    assert poly_from_json(poly_to_json(p)) == p
    assert poly_from_json(poly_to_json({})) == {}
    q = poly_scale(v(beta(2), 4), Fraction(-7, 3))
    assert poly_from_json(poly_to_json(q)) == q


def test_poly_json_keeps_int_coefficients():
    p = bitableau(((1, 2),), ((1, 2),))
    back = poly_from_json(poly_to_json(p))
    assert back == p and back
    assert all(type(c) is int for c in back.values())
    q = poly_scale(p, Fraction(1, 3))
    back = poly_from_json(poly_to_json(q))
    assert back == q
    assert all(type(c) is Fraction for c in back.values())


def test_poly_from_json_canonicalizes_monomials():
    def text(places, coeff):
        return json.dumps([{"monomial": [["alpha", 1, j] for j in places], "coeff": coeff}])

    # (a1|2)(a1|1) = -(a1|1)(a1|2): both odd, so the swap is a sign
    swapped = poly_from_json(text((2, 1), "1"))
    assert swapped == poly_from_json(text((1, 2), "-1"))
    assert swapped == {((alpha(1), 1), (alpha(1), 2)): Fraction(-1)}
    assert all(type(c) is int for c in swapped.values())
    # (a1|1)^2 is the square of an odd variable
    assert poly_from_json(text((1, 1), "1")) == {}
    p = biproduct((alpha(1), 2, 3), (1, 2, 3))
    assert poly_to_json(poly_from_json(poly_to_json(p))) == poly_to_json(p)


def resort_superpolarize(a, b, p):
    """D_{a,b} by its definition: replace (b|j) by (a|j) and re-sort the
    whole product with normalize_vars."""
    d_deg = (symbol_degree(a) + symbol_degree(b)) % 2
    out = {}
    for mono, coeff in p.items():
        prefix_odd = 0
        for i, (sym, place) in enumerate(mono):
            if sym == b:
                sign = -1 if d_deg and prefix_odd % 2 else 1
                new, s2 = normalize_vars(mono[:i] + ((a, place),) + mono[i + 1 :])
                if new is not None:
                    add_term(out, new, coeff * sign * s2)
            if var_is_odd((sym, place)):
                prefix_odd += 1
    return out


# Few symbols and places, so that a drawn monomial often repeats an even
# variable or already holds the odd variable that D_{a,b} makes.
polarize_symbols = [1, 2, alpha(1), alpha(2), beta(1), beta(2), gamma(1)]
polarize_coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(bool)


@st.composite
def canonical_polys(draw):
    variables = st.tuples(st.sampled_from(polarize_symbols), st.integers(1, 3))
    p = {}
    for raw, c in draw(st.lists(st.tuples(st.lists(variables, max_size=5), polarize_coeffs), max_size=6)):
        mono, sign = normalize_vars(raw)
        if mono is not None:
            add_term(p, mono, sign * c)
    return p


@settings(max_examples=400, deadline=None)
@given(canonical_polys(), st.sampled_from(polarize_symbols), st.sampled_from(polarize_symbols))
# the new odd variable (a1|1) is already there
@example({((1, 1), (alpha(1), 1)): 1}, alpha(1), 1)
# a repeated even variable, the empty monomial, and a monomial with no b
@example({((1, 1), (1, 1)): Fraction(1, 2), (): 3, ((2, 1),): 1}, alpha(1), 1)
# (g1|2) passes the odd (a1|1) and (a2|3) on its way right
@example({((beta(1), 2), (alpha(1), 1), (alpha(2), 3)): Fraction(-2, 3)}, gamma(1), beta(1))
def test_superpolarize_matches_resort_reference(p, a, b):
    got, want = superpolarize(a, b, p), resort_superpolarize(a, b, p)
    assert got == want
    assert {m: type(c) for m, c in got.items()} == {m: type(c) for m, c in want.items()}
